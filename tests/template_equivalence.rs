//! Differential proof that the scheduling-template cache is behaviorally
//! invisible.
//!
//! The cache (`swift_scheduler::TemplateCache`) memoizes control-plane
//! decisions — graphlet partition, gang-layout skeleton, shuffle-scheme
//! priors — keyed by the job's as-numbered DAG shape, and instantiates them
//! per job by parameter patching. It is a pure *cost* optimization: a cached plan must
//! be indistinguishable from one computed from scratch. This suite pins
//! that contract from the outside:
//!
//! * every registry scenario, across three seeds, produces a byte-identical
//!   [`RunReport`] digest and a byte-identical event trace with the cache
//!   on and off (template bookkeeping events excluded — they only exist on
//!   the cache-on side by construction), and the cache-on side scores at
//!   least one hit, so the differential never goes vacuous;
//! * a fault injected into a job whose plan came *from the cache* recovers
//!   exactly like a from-scratch run: instantiation shares no mutable state
//!   between jobs, so invalidation and replanning see a normal plan.

use std::sync::Arc;

use swift::cluster::{Cluster, CostModel};
use swift::dag::{DagBuilder, JobDag, Operator, StageProfile};
use swift::ft::FailureKind;
use swift::scheduler::{FailureAt, FailureInjection, JobSpec, SimConfig, Simulation};
use swift::sim::{SimDuration, SimTime};
use swift::trace::scenarios;
use swift::trace::{RecorderConfig, Trace, TraceEventKind, TraceRecorder};

/// Recorder settings for differential comparison: everything except the
/// template events themselves (which announce cache hits and misses, and
/// so can only appear on the cache-on side).
fn differential_recorder() -> RecorderConfig {
    RecorderConfig {
        template_events: false,
        ..RecorderConfig::full()
    }
}

/// Runs `(scenario, seed)` with the cache forced on or off and returns
/// the trace, the report digest and the template-cache hit count (every
/// lookup happens at construction, so the count is final before the run).
fn run_side(name: &str, seed: u64, templates: bool) -> (Trace, u64, u64) {
    let mut sim = scenarios::build_with(name, seed, templates).expect("registry scenario exists");
    let hits = sim.template_stats().map_or(0, |s| s.hits());
    let (recorder, handle) = TraceRecorder::new(name, seed, differential_recorder());
    sim.set_observer(Box::new(recorder));
    let report = sim.run();
    (handle.finish(), report.digest(), hits)
}

/// The headline gate: for every scenario in the registry and three seeds,
/// cache-on and cache-off runs are byte-identical — same report digest,
/// same rendered event stream.
#[test]
fn cache_on_equals_cache_off_across_registry() {
    let mut hits = 0;
    for name in scenarios::names() {
        for seed in [1u64, 7, 23] {
            let (trace_on, digest_on, hits_on) = run_side(name, seed, true);
            let (trace_off, digest_off, _) = run_side(name, seed, false);
            hits += hits_on;
            assert_eq!(
                digest_on, digest_off,
                "{name}/{seed}: report digest diverged with the template cache on"
            );
            assert_eq!(
                trace_on.render_text(),
                trace_off.render_text(),
                "{name}/{seed}: event trace diverged with the template cache on"
            );
            trace_on
                .check_spans()
                .unwrap_or_else(|e| panic!("{name}/{seed}: cache-on span discipline: {e}"));
        }
    }
    assert!(hits > 0, "the cache-on side never hit the template cache");
}

fn fault_profile(input: u64, output: u64, process_us: u64) -> StageProfile {
    StageProfile {
        input_rows_per_task: input / 100,
        input_bytes_per_task: input,
        output_bytes_per_task: output,
        process_us_per_task: process_us,
        locality: vec![],
    }
}

/// A small fan-out/fan-in job whose middle stages run long enough for a
/// mid-run process restart (plus the 1 s detection delay) to land while
/// downstream work is still blocked on the lost task.
fn fanout_dag(job: u64) -> JobDag {
    let mut b = DagBuilder::new(job, "fanout");
    let scan = b
        .stage("scan", 3)
        .op(Operator::TableScan { table: "t".into() })
        .op(Operator::ShuffleWrite)
        .profile(fault_profile(2 << 20, 1 << 20, 420_000))
        .build();
    let grind = b
        .stage("grind", 2)
        .op(Operator::ShuffleRead)
        .op(Operator::Filter)
        .op(Operator::ShuffleWrite)
        .profile(fault_profile(1 << 20, 512 << 10, 320_000))
        .build();
    let skim = b
        .stage("skim", 2)
        .op(Operator::ShuffleRead)
        .op(Operator::Project)
        .op(Operator::ShuffleWrite)
        .profile(fault_profile(1 << 20, 256 << 10, 260_000))
        .build();
    let merge = b
        .stage("merge", 2)
        .op(Operator::ShuffleRead)
        .op(Operator::MergeJoin)
        .op(Operator::AdhocSink)
        .profile(fault_profile(768 << 10, 0, 550_000))
        .build();
    b.edge(scan, grind)
        .edge(scan, skim)
        .edge(grind, merge)
        .edge(skim, merge);
    b.build().expect("fanout DAG is valid")
}

/// Two same-shape jobs, staggered so the second job's plan comes from the
/// cache, with a process restart injected into the second job.
fn faulted_repeat_workload() -> (Vec<JobSpec>, Vec<FailureInjection>) {
    let specs = vec![
        JobSpec {
            dag: Arc::new(fanout_dag(0)),
            submit_at: SimTime::ZERO,
        },
        JobSpec {
            dag: Arc::new(fanout_dag(1)),
            submit_at: SimTime::ZERO + SimDuration::from_millis(150),
        },
    ];
    let injections = vec![FailureInjection {
        job_index: 1,
        stage: "grind".to_string(),
        task_index: 0,
        at: FailureAt::AfterSubmit(SimDuration::from_millis(700)),
        kind: FailureKind::ProcessRestart,
    }];
    (specs, injections)
}

fn run_faulted(templates: bool, recorder: RecorderConfig) -> (Trace, u64) {
    let (specs, injections) = faulted_repeat_workload();
    let cluster = Cluster::new(4, 2, CostModel::default());
    let cfg = SimConfig {
        templates,
        ..SimConfig::swift()
    };
    let mut sim = Simulation::new(cluster, cfg, specs);
    sim.inject_failures(injections);
    let (rec, handle) = TraceRecorder::new("faulted_repeat", 0, recorder);
    sim.set_observer(Box::new(rec));
    let report = sim.run();
    (handle.finish(), report.digest())
}

/// Fine-grained recovery must work when the failed job's plan was
/// *instantiated from the cache* rather than computed from scratch: the
/// second (cache-hit) job loses a task to a process restart and the run
/// still ends byte-identical to the cache-off run.
#[test]
fn recovery_replans_from_an_instantiated_plan() {
    // First, with template events on, prove the setup does what the test
    // name claims: job 1 is served by the cache and then suffers the fault.
    let (trace, _) = run_faulted(true, RecorderConfig::full());
    let hit_job = trace.events.iter().find_map(|e| match e.kind {
        TraceEventKind::TemplateHit { job, .. } => Some(job),
        _ => None,
    });
    assert_eq!(hit_job, Some(1), "job 1's plan must come from the cache");
    let recovery_planned = trace
        .events
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::RecoveryPlanned { job, .. } if job == 1));
    assert!(
        recovery_planned,
        "the injected restart must drive replanning on the cache-served job"
    );
    trace
        .check_spans()
        .expect("faulted cache-on span discipline");

    // Then the differential: identical digest and trace either way.
    let (trace_on, digest_on) = run_faulted(true, differential_recorder());
    let (trace_off, digest_off) = run_faulted(false, differential_recorder());
    assert_eq!(
        digest_on, digest_off,
        "recovery from an instantiated plan diverged from the scratch plan"
    );
    assert_eq!(trace_on.render_text(), trace_off.render_text());
}
