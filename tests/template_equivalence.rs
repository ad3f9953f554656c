//! Pins that the scheduling-template cache is behaviorally invisible.
//!
//! The cache (`swift_scheduler::TemplateCache`) memoizes control-plane
//! decisions — graphlet partition, gang-layout skeleton, shuffle-scheme
//! priors — keyed by the job's as-numbered DAG shape, and instantiates them
//! per job by parameter patching. Every job is admitted through it, so a
//! cached plan must be indistinguishable from one computed from scratch.
//! This suite pins that contract from the outside:
//!
//! * every registry scenario, across three seeds, reproduces the
//!   [`RunReport`] digest and the event trace that from-scratch planning
//!   produced (template bookkeeping stripped, see [`stripped_digest`]),
//!   and the table scores at least one hit, so the pin never goes
//!   vacuous;
//! * a fault injected into a job whose plan came *from the cache*
//!   recovers exactly like a from-scratch run: instantiation shares no
//!   mutable state between jobs, so invalidation and replanning see a
//!   normal plan.
//!
//! [`RunReport`]: swift::scheduler::RunReport

use std::sync::Arc;

use swift::cluster::{Cluster, CostModel};
use swift::dag::{DagBuilder, JobDag, Operator, StageProfile};
use swift::ft::FailureKind;
use swift::scheduler::{FailureAt, FailureInjection, JobSpec, SimConfig, SimEvent, Simulation};
use swift::sim::{Fnv64, SimDuration, SimTime};
use swift::trace::scenarios;
use swift::trace::{RecorderConfig, Trace, TraceRecorder};

/// `(scenario, seed, RunReport digest, stripped trace digest)` of every
/// registry scenario at seeds 1, 7 and 23, captured when every job was
/// still planned from scratch (no template cache on the admission path).
const FROM_SCRATCH: [(&str, u64, u64, u64); 21] = [
    ("tiny", 1, 0xbff339ca266bf4cf, 0x01bf0911686f8dff),
    ("tiny", 7, 0xbff339ca266bf4cf, 0x0350d9bd2e7b91cd),
    ("tiny", 23, 0xbff339ca266bf4cf, 0x6ac87a9c07db28a3),
    ("diamond", 1, 0x2bbe487cd7a369a2, 0xc22c9463d64b3404),
    ("diamond", 7, 0x37f3d88836b51dc7, 0x1baabd99ed06d4e3),
    ("diamond", 23, 0x224cb40d8505a5de, 0x6374de2c945d468a),
    ("barrier", 1, 0xde5763e3bb986617, 0x2df64f86959f2d74),
    ("barrier", 7, 0x3abbc63e85eb57c4, 0xef286d908754c25e),
    ("barrier", 23, 0x70a0845746af0107, 0x81ff61d4ee43c3de),
    ("wave", 1, 0x95ca1fb45c53bdc8, 0x4e6030def27f447a),
    ("wave", 7, 0x95ca1fb45c53bdc8, 0x1289dada235b205d),
    ("wave", 23, 0x95ca1fb45c53bdc8, 0x12c99b27ebff9d8a),
    ("fault", 1, 0xa95779f342d1f266, 0x39e77dad740f5403),
    ("fault", 7, 0xdce0b5ab5e174d97, 0x8941ff29ea320567),
    ("fault", 23, 0xa3d4198afcab5217, 0xe5acdf25dbc095ab),
    ("multijob", 1, 0x312b7e8738c4acf3, 0x9b9a6cec3c9ff791),
    ("multijob", 7, 0xf834fc6fc58ee4fc, 0x71dbf16bb2753eb8),
    ("multijob", 23, 0xf965f382a2014d30, 0x7e535373a4196345),
    ("repeat_shapes", 1, 0x1991da82b811f68b, 0x3faaef9b59518ff1),
    ("repeat_shapes", 7, 0x64e48869a052eb27, 0x8a48a8c8be6c6b58),
    ("repeat_shapes", 23, 0x3a526cd56d656c27, 0x8b6fd3b56c2b1ccd),
];

/// Digest of a rendered text trace with the template cache's own
/// bookkeeping taken out: the `template_*` lines, the `# events=` footer
/// that counts them, and the template counter series s7–s9 of every
/// `counters` line. What is left is the trace from-scratch planning
/// recorded.
fn stripped_digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    for line in text.lines() {
        if line.starts_with("# events=") {
            continue;
        }
        let kind = line.split_whitespace().nth(1).unwrap_or("");
        if kind.starts_with("template_") {
            continue;
        }
        if kind == "counters" {
            let fields: Vec<&str> = line
                .split_whitespace()
                .map(|f| match f.split_once('=') {
                    Some(("s7", _)) => "s7=0",
                    Some(("s8", _)) => "s8=0",
                    Some(("s9", _)) => "s9=0",
                    _ => f,
                })
                .collect();
            h.eat_str(&fields.join(" "));
        } else {
            h.eat_str(line);
        }
    }
    h.finish()
}

/// The headline pin: every registry scenario at three seeds, planned
/// through the cache, reproduces the report digest and stripped trace of
/// its cache-off (from-scratch) run.
#[test]
fn cache_on_equals_cache_off_across_registry() {
    let names = scenarios::names();
    assert_eq!(FROM_SCRATCH.len(), names.len() * 3, "a scenario has no pin");
    let mut hits = 0;
    for (name, seed, report_digest, trace_digest) in FROM_SCRATCH {
        assert!(names.contains(&name), "{name}: not in the registry");
        let (trace, report) = scenarios::run_traced(name, seed, RecorderConfig::full())
            .expect("registry scenario exists");
        assert_eq!(
            report.digest(),
            report_digest,
            "{name}/{seed}: report digest moved from from-scratch planning"
        );
        assert_eq!(
            stripped_digest(&trace.render_text()),
            trace_digest,
            "{name}/{seed}: event trace moved from from-scratch planning"
        );
        trace
            .check_spans()
            .unwrap_or_else(|e| panic!("{name}/{seed}: span discipline: {e}"));
        hits += trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, SimEvent::TemplateHit { .. }))
            .count();
    }
    assert!(hits > 0, "no registry run ever hit the template cache");
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

fn run_faulted() -> (Trace, u64) {
    let (specs, injections) = faulted_repeat_workload();
    let cluster = Cluster::new(4, 2, CostModel::default());
    let mut sim = Simulation::new(cluster, SimConfig::swift(), specs);
    sim.inject_failures(injections);
    let (rec, handle) = TraceRecorder::new("faulted_repeat", 0, RecorderConfig::full());
    sim.set_observer(Box::new(rec));
    let report = sim.run();
    (handle.finish(), report.digest())
}

/// The faulted run's report digest when both jobs were planned from
/// scratch.
const FAULTED_FROM_SCRATCH: u64 = 0xab66c0acb5608298;

/// Fine-grained recovery must work when the failed job's plan was
/// *instantiated from the cache* rather than computed from scratch: the
/// second (cache-hit) job loses a task to a process restart and the run
/// still ends with the from-scratch report.
#[test]
fn recovery_replans_from_an_instantiated_plan() {
    // Prove the setup does what the test name claims: job 1 is served by
    // the cache and then suffers the fault.
    let (trace, digest) = run_faulted();
    let hit_job = trace.events.iter().find_map(|e| match e.kind {
        SimEvent::TemplateHit { job, .. } => Some(job),
        _ => None,
    });
    assert_eq!(hit_job, Some(1), "job 1's plan must come from the cache");
    let recovery_planned = trace
        .events
        .iter()
        .any(|e| matches!(e.kind, SimEvent::RecoveryPlanned { job, .. } if job == 1));
    assert!(
        recovery_planned,
        "the injected restart must drive replanning on the cache-served job"
    );
    trace.check_spans().expect("faulted span discipline");
    assert_eq!(
        digest, FAULTED_FROM_SCRATCH,
        "recovery from an instantiated plan diverged from the scratch plan"
    );
}
