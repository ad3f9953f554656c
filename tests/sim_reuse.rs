//! The reuse oracle: a `Simulation` loaded again after a run behaves
//! exactly like a new one.
//!
//! `swift-service` keeps one inner simulation for a whole service run and
//! loads every started job into it (`Simulation::load` rewinds the queue,
//! the cluster and the scheduler state). This suite runs one sequence of
//! workloads two ways, each in a `SchedulerSession` of its own: on one
//! reused simulation, and each on a new `Simulation::new_in_session` over
//! a new cluster. Every step must give the same `RunReport` digest and the
//! same trace text from a full `TraceRecorder` (input reads, the Cache
//! Worker shadow model, counter frames). The sequence mixes template
//! misses and hits and workloads of one to three jobs, and puts a clean
//! whole-cluster job after one with task faults, a machine crash and a
//! `MachineUnhealthy` failure, so health, free-stack order or Cache Worker
//! state that leaked from one run into the next would show.

use std::sync::Arc;

use swift::cluster::{Cluster, CostModel, MachineId};
use swift::dag::{DagBuilder, JobDag, Operator, StageProfile};
use swift::ft::FailureKind;
use swift::scheduler::{
    FailureAt, FailureInjection, JobSpec, RunReport, SchedulerSession, SimConfig, Simulation,
};
use swift::sim::{SimDuration, SimTime};
use swift::trace::{RecorderConfig, TraceEventKind, TraceRecorder};
use swift::workload::terasort_dag;

const MACHINES: u32 = 4;
const EXECUTORS_PER_MACHINE: u32 = 2;

fn profile(input: u64, output: u64, process_us: u64) -> StageProfile {
    StageProfile {
        input_rows_per_task: input / 100,
        input_bytes_per_task: input,
        output_bytes_per_task: output,
        process_us_per_task: process_us,
        locality: vec![],
    }
}

/// A scan fanning out to two stages that a merge join reads; stages run
/// for hundreds of milliseconds, so faults land mid-run.
fn diamond(job: u64) -> JobDag {
    let mut b = DagBuilder::new(job, "diamond");
    let scan = b
        .stage("scan", 3)
        .op(Operator::TableScan { table: "t".into() })
        .op(Operator::ShuffleWrite)
        .profile(profile(2 << 20, 1 << 20, 400_000))
        .build();
    let left = b
        .stage("left", 2)
        .op(Operator::ShuffleRead)
        .op(Operator::Filter)
        .op(Operator::ShuffleWrite)
        .profile(profile(1 << 20, 512 << 10, 300_000))
        .build();
    let right = b
        .stage("right", 2)
        .op(Operator::ShuffleRead)
        .op(Operator::Project)
        .op(Operator::ShuffleWrite)
        .profile(profile(1 << 20, 256 << 10, 250_000))
        .build();
    let join = b
        .stage("join", 2)
        .op(Operator::ShuffleRead)
        .op(Operator::MergeJoin)
        .op(Operator::AdhocSink)
        .profile(profile(768 << 10, 0, 600_000))
        .build();
    b.edge(scan, left)
        .edge(scan, right)
        .edge(left, join)
        .edge(right, join);
    b.build().expect("diamond DAG is valid")
}

/// A chain whose every edge implies a sort: each stage is its own
/// graphlet, so every edge stages its data in Cache Worker memory.
fn barrier_chain(job: u64) -> JobDag {
    let mut b = DagBuilder::new(job, "barrier-chain");
    let mut prev = None;
    for (i, out) in [2_000u64, 20_000, 60_000].into_iter().enumerate() {
        let id = b
            .stage(format!("B{i}"), 2 + i as u32)
            .op(if i == 0 {
                Operator::TableScan { table: "t".into() }
            } else {
                Operator::ShuffleRead
            })
            .op(Operator::MergeSort)
            .op(Operator::ShuffleWrite)
            .profile(profile(64 << 10, out, 90_000))
            .build();
        if let Some(p) = prev {
            b.edge(p, id);
        }
        prev = Some(id);
    }
    let sink = b
        .stage("sink", 2)
        .op(Operator::ShuffleRead)
        .op(Operator::StreamedAggregate)
        .op(Operator::AdhocSink)
        .profile(profile(64 << 10, 0, 15_000))
        .build();
    b.edge(prev.expect("chain is non-empty"), sink);
    b.build().expect("barrier DAG is valid")
}

/// One stage as wide as the whole cluster: its gang fits only if every
/// machine is healthy with all its executors free, and the executors it
/// is handed are the free stacks' order.
fn wide(job: u64) -> JobDag {
    let mut b = DagBuilder::new(job, "wide");
    b.stage("W", MACHINES * EXECUTORS_PER_MACHINE)
        .op(Operator::TableScan { table: "t".into() })
        .op(Operator::AdhocSink)
        .profile(profile(1 << 20, 1 << 10, 100_000))
        .build();
    b.build().expect("wide DAG is valid")
}

/// One load: its jobs (submit offsets in ms), task injections and
/// machine crashes.
struct Step {
    jobs: Vec<(JobDag, u64)>,
    injections: Vec<FailureInjection>,
    crashes: Vec<(SimTime, MachineId)>,
}

fn clean(jobs: Vec<(JobDag, u64)>) -> Step {
    Step {
        jobs,
        injections: Vec::new(),
        crashes: Vec::new(),
    }
}

fn inject(
    job_index: usize,
    stage: &str,
    task_index: u32,
    ms: u64,
    kind: FailureKind,
) -> FailureInjection {
    FailureInjection {
        job_index,
        stage: stage.to_string(),
        task_index,
        at: FailureAt::AfterSubmit(SimDuration::from_millis(ms)),
        kind,
    }
}

/// Misses, then hits, then a faulted step, then clean whole-cluster and
/// cache-hit jobs.
fn sequence() -> Vec<Step> {
    vec![
        clean(vec![
            (diamond(0), 0),
            (terasort_dag(1, 2, 2, 1 << 20), 40),
            (barrier_chain(11), 60),
        ]),
        clean(vec![(diamond(2), 0)]),
        clean(vec![(wide(3), 0)]),
        Step {
            jobs: vec![
                (diamond(4), 0),
                (terasort_dag(5, 3, 2, 2 << 20), 30),
                (barrier_chain(12), 20),
            ],
            injections: vec![
                inject(0, "left", 0, 700, FailureKind::ProcessRestart),
                inject(0, "scan", 1, 150, FailureKind::MachineCrash),
                inject(0, "right", 1, 650, FailureKind::MachineUnhealthy),
                inject(1, "reduce", 0, 50, FailureKind::ApplicationError),
            ],
            crashes: vec![(SimTime::ZERO + SimDuration::from_millis(300), MachineId(1))],
        },
        clean(vec![(wide(6), 0)]),
        clean(vec![
            (diamond(7), 0),
            (terasort_dag(8, 2, 2, 1 << 20), 10),
            (wide(9), 20),
        ]),
        clean(vec![(diamond(10), 0)]),
    ]
}

fn cluster() -> Cluster {
    Cluster::new(MACHINES, EXECUTORS_PER_MACHINE, CostModel::default())
}

fn specs(step: &Step) -> Vec<JobSpec> {
    step.jobs
        .iter()
        .map(|(dag, ms)| {
            JobSpec::at(
                Arc::new(dag.clone()),
                SimTime::ZERO + SimDuration::from_millis(*ms),
            )
        })
        .collect()
}

/// Arms `step`'s faults and a full recorder, runs, and returns the
/// report, the rendered trace and the recorded event kinds.
fn run_step(
    sim: &mut Simulation,
    step: &Step,
    i: usize,
) -> (RunReport, String, Vec<TraceEventKind>) {
    sim.inject_failures(step.injections.clone());
    sim.fail_machines(step.crashes.clone());
    let (rec, handle) = TraceRecorder::new("sim_reuse", i as u64, RecorderConfig::full());
    sim.set_observer(Box::new(rec));
    let report = sim.run_loaded();
    let trace = handle.finish();
    let text = trace.render_text();
    let kinds = trace.events.into_iter().map(|e| e.kind).collect();
    (report, text, kinds)
}

/// How many of `kinds` match `f`.
fn count(kinds: &[TraceEventKind], f: fn(&TraceEventKind) -> bool) -> usize {
    kinds.iter().filter(|k| f(k)).count()
}

/// The index of the faulted step in [`sequence`].
const FAULTED: usize = 3;

#[test]
fn a_reused_simulation_runs_every_step_like_a_new_one() {
    let steps = sequence();
    let mut fresh_session = SchedulerSession::new(&SimConfig::swift().policy);
    let mut reused_session = SchedulerSession::new(&SimConfig::swift().policy);
    let mut reused = Simulation::new_in_session(
        cluster(),
        SimConfig::swift(),
        Vec::new(),
        &mut reused_session,
    );
    let mut recorded = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let mut fresh = Simulation::new_in_session(
            cluster(),
            SimConfig::swift(),
            specs(step),
            &mut fresh_session,
        );
        let (want, want_text, kinds) = run_step(&mut fresh, step, i);
        reused.load(specs(step), &mut reused_session);
        let (got, got_text, _) = run_step(&mut reused, step, i);
        assert_eq!(got.digest(), want.digest(), "step {i}: report digest");
        assert!(
            got_text == want_text,
            "step {i}: trace text differs from a new simulation's"
        );
        let aborted = got.jobs.iter().filter(|j| j.aborted).count();
        assert_eq!(aborted, usize::from(i == FAULTED), "step {i}: aborted jobs");
        recorded.push(kinds);
    }

    // The oracle is only as strong as what the sequence exercises.
    let total = |f: fn(&TraceEventKind) -> bool| -> usize {
        recorded.iter().map(|kinds| count(kinds, f)).sum()
    };
    let hits = total(|k| matches!(k, TraceEventKind::TemplateHit { .. }));
    let misses = total(|k| matches!(k, TraceEventKind::TemplateMiss { .. }));
    assert!(hits >= 5 && misses >= 3, "hits {hits}, misses {misses}");
    let faulted = &recorded[FAULTED];
    assert_eq!(
        count(faulted, |k| matches!(
            k,
            TraceEventKind::MachineHealthChanged { .. }
        )),
        2,
        "the faulted step crashes two machines"
    );
    assert!(
        count(faulted, |k| matches!(
            k,
            TraceEventKind::RecoveryPlanned { abort: false, .. }
        )) >= 3,
        "the faulted step recovers its task faults"
    );
    assert!(
        count(faulted, |k| matches!(k, TraceEventKind::CacheEvict { .. })) > 0,
        "the faulted step drives the Cache Worker shadow model"
    );
    // The whole-cluster job after the faulted step gets its gang in one
    // piece, which it cannot on a cluster with a machine still down.
    assert_eq!(
        count(&recorded[FAULTED + 1], |k| matches!(
            k,
            TraceEventKind::GangWaitEnded {
                tasks: 8,
                wave: false,
                ..
            }
        )),
        1,
        "the clean step's whole-cluster gang starts at once"
    );
}
