//! The golden-trace scenario registry.
//!
//! Each scenario is a small, fully deterministic `(cluster, workload,
//! faults)` triple parameterised only by a seed. They are deliberately
//! tiny (tens of tasks, not thousands) so the recorded traces stay
//! reviewable as checked-in golden files, while still covering the
//! interesting control-plane paths: adaptive scheme selection across
//! both size thresholds, barrier-heavy graphlet chains, wave execution
//! (gang larger than the cluster), fault injection + fine-grained
//! recovery, and a multi-job trace-derived mix.

use std::sync::Arc;

use swift_cluster::{Cluster, CostModel};
use swift_dag::{permuted_clone, DagBuilder, JobDag, Operator, StageId, StageProfile};
use swift_ft::FailureKind;
use swift_scheduler::{FailureAt, FailureInjection, JobSpec, RunReport, SimConfig, Simulation};
use swift_sim::{SimDuration, SimTime};
use swift_workload::{generate_trace, terasort_dag, TraceConfig};

use crate::recorder::{RecorderConfig, TraceRecorder};
use crate::sink::TraceSink;
use crate::Trace;

/// A registered scenario.
#[derive(Debug)]
pub struct Scenario {
    /// Registry name (also the golden-file stem).
    pub name: &'static str,
    /// One-line description for `swift-cli trace --list`.
    pub description: &'static str,
    /// Machines in the cluster.
    pub machines: u32,
    /// Executors per machine.
    pub executors_per_machine: u32,
    build: fn(u64) -> (Vec<JobSpec>, Vec<FailureInjection>),
}

fn profile(input: u64, output: u64, process_us: u64) -> StageProfile {
    StageProfile {
        input_rows_per_task: input / 100,
        input_bytes_per_task: input,
        output_bytes_per_task: output,
        process_us_per_task: process_us,
        locality: vec![],
    }
}

/// Diamond DAG: scan fans out to two middle stages that join back.
/// All edges pipeline inside one graphlet except the sort-implying join.
/// Stage runtimes are in the hundreds of milliseconds so a mid-run fault
/// plus its 1 s process-restart detection delay still fit inside the run
/// (see the `fault` scenario).
fn diamond_dag(seed: u64) -> JobDag {
    let mut b = DagBuilder::new(0, "diamond");
    let scan = b
        .stage("scan", 3)
        .op(Operator::TableScan { table: "t".into() })
        .op(Operator::ShuffleWrite)
        .profile(profile(2 << 20, 1 << 20, 400_000 + (seed % 7) * 10_000))
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

/// Barrier-heavy chain: every edge implies a sort, so each stage is its
/// own graphlet and every edge crosses a unit boundary — which forces
/// the adaptive policy's Direct→Remote upgrade for memory-staged
/// crossing edges and drives the Cache Worker shadow model on each hop.
fn barrier_dag(seed: u64) -> JobDag {
    let mut b = DagBuilder::new(0, "barrier-chain");
    let outs: [u64; 3] = [2_000, 20_000, 60_000];
    let mut prev = None;
    for (i, &out) in outs.iter().enumerate() {
        let id = b
            .stage(format!("B{i}"), 2 + i as u32)
            .op(if i == 0 {
                Operator::TableScan { table: "t".into() }
            } else {
                Operator::ShuffleRead
            })
            .op(Operator::MergeSort)
            .op(Operator::ShuffleWrite)
            .profile(profile(64 << 10, out, 20_000 + (seed % 5) * 500))
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

fn single(dag: JobDag) -> Vec<JobSpec> {
    vec![JobSpec {
        dag: Arc::new(dag),
        submit_at: SimTime::ZERO,
    }]
}

/// The `repeat_shapes` workload: four staggered jobs of which the first
/// two introduce fresh shapes (template misses) and the last two repeat
/// the diamond — once as an identical rebuild (a hit) and once with the
/// stages inserted in reverse order, which misses: the cache keys a job
/// by its as-numbered shape, so insertion order is part of the shape.
fn repeat_shapes_workload(seed: u64) -> Vec<JobSpec> {
    let diamond = diamond_dag(seed);
    let reversed: Vec<StageId> = (0..diamond.stage_count() as u32)
        .rev()
        .map(StageId)
        .collect();
    let permuted = permuted_clone(&diamond, &reversed, 3);
    [diamond_dag(seed), barrier_dag(seed), diamond, permuted]
        .into_iter()
        .enumerate()
        .map(|(i, dag)| JobSpec {
            dag: Arc::new(dag),
            submit_at: SimTime::ZERO + SimDuration::from_millis(50 * i as u64),
        })
        .collect()
}

/// The registry. Names are stable: golden files, CLI arguments and CI
/// steps all refer to them.
pub const SCENARIOS: [Scenario; 7] = [
    Scenario {
        name: "tiny",
        description: "2x2 terasort on 4 machines; smallest useful trace",
        machines: 4,
        executors_per_machine: 2,
        build: |seed| {
            (
                single(terasort_dag(0, 2, 2, (1 << 20) | (seed % 1024))),
                vec![],
            )
        },
    },
    Scenario {
        name: "diamond",
        description: "fan-out/fan-in diamond with a sort-merge join barrier",
        machines: 4,
        executors_per_machine: 2,
        build: |seed| (single(diamond_dag(seed)), vec![]),
    },
    Scenario {
        name: "barrier",
        description: "all-barrier chain straddling both adaptive scheme thresholds",
        machines: 3,
        executors_per_machine: 2,
        build: |seed| (single(barrier_dag(seed)), vec![]),
    },
    Scenario {
        name: "wave",
        description: "gang larger than the cluster; exercises wave execution",
        machines: 2,
        executors_per_machine: 2,
        build: |seed| {
            (
                single(terasort_dag(0, 6, 6, (2 << 20) | (seed % 4096))),
                vec![],
            )
        },
    },
    Scenario {
        name: "fault",
        description: "diamond DAG with a mid-run process restart and fine-grained recovery",
        machines: 4,
        executors_per_machine: 2,
        build: |seed| {
            // Lands while the `left` stage is running (it executes from
            // roughly 610 ms to 920 ms across the seed range); the 1 s
            // restart-detection delay then fires while the join is still
            // blocked on the lost task, so the trace shows the full
            // invalidate → detect → replan → rerun sequence.
            let injections = vec![FailureInjection {
                job_index: 0,
                stage: "left".to_string(),
                task_index: (seed % 2) as u32,
                at: FailureAt::AfterSubmit(SimDuration::from_millis(700 + seed % 40)),
                kind: FailureKind::ProcessRestart,
            }];
            (single(diamond_dag(seed)), injections)
        },
    },
    Scenario {
        name: "multijob",
        description: "three trace-derived jobs with staggered submissions",
        machines: 6,
        executors_per_machine: 3,
        build: |seed| {
            let cfg = TraceConfig {
                jobs: 3,
                seed: seed ^ 0x5EED_7ACE,
                ..TraceConfig::default()
            };
            let workload = generate_trace(&cfg)
                .into_iter()
                .map(|j| JobSpec {
                    dag: j.dag,
                    submit_at: j.submit_at,
                })
                .collect();
            (workload, vec![])
        },
    },
    Scenario {
        name: "repeat_shapes",
        description: "repeated DAG shapes through the template cache: miss, miss, hit, reordered-rebuild miss",
        machines: 6,
        executors_per_machine: 3,
        build: |seed| (repeat_shapes_workload(seed), vec![]),
    },
];

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// All registry names, in registry order.
pub fn names() -> Vec<&'static str> {
    SCENARIOS.iter().map(|s| s.name).collect()
}

/// The `swift_schedule_overhead` of the cost model every scenario runs
/// under — the value to pass to [`Trace::metrics`] when cross-checking
/// per-stage phase totals.
pub fn schedule_overhead() -> SimDuration {
    CostModel::default().swift_schedule_overhead
}

/// Builds the simulation for `(name, seed)` without an observer
/// installed. Returns `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Simulation> {
    let sc = find(name)?;
    let (workload, injections) = (sc.build)(seed);
    let cluster = Cluster::new(sc.machines, sc.executors_per_machine, CostModel::default());
    let mut sim = Simulation::new(cluster, SimConfig::swift(), workload);
    sim.inject_failures(injections);
    Some(sim)
}

/// Runs `(name, seed)` with a [`TraceRecorder`] attached and returns the
/// finished trace plus the simulator's own report. Returns `None` for an
/// unknown name.
pub fn run_traced(name: &str, seed: u64, cfg: RecorderConfig) -> Option<(Trace, RunReport)> {
    let mut sim = build(name, seed)?;
    let (recorder, handle) = TraceRecorder::new(name, seed, cfg);
    sim.set_observer(Box::new(recorder));
    let report = sim.run();
    Some((handle.finish(), report))
}

/// Runs `(name, seed)` with the recorder delivering into an explicit
/// [`TraceSink`] (e.g. a [`crate::StreamSink`] for bounded-memory on-disk
/// recording). Returns the sink (flushed of the coalescing buffer; call
/// [`crate::StreamSink::finish`] to write the footer) plus the report.
pub fn run_traced_sink<S: TraceSink + 'static>(
    name: &str,
    seed: u64,
    cfg: RecorderConfig,
    sink: S,
) -> Option<(S, RunReport)> {
    let mut sim = build(name, seed)?;
    let (recorder, handle) = TraceRecorder::with_sink(name, seed, cfg, sink);
    sim.set_observer(Box::new(recorder));
    let report = sim.run();
    Some((handle.into_sink(), report))
}
