//! One function per table and figure of the paper's evaluation (§V) and
//! per ablation. Each runs the experiment and returns its [`Figure`];
//! none prints or writes. [`run`] maps `reproduce`'s ids onto them.

use crate::{Figure, Table};
use std::time::Instant;
use swift_cluster::{Cluster, CostModel, MachineId};
use swift_dag::partition;
use swift_engine::{Engine, RunOptions};
use swift_ft::FailureKind;
use swift_scheduler::{
    FailureAt, FailureInjection, JobSpec, Partitioning, PolicyConfig, RecoveryPolicy, RunReport,
    SimConfig, Simulation, Submission,
};
use swift_shuffle::ShuffleScheme;
use swift_sim::stats::{empirical_cdf, fraction_at_most, mean, quartiles};
use swift_sim::{SimDuration, SimRng, SimTime};
use swift_sql::{compile, PlanOptions};
use swift_workload::{
    failure_injections, failure_times, generate_catalog, generate_trace, q13_sim_dag, q9_sim_dag,
    shuffle_sized_job, terasort_dag, tpch_sim_dag, ShuffleBucket, TraceConfig, TraceJob, Q9_SQL,
};

/// Every id [`run`] accepts, in the order `reproduce` runs them.
pub const IDS: [&str; 16] = [
    "fig03",
    "fig08",
    "fig09a",
    "fig09b",
    "tab1",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "ablate_partitioning",
    "ablate_submission_order",
    "ablate_heartbeat",
    "ablate_cache_memory",
];

/// Runs the experiments named by `ids` lazily, in the order given. Figs.
/// 10 and 11 share one [`trace_replay`], run at most once. Panics on an id
/// that is not in [`IDS`].
pub fn run<'a>(ids: &'a [&'a str]) -> impl Iterator<Item = Figure> + 'a {
    let mut replay = None;
    ids.iter().map(move |&id| match id {
        "fig03" => fig03(),
        "fig08" => fig08(),
        "fig09a" => fig09a(),
        "fig09b" => fig09b(),
        "tab1" => tab1(),
        "fig10" => fig10(replay.get_or_insert_with(trace_replay)),
        "fig11" => fig11(replay.get_or_insert_with(trace_replay)),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "fig14" => fig14(),
        "fig15" => fig15(),
        "fig16" => fig16(),
        "ablate_partitioning" => ablate_partitioning(),
        "ablate_submission_order" => ablate_submission_order(),
        "ablate_heartbeat" => ablate_heartbeat(),
        "ablate_cache_memory" => ablate_cache_memory(),
        _ => panic!("unknown figure id {id}; the ids are {IDS:?}"),
    })
}

/// The paper's 100-node cluster (§V-A), with 32 pre-launched executors per
/// machine (the paper runs "dozens or hundreds" per machine).
fn cluster_100() -> Cluster {
    Cluster::new(100, 32, CostModel::default())
}

/// Converts trace jobs to scheduler job specs. The DAGs are shared
/// (`Arc` refcount bumps), not deep-copied.
fn to_specs(trace: &[TraceJob]) -> Vec<JobSpec> {
    trace
        .iter()
        .map(|t| JobSpec {
            dag: t.dag.clone(),
            submit_at: t.submit_at,
        })
        .collect()
}

/// Elapsed seconds of a lone job submitted at zero on the 100-node cluster.
fn single_job_secs(config: SimConfig, dag: swift_dag::JobDag) -> f64 {
    let report = Simulation::new(cluster_100(), config, vec![JobSpec::at_zero(dag)]).run();
    report.jobs[0].elapsed.as_secs_f64()
}

/// Fig. 3 — IdleRatio under whole-job gang scheduling. Four synthetic
/// cluster profiles (job mixes) replayed under the JetScope policy.
pub fn fig03() -> Figure {
    // Profiles differ in how deep their job pipelines run: #1 is dominated
    // by single-stage jobs (little executor waiting under gang
    // scheduling), #2–#4 carry progressively more multi-stage jobs whose
    // downstream tasks idle for their inputs. The cluster is scaled down
    // from >10k machines; IdleRatio is a per-task metric and insensitive
    // to it. Each profile is (stage cap, fraction of multi-stage jobs
    // kept, seed, runtime median, runtime sigma).
    let profiles = [
        ("#1", 2u32, 0.08, 31, 8.0, 0.5),
        ("#2", 3, 0.55, 32, 18.0, 0.9),
        ("#3", 3, 0.60, 33, 18.0, 0.9),
        ("#4", 4, 0.33, 34, 25.0, 1.1),
    ];
    let mut rows = Vec::new();
    for (name, max_stages, keep_multi, seed, median, sigma) in profiles {
        let mut trace = generate_trace(&TraceConfig {
            jobs: 600,
            seed,
            runtime_median_secs: median,
            runtime_sigma: sigma,
            ..TraceConfig::default()
        });
        let mut keep_rng = SimRng::new(seed ^ 0xF16);
        trace.retain(|t| {
            let s = t.dag.stage_count() as u32;
            s == 1 || (s <= max_stages && keep_rng.chance(keep_multi))
        });
        let report = Simulation::new(
            Cluster::new(200, 32, CostModel::default()),
            SimConfig::with_policy(PolicyConfig::jetscope()),
            to_specs(&trace),
        )
        .run();
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", 100.0 * report.idle_ratio()),
        ]);
    }
    Figure {
        id: "fig03",
        claim: "IdleRatio of 4 clusters under whole-job gang scheduling: 3.81% / 13.15% / 14.45% / 14.92%",
        tables: vec![Table {
            file: "fig03_idle_ratio.tsv",
            headers: &["cluster", "idle_ratio_pct"],
            rows,
        }],
        summary: Vec::new(),
    }
}

/// Fig. 8 — the production trace's runtime, size and failure-time
/// distributions, regenerated: key quantiles and full CDFs.
pub fn fig08() -> Figure {
    let trace = generate_trace(&TraceConfig::default());
    // Fig. 8a histograms the generator's target runtimes: the sum of each
    // job's per-task process times.
    let runtimes: Vec<f64> = trace
        .iter()
        .map(|t| {
            t.dag
                .stages()
                .iter()
                .map(|s| s.profile.process_us_per_task as f64 / 1e6)
                .sum::<f64>()
        })
        .collect();
    let tasks: Vec<f64> = trace.iter().map(|t| t.dag.total_tasks() as f64).collect();
    let stages: Vec<f64> = trace.iter().map(|t| t.dag.stage_count() as f64).collect();
    let fails: Vec<f64> = failure_times(trace.len(), 8)
        .iter()
        .map(|d| d.as_secs_f64())
        .collect();
    let pct = |data: &[f64], at: f64| 100.0 * fraction_at_most(data, at);
    let summary = vec![
        ("mean_runtime_s".into(), mean(&runtimes)),
        (
            "median_runtime_s".into(),
            quartiles(&runtimes).expect("non-empty trace").median,
        ),
        ("jobs_le_120s_pct".into(), pct(&runtimes, 120.0)),
        ("jobs_le_80_tasks_pct".into(), pct(&tasks, 80.0)),
        ("jobs_le_4_stages_pct".into(), pct(&stages, 4.0)),
        ("failures_le_30s_pct".into(), pct(&fails, 30.0)),
        ("failures_le_200s_pct".into(), pct(&fails, 200.0)),
    ];
    let cdf = |file, data: &[f64]| {
        let cdf = empirical_cdf(data);
        let rows = cdf
            .iter()
            .step_by((cdf.len() / 200).max(1))
            .map(|p| vec![format!("{:.3}", p.value), format!("{:.4}", p.fraction)])
            .collect();
        Table {
            file,
            headers: &["value", "cdf"],
            rows,
        }
    };
    Figure {
        id: "fig08",
        claim: "trace: mean runtime 30s, >90% <120s; >80% of jobs <=80 tasks and <=4 stages; failures 50% <30s, 90% <200s",
        tables: vec![
            cdf("fig08_runtime_cdf.tsv", &runtimes),
            cdf("fig08_task_count_cdf.tsv", &tasks),
            cdf("fig08_stage_count_cdf.tsv", &stages),
            cdf("fig08_failure_time_cdf.tsv", &fails),
        ],
        summary,
    }
}

/// Fig. 9a — TPC-H (1 TB) on 100 nodes: the 22 calibrated query DAGs
/// under the Swift and Spark policies.
pub fn fig09a() -> Figure {
    let mut rows = Vec::new();
    let (mut total_swift, mut total_spark) = (0.0f64, 0.0f64);
    for q in 1..=22 {
        let dag = tpch_sim_dag(q, q as u64);
        let swift = single_job_secs(SimConfig::with_policy(PolicyConfig::swift()), dag.clone());
        let spark = single_job_secs(SimConfig::with_policy(PolicyConfig::spark()), dag);
        total_swift += swift;
        total_spark += spark;
        rows.push(vec![
            format!("{q}"),
            format!("{swift:.3}"),
            format!("{spark:.3}"),
        ]);
    }
    Figure {
        id: "fig09a",
        claim: "TPC-H 1 TB, 22 queries: total speedup 2.11x over tuned Spark SQL",
        tables: vec![Table {
            file: "fig09a_tpch.tsv",
            headers: &["query", "swift_s", "spark_s"],
            rows,
        }],
        summary: vec![
            ("total_swift_s".into(), total_swift),
            ("total_spark_s".into(), total_spark),
            ("total_speedup".into(), total_spark / total_swift),
        ],
    }
}

/// Fig. 9b — the four-phase breakdown (launch, shuffle read, process,
/// shuffle write) of Q9's stages under Swift and Spark. The totals sum one
/// task per stage, like the paper's per-critical-task bars.
pub fn fig09b() -> Figure {
    let run = |policy| {
        Simulation::new(
            cluster_100(),
            SimConfig::with_policy(policy),
            vec![JobSpec::at_zero(q9_sim_dag(9))],
        )
        .run()
    };
    let swift = run(PolicyConfig::swift());
    let spark = run(PolicyConfig::spark());
    let mut rows = Vec::new();
    let mut totals = [[0.0f64; 4]; 2]; // [policy][phase]
    for (sw, sp) in swift.jobs[0].stages.iter().zip(&spark.jobs[0].stages) {
        let mut row = vec![sw.name.clone()];
        for (total, p) in totals.iter_mut().zip([&sw.phases, &sp.phases]) {
            for (t, phase) in
                total
                    .iter_mut()
                    .zip([p.launch, p.shuffle_read, p.process, p.shuffle_write])
            {
                *t += phase.as_secs_f64();
                row.push(format!("{:.3}", phase.as_secs_f64()));
            }
        }
        rows.push(row);
    }
    Figure {
        id: "fig09b",
        claim: "Q9 critical tasks: Spark launch >71s total; shuffle read 8.92s (Swift) vs 133.9s (Spark disk), write 9.61s vs 137.8s",
        tables: vec![Table {
            file: "fig09b_q9_phases.tsv",
            headers: &[
                "stage", "swift_L", "swift_SR", "swift_P", "swift_SW", "spark_L", "spark_SR",
                "spark_P", "spark_SW",
            ],
            rows,
        }],
        summary: vec![
            ("swift_launch_s".into(), totals[0][0]),
            ("spark_launch_s".into(), totals[1][0]),
            ("swift_shuffle_read_s".into(), totals[0][1]),
            ("spark_shuffle_read_s".into(), totals[1][1]),
            ("swift_shuffle_write_s".into(), totals[0][3]),
            ("spark_shuffle_write_s".into(), totals[1][3]),
        ],
    }
}

/// Table I — Terasort M×N on 100 nodes, 200 MB per map task, Spark vs
/// Swift.
pub fn tab1() -> Figure {
    let mut rows = Vec::new();
    for (m, n) in [(250u32, 250u32), (500, 500), (1000, 1000), (1500, 1500)] {
        let dag = terasort_dag(1, m, n, 200 << 20);
        let spark = single_job_secs(SimConfig::with_policy(PolicyConfig::spark()), dag.clone());
        let swift = single_job_secs(SimConfig::with_policy(PolicyConfig::swift()), dag);
        rows.push(vec![
            format!("{m}x{n}"),
            format!("{spark:.2}"),
            format!("{swift:.2}"),
        ]);
    }
    Figure {
        id: "tab1",
        claim: "Terasort 250x250..1500x1500: Spark 61/103/233/539s, Swift 19/26/33/38s, speedup 3.07x -> 14.18x",
        tables: vec![Table {
            file: "tab1_terasort.tsv",
            headers: &["size", "spark_s", "swift_s"],
            rows,
        }],
        summary: Vec::new(),
    }
}

/// The trace replay behind Figs. 10 and 11: 2 000 jobs on the 100-node
/// cluster, one report per policy, in the order JetScope, Bubble, Swift,
/// with running executors sampled every 2 s.
pub fn trace_replay() -> Vec<RunReport> {
    // Heavier load than the cluster can instantly absorb, so scheduling
    // policy differences show (the paper's clusters run saturated), and a
    // heavier big-job tail: the paper's trace includes jobs up to ~2000
    // tasks (Fig. 8b), which is what makes whole-job gang scheduling
    // fragment badly.
    let trace = generate_trace(&TraceConfig {
        jobs: 2_000,
        mean_interarrival: SimDuration::from_millis(140),
        tasks_sigma: 1.45,
        ..TraceConfig::default()
    });
    [
        PolicyConfig::jetscope(),
        PolicyConfig::bubble(600, SimDuration::from_millis(500)),
        PolicyConfig::swift(),
    ]
    .into_iter()
    .map(|policy| {
        let mut cfg = SimConfig::with_policy(policy);
        cfg.sample_every = Some(SimDuration::from_secs(2));
        Simulation::new(cluster_100(), cfg, to_specs(&trace)).run()
    })
    .collect()
}

/// Fig. 10 — running executors over time for JetScope, Bubble Execution
/// and Swift on [`trace_replay`].
pub fn fig10(replay: &[RunReport]) -> Figure {
    let mut summary = Vec::new();
    for r in replay {
        summary.push((format!("{}_makespan_s", r.policy), r.makespan.as_secs_f64()));
        summary.push((format!("{}_latency_s", r.policy), r.mean_job_seconds()));
        summary.push((format!("{}_idle_pct", r.policy), 100.0 * r.idle_ratio()));
    }
    let [others @ .., swift] = replay else {
        panic!("the trace replay runs three policies");
    };
    for r in others {
        let makespan = r.makespan.as_secs_f64() / swift.makespan.as_secs_f64();
        let latency = r.mean_job_seconds() / swift.mean_job_seconds();
        summary.push((format!("makespan_speedup_vs_{}", r.policy), makespan));
        summary.push((format!("latency_speedup_vs_{}", r.policy), latency));
    }
    // The three series merged on the sample grid; a finished run reads 0.
    let n = replay
        .iter()
        .map(|r| r.utilization.len())
        .max()
        .unwrap_or(0);
    let rows = (0..n)
        .map(|i| {
            let t = replay
                .iter()
                .find_map(|r| r.utilization.get(i).map(|&(t, _)| t))
                .unwrap_or_default();
            let mut row = vec![format!("{t:.0}")];
            for r in replay {
                row.push(r.utilization.get(i).map_or(0, |&(_, b)| b).to_string());
            }
            row
        })
        .collect();
    Figure {
        id: "fig10",
        claim: "all jobs done in 586s (JetScope) / 296s (Bubble) / 240s (Swift): speedups 2.44x / 1.23x",
        tables: vec![Table {
            file: "fig10_executor_count.tsv",
            headers: &["time_s", "jetscope", "bubble", "swift"],
            rows,
        }],
        summary,
    }
}

/// Fig. 11 — CDF of job latency normalized to Swift's, for JetScope and
/// Bubble Execution on [`trace_replay`].
pub fn fig11(replay: &[RunReport]) -> Figure {
    let [others @ .., swift] = replay else {
        panic!("the trace replay runs three policies");
    };
    let swift = swift.job_seconds();
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for r in others {
        let mut norm: Vec<f64> = r
            .job_seconds()
            .iter()
            .zip(&swift)
            .map(|(a, b)| a / b.max(1e-9))
            .collect();
        summary.push((
            format!("{}_over_2x_pct", r.policy),
            100.0 * (1.0 - fraction_at_most(&norm, 2.0)),
        ));
        summary.push((
            format!("{}_under_1_5x_pct", r.policy),
            100.0 * fraction_at_most(&norm, 1.5),
        ));
        norm.sort_by(f64::total_cmp);
        for (i, v) in norm.iter().enumerate().step_by((norm.len() / 200).max(1)) {
            rows.push(vec![
                r.policy.clone(),
                format!("{v:.4}"),
                format!("{:.4}", (i + 1) as f64 / norm.len() as f64),
            ]);
        }
    }
    Figure {
        id: "fig11",
        claim: ">60% of JetScope jobs run at >2x Swift's latency; ~90% of Bubble jobs within 1.5x",
        tables: vec![Table {
            file: "fig11_latency_cdf.tsv",
            headers: &["policy", "norm_latency", "cdf"],
            rows,
        }],
        summary,
    }
}

/// Fig. 12 — mean job time when Direct, Local or Remote Shuffle is used
/// exclusively, per shuffle-size bucket, normalized to the bucket's
/// fastest scheme.
pub fn fig12() -> Figure {
    let schemes = [
        ShuffleScheme::Direct,
        ShuffleScheme::Local,
        ShuffleScheme::Remote,
    ];
    let mut rows = Vec::new();
    for bucket in [
        ShuffleBucket::Small,
        ShuffleBucket::Medium,
        ShuffleBucket::Large,
    ] {
        // 12 jobs per bucket, run one at a time. On 100 nodes tasks pack
        // many per machine, so Y ≪ M,N as on the paper's loaded 2 000-node
        // cluster (dozens of executors per machine).
        let jobs: Vec<_> = (0..12)
            .map(|i| shuffle_sized_job(i, bucket, 1000 + i))
            .collect();
        let means = schemes.map(|scheme| {
            let times: Vec<f64> = jobs
                .iter()
                .map(|dag| {
                    single_job_secs(
                        SimConfig::with_policy(PolicyConfig::swift_fixed_shuffle(scheme)),
                        dag.clone(),
                    )
                })
                .collect();
            mean(&times)
        });
        let best = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut row = vec![format!("{bucket:?}")];
        row.extend(means.iter().map(|m| format!("{:.4}", m / best)));
        rows.push(row);
    }
    Figure {
        id: "fig12",
        claim: "normalized to each bucket's winner: small D 1.00 / L 1.04 / R 1.03; medium R 1.00 / L 1.038 / D 1.25; large L 1.00 / R 1.479 / D 2.083",
        tables: vec![Table {
            file: "fig12_shuffle_adaptive.tsv",
            headers: &["bucket", "direct", "local", "remote"],
            rows,
        }],
        summary: Vec::new(),
    }
}

/// Fig. 13 — the structure of the TPC-H Q13 job used by the fault-
/// tolerance experiments: stages, task counts and per-task inputs.
pub fn fig13() -> Figure {
    let dag = q13_sim_dag(13);
    let rows = dag
        .stages()
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                s.task_count.to_string(),
                s.profile.input_rows_per_task.to_string(),
                s.profile.input_bytes_per_task.to_string(),
            ]
        })
        .collect();
    Figure {
        id: "fig13",
        claim: "Q13: M1(498) M2(72) J3(300) R4(100) R5(1) R6(1) tasks; per task M1 3 012 048 records / 176 MB ... R6 30 / 1.3 KB",
        tables: vec![Table {
            file: "fig13_q13_detail.tsv",
            headers: &["stage", "tasks", "rows_per_task", "bytes_per_task"],
            rows,
        }],
        summary: vec![("graphlets".into(), partition(&dag).len() as f64)],
    }
}

/// Fig. 14 — one injected failure into Q13 at normalized time 20 / 40 /
/// 60 / 80 / 100 (M2 / J3 / R4 / R5 / R6): slowdown in percent under
/// fine-grained recovery and under whole-job restart.
pub fn fig14() -> Figure {
    let dag = q13_sim_dag(13);
    let baseline = single_job_secs(SimConfig::swift(), dag.clone());
    let mut rows = Vec::new();
    for (stage, tpos) in [
        ("M2", 20.0),
        ("J3", 40.0),
        ("R4", 60.0),
        ("R5", 80.0),
        ("R6", 100.0),
    ] {
        let at = SimDuration::from_secs_f64(baseline * tpos / 100.0 * 0.999);
        let slowdown = |recovery| {
            let mut cfg = SimConfig::swift();
            cfg.recovery = recovery;
            let mut sim = Simulation::new(cluster_100(), cfg, vec![JobSpec::at_zero(dag.clone())]);
            sim.inject_failures(vec![FailureInjection {
                job_index: 0,
                stage: stage.into(),
                task_index: 0,
                at: FailureAt::AfterSubmit(at),
                kind: FailureKind::ProcessRestart,
            }]);
            let t = sim.run().jobs[0].elapsed.as_secs_f64();
            100.0 * (t - baseline) / baseline
        };
        rows.push(vec![
            stage.to_string(),
            format!("{tpos}"),
            format!("{:.3}", slowdown(RecoveryPolicy::FineGrained)),
            format!("{:.3}", slowdown(RecoveryPolicy::JobRestart)),
        ]);
    }
    Figure {
        id: "fig14",
        claim: "one failure into Q13: Swift slowdown <10% at every injection point (0 once the output was delivered); restart pays the elapsed time again",
        tables: vec![Table {
            file: "fig14_fault_injection.tsv",
            headers: &[
                "stage",
                "inject_time_norm",
                "swift_slowdown_pct",
                "restart_slowdown_pct",
            ],
            rows,
        }],
        summary: vec![("baseline_s".into(), baseline)],
    }
}

/// Fig. 15 — the trace replayed with realistic failures (Fig. 8a's
/// failure-time distribution), each job's time normalized to its
/// failure-free time (= 100), summarized with the four-quartile method.
pub fn fig15() -> Figure {
    let trace = generate_trace(&TraceConfig {
        jobs: 800,
        mean_interarrival: SimDuration::from_millis(150),
        ..TraceConfig::default()
    });
    // ~30% of jobs get one failure.
    let failures = failure_injections(&trace, 0.3, 77);
    let base = Simulation::new(cluster_100(), SimConfig::swift(), to_specs(&trace)).run();
    let base_times = base.job_seconds();
    let mut rows = Vec::new();
    for (name, recovery) in [
        ("job restart", RecoveryPolicy::JobRestart),
        ("swift fine-grained", RecoveryPolicy::FineGrained),
    ] {
        let mut cfg = SimConfig::swift();
        cfg.recovery = recovery;
        let mut sim = Simulation::new(cluster_100(), cfg, to_specs(&trace));
        sim.inject_failures(
            failures
                .iter()
                .map(|f| FailureInjection {
                    job_index: f.job_index,
                    stage: f.stage.clone(),
                    task_index: f.task_index,
                    at: FailureAt::AfterSubmit(f.after),
                    kind: FailureKind::ProcessRestart,
                })
                .collect(),
        );
        // Every job is normalized, not only the failed ones: the paper
        // normalizes whole-trace E2E.
        let norm: Vec<f64> = sim
            .run()
            .job_seconds()
            .iter()
            .zip(&base_times)
            .map(|(t, b)| 100.0 * t / b.max(1e-9))
            .collect();
        let q = quartiles(&norm).expect("non-empty trace");
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", q.mean),
            format!("{:.3}", q.q1),
            format!("{:.3}", q.median),
            format!("{:.3}", q.q3),
        ]);
    }
    Figure {
        id: "fig15",
        claim: "trace with realistic failures (no-failure = 100): job restart ~145 on average, Swift fine-grained ~105",
        tables: vec![Table {
            file: "fig15_trace_failures.tsv",
            headers: &["policy", "mean", "q1", "median", "q3"],
            rows,
        }],
        summary: vec![
            ("jobs".into(), trace.len() as f64),
            ("jobs_with_a_failure".into(), failures.len() as f64),
        ],
    }
}

/// Fig. 16 — strong scaling: one 80 000-job batch replayed on 10 000 to
/// 140 000 executors, speedup against the 10 000-executor makespan.
pub fn fig16() -> Figure {
    let trace = generate_trace(&TraceConfig {
        jobs: 80_000,
        // All jobs queued up front ("we replay the same workload several
        // times"), so the makespan measures pure throughput.
        mean_interarrival: SimDuration::ZERO,
        // A trimmed long-job tail, so the largest pool is not bound by one
        // straggler job: strong scaling needs divisible work.
        runtime_sigma: 0.5,
        tasks_sigma: 1.0,
        ..TraceConfig::default()
    });
    let counts = [
        10_000u32, 20_000, 40_000, 60_000, 80_000, 100_000, 120_000, 140_000,
    ];
    let mut rows = Vec::new();
    let mut baseline = 0.0f64;
    let mut speedup = 0.0f64;
    for execs in counts {
        let cluster = Cluster::new(execs / 32, 32, CostModel::default());
        let makespan = Simulation::new(cluster, SimConfig::swift(), to_specs(&trace))
            .run()
            .makespan
            .as_secs_f64();
        if baseline == 0.0 {
            baseline = makespan;
        }
        speedup = baseline / makespan;
        rows.push(vec![
            execs.to_string(),
            format!("{makespan:.2}"),
            format!("{speedup:.4}"),
        ]);
    }
    // The gap to ideal is each job's critical path, which no number of
    // executors shortens.
    let ideal = f64::from(counts[counts.len() - 1] / counts[0]);
    Figure {
        id: "fig16",
        claim: "near-linear speedup from 10 000 up to 140 000 executors",
        tables: vec![Table {
            file: "fig16_scalability.tsv",
            headers: &["executors", "makespan_s", "speedup"],
            rows,
        }],
        summary: vec![("efficiency_at_14x".into(), speedup / ideal)],
    }
}

/// Ablation — job partitioning granularity: shuffle-mode-aware graphlets
/// against whole-job gangs, per-stage scheduling and size-bounded
/// bubbles, with launch, shuffle and recovery fixed to Swift's. The
/// simulator serializes pipeline edges (a consumer starts after its
/// producers finish), so per-stage scheduling pays no pipelining penalty
/// here; in the real system gang-scheduled pipeline stages overlap, which
/// is the latency benefit graphlets keep and per-stage scheduling loses.
pub fn ablate_partitioning() -> Figure {
    let trace = generate_trace(&TraceConfig {
        jobs: 1_000,
        mean_interarrival: SimDuration::from_millis(140),
        tasks_sigma: 1.45,
        ..TraceConfig::default()
    });
    let variants = [
        (
            "graphlets",
            Partitioning::Graphlets,
            Submission::AllInputsReady,
        ),
        (
            "whole-job",
            Partitioning::WholeJob,
            Submission::FirstStageReady,
        ),
        (
            "per-stage",
            Partitioning::PerStage,
            Submission::AllInputsReady,
        ),
        (
            "bubbles-300",
            Partitioning::Bubbles { max_tasks: 300 },
            Submission::FirstStageReady,
        ),
    ];
    let mut rows = Vec::new();
    for (name, partitioning, submission) in variants {
        let mut policy = PolicyConfig::swift();
        policy.name = name.into();
        policy.partitioning = partitioning;
        policy.submission = submission;
        let report = Simulation::new(
            cluster_100(),
            SimConfig::with_policy(policy),
            to_specs(&trace),
        )
        .run();
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", report.makespan.as_secs_f64()),
            format!("{:.3}", report.mean_job_seconds()),
            format!("{:.4}", report.idle_ratio()),
        ]);
    }
    Figure {
        id: "ablate_partitioning",
        claim: "graphlets should dominate: whole-job gangs waste idle executors, per-stage scheduling loses pipelining",
        tables: vec![Table {
            file: "ablate_partitioning.tsv",
            headers: &["variant", "makespan_s", "mean_latency_s", "idle_ratio"],
            rows,
        }],
        summary: Vec::new(),
    }
}

/// Ablation — conservative (all inputs ready) against eager (first stage
/// ready) graphlet submission (§III-A2): one Q9 for latency, a loaded
/// 800-job trace for throughput.
pub fn ablate_submission_order() -> Figure {
    let trace = generate_trace(&TraceConfig {
        jobs: 800,
        mean_interarrival: SimDuration::from_millis(120),
        ..TraceConfig::default()
    });
    let mut rows = Vec::new();
    for (name, submission) in [
        ("conservative", Submission::AllInputsReady),
        ("eager", Submission::FirstStageReady),
    ] {
        let mut policy = PolicyConfig::swift();
        policy.name = name.into();
        policy.submission = submission;
        let single = Simulation::new(
            cluster_100(),
            SimConfig::with_policy(policy.clone()),
            vec![JobSpec::at_zero(q9_sim_dag(9))],
        )
        .run();
        let loaded = Simulation::new(
            cluster_100(),
            SimConfig::with_policy(policy),
            to_specs(&trace),
        )
        .run();
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", single.jobs[0].elapsed.as_secs_f64()),
            format!("{:.4}", single.idle_ratio()),
            format!("{:.2}", loaded.makespan.as_secs_f64()),
            format!("{:.3}", loaded.mean_job_seconds()),
        ]);
    }
    Figure {
        id: "ablate_submission_order",
        claim: "the \"somewhat conservative\" submission trades a little latency for fewer idle executors",
        tables: vec![Table {
            file: "ablate_submission_order.tsv",
            headers: &[
                "variant",
                "q9_latency_s",
                "q9_idle_ratio",
                "trace_makespan_s",
                "trace_latency_s",
            ],
            rows,
        }],
        summary: Vec::new(),
    }
}

/// Ablation — heartbeat interval against machine-crash recovery cost
/// (§IV-A): a machine crashes early in Q13 while the big scans run, and
/// the interval is swept.
pub fn ablate_heartbeat() -> Figure {
    let dag = q13_sim_dag(13);
    let baseline = single_job_secs(SimConfig::swift(), dag.clone());
    let mut rows = Vec::new();
    for interval_s in [2u64, 5, 10, 15, 30, 60] {
        // The 100-machine cluster is in the "small" tier.
        let cost = CostModel {
            heartbeat_small: SimDuration::from_secs(interval_s),
        };
        let mut sim = Simulation::new(
            Cluster::new(100, 32, cost),
            SimConfig::swift(),
            vec![JobSpec::at_zero(dag.clone())],
        );
        sim.fail_machines(vec![(
            SimTime::from_millis((baseline * 300.0) as u64),
            MachineId(3),
        )]);
        let t = sim.run().jobs[0].elapsed.as_secs_f64();
        rows.push(vec![
            interval_s.to_string(),
            format!("{t:.3}"),
            format!("{:.4}", (t - baseline) / baseline),
        ]);
    }
    Figure {
        id: "ablate_heartbeat",
        claim: "5/10/15s intervals by cluster size; a longer interval detects a crash later and stretches recovery",
        tables: vec![Table {
            file: "ablate_heartbeat.tsv",
            headers: &["interval_s", "job_time_s", "slowdown"],
            rows,
        }],
        summary: vec![("baseline_s".into(), baseline)],
    }
}

/// Ablation — Cache Worker memory pressure (§III-B): a real Q9 through the
/// engine with the Cache Worker squeezed from 256 MiB to 1 KiB. Panics if
/// spilling changes the result. `wall_s` is host wall-clock time.
pub fn ablate_cache_memory() -> Figure {
    let catalog = generate_catalog(4, 21);
    let q9 = |engine: &Engine| {
        compile(Q9_SQL, engine.catalog(), 9, &PlanOptions::default()).expect("Q9 plans")
    };
    let reference = {
        let engine = Engine::new(catalog.clone());
        engine.run(&q9(&engine)).expect("Q9 runs")
    };
    let mut rows = Vec::new();
    for cap in [256u64 << 20, 1 << 20, 64 << 10, 8 << 10, 1 << 10] {
        let engine = Engine::new(catalog.clone()).with_cache_capacity(cap);
        let job = q9(&engine);
        let start = Instant::now();
        let outcome = engine
            .run_with(&job, RunOptions::default())
            .expect("Q9 runs");
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(outcome.rows, reference, "spill must not change results");
        rows.push(vec![
            cap.to_string(),
            outcome.stats.shuffled_bytes.to_string(),
            outcome.stats.spilled_bytes.to_string(),
            format!("{wall:.4}"),
        ]);
    }
    Figure {
        id: "ablate_cache_memory",
        claim: "memory shortage is absorbed by LRU spill: correct results at every capacity, more spill as memory shrinks",
        tables: vec![Table {
            file: "ablate_cache_memory.tsv",
            headers: &["capacity_b", "shuffled_b", "spilled_b", "wall_s"],
            rows,
        }],
        summary: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_100_has_expected_size() {
        let cluster = cluster_100();
        assert_eq!(cluster.machine_count(), 100);
        assert_eq!(cluster.executor_count(), 3_200);
    }
}
