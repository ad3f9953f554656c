//! The paper's evaluation (§V) as assertions: each test runs one
//! experiment of `swift_bench::experiments` and checks the shape the paper
//! reports on the returned `Figure`, the same values `reproduce` prints and
//! writes to `experiments/*.tsv`. Claims the reproduction does not meet
//! are listed under "Known deviations" in EXPERIMENTS.md, not here.
//!
//! Each test also checks that every table it ran equals its committed
//! `experiments/*.tsv`, so a change that moves a series fails here until
//! `reproduce <id>` rewrites the file and it is committed.

use std::fs;
use std::path::Path;
use swift_bench::experiments::{self, trace_replay};
use swift_bench::{Figure, Table};

/// The committed `experiments/<file>`.
fn committed(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("experiments")
        .join(file);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts that the TSV texts `got` (this run) and `want` (committed) of
/// `fig`'s `file` are equal, naming the first line that differs.
fn assert_same_series(fig: &Figure, file: &str, got: &str, want: &str) {
    let first_diff = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    assert!(
        got == want,
        "experiments/{file} is stale from line {}: run `reproduce {}` and commit it",
        first_diff + 1,
        fig.id
    );
}

/// Asserts that each of `fig`'s tables equals its committed file.
fn assert_committed(fig: &Figure) {
    for table in &fig.tables {
        assert_same_series(fig, table.file, &table.tsv(), &committed(table.file));
    }
}

/// The TSV text `tsv` cut down to the columns `keep`.
fn select_columns(tsv: &str, keep: &[&str]) -> String {
    let mut lines = tsv.lines().map(|l| l.split('\t').collect::<Vec<_>>());
    let headers = lines.next().expect("a header line");
    let at: Vec<usize> = keep
        .iter()
        .map(|k| headers.iter().position(|h| h == k).expect("a kept column"))
        .collect();
    std::iter::once(headers)
        .chain(lines)
        .map(|cells| at.iter().map(|&i| cells[i]).collect::<Vec<_>>().join("\t") + "\n")
        .collect()
}

/// `(first cell, numbers of the other cells)` of every row.
fn numeric_rows(table: &Table) -> Vec<(String, Vec<f64>)> {
    table
        .rows
        .iter()
        .map(|row| {
            let nums = row[1..].iter().map(|c| c.parse().unwrap()).collect();
            (row[0].clone(), nums)
        })
        .collect()
}

fn strictly_increasing(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] < w[1])
}

/// Fig. 3's shape (IdleRatio rises from cluster #1 to #4) does not hold
/// (EXPERIMENTS.md, Known deviations), so only its series is checked.
#[test]
fn fig03_series_is_committed() {
    assert_committed(&experiments::fig03());
}

#[test]
fn fig08_trace_matches_the_production_distributions() {
    let fig = experiments::fig08();
    assert_committed(&fig);
    assert!(fig.value("jobs_le_120s_pct") > 90.0);
    assert!(fig.value("jobs_le_80_tasks_pct") > 80.0);
    assert!(fig.value("jobs_le_4_stages_pct") > 80.0);
    assert!((fig.value("failures_le_30s_pct") - 50.0).abs() <= 5.0);
    assert!((fig.value("failures_le_200s_pct") - 90.0).abs() <= 5.0);
}

#[test]
fn fig09a_swift_beats_spark_on_every_tpch_query() {
    let fig = experiments::fig09a();
    assert_committed(&fig);
    let t = fig.table("fig09a_tpch.tsv");
    let speedups: Vec<f64> = t
        .column("spark_s")
        .iter()
        .zip(t.column("swift_s"))
        .map(|(spark, swift)| spark / swift)
        .collect();
    assert_eq!(speedups.len(), 22);
    let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(min > 2.0, "slowest query speedup {min:.2}x");
    assert!(fig.value("total_speedup") > 1.5);
}

#[test]
fn fig09b_spark_loses_on_launch_and_disk_shuffle() {
    let fig = experiments::fig09b();
    assert_committed(&fig);
    assert!(fig.value("spark_launch_s") > 10.0 * fig.value("swift_launch_s"));
    assert!(fig.value("spark_shuffle_read_s") > fig.value("swift_shuffle_read_s"));
    assert!(fig.value("spark_shuffle_write_s") > fig.value("swift_shuffle_write_s"));
}

#[test]
fn tab1_terasort_speedup_grows_with_job_size() {
    let fig = experiments::tab1();
    assert_committed(&fig);
    let t = fig.table("tab1_terasort.tsv");
    let (spark, swift) = (t.column("spark_s"), t.column("swift_s"));
    let speedups: Vec<f64> = spark.iter().zip(&swift).map(|(a, b)| a / b).collect();
    assert!(strictly_increasing(&speedups), "{speedups:?}");
    assert!(strictly_increasing(&spark), "{spark:?}");
    let (lo, hi) = swift.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
        (lo.min(s), hi.max(s))
    });
    assert!(hi <= 1.05 * lo, "Swift's time varies {lo}..{hi}");
}

#[test]
fn fig10_fig11_swift_beats_bubble_beats_jetscope_on_the_trace() {
    let replay = trace_replay();
    let fig10 = experiments::fig10(&replay);
    assert_committed(&fig10);
    for metric in ["makespan_s", "latency_s"] {
        let v = |policy: &str| fig10.value(&format!("{policy}_{metric}"));
        assert!(v("swift") < v("bubble"), "{metric}");
        assert!(v("bubble") < v("jetscope"), "{metric}");
    }
    let fig11 = experiments::fig11(&replay);
    assert_committed(&fig11);
    assert!(fig11.value("jetscope_over_2x_pct") > 60.0);
    assert!(fig11.value("bubble_under_1_5x_pct") >= 90.0);
}

#[test]
fn fig12_direct_wins_small_and_local_wins_large_shuffles() {
    let fig = experiments::fig12();
    assert_committed(&fig);
    let rows = numeric_rows(fig.table("fig12_shuffle_adaptive.tsv"));
    let winner = |bucket: &str| {
        let (_, times) = rows.iter().find(|(b, _)| b == bucket).unwrap();
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        ["direct", "local", "remote"][times.iter().position(|&t| t == best).unwrap()]
    };
    assert_eq!(winner("Small"), "direct");
    assert_eq!(winner("Large"), "local");
}

#[test]
fn fig13_q13_has_the_published_task_counts() {
    let fig = experiments::fig13();
    assert_committed(&fig);
    let t = fig.table("fig13_q13_detail.tsv");
    assert_eq!(t.column("tasks"), [498.0, 72.0, 300.0, 100.0, 1.0, 1.0]);
    assert_eq!(fig.value("graphlets"), 4.0);
}

#[test]
fn fig14_fine_grained_recovery_never_costs_more_than_restart() {
    let fig = experiments::fig14();
    assert_committed(&fig);
    let t = fig.table("fig14_fault_injection.tsv");
    for (stage, v) in numeric_rows(t) {
        let (swift, restart) = (v[1], v[2]);
        assert!(
            restart >= swift,
            "{stage}: restart {restart} < fine-grained {swift}"
        );
    }
    assert_eq!(t.row("R5")[2], "0.000", "R5's output was already delivered");
}

#[test]
fn fig15_restart_costs_far_more_than_fine_grained_recovery() {
    let fig = experiments::fig15();
    assert_committed(&fig);
    let t = fig.table("fig15_trace_failures.tsv");
    let excess = |policy: &str| t.row(policy)[1].parse::<f64>().unwrap() - 100.0;
    assert!(excess("job restart") >= 5.0 * excess("swift fine-grained"));
}

#[test]
#[ignore = "release only: 27 s"]
fn fig16_scales_near_linearly_to_140k_executors() {
    let fig = experiments::fig16();
    assert_committed(&fig);
    assert!(fig.value("efficiency_at_14x") >= 0.7);
}

#[test]
fn ablate_partitioning_graphlets_beat_whole_job_gangs() {
    let fig = experiments::ablate_partitioning();
    assert_committed(&fig);
    let rows = numeric_rows(fig.table("ablate_partitioning.tsv"));
    let of = |variant: &str| rows.iter().find(|(v, _)| v == variant).unwrap().1.clone();
    let (graphlets, whole_job) = (of("graphlets"), of("whole-job"));
    // makespan, mean latency, idle ratio
    for (g, w) in graphlets.iter().zip(&whole_job) {
        assert!(g < w, "graphlets {graphlets:?} vs whole-job {whole_job:?}");
    }
}

#[test]
fn ablate_submission_order_eager_trades_idle_executors_for_latency() {
    let fig = experiments::ablate_submission_order();
    assert_committed(&fig);
    let t = fig.table("ablate_submission_order.tsv");
    let (latency, idle) = (t.column("q9_latency_s"), t.column("q9_idle_ratio"));
    // rows: conservative, eager
    assert!(latency[1] < latency[0]);
    assert!(idle[1] > idle[0]);
}

#[test]
fn ablate_heartbeat_slowdown_grows_with_the_interval() {
    let fig = experiments::ablate_heartbeat();
    assert_committed(&fig);
    let slowdown = fig.table("ablate_heartbeat.tsv").column("slowdown");
    assert!(strictly_increasing(&slowdown), "{slowdown:?}");
}

#[test]
fn ablate_cache_memory_spill_grows_as_memory_shrinks() {
    let fig = experiments::ablate_cache_memory();
    // `spilled_b` depends on thread timing and `wall_s` is wall-clock
    // time, so only the other two columns are compared.
    let file = "ablate_cache_memory.tsv";
    let keep = ["capacity_b", "shuffled_b"];
    assert_same_series(
        &fig,
        file,
        &select_columns(&fig.table(file).tsv(), &keep),
        &select_columns(&committed(file), &keep),
    );
    // rows go from the largest capacity to the smallest
    let spilled = fig.table("ablate_cache_memory.tsv").column("spilled_b");
    assert!(spilled.windows(2).all(|w| w[0] <= w[1]), "{spilled:?}");
}
