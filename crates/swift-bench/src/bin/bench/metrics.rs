//! Metric and workload names, and the statistics every workload shares.
//!
//! `BENCHMARK.json` at the repo root lists the same names; a unit test in
//! `main.rs` fails when the two drift apart.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the baseline by which the
/// metric may get worse before `--compare` (and the driver, for the
/// end-to-end ones) calls it a regression; `None` = reported only.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MetricDef {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) better: Better,
    pub(crate) bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// `(name, why it exists)` — the seven workloads.
pub(crate) const WORKLOADS: [(&str, &str); 7] = [
    (
        "sim_replay_2000",
        "2000-job trace on 2000x32 executors: event queue, scheduler loop and cost model do the work; recorder, service, templates and engine do none",
    ),
    (
        "sim_faults",
        "1500 jobs on 250x8 with 30% task faults and 6 machine crashes: same scheduler on the detection, recovery-planning and rerun path",
    ),
    (
        "sim_streamed",
        "sim_replay_2000's inputs with a lean recorder streaming to a byte-counting writer: the observer/recorder does the extra work",
    ),
    (
        "service_steady",
        "12000 small jobs from 1200 tenants below capacity: per-job set-up, template cache and warm pool in the service loop, nothing refused",
    ),
    (
        "service_storm",
        "four 12000-job streams of the same shape past saturation, with storms and a 256 watermark: admission, DRR and back-pressure carry the load and jobs are refused",
    ),
    (
        "engine_tpch",
        "TPC-H Q9 and Q13, hash and sort plans, all in memory on the real engine: operators, codec and SQL planner work, spill does not",
    ),
    (
        "engine_spill",
        "200000-row terasort through a 2 MiB cache worker: every shuffled byte is put, evicted, spilled to a file and read back",
    ),
];

/// What the driver gates: defined and never zero on every workload.
pub(crate) const END_TO_END: [MetricDef; 4] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("host_jobs_per_s", "1/s", Higher, 0.25),
    gated("peak_rss_mb", "MiB", Lower, 0.18),
    gated("completed_share", "ratio", Higher, 0.12),
];

/// Simulated-time results. Pure functions of `(workload, seed)`, so
/// `--compare` holds them to 1 %; they differ between seeds by far more
/// than any bound, which is why the driver sees them as layer metrics.
/// Zero where the workload has no simulated clock (or no such notion).
const SIM_METRICS: [MetricDef; 7] = [
    gated("sim_job_latency_s_p50", "sim_s", Lower, 0.01),
    gated("sim_job_latency_s_p99", "sim_s", Lower, 0.01),
    gated("sim_sched_latency_s_p50", "sim_s", Lower, 0.01),
    gated("sim_sched_latency_s_p99", "sim_s", Lower, 0.01),
    gated("sim_jobs_per_s", "1/sim_s", Higher, 0.01),
    gated("sim_idle_ratio", "ratio", Lower, 0.01),
    gated("sim_slo_rate_jobs_per_s", "1/sim_s", Higher, 0.01),
];

const LAYER_METRICS: [MetricDef; 89] = [
    // bench: context for every host number.
    layer("bench.iterations", "count", Higher),
    layer("bench.iter_ms_p50", "ms", Lower),
    layer("bench.iter_ms_p90", "ms", Lower),
    layer("bench.iter_ms_iqr_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.loadavg_start", "count", Lower),
    // swift-workload, swift-cluster.
    layer("workload.gen_ms", "ms", Lower),
    layer("cluster.build_ms", "ms", Lower),
    layer("cluster.cost_ns_per_edge", "ns", Lower),
    // swift-dag, swift-shuffle at plan time.
    layer("dag.partition_us_per_job", "us", Lower),
    layer("dag.graphlets_per_job", "count", Lower),
    layer("shuffle.plan_us_per_job", "us", Lower),
    layer("shuffle.scheme_share_direct", "ratio", Higher),
    layer("shuffle.scheme_share_local", "ratio", Higher),
    layer("shuffle.scheme_share_remote", "ratio", Higher),
    // swift-sim.
    layer("sim.events", "count", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.queue_ns_per_event", "ns", Lower),
    layer("sim.queue_depth_mean", "count", Lower),
    layer("sim.queue_depth_peak", "count", Lower),
    layer("sim.queue_share_pct", "%", Lower),
    // swift-scheduler.
    layer("scheduler.prepare_us_per_job", "us", Lower),
    layer("scheduler.run_ms", "ms", Lower),
    layer("scheduler.loop_self_ns_per_event", "ns", Lower),
    layer("scheduler.allocs_per_event", "count", Lower),
    layer("scheduler.template_lookup_ns", "ns", Lower),
    layer("scheduler.template_hit_rate", "ratio", Higher),
    layer("scheduler.gang_wait_ms_p50", "sim_ms", Lower),
    layer("scheduler.gang_wait_ms_p99", "sim_ms", Lower),
    layer("scheduler.pending_requests_peak", "count", Lower),
    layer("scheduler.busy_executor_share", "ratio", Higher),
    layer("scheduler.tasks_started", "count", Lower),
    layer("scheduler.tasks_rerun", "count", Lower),
    layer("scheduler.phase_launch_share", "ratio", Lower),
    layer("scheduler.phase_shuffle_read_share", "ratio", Lower),
    layer("scheduler.phase_process_share", "ratio", Higher),
    layer("scheduler.phase_shuffle_write_share", "ratio", Lower),
    // swift-ft.
    layer("ft.recovery_plans", "count", Lower),
    layer("ft.rerun_tasks_per_plan", "count", Lower),
    layer("ft.detect_ms_p50", "sim_ms", Lower),
    layer("ft.replan_to_rerun_ms_p50", "sim_ms", Lower),
    layer("ft.jobs_restarted", "count", Lower),
    layer("ft.jobs_aborted", "count", Lower),
    // swift-trace, swift-metrics.
    layer("trace.events_recorded", "count", Lower),
    layer("trace.bytes_written", "bytes", Lower),
    layer("trace.peak_buffer_bytes", "bytes", Lower),
    layer("trace.ns_per_trace_event", "ns", Lower),
    layer("trace.stream_overhead_pct", "%", Lower),
    layer("trace.lean_overhead_pct", "%", Lower),
    layer("trace.render_ns_per_event", "ns", Lower),
    layer("metrics.counter_overhead_pct", "%", Lower),
    // swift-service.
    layer("service.run_ms", "ms", Lower),
    layer("service.inner_sim_ms", "ms", Lower),
    layer("service.inner_us_per_job", "us", Lower),
    layer("service.loop_self_us_per_job", "us", Lower),
    layer("service.inner_events_per_s", "1/s", Higher),
    layer("service.events", "count", Lower),
    layer("service.warm_hit_rate", "ratio", Higher),
    layer("service.template_hit_rate", "ratio", Higher),
    layer("service.rejected", "count", Lower),
    layer("service.queue_depth_peak", "count", Lower),
    layer("service.executors_held_share", "ratio", Lower),
    layer("service.sessions_expired", "count", Lower),
    layer("service.max_deficit_stall", "count", Lower),
    layer("service.sched_latency_s_p90", "sim_s", Lower),
    // swift-sql.
    layer("sql.compile_us_p50", "us", Lower),
    // swift-engine.
    layer("engine.q9_hash_ms_p50", "ms", Lower),
    layer("engine.q9_sort_ms_p50", "ms", Lower),
    layer("engine.q13_hash_ms_p50", "ms", Lower),
    layer("engine.q13_sort_ms_p50", "ms", Lower),
    layer("engine.terasort_ms_p50", "ms", Lower),
    layer("engine.single_thread_ms_p50", "ms", Lower),
    layer("engine.parallel_speedup", "ratio", Higher),
    layer("engine.tasks_run", "count", Lower),
    layer("engine.recovered_tasks", "count", Lower),
    layer("engine.shuffled_bytes", "bytes", Lower),
    layer("engine.spilled_bytes", "bytes", Lower),
    layer("engine.op_scan_rows_per_s", "1/s", Higher),
    layer("engine.op_filter_rows_per_s", "1/s", Higher),
    layer("engine.op_hash_agg_rows_per_s", "1/s", Higher),
    layer("engine.op_hash_join_rows_per_s", "1/s", Higher),
    layer("engine.op_merge_join_rows_per_s", "1/s", Higher),
    layer("engine.op_sort_rows_per_s", "1/s", Higher),
    layer("engine.codec_encode_mb_per_s", "MB/s", Higher),
    layer("engine.codec_decode_mb_per_s", "MB/s", Higher),
    layer("engine.allocs_per_row", "count", Lower),
    // swift-shuffle data plane.
    layer("shuffle.store_put_mb_per_s", "MB/s", Higher),
    layer("shuffle.store_collect_mb_per_s", "MB/s", Higher),
    layer("shuffle.spill_ratio", "ratio", Lower),
];

/// Every metric a `--trace 1` run reports, in print order.
pub(crate) fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    SIM_METRICS.iter().chain(LAYER_METRICS.iter())
}

/// Every metric `--compare` holds to a bound.
pub(crate) fn compared() -> impl Iterator<Item = &'static MetricDef> + Clone {
    END_TO_END.iter().chain(SIM_METRICS.iter())
}

/// The compared metrics that are pure functions of `(workload, seed)`:
/// what the committed `sim_baseline.json` holds `--all` to.
pub(crate) fn repeatable() -> impl Iterator<Item = &'static MetricDef> + Clone {
    END_TO_END
        .iter()
        .filter(|d| d.name == "completed_share")
        .chain(SIM_METRICS.iter())
}

/// Measured values of one pass, by metric name. Metrics a workload does
/// not exercise stay at zero.
#[derive(Debug, Default)]
pub(crate) struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` under `name`. Panics on a name outside the tables
    /// above (a typo would otherwise silently report zero), on a second
    /// write, and on a value JSON cannot carry.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            END_TO_END.iter().chain(per_layer()).any(|d| d.name == name),
            "unknown metric {name}"
        );
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub(crate) fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Nearest-rank percentile of an ascending slice: `sorted[ceil(q*n) - 1]`.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The percentile ladder a tail walks down when samples are scarce.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// The highest percentile at or below `want` that still has at least ten
/// samples beyond it, and its value; the median when none has.
pub(crate) fn tail_percentile(sorted: &[f64], want: f64) -> (f64, f64) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    for q in TAIL_LADDER.into_iter().filter(|q| *q <= want) {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if n - rank >= 10 {
            return (q, sorted[rank - 1]);
        }
    }
    (0.50, percentile(sorted, 0.50))
}

/// The value to publish under the `_p99` metric `name`. A full-size run
/// fails when fewer than ten samples lie beyond the p99: a `_p99` is never
/// a lower percentile in disguise. A smoke run, whose numbers are never
/// compared, publishes the percentile [`tail_percentile`] falls back to
/// and names it on stderr.
pub(crate) fn p99(name: &str, sorted: &[f64], smoke: bool) -> Result<f64, String> {
    let (q, value) = tail_percentile(sorted, 0.99);
    if q != 0.99 {
        let note = format!(
            "{name}: {} samples leave fewer than ten beyond the p99",
            sorted.len()
        );
        if !smoke {
            return Err(note);
        }
        eprintln!(
            "bench: {note}; reporting the p{:.0} under that name",
            q * 100.0
        );
    }
    Ok(value)
}

pub(crate) fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples (nearest rank).
pub(crate) fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.50)
}

/// Interquartile range as a percentage of the median.
pub(crate) fn iqr_pct(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let med = percentile(&s, 0.50);
    if med == 0.0 {
        return 0.0;
    }
    (percentile(&s, 0.75) - percentile(&s, 0.25)) / med * 100.0
}

/// `part / whole`, zero when there is no whole.
pub(crate) fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// FNV-1a over 64-bit words: the digest of anything the bench compares
/// across iterations that has no digest of its own.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten lie beyond.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.99), (0.99, 990.0));
        // 999 samples: rank 990 leaves nine, so the tail drops to p95.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.99), (0.95, 950.0));
        // 100 samples: p90 has exactly ten beyond.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.99), (0.90, 90.0));
        // 30 samples: only the median qualifies.
        let s: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.99), (0.50, 15.0));
        // A lower request never climbs above itself.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.90), (0.90, 900.0));
    }

    #[test]
    fn a_p99_is_never_a_lower_percentile_at_full_size() {
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99("x_p99", &enough, false), Ok(990.0));
        let scarce: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(p99("x_p99", &scarce, false).is_err());
        assert_eq!(p99("x_p99", &scarce, true), Ok(950.0), "smoke falls back");
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((iqr_pct(&v) - 100.0).abs() < 1e-9);
        assert_eq!(iqr_pct(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn metric_names_use_the_contract_character_set() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes().all(|b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
                })
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(per_layer()) {
            assert!(ok_name(d.name), "bad metric name {}", d.name);
            assert!(ok_unit(d.unit), "bad unit {} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
            if let Some(b) = d.bound {
                assert!(
                    b > 0.0 && b <= 0.25,
                    "bound of {} outside (0, 0.25]",
                    d.name
                );
            }
        }
        for (name, why) in WORKLOADS {
            assert!(ok_name(name), "bad workload name {name}");
            assert!(seen.insert(name), "name {name} used twice");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        assert!(per_layer().count() <= 128);
    }
}
