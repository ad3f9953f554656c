//! Differential proof that the sharded simulator core is behaviorally
//! invisible.
//!
//! The sharded core (`swift_sim::ShardedEventQueue`) partitions pending
//! events across K machine-group lanes and merges them at deterministic
//! window barriers in global `(time, seq)` order — the exact order of a
//! single heap. Sharding is a pure *wall-clock* optimization: no report,
//! trace or counter frame may move by a byte when K or the barrier window
//! changes. This suite pins that contract from the outside (the six
//! historical pins in `report_digest.rs` hold K = 1 itself in place):
//!
//! * every registry scenario, across seeds, produces a byte-identical
//!   [`swift::scheduler::RunReport`] digest, event trace and counter
//!   frames for K ∈ {2, 4, 8}, against the single-lane core (K = 1);
//! * extreme barrier windows (1 µs and 1000 s) merge identically, so the
//!   window is provably a tuning knob, not a semantics knob;
//! * shard telemetry is conserved: per-lane event counts sum to the
//!   report's `events_processed` at every K.

use swift::sim::SimDuration;
use swift::trace::scenarios;
use swift::trace::RecorderConfig;

/// Recorder settings for differential comparison: the full surface plus
/// counter frames, so the comparison covers spans, counters and metrics.
fn differential_recorder() -> RecorderConfig {
    RecorderConfig {
        counter_window: Some(SimDuration::from_millis(250)),
        ..RecorderConfig::full()
    }
}

/// Runs `(scenario, seed)` at a shard count and returns
/// `(event text, counter text, report digest)`.
fn run_at(name: &str, seed: u64, shards: u32) -> (String, String, u64) {
    let (trace, report) =
        scenarios::run_traced_sharded(name, seed, differential_recorder(), shards)
            .expect("registry scenario exists");
    (
        trace.render_text(),
        trace.render_counters_text(),
        report.digest(),
    )
}

/// The headline gate: for every scenario in the registry, the single-lane
/// core and the sharded core at K ∈ {2, 4, 8} are byte-identical — same
/// report digest, same rendered event stream, same counter frames.
#[test]
fn sharded_equals_single_across_registry() {
    for name in scenarios::names() {
        for seed in [1u64, 23] {
            let (events, counters, digest) = run_at(name, seed, 1);
            for k in [2u32, 4, 8] {
                let (ev_k, ctr_k, digest_k) = run_at(name, seed, k);
                assert_eq!(
                    digest, digest_k,
                    "{name}/{seed}: report digest diverged at K = {k}"
                );
                assert_eq!(
                    events, ev_k,
                    "{name}/{seed}: event trace diverged at K = {k}"
                );
                assert_eq!(
                    counters, ctr_k,
                    "{name}/{seed}: counter frames diverged at K = {k}"
                );
            }
        }
    }
}

/// Runs a scenario with an explicit barrier window and returns the digest.
fn digest_with_window(name: &str, shards: u32, window: SimDuration) -> u64 {
    scenarios::build_sharded_with_window(name, 11, shards, Some(window))
        .expect("scenario exists")
        .run()
        .digest()
}

/// A one-µs window (a barrier per distinct timestamp) and a 1000-second
/// window (everything in a couple of runs) merge identically: the barrier
/// window is a pure performance knob.
#[test]
fn barrier_window_is_a_tuning_knob() {
    for name in ["diamond", "fault"] {
        let baseline = digest_with_window(name, 4, SimDuration::from_millis(256));
        assert_eq!(
            baseline,
            digest_with_window(name, 4, SimDuration(1)),
            "{name}: 1µs windows changed the digest"
        );
        assert_eq!(
            baseline,
            digest_with_window(name, 4, SimDuration::from_secs(1_000)),
            "{name}: huge windows changed the digest"
        );
    }
}

/// Shard telemetry conservation: per-lane event counts sum exactly to the
/// report's `events_processed`, and the clamped lane count is respected.
#[test]
fn lane_event_counts_sum_to_events_processed() {
    for name in scenarios::names() {
        for k in [1u32, 2, 4, 8] {
            let sim = scenarios::build_sharded(name, 3, k).expect("scenario exists");
            let machines = sim.cluster().machine_count();
            let (report, stats) = sim.run_with_shard_stats();
            assert_eq!(stats.shards, k.clamp(1, machines), "{name}: lane count");
            assert_eq!(
                stats.events_per_shard.iter().sum::<u64>(),
                report.events_processed,
                "{name}/K={k}: lane events must sum to events_processed"
            );
            assert_eq!(
                stats.events_per_shard.len(),
                stats.shards as usize,
                "{name}: one counter per lane"
            );
        }
    }
}

/// Sums one counter series across every frame of a trace.
fn series_total(trace: &swift::trace::Trace, id: swift::metrics::SeriesId) -> u64 {
    trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            swift::trace::TraceEventKind::CounterFrame { values, .. } => Some(values),
            _ => None,
        })
        .flat_map(|values| values.iter().filter(|(i, _)| *i == id.0).map(|&(_, v)| v))
        .sum()
}

/// The opt-in `sim.shard.*` counter series telescope to the run totals:
/// merged shard events sum to `events_processed`, and the series only
/// appear when asked for — default frames never mention them.
#[test]
fn shard_series_opt_in_widens_frames_and_telescopes() {
    let opt_in = RecorderConfig {
        shard_series: true,
        ..differential_recorder()
    };
    let (trace, report) =
        scenarios::run_traced_sharded("multijob", 5, opt_in, 4).expect("scenario exists");
    assert_eq!(
        series_total(&trace, swift::metrics::SIM_SHARD_EVENTS),
        report.events_processed,
        "shard-event frames must telescope to the report total"
    );
    assert!(
        series_total(&trace, swift::metrics::SIM_SHARD_WINDOW_BARRIERS) > 0,
        "a multi-shard run takes at least one window barrier"
    );
    let counters = trace.render_counters_text();
    assert!(counters.contains("sim.shard.events"));
    assert!(counters.contains("sim.shard.cross_msgs"));

    // Default recorder: no shard series, even on the sharded core.
    let (default_trace, _) =
        scenarios::run_traced_sharded("multijob", 5, differential_recorder(), 4)
            .expect("scenario exists");
    assert!(
        !default_trace.render_counters_text().contains("sim.shard."),
        "default frames must stay on the core vocabulary"
    );
}
