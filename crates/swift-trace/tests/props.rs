//! Property tests over the trace stream, in the seeded-loop style of the
//! swift-chaos suite: every registry scenario is replayed across a seed
//! range and each property must hold on every run. A failing seed is a
//! self-contained repro (`scenarios::run_traced(name, seed, ..)`).

use std::collections::BTreeSet;

use swift_scheduler::SimEvent;
use swift_trace::{scenarios, RecorderConfig, StreamSink};

const SEEDS: std::ops::Range<u64> = 0..12;

/// Seeds for the more expensive streaming-equality sweeps.
const STREAM_SEEDS: [u64; 3] = [1, 7, 42];

/// The determinism pin: the same `(scenario, seed)` produces a
/// byte-identical text trace — and an identical `RunReport` — across two
/// independent runs in one process.
#[test]
fn same_seed_traces_are_byte_identical() {
    for name in scenarios::names() {
        for seed in SEEDS {
            let (a, ra) = scenarios::run_traced(name, seed, RecorderConfig::full()).unwrap();
            let (b, rb) = scenarios::run_traced(name, seed, RecorderConfig::full()).unwrap();
            assert_eq!(
                a.render_text(),
                b.render_text(),
                "trace divergence: {name} seed {seed}"
            );
            assert_eq!(
                format!("{ra:?}"),
                format!("{rb:?}"),
                "report divergence: {name} seed {seed}"
            );
        }
    }
}

/// Spans are well nested and closed at run end (see
/// [`swift_trace::Trace::check_spans`] for the full discipline).
#[test]
fn spans_are_well_nested_and_closed() {
    for name in scenarios::names() {
        for seed in SEEDS {
            let (trace, _) = scenarios::run_traced(name, seed, RecorderConfig::full()).unwrap();
            trace
                .check_spans()
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
        }
    }
}

/// Every `task_finished` is preceded by a `task_started` of the same
/// attempt — same `(job, stage, index, epoch)` — checked directly on the
/// raw stream, independently of the span checker.
#[test]
fn every_finish_has_a_matching_start() {
    for name in scenarios::names() {
        for seed in SEEDS {
            let (trace, _) = scenarios::run_traced(name, seed, RecorderConfig::full()).unwrap();
            let mut started: BTreeSet<(u32, u32, u32, u32)> = BTreeSet::new();
            let mut finishes = 0u64;
            for e in &trace.events {
                match &e.kind {
                    SimEvent::TaskStarted { job, task, epoch } => {
                        started.insert((*job, task.stage, task.index, *epoch));
                    }
                    SimEvent::TaskFinished { job, task, epoch } => {
                        finishes += 1;
                        assert!(
                            started.contains(&(*job, task.stage, task.index, *epoch)),
                            "{name} seed {seed}: task {task} e{epoch} of job {job} \
                             finished without starting"
                        );
                    }
                    _ => {}
                }
            }
            assert!(finishes > 0, "{name} seed {seed}: no task ever finished");
        }
    }
}

/// Timestamps never go backwards, and the stream ends with exactly one
/// `run_finished` carrying the simulator's processed-event count.
#[test]
fn stream_is_monotonic_and_terminated() {
    for name in scenarios::names() {
        for seed in SEEDS {
            let (trace, report) =
                scenarios::run_traced(name, seed, RecorderConfig::full()).unwrap();
            let mut prev = None;
            for e in &trace.events {
                if let Some(p) = prev {
                    assert!(e.at >= p, "{name} seed {seed}: time went backwards");
                }
                prev = Some(e.at);
            }
            let finals: Vec<u64> = trace
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    SimEvent::RunFinished { events } => Some(events),
                    _ => None,
                })
                .collect();
            assert_eq!(finals.len(), 1, "{name} seed {seed}: run_finished count");
            assert_eq!(
                finals[0], report.events_processed,
                "{name} seed {seed}: run_finished event count"
            );
            assert!(
                matches!(
                    trace.events.last().map(|e| &e.kind),
                    Some(SimEvent::RunFinished { .. })
                ),
                "{name} seed {seed}: run_finished is not the final event"
            );
        }
    }
}

/// The streaming-sink pin: for every registry scenario, the bytes a
/// [`StreamSink`] writes are byte-identical to the buffered
/// [`swift_trace::Trace::render_text`] path — and the peak chunk buffer
/// stays within the configured chunk size regardless of run length. The
/// deliberately tiny second chunk exercises mid-run flushing.
#[test]
fn streamed_trace_equals_buffered_render() {
    for name in scenarios::names() {
        for seed in STREAM_SEEDS {
            let (trace, _) = scenarios::run_traced(name, seed, RecorderConfig::full()).unwrap();
            let buffered = trace.render_text();
            for chunk in [4096usize, 256] {
                let sink = StreamSink::with_chunk(Vec::<u8>::new(), name, seed, chunk);
                let (sink, _) =
                    scenarios::run_traced_sink(name, seed, RecorderConfig::full(), sink).unwrap();
                let (bytes, stats) = sink.finish_into_inner().unwrap();
                assert!(
                    stats.peak_buffer_bytes <= chunk,
                    "{name} seed {seed}: peak buffer {} exceeds chunk {chunk}",
                    stats.peak_buffer_bytes
                );
                assert_eq!(stats.events, trace.len() as u64, "{name} seed {seed}");
                assert_eq!(
                    stats.bytes_written as usize,
                    bytes.len(),
                    "{name} seed {seed}"
                );
                assert_eq!(
                    String::from_utf8(bytes).unwrap(),
                    buffered,
                    "{name} seed {seed} chunk {chunk}: streamed bytes differ from buffered render"
                );
            }
        }
    }
}

/// Counter frames under the full config: every frame carries the whole
/// series vocabulary in ascending-ID order, window indices never
/// decrease, at least one frame exists, and the rendered counter tracks
/// are byte-identical across two runs of the same `(scenario, seed)`.
#[test]
fn counter_frames_are_complete_and_deterministic() {
    for name in scenarios::names() {
        for seed in STREAM_SEEDS {
            let (a, _) = scenarios::run_traced(name, seed, RecorderConfig::full()).unwrap();
            let (b, _) = scenarios::run_traced(name, seed, RecorderConfig::full()).unwrap();
            assert_eq!(
                a.render_counters_text(),
                b.render_counters_text(),
                "counter-track divergence: {name} seed {seed}"
            );
            let mut frames = 0u64;
            let mut prev_window = 0u64;
            for e in &a.events {
                if let SimEvent::CounterFrame { window, values } = &e.kind {
                    frames += 1;
                    assert!(
                        *window >= prev_window,
                        "{name} seed {seed}: window index went backwards"
                    );
                    prev_window = *window;
                    // A simulator frame carries exactly the core
                    // vocabulary — never the service series.
                    assert_eq!(
                        values.len(),
                        swift_metrics::CORE_SERIES,
                        "{name} seed {seed}: frame missing series"
                    );
                    for (i, (id, _)) in values.iter().enumerate() {
                        assert_eq!(*id as usize, i, "{name} seed {seed}: series order");
                    }
                }
            }
            assert!(frames > 0, "{name} seed {seed}: no counter frames recorded");
        }
    }
}

/// The default (control-plane only) configuration records a strict
/// subset: no input reads, no cache events, and the stream is still
/// deterministic and well nested.
#[test]
fn default_config_is_lean_and_well_nested() {
    for name in scenarios::names() {
        for seed in SEEDS {
            let (trace, _) = scenarios::run_traced(name, seed, RecorderConfig::default()).unwrap();
            for e in &trace.events {
                assert!(
                    !matches!(
                        e.kind,
                        SimEvent::InputRead { .. }
                            | SimEvent::CacheSpill { .. }
                            | SimEvent::CacheEvict { .. }
                            | SimEvent::CounterFrame { .. }
                    ),
                    "{name} seed {seed}: {} recorded under the default config",
                    e.name()
                );
            }
            trace
                .check_spans()
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
        }
    }
}
