//! Trace-text pins tier-1 can see.
//!
//! The text format's goldens live in `swift-trace` and `swift-service` and
//! run only under `cargo test --workspace`. These pins put the streamed
//! text where the root run notices a change on its own: a 300-job replay
//! of the Fig. 8 trace generator under the lean and the full recorder
//! config, and the golden `service-small` scenario, each streamed through
//! a [`StreamSink`] at a 64 KiB and a 256 B chunk. Every stream must equal
//! [`Trace::render_text`] byte for byte, keep its chunk buffer within the
//! chunk, and hash to its pinned length and digest. A renderer change that
//! keeps the format keeps every pin; a format change bumps
//! `TEXT_FORMAT_VERSION`, re-blesses the goldens and re-captures these
//! (each failure prints the new values).
//!
//! [`Trace::render_text`]: swift::trace::Trace::render_text

use swift::cluster::{Cluster, CostModel};
use swift::scheduler::{JobSpec, SimConfig, Simulation};
use swift::sim::Fnv64;
use swift::trace::{RecorderConfig, StreamSink, Trace, TraceRecorder, TraceSink};
use swift::workload::{generate_trace, TraceConfig};

/// The chunk sizes every stream is cut at: the default and a small one
/// that flushes every few lines.
const CHUNKS: [usize; 2] = [64 * 1024, 256];

/// `(bytes, digest)` of one rendered trace text.
fn pin_of(text: &[u8]) -> (usize, u64) {
    let mut h = Fnv64::new();
    h.eat_str(std::str::from_utf8(text).expect("trace text is UTF-8"));
    (text.len(), h.finish())
}

/// Checks one stream against the buffered render and its chunk bound;
/// returns the stream's pin.
fn check_stream(
    label: &str,
    sink: StreamSink<Vec<u8>>,
    chunk: usize,
    buffered: &str,
) -> (usize, u64) {
    let (bytes, stats) = sink.finish_into_inner().expect("a Vec never fails a write");
    assert!(
        stats.peak_buffer_bytes <= chunk,
        "{label} chunk {chunk}: peak buffer {} exceeds the chunk",
        stats.peak_buffer_bytes
    );
    assert_eq!(
        stats.bytes_written as usize,
        bytes.len(),
        "{label} chunk {chunk}"
    );
    assert!(
        bytes == buffered.as_bytes(),
        "{label} chunk {chunk}: streamed bytes differ from the buffered render"
    );
    pin_of(&bytes)
}

/// 300 trace-generator jobs on a 300 × 32 fleet, the `sim_streamed`
/// workload's shape at a seventh of its size.
fn replay() -> Simulation {
    let specs = generate_trace(&TraceConfig {
        jobs: 300,
        ..TraceConfig::default()
    })
    .into_iter()
    .map(|j| JobSpec {
        dag: j.dag,
        submit_at: j.submit_at,
    })
    .collect();
    Simulation::new(
        Cluster::new(300, 32, CostModel::default()),
        SimConfig::swift(),
        specs,
    )
}

/// Records the replay into memory and into one stream per chunk size;
/// returns the pin every stream agreed on.
fn replay_pin(label: &str, cfg: RecorderConfig) -> (usize, u64) {
    let mut sim = replay();
    let (recorder, handle) = TraceRecorder::new(label, 1, cfg);
    sim.set_observer(Box::new(recorder));
    sim.run();
    let buffered = handle.finish().render_text();
    let pin = pin_of(buffered.as_bytes());
    for chunk in CHUNKS {
        let mut sim = replay();
        let sink = StreamSink::with_chunk(Vec::new(), label, 1, chunk);
        let (recorder, handle) = TraceRecorder::with_sink(label, 1, cfg, sink);
        sim.set_observer(Box::new(recorder));
        sim.run();
        assert_eq!(
            check_stream(label, handle.into_sink(), chunk, &buffered),
            pin
        );
    }
    pin
}

#[test]
fn lean_replay_stream_is_pinned() {
    let pin = replay_pin("replay-300-lean", RecorderConfig::default());
    assert_eq!(
        pin,
        (3_115_413, 0xf763_f639_1ce7_71ca),
        "lean replay text is now ({}, {:#018x})",
        pin.0,
        pin.1
    );
}

#[test]
fn full_replay_stream_is_pinned() {
    let pin = replay_pin("replay-300-full", RecorderConfig::full());
    assert_eq!(
        pin,
        (3_806_555, 0x5a9c_ccb6_a530_48bd),
        "full replay text is now ({}, {:#018x})",
        pin.0,
        pin.1
    );
}

/// The service recorder buffers its events, so the stream is fed from the
/// recorded trace: the sink sees the same events in the same order.
#[test]
fn service_small_stream_is_pinned() {
    let (trace, _) = swift_service::scenarios::run_recorded("service-small", 1)
        .expect("registry scenario exists");
    let Trace {
        scenario,
        seed,
        events,
    } = &trace;
    let buffered = trace.render_text();
    let pin = pin_of(buffered.as_bytes());
    for chunk in CHUNKS {
        let mut sink = StreamSink::with_chunk(Vec::new(), scenario, *seed, chunk);
        for e in events {
            sink.record(e.clone());
        }
        assert_eq!(check_stream(scenario, sink, chunk, &buffered), pin);
    }
    assert_eq!(
        pin,
        (5_967, 0xe6ac_b047_ad94_b37e),
        "service-small/1 text is now ({}, {:#018x})",
        pin.0,
        pin.1
    );
}
