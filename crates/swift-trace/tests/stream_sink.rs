//! The render thread's life cycle in [`StreamSink`]: no thread outlives
//! the sink, a writer error is latched and returned by `finish`, and a
//! writer panic surfaces from `finish`, never from `record`.

use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender, TryRecvError};

use swift_scheduler::SimEvent;
use swift_sim::SimTime;
use swift_trace::{StreamSink, TraceEvent, TraceSink, STREAM_BATCH_EVENTS};

fn event(i: usize) -> TraceEvent {
    TraceEvent {
        at: SimTime(i as u64),
        kind: SimEvent::JobSubmitted { job: i as u32 },
    }
}

fn record(sink: &mut impl TraceSink, events: std::ops::Range<usize>) {
    for i in events {
        sink.record(event(i));
    }
}

/// Reports every write's length over a channel; the channel closes when
/// the writer is dropped.
#[derive(Debug)]
struct Reporting(Sender<usize>);

impl Write for Reporting {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.send(buf.len()).expect("the test still listens");
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Accepts `room` bytes, then fails one write; a write after the failure
/// panics, so a sink that did not latch the error fails the test.
#[derive(Debug)]
struct FailsAfter {
    room: usize,
    failed: bool,
}

impl Write for FailsAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        assert!(!self.failed, "written to after it failed");
        if buf.len() > self.room {
            self.failed = true;
            return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
        }
        self.room -= buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Announces its first write on a channel, then panics.
#[derive(Debug)]
struct Panics(Sender<()>);

impl Write for Panics {
    fn write(&mut self, _: &[u8]) -> io::Result<usize> {
        let _ = self.0.send(());
        panic!("the writer broke");
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn dropping_an_unfinished_sink_joins_the_render_thread() {
    let (tx, rx) = mpsc::channel();
    let mut sink = StreamSink::with_chunk(Reporting(tx), "drop", 1, 64);
    record(&mut sink, 0..3 * STREAM_BATCH_EVENTS + 5);
    drop(sink);
    // The sent batches were rendered and written before the join...
    assert!(rx.try_iter().sum::<usize>() > 0);
    // ...and the writer is gone: nothing can arrive after the drop.
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
}

#[test]
fn a_writer_error_is_latched_and_returned_by_finish() {
    let mut sink = StreamSink::with_chunk(
        FailsAfter {
            room: 1000,
            failed: false,
        },
        "error",
        1,
        64,
    );
    record(&mut sink, 0..3 * STREAM_BATCH_EVENTS + 5);
    let err = sink.finish().expect_err("the writer ran out of room");
    assert_eq!(err.kind(), io::ErrorKind::StorageFull);
}

#[test]
fn a_writer_panic_surfaces_from_finish_not_record() {
    let (tx, rx) = mpsc::channel();
    let mut sink = StreamSink::with_chunk(Panics(tx), "panic", 1, 64);
    record(&mut sink, 0..STREAM_BATCH_EVENTS);
    rx.recv().expect("the render thread reached the writer");
    // Enough batches to fill the channel several times over: every send
    // after the render thread died must return, not panic or block.
    record(&mut sink, 0..20 * STREAM_BATCH_EVENTS);
    assert_eq!(sink.events_recorded(), 21 * STREAM_BATCH_EVENTS as u64);
    let payload = panic::catch_unwind(AssertUnwindSafe(|| sink.finish()))
        .expect_err("finish re-raises the writer's panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"the writer broke"));
}
