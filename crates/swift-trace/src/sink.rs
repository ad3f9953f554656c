//! Trace sinks: where the [`crate::TraceRecorder`] delivers its event
//! stream.
//!
//! [`MemorySink`] buffers the whole stream (the default; feeds
//! [`crate::TraceHandle::finish`]). [`StreamSink`] writes the stable text
//! format through an [`io::Write`] in chunks as the run goes, so a long
//! run's trace never has to fit in memory. Its `record` only appends the
//! event to a fixed-size batch; one render thread renders the batches in
//! FIFO order and owns the writer and the chunk buffer. Recorder-side
//! memory is therefore bounded by the chunk plus the batches in flight
//! (`in-flight batches × STREAM_BATCH_EVENTS × size_of::<TraceEvent>()`),
//! not by run length. Both sinks observe the identical event stream, and
//! the streamed bytes equal [`crate::Trace::render_text`] byte for byte:
//! the render thread writes the header, each line and the footer through
//! the same byte writer ([`TraceEvent::write_line`] and the crate's header
//! and footer writers), straight into its chunk buffer. The thread decides
//! only when bytes reach the writer, never which. The footer carries the
//! event count precisely so a streaming writer never needs to seek back.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::event::TraceEvent;
use crate::text;

/// Where recorded events go, in stream order.
///
/// Implementations must be deterministic consumers: no reordering, no
/// sampling of their own — the byte-identity contract (same
/// `(scenario, seed)` ⇒ identical output) is carried entirely by the
/// event stream the recorder feeds in.
pub trait TraceSink: std::fmt::Debug {
    /// Consumes the next event.
    fn record(&mut self, event: TraceEvent);

    /// Events consumed so far.
    fn events_recorded(&self) -> u64;
}

/// Events per [`MemorySink`] segment: 1024 × ~56-byte events ≈ 56 KiB.
/// Small enough that a freed segment goes back on the allocator's reuse
/// lists (the next run's segments land on already-faulted pages instead
/// of triggering fresh page faults mid-run), large enough that the
/// new-segment branch in [`MemorySink::record`] is almost never taken.
const SEGMENT_EVENTS: usize = 1024;

/// The buffering sink: the full event stream accumulates in memory and is
/// taken out by [`crate::TraceHandle::finish`].
///
/// Storage is a list of fixed-capacity segments rather than one growing
/// `Vec`: recording sits on the simulator's allocation-free hot path, and
/// doubling-growth reallocation would re-copy the entire stream `log n`
/// times (megabytes of memcpy plus fresh-page faults on a long run).
/// Segments never move once allocated; the one-time flatten happens in
/// [`MemorySink::into_events`], off the timed path.
#[derive(Debug, Default)]
pub struct MemorySink {
    segments: Vec<Vec<TraceEvent>>,
    len: u64,
}

impl MemorySink {
    /// Takes the recorded events out, flattening the segments in stream
    /// order.
    pub fn into_events(self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len as usize);
        for seg in self.segments {
            out.extend(seg);
        }
        out
    }

    /// [`MemorySink::into_events`] through a mutable reference, leaving
    /// an empty sink behind.
    pub(crate) fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(self).into_events()
    }
}

impl TraceSink for MemorySink {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        match self.segments.last_mut() {
            Some(seg) if seg.len() < SEGMENT_EVENTS => seg.push(event),
            _ => {
                let mut seg = Vec::with_capacity(SEGMENT_EVENTS);
                seg.push(event);
                self.segments.push(seg);
            }
        }
        self.len += 1;
    }

    fn events_recorded(&self) -> u64 {
        self.len
    }
}

/// Default [`StreamSink`] chunk size: 64 KiB.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Events per batch a [`StreamSink`] hands its render thread: 1024 ×
/// ~56-byte events ≈ 56 KiB, so a run of a few hundred thousand events
/// crosses the channel a few hundred times.
pub const STREAM_BATCH_EVENTS: usize = 1024;

/// Full batches that may wait in the channel while the render thread is
/// busy. With the batch being filled and the batch being rendered, at
/// most `STREAM_BATCHES_IN_FLIGHT + 2` batches exist at any time.
const STREAM_BATCHES_IN_FLIGHT: usize = 4;

/// What a [`StreamSink`] wrote, returned by [`StreamSink::finish`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamStats {
    /// Events rendered and written.
    pub events: u64,
    /// Total bytes written (header + event lines + footer).
    pub bytes_written: u64,
    /// High-water mark of the chunk buffer. Bounded by the chunk size as
    /// long as no single rendered line exceeds it (lines are short; the
    /// floor chunk is 64 bytes).
    pub peak_buffer_bytes: usize,
}

/// Room past the chunk size the chunk buffer is allocated with: a line
/// is rendered in place before the renderer knows whether it overflows
/// the chunk, so the buffer briefly holds the chunk plus that line.
const LINE_SLACK_BYTES: usize = 1024;

/// The chunked streaming text sink.
///
/// [`TraceSink::record`] only appends the event to a batch of
/// [`STREAM_BATCH_EVENTS`]. A full batch goes over a bounded channel to
/// one render thread, which owns the writer and the chunk buffer and
/// renders the batches in the order they were sent; emptied batches come
/// back on a second channel, so the steady state allocates nothing.
/// One consumer reading in FIFO order keeps the bytes a pure function of
/// the event stream: the thread decides only *when* bytes reach the
/// writer, never which.
///
/// The renderer writes each line straight into its chunk buffer, which
/// is flushed to the writer *before* an append would overflow the chunk
/// size: a line that lands past the chunk sends the lines before it out
/// first and becomes the start of the next chunk. So the chunk buffer
/// peaks at `max(chunk, longest line)` and the batches add at most
/// `(STREAM_BATCHES_IN_FLIGHT + 2) × STREAM_BATCH_EVENTS ×
/// size_of::<TraceEvent>()`, regardless of run length: a recorder that
/// outruns the renderer blocks on the full channel. I/O errors are
/// latched on first occurrence (subsequent writes are skipped) and
/// surfaced by [`StreamSink::finish`].
///
/// Dropping an unfinished sink closes the channel and joins the render
/// thread, so no thread outlives the sink and nothing reaches the writer
/// after the drop returns; the unfinished chunk is discarded.
#[derive(Debug)]
pub struct StreamSink<W: Write + Send + std::fmt::Debug + 'static> {
    batch: Vec<TraceEvent>,
    events: u64,
    /// `None` once the render thread is gone: finished, or dead of a
    /// panic in the writer (which [`StreamSink::finish`] re-raises).
    full: Option<SyncSender<Vec<TraceEvent>>>,
    empty: Receiver<Vec<TraceEvent>>,
    render: Option<JoinHandle<Renderer<W>>>,
}

impl StreamSink<File> {
    /// Creates `path` and streams the trace into it with the default
    /// chunk size.
    pub fn create<P: AsRef<Path>>(path: P, scenario: &str, seed: u64) -> io::Result<Self> {
        Ok(Self::new(File::create(path)?, scenario, seed))
    }
}

impl<W: Write + Send + std::fmt::Debug + 'static> StreamSink<W> {
    /// Wraps `out` with the default chunk size, staging the text header
    /// (nothing reaches `out` until the first chunk flush).
    pub fn new(out: W, scenario: &str, seed: u64) -> Self {
        Self::with_chunk(out, scenario, seed, DEFAULT_CHUNK_BYTES)
    }

    /// [`StreamSink::new`] with an explicit chunk size (floored at 64
    /// bytes). Small chunks are useful in tests to exercise flushing.
    pub fn with_chunk(out: W, scenario: &str, seed: u64, chunk_bytes: usize) -> Self {
        let mut renderer = Renderer::new(out, chunk_bytes.max(64));
        text::write_header(&mut renderer.buf, scenario, seed);
        renderer.appended(0);
        let (full, full_rx) = mpsc::sync_channel::<Vec<TraceEvent>>(STREAM_BATCHES_IN_FLIGHT);
        // Room for every batch that can exist, so a return never blocks,
        // and the slots are allocated here: the render thread allocates
        // nothing.
        let (empty_tx, empty) = mpsc::sync_channel(STREAM_BATCHES_IN_FLIGHT + 2);
        #[expect(
            clippy::disallowed_methods,
            reason = "one consumer renders the batches in FIFO order, so the bytes do not depend on the interleaving"
        )]
        let render = std::thread::spawn(move || {
            for mut batch in full_rx {
                for event in &batch {
                    renderer.render(event);
                }
                batch.clear();
                // The sink may be gone already; then the batch just drops.
                let _ = empty_tx.send(batch);
            }
            renderer
        });
        StreamSink {
            batch: Vec::with_capacity(STREAM_BATCH_EVENTS),
            events: 0,
            full: Some(full),
            empty,
            render: Some(render),
        }
    }

    /// Writes the `# events=N` footer, flushes everything, and returns
    /// the stream statistics — or the first I/O error hit along the way.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the writer on the render thread.
    pub fn finish(self) -> io::Result<StreamStats> {
        self.finish_into_inner().map(|(_, stats)| stats)
    }

    /// [`StreamSink::finish`], but hands the inner writer back too (used
    /// by tests that stream into a `Vec<u8>` and compare the bytes).
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the writer on the render thread.
    pub fn finish_into_inner(mut self) -> io::Result<(W, StreamStats)> {
        if let Some(full) = self.full.take() {
            // Fails only if the writer panicked; the join re-raises that.
            let _ = full.send(std::mem::take(&mut self.batch));
        }
        let render = self
            .render
            .take()
            .expect("the render thread is joined only here or on drop");
        let mut renderer = match render.join() {
            Ok(renderer) => renderer,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        let start = renderer.buf.len();
        text::write_footer(&mut renderer.buf, self.events);
        renderer.appended(start);
        renderer.flush_front(renderer.buf.len());
        if let Some(e) = renderer.error.take() {
            return Err(e);
        }
        renderer.out.flush()?;
        let stats = StreamStats {
            events: self.events,
            bytes_written: renderer.bytes_written,
            peak_buffer_bytes: renderer.peak_buffer,
        };
        Ok((renderer.out, stats))
    }

    /// Hands the full batch to the render thread, blocking while the
    /// channel is full, and takes an emptied batch back (or a fresh one
    /// while every batch is still in flight).
    #[cold]
    #[inline(never)]
    fn send_batch(&mut self) {
        let Some(full) = &self.full else {
            // The writer panicked: nothing renders any more, and `finish`
            // re-raises the panic.
            self.batch.clear();
            return;
        };
        if let Err(mpsc::SendError(mut batch)) = full.send(std::mem::take(&mut self.batch)) {
            batch.clear();
            self.batch = batch;
            self.full = None;
            return;
        }
        self.batch = self
            .empty
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(STREAM_BATCH_EVENTS));
    }
}

impl<W: Write + Send + std::fmt::Debug + 'static> Drop for StreamSink<W> {
    fn drop(&mut self) {
        drop(self.full.take());
        if let Some(render) = self.render.take() {
            // A writer panic has nowhere to go from a drop.
            let _ = render.join();
        }
    }
}

impl<W: Write + Send + std::fmt::Debug + 'static> TraceSink for StreamSink<W> {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.events += 1;
        self.batch.push(event);
        if self.batch.len() == STREAM_BATCH_EVENTS {
            self.send_batch();
        }
    }

    fn events_recorded(&self) -> u64 {
        self.events
    }
}

/// The render thread's half of a [`StreamSink`]: the writer, the chunk
/// buffer and the chunk rule.
#[derive(Debug)]
struct Renderer<W> {
    out: W,
    chunk: usize,
    buf: Vec<u8>,
    bytes_written: u64,
    peak_buffer: usize,
    error: Option<io::Error>,
}

impl<W: Write> Renderer<W> {
    fn new(out: W, chunk: usize) -> Self {
        Renderer {
            out,
            chunk,
            buf: Vec::with_capacity(chunk + LINE_SLACK_BYTES),
            bytes_written: 0,
            peak_buffer: 0,
            error: None,
        }
    }

    #[inline]
    fn render(&mut self, event: &TraceEvent) {
        let start = self.buf.len();
        event.write_line(&mut self.buf);
        self.appended(start);
    }

    /// Applies the chunk rule to the text just rendered at `buf[start..]`:
    /// if it overflowed a non-empty chunk, everything before it is
    /// flushed, just as if the flush had come before the append.
    #[inline]
    fn appended(&mut self, start: usize) {
        if start > 0 && self.buf.len() > self.chunk {
            self.flush_front(start);
        }
        self.peak_buffer = self.peak_buffer.max(self.buf.len());
    }

    /// Writes `buf[..len]` out (unless an error is latched) and drops it
    /// from the buffer.
    fn flush_front(&mut self, len: usize) {
        if len == 0 {
            return;
        }
        if self.error.is_none() {
            match self.out.write_all(&self.buf[..len]) {
                Ok(()) => self.bytes_written += len as u64,
                Err(e) => self.error = Some(e),
            }
        }
        self.buf.drain(..len);
    }
}
