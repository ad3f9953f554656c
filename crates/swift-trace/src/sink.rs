//! Trace sinks: where the [`crate::TraceRecorder`] delivers its event
//! stream.
//!
//! [`MemorySink`] buffers the whole stream (the default; feeds
//! [`crate::TraceHandle::finish`]). [`StreamSink`] renders each event to
//! the stable text format as it arrives and writes it through an
//! [`io::Write`] in chunks, so a long run's trace never has to fit in
//! memory: recorder-side buffering is bounded by the chunk size. Both
//! sinks observe the identical event stream, and the streamed bytes equal
//! [`crate::Trace::render_text`] byte for byte — the footer carries the
//! event count precisely so a streaming writer never needs to seek back.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use crate::event::TraceEvent;
use crate::TEXT_FORMAT_VERSION;

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

/// The chunked streaming text sink.
///
/// Events are rendered into a reused line buffer and appended to a chunk
/// buffer that is flushed to the writer *before* an append would overflow
/// the chunk size — so peak memory is `max(chunk, longest line)`
/// regardless of run length. I/O errors are latched on first occurrence
/// (subsequent writes are skipped) and surfaced by [`StreamSink::finish`].
#[derive(Debug)]
pub struct StreamSink<W: Write + std::fmt::Debug> {
    out: W,
    chunk: usize,
    buf: Vec<u8>,
    line: String,
    events: u64,
    bytes_written: u64,
    peak_buffer: usize,
    error: Option<io::Error>,
}

impl StreamSink<File> {
    /// Creates `path` and streams the trace into it with the default
    /// chunk size.
    pub fn create<P: AsRef<Path>>(path: P, scenario: &str, seed: u64) -> io::Result<Self> {
        Ok(Self::new(File::create(path)?, scenario, seed))
    }
}

impl<W: Write + std::fmt::Debug> StreamSink<W> {
    /// Wraps `out` with the default chunk size, staging the text header
    /// (nothing reaches `out` until the first chunk flush).
    pub fn new(out: W, scenario: &str, seed: u64) -> Self {
        Self::with_chunk(out, scenario, seed, DEFAULT_CHUNK_BYTES)
    }

    /// [`StreamSink::new`] with an explicit chunk size (floored at 64
    /// bytes). Small chunks are useful in tests to exercise flushing.
    pub fn with_chunk(out: W, scenario: &str, seed: u64, chunk_bytes: usize) -> Self {
        let chunk = chunk_bytes.max(64);
        let mut sink = StreamSink {
            out,
            chunk,
            buf: Vec::with_capacity(chunk),
            line: String::with_capacity(192),
            events: 0,
            bytes_written: 0,
            peak_buffer: 0,
            error: None,
        };
        let _ = write!(
            sink.line,
            "# swift-trace v{TEXT_FORMAT_VERSION}\n# scenario={scenario} seed={seed}\n"
        );
        sink.append_line();
        sink
    }

    /// High-water mark of the chunk buffer so far.
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buffer
    }

    /// Writes the `# events=N` footer, flushes everything, and returns
    /// the stream statistics — or the first I/O error hit along the way.
    pub fn finish(self) -> io::Result<StreamStats> {
        self.finish_into_inner().map(|(_, stats)| stats)
    }

    /// [`StreamSink::finish`], but hands the inner writer back too (used
    /// by tests that stream into a `Vec<u8>` and compare the bytes).
    pub fn finish_into_inner(mut self) -> io::Result<(W, StreamStats)> {
        self.line.clear();
        let _ = writeln!(self.line, "# events={}", self.events);
        self.append_line();
        self.flush_chunk();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        let stats = StreamStats {
            events: self.events,
            bytes_written: self.bytes_written,
            peak_buffer_bytes: self.peak_buffer,
        };
        Ok((self.out, stats))
    }

    fn append_line(&mut self) {
        if !self.buf.is_empty() && self.buf.len() + self.line.len() > self.chunk {
            self.flush_chunk();
        }
        self.buf.extend_from_slice(self.line.as_bytes());
        self.peak_buffer = self.peak_buffer.max(self.buf.len());
    }

    fn flush_chunk(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.error.is_none() {
            match self.out.write_all(&self.buf) {
                Ok(()) => self.bytes_written += self.buf.len() as u64,
                Err(e) => self.error = Some(e),
            }
        }
        self.buf.clear();
    }
}

impl<W: Write + std::fmt::Debug> TraceSink for StreamSink<W> {
    fn record(&mut self, event: TraceEvent) {
        self.events += 1;
        self.line.clear();
        event.render_line_into(&mut self.line);
        self.line.push('\n');
        self.append_line();
    }

    fn events_recorded(&self) -> u64 {
        self.events
    }
}
