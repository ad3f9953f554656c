//! Trace sinks: where the [`crate::TraceRecorder`] delivers its event
//! stream.
//!
//! [`MemorySink`] buffers the whole stream (the default; feeds
//! [`crate::TraceHandle::finish`]). [`StreamSink`] renders each event to
//! the stable text format as it arrives and writes it through an
//! [`io::Write`] in chunks, so a long run's trace never has to fit in
//! memory: recorder-side buffering is bounded by the chunk size. Both
//! sinks observe the identical event stream, and the streamed bytes equal
//! [`crate::Trace::render_text`] byte for byte: the sink writes its
//! header, each line and its footer through the same byte writer
//! ([`TraceEvent::write_line`] and the crate's header and footer
//! writers), straight into its chunk buffer. The footer carries the event
//! count precisely so a streaming writer never needs to seek back.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

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
/// is rendered in place before the sink knows whether it overflows the
/// chunk, so the buffer briefly holds the chunk plus that line.
const LINE_SLACK_BYTES: usize = 1024;

/// The chunked streaming text sink.
///
/// Events are rendered straight into a chunk buffer that is flushed to
/// the writer *before* an append would overflow the chunk size: a line
/// that lands past the chunk sends the lines before it out first and
/// becomes the start of the next chunk. So peak memory is
/// `max(chunk, longest line)` regardless of run length. I/O errors are
/// latched on first occurrence (subsequent writes are skipped) and
/// surfaced by [`StreamSink::finish`].
#[derive(Debug)]
pub struct StreamSink<W: Write + std::fmt::Debug> {
    out: W,
    chunk: usize,
    buf: Vec<u8>,
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
            buf: Vec::with_capacity(chunk + LINE_SLACK_BYTES),
            events: 0,
            bytes_written: 0,
            peak_buffer: 0,
            error: None,
        };
        text::write_header(&mut sink.buf, scenario, seed);
        sink.appended(0);
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
        let start = self.buf.len();
        text::write_footer(&mut self.buf, self.events);
        self.appended(start);
        self.flush_front(self.buf.len());
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

impl<W: Write + std::fmt::Debug> TraceSink for StreamSink<W> {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.events += 1;
        let start = self.buf.len();
        event.write_line(&mut self.buf);
        self.appended(start);
    }

    fn events_recorded(&self) -> u64 {
        self.events
    }
}
