//! The discrete-event queue: a deterministic time-ordered priority queue.

use crate::time::{SimDuration, SimTime};

/// One scheduled entry. Time and insertion sequence are packed into a
/// single `u128` key (`time << 64 | seq`) so heap ordering is one integer
/// compare and the tie-break needs no field of its own: same-timestamp
/// events pop in FIFO order because later insertions get larger sequence
/// numbers in the low bits. Determinism matters: every experiment in the
/// reproduction must be exactly repeatable from its seed.
pub(crate) struct Scheduled<E> {
    pub(crate) key: u128,
    pub(crate) event: E,
}

impl<E> Scheduled<E> {
    #[inline]
    pub(crate) fn at(&self) -> SimTime {
        SimTime((self.key >> 64) as u64)
    }
}

/// A 4-ary min-heap keyed on the packed `u128`. Keys are unique (the
/// sequence number is in the low bits), so the pop order is a total
/// order and independent of heap shape — swapping the container cannot
/// change simulation behavior. Compared to `std::collections::BinaryHeap`
/// this halves the tree depth, which matters because sift-down cache
/// misses dominate the event loop at cluster scale.
pub(crate) struct MinHeap4<E> {
    v: Vec<Scheduled<E>>,
}

impl<E> MinHeap4<E> {
    pub(crate) const fn new() -> Self {
        MinHeap4 { v: Vec::new() }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.v.len()
    }

    #[inline]
    pub(crate) fn peek(&self) -> Option<&Scheduled<E>> {
        self.v.first()
    }

    pub(crate) fn push(&mut self, s: Scheduled<E>) {
        self.v.push(s);
        let mut i = self.v.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.v[parent].key <= self.v[i].key {
                break;
            }
            self.v.swap(i, parent);
            i = parent;
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.v.is_empty() {
            return None;
        }
        let out = self.v.swap_remove(0);
        let n = self.v.len();
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            let end = (first + 4).min(n);
            for c in first + 1..end {
                if self.v[c].key < self.v[min].key {
                    min = c;
                }
            }
            if self.v[i].key <= self.v[min].key {
                break;
            }
            self.v.swap(i, min);
            i = min;
        }
        Some(out)
    }
}

/// The simulation clock plus pending-event queue.
///
/// `EventQueue` is deliberately minimal: domains (the cluster, the
/// scheduler) define their own event enums and drive a loop of
/// [`EventQueue::pop`] calls, handling each event and scheduling follow-ups.
///
/// ```
/// use swift_sim::{EventQueue, SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_in(SimDuration::from_secs(2), "second");
/// q.schedule_in(SimDuration::from_secs(1), "first");
/// assert_eq!(q.pop(), Some("first"));
/// assert_eq!(q.now(), SimTime::from_secs(1));
/// assert_eq!(q.pop(), Some("second"));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: MinHeap4<E>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

// Manual impl so `E: Debug` is not required; pending events are summarised
// by count rather than dumped.
impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: MinHeap4::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// The current simulation time: the timestamp of the last popped event
    /// (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Number of events still pending (alias of [`EventQueue::pending`],
    /// for call sites that expect collection naming).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.len() == 0
    }

    /// Schedules `event` at absolute time `at`. Scheduling in the past
    /// (before [`EventQueue::now`]) is a logic error and panics in debug
    /// builds; in release builds the event fires "now" to keep the clock
    /// monotonic.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        self.heap.push(Scheduled {
            key: (u128::from(at.0) << 64) | u128::from(self.seq),
            event,
        });
        self.seq += 1;
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Schedules `event` at the current time (after all other events already
    /// queued for this instant, preserving FIFO order).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule(self.now, event);
    }

    /// Pops the earliest pending event and advances the clock to its
    /// timestamp. Returns `None` when the simulation has quiesced.
    pub fn pop(&mut self) -> Option<E> {
        let s = self.heap.pop()?;
        self.now = s.at();
        self.processed += 1;
        Some(s.event)
    }

    /// Drains every event scheduled for the earliest pending timestamp
    /// into `out` (in FIFO order), advancing the clock once. Returns the
    /// number of events drained (0 when the queue is empty).
    ///
    /// Events scheduled *while the batch is handled* — even at the same
    /// timestamp — are not part of the batch: they carry later sequence
    /// numbers, so popping them on the next call preserves the exact
    /// one-at-a-time event order.
    pub fn pop_batch_at_now(&mut self, out: &mut Vec<E>) -> usize {
        let Some(first) = self.heap.pop() else {
            return 0;
        };
        let t = first.at();
        self.now = t;
        self.processed += 1;
        out.push(first.event);
        let mut n = 1;
        while self.heap.peek().is_some_and(|s| s.at() == t) {
            let s = self.heap.pop().expect("peeked entry exists");
            self.processed += 1;
            out.push(s.event);
            n += 1;
        }
        n
    }

    /// Timestamp of the next pending event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(Scheduled::at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 5);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(3), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(5));
        assert_eq!(q.pop(), None);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), "a");
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
        // schedule_now lands at the current clock
        q.schedule_now("b");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule_in(SimDuration::from_secs(5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(15)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    /// The release contract: a past event fires at `now`, after the
    /// events already queued there, and the clock never goes backwards.
    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_fires_now_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "first");
        q.pop();
        q.schedule_now("queued");
        q.schedule(SimTime::from_secs(1), "past");
        assert_eq!(q.pop(), Some("queued"));
        assert_eq!(q.pop(), Some("past"));
        assert_eq!(q.now(), SimTime::from_secs(10));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn batch_drains_exactly_one_timestamp_fifo() {
        let mut q = EventQueue::new();
        // Mixed-timestamp load, interleaved insertion order.
        q.schedule(SimTime::from_secs(2), 20);
        q.schedule(SimTime::from_secs(1), 10);
        q.schedule(SimTime::from_secs(2), 21);
        q.schedule(SimTime::from_secs(1), 11);
        q.schedule(SimTime::from_secs(1), 12);

        let mut out = Vec::new();
        assert_eq!(q.pop_batch_at_now(&mut out), 3);
        assert_eq!(out, vec![10, 11, 12], "FIFO within the batch");
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert_eq!(q.len(), 2);

        out.clear();
        assert_eq!(q.pop_batch_at_now(&mut out), 2);
        assert_eq!(out, vec![20, 21]);
        assert_eq!(q.now(), SimTime::from_secs(2));

        out.clear();
        assert_eq!(q.pop_batch_at_now(&mut out), 0);
        assert!(out.is_empty());
        assert_eq!(q.processed(), 5);
    }

    #[test]
    fn batch_excludes_events_scheduled_during_handling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(1), "b");
        let mut out = Vec::new();
        q.pop_batch_at_now(&mut out);
        assert_eq!(out, vec!["a", "b"]);
        // A handler scheduling at the current instant lands in the *next*
        // batch, exactly as it would pop after the pending ones.
        q.schedule_now("c");
        q.schedule(SimTime::from_secs(1), "d");
        out.clear();
        assert_eq!(q.pop_batch_at_now(&mut out), 2);
        assert_eq!(out, vec!["c", "d"]);
        assert_eq!(q.now(), SimTime::from_secs(1));
    }

    #[test]
    fn batch_interleaves_with_single_pop_identically() {
        // The batched and unbatched drains of the same schedule must agree.
        let schedule = |q: &mut EventQueue<u32>| {
            for i in 0..50u32 {
                q.schedule(SimTime::from_millis(u64::from(i % 7)), i);
            }
        };
        let mut a = EventQueue::new();
        schedule(&mut a);
        let mut one_at_a_time = Vec::new();
        while let Some(e) = a.pop() {
            one_at_a_time.push(e);
        }

        let mut b = EventQueue::new();
        schedule(&mut b);
        let mut batched = Vec::new();
        while b.pop_batch_at_now(&mut batched) > 0 {}
        assert_eq!(one_at_a_time, batched);
    }
}
