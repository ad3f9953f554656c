//! The discrete-event queue: a monotone radix heap keyed on time.
//!
//! Simulated time never goes backwards: every event is scheduled at or
//! after the instant last popped. A radix heap (Ahuja, Mehlhorn, Orlin and
//! Tarjan, "Faster algorithms for the shortest path problem", JACM 1990)
//! is built on exactly that. The last popped instant, `now`, is the
//! heap's floor. An event at `now` waits in a FIFO deque; an event at
//! `t > now` waits in bucket `b`, the highest bit where `t` and `now`
//! differ. A pop drains the deque. When the deque is empty the lowest
//! non-empty bucket *spills*: its earliest time becomes `now`, its events
//! at that time move to the deque, and the rest fall into lower buckets,
//! because they now share more high bits with the floor. Buckets above
//! the spilled one keep their index, since the floor moved only below
//! their bit. An event moves down at most 64 times, and in practice a few.
//!
//! The pop order is exactly `(time, seq)`, `seq` being the order of the
//! `schedule` calls, without storing `seq`: the deque and every bucket
//! hold their events in `schedule` order. A `schedule` appends the newest
//! event. A spill runs only when the deque and every bucket below the
//! spilled one are empty, and it moves the spilled events, in their order,
//! into those empty containers. So same-time events pop FIFO, and no
//! report digest depends on the container.
//!
//! The buckets are keyed on time alone. Keying them on a packed
//! `time << 64 | seq` would spread every same-instant batch over the low
//! buckets by its `seq` bits and re-sort it on every spill.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// The simulation clock plus its pending events, popped in `(time,
/// schedule order)`. Domains (the scheduler, the service loop) define
/// their own event enums and drive a loop of [`ShardedEventQueue::pop`]
/// or [`ShardedEventQueue::pop_batch_at_now`] calls, handling each event
/// and scheduling follow-ups.
///
/// The `lane` and `window` parameters are ignored. They stay only
/// because the benchmark calls `new(1, window)` and `schedule(0, ..)`.
///
/// ```
/// use swift_sim::{ShardedEventQueue, SimDuration, SimTime};
///
/// let mut q: ShardedEventQueue<&str> = ShardedEventQueue::new(1, SimDuration::ZERO);
/// q.schedule(0, SimTime::from_secs(2), "second");
/// q.schedule(0, SimTime::from_secs(1), "first");
/// assert_eq!(q.pop(), Some("first"));
/// assert_eq!(q.now(), SimTime::from_secs(1));
/// assert_eq!(q.pop(), Some("second"));
/// assert_eq!(q.pop(), None);
/// ```
pub struct ShardedEventQueue<E> {
    /// The events at `now`, in schedule order.
    current: VecDeque<E>,
    /// `buckets[b]`: the events whose time first differs from `now` at bit
    /// `b`, with that time, in schedule order. A spilled bucket keeps its
    /// buffer for the next fill.
    buckets: [Vec<(u64, E)>; 64],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
    now: SimTime,
    processed: u64,
}

// Manual impl so `E: Debug` is not required; pending events are summarised
// by count rather than dumped.
impl<E> std::fmt::Debug for ShardedEventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEventQueue")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("processed", &self.processed)
            .finish()
    }
}

impl<E> ShardedEventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`]. Both
    /// parameters are ignored (see the type's docs).
    pub fn new(_lanes: u32, _window: SimDuration) -> Self {
        ShardedEventQueue {
            current: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            now: SimTime::ZERO,
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
        self.current.len() + self.buckets.iter().map(Vec::len).sum::<usize>()
    }

    /// Rewinds a drained queue to [`SimTime::ZERO`] for a new run:
    /// [`ShardedEventQueue::processed`] starts again at 0, and the deque
    /// and the 64 bucket buffers keep their capacity. A run reusing the
    /// queue pops exactly what a fresh queue would.
    ///
    /// # Panics
    ///
    /// If any event is still pending: rewinding would put it in the past.
    pub fn rewind(&mut self) {
        assert!(
            self.current.is_empty() && self.occupied == 0,
            "rewinding a queue with {} pending events",
            self.pending()
        );
        self.now = SimTime::ZERO;
        self.processed = 0;
    }

    /// Schedules `event` at absolute time `at`; `lane` is ignored.
    /// Scheduling into the past (before [`ShardedEventQueue::now`]) is a
    /// logic error and panics in debug builds; in release builds the event
    /// fires "now", after the events already queued there, so the clock
    /// stays monotonic.
    pub fn schedule(&mut self, _lane: u32, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        if at <= self.now {
            self.current.push_back(event);
        } else {
            self.push_bucket(at.0, event);
        }
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, lane: u32, delay: SimDuration, event: E) {
        self.schedule(lane, self.now + delay, event);
    }

    /// Schedules `event` at the current time, after all events already
    /// queued for this instant.
    pub fn schedule_now(&mut self, lane: u32, event: E) {
        self.schedule(lane, self.now, event);
    }

    /// Files an event at `t > now` under the highest bit where they differ.
    #[inline]
    fn push_bucket(&mut self, t: u64, event: E) {
        let b = 63 - (t ^ self.now.0).leading_zeros() as usize;
        self.buckets[b].push((t, event));
        self.occupied |= 1 << b;
    }

    /// With the deque empty, advances the clock to the earliest pending
    /// time and moves that instant's events into the deque. Returns
    /// `false` when nothing is pending.
    fn spill(&mut self) -> bool {
        debug_assert!(self.current.is_empty(), "spill with events at now");
        if self.occupied == 0 {
            return false;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        let floor = bucket
            .iter()
            .map(|&(t, _)| t)
            .min()
            .expect("an occupied bucket is non-empty");
        self.now = SimTime(floor);
        // Every other event here now first differs from the floor below
        // bit `b`, so it lands in a lower, empty bucket.
        for (t, event) in bucket.drain(..) {
            if t == floor {
                self.current.push_back(event);
            } else {
                self.push_bucket(t, event);
            }
        }
        self.buckets[b] = bucket;
        true
    }

    /// Pops the earliest pending event and advances the clock to its
    /// timestamp. Returns `None` when the simulation has quiesced.
    pub fn pop(&mut self) -> Option<E> {
        if self.current.is_empty() && !self.spill() {
            return None;
        }
        self.processed += 1;
        self.current.pop_front()
    }

    /// Drains every event scheduled for the earliest pending timestamp
    /// into `out` (in schedule order), advancing the clock once. Returns
    /// the number of events drained (0 when the queue is empty).
    ///
    /// Events scheduled *while the batch is handled*, even at the same
    /// timestamp, are not part of it: the next call drains them, which is
    /// exactly where one-at-a-time pops would reach them.
    pub fn pop_batch_at_now(&mut self, out: &mut Vec<E>) -> usize {
        if self.current.is_empty() && !self.spill() {
            return 0;
        }
        let n = self.current.len();
        out.extend(self.current.drain(..));
        self.processed += n as u64;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue<E>() -> ShardedEventQueue<E> {
        ShardedEventQueue::new(1, SimDuration::ZERO)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = queue();
        for t in [5, 1, 3, u64::MAX, 0] {
            q.schedule(0, SimTime(t), t);
        }
        assert_eq!(q.pending(), 5);
        for t in [0, 1, 3, 5, u64::MAX] {
            assert_eq!(q.pop(), Some(t));
            assert_eq!(q.now(), SimTime(t));
        }
        assert_eq!(q.pop(), None);
        assert_eq!((q.processed(), q.pending()), (5, 0));
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = queue();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(0, t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    /// Events for one instant scheduled from different floors sit in one
    /// bucket and still pop in schedule order after it spills.
    #[test]
    fn same_time_is_fifo_across_spills() {
        let mut q = queue();
        q.schedule(0, SimTime(8), "eight-a");
        q.schedule(0, SimTime(5), "five");
        assert_eq!(q.pop(), Some("five"));
        q.schedule(0, SimTime(8), "eight-b");
        q.schedule_in(0, SimDuration(2), "seven");
        q.schedule_now(0, "five-again");
        assert_eq!(q.pop(), Some("five-again"));
        assert_eq!(q.pop(), Some("seven"));
        assert_eq!(q.pop(), Some("eight-a"));
        assert_eq!(q.pop(), Some("eight-b"));
        assert_eq!(q.now(), SimTime(8));
    }

    #[test]
    fn batch_drains_exactly_one_timestamp_fifo() {
        let mut q = queue();
        q.schedule(0, SimTime::from_secs(2), 20);
        q.schedule(0, SimTime::from_secs(1), 10);
        q.schedule(0, SimTime::from_secs(2), 21);
        q.schedule(0, SimTime::from_secs(1), 11);
        q.schedule(0, SimTime::from_secs(1), 12);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_at_now(&mut out), 3);
        assert_eq!(out, [10, 11, 12]);
        assert_eq!((q.now(), q.pending()), (SimTime::from_secs(1), 2));
        out.clear();
        assert_eq!(q.pop_batch_at_now(&mut out), 2);
        assert_eq!(out, [20, 21]);
        out.clear();
        assert_eq!(q.pop_batch_at_now(&mut out), 0);
        assert!(out.is_empty());
        assert_eq!(q.processed(), 5);
    }

    #[test]
    fn batch_excludes_events_scheduled_during_handling() {
        let mut q = queue();
        q.schedule(0, SimTime::from_secs(1), "a");
        q.schedule(0, SimTime::from_secs(1), "b");
        q.schedule(0, SimTime::from_secs(2), "later");
        let mut out = Vec::new();
        q.pop_batch_at_now(&mut out);
        assert_eq!(out, ["a", "b"]);
        // A handler scheduling at the current instant lands in the *next*
        // batch, ahead of anything later.
        q.schedule_now(0, "c");
        q.schedule(0, SimTime::from_secs(1), "d");
        out.clear();
        assert_eq!(q.pop_batch_at_now(&mut out), 2);
        assert_eq!(out, ["c", "d"]);
        assert_eq!(q.now(), SimTime::from_secs(1));
    }

    /// A drained queue rewound to zero pops a new stream in `(time, seq)`
    /// order, its count restarting at 0, as a fresh queue would.
    #[test]
    fn rewind_starts_a_new_stream_in_order() {
        let mut q = queue();
        for t in [40, 7, 1 << 40, 7] {
            q.schedule(0, SimTime(t), "old");
        }
        while q.pop().is_some() {}
        assert_eq!((q.now(), q.processed()), (SimTime(1 << 40), 4));
        q.rewind();
        assert_eq!((q.now(), q.processed(), q.pending()), (SimTime::ZERO, 0, 0));
        // Times below the old clock are in the future again.
        let stream = [(9, "c"), (3, "a"), (9, "d"), (0, "now"), (3, "b")];
        let mut fresh = queue();
        for (t, e) in stream {
            q.schedule(0, SimTime(t), e);
            fresh.schedule(0, SimTime(t), e);
        }
        for want in ["now", "a", "b", "c", "d"] {
            assert_eq!(q.pop(), Some(want));
            assert_eq!(fresh.pop(), Some(want));
            assert_eq!(q.now(), fresh.now());
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.processed(), 5);
    }

    #[test]
    #[should_panic(expected = "rewinding a queue with 1 pending events")]
    fn rewinding_a_non_empty_queue_panics() {
        let mut q = queue();
        q.schedule(0, SimTime(3), ());
        q.schedule(0, SimTime(5), ());
        q.pop();
        q.rewind();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = queue();
        q.schedule(0, SimTime::from_secs(10), ());
        q.pop();
        q.schedule(0, SimTime::from_secs(1), ());
    }

    /// The release contract: a past event fires at `now`, after the
    /// events already queued there, and the clock never goes backwards.
    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_fires_now_in_release() {
        let mut q = queue();
        q.schedule(0, SimTime::from_secs(10), "first");
        q.schedule(0, SimTime::from_secs(11), "later");
        q.pop();
        q.schedule_now(0, "queued");
        q.schedule(0, SimTime::from_secs(1), "past");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_at_now(&mut out), 2);
        assert_eq!(out, ["queued", "past"]);
        assert_eq!(q.now(), SimTime::from_secs(10));
        assert_eq!(q.pop(), Some("later"));
    }
}
