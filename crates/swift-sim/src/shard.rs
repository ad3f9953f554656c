//! Window-barrier discrete-event queue.
//!
//! [`ShardedEventQueue`] holds pending events in K *lanes* while popping
//! them in exactly the same total order as the single [`EventQueue`]:
//! `(time, seq)` on a packed `u128` key, where `seq` is a **global**
//! insertion counter shared by every lane. The lane id only says where an
//! event is stored; it is *not* a tie-breaker. That choice is what makes
//! the merged stream byte-identical to a single [`EventQueue`] for the
//! same seed at any K: per-lane sequence numbers would reorder
//! same-timestamp events stored in different lanes.
//!
//! The simulator runs one lane (K = 1). K > 1 survives only so the unit
//! tests below keep the merge honest until the benchmark's own call
//! (`new(1, ..)`, `schedule(0, ..)`) points at a one-lane type.
//!
//! Time advances through fixed-width *windows* separated by deterministic
//! barriers. Each lane keeps four containers:
//!
//! * `run` — the current window's events, bulk-sorted once at the barrier
//!   and popped off the tail (stored descending, so the minimum is `last()`);
//! * `late` — a small 4-ary heap for events scheduled *during* the window
//!   with a timestamp inside it (`schedule_now`-style follow-ups);
//! * `next` — an unsorted staging bucket for events one window ahead;
//! * `far` — a 4-ary heap for everything further out.
//!
//! A pop scans the K lane heads (`run` tail vs `late` head) and takes the
//! global minimum key. When every lane is exhausted the queue reaches a
//! *window barrier*: it finds the earliest pending timestamp `t` across all
//! `next`/`far` containers, advances the horizon to the end of `t`'s
//! window, and refills every lane's `run` (drain `far` below the horizon,
//! absorb all of `next`, one `sort_unstable`).
//!
//! Replacing per-event heap sifts with bulk sorts (plus smaller per-lane
//! heaps) is where the win over the plain [`EventQueue`] comes from.

use crate::queue::{MinHeap4, Scheduled};
use crate::time::{SimDuration, SimTime};

struct Lane<E> {
    /// Current window, sorted descending by key; minimum at the tail.
    run: Vec<Scheduled<E>>,
    /// Events scheduled mid-window with `at` inside the window.
    late: MinHeap4<E>,
    /// Unsorted staging for events one window ahead of the horizon.
    next: Vec<Scheduled<E>>,
    /// Minimum key in `next` (`u128::MAX` when empty), maintained on push.
    next_min: u128,
    /// Events at least one full window beyond the horizon at insert time.
    far: MinHeap4<E>,
}

impl<E> Lane<E> {
    const fn new() -> Self {
        Lane {
            run: Vec::new(),
            late: MinHeap4::new(),
            next: Vec::new(),
            next_min: u128::MAX,
            far: MinHeap4::new(),
        }
    }

    /// Key of this lane's earliest ready (current-window) event.
    #[inline]
    fn ready_key(&self) -> u128 {
        let run = self.run.last().map_or(u128::MAX, |s| s.key);
        let late = self.late.peek().map_or(u128::MAX, |s| s.key);
        run.min(late)
    }

    #[inline]
    fn pending(&self) -> usize {
        self.run.len() + self.late.len() + self.next.len() + self.far.len()
    }

    /// Pops this lane's earliest ready event. Caller guarantees one exists.
    #[inline]
    fn take(&mut self) -> Scheduled<E> {
        let run = self.run.last().map_or(u128::MAX, |s| s.key);
        let late = self.late.peek().map_or(u128::MAX, |s| s.key);
        let s = if run <= late {
            self.run.pop()
        } else {
            self.late.pop()
        };
        s.expect("ready lane has an event")
    }

    /// Rebuilds `run` for the window ending at `horizon` (µs, exclusive):
    /// drains `far` below it, absorbs all of `next`, and bulk-sorts. Called
    /// only at barriers, when `run` and `late` are exhausted.
    fn refill(&mut self, horizon: u128) {
        debug_assert!(self.run.is_empty() && self.late.len() == 0);
        while self
            .far
            .peek()
            .is_some_and(|s| u128::from((s.key >> 64) as u64) < horizon)
        {
            self.run.push(self.far.pop().expect("peeked entry exists"));
        }
        debug_assert!(
            self.next
                .iter()
                .all(|s| u128::from((s.key >> 64) as u64) < horizon),
            "staging bucket spilled past the new horizon"
        );
        self.run.append(&mut self.next);
        self.next_min = u128::MAX;
        // Descending, so pops come off the tail. Keys are unique (global
        // sequence in the low bits), so the order is total and the sort
        // being unstable cannot matter.
        self.run.sort_unstable_by_key(|s| std::cmp::Reverse(s.key));
    }
}

/// A K-lane event queue that merges to the exact `(time, seq)` order of
/// [`EventQueue`] — see the module docs for the window-barrier design.
///
/// ```
/// use swift_sim::{ShardedEventQueue, SimDuration, SimTime};
///
/// let mut q: ShardedEventQueue<&str> = ShardedEventQueue::new(4, SimDuration::from_millis(10));
/// q.schedule(3, SimTime::from_secs(2), "second");
/// q.schedule(1, SimTime::from_secs(1), "first");
/// assert_eq!(q.pop(), Some("first"));
/// assert_eq!(q.now(), SimTime::from_secs(1));
/// assert_eq!(q.pop(), Some("second"));
/// assert_eq!(q.pop(), None);
/// ```
pub struct ShardedEventQueue<E> {
    lanes: Vec<Lane<E>>,
    /// Window width in µs (≥ 1).
    window: u64,
    /// Exclusive upper bound of the replay-ready region, in µs; always a
    /// multiple of `window`. Kept as `u128` so the final window at the top
    /// of the u64 time range needs no saturation special-case.
    horizon: u128,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> std::fmt::Debug for ShardedEventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEventQueue")
            .field("lanes", &self.lanes.len())
            .field("now", &self.now)
            .field(
                "pending",
                &self.lanes.iter().map(Lane::pending).sum::<usize>(),
            )
            .field("processed", &self.processed)
            .field("window_us", &self.window)
            .finish()
    }
}

impl<E> ShardedEventQueue<E> {
    /// Creates an empty queue with `lanes` lanes and the given barrier
    /// window. `lanes` is clamped to at least 1 and `window` to at least
    /// one microsecond.
    pub fn new(lanes: u32, window: SimDuration) -> Self {
        let k = lanes.max(1) as usize;
        ShardedEventQueue {
            lanes: (0..k).map(|_| Lane::new()).collect(),
            window: window.as_micros().max(1),
            horizon: 0,
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

    /// Number of events still pending across all lanes.
    pub fn pending(&self) -> usize {
        self.lanes.iter().map(Lane::pending).sum()
    }

    /// Schedules `event` on `lane` at absolute time `at`. Same contract as
    /// `EventQueue::schedule`: scheduling into the past panics in debug
    /// builds and fires "now" in release builds. A lane id at or beyond K
    /// wraps (debug builds assert it is in range).
    pub fn schedule(&mut self, lane: u32, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        debug_assert!(
            (lane as usize) < self.lanes.len(),
            "lane {lane} out of range (K = {})",
            self.lanes.len()
        );
        let at = at.max(self.now);
        let key = (u128::from(at.0) << 64) | u128::from(self.seq);
        self.seq += 1;
        let t = u128::from(at.0);
        let k = self.lanes.len();
        let lane = &mut self.lanes[lane as usize % k];
        let entry = Scheduled { key, event };
        if t < self.horizon {
            lane.late.push(entry);
        } else if t < self.horizon + u128::from(self.window) {
            lane.next_min = lane.next_min.min(key);
            lane.next.push(entry);
        } else {
            lane.far.push(entry);
        }
    }

    /// Schedules `event` on `lane` after `delay` from the current time.
    pub fn schedule_in(&mut self, lane: u32, delay: SimDuration, event: E) {
        self.schedule(lane, self.now + delay, event);
    }

    /// Schedules `event` on `lane` at the current time (after all events
    /// already queued for this instant, preserving FIFO order).
    pub fn schedule_now(&mut self, lane: u32, event: E) {
        self.schedule(lane, self.now, event);
    }

    /// Lane index holding the globally earliest ready event, if any lane
    /// has one inside the current window.
    #[inline]
    fn min_ready(&self) -> Option<(u128, usize)> {
        let mut best = u128::MAX;
        let mut best_lane = usize::MAX;
        for (i, lane) in self.lanes.iter().enumerate() {
            let k = lane.ready_key();
            if k < best {
                best = k;
                best_lane = i;
            }
        }
        (best != u128::MAX).then_some((best, best_lane))
    }

    /// Pops the ready event from `lane`, advancing the clock and count.
    #[inline]
    fn take(&mut self, li: usize) -> E {
        let s = self.lanes[li].take();
        self.now = s.at();
        self.processed += 1;
        s.event
    }

    /// Crosses a window barrier: advances the horizon to cover the earliest
    /// pending event and refills every lane's run. Returns `false` when no
    /// events are pending anywhere (quiesced).
    fn advance_window(&mut self) -> bool {
        let mut min_key = u128::MAX;
        for lane in &self.lanes {
            let far = lane.far.peek().map_or(u128::MAX, |s| s.key);
            min_key = min_key.min(lane.next_min).min(far);
        }
        if min_key == u128::MAX {
            return false;
        }
        let min_at = (min_key >> 64) as u64;
        let horizon = (u128::from(min_at) / u128::from(self.window) + 1) * u128::from(self.window);
        debug_assert!(horizon > self.horizon);
        self.horizon = horizon;
        for lane in &mut self.lanes {
            lane.refill(horizon);
        }
        true
    }

    /// Pops the earliest pending event and advances the clock to its
    /// timestamp. Returns `None` when the simulation has quiesced.
    pub fn pop(&mut self) -> Option<E> {
        loop {
            if let Some((_, li)) = self.min_ready() {
                return Some(self.take(li));
            }
            if !self.advance_window() {
                return None;
            }
        }
    }

    /// Drains every event scheduled for the earliest pending timestamp into
    /// `out` (in global FIFO order), advancing the clock once. Returns the
    /// number of events drained (0 when the queue is empty). Same contract
    /// as `EventQueue::pop_batch_at_now`: events scheduled while the batch
    /// is handled are not part of it.
    pub fn pop_batch_at_now(&mut self, out: &mut Vec<E>) -> usize {
        let Some(first) = self.pop() else {
            return 0;
        };
        let t = self.now;
        out.push(first);
        let mut n = 1;
        // Same-timestamp events all live inside the current window, so no
        // barrier can intervene mid-batch.
        while let Some((key, li)) = self.min_ready() {
            if (key >> 64) as u64 != t.0 {
                break;
            }
            out.push(self.take(li));
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventQueue;

    /// Deterministic xorshift for schedule fuzzing (no external RNG).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Pops both queues to exhaustion, rescheduling follow-ups from a
    /// deterministic script, and asserts identical event order, clocks and
    /// processed counts.
    fn assert_equivalent(seed: u64, shards: u32, window_ms: u64) {
        let mut rng = Rng(seed | 1);
        let n = 400;
        let mut plan: Vec<(u64, u32)> = Vec::new(); // (time µs, payload)
        for i in 0..n {
            plan.push((rng.next() % 2_000_000, i));
        }

        let mut reference = EventQueue::new();
        for &(t, v) in &plan {
            reference.schedule(SimTime(t), v);
        }
        let mut sharded = ShardedEventQueue::new(shards, SimDuration::from_millis(window_ms));
        for &(t, v) in &plan {
            sharded.schedule(v % shards.max(1), SimTime(t), v);
        }

        let mut follow = Rng(seed ^ 0x9e37_79b9);
        let mut follow2 = Rng(seed ^ 0x9e37_79b9);
        let mut next_id = n;
        let mut next_id2 = n;
        loop {
            let a = reference.pop();
            let b = sharded.pop();
            assert_eq!(a, b, "divergent pop (seed {seed}, K {shards})");
            let Some(v) = a else { break };
            assert_eq!(reference.now(), sharded.now());
            // Every third event schedules one or two follow-ups: one nearby
            // (often same-time), one far out — exercising late/next/far.
            if v % 3 == 0 && next_id < n + 600 {
                let near = follow.next() % 1_500; // 0..1.5ms ahead
                reference.schedule_in(SimDuration(near), next_id);
                let far = 500_000 + follow.next() % 3_000_000;
                reference.schedule_in(SimDuration(far), next_id + 1);
                next_id += 2;
            }
            if v % 3 == 0 && next_id2 < n + 600 {
                let near = follow2.next() % 1_500;
                sharded.schedule_in(next_id2 % shards.max(1), SimDuration(near), next_id2);
                let far = 500_000 + follow2.next() % 3_000_000;
                sharded.schedule_in(
                    (next_id2 + 1) % shards.max(1),
                    SimDuration(far),
                    next_id2 + 1,
                );
                next_id2 += 2;
            }
        }
        assert_eq!(reference.processed(), sharded.processed());
        assert_eq!(sharded.pending(), 0);
    }

    #[test]
    fn matches_event_queue_across_k() {
        for seed in [1u64, 7, 42] {
            for k in [1u32, 2, 4, 8] {
                assert_equivalent(seed, k, 10);
            }
        }
    }

    #[test]
    fn window_extremes_do_not_change_order() {
        // One-µs windows (a barrier per distinct timestamp) and huge
        // windows (everything in one run) must both merge identically, on
        // one lane as on several.
        for k in [1u32, 4] {
            assert_equivalent(5, k, 1);
            assert_equivalent(5, k, 1_000_000);
        }
    }

    #[test]
    fn same_time_is_fifo_across_shards() {
        let mut q = ShardedEventQueue::new(4, SimDuration::from_millis(5));
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.schedule(i % 4, t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some(i), "global seq must order same-time pops");
        }
    }

    #[test]
    fn batch_drains_one_timestamp_across_lanes() {
        let mut q = ShardedEventQueue::new(2, SimDuration::from_millis(1));
        q.schedule(0, SimTime::from_secs(2), 20);
        q.schedule(1, SimTime::from_secs(1), 10);
        q.schedule(0, SimTime::from_secs(1), 11);
        q.schedule(1, SimTime::from_secs(1), 12);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_at_now(&mut out), 3);
        assert_eq!(out, vec![10, 11, 12]);
        assert_eq!(q.now(), SimTime::from_secs(1));
        out.clear();
        assert_eq!(q.pop_batch_at_now(&mut out), 1);
        assert_eq!(out, vec![20]);
        assert_eq!(q.processed(), 4);
    }

    #[test]
    fn batch_excludes_events_scheduled_during_handling() {
        let mut q = ShardedEventQueue::new(2, SimDuration::from_millis(1));
        q.schedule(0, SimTime::from_secs(1), "a");
        q.schedule(1, SimTime::from_secs(1), "b");
        let mut out = Vec::new();
        q.pop_batch_at_now(&mut out);
        assert_eq!(out, vec!["a", "b"]);
        q.schedule_now(1, "c");
        q.schedule(0, SimTime::from_secs(1), "d");
        out.clear();
        assert_eq!(q.pop_batch_at_now(&mut out), 2);
        assert_eq!(out, vec!["c", "d"]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = ShardedEventQueue::new(2, SimDuration::from_millis(1));
        q.schedule(0, SimTime::from_secs(10), ());
        q.pop();
        q.schedule(1, SimTime::from_secs(1), ());
    }

    /// The release contract: a past event fires at `now`, after the
    /// events already queued there, and the clock never goes backwards.
    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_fires_now_in_release() {
        let mut q = ShardedEventQueue::new(2, SimDuration::from_millis(1));
        q.schedule(0, SimTime::from_secs(10), "first");
        q.pop();
        q.schedule_now(0, "queued");
        q.schedule(1, SimTime::from_secs(1), "past");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_at_now(&mut out), 2);
        assert_eq!(out, ["queued", "past"]);
        assert_eq!(q.now(), SimTime::from_secs(10));
        assert_eq!(q.pop(), None);
    }
}
