//! `swift-metrics`: a deterministic, dependency-free telemetry registry.
//!
//! The registry holds **series** — counters and gauges with stable numeric
//! IDs — and seals them into [`Frame`]s at `SimTime`-window boundaries.
//! Because series IDs, the per-frame series order and every value are pure
//! functions of the simulated run, the frame stream for a given
//! `(scenario, seed)` is **byte-identical across runs** — the same
//! determinism contract the trace stream already has, which is what lets
//! counter tracks live inside golden trace files.
//!
//! Conventions:
//!
//! * a **gauge** series reports its level at the sample instant
//!   (queue depth, live executors, staged bytes);
//! * a **counter** series reports the *delta accumulated since the
//!   previous frame* (events processed, bytes spilled), so window totals
//!   telescope: the sum over all frames equals the end-of-run cumulative
//!   value, integer-exact — the property the `RunReport` cross-check
//!   suite pins;
//! * a [`Histogram`] is a fixed-bucket latency distribution; it is not
//!   windowed (histograms summarize a whole run).
//!
//! The series vocabulary is the static [`SERIES`] table: adding a series
//! means appending a [`SeriesDef`] with a fresh ID. IDs are stable —
//! renumbering them is a trace-format break that bumps
//! `swift_trace::TEXT_FORMAT_VERSION` — because exported counter tracks
//! (`s<id>=<value>` in trace text, `"ph":"C"` rows in the Chrome export)
//! and golden files refer to them.

use swift_sim::SimDuration;

/// Stable numeric identifier of one series (index into [`SERIES`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesId(pub u16);

/// How a series' per-frame value is produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Level at the sample instant.
    Gauge,
    /// Delta accumulated since the previous frame (drained on sample).
    Counter,
}

/// One entry of the static series vocabulary.
#[derive(Clone, Copy, Debug)]
pub struct SeriesDef {
    /// Stable numeric ID (the index of this entry in [`SERIES`]).
    pub id: SeriesId,
    /// Stable dotted name, `<subsystem>.<quantity>`.
    pub name: &'static str,
    /// Gauge or counter semantics.
    pub kind: SeriesKind,
    /// Unit label for display (`events`, `bytes`, `tasks`, ...).
    pub unit: &'static str,
    /// One-line description for docs and `--list`-style output.
    pub help: &'static str,
}

macro_rules! series {
    ($id:expr, $name:expr, $kind:ident, $unit:expr, $help:expr) => {
        SeriesDef {
            id: SeriesId($id),
            name: $name,
            kind: SeriesKind::$kind,
            unit: $unit,
            help: $help,
        }
    };
}

/// Event-queue depth of the simulator core (pending events).
pub const SIM_EVENT_QUEUE_DEPTH: SeriesId = SeriesId(0);
/// Simulator events processed per window.
pub const SIM_EVENTS: SeriesId = SeriesId(1);
/// Gang requests waiting in the scheduler's pending queue.
pub const SCHED_PENDING_REQUESTS: SeriesId = SeriesId(2);
/// Tasks queued across all pending gang requests.
pub const SCHED_PENDING_GANG_TASKS: SeriesId = SeriesId(3);
/// Jobs currently in wave mode.
pub const SCHED_WAVE_JOBS: SeriesId = SeriesId(4);
/// Task attempts started per window.
pub const SCHED_TASKS_STARTED: SeriesId = SeriesId(5);
/// Task attempts finished per window.
pub const SCHED_TASKS_FINISHED: SeriesId = SeriesId(6);
/// Entries in the scheduling-template cache.
pub const SCHED_TEMPLATE_ENTRIES: SeriesId = SeriesId(7);
/// Template-cache hits per window.
pub const SCHED_TEMPLATE_HITS: SeriesId = SeriesId(8);
/// Template-cache misses per window.
pub const SCHED_TEMPLATE_MISSES: SeriesId = SeriesId(9);
/// Bytes staged in Cache Worker memory/disk across the cluster.
pub const SHUFFLE_STORE_BYTES: SeriesId = SeriesId(10);
/// Bytes spilled by Cache Workers per window.
pub const SHUFFLE_SPILL_BYTES: SeriesId = SeriesId(11);
/// Bytes released by Cache Workers per window.
pub const SHUFFLE_EVICT_BYTES: SeriesId = SeriesId(12);
/// Executors on schedulable machines.
pub const CLUSTER_LIVE_EXECUTORS: SeriesId = SeriesId(13);
/// Executors currently running a task.
pub const CLUSTER_BUSY_EXECUTORS: SeriesId = SeriesId(14);
/// Whole-unit gang waits currently open.
pub const CLUSTER_GANG_WAITS_OPEN: SeriesId = SeriesId(15);
/// Jobs waiting in the service admission queue.
pub const SERVICE_QUEUE_DEPTH: SeriesId = SeriesId(16);
/// Jobs admitted by the service front door per window.
pub const SERVICE_JOBS_ADMITTED: SeriesId = SeriesId(17);
/// Jobs rejected with retry-after per window.
pub const SERVICE_JOBS_REJECTED: SeriesId = SeriesId(18);
/// Jobs completed by the service per window.
pub const SERVICE_JOBS_COMPLETED: SeriesId = SeriesId(19);
/// Dispatches that reused a warm session per window.
pub const SERVICE_WARM_HITS: SeriesId = SeriesId(20);
/// Dispatches that paid a cold session registration per window.
pub const SERVICE_COLD_STARTS: SeriesId = SeriesId(21);
/// Executors held by tenant sessions (warm + running).
pub const SERVICE_EXECUTORS_HELD: SeriesId = SeriesId(22);
/// Tenants with at least one queued or running job.
pub const SERVICE_ACTIVE_TENANTS: SeriesId = SeriesId(23);

/// Number of series in the **core vocabulary** — the prefix of [`SERIES`]
/// every registry carries. Frames from [`Registry::new`] list exactly
/// these; the service series above the boundary appear only in
/// registries built with [`Registry::with_service_telemetry`].
pub const CORE_SERIES: usize = 16;

/// The static series vocabulary. Indexed by [`SeriesId`]; order and IDs
/// are stable within a trace format version (exported counter tracks and
/// goldens refer to them). The first [`CORE_SERIES`] entries are the core
/// vocabulary; then the service front door's series, carried only by
/// [`Registry::with_service_telemetry`].
#[rustfmt::skip]
pub const SERIES: [SeriesDef; 24] = [
    series!(0, "sim.event_queue_depth", Gauge, "events", "event-queue depth of the simulator core"),
    series!(1, "sim.events", Counter, "events", "simulator events processed per window"),
    series!(2, "sched.pending_requests", Gauge, "requests", "gang requests waiting in the pending queue"),
    series!(3, "sched.pending_gang_tasks", Gauge, "tasks", "tasks queued across pending gang requests"),
    series!(4, "sched.wave_jobs", Gauge, "jobs", "jobs currently in wave mode"),
    series!(5, "sched.tasks_started", Counter, "tasks", "task attempts started per window"),
    series!(6, "sched.tasks_finished", Counter, "tasks", "task attempts finished per window"),
    series!(7, "sched.template_entries", Gauge, "templates", "entries in the scheduling-template cache"),
    series!(8, "sched.template_hits", Counter, "lookups", "template-cache hits per window"),
    series!(9, "sched.template_misses", Counter, "lookups", "template-cache misses per window"),
    series!(10, "shuffle.store_bytes", Gauge, "bytes", "bytes staged in Cache Worker memory/disk"),
    series!(11, "shuffle.spill_bytes", Counter, "bytes", "bytes spilled by Cache Workers per window"),
    series!(12, "shuffle.evict_bytes", Counter, "bytes", "bytes released by Cache Workers per window"),
    series!(13, "cluster.live_executors", Gauge, "executors", "executors on schedulable machines"),
    series!(14, "cluster.busy_executors", Gauge, "executors", "executors currently running a task"),
    series!(15, "cluster.gang_waits_open", Gauge, "gangs", "whole-unit gang waits currently open"),
    series!(16, "service.queue_depth", Gauge, "jobs", "jobs waiting in the service admission queue"),
    series!(17, "service.jobs_admitted", Counter, "jobs", "jobs admitted by the front door per window"),
    series!(18, "service.jobs_rejected", Counter, "jobs", "jobs rejected with retry-after per window"),
    series!(19, "service.jobs_completed", Counter, "jobs", "jobs completed by the service per window"),
    series!(20, "service.warm_hits", Counter, "dispatches", "dispatches that reused a warm session per window"),
    series!(21, "service.cold_starts", Counter, "dispatches", "dispatches that paid a cold session registration per window"),
    series!(22, "service.executors_held", Gauge, "executors", "executors held by tenant sessions"),
    series!(23, "service.tenants_active", Gauge, "tenants", "tenants with at least one queued or running job"),
];

/// Looks a series definition up by ID. `None` for IDs outside the table
/// (a newer trace read by an older build).
pub fn series_def(id: u16) -> Option<&'static SeriesDef> {
    SERIES.get(id as usize)
}

/// One sealed window: every series' value at (gauges) or over (counters)
/// the window ending at the sample instant. `values` lists **all** series
/// in ascending-ID order, so frames of one run are positionally
/// comparable and render byte-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Window index: `sample_time / window_duration`. Indices may skip
    /// (no sample lands in an empty window) and the final sealing frame
    /// of a run may repeat the last index.
    pub window: u64,
    /// `(series id, value)` for every registered series, ID-ascending.
    pub values: Vec<(u16, u64)>,
}

/// The live registry: current value per series, sealed into [`Frame`]s
/// by [`Registry::sample`]. A registry covers a **prefix** of [`SERIES`]
/// — the core vocabulary by default, the full table (service series
/// included) via [`Registry::with_service_telemetry`]. Writes to series
/// outside the registry's vocabulary are ignored, so feeding code can run
/// unconditionally and the vocabulary choice alone decides frame shape.
#[derive(Debug)]
pub struct Registry {
    /// Current level (gauges) or accumulated-since-last-frame (counters).
    values: Vec<u64>,
    /// Last cumulative total seen per series, for
    /// [`Registry::set_cumulative`]-fed counters.
    prev_cumulative: Vec<u64>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry over the core vocabulary (the first [`CORE_SERIES`]
    /// entries of [`SERIES`]), all values zero.
    pub fn new() -> Self {
        Registry {
            values: vec![0; CORE_SERIES],
            prev_cumulative: vec![0; CORE_SERIES],
        }
    }

    /// A registry over the full [`SERIES`] vocabulary, the service front
    /// door's series included. Used by the `swift-service` sampler, whose
    /// frames carry every block.
    pub fn with_service_telemetry() -> Self {
        Registry {
            values: vec![0; SERIES.len()],
            prev_cumulative: vec![0; SERIES.len()],
        }
    }

    /// Sets a gauge's level. No-op outside the registry's vocabulary.
    #[inline]
    pub fn set(&mut self, id: SeriesId, value: u64) {
        if let Some(v) = self.values.get_mut(id.0 as usize) {
            *v = value;
        }
    }

    /// Adds to a counter's in-window delta. No-op outside the registry's
    /// vocabulary.
    #[inline]
    pub fn add(&mut self, id: SeriesId, delta: u64) {
        if let Some(v) = self.values.get_mut(id.0 as usize) {
            *v += delta;
        }
    }

    /// Feeds a counter from a cumulative source: the in-window delta is
    /// `total - last total`. Saturates at zero if the source ever moved
    /// backwards (it must not, for a deterministic run). No-op outside
    /// the registry's vocabulary.
    #[inline]
    pub fn set_cumulative(&mut self, id: SeriesId, total: u64) {
        let i = id.0 as usize;
        if i >= self.values.len() {
            return;
        }
        self.values[i] += total.saturating_sub(self.prev_cumulative[i]);
        self.prev_cumulative[i] = total;
    }

    /// Current value of a series (gauge level or in-window counter
    /// delta); zero outside the registry's vocabulary.
    pub fn get(&self, id: SeriesId) -> u64 {
        self.values.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Seals the window ending now: snapshots every covered series into a
    /// [`Frame`] and drains the counters (gauges persist).
    pub fn sample(&mut self, window: u64) -> Frame {
        let values = SERIES[..self.values.len()]
            .iter()
            .map(|d| {
                let i = d.id.0 as usize;
                let v = self.values[i];
                if d.kind == SeriesKind::Counter {
                    self.values[i] = 0;
                }
                (d.id.0, v)
            })
            .collect();
        Frame { window, values }
    }
}

/// Fixed microsecond bucket bounds shared by every latency histogram:
/// ≤1ms, ≤10ms, ≤100ms, ≤1s, ≤10s, ≤100s, and overflow.
pub const LATENCY_BUCKETS_US: [u64; 6] =
    [1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// A fixed-bucket histogram over [`LATENCY_BUCKETS_US`] (the last slot
/// counts samples above every bound).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[i]` = samples ≤ `LATENCY_BUCKETS_US[i]` (and > the previous
    /// bound); `counts[6]` = overflow.
    pub counts: [u64; 7],
    /// Total samples recorded.
    pub samples: u64,
    /// Sum of all samples, in microseconds.
    pub sum_micros: u64,
    /// Largest sample, in microseconds.
    pub max_micros: u64,
}

impl Histogram {
    /// Records one duration sample.
    pub fn observe(&mut self, d: SimDuration) {
        let us = d.as_micros();
        let slot = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.counts[slot] += 1;
        self.samples += 1;
        self.sum_micros += us;
        self.max_micros = self.max_micros.max(us);
    }

    /// Mean sample in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros.checked_div(self.samples).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_table_ids_match_positions() {
        for (i, d) in SERIES.iter().enumerate() {
            assert_eq!(d.id.0 as usize, i, "series {} id out of order", d.name);
        }
        // Names are unique.
        for (i, a) in SERIES.iter().enumerate() {
            for b in &SERIES[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn core_vocabulary_boundary_is_stable() {
        // The core prefix ends exactly where the service block begins —
        // moving the boundary would silently reshape recorded frames.
        assert_eq!(CORE_SERIES, 16);
        assert_eq!(SERVICE_QUEUE_DEPTH.0 as usize, CORE_SERIES);
        assert!(SERIES[..CORE_SERIES]
            .iter()
            .all(|d| !d.name.starts_with("service.")));
        assert!(SERIES[CORE_SERIES..]
            .iter()
            .all(|d| d.name.starts_with("service.")));
    }

    #[test]
    fn default_registry_frames_exclude_service_series() {
        let mut core = Registry::new();
        // Service-series writes are ignored, not a panic and not recorded.
        core.add(SERVICE_JOBS_ADMITTED, 7);
        core.set_cumulative(SERVICE_JOBS_COMPLETED, 9);
        assert_eq!(core.get(SERVICE_JOBS_ADMITTED), 0);
        let f = core.sample(0);
        assert_eq!(f.values.len(), CORE_SERIES);
        assert!(f.values.iter().all(|&(id, _)| (id as usize) < CORE_SERIES));
    }

    #[test]
    fn service_telemetry_registry_covers_full_table() {
        let mut svc = Registry::with_service_telemetry();
        svc.set(SERVICE_QUEUE_DEPTH, 11);
        svc.add(SERVICE_JOBS_ADMITTED, 3);
        svc.add(SERVICE_WARM_HITS, 2);
        let f = svc.sample(0);
        assert_eq!(f.values.len(), SERIES.len());
        assert_eq!(f.values[SERVICE_QUEUE_DEPTH.0 as usize], (16, 11));
        assert_eq!(f.values[SERVICE_JOBS_ADMITTED.0 as usize], (17, 3));
        assert_eq!(f.values[SERVICE_WARM_HITS.0 as usize], (20, 2));
        // Counters drain, the gauge persists.
        let f1 = svc.sample(1);
        assert_eq!(f1.values[SERVICE_JOBS_ADMITTED.0 as usize].1, 0);
        assert_eq!(f1.values[SERVICE_QUEUE_DEPTH.0 as usize].1, 11);
    }

    #[test]
    fn counters_drain_and_gauges_persist() {
        let mut r = Registry::new();
        r.set(SIM_EVENT_QUEUE_DEPTH, 42);
        r.add(SIM_EVENTS, 10);
        r.add(SIM_EVENTS, 5);
        let f0 = r.sample(0);
        assert_eq!(f0.values[SIM_EVENT_QUEUE_DEPTH.0 as usize], (0, 42));
        assert_eq!(f0.values[SIM_EVENTS.0 as usize], (1, 15));
        let f1 = r.sample(1);
        assert_eq!(f1.values[SIM_EVENT_QUEUE_DEPTH.0 as usize].1, 42);
        assert_eq!(f1.values[SIM_EVENTS.0 as usize].1, 0);
    }

    #[test]
    fn cumulative_feed_telescopes() {
        let mut r = Registry::new();
        r.set_cumulative(SCHED_TEMPLATE_HITS, 3);
        let f0 = r.sample(0);
        r.set_cumulative(SCHED_TEMPLATE_HITS, 3);
        let f1 = r.sample(1);
        r.set_cumulative(SCHED_TEMPLATE_HITS, 9);
        let f2 = r.sample(2);
        let total: u64 = [&f0, &f1, &f2]
            .iter()
            .map(|f| f.values[SCHED_TEMPLATE_HITS.0 as usize].1)
            .sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn frames_are_deterministic() {
        let run = || {
            let mut r = Registry::new();
            for i in 0..100u64 {
                r.add(SIM_EVENTS, i);
                r.set(CLUSTER_BUSY_EXECUTORS, i % 7);
            }
            r.sample(5)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::default();
        h.observe(SimDuration::from_micros(500));
        h.observe(SimDuration::from_micros(5_000));
        h.observe(SimDuration::from_micros(200_000_000));
        assert_eq!(h.samples, 3);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[6], 1);
        assert_eq!(h.max_micros, 200_000_000);
    }
}
