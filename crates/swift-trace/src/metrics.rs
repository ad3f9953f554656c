//! The metrics registry: counters and fixed-bucket histograms derived
//! entirely from a [`Trace`]'s event stream.
//!
//! Derivation replays the simulator's own accounting rules, so for any
//! run the trace-level numbers must agree exactly with the end-of-run
//! [`swift_scheduler::RunReport`] (the cross-check test suite pins this):
//!
//! * per-job idle time is the sum over `task_started` events of
//!   `start − plan_delivered` for the same `(task, epoch)` attempt;
//! * per-job occupied time is the sum over `task_finished` events of
//!   `finish − plan_delivered`;
//! * makespan is the latest non-aborted `job_completed` timestamp;
//! * a stage's `PhaseBreakdown::total` is the attempt's
//!   `(finish − start) + (plan_delivered − assigned) − schedule_overhead`
//!   (launch plus execution; the schedule overhead between assignment and
//!   plan dispatch is the cost model's, not the stage's).

use std::collections::BTreeMap;

use swift_scheduler::{SimEvent, TaskRef};
use swift_sim::{SimDuration, SimTime};

use crate::event::TraceEvent;
use crate::Trace;

// The histogram moved into the dependency-free `swift-metrics` registry
// crate; re-exported here so trace consumers keep their import paths.
pub use swift_metrics::{Histogram, LATENCY_BUCKETS_US};

/// Idle/occupied accumulator for one scope (a job or a graphlet).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdleAccount {
    /// Executor time spent waiting for inputs after plan delivery, µs.
    pub idle_micros: u64,
    /// Executor time between plan delivery and task completion, µs.
    pub occupied_micros: u64,
}

impl IdleAccount {
    /// `idle / occupied`, with the [`swift_scheduler::JobReport`] edge-case
    /// semantics: `0/0 → 0.0`, `x/0 → ∞`.
    pub fn idle_ratio(&self) -> f64 {
        if self.occupied_micros == 0 {
            if self.idle_micros == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.idle_micros as f64 / 1e6) / (self.occupied_micros as f64 / 1e6)
        }
    }
}

/// Everything the registry derives from one trace.
#[derive(Clone, Debug, Default)]
pub struct TraceMetrics {
    /// Per-job idle/occupied accounting, keyed by workload index.
    pub job_idle: BTreeMap<u32, IdleAccount>,
    /// Per-graphlet idle/occupied accounting, keyed by `(job, unit)`.
    pub graphlet_idle: BTreeMap<(u32, u32), IdleAccount>,
    /// Jobs that completed with `aborted = true`.
    pub aborted_jobs: Vec<u32>,
    /// Latest non-aborted job completion (the `RunReport` makespan).
    pub makespan: SimTime,
    /// Per-stage `PhaseBreakdown::total` equivalent, keyed by
    /// `(job, stage)`, from the first completed attempt observed.
    pub stage_phase_total: BTreeMap<(u32, u32), SimDuration>,
    /// Scheme decisions per scheme label (`direct`/`remote`/`local`).
    pub scheme_counts: BTreeMap<&'static str, u64>,
    /// Summed edge sizes (M×N shuffle channel counts, the quantity the
    /// adaptive thresholds compare against) per scheme label.
    pub scheme_edge_size: BTreeMap<&'static str, u64>,
    /// Total bytes spilled by Cache Workers.
    pub spill_bytes: u64,
    /// Total spill events.
    pub spill_events: u64,
    /// Total segments spilled across those events.
    pub spill_segments: u64,
    /// Total bytes released by Cache Workers.
    pub evict_bytes: u64,
    /// Latency from a task's kill/invalidation to the Admin detecting the
    /// failure (§IV-A detection latency).
    pub detection_latency: Histogram,
    /// Latency from a recovery plan to the first re-run task starting.
    pub replan_to_rerun: Histogram,
    /// Template-cache lookups that missed (`template_miss` events).
    pub template_misses: u64,
    /// Template-cache hits (`template_hit` events).
    pub template_hits: u64,
    /// Templates instantiated by parameter patching.
    pub template_instantiations: u64,
    /// Total events in the trace (including the `run_finished` marker).
    pub trace_events: u64,
    /// Events processed by the simulator loop (from `run_finished`).
    pub sim_events: u64,
    /// Counter-track frames in the trace (`counters` events).
    pub counter_frames: u64,
    /// Per-series totals of counter-kind series summed over all frames,
    /// keyed by series name. By the telescoping rule these equal the
    /// end-of-run cumulative values, so they cross-check integer-exact
    /// against the `RunReport` and the event stream itself.
    pub counter_totals: BTreeMap<&'static str, u64>,
    /// Final observed value of each gauge-kind series, keyed by name.
    pub counter_final: BTreeMap<&'static str, u64>,
}

impl TraceMetrics {
    /// Cluster-wide IdleRatio with the exact [`swift_scheduler::RunReport`]
    /// summation semantics: aborted jobs excluded, per-job second-valued
    /// sums in workload order, `0/0 → 0.0`.
    pub fn run_idle_ratio(&self) -> f64 {
        let idle: f64 = self
            .job_idle
            .iter()
            .filter(|(j, _)| !self.aborted_jobs.contains(j))
            .map(|(_, a)| a.idle_micros as f64 / 1e6)
            .sum();
        let occ: f64 = self
            .job_idle
            .iter()
            .filter(|(j, _)| !self.aborted_jobs.contains(j))
            .map(|(_, a)| a.occupied_micros as f64 / 1e6)
            .sum();
        if occ == 0.0 {
            0.0
        } else {
            idle / occ
        }
    }

    /// Folds one sealed counter frame into the registry: counter-kind
    /// series accumulate into [`TraceMetrics::counter_totals`], gauges
    /// overwrite [`TraceMetrics::counter_final`]. Unknown IDs (a newer
    /// trace read by an older build) are skipped.
    pub fn record_window(&mut self, values: &[(u16, u64)]) {
        self.counter_frames += 1;
        for (id, v) in values {
            let Some(d) = swift_metrics::series_def(*id) else {
                continue;
            };
            match d.kind {
                swift_metrics::SeriesKind::Counter => {
                    *self.counter_totals.entry(d.name).or_insert(0) += v;
                }
                swift_metrics::SeriesKind::Gauge => {
                    self.counter_final.insert(d.name, *v);
                }
            }
        }
    }

    /// Renders the registry as stable text (one `key value` pair per
    /// line), for CLI summaries.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "trace_events {}", self.trace_events);
        let _ = writeln!(s, "sim_events {}", self.sim_events);
        let _ = writeln!(s, "makespan_us {}", self.makespan.as_micros());
        let _ = writeln!(s, "run_idle_ratio {:.6}", self.run_idle_ratio());
        for (j, a) in &self.job_idle {
            let _ = writeln!(
                s,
                "job {j} idle_us={} occupied_us={} idle_ratio={:.6}",
                a.idle_micros,
                a.occupied_micros,
                a.idle_ratio()
            );
        }
        for ((j, u), a) in &self.graphlet_idle {
            let _ = writeln!(
                s,
                "graphlet {j}.{u} idle_us={} occupied_us={} idle_ratio={:.6}",
                a.idle_micros,
                a.occupied_micros,
                a.idle_ratio()
            );
        }
        for (scheme, n) in &self.scheme_counts {
            let size = self.scheme_edge_size.get(scheme).copied().unwrap_or(0);
            let _ = writeln!(s, "scheme {scheme} edges={n} total_edge_size={size}");
        }
        let _ = writeln!(
            s,
            "template_cache hits={} misses={} instantiations={}",
            self.template_hits, self.template_misses, self.template_instantiations
        );
        let _ = writeln!(
            s,
            "cache spill_events={} spill_segments={} spill_bytes={} evict_bytes={}",
            self.spill_events, self.spill_segments, self.spill_bytes, self.evict_bytes
        );
        let _ = writeln!(
            s,
            "detection_latency samples={} mean_us={} max_us={} buckets={:?}",
            self.detection_latency.samples,
            self.detection_latency.mean_micros(),
            self.detection_latency.max_micros,
            self.detection_latency.counts
        );
        let _ = writeln!(
            s,
            "replan_to_rerun samples={} mean_us={} max_us={} buckets={:?}",
            self.replan_to_rerun.samples,
            self.replan_to_rerun.mean_micros(),
            self.replan_to_rerun.max_micros,
            self.replan_to_rerun.counts
        );
        // Counter tracks appear only in frame-carrying traces, so
        // lean-trace summaries are unchanged.
        if self.counter_frames > 0 {
            let _ = writeln!(s, "counter_frames {}", self.counter_frames);
            for (name, total) in &self.counter_totals {
                let _ = writeln!(s, "counter {name} total={total}");
            }
            for (name, last) in &self.counter_final {
                let _ = writeln!(s, "gauge {name} last={last}");
            }
        }
        s
    }
}

/// One attempt key: `(job, stage, index, epoch)`.
type AttemptKey = (u32, u32, u32, u32);

fn attempt_key(job: u32, t: TaskRef, epoch: u32) -> AttemptKey {
    (job, t.stage, t.index, epoch)
}

/// Derives the full metrics registry from a trace.
///
/// `schedule_overhead` is the cost model's `SWIFT_SCHEDULE_OVERHEAD` (the
/// gap between assignment and plan dispatch that is *not* part of the
/// stage's launch phase); pass [`SimDuration::ZERO`] when stage phase
/// totals are not needed.
pub fn derive(trace: &Trace, schedule_overhead: SimDuration) -> TraceMetrics {
    let mut m = TraceMetrics {
        trace_events: trace.events.len() as u64,
        ..TraceMetrics::default()
    };

    // Per-attempt timestamps for idle/occupied/phase reconstruction.
    let mut assigned: BTreeMap<AttemptKey, SimTime> = BTreeMap::new();
    let mut delivered: BTreeMap<AttemptKey, SimTime> = BTreeMap::new();
    let mut started: BTreeMap<AttemptKey, SimTime> = BTreeMap::new();
    // Stage → unit map per job, from graphlet submission events.
    let mut stage_unit: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    // Last kill/invalidation per task, for detection latency.
    let mut invalidated_at: BTreeMap<(u32, u32, u32), SimTime> = BTreeMap::new();
    // Open recovery plans: (plan time, rerun set) per job, consumed by the
    // first start of one of their tasks.
    let mut open_plans: Vec<(u32, SimTime, Vec<TaskRef>)> = Vec::new();

    for TraceEvent { at, kind } in &trace.events {
        let at = *at;
        match kind {
            SimEvent::SchemeSelected {
                scheme,
                size: edge_size,
                ..
            } => {
                let label = match scheme {
                    swift_shuffle::ShuffleScheme::Direct => "direct",
                    swift_shuffle::ShuffleScheme::Local => "local",
                    swift_shuffle::ShuffleScheme::Remote => "remote",
                };
                *m.scheme_counts.entry(label).or_insert(0) += 1;
                *m.scheme_edge_size.entry(label).or_insert(0) += edge_size;
            }
            SimEvent::GraphletState {
                job, unit, stages, ..
            } => {
                for &s in stages {
                    stage_unit.insert((*job, s), *unit);
                }
            }
            SimEvent::TaskAssigned {
                job, task, epoch, ..
            } => {
                assigned.insert(attempt_key(*job, *task, *epoch), at);
            }
            SimEvent::PlanDelivered { job, task, epoch } => {
                delivered.insert(attempt_key(*job, *task, *epoch), at);
            }
            SimEvent::TaskStarted { job, task, epoch } => {
                let key = attempt_key(*job, *task, *epoch);
                started.insert(key, at);
                if let Some(&d) = delivered.get(&key) {
                    let idle = at.saturating_since(d).as_micros();
                    m.job_idle.entry(*job).or_default().idle_micros += idle;
                    if let Some(&u) = stage_unit.get(&(*job, task.stage)) {
                        m.graphlet_idle.entry((*job, u)).or_default().idle_micros += idle;
                    }
                }
                // Consume any recovery plan waiting on this task.
                if let Some(pos) = open_plans
                    .iter()
                    .position(|(j, _, rerun)| j == job && rerun.contains(task))
                {
                    let (_, planned_at, _) = open_plans.remove(pos);
                    m.replan_to_rerun.observe(at.saturating_since(planned_at));
                }
            }
            SimEvent::TaskFinished { job, task, epoch } => {
                let key = attempt_key(*job, *task, *epoch);
                if let Some(&d) = delivered.get(&key) {
                    let occ = at.saturating_since(d).as_micros();
                    m.job_idle.entry(*job).or_default().occupied_micros += occ;
                    if let Some(&u) = stage_unit.get(&(*job, task.stage)) {
                        m.graphlet_idle
                            .entry((*job, u))
                            .or_default()
                            .occupied_micros += occ;
                    }
                    // Stage phase total = launch + execution, from the first
                    // completed attempt of any task in the stage.
                    if let std::collections::btree_map::Entry::Vacant(slot) =
                        m.stage_phase_total.entry((*job, task.stage))
                    {
                        if let (Some(&a), Some(&s)) = (assigned.get(&key), started.get(&key)) {
                            let launch = d.saturating_since(a) - schedule_overhead;
                            let exec = at.saturating_since(s);
                            slot.insert(launch + exec);
                        }
                    }
                }
            }
            SimEvent::TaskInvalidated { job, task, .. } => {
                invalidated_at.insert((*job, task.stage, task.index), at);
            }
            SimEvent::FailureDetected { job, task, .. } => {
                if let Some(&k) = invalidated_at.get(&(*job, task.stage, task.index)) {
                    m.detection_latency.observe(at.saturating_since(k));
                }
            }
            SimEvent::RecoveryPlanned {
                job, rerun, abort, ..
            } => {
                if !abort && !rerun.is_empty() {
                    open_plans.push((*job, at, rerun.clone()));
                }
            }
            SimEvent::JobCompleted { job, aborted } => {
                if *aborted {
                    m.aborted_jobs.push(*job);
                } else {
                    m.makespan = m.makespan.max(at);
                }
                // Jobs with no completed task still appear in the account.
                m.job_idle.entry(*job).or_default();
            }
            SimEvent::CacheSpill {
                bytes, segments, ..
            } => {
                m.spill_bytes += bytes;
                m.spill_events += 1;
                m.spill_segments += u64::from(*segments);
            }
            SimEvent::CacheEvict { bytes, .. } => {
                m.evict_bytes += bytes;
            }
            SimEvent::TemplateMiss { .. } => {
                m.template_misses += 1;
            }
            SimEvent::TemplateHit { .. } => {
                m.template_hits += 1;
            }
            SimEvent::TemplateInstantiate { .. } => {
                m.template_instantiations += 1;
            }
            SimEvent::CounterFrame { values, .. } => {
                m.record_window(values);
            }
            SimEvent::RunFinished { events } => {
                m.sim_events = *events;
            }
            SimEvent::JobSubmitted { .. }
            | SimEvent::GangWaitStarted { .. }
            | SimEvent::GangWaitEnded { .. }
            | SimEvent::InputRead { .. }
            | SimEvent::JobRestarted { .. }
            | SimEvent::MachineHealthChanged { .. }
            | SimEvent::JobAdmitted { .. }
            | SimEvent::JobRejected { .. }
            | SimEvent::SessionWarmHit { .. }
            | SimEvent::SessionColdStart { .. }
            | SimEvent::SessionExpired { .. } => {}
        }
    }
    m
}
