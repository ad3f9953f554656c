//! `swift-trace`: deterministic structured tracing for Swift runs.
//!
//! A [`TraceRecorder`] is a [`swift_scheduler::SimObserver`] that stores
//! the [`swift_scheduler::SimEvent`]s the simulator emits, as they come,
//! in a [`Trace`] — an ordered, `SimTime`-stamped event list covering the
//! whole control plane:
//! scheme decisions, graphlet state changes, gang waits, task attempt
//! lifecycles, failure detection and recovery plans, machine health and
//! Cache Worker spill/evict activity.
//!
//! Because the simulator is deterministic and the recorder adds no
//! clocks, randomness or address-dependent ordering of its own, the
//! trace for a given `(scenario, seed)` is **byte-identical across
//! runs** — which is what makes the golden-trace conformance suite and
//! the record-twice CI smoke check possible.
//!
//! Three consumers are built in:
//!
//! * [`Trace::render_text`] — a stable, line-oriented text format used
//!   for golden files and diffing;
//! * [`Trace::to_chrome_json`] — Chrome Trace Event Format JSON for
//!   `chrome://tracing` / Perfetto;
//! * [`Trace::metrics`] — a [`TraceMetrics`] registry (counters and
//!   fixed-bucket histograms) derived entirely from the event stream,
//!   cross-checkable against the simulator's own `RunReport`.
//!
//! ```
//! use swift_trace::scenarios;
//!
//! let (trace, report) = scenarios::run_traced("tiny", 1, Default::default()).unwrap();
//! assert_eq!(trace.check_spans(), Ok(()));
//! let metrics = trace.metrics(scenarios::schedule_overhead());
//! assert_eq!(metrics.run_idle_ratio(), report.idle_ratio());
//! ```

pub mod cli;
pub mod diff;
pub mod event;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod scenarios;
pub mod sink;
mod text;

use std::collections::BTreeMap;

pub use cli::run_cli;
pub use diff::{diff_texts, DiffReport};
pub use event::TraceEvent;
pub use metrics::{Histogram, IdleAccount, TraceMetrics, LATENCY_BUCKETS_US};
pub use recorder::{RecorderConfig, TraceHandle, TraceRecorder, DEFAULT_COUNTER_WINDOW_MS};
pub use sink::{
    MemorySink, StreamSink, StreamStats, TraceSink, DEFAULT_CHUNK_BYTES, STREAM_BATCH_EVENTS,
};

use swift_scheduler::SimEvent;
use swift_sim::SimDuration;

/// Version tag in the text header; bump when the line format changes
/// (goldens must be re-blessed). v2 moved the event count from the
/// header to a trailing `# events=N` footer so a streaming writer never
/// needs to seek, and added `counters` frame lines. v3 dropped the
/// `canonical=` field from `template_hit` lines. v4 dropped the shard
/// series 16–19 and renumbered the service series from 20–27 to 16–23.
pub const TEXT_FORMAT_VERSION: u32 = 4;

/// Bytes per event line to reserve for a rendered trace: the
/// `sim_streamed` replay averages 56.5 (20 945 594 bytes over 370 736
/// events), so a whole render fits without growing its buffer.
const LINE_BYTES_ESTIMATE: usize = 57;

/// A finished recording: the full event stream of one simulated run.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Scenario label (free-form; scenario registry name for goldens).
    pub scenario: String,
    /// The seed the run was generated from.
    pub seed: u64,
    /// The event stream, in simulation order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the stable line-oriented text format: a two-line header,
    /// one line per event, and a trailing `# events=N` footer (written
    /// last so a [`StreamSink`] produces identical bytes without ever
    /// seeking). This is the golden-file format; it is exact-diffed in
    /// tests, so any change must bump [`TEXT_FORMAT_VERSION`] and
    /// re-bless the goldens.
    pub fn render_text(&self) -> String {
        let mut out = Vec::with_capacity(96 + self.events.len() * LINE_BYTES_ESTIMATE);
        text::write_header(&mut out, &self.scenario, self.seed);
        for e in &self.events {
            e.write_line(&mut out);
        }
        text::write_footer(&mut out, self.events.len() as u64);
        String::from_utf8(out).expect("trace text is UTF-8")
    }

    /// Renders the counter tracks only: one `{micros} window=W {series} {value}`
    /// line per (frame, series), series names resolved through the
    /// [`swift_metrics::SERIES`] vocabulary. Empty when the trace was
    /// recorded without [`RecorderConfig::counter_window`]. Used for the
    /// counter-track goldens and `trace --counters`.
    pub fn render_counters_text(&self) -> String {
        let mut out = Vec::new();
        for e in &self.events {
            text::write_counter_lines(&mut out, e);
        }
        String::from_utf8(out).expect("trace text is UTF-8")
    }

    /// Renders Chrome Trace Event Format JSON (see [`export`]).
    pub fn to_chrome_json(&self) -> String {
        export::to_chrome_json(self)
    }

    /// Derives the metrics registry from the stream. `schedule_overhead`
    /// is the cost model's `SWIFT_SCHEDULE_OVERHEAD` (needed to split
    /// plan-delivery latency into overhead + launch for the per-stage
    /// phase totals); pass [`SimDuration::ZERO`] if phase totals are not
    /// being cross-checked.
    pub fn metrics(&self, schedule_overhead: SimDuration) -> TraceMetrics {
        metrics::derive(self, schedule_overhead)
    }

    /// Checks span discipline over the whole stream:
    ///
    /// * every `task_finished` closes an open attempt with the **same
    ///   epoch**, and every `task_invalidated` that closes a running
    ///   attempt bumps its epoch by exactly one;
    /// * attempts of one task never overlap;
    /// * gang waits are well-nested per `(job, unit)` and all closed at
    ///   run end;
    /// * every job event falls inside its job span (`job_submitted` ..
    ///   `job_completed`), jobs complete exactly once, and all jobs are
    ///   completed at run end;
    /// * at run end the only open task attempts belong to **aborted**
    ///   jobs (an abort drops running work without individual
    ///   invalidation events).
    ///
    /// Returns the first violation as a human-readable message.
    pub fn check_spans(&self) -> Result<(), String> {
        #[derive(PartialEq)]
        enum JobSpan {
            Open,
            Closed { aborted: bool },
        }
        let mut jobs: BTreeMap<u32, JobSpan> = BTreeMap::new();
        // (job, stage, index) -> open epoch
        let mut open_tasks: BTreeMap<(u32, u32, u32), u32> = BTreeMap::new();
        let mut open_gangs: BTreeMap<(u32, u32), u32> = BTreeMap::new();

        let require_open =
            |jobs: &BTreeMap<u32, JobSpan>, job: u32, what: &str| match jobs.get(&job) {
                Some(JobSpan::Open) => Ok(()),
                Some(JobSpan::Closed { .. }) => {
                    Err(format!("{what} for job {job} after job_completed"))
                }
                None => Err(format!("{what} for job {job} before job_submitted")),
            };

        for e in &self.events {
            match &e.kind {
                SimEvent::JobSubmitted { job } => {
                    if jobs.insert(*job, JobSpan::Open).is_some() {
                        return Err(format!("job {job} submitted twice"));
                    }
                }
                SimEvent::JobCompleted { job, aborted } => {
                    require_open(&jobs, *job, "job_completed")?;
                    jobs.insert(*job, JobSpan::Closed { aborted: *aborted });
                    if *aborted {
                        // Abandoned attempts of an aborted job are dropped
                        // without invalidation events; forget them.
                        open_tasks.retain(|&(j, _, _), _| j != *job);
                    }
                }
                SimEvent::TaskStarted { job, task, epoch } => {
                    require_open(&jobs, *job, "task_started")?;
                    let key = (*job, task.stage, task.index);
                    if let Some(prev) = open_tasks.insert(key, *epoch) {
                        return Err(format!(
                            "job {job} task {task}: attempt e{epoch} started while e{prev} open"
                        ));
                    }
                }
                SimEvent::TaskFinished { job, task, epoch } => {
                    require_open(&jobs, *job, "task_finished")?;
                    match open_tasks.remove(&(*job, task.stage, task.index)) {
                        Some(open) if open == *epoch => {}
                        Some(open) => {
                            return Err(format!(
                                "job {job} task {task}: finished e{epoch} but e{open} was running"
                            ));
                        }
                        None => {
                            return Err(format!(
                                "job {job} task {task}: finished e{epoch} without a start"
                            ));
                        }
                    }
                }
                SimEvent::TaskInvalidated {
                    job,
                    task,
                    new_epoch,
                } => {
                    require_open(&jobs, *job, "task_invalidated")?;
                    // Only a *running* attempt has an open span; invalidating
                    // an assigned/finished task is span-neutral.
                    if let Some(open) = open_tasks.remove(&(*job, task.stage, task.index)) {
                        if open + 1 != *new_epoch {
                            return Err(format!(
                                "job {job} task {task}: invalidated e{open} -> e{new_epoch} \
                                 (expected +1)"
                            ));
                        }
                    }
                }
                SimEvent::GangWaitStarted { job, unit, .. } => {
                    require_open(&jobs, *job, "gang_wait_started")?;
                    if open_gangs.insert((*job, *unit), 0).is_some() {
                        return Err(format!("job {job} unit {unit}: overlapping gang waits"));
                    }
                }
                SimEvent::GangWaitEnded { job, unit, .. } => {
                    require_open(&jobs, *job, "gang_wait_ended")?;
                    if open_gangs.remove(&(*job, *unit)).is_none() {
                        return Err(format!(
                            "job {job} unit {unit}: gang wait ended without start"
                        ));
                    }
                }
                SimEvent::SchemeSelected { job, .. }
                | SimEvent::TemplateMiss { job, .. }
                | SimEvent::TemplateHit { job, .. }
                | SimEvent::TemplateInstantiate { job, .. }
                | SimEvent::GraphletState { job, .. }
                | SimEvent::TaskAssigned { job, .. }
                | SimEvent::PlanDelivered { job, .. }
                | SimEvent::InputRead { job, .. }
                | SimEvent::FailureDetected { job, .. }
                | SimEvent::RecoveryPlanned { job, .. }
                | SimEvent::JobRestarted { job }
                | SimEvent::JobAdmitted { job, .. }
                | SimEvent::SessionWarmHit { job, .. }
                | SimEvent::SessionColdStart { job, .. } => {
                    require_open(&jobs, *job, e.name())?;
                }
                // A rejected job never opens a span (no `job_submitted`),
                // and session expiry is a cluster-level event.
                SimEvent::JobRejected { .. }
                | SimEvent::SessionExpired { .. }
                | SimEvent::MachineHealthChanged { .. }
                | SimEvent::CacheSpill { .. }
                | SimEvent::CacheEvict { .. }
                | SimEvent::CounterFrame { .. }
                | SimEvent::RunFinished { .. } => {}
            }
        }

        if let Some((&(job, unit), _)) = open_gangs.iter().next() {
            return Err(format!("job {job} unit {unit}: gang wait open at run end"));
        }
        if let Some((&job, _)) = jobs.iter().find(|(_, s)| **s == JobSpan::Open) {
            return Err(format!("job {job} span open at run end"));
        }
        if let Some((&(job, stage, index), &epoch)) = open_tasks.iter().next() {
            return Err(format!(
                "job {job} task {stage}.{index}: attempt e{epoch} open at run end"
            ));
        }
        Ok(())
    }
}
