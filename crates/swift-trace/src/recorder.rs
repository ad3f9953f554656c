//! The [`TraceRecorder`]: a [`SimObserver`] that stores the simulator's
//! [`SimEvent`] stream as a [`Trace`] (or streams it straight to disk).
//!
//! The recorder follows the chaos-observer ownership pattern: the value
//! handed to [`swift_scheduler::Simulation::set_observer`] and the
//! [`TraceHandle`] the caller keeps share one `Rc<RefCell<...>>` cell, so
//! the trace survives `Simulation::run` consuming the observer box. The
//! service loop's events reach the same recorder through its
//! `ServiceObserver` impl in `swift-service`.
//!
//! The recorder is generic over its [`TraceSink`]: [`MemorySink`] (the
//! default) buffers the stream for [`TraceHandle::finish`]; a
//! [`crate::StreamSink`] batches the events and hands them to its own
//! render thread, which writes the text as the run goes. Its memory is
//! the chunk plus the batches in flight, whatever the run length. The
//! sink sees the identical event stream either way, and both texts come
//! from one byte writer: the render thread appends each event with
//! [`crate::TraceEvent::write_line`] straight into its chunk buffer, and
//! [`Trace::render_text`] appends the buffered events with the same call,
//! so neither path goes through `fmt` or a per-event `String`, and no
//! event is rendered on the simulation thread.
//!
//! When [`RecorderConfig::counter_window`] is set, the recorder also owns
//! a [`swift_metrics::Registry`]: the events feed the counter series
//! (tasks started/finished, spill/evict bytes, open gang waits), the
//! simulator's [`CounterSample`] callback feeds the gauges, and each
//! sample seals one [`SimEvent::CounterFrame`] into the stream.

#![expect(
    clippy::disallowed_types,
    reason = "per-run observer state shared by the observer and the caller's handle; Rc is !Send and only observer callbacks write it"
)]

use std::cell::RefCell;
use std::rc::Rc;

use swift_ft::RecoveryPlan;
use swift_metrics as sm;
use swift_scheduler::{CounterSample, RecoveryContext, SimEvent, SimObserver};
use swift_sim::{SimDuration, SimTime};

use crate::event::TraceEvent;
use crate::sink::{MemorySink, TraceSink};
use crate::Trace;

/// Default counter-sampling window used by [`RecorderConfig::full`]:
/// 250 simulated milliseconds.
pub const DEFAULT_COUNTER_WINDOW_MS: u64 = 250;

/// What the recorder asks the simulator to emit.
///
/// The default records the control-plane stream only; [`RecorderConfig::full`]
/// additionally enables the extras (the per-stage input reads and the
/// Cache Worker shadow model's spill/evict events) and counter-track
/// sampling. All of them are purely observational — they never change
/// scheduling or the `RunReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Record the extras: `input_read` events, one per predecessor stage
    /// at every task start, and the Cache Worker shadow model, whose
    /// staged cross-graphlet segments are inserted into / consumed from
    /// each machine's cache accounting, generating `cache_spill` /
    /// `cache_evict` events.
    pub extras: bool,
    /// Sample the `swift-metrics` registry into `counters` frames at this
    /// simulated-time window. `None` (the default) disables sampling
    /// entirely — lean traces and the perf paths carry no frames.
    pub counter_window: Option<SimDuration>,
}

impl RecorderConfig {
    /// Everything on: the extras and counter sampling at
    /// [`DEFAULT_COUNTER_WINDOW_MS`].
    pub fn full() -> Self {
        RecorderConfig {
            extras: true,
            counter_window: Some(SimDuration::from_millis(DEFAULT_COUNTER_WINDOW_MS)),
        }
    }
}

/// Live telemetry owned by the recorder while counter sampling is on.
#[derive(Debug)]
struct MetricsState {
    reg: sm::Registry,
    /// Gang waits currently open (started and not yet ended), feeding the
    /// `cluster.gang_waits_open` gauge.
    open_gangs: u64,
}

#[derive(Debug)]
struct RecorderState<S: TraceSink> {
    sink: S,
    metrics: Option<MetricsState>,
}

/// Shared handle to a recording in progress; survives the simulation
/// consuming the [`TraceRecorder`] box.
#[derive(Debug)]
pub struct TraceHandle<S: TraceSink = MemorySink> {
    scenario: String,
    seed: u64,
    // Rc is !Send: the handle can never leave the thread that owns the
    // recorder, and the run writes the state only from its callbacks.
    state: Rc<RefCell<RecorderState<S>>>,
}

impl<S: TraceSink> Clone for TraceHandle<S> {
    fn clone(&self) -> Self {
        TraceHandle {
            scenario: self.scenario.clone(),
            seed: self.seed,
            state: Rc::clone(&self.state),
        }
    }
}

impl TraceHandle<MemorySink> {
    /// Takes the recorded events out, producing the finished [`Trace`].
    /// Call after `Simulation::run` returned.
    pub fn finish(self) -> Trace {
        let TraceHandle {
            scenario,
            seed,
            state,
        } = self;
        let events = state.borrow_mut().sink.take_events();
        Trace {
            scenario,
            seed,
            events,
        }
    }
}

impl<S: TraceSink> TraceHandle<S> {
    /// Recovers the sink after the run. For a [`crate::StreamSink`],
    /// chain with [`crate::StreamSink::finish`] to write the footer.
    ///
    /// # Panics
    ///
    /// If the recorder half is still alive — call only after
    /// `Simulation::run` returned (which drops the observer box).
    pub fn into_sink(self) -> S {
        match Rc::try_unwrap(self.state) {
            Ok(cell) => cell.into_inner().sink,
            Err(_) => {
                panic!("TraceHandle::into_sink while the recorder is installed; call after Simulation::run")
            }
        }
    }
}

/// The observer to install with [`swift_scheduler::Simulation::set_observer`].
#[derive(Debug)]
pub struct TraceRecorder<S: TraceSink = MemorySink> {
    cfg: RecorderConfig,
    state: Rc<RefCell<RecorderState<S>>>,
}

impl TraceRecorder<MemorySink> {
    /// Creates a memory-buffering recorder for one run of `scenario` at
    /// `seed`, returning the observer to install and the handle that
    /// outlives the run.
    pub fn new(
        scenario: &str,
        seed: u64,
        cfg: RecorderConfig,
    ) -> (TraceRecorder<MemorySink>, TraceHandle<MemorySink>) {
        Self::with_sink(scenario, seed, cfg, MemorySink::default())
    }
}

impl<S: TraceSink> TraceRecorder<S> {
    /// Creates a recorder delivering into an explicit sink (e.g. a
    /// [`crate::StreamSink`] for bounded-memory on-disk recording).
    pub fn with_sink(
        scenario: &str,
        seed: u64,
        cfg: RecorderConfig,
        sink: S,
    ) -> (TraceRecorder<S>, TraceHandle<S>) {
        let state = Rc::new(RefCell::new(RecorderState {
            sink,
            metrics: cfg.counter_window.map(|_| MetricsState {
                reg: sm::Registry::new(),
                open_gangs: 0,
            }),
        }));
        (
            TraceRecorder {
                cfg,
                state: Rc::clone(&state),
            },
            TraceHandle {
                scenario: scenario.to_string(),
                seed,
                state,
            },
        )
    }
}

impl<S: TraceSink> SimObserver for TraceRecorder<S> {
    fn on_event(&mut self, now: SimTime, event: SimEvent) {
        let mut st = self.state.borrow_mut();
        if let Some(m) = st.metrics.as_mut() {
            match event {
                SimEvent::TaskStarted { .. } => m.reg.add(sm::SCHED_TASKS_STARTED, 1),
                SimEvent::TaskFinished { .. } => m.reg.add(sm::SCHED_TASKS_FINISHED, 1),
                SimEvent::GangWaitStarted { .. } => m.open_gangs += 1,
                SimEvent::GangWaitEnded { .. } => m.open_gangs = m.open_gangs.saturating_sub(1),
                SimEvent::CacheSpill { bytes, .. } => m.reg.add(sm::SHUFFLE_SPILL_BYTES, bytes),
                SimEvent::CacheEvict { bytes, .. } => m.reg.add(sm::SHUFFLE_EVICT_BYTES, bytes),
                _ => {}
            }
        }
        st.sink.record(TraceEvent {
            at: now,
            kind: event,
        });
    }

    fn on_recovery_planned(
        &mut self,
        now: SimTime,
        job: usize,
        ctx: &RecoveryContext<'_>,
        plan: &RecoveryPlan,
    ) {
        self.on_event(
            now,
            SimEvent::RecoveryPlanned {
                job: job as u32,
                failed: ctx.failed.into(),
                case: plan.case,
                abort: plan.abort_job,
                rerun: plan.rerun.iter().map(|&t| t.into()).collect(),
                updates: plan.updates.len() as u32,
            },
        );
    }

    fn on_counter_sample(&mut self, now: SimTime, sample: &CounterSample) {
        let Some(window) = self.cfg.counter_window else {
            return;
        };
        let mut st = self.state.borrow_mut();
        let frame = match st.metrics.as_mut() {
            Some(m) => {
                let reg = &mut m.reg;
                reg.set(sm::SIM_EVENT_QUEUE_DEPTH, sample.event_queue_depth);
                reg.set_cumulative(sm::SIM_EVENTS, sample.events_processed);
                reg.set(sm::SCHED_PENDING_REQUESTS, sample.pending_requests);
                reg.set(sm::SCHED_PENDING_GANG_TASKS, sample.pending_gang_tasks);
                reg.set(sm::SCHED_WAVE_JOBS, sample.wave_jobs);
                reg.set(sm::SCHED_TEMPLATE_ENTRIES, sample.template_entries);
                reg.set_cumulative(sm::SCHED_TEMPLATE_HITS, sample.template_hits);
                reg.set_cumulative(sm::SCHED_TEMPLATE_MISSES, sample.template_misses);
                reg.set(sm::SHUFFLE_STORE_BYTES, sample.cache_store_bytes);
                reg.set(sm::CLUSTER_LIVE_EXECUTORS, sample.live_executors);
                reg.set(sm::CLUSTER_BUSY_EXECUTORS, sample.busy_executors);
                reg.set(sm::CLUSTER_GANG_WAITS_OPEN, m.open_gangs);
                reg.sample(now.as_micros() / window.as_micros().max(1))
            }
            None => return,
        };
        st.sink.record(TraceEvent {
            at: now,
            kind: SimEvent::CounterFrame {
                window: frame.window,
                values: frame.values,
            },
        });
    }

    fn wants_input_reads(&self) -> bool {
        self.cfg.extras
    }

    fn wants_cache_model(&self) -> bool {
        self.cfg.extras
    }

    fn counter_window(&self) -> Option<SimDuration> {
        self.cfg.counter_window
    }
}
