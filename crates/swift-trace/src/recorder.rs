//! The [`TraceRecorder`]: a [`SimObserver`] that turns the simulator's
//! callback stream into a [`Trace`] (or streams it straight to disk).
//!
//! The recorder follows the chaos-observer ownership pattern: the value
//! handed to [`swift_scheduler::Simulation::set_observer`] and the
//! [`TraceHandle`] the caller keeps share one `Rc<RefCell<...>>` cell, so
//! the trace survives `Simulation::run` consuming the observer box.
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
//! a [`swift_metrics::Registry`]: observer callbacks feed the counter
//! series (tasks started/finished, spill/evict bytes, open gang waits),
//! the simulator's [`CounterSample`] callback feeds the gauges, and each
//! sample seals one [`TraceEventKind::CounterFrame`] into the stream.

#![expect(
    clippy::disallowed_types,
    reason = "per-run observer state shared by the observer and the caller's handle; Rc is !Send and only observer callbacks write it"
)]

use std::cell::RefCell;
use std::rc::Rc;

use swift_cluster::{ExecutorId, MachineHealth, MachineId};
use swift_dag::{StageId, TaskId};
use swift_ft::{FailureKind, RecoveryPlan};
use swift_metrics as sm;
use swift_scheduler::{
    CounterSample, GraphletState, RecoveryContext, SchemeDecision, SimObserver, TemplateDecision,
    TemplateOutcome,
};
use swift_sim::{SimDuration, SimTime};

use crate::event::{task_ref, TraceEvent, TraceEventKind};
use crate::sink::{MemorySink, TraceSink};
use crate::Trace;

/// Default counter-sampling window used by [`RecorderConfig::full`]:
/// 250 simulated milliseconds.
pub const DEFAULT_COUNTER_WINDOW_MS: u64 = 250;

/// What the recorder asks the simulator to emit.
///
/// The default records the control-plane stream only; [`RecorderConfig::full`]
/// additionally enables the per-producer input-read fan-out, the Cache
/// Worker shadow model (spill/evict events) and counter-track sampling.
/// All extras are purely observational — they never change scheduling or
/// the `RunReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Record the per-producer `on_input_read` fan-out (coalesced per
    /// producer stage). Costs O(predecessor tasks) per task start.
    pub input_reads: bool,
    /// Drive the Cache Worker shadow model: staged cross-graphlet segments
    /// are inserted into / consumed from each machine's cache accounting,
    /// generating `cache_spill` / `cache_evict` events.
    pub cache_model: bool,
    /// Sample the `swift-metrics` registry into `counters` frames at this
    /// simulated-time window. `None` (the default) disables sampling
    /// entirely — lean traces and the perf paths carry no frames.
    pub counter_window: Option<SimDuration>,
}

impl RecorderConfig {
    /// Everything on: input reads, the cache shadow model and counter
    /// sampling at [`DEFAULT_COUNTER_WINDOW_MS`].
    pub fn full() -> Self {
        RecorderConfig {
            input_reads: true,
            cache_model: true,
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
    /// An `input_read` run being coalesced (one-event lookback); flushed
    /// before any other event reaches the sink, so the sink still sees
    /// the exact stream order.
    pending_read: Option<TraceEvent>,
    metrics: Option<MetricsState>,
}

impl<S: TraceSink> RecorderState<S> {
    #[inline]
    fn push(&mut self, at: SimTime, kind: TraceEventKind) {
        if let Some(p) = self.pending_read.take() {
            self.sink.record(p);
        }
        self.sink.record(TraceEvent { at, kind });
    }

    fn flush_pending(&mut self) {
        if let Some(p) = self.pending_read.take() {
            self.sink.record(p);
        }
    }
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
        let events = {
            let mut st = state.borrow_mut();
            st.flush_pending();
            st.sink.take_events()
        };
        Trace {
            scenario,
            seed,
            events,
        }
    }
}

impl<S: TraceSink> TraceHandle<S> {
    /// Recovers the sink after the run, flushing the coalescing buffer.
    /// For a [`crate::StreamSink`], chain with
    /// [`crate::StreamSink::finish`] to write the footer.
    ///
    /// # Panics
    ///
    /// If the recorder half is still alive — call only after
    /// `Simulation::run` returned (which drops the observer box).
    pub fn into_sink(self) -> S {
        match Rc::try_unwrap(self.state) {
            Ok(cell) => {
                let mut st = cell.into_inner();
                st.flush_pending();
                st.sink
            }
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
            pending_read: None,
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

    fn push(&mut self, at: SimTime, kind: TraceEventKind) {
        self.state.borrow_mut().push(at, kind);
    }
}

impl<S: TraceSink> SimObserver for TraceRecorder<S> {
    fn on_task_started(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {
        let mut st = self.state.borrow_mut();
        if let Some(m) = st.metrics.as_mut() {
            m.reg.add(sm::SCHED_TASKS_STARTED, 1);
        }
        st.push(
            now,
            TraceEventKind::TaskStarted {
                job: job as u32,
                task: task_ref(task),
                epoch,
            },
        );
    }

    fn on_task_finished(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {
        let mut st = self.state.borrow_mut();
        if let Some(m) = st.metrics.as_mut() {
            m.reg.add(sm::SCHED_TASKS_FINISHED, 1);
        }
        st.push(
            now,
            TraceEventKind::TaskFinished {
                job: job as u32,
                task: task_ref(task),
                epoch,
            },
        );
    }

    fn on_task_invalidated(&mut self, now: SimTime, job: usize, task: TaskId, new_epoch: u32) {
        self.push(
            now,
            TraceEventKind::TaskInvalidated {
                job: job as u32,
                task: task_ref(task),
                new_epoch,
            },
        );
    }

    fn on_input_read(&mut self, now: SimTime, job: usize, producer: TaskId, consumer: TaskId) {
        // The fan-out arrives one producer task at a time, grouped by
        // producer stage within one callback batch; coalesce runs into one
        // event per (consumer, producer stage) to keep traces compact. The
        // run in progress lives in `pending_read` (not the sink) so a
        // streaming sink never has to take an event back.
        let mut st = self.state.borrow_mut();
        let p_stage = producer.stage.index() as u32;
        let c = task_ref(consumer);
        if let Some(TraceEvent {
            at,
            kind:
                TraceEventKind::InputRead {
                    job: j,
                    consumer,
                    producer_stage,
                    producers,
                },
        }) = st.pending_read.as_mut()
        {
            if *at == now && *j == job as u32 && *consumer == c && *producer_stage == p_stage {
                *producers += 1;
                return;
            }
        }
        st.flush_pending();
        st.pending_read = Some(TraceEvent {
            at: now,
            kind: TraceEventKind::InputRead {
                job: job as u32,
                consumer: c,
                producer_stage: p_stage,
                producers: 1,
            },
        });
    }

    fn on_recovery_planned(
        &mut self,
        now: SimTime,
        job: usize,
        ctx: &RecoveryContext<'_>,
        plan: &RecoveryPlan,
    ) {
        self.push(
            now,
            TraceEventKind::RecoveryPlanned {
                job: job as u32,
                failed: task_ref(ctx.failed),
                case: plan.case,
                abort: plan.abort_job,
                rerun: plan.rerun.iter().map(|&t| task_ref(t)).collect(),
                updates: plan.updates.len() as u32,
            },
        );
    }

    fn on_job_restarted(&mut self, now: SimTime, job: usize) {
        self.push(now, TraceEventKind::JobRestarted { job: job as u32 });
    }

    fn on_job_completed(&mut self, now: SimTime, job: usize, aborted: bool) {
        self.push(
            now,
            TraceEventKind::JobCompleted {
                job: job as u32,
                aborted,
            },
        );
    }

    fn on_job_submitted(&mut self, now: SimTime, job: usize) {
        self.push(now, TraceEventKind::JobSubmitted { job: job as u32 });
    }

    fn on_shuffle_scheme_selected(&mut self, now: SimTime, job: usize, d: &SchemeDecision) {
        self.push(
            now,
            TraceEventKind::SchemeSelected {
                job: job as u32,
                edge: d.edge,
                src: d.src.index() as u32,
                dst: d.dst.index() as u32,
                size: d.edge_size,
                scheme: d.scheme,
                medium: d.medium,
                crossing: d.crossing,
            },
        );
    }

    fn on_template_decision(&mut self, now: SimTime, job: usize, d: &TemplateDecision) {
        match d.outcome {
            TemplateOutcome::Miss => self.push(
                now,
                TraceEventKind::TemplateMiss {
                    job: job as u32,
                    signature: d.signature,
                },
            ),
            TemplateOutcome::Hit => {
                self.push(
                    now,
                    TraceEventKind::TemplateHit {
                        job: job as u32,
                        signature: d.signature,
                    },
                );
                self.push(
                    now,
                    TraceEventKind::TemplateInstantiate {
                        job: job as u32,
                        units: d.units,
                        edges: d.edges,
                    },
                );
            }
        }
    }

    fn on_graphlet_state_changed(
        &mut self,
        now: SimTime,
        job: usize,
        unit: u32,
        state: GraphletState,
        stages: &[StageId],
    ) {
        self.push(
            now,
            TraceEventKind::GraphletState {
                job: job as u32,
                unit,
                state,
                stages: stages.iter().map(|s| s.index() as u32).collect(),
            },
        );
    }

    fn on_gang_wait_started(&mut self, now: SimTime, job: usize, unit: u32, tasks: usize) {
        let mut st = self.state.borrow_mut();
        if let Some(m) = st.metrics.as_mut() {
            m.open_gangs += 1;
        }
        st.push(
            now,
            TraceEventKind::GangWaitStarted {
                job: job as u32,
                unit,
                tasks: tasks as u32,
            },
        );
    }

    fn on_gang_wait_ended(
        &mut self,
        now: SimTime,
        job: usize,
        unit: u32,
        tasks: usize,
        wave: bool,
    ) {
        let mut st = self.state.borrow_mut();
        if let Some(m) = st.metrics.as_mut() {
            m.open_gangs = m.open_gangs.saturating_sub(1);
        }
        st.push(
            now,
            TraceEventKind::GangWaitEnded {
                job: job as u32,
                unit,
                tasks: tasks as u32,
                wave,
            },
        );
    }

    fn on_task_assigned(
        &mut self,
        now: SimTime,
        job: usize,
        task: TaskId,
        epoch: u32,
        executor: ExecutorId,
    ) {
        self.push(
            now,
            TraceEventKind::TaskAssigned {
                job: job as u32,
                task: task_ref(task),
                epoch,
                executor: executor.0,
            },
        );
    }

    fn on_plan_delivered(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {
        self.push(
            now,
            TraceEventKind::PlanDelivered {
                job: job as u32,
                task: task_ref(task),
                epoch,
            },
        );
    }

    fn on_failure_detected(&mut self, now: SimTime, job: usize, task: TaskId, kind: FailureKind) {
        self.push(
            now,
            TraceEventKind::FailureDetected {
                job: job as u32,
                task: task_ref(task),
                kind,
            },
        );
    }

    fn on_machine_health_changed(
        &mut self,
        now: SimTime,
        machine: MachineId,
        from: MachineHealth,
        to: MachineHealth,
    ) {
        self.push(
            now,
            TraceEventKind::MachineHealthChanged {
                machine: crate::event::machine_u32(machine),
                from,
                to,
            },
        );
    }

    fn on_cache_spill(&mut self, now: SimTime, machine: MachineId, bytes: u64, segments: usize) {
        let mut st = self.state.borrow_mut();
        if let Some(m) = st.metrics.as_mut() {
            m.reg.add(sm::SHUFFLE_SPILL_BYTES, bytes);
        }
        st.push(
            now,
            TraceEventKind::CacheSpill {
                machine: crate::event::machine_u32(machine),
                bytes,
                segments: segments as u32,
            },
        );
    }

    fn on_cache_evict(&mut self, now: SimTime, machine: MachineId, bytes: u64) {
        let mut st = self.state.borrow_mut();
        if let Some(m) = st.metrics.as_mut() {
            m.reg.add(sm::SHUFFLE_EVICT_BYTES, bytes);
        }
        st.push(
            now,
            TraceEventKind::CacheEvict {
                machine: crate::event::machine_u32(machine),
                bytes,
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
        st.push(
            now,
            TraceEventKind::CounterFrame {
                window: frame.window,
                values: frame.values,
            },
        );
    }

    fn on_run_finished(&mut self, now: SimTime, events: u64) {
        self.push(now, TraceEventKind::RunFinished { events });
    }

    fn wants_input_reads(&self) -> bool {
        self.cfg.input_reads
    }

    fn wants_cache_model(&self) -> bool {
        self.cfg.cache_model
    }

    fn counter_window(&self) -> Option<SimDuration> {
        self.cfg.counter_window
    }
}
