//! The [`ServiceTraceRecorder`]: a [`ServiceObserver`] that turns the
//! service loop's callback stream into a [`Trace`].
//!
//! Follows the `swift-trace` recorder's ownership pattern: the observer
//! box handed to [`crate::ServiceSim::set_observer`] and the
//! [`ServiceTraceHandle`] the caller keeps share one `Rc<RefCell<...>>`
//! cell, so the recording survives `ServiceSim::run` consuming the box.
//!
//! Event mapping (service callbacks → trace vocabulary):
//!
//! * an **admitted** job opens its span (`job_submitted` immediately
//!   followed by `job_admitted`) — a **rejected** job emits only
//!   `job_rejected` and never opens a span, which is exactly the rule
//!   `Trace::check_spans` enforces for service traces;
//! * dispatches emit `session_warm_hit` / `session_cold_start`;
//! * completions close the span (`job_completed aborted=0`), failure
//!   requeues emit `job_restarted`;
//! * machine failures and counter frames reuse the existing
//!   `machine_health` / `counters` lines, and the stream ends with
//!   `run_finished`.

#![expect(
    clippy::disallowed_types,
    reason = "per-run observer state shared by the observer and the caller's handle; Rc is !Send and only observer callbacks write it"
)]

use std::cell::RefCell;
use std::rc::Rc;

use swift_cluster::{MachineHealth, MachineId};
use swift_metrics::Frame;
use swift_sim::{SimDuration, SimTime};
use swift_trace::{Trace, TraceEvent, TraceEventKind};

use crate::observer::ServiceObserver;

/// Shared recording state.
#[derive(Debug, Default)]
struct RecState {
    events: Vec<TraceEvent>,
}

/// The observer half: install with [`crate::ServiceSim::set_observer`].
#[derive(Debug)]
pub struct ServiceTraceRecorder {
    state: Rc<RefCell<RecState>>,
}

/// The caller's half: yields the [`Trace`] after the run.
#[derive(Debug)]
pub struct ServiceTraceHandle {
    state: Rc<RefCell<RecState>>,
    scenario: String,
    seed: u64,
}

/// Creates a connected recorder/handle pair for one service run.
pub fn service_recorder(scenario: &str, seed: u64) -> (ServiceTraceRecorder, ServiceTraceHandle) {
    let state = Rc::new(RefCell::new(RecState::default()));
    (
        ServiceTraceRecorder {
            state: Rc::clone(&state),
        },
        ServiceTraceHandle {
            state,
            scenario: scenario.to_string(),
            seed,
        },
    )
}

impl ServiceTraceHandle {
    /// Consumes the recording into a [`Trace`].
    pub fn finish(self) -> Trace {
        Trace {
            scenario: self.scenario,
            seed: self.seed,
            events: std::mem::take(&mut self.state.borrow_mut().events),
        }
    }
}

impl ServiceTraceRecorder {
    fn emit(&self, at: SimTime, kind: TraceEventKind) {
        self.state.borrow_mut().events.push(TraceEvent { at, kind });
    }
}

impl ServiceObserver for ServiceTraceRecorder {
    fn on_job_admitted(&mut self, now: SimTime, job: usize, tenant: u32, queue_depth: u32) {
        // The span opens at admission, not arrival: a rejected job never
        // entered the system, so it gets no span at all.
        self.emit(now, TraceEventKind::JobSubmitted { job: job as u32 });
        self.emit(
            now,
            TraceEventKind::JobAdmitted {
                job: job as u32,
                tenant,
                queue_depth,
            },
        );
    }

    fn on_job_rejected(
        &mut self,
        now: SimTime,
        job: usize,
        tenant: u32,
        queue_depth: u32,
        retry_after: SimDuration,
    ) {
        self.emit(
            now,
            TraceEventKind::JobRejected {
                job: job as u32,
                tenant,
                queue_depth,
                retry_after_ms: retry_after.as_micros() / 1_000,
            },
        );
    }

    fn on_session_warm_hit(&mut self, now: SimTime, job: usize, tenant: u32, session: u32) {
        self.emit(
            now,
            TraceEventKind::SessionWarmHit {
                job: job as u32,
                tenant,
                session,
            },
        );
    }

    fn on_session_cold_start(
        &mut self,
        now: SimTime,
        job: usize,
        tenant: u32,
        session: u32,
        executors: u32,
    ) {
        self.emit(
            now,
            TraceEventKind::SessionColdStart {
                job: job as u32,
                tenant,
                session,
                executors,
            },
        );
    }

    fn on_session_expired(&mut self, now: SimTime, tenant: u32, session: u32, executors: u32) {
        self.emit(
            now,
            TraceEventKind::SessionExpired {
                tenant,
                session,
                executors,
            },
        );
    }

    fn on_job_completed(&mut self, now: SimTime, job: usize, _tenant: u32) {
        self.emit(
            now,
            TraceEventKind::JobCompleted {
                job: job as u32,
                aborted: false,
            },
        );
    }

    fn on_job_requeued(&mut self, now: SimTime, job: usize, _tenant: u32) {
        self.emit(now, TraceEventKind::JobRestarted { job: job as u32 });
    }

    fn on_machine_failed(&mut self, now: SimTime, machine: MachineId) {
        self.emit(
            now,
            TraceEventKind::MachineHealthChanged {
                machine: machine.0,
                from: MachineHealth::Healthy,
                to: MachineHealth::Failed,
            },
        );
    }

    fn on_sample(&mut self, now: SimTime, frame: &Frame) {
        self.emit(
            now,
            TraceEventKind::CounterFrame {
                window: frame.window,
                values: frame.values.clone(),
            },
        );
    }

    fn on_service_finished(&mut self, now: SimTime, events: u64) {
        self.emit(now, TraceEventKind::RunFinished { events });
    }
}
