//! The service loop's trace recording: [`swift_trace::TraceRecorder`]
//! is a [`ServiceObserver`] too, so one recorder type records both the
//! per-job simulator and the service front door. Each callback hands its
//! [`SimEvent`] to the recorder's [`SimObserver::on_event`].
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

use swift_cluster::{MachineHealth, MachineId};
use swift_metrics::Frame;
use swift_scheduler::{SimEvent, SimObserver};
use swift_sim::{SimDuration, SimTime};
use swift_trace::{TraceRecorder, TraceSink};

use crate::observer::ServiceObserver;

impl<S: TraceSink> ServiceObserver for TraceRecorder<S> {
    fn on_job_admitted(&mut self, now: SimTime, job: usize, tenant: u32, queue_depth: u32) {
        // The span opens at admission, not arrival: a rejected job never
        // entered the system, so it gets no span at all.
        let job = job as u32;
        self.on_event(now, SimEvent::JobSubmitted { job });
        self.on_event(
            now,
            SimEvent::JobAdmitted {
                job,
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
        self.on_event(
            now,
            SimEvent::JobRejected {
                job: job as u32,
                tenant,
                queue_depth,
                retry_after_ms: retry_after.as_micros() / 1_000,
            },
        );
    }

    fn on_session_warm_hit(&mut self, now: SimTime, job: usize, tenant: u32, session: u32) {
        self.on_event(
            now,
            SimEvent::SessionWarmHit {
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
        self.on_event(
            now,
            SimEvent::SessionColdStart {
                job: job as u32,
                tenant,
                session,
                executors,
            },
        );
    }

    fn on_session_expired(&mut self, now: SimTime, tenant: u32, session: u32, executors: u32) {
        self.on_event(
            now,
            SimEvent::SessionExpired {
                tenant,
                session,
                executors,
            },
        );
    }

    fn on_job_completed(&mut self, now: SimTime, job: usize, _tenant: u32) {
        self.on_event(
            now,
            SimEvent::JobCompleted {
                job: job as u32,
                aborted: false,
            },
        );
    }

    fn on_job_requeued(&mut self, now: SimTime, job: usize, _tenant: u32) {
        self.on_event(now, SimEvent::JobRestarted { job: job as u32 });
    }

    fn on_machine_failed(&mut self, now: SimTime, machine: MachineId) {
        self.on_event(
            now,
            SimEvent::MachineHealthChanged {
                machine: machine.0,
                from: MachineHealth::Healthy,
                to: MachineHealth::Failed,
            },
        );
    }

    fn on_sample(&mut self, now: SimTime, frame: &Frame) {
        self.on_event(
            now,
            SimEvent::CounterFrame {
                window: frame.window,
                values: frame.values.clone(),
            },
        );
    }

    fn on_service_finished(&mut self, now: SimTime, events: u64) {
        self.on_event(now, SimEvent::RunFinished { events });
    }
}
