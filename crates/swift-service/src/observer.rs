//! Observer hooks over the service control loop.

use swift_cluster::MachineId;
use swift_metrics::Frame;
use swift_scheduler::{RunReport, SimObserver};
use swift_sim::{SimDuration, SimTime};

/// Observer receiving service-level lifecycle callbacks — the hook surface
/// the trace recorder and the chaos harness use without perturbing the
/// deterministic event flow. All methods default to no-ops.
#[allow(unused_variables)]
pub trait ServiceObserver {
    /// A job arrived at the front door (before the admission decision).
    fn on_job_submitted(&mut self, now: SimTime, job: usize, tenant: u32) {}

    /// The job was admitted; `queue_depth` is the depth after enqueue.
    fn on_job_admitted(&mut self, now: SimTime, job: usize, tenant: u32, queue_depth: u32) {}

    /// The job was rejected at the watermark with a back-off hint.
    fn on_job_rejected(
        &mut self,
        now: SimTime,
        job: usize,
        tenant: u32,
        queue_depth: u32,
        retry_after: SimDuration,
    ) {
    }

    /// A dispatch reused a warm session.
    fn on_session_warm_hit(&mut self, now: SimTime, job: usize, tenant: u32, session: u32) {}

    /// A dispatch registered a fresh session (`executors` allocated).
    fn on_session_cold_start(
        &mut self,
        now: SimTime,
        job: usize,
        tenant: u32,
        session: u32,
        executors: u32,
    ) {
    }

    /// The session retired and its executors were released: an idle warm
    /// session hit its TTL, the warm pool is disabled and its job
    /// finished, or the service quiesced with the session still parked.
    fn on_session_expired(&mut self, now: SimTime, tenant: u32, session: u32, executors: u32) {}

    /// A machine failure destroyed the session (its surviving executors
    /// were released; any in-flight job was requeued separately).
    fn on_session_killed(&mut self, now: SimTime, tenant: u32, session: u32, executors: u32) {}

    /// A job ran to completion.
    fn on_job_completed(&mut self, now: SimTime, job: usize, tenant: u32) {}

    /// A machine failure killed the job's session; the job went back to
    /// the front of its tenant queue.
    fn on_job_requeued(&mut self, now: SimTime, job: usize, tenant: u32) {}

    /// A fleet machine failed.
    fn on_machine_failed(&mut self, now: SimTime, machine: MachineId) {}

    /// A telemetry window was sealed (see [`crate::ServiceConfig::sample_every`]):
    /// `now` is the window's boundary, or the quiesce time for the final
    /// frame.
    fn on_sample(&mut self, now: SimTime, frame: &Frame) {}

    /// The service loop quiesced after `events` events.
    fn on_service_finished(&mut self, now: SimTime, events: u64) {}

    /// Called once per dispatch: a `Some` return is installed as the
    /// inner simulation's observer for that job run.
    fn job_sim_observer(&mut self, job: usize, tenant: u32) -> Option<Box<dyn SimObserver>> {
        None
    }

    /// The job's inner simulation finished with this report.
    fn on_job_report(&mut self, now: SimTime, job: usize, tenant: u32, report: &RunReport) {}
}

/// The default observer: ignores everything.
#[derive(Debug, Default)]
pub struct NullServiceObserver;

impl ServiceObserver for NullServiceObserver {}
