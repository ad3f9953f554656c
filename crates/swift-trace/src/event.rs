//! The timestamped trace event and its stable line-oriented text format.
//!
//! The vocabulary is the simulator's own [`SimEvent`]. Every event is
//! stamped with the [`SimTime`] at which it was emitted, so a trace is a
//! pure function of the scenario seed: same seed, byte-identical trace. The
//! text rendering is the goldens format — one line per event,
//! `{micros:>12} {name} {key=value ...}` — chosen so diffs localize to
//! the first diverging event; [`TraceEvent::write_line`] writes it.

use swift_cluster::MachineHealth;
use swift_scheduler::SimEvent;
use swift_shuffle::ShuffleMedium;
use swift_sim::SimTime;

/// Stable lowercase label for a machine-health state.
pub fn health_str(h: MachineHealth) -> &'static str {
    match h {
        MachineHealth::Healthy => "healthy",
        MachineHealth::ReadOnly => "read_only",
        MachineHealth::Failed => "failed",
    }
}

/// Stable lowercase label for a staging medium.
pub fn medium_str(m: ShuffleMedium) -> &'static str {
    match m {
        ShuffleMedium::Memory => "memory",
        ShuffleMedium::Disk => "disk",
    }
}

/// One timestamped trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulation time at which the event was emitted.
    pub at: SimTime,
    /// What happened.
    pub kind: SimEvent,
}

impl TraceEvent {
    /// Stable event name (first word of the text line).
    pub fn name(&self) -> &'static str {
        match &self.kind {
            SimEvent::JobSubmitted { .. } => "job_submitted",
            SimEvent::SchemeSelected { .. } => "scheme_selected",
            SimEvent::TemplateMiss { .. } => "template_miss",
            SimEvent::TemplateHit { .. } => "template_hit",
            SimEvent::TemplateInstantiate { .. } => "template_instantiate",
            SimEvent::GraphletState { .. } => "graphlet_state",
            SimEvent::GangWaitStarted { .. } => "gang_wait_started",
            SimEvent::GangWaitEnded { .. } => "gang_wait_ended",
            SimEvent::TaskAssigned { .. } => "task_assigned",
            SimEvent::PlanDelivered { .. } => "plan_delivered",
            SimEvent::TaskStarted { .. } => "task_started",
            SimEvent::TaskFinished { .. } => "task_finished",
            SimEvent::TaskInvalidated { .. } => "task_invalidated",
            SimEvent::InputRead { .. } => "input_read",
            SimEvent::FailureDetected { .. } => "failure_detected",
            SimEvent::RecoveryPlanned { .. } => "recovery_planned",
            SimEvent::JobRestarted { .. } => "job_restarted",
            SimEvent::JobCompleted { .. } => "job_completed",
            SimEvent::MachineHealthChanged { .. } => "machine_health",
            SimEvent::CacheSpill { .. } => "cache_spill",
            SimEvent::CacheEvict { .. } => "cache_evict",
            SimEvent::CounterFrame { .. } => "counters",
            SimEvent::RunFinished { .. } => "run_finished",
            SimEvent::JobAdmitted { .. } => "job_admitted",
            SimEvent::JobRejected { .. } => "job_rejected",
            SimEvent::SessionWarmHit { .. } => "session_warm_hit",
            SimEvent::SessionColdStart { .. } => "session_cold_start",
            SimEvent::SessionExpired { .. } => "session_expired",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sim_streamed` copies every event into its sink's batch, so these
    /// sizes are a per-event cost of recording. Narrowing the event
    /// (ROADMAP item 13(a)) is the change meant to lower them.
    #[test]
    fn event_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 56);
        assert_eq!(std::mem::size_of::<SimEvent>(), 48);
    }
}
