//! # swift-ft — lightweight fault tolerance and recovery
//!
//! Implements §IV of the Swift paper as policy logic the scheduler (and the
//! real engine) drive:
//!
//! * **Timely failure detection** (§IV-A): executor status self-reporting
//!   ([`FailureKind::ProcessRestart`]), proxied heartbeats with
//!   cluster-size-scaled intervals ([`HeartbeatMonitor`]), and machine
//!   health monitoring with read-only draining ([`HealthMonitor`]).
//! * **Fine-grained recovery** (§IV-B): [`plan_recovery`] computes the
//!   minimal re-run set and channel updates for all five cases —
//!   intra-graphlet idempotent / non-idempotent, input failure, output
//!   failure, and §IV-C's useless (deterministic application) failures.
//! * **Job-restart baseline** ([`plan_job_restart`]) used by the Fig. 14
//!   and Fig. 15 comparisons.

#![warn(missing_docs)]

mod detection;
mod recovery;
mod validate;

pub use detection::{FailureKind, HealthDecision, HealthMonitor, HeartbeatMonitor};
pub use recovery::{
    plan_job_restart, plan_recovery, ChannelAction, ChannelUpdate, ExecutionSnapshot, RecoveryCase,
    RecoveryPlan, TaskRunState,
};
pub use validate::{validate_plan_versions, validate_recovery_plan};
