//! # swift-scheduler — the Swift Admin and its baselines
//!
//! The event-driven controller of the reproduction (§II-B/C, §III-A): jobs
//! are partitioned into gang-scheduled units, units register resource
//! requests with a FIFO ReqItem queue, resources are assigned with data
//! locality and machine load in mind, and execution advances on the
//! deterministic `swift-sim` event queue.
//!
//! Four policies share the machinery ([`PolicyConfig`]):
//!
//! * [`PolicyConfig::swift`] — graphlet partitioning, conservative
//!   submission, pre-launched executors, adaptive in-network shuffle;
//! * [`PolicyConfig::jetscope`] — whole-job gang scheduling (Fig. 10/11
//!   baseline);
//! * [`PolicyConfig::bubble`] — data-size-bounded bubbles with disk-staged
//!   cross-bubble shuffle;
//! * [`PolicyConfig::spark`] — per-stage scheduling, cold task launch,
//!   disk-based shuffle (Fig. 9 / Table I baseline).
//!
//! Failure injection (Figs. 14/15) runs through [`Simulation::inject_failures`]
//! with either Swift's fine-grained recovery or whole-job restart
//! ([`RecoveryPolicy`]).

#![warn(missing_docs)]

mod config;
mod event;
mod report;
mod sim;
mod template;
mod units;

pub use config::{
    LaunchModel, Partitioning, PolicyConfig, RecoveryPolicy, ShuffleSelection, SimConfig,
    Submission,
};
pub use event::{SimEvent, TaskRef};
pub use report::{JobReport, PhaseBreakdown, RunReport, StageReport};
pub use sim::{
    CounterSample, FailureAt, FailureInjection, GraphletState, JobSpec, RecoveryContext,
    SchedulerSession, SchemeDecision, SimObserver, Simulation,
};
pub use template::{
    compute_priors, validate_scheme_priors, validate_template_roundtrip, SchemePrior,
    TemplateCache, TemplateHit, TemplateLookup, TemplateStats, TemplateTicket,
};
pub use units::{plan_units, ScheduleUnit, UnitPlan};
