//! # swift-chaos — deterministic chaos harness for the Swift simulator
//!
//! Generates randomized-but-seeded fault campaigns and replays them
//! through [`swift_scheduler::Simulation`]: random cluster topologies,
//! random workloads (TPC-H query DAGs, terasort, trace-derived chains)
//! and random fault schedules mixing task-level
//! [`swift_scheduler::FailureInjection`]s with whole-machine crashes.
//!
//! Every run is checked against five invariants (completion, same-seed
//! determinism, §IV-B recovery-plan minimality, fine-grained-vs-restart
//! makespan dominance, and shuffle version discipline); see
//! [`campaign`] for the precise statements. Failures print the offending
//! seed and a self-contained repro command — a failed campaign is a
//! one-command bug report, not a flake.
//!
//! Run via the `swift-chaos` binary:
//!
//! ```text
//! cargo run --release -p swift-chaos -- --seeds 100 --campaign mixed
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod observer;
pub mod service;

pub use campaign::{
    execute, execute_traced, execute_traced_sink_with, generate_scenario, preflight_dag,
    repro_command, run_campaign, run_seed, CampaignKind, CampaignReport, Scenario, SeedOutcome,
};
pub use observer::{ChaosObserver, ChaosState};
pub use service::{
    execute_service, execute_service_traced, generate_service_scenario, run_service_seed,
    ServiceScenario,
};
