//! # swift-service — the long-running multi-tenant front door
//!
//! The paper's Swift runs as a *service*: a resident control plane that
//! keeps executor pools warm across jobs and admits work from many
//! tenants at once (§II-B's pre-launched executor pool, held for the
//! lifetime of the service rather than one job). This crate reproduces
//! that operating mode on top of the per-job simulator:
//!
//! * **admission control** — a bounded queue with high/normal priority
//!   bands; arrivals above the watermark are rejected with a retry-after
//!   hint instead of queueing without bound ([`ServiceConfig::queue_watermark`]);
//! * **per-tenant quotas and fairness** — no tenant holds more executors
//!   than its quota, and dispatch order across tenants is deficit round
//!   robin weighted by job cost (total tasks), so a storm from one tenant
//!   cannot starve the rest;
//! * **warm executor-pool sessions** — a tenant's session (its
//!   executors) survives job completion and is reused by its next job,
//!   skipping the cold registration delay; idle sessions expire on a TTL;
//! * **one control-plane session** — the scheduling-template cache
//!   belongs to the controller, not to a pool: a shape planned for any
//!   tenant's job is a hit for every later job of the fleet;
//! * **failure handling** — a fleet machine failure kills the sessions on
//!   it; their in-flight jobs requeue at the front of their band and
//!   restart on fresh sessions.
//!
//! Everything advances in simulated time on one deterministic event loop
//! ([`ServiceSim`]), each dispatched job running as a full inner
//! `swift-scheduler` [`swift_scheduler::Simulation`] on its session's
//! executors. Same `(workload, config)` — byte-identical
//! [`ServiceReport`]; the service-level test battery and the `service`
//! chaos campaign pin exactly that.

#![warn(missing_docs)]

pub mod cli;
pub mod config;
pub mod observer;
mod recorder;
pub mod report;
pub mod scenarios;
pub mod service;

pub use cli::run_cli;
pub use config::ServiceConfig;
pub use observer::{NullServiceObserver, ServiceObserver};
pub use report::{LatencySummary, ServiceReport, ServiceRun, TenantReport};
pub use service::ServiceSim;
