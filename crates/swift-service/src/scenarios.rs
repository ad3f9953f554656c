//! Named service scenarios: fixed `(workload, config)` pairs for the
//! golden-trace suite, the CLI and CI smoke checks.
//!
//! * `service-small` — the golden scenario: **3 tenants × 4 jobs** (the
//!   round-robin tenant split makes the 12-job workload land exactly
//!   4-per-tenant), one storm burst compressing the arrivals, a watermark
//!   low enough that the burst draws rejections, one warm session per
//!   tenant so later jobs score warm hits, and counter sampling on.
//! * `service-storm` — a bigger burst over a larger fleet with one
//!   machine failure mid-run, exercising session kills and requeues.

use swift_cluster::MachineId;
use swift_sim::{SimDuration, SimTime};
use swift_trace::{RecorderConfig, Trace, TraceRecorder};
use swift_workload::{generate_service_workload, ServiceWorkloadConfig, TraceConfig};

use crate::config::ServiceConfig;
use crate::report::ServiceRun;
use crate::service::ServiceSim;

/// One named scenario.
#[derive(Debug)]
pub struct Scenario {
    /// Registry name.
    pub name: &'static str,
    /// One-line description for `--list`.
    pub description: &'static str,
}

/// The scenario registry.
pub const SCENARIOS: [Scenario; 2] = [
    Scenario {
        name: "service-small",
        description: "3 tenants x 4 jobs, one storm, rejects + warm hits (the golden)",
    },
    Scenario {
        name: "service-storm",
        description: "12 tenants, 60-job burst, one machine failure mid-run",
    },
];

/// A scenario's parts: `(workload config, service config, failures)`.
pub type ScenarioParts = (
    ServiceWorkloadConfig,
    ServiceConfig,
    Vec<(SimTime, MachineId)>,
);

/// Builds a scenario's [`ScenarioParts`]. `None` for unknown names.
pub fn build(name: &str, seed: u64) -> Option<ScenarioParts> {
    // Short inner jobs keep the golden traces small and the smoke fast.
    let small_jobs = TraceConfig {
        runtime_median_secs: 2.0,
        runtime_sigma: 0.5,
        tasks_median: 8.0,
        tasks_sigma: 0.8,
        ..TraceConfig::default()
    };
    match name {
        "service-small" => Some((
            ServiceWorkloadConfig {
                tenants: 3,
                jobs: 12,
                seed,
                mean_interarrival: SimDuration::from_millis(200),
                diurnal: false,
                storms: 1,
                storm_factor: 8.0,
                storm_len: SimDuration::from_secs(2),
                tenant_skew: 0.0,
                high_priority_share: 0.25,
                shape: small_jobs,
            },
            ServiceConfig {
                machines: 2,
                executors_per_machine: 4,
                session_executors: 2,
                tenant_quota: 2,
                queue_watermark: 8,
                session_ttl: SimDuration::from_secs(60),
                sample_every: Some(SimDuration::from_secs(5)),
                ..ServiceConfig::default()
            },
            Vec::new(),
        )),
        "service-storm" => Some((
            ServiceWorkloadConfig {
                tenants: 12,
                jobs: 60,
                seed,
                mean_interarrival: SimDuration::from_millis(100),
                diurnal: true,
                storms: 2,
                storm_factor: 6.0,
                storm_len: SimDuration::from_secs(5),
                tenant_skew: 1.1,
                high_priority_share: 0.15,
                shape: small_jobs,
            },
            ServiceConfig {
                machines: 4,
                executors_per_machine: 4,
                session_executors: 2,
                tenant_quota: 4,
                queue_watermark: 32,
                session_ttl: SimDuration::from_secs(20),
                sample_every: Some(SimDuration::from_secs(10)),
                ..ServiceConfig::default()
            },
            vec![(SimTime::ZERO + SimDuration::from_secs(15), MachineId(1))],
        )),
        _ => None,
    }
}

/// Runs a named scenario without recording.
pub fn run(name: &str, seed: u64) -> Result<ServiceRun, String> {
    let (wl, cfg, failures) =
        build(name, seed).ok_or_else(|| format!("unknown scenario {name}"))?;
    let mut sim = ServiceSim::new(cfg, generate_service_workload(&wl));
    sim.fail_machines(failures);
    Ok(sim.run())
}

/// Runs a named scenario with the trace recorder installed.
pub fn run_recorded(name: &str, seed: u64) -> Result<(Trace, ServiceRun), String> {
    let (wl, cfg, failures) =
        build(name, seed).ok_or_else(|| format!("unknown scenario {name}"))?;
    let mut sim = ServiceSim::new(cfg, generate_service_workload(&wl));
    sim.fail_machines(failures);
    let (recorder, handle) = TraceRecorder::new(name, seed, RecorderConfig::default());
    sim.set_observer(Box::new(recorder));
    let run = sim.run();
    Ok((handle.finish(), run))
}
