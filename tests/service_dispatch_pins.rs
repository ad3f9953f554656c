//! Pins of the service's deficit-round-robin dispatch order.
//!
//! `ServiceSim` folds every inner run's digest into `ServiceReport` in
//! dispatch order, next to the warm/cold split, the scheduling latencies
//! and the largest deficit stall. So a report digest pins which tenant's
//! job started when. These pins hold that order fixed while the way
//! dispatch *finds* its next tenant changes: the 128 seeds of the
//! `service` chaos campaign (small fleets, quantum 16–128, the warm pool
//! on and off, machine failures), and six mid-size runs whose small
//! quanta keep tenants deficit-blocked for many passes. A change to the
//! dispatch policy itself re-captures them (each failure prints the new
//! value) and says why.

use swift::cluster::MachineId;
use swift::sim::{Fnv64, SimDuration, SimTime};
use swift::workload::{generate_service_workload, ServiceWorkloadConfig, TraceConfig};
use swift_service::{ServiceConfig, ServiceReport, ServiceSim};

#[test]
fn service_campaign_seeds_are_pinned() {
    let mut h = Fnv64::new();
    for seed in 1..=128 {
        h.eat(swift_chaos::execute_service(seed).report.digest());
    }
    let folded = h.finish();
    assert_eq!(
        folded, 0xd284_b3f5_74fc_219f,
        "service seeds 1..=128 fold to {folded:#018x}"
    );
}

/// One mid-size run: 100 Zipf-skewed tenants, 600 jobs arriving faster
/// than a 24-executor fleet serves them (about half are refused at the
/// watermark), so the queue stays deep and most dispatch passes end
/// blocked.
struct Run {
    quantum: u64,
    warm_pool: bool,
    session_executors: u32,
    tenant_quota: u32,
    /// `(seconds, machine)` permanent machine failures.
    failures: &'static [(u64, u32)],
    seed: u64,
}

impl Run {
    fn report(&self) -> ServiceReport {
        let workload = ServiceWorkloadConfig {
            tenants: 100,
            jobs: 600,
            seed: self.seed,
            mean_interarrival: SimDuration::from_millis(350),
            diurnal: true,
            storms: 2,
            storm_factor: 6.0,
            storm_len: SimDuration::from_secs(8),
            tenant_skew: 1.1,
            high_priority_share: 0.2,
            shape: TraceConfig {
                runtime_median_secs: 1.5,
                runtime_sigma: 0.5,
                tasks_median: 8.0,
                tasks_sigma: 0.9,
                ..TraceConfig::default()
            },
        };
        let cfg = ServiceConfig {
            machines: 6,
            executors_per_machine: 4,
            session_executors: self.session_executors,
            tenant_quota: self.tenant_quota,
            queue_watermark: 128,
            drr_quantum: self.quantum,
            warm_pool: self.warm_pool,
            session_ttl: SimDuration::from_secs(10),
            ..ServiceConfig::default()
        };
        let mut sim = ServiceSim::new(cfg, generate_service_workload(&workload));
        sim.fail_machines(
            self.failures
                .iter()
                .map(|&(s, m)| (SimTime::ZERO + SimDuration::from_secs(s), MachineId(m)))
                .collect(),
        );
        sim.run().report
    }
}

const RUNS: [(Run, u64); 6] = [
    (
        Run {
            quantum: 1,
            warm_pool: true,
            session_executors: 4,
            tenant_quota: 8,
            failures: &[],
            seed: 11,
        },
        0x83c4_1c52_f390_5d9d,
    ),
    (
        Run {
            quantum: 2,
            warm_pool: false,
            session_executors: 4,
            tenant_quota: 8,
            failures: &[],
            seed: 12,
        },
        0xd263_476d_7ce6_8d21,
    ),
    (
        Run {
            quantum: 3,
            warm_pool: true,
            session_executors: 2,
            tenant_quota: 4,
            failures: &[(20, 1), (45, 4)],
            seed: 13,
        },
        0x7308_9c50_15dc_526c,
    ),
    (
        Run {
            quantum: 5,
            warm_pool: true,
            session_executors: 4,
            tenant_quota: 8,
            failures: &[(30, 2)],
            seed: 14,
        },
        0x9729_5637_673f_2f2f,
    ),
    (
        Run {
            quantum: 2,
            warm_pool: false,
            session_executors: 2,
            tenant_quota: 4,
            failures: &[(15, 0)],
            seed: 15,
        },
        0x23db_f091_be8b_2ecd,
    ),
    (
        Run {
            quantum: 1,
            warm_pool: true,
            session_executors: 2,
            tenant_quota: 4,
            failures: &[],
            seed: 16,
        },
        0x8239_b421_509e_cecc,
    ),
];

#[test]
fn small_quantum_runs_are_pinned() {
    for (i, (run, pin)) in RUNS.iter().enumerate() {
        let report = run.report();
        assert!(
            report.max_deficit_stall > 0,
            "run {i} (quantum {}) never stalled on its deficit",
            run.quantum
        );
        assert!(report.jobs_rejected > 0, "run {i} never hit the watermark");
        if !run.failures.is_empty() {
            assert!(report.sessions_killed > 0, "run {i} killed no session");
        }
        assert_eq!(
            report.digest(),
            *pin,
            "run {i} (quantum {}, stall {}) digest is {:#018x}",
            run.quantum,
            report.max_deficit_stall,
            report.digest()
        );
    }
}
