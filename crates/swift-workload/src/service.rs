//! Multi-tenant arrival generator for the `swift-service` front door.
//!
//! Scales the [`crate::trace`] generator up to service shape: thousands of
//! tenants submitting tens of thousands of jobs, with a Poisson base
//! process whose rate is modulated by a diurnal load curve and seeded
//! arrival storms (the "scheduling storms" regime the service's admission
//! control and DRR fairness are built for). Everything is a pure function
//! of the config — same seed, byte-identical job list.

use std::sync::Arc;

use swift_dag::JobDag;
use swift_sim::{SimDuration, SimRng, SimTime, ZipfTable};

use crate::trace::{trace_job_dag, TraceConfig};

/// Admission priority band of a service job. High-priority jobs overtake
/// normal ones within their tenant's queue (never across tenants — DRR
/// owns cross-tenant ordering).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobPriority {
    /// Front of the tenant queue.
    High,
    /// Default band.
    Normal,
}

/// One job submitted to the service front door.
#[derive(Clone, Debug)]
pub struct ServiceJob {
    /// Owning tenant (dense ids `0..tenants`).
    pub tenant: u32,
    /// Admission priority band.
    pub priority: JobPriority,
    /// The job DAG (shared, like [`crate::TraceJob`]).
    pub dag: Arc<JobDag>,
    /// Submission time.
    pub submit_at: SimTime,
    /// DRR cost of the job: its total task count.
    pub cost: u64,
}

/// Configuration of the multi-tenant service workload.
#[derive(Clone, Debug)]
pub struct ServiceWorkloadConfig {
    /// Number of tenants (dense ids `0..tenants`).
    pub tenants: u32,
    /// Total jobs across all tenants.
    pub jobs: usize,
    /// RNG seed (the whole workload is deterministic in it).
    pub seed: u64,
    /// Fleet-wide mean inter-arrival time at load factor 1.0.
    pub mean_interarrival: SimDuration,
    /// Modulate the arrival rate by the diurnal load curve (one "day"
    /// spans the workload's expected duration).
    pub diurnal: bool,
    /// Number of seeded arrival storms (burst windows).
    pub storms: u32,
    /// Rate multiplier inside a storm window.
    pub storm_factor: f64,
    /// Storm window length.
    pub storm_len: SimDuration,
    /// Zipf exponent of the tenant traffic split. `0.0` selects the
    /// deterministic round-robin split (`job % tenants`), which gives
    /// every tenant exactly the same demand — the shape the fairness
    /// tests and the golden scenario pin.
    pub tenant_skew: f64,
    /// Fraction of jobs submitted in the high-priority band.
    pub high_priority_share: f64,
    /// DAG-shape knobs, shared with the single-tenant trace generator
    /// (its `jobs`/`seed`/`mean_interarrival` fields are ignored here).
    pub shape: TraceConfig,
}

impl Default for ServiceWorkloadConfig {
    fn default() -> Self {
        ServiceWorkloadConfig {
            tenants: 50,
            jobs: 500,
            seed: 20210419,
            mean_interarrival: SimDuration::from_millis(400),
            diurnal: true,
            storms: 2,
            storm_factor: 6.0,
            storm_len: SimDuration::from_secs(10),
            tenant_skew: 1.1,
            high_priority_share: 0.15,
            shape: TraceConfig::default(),
        }
    }
}

/// Piecewise-linear diurnal load curve: relative rate over one "day"
/// (fraction of the workload's expected span), trough at night, plateau
/// across the working hours. Piecewise-linear rather than sinusoidal so
/// the factor is plain f64 arithmetic.
const DIURNAL_CURVE: [f64; 12] = [
    0.35, 0.30, 0.40, 0.70, 1.10, 1.50, 1.60, 1.55, 1.30, 1.00, 0.70, 0.45,
];

/// Relative arrival rate at `frac` of the day (wraps past 1.0).
fn diurnal_factor(frac: f64) -> f64 {
    let n = DIURNAL_CURVE.len() as f64;
    let x = (frac.rem_euclid(1.0)) * n;
    let i = (x as usize) % DIURNAL_CURVE.len();
    let j = (i + 1) % DIURNAL_CURVE.len();
    let t = x - x.floor();
    DIURNAL_CURVE[i] * (1.0 - t) + DIURNAL_CURVE[j] * t
}

/// Generates the multi-tenant service workload: `jobs` arrivals ordered
/// by submission time, tenants assigned by the Zipf split (or round-robin
/// at `tenant_skew == 0.0`), DAGs drawn from the trace-shape
/// distributions.
pub fn generate_service_workload(cfg: &ServiceWorkloadConfig) -> Vec<ServiceJob> {
    assert!(
        cfg.tenants > 0,
        "service workload needs at least one tenant"
    );
    let mut rng = SimRng::new(cfg.seed);

    // Storm windows are sampled up front from a forked stream so the
    // arrival/DAG sampling sequence is independent of the storm count.
    let mut storm_rng = rng.fork(0x5702_13AD);
    let expected_span = cfg.mean_interarrival.as_secs_f64() * cfg.jobs as f64;
    let mut storms: Vec<(f64, f64)> = (0..cfg.storms)
        .map(|_| {
            let start = storm_rng.range_f64(0.0, expected_span.max(1.0));
            (start, start + cfg.storm_len.as_secs_f64())
        })
        .collect();
    storms.sort_by(|a, b| a.partial_cmp(b).expect("storm times are finite"));

    let zipf =
        (cfg.tenant_skew != 0.0).then(|| ZipfTable::new(u64::from(cfg.tenants), cfg.tenant_skew));
    let mut out = Vec::with_capacity(cfg.jobs);
    let mut clock = 0.0f64;
    for j in 0..cfg.jobs {
        // Thinning-free modulated Poisson: step by an exponential whose
        // mean is scaled by the instantaneous rate factor at the current
        // clock. Factors are bounded well away from zero, so the step is
        // always finite.
        let mut factor = 1.0;
        if cfg.diurnal {
            factor *= diurnal_factor(clock / expected_span.max(1.0));
        }
        if storms.iter().any(|&(s, e)| clock >= s && clock < e) {
            factor *= cfg.storm_factor.max(1.0);
        }
        clock += rng.exponential(cfg.mean_interarrival.as_secs_f64()) / factor;

        let tenant = match &zipf {
            Some(table) => (table.sample(&mut rng) - 1) as u32,
            None => (j as u32) % cfg.tenants,
        };
        let priority = if rng.chance(cfg.high_priority_share) {
            JobPriority::High
        } else {
            JobPriority::Normal
        };
        let dag = Arc::new(trace_job_dag(j as u64, &mut rng, &cfg.shape));
        let cost = dag.total_tasks();
        out.push(ServiceJob {
            tenant,
            priority,
            dag,
            submit_at: SimTime::ZERO + SimDuration::from_secs_f64(clock),
            cost,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let cfg = ServiceWorkloadConfig {
            jobs: 200,
            ..ServiceWorkloadConfig::default()
        };
        let a = generate_service_workload(&cfg);
        let b = generate_service_workload(&cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn arrivals_are_ordered_and_tenants_in_range() {
        let cfg = ServiceWorkloadConfig {
            tenants: 17,
            jobs: 300,
            ..ServiceWorkloadConfig::default()
        };
        let jobs = generate_service_workload(&cfg);
        assert_eq!(jobs.len(), 300);
        for w in jobs.windows(2) {
            assert!(w[0].submit_at <= w[1].submit_at);
        }
        assert!(jobs.iter().all(|j| j.tenant < 17));
        assert!(jobs
            .iter()
            .all(|j| j.cost == j.dag.total_tasks() && j.cost > 0));
    }

    #[test]
    fn round_robin_split_is_exactly_uniform() {
        let cfg = ServiceWorkloadConfig {
            tenants: 3,
            jobs: 12,
            tenant_skew: 0.0,
            ..ServiceWorkloadConfig::default()
        };
        let jobs = generate_service_workload(&cfg);
        let mut counts = [0u32; 3];
        for j in &jobs {
            counts[j.tenant as usize] += 1;
        }
        assert_eq!(counts, [4, 4, 4]);
    }

    #[test]
    fn zipf_split_skews_towards_low_tenants() {
        let cfg = ServiceWorkloadConfig {
            tenants: 20,
            jobs: 2_000,
            tenant_skew: 1.2,
            ..ServiceWorkloadConfig::default()
        };
        let jobs = generate_service_workload(&cfg);
        let head = jobs.iter().filter(|j| j.tenant == 0).count();
        let tail = jobs.iter().filter(|j| j.tenant == 19).count();
        assert!(
            head > tail,
            "zipf head {head} should out-submit tail {tail}"
        );
    }

    #[test]
    fn storms_compress_interarrivals() {
        let base = ServiceWorkloadConfig {
            jobs: 2_000,
            diurnal: false,
            storms: 0,
            tenant_skew: 0.0,
            ..ServiceWorkloadConfig::default()
        };
        let stormy = ServiceWorkloadConfig {
            storms: 3,
            storm_factor: 10.0,
            storm_len: SimDuration::from_secs(60),
            ..base.clone()
        };
        let calm_span = generate_service_workload(&base).last().unwrap().submit_at;
        let storm_span = generate_service_workload(&stormy).last().unwrap().submit_at;
        assert!(
            storm_span < calm_span,
            "storm windows should compress the overall span ({storm_span:?} vs {calm_span:?})"
        );
    }
}
