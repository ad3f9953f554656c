//! The service run report: counts, fairness and tail-latency evidence.

use swift_sim::{Fnv64, SimTime};

/// Nearest-rank percentile summary over a raw sample set, in microseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub samples: u64,
    /// Arithmetic mean.
    pub mean_us: u64,
    /// 50th percentile.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
    /// Largest sample.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarizes raw microsecond samples (order irrelevant; sorted
    /// internally). Empty input yields the all-zero summary.
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        // Nearest-rank: p(q) = sorted[ceil(q * n) - 1], computed in
        // integer arithmetic (q expressed per-mille).
        let rank = |permille: usize| -> u64 {
            let r = (permille * n).div_ceil(1000).max(1);
            samples[r - 1]
        };
        let sum: u64 = samples.iter().sum();
        LatencySummary {
            samples: n as u64,
            mean_us: sum / n as u64,
            p50_us: rank(500),
            p90_us: rank(900),
            p99_us: rank(990),
            p999_us: rank(999),
            max_us: samples[n - 1],
        }
    }
}

/// Per-tenant accounting, indexed by tenant id in [`ServiceReport::tenants`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantReport {
    /// Jobs the tenant submitted.
    pub submitted: u64,
    /// Jobs admitted into the queue.
    pub admitted: u64,
    /// Jobs rejected at the watermark.
    pub rejected: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Job restarts after machine failures.
    pub restarted: u64,
    /// Dispatches that reused a warm session.
    pub warm_hits: u64,
    /// Dispatches that paid a cold registration.
    pub cold_starts: u64,
}

/// The deterministic output of one service run. Byte-identical (and thus
/// [`ServiceReport::digest`]-identical) for a given `(workload, config)`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceReport {
    /// Jobs that arrived at the front door.
    pub jobs_submitted: u64,
    /// Jobs admitted (`jobs_submitted == jobs_admitted + jobs_rejected`).
    pub jobs_admitted: u64,
    /// Jobs rejected with a retry-after hint.
    pub jobs_rejected: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Requeues forced by machine failures.
    pub jobs_restarted: u64,
    /// Warm-session dispatches.
    pub warm_hits: u64,
    /// Cold session registrations.
    pub cold_starts: u64,
    /// Warm sessions reclaimed by the idle TTL.
    pub sessions_expired: u64,
    /// Sessions destroyed by machine failures.
    pub sessions_killed: u64,
    /// Highest queue depth observed.
    pub peak_queue_depth: u32,
    /// Longest run of consecutive deficit-blocked DRR visits any tenant
    /// experienced (fairness-bound evidence).
    pub max_deficit_stall: u32,
    /// Submission-to-start scheduling latency over admitted jobs.
    pub sched_latency: LatencySummary,
    /// Completion time of the last job.
    pub makespan: SimTime,
    /// Events processed by the service loop itself.
    pub events: u64,
    /// Events processed by all per-job simulations combined.
    pub sim_events: u64,
    /// Fold of every per-job `RunReport` digest, in dispatch order — ties
    /// the service digest to the full inner scheduling behavior.
    pub jobs_digest: u64,
    /// Per-tenant accounting, tenant-id order.
    pub tenants: Vec<TenantReport>,
}

impl ServiceReport {
    /// Sustained completion throughput in jobs per simulated second.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.jobs_completed as f64 / secs
        }
    }

    /// A stable 64-bit digest, same construction as `RunReport::digest`:
    /// every field folded word by word through [`Fnv64`]. Equal reports
    /// have equal digests, so unequal digests prove unequal reports.
    pub fn digest(&self) -> u64 {
        // Destructured without `..`, like `RunReport::digest`: a new field
        // does not compile until it is hashed.
        let ServiceReport {
            jobs_submitted,
            jobs_admitted,
            jobs_rejected,
            jobs_completed,
            jobs_restarted,
            warm_hits,
            cold_starts,
            sessions_expired,
            sessions_killed,
            peak_queue_depth,
            max_deficit_stall,
            sched_latency,
            makespan,
            events,
            sim_events,
            jobs_digest,
            tenants,
        } = self;
        let LatencySummary {
            samples,
            mean_us,
            p50_us,
            p90_us,
            p99_us,
            p999_us,
            max_us,
        } = sched_latency;
        let mut h = Fnv64::new();
        for word in [
            *jobs_submitted,
            *jobs_admitted,
            *jobs_rejected,
            *jobs_completed,
            *jobs_restarted,
            *warm_hits,
            *cold_starts,
            *sessions_expired,
            *sessions_killed,
            u64::from(*peak_queue_depth),
            u64::from(*max_deficit_stall),
            *samples,
            *mean_us,
            *p50_us,
            *p90_us,
            *p99_us,
            *p999_us,
            *max_us,
            makespan.as_micros(),
            *events,
            *sim_events,
            *jobs_digest,
            tenants.len() as u64,
        ] {
            h.eat(word);
        }
        for tenant in tenants {
            let TenantReport {
                submitted,
                admitted,
                rejected,
                completed,
                restarted,
                warm_hits,
                cold_starts,
            } = tenant;
            for word in [
                *submitted,
                *admitted,
                *rejected,
                *completed,
                *restarted,
                *warm_hits,
                *cold_starts,
            ] {
                h.eat(word);
            }
        }
        h.finish()
    }
}

/// What [`crate::ServiceSim::run`] returns: the deterministic report plus
/// the fleet template cache's counters, kept *outside* it: the report
/// describes what the fleet did, the counters how cheaply the
/// controller planned it.
#[derive(Clone, Debug)]
pub struct ServiceRun {
    /// The deterministic report.
    pub report: ServiceReport,
    /// Template-cache lookups: one per started job (one per inner run).
    pub template_lookups: u64,
    /// Template-cache hits.
    pub template_hits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_nearest_rank() {
        let s = LatencySummary::from_samples((1..=100).collect());
        assert_eq!(s.samples, 100);
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p90_us, 90);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.p999_us, 100);
        assert_eq!(s.max_us, 100);
        assert_eq!(s.mean_us, 50);
    }

    #[test]
    fn latency_summary_single_and_empty() {
        assert_eq!(
            LatencySummary::from_samples(vec![]),
            LatencySummary::default()
        );
        let one = LatencySummary::from_samples(vec![7]);
        assert_eq!(one.p50_us, 7);
        assert_eq!(one.p999_us, 7);
        assert_eq!(one.max_us, 7);
    }

    #[test]
    fn digest_moves_with_every_field() {
        let base = ServiceReport {
            jobs_submitted: 0,
            jobs_admitted: 0,
            jobs_rejected: 0,
            jobs_completed: 0,
            jobs_restarted: 0,
            warm_hits: 0,
            cold_starts: 0,
            sessions_expired: 0,
            sessions_killed: 0,
            peak_queue_depth: 0,
            max_deficit_stall: 0,
            sched_latency: LatencySummary::default(),
            makespan: SimTime::ZERO,
            events: 0,
            sim_events: 0,
            jobs_digest: 0,
            tenants: vec![TenantReport::default()],
        };
        type Perturb = fn(&mut ServiceReport);
        let perturbations: &[(&str, Perturb)] = &[
            ("jobs_submitted", |r| r.jobs_submitted = 1),
            ("jobs_admitted", |r| r.jobs_admitted = 1),
            ("jobs_rejected", |r| r.jobs_rejected = 1),
            ("jobs_completed", |r| r.jobs_completed = 1),
            ("jobs_restarted", |r| r.jobs_restarted = 1),
            ("warm_hits", |r| r.warm_hits = 1),
            ("cold_starts", |r| r.cold_starts = 1),
            ("sessions_expired", |r| r.sessions_expired = 1),
            ("sessions_killed", |r| r.sessions_killed = 1),
            ("peak_queue_depth", |r| r.peak_queue_depth = 1),
            ("max_deficit_stall", |r| r.max_deficit_stall = 1),
            ("samples", |r| r.sched_latency.samples = 1),
            ("mean_us", |r| r.sched_latency.mean_us = 1),
            ("p50_us", |r| r.sched_latency.p50_us = 1),
            ("p90_us", |r| r.sched_latency.p90_us = 1),
            ("p99_us", |r| r.sched_latency.p99_us = 1),
            ("p999_us", |r| r.sched_latency.p999_us = 1),
            ("max_us", |r| r.sched_latency.max_us = 1),
            ("makespan", |r| {
                r.makespan = SimTime::ZERO + swift_sim::SimDuration::from_micros(1)
            }),
            ("events", |r| r.events = 1),
            ("sim_events", |r| r.sim_events = 1),
            ("jobs_digest", |r| r.jobs_digest = 1),
            ("tenants", |r| r.tenants.push(TenantReport::default())),
            ("tenant.submitted", |r| r.tenants[0].submitted = 1),
            ("tenant.admitted", |r| r.tenants[0].admitted = 1),
            ("tenant.rejected", |r| r.tenants[0].rejected = 1),
            ("tenant.completed", |r| r.tenants[0].completed = 1),
            ("tenant.restarted", |r| r.tenants[0].restarted = 1),
            ("tenant.warm_hits", |r| r.tenants[0].warm_hits = 1),
            ("tenant.cold_starts", |r| r.tenants[0].cold_starts = 1),
        ];
        let mut seen = vec![("nothing", base.digest())];
        for &(field, perturb) in perturbations {
            let mut r = base.clone();
            perturb(&mut r);
            let digest = r.digest();
            for &(other, other_digest) in &seen {
                assert_ne!(digest, other_digest, "perturbing {field} and {other}");
            }
            seen.push((field, digest));
        }
    }
}
