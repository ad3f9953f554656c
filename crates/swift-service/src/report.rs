//! The service run report: counts, fairness and tail-latency evidence.

use swift_sim::SimTime;

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
/// [`ServiceReport::digest`]-identical) for a given `(workload, config)`
/// across shard counts and the templates flag.
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
    /// FNV fold of every per-job `RunReport` digest, in completion order
    /// — ties the service digest to the full inner scheduling behavior.
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

    /// A stable 64-bit digest (FNV-1a over the `Debug` rendering), same
    /// construction as `RunReport::digest`: equal iff byte-identical.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in format!("{self:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// What [`crate::ServiceSim::run`] returns: the deterministic report plus
/// template counters kept *outside* it, so the report stays byte-identical
/// whether template reuse is on or off.
#[derive(Clone, Debug)]
pub struct ServiceRun {
    /// The deterministic report.
    pub report: ServiceReport,
    /// Template-cache lookups: one per inner simulation.
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
}
