//! The calibrated cost model shared by every simulated experiment.
//!
//! All timing constants of the reproduction live here, as associated
//! constants of one documented type, so the TPC-H, Terasort, trace-replay
//! and fault-injection experiments run against the same calibration
//! (DESIGN.md §5). Absolute values are calibrated to the paper's published
//! observations (e.g. "over 71 s" of Spark task launching on Q9, "hundreds
//! of milliseconds" per TCP connection under congestion, 3 % vs 0.02 %
//! retransmission rates); the *shape* of each figure is what the model
//! must reproduce.

use swift_shuffle::{ShuffleMedium, ShuffleScheme};
use swift_sim::SimDuration;

/// Timing and capacity constants of the simulated cluster: associated
/// constants, plus the one interval an experiment sweeps.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Heartbeat interval for small clusters (< [`CostModel::SMALL_CLUSTER_MACHINES`]),
    /// the failure-detection delay of a machine crash (§IV-A). The one
    /// setting: `ablate_heartbeat` sweeps it.
    pub heartbeat_small: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            heartbeat_small: SimDuration::from_secs(5),
        }
    }
}

impl CostModel {
    // ---- control plane ----
    /// Time for Swift Admin to deliver a cached execution plan to a
    /// pre-launched executor (§II-C step 10 / Fig. 9b "L" phase for Swift).
    pub const PLAN_DELIVERY: SimDuration = SimDuration::from_millis(50);
    /// Per-graphlet scheduling overhead inside Swift Admin (event handling,
    /// resource assignment).
    pub const SWIFT_SCHEDULE_OVERHEAD: SimDuration = SimDuration::from_millis(20);
    /// Per-stage task-launch overhead of the Spark baseline: package
    /// download plus executor launch. Calibrated so that launching the
    /// critical tasks of TPC-H Q9 costs ~71 s in total (Fig. 9b).
    pub const SPARK_STAGE_LAUNCH: SimDuration = SimDuration::from_secs(6);

    // ---- network ----
    /// NIC bandwidth per machine, bytes/second (10 GbE ≈ 1.25e9).
    pub const NET_BANDWIDTH: f64 = 1.25e9;
    /// Expected number of tasks concurrently sharing one machine's NIC;
    /// a task's transfer bandwidth is `NET_BANDWIDTH / NET_SHARE_TASKS`.
    pub const NET_SHARE_TASKS: f64 = 8.0;
    /// Uncongested TCP connection establishment time.
    pub const TCP_CONNECT_BASE: SimDuration = SimDuration::from_micros(374);
    /// Total concurrent connection count at which per-connection setup time
    /// has doubled (linear growth beyond).
    pub const TCP_CONGESTION_CONNS: f64 = 94_800.0;
    /// Cap on per-connection setup time ("hundreds of milliseconds in a
    /// congested network", §V-E).
    pub const TCP_CONNECT_MAX: SimDuration = SimDuration::from_millis(488);
    /// Baseline retransmission probability at `INCAST_FANIN` concurrent
    /// inbound connections per consumer.
    pub const RETX_BASE_RATE: f64 = 0.000146;
    /// Fan-in at which `RETX_BASE_RATE` applies; the rate grows
    /// cubically with fan-in beyond it (TCP incast collapses fast once the
    /// switch buffers saturate, \[54\]).
    pub const INCAST_FANIN: f64 = 50.0;
    /// Retransmission rate cap (paper: Direct Shuffle reaches 3 %).
    pub const RETX_RATE_CAP: f64 = 0.03;
    /// Transfer-time multiplier per unit of retransmission rate: effective
    /// time = ideal × (1 + RETX_PENALTY × rate). Timeout-driven recovery
    /// makes each retransmitted segment far more expensive than its size.
    pub const RETX_PENALTY: f64 = 48.85;
    /// Multiplier (< 1) applied to the Local Shuffle retransmission rate:
    /// Cache Workers aggregate many task-level streams into few large
    /// machine-level transfers, sidestepping incast (paper: < 0.02 %).
    pub const LOCAL_CHUNK_MITIGATION: f64 = 0.0112;
    /// Multiplier (< 1) applied to the retransmission rate of disk-staged
    /// shuffles: fetches of on-disk segments are paced by disk reads, so
    /// the incast burst is milder than memory-to-memory direct streaming.
    pub const DISK_FETCH_MITIGATION: f64 = 0.25;
    /// Store-and-forward slowdown of Local Shuffle transfers: data is
    /// staged at the writer-side Cache Worker before the CW→CW hop, so the
    /// effective transfer takes `(1 + LOCAL_STORE_FORWARD)` times longer.
    pub const LOCAL_STORE_FORWARD: f64 = 0.30;
    /// Accept-queue contention coefficient for Remote Shuffle reads: each
    /// source Cache Worker serves `N` puller connections, and queueing
    /// delay grows quadratically near saturation — the read path is
    /// charged `CW_ACCEPT_TIME × N²`.
    pub const CW_ACCEPT_TIME: SimDuration = SimDuration::from_micros(3);

    // ---- memory & disk ----
    /// Memory-copy bandwidth, bytes/second (one extra copy costs
    /// `bytes / MEM_COPY_BANDWIDTH`; Local Shuffle adds two copies, Remote
    /// one, §III-B).
    pub const MEM_COPY_BANDWIDTH: f64 = 5.0e9;
    /// Sequential disk bandwidth, bytes/second (7.2k SATA ≈ 1.2e8).
    pub const DISK_BANDWIDTH: f64 = 1.2e8;
    /// Per-file seek/open penalty for disk-based shuffle.
    pub const DISK_SEEK: SimDuration = SimDuration::from_millis(8);
    /// Cache Worker memory capacity per machine, bytes.
    pub const CACHE_WORKER_CAPACITY: u64 = 32 << 30;

    // ---- failure detection (§IV-A) ----
    /// Heartbeat interval for medium clusters.
    pub const HEARTBEAT_MEDIUM: SimDuration = SimDuration::from_secs(10);
    /// Heartbeat interval for large clusters (≥ `LARGE_CLUSTER_MACHINES`).
    pub const HEARTBEAT_LARGE: SimDuration = SimDuration::from_secs(15);
    /// Upper bound (exclusive) on machine count for the "small" tier.
    pub const SMALL_CLUSTER_MACHINES: u32 = 500;
    /// Lower bound (inclusive) on machine count for the "large" tier.
    pub const LARGE_CLUSTER_MACHINES: u32 = 5_000;
}

/// Breakdown of one shuffle edge's cost, per producer/consumer task.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShuffleCost {
    /// Shuffle-write time charged to each producer task.
    pub write_per_task: SimDuration,
    /// Shuffle-read time charged to each consumer task, including
    /// connection setup and retransmission penalties.
    pub read_per_task: SimDuration,
    /// Total TCP connections the scheme establishes for this edge.
    pub connections: u64,
    /// Modeled retransmission rate experienced by the transfer.
    pub retx_rate: f64,
}

impl CostModel {
    /// Per-task network bandwidth in bytes/second.
    pub fn per_task_net_bandwidth(&self) -> f64 {
        Self::NET_BANDWIDTH / Self::NET_SHARE_TASKS
    }

    /// Time for one task to move `bytes` over the network (no penalties).
    pub fn net_transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.per_task_net_bandwidth())
    }

    /// Time for one extra in-memory copy of `bytes`.
    pub fn mem_copy(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / Self::MEM_COPY_BANDWIDTH)
    }

    /// Sequential disk write/read of `bytes` plus one seek.
    pub fn disk_io(&self, bytes: u64) -> SimDuration {
        Self::DISK_SEEK + SimDuration::from_secs_f64(bytes as f64 / Self::DISK_BANDWIDTH)
    }

    /// Per-connection TCP setup time when `total_conns` connections are
    /// being established across the shuffle: grows linearly with
    /// congestion, capped at [`CostModel::TCP_CONNECT_MAX`].
    pub fn tcp_connect_time(&self, total_conns: u64) -> SimDuration {
        let factor = 1.0 + total_conns as f64 / Self::TCP_CONGESTION_CONNS;
        let t = Self::TCP_CONNECT_BASE.as_secs_f64() * factor;
        SimDuration::from_secs_f64(t.min(Self::TCP_CONNECT_MAX.as_secs_f64()))
    }

    /// Modeled retransmission rate for a consumer with `fan_in` concurrent
    /// inbound connections (cubic incast growth, capped).
    pub fn retx_rate(&self, fan_in: u64) -> f64 {
        let x = fan_in as f64 / Self::INCAST_FANIN;
        (Self::RETX_BASE_RATE * x * x * x).min(Self::RETX_RATE_CAP)
    }

    /// Heartbeat interval by cluster size (§IV-A: 5 s / 10 s / 15 s for
    /// small / medium / large clusters).
    pub fn heartbeat_interval(&self, machines: u32) -> SimDuration {
        if machines < Self::SMALL_CLUSTER_MACHINES {
            self.heartbeat_small
        } else if machines < Self::LARGE_CLUSTER_MACHINES {
            Self::HEARTBEAT_MEDIUM
        } else {
            Self::HEARTBEAT_LARGE
        }
    }

    /// Full cost of one shuffle edge.
    ///
    /// * `scheme` — Direct / Local / Remote (§III-B);
    /// * `medium` — memory (Swift) or disk (Spark / Bubble Execution
    ///   baselines);
    /// * `m`, `n` — producer and consumer task counts;
    /// * `y_src`, `y_dst` — distinct machines hosting producers/consumers;
    /// * `bytes_total` — total bytes crossing the edge.
    #[allow(clippy::too_many_arguments)]
    pub fn shuffle_edge_cost(
        &self,
        scheme: ShuffleScheme,
        medium: ShuffleMedium,
        m: u32,
        n: u32,
        y_src: u32,
        y_dst: u32,
        bytes_total: u64,
    ) -> ShuffleCost {
        let m64 = m.max(1) as u64;
        let n64 = n.max(1) as u64;
        let bytes_per_src = bytes_total / m64;
        let bytes_per_dst = bytes_total / n64;
        let connections = scheme.connection_count(m, n, y_src.max(y_dst));

        // Base write: serialize out of the producer. Disk-based shuffle
        // (Spark model) additionally spills every partition file.
        let mut write = self.mem_copy(bytes_per_src);
        if medium == ShuffleMedium::Disk {
            // One file per consumer partition is the classic sort-shuffle
            // pathology; we charge one aggregated file plus a per-partition
            // seek fraction to stay closer to modern consolidated shuffles.
            write += self.disk_io(bytes_per_src);
        }

        // Scheme-specific extra memory copies (§III-B: Local +2, Remote +1).
        let extra_copies = scheme.extra_memory_copies();
        write += self.mem_copy(bytes_per_src) * (extra_copies.writer_side as u64);

        // Read: connection setup + transfer (+ retx penalty) + copies (+ disk).
        let per_conn = self.tcp_connect_time(connections);
        let conns_per_reader: u64 = match scheme {
            ShuffleScheme::Direct => m64,
            ShuffleScheme::Remote => y_src.max(1) as u64,
            // Local Shuffle: the reader only talks to its machine-local
            // Cache Worker; CW↔CW connections amortize across all readers.
            ShuffleScheme::Local => 2,
        };
        let fan_in = match scheme {
            ShuffleScheme::Direct => m64,
            ShuffleScheme::Remote | ShuffleScheme::Local => y_src.max(1) as u64,
        };
        let mut retx = self.retx_rate(fan_in);
        if scheme == ShuffleScheme::Local {
            retx *= Self::LOCAL_CHUNK_MITIGATION;
        }
        if medium == ShuffleMedium::Disk {
            retx *= Self::DISK_FETCH_MITIGATION;
        }
        let mut transfer = self.net_transfer(bytes_per_dst) * (1.0 + retx * Self::RETX_PENALTY);
        if scheme == ShuffleScheme::Local {
            // Data is staged at the writer-side Cache Worker before the
            // CW→CW hop: store-and-forward stretches the transfer.
            transfer = transfer * (1.0 + Self::LOCAL_STORE_FORWARD);
        }
        let mut read = per_conn * conns_per_reader + transfer;
        read += self.mem_copy(bytes_per_dst) * (extra_copies.reader_side as u64);
        if scheme == ShuffleScheme::Remote {
            // Accept-queue delay at the serving Cache Workers, which each
            // handle connections from all N pullers; queueing grows
            // quadratically as the accept queues saturate.
            read += Self::CW_ACCEPT_TIME * (n64 * n64);
        }
        if medium == ShuffleMedium::Disk {
            read += self.disk_io(bytes_per_dst);
        }

        ShuffleCost {
            write_per_task: write,
            read_per_task: read,
            connections,
            retx_rate: retx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(cm: &CostModel, scheme: ShuffleScheme, m: u32, n: u32, y: u32, bytes: u64) -> f64 {
        let c = cm.shuffle_edge_cost(scheme, ShuffleMedium::Memory, m, n, y, y, bytes);
        c.write_per_task.as_secs_f64() + c.read_per_task.as_secs_f64()
    }

    /// The Fig. 12 orderings must fall out of the raw cost model.
    #[test]
    fn direct_wins_small_shuffles() {
        let cm = CostModel::default();
        // 45 x 45 ≈ 2 000 edges: small (< 10 000); ~0.5 MB per task pair.
        let bytes = 45 * 45 * 500_000;
        let d = cost(&cm, ShuffleScheme::Direct, 45, 45, 45, bytes);
        let l = cost(&cm, ShuffleScheme::Local, 45, 45, 45, bytes);
        let r = cost(&cm, ShuffleScheme::Remote, 45, 45, 45, bytes);
        assert!(d < l, "direct {d} vs local {l}");
        assert!(d < r, "direct {d} vs remote {r}");
    }

    #[test]
    fn remote_wins_medium_shuffles() {
        let cm = CostModel::default();
        // 200 x 200 = 40 000 edges: medium (10 000 ..= 90 000).
        let bytes = 200 * 200 * 500_000;
        let d = cost(&cm, ShuffleScheme::Direct, 200, 200, 100, bytes);
        let l = cost(&cm, ShuffleScheme::Local, 200, 200, 100, bytes);
        let r = cost(&cm, ShuffleScheme::Remote, 200, 200, 100, bytes);
        assert!(r < d, "remote {r} vs direct {d}");
        assert!(r <= l * 1.001, "remote {r} vs local {l}");
    }

    #[test]
    fn remote_competitive_across_medium_range() {
        // Across the medium bucket Remote beats Direct comfortably and
        // stays within a whisker of Local (the paper's medium gap between
        // the two staged schemes is only 3.8%).
        let cm = CostModel::default();
        let bytes = 230 * 230 * 500_000;
        let d = cost(&cm, ShuffleScheme::Direct, 230, 230, 100, bytes);
        let l = cost(&cm, ShuffleScheme::Local, 230, 230, 100, bytes);
        let r = cost(&cm, ShuffleScheme::Remote, 230, 230, 100, bytes);
        assert!(r < d, "remote {r} vs direct {d}");
        assert!(r < l * 1.01, "remote {r} vs local {l}");
    }

    #[test]
    fn local_wins_large_shuffles() {
        let cm = CostModel::default();
        // 500 x 500 = 250 000 edges: large (> 90 000).
        let bytes = 500 * 500 * 500_000;
        let d = cost(&cm, ShuffleScheme::Direct, 500, 500, 100, bytes);
        let l = cost(&cm, ShuffleScheme::Local, 500, 500, 100, bytes);
        let r = cost(&cm, ShuffleScheme::Remote, 500, 500, 100, bytes);
        assert!(l < d, "local {l} vs direct {d}");
        assert!(l < r, "local {l} vs remote {r}");
    }

    #[test]
    fn disk_medium_is_slower_than_memory() {
        let cm = CostModel::default();
        let mem = cm.shuffle_edge_cost(
            ShuffleScheme::Direct,
            ShuffleMedium::Memory,
            50,
            50,
            20,
            20,
            4 << 30,
        );
        let disk = cm.shuffle_edge_cost(
            ShuffleScheme::Direct,
            ShuffleMedium::Disk,
            50,
            50,
            20,
            20,
            4 << 30,
        );
        assert!(disk.write_per_task > mem.write_per_task);
        assert!(disk.read_per_task > mem.read_per_task);
    }

    #[test]
    fn connect_time_grows_then_caps() {
        let cm = CostModel::default();
        let a = cm.tcp_connect_time(100);
        let b = cm.tcp_connect_time(100_000);
        let c = cm.tcp_connect_time(1_000_000_000);
        assert!(a < b);
        assert!(b <= CostModel::TCP_CONNECT_MAX);
        assert_eq!(c, CostModel::TCP_CONNECT_MAX);
    }

    #[test]
    fn retx_rate_caps_at_3_percent() {
        let cm = CostModel::default();
        assert!(cm.retx_rate(10) < 0.001);
        assert_eq!(cm.retx_rate(100_000), 0.03);
        // direct shuffle with hundreds of producers reaches the cap
        assert_eq!(cm.retx_rate(600), 0.03);
        // staged schemes with ~100 source machines stay well below it
        assert!(cm.retx_rate(100) < 0.005);
        assert!(cm.retx_rate(100) * CostModel::LOCAL_CHUNK_MITIGATION < 0.0005);
    }

    #[test]
    fn heartbeat_tiers_match_paper() {
        let cm = CostModel::default();
        assert_eq!(cm.heartbeat_interval(100), SimDuration::from_secs(5));
        assert_eq!(cm.heartbeat_interval(2_000), SimDuration::from_secs(10));
        assert_eq!(cm.heartbeat_interval(10_000), SimDuration::from_secs(15));
    }
}
