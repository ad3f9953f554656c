//! The three in-network shuffle schemes and adaptive selection (§III-B).

use std::fmt;

/// How shuffle data physically moves between producer and consumer tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShuffleScheme {
    /// Producers send directly to consumers: fewest memory copies, but
    /// `M × N` TCP connections — incast and retransmission trouble at scale.
    Direct,
    /// Producers write to the machine-local Cache Worker; Cache Workers
    /// exchange data machine-to-machine and consumers read from their local
    /// Cache Worker: fewest connections (`M + N + C(Y,2)`), two extra
    /// memory copies.
    Local,
    /// Producers write to the machine-local Cache Worker; consumers pull
    /// directly from the producer-side Cache Workers: `M + N × Y`
    /// connections, one extra memory copy.
    Remote,
}

/// Where intermediate shuffle data is staged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShuffleMedium {
    /// Swift's memory-based in-network shuffling.
    Memory,
    /// Disk-staged shuffling (the Spark / Bubble Execution baselines, and
    /// Swift's LRU spill path under memory pressure).
    Disk,
}

/// Extra memory copies a scheme introduces relative to Direct Shuffle
/// (§III-B: Local adds two, Remote adds one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtraCopies {
    /// Copies charged on the producer side (into the local Cache Worker).
    pub writer_side: u8,
    /// Copies charged on the consumer side (out of a Cache Worker).
    pub reader_side: u8,
}

impl ShuffleScheme {
    /// Total TCP connections needed for `m` producers, `n` consumers spread
    /// over `y` machines (§III-B):
    ///
    /// * Direct: `M × N`
    /// * Local: `M + N + C(Y, 2)` at most (executors↔local Cache Worker
    ///   plus pairwise Cache Worker links)
    /// * Remote: `M + N × Y` at most
    pub fn connection_count(self, m: u32, n: u32, y: u32) -> u64 {
        let (m, n, y) = (m as u64, n as u64, y as u64);
        match self {
            ShuffleScheme::Direct => m * n,
            ShuffleScheme::Local => m + n + y * y.saturating_sub(1) / 2,
            ShuffleScheme::Remote => m + n * y,
        }
    }

    /// Extra memory copies relative to Direct Shuffle: Local stages at both
    /// the writer- and reader-side Cache Workers (+2); Remote stages only at
    /// the writer side (+1).
    pub fn extra_memory_copies(self) -> ExtraCopies {
        match self {
            ShuffleScheme::Direct => ExtraCopies {
                writer_side: 0,
                reader_side: 0,
            },
            ShuffleScheme::Local => ExtraCopies {
                writer_side: 1,
                reader_side: 1,
            },
            ShuffleScheme::Remote => ExtraCopies {
                writer_side: 1,
                reader_side: 0,
            },
        }
    }

    /// Whether the scheme stages data in Cache Workers (Local and Remote).
    /// Only staged schemes can serve barrier edges, where the consumer may
    /// not even be scheduled when the producer finishes (§III-B), and only
    /// they survive producer-task completion for fault-recovery reuse.
    pub fn uses_cache_worker(self) -> bool {
        !matches!(self, ShuffleScheme::Direct)
    }

    /// Stable lowercase label, used by trace exporters and CLIs.
    pub fn as_str(self) -> &'static str {
        match self {
            ShuffleScheme::Direct => "direct",
            ShuffleScheme::Local => "local",
            ShuffleScheme::Remote => "remote",
        }
    }
}

impl fmt::Display for ShuffleScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Shuffle-size thresholds for adaptive scheme selection. The paper's
/// production setting is 10 000 / 90 000 shuffle edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveThresholds {
    /// Edges strictly below this use Direct Shuffle.
    pub small: u64,
    /// Edges strictly above this use Local Shuffle; in between, Remote.
    pub large: u64,
}

impl Default for AdaptiveThresholds {
    fn default() -> Self {
        AdaptiveThresholds {
            small: 10_000,
            large: 90_000,
        }
    }
}

impl AdaptiveThresholds {
    /// Selects the scheme for a shuffle of `edge_size` = `M × N` task pairs
    /// (§III-B: "Direct Shuffle is used for small-sized shuffle, Local
    /// Shuffle for huge-sized shuffle, and Remote Shuffle for middle-sized
    /// shuffle").
    pub fn select(self, edge_size: u64) -> ShuffleScheme {
        if edge_size < self.small {
            ShuffleScheme::Direct
        } else if edge_size <= self.large {
            ShuffleScheme::Remote
        } else {
            ShuffleScheme::Local
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_formulas_match_paper() {
        // M=100, N=200, Y=10
        assert_eq!(ShuffleScheme::Direct.connection_count(100, 200, 10), 20_000);
        assert_eq!(
            ShuffleScheme::Local.connection_count(100, 200, 10),
            100 + 200 + 45
        );
        assert_eq!(
            ShuffleScheme::Remote.connection_count(100, 200, 10),
            100 + 200 * 10
        );
    }

    #[test]
    fn connection_ordering_at_scale() {
        // Local < Remote < Direct for realistically large shuffles.
        let (m, n, y) = (1_000, 1_000, 100);
        let d = ShuffleScheme::Direct.connection_count(m, n, y);
        let l = ShuffleScheme::Local.connection_count(m, n, y);
        let r = ShuffleScheme::Remote.connection_count(m, n, y);
        assert!(l < r, "local {l} < remote {r}");
        assert!(r < d, "remote {r} < direct {d}");
    }

    #[test]
    fn copy_counts_match_paper() {
        assert_eq!(
            ShuffleScheme::Direct.extra_memory_copies(),
            ExtraCopies {
                writer_side: 0,
                reader_side: 0
            }
        );
        assert_eq!(
            ShuffleScheme::Local.extra_memory_copies(),
            ExtraCopies {
                writer_side: 1,
                reader_side: 1
            }
        );
        assert_eq!(
            ShuffleScheme::Remote.extra_memory_copies(),
            ExtraCopies {
                writer_side: 1,
                reader_side: 0
            }
        );
    }

    #[test]
    fn custom_thresholds() {
        let t = AdaptiveThresholds {
            small: 10,
            large: 100,
        };
        assert_eq!(t.select(9), ShuffleScheme::Direct);
        assert_eq!(t.select(10), ShuffleScheme::Remote);
        assert_eq!(t.select(101), ShuffleScheme::Local);
    }

    #[test]
    fn only_staged_schemes_use_cache_workers() {
        assert!(!ShuffleScheme::Direct.uses_cache_worker());
        assert!(ShuffleScheme::Local.uses_cache_worker());
        assert!(ShuffleScheme::Remote.uses_cache_worker());
    }
}
