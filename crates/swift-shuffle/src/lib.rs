//! # swift-shuffle — adaptive memory-based in-network shuffling
//!
//! Implements §III-B of the Swift paper:
//!
//! * the three shuffle schemes — [`ShuffleScheme::Direct`],
//!   [`ShuffleScheme::Local`], [`ShuffleScheme::Remote`] — with their TCP
//!   connection-count formulas (`M×N`, `M+N+C(Y,2)`, `M+N×Y`) and extra
//!   memory-copy counts;
//! * adaptive scheme selection by shuffle edge size
//!   ([`AdaptiveThresholds`], production thresholds 10 000 / 90 000);
//! * Cache Worker memory management with one LRU spill policy,
//!   [`CacheWorkerMemory`]: the simulator runs it as the accounting model
//!   of every machine, and the execution engine's byte-moving
//!   [`CacheWorkerStore`] holds one and spills what it decides to one log
//!   file, so both spill the same segments.
//!
//! The crate has no separate engine transport: the engine moves
//! every shuffle payload through a [`CacheWorkerStore`].

#![warn(missing_docs)]

pub mod bytes;
mod memory;
mod scheme;
mod store;
mod versions;

pub use bytes::{Bytes, BytesMut};
pub use memory::{CacheWorkerMemory, InsertOutcome, SegmentKey, SegmentLocation};
pub use scheme::{AdaptiveThresholds, ExtraCopies, ShuffleMedium, ShuffleScheme};
pub use store::CacheWorkerStore;
pub use versions::{LedgerKey, StaleDelivery, VersionLedger};

use swift_dag::JobDag;

/// Plans the shuffle scheme of every edge of `dag` by its shuffle edge size
/// (`M × N`), returning one scheme per edge in `dag.edges()` order.
pub fn plan_shuffles(dag: &JobDag, thresholds: AdaptiveThresholds) -> Vec<ShuffleScheme> {
    dag.edges()
        .iter()
        .map(|e| thresholds.select(dag.edge_shuffle_size(e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_dag::{DagBuilder, Operator};

    #[test]
    fn plan_shuffles_buckets_by_edge_size() {
        let mut b = DagBuilder::new(1, "mix");
        let small = b
            .stage("small", 10)
            .op(Operator::TableScan { table: "t".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let mid = b
            .stage("mid", 200)
            .op(Operator::ShuffleRead)
            .op(Operator::ShuffleWrite)
            .build();
        let large = b
            .stage("large", 1000)
            .op(Operator::ShuffleRead)
            .op(Operator::ShuffleWrite)
            .build();
        let sink = b
            .stage("sink", 100)
            .op(Operator::ShuffleRead)
            .op(Operator::AdhocSink)
            .build();
        b.edge(small, mid); // 10 * 200 = 2 000 -> direct
        b.edge(mid, large); // 200 * 1000 = 200 000 -> local
        b.edge(large, sink); // 1000 * 100 = 100 000 -> local
        let dag = b.build().unwrap();
        let plan = plan_shuffles(&dag, AdaptiveThresholds::default());
        assert_eq!(
            plan,
            vec![
                ShuffleScheme::Direct,
                ShuffleScheme::Local,
                ShuffleScheme::Local
            ]
        );
    }
}
