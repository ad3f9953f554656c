//! Edges of a job DAG and their pipeline/barrier classification.

use crate::ids::StageId;
use crate::stage::Stage;

/// Classification of a shuffle edge (§III-A1).
///
/// * `Pipeline` — the producing stage can stream rows to the consuming
///   stage as they are produced; both sides may be gang scheduled together.
/// * `Barrier` — the shuffle involves a global sort, so the consumer cannot
///   start before every producer task has finished. Barrier edges are the
///   cut points of job partitioning: producer and consumer always end up in
///   different graphlets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Streamable edge; endpoints share a graphlet.
    Pipeline,
    /// Sort-implying edge; endpoints are in different graphlets.
    Barrier,
}

impl EdgeKind {
    /// Returns `true` for [`EdgeKind::Barrier`].
    pub fn is_barrier(self) -> bool {
        self == EdgeKind::Barrier
    }
}

/// A directed data-dependency edge between two stages of the same job.
#[derive(Clone, Debug, PartialEq)]
pub struct Edge {
    /// Producing (upstream) stage.
    pub src: StageId,
    /// Consuming (downstream) stage.
    pub dst: StageId,
    /// Pipeline or barrier, per the shuffle-mode heuristics.
    pub kind: EdgeKind,
}

impl Edge {
    /// Creates an edge with an explicit kind.
    pub fn new(src: StageId, dst: StageId, kind: EdgeKind) -> Self {
        Edge { src, dst, kind }
    }

    /// The *shuffle edge size* of this edge as defined in §III-B: the number
    /// of (source task, sink task) pairs, i.e. `M × N` for `M` producer and
    /// `N` consumer tasks. Swift's adaptive shuffle selection keys off this
    /// number (thresholds 10 000 and 90 000 in production).
    pub fn shuffle_edge_size(&self, src_tasks: u32, dst_tasks: u32) -> u64 {
        src_tasks as u64 * dst_tasks as u64
    }
}

/// Classifies an edge from `src` to `dst` using the paper's heuristic.
///
/// An edge is a **barrier** exactly when the producing stage contains an
/// output-sorting operator (`MergeSort` / `SortBy`): its globally sorted
/// result is only complete once every producer task has finished, so it
/// cannot be streamed onward. This is the Fig. 4 rule verbatim — "J4, J6,
/// and J10 contain MergeSort operator, thus the edges between J4 and J6,
/// J6 and J10, J10 and R11 are barrier edges" — while R11's
/// `StreamedAggregate` (which merely *consumes* sorted input and emits in
/// order) leaves R11→R12 a pipeline edge, keeping R11 and R12 in one
/// graphlet as published.
///
/// The remaining §III-A1 operators (`MergeJoin`, `StreamedAggregate`,
/// `Window`) imply barriers indirectly: a planner satisfies their
/// sorted-input requirement ([`crate::Operator::requires_sorted_input`]) by
/// placing a `MergeSort` in the producing stage, which this rule then cuts.
pub fn classify_edge(src: &Stage, _dst: &Stage) -> EdgeKind {
    if src.sorts_output() {
        EdgeKind::Barrier
    } else {
        EdgeKind::Pipeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StageId;
    use crate::operator::Operator;
    use crate::stage::StageProfile;

    fn stage(id: u32, ops: Vec<Operator>) -> Stage {
        Stage {
            id: StageId(id),
            name: format!("S{id}"),
            operators: ops,
            task_count: 2,
            idempotent: true,
            profile: StageProfile::default(),
        }
    }

    #[test]
    fn producer_sort_makes_barrier() {
        let src = stage(
            0,
            vec![
                Operator::ShuffleRead,
                Operator::MergeJoin,
                Operator::MergeSort,
                Operator::ShuffleWrite,
            ],
        );
        let dst = stage(
            1,
            vec![
                Operator::ShuffleRead,
                Operator::HashJoin,
                Operator::ShuffleWrite,
            ],
        );
        assert_eq!(classify_edge(&src, &dst), EdgeKind::Barrier);
    }

    #[test]
    fn consumer_sort_does_not_cut() {
        // Only the producer side decides: a MergeSort in the consumer (it
        // merges already-sorted runs) does not prevent the producer from
        // streaming rows out. This mirrors Fig. 4's M5 -> J6 pipeline edge
        // even though J6 itself contains MergeSort/MergeJoin.
        let src = stage(
            0,
            vec![
                Operator::TableScan { table: "t".into() },
                Operator::ShuffleWrite,
            ],
        );
        let dst = stage(
            1,
            vec![
                Operator::ShuffleRead,
                Operator::MergeSort,
                Operator::ShuffleWrite,
            ],
        );
        assert_eq!(classify_edge(&src, &dst), EdgeKind::Pipeline);
    }

    #[test]
    fn streamed_aggregate_producer_does_not_cut() {
        // R11 in Fig. 4 contains StreamedAggregate yet R11 -> R12 is a
        // pipeline edge (they share graphlet 4): consuming sorted input and
        // emitting in order is streamable.
        let src = stage(
            0,
            vec![
                Operator::ShuffleRead,
                Operator::StreamedAggregate,
                Operator::ShuffleWrite,
            ],
        );
        let dst = stage(1, vec![Operator::ShuffleRead, Operator::AdhocSink]);
        assert_eq!(classify_edge(&src, &dst), EdgeKind::Pipeline);
    }

    #[test]
    fn streaming_pair_is_pipeline() {
        let src = stage(
            0,
            vec![
                Operator::TableScan { table: "t".into() },
                Operator::ShuffleWrite,
            ],
        );
        let dst = stage(
            1,
            vec![
                Operator::ShuffleRead,
                Operator::HashJoin,
                Operator::ShuffleWrite,
            ],
        );
        assert_eq!(classify_edge(&src, &dst), EdgeKind::Pipeline);
    }

    #[test]
    fn sort_by_producer_cuts() {
        let src = stage(
            0,
            vec![
                Operator::ShuffleRead,
                Operator::HashJoin,
                Operator::SortBy,
                Operator::ShuffleWrite,
            ],
        );
        let dst = stage(1, vec![Operator::ShuffleRead, Operator::AdhocSink]);
        assert_eq!(classify_edge(&src, &dst), EdgeKind::Barrier);
    }

    #[test]
    fn shuffle_edge_size_is_m_times_n() {
        let e = Edge::new(StageId(0), StageId(1), EdgeKind::Pipeline);
        assert_eq!(e.shuffle_edge_size(956, 403), 956 * 403);
        assert_eq!(e.shuffle_edge_size(0, 10), 0);
    }
}
