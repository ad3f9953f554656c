//! Relational operators a Swift stage can contain.
//!
//! The paper (§II-A) states that Swift "supports all typical SQL operators
//! such as sort merge join, sort aggregate, window, order by, and so on".
//! What matters structurally is which operators imply a *global sort*
//! crossing a stage boundary: per §III-A1, edges whose shuffle involves
//! `StreamedAggregate`, `MergeJoin`, `Window`, `SortBy` or `MergeSort`
//! cannot be streamed and become **barrier** edges.

use std::fmt;

/// The kind of operator in a stage's operator chain.
///
/// Operators are deliberately *descriptors* here: `swift-dag` only needs
/// enough structure to classify edges and partition jobs. The executable
/// counterparts (with expressions, key extractors, etc.) live in
/// `swift-engine`; the cost-model counterparts live in `swift-cluster`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Operator {
    /// Scans a base table (or a table partition) from storage.
    TableScan {
        /// Name of the table being scanned.
        table: String,
    },
    /// Filters rows by a predicate (predicate itself lives in the engine plan).
    Filter,
    /// Projects/computes output columns.
    Project,
    /// Hash join: pipelineable, no sort requirement.
    HashJoin,
    /// Sort-merge join: consumes sorted runs, a global-sort operator.
    MergeJoin,
    /// Aggregation over hash tables: pipelineable.
    HashAggregate,
    /// Aggregation over sorted input ("sort aggregate"): a global-sort operator.
    StreamedAggregate,
    /// Window function over sorted partitions: a global-sort operator.
    Window,
    /// Produces sorted output partitions ("order by"): a global-sort operator.
    SortBy,
    /// Merges sorted runs received from predecessor tasks: a global-sort operator.
    MergeSort,
    /// Caps the number of output rows.
    Limit {
        /// Maximum number of rows to emit.
        limit: u64,
    },
    /// Writes shuffle partitions for successor stages.
    ShuffleWrite,
    /// Reads shuffle partitions produced by predecessor stages.
    ShuffleRead,
    /// Terminal sink streaming results back to the client ("adhoc sink").
    AdhocSink,
    /// Terminal sink writing results to a table.
    TableSink {
        /// Name of the destination table.
        table: String,
    },
    /// A user-defined or otherwise opaque operator; never sort-implying.
    Custom {
        /// Free-form operator name for diagnostics.
        name: String,
    },
}

impl Operator {
    /// Returns `true` for operators that emit a *globally sorted output*
    /// which is only complete once all input has been consumed
    /// (`MergeSort`, `SortBy`). A stage containing such an operator cannot
    /// stream its result to the next stage, so its outgoing shuffle edges
    /// are barriers — this is exactly the Fig. 4 rule ("J4, J6, and J10
    /// contain MergeSort operator, thus [their outgoing] edges are barrier
    /// edges").
    pub fn sorts_output(&self) -> bool {
        matches!(self, Operator::MergeSort | Operator::SortBy)
    }

    /// Returns `true` for operators that *require sorted input*
    /// (`MergeJoin`, `StreamedAggregate`, `Window`, `MergeSort`). Planners
    /// satisfy the requirement by placing a `MergeSort`/`SortBy` in the
    /// producing stage, which in turn makes the connecting edge a barrier;
    /// this is how all five §III-A1 operators end up implying barriers.
    pub fn requires_sorted_input(&self) -> bool {
        matches!(
            self,
            Operator::MergeJoin
                | Operator::StreamedAggregate
                | Operator::Window
                | Operator::MergeSort
        )
    }

    /// Returns `true` if the operator is a terminal sink (no successors expected).
    pub fn is_sink(&self) -> bool {
        matches!(self, Operator::AdhocSink | Operator::TableSink { .. })
    }

    /// Returns `true` if the operator reads from base storage.
    pub fn is_source(&self) -> bool {
        matches!(self, Operator::TableScan { .. })
    }

    /// A short, stable name used in logs, figures and plan dumps.
    pub fn name(&self) -> &str {
        match self {
            Operator::TableScan { .. } => "TableScan",
            Operator::Filter => "Filter",
            Operator::Project => "Project",
            Operator::HashJoin => "HashJoin",
            Operator::MergeJoin => "MergeJoin",
            Operator::HashAggregate => "HashAggregate",
            Operator::StreamedAggregate => "StreamedAggregate",
            Operator::Window => "Window",
            Operator::SortBy => "SortBy",
            Operator::MergeSort => "MergeSort",
            Operator::Limit { .. } => "Limit",
            Operator::ShuffleWrite => "ShuffleWrite",
            Operator::ShuffleRead => "ShuffleRead",
            Operator::AdhocSink => "AdhocSink",
            Operator::TableSink { .. } => "TableSink",
            Operator::Custom { name } => name,
        }
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operator::TableScan { table } => write!(f, "TableScan({table})"),
            Operator::TableSink { table } => write!(f, "TableSink({table})"),
            Operator::Limit { limit } => write!(f, "Limit({limit})"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_and_source_classification() {
        assert!(Operator::AdhocSink.is_sink());
        assert!(Operator::TableSink {
            table: "out".into()
        }
        .is_sink());
        assert!(!Operator::ShuffleWrite.is_sink());
        assert!(Operator::TableScan { table: "t".into() }.is_source());
        assert!(!Operator::ShuffleRead.is_source());
    }

    #[test]
    fn display_includes_parameters() {
        assert_eq!(
            Operator::TableScan {
                table: "lineitem".into()
            }
            .to_string(),
            "TableScan(lineitem)"
        );
        assert_eq!(
            Operator::Limit { limit: 999999 }.to_string(),
            "Limit(999999)"
        );
        assert_eq!(Operator::MergeSort.to_string(), "MergeSort");
    }
}
