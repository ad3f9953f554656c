//! Executable stage plans: the physical counterpart of a job DAG.
//!
//! Each stage of a [`swift_dag::JobDag`] gets one [`StagePlan`]: the
//! operator chain its tasks execute plus the partitioning of its output
//! toward each outgoing edge. [`EngineJob`] bundles the DAG with its plans
//! and validates that they line up.

use crate::error::{EngineError, Result};
use crate::expr::{AggFunc, Expr};
use swift_dag::JobDag;

/// Join type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join: only matching pairs.
    #[default]
    Inner,
    /// Left outer join: unmatched left rows padded with `right_width`
    /// NULLs (the width must be carried in the plan because an empty build
    /// side has no rows to infer it from).
    Left {
        /// Number of columns on the right side.
        right_width: usize,
    },
}

/// One sort key: column index plus direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortKey {
    /// Column index.
    pub col: usize,
    /// Descending order if `true`.
    pub desc: bool,
}

/// One aggregate output: function applied to an expression over the group.
#[derive(Clone, Debug, PartialEq)]
pub struct AggExpr {
    /// Aggregate function.
    pub func: AggFunc,
    /// Input expression (evaluated per row; `Lit(1)` for `count(*)`).
    pub expr: Expr,
}

/// A physical operator inside a stage. The first operator defines the
/// stage's primary input (a table scan, or — implicitly — the rows arriving
/// on incoming edge 0); subsequent operators transform the stream. Join
/// operators additionally consume another incoming edge.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecOp {
    /// Scan a base table; task `i` reads partition `i` of the table. Must
    /// be the first operator of a source stage.
    Scan {
        /// Table name in the engine catalog.
        table: String,
    },
    /// Keep rows where the predicate evaluates to `true`.
    Filter(Expr),
    /// Replace each row with the given expressions.
    Project(Vec<Expr>),
    /// Hash join: the current stream is the probe (left) side; the build
    /// side arrives on incoming edge `right_edge`. Output rows are
    /// `probe ++ build` (NULL-padded on the right for unmatched left rows
    /// under [`JoinType::Left`]).
    HashJoin {
        /// Index into the stage's incoming edges for the build side.
        right_edge: usize,
        /// Probe-side key columns.
        left_keys: Vec<usize>,
        /// Build-side key columns.
        right_keys: Vec<usize>,
        /// Inner or left outer.
        join_type: JoinType,
    },
    /// Sort-merge join: both inputs must be sorted by their keys
    /// (the planner arranges producing stages to sort). Output rows are
    /// `left ++ right`, NULL-padded under [`JoinType::Left`].
    MergeJoin {
        /// Index into the stage's incoming edges for the right side.
        right_edge: usize,
        /// Left-side key columns.
        left_keys: Vec<usize>,
        /// Right-side key columns.
        right_keys: Vec<usize>,
        /// Inner or left outer.
        join_type: JoinType,
    },
    /// Sort the stream. Implements both `SortBy` (partition-local sort) and
    /// `MergeSort` (merging sorted runs — a full sort is a correct merge).
    Sort(Vec<SortKey>),
    /// Hash aggregation: group by the key columns, computing the
    /// aggregates. Output rows are `group_keys ++ aggregates`.
    HashAggregate {
        /// Group-key columns.
        group: Vec<usize>,
        /// Aggregate outputs.
        aggs: Vec<AggExpr>,
    },
    /// Aggregation over input sorted by the group keys (the paper's "sort
    /// aggregate"): single linear pass, emits groups in key order.
    StreamedAggregate {
        /// Group-key columns.
        group: Vec<usize>,
        /// Aggregate outputs.
        aggs: Vec<AggExpr>,
    },
    /// Window function over sorted partitions (the paper's `Window`
    /// operator): partitions the stream by `partition_by`, orders each
    /// partition by `order_by`, and appends one computed column per row.
    Window {
        /// Partition-key columns.
        partition_by: Vec<usize>,
        /// In-partition ordering.
        order_by: Vec<SortKey>,
        /// The window function.
        func: WindowFunc,
    },
    /// Keep the first `n` rows of the stream.
    Limit(u64),
}

/// Supported window functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowFunc {
    /// 1-based position within the partition.
    RowNumber,
    /// Rank with gaps (ties share a rank).
    Rank,
    /// Running sum of the given column over the partition prefix.
    CumSum(usize),
}

/// How a stage's output rows are routed to the consumer tasks of one
/// outgoing edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OutputPartitioning {
    /// Hash of the given key columns modulo consumer task count.
    Hash(Vec<usize>),
    /// Everything to consumer task 0 (global sorts, final merges).
    Single,
    /// Replicate the full output to every consumer task (broadcast joins).
    Broadcast,
    /// Spread row-by-row (used when no key matters).
    RoundRobin,
}

/// The executable plan of one stage.
#[derive(Clone, Debug, PartialEq)]
pub struct StagePlan {
    /// Operator chain, executed in order by every task of the stage.
    pub ops: Vec<ExecOp>,
    /// Output routing per outgoing edge, in `dag.outgoing(stage)` order.
    /// Empty for sink stages.
    pub outputs: Vec<OutputPartitioning>,
}

/// A complete executable job: DAG structure plus per-stage plans.
#[derive(Clone, Debug)]
pub struct EngineJob {
    /// The job DAG (stage shapes, edges, partitioning metadata).
    pub dag: JobDag,
    /// `plans[stage]` = executable plan of that stage.
    pub plans: Vec<StagePlan>,
    /// Column names of the final (sink) output, for presentation.
    pub output_columns: Vec<String>,
}

impl EngineJob {
    /// Validates plan/DAG consistency: one plan per stage, output
    /// partitioning arity matching outgoing edges, join edge indices in
    /// range, and source/sink shape rules.
    pub fn validate(&self) -> Result<()> {
        if self.plans.len() != self.dag.stage_count() {
            return Err(EngineError::Plan(format!(
                "{} plans for {} stages",
                self.plans.len(),
                self.dag.stage_count()
            )));
        }
        for s in self.dag.stages() {
            let plan = &self.plans[s.id.index()];
            let out_edges = self.dag.outgoing(s.id).count();
            if plan.outputs.len() != out_edges {
                return Err(EngineError::Plan(format!(
                    "stage {} has {} outgoing edges but {} output partitionings",
                    s.name,
                    out_edges,
                    plan.outputs.len()
                )));
            }
            let in_edges = self.dag.incoming(s.id).count();
            for (i, op) in plan.ops.iter().enumerate() {
                match op {
                    ExecOp::Scan { .. } => {
                        if i != 0 {
                            return Err(EngineError::Plan(format!(
                                "stage {}: Scan must be the first operator",
                                s.name
                            )));
                        }
                        if in_edges != 0 {
                            return Err(EngineError::Plan(format!(
                                "stage {}: Scan stage cannot have incoming edges",
                                s.name
                            )));
                        }
                    }
                    ExecOp::HashJoin { right_edge, .. } | ExecOp::MergeJoin { right_edge, .. }
                        if *right_edge >= in_edges =>
                    {
                        return Err(EngineError::Plan(format!(
                            "stage {}: join references edge {right_edge} of {in_edges}",
                            s.name
                        )));
                    }
                    _ => {}
                }
            }
            if plan.ops.is_empty() {
                return Err(EngineError::Plan(format!(
                    "stage {} has no operators",
                    s.name
                )));
            }
            let starts_with_scan = matches!(plan.ops[0], ExecOp::Scan { .. });
            if !starts_with_scan && in_edges == 0 {
                return Err(EngineError::Plan(format!(
                    "stage {} has no input: no scan and no incoming edges",
                    s.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_dag::{DagBuilder, Operator};

    fn simple_job() -> EngineJob {
        let mut b = DagBuilder::new(1, "t");
        let scan = b
            .stage("scan", 2)
            .op(Operator::TableScan { table: "t".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let agg = b
            .stage("agg", 2)
            .op(Operator::ShuffleRead)
            .op(Operator::HashAggregate)
            .op(Operator::AdhocSink)
            .build();
        b.edge(scan, agg);
        let dag = b.build().unwrap();
        EngineJob {
            dag,
            plans: vec![
                StagePlan {
                    ops: vec![ExecOp::Scan { table: "t".into() }],
                    outputs: vec![OutputPartitioning::Hash(vec![0])],
                },
                StagePlan {
                    ops: vec![ExecOp::HashAggregate {
                        group: vec![0],
                        aggs: vec![AggExpr {
                            func: AggFunc::Count,
                            expr: Expr::lit(1i64),
                        }],
                    }],
                    outputs: vec![],
                },
            ],
            output_columns: vec!["k".into(), "n".into()],
        }
    }

    #[test]
    fn valid_job_passes() {
        simple_job().validate().unwrap();
    }

    #[test]
    fn arity_mismatches_fail() {
        let mut j = simple_job();
        j.plans.pop();
        assert!(j.validate().is_err());

        let mut j = simple_job();
        j.plans[0].outputs.clear();
        assert!(j.validate().is_err());

        let mut j = simple_job();
        j.plans[1].ops = vec![ExecOp::HashJoin {
            right_edge: 5,
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        }];
        assert!(j.validate().is_err());

        let mut j = simple_job();
        j.plans[1].ops.insert(1, ExecOp::Scan { table: "x".into() });
        assert!(j.validate().is_err());
    }
}
