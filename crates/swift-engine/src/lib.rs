//! # swift-engine — a real local execution engine for Swift operator DAGs
//!
//! While `swift-cluster`/`swift-scheduler` reproduce the paper's *timing*
//! results in simulation, this crate demonstrates the system's
//! *correctness* on real data: dynamically typed tables ([`Value`],
//! [`Schema`], [`Table`]), scalar expressions and aggregates ([`Expr`],
//! [`AggFunc`]), the full relational operator set of §II-A ([`ExecOp`]:
//! scans, filters, projections, hash and sort-merge joins, hash and
//! streamed aggregation, sorts, limits) running a column batch at a time,
//! and a multi-threaded driver ([`Engine`]) that moves every shuffle
//! partition as one columnar payload through the real Cache Worker store
//! of `swift-shuffle` (bounded memory, LRU spill to a real log file) and
//! recovers injected task failures through the same `swift-ft` planner
//! the simulator uses.
//!
//! ```
//! use swift_engine::*;
//! use swift_dag::{DagBuilder, Operator};
//!
//! // A tiny table and a two-stage count-by-key job.
//! let mut catalog = Catalog::new();
//! let rows = vec![
//!     vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(1)],
//! ];
//! catalog.register(Table::new("t", Schema::new(vec!["k"]), rows));
//!
//! let mut b = DagBuilder::new(1, "count-by-k");
//! let scan = b.stage("scan", 2)
//!     .op(Operator::TableScan { table: "t".into() })
//!     .op(Operator::ShuffleWrite)
//!     .build();
//! let agg = b.stage("agg", 2)
//!     .op(Operator::ShuffleRead)
//!     .op(Operator::HashAggregate)
//!     .op(Operator::AdhocSink)
//!     .build();
//! b.edge(scan, agg);
//! let job = EngineJob {
//!     dag: b.build().unwrap(),
//!     plans: vec![
//!         StagePlan {
//!             ops: vec![ExecOp::Scan { table: "t".into() }],
//!             outputs: vec![OutputPartitioning::Hash(vec![0])],
//!         },
//!         StagePlan {
//!             ops: vec![ExecOp::HashAggregate {
//!                 group: vec![0],
//!                 aggs: vec![AggExpr { func: AggFunc::Count, expr: Expr::lit(1i64) }],
//!             }],
//!             outputs: vec![],
//!         },
//!     ],
//!     output_columns: vec!["k".into(), "n".into()],
//! };
//! let mut out = Engine::new(catalog).run(&job).unwrap();
//! out.sort_by(|a, b| a[0].total_cmp(&b[0]));
//! assert_eq!(out, vec![
//!     vec![Value::Int(1), Value::Int(2)],
//!     vec![Value::Int(2), Value::Int(1)],
//! ]);
//! ```

#![warn(missing_docs)]

mod batch;
mod codec;
mod engine;
mod error;
mod expr;
mod plan;
mod task;
mod value;

pub use batch::hash_key;
pub use codec::{decode_rows, encode_rows};
pub use engine::{Engine, RunOptions, RunOutcome, RunStats};
pub use error::{EngineError, Result};
pub use expr::{like_match, AggFunc, BinOp, Expr};
pub use plan::{
    AggExpr, EngineJob, ExecOp, JoinType, OutputPartitioning, SortKey, StagePlan, WindowFunc,
};
pub use task::{run_task, sort_rows, TaskInputs};
pub use value::{Catalog, Row, Schema, Table, Value};
