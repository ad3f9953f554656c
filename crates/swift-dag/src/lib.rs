//! # swift-dag — the Swift job model
//!
//! This crate implements the job description layer of *Swift: Reliable and
//! Low-Latency Data Processing at Cloud Scale* (ICDE 2021):
//!
//! * [`JobDag`] — a validated DAG of [`Stage`]s connected by [`Edge`]s,
//!   built with [`DagBuilder`];
//! * pipeline/barrier edge classification from the stages' operator chains
//!   ([`classify_edge`], §III-A1);
//! * shuffle-mode-aware job partitioning into graphlets
//!   ([`partition`], Algorithms 1 & 2) with graphlet dependency analysis
//!   and deterministic submission order (§III-A2).
//!
//! Everything downstream — the scheduler, the failure-recovery logic, the
//! cluster simulator and the real execution engine — consumes these types.
//!
//! ```
//! use swift_dag::{DagBuilder, Operator, partition};
//!
//! let mut b = DagBuilder::new(1, "wordcount");
//! let map = b.stage("map", 8)
//!     .op(Operator::TableScan { table: "docs".into() })
//!     .op(Operator::ShuffleWrite)
//!     .build();
//! let reduce = b.stage("reduce", 4)
//!     .op(Operator::ShuffleRead)
//!     .op(Operator::HashAggregate)
//!     .op(Operator::AdhocSink)
//!     .build();
//! b.edge(map, reduce);
//! let dag = b.build().unwrap();
//! let part = partition(&dag);
//! assert_eq!(part.len(), 1); // hash aggregation streams: one graphlet
//! ```

#![warn(missing_docs)]

mod dag;
mod edge;
mod ids;
mod operator;
mod partition;
mod stage;

pub use dag::{descendants, permuted_clone, DagBuilder, DagError, JobDag, StageBuilder};
pub use edge::{classify_edge, Edge, EdgeKind};
pub use ids::{GraphletId, JobId, StageId, TaskId};
pub use operator::Operator;
pub use partition::{partition, validate_partition, Graphlet, Partition};
pub use stage::{Stage, StageProfile};
