//! # swift — reproduction of *Swift: Reliable and Low-Latency Data
//! Processing at Cloud Scale* (ICDE 2021)
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dag`] | `swift-dag` | job DAG model, barrier/pipeline edges, graphlet partitioning (Algorithms 1 & 2) |
//! | [`sim`] | `swift-sim` | deterministic discrete-event kernel, distributions, stats |
//! | [`cluster`] | `swift-cluster` | simulated machines/executors, calibrated cost model |
//! | [`shuffle`] | `swift-shuffle` | Direct/Local/Remote shuffle, adaptive selection, Cache Worker (accounting + real store with LRU spill) |
//! | [`scheduler`] | `swift-scheduler` | event-driven Swift Admin + JetScope / Bubble / Spark baselines |
//! | [`ft`] | `swift-ft` | failure detection and fine-grained graphlet recovery (§IV) |
//! | [`engine`] | `swift-engine` | real multi-threaded execution engine (column batches, operators, real shuffle data path) |
//! | [`sql`] | `swift-sql` | SQL subset parser + planner (Fig. 1 dialect) |
//! | [`workload`] | `swift-workload` | TPC-H datagen + query DAGs, Terasort, Fig. 8 trace generator |
//! | [`trace`] | `swift-trace` | deterministic run tracing, golden-scenario registry, Chrome export |
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/swift-bench` for the per-figure experiment harness.

pub use swift_cluster as cluster;
pub use swift_dag as dag;
pub use swift_engine as engine;
pub use swift_ft as ft;
pub use swift_metrics as metrics;
pub use swift_scheduler as scheduler;
pub use swift_shuffle as shuffle;
pub use swift_sim as sim;
pub use swift_sql as sql;
pub use swift_trace as trace;
pub use swift_workload as workload;
