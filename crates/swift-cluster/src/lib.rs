//! # swift-cluster — the simulated cluster substrate
//!
//! The paper evaluates Swift on 100- and 2 000-node production clusters;
//! this crate is the calibrated stand-in (DESIGN.md §2): machines hosting
//! pre-launched executors and one Cache Worker each, a cost model for the
//! network (TCP connection setup under congestion, incast-driven
//! retransmissions), disks, memory copies and control-plane overheads, and
//! the allocation/health primitives the schedulers drive.
//!
//! * [`Cluster`] — machines, executors, locality- and load-aware
//!   allocation, failure/read-only/revive transitions (§IV-A);
//! * [`CostModel`] — every timing constant of the reproduction, in one
//!   documented struct ([`CostModel::shuffle_edge_cost`] implements the
//!   §III-B shuffle cost composition for all scheme × medium combinations);
//! * [`Machine`] / [`Executor`] — passive state consumed by the
//!   `swift-scheduler` simulation loop.

#![warn(missing_docs)]

mod cluster;
mod cost;
mod ids;
mod machine;

pub use cluster::Cluster;
pub use cost::{CostModel, ShuffleCost};
pub use ids::{ExecutorId, MachineId};
pub use machine::{Executor, ExecutorState, Machine, MachineHealth};
