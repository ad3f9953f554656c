//! # swift-sim — deterministic discrete-event simulation kernel
//!
//! The Swift paper evaluates on 100- and 2 000-node production clusters.
//! This reproduction replaces the hardware with a calibrated discrete-event
//! simulation; `swift-sim` is the kernel every simulated experiment runs on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time;
//! * [`Cadence`] — the sampling boundaries every sampler shares;
//! * [`ShardedEventQueue`] — the simulation clock plus its pending events:
//!   a monotone radix heap keyed on time that pops in `(time, schedule
//!   order)`, so same-timestamp events are FIFO;
//! * [`SimRng`] — a seedable RNG with the log-normal and exponential
//!   distributions the trace generator and cost models sample from, and
//!   [`ZipfTable`] for the service workload's tenant skew;
//! * [`Fnv64`] — the word-at-a-time hasher every shape signature and
//!   report digest folds through;
//! * [`stats`] — quartile ("four quartile method" [26] in the paper) and
//!   CDF helpers used to report every figure.
//!
//! Determinism is a hard requirement: every experiment must be exactly
//! repeatable from its seed, which is why same-time events pop FIFO and all
//! randomness flows through explicitly seeded [`SimRng`] streams.

#![warn(missing_docs)]

mod hash;
mod queue;
mod rng;
pub mod stats;
mod time;

pub use hash::Fnv64;
pub use queue::ShardedEventQueue;
pub use rng::{SimRng, ZipfTable};
pub use time::{Cadence, SimDuration, SimTime};
