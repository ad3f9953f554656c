//! # swift-sim — deterministic discrete-event simulation kernel
//!
//! The Swift paper evaluates on 100- and 2 000-node production clusters.
//! This reproduction replaces the hardware with a calibrated discrete-event
//! simulation; `swift-sim` is the kernel every simulated experiment runs on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time;
//! * [`EventQueue`] — a deterministic time-ordered event queue (FIFO among
//!   same-timestamp events) that doubles as the simulation clock;
//! * [`SimRng`] — a seedable RNG with the log-normal / exponential / Zipf
//!   distributions the trace generator and cost models sample from;
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
mod shard;
pub mod stats;
mod time;

pub use hash::Fnv64;
pub use queue::EventQueue;
pub use rng::{SimRng, ZipfTable};
pub use shard::ShardedEventQueue;
pub use time::{SimDuration, SimTime};
