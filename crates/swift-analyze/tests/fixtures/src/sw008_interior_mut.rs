//! SW008 fixture: shared mutable state reachable from Simulation step
//! paths — a `static mut`, a static with an atomic, a thread-local,
//! and an interior-mutable struct field. Each one lets a run observe
//! state an earlier run (or a shared borrow) wrote, breaking replay.

use std::cell::RefCell;
use std::sync::atomic::AtomicU64;

static mut TICKS: u64 = 0;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SCRATCH: RefCell<Vec<u64>> = RefCell::new(Vec::new());
}

pub struct StepState {
    inbox: RefCell<Vec<u64>>,
}
