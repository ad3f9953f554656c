//! SW008 fixture: a process-global metrics registry. Counters shared
//! through a static (atomic or `static mut`) accumulate across runs in
//! one process, so the sampled frames stop being a pure function of the
//! seed — the registry must be owned by the recorder, not the process.

use std::sync::atomic::AtomicU64;

static EVENTS_TOTAL: AtomicU64 = AtomicU64::new(0);

static mut LAST_WINDOW: u64 = 0;

pub struct GlobalRegistry {
    series: std::cell::RefCell<Vec<u64>>,
}
