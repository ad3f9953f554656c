//! Real data-path transports for the execution engine.
//!
//! The engine moves shuffle payloads through an [`Exchange`]. Two
//! implementations exist:
//!
//! * [`DirectExchange`] — Direct Shuffle: producer tasks hand payloads
//!   straight to consumer partitions through in-memory queues. Nothing is
//!   staged: once a partition is collected the data is gone, exactly like
//!   the paper's Direct Shuffle, which cannot re-serve data after a
//!   consumer failure.
//! * [`CacheWorkerStore`](crate::CacheWorkerStore) — Local/Remote Shuffle:
//!   payloads are staged in a Cache Worker (bounded memory, LRU spill to
//!   one log file) and survive until consumed, enabling the pull-based barrier
//!   edges and the §IV-B recovery paths.

use crate::bytes::Bytes;
use crate::memory::SegmentKey;
use crate::store::CacheWorkerStore;
use crate::sync::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::io;

/// A transport moving shuffle segments from producer to consumer tasks.
pub trait Exchange: Send + Sync {
    /// Delivers one producer's payload for one consumer partition.
    fn put(&self, key: SegmentKey, data: Bytes) -> io::Result<()>;

    /// Blocks until all `expected` producers have delivered their segment
    /// for `(job, edge, partition)` and returns the payloads ordered by
    /// producer index, consuming them.
    fn collect(&self, job: u64, edge: u32, partition: u32, expected: u32)
        -> io::Result<Vec<Bytes>>;

    /// Returns `true` if the transport stages data such that it can be
    /// re-served after a consumer failure without re-running producers.
    fn supports_replay(&self) -> bool;
}

/// In-memory Direct Shuffle transport.
#[derive(Default)]
pub struct DirectExchange {
    // The exchange is the real transport layer driven by OS threads in
    // integration tests; the deterministic simulator never touches it
    // (shuffles are modeled as queue events). BTreeMap keeps segment
    // order stable should anyone ever iterate the buffer.
    state: Mutex<BTreeMap<SegmentKey, Bytes>>, // swift-analyze: allow(SW008) — threaded transport, not sim state
    arrived: Condvar, // swift-analyze: allow(SW008) — threaded transport, not sim state
}

// Manual impl: must not take the lock (Debug can be called while held).
impl std::fmt::Debug for DirectExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectExchange").finish_non_exhaustive()
    }
}

impl DirectExchange {
    /// Creates an empty exchange.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of undelivered segments currently buffered.
    pub fn pending_segments(&self) -> usize {
        self.state.lock().len()
    }
}

impl Exchange for DirectExchange {
    fn put(&self, key: SegmentKey, data: Bytes) -> io::Result<()> {
        self.state.lock().insert(key, data);
        self.arrived.notify_all();
        Ok(())
    }

    fn collect(
        &self,
        job: u64,
        edge: u32,
        partition: u32,
        expected: u32,
    ) -> io::Result<Vec<Bytes>> {
        let mut st = self.state.lock();
        loop {
            let ready = (0..expected).all(|p| {
                st.contains_key(&SegmentKey {
                    job,
                    edge,
                    producer: p,
                    partition,
                })
            });
            if ready {
                break;
            }
            self.arrived.wait(&mut st);
        }
        let mut out = Vec::with_capacity(expected as usize);
        for p in 0..expected {
            out.push(
                st.remove(&SegmentKey {
                    job,
                    edge,
                    producer: p,
                    partition,
                })
                .expect("checked ready"),
            );
        }
        Ok(out)
    }

    fn supports_replay(&self) -> bool {
        false
    }
}

impl Exchange for CacheWorkerStore {
    fn put(&self, key: SegmentKey, data: Bytes) -> io::Result<()> {
        CacheWorkerStore::put(self, key, data)
    }

    fn collect(
        &self,
        job: u64,
        edge: u32,
        partition: u32,
        expected: u32,
    ) -> io::Result<Vec<Bytes>> {
        CacheWorkerStore::collect(self, job, edge, partition, expected)
    }

    fn supports_replay(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn key(producer: u32, partition: u32) -> SegmentKey {
        SegmentKey {
            job: 1,
            edge: 0,
            producer,
            partition,
        }
    }

    #[test]
    fn direct_exchange_roundtrip() {
        let ex = DirectExchange::new();
        ex.put(key(0, 0), Bytes::from_static(b"a")).unwrap();
        ex.put(key(1, 0), Bytes::from_static(b"b")).unwrap();
        let got = ex.collect(1, 0, 0, 2).unwrap();
        assert_eq!(
            got,
            vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")]
        );
        assert_eq!(ex.pending_segments(), 0);
        assert!(!ex.supports_replay());
    }

    #[test]
    fn direct_exchange_blocks_for_missing_producer() {
        let ex = Arc::new(DirectExchange::new());
        let e2 = Arc::clone(&ex);
        let reader = thread::spawn(move || e2.collect(1, 0, 0, 2).unwrap());
        ex.put(key(0, 0), Bytes::from_static(b"a")).unwrap();
        thread::sleep(std::time::Duration::from_millis(20));
        assert!(!reader.is_finished());
        ex.put(key(1, 0), Bytes::from_static(b"b")).unwrap();
        assert_eq!(reader.join().unwrap().len(), 2);
    }

    #[test]
    fn cache_worker_store_is_an_exchange_with_replay() {
        let store = CacheWorkerStore::new(1 << 20).unwrap();
        let ex: &dyn Exchange = &store;
        assert!(ex.supports_replay());
        ex.put(key(0, 0), Bytes::from_static(b"x")).unwrap();
        let got = ex.collect(1, 0, 0, 1).unwrap();
        assert_eq!(got[0], Bytes::from_static(b"x"));
    }

    #[test]
    fn partitions_are_independent() {
        let ex = DirectExchange::new();
        for part in 0..4u32 {
            ex.put(key(0, part), Bytes::from(vec![part as u8])).unwrap();
        }
        for part in (0..4u32).rev() {
            let got = ex.collect(1, 0, part, 1).unwrap();
            assert_eq!(got[0][0], part as u8);
        }
    }
}
