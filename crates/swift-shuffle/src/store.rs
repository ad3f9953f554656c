//! The real (byte-moving) Cache Worker: an in-memory shuffle segment store
//! with LRU spill to actual disk files.
//!
//! `swift-engine` uses one `CacheWorkerStore` per simulated machine (or one
//! shared store in single-process runs) as the staging area for Local and
//! Remote shuffle. Unlike the accounting model in [`crate::memory`], this
//! store holds real payloads and really writes spill files.

use crate::bytes::Bytes;
use crate::memory::SegmentKey;
use crate::sync::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

#[derive(Debug)]
enum Payload {
    Memory(Bytes),
    Spilled { path: PathBuf },
}

/// Sentinel "no node" index for the intrusive LRU list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct LruNode {
    key: SegmentKey,
    prev: u32,
    next: u32,
}

/// Intrusive doubly-linked recency list over slab-allocated nodes.
///
/// Every *in-memory* segment owns exactly one node; spilled segments own
/// none. A touch (put or peek) unlinks the node and relinks it at the
/// MRU end — O(1), where the previous design re-keyed a
/// `BTreeMap<SegmentKey, clock>` on every access and sorted all stamps
/// on every eviction. The eviction order (walk from the LRU end) is the
/// same least-recently-touched-first order the stamps produced.
#[derive(Debug)]
struct LruList {
    nodes: Vec<LruNode>,
    free: Vec<u32>,
    /// Least recently used (eviction starts here).
    head: u32,
    /// Most recently used (touches land here).
    tail: u32,
}

impl Default for LruList {
    fn default() -> Self {
        LruList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl LruList {
    /// Links `key` at the MRU end, returning its node index.
    fn push_mru(&mut self, key: SegmentKey) -> u32 {
        let node = LruNode {
            key,
            prev: self.tail,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
        idx
    }

    /// Unlinks the node at `idx` and returns its slot to the free list.
    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.free.push(idx);
    }

    /// Moves the node at `idx` to the MRU end, returning its (possibly
    /// recycled) new index.
    fn touch(&mut self, idx: u32) -> u32 {
        let key = self.nodes[idx as usize].key;
        self.unlink(idx);
        self.push_mru(key)
    }

    /// Key of the least recently used segment, if any is in memory.
    fn lru_key(&self) -> Option<SegmentKey> {
        (self.head != NIL).then(|| self.nodes[self.head as usize].key)
    }
}

/// One stored segment plus its recency-list node (`NIL` when spilled —
/// spilled segments never compete for memory, so they are not tracked).
#[derive(Debug)]
struct Entry {
    payload: Payload,
    lru: u32,
}

#[derive(Default)]
struct StoreState {
    segments: BTreeMap<SegmentKey, Entry>,
    lru: LruList,
    in_memory: u64,
    spilled_bytes_total: u64,
    /// Where spill files go: created by the first spill, so a store that
    /// never spills never touches the file system.
    spill_dir: Option<PathBuf>,
}

impl StoreState {
    /// Debug cross-check: the recency list is a pure cache of "which
    /// segments are in memory" — its key set must equal the Memory
    /// entries, and every entry's node index must point back at its key.
    #[cfg(debug_assertions)]
    fn check_lru_invariant(&self) {
        let mut listed = 0;
        for (k, e) in &self.segments {
            match e.payload {
                Payload::Memory(_) => {
                    assert_ne!(e.lru, NIL, "in-memory segment missing from LRU list");
                    assert_eq!(
                        self.lru.nodes[e.lru as usize].key, *k,
                        "LRU node points at the wrong key"
                    );
                    listed += 1;
                }
                Payload::Spilled { .. } => {
                    assert_eq!(e.lru, NIL, "spilled segment still on the LRU list")
                }
            }
        }
        let mut walked = 0;
        let mut i = self.lru.head;
        while i != NIL {
            walked += 1;
            i = self.lru.nodes[i as usize].next;
        }
        assert_eq!(walked, listed, "LRU list length drifted from Memory count");
    }

    #[cfg(not(debug_assertions))]
    fn check_lru_invariant(&self) {}
}

/// A thread-safe shuffle segment store with bounded memory and LRU spill.
///
/// Producers [`put`](CacheWorkerStore::put) segments; consumers
/// [`collect`](CacheWorkerStore::collect) all segments of their partition,
/// blocking until the expected number of producers has delivered. Segments
/// are removed when collected (the §III-B "delete after consumed" rule);
/// [`peek`](CacheWorkerStore::peek) reads without consuming, which failure
/// recovery uses to re-serve data to re-run consumers.
pub struct CacheWorkerStore {
    capacity: u64,
    // The store emulates the Cache Worker *service*: producers and
    // consumers on OS threads block on it in integration tests. It is
    // never on the deterministic sim step path (the simulator models
    // shuffles as queue events), so the locking is deliberate.
    state: Mutex<StoreState>, // swift-analyze: allow(SW008) — threaded service emulation, not sim state
    arrived: Condvar, // swift-analyze: allow(SW008) — threaded service emulation, not sim state
}

// Manual impl: must not take the lock (Debug can be called while held).
impl std::fmt::Debug for CacheWorkerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheWorkerStore")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// Creates a fresh spill directory under the system temp dir.
fn create_spill_dir() -> io::Result<PathBuf> {
    // Probe for an unused directory instead of a process-global counter:
    // `create_dir` failing with AlreadyExists is the atomicity primitive,
    // so no shared mutable state is needed.
    let base = std::env::temp_dir();
    let pid = std::process::id();
    let mut id = 0u32;
    loop {
        let cand = base.join(format!("swift-cache-worker-{pid}-{id}"));
        match fs::create_dir(&cand) {
            Ok(()) => return Ok(cand),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists && id < 10_000 => id += 1,
            Err(e) => return Err(e),
        }
    }
}

impl CacheWorkerStore {
    /// Creates a store holding at most `capacity` bytes in memory; overflow
    /// spills to a fresh directory under the system temp dir, created by
    /// the first spill.
    pub fn new(capacity: u64) -> io::Result<Self> {
        Ok(CacheWorkerStore {
            capacity,
            state: Mutex::new(StoreState::default()),
            arrived: Condvar::new(),
        })
    }

    /// Bytes currently resident in memory.
    pub fn in_memory_bytes(&self) -> u64 {
        self.state.lock().in_memory
    }

    /// Total bytes spilled to disk over the store's lifetime.
    pub fn spilled_bytes_total(&self) -> u64 {
        self.state.lock().spilled_bytes_total
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.state.lock().segments.len()
    }

    /// Stores `data` under `key`, spilling LRU segments if the memory cap
    /// is exceeded. Overwrites any previous segment with the same key
    /// (idempotent producer re-runs).
    pub fn put(&self, key: SegmentKey, data: Bytes) -> io::Result<()> {
        let mut st = self.state.lock();
        Self::remove_locked(&mut st, &key)?;
        st.in_memory += data.len() as u64;
        let node = st.lru.push_mru(key);
        st.segments.insert(
            key,
            Entry {
                payload: Payload::Memory(data),
                lru: node,
            },
        );
        self.enforce_capacity(&mut st)?;
        st.check_lru_invariant();
        drop(st);
        self.arrived.notify_all();
        Ok(())
    }

    /// Reads one segment without consuming it, loading from the spill file
    /// if necessary (the segment stays spilled). Returns `None` if the key
    /// is unknown.
    pub fn peek(&self, key: SegmentKey) -> io::Result<Option<Bytes>> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        match st.segments.get_mut(&key) {
            None => Ok(None),
            Some(e) => match &e.payload {
                Payload::Memory(b) => {
                    let out = b.clone();
                    e.lru = st.lru.touch(e.lru);
                    Ok(Some(out))
                }
                Payload::Spilled { path, .. } => {
                    let path = path.clone();
                    drop(guard);
                    let mut buf = Vec::new();
                    fs::File::open(path)?.read_to_end(&mut buf)?;
                    Ok(Some(Bytes::from(buf)))
                }
            },
        }
    }

    /// Blocks until all `expected` producers have delivered their segment
    /// for `(job, edge, partition)`, then removes and returns the payloads
    /// ordered by producer index.
    pub fn collect(
        &self,
        job: u64,
        edge: u32,
        partition: u32,
        expected: u32,
    ) -> io::Result<Vec<Bytes>> {
        let mut st = self.state.lock();
        loop {
            let ready = (0..expected).all(|p| {
                st.segments.contains_key(&SegmentKey {
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
            let key = SegmentKey {
                job,
                edge,
                producer: p,
                partition,
            };
            let entry = st.segments.remove(&key).expect("checked ready above");
            match entry.payload {
                Payload::Memory(b) => {
                    st.lru.unlink(entry.lru);
                    st.in_memory -= b.len() as u64;
                    out.push(b);
                }
                Payload::Spilled { path, .. } => {
                    // Read outside the lock would be nicer but correctness
                    // first: spill reads are the rare path.
                    let mut buf = Vec::new();
                    fs::File::open(&path)?.read_to_end(&mut buf)?;
                    let _ = fs::remove_file(&path);
                    out.push(Bytes::from(buf));
                }
            }
        }
        st.check_lru_invariant();
        Ok(out)
    }

    /// Like [`CacheWorkerStore::collect`], but *non-consuming*: segments
    /// stay in the store (and keep their spill state), so failure recovery
    /// can re-serve the same data to a re-launched consumer (§IV-B input
    /// failure). Pair with [`CacheWorkerStore::delete_job`] for cleanup.
    pub fn collect_keep(
        &self,
        job: u64,
        edge: u32,
        partition: u32,
        expected: u32,
    ) -> io::Result<Vec<Bytes>> {
        let mut st = self.state.lock();
        loop {
            let ready = (0..expected).all(|p| {
                st.segments.contains_key(&SegmentKey {
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
        drop(st);
        let mut out = Vec::with_capacity(expected as usize);
        for p in 0..expected {
            let key = SegmentKey {
                job,
                edge,
                producer: p,
                partition,
            };
            out.push(
                self.peek(key)?
                    .expect("segment present: checked under lock and only consumers remove"),
            );
        }
        Ok(out)
    }

    /// Drops all segments of `job` and deletes their spill files.
    pub fn delete_job(&self, job: u64) -> io::Result<()> {
        let mut st = self.state.lock();
        let keys: Vec<SegmentKey> = st
            .segments
            .keys()
            .filter(|k| k.job == job)
            .copied()
            .collect();
        for key in keys {
            Self::remove_locked(&mut st, &key)?;
        }
        Ok(())
    }

    fn remove_locked(st: &mut StoreState, key: &SegmentKey) -> io::Result<()> {
        if let Some(e) = st.segments.remove(key) {
            match e.payload {
                Payload::Memory(b) => {
                    st.lru.unlink(e.lru);
                    st.in_memory -= b.len() as u64;
                }
                Payload::Spilled { path, .. } => {
                    let _ = fs::remove_file(path);
                }
            }
        }
        Ok(())
    }

    fn spill_path(dir: &Path, key: &SegmentKey) -> PathBuf {
        dir.join(format!(
            "{}-{}-{}-{}.seg",
            key.job, key.edge, key.producer, key.partition
        ))
    }

    fn enforce_capacity(&self, st: &mut StoreState) -> io::Result<()> {
        // Walk the recency list from the LRU end — exactly the ascending
        // stamp order the old sort produced, with no allocation or sort.
        while st.in_memory > self.capacity {
            let Some(key) = st.lru.lru_key() else {
                break; // everything left is already spilled
            };
            let dir = match &st.spill_dir {
                Some(dir) => dir,
                None => st.spill_dir.insert(create_spill_dir()?),
            };
            let path = Self::spill_path(dir, &key);
            let e = st.segments.get_mut(&key).expect("listed segments exist");
            let Payload::Memory(b) =
                std::mem::replace(&mut e.payload, Payload::Spilled { path: path.clone() })
            else {
                unreachable!("LRU list holds only in-memory segments");
            };
            st.lru.unlink(e.lru);
            e.lru = NIL;
            let mut f = fs::File::create(&path)?;
            f.write_all(&b)?;
            f.sync_data()?;
            st.in_memory -= b.len() as u64;
            st.spilled_bytes_total += b.len() as u64;
        }
        Ok(())
    }
}

impl Drop for CacheWorkerStore {
    fn drop(&mut self) {
        if let Some(dir) = &self.state.lock().spill_dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn key(job: u64, producer: u32, partition: u32) -> SegmentKey {
        SegmentKey {
            job,
            edge: 0,
            producer,
            partition,
        }
    }

    #[test]
    fn put_then_collect_orders_by_producer() {
        let store = CacheWorkerStore::new(1 << 20).unwrap();
        store.put(key(1, 1, 0), Bytes::from_static(b"bb")).unwrap();
        store.put(key(1, 0, 0), Bytes::from_static(b"aa")).unwrap();
        let got = store.collect(1, 0, 0, 2).unwrap();
        assert_eq!(
            got,
            vec![Bytes::from_static(b"aa"), Bytes::from_static(b"bb")]
        );
        assert_eq!(store.segment_count(), 0);
        assert_eq!(store.in_memory_bytes(), 0);
    }

    #[test]
    fn collect_blocks_until_all_producers_deliver() {
        let store = Arc::new(CacheWorkerStore::new(1 << 20).unwrap());
        let s2 = Arc::clone(&store);
        let reader = thread::spawn(move || s2.collect(7, 0, 3, 2).unwrap());
        store.put(key(7, 0, 3), Bytes::from_static(b"x")).unwrap();
        thread::sleep(std::time::Duration::from_millis(20));
        assert!(!reader.is_finished(), "must wait for producer 1");
        store.put(key(7, 1, 3), Bytes::from_static(b"y")).unwrap();
        let got = reader.join().unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn spills_and_reads_back() {
        let store = CacheWorkerStore::new(10).unwrap();
        let big = Bytes::from(vec![7u8; 64]);
        store.put(key(1, 0, 0), big.clone()).unwrap();
        assert_eq!(store.in_memory_bytes(), 0, "segment larger than cap spills");
        assert!(store.spilled_bytes_total() >= 64);
        let got = store.peek(key(1, 0, 0)).unwrap().unwrap();
        assert_eq!(got, big);
        let collected = store.collect(1, 0, 0, 1).unwrap();
        assert_eq!(collected[0], big);
        let dir = store.state.lock().spill_dir.clone().expect("spilled");
        assert!(dir.is_dir());
        drop(store);
        assert!(!dir.exists(), "drop removes the spill directory");
    }

    #[test]
    fn a_store_that_never_spills_creates_no_directory() {
        let store = CacheWorkerStore::new(1 << 20).unwrap();
        store.put(key(1, 0, 0), Bytes::from(vec![1u8; 64])).unwrap();
        store.collect_keep(1, 0, 0, 1).unwrap();
        store.delete_job(1).unwrap();
        assert_eq!(store.spilled_bytes_total(), 0);
        assert!(store.state.lock().spill_dir.is_none());
    }

    #[test]
    fn lru_spills_oldest() {
        let store = CacheWorkerStore::new(100).unwrap();
        store.put(key(1, 0, 0), Bytes::from(vec![0u8; 60])).unwrap();
        store.put(key(1, 1, 0), Bytes::from(vec![1u8; 60])).unwrap();
        // 120 > 100: producer 0's segment (older) spilled.
        assert_eq!(store.in_memory_bytes(), 60);
        assert_eq!(store.spilled_bytes_total(), 60);
        // Both still collectable.
        let got = store.collect(1, 0, 0, 2).unwrap();
        assert_eq!(got[0], Bytes::from(vec![0u8; 60]));
        assert_eq!(got[1], Bytes::from(vec![1u8; 60]));
    }

    #[test]
    fn peek_touch_protects_from_eviction() {
        let store = CacheWorkerStore::new(100).unwrap();
        store.put(key(1, 0, 0), Bytes::from(vec![0u8; 60])).unwrap();
        store.put(key(1, 1, 0), Bytes::from(vec![1u8; 30])).unwrap();
        // Touch the older, larger segment; the overflow from the next put
        // must then evict producer 1 (now least recently used), not 0.
        store.peek(key(1, 0, 0)).unwrap();
        store.put(key(1, 2, 0), Bytes::from(vec![2u8; 30])).unwrap();
        assert_eq!(store.in_memory_bytes(), 90, "producer 1 (30 B) spilled");
        assert_eq!(store.spilled_bytes_total(), 30);
        // Everything is still readable regardless of residency.
        for p in 0..3 {
            assert_eq!(store.peek(key(1, p, 0)).unwrap().unwrap()[0], p as u8);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let store = CacheWorkerStore::new(1 << 20).unwrap();
        store
            .put(key(1, 0, 0), Bytes::from_static(b"data"))
            .unwrap();
        assert!(store.peek(key(1, 0, 0)).unwrap().is_some());
        assert!(store.peek(key(1, 0, 0)).unwrap().is_some());
        assert_eq!(store.segment_count(), 1);
        assert!(store.peek(key(9, 0, 0)).unwrap().is_none());
    }

    #[test]
    fn delete_job_is_selective() {
        let store = CacheWorkerStore::new(1 << 20).unwrap();
        store.put(key(1, 0, 0), Bytes::from_static(b"a")).unwrap();
        store.put(key(2, 0, 0), Bytes::from_static(b"b")).unwrap();
        store.delete_job(1).unwrap();
        assert!(store.peek(key(1, 0, 0)).unwrap().is_none());
        assert!(store.peek(key(2, 0, 0)).unwrap().is_some());
    }

    #[test]
    fn overwrite_replaces_payload() {
        let store = CacheWorkerStore::new(1 << 20).unwrap();
        store.put(key(1, 0, 0), Bytes::from_static(b"old")).unwrap();
        store.put(key(1, 0, 0), Bytes::from_static(b"new")).unwrap();
        assert_eq!(store.in_memory_bytes(), 3);
        assert_eq!(
            store.peek(key(1, 0, 0)).unwrap().unwrap(),
            Bytes::from_static(b"new")
        );
    }

    #[test]
    fn many_concurrent_producers_and_consumers() {
        let store = Arc::new(CacheWorkerStore::new(1 << 12).unwrap());
        let (m, n) = (8u32, 4u32);
        let mut handles = Vec::new();
        for p in 0..m {
            let s = Arc::clone(&store);
            handles.push(thread::spawn(move || {
                for part in 0..n {
                    let payload = Bytes::from(vec![p as u8; 256]);
                    s.put(
                        SegmentKey {
                            job: 5,
                            edge: 0,
                            producer: p,
                            partition: part,
                        },
                        payload,
                    )
                    .unwrap();
                }
            }));
        }
        let mut readers = Vec::new();
        for part in 0..n {
            let s = Arc::clone(&store);
            readers.push(thread::spawn(move || s.collect(5, 0, part, m).unwrap()));
        }
        for h in handles {
            h.join().unwrap();
        }
        for (part, r) in readers.into_iter().enumerate() {
            let got = r.join().unwrap();
            assert_eq!(got.len(), m as usize, "partition {part}");
            for (p, b) in got.iter().enumerate() {
                assert_eq!(b[0], p as u8);
                assert_eq!(b.len(), 256);
            }
        }
        assert_eq!(store.segment_count(), 0);
    }
}
