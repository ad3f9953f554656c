//! The real (byte-moving) Cache Worker: an in-memory shuffle segment store
//! with LRU spill to a real file on disk.
//!
//! `swift-engine` uses one `CacheWorkerStore` per simulated machine (or one
//! shared store in single-process runs) as the staging area for Local and
//! Remote shuffle. Unlike the accounting model in [`crate::memory`], this
//! store holds real payloads and really writes them to disk.
//!
//! # The spill log
//!
//! A store spills into one append-only file, `spill.log`, in a directory
//! of its own that the first spill creates. An evicted segment is written
//! with one positioned write at the log's end and becomes an
//! `(offset, len)` range. A read copies the range's `Arc<File>` under the
//! store lock and does one positioned read after releasing it.
//!
//! A range is never reused while the store lives. Overwrites, consuming
//! reads and [`CacheWorkerStore::delete_job`] only forget ranges, so a
//! reader that released the lock still reads the payload it looked up.
//! The space comes back when the store drops and deletes its directory;
//! nothing compacts the log.
//!
//! Nothing is fsynced. Durability was never the contract: the paper's
//! Cache Worker swaps to disk to free memory, and a lost process is a
//! machine failure, which §IV recovery handles by re-running producers.

use crate::bytes::Bytes;
use crate::memory::SegmentKey;
use crate::sync::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;

#[derive(Debug)]
enum Payload {
    Memory(Bytes),
    /// Bytes `offset..offset + len` of the store's spill log.
    Spilled {
        offset: u64,
        len: usize,
    },
}

/// The store's spill file and the directory holding it.
#[derive(Debug)]
struct SpillLog {
    dir: PathBuf,
    file: Arc<File>,
    /// First byte past the last range handed out.
    end: u64,
}

impl SpillLog {
    /// Creates a fresh directory under the system temp dir and an empty
    /// log in it.
    fn create() -> io::Result<Self> {
        let dir = create_spill_dir()?;
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(dir.join("spill.log"))?;
        Ok(SpillLog {
            dir,
            file: Arc::new(file),
            end: 0,
        })
    }

    /// Appends `data` and returns its offset. No fsync: see the module
    /// docs.
    fn append(&mut self, data: &[u8]) -> io::Result<u64> {
        let offset = self.end;
        self.file.write_all_at(data, offset)?;
        self.end += data.len() as u64;
        Ok(offset)
    }
}

/// A payload looked up under the store lock, loaded after releasing it.
enum Fetch {
    Ready(Bytes),
    Spilled {
        file: Arc<File>,
        offset: u64,
        len: usize,
    },
}

impl Fetch {
    /// The payload's bytes: a spilled one costs one positioned read into
    /// a buffer that becomes the `Bytes` without a copy.
    fn load(self) -> io::Result<Bytes> {
        match self {
            Fetch::Ready(b) => Ok(b),
            Fetch::Spilled { file, offset, len } => {
                let mut buf = vec![0; len];
                file.read_exact_at(&mut buf, offset)?;
                Ok(Bytes::from(buf))
            }
        }
    }
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
    /// Created by the first spill, so a store that never spills never
    /// touches the file system.
    log: Option<SpillLog>,
}

impl StoreState {
    /// Looks up `key`'s payload: a consuming lookup removes the segment,
    /// a non-consuming one touches it in the recency list.
    fn fetch(&mut self, key: &SegmentKey, consume: bool) -> Option<Fetch> {
        let payload = if consume {
            let e = self.segments.remove(key)?;
            if let Payload::Memory(b) = &e.payload {
                self.lru.unlink(e.lru);
                self.in_memory -= b.len() as u64;
            }
            e.payload
        } else {
            let e = self.segments.get_mut(key)?;
            match &e.payload {
                Payload::Memory(b) => {
                    e.lru = self.lru.touch(e.lru);
                    return Some(Fetch::Ready(b.clone()));
                }
                &Payload::Spilled { offset, len } => Payload::Spilled { offset, len },
            }
        };
        Some(match payload {
            Payload::Memory(b) => Fetch::Ready(b),
            Payload::Spilled { offset, len } => Fetch::Spilled {
                file: Arc::clone(&self.log.as_ref().expect("a spilled segment has a log").file),
                offset,
                len,
            },
        })
    }

    /// Forgets `key`'s segment. A spilled one's range stays in the log,
    /// unused, until the store drops.
    fn remove(&mut self, key: &SegmentKey) {
        if let Some(e) = self.segments.remove(key) {
            if let Payload::Memory(b) = e.payload {
                self.lru.unlink(e.lru);
                self.in_memory -= b.len() as u64;
            }
        }
    }

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
        st.remove(&key);
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

    /// Reads one segment without consuming it, loading a spilled one from
    /// the log outside the lock (the segment stays spilled). Returns `None`
    /// if the key is unknown.
    pub fn peek(&self, key: SegmentKey) -> io::Result<Option<Bytes>> {
        let fetch = self.state.lock().fetch(&key, false);
        fetch.map(Fetch::load).transpose()
    }

    /// Blocks until all `expected` producers have delivered their segment
    /// for `(job, edge, partition)`, then removes and returns the payloads
    /// ordered by producer index. Spilled payloads are read after the lock
    /// is released: their ranges are never reused.
    pub fn collect(
        &self,
        job: u64,
        edge: u32,
        partition: u32,
        expected: u32,
    ) -> io::Result<Vec<Bytes>> {
        self.fetch_all(job, edge, partition, expected, true)
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
        self.fetch_all(job, edge, partition, expected, false)
    }

    /// Waits for all `expected` producers of `(job, edge, partition)`, looks
    /// their payloads up under one lock and loads them after releasing it.
    fn fetch_all(
        &self,
        job: u64,
        edge: u32,
        partition: u32,
        expected: u32,
        consume: bool,
    ) -> io::Result<Vec<Bytes>> {
        let key = |producer| SegmentKey {
            job,
            edge,
            producer,
            partition,
        };
        let mut st = self.state.lock();
        while !(0..expected).all(|p| st.segments.contains_key(&key(p))) {
            self.arrived.wait(&mut st);
        }
        let fetches: Vec<Fetch> = (0..expected)
            .map(|p| st.fetch(&key(p), consume).expect("checked ready above"))
            .collect();
        st.check_lru_invariant();
        drop(st);
        fetches.into_iter().map(Fetch::load).collect()
    }

    /// Drops all segments of `job`. Their spilled ranges stay in the log,
    /// unused, until the store drops.
    pub fn delete_job(&self, job: u64) -> io::Result<()> {
        let mut st = self.state.lock();
        let keys: Vec<SegmentKey> = st
            .segments
            .keys()
            .filter(|k| k.job == job)
            .copied()
            .collect();
        for key in keys {
            st.remove(&key);
        }
        Ok(())
    }

    fn enforce_capacity(&self, st: &mut StoreState) -> io::Result<()> {
        // Walk the recency list from the LRU end — exactly the ascending
        // stamp order the old sort produced, with no allocation or sort.
        while st.in_memory > self.capacity {
            let Some(key) = st.lru.lru_key() else {
                break; // everything left is already spilled
            };
            let log = match &mut st.log {
                Some(log) => log,
                None => st.log.insert(SpillLog::create()?),
            };
            let e = st.segments.get_mut(&key).expect("listed segments exist");
            let Payload::Memory(b) = &e.payload else {
                unreachable!("LRU list holds only in-memory segments");
            };
            let len = b.len();
            let offset = log.append(b)?;
            e.payload = Payload::Spilled { offset, len };
            st.lru.unlink(e.lru);
            e.lru = NIL;
            st.in_memory -= len as u64;
            st.spilled_bytes_total += len as u64;
        }
        Ok(())
    }
}

impl Drop for CacheWorkerStore {
    fn drop(&mut self) {
        if let Some(log) = &self.state.lock().log {
            let _ = fs::remove_dir_all(&log.dir);
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
        let dir = spill_dir(&store).expect("spilled");
        assert!(dir.is_dir());
        drop(store);
        assert!(!dir.exists(), "drop removes the spill directory");
    }

    fn spill_dir(store: &CacheWorkerStore) -> Option<PathBuf> {
        store.state.lock().log.as_ref().map(|log| log.dir.clone())
    }

    #[test]
    fn one_log_file_serves_every_job() {
        let store = CacheWorkerStore::new(0).unwrap();
        let payload =
            |job: u64, p: u32| Bytes::from(vec![(job as u8) * 16 + p as u8; 100 + p as usize]);
        for job in [1, 2] {
            for p in 0..3 {
                store.put(key(job, p, 0), payload(job, p)).unwrap();
            }
        }
        assert_eq!(store.in_memory_bytes(), 0, "capacity 0 spills everything");
        let dir = spill_dir(&store).expect("spilled");
        let files: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "one spill file per store: {files:?}");
        store.delete_job(1).unwrap();
        for p in 0..3 {
            assert!(store.peek(key(1, p, 0)).unwrap().is_none());
            assert_eq!(store.peek(key(2, p, 0)).unwrap().unwrap(), payload(2, p));
        }
        assert_eq!(
            store.collect(2, 0, 0, 3).unwrap(),
            (0..3).map(|p| payload(2, p)).collect::<Vec<_>>()
        );
        drop(store);
        assert!(!dir.exists(), "drop removes the spill directory");
    }

    /// A reader that released the lock must still read the payload it
    /// looked up while a writer overwrites the same spilled key: every
    /// read is one whole payload (fill byte `f`, length `64 + 37 * f`) and
    /// no read errors.
    #[test]
    fn peeks_of_an_overwritten_spilled_key_are_never_torn() {
        let store = Arc::new(CacheWorkerStore::new(0).unwrap());
        let payload = |fill: u8| Bytes::from(vec![fill; 64 + 37 * fill as usize]);
        store.put(key(1, 0, 0), payload(0)).unwrap();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(3));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (store, done, start) =
                    (Arc::clone(&store), Arc::clone(&done), Arc::clone(&start));
                thread::spawn(move || {
                    start.wait();
                    let mut reads = 0u64;
                    while !done.load(std::sync::atomic::Ordering::Relaxed) || reads == 0 {
                        let got = store.peek(key(1, 0, 0)).expect("no read errors");
                        let got = got.expect("the key always exists");
                        let fill = got[0];
                        assert!(
                            got.len() == 64 + 37 * fill as usize && got.iter().all(|&b| b == fill),
                            "torn read: {} bytes starting {fill}",
                            got.len()
                        );
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        start.wait();
        for i in 1..=2_000u32 {
            store.put(key(1, 0, 0), payload((i % 200) as u8)).unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    }

    #[test]
    fn a_store_that_never_spills_creates_no_directory() {
        let store = CacheWorkerStore::new(1 << 20).unwrap();
        store.put(key(1, 0, 0), Bytes::from(vec![1u8; 64])).unwrap();
        store.collect_keep(1, 0, 0, 1).unwrap();
        store.delete_job(1).unwrap();
        assert_eq!(store.spilled_bytes_total(), 0);
        assert!(spill_dir(&store).is_none());
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
