//! The real (byte-moving) Cache Worker: shuffle segments in memory,
//! spilled to a real file on disk.
//!
//! `swift-engine` uses one `CacheWorkerStore` per run as the staging area
//! of every shuffle edge. The store holds a [`CacheWorkerMemory`], the
//! LRU model the simulator runs on every machine, and lets it make every
//! size, recency and memory/disk decision:
//!
//! * a put inserts the segment into the model and writes the victims the
//!   model returns to the spill log, in the order returned;
//! * a read touches the segment in the model, then loads its payload;
//! * [`CacheWorkerStore::delete_job`] drops the job from the model.
//!
//! The store itself keeps only what the model cannot: the payloads, the
//! spill log and the blocking wait for producers. So the simulator and the
//! engine spill the same segments for the same puts and reads.
//!
//! # The spill log
//!
//! A store spills into one append-only file, `spill.log`, in a directory
//! of its own that the first spill creates. An evicted segment is written
//! with one positioned write at the log's end and becomes an
//! `(offset, len)` range. A read copies the range's `Arc<File>` under the
//! store lock and does one positioned read after releasing it.
//!
//! A range is never reused while the store lives. Overwrites and
//! [`CacheWorkerStore::delete_job`] only forget ranges, so a reader that
//! released the lock still reads the payload it looked up. The space
//! comes back when the store drops and deletes its directory; nothing
//! compacts the log.
//!
//! Nothing is fsynced. Durability was never the contract: the paper's
//! Cache Worker swaps to disk to free memory, and a lost process is a
//! machine failure, which §IV recovery handles by re-running producers.

use crate::bytes::Bytes;
use crate::memory::{CacheWorkerMemory, SegmentKey, SegmentLocation};
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

struct StoreState {
    /// Makes every size, recency and memory/disk decision.
    model: CacheWorkerMemory,
    /// One payload per segment of the model, in memory or spilled as the
    /// model says.
    payloads: BTreeMap<SegmentKey, Payload>,
    /// Created by the first spill, so a store that never spills never
    /// touches the file system.
    log: Option<SpillLog>,
}

impl StoreState {
    /// Writes the model's victims to the log in the order given. If a
    /// write fails, the victims not yet written go back to memory in the
    /// model, so their payloads stay readable, and the error is returned.
    fn spill(&mut self, victims: &[(SegmentKey, u64)]) -> io::Result<()> {
        for (i, &(key, _)) in victims.iter().enumerate() {
            if let Err(e) = self.spill_one(key) {
                for &(key, _) in &victims[i..] {
                    self.model.restore(key);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    fn spill_one(&mut self, key: SegmentKey) -> io::Result<()> {
        let log = match &mut self.log {
            Some(log) => log,
            None => self.log.insert(SpillLog::create()?),
        };
        let payload = self
            .payloads
            .get_mut(&key)
            .expect("the model's segments are stored");
        let Payload::Memory(b) = payload else {
            unreachable!("the model spills only in-memory segments");
        };
        let len = b.len();
        let offset = log.append(b)?;
        *payload = Payload::Spilled { offset, len };
        Ok(())
    }

    /// Touches a stored segment in the model and looks its payload up.
    fn fetch(&mut self, key: SegmentKey) -> Fetch {
        self.model.touch(key);
        match self.payloads[&key] {
            Payload::Memory(ref b) => Fetch::Ready(b.clone()),
            Payload::Spilled { offset, len } => Fetch::Spilled {
                file: Arc::clone(&self.log.as_ref().expect("a spilled segment has a log").file),
                offset,
                len,
            },
        }
    }

    /// Debug cross-check: the model and the payload map hold the same
    /// keys, with the same memory/disk split.
    fn check_consistent(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert_eq!(self.model.segment_count(), self.payloads.len());
        let mut in_memory = 0;
        for (key, payload) in &self.payloads {
            let location = match payload {
                Payload::Memory(b) => {
                    in_memory += b.len() as u64;
                    SegmentLocation::Memory
                }
                Payload::Spilled { .. } => SegmentLocation::Disk,
            };
            assert_eq!(self.model.location(*key), Some(location), "{key:?}");
        }
        assert_eq!(self.model.in_memory_bytes(), in_memory);
    }
}

/// A thread-safe shuffle segment store with bounded memory and LRU spill.
///
/// Producers [`put`](CacheWorkerStore::put) segments; consumers
/// [`collect_keep`](CacheWorkerStore::collect_keep) all segments of their
/// partition, blocking until the expected number of producers has
/// delivered. Reads consume nothing, so failure recovery can re-serve the
/// same data to a re-run consumer; [`delete_job`](CacheWorkerStore::delete_job)
/// frees a job's segments when it ends.
pub struct CacheWorkerStore {
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
        f.debug_struct("CacheWorkerStore").finish_non_exhaustive()
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
            state: Mutex::new(StoreState {
                model: CacheWorkerMemory::new(capacity),
                payloads: BTreeMap::new(),
                log: None,
            }),
            arrived: Condvar::new(),
        })
    }

    /// Bytes currently resident in memory.
    pub fn in_memory_bytes(&self) -> u64 {
        self.state.lock().model.in_memory_bytes()
    }

    /// Total bytes spilled to disk over the store's lifetime.
    pub fn spilled_bytes_total(&self) -> u64 {
        self.state.lock().model.total_spilled_bytes()
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.state.lock().model.segment_count()
    }

    /// Stores `data` under `key`, spilling LRU segments if the memory cap
    /// is exceeded. Overwrites any previous segment with the same key
    /// (idempotent producer re-runs). If a spill write fails, the error is
    /// returned and every payload, `data` included, stays readable in
    /// memory.
    pub fn put(&self, key: SegmentKey, data: Bytes) -> io::Result<()> {
        let mut st = self.state.lock();
        let victims = st.model.insert(key, data.len() as u64, 1).spilled;
        st.payloads.insert(key, Payload::Memory(data));
        let spilled = st.spill(&victims);
        st.check_consistent();
        drop(st);
        self.arrived.notify_all();
        spilled
    }

    /// Blocks until all `expected` producers have delivered their segment
    /// for `(job, edge, partition)`, then returns the payloads ordered by
    /// producer index. Segments stay in the store and keep their spill
    /// state, so failure recovery can re-serve the same data to a
    /// re-launched consumer (§IV-B input failure). Spilled payloads are
    /// read after the lock is released: their ranges are never reused.
    pub fn collect_keep(
        &self,
        job: u64,
        edge: u32,
        partition: u32,
        expected: u32,
    ) -> io::Result<Vec<Bytes>> {
        let key = |producer| SegmentKey {
            job,
            edge,
            producer,
            partition,
        };
        let mut st = self.state.lock();
        while !(0..expected).all(|p| st.payloads.contains_key(&key(p))) {
            self.arrived.wait(&mut st);
        }
        let fetches: Vec<Fetch> = (0..expected).map(|p| st.fetch(key(p))).collect();
        drop(st);
        fetches.into_iter().map(Fetch::load).collect()
    }

    /// Drops all segments of `job`. Their spilled ranges stay in the log,
    /// unused, until the store drops.
    pub fn delete_job(&self, job: u64) -> io::Result<()> {
        let mut st = self.state.lock();
        st.model.drop_job(job);
        st.payloads.retain(|k, _| k.job != job);
        st.check_consistent();
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

    /// The one payload of `(job, edge 0, partition 0)`'s producer 0.
    fn read(store: &CacheWorkerStore, job: u64) -> Bytes {
        store.collect_keep(job, 0, 0, 1).unwrap().remove(0)
    }

    #[test]
    fn put_then_collect_orders_by_producer() {
        let store = CacheWorkerStore::new(1 << 20).unwrap();
        store.put(key(1, 1, 0), Bytes::from_static(b"bb")).unwrap();
        store.put(key(1, 0, 0), Bytes::from_static(b"aa")).unwrap();
        let got = store.collect_keep(1, 0, 0, 2).unwrap();
        assert_eq!(
            got,
            vec![Bytes::from_static(b"aa"), Bytes::from_static(b"bb")]
        );
        store.delete_job(1).unwrap();
        assert_eq!(store.segment_count(), 0);
        assert_eq!(store.in_memory_bytes(), 0);
    }

    #[test]
    fn collect_blocks_until_all_producers_deliver() {
        let store = Arc::new(CacheWorkerStore::new(1 << 20).unwrap());
        let s2 = Arc::clone(&store);
        let reader = thread::spawn(move || s2.collect_keep(7, 0, 3, 2).unwrap());
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
        assert_eq!(read(&store, 1), big);
        assert_eq!(read(&store, 1), big, "a read leaves the segment spilled");
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
        assert_eq!(store.segment_count(), 3, "only job 2's segments are left");
        assert_eq!(
            store.collect_keep(2, 0, 0, 3).unwrap(),
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
    fn reads_of_an_overwritten_spilled_key_are_never_torn() {
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
                        let got = store.collect_keep(1, 0, 0, 1).expect("no read errors");
                        let fill = got[0][0];
                        assert!(
                            got[0].len() == 64 + 37 * fill as usize
                                && got[0].iter().all(|&b| b == fill),
                            "torn read: {} bytes starting {fill}",
                            got[0].len()
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
        let got = store.collect_keep(1, 0, 0, 2).unwrap();
        assert_eq!(got[0], Bytes::from(vec![0u8; 60]));
        assert_eq!(got[1], Bytes::from(vec![1u8; 60]));
    }

    #[test]
    fn a_read_protects_a_segment_from_eviction() {
        let store = CacheWorkerStore::new(100).unwrap();
        store.put(key(1, 0, 0), Bytes::from(vec![0u8; 60])).unwrap();
        store.put(key(1, 1, 0), Bytes::from(vec![1u8; 30])).unwrap();
        // Read the older, larger segment; the overflow from the next put
        // must then evict producer 1 (now least recently used), not 0.
        read(&store, 1);
        store.put(key(1, 2, 0), Bytes::from(vec![2u8; 30])).unwrap();
        assert_eq!(store.in_memory_bytes(), 90, "producer 1 (30 B) spilled");
        assert_eq!(store.spilled_bytes_total(), 30);
        // Everything is still readable regardless of residency.
        let got = store.collect_keep(1, 0, 0, 3).unwrap();
        for (p, b) in got.iter().enumerate() {
            assert_eq!(b[0], p as u8);
        }
    }

    #[test]
    fn collect_keep_does_not_consume() {
        let store = CacheWorkerStore::new(1 << 20).unwrap();
        store
            .put(key(1, 0, 0), Bytes::from_static(b"data"))
            .unwrap();
        assert_eq!(read(&store, 1), Bytes::from_static(b"data"));
        assert_eq!(read(&store, 1), Bytes::from_static(b"data"));
        assert_eq!(store.segment_count(), 1);
    }

    #[test]
    fn delete_job_is_selective() {
        let store = CacheWorkerStore::new(1 << 20).unwrap();
        store.put(key(1, 0, 0), Bytes::from_static(b"a")).unwrap();
        store.put(key(2, 0, 0), Bytes::from_static(b"b")).unwrap();
        store.delete_job(1).unwrap();
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.in_memory_bytes(), 1);
        assert_eq!(read(&store, 2), Bytes::from_static(b"b"));
    }

    #[test]
    fn overwrite_replaces_payload() {
        let store = CacheWorkerStore::new(1 << 20).unwrap();
        store.put(key(1, 0, 0), Bytes::from_static(b"old")).unwrap();
        store.put(key(1, 0, 0), Bytes::from_static(b"new")).unwrap();
        assert_eq!(store.in_memory_bytes(), 3);
        assert_eq!(read(&store, 1), Bytes::from_static(b"new"));
    }

    /// A spill write that fails returns its error, and the victim it could
    /// not write stays in memory and readable; once the log takes writes
    /// again, the next put spills it.
    #[test]
    fn a_failed_spill_write_keeps_every_payload_readable() {
        let store = CacheWorkerStore::new(100).unwrap();
        let payload = |p: u32| Bytes::from(vec![p as u8; 60]);
        store.put(key(1, 0, 0), payload(0)).unwrap();
        store.put(key(1, 1, 0), payload(1)).unwrap(); // spills producer 0
                                                      // Swap the log's handle for a read-only one: the next append fails.
        let path = spill_dir(&store).expect("spilled").join("spill.log");
        let writable = {
            let mut st = store.state.lock();
            let log = st.log.as_mut().expect("spilled");
            std::mem::replace(&mut log.file, Arc::new(File::open(&path).unwrap()))
        };
        assert!(store.put(key(1, 2, 0), payload(2)).is_err());
        assert_eq!(store.in_memory_bytes(), 120, "the victim stays in memory");
        assert_eq!(store.spilled_bytes_total(), 60);
        let all = |n: u32| (0..n).map(payload).collect::<Vec<_>>();
        assert_eq!(store.collect_keep(1, 0, 0, 3).unwrap(), all(3));
        store.state.lock().log.as_mut().expect("spilled").file = writable;
        store.put(key(1, 3, 0), payload(3)).unwrap();
        assert!(store.in_memory_bytes() <= 100);
        assert_eq!(store.collect_keep(1, 0, 0, 4).unwrap(), all(4));
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
            readers.push(thread::spawn(move || {
                s.collect_keep(5, 0, part, m).unwrap()
            }));
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
        store.delete_job(5).unwrap();
        assert_eq!(store.segment_count(), 0);
    }
}
