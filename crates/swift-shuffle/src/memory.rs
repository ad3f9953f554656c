//! Cache Worker memory management (§III-B "Memory Management of the Cache
//! Worker"): shuffle segments live in memory, are deleted once every
//! consumer has read them, and under memory shortage the least recently
//! used segments are swapped to disk in large chunks.
//!
//! [`CacheWorkerMemory`] is the one implementation of that policy. The
//! simulator runs one per machine as an accounting model; the engine's
//! [`crate::CacheWorkerStore`] holds one and lets it decide which
//! segments are in memory and which are spilled, so the two spill the
//! same segments for the same puts and reads.

use std::collections::BTreeMap;

/// Identifies one shuffle segment: the output of one producer task for one
/// consumer partition of one edge of one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentKey {
    /// Job the segment belongs to.
    pub job: u64,
    /// Edge index within the job DAG.
    pub edge: u32,
    /// Producer task index.
    pub producer: u32,
    /// Consumer partition index.
    pub partition: u32,
}

/// Where a segment currently resides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentLocation {
    /// Resident in Cache Worker memory.
    Memory,
    /// Swapped out to local disk by the LRU policy.
    Disk,
}

/// Outcome of inserting a segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Segments the LRU policy swapped to disk to make room (possibly
    /// including the inserted segment itself if it alone exceeds capacity).
    pub spilled: Vec<(SegmentKey, u64)>,
}

#[derive(Clone, Debug)]
struct Segment {
    bytes: u64,
    location: SegmentLocation,
    /// Remaining consumers that have not read the segment yet.
    pending_consumers: u32,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
}

/// Memory accounting for one machine's Cache Worker.
///
/// Most jobs are short and small, so segments normally live briefly and
/// memory pressure is rare (< 1 % in the paper's production clusters); when
/// it does occur, LRU segments are spilled to disk "in large data chunk"
/// without failing the shuffle.
#[derive(Clone, Debug)]
pub struct CacheWorkerMemory {
    capacity: u64,
    in_memory: u64,
    on_disk: u64,
    segments: BTreeMap<SegmentKey, Segment>,
    clock: u64,
    /// Lifetime counters for reporting.
    total_spilled_bytes: u64,
    total_spill_events: u64,
}

impl CacheWorkerMemory {
    /// Creates a Cache Worker with `capacity` bytes of memory.
    pub fn new(capacity: u64) -> Self {
        CacheWorkerMemory {
            capacity,
            in_memory: 0,
            on_disk: 0,
            segments: BTreeMap::new(),
            clock: 0,
            total_spilled_bytes: 0,
            total_spill_events: 0,
        }
    }

    /// Bytes currently resident in memory.
    pub fn in_memory_bytes(&self) -> u64 {
        self.in_memory
    }

    /// Bytes currently spilled to disk.
    pub fn on_disk_bytes(&self) -> u64 {
        self.on_disk
    }

    /// Total bytes ever spilled (for the cache-pressure ablation).
    pub fn total_spilled_bytes(&self) -> u64 {
        self.total_spilled_bytes
    }

    /// Number of spill events so far.
    pub fn total_spill_events(&self) -> u64 {
        self.total_spill_events
    }

    /// Number of live segments (memory + disk).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Bytes currently held live (memory + disk).
    pub fn live_bytes(&self) -> u64 {
        self.in_memory + self.on_disk
    }

    /// Stores a segment of `bytes` bytes that `consumers` consumer tasks
    /// will read. Returns the segments the LRU policy spilled to make room.
    ///
    /// Inserting a key that already exists refreshes it (idempotent
    /// producer re-runs overwrite their previous output).
    pub fn insert(&mut self, key: SegmentKey, bytes: u64, consumers: u32) -> InsertOutcome {
        let _ = self.remove(key);
        self.clock += 1;
        self.segments.insert(
            key,
            Segment {
                bytes,
                location: SegmentLocation::Memory,
                pending_consumers: consumers,
                stamp: self.clock,
            },
        );
        self.in_memory += bytes;
        InsertOutcome {
            spilled: self.enforce_capacity(),
        }
    }

    /// Records that one consumer has read the segment; touches its LRU
    /// stamp. When the last consumer reads it, the segment is deleted and
    /// its memory released (§III-B). Returns the segment's location at read
    /// time (`None` if unknown — e.g. already fully consumed).
    pub fn consume(&mut self, key: SegmentKey) -> Option<SegmentLocation> {
        let seg = self.touched(key)?;
        let loc = seg.location;
        seg.pending_consumers = seg.pending_consumers.saturating_sub(1);
        if seg.pending_consumers == 0 {
            let _ = self.remove(key);
        }
        Some(loc)
    }

    /// Records a read that consumes nothing: the segment becomes the most
    /// recently used. Returns its location (`None` if unknown).
    pub fn touch(&mut self, key: SegmentKey) -> Option<SegmentLocation> {
        self.touched(key).map(|seg| seg.location)
    }

    /// Advances the clock and stamps `key`'s segment with it, if live.
    fn touched(&mut self, key: SegmentKey) -> Option<&mut Segment> {
        self.clock += 1;
        let seg = self.segments.get_mut(&key)?;
        seg.stamp = self.clock;
        Some(seg)
    }

    /// Moves a segment the LRU policy spilled back into memory and takes
    /// its spill off the counters, for a caller that could not write it to
    /// disk. The segment keeps its recency, so the next insert over
    /// capacity spills it again unless it was read since.
    pub fn restore(&mut self, key: SegmentKey) {
        let Some(seg) = self.segments.get_mut(&key) else {
            return;
        };
        if seg.location == SegmentLocation::Disk {
            seg.location = SegmentLocation::Memory;
            self.on_disk -= seg.bytes;
            self.in_memory += seg.bytes;
            self.total_spilled_bytes -= seg.bytes;
            self.total_spill_events -= 1;
        }
    }

    /// Current location of a segment, if live.
    pub fn location(&self, key: SegmentKey) -> Option<SegmentLocation> {
        self.segments.get(&key).map(|s| s.location)
    }

    /// Drops every segment of `job` (e.g. when the job completes or is
    /// cancelled), releasing memory and disk. Returns the bytes released.
    pub fn drop_job(&mut self, job: u64) -> u64 {
        let keys: Vec<SegmentKey> = self
            .segments
            .keys()
            .filter(|k| k.job == job)
            .copied()
            .collect();
        let mut released = 0;
        for k in keys {
            if let Some((_, bytes)) = self.remove(k) {
                released += bytes;
            }
        }
        released
    }

    /// Unconditionally deletes a live segment (e.g. a stale copy left behind
    /// when a producer re-run lands on a different machine), returning its
    /// location and size.
    pub fn evict(&mut self, key: SegmentKey) -> Option<(SegmentLocation, u64)> {
        self.remove(key)
    }

    fn remove(&mut self, key: SegmentKey) -> Option<(SegmentLocation, u64)> {
        let seg = self.segments.remove(&key)?;
        match seg.location {
            SegmentLocation::Memory => self.in_memory -= seg.bytes,
            SegmentLocation::Disk => self.on_disk -= seg.bytes,
        }
        Some((seg.location, seg.bytes))
    }

    /// Spills least-recently-used in-memory segments until usage fits the
    /// capacity. O(n log n) in live segments; acceptable because spill is a
    /// sub-1 % event.
    fn enforce_capacity(&mut self) -> Vec<(SegmentKey, u64)> {
        if self.in_memory <= self.capacity {
            return Vec::new();
        }
        let mut candidates: Vec<(u64, SegmentKey)> = self
            .segments
            .iter()
            .filter(|(_, s)| s.location == SegmentLocation::Memory)
            .map(|(k, s)| (s.stamp, *k))
            .collect();
        candidates.sort();
        let mut spilled = Vec::new();
        for (_, key) in candidates {
            if self.in_memory <= self.capacity {
                break;
            }
            let seg = self.segments.get_mut(&key).expect("candidate is live");
            seg.location = SegmentLocation::Disk;
            self.in_memory -= seg.bytes;
            self.on_disk += seg.bytes;
            self.total_spilled_bytes += seg.bytes;
            self.total_spill_events += 1;
            spilled.push((key, seg.bytes));
        }
        spilled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(producer: u32) -> SegmentKey {
        SegmentKey {
            job: 1,
            edge: 0,
            producer,
            partition: 0,
        }
    }

    #[test]
    fn insert_and_consume_lifecycle() {
        let mut cw = CacheWorkerMemory::new(1_000);
        let out = cw.insert(key(0), 400, 2);
        assert!(out.spilled.is_empty());
        assert_eq!(cw.in_memory_bytes(), 400);
        assert_eq!(cw.consume(key(0)), Some(SegmentLocation::Memory));
        assert_eq!(cw.segment_count(), 1, "one consumer still pending");
        assert_eq!(cw.consume(key(0)), Some(SegmentLocation::Memory));
        assert_eq!(cw.segment_count(), 0, "deleted after last consumer");
        assert_eq!(cw.in_memory_bytes(), 0);
        assert_eq!(cw.consume(key(0)), None);
    }

    #[test]
    fn lru_spills_oldest_first() {
        let mut cw = CacheWorkerMemory::new(1_000);
        cw.insert(key(0), 400, 1);
        cw.insert(key(1), 400, 1);
        // Touch segment 0 so segment 1 becomes the LRU victim.
        assert_eq!(cw.location(key(0)), Some(SegmentLocation::Memory));
        cw.insert(key(2), 400, 1);
        // 1200 > 1000: one spill needed; victim must be key(0)? No — key(0)
        // was only *located*, not consumed; stamps order is 0 < 1 < 2, so
        // key(0) spills.
        assert_eq!(cw.location(key(0)), Some(SegmentLocation::Disk));
        assert_eq!(cw.location(key(1)), Some(SegmentLocation::Memory));
        assert_eq!(cw.in_memory_bytes(), 800);
        assert_eq!(cw.on_disk_bytes(), 400);
        assert_eq!(cw.total_spill_events(), 1);
    }

    #[test]
    fn consume_touches_lru_order() {
        let mut cw = CacheWorkerMemory::new(1_000);
        cw.insert(key(0), 400, 2);
        cw.insert(key(1), 400, 1);
        // Reading key(0) makes key(1) the LRU victim.
        cw.consume(key(0));
        cw.insert(key(2), 400, 1);
        assert_eq!(cw.location(key(1)), Some(SegmentLocation::Disk));
        assert_eq!(cw.location(key(0)), Some(SegmentLocation::Memory));
    }

    #[test]
    fn touch_reorders_eviction() {
        let mut cw = CacheWorkerMemory::new(1_000);
        cw.insert(key(0), 400, 1);
        cw.insert(key(1), 400, 1);
        // Without the touch key(0) would be the victim.
        assert_eq!(cw.touch(key(0)), Some(SegmentLocation::Memory));
        let out = cw.insert(key(2), 400, 1);
        assert_eq!(out.spilled, vec![(key(1), 400)]);
        assert_eq!(cw.segment_count(), 3, "a touch consumes nothing");
        assert_eq!(cw.touch(key(9)), None);
    }

    #[test]
    fn restore_undoes_a_spill_and_keeps_recency() {
        let mut cw = CacheWorkerMemory::new(500);
        cw.insert(key(0), 400, 1);
        cw.insert(key(1), 400, 1); // spills key(0)
        cw.restore(key(0));
        assert_eq!(cw.location(key(0)), Some(SegmentLocation::Memory));
        assert_eq!((cw.in_memory_bytes(), cw.on_disk_bytes()), (800, 0));
        assert_eq!((cw.total_spilled_bytes(), cw.total_spill_events()), (0, 0));
        // key(0) is still the least recently used, so it spills first.
        let out = cw.insert(key(2), 100, 1);
        assert_eq!(out.spilled, vec![(key(0), 400)]);
    }

    #[test]
    fn consuming_spilled_segment_reports_disk() {
        let mut cw = CacheWorkerMemory::new(500);
        cw.insert(key(0), 400, 1);
        cw.insert(key(1), 400, 1); // spills key(0)
        assert_eq!(cw.consume(key(0)), Some(SegmentLocation::Disk));
        assert_eq!(cw.on_disk_bytes(), 0, "read-out releases disk space");
    }

    #[test]
    fn oversized_segment_spills_itself() {
        let mut cw = CacheWorkerMemory::new(100);
        let out = cw.insert(key(0), 400, 1);
        assert_eq!(out.spilled, vec![(key(0), 400)]);
        assert_eq!(cw.in_memory_bytes(), 0);
        assert_eq!(cw.on_disk_bytes(), 400);
    }

    #[test]
    fn reinsert_refreshes_segment() {
        let mut cw = CacheWorkerMemory::new(1_000);
        cw.insert(key(0), 400, 1);
        cw.insert(key(0), 200, 3);
        assert_eq!(cw.in_memory_bytes(), 200);
        assert_eq!(cw.segment_count(), 1);
    }

    #[test]
    fn drop_job_releases_everything() {
        let mut cw = CacheWorkerMemory::new(1_000);
        cw.insert(
            SegmentKey {
                job: 1,
                edge: 0,
                producer: 0,
                partition: 0,
            },
            300,
            1,
        );
        cw.insert(
            SegmentKey {
                job: 2,
                edge: 0,
                producer: 0,
                partition: 0,
            },
            300,
            1,
        );
        assert_eq!(cw.drop_job(1), 300);
        assert_eq!(cw.segment_count(), 1);
        assert_eq!(cw.in_memory_bytes(), 300);
        assert_eq!(cw.drop_job(7), 0, "unknown job releases nothing");
    }

    #[test]
    fn live_bytes_spans_memory_and_disk() {
        let mut cw = CacheWorkerMemory::new(500);
        cw.insert(key(0), 400, 1);
        cw.insert(key(1), 400, 1); // spills key(0) to disk
        assert_eq!(cw.in_memory_bytes(), 400);
        assert_eq!(cw.on_disk_bytes(), 400);
        assert_eq!(cw.live_bytes(), 800);
    }

    #[test]
    fn evict_releases_segment_and_reports_location() {
        let mut cw = CacheWorkerMemory::new(1_000);
        cw.insert(key(0), 400, 2);
        assert_eq!(cw.evict(key(0)), Some((SegmentLocation::Memory, 400)));
        assert_eq!(cw.live_bytes(), 0);
        assert_eq!(cw.evict(key(0)), None, "second evict is a no-op");
    }
}
