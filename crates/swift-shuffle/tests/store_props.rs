//! Randomized tests for the Cache Worker store and memory accounting,
//! driven by the in-tree seeded RNG (the workspace builds offline, so no
//! proptest): every payload survives arbitrary put/collect interleavings
//! at any capacity (spill is transparent), and the in-memory accounting
//! never exceeds the configured capacity.

use swift_shuffle::{Bytes, CacheWorkerMemory, CacheWorkerStore, SegmentKey};
use swift_sim::SimRng;

const CASES: u64 = 64;

fn key(job: u64, edge: u32, producer: u32, partition: u32) -> SegmentKey {
    SegmentKey {
        job,
        edge,
        producer,
        partition,
    }
}

/// Any (m producers × p partitions) put set collects back exactly, at any
/// memory capacity — spill must be invisible to consumers.
#[test]
fn store_roundtrips_under_any_capacity() {
    let mut rng = SimRng::new(0x5704_0001);
    for case in 0..CASES {
        let m = rng.range(1, 8) as u32;
        let parts = rng.range(1, 6) as u32;
        let capacity = rng.range(0, 4096);
        let payload_len = rng.range(0, 512) as usize;
        let store = CacheWorkerStore::new(capacity).unwrap();
        for producer in 0..m {
            for part in 0..parts {
                let byte = (producer * 31 + part) as u8;
                store
                    .put(
                        key(1, 0, producer, part),
                        Bytes::from(vec![byte; payload_len]),
                    )
                    .unwrap();
            }
        }
        assert!(store.in_memory_bytes() <= capacity, "case {case}");
        for part in 0..parts {
            let got = store.collect_keep(1, 0, part, m).unwrap();
            assert_eq!(got.len(), m as usize, "case {case}");
            for (producer, b) in got.iter().enumerate() {
                assert_eq!(b.len(), payload_len, "case {case}");
                if payload_len > 0 {
                    assert_eq!(b[0], (producer as u32 * 31 + part) as u8, "case {case}");
                }
            }
        }
        store.delete_job(1).unwrap();
        assert_eq!(store.segment_count(), 0, "case {case}");
        assert_eq!(store.in_memory_bytes(), 0, "case {case}");
    }
}

/// collect_keep leaves segments intact for replay; a second read gets
/// identical data.
#[test]
fn collect_keep_is_repeatable() {
    let mut rng = SimRng::new(0x5704_0002);
    for case in 0..CASES {
        let m = rng.range(1, 6) as u32;
        let capacity = rng.range(0, 512);
        let store = CacheWorkerStore::new(capacity).unwrap();
        for producer in 0..m {
            store
                .put(
                    key(2, 1, producer, 0),
                    Bytes::from(vec![producer as u8; 64]),
                )
                .unwrap();
        }
        let a = store.collect_keep(2, 1, 0, m).unwrap();
        let b = store.collect_keep(2, 1, 0, m).unwrap();
        assert_eq!(&a, &b, "case {case}");
        assert_eq!(
            store.segment_count(),
            m as usize,
            "case {case}: segments retained"
        );
        store.delete_job(2).unwrap();
        assert_eq!(store.segment_count(), 0, "case {case}");
    }
}

/// The accounting model keeps in-memory bytes under capacity after every
/// insert, and never loses track of bytes across consume cycles.
#[test]
fn memory_accounting_invariants() {
    let mut rng = SimRng::new(0x5704_0003);
    for case in 0..CASES {
        let n_ops = rng.range(1, 60) as usize;
        let capacity = rng.range(100, 2000);
        let mut cw = CacheWorkerMemory::new(capacity);
        let mut live: std::collections::BTreeMap<u32, u32> = Default::default();
        for i in 0..n_ops {
            let producer = rng.range(0, 12) as u32;
            let bytes = rng.range(1, 600);
            let consumers = rng.range(1, 3) as u32;
            if i % 3 == 2 && !live.is_empty() {
                // Consume one pending segment fully.
                let (&p, &remaining) = live.iter().next().unwrap();
                for _ in 0..remaining {
                    cw.consume(key(1, 0, p, 0));
                }
                live.remove(&p);
            } else {
                cw.insert(key(1, 0, producer, 0), bytes, consumers);
                live.insert(producer, consumers);
            }
            assert!(
                cw.in_memory_bytes() <= capacity,
                "case {case}: in-memory {} > capacity {capacity}",
                cw.in_memory_bytes()
            );
            assert_eq!(cw.segment_count(), live.len(), "case {case}");
        }
        // Drain everything.
        cw.drop_job(1);
        assert_eq!(cw.in_memory_bytes(), 0, "case {case}");
        assert_eq!(cw.on_disk_bytes(), 0, "case {case}");
        assert_eq!(cw.segment_count(), 0, "case {case}");
    }
}
