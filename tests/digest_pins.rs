//! Digest pins tier-1 can see.
//!
//! `cargo test` at the root runs only this package's tests, and the
//! workspace's pinned-digest suites live in the member crates. These two
//! small seeded runs put one [`RunReport`] pin and one `ServiceReport` pin
//! where the root run notices a behavior change on its own. A perf-only
//! change must keep them; a modeling or policy change re-captures them
//! (the failure message prints the new value) and says why. A third test
//! checks the event queue both pins run on against a `BTreeMap` keyed on
//! `(time, seq)`, the pop order every digest depends on.
//!
//! [`RunReport`]: swift::scheduler::RunReport

use std::collections::BTreeMap;

use swift::sim::{ShardedEventQueue, SimDuration, SimRng, SimTime};
use swift::trace::scenarios;
use swift::workload::generate_service_workload;

/// The `fault` registry scenario: gang scheduling, an injected task
/// failure, detection and fine-grained recovery.
#[test]
fn run_report_digest_is_pinned() {
    let report = scenarios::build("fault", 11)
        .expect("registry scenario exists")
        .run();
    assert_eq!(
        report.digest(),
        0x94c8_1c37_2413_9480,
        "RunReport digest of fault/11 is now {:#018x}",
        report.digest()
    );
}

/// The `service-storm` scenario: admission past the watermark, DRR, warm
/// and cold dispatches, one machine failure with session kills and
/// requeues, and every inner run's digest folded in. The scenario samples
/// counter frames every 10 s; sampling queues no event, so the same run
/// without sampling must give the pinned value too.
#[test]
fn service_report_digest_is_pinned() {
    const PIN: u64 = 0xb451_0df6_5164_86ff;
    let report = swift_service::scenarios::run("service-storm", 3)
        .expect("registry scenario exists")
        .report;
    assert!(report.jobs_rejected > 0 && report.jobs_restarted > 0);
    assert_eq!(
        report.digest(),
        PIN,
        "ServiceReport digest of service-storm/3 is now {:#018x}",
        report.digest()
    );
    let (workload, mut cfg, failures) =
        swift_service::scenarios::build("service-storm", 3).expect("registry scenario exists");
    assert!(cfg.sample_every.is_some(), "the pinned run samples");
    cfg.sample_every = None;
    let mut sim = swift_service::ServiceSim::new(cfg, generate_service_workload(&workload));
    sim.fail_machines(failures);
    let unsampled = sim.run().report.digest();
    assert_eq!(
        unsampled, PIN,
        "unsampled service-storm/3 digest is {unsampled:#018x}"
    );
}

/// The queue and a reference that pops the smallest `(time, seq)`, `seq`
/// counting `schedule` calls, driven in lockstep.
struct Lockstep {
    queue: ShardedEventQueue<u64>,
    reference: BTreeMap<(u64, u64), u64>,
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl Lockstep {
    /// Schedules the next `seq` (it is also the payload) at `at`.
    fn schedule(&mut self, at: SimTime) {
        self.queue.schedule(0, at, self.seq);
        self.reference.insert((at.0, self.seq), self.seq);
        self.seq += 1;
    }

    fn pop(&mut self) {
        let expected = self.reference.pop_first().map(|((t, _), e)| {
            self.now = SimTime(t);
            self.processed += 1;
            e
        });
        assert_eq!(self.queue.pop(), expected, "pop at {}", self.now);
        self.check();
    }

    fn pop_batch(&mut self) {
        let mut expected = Vec::new();
        if let Some((&(t, _), _)) = self.reference.first_key_value() {
            self.now = SimTime(t);
            while let Some(entry) = self.reference.first_entry() {
                if entry.key().0 != t {
                    break;
                }
                expected.push(entry.remove());
            }
        }
        self.processed += expected.len() as u64;
        let mut got = Vec::new();
        assert_eq!(self.queue.pop_batch_at_now(&mut got), expected.len());
        assert_eq!(got, expected, "batch at {}", self.now);
        self.check();
    }

    fn check(&self) {
        assert_eq!(self.queue.now(), self.now);
        assert_eq!(self.queue.processed(), self.processed);
        assert_eq!(self.queue.pending(), self.reference.len());
    }
}

/// Seeded mixes of single pops and batches, each followed by what a
/// handler schedules: events at `now` (which must pop before anything
/// later), a few µs ahead, a few ms ahead, hours ahead and near
/// `u64::MAX`, where `now + delay` saturates. Every pop, batch, `now()`,
/// `processed()` and `pending()` must match the reference.
#[test]
fn event_queue_pops_in_time_then_schedule_order() {
    for seed in 1..=16 {
        let mut rng = SimRng::new(seed);
        let mut run = Lockstep {
            queue: ShardedEventQueue::new(1, SimDuration::from_millis(256)),
            reference: BTreeMap::new(),
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        };
        for _ in 0..200 {
            run.schedule(SimTime(rng.range(0, 2_000_000)));
        }
        while !run.reference.is_empty() {
            if rng.chance(0.5) {
                run.pop();
            } else {
                run.pop_batch();
            }
            if run.seq > 3_000 {
                continue;
            }
            for _ in 0..rng.range(0, 4) {
                let delay = match rng.range(0, 6) {
                    0 | 1 => 0,
                    2 => rng.range(1, 5),
                    3 => rng.range(1_000, 300_000),
                    4 => rng.range(3_600_000_000, 4 * 3_600_000_000),
                    _ => u64::MAX - rng.range(0, 3),
                };
                run.schedule(run.now + SimDuration(delay));
            }
        }
        run.pop();
        run.pop_batch();
        assert_eq!(run.processed, run.seq, "seed {seed}");
    }
}
