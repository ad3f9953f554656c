//! Digest pins tier-1 can see.
//!
//! `cargo test` at the root runs only this package's tests, and the
//! workspace's pinned-digest suites live in the member crates. These two
//! small seeded runs put one [`RunReport`] pin and one `ServiceReport` pin
//! where the root run notices a behavior change on its own. A perf-only
//! change must keep them; a modeling or policy change re-captures them
//! (the failure message prints the new value) and says why. A third test
//! shows end to end that the event queue's barrier window does not change
//! behaviour.
//!
//! [`RunReport`]: swift::scheduler::RunReport

use swift::sim::SimDuration;
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

/// The event queue's barrier window is a tuning knob, not a semantics
/// knob: a one-µs window (a barrier per distinct timestamp) and a
/// 1000-second window (everything in a couple of runs) give the digest of
/// the default 256 ms window.
#[test]
fn barrier_window_is_a_tuning_knob() {
    let digest = |name: &str, window: SimDuration| {
        scenarios::build_with_window(name, 11, window)
            .expect("registry scenario exists")
            .run()
            .digest()
    };
    for name in ["diamond", "fault"] {
        let baseline = digest(name, SimDuration::from_millis(256));
        assert_eq!(
            baseline,
            digest(name, SimDuration(1)),
            "{name}: 1µs windows changed the digest"
        );
        assert_eq!(
            baseline,
            digest(name, SimDuration::from_secs(1_000)),
            "{name}: huge windows changed the digest"
        );
    }
}
