//! Digest pins tier-1 can see.
//!
//! `cargo test` at the root runs only this package's tests, and the
//! workspace's pinned-digest suites live in the member crates. These two
//! small seeded runs put one [`RunReport`] pin and one `ServiceReport` pin
//! where the root run notices a behavior change on its own. A perf-only
//! change must keep them; a modeling or policy change re-captures them
//! (the failure message prints the new value) and says why.
//!
//! [`RunReport`]: swift::scheduler::RunReport

use swift::trace::scenarios;

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
/// requeues, and every inner run's digest folded in.
#[test]
fn service_report_digest_is_pinned() {
    let report = swift_service::scenarios::run("service-storm", 3)
        .expect("registry scenario exists")
        .report;
    assert!(report.jobs_rejected > 0 && report.jobs_restarted > 0);
    assert_eq!(
        report.digest(),
        0xd3e8_9d5c_7054_440c,
        "ServiceReport digest of service-storm/3 is now {:#018x}",
        report.digest()
    );
}
