//! The chaos campaigns under the root test run.
//!
//! `swift-chaos` checks every seeded run against its invariants:
//! completion, same-seed determinism, §IV-B recovery-plan minimality,
//! fine-grained versus whole-job-restart makespan and shuffle version
//! discipline, plus the service campaign's quota, DRR fairness,
//! back-pressure and warm-pool isolation. A few seeds of every campaign
//! kind run here, through the same public entry points as the
//! `swift-chaos` binary, so that a root `cargo test` sees a violation.

use swift::scheduler::RecoveryPolicy;
use swift_chaos::{execute, execute_service, run_campaign, run_service_seed, CampaignKind};

#[test]
fn every_campaign_kind_is_clean_on_its_first_seeds() {
    for kind in CampaignKind::ALL {
        let report = run_campaign(1, 3, kind, |_| {});
        assert_eq!(report.seeds_run, 3);
        assert!(report.jobs_run > 0, "{kind}: no job ran");
        assert!(report.clean(), "{kind} seeds 1..=3: {:#?}", report.failures);
    }
}

#[test]
fn per_job_campaigns_replay_to_the_same_digest() {
    for kind in CampaignKind::ALL {
        if kind == CampaignKind::Service {
            continue;
        }
        for seed in 1..=3 {
            let (report, _) = execute(seed, kind, RecoveryPolicy::FineGrained);
            let (replay, _) = execute(seed, kind, RecoveryPolicy::FineGrained);
            assert_eq!(report.digest(), replay.digest(), "{kind} seed {seed}");
        }
    }
}

#[test]
fn service_seeds_are_clean_and_replay_to_the_same_digest() {
    for seed in 4..=6 {
        let outcome = run_service_seed(seed);
        assert!(outcome.clean(), "seed {seed}: {:#?}", outcome.violations);
        // Inner jobs run fault-free, so the version ledger, not the plan
        // oracle, witnesses that the per-job observers ran.
        assert!(outcome.reads_checked > 0, "seed {seed}: no read checked");
        let report = execute_service(seed).report;
        let replay = execute_service(seed).report;
        assert_eq!(report.digest(), replay.digest(), "service seed {seed}");
    }
}
