//! Flag-matrix conformance for the `service` campaign: the `--templates`
//! flag must compose with the service front door without moving a single
//! report byte. The campaign's own per-seed differential then re-checks
//! templates-on/off on every seed of every sweep.

use swift_chaos::{execute_service, run_service_seed, CampaignKind};

/// Seeds chosen to cover distinct generated shapes (with and without
/// failures, skewed and uniform tenants).
const SEEDS: &[u64] = &[1, 7, 19];

#[test]
fn service_digest_is_identical_across_the_flag_matrix() {
    for &seed in SEEDS {
        let baseline = execute_service(seed, false).report.digest();
        let run = execute_service(seed, true);
        assert_eq!(
            run.report.digest(),
            baseline,
            "seed {seed}: templates changed the service report"
        );
    }
}

#[test]
fn service_template_mode_actually_hits_the_cache() {
    // The differential above is vacuous if templates mode never engages;
    // a warm session replaying same-shape jobs must score cache hits.
    let hits: u64 = SEEDS
        .iter()
        .map(|&s| execute_service(s, true).template_hits)
        .sum();
    assert!(hits > 0, "service runs never hit the template cache");
    // And the off runs must not silently flip the cache on.
    for &seed in SEEDS {
        assert_eq!(execute_service(seed, false).template_lookups, 0);
    }
}

#[test]
fn service_seeds_run_clean_with_templates() {
    // The full per-seed invariant battery (inner-run oracles, quotas,
    // fairness, back-pressure, warm isolation, both differentials) with
    // the template cache on.
    for &seed in SEEDS {
        let outcome = run_service_seed(seed, true);
        assert_eq!(outcome.kind, CampaignKind::Service);
        assert!(
            outcome.clean(),
            "seed {seed} violated invariants: {:#?}",
            outcome.violations
        );
        // Inner jobs run fault-free (service failures kill sessions at
        // the service layer), so the plan oracle stays idle; the version
        // ledger proves the per-job observers actually engaged.
        assert!(outcome.reads_checked > 0, "version ledger never engaged");
    }
}
