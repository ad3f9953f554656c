//! Same-seed report-digest regression.
//!
//! Pins the [`RunReport`]s of six seeded trace replays (3 seeds × 2
//! cluster sizes, with fault injection and fine-grained recovery). The
//! chaos harness already checks that two same-seed runs agree with *each
//! other*; this test additionally checks that they agree with the *past* —
//! any accidental behavior change (a reordered iteration, a changed
//! tie-break, an index that is not a pure cache of the old derivation)
//! fails loudly, not just nondeterminism.
//!
//! Each run is pinned twice. The first value is FNV-1a over the report's
//! `Debug` rendering — what `RunReport::digest` computed when the values
//! were captured from the pre-optimization simulator (commit `f3af289`).
//! This file computes that hash itself, so those captures keep vouching
//! for today's simulator. The second is [`RunReport::digest`] as defined
//! now, captured from the same six runs while the first column was green.
//!
//! If a PR changes them **intentionally** (a modeling or policy change),
//! re-capture with
//! `cargo test -p swift-scheduler --test report_digest -- --ignored --nocapture`
//! and say so in the PR description; perf-only PRs must keep them
//! byte-identical.

use swift_cluster::{Cluster, CostModel};
use swift_ft::FailureKind;
use swift_scheduler::{
    FailureAt, FailureInjection, JobSpec, RecoveryPolicy, RunReport, SimConfig, Simulation,
};
use swift_workload::{failure_injections, generate_trace, TraceConfig};

/// `(trace_seed, machines, executors_per_machine, debug_rendering_digest,
/// digest)`.
const PINNED: &[(u64, u32, u32, u64, u64)] = &[
    (1, 16, 4, 0xce9e2ccbe66d6b30, 0x749454e45b6e5879),
    (2, 16, 4, 0x7d92704d1e03ca48, 0x6f751623afc2205b),
    (3, 16, 4, 0x1a309bd6a8e5072a, 0x2ca526eaf307486c),
    (1, 64, 8, 0x98bb8cd8edf16951, 0xc05f001e518d740e),
    (2, 64, 8, 0x09dc72fafc5df611, 0x2352eb8977cec39b),
    (3, 64, 8, 0xc18899f33b64144e, 0x8dd6e637e9af25c5),
];

/// `RunReport::digest` as it was defined when the fourth column was
/// captured: FNV-1a over the bytes of the `Debug` rendering.
fn debug_rendering_digest(report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{report:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn report_for(seed: u64, machines: u32, executors: u32) -> RunReport {
    let trace = generate_trace(&TraceConfig {
        jobs: 30,
        seed,
        ..TraceConfig::default()
    });
    let mut cfg = SimConfig::swift();
    cfg.recovery = RecoveryPolicy::FineGrained;
    let specs: Vec<JobSpec> = trace
        .iter()
        .map(|t| JobSpec {
            dag: t.dag.clone(),
            submit_at: t.submit_at,
        })
        .collect();
    let mut sim = Simulation::new(
        Cluster::new(machines, executors, CostModel::default()),
        cfg,
        specs,
    );
    sim.inject_failures(
        failure_injections(&trace, 0.3, seed ^ 0xD15E)
            .into_iter()
            .map(|f| FailureInjection {
                job_index: f.job_index,
                stage: f.stage,
                task_index: f.task_index,
                at: FailureAt::AfterSubmit(f.after),
                kind: FailureKind::ProcessRestart,
            })
            .collect(),
    );
    sim.run()
}

#[test]
fn run_report_digests_are_pinned() {
    for &(seed, machines, executors, want_debug, want) in PINNED {
        let report = report_for(seed, machines, executors);
        let got_debug = debug_rendering_digest(&report);
        assert_eq!(
            got_debug, want_debug,
            "RunReport drift for seed {seed} on {machines}x{executors}: Debug \
             rendering hashes to {got_debug:#018x}, pinned {want_debug:#018x}"
        );
        let got = report.digest();
        assert_eq!(
            got, want,
            "RunReport digest drift for seed {seed} on {machines}x{executors}: \
             got {got:#018x}, pinned {want:#018x}"
        );
    }
}

/// Capture helper: prints the current digest table in `PINNED` format.
/// Run with `-- --ignored --nocapture` to re-pin after an intentional
/// behavior change.
#[test]
#[ignore = "capture helper, not a check"]
fn print_current_digests() {
    for &(seed, machines, executors, ..) in PINNED {
        let report = report_for(seed, machines, executors);
        println!(
            "    ({seed}, {machines}, {executors}, {:#018x}, {:#018x}),",
            debug_rendering_digest(&report),
            report.digest()
        );
    }
}
