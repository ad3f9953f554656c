//! Golden-fixture corpus for the plan validator.
//!
//! Every plan-validator rule (SW100–SW108, SW110) has a failing `.dag`
//! fixture asserting the exact code and span, plus a passing counterpart
//! (`good.dag`) proving the rules do not fire on correct input. The
//! suppression fixtures prove the `swift-analyze: allow(...)` escape hatch
//! works and is counted rather than silently dropped, and that a stale
//! allow is itself reported (SW009).

use std::path::PathBuf;

use swift_analyze::{validate_dag_file, Code, Report, Severity};

/// Validates a `.dag` fixture.
fn check_dag(rel: &str) -> Report {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", rel]
        .iter()
        .collect();
    let content = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    validate_dag_file(&format!("fixtures/{rel}"), &content)
}

fn codes(r: &Report) -> Vec<Code> {
    r.diagnostics.iter().map(|d| d.code).collect()
}

fn lines(r: &Report) -> Vec<u32> {
    r.diagnostics.iter().map(|d| d.span.line).collect()
}

#[test]
fn good_dag_passes_every_validator() {
    let r = check_dag("dags/good.dag");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(r.suppressed, 0);
    assert!(
        r.objects_checked >= 4,
        "partition, gang, schemes and plan must all have run"
    );
}

#[test]
fn sw100_parse_errors_carry_their_line() {
    let r = check_dag("dags/sw100_parse.dag");
    assert_eq!(codes(&r), vec![Code::SW100, Code::SW100]);
    assert_eq!(lines(&r), vec![3, 4], "unknown directive, unknown stage");
}

#[test]
fn sw101_unassigned_stage_is_flagged() {
    let r = check_dag("dags/sw101_partition.dag");
    assert_eq!(codes(&r), vec![Code::SW101]);
    assert!(
        r.diagnostics[0].message.contains('B'),
        "{:?}",
        r.diagnostics
    );
}

#[test]
fn sw102_split_pipeline_points_at_the_edge_line() {
    let r = check_dag("dags/sw102_split_pipeline.dag");
    assert_eq!(codes(&r), vec![Code::SW102]);
    assert_eq!(lines(&r), vec![4]);
}

#[test]
fn sw103_cyclic_quotient_is_flagged() {
    let r = check_dag("dags/sw103_cyclic_quotient.dag");
    assert_eq!(codes(&r), vec![Code::SW103]);
}

#[test]
fn sw104_oversized_gang_is_a_warning() {
    let r = check_dag("dags/sw104_gang.dag");
    assert_eq!(codes(&r), vec![Code::SW104]);
    assert_eq!(r.diagnostics[0].severity, Severity::Warning);
    assert_eq!(lines(&r), vec![5], "points at the graphlet M line");
    assert_eq!(r.error_count(), 0);
    assert!(r.failed(true), "still fails under --deny-warnings");
    assert!(!r.failed(false));
}

#[test]
fn sw105_scheme_threshold_mismatch_is_flagged() {
    let r = check_dag("dags/sw105_scheme.dag");
    assert_eq!(codes(&r), vec![Code::SW105]);
    assert_eq!(lines(&r), vec![5]);
    assert!(
        r.diagnostics[0].message.contains("20000"),
        "{:?}",
        r.diagnostics
    );
}

#[test]
fn sw106_superseded_producer_output_is_flagged() {
    let r = check_dag("dags/sw106_stale_version.dag");
    assert_eq!(codes(&r), vec![Code::SW106]);
    assert_eq!(lines(&r), vec![7], "points at the plan-update line");
}

#[test]
fn sw107_direct_on_barrier_is_flagged() {
    let r = check_dag("dags/sw107_direct_barrier.dag");
    assert_eq!(codes(&r), vec![Code::SW107]);
    assert_eq!(lines(&r), vec![5]);
}

#[test]
fn sw108_unsorted_rerun_set_is_flagged() {
    let r = check_dag("dags/sw108_malformed_plan.dag");
    assert_eq!(codes(&r), vec![Code::SW108]);
}

#[test]
fn sw110_template_scheme_drift_is_flagged() {
    let r = check_dag("dags/sw110_template_drift.dag");
    assert_eq!(codes(&r), vec![Code::SW110]);
    assert_eq!(lines(&r), vec![7], "points at the template-scheme line");
    assert_eq!(r.diagnostics[0].severity, Severity::Error);
}

#[test]
fn sw110_roundtrip_with_declared_sizes_is_clean() {
    // Exercises the whole new directive surface at once: explicit edge
    // size, thresholds override, `template` and a correct
    // `template-scheme` claim.
    let r = check_dag("dags/sw110_roundtrip_ok.dag");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn dag_suppressions_silence_and_are_counted() {
    let r = check_dag("dags/suppressed.dag");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn sw009_stale_allow_is_a_warning_that_gates_only_strict_mode() {
    let r = check_dag("dags/sw009_unused_allow.dag");
    assert_eq!(codes(&r), vec![Code::SW009]);
    assert_eq!(lines(&r), vec![7]);
    assert_eq!(r.diagnostics[0].severity, Severity::Warning);
    assert!(
        r.diagnostics[0].message.contains("allow(SW107)"),
        "{}",
        r.diagnostics[0].message
    );
    assert_eq!(r.suppressed, 0, "a stale allow suppresses nothing");
    // --deny-warnings interaction: warnings fail strict runs only.
    assert!(!r.failed(false));
    assert!(r.failed(true));
}
