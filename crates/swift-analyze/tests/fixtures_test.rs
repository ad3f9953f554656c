//! Golden-fixture corpus for both analyzer passes.
//!
//! Every lint rule (SW001–SW009, SW109) and every plan-validator rule
//! (SW100–SW108, SW110) has a failing fixture asserting the exact code and span,
//! plus a passing counterpart (`clean.rs` / `good.dag`) proving the rule
//! does not fire on correct input. Suppression fixtures prove the
//! `swift-analyze: allow(...)` escape hatch works in both passes and is
//! counted rather than silently dropped, and that a stale allow is
//! itself reported (SW009).

use std::path::PathBuf;

use swift_analyze::{scan_source, validate_dag_file, Code, Report, Severity};

fn fixture(rel: &str) -> (String, String) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", rel]
        .iter()
        .collect();
    let content = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    (format!("fixtures/{rel}"), content)
}

/// Scans a source fixture as if it lived in `crate_name`.
fn scan(crate_name: &str, rel: &str) -> Report {
    let (label, content) = fixture(rel);
    scan_source(crate_name, &label, &content)
}

/// Validates a `.dag` fixture.
fn check_dag(rel: &str) -> Report {
    let (label, content) = fixture(rel);
    validate_dag_file(&label, &content)
}

fn codes(r: &Report) -> Vec<Code> {
    r.diagnostics.iter().map(|d| d.code).collect()
}

fn lines(r: &Report) -> Vec<u32> {
    r.diagnostics.iter().map(|d| d.span.line).collect()
}

// ---- pass 1: source lints ----

#[test]
fn sw001_wall_clock_read_is_flagged() {
    let r = scan("swift-sim", "src/sw001_wallclock.rs");
    assert_eq!(codes(&r), vec![Code::SW001]);
    assert_eq!(lines(&r), vec![4]);
    assert_eq!(r.diagnostics[0].severity, Severity::Error);
    assert_eq!(
        r.diagnostics[0].span.file,
        "fixtures/src/sw001_wallclock.rs"
    );
}

#[test]
fn sw002_thread_use_is_flagged() {
    let r = scan("swift-scheduler", "src/sw002_thread.rs");
    assert_eq!(codes(&r), vec![Code::SW002]);
    assert_eq!(lines(&r), vec![4]);
}

#[test]
fn sw003_env_read_is_flagged() {
    let r = scan("swift-chaos", "src/sw003_env.rs");
    assert_eq!(codes(&r), vec![Code::SW003]);
    assert_eq!(lines(&r), vec![4]);
}

#[test]
fn sw004_hash_iteration_is_flagged_same_line_and_chained() {
    let r = scan("swift-shuffle", "src/sw004_hash_iter.rs");
    assert_eq!(codes(&r), vec![Code::SW004, Code::SW004]);
    // Line 11: `self.slots.values()`; line 16: the `.drain()` of a
    // builder chain whose receiver sits on the previous line.
    assert_eq!(lines(&r), vec![11, 16]);
}

#[test]
fn sw005_foreign_randomness_is_flagged() {
    let r = scan("swift-ft", "src/sw005_random.rs");
    assert_eq!(codes(&r), vec![Code::SW005]);
    assert_eq!(lines(&r), vec![4]);
}

#[test]
fn sw006_pointer_ordering_is_flagged() {
    let r = scan("swift-ft", "src/sw006_ptr_order.rs");
    assert_eq!(codes(&r), vec![Code::SW006]);
    assert_eq!(lines(&r), vec![4]);
}

#[test]
fn sw109_float_sum_over_unordered_iteration_is_flagged() {
    let r = scan("swift-scheduler", "src/sw109_float_sum.rs");
    // The iteration itself is SW004; the order-sensitive aggregation on
    // top of it is SW109, pointing at the `.sum()` line.
    assert_eq!(codes(&r), vec![Code::SW004, Code::SW109]);
    assert_eq!(lines(&r), vec![13, 15]);
    assert_eq!(r.diagnostics[1].severity, Severity::Error);
}

#[test]
fn clean_source_fixture_raises_nothing_in_any_crate() {
    for krate in swift_analyze::DETERMINISM_SENSITIVE_CRATES {
        let r = scan(krate, "src/clean.rs");
        assert!(r.diagnostics.is_empty(), "{krate}: {:?}", r.diagnostics);
        assert_eq!(r.suppressed, 0);
    }
}

#[test]
fn source_suppressions_silence_and_are_counted() {
    let r = scan("swift-sim", "src/suppressed.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(r.suppressed, 2, "one preceding-line + one same-line allow");
}

#[test]
fn lints_do_not_apply_outside_declared_crates() {
    // swift-cli parses env and may do as it likes: pass 1 is scoped.
    let r = scan("swift-cli", "src/sw001_wallclock.rs");
    assert!(r.diagnostics.is_empty());
}

// ---- pass 1: determinism taint engine (SW007/SW008/SW009) ----
//
// The shapes below are the ones a line-local scanner either misses
// (lock chains, re-bindings, helper returns) or flags spuriously
// (neutralized iteration); each fixture's exact codes, lines and
// severities are the oracle.

#[test]
fn sw007_lock_chain_taints_through_to_the_sink() {
    let r = scan("swift-shuffle", "src/sw007_lock_chain.rs");
    assert_eq!(codes(&r), vec![Code::SW008, Code::SW004, Code::SW007]);
    // Line 10: the `Mutex<HashMap<..>>` field; line 15: the
    // `lock().unwrap().iter()` chain; line 16: the `schedule` call
    // inside the unordered loop.
    assert_eq!(lines(&r), vec![10, 15, 16]);
    for d in &r.diagnostics {
        assert_eq!(d.severity, Severity::Error);
    }
    let sink = &r.diagnostics[2];
    assert!(
        sink.message.contains("taint path:") && sink.message.contains("(line 15)"),
        "SW007 must carry a step trace: {}",
        sink.message
    );
}

#[test]
fn sw007_taint_survives_rebinding() {
    let r = scan("swift-trace", "src/sw007_rebinding.rs");
    assert_eq!(codes(&r), vec![Code::SW004, Code::SW007]);
    assert_eq!(lines(&r), vec![8, 11]);
    let trace = &r.diagnostics[1].message;
    // The trace must walk every hop: param → iteration → collect →
    // both bindings → sink.
    for hop in ["`arrived`", "`raw`", "`snapshot`", "sink `record`"] {
        assert!(trace.contains(hop), "missing hop {hop} in: {trace}");
    }
}

#[test]
fn sw007_taint_crosses_function_boundaries_via_summaries() {
    let r = scan("swift-scheduler", "src/sw007_helper_return.rs");
    assert_eq!(codes(&r), vec![Code::SW004, Code::SW007]);
    // SW004 points into the helper; SW007 fires in the *caller*,
    // which never touches a HashMap directly.
    assert_eq!(lines(&r), vec![9, 15]);
    assert!(
        r.diagnostics[1]
            .message
            .contains("order-tainted return of `live_tasks()`"),
        "{}",
        r.diagnostics[1].message
    );
}

#[test]
fn sw007_ordered_container_chain_is_clean() {
    let r = scan("swift-shuffle", "src/sw007_btree_chain.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn sw007_sort_before_sink_cleanses_the_taint() {
    let r = scan("swift-trace", "src/sw007_sorted_before_sink.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn sw007_order_insensitive_aggregate_never_reaches_sink() {
    let r = scan("swift-scheduler", "src/sw007_neutralized.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

#[test]
fn sw004_immediately_neutralized_iteration_is_silent() {
    let r = scan("swift-ft", "src/sw004_neutralized.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(r.suppressed, 0, "clean by analysis, not by allows");
}

#[test]
fn sw008_shared_mutable_state_is_flagged_per_site() {
    let r = scan("swift-sim", "src/sw008_interior_mut.rs");
    assert_eq!(
        codes(&r),
        vec![Code::SW008; 5],
        "static mut, atomic static, thread_local (macro + inner static), field"
    );
    assert_eq!(lines(&r), vec![9, 11, 13, 14, 18]);
    for d in &r.diagnostics {
        assert_eq!(d.severity, Severity::Error);
    }
}

#[test]
fn sw007_metrics_sinks_are_determinism_sinks() {
    let r = scan("swift-metrics", "src/sw007_metrics_sink.rs");
    assert_eq!(
        codes(&r),
        vec![Code::SW004, Code::SW007, Code::SW004, Code::SW007],
        "hash iteration plus telemetry sink, in both functions"
    );
    assert_eq!(lines(&r), vec![9, 10, 15, 16]);
    for d in &r.diagnostics {
        assert_eq!(d.severity, Severity::Error);
    }
}

#[test]
fn sw008_global_metrics_registry_is_flagged() {
    let r = scan("swift-metrics", "src/sw008_metrics_static.rs");
    assert_eq!(
        codes(&r),
        vec![Code::SW008; 3],
        "atomic static, static mut, interior-mutable field"
    );
    assert_eq!(lines(&r), vec![8, 10, 13]);
    for d in &r.diagnostics {
        assert_eq!(d.severity, Severity::Error);
    }
}

#[test]
fn sw007_chain_findings_are_suppressible_and_counted() {
    let r = scan("swift-shuffle", "src/sw007_suppressed.rs");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(r.suppressed, 3, "SW008 + SW004 + SW007, each consumed");
    assert!(
        !r.failed(true),
        "fully acknowledged file passes strict mode"
    );
}

#[test]
fn sw009_stale_allow_is_a_warning_that_gates_only_strict_mode() {
    let r = scan("swift-ft", "src/sw009_unused_allow.rs");
    assert_eq!(codes(&r), vec![Code::SW009]);
    assert_eq!(lines(&r), vec![8]);
    assert_eq!(r.diagnostics[0].severity, Severity::Warning);
    assert!(
        r.diagnostics[0].message.contains("allow(SW004)"),
        "{}",
        r.diagnostics[0].message
    );
    assert_eq!(r.suppressed, 0, "a stale allow suppresses nothing");
    // --deny-warnings interaction: warnings fail strict runs only.
    assert!(!r.failed(false));
    assert!(r.failed(true));
}

// ---- pass 2: plan/DAG validation ----

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
