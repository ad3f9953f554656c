//! Golden service-trace conformance suite.
//!
//! Pins the `service-small` scenario (3 tenants × 4 jobs, one storm —
//! admissions, one rejection, warm hits and cold starts all present) and
//! the `service-storm` scenario (machine failure, session kills,
//! requeues) as exact text goldens, plus the Chrome export and counter
//! tracks of the small one.
//!
//! Regenerating after an **intentional** change:
//!
//! ```text
//! SWIFT_TRACE_BLESS=1 cargo test -p swift-service --test golden
//! git diff crates/swift-service/tests/goldens/   # review every hunk
//! ```
//!
//! A golden diff on an unchanged format means the service loop stopped
//! being deterministic — a bug, never a stale fixture.

#![allow(
    clippy::disallowed_methods,
    reason = "SWIFT_TRACE_BLESS selects between checking and rewriting the goldens"
)]

use std::fs;
use std::path::PathBuf;

use swift_scheduler::SimEvent;
use swift_service::scenarios;

/// `(scenario, seed)` pairs pinned by a text golden.
const GOLDENS: &[(&str, u64)] = &[("service-small", 1), ("service-storm", 3)];

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn blessing() -> bool {
    std::env::var_os("SWIFT_TRACE_BLESS").is_some_and(|v| v == "1")
}

/// Exact-diffs `actual` against the golden `file`, or rewrites it under
/// `SWIFT_TRACE_BLESS=1`. Failures report the first differing line.
fn check_golden(file: &str, actual: &str) {
    let path = goldens_dir().join(file);
    if blessing() {
        fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with \
             SWIFT_TRACE_BLESS=1 cargo test -p swift-service --test golden",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mut exp = expected.lines();
    let mut act = actual.lines();
    let mut line = 1usize;
    loop {
        match (exp.next(), act.next()) {
            (Some(e), Some(a)) if e == a => line += 1,
            (e, a) => panic!(
                "golden mismatch in {file} at line {line}:\n  expected: {}\n  actual:   {}\n\
                 (intentional change? re-bless and review the diff)",
                e.unwrap_or("<eof>"),
                a.unwrap_or("<eof>"),
            ),
        }
    }
}

#[test]
fn golden_service_traces_match() {
    for &(name, seed) in GOLDENS {
        let (trace, _) = scenarios::run_recorded(name, seed).expect("known scenario");
        assert!(!trace.is_empty(), "{name} recorded nothing");
        assert_eq!(trace.check_spans(), Ok(()), "{name} span discipline");
        check_golden(&format!("{name}_{seed}.trace"), &trace.render_text());
    }
}

#[test]
fn golden_service_chrome_export_matches() {
    let (trace, _) = scenarios::run_recorded("service-small", 1).expect("known scenario");
    check_golden("service-small_1.chrome.json", &trace.to_chrome_json());
}

#[test]
fn golden_service_counter_tracks_match() {
    let (trace, _) = scenarios::run_recorded("service-small", 1).expect("known scenario");
    let counters = trace.render_counters_text();
    assert!(
        !counters.is_empty(),
        "service-small trace carries no frames"
    );
    check_golden("service-small_1.counters", &counters);
}

/// The golden scenario must actually exercise the front door: admission,
/// rejection, warm reuse and cold registration all appear in the stream
/// (so the golden is evidence for all four paths, not a trivial run).
#[test]
fn golden_scenario_covers_all_admission_paths() {
    let (trace, run) = scenarios::run_recorded("service-small", 1).expect("known scenario");
    let count = |pred: fn(&SimEvent) -> bool| trace.events.iter().filter(|e| pred(&e.kind)).count();
    assert!(count(|k| matches!(k, SimEvent::JobAdmitted { .. })) > 0);
    assert!(count(|k| matches!(k, SimEvent::JobRejected { .. })) > 0);
    assert!(count(|k| matches!(k, SimEvent::SessionWarmHit { .. })) > 0);
    assert!(count(|k| matches!(k, SimEvent::SessionColdStart { .. })) > 0);
    assert!(count(|k| matches!(k, SimEvent::SessionExpired { .. })) > 0);
    assert!(count(|k| matches!(k, SimEvent::CounterFrame { .. })) > 0);
    // The workload is the 3-tenants-x-4-jobs round-robin split.
    assert_eq!(run.report.jobs_submitted, 12);
    assert_eq!(run.report.tenants.len(), 3);
    assert!(run.report.tenants.iter().all(|t| t.submitted == 4));
}

/// The storm scenario must exercise the failure path: the machine
/// failure kills sessions and requeues their in-flight jobs.
#[test]
fn storm_scenario_covers_failure_paths() {
    let (trace, run) = scenarios::run_recorded("service-storm", 3).expect("known scenario");
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e.kind, SimEvent::MachineHealthChanged { .. })));
    assert!(run.report.sessions_killed > 0, "failure killed no session");
    assert!(run.report.jobs_restarted > 0, "failure requeued no job");
    assert_eq!(run.report.jobs_completed, run.report.jobs_admitted);
}

/// Record-twice determinism: the exact byte property the CI smoke pins.
#[test]
fn record_twice_is_byte_identical() {
    for &(name, seed) in GOLDENS {
        let (a, _) = scenarios::run_recorded(name, seed).expect("known scenario");
        let (b, _) = scenarios::run_recorded(name, seed).expect("known scenario");
        assert_eq!(a.render_text(), b.render_text(), "{name} bytes drifted");
    }
}

/// The goldens directory contains exactly the files this suite pins.
#[test]
fn goldens_dir_has_no_strays() {
    if blessing() {
        return; // the bless run may be creating the directory right now
    }
    let mut expected: Vec<String> = GOLDENS
        .iter()
        .map(|(n, s)| format!("{n}_{s}.trace"))
        .collect();
    expected.push("service-small_1.chrome.json".to_string());
    expected.push("service-small_1.counters".to_string());
    expected.sort();
    let mut present: Vec<String> = fs::read_dir(goldens_dir())
        .expect("goldens dir exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    present.sort();
    assert_eq!(
        present, expected,
        "stale or missing files under tests/goldens/"
    );
}
