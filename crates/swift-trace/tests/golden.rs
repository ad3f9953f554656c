//! Golden-trace conformance suite.
//!
//! Every entry in [`GOLDENS`] runs one registry scenario at a pinned seed
//! with the full recorder configuration and exact-diffs the rendered text
//! trace (and, for `tiny`, the Chrome JSON export) against a checked-in
//! golden file under `tests/goldens/`.
//!
//! Regenerating goldens after an **intentional** format or behaviour
//! change:
//!
//! ```text
//! SWIFT_TRACE_BLESS=1 cargo test -p swift-trace --test golden
//! git diff crates/swift-trace/tests/goldens/   # review every hunk
//! ```
//!
//! Bless rewrites the files in place; the diff is the review artifact.
//! Never bless to silence a failure you cannot explain — a golden diff
//! on an unchanged format means the simulator or recorder stopped being
//! deterministic, which is a bug, not a stale fixture.

#![allow(
    clippy::disallowed_methods,
    reason = "SWIFT_TRACE_BLESS selects between checking and rewriting the goldens"
)]

use std::fs;
use std::path::PathBuf;

use swift_trace::{scenarios, RecorderConfig};

/// `(scenario, seed)` pairs pinned by a golden file. One fault-injection
/// scenario (`fault`) and one barrier-heavy scenario (`barrier`) are
/// required members; the rest cover waves, fan-out and multi-job mixes.
const GOLDENS: &[(&str, u64)] = &[
    ("tiny", 1),
    ("diamond", 7),
    ("barrier", 3),
    ("wave", 5),
    ("fault", 11),
    ("multijob", 2),
    ("repeat_shapes", 7),
];

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
             SWIFT_TRACE_BLESS=1 cargo test -p swift-trace --test golden",
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
fn golden_traces_match() {
    for &(name, seed) in GOLDENS {
        let (trace, _) = scenarios::run_traced(name, seed, RecorderConfig::full())
            .unwrap_or_else(|| panic!("unknown scenario {name}"));
        assert!(!trace.is_empty(), "{name} recorded nothing");
        check_golden(&format!("{name}_{seed}.trace"), &trace.render_text());
    }
}

#[test]
fn golden_chrome_export_matches() {
    let (trace, _) = scenarios::run_traced("tiny", 1, RecorderConfig::full()).unwrap();
    check_golden("tiny_1.chrome.json", &trace.to_chrome_json());
}

/// Counter-track goldens: the name-resolved rendering of the frames in
/// two representative traces — `tiny` (a single job, one template miss)
/// and `repeat_shapes` (misses and a hit in the template series).
#[test]
fn golden_counter_tracks_match() {
    for &(name, seed) in &[("tiny", 1u64), ("repeat_shapes", 7u64)] {
        let (trace, _) = scenarios::run_traced(name, seed, RecorderConfig::full()).unwrap();
        let counters = trace.render_counters_text();
        assert!(!counters.is_empty(), "{name} trace carries no frames");
        check_golden(&format!("{name}_{seed}.counters"), &counters);
    }
}

/// The goldens directory contains exactly the files this suite pins —
/// a renamed scenario cannot leave a stale golden behind unnoticed.
#[test]
fn goldens_dir_has_no_strays() {
    if blessing() {
        return; // the bless run may be creating the directory right now
    }
    let mut expected: Vec<String> = GOLDENS
        .iter()
        .map(|(n, s)| format!("{n}_{s}.trace"))
        .collect();
    expected.push("tiny_1.chrome.json".to_string());
    expected.push("tiny_1.counters".to_string());
    expected.push("repeat_shapes_7.counters".to_string());
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
