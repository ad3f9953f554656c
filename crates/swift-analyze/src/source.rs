//! Pass 1 — determinism lints over workspace Rust source.
//!
//! Two engines share one lexer ([`crate::lex`]) and one suppression
//! resolver:
//!
//! * **Lexical rules** for patterns where a line-local match is exact
//!   enough: wall clocks (SW001), threads (SW002), environment reads
//!   (SW003), foreign randomness (SW005), address ordering (SW006).
//! * **The determinism taint engine** ([`crate::taint`]) for everything
//!   order-related: unordered iteration whose order *survives* (SW004),
//!   order-tainted values reaching determinism sinks (SW007), shared
//!   mutable state on the simulation step path (SW008), and float
//!   accumulation over
//!   nondeterministic order (SW109). The engine is dataflow-aware: it
//!   tracks taint through bindings, method chains
//!   (`m.lock().unwrap().iter()`), `for` loops and helper returns
//!   ([`crate::summary`]), and *drops* findings that are immediately
//!   neutralized (`collect::<BTreeMap<_,_>>()`, `.count()`, a later
//!   `sort()`).
//!
//! ## Crate scoping
//!
//! The rules encode the repo's determinism contract (see DESIGN.md §8):
//!
//! * **sim-facing** crates (`swift-sim`, `swift-scheduler`, `swift-chaos`,
//!   `swift-trace`, `swift-service`) must be pure functions of the seed —
//!   no wall clocks (SW001), no threads (SW002), no environment reads
//!   (SW003);
//! * **determinism-sensitive** crates (the above plus `swift-shuffle` and
//!   `swift-ft`, whose ledgers and monitors feed chaos reports) get the
//!   full taint analysis on top.
//!
//! Suppress a finding with a trailing or preceding-line comment:
//! `// swift-analyze: allow(SW004)` (multiple codes comma-separated).
//! Suppressions are counted in the report so they stay visible, and an
//! allow that matches no diagnostic is itself reported (SW009) so stale
//! suppressions cannot linger after the code they excused is gone.

use std::collections::BTreeSet;

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::lex::{boundary_matches, LineInfo};
use crate::summary::{build_summaries, prepare, PreparedFile, Summaries};
use crate::taint::{taint_file, RawDiag};

/// Crates whose event flow must be a pure function of the seed.
/// `swift-cluster` is among them because the scheduler calls into it on
/// every event: executor allocation picks which machine a task runs on,
/// and the cost model computes the timestamp of every event it
/// schedules, so a wall clock or environment read there would change the
/// event order and every report downstream.
pub const SIM_FACING_CRATES: [&str; 7] = [
    "swift-sim",
    "swift-scheduler",
    "swift-cluster",
    "swift-chaos",
    "swift-trace",
    "swift-metrics",
    "swift-service",
];

/// Crates where unordered iteration / foreign randomness / address
/// ordering can leak nondeterminism into reports and ledgers. The whole
/// set is also under the SW008 shared-state lint: state on the sim step
/// path must be threaded through `&mut` so every mutation happens in
/// event order, so interior mutability and `static mut` globals are
/// flagged at the declaration.
pub const DETERMINISM_SENSITIVE_CRATES: [&str; 9] = [
    "swift-sim",
    "swift-scheduler",
    "swift-cluster",
    "swift-chaos",
    "swift-shuffle",
    "swift-ft",
    "swift-trace",
    "swift-metrics",
    "swift-service",
];

/// Scans one file. `crate_name` selects which rule groups apply;
/// `file_label` is used verbatim in spans. Single-file entry point:
/// cross-function summaries are built from this file alone (the
/// `--workspace` path builds them over every scanned file first and uses
/// [`scan_prepared`] directly).
pub fn scan_source(crate_name: &str, file_label: &str, content: &str) -> Report {
    let file = prepare(content);
    let summaries = build_summaries(&[&file]);
    scan_prepared(crate_name, file_label, &file, &summaries)
}

/// Scans one pre-lexed file against pre-built summaries.
pub(crate) fn scan_prepared(
    crate_name: &str,
    file_label: &str,
    file: &PreparedFile,
    summaries: &Summaries,
) -> Report {
    let sim_facing = SIM_FACING_CRATES.contains(&crate_name);
    let sensitive = DETERMINISM_SENSITIVE_CRATES.contains(&crate_name);
    if !sim_facing && !sensitive {
        return Report {
            files_scanned: 1,
            ..Report::default()
        };
    }
    let mut raw: Vec<RawDiag> = Vec::new();
    lexical_rules(&file.lines, &file.mask, sim_facing, sensitive, &mut raw);
    if sensitive {
        raw.extend(taint_file(file, summaries));
    }
    resolve(file_label, &file.lines, &file.mask, raw)
}

/// The line-local lexical rules (SW001–SW003, SW005, SW006).
fn lexical_rules(
    lines: &[LineInfo],
    mask: &[bool],
    sim_facing: bool,
    sensitive: bool,
    raw: &mut Vec<RawDiag>,
) {
    for (n, li) in lines.iter().enumerate() {
        if mask[n] {
            continue;
        }
        let code = &li.code;
        let line = n as u32;
        if sim_facing {
            for pat in ["Instant::now", "SystemTime", "std::time::Instant"] {
                if !boundary_matches(code, pat).is_empty() {
                    raw.push(RawDiag {
                        line,
                        code: Code::SW001,
                        msg: format!(
                            "`{pat}` reads the wall clock; sim-facing code must use SimTime so \
                             runs are a pure function of the seed"
                        ),
                    });
                    break;
                }
            }
            for pat in ["std::thread", "thread::spawn", "thread::sleep"] {
                if !boundary_matches(code, pat).is_empty() {
                    raw.push(RawDiag {
                        line,
                        code: Code::SW002,
                        msg: format!(
                            "`{pat}` introduces scheduling nondeterminism; the simulator is \
                             single-threaded by design"
                        ),
                    });
                    break;
                }
            }
            for pat in ["env::var", "env::vars"] {
                if !boundary_matches(code, pat).is_empty() {
                    raw.push(RawDiag {
                        line,
                        code: Code::SW003,
                        msg: format!(
                            "`{pat}` makes behavior depend on the environment; thread \
                             configuration through SimConfig instead"
                        ),
                    });
                    break;
                }
            }
        }
        if sensitive {
            for pat in ["rand::", "thread_rng", "RandomState", "DefaultHasher"] {
                if !boundary_matches(code, pat).is_empty() {
                    raw.push(RawDiag {
                        line,
                        code: Code::SW005,
                        msg: format!(
                            "`{pat}` is randomness outside SimRng; all stochastic choices must \
                             flow through the seeded generator"
                        ),
                    });
                    break;
                }
            }
            let ptr_order = (code.contains("as *const") && code.contains("as usize"))
                || code.contains(".as_ptr() as usize")
                || !boundary_matches(code, "addr_of!").is_empty();
            if ptr_order {
                raw.push(RawDiag {
                    line,
                    code: Code::SW006,
                    msg: "address-based ordering/keying: pointer values vary across runs; derive \
                          ordering from stable ids instead"
                        .to_string(),
                });
            }
        }
    }
}

/// Sorts, dedups and suppression-resolves raw findings into a [`Report`],
/// tracking which `allow(...)` directives actually fired so stale ones
/// surface as SW009.
fn resolve(file_label: &str, lines: &[LineInfo], mask: &[bool], mut raw: Vec<RawDiag>) -> Report {
    raw.sort_by(|a, b| {
        (a.line, a.code.as_str())
            .cmp(&(b.line, b.code.as_str()))
            .then_with(|| a.msg.cmp(&b.msg))
    });
    raw.dedup_by(|a, b| a.line == b.line && a.code == b.code);

    let mut report = Report {
        files_scanned: 1,
        ..Report::default()
    };
    let mut consumed: BTreeSet<(usize, Code)> = BTreeSet::new();
    for d in raw {
        let n = d.line as usize;
        let mut allowed = false;
        if lines.get(n).is_some_and(|li| li.allows.contains(&d.code)) {
            allowed = true;
            consumed.insert((n, d.code));
        }
        if n > 0
            && lines
                .get(n - 1)
                .is_some_and(|li| li.allows.contains(&d.code))
        {
            allowed = true;
            consumed.insert((n - 1, d.code));
        }
        if allowed {
            report.suppressed += 1;
        } else {
            report.diagnostics.push(Diagnostic::new(
                d.code,
                Span::at(file_label, d.line + 1),
                d.msg,
            ));
        }
    }
    // Unused suppressions. An allow is "used" when a diagnostic of that
    // code landed on its line or the next one. SW009 is itself never
    // suppressible — a stale allow must be deleted, not excused.
    for (n, li) in lines.iter().enumerate() {
        if mask.get(n).copied().unwrap_or(false) {
            continue;
        }
        let mut seen: Vec<Code> = Vec::new();
        for &code in &li.allows {
            if code == Code::SW009 || seen.contains(&code) {
                continue;
            }
            seen.push(code);
            if !consumed.contains(&(n, code)) {
                report.diagnostics.push(Diagnostic::new(
                    Code::SW009,
                    Span::at(file_label, n as u32 + 1),
                    format!(
                        "unused suppression `allow({code})`: no {code} diagnostic on this line \
                         or the next — remove the stale allow"
                    ),
                ));
            }
        }
    }
    report
}

/// Infers the owning crate from a workspace-relative path like
/// `crates/swift-sim/src/time.rs`.
pub fn crate_of_path(path: &str) -> Option<&str> {
    let norm = path.replace('\\', "/");
    let idx = norm.find("crates/")?;
    let rest = &norm[idx + "crates/".len()..];
    let end = rest.find('/')?;
    // Safe: we return a slice of the original `path` with the same bounds.
    let start = idx + "crates/".len();
    Some(&path[start..start + end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn codes(r: &Report) -> Vec<Code> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_file_has_no_findings() {
        let r = scan_source("swift-sim", "x.rs", "fn f() -> u32 { 1 + 1 }\n");
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.files_scanned, 1);
    }

    #[test]
    fn out_of_scope_crates_are_skipped() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        let r = scan_source("swift-cli", "x.rs", src);
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn wall_clock_flagged_with_line() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        let r = scan_source("swift-scheduler", "s.rs", src);
        assert_eq!(codes(&r), vec![Code::SW001]);
        assert_eq!(r.diagnostics[0].span.line, 2);
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn mentions_in_comments_and_strings_are_ignored() {
        let src = "// Instant::now is banned\nfn f() { let s = \"SystemTime\"; let _ = s; }\n";
        let r = scan_source("swift-sim", "x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn threads_and_env_reads_flagged() {
        let src = "fn f() {\n    std::thread::sleep(d);\n    let _ = std::env::var(\"X\");\n}\n";
        let r = scan_source("swift-chaos", "c.rs", src);
        assert_eq!(codes(&r), vec![Code::SW002, Code::SW003]);
    }

    #[test]
    fn env_args_is_not_an_env_read() {
        let src = "fn f() { let _ = std::env::args(); }\n";
        let r = scan_source("swift-chaos", "c.rs", src);
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn hashmap_iteration_flagged_only_when_iterated() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   impl S {\n\
                   fn get(&self) -> Option<&u32> { self.m.get(&1) }\n\
                   fn all(&self) -> Vec<u32> { self.m.keys().copied().collect() }\n\
                   }\n";
        let r = scan_source("swift-shuffle", "m.rs", src);
        assert_eq!(codes(&r), vec![Code::SW004]);
        assert_eq!(r.diagnostics[0].span.line, 4);
    }

    #[test]
    fn for_loop_over_hashset_flagged() {
        let src = "fn f() {\n    let seen = HashSet::new();\n    for x in &seen { g(x); }\n}\n";
        let r = scan_source("swift-ft", "f.rs", src);
        assert_eq!(codes(&r), vec![Code::SW004]);
        assert_eq!(r.diagnostics[0].span.line, 3);
    }

    #[test]
    fn lock_chain_iteration_is_now_caught() {
        // `state.iter()` is not literally present (lock() intervenes): a
        // line-local match would miss it. The dataflow engine sees through
        // the wrappers.
        let src = "struct S { state: Mutex<HashMap<u64, u64>> }\n\
                   fn f(s: &S) { for (k, v) in s.state.lock().unwrap().iter() { g(k, v); } }\n";
        let r = scan_source("swift-shuffle", "m.rs", src);
        // SW008 rides along: the Mutex field is shared mutable state.
        assert_eq!(codes(&r), vec![Code::SW008, Code::SW004]);
        assert_eq!(r.diagnostics[1].span.line, 2);
        // Direct iteration on the tracked name is still caught:
        let src2 = "struct S { state: Mutex<HashMap<u64, u64>> }\n\
                    fn f(st: &StInner) { let _ = st.state.keys(); }\n";
        let r2 = scan_source("swift-shuffle", "m.rs", src2);
        assert_eq!(codes(&r2), vec![Code::SW008, Code::SW004]);
    }

    #[test]
    fn multiline_builder_chain_iteration_flagged() {
        // The style the real codebase uses: receiver and method split
        // across lines.
        let src = "struct S { segments: HashMap<u32, u32> }\n\
                   impl S {\n\
                   fn keys(&self) -> Vec<u32> {\n\
                   let keys: Vec<u32> = self\n\
                   .segments\n\
                   .keys()\n\
                   .copied()\n\
                   .collect();\n\
                   keys\n\
                   }\n\
                   }\n";
        let r = scan_source("swift-shuffle", "m.rs", src);
        assert_eq!(codes(&r), vec![Code::SW004]);
        assert_eq!(r.diagnostics[0].span.line, 6, "points at the .keys() line");
    }

    #[test]
    fn multiline_chain_on_untracked_name_is_fine() {
        let src = "struct S { segments: BTreeMap<u32, u32> }\n\
                   impl S {\n\
                   fn keys(&self) -> Vec<u32> {\n\
                   self.segments\n\
                   .keys()\n\
                   .copied()\n\
                   .collect()\n\
                   }\n\
                   }\n";
        let r = scan_source("swift-shuffle", "m.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn btreemap_is_fine() {
        let src = "struct S { m: BTreeMap<u32, u32> }\n\
                   fn f(s: &S) { for x in s.m.keys() { g(x); } }\n";
        let r = scan_source("swift-shuffle", "m.rs", src);
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn float_sum_over_hashmap_flagged_with_sw004() {
        let src = "struct R { per_stage: HashMap<u32, f64> }\n\
                   impl R {\n\
                   fn total(&self) -> f64 { self.per_stage.values().sum::<f64>() }\n\
                   }\n";
        let r = scan_source("swift-scheduler", "r.rs", src);
        assert_eq!(codes(&r), vec![Code::SW004, Code::SW109]);
        assert_eq!(r.diagnostics[1].span.line, 3);
    }

    #[test]
    fn float_sum_in_multiline_chain_points_at_the_sum_line() {
        let src = "struct R { per_stage: HashMap<u32, f64> }\n\
                   fn total(r: &R) -> f64 {\n\
                   r.per_stage\n\
                   .values()\n\
                   .copied()\n\
                   .sum::<f64>()\n\
                   }\n";
        let r = scan_source("swift-scheduler", "r.rs", src);
        assert_eq!(codes(&r), vec![Code::SW004, Code::SW109]);
        assert_eq!(r.diagnostics[0].span.line, 4, "SW004 at .values()");
        assert_eq!(r.diagnostics[1].span.line, 6, "SW109 at .sum()");
    }

    #[test]
    fn float_fold_over_hashset_flagged() {
        let src = "fn f(weights: HashSet<u64>) -> f64 {\n\
                   weights.iter().fold(0.0, |a, w| a + *w as f64)\n\
                   }\n";
        let r = scan_source("swift-ft", "f.rs", src);
        assert_eq!(codes(&r), vec![Code::SW004, Code::SW109]);
    }

    #[test]
    fn integer_sum_over_hashmap_is_clean() {
        // Integer addition is associative and commutative: summing in
        // nondeterministic order still yields one stable aggregate, so
        // the dataflow engine treats it as an order-insensitive fold.
        let src = "struct R { counts: HashMap<u32, u64> }\n\
                   fn total(r: &R) -> u64 { r.counts.values().sum::<u64>() }\n";
        let r = scan_source("swift-scheduler", "r.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn collect_into_btreemap_is_clean() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   impl S {\n\
                   fn snap(&self) -> BTreeMap<u32, u32> {\n\
                   self.m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<_, _>>()\n\
                   }\n\
                   }\n";
        let r = scan_source("swift-shuffle", "m.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn float_sum_over_ordered_collection_is_fine() {
        let src = "struct R { per_stage: BTreeMap<u32, f64> }\n\
                   fn total(r: &R) -> f64 { r.per_stage.values().sum::<f64>() }\n";
        let r = scan_source("swift-scheduler", "r.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn float_sum_suppression_is_counted() {
        let src = "struct R { m: HashMap<u32, f64> }\n\
                   // swift-analyze: allow(SW004, SW109)\n\
                   fn t(r: &R) -> f64 { r.m.values().sum::<f64>() }\n";
        let r = scan_source("swift-scheduler", "r.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed, 2);
    }

    #[test]
    fn unused_allow_is_reported_as_sw009() {
        let src = "// swift-analyze: allow(SW004)\n\
                   fn f() -> u32 { 1 }\n";
        let r = scan_source("swift-scheduler", "x.rs", src);
        assert_eq!(codes(&r), vec![Code::SW009]);
        assert_eq!(r.diagnostics[0].span.line, 1);
        assert_eq!(r.diagnostics[0].severity, Severity::Warning);
        assert!(r.diagnostics[0].message.contains("SW004"));
    }

    #[test]
    fn used_allow_is_not_reported() {
        let src = "fn f() { std::thread::sleep(d); } // swift-analyze: allow(SW002)\n";
        let r = scan_source("swift-sim", "x.rs", src);
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn partially_used_allow_reports_only_the_stale_code() {
        let src = "// swift-analyze: allow(SW001, SW002)\n\
                   fn f() { let _ = Instant::now(); }\n";
        let r = scan_source("swift-sim", "x.rs", src);
        assert_eq!(codes(&r), vec![Code::SW009]);
        assert!(
            r.diagnostics[0].message.contains("SW002"),
            "{}",
            r.diagnostics[0].message
        );
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn foreign_randomness_flagged() {
        let src = "fn f() { let x = rand::random::<u8>(); }\n";
        let r = scan_source("swift-sim", "r.rs", src);
        assert_eq!(codes(&r), vec![Code::SW005]);
    }

    #[test]
    fn pointer_ordering_flagged() {
        let src = "fn f(a: &u32) -> usize { a as *const u32 as usize }\n";
        let r = scan_source("swift-ft", "p.rs", src);
        assert_eq!(codes(&r), vec![Code::SW006]);
    }

    #[test]
    fn same_line_suppression_counts_as_suppressed() {
        let src = "fn f() { std::thread::sleep(d); } // swift-analyze: allow(SW002)\n";
        let r = scan_source("swift-sim", "x.rs", src);
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn preceding_line_suppression_works() {
        let src = "// swift-analyze: allow(SW001)\nfn f() { let _ = Instant::now(); }\n";
        let r = scan_source("swift-scheduler", "x.rs", src);
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn suppression_of_wrong_code_does_not_silence() {
        let src = "fn f() { let _ = Instant::now(); } // swift-analyze: allow(SW002)\n";
        let r = scan_source("swift-scheduler", "x.rs", src);
        assert_eq!(codes(&r), vec![Code::SW001, Code::SW009]);
        assert_eq!(r.suppressed, 0);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   use std::collections::HashMap;\n\
                   fn t() { let m: HashMap<u32, u32> = HashMap::new(); for x in &m { g(x); } }\n\
                   fn u() { std::thread::sleep(d); }\n\
                   }\n";
        let r = scan_source("swift-scheduler", "x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn code_after_test_module_is_still_scanned() {
        let src = "#[cfg(test)]\nmod tests { fn t() {} }\n\
                   fn late() { let _ = Instant::now(); }\n";
        let r = scan_source("swift-sim", "x.rs", src);
        assert_eq!(codes(&r), vec![Code::SW001]);
        assert_eq!(r.diagnostics[0].span.line, 3);
    }

    #[test]
    fn raw_strings_and_lifetimes_lex_cleanly() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\n\
                   const S: &str = r#\"Instant::now()\"#;\n";
        let r = scan_source("swift-sim", "x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn crate_inference_from_path() {
        assert_eq!(
            crate_of_path("crates/swift-sim/src/time.rs"),
            Some("swift-sim")
        );
        assert_eq!(
            crate_of_path("/root/repo/crates/swift-ft/src/lib.rs"),
            Some("swift-ft")
        );
        assert_eq!(crate_of_path("src/main.rs"), None);
    }
}
