//! `swift-analyze` — dual-pass static analysis for the Swift workspace.
//!
//! * **Pass 1** ([`source`]): determinism lints over the sim-facing crates'
//!   Rust source — lexical rules (`SW001`–`SW003`, `SW005`, `SW006`) plus
//!   the dataflow-aware determinism taint engine ([`taint`]) with
//!   cross-function summaries ([`summary`]) for order-taint findings
//!   (`SW004`, `SW007`, `SW109`), shared state (`SW008`) and stale
//!   suppressions (`SW009`);
//! * **Pass 2** ([`plan`]): structural validation of DAGs, graphlet
//!   partitions, shuffle-scheme choices, recovery plans and
//!   scheduling-template instantiation (`SW100`–`SW108`, `SW110`),
//!   including the `.dag` fixture format ([`dagfile`]).
//!
//! Both passes share one diagnostics engine ([`diag`]) and one CLI
//! ([`run_cli`]) that also backs the `swift-sql-shell analyze` subcommand.
//! The chaos harness reuses the pass-2 validators as a pre-flight before
//! every campaign seed.

pub mod dagfile;
pub mod diag;
mod lex;
mod parse;
pub mod plan;
pub mod source;
mod summary;
mod taint;

pub use dagfile::validate_dag_file;
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use plan::{
    validate_gang, validate_partition, validate_plan_versions, validate_recovery_plan_shape,
    validate_schemes, validate_schemes_sized, validate_template_roundtrip, SpanMap,
};
pub use source::{scan_source, DETERMINISM_SENSITIVE_CRATES, SIM_FACING_CRATES};

use std::path::{Path, PathBuf};
use swift_dag::{partition, JobDag, StageId};
use swift_shuffle::{AdaptiveThresholds, ShuffleScheme};

/// Walks up from `start` to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// scan order.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Pass 1 over the workspace: scans `crates/<crate>/src/**/*.rs` for every
/// determinism-sensitive crate under `root`. Cross-function summaries are
/// built over *all* scanned files first, so taint flows through helpers
/// across module and crate boundaries.
pub fn analyze_source_tree(root: &Path) -> Report {
    let mut prepared: Vec<(&str, String, summary::PreparedFile)> = Vec::new();
    for krate in DETERMINISM_SENSITIVE_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        rs_files(&src_dir, &mut files);
        for file in files {
            let Ok(content) = std::fs::read_to_string(&file) else {
                continue;
            };
            let label = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            prepared.push((krate, label, summary::prepare(&content)));
        }
    }
    let summaries =
        summary::build_summaries(&prepared.iter().map(|(_, _, f)| f).collect::<Vec<_>>());
    let mut report = Report::default();
    for (krate, label, file) in &prepared {
        report.merge(source::scan_prepared(krate, label, file, &summaries));
    }
    report
}

/// The built-in workload DAGs pass 2 audits when run with `--workspace`:
/// a representative TPC-H slice plus TeraSort.
pub fn builtin_dags() -> Vec<JobDag> {
    let mut dags: Vec<JobDag> = [1usize, 3, 5, 9, 13, 18]
        .iter()
        .map(|&q| swift_workload::tpch_sim_dag(q, q as u64))
        .collect();
    dags.push(swift_workload::terasort_dag(100, 40, 40, 64 << 20));
    dags
}

/// Validates one in-memory DAG the way the Swift policy would run it: the
/// library partition as the claimed partition, adaptive scheme selection
/// (with the barrier-edge Remote promotion) as the claimed schemes, and
/// the SW110 template roundtrip (a plan instantiated from the
/// scheduling-template cache must equal from-scratch planning).
pub fn analyze_dag(dag: &JobDag) -> Report {
    let spans = SpanMap::object(format!("dag:{}", dag.name));
    let claimed: Vec<Vec<StageId>> = partition(dag)
        .graphlets()
        .iter()
        .map(|g| g.stages.clone())
        .collect();
    let mut report = validate_partition(dag, &claimed, &spans);
    let thresholds = AdaptiveThresholds::default();
    let schemes: Vec<(usize, ShuffleScheme)> = dag
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut s = thresholds.select(dag.edge_shuffle_size(e));
            if e.kind == swift_dag::EdgeKind::Barrier && !s.uses_cache_worker() {
                s = ShuffleScheme::Remote;
            }
            (i, s)
        })
        .collect();
    report.merge(validate_schemes(dag, &schemes, thresholds, &spans));
    report.merge(validate_template_roundtrip(
        dag,
        &swift_scheduler::PolicyConfig::swift(),
        &[],
        &spans,
    ));
    report
}

/// Runs both passes over the workspace at `root`.
pub fn analyze_workspace(root: &Path) -> Report {
    let mut report = analyze_source_tree(root);
    for dag in builtin_dags() {
        report.merge(analyze_dag(&dag));
    }
    report.sort();
    report
}

/// Output format for [`run_cli`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

const USAGE: &str = "usage: swift-analyze [--workspace] [--root DIR] [--deny-warnings] \
                     [--deny-unused-allows] [--time-budget-ms N] \
                     [--format text|json] [--list-codes] [PATH...]\n\
                     \n\
                     PATHs may be .rs files (pass 1, crate inferred from crates/<name>/) \
                     or .dag files (pass 2).\n\
                     --deny-unused-allows fails the run on stale SW009 suppressions; \
                     --time-budget-ms fails it when analysis wall time exceeds N ms (CI \
                     latency guard).";

/// Shared CLI driver for the `swift-analyze` binary and the
/// `swift-sql-shell analyze` subcommand. Returns the process exit code:
/// `0` clean, `1` diagnostics failed the run, `2` usage error.
pub fn run_cli(args: &[String]) -> i32 {
    let started = std::time::Instant::now();
    let mut workspace = false;
    let mut deny_warnings = false;
    let mut deny_unused_allows = false;
    let mut time_budget_ms: Option<u64> = None;
    let mut format = Format::Text;
    let mut root_override: Option<PathBuf> = None;
    let mut paths: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--deny-warnings" => deny_warnings = true,
            "--deny-unused-allows" => deny_unused_allows = true,
            "--time-budget-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => time_budget_ms = Some(ms),
                None => {
                    eprintln!("swift-analyze: --time-budget-ms needs an integer value\n{USAGE}");
                    return 2;
                }
            },
            "--root" => match it.next() {
                Some(dir) => root_override = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("swift-analyze: --root needs a value\n{USAGE}");
                    return 2;
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!(
                        "swift-analyze: --format must be text or json (got {other:?})\n{USAGE}"
                    );
                    return 2;
                }
            },
            "--list-codes" => {
                for c in Code::ALL {
                    println!("{}  {:<7}  {}", c, c.severity(), c.description());
                }
                return 0;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            flag if flag.starts_with('-') => {
                eprintln!("swift-analyze: unknown flag {flag:?}\n{USAGE}");
                return 2;
            }
            path => paths.push(path.to_string()),
        }
    }
    if !workspace && paths.is_empty() {
        eprintln!("swift-analyze: nothing to do (pass --workspace or PATHs)\n{USAGE}");
        return 2;
    }

    let mut report = Report::default();
    if workspace {
        let root = match root_override.clone().or_else(|| {
            std::env::current_dir()
                .ok()
                .and_then(|d| find_workspace_root(&d))
        }) {
            Some(r) => r,
            None => {
                eprintln!("swift-analyze: cannot locate the workspace root (try --root DIR)");
                return 2;
            }
        };
        report.merge(analyze_workspace(&root));
    }
    for path in &paths {
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("swift-analyze: cannot read {path}: {e}");
                return 2;
            }
        };
        if path.ends_with(".dag") {
            report.merge(validate_dag_file(path, &content));
        } else {
            let krate = source::crate_of_path(path)
                .unwrap_or("swift-sim")
                .to_string();
            report.merge(scan_source(&krate, path, &content));
        }
    }
    report.sort();

    match format {
        Format::Text => {
            for d in &report.diagnostics {
                println!("{}", d.render_human());
            }
            println!(
                "swift-analyze: {} file(s) scanned, {} object(s) checked, {} error(s), \
                 {} warning(s), {} suppressed",
                report.files_scanned,
                report.objects_checked,
                report.error_count(),
                report.warning_count(),
                report.suppressed
            );
        }
        Format::Json => {
            let items: Vec<String> = report
                .diagnostics
                .iter()
                .map(Diagnostic::render_json)
                .collect();
            println!(
                "{{\"diagnostics\":[{}],\"errors\":{},\"warnings\":{},\"suppressed\":{},\
                 \"files_scanned\":{},\"objects_checked\":{}}}",
                items.join(","),
                report.error_count(),
                report.warning_count(),
                report.suppressed,
                report.files_scanned,
                report.objects_checked
            );
        }
    }
    let stale_allows =
        deny_unused_allows && report.diagnostics.iter().any(|d| d.code == Code::SW009);
    if stale_allows {
        eprintln!("swift-analyze: stale suppressions present (SW009) and --deny-unused-allows set");
    }
    let elapsed_ms = started.elapsed().as_millis() as u64;
    let over_budget = time_budget_ms.is_some_and(|budget| elapsed_ms > budget);
    if over_budget {
        eprintln!(
            "swift-analyze: analysis took {elapsed_ms} ms, over the --time-budget-ms {} guard",
            time_budget_ms.unwrap_or(0)
        );
    }
    if report.failed(deny_warnings) || stale_allows || over_budget {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_dags_are_clean_under_pass2() {
        for dag in builtin_dags() {
            let r = analyze_dag(&dag);
            assert!(
                r.diagnostics.is_empty(),
                "dag {} raised {:?}",
                dag.name,
                r.diagnostics
            );
        }
    }

    #[test]
    fn workspace_root_is_found_from_crate_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn workspace_analysis_reports_no_unsuppressed_errors() {
        // The acceptance bar for the whole PR: the analyzer over the live
        // workspace is clean.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let report = analyze_workspace(&root);
        assert!(
            report.diagnostics.is_empty(),
            "workspace has unsuppressed diagnostics:\n{}",
            report
                .diagnostics
                .iter()
                .map(Diagnostic::render_human)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            report.files_scanned > 10,
            "scanned {}",
            report.files_scanned
        );
        assert!(report.objects_checked > 5);
    }
}
