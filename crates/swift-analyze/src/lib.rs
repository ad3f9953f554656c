//! `swift-analyze` — the pre-run plan validator for the Swift workspace.
//!
//! It checks the paper's semantics, not Rust: structural validation of
//! DAGs, graphlet partitions, shuffle-scheme choices, recovery plans and
//! scheduling-template instantiation (`SW100`–`SW108`, `SW110`, in
//! [`plan`]), including the `.dag` fixture format ([`dagfile`]) and its
//! stale-suppression check (`SW009`). The validators share one
//! diagnostics engine ([`diag`]) and one CLI ([`run_cli`]) that also backs
//! the `swift-sql-shell analyze` subcommand. The chaos harness reuses them
//! as a pre-flight before every campaign seed.
//!
//! The determinism contract on the Rust source is clippy's job: each crate
//! in [`DETERMINISM_SENSITIVE_CRATES`] carries the same `clippy.toml`,
//! which bans the sources of run-to-run variation (DESIGN.md §8).

pub mod dagfile;
pub mod diag;
pub mod plan;

pub use dagfile::validate_dag_file;
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use plan::{
    validate_gang, validate_partition, validate_plan_versions, validate_recovery_plan_shape,
    validate_schemes, validate_schemes_sized, validate_template_roundtrip, SpanMap,
};

use swift_dag::{partition, JobDag, StageId};
use swift_shuffle::{AdaptiveThresholds, ShuffleScheme};

/// Crates whose runs must be a pure function of the seed. Each carries a
/// byte-identical `clippy.toml` that bans unordered hashing, wall clocks,
/// interior mutability, environment reads and threads; no other crate and
/// not the workspace root has one (the benchmark times with `Instant`).
/// `swift-cluster` is on the list because the scheduler calls into it on
/// every event: executor allocation picks which machine a task runs on,
/// and the cost model computes the timestamp of every event it schedules.
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

/// The built-in workload DAGs the validator audits under `--workspace`:
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

/// Validates every built-in workload DAG (the `--workspace` run).
pub fn analyze_workspace() -> Report {
    let mut report = Report::default();
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

const USAGE: &str = "usage: swift-analyze [--workspace] [--deny-warnings] \
                     [--format text|json] [--list-codes] [PATH.dag...]\n\
                     \n\
                     --workspace validates the built-in workload DAGs; each PATH is a \
                     .dag fixture. Rust source is checked by clippy, not here.";

/// Shared CLI driver for the `swift-analyze` binary and the
/// `swift-sql-shell analyze` subcommand. Returns the process exit code:
/// `0` clean, `1` diagnostics failed the run, `2` usage error.
pub fn run_cli(args: &[String]) -> i32 {
    let mut workspace = false;
    let mut deny_warnings = false;
    let mut format = Format::Text;
    let mut paths: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--deny-warnings" => deny_warnings = true,
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
            path if path.ends_with(".dag") => paths.push(path.to_string()),
            path => {
                eprintln!("swift-analyze: {path:?} is not a .dag file\n{USAGE}");
                return 2;
            }
        }
    }
    if !workspace && paths.is_empty() {
        eprintln!("swift-analyze: nothing to do (pass --workspace or PATHs)\n{USAGE}");
        return 2;
    }

    let mut report = Report::default();
    if workspace {
        report.merge(analyze_workspace());
    }
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(content) => report.merge(validate_dag_file(path, &content)),
            Err(e) => {
                eprintln!("swift-analyze: cannot read {path}: {e}");
                return 2;
            }
        }
    }
    report.sort();

    match format {
        Format::Text => {
            for d in &report.diagnostics {
                println!("{}", d.render_human());
            }
            println!(
                "swift-analyze: {} object(s) checked, {} error(s), {} warning(s), {} suppressed",
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
                 \"objects_checked\":{}}}",
                items.join(","),
                report.error_count(),
                report.warning_count(),
                report.suppressed,
                report.objects_checked
            );
        }
    }
    i32::from(report.failed(deny_warnings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_dags_are_clean() {
        for dag in builtin_dags() {
            let r = analyze_dag(&dag);
            assert!(
                r.diagnostics.is_empty(),
                "dag {} raised {:?}",
                dag.name,
                r.diagnostics
            );
        }
        assert!(analyze_workspace().objects_checked > 5);
    }

    #[test]
    fn rust_source_paths_are_a_usage_error() {
        assert_eq!(run_cli(&["crates/swift-sim/src/lib.rs".to_string()]), 2);
        for gone in ["--deny-unused-allows", "--time-budget-ms", "--root"] {
            assert_eq!(run_cli(&["--workspace".to_string(), gone.to_string()]), 2);
        }
    }
}
