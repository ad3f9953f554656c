//! A small text format describing a job DAG plus the claims the plan
//! validator checks — so malformed partitions, scheme choices and recovery
//! plans can live as fixture files with real `file:line` spans.
//!
//! ```text
//! # comment — append `swift-analyze: allow(SW105)` to suppress on the
//! # next (or same) line
//! job demo
//! stage M1 4
//! stage R2 2
//! edge M1 R2 barrier 20000
//! thresholds 10000 90000
//! graphlet M1
//! graphlet R2
//! cluster 64
//! scheme M1 R2 remote
//! template
//! template-scheme M1 R2 remote
//! plan-failed R2.0
//! plan-rerun R2.0
//! plan-update M1.0 R2.0 fetch
//! ledger M1.0 1 1
//! ```
//!
//! * `edge` kinds are explicit (`pipeline`/`barrier`); the optional
//!   fourth token declares the edge's shuffle size explicitly (default:
//!   the `M × N` task-count product), so fixtures can model realistic
//!   data volumes without inflating task counts;
//! * `thresholds SMALL LARGE` overrides the adaptive selection
//!   thresholds the scheme checks run under (default: production
//!   10 000 / 90 000);
//! * each `graphlet` line claims one graphlet (member stage names); if no
//!   `graphlet` lines appear the file's DAG is partitioned with the
//!   library's own algorithm (useful for scheme-only fixtures);
//! * `cluster N` enables the gang check against `N` executors;
//! * `scheme SRC DST direct|remote|local` claims a scheme for that edge;
//! * `template` enables the SW110 template-roundtrip check (a plan
//!   instantiated from the scheduling-template cache must equal
//!   from-scratch planning); `template-scheme SRC DST scheme` claims the
//!   scheme the instantiated template assigns to an edge (and implies
//!   `template`);
//! * `plan-failed`/`plan-abort`/`plan-rerun`/`plan-update` assemble one
//!   recovery plan (actions `resend|fetch|reconnect`);
//! * `ledger TASK LATEST [OUTPUT]` seeds the version ledger; the SW106
//!   check runs only when at least one `ledger` line is present.

use std::collections::BTreeMap;

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::plan::{
    validate_gang, validate_partition, validate_plan_versions, validate_recovery_plan_shape,
    validate_schemes_sized, validate_template_roundtrip, SpanMap,
};
use swift_dag::{DagBuilder, EdgeKind, JobDag, StageId, TaskId};
use swift_ft::{ChannelAction, ChannelUpdate, RecoveryCase, RecoveryPlan};
use swift_scheduler::{PolicyConfig, ShuffleSelection};
use swift_shuffle::{AdaptiveThresholds, ShuffleScheme};

#[derive(Debug, Default)]
struct ParsedFile {
    job: String,
    stages: Vec<(String, u32)>,
    edges: Vec<(String, String, EdgeKind, Option<u64>)>,
    graphlets: Vec<Vec<String>>,
    cluster: Option<u64>,
    thresholds: Option<AdaptiveThresholds>,
    schemes: Vec<(String, String, ShuffleScheme)>,
    template: bool,
    template_schemes: Vec<(String, String, ShuffleScheme)>,
    plan_failed: Option<String>,
    plan_abort: bool,
    plan_rerun: Vec<String>,
    plan_updates: Vec<(String, String, ChannelAction)>,
    ledger: Vec<(String, u32, Option<u32>)>,
    /// 1-based line → codes allowed there (suppresses same + next line).
    allows: BTreeMap<u32, Vec<Code>>,
    spans: SpanMap,
}

/// Splits a line into the directive part and an optional `#` comment.
fn split_comment(line: &str) -> (&str, Option<&str>) {
    match line.find('#') {
        Some(i) => (&line[..i], Some(&line[i + 1..])),
        None => (line, None),
    }
}

fn parse_allow(comment: &str) -> Vec<Code> {
    let mut out = Vec::new();
    if let Some(pos) = comment.find("swift-analyze:") {
        let rest = &comment[pos + "swift-analyze:".len()..];
        if let Some(open) = rest.find("allow(") {
            if let Some(close) = rest[open..].find(')') {
                for part in rest[open + "allow(".len()..open + close].split(',') {
                    if let Some(code) = Code::parse(part) {
                        out.push(code);
                    }
                }
            }
        }
    }
    out
}

fn parse_task_ref(s: &str) -> Option<(&str, u32)> {
    let (stage, idx) = s.rsplit_once('.')?;
    Some((stage, idx.parse().ok()?))
}

/// Parses and validates one `.dag` fixture file, returning the combined
/// validator report. Parse failures and DAG-construction failures surface as
/// **SW100** diagnostics with the offending line's span.
pub fn validate_dag_file(file_label: &str, content: &str) -> Report {
    let mut report = Report::default();
    let mut p = ParsedFile {
        spans: SpanMap {
            file: file_label.to_string(),
            lines: BTreeMap::new(),
        },
        ..ParsedFile::default()
    };

    for (i, raw) in content.lines().enumerate() {
        let lineno = i as u32 + 1;
        let (code_part, comment) = split_comment(raw);
        if let Some(c) = comment {
            let allows = parse_allow(c);
            if !allows.is_empty() {
                p.allows.entry(lineno).or_default().extend(allows);
            }
        }
        let mut words = code_part.split_whitespace();
        let Some(directive) = words.next() else {
            continue;
        };
        let rest: Vec<&str> = words.collect();
        let mut bad = |msg: String| {
            report.diagnostics.push(Diagnostic::new(
                Code::SW100,
                Span::at(file_label, lineno),
                msg,
            ));
        };
        match directive {
            "job" => match rest.as_slice() {
                [name] => {
                    p.job = name.to_string();
                    p.spans.lines.insert("job".into(), lineno);
                }
                _ => bad("`job` takes exactly one name".into()),
            },
            "stage" => match rest.as_slice() {
                [name, tasks] => match tasks.parse::<u32>() {
                    Ok(t) => p.stages.push((name.to_string(), t)),
                    Err(_) => bad(format!(
                        "stage {name}: task count {tasks:?} is not a number"
                    )),
                },
                _ => bad("`stage` takes NAME TASK_COUNT".into()),
            },
            "edge" => match rest.as_slice() {
                [src, dst, kind] | [src, dst, kind, _] => {
                    let kind = match *kind {
                        "pipeline" => EdgeKind::Pipeline,
                        "barrier" => EdgeKind::Barrier,
                        other => {
                            bad(format!("edge kind {other:?} must be pipeline or barrier"));
                            continue;
                        }
                    };
                    let size = match rest.get(3) {
                        None => None,
                        Some(raw) => match raw.parse::<u64>() {
                            Ok(s) => Some(s),
                            Err(_) => {
                                bad(format!("edge size {raw:?} is not a number"));
                                continue;
                            }
                        },
                    };
                    p.spans
                        .lines
                        .insert(format!("edge:{}", p.edges.len()), lineno);
                    p.edges.push((src.to_string(), dst.to_string(), kind, size));
                }
                _ => bad("`edge` takes SRC DST pipeline|barrier [SIZE]".into()),
            },
            "thresholds" => match rest.as_slice() {
                [small, large] => match (small.parse::<u64>(), large.parse::<u64>()) {
                    (Ok(s), Ok(l)) if s <= l => {
                        p.thresholds = Some(AdaptiveThresholds { small: s, large: l });
                        p.spans.lines.insert("thresholds".into(), lineno);
                    }
                    (Ok(_), Ok(_)) => bad("`thresholds` SMALL must not exceed LARGE".into()),
                    _ => bad("`thresholds` takes two numbers SMALL LARGE".into()),
                },
                _ => bad("`thresholds` takes SMALL LARGE".into()),
            },
            "graphlet" => {
                if rest.is_empty() {
                    bad("`graphlet` needs at least one member stage".into());
                } else {
                    p.spans
                        .lines
                        .insert(format!("graphlet:{}", p.graphlets.len()), lineno);
                    p.graphlets
                        .push(rest.iter().map(|s| s.to_string()).collect());
                }
            }
            "cluster" => match rest.as_slice() {
                [n] => match n.parse::<u64>() {
                    Ok(execs) => {
                        p.cluster = Some(execs);
                        p.spans.lines.insert("cluster".into(), lineno);
                    }
                    Err(_) => bad(format!("cluster size {n:?} is not a number")),
                },
                _ => bad("`cluster` takes EXECUTOR_COUNT".into()),
            },
            "scheme" => match rest.as_slice() {
                [src, dst, scheme] => {
                    let scheme = match *scheme {
                        "direct" => ShuffleScheme::Direct,
                        "remote" => ShuffleScheme::Remote,
                        "local" => ShuffleScheme::Local,
                        other => {
                            bad(format!("scheme {other:?} must be direct, remote or local"));
                            continue;
                        }
                    };
                    p.spans
                        .lines
                        .insert(format!("scheme:{}", p.schemes.len()), lineno);
                    p.schemes.push((src.to_string(), dst.to_string(), scheme));
                }
                _ => bad("`scheme` takes SRC DST direct|remote|local".into()),
            },
            "template" => match rest.as_slice() {
                [] => {
                    p.template = true;
                    p.spans.lines.insert("template".into(), lineno);
                }
                _ => bad("`template` takes no arguments".into()),
            },
            "template-scheme" => match rest.as_slice() {
                [src, dst, scheme] => {
                    let scheme = match *scheme {
                        "direct" => ShuffleScheme::Direct,
                        "remote" => ShuffleScheme::Remote,
                        "local" => ShuffleScheme::Local,
                        other => {
                            bad(format!("scheme {other:?} must be direct, remote or local"));
                            continue;
                        }
                    };
                    p.template = true;
                    p.spans.lines.entry("template".into()).or_insert(lineno);
                    p.spans.lines.insert(
                        format!("template-scheme:{}", p.template_schemes.len()),
                        lineno,
                    );
                    p.template_schemes
                        .push((src.to_string(), dst.to_string(), scheme));
                }
                _ => bad("`template-scheme` takes SRC DST direct|remote|local".into()),
            },
            "plan-failed" => match rest.as_slice() {
                [task] => {
                    p.plan_failed = Some(task.to_string());
                    p.spans.lines.insert("plan".into(), lineno);
                }
                _ => bad("`plan-failed` takes one TASK (Stage.index)".into()),
            },
            "plan-abort" => p.plan_abort = true,
            "plan-rerun" => match rest.as_slice() {
                [task] => {
                    p.spans.lines.entry("plan-rerun".into()).or_insert(lineno);
                    p.plan_rerun.push(task.to_string());
                }
                _ => bad("`plan-rerun` takes one TASK (Stage.index)".into()),
            },
            "plan-update" => match rest.as_slice() {
                [producer, consumer, action] => {
                    let action = match *action {
                        "resend" => ChannelAction::Resend,
                        "fetch" => ChannelAction::CacheFetch,
                        "reconnect" => ChannelAction::Reconnect,
                        other => {
                            bad(format!(
                                "action {other:?} must be resend, fetch or reconnect"
                            ));
                            continue;
                        }
                    };
                    p.spans
                        .lines
                        .insert(format!("plan-update:{}", p.plan_updates.len()), lineno);
                    p.plan_updates
                        .push((producer.to_string(), consumer.to_string(), action));
                }
                _ => bad("`plan-update` takes PRODUCER CONSUMER resend|fetch|reconnect".into()),
            },
            "ledger" => match rest.as_slice() {
                [task, latest] => match latest.parse::<u32>() {
                    Ok(l) => p.ledger.push((task.to_string(), l, None)),
                    Err(_) => bad(format!("ledger epoch {latest:?} is not a number")),
                },
                [task, latest, output] => match (latest.parse::<u32>(), output.parse::<u32>()) {
                    (Ok(l), Ok(o)) => p.ledger.push((task.to_string(), l, Some(o))),
                    _ => bad("ledger epochs must be numbers".into()),
                },
                _ => bad("`ledger` takes TASK LATEST_EPOCH [OUTPUT_EPOCH]".into()),
            },
            other => bad(format!("unknown directive {other:?}")),
        }
    }

    // Build the DAG.
    let mut builder = DagBuilder::new(0, if p.job.is_empty() { file_label } else { &p.job });
    let mut stage_ids: BTreeMap<String, StageId> = BTreeMap::new();
    for (name, tasks) in &p.stages {
        let id = builder.stage(name.clone(), *tasks).build();
        stage_ids.insert(name.clone(), id);
    }
    let resolve =
        |report: &mut Report, name: &str, key: &str, spans: &SpanMap| -> Option<StageId> {
            match stage_ids.get(name) {
                Some(&id) => Some(id),
                None => {
                    report.diagnostics.push(Diagnostic::new(
                        Code::SW100,
                        spans.span(key),
                        format!("unknown stage {name:?}"),
                    ));
                    None
                }
            }
        };
    for (i, (src, dst, kind, _)) in p.edges.iter().enumerate() {
        let key = format!("edge:{i}");
        let (Some(s), Some(d)) = (
            resolve(&mut report, src, &key, &p.spans),
            resolve(&mut report, dst, &key, &p.spans),
        ) else {
            continue;
        };
        builder.edge_kind(s, d, *kind);
    }
    let dag: JobDag = match builder.build() {
        Ok(dag) => dag,
        Err(e) => {
            report.diagnostics.push(Diagnostic::new(
                Code::SW100,
                p.spans.span("job"),
                format!("DAG fails structural validation: {e}"),
            ));
            apply_allows(&mut report, &p.allows, &p.spans.file);
            return report;
        }
    };

    // Claimed partition: explicit graphlet lines, else the library's own.
    let claimed: Vec<Vec<StageId>> = if p.graphlets.is_empty() {
        swift_dag::partition(&dag)
            .graphlets()
            .iter()
            .map(|g| g.stages.clone())
            .collect()
    } else {
        p.graphlets
            .iter()
            .enumerate()
            .map(|(i, names)| {
                names
                    .iter()
                    .filter_map(|n| resolve(&mut report, n, &format!("graphlet:{i}"), &p.spans))
                    .collect()
            })
            .collect()
    };

    report.merge(validate_partition(&dag, &claimed, &p.spans));
    if let Some(executors) = p.cluster {
        report.merge(validate_gang(&dag, &claimed, executors, &p.spans));
    }

    // Explicitly declared edge sizes, keyed by the DAG's edge index.
    let mut edge_sizes: Vec<(usize, u64)> = Vec::new();
    for (i, (src, dst, _, size)) in p.edges.iter().enumerate() {
        let Some(size) = size else { continue };
        let key = format!("edge:{i}");
        if let (Some(s), Some(d)) = (stage_ids.get(src), stage_ids.get(dst)) {
            if let Some(idx) = dag.edges().iter().position(|e| e.src == *s && e.dst == *d) {
                edge_sizes.push((idx, *size));
            } else {
                report.diagnostics.push(Diagnostic::new(
                    Code::SW100,
                    p.spans.span(&key),
                    format!("size declared on nonexistent edge {src} -> {dst}"),
                ));
            }
        }
    }
    let thresholds = p.thresholds.unwrap_or_default();

    if !p.schemes.is_empty() {
        let mut claims: Vec<(usize, ShuffleScheme)> = Vec::new();
        for (i, (src, dst, scheme)) in p.schemes.iter().enumerate() {
            let key = format!("scheme:{i}");
            let (Some(s), Some(d)) = (
                resolve(&mut report, src, &key, &p.spans),
                resolve(&mut report, dst, &key, &p.spans),
            ) else {
                continue;
            };
            match dag.edges().iter().position(|e| e.src == s && e.dst == d) {
                Some(idx) => claims.push((idx, *scheme)),
                None => report.diagnostics.push(Diagnostic::new(
                    Code::SW100,
                    p.spans.span(&key),
                    format!("scheme claim on nonexistent edge {src} -> {dst}"),
                )),
            }
        }
        report.merge(validate_schemes_sized(
            &dag,
            &claims,
            &edge_sizes,
            thresholds,
            &p.spans,
        ));
    }

    if p.template {
        let mut claims: Vec<(usize, ShuffleScheme)> = Vec::new();
        for (i, (src, dst, scheme)) in p.template_schemes.iter().enumerate() {
            let key = format!("template-scheme:{i}");
            let (Some(s), Some(d)) = (
                resolve(&mut report, src, &key, &p.spans),
                resolve(&mut report, dst, &key, &p.spans),
            ) else {
                continue;
            };
            match dag.edges().iter().position(|e| e.src == s && e.dst == d) {
                Some(idx) => claims.push((idx, *scheme)),
                None => report.diagnostics.push(Diagnostic::new(
                    Code::SW100,
                    p.spans.span(&key),
                    format!("template-scheme claim on nonexistent edge {src} -> {dst}"),
                )),
            }
        }
        let policy = PolicyConfig {
            intra_unit_shuffle: ShuffleSelection::Adaptive(thresholds),
            cross_unit_shuffle: ShuffleSelection::Adaptive(thresholds),
            ..PolicyConfig::swift()
        };
        report.merge(validate_template_roundtrip(
            &dag, &policy, &claims, &p.spans,
        ));
    }

    if let Some(failed_ref) = &p.plan_failed {
        let task = |report: &mut Report, s: &str, key: &str| -> Option<TaskId> {
            let Some((stage, idx)) = parse_task_ref(s) else {
                report.diagnostics.push(Diagnostic::new(
                    Code::SW100,
                    p.spans.span(key),
                    format!("task reference {s:?} must be Stage.index"),
                ));
                return None;
            };
            // Unknown stage names intentionally map to an out-of-range id so
            // the shape validator reports them as SW108 (the plan is the
            // malformed object, not the file syntax).
            let sid = stage_ids
                .get(stage)
                .copied()
                .unwrap_or(StageId(dag.stage_count() as u32));
            Some(TaskId::new(sid, idx))
        };
        let Some(failed) = task(&mut report, failed_ref, "plan") else {
            apply_allows(&mut report, &p.allows, &p.spans.file);
            report.sort();
            return report;
        };
        let rerun: Vec<TaskId> = p
            .plan_rerun
            .iter()
            .filter_map(|s| task(&mut report, s, "plan-rerun"))
            .collect();
        let mut updates: Vec<ChannelUpdate> = Vec::new();
        for (i, (producer, consumer, action)) in p.plan_updates.iter().enumerate() {
            let key = format!("plan-update:{i}");
            if let (Some(pr), Some(co)) = (
                task(&mut report, producer, &key),
                task(&mut report, consumer, &key),
            ) {
                updates.push(ChannelUpdate {
                    producer: pr,
                    consumer: co,
                    action: *action,
                });
            }
        }
        let plan = RecoveryPlan {
            failed,
            case: RecoveryCase::Mixed,
            abort_job: p.plan_abort,
            rerun,
            updates,
        };
        report.merge(validate_recovery_plan_shape(&dag, &plan, &p.spans));
        if !p.ledger.is_empty() {
            let mut ledger: BTreeMap<TaskId, (u32, Option<u32>)> = BTreeMap::new();
            for (task_ref, latest, output) in &p.ledger {
                if let Some((stage, idx)) = parse_task_ref(task_ref) {
                    if let Some(&sid) = stage_ids.get(stage) {
                        ledger.insert(TaskId::new(sid, idx), (*latest, *output));
                    }
                }
            }
            let lookup = |t: TaskId| ledger.get(&t).copied();
            report.merge(validate_plan_versions(&plan, &lookup, true, &p.spans));
        }
    }

    apply_allows(&mut report, &p.allows, &p.spans.file);
    report.sort();
    report
}

/// Drops diagnostics whose span line carries (or follows) a matching
/// `allow` comment, counting them as suppressed. Allows that suppressed
/// nothing are reported as SW009 so stale suppressions cannot linger.
fn apply_allows(report: &mut Report, allows: &BTreeMap<u32, Vec<Code>>, file_label: &str) {
    if allows.is_empty() {
        return;
    }
    let mut consumed: std::collections::BTreeSet<(u32, Code)> = std::collections::BTreeSet::new();
    let mut kept = Vec::with_capacity(report.diagnostics.len());
    for d in report.diagnostics.drain(..) {
        let line = d.span.line;
        let mut allowed = false;
        if line > 0 {
            if allows.get(&line).is_some_and(|cs| cs.contains(&d.code)) {
                allowed = true;
                consumed.insert((line, d.code));
            }
            let prev = line.saturating_sub(1);
            if allows.get(&prev).is_some_and(|cs| cs.contains(&d.code)) {
                allowed = true;
                consumed.insert((prev, d.code));
            }
        }
        if allowed {
            report.suppressed += 1;
        } else {
            kept.push(d);
        }
    }
    report.diagnostics = kept;
    for (&line, codes) in allows {
        let mut seen: Vec<Code> = Vec::new();
        for &code in codes {
            if code == Code::SW009 || seen.contains(&code) {
                continue;
            }
            seen.push(code);
            if !consumed.contains(&(line, code)) {
                report.diagnostics.push(Diagnostic::new(
                    Code::SW009,
                    Span::at(file_label, line),
                    format!(
                        "unused suppression `allow({code})`: no {code} diagnostic on this line \
                         or the next — remove the stale allow"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(r: &Report) -> Vec<Code> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    const GOOD: &str = "\
job demo
stage M1 4
stage R2 2
edge M1 R2 barrier
graphlet M1
graphlet R2
cluster 64
scheme M1 R2 remote
";

    #[test]
    fn well_formed_file_is_clean() {
        let r = validate_dag_file("good.dag", GOOD);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert!(r.objects_checked >= 3);
    }

    #[test]
    fn cyclic_dag_reports_sw100_at_job_line() {
        let src = "job cyc\nstage A 1\nstage B 1\nedge A B pipeline\nedge B A pipeline\n";
        let r = validate_dag_file("cyc.dag", src);
        assert_eq!(codes(&r), vec![Code::SW100]);
        assert_eq!(r.diagnostics[0].span.line, 1);
    }

    #[test]
    fn unknown_directive_and_stage_report_sw100() {
        let src = "job x\nstage A 1\nfrobnicate A\nedge A Z pipeline\n";
        let r = validate_dag_file("x.dag", src);
        assert_eq!(codes(&r), vec![Code::SW100, Code::SW100]);
        assert_eq!(r.diagnostics[0].span.line, 3);
        assert_eq!(r.diagnostics[1].span.line, 4);
    }

    #[test]
    fn split_pipeline_pair_reports_sw102_with_edge_line() {
        let src = "\
job split
stage A 2
stage B 2
edge A B pipeline
graphlet A
graphlet B
";
        let r = validate_dag_file("split.dag", src);
        assert_eq!(codes(&r), vec![Code::SW102]);
        assert_eq!(r.diagnostics[0].span.line, 4, "points at the edge line");
    }

    #[test]
    fn allow_comment_suppresses_and_counts() {
        let src = "\
job split
stage A 2
stage B 2
edge A B pipeline # swift-analyze: allow(SW102)
graphlet A
graphlet B
";
        let r = validate_dag_file("split.dag", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn derived_partition_used_when_no_graphlet_lines() {
        let src = "job d\nstage A 2\nstage B 2\nedge A B pipeline\nscheme A B direct\n";
        let r = validate_dag_file("d.dag", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn declared_edge_size_overrides_task_product() {
        // 2 x 2 tasks would select Direct; the declared 20 000 size puts
        // the edge in the Remote band, so the direct claim is SW105.
        let src = "job s\nstage A 2\nstage B 2\nedge A B pipeline 20000\nscheme A B direct\n";
        let r = validate_dag_file("s.dag", src);
        assert_eq!(codes(&r), vec![Code::SW105], "{:?}", r.diagnostics);
        // Claiming what the declared size selects is clean.
        let fixed = src.replace("scheme A B direct", "scheme A B remote");
        let r = validate_dag_file("s.dag", &fixed);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn thresholds_directive_moves_the_selection_bands() {
        // Size 100 is Direct under the defaults, but `thresholds 10 50`
        // puts it above the large threshold: Local.
        let src = "\
job t
stage A 10
stage B 10
edge A B pipeline
thresholds 10 50
scheme A B local
";
        let r = validate_dag_file("t.dag", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        let r = validate_dag_file("t.dag", &src.replace("local", "direct"));
        assert_eq!(codes(&r), vec![Code::SW105]);
    }

    #[test]
    fn bad_edge_size_and_thresholds_report_sw100() {
        let src = "job b\nstage A 1\nstage B 1\nedge A B pipeline huge\nthresholds 9 3\n";
        let r = validate_dag_file("b.dag", src);
        assert_eq!(codes(&r), vec![Code::SW100, Code::SW100]);
        assert_eq!(r.diagnostics[0].span.line, 4);
        assert_eq!(r.diagnostics[1].span.line, 5);
    }

    #[test]
    fn template_directive_runs_the_roundtrip_clean() {
        let src = "job r\nstage A 4\nstage B 2\nedge A B barrier\ntemplate\n";
        let r = validate_dag_file("r.dag", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn wrong_template_scheme_claim_is_sw110_at_its_line() {
        let src = "\
job w
stage A 200
stage B 100
edge A B barrier
template-scheme A B direct
";
        let r = validate_dag_file("w.dag", src);
        assert_eq!(codes(&r), vec![Code::SW110], "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].span.line, 5);
    }

    #[test]
    fn plan_and_ledger_directives_flow_to_validators() {
        let src = "\
job p
stage A 1
stage B 1
edge A B barrier
plan-failed B.0
plan-rerun B.0
plan-update A.0 B.0 fetch
ledger A.0 2 1
";
        let r = validate_dag_file("p.dag", src);
        assert_eq!(codes(&r), vec![Code::SW106], "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].span.line, 7, "points at the update line");
    }
}
