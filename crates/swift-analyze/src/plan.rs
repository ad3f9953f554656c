//! Pass 2 — static validation of domain objects before simulation.
//!
//! Checks the control-plane structures the scheduler consumes: claimed
//! graphlet partitions (SW101/SW102/SW103), gang feasibility against a
//! declared cluster size (SW104), shuffle-scheme selection against the
//! adaptive thresholds (SW105/SW107), recovery-plan well-formedness
//! (SW106/SW108) and scheduling-template instantiation fidelity (SW110).
//!
//! The partition validator deliberately takes a *claimed* partition as
//! `&[Vec<StageId>]` rather than a [`swift_dag::Partition`]: the latter is
//! correct by construction (private fields, SCC condensation), so a
//! validator over it could never fail. Taking the raw claim lets the
//! analyzer check hand-written partitions from fixture files and guard the
//! real `partition()` output in the chaos pre-flight with the same code.

use std::collections::BTreeMap;

use crate::diag::{Code, Diagnostic, Report, Span};
use swift_dag::{EdgeKind, JobDag, StageId, TaskId};
use swift_ft::{ChannelAction, RecoveryPlan};
use swift_scheduler::{compute_priors, plan_units, roundtrip_artifacts, PolicyConfig};
use swift_shuffle::{AdaptiveThresholds, ShuffleScheme};

/// Maps validator findings to source locations.
///
/// Fixture `.dag` files record the line each directive was declared on,
/// keyed by strings like `graphlet:2`, `edge:0`, `scheme:1`, `plan`,
/// `plan-update:3`, `cluster`. In-memory objects (chaos pre-flight) use an
/// empty map, and every finding gets the whole-object span.
#[derive(Clone, Debug, Default)]
pub struct SpanMap {
    /// Logical file name (`fixtures/bad.dag`) or object name (`dag:tpch-q9`).
    pub file: String,
    /// Directive key → 1-based declaration line.
    pub lines: BTreeMap<String, u32>,
}

impl SpanMap {
    /// A span map for an in-memory object: every key resolves to the
    /// whole-object span.
    pub fn object(name: impl Into<String>) -> SpanMap {
        SpanMap {
            file: name.into(),
            lines: BTreeMap::new(),
        }
    }

    /// Resolves `key` to a span, falling back to the whole object.
    pub fn span(&self, key: &str) -> Span {
        match self.lines.get(key) {
            Some(&line) => Span::at(self.file.clone(), line),
            None => Span::object(self.file.clone()),
        }
    }
}

/// Ledger view the version validator reads: `None` = the ledger has never
/// seen any instance of the task; `Some((latest, output))` = latest
/// launched epoch plus the epoch of the currently visible output (if any).
pub type VersionLookup<'a> = &'a dyn Fn(TaskId) -> Option<(u32, Option<u32>)>;

/// Validates a claimed graphlet partition of `dag`:
///
/// * **SW101** — every stage must be assigned to exactly one graphlet
///   (and only to existing stages);
/// * **SW102** — only barrier edges may cross graphlets;
/// * **SW103** — the graphlet quotient graph must be acyclic, or a
///   dependency-driven scheduler deadlocks.
pub fn validate_partition(dag: &JobDag, claimed: &[Vec<StageId>], spans: &SpanMap) -> Report {
    let mut report = Report {
        objects_checked: 1,
        ..Report::default()
    };
    let n = dag.stage_count();
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (g, stages) in claimed.iter().enumerate() {
        for &s in stages {
            if s.index() >= n {
                report.diagnostics.push(Diagnostic::new(
                    Code::SW101,
                    spans.span(&format!("graphlet:{g}")),
                    format!("graphlet {g} references unknown stage {s} (job has {n} stages)"),
                ));
            } else {
                owners[s.index()].push(g);
            }
        }
    }
    for (i, gs) in owners.iter().enumerate() {
        let stage = &dag.stage(StageId(i as u32)).name;
        match gs.len() {
            1 => {}
            0 => report.diagnostics.push(Diagnostic::new(
                Code::SW101,
                spans.span("job"),
                format!("stage {stage} is not assigned to any graphlet"),
            )),
            k => report.diagnostics.push(Diagnostic::new(
                Code::SW101,
                spans.span(&format!("graphlet:{}", gs[1])),
                format!(
                    "stage {stage} is assigned to {k} graphlets (first two: {} and {})",
                    gs[0], gs[1]
                ),
            )),
        }
    }

    // Owner of each stage for the cross-graphlet checks: first assignment
    // wins so SW102/SW103 still run on partially broken claims; unassigned
    // stages are skipped.
    let owner: Vec<Option<usize>> = owners.iter().map(|gs| gs.first().copied()).collect();

    let g = claimed.len();
    let mut quotient: Vec<Vec<usize>> = vec![Vec::new(); g];
    for (i, e) in dag.edges().iter().enumerate() {
        let (Some(from), Some(to)) = (owner[e.src.index()], owner[e.dst.index()]) else {
            continue;
        };
        if from == to {
            continue;
        }
        if e.kind == EdgeKind::Pipeline {
            report.diagnostics.push(Diagnostic::new(
                Code::SW102,
                spans.span(&format!("edge:{i}")),
                format!(
                    "pipeline edge {} -> {} crosses graphlets {from} and {to}; only barrier \
                     edges may cross (pipeline producers and consumers must be gang-scheduled \
                     together)",
                    dag.stage(e.src).name,
                    dag.stage(e.dst).name
                ),
            ));
        } else if !quotient[from].contains(&to) {
            quotient[from].push(to);
        }
    }

    // Kahn over the barrier quotient graph.
    let mut indeg = vec![0usize; g];
    for outs in &quotient {
        for &to in outs {
            indeg[to] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..g).filter(|&i| indeg[i] == 0).collect();
    let mut done = 0usize;
    while let Some(i) = ready.pop() {
        done += 1;
        for &to in &quotient[i] {
            indeg[to] -= 1;
            if indeg[to] == 0 {
                ready.push(to);
            }
        }
    }
    if done < g {
        let stuck: Vec<String> = (0..g)
            .filter(|&i| indeg[i] > 0)
            .map(|i| i.to_string())
            .collect();
        report.diagnostics.push(Diagnostic::new(
            Code::SW103,
            spans.span("job"),
            format!(
                "graphlet dependency graph is cyclic (graphlets {} wait on each other); a \
                 readiness-driven scheduler would deadlock",
                stuck.join(", ")
            ),
        ));
    }
    report
}

/// Validates gang feasibility (**SW104**, warning): a graphlet whose total
/// task count exceeds the declared cluster capacity cannot be gang
/// scheduled in one wave and degrades to wave-mode execution.
pub fn validate_gang(
    dag: &JobDag,
    claimed: &[Vec<StageId>],
    executors: u64,
    spans: &SpanMap,
) -> Report {
    let mut report = Report {
        objects_checked: 1,
        ..Report::default()
    };
    for (g, stages) in claimed.iter().enumerate() {
        let gang: u64 = stages
            .iter()
            .filter(|s| s.index() < dag.stage_count())
            .map(|&s| dag.stage(s).task_count as u64)
            .sum();
        if gang > executors {
            report.diagnostics.push(Diagnostic::new(
                Code::SW104,
                spans.span(&format!("graphlet:{g}")),
                format!(
                    "graphlet {g} needs a gang of {gang} tasks but the cluster declares only \
                     {executors} executors; scheduling degrades to wave mode"
                ),
            ));
        }
    }
    report
}

/// Validates claimed shuffle-scheme choices against the adaptive
/// thresholds (**SW105**) and the staging requirement of barrier edges
/// (**SW107**). `claimed` pairs an index into [`JobDag::edges`] with the
/// scheme the plan intends to use on that edge.
pub fn validate_schemes(
    dag: &JobDag,
    claimed: &[(usize, ShuffleScheme)],
    thresholds: AdaptiveThresholds,
    spans: &SpanMap,
) -> Report {
    validate_schemes_sized(dag, claimed, &[], thresholds, spans)
}

/// Like [`validate_schemes`], but with declared per-edge shuffle sizes:
/// `sizes` pairs an edge index with the size the plan *declares* for it
/// (`.dag` files carry these as the optional fourth `edge` token),
/// overriding the `M × N` task-count product derived from the DAG. This is
/// how fixtures model realistic data volumes without inflating task
/// counts.
pub fn validate_schemes_sized(
    dag: &JobDag,
    claimed: &[(usize, ShuffleScheme)],
    sizes: &[(usize, u64)],
    thresholds: AdaptiveThresholds,
    spans: &SpanMap,
) -> Report {
    let mut report = Report {
        objects_checked: 1,
        ..Report::default()
    };
    for (i, &(edge_idx, scheme)) in claimed.iter().enumerate() {
        let span = spans.span(&format!("scheme:{i}"));
        let Some(edge) = dag.edges().get(edge_idx) else {
            report.diagnostics.push(Diagnostic::new(
                Code::SW100,
                span,
                format!(
                    "scheme claim references edge {edge_idx}, but the job has only {} edges",
                    dag.edges().len()
                ),
            ));
            continue;
        };
        let size = sizes
            .iter()
            .find(|&&(e, _)| e == edge_idx)
            .map(|&(_, s)| s)
            .unwrap_or_else(|| dag.edge_shuffle_size(edge));
        let barrier = edge.kind == EdgeKind::Barrier;
        if barrier && !scheme.uses_cache_worker() {
            report.diagnostics.push(Diagnostic::new(
                Code::SW107,
                span.clone(),
                format!(
                    "Direct Shuffle on barrier edge {} -> {}: the consumer may not be \
                     scheduled when the producer finishes, so the data must be staged in a \
                     Cache Worker (use remote or local)",
                    dag.stage(edge.src).name,
                    dag.stage(edge.dst).name
                ),
            ));
            continue;
        }
        // Expected scheme by edge size; barrier edges can never use Direct,
        // so the small-shuffle choice is promoted to the cheapest staged
        // scheme.
        let mut expected = thresholds.select(size);
        if barrier && !expected.uses_cache_worker() {
            expected = ShuffleScheme::Remote;
        }
        if scheme != expected {
            report.diagnostics.push(Diagnostic::new(
                Code::SW105,
                span,
                format!(
                    "edge {} -> {} has shuffle edge size {size}, which selects {expected} \
                     under thresholds {}/{}, but the plan claims {scheme}",
                    dag.stage(edge.src).name,
                    dag.stage(edge.dst).name,
                    thresholds.small,
                    thresholds.large
                ),
            ));
        }
    }
    report
}

/// Validates scheduling-template instantiation fidelity (**SW110**).
///
/// Registers a template from an identical rebuild of `dag` under another
/// job id, looks `dag` itself up, and compares the served artifacts
/// against from-scratch planning under the same `policy` — the cache must
/// be a pure cost optimization, never a behavioral one. Findings:
///
/// * the cache misses on the identical rebuild: the shape key depends on
///   something other than the shape;
/// * the instantiated graphlet partition, unit plan or scheme priors
///   differ structurally from their from-scratch counterparts;
/// * a `template-scheme` claim names a scheme the instantiated priors
///   disagree with (how fixture files pin expected instantiations).
pub fn validate_template_roundtrip(
    dag: &JobDag,
    policy: &PolicyConfig,
    claims: &[(usize, ShuffleScheme)],
    spans: &SpanMap,
) -> Report {
    let mut report = Report {
        objects_checked: 1,
        ..Report::default()
    };
    let Some(artifacts) = roundtrip_artifacts(dag, policy) else {
        report.diagnostics.push(Diagnostic::new(
            Code::SW110,
            spans.span("template"),
            "template cache missed on an identical rebuild under another job id: the \
             shape key depends on something other than the shape"
                .to_string(),
        ));
        return report;
    };
    let part = swift_dag::partition(dag);
    let plan = plan_units(dag, &policy.partitioning);
    let priors = compute_priors(dag, &plan, policy);
    if *artifacts.part != part {
        report.diagnostics.push(Diagnostic::new(
            Code::SW110,
            spans.span("template"),
            "instantiated graphlet partition differs from from-scratch partitioning".to_string(),
        ));
    }
    if *artifacts.plan != plan {
        report.diagnostics.push(Diagnostic::new(
            Code::SW110,
            spans.span("template"),
            "instantiated unit plan differs from from-scratch unit planning".to_string(),
        ));
    }
    if *artifacts.priors != priors {
        report.diagnostics.push(Diagnostic::new(
            Code::SW110,
            spans.span("template"),
            "instantiated scheme priors differ from from-scratch selection".to_string(),
        ));
    }
    for (i, &(edge_idx, scheme)) in claims.iter().enumerate() {
        let span = spans.span(&format!("template-scheme:{i}"));
        let Some(prior) = artifacts
            .priors
            .iter()
            .find(|p| p.edge as usize == edge_idx)
        else {
            report.diagnostics.push(Diagnostic::new(
                Code::SW100,
                span,
                format!(
                    "template-scheme claim references edge {edge_idx}, but the job has \
                     only {} edges",
                    dag.edges().len()
                ),
            ));
            continue;
        };
        if prior.scheme != scheme {
            let edge = &dag.edges()[edge_idx];
            report.diagnostics.push(Diagnostic::new(
                Code::SW110,
                span,
                format!(
                    "template instantiates {} on edge {} -> {}, but the plan claims {scheme}",
                    prior.scheme,
                    dag.stage(edge.src).name,
                    dag.stage(edge.dst).name
                ),
            ));
        }
    }
    report
}

/// Validates the structural shape of a recovery plan (**SW108**): an
/// aborting plan must carry no work, the rerun set must be sorted and
/// duplicate-free, and every task reference must exist in the DAG.
pub fn validate_recovery_plan_shape(dag: &JobDag, plan: &RecoveryPlan, spans: &SpanMap) -> Report {
    let mut report = Report {
        objects_checked: 1,
        ..Report::default()
    };
    let mut emit = |key: &str, msg: String| {
        report
            .diagnostics
            .push(Diagnostic::new(Code::SW108, spans.span(key), msg));
    };
    let in_bounds =
        |t: TaskId| t.stage.index() < dag.stage_count() && t.index < dag.stage(t.stage).task_count;

    if plan.abort_job && (!plan.rerun.is_empty() || !plan.updates.is_empty()) {
        emit(
            "plan",
            format!(
                "plan aborts the job (§IV-C useless failure) but still carries {} rerun(s) \
                 and {} channel update(s); an aborting plan must be empty",
                plan.rerun.len(),
                plan.updates.len()
            ),
        );
    }
    if !in_bounds(plan.failed) {
        emit(
            "plan",
            format!(
                "failed task {} does not exist in job {}",
                plan.failed, dag.name
            ),
        );
    }
    for w in plan.rerun.windows(2) {
        if w[0] >= w[1] {
            let what = if w[0] == w[1] {
                "duplicated"
            } else {
                "unsorted"
            };
            emit(
                "plan-rerun",
                format!(
                    "rerun set is {what} at {} (plans must list reruns sorted and unique so \
                     replays and reports are deterministic)",
                    w[1]
                ),
            );
            break;
        }
    }
    for t in &plan.rerun {
        if !in_bounds(*t) {
            emit(
                "plan-rerun",
                format!(
                    "rerun references task {t}, which does not exist in job {}",
                    dag.name
                ),
            );
        }
    }
    for (i, u) in plan.updates.iter().enumerate() {
        for (role, t) in [("producer", u.producer), ("consumer", u.consumer)] {
            if !in_bounds(t) {
                emit(
                    &format!("plan-update:{i}"),
                    format!(
                        "channel update {role} {t} does not exist in job {}",
                        dag.name
                    ),
                );
            }
        }
    }
    report
}

/// Validates a recovery plan against ledger versions (**SW106**).
///
/// `CacheFetch` and `Resend` updates promise the consumer data from a
/// producer that is *not* re-running — so the producer's currently visible
/// output must be trustworthy:
///
/// * in **strict** mode (fixtures, post-hoc audits) a producer the ledger
///   never saw, or whose visible output is superseded by a newer launched
///   instance (with the producer absent from the rerun set), is flagged;
/// * in **relaxed** mode (live pre-flight inside chaos campaigns) only
///   never-seen producers are flagged, because a producer that failed
///   earlier and is itself mid-re-run legitimately shows a superseded
///   output epoch while its fresh instance is still running.
pub fn validate_plan_versions(
    plan: &RecoveryPlan,
    lookup: VersionLookup<'_>,
    strict: bool,
    spans: &SpanMap,
) -> Report {
    let mut report = Report {
        objects_checked: 1,
        ..Report::default()
    };
    if plan.abort_job {
        return report;
    }
    for (i, u) in plan.updates.iter().enumerate() {
        if u.action == ChannelAction::Reconnect {
            // Reconnect's producer is in the rerun set by construction; its
            // data is regenerated, so versions are irrelevant here.
            continue;
        }
        let span = spans.span(&format!("plan-update:{i}"));
        match lookup(u.producer) {
            None => report.diagnostics.push(Diagnostic::new(
                Code::SW106,
                span,
                format!(
                    "update {} -> {} ({:?}) relies on producer {} whose instances the \
                     version ledger has never seen; there is no output to serve",
                    u.producer, u.consumer, u.action, u.producer
                ),
            )),
            Some((latest, output)) if strict => {
                let superseded = match output {
                    Some(epoch) => epoch < latest,
                    None => true,
                };
                if superseded && !plan.rerun.contains(&u.producer) {
                    report.diagnostics.push(Diagnostic::new(
                        Code::SW106,
                        span,
                        format!(
                            "update {} -> {} ({:?}) serves output of producer {} at epoch \
                             {:?}, superseded by launched epoch {latest}, and the plan does \
                             not re-run the producer",
                            u.producer, u.consumer, u.action, u.producer, output
                        ),
                    ));
                }
            }
            Some(_) => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_dag::{partition, DagBuilder, Operator};
    use swift_ft::{ChannelUpdate, RecoveryCase};

    /// Two graphlets: {A, B} pipeline-connected, barrier into {C}.
    fn two_graphlet_dag() -> JobDag {
        let mut b = DagBuilder::new(1, "two");
        let a = b
            .stage("A", 4)
            .op(Operator::TableScan { table: "t".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let bb = b
            .stage("B", 4)
            .op(Operator::ShuffleRead)
            .op(Operator::MergeSort)
            .op(Operator::ShuffleWrite)
            .build();
        let c = b
            .stage("C", 2)
            .op(Operator::ShuffleRead)
            .op(Operator::AdhocSink)
            .build();
        b.edge(a, bb); // pipeline
        b.edge(bb, c); // barrier (B sorts)
        b.build().unwrap()
    }

    fn claimed_of(dag: &JobDag) -> Vec<Vec<StageId>> {
        partition(dag)
            .graphlets()
            .iter()
            .map(|g| g.stages.clone())
            .collect()
    }

    fn codes(r: &Report) -> Vec<Code> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    fn spans() -> SpanMap {
        SpanMap::object("dag:test")
    }

    #[test]
    fn real_partition_validates_clean() {
        let dag = two_graphlet_dag();
        let r = validate_partition(&dag, &claimed_of(&dag), &spans());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.objects_checked, 1);
    }

    #[test]
    fn unassigned_and_double_assigned_stages_flagged() {
        let dag = two_graphlet_dag();
        // C missing; A in two graphlets.
        let claimed = vec![vec![StageId(0), StageId(1)], vec![StageId(0)]];
        let r = validate_partition(&dag, &claimed, &spans());
        let cs = codes(&r);
        assert_eq!(
            cs.iter().filter(|&&c| c == Code::SW101).count(),
            2,
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn unknown_stage_in_claim_flagged() {
        let dag = two_graphlet_dag();
        let claimed = vec![vec![StageId(0), StageId(1), StageId(9)], vec![StageId(2)]];
        let r = validate_partition(&dag, &claimed, &spans());
        assert!(codes(&r).contains(&Code::SW101));
    }

    #[test]
    fn pipeline_edge_crossing_graphlets_flagged() {
        let dag = two_graphlet_dag();
        // Split the pipeline pair A-B into separate graphlets.
        let claimed = vec![vec![StageId(0)], vec![StageId(1)], vec![StageId(2)]];
        let r = validate_partition(&dag, &claimed, &spans());
        assert_eq!(codes(&r), vec![Code::SW102]);
    }

    #[test]
    fn cyclic_quotient_flagged() {
        // S0 --pipeline--> {S1, S4}, S1 -> S2 barrier, S2 -> S3 pipeline,
        // S3 -> S4 barrier. Claiming {0,1,4} and {2,3} yields a 2-cycle.
        let mut b = DagBuilder::new(1, "cyc");
        let streaming = |b: &mut DagBuilder, n: &str| {
            b.stage(n, 1)
                .op(Operator::ShuffleRead)
                .op(Operator::ShuffleWrite)
                .build()
        };
        let sorting = |b: &mut DagBuilder, n: &str| {
            b.stage(n, 1)
                .op(Operator::ShuffleRead)
                .op(Operator::MergeSort)
                .op(Operator::ShuffleWrite)
                .build()
        };
        let s0 = streaming(&mut b, "S0");
        let s1 = sorting(&mut b, "S1");
        let s2 = streaming(&mut b, "S2");
        let s3 = sorting(&mut b, "S3");
        let s4 = streaming(&mut b, "S4");
        b.edge(s0, s1)
            .edge(s0, s4)
            .edge(s1, s2)
            .edge(s2, s3)
            .edge(s3, s4);
        let dag = b.build().unwrap();
        let claimed = vec![
            vec![StageId(0), StageId(1), StageId(4)],
            vec![StageId(2), StageId(3)],
        ];
        let r = validate_partition(&dag, &claimed, &spans());
        assert_eq!(codes(&r), vec![Code::SW103]);
        // The library's own partitioner condenses the cycle away:
        let r2 = validate_partition(&dag, &claimed_of(&dag), &spans());
        assert!(r2.diagnostics.is_empty());
    }

    #[test]
    fn gang_overflow_is_a_warning() {
        let dag = two_graphlet_dag();
        let claimed = claimed_of(&dag);
        let ok = validate_gang(&dag, &claimed, 100, &spans());
        assert!(ok.diagnostics.is_empty());
        let tight = validate_gang(&dag, &claimed, 4, &spans());
        // graphlet 0 = A(4)+B(4) = 8 > 4; graphlet 1 = C(2) fits.
        assert_eq!(codes(&tight), vec![Code::SW104]);
        assert_eq!(
            tight.diagnostics[0].severity,
            crate::diag::Severity::Warning
        );
        assert!(!tight.failed(false));
        assert!(tight.failed(true));
    }

    #[test]
    fn scheme_matching_thresholds_validates_clean() {
        let dag = two_graphlet_dag();
        // Edge 0 (A->B): 4x4=16 < small -> Direct. Edge 1 (B->C): 4x2=8,
        // Direct by size but barrier -> promoted to Remote.
        let claimed = vec![(0, ShuffleScheme::Direct), (1, ShuffleScheme::Remote)];
        let r = validate_schemes(&dag, &claimed, AdaptiveThresholds::default(), &spans());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn wrong_scheme_for_size_flagged() {
        let dag = two_graphlet_dag();
        let claimed = vec![(0, ShuffleScheme::Local)];
        let r = validate_schemes(&dag, &claimed, AdaptiveThresholds::default(), &spans());
        assert_eq!(codes(&r), vec![Code::SW105]);
        assert!(r.diagnostics[0].message.contains("claims local"));
    }

    #[test]
    fn direct_on_barrier_edge_flagged() {
        let dag = two_graphlet_dag();
        let claimed = vec![(1, ShuffleScheme::Direct)];
        let r = validate_schemes(&dag, &claimed, AdaptiveThresholds::default(), &spans());
        assert_eq!(codes(&r), vec![Code::SW107]);
    }

    #[test]
    fn scheme_claim_on_unknown_edge_flagged() {
        let dag = two_graphlet_dag();
        let claimed = vec![(7, ShuffleScheme::Direct)];
        let r = validate_schemes(&dag, &claimed, AdaptiveThresholds::default(), &spans());
        assert_eq!(codes(&r), vec![Code::SW100]);
    }

    fn tid(stage: u32, idx: u32) -> TaskId {
        TaskId::new(StageId(stage), idx)
    }

    fn base_plan() -> RecoveryPlan {
        RecoveryPlan {
            failed: tid(1, 0),
            case: RecoveryCase::IntraIdempotent,
            abort_job: false,
            rerun: vec![tid(1, 0)],
            updates: vec![ChannelUpdate {
                producer: tid(0, 0),
                consumer: tid(1, 0),
                action: ChannelAction::Resend,
            }],
        }
    }

    #[test]
    fn well_formed_plan_validates_clean() {
        let dag = two_graphlet_dag();
        let r = validate_recovery_plan_shape(&dag, &base_plan(), &spans());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn abort_with_work_flagged() {
        let dag = two_graphlet_dag();
        let mut plan = base_plan();
        plan.abort_job = true;
        let r = validate_recovery_plan_shape(&dag, &plan, &spans());
        assert_eq!(codes(&r), vec![Code::SW108]);
    }

    #[test]
    fn unsorted_and_duplicate_rerun_flagged() {
        let dag = two_graphlet_dag();
        let mut plan = base_plan();
        plan.rerun = vec![tid(1, 1), tid(1, 0)];
        let r = validate_recovery_plan_shape(&dag, &plan, &spans());
        assert_eq!(codes(&r), vec![Code::SW108]);
        assert!(r.diagnostics[0].message.contains("unsorted"));

        plan.rerun = vec![tid(1, 0), tid(1, 0)];
        let r = validate_recovery_plan_shape(&dag, &plan, &spans());
        assert_eq!(codes(&r), vec![Code::SW108]);
        assert!(r.diagnostics[0].message.contains("duplicated"));
    }

    #[test]
    fn out_of_bounds_references_flagged() {
        let dag = two_graphlet_dag();
        let mut plan = base_plan();
        plan.rerun = vec![tid(1, 99)]; // stage B has 4 tasks
        plan.updates[0].producer = tid(9, 0); // no stage 9
        let r = validate_recovery_plan_shape(&dag, &plan, &spans());
        assert_eq!(codes(&r), vec![Code::SW108, Code::SW108]);
    }

    #[test]
    fn version_check_flags_never_seen_producer() {
        let plan = base_plan();
        let lookup = |_t: TaskId| None;
        let r = validate_plan_versions(&plan, &lookup, false, &spans());
        assert_eq!(codes(&r), vec![Code::SW106]);
    }

    #[test]
    fn version_check_accepts_fresh_output() {
        let plan = base_plan();
        let lookup = |_t: TaskId| Some((2, Some(2)));
        let r = validate_plan_versions(&plan, &lookup, true, &spans());
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn strict_mode_flags_superseded_output() {
        let plan = base_plan();
        let lookup = |_t: TaskId| Some((3, Some(1)));
        let strict = validate_plan_versions(&plan, &lookup, true, &spans());
        assert_eq!(codes(&strict), vec![Code::SW106]);
        // Relaxed (live) mode tolerates it: the producer may be mid-re-run.
        let relaxed = validate_plan_versions(&plan, &lookup, false, &spans());
        assert!(relaxed.diagnostics.is_empty());
    }

    #[test]
    fn strict_mode_accepts_superseded_output_if_producer_reruns() {
        let mut plan = base_plan();
        plan.rerun = vec![tid(0, 0), tid(1, 0)]; // producer re-runs too
        let lookup = |_t: TaskId| Some((3, Some(1)));
        let r = validate_plan_versions(&plan, &lookup, true, &spans());
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn reconnect_updates_are_version_exempt() {
        let mut plan = base_plan();
        plan.updates[0].action = ChannelAction::Reconnect;
        let lookup = |_t: TaskId| None;
        let r = validate_plan_versions(&plan, &lookup, true, &spans());
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn aborting_plan_skips_version_checks() {
        let mut plan = base_plan();
        plan.abort_job = true;
        let lookup = |_t: TaskId| None;
        let r = validate_plan_versions(&plan, &lookup, true, &spans());
        assert!(r.diagnostics.is_empty());
    }
}
