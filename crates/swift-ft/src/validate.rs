//! Independent validation of recovery plans against the §IV-B case
//! analysis.
//!
//! [`validate_recovery_plan`] re-derives, with a deliberately different
//! algorithm from [`plan_recovery`](crate::plan_recovery) (fixed-point
//! edge relaxation instead of stack-based traversal), what a correct plan
//! must and must not contain:
//!
//! * **soundness** — everything the case analysis requires re-running is
//!   in the plan (the failed task; for non-idempotent stages, every
//!   executed transitive downstream task);
//! * **minimality** — nothing else is: each re-run task carries a §IV-B
//!   justification, so fine-grained recovery never silently degenerates
//!   toward job restart;
//! * **channel discipline** — Resend only on intra-graphlet pipeline
//!   input edges, CacheFetch only on cross-graphlet/barrier input edges,
//!   Reconnect only toward executed, non-re-running pipeline consumers;
//! * **shape** — every named task exists, and the rerun list is sorted and
//!   duplicate-free.
//!
//! [`validate_plan_versions`] checks the same plan against the shuffle
//! version ledger. The chaos harness calls both on every plan the
//! simulator produces; the planner's own unit tests also use the first as
//! a second opinion.

use crate::detection::FailureKind;
use crate::recovery::{ChannelAction, ExecutionSnapshot, RecoveryPlan, TaskRunState};
use std::collections::BTreeSet;
use swift_dag::{EdgeKind, JobDag, Partition, StageId, TaskId};

fn tasks_of(dag: &JobDag, stage: StageId) -> impl Iterator<Item = TaskId> + '_ {
    (0..dag.stage(stage).task_count).map(move |i| TaskId::new(stage, i))
}

/// Stages transitively downstream of `from` (excluding `from` itself),
/// computed by fixed-point relaxation over the edge list — deliberately
/// not the planner's traversal.
fn downstream_stages(dag: &JobDag, from: StageId) -> Vec<bool> {
    let mut reach = vec![false; dag.stage_count()];
    loop {
        let mut changed = false;
        for e in dag.edges() {
            let src_in = e.src == from || reach[e.src.index()];
            if src_in && !reach[e.dst.index()] {
                reach[e.dst.index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    reach
}

/// Whether §IV-B1a's shortcut applies: a finished idempotent task all of
/// whose consumers (present and future) are already served.
fn no_action_justified(dag: &JobDag, failed: TaskId, snap: &dyn ExecutionSnapshot) -> bool {
    if !dag.stage(failed.stage).idempotent {
        return false;
    }
    if snap.task_state(failed) != TaskRunState::Finished {
        return false;
    }
    dag.outgoing(failed.stage).all(|e| {
        tasks_of(dag, e.dst).all(|c| {
            if e.kind == EdgeKind::Barrier {
                // Barrier output survives in the Cache Worker; only
                // already-executed consumers needed a live delivery.
                !snap.task_state(c).executed() || snap.delivered(failed, c)
            } else {
                // Pipeline output lived in the dead executor: every
                // consumer, even future ones, must already hold the data.
                snap.delivered(failed, c)
            }
        })
    })
}

/// Checks `plan` against an independent §IV-B derivation. Returns the list
/// of violations — empty means the plan is exactly right (sound, minimal,
/// channel-correct).
pub fn validate_recovery_plan(
    dag: &JobDag,
    part: &Partition,
    failed: TaskId,
    kind: FailureKind,
    snap: &dyn ExecutionSnapshot,
    plan: &RecoveryPlan,
) -> Vec<String> {
    let mut violations = Vec::new();

    if plan.failed != failed {
        violations.push(format!(
            "plan is for task {} but {} failed",
            plan.failed, failed
        ));
    }

    // Every task the plan names must exist; the derivation below indexes
    // by them.
    let exists =
        |t: &TaskId| t.stage.index() < dag.stage_count() && t.index < dag.stage(t.stage).task_count;
    let updated = plan.updates.iter().flat_map(|u| [&u.producer, &u.consumer]);
    let unknown: Vec<String> = std::iter::once(&plan.failed)
        .chain(&plan.rerun)
        .chain(updated)
        .filter(|t| !exists(t))
        .map(|t| format!("plan names task {t}, which job {} does not have", dag.name))
        .collect();
    if !unknown.is_empty() {
        violations.extend(unknown);
        return violations;
    }

    // §IV-C: deterministic application errors abort, everything else
    // recovers.
    if !kind.recoverable() {
        if !plan.abort_job {
            violations.push(format!(
                "{kind:?} is a useless failure but the plan does not abort"
            ));
        }
        if !plan.rerun.is_empty() || !plan.updates.is_empty() {
            violations.push("aborting plan still schedules reruns or channel updates".into());
        }
        return violations;
    }
    if plan.abort_job {
        violations.push(format!(
            "{kind:?} is recoverable but the plan aborts the job"
        ));
        return violations;
    }

    let rerun: BTreeSet<TaskId> = plan.rerun.iter().copied().collect();
    if rerun.len() != plan.rerun.len() {
        violations.push("rerun list contains duplicates".into());
    }
    // Sorted, so that replays and reports list reruns deterministically.
    if plan.rerun.windows(2).any(|w| w[0] > w[1]) {
        violations.push("rerun list is not sorted".into());
    }

    let no_action = no_action_justified(dag, failed, snap);
    if rerun.is_empty() {
        if !no_action {
            violations.push(format!(
                "empty rerun set, but task {failed} is not a finished idempotent task with all consumers served"
            ));
        }
        // An empty plan must also not touch any channels.
        if !plan.updates.is_empty() {
            violations.push("no-action plan still carries channel updates".into());
        }
        return violations;
    }
    if !rerun.contains(&failed) {
        violations.push(format!("failed task {failed} is not in its own rerun set"));
    }

    // Required set: the failed task, plus — iff its stage is
    // non-idempotent — every executed task strictly downstream.
    let idempotent = dag.stage(failed.stage).idempotent;
    let downstream = downstream_stages(dag, failed.stage);
    if !idempotent {
        for s in dag.stages() {
            if !downstream[s.id.index()] {
                continue;
            }
            for t in tasks_of(dag, s.id) {
                if snap.task_state(t).executed() && !rerun.contains(&t) {
                    violations.push(format!(
                        "non-idempotent cascade misses executed downstream task {t}"
                    ));
                }
            }
        }
    }

    // Minimality: every re-run task must be justified.
    for &t in &rerun {
        if t == failed {
            continue;
        }
        let justified = !idempotent && downstream[t.stage.index()] && snap.task_state(t).executed();
        if !justified {
            violations.push(format!(
                "rerun of {t} has no §IV-B justification (idempotent failed stage: {idempotent}, downstream: {}, executed: {:?})",
                downstream[t.stage.index()],
                snap.task_state(t)
            ));
        }
    }

    // Channel discipline.
    for u in &plan.updates {
        let Some(edge) = dag
            .edges()
            .iter()
            .find(|e| e.src == u.producer.stage && e.dst == u.consumer.stage)
        else {
            violations.push(format!(
                "channel update {} -> {} follows no DAG edge",
                u.producer, u.consumer
            ));
            continue;
        };
        let cross = part.graphlet_of(edge.src) != part.graphlet_of(edge.dst);
        match u.action {
            ChannelAction::Resend => {
                if edge.kind == EdgeKind::Barrier || cross {
                    violations.push(format!(
                        "Resend {} -> {} on a {} edge: barrier/cross-graphlet inputs re-fetch from Cache Workers",
                        u.producer,
                        u.consumer,
                        if cross { "cross-graphlet" } else { "barrier" }
                    ));
                }
                if !rerun.contains(&u.consumer) {
                    violations.push(format!(
                        "Resend toward {} which is not re-running",
                        u.consumer
                    ));
                }
                if rerun.contains(&u.producer) || !snap.task_state(u.producer).executed() {
                    violations.push(format!(
                        "Resend from {} which is re-running or never executed",
                        u.producer
                    ));
                }
            }
            ChannelAction::CacheFetch => {
                if edge.kind != EdgeKind::Barrier && !cross {
                    violations.push(format!(
                        "CacheFetch {} -> {} on an intra-graphlet pipeline edge: live producers re-send instead",
                        u.producer, u.consumer
                    ));
                }
                if !rerun.contains(&u.consumer) {
                    violations.push(format!(
                        "CacheFetch toward {} which is not re-running",
                        u.consumer
                    ));
                }
            }
            ChannelAction::Reconnect => {
                if edge.kind == EdgeKind::Barrier {
                    violations.push(format!(
                        "Reconnect {} -> {} on a barrier edge: §IV-B3 says the new instance just re-writes its Cache Worker",
                        u.producer, u.consumer
                    ));
                }
                if !rerun.contains(&u.producer) {
                    violations.push(format!(
                        "Reconnect from {} which is not re-running",
                        u.producer
                    ));
                }
                if rerun.contains(&u.consumer) || !snap.task_state(u.consumer).executed() {
                    violations.push(format!(
                        "Reconnect toward {} which is re-running or never executed",
                        u.consumer
                    ));
                }
            }
        }
    }

    violations
}

/// Checks `plan` against the shuffle version ledger: a CacheFetch or Resend
/// update serves the consumer from a producer that is not re-running, so
/// the ledger must have seen an instance of that producer, or there is no
/// output to serve. `seen` answers from the ledger. A producer whose output
/// is superseded is not flagged: one that failed earlier and is re-running
/// shows a superseded epoch while its new instance runs.
pub fn validate_plan_versions(plan: &RecoveryPlan, seen: &dyn Fn(TaskId) -> bool) -> Vec<String> {
    plan.updates
        .iter()
        // A Reconnect's producer re-runs, so its data is regenerated.
        .filter(|u| u.action != ChannelAction::Reconnect && !seen(u.producer))
        .map(|u| {
            format!(
                "update {} -> {} ({:?}) relies on producer {} whose instances the version \
                 ledger has never seen; there is no output to serve",
                u.producer, u.consumer, u.action, u.producer
            )
        })
        .collect()
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "tests sit outside the determinism contract"
)]
mod tests {
    use super::*;
    use crate::recovery::{plan_recovery, ChannelUpdate};
    use std::collections::HashMap;
    use swift_dag::{partition, DagBuilder, Operator};

    #[derive(Default)]
    struct Snap {
        states: HashMap<TaskId, TaskRunState>,
    }

    impl ExecutionSnapshot for Snap {
        fn task_state(&self, task: TaskId) -> TaskRunState {
            *self.states.get(&task).unwrap_or(&TaskRunState::NotStarted)
        }
        fn delivered(&self, _from: TaskId, _to: TaskId) -> bool {
            false
        }
    }

    fn diamond(idempotent_mid: bool) -> (JobDag, Partition) {
        let mut b = DagBuilder::new(1, "diamond");
        let a = b
            .stage("A", 1)
            .op(Operator::TableScan { table: "t".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let mut mb = b
            .stage("M", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::HashJoin)
            .op(Operator::ShuffleWrite);
        if !idempotent_mid {
            mb = mb.non_idempotent();
        }
        let m = mb.build();
        let c = b
            .stage("C", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::AdhocSink)
            .build();
        b.edge(a, m).edge(m, c);
        let dag = b.build().unwrap();
        let part = partition(&dag);
        (dag, part)
    }

    fn t(dag: &JobDag, name: &str) -> TaskId {
        TaskId::new(dag.stage_by_name(name).unwrap().id, 0)
    }

    fn running_all(dag: &JobDag) -> Snap {
        let mut snap = Snap::default();
        for s in dag.stages() {
            for i in 0..s.task_count {
                snap.states
                    .insert(TaskId::new(s.id, i), TaskRunState::Running);
            }
        }
        snap
    }

    #[test]
    fn planner_output_validates_clean() {
        for idem in [true, false] {
            let (dag, part) = diamond(idem);
            let snap = running_all(&dag);
            for kind in [
                FailureKind::ProcessRestart,
                FailureKind::MachineCrash,
                FailureKind::ApplicationError,
            ] {
                for name in ["A", "M", "C"] {
                    let failed = t(&dag, name);
                    let plan = plan_recovery(&dag, &part, failed, kind, &snap);
                    let v = validate_recovery_plan(&dag, &part, failed, kind, &snap, &plan);
                    assert!(v.is_empty(), "idem={idem} kind={kind:?} {name}: {v:?}");
                }
            }
        }
    }

    #[test]
    fn overbroad_rerun_is_flagged() {
        let (dag, part) = diamond(true);
        let snap = running_all(&dag);
        let failed = t(&dag, "M");
        let mut plan = plan_recovery(&dag, &part, failed, FailureKind::ProcessRestart, &snap);
        // Tamper: drag the downstream consumer in even though M is
        // idempotent — job-restart-like overkill.
        plan.rerun.push(t(&dag, "C"));
        plan.rerun.sort();
        let v = validate_recovery_plan(
            &dag,
            &part,
            failed,
            FailureKind::ProcessRestart,
            &snap,
            &plan,
        );
        assert!(
            v.iter().any(|m| m.contains("no §IV-B justification")),
            "expected minimality violation, got {v:?}"
        );
    }

    #[test]
    fn missing_cascade_is_flagged() {
        let (dag, part) = diamond(false);
        let snap = running_all(&dag);
        let failed = t(&dag, "M");
        let mut plan = plan_recovery(&dag, &part, failed, FailureKind::ProcessRestart, &snap);
        // Tamper: forget the executed downstream task.
        plan.rerun.retain(|&x| x != t(&dag, "C"));
        let v = validate_recovery_plan(
            &dag,
            &part,
            failed,
            FailureKind::ProcessRestart,
            &snap,
            &plan,
        );
        assert!(
            v.iter().any(|m| m.contains("cascade misses")),
            "expected soundness violation, got {v:?}"
        );
    }

    #[test]
    fn wrong_channel_action_is_flagged() {
        let (dag, part) = diamond(true);
        let snap = running_all(&dag);
        let failed = t(&dag, "M");
        let mut plan = plan_recovery(&dag, &part, failed, FailureKind::ProcessRestart, &snap);
        // Tamper: claim the upstream pipeline producer must be re-fetched
        // from a Cache Worker (only correct across graphlets).
        // Only meaningful if A->M is intra-graphlet in this topology.
        if part.graphlet_of(t(&dag, "A").stage) == part.graphlet_of(failed.stage) {
            plan.updates.push(ChannelUpdate {
                producer: t(&dag, "A"),
                consumer: failed,
                action: ChannelAction::CacheFetch,
            });
            let v = validate_recovery_plan(
                &dag,
                &part,
                failed,
                FailureKind::ProcessRestart,
                &snap,
                &plan,
            );
            assert!(
                v.iter().any(|m| m.contains("intra-graphlet pipeline edge")),
                "expected channel violation, got {v:?}"
            );
        }
    }

    #[test]
    fn abort_without_useless_failure_is_flagged() {
        let (dag, part) = diamond(true);
        let snap = running_all(&dag);
        let failed = t(&dag, "M");
        let mut plan = plan_recovery(&dag, &part, failed, FailureKind::ProcessRestart, &snap);
        plan.abort_job = true;
        plan.rerun.clear();
        plan.updates.clear();
        let v = validate_recovery_plan(
            &dag,
            &part,
            failed,
            FailureKind::ProcessRestart,
            &snap,
            &plan,
        );
        assert!(v.iter().any(|m| m.contains("recoverable")), "got {v:?}");
    }

    #[test]
    fn unsorted_rerun_is_flagged() {
        let (dag, part) = diamond(false);
        let snap = running_all(&dag);
        let failed = t(&dag, "M");
        let mut plan = plan_recovery(&dag, &part, failed, FailureKind::ProcessRestart, &snap);
        assert_eq!(plan.rerun, vec![failed, t(&dag, "C")]);
        plan.rerun.reverse();
        let v = validate_recovery_plan(
            &dag,
            &part,
            failed,
            FailureKind::ProcessRestart,
            &snap,
            &plan,
        );
        assert_eq!(v, vec!["rerun list is not sorted"]);
    }

    #[test]
    fn unknown_tasks_are_flagged() {
        let (dag, part) = diamond(true);
        let snap = running_all(&dag);
        let failed = t(&dag, "M");
        let mut plan = plan_recovery(&dag, &part, failed, FailureKind::ProcessRestart, &snap);
        // Stage M has one task, and the job has no stage 9.
        plan.rerun.push(TaskId::new(failed.stage, 1));
        plan.updates.push(ChannelUpdate {
            producer: TaskId::new(StageId(9), 0),
            consumer: failed,
            action: ChannelAction::CacheFetch,
        });
        let v = validate_recovery_plan(
            &dag,
            &part,
            failed,
            FailureKind::ProcessRestart,
            &snap,
            &plan,
        );
        assert_eq!(
            v,
            vec![
                "plan names task s1t1, which job diamond does not have",
                "plan names task s9t0, which job diamond does not have",
            ]
        );
    }

    fn resend_plan(action: ChannelAction) -> RecoveryPlan {
        let (producer, consumer) = (TaskId::new(StageId(0), 0), TaskId::new(StageId(1), 0));
        RecoveryPlan {
            failed: consumer,
            case: crate::RecoveryCase::IntraIdempotent,
            abort_job: false,
            rerun: vec![consumer],
            updates: vec![ChannelUpdate {
                producer,
                consumer,
                action,
            }],
        }
    }

    #[test]
    fn versions_accept_a_producer_the_ledger_has_seen() {
        let plan = resend_plan(ChannelAction::Resend);
        assert!(validate_plan_versions(&plan, &|_| true).is_empty());
    }

    #[test]
    fn versions_flag_a_producer_the_ledger_never_saw() {
        for action in [ChannelAction::Resend, ChannelAction::CacheFetch] {
            let plan = resend_plan(action);
            let v = validate_plan_versions(&plan, &|_| false);
            assert_eq!(v.len(), 1, "{action:?}: {v:?}");
            assert!(v[0].contains("never seen"), "{v:?}");
        }
        // A reconnected producer re-runs, so its data is regenerated.
        assert!(
            validate_plan_versions(&resend_plan(ChannelAction::Reconnect), &|_| false).is_empty()
        );
    }
}
