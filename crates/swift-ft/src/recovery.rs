//! Fine-grained failure recovery on the graphlet basis (§IV-B, §IV-C).
//!
//! Given a failed task, the planner computes the *minimal* set of tasks to
//! re-run plus the channel updates needed, distinguishing:
//!
//! * **intra-graphlet** failures — idempotent tasks re-run alone (their
//!   gang-scheduled predecessors merely re-send buffered output);
//!   non-idempotent tasks additionally force every already-executed
//!   downstream task to re-run, because their re-run may produce different
//!   data/order;
//! * **input failures** (predecessors in another graphlet) — predecessors
//!   wrote to their Cache Workers, so the re-launched task simply re-fetches;
//!   no producer involvement;
//! * **output failures** (successors in another graphlet) — the new
//!   instance writes to its local Cache Worker again; consumers are
//!   untouched;
//! * **useless failures** (§IV-C) — deterministic application errors abort
//!   the job instead of wasting resources on retries.

use crate::detection::FailureKind;
use std::collections::BTreeSet;
use swift_dag::{EdgeKind, JobDag, Partition, StageId, TaskId};

/// Run state of a task as seen by the Job Monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskRunState {
    /// Not yet scheduled (or scheduled but plan not begun).
    NotStarted,
    /// Currently executing.
    Running,
    /// Completed successfully.
    Finished,
}

impl TaskRunState {
    /// Whether the task has executed at all (running or finished) — the
    /// §IV-B1b criterion for the non-idempotent re-run cascade.
    pub fn executed(self) -> bool {
        self != TaskRunState::NotStarted
    }
}

/// The Job Monitor state the planner reads. The simulation scheduler and
/// the real engine both implement this.
pub trait ExecutionSnapshot {
    /// Current run state of `task`.
    fn task_state(&self, task: TaskId) -> TaskRunState;

    /// Whether consumer `to` has already received everything it needs from
    /// producer `from` (used for the "If T6 and T7 have received the
    /// desired data from T4, no step will be taken" shortcut).
    fn delivered(&self, from: TaskId, to: TaskId) -> bool;
}

/// Which §IV-B/§IV-C case a recovery plan falls under (for reporting; the
/// plan itself is computed edge-wise and handles mixed topologies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryCase {
    /// §IV-C: deterministic application error — abort, don't retry.
    Useless,
    /// Failed task had finished and all consumers already hold its data.
    NoActionNeeded,
    /// §IV-B1a: idempotent task within one graphlet.
    IntraIdempotent,
    /// §IV-B1b: non-idempotent task; executed successors re-run too.
    IntraNonIdempotent,
    /// §IV-B2: predecessors in a different graphlet (Cache Worker re-fetch).
    InputFailure,
    /// §IV-B3: successors in a different graphlet (local CW re-write).
    OutputFailure,
    /// More than one of the above aspects applies.
    Mixed,
}

impl RecoveryCase {
    /// Stable lower-snake label, used by trace exporters and CLIs.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryCase::Useless => "useless",
            RecoveryCase::NoActionNeeded => "no_action_needed",
            RecoveryCase::IntraIdempotent => "intra_idempotent",
            RecoveryCase::IntraNonIdempotent => "intra_non_idempotent",
            RecoveryCase::InputFailure => "input_failure",
            RecoveryCase::OutputFailure => "output_failure",
            RecoveryCase::Mixed => "mixed",
        }
    }
}

impl std::fmt::Display for RecoveryCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a data channel must be adjusted for a re-launched task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelAction {
    /// Intra-graphlet pipeline edge: the (still live) producer updates its
    /// output channel to the new instance and re-sends buffered shuffle
    /// data — without re-running.
    Resend,
    /// Cross-graphlet barrier edge: the new instance proactively pulls the
    /// data from the producer-side Cache Workers; producers uninvolved.
    CacheFetch,
    /// The new producer instance replaces the failed one in an existing
    /// consumer's input channel set (output side of the failed task).
    Reconnect,
}

/// One channel adjustment in a [`RecoveryPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelUpdate {
    /// Producing task (original instance id; re-launches keep the id).
    pub producer: TaskId,
    /// Consuming task.
    pub consumer: TaskId,
    /// What must happen on this channel.
    pub action: ChannelAction,
}

/// The outcome of planning recovery for one failed task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// The task whose failure triggered the plan.
    pub failed: TaskId,
    /// Reporting classification.
    pub case: RecoveryCase,
    /// §IV-C: abort the job instead of recovering.
    pub abort_job: bool,
    /// Tasks to re-launch, sorted; empty iff `abort_job` or no action.
    pub rerun: Vec<TaskId>,
    /// Channel adjustments accompanying the re-launches, sorted.
    pub updates: Vec<ChannelUpdate>,
}

impl RecoveryPlan {
    /// Total number of tasks the plan re-runs.
    pub fn rerun_count(&self) -> usize {
        self.rerun.len()
    }
}

/// All task instances of `stage`.
fn tasks_of(dag: &JobDag, stage: StageId) -> impl Iterator<Item = TaskId> + '_ {
    (0..dag.stage(stage).task_count).map(move |i| TaskId::new(stage, i))
}

/// Plans recovery for `failed` under failure `kind` given the job's
/// partition and the current execution snapshot.
pub fn plan_recovery(
    dag: &JobDag,
    part: &Partition,
    failed: TaskId,
    kind: FailureKind,
    snap: &dyn ExecutionSnapshot,
) -> RecoveryPlan {
    if !kind.recoverable() {
        return RecoveryPlan {
            failed,
            case: RecoveryCase::Useless,
            abort_job: true,
            rerun: Vec::new(),
            updates: Vec::new(),
        };
    }

    let failed_stage = failed.stage;
    let g_failed = part.graphlet_of(failed_stage);

    // Shortcut (§IV-B1a): a finished idempotent task whose every consumer
    // already received its data needs no recovery at all.
    let idempotent = dag.stage(failed_stage).idempotent;
    if idempotent && snap.task_state(failed) == TaskRunState::Finished {
        let all_delivered = dag.outgoing(failed_stage).all(|e| {
            tasks_of(dag, e.dst)
                .all(|c| !snap.task_state(c).executed() || snap.delivered(failed, c))
        });
        // Every executed consumer has the data; not-yet-started consumers
        // will need it, so also require that *all* consumers exist and have
        // it (otherwise the data must be regenerated for them) — unless the
        // edge is a barrier edge, whose data survives in the Cache Worker.
        let future_safe = dag.outgoing(failed_stage).all(|e| {
            e.kind == EdgeKind::Barrier || tasks_of(dag, e.dst).all(|c| snap.delivered(failed, c))
        });
        if all_delivered && future_safe {
            return RecoveryPlan {
                failed,
                case: RecoveryCase::NoActionNeeded,
                abort_job: false,
                rerun: Vec::new(),
                updates: Vec::new(),
            };
        }
    }

    // Re-run set: the failed task, plus — for non-idempotent stages — every
    // executed task downstream of it (transitively), because re-running a
    // non-idempotent task invalidates everything derived from its output.
    let mut rerun: BTreeSet<TaskId> = BTreeSet::new();
    rerun.insert(failed);
    if !idempotent {
        let mut frontier = vec![failed_stage];
        let mut seen = vec![false; dag.stage_count()];
        seen[failed_stage.index()] = true;
        while let Some(s) = frontier.pop() {
            for e in dag.outgoing(s) {
                for c in tasks_of(dag, e.dst) {
                    if snap.task_state(c).executed() {
                        rerun.insert(c);
                    }
                }
                if !seen[e.dst.index()] {
                    seen[e.dst.index()] = true;
                    frontier.push(e.dst);
                }
            }
        }
    }

    // Channel updates.
    let mut updates: BTreeSet<(TaskId, TaskId, u8)> = BTreeSet::new();
    let act_code = |a: ChannelAction| match a {
        ChannelAction::Resend => 0u8,
        ChannelAction::CacheFetch => 1,
        ChannelAction::Reconnect => 2,
    };
    for &task in &rerun {
        // Input side: producers not themselves re-running must either
        // re-send (pipeline, intra-graphlet) or be re-fetched from their
        // Cache Workers (barrier, cross-graphlet).
        for e in dag.incoming(task.stage) {
            let action = if e.kind == EdgeKind::Barrier
                || part.graphlet_of(e.src) != part.graphlet_of(task.stage)
            {
                ChannelAction::CacheFetch
            } else {
                ChannelAction::Resend
            };
            for p in tasks_of(dag, e.src) {
                if !rerun.contains(&p) && snap.task_state(p).executed() {
                    updates.insert((p, task, act_code(action)));
                }
            }
        }
        // Output side: consumers that already exist and are not re-running
        // must learn about the new producer instance — but only on
        // intra-graphlet pipeline edges; on barrier edges the new instance
        // just writes to its local Cache Worker again (§IV-B3).
        for e in dag.outgoing(task.stage) {
            if e.kind == EdgeKind::Barrier {
                continue;
            }
            for c in tasks_of(dag, e.dst) {
                if !rerun.contains(&c) && snap.task_state(c).executed() {
                    updates.insert((task, c, act_code(ChannelAction::Reconnect)));
                }
            }
        }
    }

    // Classification for reporting.
    let cross_pred = dag
        .incoming(failed_stage)
        .any(|e| part.graphlet_of(e.src) != g_failed);
    let cross_succ = dag
        .outgoing(failed_stage)
        .any(|e| part.graphlet_of(e.dst) != g_failed);
    let case = match (cross_pred, cross_succ) {
        (true, true) => RecoveryCase::Mixed,
        (true, false) => RecoveryCase::InputFailure,
        (false, true) => RecoveryCase::OutputFailure,
        (false, false) => {
            if idempotent {
                RecoveryCase::IntraIdempotent
            } else {
                RecoveryCase::IntraNonIdempotent
            }
        }
    };

    let updates: Vec<ChannelUpdate> = updates
        .into_iter()
        .map(|(producer, consumer, code)| ChannelUpdate {
            producer,
            consumer,
            action: match code {
                0 => ChannelAction::Resend,
                1 => ChannelAction::CacheFetch,
                _ => ChannelAction::Reconnect,
            },
        })
        .collect();

    RecoveryPlan {
        failed,
        case,
        abort_job: false,
        rerun: rerun.into_iter().collect(),
        updates,
    }
}

/// The baseline policy the paper compares against (Figs. 14 & 15): restart
/// the whole job, re-running every task.
pub fn plan_job_restart(dag: &JobDag, failed: TaskId) -> RecoveryPlan {
    let rerun: Vec<TaskId> = dag
        .stages()
        .iter()
        .flat_map(|s| tasks_of(dag, s.id))
        .collect();
    RecoveryPlan {
        failed,
        case: RecoveryCase::Mixed,
        abort_job: false,
        rerun,
        updates: Vec::new(),
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "tests sit outside the determinism contract"
)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use swift_dag::{partition, DagBuilder, Operator};

    /// Snapshot backed by hash maps.
    #[derive(Default)]
    struct Snap {
        states: HashMap<TaskId, TaskRunState>,
        delivered: HashMap<(TaskId, TaskId), bool>,
        default_delivered: bool,
    }

    impl ExecutionSnapshot for Snap {
        fn task_state(&self, task: TaskId) -> TaskRunState {
            *self.states.get(&task).unwrap_or(&TaskRunState::NotStarted)
        }
        fn delivered(&self, from: TaskId, to: TaskId) -> bool {
            *self
                .delivered
                .get(&(from, to))
                .unwrap_or(&self.default_delivered)
        }
    }

    /// Fig. 6 topology: T1,T2 -> T4 -> T6,T7 all in one graphlet (pipeline
    /// edges), one task per stage.
    fn fig6(idempotent_t4: bool) -> (swift_dag::JobDag, swift_dag::Partition) {
        let mut b = DagBuilder::new(1, "fig6");
        let t1 = b
            .stage("T1", 1)
            .op(Operator::TableScan { table: "a".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let t2 = b
            .stage("T2", 1)
            .op(Operator::TableScan { table: "b".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let mut t4b = b
            .stage("T4", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::HashJoin)
            .op(Operator::ShuffleWrite);
        if !idempotent_t4 {
            t4b = t4b.non_idempotent();
        }
        let t4 = t4b.build();
        let t6 = b
            .stage("T6", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::Filter)
            .op(Operator::ShuffleWrite)
            .build();
        let t7 = b
            .stage("T7", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::Filter)
            .op(Operator::ShuffleWrite)
            .build();
        b.edge(t1, t4).edge(t2, t4).edge(t4, t6).edge(t4, t7);
        let dag = b.build().unwrap();
        let part = partition(&dag);
        assert_eq!(part.len(), 1, "Fig. 6 is one graphlet");
        (dag, part)
    }

    fn tid(dag: &swift_dag::JobDag, name: &str) -> TaskId {
        TaskId::new(dag.stage_by_name(name).unwrap().id, 0)
    }

    #[test]
    fn useless_failure_aborts_without_rerun() {
        let (dag, part) = fig6(true);
        let t4 = tid(&dag, "T4");
        let plan = plan_recovery(
            &dag,
            &part,
            t4,
            FailureKind::ApplicationError,
            &Snap::default(),
        );
        assert!(plan.abort_job);
        assert_eq!(plan.case, RecoveryCase::Useless);
        assert!(plan.rerun.is_empty());
        assert!(plan.updates.is_empty());
    }

    #[test]
    fn idempotent_finished_and_delivered_needs_nothing() {
        let (dag, part) = fig6(true);
        let t4 = tid(&dag, "T4");
        let mut snap = Snap {
            default_delivered: true,
            ..Default::default()
        };
        snap.states.insert(t4, TaskRunState::Finished);
        for n in ["T1", "T2", "T6", "T7"] {
            snap.states.insert(tid(&dag, n), TaskRunState::Finished);
        }
        let plan = plan_recovery(&dag, &part, t4, FailureKind::ProcessRestart, &snap);
        assert_eq!(plan.case, RecoveryCase::NoActionNeeded);
        assert!(plan.rerun.is_empty());
    }

    #[test]
    fn idempotent_rerun_with_resend_from_predecessors() {
        // Fig. 6(a): T4 fails before T6/T7 got its data. T4 re-runs alone;
        // T1, T2 re-send; T6, T7 (already running) reconnect to T4'.
        let (dag, part) = fig6(true);
        let t4 = tid(&dag, "T4");
        let mut snap = Snap::default();
        for n in ["T1", "T2"] {
            snap.states.insert(tid(&dag, n), TaskRunState::Finished);
        }
        snap.states.insert(t4, TaskRunState::Running);
        for n in ["T6", "T7"] {
            snap.states.insert(tid(&dag, n), TaskRunState::Running);
        }
        let plan = plan_recovery(&dag, &part, t4, FailureKind::ProcessRestart, &snap);
        assert_eq!(plan.case, RecoveryCase::IntraIdempotent);
        assert_eq!(plan.rerun, vec![t4]);
        let resends: Vec<_> = plan
            .updates
            .iter()
            .filter(|u| u.action == ChannelAction::Resend)
            .collect();
        assert_eq!(resends.len(), 2, "T1 and T2 re-send");
        assert!(resends.iter().all(|u| u.consumer == t4));
        let reconnects: Vec<_> = plan
            .updates
            .iter()
            .filter(|u| u.action == ChannelAction::Reconnect)
            .collect();
        assert_eq!(reconnects.len(), 2, "T6 and T7 reconnect");
        assert!(reconnects.iter().all(|u| u.producer == t4));
    }

    #[test]
    fn non_idempotent_cascades_to_executed_successors() {
        // Fig. 6(b): non-idempotent T4 fails; executed successors T6, T7
        // re-run as well.
        let (dag, part) = fig6(false);
        let t4 = tid(&dag, "T4");
        let t6 = tid(&dag, "T6");
        let t7 = tid(&dag, "T7");
        let mut snap = Snap::default();
        for n in ["T1", "T2"] {
            snap.states.insert(tid(&dag, n), TaskRunState::Finished);
        }
        snap.states.insert(t4, TaskRunState::Running);
        snap.states.insert(t6, TaskRunState::Finished);
        snap.states.insert(t7, TaskRunState::Running);
        let plan = plan_recovery(&dag, &part, t4, FailureKind::ProcessRestart, &snap);
        assert_eq!(plan.case, RecoveryCase::IntraNonIdempotent);
        assert_eq!(plan.rerun, vec![t4, t6, t7]);
    }

    #[test]
    fn non_idempotent_spares_unstarted_successors() {
        let (dag, part) = fig6(false);
        let t4 = tid(&dag, "T4");
        let mut snap = Snap::default();
        snap.states.insert(t4, TaskRunState::Running);
        for n in ["T1", "T2"] {
            snap.states.insert(tid(&dag, n), TaskRunState::Finished);
        }
        // T6/T7 not started: only T4 re-runs.
        let plan = plan_recovery(&dag, &part, t4, FailureKind::MachineCrash, &snap);
        assert_eq!(plan.rerun, vec![t4]);
    }

    /// Fig. 7(a): T1,T2 in graphlet 1 (they sort), T4 (+T6,T7) in graphlet 2.
    fn fig7a() -> (swift_dag::JobDag, swift_dag::Partition) {
        let mut b = DagBuilder::new(1, "fig7a");
        let sorted_scan = |b: &mut DagBuilder, n: &str| {
            b.stage(n, 1)
                .op(Operator::TableScan {
                    table: n.to_lowercase(),
                })
                .op(Operator::MergeSort)
                .op(Operator::ShuffleWrite)
                .build()
        };
        let t1 = sorted_scan(&mut b, "T1");
        let t2 = sorted_scan(&mut b, "T2");
        let t4 = b
            .stage("T4", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::MergeJoin)
            .op(Operator::ShuffleWrite)
            .build();
        let t6 = b
            .stage("T6", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::Filter)
            .op(Operator::ShuffleWrite)
            .build();
        let t7 = b
            .stage("T7", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::Filter)
            .op(Operator::ShuffleWrite)
            .build();
        b.edge(t1, t4).edge(t2, t4).edge(t4, t6).edge(t4, t7);
        let dag = b.build().unwrap();
        let part = partition(&dag);
        assert_eq!(part.len(), 3, "T1 and T2 form their own graphlets");
        (dag, part)
    }

    #[test]
    fn input_failure_refetches_from_cache_workers() {
        // Fig. 7(a): predecessors in other graphlets are NOT notified; the
        // re-launched T4' pulls from their Cache Workers.
        let (dag, part) = fig7a();
        let t4 = tid(&dag, "T4");
        let mut snap = Snap::default();
        for n in ["T1", "T2"] {
            snap.states.insert(tid(&dag, n), TaskRunState::Finished);
        }
        snap.states.insert(t4, TaskRunState::Running);
        let plan = plan_recovery(&dag, &part, t4, FailureKind::ProcessRestart, &snap);
        assert_eq!(plan.case, RecoveryCase::InputFailure);
        assert_eq!(plan.rerun, vec![t4]);
        let fetches: Vec<_> = plan
            .updates
            .iter()
            .filter(|u| u.action == ChannelAction::CacheFetch)
            .collect();
        assert_eq!(fetches.len(), 2);
        assert!(plan
            .updates
            .iter()
            .all(|u| u.action != ChannelAction::Resend));
    }

    /// Fig. 7(b): T4 sorts, so T6/T7 are in a different graphlet.
    fn fig7b() -> (swift_dag::JobDag, swift_dag::Partition) {
        let mut b = DagBuilder::new(1, "fig7b");
        let t1 = b
            .stage("T1", 1)
            .op(Operator::TableScan { table: "a".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let t2 = b
            .stage("T2", 1)
            .op(Operator::TableScan { table: "b".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let t4 = b
            .stage("T4", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::HashJoin)
            .op(Operator::MergeSort)
            .op(Operator::ShuffleWrite)
            .build();
        let t6 = b
            .stage("T6", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::Filter)
            .op(Operator::ShuffleWrite)
            .build();
        let t7 = b
            .stage("T7", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::Filter)
            .op(Operator::ShuffleWrite)
            .build();
        b.edge(t1, t4).edge(t2, t4).edge(t4, t6).edge(t4, t7);
        let dag = b.build().unwrap();
        let part = partition(&dag);
        assert_eq!(part.len(), 3, "{{T1,T2,T4}}, {{T6}}, {{T7}}");
        (dag, part)
    }

    #[test]
    fn output_failure_needs_no_output_updates() {
        // Fig. 7(b): T4' only writes to its local Cache Worker; T6/T7 (not
        // yet scheduled — different graphlet) need no channel updates.
        let (dag, part) = fig7b();
        let t4 = tid(&dag, "T4");
        let mut snap = Snap::default();
        for n in ["T1", "T2"] {
            snap.states.insert(tid(&dag, n), TaskRunState::Finished);
        }
        snap.states.insert(t4, TaskRunState::Running);
        let plan = plan_recovery(&dag, &part, t4, FailureKind::ProcessRestart, &snap);
        assert_eq!(plan.case, RecoveryCase::OutputFailure);
        assert_eq!(plan.rerun, vec![t4]);
        // Input side: intra-graphlet pipeline -> resend; no reconnects.
        assert!(plan
            .updates
            .iter()
            .all(|u| u.action == ChannelAction::Resend));
        assert_eq!(plan.updates.len(), 2);
    }

    #[test]
    fn job_restart_reruns_everything() {
        let (dag, _) = fig6(true);
        let plan = plan_job_restart(&dag, tid(&dag, "T4"));
        assert_eq!(plan.rerun_count() as u64, dag.total_tasks());
    }

    #[test]
    fn multi_task_stages_update_all_pairs() {
        // 2-task stages: failing one task of B resends from both A tasks.
        let mut b = DagBuilder::new(1, "wide");
        let a = b
            .stage("A", 2)
            .op(Operator::TableScan { table: "t".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let bb = b
            .stage("B", 2)
            .op(Operator::ShuffleRead)
            .op(Operator::Filter)
            .op(Operator::AdhocSink)
            .build();
        b.edge(a, bb);
        let dag = b.build().unwrap();
        let part = partition(&dag);
        let failed = TaskId::new(bb, 1);
        let mut snap = Snap::default();
        snap.states
            .insert(TaskId::new(a, 0), TaskRunState::Finished);
        snap.states
            .insert(TaskId::new(a, 1), TaskRunState::Finished);
        snap.states
            .insert(TaskId::new(bb, 0), TaskRunState::Running);
        snap.states.insert(failed, TaskRunState::Running);
        let plan = plan_recovery(&dag, &part, failed, FailureKind::ProcessRestart, &snap);
        assert_eq!(plan.rerun, vec![failed]);
        assert_eq!(plan.updates.len(), 2);
        assert!(plan
            .updates
            .iter()
            .all(|u| u.action == ChannelAction::Resend && u.consumer == failed));
    }
}
