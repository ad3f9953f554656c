//! The invariant-checking [`SimObserver`].
//!
//! [`ChaosObserver`] taps every lifecycle hook the simulator exposes and
//! checks, *while the run unfolds*:
//!
//! * **shuffle version discipline** — every input read must deliver data
//!   from the producer's latest launched instance, never from a superseded
//!   one ([`swift_shuffle::VersionLedger`]);
//! * **recovery-plan soundness, minimality and shape** — every
//!   fine-grained plan is re-derived by the independent oracle in
//!   [`swift_ft::validate_recovery_plan`] and any disagreement is recorded,
//!   and [`swift_ft::validate_plan_versions`] checks that every producer it
//!   serves data from has an instance in the live ledger;
//! * **terminal-state accounting** — which jobs actually reached a
//!   terminal state, so the campaign driver can prove completion.
//!
//! The observer never mutates simulation state, so attaching it cannot
//! perturb the deterministic event flow it is checking.

#![expect(
    clippy::disallowed_types,
    reason = "per-run observer state shared by the observer and the caller's handle; Rc is !Send and only observer callbacks write it"
)]

use std::cell::RefCell;
use std::rc::Rc;

use swift_dag::TaskId;
use swift_ft::{validate_plan_versions, validate_recovery_plan};
use swift_scheduler::{RecoveryContext, SimObserver, TemplateDecision, TemplateOutcome};
use swift_shuffle::VersionLedger;
use swift_sim::SimTime;

/// Mutable invariant-checking state shared between the observer (owned by
/// the simulation) and the campaign driver (which reads it after the run).
#[derive(Debug, Default)]
pub struct ChaosState {
    /// Shuffle output version accounting across all jobs of the run.
    pub ledger: VersionLedger,
    /// Per-job terminal state: `None` = never completed, `Some(aborted)`.
    pub terminal: Vec<Option<bool>>,
    /// Invariant violations observed during the run.
    pub violations: Vec<String>,
    /// Number of recovery plans checked against the oracle.
    pub plans_checked: usize,
    /// Number of input reads checked against the version ledger.
    pub reads_checked: u64,
    /// Template-cache lookups observed (one per admitted job).
    pub template_lookups: u64,
    /// Template-cache hits observed.
    pub template_hits: u64,
}

impl ChaosState {
    /// State for a workload of `jobs` jobs.
    pub fn new(jobs: usize) -> Self {
        ChaosState {
            terminal: vec![None; jobs],
            ..ChaosState::default()
        }
    }
}

/// [`SimObserver`] handle over shared [`ChaosState`]. Cheap to clone; the
/// campaign driver keeps one clone and hands the other to the simulation.
#[derive(Clone, Debug, Default)]
pub struct ChaosObserver(pub Rc<RefCell<ChaosState>>);

impl ChaosObserver {
    /// Observer and state handle for a workload of `jobs` jobs.
    pub fn new(jobs: usize) -> Self {
        ChaosObserver(Rc::new(RefCell::new(ChaosState::new(jobs))))
    }
}

impl SimObserver for ChaosObserver {
    fn on_task_started(&mut self, _now: SimTime, job: usize, task: TaskId, epoch: u32) {
        self.0
            .borrow_mut()
            .ledger
            .begin_instance((job, task), epoch);
    }

    fn on_task_finished(&mut self, _now: SimTime, job: usize, task: TaskId, epoch: u32) {
        self.0.borrow_mut().ledger.record_output((job, task), epoch);
    }

    fn on_task_invalidated(&mut self, _now: SimTime, job: usize, task: TaskId, new_epoch: u32) {
        // Registering the superseding epoch as "latest launched" is what
        // makes any later read of the old output show up as stale.
        self.0
            .borrow_mut()
            .ledger
            .begin_instance((job, task), new_epoch);
    }

    fn on_template_decision(&mut self, _now: SimTime, _job: usize, decision: &TemplateDecision) {
        let mut st = self.0.borrow_mut();
        st.template_lookups += 1;
        if matches!(decision.outcome, TemplateOutcome::Hit) {
            st.template_hits += 1;
        }
    }

    fn on_input_read(&mut self, now: SimTime, job: usize, producer: TaskId, consumer: TaskId) {
        let mut st = self.0.borrow_mut();
        st.reads_checked += 1;
        let key = (job, producer);
        match st.ledger.output_epoch(key) {
            None => st.violations.push(format!(
                "[stale-shuffle] t={now:?} job {job}: consumer {consumer:?} read from \
                 producer {producer:?} which has no visible output"
            )),
            Some(delivered) => {
                if let Err(stale) = st.ledger.check_delivery(key, delivered) {
                    st.violations.push(format!(
                        "[stale-shuffle] t={now:?} job {job}: consumer {consumer:?} \
                         read superseded data: {stale}"
                    ));
                }
            }
        }
    }

    fn on_recovery_planned(
        &mut self,
        now: SimTime,
        job: usize,
        ctx: &RecoveryContext<'_>,
        plan: &swift_ft::RecoveryPlan,
    ) {
        let problems =
            validate_recovery_plan(ctx.dag, ctx.part, ctx.failed, ctx.kind, ctx.snapshot, plan);
        let mut st = self.0.borrow_mut();
        st.plans_checked += 1;
        for p in problems {
            st.violations.push(format!(
                "[recovery-plan] t={now:?} job {job} failed={:?} kind={:?}: {p}",
                ctx.failed, ctx.kind
            ));
        }

        // Independent of the oracle above, every update that serves a
        // consumer from a surviving producer must name a producer the live
        // ledger has seen.
        let unseen = validate_plan_versions(plan, &|t: TaskId| st.ledger.seen((job, t)));
        for v in unseen {
            st.violations
                .push(format!("[plan-static] t={now:?} job {job}: {v}"));
        }
    }

    fn on_job_completed(&mut self, _now: SimTime, job: usize, aborted: bool) {
        let mut st = self.0.borrow_mut();
        if job < st.terminal.len() {
            if let Some(prev) = st.terminal[job] {
                st.violations.push(format!(
                    "[completion] job {job} reached a terminal state twice \
                     (first aborted={prev}, now aborted={aborted})"
                ));
            }
            st.terminal[job] = Some(aborted);
        } else {
            st.violations
                .push(format!("[completion] unknown job index {job} completed"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_dag::StageId;

    fn tid(stage: u32, index: u32) -> TaskId {
        TaskId {
            stage: StageId(stage),
            index,
        }
    }

    #[test]
    fn clean_read_sequence_records_no_violation() {
        let mut obs = ChaosObserver::new(1);
        let p = tid(0, 0);
        obs.on_task_started(SimTime::ZERO, 0, p, 0);
        obs.on_task_finished(SimTime::from_millis(5), 0, p, 0);
        obs.on_input_read(SimTime::from_millis(6), 0, p, tid(1, 0));
        obs.on_job_completed(SimTime::from_millis(9), 0, false);
        let st = obs.0.borrow();
        assert!(st.violations.is_empty(), "unexpected: {:?}", st.violations);
        assert_eq!(st.reads_checked, 1);
        assert_eq!(st.terminal, vec![Some(false)]);
    }

    #[test]
    fn read_of_superseded_output_is_flagged() {
        let mut obs = ChaosObserver::new(1);
        let p = tid(0, 0);
        obs.on_task_started(SimTime::ZERO, 0, p, 0);
        obs.on_task_finished(SimTime::from_millis(5), 0, p, 0);
        // The producer is invalidated (epoch 1 launched) but a consumer
        // still reads the epoch-0 output: that is the bug class invariant
        // 5 exists to catch.
        obs.on_task_invalidated(SimTime::from_millis(6), 0, p, 1);
        obs.on_input_read(SimTime::from_millis(7), 0, p, tid(1, 0));
        let st = obs.0.borrow();
        assert_eq!(st.violations.len(), 1, "{:?}", st.violations);
        assert!(st.violations[0].contains("[stale-shuffle]"));
    }

    #[test]
    fn read_before_any_output_is_flagged() {
        let mut obs = ChaosObserver::new(1);
        let p = tid(0, 0);
        obs.on_task_started(SimTime::ZERO, 0, p, 0);
        obs.on_input_read(SimTime::from_millis(1), 0, p, tid(1, 0));
        let st = obs.0.borrow();
        assert_eq!(st.violations.len(), 1);
        assert!(st.violations[0].contains("no visible output"));
    }

    #[test]
    fn double_completion_is_flagged() {
        let mut obs = ChaosObserver::new(1);
        obs.on_job_completed(SimTime::ZERO, 0, false);
        obs.on_job_completed(SimTime::from_millis(1), 0, true);
        let st = obs.0.borrow();
        assert_eq!(st.violations.len(), 1);
        assert!(st.violations[0].contains("twice"));
    }
}
