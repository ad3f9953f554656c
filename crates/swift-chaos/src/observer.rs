//! The invariant-checking [`SimObserver`].
//!
//! [`ChaosObserver`] reads the simulator's event stream and recovery
//! plans and checks, *while the run unfolds*:
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

use swift_dag::{StageId, TaskId};
use swift_ft::{validate_plan_versions, validate_recovery_plan};
use swift_scheduler::{RecoveryContext, SimEvent, SimObserver};
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
    fn on_event(&mut self, now: SimTime, event: SimEvent) {
        let mut st = self.0.borrow_mut();
        match event {
            // An invalidation registers the superseding epoch as "latest
            // launched": that is what makes any later read of the old
            // output show up as stale.
            SimEvent::TaskStarted { job, task, epoch }
            | SimEvent::TaskInvalidated {
                job,
                task,
                new_epoch: epoch,
            } => st.ledger.begin_instance((job as usize, task.into()), epoch),
            SimEvent::TaskFinished { job, task, epoch } => {
                st.ledger.record_output((job as usize, task.into()), epoch);
            }
            SimEvent::TemplateMiss { .. } => st.template_lookups += 1,
            SimEvent::TemplateHit { .. } => {
                st.template_lookups += 1;
                st.template_hits += 1;
            }
            SimEvent::InputRead {
                job,
                consumer,
                producer_stage,
                producers,
            } => {
                let consumer = TaskId::from(consumer);
                st.reads_checked += u64::from(producers);
                for i in 0..producers {
                    let producer = TaskId::new(StageId(producer_stage), i);
                    let key = (job as usize, producer);
                    match st.ledger.output_epoch(key) {
                        None => st.violations.push(format!(
                            "[stale-shuffle] t={now:?} job {job}: consumer {consumer:?} read \
                             from producer {producer:?} which has no visible output"
                        )),
                        Some(delivered) => {
                            if let Err(stale) = st.ledger.check_delivery(key, delivered) {
                                st.violations.push(format!(
                                    "[stale-shuffle] t={now:?} job {job}: consumer \
                                     {consumer:?} read superseded data: {stale}"
                                ));
                            }
                        }
                    }
                }
            }
            SimEvent::JobCompleted { job, aborted } => {
                let prev = st
                    .terminal
                    .get_mut(job as usize)
                    .map(|t| t.replace(aborted));
                match prev {
                    None => st
                        .violations
                        .push(format!("[completion] unknown job index {job} completed")),
                    Some(Some(prev)) => st.violations.push(format!(
                        "[completion] job {job} reached a terminal state twice \
                         (first aborted={prev}, now aborted={aborted})"
                    )),
                    Some(None) => {}
                }
            }
            _ => {}
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_scheduler::TaskRef;

    fn task(stage: u32, index: u32) -> TaskRef {
        TaskRef { stage, index }
    }

    fn ms(m: u64) -> SimTime {
        SimTime::from_millis(m)
    }

    /// Feeds `task` one started-then-finished instance at epoch 0.
    fn run_once(obs: &mut ChaosObserver, task: TaskRef) {
        obs.on_event(
            ms(0),
            SimEvent::TaskStarted {
                job: 0,
                task,
                epoch: 0,
            },
        );
        obs.on_event(
            ms(5),
            SimEvent::TaskFinished {
                job: 0,
                task,
                epoch: 0,
            },
        );
    }

    /// A read by task 0 of stage 1 of the first `producers` tasks of stage 0.
    fn read(producers: u32) -> SimEvent {
        SimEvent::InputRead {
            job: 0,
            consumer: task(1, 0),
            producer_stage: 0,
            producers,
        }
    }

    fn completed(aborted: bool) -> SimEvent {
        SimEvent::JobCompleted { job: 0, aborted }
    }

    #[test]
    fn clean_read_sequence_records_no_violation() {
        let mut obs = ChaosObserver::new(1);
        run_once(&mut obs, task(0, 0));
        obs.on_event(ms(6), read(1));
        obs.on_event(ms(9), completed(false));
        let st = obs.0.borrow();
        assert!(st.violations.is_empty(), "unexpected: {:?}", st.violations);
        assert_eq!(st.reads_checked, 1);
        assert_eq!(st.terminal, vec![Some(false)]);
    }

    #[test]
    fn read_of_superseded_output_is_flagged() {
        let mut obs = ChaosObserver::new(1);
        run_once(&mut obs, task(0, 0));
        // The producer is invalidated (epoch 1 launched) but a consumer
        // still reads the epoch-0 output: that is the bug class invariant
        // 5 exists to catch.
        let invalidated = SimEvent::TaskInvalidated {
            job: 0,
            task: task(0, 0),
            new_epoch: 1,
        };
        obs.on_event(ms(6), invalidated);
        obs.on_event(ms(7), read(1));
        let st = obs.0.borrow();
        assert_eq!(st.violations.len(), 1, "{:?}", st.violations);
        assert!(st.violations[0].contains("[stale-shuffle]"));
    }

    #[test]
    fn read_before_any_output_is_flagged() {
        let mut obs = ChaosObserver::new(1);
        let started = SimEvent::TaskStarted {
            job: 0,
            task: task(0, 0),
            epoch: 0,
        };
        obs.on_event(ms(0), started);
        obs.on_event(ms(1), read(1));
        let st = obs.0.borrow();
        assert_eq!(st.violations.len(), 1);
        assert!(st.violations[0].contains("no visible output"));
    }

    #[test]
    fn double_completion_is_flagged() {
        let mut obs = ChaosObserver::new(1);
        obs.on_event(ms(0), completed(false));
        obs.on_event(ms(1), completed(true));
        let st = obs.0.borrow();
        assert_eq!(st.violations.len(), 1);
        assert!(st.violations[0].contains("twice"));
    }

    #[test]
    fn stage_read_checks_every_producer() {
        let mut obs = ChaosObserver::new(1);
        for i in 0..3 {
            run_once(&mut obs, task(0, i));
        }
        let invalidated = SimEvent::TaskInvalidated {
            job: 0,
            task: task(0, 1),
            new_epoch: 1,
        };
        obs.on_event(ms(6), invalidated);
        obs.on_event(ms(7), read(3));
        let st = obs.0.borrow();
        assert_eq!(st.reads_checked, 3);
        assert_eq!(st.violations.len(), 1, "{:?}", st.violations);
        assert!(st.violations[0].contains("[stale-shuffle]"));
        assert!(st.violations[0].contains("s0t1"), "{}", st.violations[0]);
    }
}
