//! Failure handling (§IV): injected task failures and machine crashes,
//! their detection after a per-kind delay, and recovery — Swift's
//! fine-grained re-run of what the planner names, or the whole-job
//! restart baseline.

use super::job::{JobSt, Phase};
use super::observer::RecoveryContext;
use super::{Event, Simulation, LANE};
use crate::config::RecoveryPolicy;
use crate::event::SimEvent;
use swift_cluster::MachineId;
use swift_dag::TaskId;
use swift_ft::{plan_recovery, ExecutionSnapshot, FailureKind, TaskRunState};
use swift_sim::{SimDuration, SimTime};

/// When an injected failure strikes.
#[derive(Clone, Copy, Debug)]
pub enum FailureAt {
    /// At an absolute simulation time.
    Absolute(SimTime),
    /// Relative to the target job's submission.
    AfterSubmit(SimDuration),
}

/// A failure to inject into a specific task (Figs. 14 & 15).
#[derive(Clone, Debug)]
pub struct FailureInjection {
    /// Index of the target job in the workload.
    pub job_index: usize,
    /// Name of the target stage (e.g. `"J3"`).
    pub stage: String,
    /// Task index within the stage.
    pub task_index: u32,
    /// When the failure strikes.
    pub at: FailureAt,
    /// Failure kind (drives detection latency and recoverability).
    pub kind: FailureKind,
}

/// Snapshot adapter exposing a job's state to the swift-ft planner.
struct Snap<'a> {
    job: &'a JobSt,
}

impl ExecutionSnapshot for Snap<'_> {
    fn task_state(&self, task: TaskId) -> TaskRunState {
        match self.job.tasks[self.job.flat(task) as usize].phase {
            Phase::Pending | Phase::Assigned => TaskRunState::NotStarted,
            // Dead tasks look "running" to the Admin until recovery resets
            // them — the failure detector is what brought us here.
            Phase::Running | Phase::Dead => TaskRunState::Running,
            Phase::Finished => TaskRunState::Finished,
        }
    }

    fn delivered(&self, from: TaskId, to: TaskId) -> bool {
        // In the timing model a consumer reads its entire input the moment
        // it starts executing, so data is delivered iff the producer
        // finished and the consumer has started.
        let p = &self.job.tasks[self.job.flat(from) as usize];
        let c = &self.job.tasks[self.job.flat(to) as usize];
        p.phase == Phase::Finished && matches!(c.phase, Phase::Running | Phase::Finished)
    }
}

impl Simulation {
    /// Registers task-level failure injections.
    pub fn inject_failures(&mut self, injections: Vec<FailureInjection>) {
        for (i, inj) in injections.iter().enumerate() {
            let at = match inj.at {
                FailureAt::Absolute(t) => t,
                FailureAt::AfterSubmit(d) => self.jobs[inj.job_index].submit_at + d,
            };
            self.q
                .schedule(LANE, at, Event::Inject((self.injections.len() + i) as u32));
        }
        self.injections.extend(injections);
    }

    /// Registers machine-level crash injections.
    pub fn fail_machines(&mut self, failures: Vec<(SimTime, MachineId)>) {
        for (t, m) in failures {
            self.q.schedule(LANE, t, Event::MachineFail(m));
        }
    }

    pub(super) fn on_inject(&mut self, idx: usize) {
        let inj = &self.injections[idx];
        let (job, kind) = (inj.job_index, inj.kind);
        let j = &self.jobs[job];
        if j.done() {
            return;
        }
        let Some(stage) = j.dag.stage_by_name(&inj.stage) else {
            return;
        };
        let flat = j.stages[stage.id.index()].offset + inj.task_index.min(stage.task_count - 1);
        let placed = j.tasks[flat as usize].executor;
        match kind {
            FailureKind::MachineCrash => match placed {
                // Crash the machine hosting the task.
                Some(exec) => self.on_machine_fail(self.cluster.machine_of(exec)),
                // Task not placed: degrade to a process failure.
                None => self.schedule_recovery(job, flat, FailureKind::ProcessRestart),
            },
            kind => {
                // The task's current execution dies immediately; the Admin
                // learns about it after the detection delay.
                self.kill_task(job, flat);
                self.schedule_recovery(job, flat, kind);
            }
        }
    }

    /// Marks a task's current attempt dead (cancelling its events) without
    /// touching Admin-side bookkeeping — detection hasn't happened yet. A
    /// task that already finished keeps its phase: its executor died after
    /// finishing, the output it buffered for pipeline edges is lost, and
    /// the recovery planner decides whether anything must re-run.
    fn kill_task(&mut self, job: usize, flat: u32) {
        let j = &mut self.jobs[job];
        let t = &mut j.tasks[flat as usize];
        if matches!(t.phase, Phase::Running | Phase::Assigned) {
            // The executor process died; the slot is unusable until the
            // Admin notices. Keep it allocated (it really is occupied).
            t.phase = Phase::Dead;
            j.phase_epoch += 1;
            self.invalidate(job, flat);
        }
    }

    /// Supersedes task `flat`'s current attempt: its epoch moves on, so the
    /// attempt's queued events no longer match, and the observer sees the
    /// new epoch.
    fn invalidate(&mut self, job: usize, flat: u32) {
        let t = &mut self.jobs[job].tasks[flat as usize];
        t.epoch += 1;
        let new_epoch = t.epoch;
        self.emit(|sim| SimEvent::TaskInvalidated {
            job: job as u32,
            task: sim.jobs[job].task_id(flat).into(),
            new_epoch,
        });
    }

    fn schedule_recovery(&mut self, job: usize, flat: u32, kind: FailureKind) {
        // Detection latency of a self-reported process restart (§IV-A: the
        // re-launched process reports its status immediately).
        const PROCESS_RESTART_DELAY: SimDuration = SimDuration::from_millis(1_000);
        let delay = match kind {
            FailureKind::ProcessRestart => PROCESS_RESTART_DELAY,
            FailureKind::ApplicationError => SimDuration::from_millis(100),
            FailureKind::MachineUnhealthy => PROCESS_RESTART_DELAY,
            FailureKind::MachineCrash => {
                let hb = self
                    .cluster
                    .cost()
                    .heartbeat_interval(self.cluster.machine_count());
                hb + PROCESS_RESTART_DELAY
            }
        };
        let job = job as u32;
        self.q
            .schedule_in(LANE, delay, Event::Recover { job, flat, kind });
    }

    pub(super) fn on_recover(&mut self, job: usize, flat: u32, kind: FailureKind) {
        if self.jobs[job].done() {
            return;
        }
        let tid = self.jobs[job].task_id(flat);
        self.emit(|_| SimEvent::FailureDetected {
            job: job as u32,
            task: tid.into(),
            kind,
        });
        match self.cfg.recovery {
            RecoveryPolicy::JobRestart if kind.recoverable() => self.restart_job(job),
            RecoveryPolicy::JobRestart => self.abort_job(job),
            RecoveryPolicy::FineGrained => {
                let j = &self.jobs[job];
                let snap = Snap { job: j };
                let plan = plan_recovery(&j.dag, &j.part, tid, kind, &snap);
                // The observer sees the plan against the same pre-recovery
                // snapshot the planner used.
                if let Some(obs) = self.observer.as_deref_mut() {
                    let ctx = RecoveryContext {
                        dag: &j.dag,
                        part: &j.part,
                        failed: tid,
                        kind,
                        snapshot: &snap,
                    };
                    obs.on_recovery_planned(self.q.now(), job, &ctx, &plan);
                }
                if plan.abort_job {
                    self.abort_job(job);
                } else {
                    self.apply_rerun(job, &plan.rerun);
                }
            }
        }
    }

    /// Resets the given tasks to Pending and queues a resource request for
    /// them. Used by fine-grained recovery.
    fn apply_rerun(&mut self, job: usize, rerun: &[TaskId]) {
        let mut flats = self.pooled_vec();
        for &tid in rerun {
            let j = &mut self.jobs[job];
            let flat = j.flat(tid);
            match j.tasks[flat as usize].phase {
                Phase::Pending => continue,
                Phase::Dead => {}
                Phase::Running | Phase::Assigned => self.invalidate(job, flat),
                Phase::Finished => {
                    // The new instance supersedes the finished output.
                    let st = &mut j.stages[tid.stage.index()];
                    st.remaining += 1;
                    st.complete = false;
                    let unit = j.plan.unit_of(tid.stage) as usize;
                    j.unit_remaining[unit] += 1;
                    self.invalidate(job, flat);
                }
            }
            let j = &mut self.jobs[job];
            if j.tasks[flat as usize].ever_executed {
                j.rerun_tasks += 1;
            }
            // Dead executors were revoked with their machine; live ones
            // return to the pool.
            self.free_executor(job, flat, false);
            let j = &mut self.jobs[job];
            let t = &mut j.tasks[flat as usize];
            t.phase = Phase::Pending;
            t.plan_delivered = false;
            j.phase_epoch += 1;
            flats.push(flat);
        }
        // Recovery re-runs continue an in-flight job: high priority.
        if self.enqueue(job, flats, None, true) {
            self.kick();
        }
    }

    fn restart_job(&mut self, job: usize) {
        // Drop queued resource requests from the superseded attempt: a
        // stale wave-mode remainder holds only downstream tasks, and
        // serving it first after the restart can fill the cluster with
        // tasks whose inputs can never be produced (deadlock). Their gang
        // waits end here; `evaluate_units` below opens fresh ones.
        self.close_queued_gang_waits(job);
        self.reqs.retain(|r| r.job != job);
        self.cache_model_drop_job(job);
        self.emit(|_| SimEvent::JobRestarted { job: job as u32 });
        for flat in 0..self.jobs[job].tasks.len() as u32 {
            let j = &mut self.jobs[job];
            let t = &mut j.tasks[flat as usize];
            if std::mem::take(&mut t.ever_executed) {
                j.rerun_tasks += 1;
            }
            if t.phase != Phase::Pending {
                self.invalidate(job, flat);
            }
            self.free_executor(job, flat, false);
            let t = &mut self.jobs[job].tasks[flat as usize];
            t.phase = Phase::Pending;
            t.plan_delivered = false;
        }
        let j = &mut self.jobs[job];
        // One bump invalidates every stamp issued before the restart.
        j.phase_epoch += 1;
        for (st, s) in j.stages.iter_mut().zip(j.dag.stages()) {
            st.remaining = s.task_count;
            st.complete = false;
        }
        j.unit_submitted.fill(false);
        for (u, left) in j.unit_remaining.iter_mut().enumerate() {
            *left = j.plan.gang_size(&j.dag, u as u32) as u32;
        }
        self.release_all_held(job);
        self.evaluate_units(job);
    }

    pub(super) fn abort_job(&mut self, job: usize) {
        for flat in 0..self.jobs[job].tasks.len() as u32 {
            let t = &mut self.jobs[job].tasks[flat as usize];
            if matches!(t.phase, Phase::Assigned | Phase::Running | Phase::Dead) {
                t.epoch += 1;
            }
            self.free_executor(job, flat, false);
        }
        let j = &mut self.jobs[job];
        j.aborted = true;
        j.finished = Some(self.q.now());
        self.end_job(job, true);
    }

    pub(super) fn on_machine_fail(&mut self, m: MachineId) {
        let before = self.cluster.machine(m).health;
        let lost = self.cluster.fail_machine(m);
        let to = self.cluster.machine(m).health;
        if before != to {
            self.emit(|_| SimEvent::MachineHealthChanged {
                machine: m.0,
                from: before,
                to,
            });
        }
        let mut victims: Vec<(u32, u32)> = lost
            .iter()
            .filter_map(|e| self.exec_owner[e.index()])
            .collect();
        victims.sort_unstable();
        for (job, flat) in victims {
            self.kill_task(job as usize, flat);
            self.schedule_recovery(job as usize, flat, FailureKind::MachineCrash);
        }
        self.kick();
    }
}
