//! Job state, from admission to completion (the Job Scheduler and
//! Monitor, §II-B): what a job is, how it is admitted through the
//! scheduling-template cache, and how it ends.

use super::observer::SchemeDecision;
use super::Simulation;
use crate::config::{LaunchModel, SimConfig};
use crate::event::SimEvent;
use crate::report::PhaseBreakdown;
use crate::template::{
    plan_artifacts, SchemePrior, TemplateCache, TemplateDecision, TemplateLookup, TemplateOutcome,
    TemplateStats,
};
use crate::units::UnitPlan;
use crate::PolicyConfig;
use std::sync::Arc;
use swift_cluster::{Cluster, CostModel, ExecutorId};
use swift_dag::{JobDag, Partition, TaskId};
use swift_sim::{SimDuration, SimTime};

/// One job to run: its DAG plus submission time.
///
/// The DAG is `Arc`-shared: cloning a spec (to re-run the same workload
/// under another policy) or handing it to the simulator never deep-copies
/// the DAG — scheduler and recovery paths read the same instance.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The job DAG.
    pub dag: Arc<JobDag>,
    /// When the client submits it.
    pub submit_at: SimTime,
}

impl JobSpec {
    /// Submits `dag` at time zero.
    pub fn at_zero(dag: impl Into<Arc<JobDag>>) -> Self {
        JobSpec {
            dag: dag.into(),
            submit_at: SimTime::ZERO,
        }
    }

    /// Submits `dag` at `submit_at`.
    pub fn at(dag: impl Into<Arc<JobDag>>, submit_at: SimTime) -> Self {
        JobSpec {
            dag: dag.into(),
            submit_at,
        }
    }
}

/// A long-lived control-plane session: scheduler state that outlives any
/// single [`Simulation`], so consecutive jobs admitted by one controller
/// reuse control-plane artifacts instead of paying a cold re-derivation
/// per job. Today that state is the scheduling-template cache;
/// `swift-service` keeps one session for its whole fleet and threads it
/// through [`Simulation::new_in_session`].
#[derive(Debug)]
pub struct SchedulerSession {
    pub(super) cache: TemplateCache,
}

impl SchedulerSession {
    /// A fresh session for `policy` (empty template cache).
    pub fn new(policy: &PolicyConfig) -> Self {
        SchedulerSession {
            cache: TemplateCache::new(policy),
        }
    }

    /// Cumulative template-cache counters across every simulation built
    /// in this session.
    pub fn template_stats(&self) -> TemplateStats {
        self.cache.stats()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Phase {
    /// Waiting for resources.
    Pending,
    /// Executor assigned; plan in flight or waiting for input data.
    Assigned,
    /// Executing (finish event scheduled).
    Running,
    /// Done.
    Finished,
    /// Executor died; Admin has not detected it yet.
    Dead,
}

#[derive(Clone, Debug)]
pub(super) struct TaskSt {
    pub(super) phase: Phase,
    pub(super) executor: Option<ExecutorId>,
    pub(super) epoch: u32,
    pub(super) plan_delivered: bool,
    pub(super) plan_ready_at: SimTime,
    pub(super) ever_executed: bool,
}

impl Default for TaskSt {
    fn default() -> Self {
        TaskSt {
            phase: Phase::Pending,
            executor: None,
            epoch: 0,
            plan_delivered: false,
            plan_ready_at: SimTime::ZERO,
            ever_executed: false,
        }
    }
}

#[derive(Clone, Debug)]
pub(super) struct StageSt {
    pub(super) offset: u32,
    pub(super) remaining: u32,
    pub(super) complete: bool,
    pub(super) completed_at: SimTime,
    pub(super) phases: PhaseBreakdown,
}

pub(super) struct JobSt {
    pub(super) dag: Arc<JobDag>,
    /// `Arc`: template-cache hits share the partition with the cached
    /// template instead of cloning it.
    pub(super) part: Arc<Partition>,
    pub(super) plan: Arc<UnitPlan>,
    /// How admission interacted with the template cache. Reported to the
    /// observer at submit time.
    pub(super) template: TemplateDecision,
    pub(super) submit_at: SimTime,
    pub(super) finished: Option<SimTime>,
    pub(super) aborted: bool,
    pub(super) stages: Vec<StageSt>,
    pub(super) tasks: Vec<TaskSt>,
    /// Flat index → `TaskId`, precomputed at job preparation (the naive
    /// stage-offset scan is the debug cross-check in `task_id`).
    pub(super) task_ids: Vec<TaskId>,
    pub(super) unit_submitted: Vec<bool>,
    /// Unfinished tasks per unit (drives the graphlet-complete events).
    pub(super) unit_remaining: Vec<u32>,
    /// Executors held past task completion (JobEnd release).
    pub(super) held: Vec<Vec<ExecutorId>>,
    /// Units served in waves (gang larger than the cluster): their gang
    /// semantics are already broken, so they release per task to avoid
    /// self-deadlock.
    pub(super) unit_wave_mode: Vec<bool>,
    /// Per-edge shuffle scheme decisions, in DAG edge order. Computed at
    /// preparation; reported to the observer at submit time and consulted
    /// by the cache shadow model.
    pub(super) schemes: Vec<SchemeDecision>,
    /// Bumped on every task phase transition. A queued request whose
    /// `pruned_at` stamp equals this is known to hold only `Pending`
    /// tasks, so the drain loop can skip re-filtering it.
    pub(super) phase_epoch: u64,
    pub(super) rerun_tasks: u64,
    pub(super) idle: SimDuration,
    pub(super) occupied: SimDuration,
}

impl JobSt {
    pub(super) fn flat(&self, t: TaskId) -> u32 {
        self.stages[t.stage.index()].offset + t.index
    }

    pub(super) fn task_id(&self, flat: u32) -> TaskId {
        let tid = self.task_ids[flat as usize];
        #[cfg(debug_assertions)]
        {
            // Naive derivation: linear scan over stage offsets.
            let mut s = 0;
            while s + 1 < self.stages.len() && self.stages[s + 1].offset <= flat {
                s += 1;
            }
            debug_assert_eq!(
                tid,
                TaskId::new(swift_dag::StageId(s as u32), flat - self.stages[s].offset),
                "task-id table drifted from stage offsets"
            );
        }
        tid
    }

    pub(super) fn done(&self) -> bool {
        self.finished.is_some() || self.aborted
    }
}

impl Simulation {
    /// Builds one job's state, refilling `spare`'s buffers when given.
    pub(super) fn prepare_job(
        cluster: &Cluster,
        cfg: &SimConfig,
        spec: JobSpec,
        cache: &mut TemplateCache,
        spare: Option<JobSt>,
    ) -> JobSt {
        let JobSpec { dag, submit_at } = spec;

        // Control-plane artifacts come from the template cache:
        // instantiated by parameter patching on a hit, planned from
        // scratch and registered on a miss. The priors are the
        // shape-determined half of each scheme decision.
        let (part, plan, priors, outcome, signature) = match cache.lookup(&dag) {
            TemplateLookup::Hit(hit) => {
                #[cfg(debug_assertions)]
                {
                    // Free oracle on every hit: instantiation must be
                    // indistinguishable from re-planning.
                    let (part, plan, priors) = plan_artifacts(&dag, &cfg.policy);
                    debug_assert_eq!(hit.part, part);
                    debug_assert_eq!(hit.plan, plan);
                    debug_assert_eq!(hit.priors, priors);
                }
                let outcome = TemplateOutcome::Hit;
                (hit.part, hit.plan, hit.priors, outcome, hit.signature)
            }
            TemplateLookup::Miss(ticket) => {
                let signature = ticket.signature();
                let (part, plan, priors) = plan_artifacts(&dag, &cfg.policy);
                cache.insert(
                    ticket,
                    &dag,
                    Arc::clone(&part),
                    Arc::clone(&plan),
                    Arc::clone(&priors),
                );
                (part, plan, priors, TemplateOutcome::Miss, signature)
            }
        };
        let template = TemplateDecision {
            outcome,
            signature,
            units: plan.len() as u32,
            edges: dag.edges().len() as u32,
        };

        let cost = cluster.cost();
        let machines = cluster.machine_count();
        let (
            mut stages,
            mut tasks,
            mut task_ids,
            mut schemes,
            mut unit_submitted,
            mut unit_remaining,
            mut held,
            mut unit_wave_mode,
        ) = match spare {
            Some(j) => (
                j.stages,
                j.tasks,
                j.task_ids,
                j.schemes,
                j.unit_submitted,
                j.unit_remaining,
                j.held,
                j.unit_wave_mode,
            ),
            None => Default::default(),
        };

        let launch = match cfg.policy.launch {
            LaunchModel::PlanDelivery => CostModel::PLAN_DELIVERY,
            LaunchModel::ColdStart => CostModel::SPARK_STAGE_LAUNCH,
        };
        stages.clear();
        stages.reserve_exact(dag.stage_count());
        task_ids.clear();
        task_ids.reserve_exact(dag.total_tasks() as usize);
        let mut offset = 0u32;
        for s in dag.stages() {
            stages.push(StageSt {
                offset,
                remaining: s.task_count,
                complete: false,
                completed_at: SimTime::ZERO,
                phases: PhaseBreakdown {
                    launch,
                    shuffle_read: SimDuration::ZERO,
                    process: SimDuration::from_micros(s.profile.process_us_per_task),
                    shuffle_write: SimDuration::ZERO,
                },
            });
            task_ids.extend((0..s.task_count).map(|i| TaskId::new(s.id, i)));
            offset += s.task_count;
        }

        // Per-job parameter patching: combine each shape-determined prior
        // with the job's actual edge sizes and profiles to produce the
        // full scheme decisions and per-stage phase durations.
        schemes.clear();
        schemes.reserve_exact(dag.edges().len());
        for (e, p) in dag.edges().iter().zip(priors.iter()) {
            let src = dag.stage(e.src);
            let dst = dag.stage(e.dst);
            let (m, n) = (src.task_count, dst.task_count);
            let SchemePrior {
                edge,
                scheme,
                medium,
                crossing,
                ..
            } = *p;
            let bytes_total = src.profile.output_bytes_per_task * m as u64;
            let (y_src, y_dst) = (m.min(machines), n.min(machines));
            let c = cost.shuffle_edge_cost(scheme, medium, m, n, y_src, y_dst, bytes_total);
            stages[e.src.index()].phases.shuffle_write += c.write_per_task;
            stages[e.dst.index()].phases.shuffle_read += c.read_per_task;
            schemes.push(SchemeDecision {
                edge,
                src: e.src,
                dst: e.dst,
                edge_size: e.shuffle_edge_size(m, n),
                scheme,
                medium,
                crossing,
            });
        }
        for (s, st) in dag.stages().iter().zip(&mut stages) {
            if s.is_source_stage() {
                st.phases.shuffle_read += cost.disk_io(s.profile.input_bytes_per_task);
            }
            if s.is_sink_stage() {
                st.phases.shuffle_write += cost.mem_copy(s.profile.output_bytes_per_task.max(1));
            }
        }

        tasks.clear();
        tasks.resize(offset as usize, TaskSt::default());
        unit_submitted.clear();
        unit_submitted.resize(plan.len(), false);
        unit_remaining.clear();
        unit_remaining.extend((0..plan.len() as u32).map(|u| plan.gang_size(&dag, u) as u32));
        held.truncate(plan.len());
        for h in &mut held {
            h.clear();
        }
        held.resize_with(plan.len(), Vec::new);
        unit_wave_mode.clear();
        unit_wave_mode.resize(plan.len(), false);
        JobSt {
            part,
            template,
            submit_at,
            finished: None,
            aborted: false,
            tasks,
            task_ids,
            stages,
            unit_submitted,
            unit_remaining,
            held,
            unit_wave_mode,
            plan,
            schemes,
            phase_epoch: 0,
            rerun_tasks: 0,
            idle: SimDuration::ZERO,
            occupied: SimDuration::ZERO,
            dag,
        }
    }

    /// Job `i` arrives at the Admin: the observer sees its submission, the
    /// template cache's answer and every scheme decision, then its first
    /// units go to the ReqItem queue.
    pub(super) fn on_submit(&mut self, i: usize) {
        let job = i as u32;
        let t = self.jobs[i].template;
        self.emit(|_| SimEvent::JobSubmitted { job });
        let signature = t.signature;
        match t.outcome {
            TemplateOutcome::Miss => self.emit(|_| SimEvent::TemplateMiss { job, signature }),
            TemplateOutcome::Hit => {
                self.emit(|_| SimEvent::TemplateHit { job, signature });
                self.emit(|_| SimEvent::TemplateInstantiate {
                    job,
                    units: t.units,
                    edges: t.edges,
                });
            }
        }
        for k in 0..self.jobs[i].schemes.len() {
            self.emit(|sim| sim.jobs[i].schemes[k].event(job));
        }
        self.evaluate_units(i);
    }

    /// Job `job`'s last stage completed.
    pub(super) fn finish_job(&mut self, job: usize) {
        let now = self.q.now();
        let j = &mut self.jobs[job];
        if j.finished.is_some() {
            return;
        }
        j.finished = Some(now);
        self.makespan = self.makespan.max(now);
        self.end_job(job, false);
    }

    /// What a finished and an aborted job share once its tasks are
    /// settled: the held executors go back to the pool, its staged
    /// segments are dropped, its queued gang waits close, and the observer
    /// sees it complete.
    pub(super) fn end_job(&mut self, job: usize, aborted: bool) {
        self.release_all_held(job);
        self.cache_model_drop_job(job);
        self.close_queued_gang_waits(job);
        self.emit(|_| SimEvent::JobCompleted {
            job: job as u32,
            aborted,
        });
        self.kick();
    }
}
