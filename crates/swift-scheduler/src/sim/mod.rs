//! The event-driven Swift Admin simulation.
//!
//! One [`Simulation`] runs a workload of job DAGs on a simulated
//! [`Cluster`] under a [`crate::PolicyConfig`] (Swift or a baseline), with
//! optional failure injection, and produces a [`RunReport`].
//!
//! The control flow mirrors the paper's architecture (§II-B/C), one module
//! per part of the Admin: jobs are partitioned into schedule units and
//! admitted (Job Scheduler, `job`), units register resource requests (DAG
//! Scheduler → Resource Scheduler's ReqItem queue, `placement`), resources
//! are assigned with locality + load awareness, plans are delivered to
//! pre-launched executors (Executor Manager), failures are detected and
//! recovered (§IV, `recovery`), and everything advances through a single
//! deterministic event queue (Event Processor, this module). What the
//! observer sees is `observer`; counter samples and the Cache Worker
//! shadow model are `telemetry`.
//!
//! ## Task timing model
//!
//! Following the paper's own four-phase decomposition (Fig. 9b), a task
//! occupies its executor from plan arrival to completion and executes
//! `shuffle read → process → shuffle write` once all its input stages have
//! completed. The time between plan arrival and input readiness is the
//! executor's *idle* time — the IdleRatio numerator of Fig. 3. This is
//! exactly the waste fine-grained scheduling attacks: whole-job gang
//! scheduling assigns every stage's executors up front, so downstream
//! tasks idle through their predecessors' entire runtime.

mod job;
mod observer;
mod placement;
mod recovery;
mod telemetry;

pub use job::{JobSpec, SchedulerSession};
pub use observer::{GraphletState, RecoveryContext, SchemeDecision, SimObserver};
pub use recovery::{FailureAt, FailureInjection};
pub use telemetry::CounterSample;

use crate::config::{ReleaseMode, SimConfig};
use crate::event::SimEvent;
use crate::report::{JobReport, RunReport, StageReport};
use crate::template::TemplateOutcome;
use job::{JobSt, Phase};
use placement::Request;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use swift_cluster::{Cluster, ExecutorId, ExecutorState, MachineId};
use swift_dag::StageId;
use swift_ft::FailureKind;
use swift_sim::{Cadence, ShardedEventQueue, SimDuration, SimTime};

/// Simulation events. Job indices are `u32` (not `usize`) to keep the
/// enum — and with it every heap entry — at 16 bytes; the event loop's
/// sift costs scale with element size.
#[derive(Clone, Debug)]
enum Event {
    Submit(u32),
    TrySchedule,
    PlanReady {
        job: u32,
        flat: u32,
        epoch: u32,
    },
    TaskDone {
        job: u32,
        flat: u32,
        epoch: u32,
    },
    Inject(u32),
    Recover {
        job: u32,
        flat: u32,
        kind: FailureKind,
    },
    MachineFail(MachineId),
}

/// The event queue's one lane: every event is scheduled on it.
const LANE: u32 = 0;

/// The simulation driver. Build with [`Simulation::new`], then call
/// [`Simulation::run`]; or keep one and alternate
/// [`Simulation::load`] and [`Simulation::run_loaded`], each run starting
/// from the state a new simulation would have.
pub struct Simulation {
    cluster: Cluster,
    cfg: SimConfig,
    jobs: Vec<JobSt>,
    /// The previous run's job states, whose buffers [`Simulation::load`]
    /// refills; empty outside `load`.
    spare_jobs: Vec<JobSt>,
    /// The event core, one lane; pops in `(time, seq)` order.
    q: ShardedEventQueue<Event>,
    reqs: VecDeque<Request>,
    try_pending: bool,
    /// Executor → `(job, flat)` of the task occupying it. Dense (indexed
    /// by executor id): owner lookups are hot on every task start/finish
    /// and machine failure.
    exec_owner: Vec<Option<(u32, u32)>>,
    /// Jobs that ever entered wave mode — the only jobs
    /// `evict_blocked_wave_tasks` must examine. Ordered ascending so the
    /// eviction order matches the old all-jobs scan; a sorted `Vec`, so
    /// a reused simulation keeps its buffer.
    wave_jobs: Vec<usize>,
    injections: Vec<FailureInjection>,
    makespan: SimTime,
    observer: Option<Box<dyn SimObserver>>,
    /// Observer capability flags, sampled once at [`Simulation::set_observer`].
    obs_wants_reads: bool,
    obs_cache_model: bool,
    /// Counter-sample window requested by the observer (`None` = off).
    obs_counter_window: Option<SimDuration>,
    /// The template cache's entries after admission, and the hits and
    /// misses of the loaded jobs. All lookups happen in `load`, so these
    /// are fixed for the run's counter samples.
    template_entries: u64,
    template_hits: u64,
    template_misses: u64,
    /// Cache shadow-model site map: `(job, edge, producer index within its
    /// stage)` → machine whose Cache Worker holds the staged segment.
    cache_sites: BTreeMap<(u32, u32, u32), MachineId>,
    /// Recycled task-list buffers for [`Request`]s (hot-path allocations).
    vec_pool: Vec<Vec<u32>>,
    /// Scratch: newly submittable units in `evaluate_units`.
    scratch_units: Vec<u32>,
    /// Scratch: consumer stages in `on_stage_complete`.
    scratch_stages: Vec<StageId>,
    /// Scratch: locality preferences in `assign`.
    scratch_locality: Vec<MachineId>,
    /// Scratch: the event batch being handled in `run_loaded`.
    scratch_batch: Vec<Event>,
}

// Manual impl: the observer is a trait object without a Debug bound; job
// state is summarised by count.
impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("jobs", &self.jobs.len())
            .field("makespan", &self.makespan)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Creates a simulation of `workload` on `cluster` under `cfg`, in a
    /// fresh [`SchedulerSession`] of its own.
    pub fn new(cluster: Cluster, cfg: SimConfig, workload: Vec<JobSpec>) -> Self {
        let mut session = SchedulerSession::new(&cfg.policy);
        Self::new_in_session(cluster, cfg, workload, &mut session)
    }

    /// Like [`Simulation::new`], but control-plane artifacts draw on (and
    /// feed) a caller-owned [`SchedulerSession`], so template hits
    /// amortize across every simulation built, or workload loaded, in
    /// the session. The session is only borrowed during construction —
    /// all lookups happen at job admission. This is an empty simulation
    /// plus [`Simulation::load`]: a simulation kept and loaded again runs
    /// each workload exactly as a new one would.
    pub fn new_in_session(
        cluster: Cluster,
        cfg: SimConfig,
        workload: Vec<JobSpec>,
        session: &mut SchedulerSession,
    ) -> Self {
        let q = ShardedEventQueue::new(1, cfg.shard_window);
        let mut sim = Simulation {
            cluster,
            cfg,
            jobs: Vec::new(),
            spare_jobs: Vec::new(),
            q,
            reqs: VecDeque::new(),
            try_pending: false,
            exec_owner: Vec::new(),
            wave_jobs: Vec::new(),
            injections: Vec::new(),
            makespan: SimTime::ZERO,
            observer: None,
            obs_wants_reads: false,
            obs_cache_model: false,
            obs_counter_window: None,
            template_entries: 0,
            template_hits: 0,
            template_misses: 0,
            cache_sites: BTreeMap::new(),
            vec_pool: Vec::new(),
            scratch_units: Vec::new(),
            scratch_stages: Vec::new(),
            scratch_locality: Vec::new(),
            scratch_batch: Vec::new(),
        };
        sim.load(workload, session);
        sim
    }

    /// Loads `workload` for the next [`Simulation::run_loaded`], admitting
    /// its jobs through `session`'s template cache. Everything the last
    /// run left behind is rewound to its as-built state: the event queue
    /// (back to time zero), the cluster ([`Cluster::reset`]), executor
    /// ownership, queued requests, wave-mode jobs, failure injections,
    /// the Cache Worker site map, the template counters, the makespan and
    /// the observer, which is installed per run. Buffers keep their
    /// capacity: the jobs' states are refilled into the last run's, so a
    /// template-hit job allocates only what its [`RunReport`] owns.
    ///
    /// # Panics
    ///
    /// If the last loaded workload was not run to quiescence (events are
    /// still pending).
    pub fn load(
        &mut self,
        workload: impl IntoIterator<Item = JobSpec>,
        session: &mut SchedulerSession,
    ) {
        self.q.rewind();
        self.cluster.reset();
        self.exec_owner.clear();
        self.exec_owner
            .resize(self.cluster.executor_count() as usize, None);
        while let Some(req) = self.reqs.pop_front() {
            self.recycle_vec(req.tasks);
        }
        self.try_pending = false;
        self.wave_jobs.clear();
        self.injections.clear();
        self.makespan = SimTime::ZERO;
        self.observer = None;
        self.obs_wants_reads = false;
        self.obs_cache_model = false;
        self.obs_counter_window = None;
        self.cache_sites.clear();

        // `spare_jobs` is a stack: the last run's first job pops first.
        self.spare_jobs.extend(self.jobs.drain(..).rev());
        let workload = workload.into_iter();
        self.jobs.reserve(workload.size_hint().0);
        for spec in workload {
            let spare = self.spare_jobs.pop();
            let job = Self::prepare_job(&self.cluster, &self.cfg, spec, &mut session.cache, spare);
            self.jobs.push(job);
        }
        self.spare_jobs.clear();
        self.template_entries = session.cache.len() as u64;
        self.template_hits = self
            .jobs
            .iter()
            .filter(|j| j.template.outcome == TemplateOutcome::Hit)
            .count() as u64;
        self.template_misses = self.jobs.len() as u64 - self.template_hits;
        let delay = self.cfg.policy.partition_overhead;
        for (i, job) in self.jobs.iter().enumerate() {
            self.q
                .schedule(LANE, job.submit_at + delay, Event::Submit(i as u32));
        }
    }

    /// Installs an observer receiving lifecycle callbacks. Observers must
    /// not depend on wall-clock state: the simulation stays deterministic
    /// with or without one.
    pub fn set_observer(&mut self, observer: Box<dyn SimObserver>) {
        self.obs_wants_reads = observer.wants_input_reads();
        self.obs_cache_model = observer.wants_cache_model();
        self.obs_counter_window = observer.counter_window().filter(|w| *w > SimDuration::ZERO);
        self.observer = Some(observer);
    }

    /// Number of jobs in the workload.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The simulated cluster (read-only; useful for harnesses that report
    /// scenario dimensions).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Hands the observer, if one is installed, the event `build` makes
    /// from the simulation's state, stamped with the current time. Without
    /// an observer the event is never built.
    fn emit(&mut self, build: impl FnOnce(&Self) -> SimEvent) {
        if let Some(mut obs) = self.observer.take() {
            obs.on_event(self.q.now(), build(self));
            self.observer = Some(obs);
        }
    }

    /// Runs to quiescence and returns the report.
    pub fn run(mut self) -> RunReport {
        self.run_loaded()
    }

    /// Runs the loaded workload to quiescence and returns the report. The
    /// observer is dropped when the run ends; the simulation keeps its
    /// buffers for the next [`Simulation::load`].
    pub fn run_loaded(&mut self) -> RunReport {
        // Drain same-timestamp batches in one heap interaction each.
        // Events scheduled by a handler (even at the current instant) sort
        // after the drained batch by sequence number, so the order is
        // exactly the one-`pop`-at-a-time order.
        let mut batch = std::mem::take(&mut self.scratch_batch);
        // Both samplers run between batches — never as queue events — so
        // the event stream and its digest are untouched by either.
        let mut utilization = Vec::new();
        let mut util_cadence = self.cfg.sample_every.map(Cadence::new);
        let mut counters = self.obs_counter_window.map(Cadence::new);
        while self.q.pop_batch_at_now(&mut batch) > 0 {
            let now = self.q.now();
            // One utilization sample per boundary up to this batch, each
            // with the state in force just before its boundary.
            while let Some(boundary) = util_cadence.as_mut().and_then(|c| c.due(now)) {
                utilization.push((boundary.as_secs_f64(), self.cluster.busy_executor_count()));
            }
            for ev in batch.drain(..) {
                self.handle(ev);
            }
            // One counter sample per crossing, with the state after it.
            if counters.as_mut().is_some_and(|c| c.cross(now)) {
                self.emit_counter_sample();
            }
        }
        self.scratch_batch = batch;
        // Seal the last (partial) window so per-window counter totals
        // telescope exactly to the end-of-run cumulative values.
        if counters.is_some() {
            self.emit_counter_sample();
        }
        if cfg!(debug_assertions) && !self.jobs.iter().all(|j| j.done()) {
            self.panic_unfinished();
        }
        let events = self.q.processed();
        self.emit(|_| SimEvent::RunFinished { events });
        self.observer = None;
        let jobs = (0..self.jobs.len()).map(|i| self.job_report(i)).collect();
        RunReport {
            policy: self.cfg.policy.name.clone(),
            jobs,
            utilization,
            makespan: self.makespan,
            events_processed: events,
        }
    }

    /// Debug builds: the queue ran dry with a job unfinished — a scheduler
    /// deadlock. Panics with every unfinished job's task phases.
    fn panic_unfinished(&self) -> ! {
        let mut dump = String::from("simulation quiesced with unfinished jobs:\n");
        for (i, j) in self.jobs.iter().enumerate().filter(|(_, j)| !j.done()) {
            let mut phases = [0u32; 5];
            for t in &j.tasks {
                phases[t.phase as usize] += 1;
            }
            dump.push_str(&format!(
                "  job {i}: pending={} assigned={} running={} finished={} dead={} \
                 units_submitted={:?}\n",
                phases[Phase::Pending as usize],
                phases[Phase::Assigned as usize],
                phases[Phase::Running as usize],
                phases[Phase::Finished as usize],
                phases[Phase::Dead as usize],
                j.unit_submitted,
            ));
        }
        dump.push_str(&format!(
            "  reqs={:?} free_executors={}/{}",
            self.reqs
                .iter()
                .map(|r| (r.job, r.tasks.len()))
                .collect::<Vec<_>>(),
            self.cluster.free_executor_count(),
            self.cluster.executor_count(),
        ));
        panic!("{dump}");
    }

    fn job_report(&self, i: usize) -> JobReport {
        let j = &self.jobs[i];
        let finished = j.finished.unwrap_or(j.submit_at);
        JobReport {
            job_index: i,
            name: j.dag.name.clone(),
            submitted: j.submit_at,
            finished,
            elapsed: finished.saturating_since(j.submit_at),
            aborted: j.aborted,
            stages: j
                .dag
                .stages()
                .iter()
                .map(|s| StageReport {
                    stage: s.id,
                    name: s.name.clone(),
                    tasks: s.task_count,
                    phases: j.stages[s.id.index()].phases,
                    completed_at: j.stages[s.id.index()].completed_at,
                })
                .collect(),
            total_tasks: j.dag.total_tasks(),
            rerun_tasks: j.rerun_tasks,
            idle_time: j.idle,
            occupied_time: j.occupied,
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Submit(i) => self.on_submit(i as usize),
            Event::TrySchedule => {
                self.try_pending = false;
                self.drain_requests();
            }
            Event::PlanReady { job, flat, epoch } => self.on_plan_ready(job as usize, flat, epoch),
            Event::TaskDone { job, flat, epoch } => self.on_task_done(job as usize, flat, epoch),
            Event::Inject(i) => self.on_inject(i as usize),
            Event::Recover { job, flat, kind } => self.on_recover(job as usize, flat, kind),
            Event::MachineFail(m) => self.on_machine_fail(m),
        }
    }

    fn stage_inputs_ready(&self, job: usize, stage: StageId) -> bool {
        let j = &self.jobs[job];
        j.dag
            .predecessors(stage)
            .all(|p| j.stages[p.index()].complete)
    }

    fn on_plan_ready(&mut self, job: usize, flat: u32, epoch: u32) {
        if self.jobs[job].done() {
            return;
        }
        let t = &mut self.jobs[job].tasks[flat as usize];
        if t.epoch != epoch || t.phase != Phase::Assigned {
            return;
        }
        t.plan_delivered = true;
        t.plan_ready_at = self.q.now();
        let tid = self.jobs[job].task_id(flat);
        self.emit(|_| SimEvent::PlanDelivered {
            job: job as u32,
            task: tid.into(),
            epoch,
        });
        if self.stage_inputs_ready(job, tid.stage) {
            self.start_exec(job, flat);
        }
    }

    fn start_exec(&mut self, job: usize, flat: u32) {
        let now = self.q.now();
        let tid = self.jobs[job].task_id(flat);
        let j = &mut self.jobs[job];
        let p = &j.stages[tid.stage.index()].phases;
        let dur = p.shuffle_read + p.process + p.shuffle_write;
        let t = &mut j.tasks[flat as usize];
        debug_assert_eq!(t.phase, Phase::Assigned);
        debug_assert!(t.plan_delivered);
        j.idle += now.saturating_since(t.plan_ready_at);
        t.phase = Phase::Running;
        t.ever_executed = true;
        let epoch = t.epoch;
        j.phase_epoch += 1;
        let job32 = job as u32;
        self.q.schedule(
            LANE,
            now + dur,
            Event::TaskDone {
                job: job32,
                flat,
                epoch,
            },
        );
        self.emit(|_| SimEvent::TaskStarted {
            job: job32,
            task: tid.into(),
            epoch,
        });
        // The timing model reads the whole input at execution start:
        // every task of every predecessor stage.
        if self.obs_wants_reads {
            let dag = Arc::clone(&self.jobs[job].dag);
            for p in dag.predecessors(tid.stage) {
                self.emit(|_| SimEvent::InputRead {
                    job: job32,
                    consumer: tid.into(),
                    producer_stage: p.index() as u32,
                    producers: dag.stage(p).task_count,
                });
            }
        }
        // The starting consumer reads (and possibly releases) every staged
        // input segment of its stage.
        if self.obs_cache_model {
            self.cache_model_consume(job, tid.stage);
        }
    }

    fn on_task_done(&mut self, job: usize, flat: u32, epoch: u32) {
        if self.jobs[job].done() {
            return;
        }
        let now = self.q.now();
        let tid = self.jobs[job].task_id(flat);
        let j = &mut self.jobs[job];
        let t = &mut j.tasks[flat as usize];
        if t.epoch != epoch || t.phase != Phase::Running {
            return;
        }
        t.phase = Phase::Finished;
        j.occupied += now.saturating_since(t.plan_ready_at);
        j.phase_epoch += 1;
        let unit = j.plan.unit_of(tid.stage) as usize;
        let hold = self.cfg.policy.release == ReleaseMode::JobEnd && !j.unit_wave_mode[unit];
        let exec = self.free_executor(job, flat, hold);
        self.emit(|_| SimEvent::TaskFinished {
            job: job as u32,
            task: tid.into(),
            epoch,
        });
        if let Some(exec) = exec.filter(|_| self.obs_cache_model) {
            self.cache_model_insert(job, tid, self.cluster.machine_of(exec));
        }
        let left = &mut self.jobs[job].unit_remaining[unit];
        let was = *left;
        *left = was.saturating_sub(1);
        if was == 1 {
            self.emit(|_| SimEvent::GraphletState {
                job: job as u32,
                unit: unit as u32,
                state: GraphletState::Complete,
                stages: Vec::new(),
            });
        }
        let st = &mut self.jobs[job].stages[tid.stage.index()];
        st.remaining -= 1;
        if st.remaining == 0 && !st.complete {
            st.complete = true;
            st.completed_at = now;
            self.on_stage_complete(job, tid.stage);
        }
        self.kick();
    }

    fn on_stage_complete(&mut self, job: usize, stage: StageId) {
        // Wake assigned-and-waiting tasks of consumer stages whose inputs
        // are now all ready. Reused scratch buffer (taken so the nested
        // handler calls cannot observe it mid-use).
        let mut consumers = std::mem::take(&mut self.scratch_stages);
        consumers.clear();
        consumers.extend(self.jobs[job].dag.successors(stage));
        for &c in &consumers {
            if !self.stage_inputs_ready(job, c) {
                continue;
            }
            let j = &self.jobs[job];
            let offset = j.stages[c.index()].offset;
            for flat in offset..offset + j.dag.stage(c).task_count {
                let t = &self.jobs[job].tasks[flat as usize];
                if t.phase == Phase::Assigned && t.plan_delivered {
                    self.start_exec(job, flat);
                }
            }
        }
        self.scratch_stages = consumers;
        // New units may be submittable; job may be complete.
        self.evaluate_units(job);
        if self.jobs[job].stages.iter().all(|s| s.complete) {
            self.finish_job(job);
        }
    }

    /// Frees task `flat`'s executor, if it holds one: no task owns it any
    /// more, and it either waits in the job's held set (`hold`, JobEnd
    /// release) or goes back to the pool unless its machine already
    /// revoked it. Returns the executor.
    fn free_executor(&mut self, job: usize, flat: u32, hold: bool) -> Option<ExecutorId> {
        let j = &mut self.jobs[job];
        let exec = j.tasks[flat as usize].executor.take()?;
        self.exec_owner[exec.index()] = None;
        if hold {
            let unit = j.plan.unit_of(j.task_id(flat).stage) as usize;
            j.held[unit].push(exec);
        } else {
            self.release_if_live(exec);
        }
        Some(exec)
    }

    /// Releases every held executor of `job` (job completion, restart or
    /// abort). Executors revoked with a failed machine are skipped.
    fn release_all_held(&mut self, job: usize) {
        let held: Vec<ExecutorId> = self.jobs[job]
            .held
            .iter_mut()
            .flat_map(std::mem::take)
            .collect();
        for e in held {
            self.release_if_live(e);
        }
    }

    /// Releases an executor unless its machine already revoked it.
    fn release_if_live(&mut self, exec: ExecutorId) {
        if self.cluster.executor(exec).state == ExecutorState::Busy {
            self.cluster.release(exec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Event;

    /// The queue's sift cost grows with its element size: job indices are
    /// `u32` so that an event stays at 16 bytes.
    #[test]
    fn event_size_is_pinned() {
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }
}
