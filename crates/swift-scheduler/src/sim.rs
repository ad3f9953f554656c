//! The event-driven Swift Admin simulation.
//!
//! One [`Simulation`] runs a workload of job DAGs on a simulated
//! [`Cluster`] under a [`PolicyConfig`] (Swift or a baseline), with
//! optional failure injection, and produces a [`RunReport`].
//!
//! The control flow mirrors the paper's architecture (§II-B/C): jobs are
//! partitioned into schedule units (Job Scheduler), units register resource
//! requests (DAG Scheduler → Resource Scheduler's ReqItem queue), resources
//! are assigned with locality + load awareness, plans are delivered to
//! pre-launched executors (Executor Manager), and everything advances
//! through a single deterministic event queue (Event Processor).
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

use crate::config::{LaunchModel, PolicyConfig, ReleaseMode, Submission};
use crate::report::{JobReport, PhaseBreakdown, RunReport, StageReport};
use crate::template::{
    plan_artifacts, SchemePrior, TemplateCache, TemplateDecision, TemplateLookup, TemplateOutcome,
    TemplateStats,
};
use crate::units::UnitPlan;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use swift_cluster::{Cluster, ExecutorId, MachineHealth, MachineId};
use swift_dag::{JobDag, Partition, StageId, TaskId};
use swift_ft::{plan_recovery, ExecutionSnapshot, FailureKind, RecoveryPlan, TaskRunState};
use swift_shuffle::{SegmentKey, ShuffleMedium, ShuffleScheme};
use swift_sim::{Cadence, ShardedEventQueue, SimDuration, SimTime};

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

/// Context handed to [`SimObserver::on_recovery_planned`]: everything the
/// planner saw, valid only for the duration of the callback (the snapshot
/// borrows live simulation state).
pub struct RecoveryContext<'a> {
    /// The job's DAG.
    pub dag: &'a JobDag,
    /// Its graphlet partition.
    pub part: &'a Partition,
    /// The failed task.
    pub failed: TaskId,
    /// The failure kind the detector reported.
    pub kind: FailureKind,
    /// The execution snapshot the plan was computed against.
    pub snapshot: &'a dyn ExecutionSnapshot,
}

// Manual impl: the snapshot is a trait object without a Debug bound.
impl std::fmt::Debug for RecoveryContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryContext")
            .field("job", &self.dag.name)
            .field("failed", &self.failed)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

/// Lifecycle state of a graphlet (schedule unit) as seen by the DAG
/// scheduler, reported through [`SimObserver::on_graphlet_state_changed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphletState {
    /// The unit became submittable and its resource request entered the
    /// ReqItem queue.
    Submitted,
    /// Every task instance of the unit finished.
    Complete,
}

impl GraphletState {
    /// Stable lowercase name for trace rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            GraphletState::Submitted => "submitted",
            GraphletState::Complete => "complete",
        }
    }
}

/// One shuffle-edge scheme decision, made once at job preparation (§III)
/// and reported through [`SimObserver::on_shuffle_scheme_selected`] when
/// the job is submitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchemeDecision {
    /// Edge index within the job DAG.
    pub edge: u32,
    /// Producer stage.
    pub src: StageId,
    /// Consumer stage.
    pub dst: StageId,
    /// Shuffle edge size `M × N` (the §III-B threshold input).
    pub edge_size: u64,
    /// The chosen shuffle scheme.
    pub scheme: ShuffleScheme,
    /// The staging medium for Cache-Worker schemes.
    pub medium: ShuffleMedium,
    /// Whether the edge crosses a graphlet (schedule-unit) boundary.
    pub crossing: bool,
}

impl SchemeDecision {
    /// Whether the edge's data is staged in Cache Worker *memory* — the
    /// segments the cache shadow model tracks.
    fn memory_staged(&self) -> bool {
        self.scheme.uses_cache_worker() && self.medium == ShuffleMedium::Memory
    }
}

/// A periodic snapshot of the simulator's live control-plane depths,
/// delivered through [`SimObserver::on_counter_sample`] at `SimTime`
/// window boundaries. Every field is read directly off maintained
/// simulator state (no scans beyond the pending-request queue), so
/// sampling is cheap and — being driven purely by simulated time —
/// deterministic. Cumulative fields (`events_processed`, template
/// lookup totals) let the observer derive per-window deltas that
/// telescope integer-exactly to the end-of-run `RunReport` values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSample {
    /// Events pending in the simulator's queue.
    pub event_queue_depth: u64,
    /// Total events processed so far (cumulative; equals
    /// `RunReport::events_processed` on the final sample).
    pub events_processed: u64,
    /// Gang requests waiting in the pending queue.
    pub pending_requests: u64,
    /// Tasks queued across all pending gang requests.
    pub pending_gang_tasks: u64,
    /// Jobs that are currently in wave mode.
    pub wave_jobs: u64,
    /// Executors on schedulable machines.
    pub live_executors: u64,
    /// Executors currently running a task.
    pub busy_executors: u64,
    /// Entries in the scheduling-template cache once this run's jobs
    /// were admitted (the session's entries, for
    /// [`Simulation::new_in_session`] and [`Simulation::load`]).
    pub template_entries: u64,
    /// Template-cache hits among this run's admissions (cumulative;
    /// every lookup happens when the workload is loaded).
    pub template_hits: u64,
    /// Template-cache misses among this run's admissions.
    pub template_misses: u64,
    /// Bytes staged across all Cache Workers (the shadow model's store
    /// occupancy; 0 unless [`SimObserver::wants_cache_model`]).
    pub cache_store_bytes: u64,
}

/// Observer receiving simulation lifecycle callbacks — the hook surface
/// the chaos harness uses to check invariants without perturbing the
/// deterministic event flow, and the trace recorder uses to build a
/// replayable event stream. All methods default to no-ops.
#[allow(unused_variables)]
pub trait SimObserver {
    /// A task instance began executing (shuffle read started).
    fn on_task_started(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {}

    /// A task instance finished; its output is now the visible one.
    fn on_task_finished(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {}

    /// A task's current instance was superseded (killed, re-run or job
    /// restart); any output of epochs below `new_epoch` is now invalid.
    fn on_task_invalidated(&mut self, now: SimTime, job: usize, task: TaskId, new_epoch: u32) {}

    /// A starting consumer read the output of `producer` (the consumer's
    /// whole input is read at execution start in the timing model).
    fn on_input_read(&mut self, now: SimTime, job: usize, producer: TaskId, consumer: TaskId) {}

    /// Fine-grained recovery produced `plan` for the failure in `ctx`.
    /// Called before the plan is applied.
    fn on_recovery_planned(
        &mut self,
        now: SimTime,
        job: usize,
        ctx: &RecoveryContext<'_>,
        plan: &RecoveryPlan,
    ) {
    }

    /// The whole job was restarted (RecoveryPolicy::JobRestart).
    fn on_job_restarted(&mut self, now: SimTime, job: usize) {}

    /// The job reached a terminal state.
    fn on_job_completed(&mut self, now: SimTime, job: usize, aborted: bool) {}

    /// The job's resource requests are about to be issued (its Submit
    /// event, after the partition overhead elapsed).
    fn on_job_submitted(&mut self, now: SimTime, job: usize) {}

    /// A shuffle-edge scheme decision. Decisions are made once at job
    /// preparation; they are reported at submit time, one call per DAG
    /// edge in edge order.
    fn on_shuffle_scheme_selected(&mut self, now: SimTime, job: usize, decision: &SchemeDecision) {}

    /// How the job's admission interacted with the scheduling-template
    /// cache: one call per job, at submit time, before the scheme
    /// decisions.
    fn on_template_decision(&mut self, now: SimTime, job: usize, decision: &TemplateDecision) {}

    /// A graphlet changed lifecycle state. `stages` lists the unit's
    /// stages for [`GraphletState::Submitted`] and is empty for
    /// [`GraphletState::Complete`]. A unit whose tasks are re-run by
    /// recovery can report `Complete` more than once.
    fn on_graphlet_state_changed(
        &mut self,
        now: SimTime,
        job: usize,
        unit: u32,
        state: GraphletState,
        stages: &[StageId],
    ) {
    }

    /// A whole-unit gang request entered the ReqItem queue with `tasks`
    /// pending tasks.
    fn on_gang_wait_started(&mut self, now: SimTime, job: usize, unit: u32, tasks: usize) {}

    /// A unit's gang request left the queue: `tasks` executors were
    /// assigned (`wave = true` when the gang was oversized and only a
    /// first wave started; `tasks = 0` when the request dissolved because
    /// its tasks were superseded while queued).
    fn on_gang_wait_ended(
        &mut self,
        now: SimTime,
        job: usize,
        unit: u32,
        tasks: usize,
        wave: bool,
    ) {
    }

    /// A task was bound to an executor; plan delivery is now in flight.
    fn on_task_assigned(
        &mut self,
        now: SimTime,
        job: usize,
        task: TaskId,
        epoch: u32,
        executor: ExecutorId,
    ) {
    }

    /// A task's execution plan arrived at its pre-launched executor.
    fn on_plan_delivered(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {}

    /// The Admin detected a failure affecting `task` — the §IV-A
    /// detection delay (self-report, heartbeat timeout, ...) has elapsed
    /// and recovery planning happens next.
    fn on_failure_detected(&mut self, now: SimTime, job: usize, task: TaskId, kind: FailureKind) {}

    /// A machine's health transitioned (e.g. heartbeat loss).
    fn on_machine_health_changed(
        &mut self,
        now: SimTime,
        machine: MachineId,
        from: MachineHealth,
        to: MachineHealth,
    ) {
    }

    /// A Cache Worker spilled `bytes` across `segments` LRU segments to
    /// disk (§III-B memory management). Emitted by the cache shadow model
    /// only (see [`SimObserver::wants_cache_model`]).
    fn on_cache_spill(&mut self, now: SimTime, machine: MachineId, bytes: u64, segments: usize) {}

    /// A Cache Worker released `bytes` of staged segments (fully consumed,
    /// superseded by a re-run relocation, or dropped with their job).
    fn on_cache_evict(&mut self, now: SimTime, machine: MachineId, bytes: u64) {}

    /// A counter sample at a `SimTime` window boundary (see
    /// [`CounterSample`]). Emitted between event batches whenever the
    /// clock has crossed the boundary requested by
    /// [`SimObserver::counter_window`], plus one final sealing sample
    /// when the loop quiesces (before
    /// [`SimObserver::on_run_finished`]). Purely observational: samples
    /// are not queue events and never change `events_processed` or the
    /// [`RunReport`].
    fn on_counter_sample(&mut self, now: SimTime, sample: &CounterSample) {}

    /// The event loop quiesced; `events` is the total processed count.
    /// Always the final callback of a run.
    fn on_run_finished(&mut self, now: SimTime, events: u64) {}

    /// The window duration at which the observer wants
    /// [`SimObserver::on_counter_sample`] callbacks, or `None` (the
    /// default) for no sampling. Sampled once at
    /// [`Simulation::set_observer`]; a zero duration is treated as
    /// `None`.
    fn counter_window(&self) -> Option<SimDuration> {
        None
    }

    /// Whether the observer wants the per-producer [`SimObserver::on_input_read`]
    /// fan-out. It costs O(predecessor tasks) callbacks per task start, so
    /// observers that ignore it should return `false`; the default keeps
    /// the historical behavior for existing observers.
    fn wants_input_reads(&self) -> bool {
        true
    }

    /// Whether the observer wants the Cache Worker shadow model: staged
    /// cross-graphlet segments are inserted into / consumed from each
    /// machine's [`swift_shuffle::CacheWorkerMemory`], generating
    /// spill/evict callbacks. Purely observational — it never affects
    /// scheduling decisions, timing or the [`RunReport`].
    fn wants_cache_model(&self) -> bool {
        false
    }
}

/// Which recovery policy handles failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Swift's fine-grained graphlet-based recovery (§IV-B).
    FineGrained,
    /// Restart the whole job (the baseline in Figs. 14 & 15).
    JobRestart,
}

/// Simulation-wide configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Scheduling policy.
    pub policy: PolicyConfig,
    /// Recovery policy.
    pub recovery: RecoveryPolicy,
    /// If set, sample `(time, running executors)` at every multiple of this
    /// interval up to the last event batch. Each sample carries the state
    /// just before its boundary; sampling queues no event.
    pub sample_every: Option<SimDuration>,
    /// Detection latency for self-reported process restarts (§IV-A: the
    /// re-launched process reports its status immediately).
    pub process_restart_delay: SimDuration,
    /// Ignored: the event queue has no window. It stays only because the
    /// benchmark passes it to `ShardedEventQueue::new`.
    pub shard_window: SimDuration,
}

impl SimConfig {
    /// Swift policy with fine-grained recovery and no sampling.
    pub fn swift() -> Self {
        SimConfig {
            policy: PolicyConfig::swift(),
            recovery: RecoveryPolicy::FineGrained,
            sample_every: None,
            process_restart_delay: SimDuration::from_millis(1_000),
            shard_window: SimDuration::from_millis(256),
        }
    }

    /// Same, for an arbitrary policy.
    pub fn with_policy(policy: PolicyConfig) -> Self {
        SimConfig {
            policy,
            ..Self::swift()
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
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
struct TaskSt {
    phase: Phase,
    executor: Option<ExecutorId>,
    epoch: u32,
    plan_delivered: bool,
    plan_ready_at: SimTime,
    ever_executed: bool,
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
struct StageSt {
    offset: u32,
    remaining: u32,
    complete: bool,
    completed_at: SimTime,
    phases: PhaseBreakdown,
}

struct JobSt {
    dag: Arc<JobDag>,
    /// `Arc`: template-cache hits share the partition with the cached
    /// template instead of cloning it.
    part: Arc<Partition>,
    plan: Arc<UnitPlan>,
    /// How admission interacted with the template cache. Reported to the
    /// observer at submit time.
    template: TemplateDecision,
    submit_at: SimTime,
    finished: Option<SimTime>,
    aborted: bool,
    stages: Vec<StageSt>,
    tasks: Vec<TaskSt>,
    /// Flat index → `TaskId`, precomputed at job preparation (the naive
    /// stage-offset scan is the debug cross-check in `task_id`).
    task_ids: Vec<TaskId>,
    unit_submitted: Vec<bool>,
    /// Unfinished tasks per unit (drives `ReleaseMode::UnitEnd`).
    unit_remaining: Vec<u32>,
    /// Executors held past task completion (UnitEnd / JobEnd release).
    held: Vec<Vec<ExecutorId>>,
    /// Units served in waves (gang larger than the cluster): their gang
    /// semantics are already broken, so they release per task to avoid
    /// self-deadlock.
    unit_wave_mode: Vec<bool>,
    /// Per-edge shuffle scheme decisions, in DAG edge order. Computed at
    /// preparation; reported to the observer at submit time and consulted
    /// by the cache shadow model.
    schemes: Vec<SchemeDecision>,
    /// Bumped on every task phase transition. A queued [`Request`] whose
    /// `pruned_at` stamp equals this is known to hold only `Pending`
    /// tasks, so the drain loop can skip re-filtering it.
    phase_epoch: u64,
    rerun_tasks: u64,
    idle: SimDuration,
    occupied: SimDuration,
}

impl JobSt {
    fn flat(&self, t: TaskId) -> u32 {
        self.stages[t.stage.index()].offset + t.index
    }

    fn task_id(&self, flat: u32) -> TaskId {
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
                TaskId::new(StageId(s as u32), flat - self.stages[s].offset),
                "task-id table drifted from stage offsets"
            );
        }
        tid
    }

    fn done(&self) -> bool {
        self.finished.is_some() || self.aborted
    }
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

#[derive(Clone, Debug)]
struct Request {
    job: usize,
    tasks: Vec<u32>,
    /// The graphlet this request gang-schedules, when it is a whole-unit
    /// submission (`None` for recovery re-runs and wave remainders). Used
    /// only for observer gang-wait bookkeeping.
    unit: Option<u32>,
    /// The owning job's `phase_epoch` at the last moment `tasks` was known
    /// to contain only `Pending` tasks ([`u64::MAX`] = unknown).
    pruned_at: u64,
}

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
    machine_failures: Vec<(SimTime, MachineId)>,
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
    /// Scratch: one gang's `(task, epoch, executor)` assignments in
    /// `assign`, filled only while an observer is attached.
    scratch_assigned: Vec<(TaskId, u32, ExecutorId)>,
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

/// A long-lived control-plane session: scheduler state that outlives any
/// single [`Simulation`], so consecutive jobs admitted by one controller
/// reuse control-plane artifacts instead of paying a cold re-derivation
/// per job. Today that state is the scheduling-template cache;
/// `swift-service` keeps one session for its whole fleet and threads it
/// through [`Simulation::new_in_session`].
#[derive(Debug)]
pub struct SchedulerSession {
    cache: TemplateCache,
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
            machine_failures: Vec::new(),
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
            scratch_assigned: Vec::new(),
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
        self.machine_failures.clear();
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
        let machines = self.cluster.machine_count();
        for spec in workload {
            let spare = self.spare_jobs.pop();
            let job = Self::prepare_job(
                &self.cluster,
                &self.cfg,
                spec,
                machines,
                &mut session.cache,
                spare,
            );
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

    /// A recycled (or fresh) empty task-list buffer.
    fn pooled_vec(&mut self) -> Vec<u32> {
        self.vec_pool.pop().unwrap_or_default()
    }

    /// Returns a task-list buffer to the pool for reuse.
    fn recycle_vec(&mut self, mut v: Vec<u32>) {
        v.clear();
        if self.vec_pool.len() < 64 {
            self.vec_pool.push(v);
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

    /// Runs `f` with the observer temporarily taken out of `self`, so the
    /// callback can borrow simulation state.
    fn notify(&mut self, f: impl FnOnce(&mut dyn SimObserver, &Self)) {
        if let Some(mut obs) = self.observer.take() {
            f(obs.as_mut(), self);
            self.observer = Some(obs);
        }
    }

    /// Builds and delivers one [`CounterSample`] off maintained state.
    /// Every source is either O(1) or O(pending requests); the pending
    /// queue is short by construction (requests drain on every release).
    fn emit_counter_sample(&mut self, now: SimTime) {
        let sample = CounterSample {
            event_queue_depth: self.q.pending() as u64,
            events_processed: self.q.processed(),
            pending_requests: self.reqs.len() as u64,
            pending_gang_tasks: self.reqs.iter().map(|r| r.tasks.len() as u64).sum(),
            wave_jobs: self.wave_jobs.len() as u64,
            live_executors: u64::from(self.cluster.live_executor_count()),
            busy_executors: u64::from(self.cluster.busy_executor_count()),
            template_entries: self.template_entries,
            template_hits: self.template_hits,
            template_misses: self.template_misses,
            cache_store_bytes: self.cluster.cache_live_bytes(),
        };
        self.notify(|obs, _| obs.on_counter_sample(now, &sample));
    }

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
        for &(t, m) in &failures {
            self.q.schedule(LANE, t, Event::MachineFail(m));
        }
        self.machine_failures.extend(failures);
    }

    /// Builds one job's state, refilling `spare`'s buffers when given.
    fn prepare_job(
        cluster: &Cluster,
        cfg: &SimConfig,
        spec: JobSpec,
        machines: u32,
        cache: &mut TemplateCache,
        spare: Option<JobSt>,
    ) -> JobSt {
        let JobSpec { dag, submit_at } = spec;

        // Control-plane artifacts come from the template cache:
        // instantiated by parameter patching on a hit, planned from
        // scratch and registered on a miss. The priors are the
        // shape-determined half of each scheme decision.
        let (part, plan, priors, template) = match cache.lookup(&dag) {
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
                let decision = TemplateDecision {
                    outcome: TemplateOutcome::Hit,
                    signature: hit.signature,
                    units: hit.plan.len() as u32,
                    edges: dag.edges().len() as u32,
                };
                (hit.part, hit.plan, hit.priors, decision)
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
                let decision = TemplateDecision {
                    outcome: TemplateOutcome::Miss,
                    signature,
                    units: plan.len() as u32,
                    edges: dag.edges().len() as u32,
                };
                (part, plan, priors, decision)
            }
        };

        let cost = cluster.cost();
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
            LaunchModel::PlanDelivery => cost.plan_delivery,
            LaunchModel::ColdStart => cost.spark_stage_launch,
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
            let size = e.shuffle_edge_size(m, n);
            let SchemePrior {
                edge,
                scheme,
                medium,
                crossing,
                ..
            } = *p;
            let y_src = m.min(machines);
            let y_dst = n.min(machines);
            let bytes_total = src.profile.output_bytes_per_task * m as u64;
            let c = cost.shuffle_edge_cost(scheme, medium, m, n, y_src, y_dst, bytes_total);
            stages[e.src.index()].phases.shuffle_write += c.write_per_task;
            stages[e.dst.index()].phases.shuffle_read += c.read_per_task;
            schemes.push(SchemeDecision {
                edge,
                src: e.src,
                dst: e.dst,
                edge_size: size,
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
                self.emit_counter_sample(now);
            }
        }
        self.scratch_batch = batch;
        // Seal the last (partial) window so per-window counter totals
        // telescope exactly to the end-of-run cumulative values.
        if counters.is_some() {
            self.emit_counter_sample(self.q.now());
        }
        if cfg!(debug_assertions) && !self.jobs.iter().all(|j| j.done()) {
            let mut dump = String::from("simulation quiesced with unfinished jobs:\n");
            for (i, j) in self.jobs.iter().enumerate() {
                if j.done() {
                    continue;
                }
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
        let events = self.q.processed();
        if self.observer.is_some() {
            let now = self.q.now();
            self.notify(|obs, _| obs.on_run_finished(now, events));
        }
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
            Event::Submit(i) => {
                if self.observer.is_some() {
                    let now = self.q.now();
                    self.notify(|obs, sim| {
                        obs.on_job_submitted(now, i as usize);
                        obs.on_template_decision(now, i as usize, &sim.jobs[i as usize].template);
                        for d in &sim.jobs[i as usize].schemes {
                            obs.on_shuffle_scheme_selected(now, i as usize, d);
                        }
                    });
                }
                self.evaluate_units(i as usize);
            }
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

    /// Checks whether any not-yet-submitted unit of job `i` became
    /// submittable; queues its resource request if so.
    fn evaluate_units(&mut self, i: usize) {
        if self.jobs[i].done() {
            return;
        }
        // Reused scratch buffer (taken so handler calls below may not
        // observe it mid-use).
        let mut newly = std::mem::take(&mut self.scratch_units);
        newly.clear();
        {
            let j = &self.jobs[i];
            for u in 0..j.plan.len() as u32 {
                if j.unit_submitted[u as usize] {
                    continue;
                }
                let ready = match self.cfg.policy.submission {
                    Submission::AllInputsReady => j
                        .plan
                        .upstream_stages(&j.dag, u)
                        .all(|s| j.stages[s.index()].complete),
                    Submission::FirstStageReady => j.plan.units[u as usize]
                        .stages
                        .iter()
                        .any(|&s| j.dag.predecessors(s).all(|p| j.stages[p.index()].complete)),
                };
                if ready {
                    newly.push(u);
                }
            }
        }
        for &u in &newly {
            let mut tasks = self.pooled_vec();
            let j = &mut self.jobs[i];
            let continuation = j.unit_submitted.iter().any(|&s| s);
            j.unit_submitted[u as usize] = true;
            tasks.extend(
                j.plan.units[u as usize]
                    .stages
                    .iter()
                    .flat_map(|&s| {
                        let st = &j.stages[s.index()];
                        let tc = j.dag.stage(s).task_count;
                        st.offset..st.offset + tc
                    })
                    .filter(|&f| j.tasks[f as usize].phase == Phase::Pending),
            );
            if tasks.is_empty() {
                self.recycle_vec(tasks);
            } else {
                // Follow-up graphlets of an already-running job are handled
                // with priority (the Event Processor's high-priority lane
                // for resource-assignment events, §II-C) — otherwise every
                // graphlet boundary would re-queue the job behind all
                // newer arrivals.
                let gang = tasks.len();
                let req = Request {
                    job: i,
                    tasks,
                    unit: Some(u),
                    pruned_at: self.jobs[i].phase_epoch,
                };
                if continuation {
                    self.reqs.push_front(req);
                } else {
                    self.reqs.push_back(req);
                }
                if self.observer.is_some() {
                    let now = self.q.now();
                    self.notify(|obs, sim| {
                        let stages = &sim.jobs[i].plan.units[u as usize].stages;
                        obs.on_graphlet_state_changed(now, i, u, GraphletState::Submitted, stages);
                        obs.on_gang_wait_started(now, i, u, gang);
                    });
                }
            }
        }
        self.scratch_units = newly;
        self.kick();
    }

    fn kick(&mut self) {
        if !self.try_pending && !self.reqs.is_empty() {
            self.try_pending = true;
            self.q.schedule_now(LANE, Event::TrySchedule);
        }
    }

    /// FIFO ReqItem queue draining with gang semantics: the head request is
    /// served only when it fits entirely (the paper's gang scheduling per
    /// unit); a gang larger than the whole cluster is served in waves so it
    /// can still make progress.
    fn drain_requests(&mut self) {
        let mut evicted_once = false;
        while let Some(front) = self.reqs.front_mut() {
            let job = front.job;
            if self.jobs[job].done() {
                let req = self.reqs.pop_front().expect("front exists");
                self.recycle_vec(req.tasks);
                continue;
            }
            // Prune the head request to its still-Pending tasks, in place.
            // A request stamped with the job's current phase epoch is
            // already pruned (no task of the job changed phase since), so
            // the common saturated-cluster revisit is O(1), not O(tasks).
            let epoch = self.jobs[job].phase_epoch;
            if front.pruned_at == epoch {
                debug_assert!(
                    front
                        .tasks
                        .iter()
                        .all(|&f| self.jobs[job].tasks[f as usize].phase == Phase::Pending),
                    "stamped request holds a non-Pending task: stale phase_epoch"
                );
            } else {
                let tasks_st = &self.jobs[job].tasks;
                front
                    .tasks
                    .retain(|&f| tasks_st[f as usize].phase == Phase::Pending);
                front.pruned_at = epoch;
            }
            if front.tasks.is_empty() {
                let req = self.reqs.pop_front().expect("front exists");
                // A queued unit request whose tasks were all superseded
                // (recovery re-routed them) dissolves; close its gang wait.
                if let Some(u) = req.unit {
                    if self.observer.is_some() {
                        let now = self.q.now();
                        self.notify(|obs, _| obs.on_gang_wait_ended(now, job, u, 0, false));
                    }
                }
                self.recycle_vec(req.tasks);
                continue;
            }
            let free = self.cluster.free_executor_count();
            let need = front.tasks.len() as u32;
            if need <= free {
                let req = self.reqs.pop_front().expect("front exists");
                if let Some(u) = req.unit {
                    if self.observer.is_some() {
                        let now = self.q.now();
                        let gang = req.tasks.len();
                        self.notify(|obs, _| obs.on_gang_wait_ended(now, job, u, gang, false));
                    }
                }
                self.assign(job, &req.tasks);
                self.recycle_vec(req.tasks);
            } else if need > self.cluster.live_executor_count() && free > 0 {
                // Oversized gang: serve in waves, with per-task release so
                // later waves can ever run. Only tasks whose inputs are
                // already available join a wave — parking a downstream
                // task on an executor while its producers still wait for
                // resources can deadlock the whole cluster.
                let mut req = self.reqs.pop_front().expect("front exists");
                let mut wave = self.pooled_vec();
                // One pass: the first `free` startable tasks form the
                // wave; everything else stays in the request, in order.
                let mut kept = 0;
                for i in 0..req.tasks.len() {
                    let f = req.tasks[i];
                    let stage = self.jobs[job].task_id(f).stage;
                    if wave.len() < free as usize && self.stage_inputs_ready(job, stage) {
                        wave.push(f);
                    } else {
                        req.tasks[kept] = f;
                        kept += 1;
                    }
                }
                req.tasks.truncate(kept);
                if wave.is_empty() {
                    self.recycle_vec(wave);
                    self.reqs.push_front(req);
                    // Every startable task of this gang is placed; wait
                    // for one of its stages to complete.
                    if !evicted_once && self.evict_blocked_wave_tasks() {
                        evicted_once = true;
                        continue;
                    }
                    break;
                }
                {
                    let j = &mut self.jobs[job];
                    let unit = j.plan.unit_of(j.task_id(wave[0]).stage) as usize;
                    j.unit_wave_mode[unit] = true;
                    if let Err(at) = self.wave_jobs.binary_search(&job) {
                        self.wave_jobs.insert(at, job);
                    }
                }
                // The gang wait ends when the first wave starts; the
                // remainder request keeps draining without gang semantics.
                if let Some(u) = req.unit.take() {
                    if self.observer.is_some() {
                        let now = self.q.now();
                        let gang = wave.len();
                        self.notify(|obs, _| obs.on_gang_wait_ended(now, job, u, gang, true));
                    }
                }
                if req.tasks.is_empty() {
                    self.recycle_vec(req.tasks);
                } else {
                    self.reqs.push_front(req);
                }
                self.assign(job, &wave);
                self.recycle_vec(wave);
                break;
            } else {
                // The head gang does not fit. Normally a running task will
                // release capacity eventually; but if the cluster is fully
                // parked on wave-mode tasks that cannot start (their
                // producers died after their wave was formed), nothing
                // ever would — reclaim those executors first.
                if free == 0 && !evicted_once && self.evict_blocked_wave_tasks() {
                    evicted_once = true;
                    continue;
                }
                break;
            }
        }
    }

    /// Reclaims executors parked on wave-mode tasks whose inputs are not
    /// ready (e.g. a producer that completed before the wave was formed
    /// was later lost to a failure). The evicted tasks return to the back
    /// of the request queue; bumping their epoch cancels any in-flight
    /// plan delivery. Returns whether anything was reclaimed.
    fn evict_blocked_wave_tasks(&mut self) -> bool {
        // Only jobs that ever entered wave mode can hold blocked wave
        // tasks (`unit_wave_mode` is sticky), so the maintained `wave_jobs`
        // index replaces the all-jobs scan. Ascending order matches the
        // old scan's eviction order.
        #[cfg(debug_assertions)]
        for (job, j) in self.jobs.iter().enumerate() {
            debug_assert!(
                self.wave_jobs.binary_search(&job).is_ok() || j.unit_wave_mode.iter().all(|&w| !w),
                "job {job} has a wave-mode unit but is missing from the wave_jobs index"
            );
        }
        let mut reclaimed = false;
        // Eviction never adds a wave job, so the index is stable here.
        for k in 0..self.wave_jobs.len() {
            let job = self.wave_jobs[k];
            if self.jobs[job].done() {
                continue;
            }
            let mut blocked = self.pooled_vec();
            {
                let j = &self.jobs[job];
                blocked.extend((0..j.tasks.len() as u32).filter(|&flat| {
                    let t = &j.tasks[flat as usize];
                    let stage = j.task_id(flat).stage;
                    t.phase == Phase::Assigned
                        && j.unit_wave_mode[j.plan.unit_of(stage) as usize]
                        && !self.stage_inputs_ready(job, stage)
                }));
            }
            if blocked.is_empty() {
                self.recycle_vec(blocked);
                continue;
            }
            for &flat in &blocked {
                let t = &mut self.jobs[job].tasks[flat as usize];
                t.epoch += 1;
                t.phase = Phase::Pending;
                t.plan_delivered = false;
                self.jobs[job].phase_epoch += 1;
                if let Some(exec) = self.jobs[job].tasks[flat as usize].executor.take() {
                    self.exec_owner[exec.index()] = None;
                    self.release_if_live(exec);
                    reclaimed = true;
                }
            }
            let pruned_at = self.jobs[job].phase_epoch;
            self.reqs.push_back(Request {
                job,
                tasks: blocked,
                unit: None,
                pruned_at,
            });
        }
        reclaimed
    }

    fn assign(&mut self, job: usize, flats: &[u32]) {
        let now = self.q.now();
        let overhead = self.cluster.cost().swift_schedule_overhead;
        let mut locality = std::mem::take(&mut self.scratch_locality);
        // Assignment callbacks are batched into one `notify` per gang;
        // collected only when an observer is attached.
        let mut assigned = std::mem::take(&mut self.scratch_assigned);
        assigned.clear();
        for &flat in flats {
            let tid = self.jobs[job].task_id(flat);
            locality.clear();
            locality.extend(
                self.jobs[job]
                    .dag
                    .stage(tid.stage)
                    .profile
                    .locality
                    .iter()
                    .map(|&m| MachineId(m)),
            );
            let Some(exec) = self.cluster.allocate(&locality) else {
                // Should not happen (count checked), but stay robust:
                // requeue the remainder.
                let mut rest = self.pooled_vec();
                rest.extend(
                    flats
                        .iter()
                        .copied()
                        .filter(|f| self.jobs[job].tasks[*f as usize].phase == Phase::Pending),
                );
                if rest.is_empty() {
                    self.recycle_vec(rest);
                } else {
                    let pruned_at = self.jobs[job].phase_epoch;
                    self.reqs.push_front(Request {
                        job,
                        tasks: rest,
                        unit: None,
                        pruned_at,
                    });
                }
                self.scratch_locality = locality;
                self.notify_assigned(now, job, assigned);
                return;
            };
            let j = &mut self.jobs[job];
            let t = &mut j.tasks[flat as usize];
            t.phase = Phase::Assigned;
            t.executor = Some(exec);
            t.plan_delivered = false;
            let epoch = t.epoch;
            j.phase_epoch += 1;
            let launch = j.stages[tid.stage.index()].phases.launch;
            self.exec_owner[exec.index()] = Some((job as u32, flat));
            if self.observer.is_some() {
                assigned.push((tid, epoch, exec));
            }
            self.q.schedule(
                LANE,
                now + overhead + launch,
                Event::PlanReady {
                    job: job as u32,
                    flat,
                    epoch,
                },
            );
        }
        self.scratch_locality = locality;
        self.notify_assigned(now, job, assigned);
    }

    /// Delivers one gang's `on_task_assigned` batch and puts the buffer
    /// back as [`Simulation::scratch_assigned`].
    fn notify_assigned(
        &mut self,
        now: SimTime,
        job: usize,
        assigned: Vec<(TaskId, u32, ExecutorId)>,
    ) {
        if !assigned.is_empty() {
            self.notify(|obs, _| {
                for &(tid, e, ex) in &assigned {
                    obs.on_task_assigned(now, job, tid, e, ex);
                }
            });
        }
        self.scratch_assigned = assigned;
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
        let now = self.q.now();
        {
            let t = &mut self.jobs[job].tasks[flat as usize];
            if t.epoch != epoch || t.phase != Phase::Assigned {
                return;
            }
            t.plan_delivered = true;
            t.plan_ready_at = now;
        }
        let tid = self.jobs[job].task_id(flat);
        if self.observer.is_some() {
            self.notify(|obs, _| obs.on_plan_delivered(now, job, tid, epoch));
        }
        if self.stage_inputs_ready(job, tid.stage) {
            self.start_exec(job, flat);
        }
    }

    fn start_exec(&mut self, job: usize, flat: u32) {
        let now = self.q.now();
        let tid = self.jobs[job].task_id(flat);
        let j = &mut self.jobs[job];
        let dur = {
            let p = &j.stages[tid.stage.index()].phases;
            p.shuffle_read + p.process + p.shuffle_write
        };
        let t = &mut j.tasks[flat as usize];
        debug_assert_eq!(t.phase, Phase::Assigned);
        debug_assert!(t.plan_delivered);
        j.idle += now.saturating_since(t.plan_ready_at);
        t.phase = Phase::Running;
        t.ever_executed = true;
        let epoch = t.epoch;
        j.phase_epoch += 1;
        self.q.schedule(
            LANE,
            now + dur,
            Event::TaskDone {
                job: job as u32,
                flat,
                epoch,
            },
        );
        // Shadow Cache Worker model: the starting consumer reads (and
        // possibly releases) every staged input segment of its stage.
        let freed = if self.obs_cache_model && self.observer.is_some() {
            self.cache_model_consume(job, tid.stage)
        } else {
            Vec::new()
        };
        let wants_reads = self.obs_wants_reads;
        self.notify(|obs, sim| {
            obs.on_task_started(now, job, tid, epoch);
            // The timing model reads the whole input at execution start.
            if wants_reads {
                let j = &sim.jobs[job];
                for p_stage in j.dag.predecessors(tid.stage) {
                    for i in 0..j.dag.stage(p_stage).task_count {
                        obs.on_input_read(now, job, TaskId::new(p_stage, i), tid);
                    }
                }
            }
            for &(mach, bytes) in &freed {
                obs.on_cache_evict(now, mach, bytes);
            }
        });
    }

    /// Cache shadow model, consumer side: reads every memory-staged input
    /// segment of `stage` from the machines the site map names, returning
    /// per-machine released byte counts (ascending machine order).
    fn cache_model_consume(&mut self, job: usize, stage: StageId) -> Vec<(MachineId, u64)> {
        let mut reads: Vec<(MachineId, SegmentKey)> = Vec::new();
        {
            let j = &self.jobs[job];
            for d in &j.schemes {
                if d.dst != stage || !d.memory_staged() {
                    continue;
                }
                for p in 0..j.dag.stage(d.src).task_count {
                    if let Some(&mach) = self.cache_sites.get(&(job as u32, d.edge, p)) {
                        reads.push((
                            mach,
                            SegmentKey {
                                job: job as u64,
                                edge: d.edge,
                                producer: p,
                                partition: 0,
                            },
                        ));
                    }
                }
            }
        }
        let mut freed: BTreeMap<MachineId, u64> = BTreeMap::new();
        for (mach, key) in reads {
            let cw = self.cluster.cache_mut(mach);
            let before = cw.live_bytes();
            cw.consume(key);
            let released = before - cw.live_bytes();
            if released > 0 {
                *freed.entry(mach).or_insert(0) += released;
                self.cache_sites
                    .remove(&(job as u32, key.edge, key.producer));
            }
        }
        freed.into_iter().collect()
    }

    /// Cache shadow model, producer side: a finished task stages one
    /// segment per memory-staged out-edge in its machine's Cache Worker,
    /// reporting LRU spills (and evicting a stale copy left on another
    /// machine by a previous attempt).
    fn cache_model_insert(&mut self, job: usize, tid: TaskId, mach: MachineId) {
        let mut to_insert: Vec<(u32, u64, u32)> = Vec::new();
        {
            let j = &self.jobs[job];
            for d in &j.schemes {
                if d.src == tid.stage && d.memory_staged() {
                    let bytes = j.dag.stage(d.src).profile.output_bytes_per_task.max(1);
                    to_insert.push((d.edge, bytes, j.dag.stage(d.dst).task_count));
                }
            }
        }
        if to_insert.is_empty() {
            return;
        }
        let now = self.q.now();
        let mut spilled_bytes = 0u64;
        let mut spilled_segs = 0usize;
        let mut stale_evicted: Vec<(MachineId, u64)> = Vec::new();
        for (edge, bytes, consumers) in to_insert {
            let key = SegmentKey {
                job: job as u64,
                edge,
                producer: tid.index,
                partition: 0,
            };
            let site = (job as u32, edge, tid.index);
            if let Some(&old) = self.cache_sites.get(&site) {
                if old != mach {
                    if let Some((_, b)) = self.cluster.cache_mut(old).evict(key) {
                        stale_evicted.push((old, b));
                    }
                }
            }
            let out = self.cluster.cache_mut(mach).insert(key, bytes, consumers);
            for &(_, b) in &out.spilled {
                spilled_bytes += b;
                spilled_segs += 1;
            }
            self.cache_sites.insert(site, mach);
        }
        if spilled_segs > 0 || !stale_evicted.is_empty() {
            self.notify(|obs, _| {
                for &(m, b) in &stale_evicted {
                    obs.on_cache_evict(now, m, b);
                }
                if spilled_segs > 0 {
                    obs.on_cache_spill(now, mach, spilled_bytes, spilled_segs);
                }
            });
        }
    }

    /// Cache shadow model: drops every staged segment of `job` (completion,
    /// abort or restart), reporting per-machine released bytes.
    fn cache_model_drop_job(&mut self, job: usize) {
        if !self.obs_cache_model {
            return;
        }
        let mut machines: Vec<MachineId> = self
            .cache_sites
            .iter()
            .filter(|&(&(j, _, _), _)| j == job as u32)
            .map(|(_, &m)| m)
            .collect();
        if machines.is_empty() {
            return;
        }
        machines.sort_unstable_by_key(|m| m.0);
        machines.dedup();
        self.cache_sites.retain(|&(j, _, _), _| j != job as u32);
        let now = self.q.now();
        let mut freed: Vec<(MachineId, u64)> = Vec::new();
        for m in machines {
            let released = self.cluster.cache_mut(m).drop_job(job as u64);
            if released > 0 {
                freed.push((m, released));
            }
        }
        if !freed.is_empty() {
            self.notify(|obs, _| {
                for &(m, b) in &freed {
                    obs.on_cache_evict(now, m, b);
                }
            });
        }
    }

    fn on_task_done(&mut self, job: usize, flat: u32, epoch: u32) {
        if self.jobs[job].done() {
            return;
        }
        let now = self.q.now();
        let tid = self.jobs[job].task_id(flat);
        let finished_epoch;
        let mut produced_on: Option<MachineId> = None;
        {
            let j = &mut self.jobs[job];
            let t = &mut j.tasks[flat as usize];
            if t.epoch != epoch || t.phase != Phase::Running {
                return;
            }
            t.phase = Phase::Finished;
            j.occupied += now.saturating_since(t.plan_ready_at);
            finished_epoch = t.epoch;
            j.phase_epoch += 1;
            if let Some(exec) = t.executor.take() {
                if self.obs_cache_model && self.observer.is_some() {
                    produced_on = Some(self.cluster.machine_of(exec));
                }
                self.exec_owner[exec.index()] = None;
                let unit = j.plan.unit_of(tid.stage) as usize;
                match self.cfg.policy.release {
                    ReleaseMode::PerTask => self.release_if_live(exec),
                    ReleaseMode::UnitEnd | ReleaseMode::JobEnd if j.unit_wave_mode[unit] => {
                        self.release_if_live(exec)
                    }
                    ReleaseMode::UnitEnd | ReleaseMode::JobEnd => j.held[unit].push(exec),
                }
            }
        }
        self.notify(|obs, _| obs.on_task_finished(now, job, tid, finished_epoch));
        if let Some(mach) = produced_on {
            self.cache_model_insert(job, tid, mach);
        }
        // Unit-end release: pipeline gang-mates stream from memory, so
        // their executors free together once the whole unit is done.
        {
            let unit = self.jobs[job].plan.unit_of(tid.stage) as usize;
            let j = &mut self.jobs[job];
            let was = j.unit_remaining[unit];
            j.unit_remaining[unit] = was.saturating_sub(1);
            let drained = j.unit_remaining[unit] == 0;
            if drained && self.cfg.policy.release == ReleaseMode::UnitEnd {
                let held = std::mem::take(&mut j.held[unit]);
                for e in held {
                    self.release_if_live(e);
                }
            }
            if was > 0 && drained && self.observer.is_some() {
                self.notify(|obs, _| {
                    obs.on_graphlet_state_changed(
                        now,
                        job,
                        unit as u32,
                        GraphletState::Complete,
                        &[],
                    );
                });
            }
        }
        let j = &mut self.jobs[job];
        let st = &mut j.stages[tid.stage.index()];
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
            let (offset, count) = {
                let j = &self.jobs[job];
                (j.stages[c.index()].offset, j.dag.stage(c).task_count)
            };
            for flat in offset..offset + count {
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

    fn finish_job(&mut self, job: usize) {
        let now = self.q.now();
        let j = &mut self.jobs[job];
        if j.finished.is_some() {
            return;
        }
        j.finished = Some(now);
        self.makespan = self.makespan.max(now);
        self.release_all_held(job);
        self.cache_model_drop_job(job);
        self.close_queued_gang_waits(job);
        self.notify(|obs, _| obs.on_job_completed(now, job, false));
        self.kick();
    }

    /// Closes the gang waits of `job`'s still-queued unit requests: the
    /// job is completing, aborting or restarting, so those waits can never
    /// be served. Observer bookkeeping only — the stale requests themselves
    /// are dropped by the caller (restart) or discarded when the drain loop
    /// reaches them (terminal states).
    fn close_queued_gang_waits(&mut self, job: usize) {
        if self.observer.is_none() {
            return;
        }
        let mut units: Vec<u32> = self
            .reqs
            .iter()
            .filter(|r| r.job == job)
            .filter_map(|r| r.unit)
            .collect();
        if units.is_empty() {
            return;
        }
        units.sort_unstable();
        let now = self.q.now();
        self.notify(|obs, _| {
            for &u in &units {
                obs.on_gang_wait_ended(now, job, u, 0, false);
            }
        });
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
        if self.cluster.executor(exec).state == swift_cluster::ExecutorState::Busy {
            self.cluster.release(exec);
        }
    }

    fn on_inject(&mut self, idx: usize) {
        let inj = self.injections[idx].clone();
        let job = inj.job_index;
        if self.jobs[job].done() {
            return;
        }
        let Some(stage) = self.jobs[job].dag.stage_by_name(&inj.stage).map(|s| s.id) else {
            return;
        };
        let tc = self.jobs[job].dag.stage(stage).task_count;
        let flat = self.jobs[job].stages[stage.index()].offset + inj.task_index.min(tc - 1);

        match inj.kind {
            FailureKind::MachineCrash => {
                // Crash the machine hosting the task (if it has one).
                if let Some(exec) = self.jobs[job].tasks[flat as usize].executor {
                    let m = self.cluster.machine_of(exec);
                    self.on_machine_fail(m);
                } else {
                    // Task not placed: degrade to a process failure.
                    self.schedule_recovery(job, flat, FailureKind::ProcessRestart);
                }
            }
            kind => {
                // The task's current execution dies immediately; the Admin
                // learns about it after the detection delay.
                self.kill_task(job, flat);
                self.schedule_recovery(job, flat, kind);
            }
        }
    }

    /// Marks a task's current attempt dead (cancelling its events) without
    /// touching Admin-side bookkeeping — detection hasn't happened yet.
    fn kill_task(&mut self, job: usize, flat: u32) {
        let mut invalidated = None;
        let j = &mut self.jobs[job];
        let t = &mut j.tasks[flat as usize];
        match t.phase {
            Phase::Running | Phase::Assigned => {
                t.epoch += 1;
                t.phase = Phase::Dead;
                j.phase_epoch += 1;
                invalidated = Some(t.epoch);
                // The executor process died; the slot is unusable until the
                // Admin notices. Keep it allocated (it really is occupied).
            }
            Phase::Finished => {
                // The executor died after finishing; output data (buffered
                // in the executor for pipeline edges) is lost. The recovery
                // planner decides whether anything must re-run.
            }
            Phase::Pending | Phase::Dead => {}
        }
        if let Some(new_epoch) = invalidated {
            let now = self.q.now();
            let tid = self.jobs[job].task_id(flat);
            self.notify(|obs, _| obs.on_task_invalidated(now, job, tid, new_epoch));
        }
    }

    fn schedule_recovery(&mut self, job: usize, flat: u32, kind: FailureKind) {
        let delay = match kind {
            FailureKind::ProcessRestart => self.cfg.process_restart_delay,
            FailureKind::ApplicationError => SimDuration::from_millis(100),
            FailureKind::MachineUnhealthy => self.cfg.process_restart_delay,
            FailureKind::MachineCrash => {
                let hb = self
                    .cluster
                    .cost()
                    .heartbeat_interval(self.cluster.machine_count());
                hb + self.cfg.process_restart_delay
            }
        };
        self.q.schedule_in(
            LANE,
            delay,
            Event::Recover {
                job: job as u32,
                flat,
                kind,
            },
        );
    }

    fn on_recover(&mut self, job: usize, flat: u32, kind: FailureKind) {
        if self.jobs[job].done() {
            return;
        }
        let tid = self.jobs[job].task_id(flat);
        if self.observer.is_some() {
            let now = self.q.now();
            self.notify(|obs, _| obs.on_failure_detected(now, job, tid, kind));
        }
        match self.cfg.recovery {
            RecoveryPolicy::JobRestart => {
                if !kind.recoverable() {
                    self.abort_job(job);
                } else {
                    self.restart_job(job);
                }
            }
            RecoveryPolicy::FineGrained => {
                let plan: RecoveryPlan = {
                    let j = &self.jobs[job];
                    plan_recovery(&j.dag, &j.part, tid, kind, &Snap { job: j })
                };
                // The observer sees the plan against the same pre-recovery
                // snapshot the planner used.
                let now = self.q.now();
                self.notify(|obs, sim| {
                    let j = &sim.jobs[job];
                    let snap = Snap { job: j };
                    let ctx = RecoveryContext {
                        dag: &j.dag,
                        part: &j.part,
                        failed: tid,
                        kind,
                        snapshot: &snap,
                    };
                    obs.on_recovery_planned(now, job, &ctx, &plan);
                });
                if plan.abort_job {
                    self.abort_job(job);
                    return;
                }
                self.apply_rerun(job, &plan.rerun);
            }
        }
    }

    /// Resets the given tasks to Pending and queues a resource request for
    /// them. Used by fine-grained recovery.
    fn apply_rerun(&mut self, job: usize, rerun: &[TaskId]) {
        let now = self.q.now();
        let mut flats = self.pooled_vec();
        let mut invalidated = Vec::new();
        for &tid in rerun {
            let flat = self.jobs[job].flat(tid);
            let j = &mut self.jobs[job];
            let st_idx = tid.stage.index();
            let t = &mut j.tasks[flat as usize];
            match t.phase {
                Phase::Finished => {
                    // The new instance supersedes the finished output.
                    t.epoch += 1;
                    invalidated.push((tid, t.epoch));
                    j.stages[st_idx].remaining += 1;
                    j.stages[st_idx].complete = false;
                    let unit = j.plan.unit_of(tid.stage) as usize;
                    j.unit_remaining[unit] += 1;
                }
                Phase::Running | Phase::Assigned => {
                    t.epoch += 1;
                    invalidated.push((tid, t.epoch));
                }
                Phase::Dead => {}
                Phase::Pending => continue,
            }
            if t.ever_executed {
                j.rerun_tasks += 1;
            }
            if let Some(exec) = t.executor.take() {
                self.exec_owner[exec.index()] = None;
                // Dead executors were revoked with their machine; live ones
                // return to the pool.
                self.release_if_live(exec);
            }
            let j = &mut self.jobs[job];
            let t = &mut j.tasks[flat as usize];
            t.phase = Phase::Pending;
            t.plan_delivered = false;
            j.phase_epoch += 1;
            flats.push(flat);
        }
        self.notify(|obs, _| {
            for &(tid, e) in &invalidated {
                obs.on_task_invalidated(now, job, tid, e);
            }
        });
        if flats.is_empty() {
            self.recycle_vec(flats);
        } else {
            // Recovery re-runs continue an in-flight job: high priority.
            let pruned_at = self.jobs[job].phase_epoch;
            self.reqs.push_front(Request {
                job,
                tasks: flats,
                unit: None,
                pruned_at,
            });
            self.kick();
        }
    }

    fn restart_job(&mut self, job: usize) {
        let now = self.q.now();
        let j = &mut self.jobs[job];
        let mut executed = 0u64;
        let mut to_release = Vec::new();
        let mut invalidated = Vec::new();
        for (flat, t) in j.tasks.iter_mut().enumerate() {
            if t.ever_executed {
                executed += 1;
                t.ever_executed = false;
            }
            match t.phase {
                Phase::Assigned | Phase::Running | Phase::Dead | Phase::Finished => {
                    t.epoch += 1;
                    invalidated.push((flat as u32, t.epoch));
                }
                Phase::Pending => {}
            }
            if let Some(exec) = t.executor.take() {
                to_release.push(exec);
            }
            t.phase = Phase::Pending;
            t.plan_delivered = false;
        }
        j.rerun_tasks += executed;
        // One bump invalidates every stamp issued before the restart.
        j.phase_epoch += 1;
        for (si, s) in j.dag.stages().iter().enumerate() {
            j.stages[si].remaining = s.task_count;
            j.stages[si].complete = false;
        }
        for u in j.unit_submitted.iter_mut() {
            *u = false;
        }
        for u in 0..j.plan.len() as u32 {
            j.unit_remaining[u as usize] = j.plan.gang_size(&j.dag, u) as u32;
        }
        for exec in to_release {
            self.exec_owner[exec.index()] = None;
            self.release_if_live(exec);
        }
        self.release_all_held(job);
        // Drop queued resource requests from the superseded attempt: a
        // stale wave-mode remainder holds only downstream tasks, and
        // serving it first after the restart can fill the cluster with
        // tasks whose inputs can never be produced (deadlock). Their gang
        // waits end here; `evaluate_units` below opens fresh ones.
        self.close_queued_gang_waits(job);
        self.reqs.retain(|r| r.job != job);
        self.cache_model_drop_job(job);
        self.notify(|obs, sim| {
            obs.on_job_restarted(now, job);
            for &(flat, e) in &invalidated {
                obs.on_task_invalidated(now, job, sim.jobs[job].task_id(flat), e);
            }
        });
        self.evaluate_units(job);
    }

    fn abort_job(&mut self, job: usize) {
        let now = self.q.now();
        let j = &mut self.jobs[job];
        let mut to_release = Vec::new();
        for t in &mut j.tasks {
            if matches!(t.phase, Phase::Assigned | Phase::Running | Phase::Dead) {
                t.epoch += 1;
            }
            if let Some(exec) = t.executor.take() {
                to_release.push(exec);
            }
        }
        j.aborted = true;
        j.finished = Some(now);
        for exec in to_release {
            self.exec_owner[exec.index()] = None;
            self.release_if_live(exec);
        }
        self.release_all_held(job);
        self.cache_model_drop_job(job);
        self.close_queued_gang_waits(job);
        self.notify(|obs, _| obs.on_job_completed(now, job, true));
        self.kick();
    }

    fn on_machine_fail(&mut self, m: MachineId) {
        let before = self.cluster.machine(m).health;
        let lost = self.cluster.fail_machine(m);
        let after = self.cluster.machine(m).health;
        if before != after && self.observer.is_some() {
            let now = self.q.now();
            self.notify(|obs, _| obs.on_machine_health_changed(now, m, before, after));
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

/// Convenience: run `workload` on a fresh cluster under `cfg`.
pub fn run_workload(
    machines: u32,
    executors_per_machine: u32,
    cost: swift_cluster::CostModel,
    cfg: SimConfig,
    workload: Vec<JobSpec>,
) -> RunReport {
    Simulation::new(
        Cluster::new(machines, executors_per_machine, cost),
        cfg,
        workload,
    )
    .run()
}
