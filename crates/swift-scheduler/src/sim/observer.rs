//! What a run shows its observer: the [`SimObserver`] hook surface and the
//! types its callbacks carry.

use super::telemetry::CounterSample;
use crate::event::SimEvent;
use swift_cluster::ExecutorId;
use swift_dag::{JobDag, Partition, StageId, TaskId};
use swift_ft::{ExecutionSnapshot, FailureKind, RecoveryPlan};
use swift_shuffle::{ShuffleMedium, ShuffleScheme};
use swift_sim::{SimDuration, SimTime};

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
/// scheduler, reported as [`SimEvent::GraphletState`].
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
/// and reported as [`SimEvent::SchemeSelected`] when the job is submitted.
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
    pub(super) fn memory_staged(&self) -> bool {
        self.scheme.uses_cache_worker() && self.medium == ShuffleMedium::Memory
    }

    /// The [`SimEvent::SchemeSelected`] reporting this decision for `job`.
    pub(super) fn event(&self, job: u32) -> SimEvent {
        SimEvent::SchemeSelected {
            job,
            edge: self.edge,
            src: self.src.index() as u32,
            dst: self.dst.index() as u32,
            size: self.edge_size,
            scheme: self.scheme,
            medium: self.medium,
            crossing: self.crossing,
        }
    }
}

/// Observer of a simulation run: the hook surface the chaos harness uses
/// to check invariants without perturbing the deterministic event flow,
/// and the trace recorder uses to store a replayable event stream.
///
/// The simulator hands every event it emits to [`SimObserver::on_event`],
/// building the [`SimEvent`] only while an observer is installed. Two
/// richer callbacks carry what an event cannot: the recovery plan with
/// the context it was planned against, and the counter sample. Every
/// method defaults to a no-op, except that `on_event` fans the events of
/// the legacy callbacks out to them.
#[allow(unused_variables)]
pub trait SimObserver {
    /// One event at `now`, in emission order. The default forwards the ten
    /// variants that have a legacy callback to it and drops the rest.
    fn on_event(&mut self, now: SimTime, event: SimEvent) {
        match event {
            SimEvent::TaskAssigned {
                job,
                task,
                epoch,
                executor,
            } => self.on_task_assigned(now, job as usize, task.into(), epoch, ExecutorId(executor)),
            SimEvent::PlanDelivered { job, task, epoch } => {
                self.on_plan_delivered(now, job as usize, task.into(), epoch);
            }
            SimEvent::TaskStarted { job, task, epoch } => {
                self.on_task_started(now, job as usize, task.into(), epoch);
            }
            SimEvent::TaskFinished { job, task, epoch } => {
                self.on_task_finished(now, job as usize, task.into(), epoch);
            }
            SimEvent::TaskInvalidated {
                job,
                task,
                new_epoch,
            } => self.on_task_invalidated(now, job as usize, task.into(), new_epoch),
            SimEvent::FailureDetected { job, task, kind } => {
                self.on_failure_detected(now, job as usize, task.into(), kind);
            }
            SimEvent::JobRestarted { job } => self.on_job_restarted(now, job as usize),
            SimEvent::SchemeSelected {
                job,
                edge,
                src,
                dst,
                size,
                scheme,
                medium,
                crossing,
            } => {
                let decision = SchemeDecision {
                    edge,
                    src: StageId(src),
                    dst: StageId(dst),
                    edge_size: size,
                    scheme,
                    medium,
                    crossing,
                };
                self.on_shuffle_scheme_selected(now, job as usize, &decision);
            }
            SimEvent::GangWaitStarted { job, unit, tasks } => {
                self.on_gang_wait_started(now, job as usize, unit, tasks as usize);
            }
            SimEvent::GangWaitEnded {
                job,
                unit,
                tasks,
                wave,
            } => self.on_gang_wait_ended(now, job as usize, unit, tasks as usize, wave),
            _ => {}
        }
    }

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

    /// A counter sample at a `SimTime` window boundary (see
    /// [`CounterSample`]). Emitted between event batches whenever the
    /// clock has crossed the boundary requested by
    /// [`SimObserver::counter_window`], plus one final sealing sample
    /// when the loop quiesces (before [`SimEvent::RunFinished`]). Purely
    /// observational: samples are not queue events and never change
    /// `events_processed` or the [`crate::RunReport`].
    fn on_counter_sample(&mut self, now: SimTime, sample: &CounterSample) {}

    // The legacy per-kind callbacks. Only the default `on_event` calls
    // them; they stay because the benchmark's observer overrides them,
    // and ROADMAP item 17(b) deletes them together with that fan-out.

    /// [`SimEvent::TaskAssigned`].
    fn on_task_assigned(
        &mut self,
        now: SimTime,
        job: usize,
        task: TaskId,
        epoch: u32,
        executor: ExecutorId,
    ) {
    }

    /// [`SimEvent::PlanDelivered`].
    fn on_plan_delivered(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {}

    /// [`SimEvent::TaskStarted`].
    fn on_task_started(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {}

    /// [`SimEvent::TaskFinished`].
    fn on_task_finished(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {}

    /// [`SimEvent::TaskInvalidated`].
    fn on_task_invalidated(&mut self, now: SimTime, job: usize, task: TaskId, new_epoch: u32) {}

    /// [`SimEvent::FailureDetected`].
    fn on_failure_detected(&mut self, now: SimTime, job: usize, task: TaskId, kind: FailureKind) {}

    /// [`SimEvent::JobRestarted`].
    fn on_job_restarted(&mut self, now: SimTime, job: usize) {}

    /// [`SimEvent::SchemeSelected`].
    fn on_shuffle_scheme_selected(&mut self, now: SimTime, job: usize, decision: &SchemeDecision) {}

    /// [`SimEvent::GangWaitStarted`].
    fn on_gang_wait_started(&mut self, now: SimTime, job: usize, unit: u32, tasks: usize) {}

    /// [`SimEvent::GangWaitEnded`].
    fn on_gang_wait_ended(
        &mut self,
        now: SimTime,
        job: usize,
        unit: u32,
        tasks: usize,
        wave: bool,
    ) {
    }

    /// The window duration at which the observer wants
    /// [`SimObserver::on_counter_sample`] callbacks, or `None` (the
    /// default) for no sampling. Sampled once at
    /// [`crate::Simulation::set_observer`]; a zero duration is treated as
    /// `None`.
    fn counter_window(&self) -> Option<SimDuration> {
        None
    }

    /// Whether the observer wants [`SimEvent::InputRead`]: one event per
    /// predecessor stage at every task start. Observers that ignore it
    /// should return `false`; the default keeps the historical behavior
    /// for existing observers.
    fn wants_input_reads(&self) -> bool {
        true
    }

    /// Whether the observer wants the Cache Worker shadow model: staged
    /// cross-graphlet segments are inserted into / consumed from each
    /// machine's [`swift_shuffle::CacheWorkerMemory`], generating
    /// [`SimEvent::CacheSpill`] and [`SimEvent::CacheEvict`]. Purely
    /// observational — it never affects scheduling decisions, timing or
    /// the [`crate::RunReport`].
    fn wants_cache_model(&self) -> bool {
        false
    }
}
