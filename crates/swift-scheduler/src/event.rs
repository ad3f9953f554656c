//! The simulator's event vocabulary: what the simulator hands its
//! [`crate::SimObserver`] through [`crate::SimObserver::on_event`], and
//! what a trace stores, one for one.
//!
//! Most variants are built by the simulator itself. Two are built by an
//! observer from a richer callback ([`SimEvent::RecoveryPlanned`] from
//! [`crate::SimObserver::on_recovery_planned`], [`SimEvent::CounterFrame`]
//! from [`crate::SimObserver::on_counter_sample`]), and the five service
//! variants come from the `swift-service` front door, never from the
//! simulator.

use swift_cluster::MachineHealth;
use swift_dag::{StageId, TaskId};
use swift_ft::{FailureKind, RecoveryCase};
use swift_shuffle::{ShuffleMedium, ShuffleScheme};

use crate::GraphletState;

/// A `(stage, index)` task coordinate, rendered as `stage.index`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TaskRef {
    /// Stage index within the job DAG.
    pub stage: u32,
    /// Task index within the stage.
    pub index: u32,
}

impl std::fmt::Display for TaskRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.stage, self.index)
    }
}

impl From<TaskId> for TaskRef {
    fn from(t: TaskId) -> Self {
        TaskRef {
            stage: t.stage.index() as u32,
            index: t.index,
        }
    }
}

impl From<TaskRef> for TaskId {
    fn from(t: TaskRef) -> Self {
        TaskId::new(StageId(t.stage), t.index)
    }
}

/// What happened, without the timestamp (a trace stamps each event with
/// the simulation time it was emitted at).
#[derive(Clone, Debug, PartialEq)]
pub enum SimEvent {
    /// A job's resource requests are about to be issued.
    JobSubmitted {
        /// Workload index.
        job: u32,
    },
    /// One shuffle-edge scheme decision (reported at submit, edge order).
    SchemeSelected {
        /// Workload index.
        job: u32,
        /// Edge index within the DAG.
        edge: u32,
        /// Producer stage.
        src: u32,
        /// Consumer stage.
        dst: u32,
        /// Shuffle edge size `M × N`.
        size: u64,
        /// Chosen scheme.
        scheme: ShuffleScheme,
        /// Staging medium.
        medium: ShuffleMedium,
        /// Whether the edge crosses a graphlet boundary.
        crossing: bool,
    },
    /// The scheduling-template cache had no template for the job's shape;
    /// the job was planned from scratch and registered.
    TemplateMiss {
        /// Workload index.
        job: u32,
        /// Shape-signature digest of the template the miss registers.
        signature: u64,
    },
    /// The scheduling-template cache matched the job's shape.
    TemplateHit {
        /// Workload index.
        job: u32,
        /// Shape-signature digest of the serving template.
        signature: u64,
    },
    /// A cached template was instantiated for the job by parameter
    /// patching (follows a [`SimEvent::TemplateHit`]).
    TemplateInstantiate {
        /// Workload index.
        job: u32,
        /// Schedule units in the instantiated plan.
        units: u32,
        /// DAG edges covered by instantiated scheme priors.
        edges: u32,
    },
    /// A graphlet (schedule unit) changed lifecycle state.
    GraphletState {
        /// Workload index.
        job: u32,
        /// Unit index within the job's unit plan.
        unit: u32,
        /// The new state.
        state: GraphletState,
        /// The unit's stages (populated on submission only).
        stages: Vec<u32>,
    },
    /// A whole-unit gang request entered the ReqItem queue.
    GangWaitStarted {
        /// Workload index.
        job: u32,
        /// Unit index.
        unit: u32,
        /// Pending tasks in the gang.
        tasks: u32,
    },
    /// A unit's gang request left the queue.
    GangWaitEnded {
        /// Workload index.
        job: u32,
        /// Unit index.
        unit: u32,
        /// Executors assigned (`0` when the request dissolved).
        tasks: u32,
        /// Whether only a first wave started (oversized gang).
        wave: bool,
    },
    /// A task was bound to an executor.
    TaskAssigned {
        /// Workload index.
        job: u32,
        /// The task.
        task: TaskRef,
        /// Attempt epoch.
        epoch: u32,
        /// The executor.
        executor: u32,
    },
    /// A task's execution plan arrived at its executor.
    PlanDelivered {
        /// Workload index.
        job: u32,
        /// The task.
        task: TaskRef,
        /// Attempt epoch.
        epoch: u32,
    },
    /// A task instance began executing.
    TaskStarted {
        /// Workload index.
        job: u32,
        /// The task.
        task: TaskRef,
        /// Attempt epoch.
        epoch: u32,
    },
    /// A task instance finished.
    TaskFinished {
        /// Workload index.
        job: u32,
        /// The task.
        task: TaskRef,
        /// Attempt epoch.
        epoch: u32,
    },
    /// A task's current instance was superseded.
    TaskInvalidated {
        /// Workload index.
        job: u32,
        /// The task.
        task: TaskRef,
        /// The new (superseding) epoch.
        new_epoch: u32,
    },
    /// A starting consumer read the outputs of every task of one producer
    /// stage (one event per predecessor stage).
    InputRead {
        /// Workload index.
        job: u32,
        /// The consuming task.
        consumer: TaskRef,
        /// The producer stage read from.
        producer_stage: u32,
        /// Producer tasks read.
        producers: u32,
    },
    /// The Admin detected a failure (§IV-A detection delay elapsed).
    FailureDetected {
        /// Workload index.
        job: u32,
        /// The failed task.
        task: TaskRef,
        /// Failure classification.
        kind: FailureKind,
    },
    /// Fine-grained recovery produced a plan.
    RecoveryPlanned {
        /// Workload index.
        job: u32,
        /// The failed task.
        failed: TaskRef,
        /// §IV-B/§IV-C case.
        case: RecoveryCase,
        /// Whether the plan aborts the job.
        abort: bool,
        /// Tasks the plan re-launches.
        rerun: Vec<TaskRef>,
        /// Channel adjustments in the plan.
        updates: u32,
    },
    /// The whole job was restarted.
    JobRestarted {
        /// Workload index.
        job: u32,
    },
    /// The job reached a terminal state.
    JobCompleted {
        /// Workload index.
        job: u32,
        /// Whether it was aborted.
        aborted: bool,
    },
    /// A machine's health transitioned.
    MachineHealthChanged {
        /// The machine.
        machine: u32,
        /// Previous state.
        from: MachineHealth,
        /// New state.
        to: MachineHealth,
    },
    /// A Cache Worker spilled LRU segments to disk.
    CacheSpill {
        /// The machine.
        machine: u32,
        /// Bytes spilled.
        bytes: u64,
        /// Segments spilled.
        segments: u32,
    },
    /// A Cache Worker released staged segments.
    CacheEvict {
        /// The machine.
        machine: u32,
        /// Bytes released.
        bytes: u64,
    },
    /// A sealed telemetry window: every registered `swift-metrics` series'
    /// value — gauges at the sample instant, counters as per-window deltas.
    /// Emitted at counter-window boundaries when the trace recorder's
    /// `RecorderConfig::counter_window` is set.
    CounterFrame {
        /// Window index (sample time / window duration). Indices may skip
        /// empty windows; the final sealing frame may repeat the last one.
        window: u64,
        /// `(series id, value)` for every series, ID-ascending (see
        /// `swift_metrics::SERIES`).
        values: Vec<(u16, u64)>,
    },
    /// The event loop quiesced; always the final event.
    RunFinished {
        /// Events processed by the simulator loop.
        events: u64,
    },
    /// The service front door admitted a job into the bounded queue.
    JobAdmitted {
        /// Service job index (submission order).
        job: u32,
        /// Owning tenant.
        tenant: u32,
        /// Queue depth after admission.
        queue_depth: u32,
    },
    /// The service front door rejected a job (queue at its watermark).
    JobRejected {
        /// Service job index (submission order).
        job: u32,
        /// Owning tenant.
        tenant: u32,
        /// Queue depth at rejection (the watermark).
        queue_depth: u32,
        /// Suggested client back-off, milliseconds.
        retry_after_ms: u64,
    },
    /// A dispatch reused a warm executor-pool session (no cold
    /// registration).
    SessionWarmHit {
        /// Service job index.
        job: u32,
        /// Owning tenant.
        tenant: u32,
        /// Session id within the service run.
        session: u32,
    },
    /// A dispatch registered a fresh executor-pool session.
    SessionColdStart {
        /// Service job index.
        job: u32,
        /// Owning tenant.
        tenant: u32,
        /// Session id within the service run.
        session: u32,
        /// Executors allocated to the session.
        executors: u32,
    },
    /// An idle warm session expired and released its executors.
    SessionExpired {
        /// Owning tenant.
        tenant: u32,
        /// Session id within the service run.
        session: u32,
        /// Executors released.
        executors: u32,
    },
}
