//! The trace event vocabulary and its stable line-oriented text format.
//!
//! Every event is stamped with the [`SimTime`] at which the simulator
//! emitted the corresponding observer callback, so a trace is a pure
//! function of the scenario seed: same seed, byte-identical trace. The
//! text rendering is the goldens format — one line per event,
//! `{micros:>12} {name} {key=value ...}` — chosen so diffs localize to
//! the first diverging event; [`TraceEvent::write_line`] writes it.

use swift_cluster::{MachineHealth, MachineId};
use swift_ft::{FailureKind, RecoveryCase};
use swift_scheduler::GraphletState;
use swift_shuffle::{ShuffleMedium, ShuffleScheme};
use swift_sim::SimTime;

/// Stable lowercase label for a machine-health state.
pub fn health_str(h: MachineHealth) -> &'static str {
    match h {
        MachineHealth::Healthy => "healthy",
        MachineHealth::ReadOnly => "read_only",
        MachineHealth::Failed => "failed",
    }
}

/// Stable lowercase label for a staging medium.
pub fn medium_str(m: ShuffleMedium) -> &'static str {
    match m {
        ShuffleMedium::Memory => "memory",
        ShuffleMedium::Disk => "disk",
    }
}

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

/// What happened, without the timestamp (see [`TraceEvent`]).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEventKind {
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
    /// patching (follows a [`TraceEventKind::TemplateHit`]).
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
    /// A starting consumer read one producer stage's outputs (the
    /// per-producer observer fan-out, coalesced per producer stage).
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
    /// Emitted at counter-window boundaries when
    /// [`crate::RecorderConfig::counter_window`] is set.
    CounterFrame {
        /// Window index (sample time / window duration). Indices may skip
        /// empty windows; the final sealing frame may repeat the last one.
        window: u64,
        /// `(series id, value)` for every series, ID-ascending (see
        /// [`swift_metrics::SERIES`]).
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

/// One timestamped trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the observer callback.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Stable event name (first word of the text line).
    pub fn name(&self) -> &'static str {
        match &self.kind {
            TraceEventKind::JobSubmitted { .. } => "job_submitted",
            TraceEventKind::SchemeSelected { .. } => "scheme_selected",
            TraceEventKind::TemplateMiss { .. } => "template_miss",
            TraceEventKind::TemplateHit { .. } => "template_hit",
            TraceEventKind::TemplateInstantiate { .. } => "template_instantiate",
            TraceEventKind::GraphletState { .. } => "graphlet_state",
            TraceEventKind::GangWaitStarted { .. } => "gang_wait_started",
            TraceEventKind::GangWaitEnded { .. } => "gang_wait_ended",
            TraceEventKind::TaskAssigned { .. } => "task_assigned",
            TraceEventKind::PlanDelivered { .. } => "plan_delivered",
            TraceEventKind::TaskStarted { .. } => "task_started",
            TraceEventKind::TaskFinished { .. } => "task_finished",
            TraceEventKind::TaskInvalidated { .. } => "task_invalidated",
            TraceEventKind::InputRead { .. } => "input_read",
            TraceEventKind::FailureDetected { .. } => "failure_detected",
            TraceEventKind::RecoveryPlanned { .. } => "recovery_planned",
            TraceEventKind::JobRestarted { .. } => "job_restarted",
            TraceEventKind::JobCompleted { .. } => "job_completed",
            TraceEventKind::MachineHealthChanged { .. } => "machine_health",
            TraceEventKind::CacheSpill { .. } => "cache_spill",
            TraceEventKind::CacheEvict { .. } => "cache_evict",
            TraceEventKind::CounterFrame { .. } => "counters",
            TraceEventKind::RunFinished { .. } => "run_finished",
            TraceEventKind::JobAdmitted { .. } => "job_admitted",
            TraceEventKind::JobRejected { .. } => "job_rejected",
            TraceEventKind::SessionWarmHit { .. } => "session_warm_hit",
            TraceEventKind::SessionColdStart { .. } => "session_cold_start",
            TraceEventKind::SessionExpired { .. } => "session_expired",
        }
    }
}

/// Convenience constructor used by the recorder.
pub(crate) fn task_ref(t: swift_dag::TaskId) -> TaskRef {
    TaskRef {
        stage: t.stage.index() as u32,
        index: t.index,
    }
}

/// Re-exported for recorder internals that only have a [`MachineId`].
pub(crate) fn machine_u32(m: MachineId) -> u32 {
    m.0
}
