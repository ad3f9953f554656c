//! The trace event vocabulary and its stable line-oriented text format.
//!
//! Every event is stamped with the [`SimTime`] at which the simulator
//! emitted the corresponding observer callback, so a trace is a pure
//! function of the scenario seed: same seed, byte-identical trace. The
//! text rendering is the goldens format — one line per event,
//! `{micros:>12} {name} {key=value ...}` — chosen so diffs localize to
//! the first diverging event.

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

/// Padding for the right-aligned 12-column timestamp field.
const TS_PAD: &str = "            ";

/// Appends `v` in decimal without going through `fmt` machinery; the
/// streaming sink renders every event, so this is on the recording hot
/// path.
#[inline]
fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Appends the timestamp right-aligned in a 12-character column (wider
/// values overflow the column rather than truncate).
#[inline]
fn push_ts(out: &mut String, micros: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = micros;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let digits = buf.len() - i;
    if digits < 12 {
        out.push_str(&TS_PAD[..12 - digits]);
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

#[inline]
fn push_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

#[inline]
fn push_task(out: &mut String, t: &TaskRef) {
    push_u64(out, u64::from(t.stage));
    out.push('.');
    push_u64(out, u64::from(t.index));
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

    /// Renders the event as one stable text line (no trailing newline).
    pub fn render_line(&self) -> String {
        let mut s = String::with_capacity(64);
        self.render_line_into(&mut s);
        s
    }

    /// Appends the stable text line (no trailing newline) to `s`. The
    /// streaming sink calls this once per event into a reused buffer, so
    /// the numeric fields are formatted without `fmt` machinery.
    pub fn render_line_into(&self, s: &mut String) {
        use std::fmt::Write as _;
        push_ts(s, self.at.as_micros());
        s.push(' ');
        s.push_str(self.name());
        match &self.kind {
            TraceEventKind::JobSubmitted { job } | TraceEventKind::JobRestarted { job } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
            }
            TraceEventKind::SchemeSelected {
                job,
                edge,
                src,
                dst,
                size,
                scheme,
                medium,
                crossing,
            } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" edge=");
                push_u64(s, u64::from(*edge));
                s.push_str(" src=");
                push_u64(s, u64::from(*src));
                s.push_str(" dst=");
                push_u64(s, u64::from(*dst));
                s.push_str(" size=");
                push_u64(s, *size);
                let _ = write!(s, " scheme={scheme}");
                s.push_str(" medium=");
                s.push_str(medium_str(*medium));
                s.push_str(" crossing=");
                push_bool(s, *crossing);
            }
            TraceEventKind::TemplateMiss { job, signature }
            | TraceEventKind::TemplateHit { job, signature } => {
                let _ = write!(s, " job={job} signature={signature:016x}");
            }
            TraceEventKind::TemplateInstantiate { job, units, edges } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" units=");
                push_u64(s, u64::from(*units));
                s.push_str(" edges=");
                push_u64(s, u64::from(*edges));
            }
            TraceEventKind::GraphletState {
                job,
                unit,
                state,
                stages,
            } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" unit=");
                push_u64(s, u64::from(*unit));
                s.push_str(" state=");
                s.push_str(state.as_str());
                if !stages.is_empty() {
                    s.push_str(" stages=");
                    for (i, stage) in stages.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        push_u64(s, u64::from(*stage));
                    }
                }
            }
            TraceEventKind::GangWaitStarted { job, unit, tasks } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" unit=");
                push_u64(s, u64::from(*unit));
                s.push_str(" tasks=");
                push_u64(s, u64::from(*tasks));
            }
            TraceEventKind::GangWaitEnded {
                job,
                unit,
                tasks,
                wave,
            } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" unit=");
                push_u64(s, u64::from(*unit));
                s.push_str(" tasks=");
                push_u64(s, u64::from(*tasks));
                s.push_str(" wave=");
                push_bool(s, *wave);
            }
            TraceEventKind::TaskAssigned {
                job,
                task,
                epoch,
                executor,
            } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" task=");
                push_task(s, task);
                s.push_str(" epoch=");
                push_u64(s, u64::from(*epoch));
                s.push_str(" exec=");
                push_u64(s, u64::from(*executor));
            }
            TraceEventKind::PlanDelivered { job, task, epoch }
            | TraceEventKind::TaskStarted { job, task, epoch }
            | TraceEventKind::TaskFinished { job, task, epoch } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" task=");
                push_task(s, task);
                s.push_str(" epoch=");
                push_u64(s, u64::from(*epoch));
            }
            TraceEventKind::TaskInvalidated {
                job,
                task,
                new_epoch,
            } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" task=");
                push_task(s, task);
                s.push_str(" new_epoch=");
                push_u64(s, u64::from(*new_epoch));
            }
            TraceEventKind::InputRead {
                job,
                consumer,
                producer_stage,
                producers,
            } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" consumer=");
                push_task(s, consumer);
                s.push_str(" producer_stage=");
                push_u64(s, u64::from(*producer_stage));
                s.push_str(" producers=");
                push_u64(s, u64::from(*producers));
            }
            TraceEventKind::FailureDetected { job, task, kind } => {
                let _ = write!(s, " job={job} task={task} kind={kind}");
            }
            TraceEventKind::RecoveryPlanned {
                job,
                failed,
                case,
                abort,
                rerun,
                updates,
            } => {
                let _ = write!(
                    s,
                    " job={job} failed={failed} case={case} abort={abort} updates={updates}"
                );
                if !rerun.is_empty() {
                    s.push_str(" rerun=");
                    for (i, t) in rerun.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        push_task(s, t);
                    }
                }
            }
            TraceEventKind::JobCompleted { job, aborted } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" aborted=");
                push_bool(s, *aborted);
            }
            TraceEventKind::MachineHealthChanged { machine, from, to } => {
                s.push_str(" machine=");
                push_u64(s, u64::from(*machine));
                s.push_str(" from=");
                s.push_str(health_str(*from));
                s.push_str(" to=");
                s.push_str(health_str(*to));
            }
            TraceEventKind::CacheSpill {
                machine,
                bytes,
                segments,
            } => {
                s.push_str(" machine=");
                push_u64(s, u64::from(*machine));
                s.push_str(" bytes=");
                push_u64(s, *bytes);
                s.push_str(" segments=");
                push_u64(s, u64::from(*segments));
            }
            TraceEventKind::CacheEvict { machine, bytes } => {
                s.push_str(" machine=");
                push_u64(s, u64::from(*machine));
                s.push_str(" bytes=");
                push_u64(s, *bytes);
            }
            TraceEventKind::CounterFrame { window, values } => {
                s.push_str(" window=");
                push_u64(s, *window);
                for (id, v) in values {
                    s.push_str(" s");
                    push_u64(s, u64::from(*id));
                    s.push('=');
                    push_u64(s, *v);
                }
            }
            TraceEventKind::RunFinished { events } => {
                s.push_str(" events=");
                push_u64(s, *events);
            }
            TraceEventKind::JobAdmitted {
                job,
                tenant,
                queue_depth,
            } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" tenant=");
                push_u64(s, u64::from(*tenant));
                s.push_str(" queue_depth=");
                push_u64(s, u64::from(*queue_depth));
            }
            TraceEventKind::JobRejected {
                job,
                tenant,
                queue_depth,
                retry_after_ms,
            } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" tenant=");
                push_u64(s, u64::from(*tenant));
                s.push_str(" queue_depth=");
                push_u64(s, u64::from(*queue_depth));
                s.push_str(" retry_after_ms=");
                push_u64(s, *retry_after_ms);
            }
            TraceEventKind::SessionWarmHit {
                job,
                tenant,
                session,
            } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" tenant=");
                push_u64(s, u64::from(*tenant));
                s.push_str(" session=");
                push_u64(s, u64::from(*session));
            }
            TraceEventKind::SessionColdStart {
                job,
                tenant,
                session,
                executors,
            } => {
                s.push_str(" job=");
                push_u64(s, u64::from(*job));
                s.push_str(" tenant=");
                push_u64(s, u64::from(*tenant));
                s.push_str(" session=");
                push_u64(s, u64::from(*session));
                s.push_str(" executors=");
                push_u64(s, u64::from(*executors));
            }
            TraceEventKind::SessionExpired {
                tenant,
                session,
                executors,
            } => {
                s.push_str(" tenant=");
                push_u64(s, u64::from(*tenant));
                s.push_str(" session=");
                push_u64(s, u64::from(*session));
                s.push_str(" executors=");
                push_u64(s, u64::from(*executors));
            }
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
