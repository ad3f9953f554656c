//! Chrome `chrome://tracing` / Perfetto JSON export.
//!
//! The output is a JSON array of trace events in the Trace Event Format:
//! `B`/`E` duration pairs for job, gang-wait and task-attempt spans,
//! `i` instants for point events, `C` counter rows (one Perfetto counter
//! track per `swift-metrics` series, when the trace carries counter
//! frames), and `M` metadata records naming the rows. Load it via
//! `chrome://tracing` ("Load") or <https://ui.perfetto.dev>.
//!
//! Row layout: pid 0 is the cluster (machine health, cache activity);
//! each job `j` is pid `j + 1`, with tid 0 for the job-lifetime span,
//! tid `1000 + unit` for gang waits and tid `2000 + flat` for task
//! attempts (flat tids are allocated in first-use order, so the mapping
//! is deterministic).

use std::collections::BTreeMap;

use swift_scheduler::{SimEvent, TaskRef};

use crate::event::{health_str, medium_str, TraceEvent};
use crate::Trace;

const CLUSTER_PID: u32 = 0;
const JOB_TID: u32 = 0;
const GANG_TID_BASE: u32 = 1_000;
const TASK_TID_BASE: u32 = 2_000;

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct ChromeWriter {
    records: Vec<String>,
    /// `(job, stage, index)` → row tid, allocated in first-use order.
    task_tids: BTreeMap<(u32, u32, u32), u32>,
    next_task_tid: u32,
    /// Open task-attempt spans per tid, closed at run end if left open.
    open_tasks: BTreeMap<(u32, u32), u64>,
    /// Open gang-wait spans `(pid, tid)` → open micros.
    open_gangs: BTreeMap<(u32, u32), u64>,
    /// Open job spans pid → open micros.
    open_jobs: BTreeMap<u32, u64>,
}

impl ChromeWriter {
    fn new() -> Self {
        ChromeWriter {
            records: Vec::new(),
            task_tids: BTreeMap::new(),
            next_task_tid: TASK_TID_BASE,
            open_tasks: BTreeMap::new(),
            open_gangs: BTreeMap::new(),
            open_jobs: BTreeMap::new(),
        }
    }

    fn meta(&mut self, pid: u32, tid: Option<u32>, what: &str, name: &str) {
        let tid_field = tid.map_or(String::new(), |t| format!("\"tid\":{t},"));
        self.records.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},{tid_field}\"name\":\"{what}\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    fn begin(&mut self, pid: u32, tid: u32, ts: u64, name: &str, args: &str) {
        self.records.push(format!(
            "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"name\":\"{}\",\
             \"args\":{{{args}}}}}",
            esc(name)
        ));
    }

    fn end(&mut self, pid: u32, tid: u32, ts: u64) {
        self.records.push(format!(
            "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}}}"
        ));
    }

    fn instant(&mut self, pid: u32, tid: u32, ts: u64, name: &str, args: &str) {
        self.records.push(format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
             \"name\":\"{}\",\"args\":{{{args}}}}}",
            esc(name)
        ));
    }

    fn counter(&mut self, ts: u64, name: &str, value: u64) {
        self.records.push(format!(
            "{{\"ph\":\"C\",\"pid\":{CLUSTER_PID},\"tid\":0,\"ts\":{ts},\"name\":\"{}\",\
             \"args\":{{\"value\":{value}}}}}",
            esc(name)
        ));
    }

    fn task_tid(&mut self, job: u32, t: TaskRef) -> u32 {
        let key = (job, t.stage, t.index);
        if let Some(&tid) = self.task_tids.get(&key) {
            return tid;
        }
        let tid = self.next_task_tid;
        self.next_task_tid += 1;
        self.task_tids.insert(key, tid);
        self.meta(job + 1, Some(tid), "thread_name", &format!("task {t}"));
        tid
    }
}

/// Renders a trace as Chrome Trace Event Format JSON.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut w = ChromeWriter::new();
    w.meta(CLUSTER_PID, None, "process_name", "cluster");

    let mut last_ts = 0u64;
    for TraceEvent { at, kind } in &trace.events {
        let ts = at.as_micros();
        last_ts = last_ts.max(ts);
        match kind {
            SimEvent::JobSubmitted { job } => {
                let pid = job + 1;
                w.meta(pid, None, "process_name", &format!("job {job}"));
                w.meta(pid, Some(JOB_TID), "thread_name", "job");
                w.begin(pid, JOB_TID, ts, &format!("job {job}"), "");
                w.open_jobs.insert(pid, ts);
            }
            SimEvent::SchemeSelected {
                job,
                edge,
                scheme,
                medium,
                size,
                crossing,
                ..
            } => {
                w.instant(
                    job + 1,
                    JOB_TID,
                    ts,
                    &format!("scheme edge {edge}: {scheme}"),
                    &format!(
                        "\"size\":{size},\"medium\":\"{}\",\"crossing\":{crossing}",
                        medium_str(*medium)
                    ),
                );
            }
            SimEvent::TemplateMiss { job, signature } => {
                w.instant(
                    job + 1,
                    JOB_TID,
                    ts,
                    "template miss",
                    &format!("\"signature\":\"{signature:016x}\""),
                );
            }
            SimEvent::TemplateHit { job, signature } => {
                w.instant(
                    job + 1,
                    JOB_TID,
                    ts,
                    "template hit",
                    &format!("\"signature\":\"{signature:016x}\""),
                );
            }
            SimEvent::TemplateInstantiate { job, units, edges } => {
                w.instant(
                    job + 1,
                    JOB_TID,
                    ts,
                    "template instantiate",
                    &format!("\"units\":{units},\"edges\":{edges}"),
                );
            }
            SimEvent::GraphletState {
                job, unit, state, ..
            } => {
                w.instant(
                    job + 1,
                    GANG_TID_BASE + unit,
                    ts,
                    &format!("graphlet {unit} {}", state.as_str()),
                    "",
                );
            }
            SimEvent::GangWaitStarted { job, unit, tasks } => {
                let (pid, tid) = (job + 1, GANG_TID_BASE + unit);
                w.meta(pid, Some(tid), "thread_name", &format!("unit {unit}"));
                w.begin(
                    pid,
                    tid,
                    ts,
                    &format!("gang wait u{unit}"),
                    &format!("\"tasks\":{tasks}"),
                );
                w.open_gangs.insert((pid, tid), ts);
            }
            SimEvent::GangWaitEnded { job, unit, .. } => {
                let key = (job + 1, GANG_TID_BASE + unit);
                if w.open_gangs.remove(&key).is_some() {
                    w.end(key.0, key.1, ts);
                }
            }
            SimEvent::TaskStarted { job, task, epoch } => {
                let tid = w.task_tid(*job, *task);
                w.begin(
                    job + 1,
                    tid,
                    ts,
                    &format!("task {task} e{epoch}"),
                    &format!("\"epoch\":{epoch}"),
                );
                w.open_tasks.insert((job + 1, tid), ts);
            }
            SimEvent::TaskFinished { job, task, .. }
            | SimEvent::TaskInvalidated { job, task, .. } => {
                let tid = w.task_tid(*job, *task);
                // An invalidation only closes a span that is actually open
                // (a queued/assigned task has no running span).
                if w.open_tasks.remove(&(job + 1, tid)).is_some() {
                    w.end(job + 1, tid, ts);
                }
            }
            SimEvent::FailureDetected { job, task, kind } => {
                let tid = w.task_tid(*job, *task);
                w.instant(job + 1, tid, ts, &format!("failure detected: {kind}"), "");
            }
            SimEvent::RecoveryPlanned {
                job, case, rerun, ..
            } => {
                w.instant(
                    job + 1,
                    JOB_TID,
                    ts,
                    &format!("recovery planned: {case}"),
                    &format!("\"rerun\":{}", rerun.len()),
                );
            }
            SimEvent::JobRestarted { job } => {
                w.instant(job + 1, JOB_TID, ts, "job restarted", "");
            }
            SimEvent::JobCompleted { job, aborted } => {
                let pid = job + 1;
                if w.open_jobs.remove(&pid).is_some() {
                    w.end(pid, JOB_TID, ts);
                }
                if *aborted {
                    w.instant(pid, JOB_TID, ts, "job aborted", "");
                }
            }
            SimEvent::MachineHealthChanged { machine, from, to } => {
                w.instant(
                    CLUSTER_PID,
                    *machine,
                    ts,
                    &format!(
                        "machine {machine}: {} -> {}",
                        health_str(*from),
                        health_str(*to)
                    ),
                    "",
                );
            }
            SimEvent::CacheSpill {
                machine,
                bytes,
                segments,
            } => {
                w.instant(
                    CLUSTER_PID,
                    *machine,
                    ts,
                    &format!("cache spill m{machine}"),
                    &format!("\"bytes\":{bytes},\"segments\":{segments}"),
                );
            }
            SimEvent::CacheEvict { machine, bytes } => {
                w.instant(
                    CLUSTER_PID,
                    *machine,
                    ts,
                    &format!("cache evict m{machine}"),
                    &format!("\"bytes\":{bytes}"),
                );
            }
            SimEvent::CounterFrame { values, .. } => {
                // One Perfetto counter track per series, on the cluster
                // process row.
                for (id, v) in values {
                    if let Some(d) = swift_metrics::series_def(*id) {
                        w.counter(ts, d.name, *v);
                    }
                }
            }
            SimEvent::JobAdmitted {
                job,
                tenant,
                queue_depth,
            } => {
                w.instant(
                    job + 1,
                    JOB_TID,
                    ts,
                    &format!("admitted (tenant {tenant})"),
                    &format!("\"tenant\":{tenant},\"queue_depth\":{queue_depth}"),
                );
            }
            SimEvent::JobRejected {
                job,
                tenant,
                queue_depth,
                retry_after_ms,
            } => {
                // Rejected jobs never open a pid row; the rejection lands
                // on the cluster process like other service-level events.
                w.instant(
                    CLUSTER_PID,
                    JOB_TID,
                    ts,
                    &format!("rejected job {job} (tenant {tenant})"),
                    &format!(
                        "\"tenant\":{tenant},\"queue_depth\":{queue_depth},\
                         \"retry_after_ms\":{retry_after_ms}"
                    ),
                );
            }
            SimEvent::SessionWarmHit {
                job,
                tenant,
                session,
            } => {
                w.instant(
                    job + 1,
                    JOB_TID,
                    ts,
                    &format!("warm hit s{session}"),
                    &format!("\"tenant\":{tenant},\"session\":{session}"),
                );
            }
            SimEvent::SessionColdStart {
                job,
                tenant,
                session,
                executors,
            } => {
                w.instant(
                    job + 1,
                    JOB_TID,
                    ts,
                    &format!("cold start s{session}"),
                    &format!("\"tenant\":{tenant},\"session\":{session},\"executors\":{executors}"),
                );
            }
            SimEvent::SessionExpired {
                tenant,
                session,
                executors,
            } => {
                w.instant(
                    CLUSTER_PID,
                    JOB_TID,
                    ts,
                    &format!("session s{session} expired (tenant {tenant})"),
                    &format!("\"tenant\":{tenant},\"session\":{session},\"executors\":{executors}"),
                );
            }
            SimEvent::PlanDelivered { .. }
            | SimEvent::TaskAssigned { .. }
            | SimEvent::InputRead { .. }
            | SimEvent::RunFinished { .. } => {}
        }
    }

    // Close anything still open so the JSON is well-nested at run end.
    let open_tasks: Vec<(u32, u32)> = w.open_tasks.keys().copied().collect();
    for (pid, tid) in open_tasks {
        w.end(pid, tid, last_ts);
    }
    let open_gangs: Vec<(u32, u32)> = w.open_gangs.keys().copied().collect();
    for (pid, tid) in open_gangs {
        w.end(pid, tid, last_ts);
    }
    let open_jobs: Vec<u32> = w.open_jobs.keys().copied().collect();
    for pid in open_jobs {
        w.end(pid, JOB_TID, last_ts);
    }

    let mut out = String::from("[\n");
    out.push_str(&w.records.join(",\n"));
    out.push_str("\n]\n");
    out
}
