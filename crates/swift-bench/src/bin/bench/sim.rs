//! The three simulator workloads: `sim_replay_2000`, `sim_faults`,
//! `sim_streamed`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use swift_cluster::{Cluster, CostModel, MachineId};
use swift_dag::{JobDag, TaskId};
use swift_ft::{FailureKind, RecoveryPlan};
use swift_scheduler::{
    CounterSample, FailureAt, FailureInjection, JobSpec, RecoveryContext, RecoveryPolicy,
    RunReport, SchemeDecision, SimConfig, SimObserver, Simulation,
};
use swift_shuffle::ShuffleScheme;
use swift_sim::{ShardedEventQueue, SimDuration, SimTime};
use swift_trace::{RecorderConfig, StreamSink, StreamStats, TraceRecorder};
use swift_workload::{failure_injections, generate_trace, TraceConfig};

use crate::metrics::{median, p99, percentile, ratio, sorted, Values};
use crate::span::{SpanStats, Tracer};
use crate::workload::{best_of_3, dag_replays, setup_layers, Iter, Workload};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SimKind {
    Replay,
    Faults,
    Streamed,
}

pub(crate) struct SimWorkload {
    kind: SimKind,
    smoke: bool,
    seed: u64,
    machines: u32,
    executors_per_machine: u32,
    specs: Vec<JobSpec>,
    injections: Vec<FailureInjection>,
    machine_failures: Vec<(SimTime, MachineId)>,
    /// The next iteration's cluster: built outside the timed region,
    /// because `Simulation::new` consumes one.
    cluster: Option<Cluster>,
    last: Option<(RunReport, Option<StreamStats>)>,
}

/// A `Write` that counts and discards: the streamed trace costs its
/// rendering and chunking, never disk noise.
#[derive(Debug, Default)]
struct CountingWriter(u64);

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A job broke if it was aborted or the loop quiesced without finishing
/// it (its report then shows zero elapsed time).
fn job_failed(j: &swift_scheduler::JobReport) -> bool {
    j.aborted || j.elapsed == SimDuration::ZERO
}

/// Submit → complete seconds of every job that finished, ascending.
fn job_latencies(report: &RunReport) -> Vec<f64> {
    sorted(
        report
            .jobs
            .iter()
            .filter(|j| !job_failed(j))
            .map(|j| j.elapsed.as_secs_f64())
            .collect(),
    )
}

impl SimWorkload {
    pub(crate) fn new(kind: SimKind, seed: u64, smoke: bool, tr: &Tracer) -> Self {
        // `sim_faults` keeps the job : executor ratio of the fault campaign
        // in `perf_simcore`, scaled up until p99 has samples beyond it.
        let (jobs, machines, executors_per_machine) = match (kind, smoke) {
            (SimKind::Faults, false) => (1_500, 250, 8),
            (SimKind::Faults, true) => (60, 50, 8),
            (_, false) => (2_000, 2_000, 32),
            (_, true) => (100, 100, 32),
        };
        let trace = tr.span("setup.generate", || {
            generate_trace(&TraceConfig {
                jobs,
                seed,
                ..TraceConfig::default()
            })
        });
        let specs = trace
            .iter()
            .map(|t| JobSpec {
                dag: t.dag.clone(),
                submit_at: t.submit_at,
            })
            .collect();
        let (injections, machine_failures) = if kind == SimKind::Faults {
            let injections = failure_injections(&trace, 0.3, seed)
                .into_iter()
                .map(|f| FailureInjection {
                    job_index: f.job_index,
                    stage: f.stage,
                    task_index: f.task_index,
                    at: FailureAt::AfterSubmit(f.after),
                    kind: FailureKind::ProcessRestart,
                })
                .collect();
            let crashes = (0..6u32)
                .map(|i| {
                    (
                        SimTime::from_secs(20 * (u64::from(i) + 1)),
                        MachineId(i * 7),
                    )
                })
                .collect();
            (injections, crashes)
        } else {
            (Vec::new(), Vec::new())
        };
        let cluster = tr.span("setup.build", || {
            Cluster::new(machines, executors_per_machine, CostModel::default())
        });
        SimWorkload {
            kind,
            smoke,
            seed,
            machines,
            executors_per_machine,
            specs,
            injections,
            machine_failures,
            cluster: Some(cluster),
            last: None,
        }
    }

    fn fresh_cluster(&mut self) -> Cluster {
        self.cluster.take().unwrap_or_else(|| {
            Cluster::new(
                self.machines,
                self.executors_per_machine,
                CostModel::default(),
            )
        })
    }

    /// `Simulation::new` plus the fault schedule.
    fn simulation(&self, cluster: Cluster) -> Simulation {
        let mut cfg = SimConfig::swift();
        cfg.recovery = RecoveryPolicy::FineGrained;
        let mut sim = Simulation::new(cluster, cfg, self.specs.clone());
        if !self.injections.is_empty() {
            sim.inject_failures(self.injections.clone());
            sim.fail_machines(self.machine_failures.clone());
        }
        sim
    }

    /// Runs the workload's simulation with `observer` attached, if any;
    /// returns the report and the wall seconds of `new` + `run`.
    fn run_observed(&mut self, observer: Option<Box<dyn SimObserver>>) -> (RunReport, f64) {
        let cluster = self.fresh_cluster();
        let start = Instant::now();
        let mut sim = self.simulation(cluster);
        if let Some(observer) = observer {
            sim.set_observer(observer);
        }
        let report = sim.run();
        (report, start.elapsed().as_secs_f64())
    }

    fn dags(&self) -> Vec<Arc<JobDag>> {
        self.specs.iter().map(|s| s.dag.clone()).collect()
    }
}

impl Workload for SimWorkload {
    fn iterate(&mut self, tr: &Tracer) -> Result<Iter, String> {
        let cluster = tr.span("cluster.build", || self.fresh_cluster());
        let (mut sim, new_s) = tr.timed("scheduler.new", || self.simulation(cluster));
        let mut stream = None;
        let mut attach_s = 0.0;
        if self.kind == SimKind::Streamed {
            let seed = self.seed;
            let ((), secs) = tr.timed("trace.attach", || {
                let sink = StreamSink::new(CountingWriter::default(), "sim_streamed", seed);
                let (recorder, handle) =
                    TraceRecorder::with_sink("sim_streamed", seed, RecorderConfig::default(), sink);
                sim.set_observer(Box::new(recorder));
                stream = Some(handle);
            });
            attach_s = secs;
        }
        let (report, run_s) = tr.timed("scheduler.run", || sim.run());
        let mut finish_s = 0.0;
        let mut stream_stats = None;
        if let Some(handle) = stream {
            let (stats, secs) = tr.timed("trace.finish", || handle.into_sink().finish());
            stream_stats = Some(stats.map_err(|e| format!("streaming the trace failed: {e}"))?);
            finish_s = secs;
        }

        let attempted = report.jobs.len() as u64;
        let failed = report.jobs.iter().filter(|j| job_failed(j)).count() as u64;
        let digest = report.digest();
        self.last = Some((report, stream_stats));
        Ok(Iter {
            secs: new_s + attach_s + run_s + finish_s,
            digest,
            attempted,
            completed: attempted - failed,
            failed,
        })
    }

    fn layers(
        &mut self,
        spans: &SpanStats,
        plain_iter_s: f64,
        out: &mut Values,
    ) -> Result<(), String> {
        let (report, stream_stats) = self.last.take().ok_or("layers before any iteration")?;
        let jobs = report.jobs.len() as f64;
        let events = report.events_processed as f64;

        // Simulated-time results.
        let latencies = job_latencies(&report);
        if latencies.is_empty() {
            return Err("no job finished".into());
        }
        out.set("sim_job_latency_s_p50", percentile(&latencies, 0.50));
        out.set(
            "sim_job_latency_s_p99",
            p99("sim_job_latency_s_p99", &latencies, self.smoke)?,
        );
        out.set(
            "sim_jobs_per_s",
            ratio(latencies.len() as f64, report.makespan.as_secs_f64()),
        );
        out.set("sim_idle_ratio", report.idle_ratio());

        // One more run with the bench's observer; it must not change the result.
        let observed = Rc::new(RefCell::new(Observed::default()));
        let (observed_report, _) =
            self.run_observed(Some(Box::new(BenchObserver(observed.clone()))));
        if observed_report.digest() != report.digest() {
            return Err("the bench's observer changed the run's digest".into());
        }
        let obs = observed.take();

        setup_layers(spans, out);
        dag_replays(&self.dags(), self.machines, out);

        let schemes: f64 = obs.schemes.iter().sum::<u64>() as f64;
        out.set(
            "shuffle.scheme_share_direct",
            ratio(obs.schemes[0] as f64, schemes),
        );
        out.set(
            "shuffle.scheme_share_local",
            ratio(obs.schemes[1] as f64, schemes),
        );
        out.set(
            "shuffle.scheme_share_remote",
            ratio(obs.schemes[2] as f64, schemes),
        );

        // swift-sim: the event queue alone, at the depth this run held it.
        let run_s = spans.secs("scheduler.run");
        let depth_mean = ratio(obs.queue_depth_sum as f64, obs.samples as f64);
        let queue_ns = queue_hold_ns_per_event(&obs.event_times, depth_mean as usize);
        out.set("sim.events", events);
        out.set("sim.events_per_s", ratio(events, run_s));
        out.set("sim.queue_ns_per_event", queue_ns);
        out.set("sim.queue_depth_mean", depth_mean);
        out.set("sim.queue_depth_peak", obs.queue_depth_peak as f64);
        let queue_s = queue_ns * events / 1e9;
        out.set("sim.queue_share_pct", ratio(queue_s, run_s) * 100.0);

        // swift-scheduler.
        let edges: f64 = self.specs.iter().map(|s| s.dag.edges().len() as f64).sum();
        let cost_s = out.get("cluster.cost_ns_per_edge").unwrap_or(0.0) * edges / 1e9;
        out.set(
            "scheduler.prepare_us_per_job",
            spans.secs("scheduler.new") * 1e6 / jobs,
        );
        out.set("scheduler.run_ms", run_s * 1e3);
        out.set(
            "scheduler.loop_self_ns_per_event",
            ratio((run_s - queue_s - cost_s) * 1e9, events),
        );
        out.set(
            "scheduler.allocs_per_event",
            ratio(spans.allocs("scheduler.run"), events),
        );
        let gang_waits = sorted(obs.gang_waits_ms);
        if !gang_waits.is_empty() {
            out.set("scheduler.gang_wait_ms_p50", percentile(&gang_waits, 0.50));
            out.set(
                "scheduler.gang_wait_ms_p99",
                p99("scheduler.gang_wait_ms_p99", &gang_waits, self.smoke)?,
            );
        }
        out.set("scheduler.pending_requests_peak", obs.pending_peak as f64);
        out.set(
            "scheduler.busy_executor_share",
            ratio(obs.busy_sum as f64, obs.live_sum as f64),
        );
        out.set("scheduler.tasks_started", obs.tasks_started as f64);
        out.set(
            "scheduler.tasks_rerun",
            report.jobs.iter().map(|j| j.rerun_tasks).sum::<u64>() as f64,
        );
        // Fig. 9b: task-weighted share of each phase.
        let mut phases = [0.0f64; 4];
        for stage in report.jobs.iter().flat_map(|j| &j.stages) {
            let tasks = f64::from(stage.tasks);
            let p = &stage.phases;
            for (slot, d) in
                phases
                    .iter_mut()
                    .zip([p.launch, p.shuffle_read, p.process, p.shuffle_write])
            {
                *slot += d.as_secs_f64() * tasks;
            }
        }
        let total: f64 = phases.iter().sum();
        out.set("scheduler.phase_launch_share", ratio(phases[0], total));
        out.set(
            "scheduler.phase_shuffle_read_share",
            ratio(phases[1], total),
        );
        out.set("scheduler.phase_process_share", ratio(phases[2], total));
        out.set(
            "scheduler.phase_shuffle_write_share",
            ratio(phases[3], total),
        );

        // swift-ft.
        out.set("ft.recovery_plans", obs.recovery_plans as f64);
        out.set(
            "ft.rerun_tasks_per_plan",
            ratio(obs.rerun_planned as f64, obs.recovery_plans as f64),
        );
        if !obs.detect_ms.is_empty() {
            out.set("ft.detect_ms_p50", median(&obs.detect_ms));
        }
        if !obs.replan_to_rerun_ms.is_empty() {
            out.set("ft.replan_to_rerun_ms_p50", median(&obs.replan_to_rerun_ms));
        }
        out.set("ft.jobs_restarted", obs.jobs_restarted as f64);
        out.set(
            "ft.jobs_aborted",
            report.jobs.iter().filter(|j| j.aborted).count() as f64,
        );

        if let Some(stats) = stream_stats {
            self.trace_layers(&report, stats, plain_iter_s, out)?;
        }
        Ok(())
    }
}

impl SimWorkload {
    /// swift-trace and swift-metrics on `sim_streamed`: the same inputs
    /// with no recorder, with the lean in-memory recorder, and with its
    /// counter windows on; every variant must reproduce the digest.
    fn trace_layers(
        &mut self,
        report: &RunReport,
        stats: StreamStats,
        streamed_s: f64,
        out: &mut Values,
    ) -> Result<(), String> {
        const ROUNDS: usize = 5;
        let digest = report.digest();
        let timed = |this: &mut Self, cfg: Option<RecorderConfig>| {
            let mut secs = Vec::with_capacity(ROUNDS);
            let mut trace = None;
            for _ in 0..ROUNDS {
                let (report, s) = match cfg {
                    None => this.run_observed(None),
                    Some(cfg) => {
                        let (recorder, handle) = TraceRecorder::new("sim_streamed", this.seed, cfg);
                        let run = this.run_observed(Some(Box::new(recorder)));
                        trace = Some(handle.finish());
                        run
                    }
                };
                if report.digest() != digest {
                    return Err("a recorder changed the run's digest".to_string());
                }
                secs.push(s);
            }
            Ok((median(&secs), trace))
        };
        let (plain_s, _) = timed(self, None)?;
        let (lean_s, lean_trace) = timed(self, Some(RecorderConfig::default()))?;
        let (counters_s, _) = timed(
            self,
            Some(RecorderConfig {
                counter_window: Some(SimDuration::from_millis(
                    swift_trace::DEFAULT_COUNTER_WINDOW_MS,
                )),
                ..RecorderConfig::default()
            }),
        )?;
        let lean_trace = lean_trace.expect("the lean rounds recorded a trace");
        if lean_trace.len() as u64 != stats.events {
            return Err(format!(
                "stream sink saw {} events, memory sink {}",
                stats.events,
                lean_trace.len()
            ));
        }
        let mut rendered = 0usize;
        let render_s =
            best_of_3(|| rendered = std::hint::black_box(lean_trace.render_text()).len());
        if rendered as u64 != stats.bytes_written {
            return Err(format!(
                "streamed {} bytes, buffered render is {rendered}",
                stats.bytes_written
            ));
        }
        let trace_events = stats.events as f64;
        out.set("trace.events_recorded", trace_events);
        out.set("trace.bytes_written", stats.bytes_written as f64);
        out.set("trace.peak_buffer_bytes", stats.peak_buffer_bytes as f64);
        out.set(
            "trace.ns_per_trace_event",
            (streamed_s - plain_s) * 1e9 / trace_events,
        );
        out.set(
            "trace.stream_overhead_pct",
            (streamed_s / plain_s - 1.0) * 100.0,
        );
        out.set("trace.lean_overhead_pct", (lean_s / plain_s - 1.0) * 100.0);
        out.set("trace.render_ns_per_event", render_s * 1e9 / trace_events);
        out.set(
            "metrics.counter_overhead_pct",
            (counters_s / lean_s - 1.0) * 100.0,
        );
        Ok(())
    }
}

/// Hold-model replay of the event queue alone: keep `depth` events
/// pending, then for each further recorded event time pop one and
/// schedule one. Returns nanoseconds per pop + schedule pair.
fn queue_hold_ns_per_event(times: &[SimTime], depth: usize) -> f64 {
    let depth = depth.clamp(1, times.len().saturating_sub(1).max(1));
    if times.len() <= depth {
        return 0.0;
    }
    let secs = best_of_3(|| {
        let mut q: ShardedEventQueue<u32> =
            ShardedEventQueue::new(1, SimConfig::swift().shard_window);
        for &t in &times[..depth] {
            q.schedule(0, t, 0);
        }
        for &t in &times[depth..] {
            std::hint::black_box(q.pop());
            // Recorded times never decrease, so `t` is not in the past.
            q.schedule(0, t, 0);
        }
    });
    secs * 1e9 / (times.len() - depth) as f64
}

/// What the bench's own observer collects in one run.
#[derive(Debug, Default)]
struct Observed {
    /// Simulated times at which the scheduler reported task progress —
    /// the event-time stream the queue replay uses.
    event_times: Vec<SimTime>,
    /// Direct, local, remote.
    schemes: [u64; 3],
    open_gangs: BTreeMap<(usize, u32), SimTime>,
    gang_waits_ms: Vec<f64>,
    tasks_started: u64,
    samples: u64,
    queue_depth_sum: u64,
    queue_depth_peak: u64,
    pending_peak: u64,
    busy_sum: u64,
    live_sum: u64,
    recovery_plans: u64,
    rerun_planned: u64,
    jobs_restarted: u64,
    invalidated_at: BTreeMap<(usize, TaskId), SimTime>,
    detect_ms: Vec<f64>,
    /// Plans waiting for the first of their tasks to start again.
    open_plans: Vec<(usize, SimTime, Vec<TaskId>)>,
    replan_to_rerun_ms: Vec<f64>,
}

fn millis(d: SimDuration) -> f64 {
    d.as_micros() as f64 / 1e3
}

struct BenchObserver(Rc<RefCell<Observed>>);

impl SimObserver for BenchObserver {
    fn on_task_assigned(
        &mut self,
        now: SimTime,
        _job: usize,
        _task: TaskId,
        _epoch: u32,
        _executor: swift_cluster::ExecutorId,
    ) {
        self.0.borrow_mut().event_times.push(now);
    }

    fn on_plan_delivered(&mut self, now: SimTime, _job: usize, _task: TaskId, _epoch: u32) {
        self.0.borrow_mut().event_times.push(now);
    }

    fn on_task_started(&mut self, now: SimTime, job: usize, task: TaskId, _epoch: u32) {
        let mut o = self.0.borrow_mut();
        o.event_times.push(now);
        o.tasks_started += 1;
        if let Some(pos) = o
            .open_plans
            .iter()
            .position(|(j, _, rerun)| *j == job && rerun.contains(&task))
        {
            let (_, planned_at, _) = o.open_plans.remove(pos);
            o.replan_to_rerun_ms
                .push(millis(now.saturating_since(planned_at)));
        }
    }

    fn on_task_finished(&mut self, now: SimTime, _job: usize, _task: TaskId, _epoch: u32) {
        self.0.borrow_mut().event_times.push(now);
    }

    fn on_task_invalidated(&mut self, now: SimTime, job: usize, task: TaskId, _new_epoch: u32) {
        self.0.borrow_mut().invalidated_at.insert((job, task), now);
    }

    fn on_failure_detected(&mut self, now: SimTime, job: usize, task: TaskId, _kind: FailureKind) {
        let mut o = self.0.borrow_mut();
        if let Some(&at) = o.invalidated_at.get(&(job, task)) {
            o.detect_ms.push(millis(now.saturating_since(at)));
        }
    }

    fn on_recovery_planned(
        &mut self,
        now: SimTime,
        job: usize,
        _ctx: &RecoveryContext<'_>,
        plan: &RecoveryPlan,
    ) {
        let mut o = self.0.borrow_mut();
        o.recovery_plans += 1;
        o.rerun_planned += plan.rerun_count() as u64;
        if !plan.abort_job && !plan.rerun.is_empty() {
            o.open_plans.push((job, now, plan.rerun.clone()));
        }
    }

    fn on_job_restarted(&mut self, _now: SimTime, _job: usize) {
        self.0.borrow_mut().jobs_restarted += 1;
    }

    fn on_shuffle_scheme_selected(&mut self, _now: SimTime, _job: usize, d: &SchemeDecision) {
        let slot = match d.scheme {
            ShuffleScheme::Direct => 0,
            ShuffleScheme::Local => 1,
            ShuffleScheme::Remote => 2,
        };
        self.0.borrow_mut().schemes[slot] += 1;
    }

    fn on_gang_wait_started(&mut self, now: SimTime, job: usize, unit: u32, _tasks: usize) {
        self.0.borrow_mut().open_gangs.insert((job, unit), now);
    }

    fn on_gang_wait_ended(
        &mut self,
        now: SimTime,
        job: usize,
        unit: u32,
        _tasks: usize,
        _wave: bool,
    ) {
        let mut o = self.0.borrow_mut();
        if let Some(since) = o.open_gangs.remove(&(job, unit)) {
            o.gang_waits_ms.push(millis(now.saturating_since(since)));
        }
    }

    fn on_counter_sample(&mut self, _now: SimTime, s: &CounterSample) {
        let mut o = self.0.borrow_mut();
        o.samples += 1;
        o.queue_depth_sum += s.event_queue_depth;
        o.queue_depth_peak = o.queue_depth_peak.max(s.event_queue_depth);
        o.pending_peak = o.pending_peak.max(s.pending_requests);
        o.busy_sum += s.busy_executors;
        o.live_sum += s.live_executors;
    }

    fn counter_window(&self) -> Option<SimDuration> {
        Some(SimDuration::from_millis(
            swift_trace::DEFAULT_COUNTER_WINDOW_MS,
        ))
    }

    fn wants_input_reads(&self) -> bool {
        false
    }
}
