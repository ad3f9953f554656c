//! End-to-end tests of the scheduling simulation: every policy must run
//! jobs to completion, and the paper's qualitative orderings must hold on
//! small synthetic workloads.

#![allow(
    clippy::disallowed_types,
    reason = "tests sit outside the determinism contract"
)]

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use swift_cluster::{Cluster, CostModel, ExecutorId, MachineId};
use swift_dag::{DagBuilder, JobDag, Operator, StageProfile, TaskId};
use swift_ft::FailureKind;
use swift_scheduler::{
    CounterSample, FailureAt, FailureInjection, JobSpec, PolicyConfig, RecoveryPolicy,
    SchedulerSession, SchemeDecision, SimConfig, SimEvent, SimObserver, Simulation, TaskRef,
};
use swift_sim::{SimDuration, SimTime};

fn profile(rows: u64, in_bytes: u64, out_bytes: u64, proc_us: u64) -> StageProfile {
    StageProfile {
        input_rows_per_task: rows,
        input_bytes_per_task: in_bytes,
        output_bytes_per_task: out_bytes,
        process_us_per_task: proc_us,
        locality: vec![],
    }
}

/// A 3-stage map -> join(sort) -> reduce job: one barrier edge, so Swift
/// splits it into two graphlets.
fn three_stage_job(id: u64, tasks: u32) -> JobDag {
    let mut b = DagBuilder::new(id, format!("job{id}"));
    let m = b
        .stage("M", tasks)
        .op(Operator::TableScan { table: "t".into() })
        .op(Operator::ShuffleWrite)
        .profile(profile(1_000_000, 64 << 20, 32 << 20, 2_000_000))
        .build();
    let j = b
        .stage("J", tasks)
        .op(Operator::ShuffleRead)
        .op(Operator::MergeSort)
        .op(Operator::ShuffleWrite)
        .profile(profile(1_000_000, 32 << 20, 16 << 20, 3_000_000))
        .build();
    let r = b
        .stage("R", tasks / 2)
        .op(Operator::ShuffleRead)
        .op(Operator::StreamedAggregate)
        .op(Operator::AdhocSink)
        .profile(profile(500_000, 16 << 20, 1 << 20, 1_000_000))
        .build();
    b.edge(m, j).edge(j, r);
    b.build().unwrap()
}

fn cluster() -> Cluster {
    Cluster::new(20, 16, CostModel::default())
}

fn run_one(cfg: SimConfig, dag: JobDag) -> swift_scheduler::RunReport {
    Simulation::new(cluster(), cfg, vec![JobSpec::at_zero(dag)]).run()
}

#[test]
fn all_policies_complete_a_job() {
    for policy in [
        PolicyConfig::swift(),
        PolicyConfig::jetscope(),
        PolicyConfig::bubble(64, SimDuration::from_millis(500)),
        PolicyConfig::spark(),
    ] {
        let name = policy.name.clone();
        let report = run_one(SimConfig::with_policy(policy), three_stage_job(1, 16));
        assert_eq!(report.jobs.len(), 1, "{name}");
        let j = &report.jobs[0];
        assert!(!j.aborted, "{name}");
        assert!(j.elapsed > SimDuration::ZERO, "{name}");
        // Every stage completed in dependency order.
        assert!(
            j.stages[0].completed_at <= j.stages[1].completed_at,
            "{name}"
        );
        assert!(
            j.stages[1].completed_at <= j.stages[2].completed_at,
            "{name}"
        );
    }
}

#[test]
fn swift_beats_spark_on_multi_stage_job() {
    let swift = run_one(SimConfig::swift(), three_stage_job(1, 16));
    let spark = run_one(
        SimConfig::with_policy(PolicyConfig::spark()),
        three_stage_job(1, 16),
    );
    let (s, p) = (swift.mean_job_seconds(), spark.mean_job_seconds());
    assert!(
        p > s * 1.5,
        "spark ({p:.1}s) should be well over 1.5x slower than swift ({s:.1}s)"
    );
}

#[test]
fn whole_job_gang_has_higher_idle_ratio() {
    let swift = run_one(SimConfig::swift(), three_stage_job(1, 16));
    let jet = run_one(
        SimConfig::with_policy(PolicyConfig::jetscope()),
        three_stage_job(1, 16),
    );
    // Within a graphlet, pipeline consumers still gang with their
    // producers (inherent to gang scheduling), so Swift's idle ratio is
    // not zero — but whole-job gang must be strictly worse.
    assert!(
        jet.idle_ratio() > swift.idle_ratio() * 1.3,
        "jetscope idle {:.3} should exceed swift idle {:.3}",
        jet.idle_ratio(),
        swift.idle_ratio()
    );
}

#[test]
fn runs_are_deterministic() {
    let a = run_one(SimConfig::swift(), three_stage_job(1, 16));
    let b = run_one(SimConfig::swift(), three_stage_job(1, 16));
    assert_eq!(a.jobs[0].elapsed, b.jobs[0].elapsed);
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn staggered_submissions_queue_fifo() {
    let mut jobs = Vec::new();
    for i in 0..6 {
        jobs.push(JobSpec {
            dag: three_stage_job(i, 16).into(),
            submit_at: SimTime::from_secs(i * 2),
        });
    }
    let report = Simulation::new(cluster(), SimConfig::swift(), jobs).run();
    assert_eq!(report.jobs.len(), 6);
    assert!(report.jobs.iter().all(|j| !j.aborted));
    // Later submissions finish no earlier than the first submission began.
    assert!(report.makespan >= SimTime::from_secs(10));
}

#[test]
fn fine_grained_recovery_is_cheaper_than_restart() {
    let make_inj = || {
        vec![FailureInjection {
            job_index: 0,
            stage: "J".into(),
            task_index: 3,
            at: FailureAt::AfterSubmit(SimDuration::from_secs(4)),
            kind: FailureKind::ProcessRestart,
        }]
    };
    let baseline = run_one(SimConfig::swift(), three_stage_job(1, 16)).jobs[0]
        .elapsed
        .as_secs_f64();

    let mut sim = Simulation::new(
        cluster(),
        SimConfig::swift(),
        vec![JobSpec::at_zero(three_stage_job(1, 16))],
    );
    sim.inject_failures(make_inj());
    let fine = sim.run().jobs[0].elapsed.as_secs_f64();

    let mut cfg = SimConfig::swift();
    cfg.recovery = RecoveryPolicy::JobRestart;
    let mut sim = Simulation::new(
        cluster(),
        cfg,
        vec![JobSpec::at_zero(three_stage_job(1, 16))],
    );
    sim.inject_failures(make_inj());
    let restart = sim.run().jobs[0].elapsed.as_secs_f64();

    assert!(fine >= baseline, "failure must not speed the job up");
    assert!(
        restart > fine,
        "job restart ({restart:.1}s) must cost more than fine-grained recovery ({fine:.1}s); baseline {baseline:.1}s"
    );
}

#[test]
fn application_error_aborts_job() {
    let mut sim = Simulation::new(
        cluster(),
        SimConfig::swift(),
        vec![JobSpec::at_zero(three_stage_job(1, 16))],
    );
    sim.inject_failures(vec![FailureInjection {
        job_index: 0,
        stage: "M".into(),
        task_index: 0,
        at: FailureAt::AfterSubmit(SimDuration::from_millis(500)),
        kind: FailureKind::ApplicationError,
    }]);
    let report = sim.run();
    assert!(report.jobs[0].aborted);
}

#[test]
fn machine_crash_recovers_and_completes() {
    let mut sim = Simulation::new(
        cluster(),
        SimConfig::swift(),
        vec![JobSpec::at_zero(three_stage_job(1, 16))],
    );
    sim.fail_machines(vec![(SimTime::from_secs(3), MachineId(0))]);
    let report = sim.run();
    let j = &report.jobs[0];
    assert!(!j.aborted);
    assert!(j.rerun_tasks > 0, "tasks on the failed machine must re-run");
}

#[test]
fn rerun_tasks_counted_for_restart() {
    let mut cfg = SimConfig::swift();
    cfg.recovery = RecoveryPolicy::JobRestart;
    let mut sim = Simulation::new(
        cluster(),
        cfg,
        vec![JobSpec::at_zero(three_stage_job(1, 16))],
    );
    sim.inject_failures(vec![FailureInjection {
        job_index: 0,
        stage: "J".into(),
        task_index: 0,
        at: FailureAt::AfterSubmit(SimDuration::from_secs(4)),
        kind: FailureKind::ProcessRestart,
    }]);
    let report = sim.run();
    let j = &report.jobs[0];
    assert!(!j.aborted);
    // Restart re-runs at least the whole first stage.
    assert!(
        j.rerun_tasks >= 16,
        "restart reruns executed tasks, got {}",
        j.rerun_tasks
    );
}

#[test]
fn utilization_sampling_produces_series() {
    let mut cfg = SimConfig::swift();
    cfg.sample_every = Some(SimDuration::from_secs(1));
    let report = Simulation::new(
        cluster(),
        cfg,
        vec![JobSpec::at_zero(three_stage_job(1, 16))],
    )
    .run();
    assert!(report.utilization.len() >= 2);
    let peak = report.utilization.iter().map(|&(_, b)| b).max().unwrap();
    assert!(peak > 0, "some executors must have been busy");
}

/// Remembers the time of the last event batch.
struct LastBatch(Rc<Cell<SimTime>>);

impl SimObserver for LastBatch {
    fn on_event(&mut self, now: SimTime, event: SimEvent) {
        if let SimEvent::RunFinished { .. } = event {
            self.0.set(now);
        }
    }
}

/// Staggered jobs and a machine crash at an exact second, sampled at
/// `every`; returns the report and the time of the last batch.
fn run_sampled(every: Option<SimDuration>) -> (swift_scheduler::RunReport, SimTime) {
    let jobs = (0..3)
        .map(|i| JobSpec {
            dag: three_stage_job(i, 16).into(),
            submit_at: SimTime::from_secs(i * 2),
        })
        .collect();
    let mut cfg = SimConfig::swift();
    cfg.sample_every = every;
    let mut sim = Simulation::new(cluster(), cfg, jobs);
    sim.fail_machines(vec![(SimTime::from_secs(3), MachineId(0))]);
    let end = Rc::new(Cell::new(SimTime::ZERO));
    sim.set_observer(Box::new(LastBatch(Rc::clone(&end))));
    let report = sim.run();
    (report, end.get())
}

#[test]
fn sampling_changes_only_the_utilization_series() {
    let (base, end) = run_sampled(None);
    assert!(base.utilization.is_empty());
    for every in [
        SimDuration::from_millis(250),
        SimDuration::from_secs(1),
        SimDuration::from_secs(7),
    ] {
        let (mut report, sampled_end) = run_sampled(Some(every));
        assert_eq!(sampled_end, end, "sampling moved the last batch");
        let series = std::mem::take(&mut report.utilization);
        assert_eq!(report.events_processed, base.events_processed);
        assert_eq!(format!("{report:?}"), format!("{base:?}"));
        assert_eq!(report.digest(), base.digest());
        // One entry per boundary up to the last batch, each stamped at an
        // exact multiple of the cadence.
        let stamps: Vec<f64> = series.iter().map(|&(t, _)| t).collect();
        let expected: Vec<f64> = (1..=end.as_micros() / every.as_micros())
            .map(|k| (SimTime::ZERO + every * k).as_secs_f64())
            .collect();
        assert_eq!(stamps, expected, "{every} boundaries");
        assert!(series.iter().any(|&(_, busy)| busy > 0));
    }
}

/// Records every counter sample of a run.
struct Samples(Rc<RefCell<Vec<(SimTime, CounterSample)>>>);

impl SimObserver for Samples {
    fn counter_window(&self) -> Option<SimDuration> {
        Some(SimDuration::from_millis(500))
    }

    fn on_counter_sample(&mut self, now: SimTime, sample: &CounterSample) {
        self.0.borrow_mut().push((now, *sample));
    }
}

/// Three staggered jobs of one DAG shape, built by `Simulation::new` or
/// in a fresh `SchedulerSession`; returns every counter sample.
fn template_samples(in_session: bool) -> Vec<(SimTime, CounterSample)> {
    let jobs = (0..3)
        .map(|i| JobSpec {
            dag: three_stage_job(i, 8).into(),
            submit_at: SimTime::from_secs(i),
        })
        .collect();
    let cfg = SimConfig::swift();
    let mut sim = if in_session {
        let mut session = SchedulerSession::new(&cfg.policy);
        Simulation::new_in_session(cluster(), cfg, jobs, &mut session)
    } else {
        Simulation::new(cluster(), cfg, jobs)
    };
    let samples = Rc::new(RefCell::new(Vec::new()));
    sim.set_observer(Box::new(Samples(Rc::clone(&samples))));
    sim.run();
    samples.take()
}

#[test]
fn both_constructors_report_the_same_template_counters() {
    let plain = template_samples(false);
    assert!(!plain.is_empty(), "no counter sample delivered");
    assert_eq!(plain, template_samples(true));
    // One shape: the first job misses and registers it, the other two hit.
    for (_, s) in &plain {
        assert_eq!(
            (s.template_entries, s.template_hits, s.template_misses),
            (1, 2, 1)
        );
    }
}

#[test]
fn gang_larger_than_cluster_runs_in_waves() {
    // 2 machines x 4 executors = 8 slots; a 32-task single-stage job must
    // still complete via wave allocation.
    let mut b = DagBuilder::new(1, "wide");
    b.stage("W", 32)
        .op(Operator::TableScan { table: "t".into() })
        .op(Operator::AdhocSink)
        .profile(profile(1_000, 1 << 20, 1 << 10, 100_000))
        .build();
    let dag = b.build().unwrap();
    let c = Cluster::new(2, 4, CostModel::default());
    let report = Simulation::new(c, SimConfig::swift(), vec![JobSpec::at_zero(dag)]).run();
    assert!(!report.jobs[0].aborted);
}

#[test]
fn spark_pays_launch_in_every_stage() {
    let report = run_one(
        SimConfig::with_policy(PolicyConfig::spark()),
        three_stage_job(1, 16),
    );
    for s in &report.jobs[0].stages {
        assert_eq!(
            s.phases.launch,
            CostModel::SPARK_STAGE_LAUNCH,
            "stage {} must carry cold-start launch",
            s.name
        );
    }
    let report = run_one(SimConfig::swift(), three_stage_job(1, 16));
    for s in &report.jobs[0].stages {
        assert_eq!(s.phases.launch, CostModel::PLAN_DELIVERY);
    }
}

/// One legacy-callback call: `(time, callback, job, the other arguments)`.
type Call = (SimTime, &'static str, usize, String);

/// Records the ten legacy callbacks, which the benchmark's observer
/// overrides and which only the default `on_event` fan-out reaches.
struct Legacy(Rc<RefCell<Vec<Call>>>);

impl Legacy {
    fn push(&mut self, now: SimTime, call: &'static str, job: usize, rest: String) {
        self.0.borrow_mut().push((now, call, job, rest));
    }
}

impl SimObserver for Legacy {
    fn on_task_assigned(
        &mut self,
        now: SimTime,
        job: usize,
        task: TaskId,
        epoch: u32,
        executor: ExecutorId,
    ) {
        self.push(
            now,
            "assigned",
            job,
            format!("{task} {epoch} {}", executor.0),
        );
    }
    fn on_plan_delivered(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {
        self.push(now, "delivered", job, format!("{task} {epoch}"));
    }
    fn on_task_started(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {
        self.push(now, "started", job, format!("{task} {epoch}"));
    }
    fn on_task_finished(&mut self, now: SimTime, job: usize, task: TaskId, epoch: u32) {
        self.push(now, "finished", job, format!("{task} {epoch}"));
    }
    fn on_task_invalidated(&mut self, now: SimTime, job: usize, task: TaskId, new_epoch: u32) {
        self.push(now, "invalidated", job, format!("{task} {new_epoch}"));
    }
    fn on_failure_detected(&mut self, now: SimTime, job: usize, task: TaskId, kind: FailureKind) {
        self.push(now, "detected", job, format!("{task} {kind:?}"));
    }
    fn on_job_restarted(&mut self, now: SimTime, job: usize) {
        self.push(now, "restarted", job, String::new());
    }
    fn on_shuffle_scheme_selected(&mut self, now: SimTime, job: usize, d: &SchemeDecision) {
        let (src, dst) = (d.src.0, d.dst.0);
        let rest = format!(
            "{} {src} {dst} {} {:?} {:?} {}",
            d.edge, d.edge_size, d.scheme, d.medium, d.crossing
        );
        self.push(now, "scheme", job, rest);
    }
    fn on_gang_wait_started(&mut self, now: SimTime, job: usize, unit: u32, tasks: usize) {
        self.push(now, "gang_started", job, format!("{unit} {tasks}"));
    }
    fn on_gang_wait_ended(
        &mut self,
        now: SimTime,
        job: usize,
        unit: u32,
        tasks: usize,
        wave: bool,
    ) {
        self.push(now, "gang_ended", job, format!("{unit} {tasks} {wave}"));
    }
}

/// Records the same ten kinds straight off `on_event`.
struct Events(Rc<RefCell<Vec<Call>>>);

impl SimObserver for Events {
    fn on_event(&mut self, now: SimTime, event: SimEvent) {
        let task = |t: TaskRef| format!("s{}t{}", t.stage, t.index);
        let (call, job, rest) = match event {
            SimEvent::TaskAssigned {
                job,
                task: t,
                epoch,
                executor,
            } => ("assigned", job, format!("{} {epoch} {executor}", task(t))),
            SimEvent::PlanDelivered {
                job,
                task: t,
                epoch,
            } => ("delivered", job, format!("{} {epoch}", task(t))),
            SimEvent::TaskStarted {
                job,
                task: t,
                epoch,
            } => ("started", job, format!("{} {epoch}", task(t))),
            SimEvent::TaskFinished {
                job,
                task: t,
                epoch,
            } => ("finished", job, format!("{} {epoch}", task(t))),
            SimEvent::TaskInvalidated {
                job,
                task: t,
                new_epoch,
            } => ("invalidated", job, format!("{} {new_epoch}", task(t))),
            SimEvent::FailureDetected { job, task: t, kind } => {
                ("detected", job, format!("{} {kind:?}", task(t)))
            }
            SimEvent::JobRestarted { job } => ("restarted", job, String::new()),
            SimEvent::SchemeSelected {
                job,
                edge,
                src,
                dst,
                size,
                scheme,
                medium,
                crossing,
            } => (
                "scheme",
                job,
                format!("{edge} {src} {dst} {size} {scheme:?} {medium:?} {crossing}"),
            ),
            SimEvent::GangWaitStarted { job, unit, tasks } => {
                ("gang_started", job, format!("{unit} {tasks}"))
            }
            SimEvent::GangWaitEnded {
                job,
                unit,
                tasks,
                wave,
            } => ("gang_ended", job, format!("{unit} {tasks} {wave}")),
            _ => return,
        };
        self.0.borrow_mut().push((now, call, job as usize, rest));
    }
}

/// Two staggered jobs with a task failure and a machine crash, run under
/// `recovery` with `observer` installed.
fn run_faulted(recovery: RecoveryPolicy, observer: Box<dyn SimObserver>) {
    let jobs = (0..2)
        .map(|i| JobSpec::at(three_stage_job(i, 16), SimTime::from_secs(i)))
        .collect();
    let mut cfg = SimConfig::swift();
    cfg.recovery = recovery;
    let mut sim = Simulation::new(cluster(), cfg, jobs);
    sim.inject_failures(vec![FailureInjection {
        job_index: 0,
        stage: "J".into(),
        task_index: 3,
        at: FailureAt::AfterSubmit(SimDuration::from_secs(4)),
        kind: FailureKind::ProcessRestart,
    }]);
    sim.fail_machines(vec![(SimTime::from_secs(3), MachineId(0))]);
    sim.set_observer(observer);
    sim.run();
}

#[test]
fn legacy_callbacks_see_what_on_event_sees() {
    for recovery in [RecoveryPolicy::FineGrained, RecoveryPolicy::JobRestart] {
        let legacy = Rc::new(RefCell::new(Vec::new()));
        let events = Rc::new(RefCell::new(Vec::new()));
        run_faulted(recovery, Box::new(Legacy(Rc::clone(&legacy))));
        run_faulted(recovery, Box::new(Events(Rc::clone(&events))));
        let (legacy, events) = (legacy.take(), events.take());
        let longer = legacy.len().max(events.len());
        if let Some(i) = (0..longer).find(|&i| legacy.get(i) != events.get(i)) {
            panic!(
                "{recovery:?}: call {i} differs: legacy {:?}, on_event {:?}",
                legacy.get(i),
                events.get(i)
            );
        }
        let mut kinds: Vec<&str> = legacy.iter().map(|c| c.1).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let mut expected = vec![
            "assigned",
            "delivered",
            "detected",
            "finished",
            "gang_ended",
            "gang_started",
            "invalidated",
            "scheme",
            "started",
        ];
        if recovery == RecoveryPolicy::JobRestart {
            expected.push("restarted");
            expected.sort_unstable();
        }
        assert_eq!(kinds, expected, "{recovery:?}");
    }
}
