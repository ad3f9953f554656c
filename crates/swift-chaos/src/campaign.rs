//! Seeded chaos-campaign generation and execution.
//!
//! A campaign is a stream of seeds; each seed deterministically expands
//! into a **scenario** — a random cluster topology, a random workload
//! (TPC-H query DAGs, terasort, trace-derived chains) and a random fault
//! schedule (task failure injections plus whole-machine crashes) — which
//! is replayed through [`Simulation`] under the chaos observer. Before the
//! run every generated DAG must pass the structural oracles of
//! [`preflight_dag`]; after it five invariants are checked:
//!
//! 1. every non-aborted job reaches a terminal state;
//! 2. the same seed produces a byte-identical [`RunReport`];
//! 3. every fine-grained recovery plan is minimal and sound per §IV-B
//!    (checked live by the [`crate::ChaosObserver`] oracle);
//! 4. fine-grained recovery never yields a worse makespan than whole-job
//!    restart on the same scenario;
//! 5. no shuffle read delivers data from a superseded task instance
//!    (checked live by the version ledger).
//!
//! Any violation is reported with the offending seed and a self-contained
//! repro command.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use swift_cluster::{Cluster, CostModel, MachineId};
use swift_dag::{partition, validate_partition, JobDag, StageId};
use swift_ft::FailureKind;
use swift_scheduler::{
    compute_priors, plan_units, validate_scheme_priors, validate_template_roundtrip, FailureAt,
    FailureInjection, JobSpec, PolicyConfig, RecoveryPolicy, RunReport, SimConfig, Simulation,
};
use swift_sim::{SimDuration, SimRng, SimTime};
use swift_workload::{generate_trace, terasort_dag, tpch_sim_dag, TraceConfig};

use crate::observer::{ChaosObserver, ChaosState};

/// Which fault classes a campaign draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignKind {
    /// Task-level failure injections only (process restarts, unhealthy
    /// machines, occasional deterministic application errors).
    TaskFaults,
    /// Whole-machine crashes only.
    MachineCrashes,
    /// Both task-level injections and machine crashes.
    Mixed,
    /// No faults at all — exercises topology/workload randomization and
    /// the determinism + completion invariants in isolation.
    FaultFree,
    /// Multi-tenant service storms through the `swift-service` front door
    /// (admission, quotas, DRR fairness, warm pools) plus machine
    /// failures; see [`crate::service`].
    Service,
}

impl CampaignKind {
    /// Stable command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignKind::TaskFaults => "task",
            CampaignKind::MachineCrashes => "machine",
            CampaignKind::Mixed => "mixed",
            CampaignKind::FaultFree => "fault-free",
            CampaignKind::Service => "service",
        }
    }

    /// All kinds, for help text and exhaustive smoke tests.
    pub const ALL: [CampaignKind; 5] = [
        CampaignKind::TaskFaults,
        CampaignKind::MachineCrashes,
        CampaignKind::Mixed,
        CampaignKind::FaultFree,
        CampaignKind::Service,
    ];
}

impl fmt::Display for CampaignKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for CampaignKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "task" => Ok(CampaignKind::TaskFaults),
            "machine" => Ok(CampaignKind::MachineCrashes),
            "mixed" => Ok(CampaignKind::Mixed),
            "fault-free" | "none" => Ok(CampaignKind::FaultFree),
            "service" => Ok(CampaignKind::Service),
            other => Err(format!(
                "unknown campaign {other:?}; expected one of task, machine, mixed, \
                 fault-free, service"
            )),
        }
    }
}

/// A fully expanded scenario: everything [`run_seed`] replays.
#[derive(Debug)]
pub struct Scenario {
    /// Machines in the random cluster.
    pub machines: u32,
    /// Executors per machine.
    pub executors_per_machine: u32,
    /// The random workload.
    pub workload: Vec<JobSpec>,
    /// Task-level failure injections.
    pub injections: Vec<FailureInjection>,
    /// Whole-machine crash schedule.
    pub crashes: Vec<(SimTime, MachineId)>,
}

/// Deterministically expands `seed` into a scenario for `kind`.
///
/// Pure in `(seed, kind)`: calling it twice yields an identical scenario,
/// which is what makes every reported seed a self-contained repro.
pub fn generate_scenario(seed: u64, kind: CampaignKind) -> Scenario {
    let mut rng = SimRng::new(seed ^ 0xC4A0_5EED_0BAD_F00D);

    let machines = rng.range(4, 25) as u32;
    let executors_per_machine = rng.range(2, 9) as u32;

    let jobs = rng.range(1, 5) as usize;
    let mut workload = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let submit_at = SimTime::from_millis(rng.range(0, 20_000));
        let dag = match rng.range(0, 3) {
            0 => {
                // Queries with distinct shapes: scan-heavy, join trees,
                // and the two hand-built Fig. 4/5 DAGs (Q9, Q13).
                let qs = [1u64, 3, 5, 9, 13, 18];
                Arc::new(tpch_sim_dag(*rng.choose(&qs) as usize, i as u64))
            }
            1 => {
                let m = rng.range(2, 17) as u32;
                let n = rng.range(2, 17) as u32;
                Arc::new(terasort_dag(i as u64, m, n, rng.range(8, 129) << 20))
            }
            _ => {
                let cfg = TraceConfig {
                    jobs: 1,
                    seed: rng.u64(),
                    ..TraceConfig::default()
                };
                generate_trace(&cfg).remove(0).dag
            }
        };
        workload.push(JobSpec { dag, submit_at });
    }

    let with_tasks = matches!(kind, CampaignKind::TaskFaults | CampaignKind::Mixed);
    let with_machines = matches!(kind, CampaignKind::MachineCrashes | CampaignKind::Mixed);

    let mut injections = Vec::new();
    if with_tasks {
        for (job_index, spec) in workload.iter().enumerate() {
            if !rng.chance(0.7) {
                continue;
            }
            for _ in 0..rng.range(1, 4) {
                let stages = spec.dag.stages();
                let stage = &stages[rng.range(0, stages.len() as u64) as usize];
                let kind = match rng.range(0, 20) {
                    0 => FailureKind::ApplicationError,
                    1..=4 => FailureKind::MachineCrash,
                    5..=8 => FailureKind::MachineUnhealthy,
                    _ => FailureKind::ProcessRestart,
                };
                injections.push(FailureInjection {
                    job_index,
                    stage: stage.name.clone(),
                    task_index: rng.range(0, stage.task_count as u64) as u32,
                    at: FailureAt::AfterSubmit(SimDuration::from_millis(rng.range(10, 60_000))),
                    kind,
                });
            }
        }
    }

    let mut crashes = Vec::new();
    if with_machines {
        // Never crash more than a third of the cluster: the simulator has
        // no machine revival, so losing too much capacity turns a liveness
        // check into a designed-in hang rather than a found bug.
        let budget = (machines / 3).max(1) as u64;
        let mut victims: Vec<u32> = (0..machines).collect();
        rng.shuffle(&mut victims);
        for &m in victims.iter().take(rng.range(0, budget + 1) as usize) {
            crashes.push((SimTime::from_millis(rng.range(2_000, 60_000)), MachineId(m)));
        }
        crashes.sort_by_key(|&(t, m)| (t, m.0));
    }

    Scenario {
        machines,
        executors_per_machine,
        workload,
        injections,
        crashes,
    }
}

/// The simulation of `(seed, kind)` under `recovery`, with its faults
/// registered and no observer installed.
fn build(seed: u64, kind: CampaignKind, recovery: RecoveryPolicy) -> Simulation {
    let sc = generate_scenario(seed, kind);
    let cluster = Cluster::new(sc.machines, sc.executors_per_machine, CostModel::default());
    let mut cfg = SimConfig::swift();
    cfg.recovery = recovery;
    let mut sim = Simulation::new(cluster, cfg, sc.workload);
    sim.inject_failures(sc.injections);
    sim.fail_machines(sc.crashes);
    sim
}

/// Replays the scenario for `(seed, kind)` under `recovery`, with the
/// chaos observer attached, and returns the report plus observer state.
pub fn execute(seed: u64, kind: CampaignKind, recovery: RecoveryPolicy) -> (RunReport, ChaosState) {
    let mut sim = build(seed, kind, recovery);
    let observer = ChaosObserver::new(sim.job_count());
    sim.set_observer(Box::new(observer.clone()));
    let report = sim.run();
    let state = std::mem::take(&mut *observer.0.borrow_mut());
    (report, state)
}

/// Replays the scenario for `(seed, kind)` under `recovery` with a
/// [`swift_trace::TraceRecorder`] attached (full configuration: input
/// reads plus the Cache Worker shadow model) and returns the report and
/// the finished trace. This is the `--trace-on-failure` forensics path:
/// the recorder is passive, so the report is byte-identical to the one
/// the chaos observer saw.
pub fn execute_traced(
    seed: u64,
    kind: CampaignKind,
    recovery: RecoveryPolicy,
) -> (RunReport, swift_trace::Trace) {
    let mut sim = build(seed, kind, recovery);
    let (recorder, handle) = swift_trace::TraceRecorder::new(
        &format!("chaos-{kind}"),
        seed,
        swift_trace::RecorderConfig::full(),
    );
    sim.set_observer(Box::new(recorder));
    let report = sim.run();
    (report, handle.finish())
}

/// Like [`execute_traced`], but with a caller-chosen
/// [`swift_trace::RecorderConfig`], delivering the event stream into a
/// caller-supplied [`swift_trace::TraceSink`] — typically a
/// [`swift_trace::StreamSink`] writing the forensics trace straight to
/// disk with bounded memory. The streamed bytes are identical to what
/// [`execute_traced`] would have rendered, because both paths observe
/// the same event stream.
pub fn execute_traced_sink_with<S: swift_trace::TraceSink + 'static>(
    seed: u64,
    kind: CampaignKind,
    recovery: RecoveryPolicy,
    rcfg: swift_trace::RecorderConfig,
    sink: S,
) -> (RunReport, S) {
    let mut sim = build(seed, kind, recovery);
    let (recorder, handle) =
        swift_trace::TraceRecorder::with_sink(&format!("chaos-{kind}"), seed, rcfg, sink);
    sim.set_observer(Box::new(recorder));
    let report = sim.run();
    (report, handle.into_sink())
}

/// The outcome of all invariant checks for one seed.
#[derive(Debug)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// The campaign kind it ran under.
    pub kind: CampaignKind,
    /// All invariant violations (empty = clean).
    pub violations: Vec<String>,
    /// Jobs in the scenario.
    pub jobs: usize,
    /// Task-level injections plus machine crashes in the scenario.
    pub faults: usize,
    /// Recovery plans checked against the §IV-B oracle.
    pub plans_checked: usize,
    /// Shuffle reads checked against the version ledger.
    pub reads_checked: u64,
    /// Template-cache lookups in the fine-grained run (one per job).
    pub template_lookups: u64,
    /// Template-cache hits in the fine-grained run.
    pub template_hits: u64,
}

impl SeedOutcome {
    /// Whether every invariant held.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Self-contained command reproducing the run of `seed` under `kind`.
pub fn repro_command(seed: u64, kind: CampaignKind) -> String {
    format!("cargo run --release -p swift-chaos -- --campaign {kind} --seeds 1 --start-seed {seed}")
}

/// The structural oracles, run on one DAG before any simulation: the
/// graphlet partition is sound (§III-A), the template cache serves exactly
/// what from-scratch planning produces, and every scheme prior follows
/// the adaptive rule (§III-B). Returns one message per violation.
pub fn preflight_dag(dag: &JobDag) -> Vec<String> {
    let claimed: Vec<Vec<StageId>> = partition(dag)
        .graphlets()
        .iter()
        .map(|g| g.stages.clone())
        .collect();
    let policy = PolicyConfig::swift();
    let mut violations = validate_partition(dag, &claimed);
    violations.extend(validate_template_roundtrip(dag, &policy));
    let priors = compute_priors(dag, &plan_units(dag, &policy.partitioning), &policy);
    violations.extend(validate_scheme_priors(dag, &priors));
    violations
}

/// Static pre-flight over a scenario, run before any simulation: every
/// generated DAG must pass [`preflight_dag`]. Each violation becomes a
/// `[preflight]` line, so a malformed workload is caught without burning
/// a simulation run.
fn preflight(sc: &Scenario, out: &mut Vec<String>) {
    for (i, spec) in sc.workload.iter().enumerate() {
        for v in preflight_dag(&spec.dag) {
            out.push(format!("[preflight] job {i} ({}): {v}", spec.dag.name));
        }
    }
}

fn check_completion(report: &RunReport, state: &ChaosState, tag: &str, out: &mut Vec<String>) {
    for job in &report.jobs {
        let terminal = state.terminal.get(job.job_index).copied().flatten();
        match terminal {
            None => out.push(format!(
                "[completion/{tag}] job {} ({}) never reached a terminal state",
                job.job_index, job.name
            )),
            Some(aborted) if aborted != job.aborted => out.push(format!(
                "[completion/{tag}] job {} ({}): observer saw aborted={aborted} but the \
                 report says aborted={}",
                job.job_index, job.name, job.aborted
            )),
            Some(_) => {}
        }
    }
}

/// Runs every invariant for one seed.
///
/// The scenario is first statically validated by the pre-flight
/// (graphlet partition, template roundtrip, shuffle schemes); then
/// three simulations are executed: fine-grained recovery (checked live by
/// the observer), fine-grained again (byte-identical-report determinism),
/// and whole-job restart (the makespan baseline of invariant 4).
pub fn run_seed(seed: u64, kind: CampaignKind) -> SeedOutcome {
    // The service campaign replays through the swift-service front door
    // and carries its own invariant battery.
    if kind == CampaignKind::Service {
        return crate::service::run_service_seed(seed);
    }
    let mut violations = Vec::new();

    let scenario = generate_scenario(seed, kind);
    preflight(&scenario, &mut violations);

    let (report, state) = execute(seed, kind, RecoveryPolicy::FineGrained);
    violations.extend(state.violations.iter().cloned());
    check_completion(&report, &state, "fine-grained", &mut violations);

    // Invariant 2: determinism. The entire pipeline — scenario expansion,
    // event ordering, report assembly — must be a pure function of the
    // seed, down to the last byte of the Debug rendering.
    let (replay, _) = execute(seed, kind, RecoveryPolicy::FineGrained);
    if format!("{report:?}") != format!("{replay:?}") {
        violations
            .push("[determinism] same seed produced different RunReports across two runs".into());
    }

    // Invariant 4: fine-grained recovery re-runs a subset of what a job
    // restart re-runs, from a no-earlier point in time, so its makespan
    // can never be worse on the same scenario. Checked for single-job
    // scenarios only: with several jobs the comparison is confounded by
    // cross-job scheduling (a restarted job releases its whole gang and
    // re-queues at the back of the FIFO, letting unrelated jobs jump
    // ahead, while fine-grained recovery keeps its executors and
    // re-queues reruns at the front), so "worse makespan" there reflects
    // queueing interference, not recovery doing extra work.
    let (restart, restart_state) = execute(seed, kind, RecoveryPolicy::JobRestart);
    violations.extend(restart_state.violations.iter().cloned());
    check_completion(&restart, &restart_state, "job-restart", &mut violations);
    if scenario.workload.len() == 1 && report.makespan > restart.makespan {
        violations.push(format!(
            "[makespan] fine-grained recovery finished at {:?} but whole-job restart \
             finished earlier at {:?}",
            report.makespan, restart.makespan
        ));
    }
    SeedOutcome {
        seed,
        kind,
        violations,
        jobs: scenario.workload.len(),
        faults: scenario.injections.len() + scenario.crashes.len(),
        plans_checked: state.plans_checked,
        reads_checked: state.reads_checked,
        template_lookups: state.template_lookups,
        template_hits: state.template_hits,
    }
}

/// Aggregate result of a multi-seed campaign.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Total jobs simulated (across the fine-grained runs).
    pub jobs_run: usize,
    /// Total faults injected.
    pub faults_injected: usize,
    /// Total recovery plans checked against the oracle.
    pub plans_checked: usize,
    /// Total shuffle reads checked against the version ledger.
    pub reads_checked: u64,
    /// Total template-cache lookups (one per job of the fine-grained runs).
    pub template_lookups: u64,
    /// Total template-cache hits across the campaign.
    pub template_hits: u64,
    /// Outcomes of the seeds that violated an invariant.
    pub failures: Vec<SeedOutcome>,
}

impl CampaignReport {
    /// Whether every seed came back clean.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `count` consecutive seeds starting at `start_seed`, calling
/// `progress` after each seed (e.g. to print a running tally).
pub fn run_campaign(
    start_seed: u64,
    count: u64,
    kind: CampaignKind,
    mut progress: impl FnMut(&SeedOutcome),
) -> CampaignReport {
    let mut report = CampaignReport::default();
    for seed in start_seed..start_seed.saturating_add(count) {
        let outcome = run_seed(seed, kind);
        report.seeds_run += 1;
        report.jobs_run += outcome.jobs;
        report.faults_injected += outcome.faults;
        report.plans_checked += outcome.plans_checked;
        report.reads_checked += outcome.reads_checked;
        report.template_lookups += outcome.template_lookups;
        report.template_hits += outcome.template_hits;
        progress(&outcome);
        if !outcome.clean() {
            report.failures.push(outcome);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_kind_round_trips_through_str() {
        for kind in CampaignKind::ALL {
            assert_eq!(kind.as_str().parse::<CampaignKind>().unwrap(), kind);
        }
        assert!("bogus".parse::<CampaignKind>().is_err());
    }

    #[test]
    fn scenario_generation_is_deterministic() {
        let a = generate_scenario(42, CampaignKind::Mixed);
        let b = generate_scenario(42, CampaignKind::Mixed);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = generate_scenario(43, CampaignKind::Mixed);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different seeds should differ"
        );
    }

    #[test]
    fn fault_free_scenarios_have_no_faults() {
        for seed in 0..8 {
            let sc = generate_scenario(seed, CampaignKind::FaultFree);
            assert!(sc.injections.is_empty() && sc.crashes.is_empty());
        }
    }

    #[test]
    fn machine_crash_budget_is_bounded() {
        for seed in 0..16 {
            let sc = generate_scenario(seed, CampaignKind::Mixed);
            assert!(
                sc.crashes.len() as u32 <= (sc.machines / 3).max(1),
                "seed {seed} crashes {} of {} machines",
                sc.crashes.len(),
                sc.machines
            );
        }
    }

    #[test]
    fn repro_command_names_the_seed_and_campaign() {
        let cmd = repro_command(1234, CampaignKind::MachineCrashes);
        assert!(
            cmd.contains("--start-seed 1234") && cmd.contains("--campaign machine"),
            "{cmd}"
        );
    }

    // Bounded end-to-end campaigns per kind: these are the tier-1 face of
    // the harness, so keep them small; the 100-seed sweep runs via the
    // binary (see EXPERIMENTS.md).
    #[test]
    fn short_mixed_campaign_is_clean() {
        let report = run_campaign(1, 4, CampaignKind::Mixed, |_| {});
        assert!(report.clean(), "violations: {:#?}", report.failures);
        assert!(report.reads_checked > 0, "ledger never exercised");
        assert_eq!(
            report.template_lookups, report.jobs_run as u64,
            "every job admission should consult the cache"
        );
    }

    #[test]
    fn short_task_fault_campaign_is_clean_and_checks_plans() {
        let report = run_campaign(10, 4, CampaignKind::TaskFaults, |_| {});
        assert!(report.clean(), "violations: {:#?}", report.failures);
    }

    #[test]
    fn short_machine_crash_campaign_is_clean() {
        let report = run_campaign(20, 3, CampaignKind::MachineCrashes, |_| {});
        assert!(report.clean(), "violations: {:#?}", report.failures);
    }

    #[test]
    fn short_fault_free_campaign_is_clean() {
        let report = run_campaign(30, 3, CampaignKind::FaultFree, |_| {});
        assert!(report.clean(), "violations: {:#?}", report.failures);
        assert_eq!(report.faults_injected, 0);
    }

    // Tracing face of the harness: the `--trace-on-failure` replay must be
    // deterministic (same seed → byte-identical trace), well formed, and
    // passive (the recorded run's report matches the chaos-observed run's
    // report byte for byte). Bounded here like the campaigns above; the
    // 100-seed sweep runs via the binary (see EXPERIMENTS.md).
    #[test]
    fn traced_replay_is_deterministic_well_formed_and_passive() {
        for seed in 1..=6u64 {
            let (ra, ta) = execute_traced(seed, CampaignKind::Mixed, RecoveryPolicy::FineGrained);
            let (rb, tb) = execute_traced(seed, CampaignKind::Mixed, RecoveryPolicy::FineGrained);
            assert_eq!(
                ta.render_text(),
                tb.render_text(),
                "seed {seed}: traced replay diverged"
            );
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "seed {seed}: report");
            ta.check_spans()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let (observed, _) = execute(seed, CampaignKind::Mixed, RecoveryPolicy::FineGrained);
            assert_eq!(
                format!("{ra:?}"),
                format!("{observed:?}"),
                "seed {seed}: trace recorder perturbed the run"
            );
        }
    }

    // The streaming face of `--trace-on-failure`: the forensics dump the
    // binary writes on a failing seed goes through
    // `execute_traced_sink_with` + `StreamSink`, a path no clean campaign
    // ever exercises. Prove here that the streamed file is byte-identical
    // to the buffered render, the recorder stays passive, and peak sink
    // memory never exceeds one chunk (no line outgrows it).
    #[test]
    fn streamed_forensics_trace_matches_buffered_render() {
        for seed in [3u64, 5] {
            let (rb, trace) =
                execute_traced(seed, CampaignKind::Mixed, RecoveryPolicy::FineGrained);
            let expected = trace.render_text();
            let path = std::env::temp_dir().join(format!(
                "swift-chaos-stream-test-{}-{seed}.trace",
                std::process::id()
            ));
            let sink = swift_trace::StreamSink::create(&path, "chaos-mixed", seed)
                .expect("create stream file");
            let (rs, sink) = execute_traced_sink_with(
                seed,
                CampaignKind::Mixed,
                RecoveryPolicy::FineGrained,
                swift_trace::RecorderConfig::full(),
                sink,
            );
            let stats = sink.finish().expect("finish stream");
            let streamed = std::fs::read_to_string(&path).expect("read streamed trace");
            std::fs::remove_file(&path).ok();
            assert_eq!(
                streamed, expected,
                "seed {seed}: streamed bytes differ from buffered render"
            );
            assert_eq!(
                format!("{rs:?}"),
                format!("{rb:?}"),
                "seed {seed}: streaming recorder perturbed the run"
            );
            assert_eq!(stats.events, trace.events.len() as u64, "seed {seed}");
            assert_eq!(stats.bytes_written, expected.len() as u64, "seed {seed}");
            assert!(
                stats.peak_buffer_bytes <= swift_trace::DEFAULT_CHUNK_BYTES,
                "seed {seed}: peak buffer {} exceeds chunk size",
                stats.peak_buffer_bytes
            );
        }
    }
}
