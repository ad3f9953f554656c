//! The `service` campaign: seeded multi-tenant storms (plus machine
//! failures) driven through the `swift-service` front door.
//!
//! Each seed expands deterministically into a random service shape —
//! fleet size, tenant count, arrival process, quota/watermark knobs, a
//! failure schedule — and is replayed with a per-job [`ChaosObserver`]
//! installed inside every inner simulation, so the five existing run
//! invariants (completion, determinism, recovery-plan minimality,
//! makespan dominance via the version ledger, shuffle version
//! discipline) keep being checked *per dispatched job*, while the
//! service layer adds its own:
//!
//! * **quota** — live sessions per tenant never exceed
//!   `tenant_quota / session_executors` (cross-checked from the event
//!   stream; the loop also live-asserts held-vs-quota on every admission);
//! * **fairness** — no tenant's deficit stall exceeds the DRR bound
//!   `ceil(max_cost / quantum) + 1`;
//! * **back-pressure** — no admission ever lands above the watermark and
//!   `submitted == admitted + rejected` (nothing silently dropped);
//! * **warm-pool isolation** — every warm hit goes to the tenant that
//!   registered the session;
//! * **determinism / differentials** — same-seed reruns, K-vs-1 shard
//!   runs and templates-on/off runs all produce digest-identical
//!   [`ServiceReport`]s.

use std::cell::RefCell;
use std::rc::Rc;

use swift_cluster::MachineId;
use swift_scheduler::{RunReport, SimObserver};
use swift_service::{ServiceConfig, ServiceObserver, ServiceRun, ServiceSim};
use swift_sim::{SimDuration, SimRng, SimTime};
use swift_trace::Trace;
use swift_workload::{generate_service_workload, ServiceWorkloadConfig, TraceConfig};

use crate::campaign::{CampaignKind, SeedOutcome};
use crate::observer::{ChaosObserver, ChaosState};

/// A fully expanded service scenario.
#[derive(Debug)]
pub struct ServiceScenario {
    /// The arrival-generator configuration.
    pub workload: ServiceWorkloadConfig,
    /// The front-door configuration.
    pub cfg: ServiceConfig,
    /// Scheduled fleet machine failures.
    pub failures: Vec<(SimTime, MachineId)>,
}

/// Expands `seed` into a random service scenario. Pure function of the
/// seed; the failure schedule always leaves at least two machines alive
/// and sessions sized to fit one machine, so admitted jobs never strand.
pub fn generate_service_scenario(seed: u64) -> ServiceScenario {
    let mut rng = SimRng::new(seed ^ 0x5EE1_CE00_5EED);
    let machines = rng.range(3, 7) as u32;
    let executors_per_machine = rng.range(2, 5) as u32;
    let session_executors = rng.range(1, u64::from(executors_per_machine) + 1) as u32;
    let tenant_quota = session_executors * rng.range(1, 4) as u32;
    let cfg = ServiceConfig {
        machines,
        executors_per_machine,
        session_executors,
        tenant_quota,
        queue_watermark: rng.range(8, 49) as u32,
        drr_quantum: rng.range(16, 129),
        warm_pool: rng.chance(0.8),
        session_ttl: SimDuration::from_secs(rng.range(5, 41)),
        cold_start_delay: SimDuration::from_millis(rng.range(50, 501)),
        warm_dispatch_delay: SimDuration::from_millis(rng.range(1, 11)),
        retry_after: SimDuration::from_secs(1),
        sample_every: None,
        templates: true,
        shards: 1,
    };
    let workload = ServiceWorkloadConfig {
        tenants: rng.range(3, 25) as u32,
        jobs: rng.range(30, 91) as usize,
        seed: rng.u64(),
        mean_interarrival: SimDuration::from_millis(rng.range(40, 301)),
        diurnal: rng.chance(0.5),
        storms: rng.range(0, 4) as u32,
        storm_factor: rng.range_f64(4.0, 12.0),
        storm_len: SimDuration::from_secs(rng.range(2, 11)),
        tenant_skew: *rng.choose(&[0.0, 0.8, 1.1, 1.4]),
        high_priority_share: rng.range_f64(0.0, 0.3),
        shape: TraceConfig {
            runtime_median_secs: rng.range_f64(1.0, 4.0),
            runtime_sigma: 0.6,
            tasks_median: rng.range_f64(4.0, 12.0),
            tasks_sigma: 0.9,
            ..TraceConfig::default()
        },
    };
    // Fail up to machines - 2, at staggered times, each machine at most
    // once.
    let mut failures = Vec::new();
    let budget = rng.range(0, u64::from(machines) - 1) as u32;
    let mut candidates: Vec<u32> = (0..machines).collect();
    rng.shuffle(&mut candidates);
    for &m in candidates.iter().take(budget.min(machines - 2) as usize) {
        let at = SimTime::ZERO + SimDuration::from_secs(rng.range(5, 60));
        failures.push((at, MachineId(m)));
    }
    ServiceScenario {
        workload,
        cfg,
        failures,
    }
}

/// Observer wired into the service loop for a chaos seed: one fresh
/// [`ChaosObserver`] per dispatched job (the inner-run invariants), plus
/// event-stream witnesses for the service-layer invariants.
#[derive(Debug, Default)]
struct ServiceChaos {
    /// One (job, state) pair per dispatch, in dispatch order.
    job_states: Vec<(usize, Rc<RefCell<ChaosState>>)>, // swift-analyze: allow(SW008) — Rc is !Send, shard-local by construction
    /// session -> owning tenant, from cold starts.
    owner: std::collections::BTreeMap<u32, u32>,
    /// live sessions per tenant.
    live: std::collections::BTreeMap<u32, u32>,
    max_live_per_tenant: u32,
    /// Highest queue depth carried by any admission event.
    max_admission_depth: u32,
    violations: Vec<String>,
}

impl ServiceObserver for ServiceChaos {
    fn on_job_admitted(&mut self, _now: SimTime, _job: usize, _tenant: u32, queue_depth: u32) {
        self.max_admission_depth = self.max_admission_depth.max(queue_depth);
    }

    fn on_session_cold_start(
        &mut self,
        _now: SimTime,
        _job: usize,
        tenant: u32,
        session: u32,
        _executors: u32,
    ) {
        self.owner.insert(session, tenant);
        let live = self.live.entry(tenant).or_insert(0);
        *live += 1;
        self.max_live_per_tenant = self.max_live_per_tenant.max(*live);
    }

    fn on_session_warm_hit(&mut self, _now: SimTime, job: usize, tenant: u32, session: u32) {
        if self.owner.get(&session) != Some(&tenant) {
            self.violations.push(format!(
                "[warm-pool] job {job}: session {session} reused by tenant {tenant} but \
                 owned by {:?}",
                self.owner.get(&session)
            ));
        }
    }

    fn on_session_expired(&mut self, _now: SimTime, tenant: u32, session: u32, _executors: u32) {
        self.owner.remove(&session);
        *self.live.entry(tenant).or_insert(1) -= 1;
    }

    fn on_session_killed(&mut self, _now: SimTime, tenant: u32, session: u32, _executors: u32) {
        self.owner.remove(&session);
        *self.live.entry(tenant).or_insert(1) -= 1;
    }

    fn job_sim_observer(&mut self, job: usize, _tenant: u32) -> Option<Box<dyn SimObserver>> {
        let obs = ChaosObserver::new(1);
        self.job_states.push((job, Rc::clone(&obs.0)));
        Some(Box::new(obs))
    }

    fn on_job_report(&mut self, _now: SimTime, job: usize, _tenant: u32, report: &RunReport) {
        let (_, state) = self
            .job_states
            .last()
            .expect("observer installed before report");
        let state = state.borrow();
        for v in &state.violations {
            self.violations.push(format!("[inner job {job}] {v}"));
        }
        match state.terminal.first().copied().flatten() {
            None => self.violations.push(format!(
                "[completion] job {job} inner run never reached a terminal state"
            )),
            Some(aborted) if aborted != report.jobs[0].aborted => self.violations.push(format!(
                "[completion] job {job}: observer saw aborted={aborted}, report disagrees"
            )),
            Some(_) => {}
        }
    }
}

/// Runs one service seed and returns the run plus the chaos witness.
fn execute_service_observed(
    seed: u64,
    templates: bool,
    shards: u32,
) -> (ServiceRun, Rc<RefCell<ServiceChaos>>) {
    let sc = generate_service_scenario(seed);
    let cfg = ServiceConfig {
        templates,
        shards,
        ..sc.cfg
    };
    let witness = Rc::new(RefCell::new(ServiceChaos::default()));
    let mut sim = ServiceSim::new(cfg, generate_service_workload(&sc.workload));
    sim.fail_machines(sc.failures);
    sim.set_observer(Box::new(SharedChaos(Rc::clone(&witness))));
    (sim.run(), witness)
}

/// Forwarding observer so the driver can keep the witness after
/// `ServiceSim::run` consumes the observer box.
#[derive(Debug)]
struct SharedChaos(Rc<RefCell<ServiceChaos>>);

impl ServiceObserver for SharedChaos {
    fn on_job_admitted(&mut self, now: SimTime, job: usize, tenant: u32, queue_depth: u32) {
        self.0
            .borrow_mut()
            .on_job_admitted(now, job, tenant, queue_depth);
    }
    fn on_session_cold_start(
        &mut self,
        now: SimTime,
        job: usize,
        tenant: u32,
        session: u32,
        executors: u32,
    ) {
        self.0
            .borrow_mut()
            .on_session_cold_start(now, job, tenant, session, executors);
    }
    fn on_session_warm_hit(&mut self, now: SimTime, job: usize, tenant: u32, session: u32) {
        self.0
            .borrow_mut()
            .on_session_warm_hit(now, job, tenant, session);
    }
    fn on_session_expired(&mut self, now: SimTime, tenant: u32, session: u32, executors: u32) {
        self.0
            .borrow_mut()
            .on_session_expired(now, tenant, session, executors);
    }
    fn on_session_killed(&mut self, now: SimTime, tenant: u32, session: u32, executors: u32) {
        self.0
            .borrow_mut()
            .on_session_killed(now, tenant, session, executors);
    }
    fn job_sim_observer(&mut self, job: usize, tenant: u32) -> Option<Box<dyn SimObserver>> {
        self.0.borrow_mut().job_sim_observer(job, tenant)
    }
    fn on_job_report(&mut self, now: SimTime, job: usize, tenant: u32, report: &RunReport) {
        self.0.borrow_mut().on_job_report(now, job, tenant, report);
    }
}

/// Runs one service seed without the witness — the flag-matrix helper:
/// the returned run's report digest must be identical across shard
/// counts and the templates flag.
pub fn execute_service(seed: u64, templates: bool, shards: u32) -> ServiceRun {
    let sc = generate_service_scenario(seed);
    let cfg = ServiceConfig {
        templates,
        shards,
        ..sc.cfg
    };
    let mut sim = ServiceSim::new(cfg, generate_service_workload(&sc.workload));
    sim.fail_machines(sc.failures);
    sim.run()
}

/// Replays one service seed under the trace recorder (failure forensics).
pub fn execute_service_traced(seed: u64, templates: bool, shards: u32) -> (ServiceRun, Trace) {
    let sc = generate_service_scenario(seed);
    let cfg = ServiceConfig {
        templates,
        shards,
        ..sc.cfg
    };
    let mut sim = ServiceSim::new(cfg, generate_service_workload(&sc.workload));
    sim.fail_machines(sc.failures);
    let scenario_name = format!("chaos-service-{seed}");
    let (rec, handle) = swift_service::service_recorder(&scenario_name, seed);
    sim.set_observer(Box::new(rec));
    let run = sim.run();
    (run, handle.finish())
}

/// Runs every invariant for one `service` seed.
pub fn run_service_seed(seed: u64, templates: bool, shards: u32) -> SeedOutcome {
    let mut violations = Vec::new();
    let sc = generate_service_scenario(seed);

    // Static pre-flight over every generated DAG, same as the per-job
    // campaigns: a malformed workload is caught before any simulation.
    let workload = generate_service_workload(&sc.workload);
    for (i, job) in workload.iter().enumerate() {
        let report = swift_analyze::analyze_dag(&job.dag);
        for d in &report.diagnostics {
            if d.severity == swift_analyze::Severity::Error {
                violations.push(format!(
                    "[preflight] job {i}: {}[{}]: {} ({})",
                    d.severity, d.code, d.message, d.span
                ));
            }
        }
    }

    let (run, witness) = execute_service_observed(seed, templates, shards);
    let witness = Rc::try_unwrap(witness)
        .expect("driver holds the last handle")
        .into_inner();
    violations.extend(witness.violations);
    let r = &run.report;

    // Quota: live sessions per tenant bounded by quota / session size.
    let sessions_per_tenant = sc.cfg.tenant_quota / sc.cfg.session_executors;
    if witness.max_live_per_tenant > sessions_per_tenant {
        violations.push(format!(
            "[quota] a tenant held {} live sessions; quota allows {}",
            witness.max_live_per_tenant, sessions_per_tenant
        ));
    }

    // Back-pressure: admissions never land above the watermark, and the
    // admission ledger balances.
    if witness.max_admission_depth > sc.cfg.queue_watermark {
        violations.push(format!(
            "[backpressure] admission at depth {} > watermark {}",
            witness.max_admission_depth, sc.cfg.queue_watermark
        ));
    }
    if r.jobs_submitted != r.jobs_admitted + r.jobs_rejected {
        violations.push(format!(
            "[backpressure] submitted {} != admitted {} + rejected {}",
            r.jobs_submitted, r.jobs_admitted, r.jobs_rejected
        ));
    }
    if r.jobs_completed != r.jobs_admitted {
        violations.push(format!(
            "[completion] {} admitted jobs but {} completed",
            r.jobs_admitted, r.jobs_completed
        ));
    }

    // Fairness: the DRR stall bound. A tenant is deficit-blocked at most
    // until its banked quantum covers its head job's cost.
    let max_cost = workload.iter().map(|j| j.cost).max().unwrap_or(1);
    let stall_bound = (max_cost.div_ceil(sc.cfg.drr_quantum) + 1) as u32;
    if r.max_deficit_stall > stall_bound {
        violations.push(format!(
            "[fairness] deficit stall {} exceeds DRR bound {stall_bound} \
             (max cost {max_cost}, quantum {})",
            r.max_deficit_stall, sc.cfg.drr_quantum
        ));
    }

    // Determinism: same seed, digest-identical report.
    let replay = execute_service(seed, templates, shards);
    if replay.report.digest() != r.digest() {
        violations
            .push("[determinism] same seed produced different ServiceReports across runs".into());
    }

    // Shard differential: K lanes inside every inner simulation must not
    // move a single service-visible byte.
    if shards != 1 {
        let single = execute_service(seed, templates, 1);
        if single.report.digest() != r.digest() {
            violations.push(format!(
                "[shard-differential] K={shards} and K=1 service runs diverged"
            ));
        }
    }

    // Template differential: the fleet's template cache must be a pure
    // control-plane cost optimization.
    if templates {
        let off = execute_service(seed, false, shards);
        if off.report.digest() != r.digest() {
            violations
                .push("[template-differential] templates on/off service runs diverged".into());
        }
    }

    let (plans_checked, reads_checked) =
        witness.job_states.iter().fold((0, 0), |(p, rd), (_, s)| {
            let s = s.borrow();
            (p + s.plans_checked, rd + s.reads_checked)
        });
    SeedOutcome {
        seed,
        kind: CampaignKind::Service,
        violations,
        jobs: workload.len(),
        faults: sc.failures.len(),
        plans_checked,
        reads_checked,
        template_lookups: run.template_lookups,
        template_hits: run.template_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_scenario_generation_is_deterministic() {
        let a = generate_service_scenario(42);
        let b = generate_service_scenario(42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = generate_service_scenario(43);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn service_failure_schedule_leaves_survivors() {
        for seed in 0..32 {
            let sc = generate_service_scenario(seed);
            assert!(sc.failures.len() as u32 <= sc.cfg.machines - 2);
            assert!(sc.cfg.session_executors <= sc.cfg.executors_per_machine);
        }
    }

    #[test]
    fn short_service_campaign_is_clean() {
        for seed in 1..=3 {
            let outcome = run_service_seed(seed, false, 1);
            assert!(outcome.clean(), "seed {seed}: {:#?}", outcome.violations);
            // Inner jobs run fault-free (service-level failures kill the
            // whole session instead), so the plan oracle stays idle; the
            // version ledger is the witness that the observers ran.
            assert!(outcome.reads_checked > 0, "inner observers never ran");
        }
    }
}
