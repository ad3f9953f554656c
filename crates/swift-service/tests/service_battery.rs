//! The seeded service-level test battery (the PR's proof obligations):
//!
//! 1. **Determinism** — same-seed runs produce byte-identical
//!    `ServiceReport`s (digest compare).
//! 2. **Quota invariant** — no tenant ever holds more executors than its
//!    quota (live-asserted inside the loop on every admission; witnessed
//!    here through the session event stream).
//! 3. **Fairness invariant** — under saturation with identical job
//!    costs, deficit round robin keeps per-tenant dispatch counts within
//!    a pinned bound of the ideal at every prefix.
//! 4. **Back-pressure invariant** — queue depth never exceeds the
//!    watermark (failure-free runs), and rejected jobs are accounted,
//!    never silently dropped.
//! 5. **Warm-pool invariant** — a reused session always belongs to the
//!    requesting tenant (cross-checked against the cold-start registry),
//!    and warm reuse strictly beats cold tear-down on tail latency.
//! 6. **Passive sampling** — the report digest and event count do not
//!    depend on the telemetry cadence, and every cadence boundary up to
//!    the last event gets its frame.

#![allow(
    clippy::disallowed_types,
    reason = "tests sit outside the determinism contract"
)]

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use swift_metrics::Frame;
use swift_service::{scenarios, ServiceConfig, ServiceObserver, ServiceRun, ServiceSim};
use swift_sim::{SimDuration, SimTime};
use swift_workload::{
    generate_service_workload, terasort_dag, JobPriority, ServiceJob, ServiceWorkloadConfig,
    TraceConfig,
};

/// A quick workload shape: short jobs so the battery stays fast.
fn small_shape() -> TraceConfig {
    TraceConfig {
        runtime_median_secs: 2.0,
        runtime_sigma: 0.5,
        tasks_median: 8.0,
        tasks_sigma: 0.8,
        ..TraceConfig::default()
    }
}

fn battery_workload(seed: u64) -> ServiceWorkloadConfig {
    ServiceWorkloadConfig {
        tenants: 30,
        jobs: 400,
        seed,
        mean_interarrival: SimDuration::from_millis(150),
        diurnal: true,
        storms: 2,
        storm_factor: 6.0,
        storm_len: SimDuration::from_secs(8),
        tenant_skew: 1.1,
        high_priority_share: 0.2,
        shape: small_shape(),
    }
}

fn run_digest(seed: u64) -> u64 {
    let sim = ServiceSim::new(
        ServiceConfig::default(),
        generate_service_workload(&battery_workload(seed)),
    );
    sim.run().report.digest()
}

#[test]
fn same_seed_reports_are_byte_identical() {
    for seed in [1u64, 42, 20210419] {
        assert_eq!(
            run_digest(seed),
            run_digest(seed),
            "seed {seed} digest drifted between identical runs"
        );
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the digest actually sees the workload.
    assert_ne!(run_digest(1), run_digest(2));
}

// ---- quota + warm-pool invariants (event-stream witnesses) ----

#[derive(Debug, Default)]
struct SessionLedger {
    /// session -> tenant, recorded at cold start.
    owner: std::collections::BTreeMap<u32, u32>,
    /// live sessions per tenant (cold start opens, expire closes).
    live: std::collections::BTreeMap<u32, u32>,
    max_live_per_tenant: u32,
    violations: u32,
}

#[derive(Debug, Default)]
struct LedgerObserver(Rc<RefCell<SessionLedger>>);

impl ServiceObserver for LedgerObserver {
    fn on_session_cold_start(
        &mut self,
        _now: SimTime,
        _job: usize,
        tenant: u32,
        session: u32,
        _executors: u32,
    ) {
        let mut st = self.0.borrow_mut();
        st.owner.insert(session, tenant);
        let live = st.live.entry(tenant).or_insert(0);
        *live += 1;
        let live = *live;
        st.max_live_per_tenant = st.max_live_per_tenant.max(live);
    }

    fn on_session_warm_hit(&mut self, _now: SimTime, _job: usize, tenant: u32, session: u32) {
        let mut st = self.0.borrow_mut();
        if st.owner.get(&session) != Some(&tenant) {
            st.violations += 1;
        }
    }

    fn on_session_expired(&mut self, _now: SimTime, tenant: u32, session: u32, _executors: u32) {
        let mut st = self.0.borrow_mut();
        st.owner.remove(&session);
        *st.live.entry(tenant).or_insert(1) -= 1;
    }
}

#[test]
fn quota_and_warm_pool_invariants_hold() {
    let cfg = ServiceConfig::default();
    let sessions_per_tenant = cfg.tenant_quota / cfg.session_executors;
    let ledger = Rc::new(RefCell::new(SessionLedger::default()));
    let mut sim = ServiceSim::new(cfg, generate_service_workload(&battery_workload(5)));
    sim.set_observer(Box::new(LedgerObserver(Rc::clone(&ledger))));
    let run = sim.run();
    let st = ledger.borrow();
    assert_eq!(st.violations, 0, "warm session handed to a foreign tenant");
    assert!(
        st.max_live_per_tenant <= sessions_per_tenant,
        "a tenant held {} live sessions; quota allows {}",
        st.max_live_per_tenant,
        sessions_per_tenant
    );
    assert!(run.report.warm_hits > 0, "battery exercised no warm reuse");
    // The in-loop live assertions re-check held-vs-quota and the cluster
    // ownership ledger on every admission; completing at all is the
    // witness that they never fired.
    assert_eq!(run.report.jobs_completed, run.report.jobs_admitted);
}

// ---- fairness ----

/// Records the tenant of every dispatch, in dispatch order.
#[derive(Debug, Default)]
struct DispatchOrder(Rc<RefCell<Vec<u32>>>);

impl ServiceObserver for DispatchOrder {
    fn on_session_warm_hit(&mut self, _now: SimTime, _job: usize, tenant: u32, _session: u32) {
        self.0.borrow_mut().push(tenant);
    }

    fn on_session_cold_start(
        &mut self,
        _now: SimTime,
        _job: usize,
        tenant: u32,
        _session: u32,
        _executors: u32,
    ) {
        self.0.borrow_mut().push(tenant);
    }
}

/// Saturated symmetric workload: `tenants` tenants each submit `per`
/// identical-cost jobs at time zero, so DRR's ideal is a perfect
/// interleave.
fn symmetric_burst(tenants: u32, per: usize) -> Vec<ServiceJob> {
    let dag = Arc::new(terasort_dag(0, 4, 4, 64 << 20));
    let cost = dag.total_tasks();
    let mut jobs = Vec::new();
    for _ in 0..per {
        for tenant in 0..tenants {
            jobs.push(ServiceJob {
                tenant,
                priority: JobPriority::Normal,
                dag: Arc::clone(&dag),
                submit_at: SimTime::ZERO,
                cost,
            });
        }
    }
    jobs
}

#[test]
fn drr_keeps_saturated_tenants_within_one_dispatch_of_ideal() {
    let tenants = 6u32;
    let per = 10usize;
    let cfg = ServiceConfig {
        machines: 4,
        executors_per_machine: 4,
        session_executors: 2,
        tenant_quota: 2, // one session per tenant: dispatch == completion slot
        queue_watermark: (tenants as usize * per) as u32 + 1,
        ..ServiceConfig::default()
    };
    let order = Rc::new(RefCell::new(Vec::new()));
    let mut sim = ServiceSim::new(cfg, symmetric_burst(tenants, per));
    sim.set_observer(Box::new(DispatchOrder(Rc::clone(&order))));
    let run = sim.run();
    assert_eq!(run.report.jobs_completed, (tenants as u64) * per as u64);

    // At every prefix of the dispatch order, per-tenant counts stay
    // within one of each other: identical costs and equal quanta mean
    // DRR owes no tenant more than one dispatch.
    let order = order.borrow();
    let mut counts = vec![0u32; tenants as usize];
    for (i, &t) in order.iter().enumerate() {
        counts[t as usize] += 1;
        // Ignore the ramp-up prefix where some tenants have not had a
        // first visit yet.
        if i + 1 >= tenants as usize {
            let max = *counts.iter().max().expect("non-empty");
            let min = *counts.iter().min().expect("non-empty");
            assert!(
                max - min <= 1,
                "fairness spread {max}-{min} > 1 after {} dispatches",
                i + 1
            );
        }
    }
    assert_eq!(
        run.report.max_deficit_stall, 0,
        "equal costs should never stall"
    );
}

// ---- back-pressure ----

#[test]
fn backpressure_rejects_at_watermark_and_accounts_everything() {
    let mut wl = battery_workload(9);
    wl.jobs = 300;
    wl.storms = 3;
    wl.storm_factor = 20.0;
    wl.mean_interarrival = SimDuration::from_millis(40);
    let cfg = ServiceConfig {
        queue_watermark: 24,
        ..ServiceConfig::default()
    };
    let watermark = cfg.queue_watermark;
    let sim = ServiceSim::new(cfg, generate_service_workload(&wl));
    let r = sim.run().report;
    assert!(r.jobs_rejected > 0, "storm never hit the watermark");
    assert!(
        r.peak_queue_depth <= watermark,
        "queue depth {} exceeded watermark {watermark}",
        r.peak_queue_depth
    );
    assert_eq!(r.jobs_submitted, r.jobs_admitted + r.jobs_rejected);
    assert_eq!(
        r.jobs_completed, r.jobs_admitted,
        "admitted jobs were dropped"
    );
    let rejected_by_tenant: u64 = r.tenants.iter().map(|t| t.rejected).sum();
    assert_eq!(
        rejected_by_tenant, r.jobs_rejected,
        "rejections untracked per tenant"
    );
}

// ---- warm vs cold ----

#[test]
fn warm_pool_beats_cold_teardown_on_tail_latency() {
    let wl = battery_workload(3);
    let run = |warm: bool| {
        let cfg = ServiceConfig {
            warm_pool: warm,
            ..ServiceConfig::default()
        };
        ServiceSim::new(cfg, generate_service_workload(&wl))
            .run()
            .report
    };
    let warm = run(true);
    let cold = run(false);
    assert!(warm.warm_hits > 0, "warm run scored no reuse");
    assert_eq!(cold.warm_hits, 0, "cold run reused a session");
    assert!(
        warm.sched_latency.p99_us < cold.sched_latency.p99_us,
        "warm p99 {} not below cold p99 {}",
        warm.sched_latency.p99_us,
        cold.sched_latency.p99_us
    );
}

// ---- machine failures ----

/// 200 battery jobs with two fleet machines failing under them.
fn run_with_machine_failures() -> ServiceRun {
    let mut wl = battery_workload(13);
    wl.jobs = 200;
    let mut sim = ServiceSim::new(ServiceConfig::default(), generate_service_workload(&wl));
    sim.fail_machines(vec![
        (
            SimTime::ZERO + SimDuration::from_secs(10),
            swift_cluster::MachineId(2),
        ),
        (
            SimTime::ZERO + SimDuration::from_secs(25),
            swift_cluster::MachineId(5),
        ),
    ]);
    sim.run()
}

#[test]
fn machine_failure_requeues_without_losing_jobs() {
    let r = run_with_machine_failures().report;
    assert!(r.sessions_killed > 0, "failures killed no session");
    assert!(r.jobs_restarted > 0, "failures requeued no job");
    assert_eq!(r.jobs_completed, r.jobs_admitted, "a requeued job was lost");
}

// ---- the fleet-wide scheduler session ----

#[test]
fn every_inner_simulation_looks_up_the_fleet_template_cache_once() {
    let run = run_with_machine_failures();
    let r = &run.report;
    assert!(r.jobs_restarted > 0, "no restart to count");
    // One inner simulation per dispatch: every admitted job once, plus
    // once more per machine-failure restart.
    assert_eq!(run.template_lookups, r.jobs_admitted + r.jobs_restarted);
    assert_eq!(run.template_lookups, r.warm_hits + r.cold_starts);
    // Per-session caches scored 18 hits in these 212 lookups: a session
    // killed by a failure took its templates with it.
    assert!(
        run.template_hits > 18,
        "fleet-wide cache hit {} of {} lookups",
        run.template_hits,
        run.template_lookups
    );
}

#[test]
fn fleet_template_cache_outlives_warm_sessions() {
    let run = ServiceSim::new(
        ServiceConfig::default(),
        generate_service_workload(&battery_workload(5)),
    )
    .run();
    assert!(run.report.sessions_expired > 0, "no session ever expired");
    assert_eq!(run.template_lookups, run.report.jobs_admitted);
    // Per-session caches, each dying with its session's TTL, hit 54 of
    // these 380 lookups (0.14).
    assert!(
        run.template_hits * 2 > run.template_lookups,
        "fleet-wide cache hit only {} of {} lookups",
        run.template_hits,
        run.template_lookups
    );
}

// ---- passive sampling ----

/// Records the stamp of every sealed telemetry frame.
#[derive(Debug)]
struct FrameStamps(Rc<RefCell<Vec<SimTime>>>);

impl ServiceObserver for FrameStamps {
    fn on_sample(&mut self, now: SimTime, _frame: &Frame) {
        self.0.borrow_mut().push(now);
    }
}

/// Runs `jobs` under `cfg` at the given cadence; returns the run and the
/// stamps of its frames.
fn run_sampled(
    cfg: &ServiceConfig,
    jobs: &[ServiceJob],
    failures: &[(SimTime, swift_cluster::MachineId)],
    every: Option<SimDuration>,
) -> (ServiceRun, Vec<SimTime>) {
    let cfg = ServiceConfig {
        sample_every: every,
        ..cfg.clone()
    };
    let mut sim = ServiceSim::new(cfg, jobs.to_vec());
    sim.fail_machines(failures.to_vec());
    let stamps = Rc::new(RefCell::new(Vec::new()));
    sim.set_observer(Box::new(FrameStamps(Rc::clone(&stamps))));
    let run = sim.run();
    (run, stamps.take())
}

#[test]
fn sampling_cadence_changes_no_report_byte() {
    let mut cases = Vec::new();
    for (name, seed) in [("service-small", 1), ("service-storm", 3)] {
        let (wl, cfg, failures) = scenarios::build(name, seed).expect("registry scenario");
        cases.push((name, generate_service_workload(&wl), cfg, failures));
    }
    cases.push((
        "battery",
        generate_service_workload(&battery_workload(11)),
        ServiceConfig::default(),
        Vec::new(),
    ));
    for (name, jobs, cfg, failures) in &cases {
        let (base, frames) = run_sampled(cfg, jobs, failures, None);
        assert!(frames.is_empty(), "{name}: frames without a cadence");
        for secs in [1, 10] {
            let every = SimDuration::from_secs(secs);
            let (run, frames) = run_sampled(cfg, jobs, failures, Some(every));
            assert_eq!(
                run.report.digest(),
                base.report.digest(),
                "{name}: a {secs} s cadence changed the digest"
            );
            assert_eq!(run.report.events, base.report.events, "{name}: events");
            // One frame per boundary up to the last event, then the
            // sealing frame at the last event.
            let (&seal, boundaries) = frames.split_last().expect("the sealing frame");
            let expected: Vec<SimTime> = (1..=seal.as_micros() / every.as_micros())
                .map(|k| SimTime::ZERO + every * k)
                .collect();
            assert_eq!(boundaries, expected, "{name}: {secs} s boundaries");
            assert!(!boundaries.is_empty(), "{name}: no boundary was crossed");
        }
    }
}
