//! The seeded service-level test battery (the PR's proof obligations):
//!
//! 1. **Determinism** — same-seed runs produce byte-identical
//!    `ServiceReport`s (digest compare), and the digest is invariant to
//!    the shard count (K ∈ {0, 1, 4}) and the templates flag.
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

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use swift_service::{ServiceConfig, ServiceObserver, ServiceRun, ServiceSim};
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

fn run_digest(seed: u64, shards: u32, templates: bool) -> u64 {
    let cfg = ServiceConfig {
        shards,
        templates,
        ..ServiceConfig::default()
    };
    let sim = ServiceSim::new(cfg, generate_service_workload(&battery_workload(seed)));
    sim.run().report.digest()
}

#[test]
fn same_seed_reports_are_byte_identical() {
    for seed in [1u64, 42, 20210419] {
        assert_eq!(
            run_digest(seed, 1, true),
            run_digest(seed, 1, true),
            "seed {seed} digest drifted between identical runs"
        );
    }
}

#[test]
fn digest_is_invariant_to_shard_count() {
    let baseline = run_digest(7, 1, true);
    for shards in [0u32, 4] {
        assert_eq!(
            run_digest(7, shards, true),
            baseline,
            "shards={shards} changed the service report"
        );
    }
}

#[test]
fn digest_is_invariant_to_templates_flag() {
    assert_eq!(
        run_digest(11, 1, true),
        run_digest(11, 1, false),
        "templates flag leaked into the service report"
    );
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the digest actually sees the workload.
    assert_ne!(run_digest(1, 1, true), run_digest(2, 1, true));
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
struct LedgerObserver(Rc<RefCell<SessionLedger>>); // swift-analyze: allow(SW008) — Rc is !Send, shard-local by construction

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
struct DispatchOrder(Rc<RefCell<Vec<u32>>>); // swift-analyze: allow(SW008) — Rc is !Send, shard-local by construction

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
    for round in 0..per {
        for tenant in 0..tenants {
            jobs.push(ServiceJob {
                tenant,
                priority: JobPriority::Normal,
                dag: Arc::clone(&dag),
                submit_at: SimTime::ZERO,
                cost,
            });
        }
        let _ = round;
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
    // within a pinned bound of each other: identical costs and equal
    // quanta mean DRR owes no tenant more than one dispatch.
    let order = order.borrow();
    let mut counts = vec![0u32; tenants as usize];
    for (i, &t) in order.iter().enumerate() {
        counts[t as usize] += 1;
        let served: Vec<u32> = counts.iter().copied().filter(|&c| c > 0).collect();
        // Ignore the ramp-up prefix where some tenants have not had a
        // first visit yet.
        if i + 1 >= tenants as usize {
            let max = *counts.iter().max().expect("non-empty");
            let min = *counts.iter().min().expect("non-empty");
            assert!(
                max - min <= 2,
                "fairness spread {max}-{min} > 2 after {} dispatches",
                i + 1
            );
        }
        let _ = served;
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
fn run_with_machine_failures(templates: bool) -> ServiceRun {
    let mut wl = battery_workload(13);
    wl.jobs = 200;
    let cfg = ServiceConfig {
        templates,
        ..ServiceConfig::default()
    };
    let mut sim = ServiceSim::new(cfg, generate_service_workload(&wl));
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
    let r = run_with_machine_failures(true).report;
    assert!(r.sessions_killed > 0, "failures killed no session");
    assert!(r.jobs_restarted > 0, "failures requeued no job");
    assert_eq!(r.jobs_completed, r.jobs_admitted, "a requeued job was lost");
}

// ---- the fleet-wide scheduler session ----

#[test]
fn every_inner_simulation_looks_up_the_fleet_template_cache_once() {
    let run = run_with_machine_failures(true);
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

    let off = run_with_machine_failures(false);
    assert_eq!((off.template_lookups, off.template_hits), (0, 0));
    assert_eq!(off.report.digest(), r.digest());
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
