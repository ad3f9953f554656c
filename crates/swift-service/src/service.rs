//! The service control loop: admission, DRR dispatch, warm sessions.
//!
//! [`ServiceSim`] is a second deterministic event loop layered *above*
//! the per-job `swift-scheduler` simulation: arrivals, admission-control
//! decisions, deficit-round-robin dispatch across tenants, warm-session
//! lifecycle and fleet machine failures all advance on the same
//! `swift_sim` event queue the simulator drives, one lane, drained one
//! timestamp batch at a time in `(SimTime, sequence)` order. Telemetry
//! frames are sealed between batches, never queued, so the event count
//! and the report do not depend on the sampling cadence. Each dispatched
//! job runs as a complete inner [`Simulation`] run on its session's
//! executors: one simulation, kept for the whole service run and
//! rewound for every job. The inner run's makespan decides when the
//! service sees the job complete. Same `(workload, config)` — byte-identical
//! [`ServiceReport`] at any sampling cadence.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use swift_cluster::{Cluster, CostModel, ExecutorId, ExecutorState, MachineHealth, MachineId};
use swift_metrics as metrics;
use swift_metrics::Registry;
use swift_scheduler::{JobSpec, SchedulerSession, SimConfig, Simulation};
use swift_sim::{Cadence, Fnv64, ShardedEventQueue, SimDuration, SimTime};
use swift_workload::{JobPriority, ServiceJob};

use crate::config::ServiceConfig;
use crate::observer::{NullServiceObserver, ServiceObserver};
use crate::report::{LatencySummary, ServiceReport, ServiceRun, TenantReport};

/// Back-off advertised to a job rejected at the admission watermark.
const RETRY_AFTER: SimDuration = SimDuration::from_secs(1);

/// Service-loop event.
#[derive(Debug)]
enum Ev {
    /// Job `jobs[i]` arrives at the front door.
    Arrival(usize),
    /// The inner run of `job` (started as `attempt`) finished on
    /// `session`.
    JobDone {
        job: usize,
        session: u32,
        attempt: u32,
    },
    /// Warm-session idle TTL check; stale unless `gen` still matches.
    SessionExpire { session: u32, gen: u64 },
    /// Fleet machine `machine` fails permanently.
    MachineFail(u32),
}

/// The event queue's one lane: every event is scheduled on it.
const LANE: u32 = 0;

#[derive(Debug)]
struct Session {
    tenant: u32,
    executors: Vec<ExecutorId>,
    /// Job currently running on this session (`None` = idle/warm).
    running: Option<usize>,
    /// Bumped on every reuse; outstanding expire events carry the old
    /// generation and become no-ops.
    expire_gen: u64,
}

#[derive(Debug, Default)]
struct Tenant {
    queue_high: VecDeque<usize>,
    queue_norm: VecDeque<usize>,
    /// DRR deficit as of the end of pass `synced`; later passes, none of
    /// which started a job of this tenant, are applied by `sync`.
    deficit: u64,
    /// Consecutive ring visits that ended deficit-blocked, as of `synced`.
    stall: u32,
    synced: u64,
    /// The first pass whose visit finds the deficit covering the head
    /// job's cost (0 while out of the ring).
    ready: u64,
    /// Executors currently held by this tenant's sessions.
    held: u32,
    /// Idle (warm) session ids, lowest id reused first.
    idle: BTreeSet<u32>,
    report: TenantReport,
}

impl Tenant {
    fn queued(&self) -> usize {
        self.queue_high.len() + self.queue_norm.len()
    }

    fn peek(&self) -> Option<usize> {
        self.queue_high.front().or(self.queue_norm.front()).copied()
    }

    fn pop(&mut self) -> Option<usize> {
        self.queue_high
            .pop_front()
            .or_else(|| self.queue_norm.pop_front())
    }
}

#[derive(Debug)]
struct JobSt {
    attempt: u32,
    running: bool,
    done: bool,
}

/// End of a [`Ring`] list.
const NIL: u32 = u32::MAX;

/// The DRR ring: the tenants with queued jobs, in join order (a visit
/// never moves a tenant). An intrusive doubly-linked list over tenant
/// ids; joins are stamped from a counter, so ring order is stamp order.
#[derive(Debug)]
struct Ring {
    /// `(stamp, prev, next)` per tenant; stamp 0 = not in the ring.
    nodes: Vec<(u64, u32, u32)>,
    head: u32,
    tail: u32,
    joins: u64,
}

impl Ring {
    fn stamp(&self, tenant: u32) -> u64 {
        self.nodes[tenant as usize].0
    }

    fn push_back(&mut self, tenant: u32) {
        self.joins += 1;
        self.nodes[tenant as usize] = (self.joins, self.tail, NIL);
        match self.tail {
            NIL => self.head = tenant,
            tail => self.nodes[tail as usize].2 = tenant,
        }
        self.tail = tenant;
    }

    fn remove(&mut self, tenant: u32) {
        let (_, prev, next) = std::mem::replace(&mut self.nodes[tenant as usize], (0, NIL, NIL));
        match prev {
            NIL => self.head = next,
            prev => self.nodes[prev as usize].2 = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.nodes[next as usize].1 = prev,
        }
    }
}

/// The long-running front door over a shared executor fleet.
pub struct ServiceSim {
    cfg: ServiceConfig,
    cluster: Cluster,
    /// The one inner simulation every started job runs on: a
    /// one-machine cluster of `session_executors` executors under
    /// [`SimConfig::swift`], loaded with the job and run to quiescence.
    /// Loading rewinds it to its as-built state, so each job runs exactly
    /// as on a new simulation, without building one.
    inner: Simulation,
    /// The controller's one control-plane session: its template cache
    /// serves every job of the fleet.
    sched: SchedulerSession,
    workload: Vec<ServiceJob>,
    jobs: Vec<JobSt>,
    tenants: Vec<Tenant>,
    ring: Ring,
    /// DRR passes run so far.
    pass: u64,
    /// `(stamp, tenant)` of the ring tenants holding an idle session, in
    /// ring order.
    warm: Vec<(u64, u32)>,
    /// Every ring tenant's `ready` pass, plus stale entries (those that
    /// differ from their tenant's `ready`, which is 0 out of the ring).
    ready_at: BinaryHeap<Reverse<(u64, u32)>>,
    sessions: BTreeMap<u32, Session>,
    next_session: u32,
    q: ShardedEventQueue<Ev>,
    /// Telemetry frame boundaries (`None` = no counter frames).
    cadence: Option<Cadence>,
    queue_depth: u32,
    held_global: u32,
    registry: Registry,
    observer: Box<dyn ServiceObserver>,
    // ---- report accumulators ----
    submitted: u64,
    admitted: u64,
    rejected: u64,
    completed: u64,
    restarted: u64,
    warm_hits: u64,
    cold_starts: u64,
    sessions_expired: u64,
    sessions_killed: u64,
    peak_queue_depth: u32,
    max_deficit_stall: u32,
    latencies_us: Vec<u64>,
    makespan: SimTime,
    sim_events: u64,
    jobs_digest: Fnv64,
}

impl std::fmt::Debug for ServiceSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceSim")
            .field("jobs", &self.workload.len())
            .field("tenants", &self.tenants.len())
            .field("sessions", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

impl ServiceSim {
    /// Builds the service over a fresh fleet; all arrivals are scheduled
    /// up front from the workload's submit times.
    pub fn new(cfg: ServiceConfig, workload: Vec<ServiceJob>) -> Self {
        assert!(cfg.drr_quantum > 0, "DRR quantum must be positive");
        assert!(
            cfg.session_executors > 0 && cfg.session_executors <= cfg.tenant_quota,
            "a session ({} executors) must fit the tenant quota ({})",
            cfg.session_executors,
            cfg.tenant_quota
        );
        assert!(
            cfg.session_executors <= cfg.fleet_executors(),
            "a session ({} executors) must fit the fleet ({})",
            cfg.session_executors,
            cfg.fleet_executors()
        );
        let cluster = Cluster::new(
            cfg.machines,
            cfg.executors_per_machine,
            CostModel::default(),
        );
        let inner_cfg = SimConfig::swift();
        let mut sched = SchedulerSession::new(&inner_cfg.policy);
        let q = ShardedEventQueue::new(1, inner_cfg.shard_window);
        let inner = Simulation::new_in_session(
            Cluster::new(1, cfg.session_executors, cluster.cost().clone()),
            inner_cfg,
            Vec::new(),
            &mut sched,
        );
        let cadence = cfg.sample_every.map(Cadence::new);
        let tenant_count = workload.iter().map(|j| j.tenant + 1).max().unwrap_or(0);
        let mut tenants = Vec::with_capacity(tenant_count as usize);
        tenants.resize_with(tenant_count as usize, Tenant::default);
        let mut sim = ServiceSim {
            cfg,
            cluster,
            inner,
            sched,
            jobs: workload
                .iter()
                .map(|_| JobSt {
                    attempt: 0,
                    running: false,
                    done: false,
                })
                .collect(),
            workload,
            tenants,
            ring: Ring {
                nodes: vec![(0, NIL, NIL); tenant_count as usize],
                head: NIL,
                tail: NIL,
                joins: 0,
            },
            pass: 0,
            warm: Vec::new(),
            ready_at: BinaryHeap::new(),
            sessions: BTreeMap::new(),
            next_session: 0,
            q,
            cadence,
            queue_depth: 0,
            held_global: 0,
            registry: Registry::with_service_telemetry(),
            observer: Box::new(NullServiceObserver),
            submitted: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
            restarted: 0,
            warm_hits: 0,
            cold_starts: 0,
            sessions_expired: 0,
            sessions_killed: 0,
            peak_queue_depth: 0,
            max_deficit_stall: 0,
            latencies_us: Vec::new(),
            makespan: SimTime::ZERO,
            sim_events: 0,
            jobs_digest: Fnv64::new(),
        };
        for (i, job) in sim.workload.iter().enumerate() {
            sim.q.schedule(LANE, job.submit_at, Ev::Arrival(i));
        }
        sim
    }

    /// Installs the observer (replaces the default no-op one).
    pub fn set_observer(&mut self, observer: Box<dyn ServiceObserver>) {
        self.observer = observer;
    }

    /// Schedules permanent fleet machine failures. The surviving fleet
    /// must stay large enough to host at least one session, or admitted
    /// jobs strand (the run panics at quiesce).
    pub fn fail_machines(&mut self, failures: Vec<(SimTime, MachineId)>) {
        for (at, mid) in failures {
            assert!(mid.0 < self.cfg.machines, "machine {mid} outside the fleet");
            self.q.schedule(LANE, at, Ev::MachineFail(mid.0));
        }
    }

    /// Runs the loop to quiescence and returns the report plus the fleet
    /// template cache's counters.
    pub fn run(mut self) -> ServiceRun {
        let mut batch = Vec::new();
        while self.q.pop_batch_at_now(&mut batch) > 0 {
            let now = self.q.now();
            // Seal every window that ended at or before this batch, with
            // the state in force just before its boundary.
            while let Some(boundary) = self.cadence.as_mut().and_then(|c| c.due(now)) {
                self.sample(boundary);
            }
            for ev in batch.drain(..) {
                match ev {
                    Ev::Arrival(job) => self.on_arrival(now, job),
                    Ev::JobDone {
                        job,
                        session,
                        attempt,
                    } => self.on_job_done(now, job, session, attempt),
                    Ev::SessionExpire { session, gen } => self.on_session_expire(now, session, gen),
                    Ev::MachineFail(m) => self.on_machine_fail(now, MachineId(m)),
                }
            }
        }
        let now = self.q.now();
        self.finish(now)
    }

    // ---- event handlers ----

    fn on_arrival(&mut self, now: SimTime, job: usize) {
        let tenant = self.workload[job].tenant;
        self.submitted += 1;
        self.tenants[tenant as usize].report.submitted += 1;
        self.observer.on_job_submitted(now, job, tenant);
        if self.queue_depth >= self.cfg.queue_watermark {
            // Back-pressure: reject with a retry hint. Rejected jobs stay
            // accounted (submitted == admitted + rejected at quiesce) —
            // never silently dropped.
            self.rejected += 1;
            self.tenants[tenant as usize].report.rejected += 1;
            self.registry.add(metrics::SERVICE_JOBS_REJECTED, 1);
            self.observer
                .on_job_rejected(now, job, tenant, self.queue_depth, RETRY_AFTER);
            self.jobs[job].done = true;
            return;
        }
        self.admitted += 1;
        self.check_admission_invariants(tenant);
        self.enqueue(job, tenant, false);
        self.registry.add(metrics::SERVICE_JOBS_ADMITTED, 1);
        self.observer
            .on_job_admitted(now, job, tenant, self.queue_depth);
        self.tenants[tenant as usize].report.admitted += 1;
        self.dispatch(now);
    }

    /// The quota and back-pressure invariants, re-checked on **every**
    /// admission (the battery's live assertions, not test-only code).
    fn check_admission_invariants(&self, tenant: u32) {
        let t = &self.tenants[tenant as usize];
        assert!(
            t.held <= self.cfg.tenant_quota,
            "tenant {tenant} holds {} executors over quota {}",
            t.held,
            self.cfg.tenant_quota
        );
        assert!(
            self.held_global == self.cluster.busy_executor_count(),
            "session ledger ({}) out of sync with cluster busy count ({})",
            self.held_global,
            self.cluster.busy_executor_count()
        );
        assert!(
            self.queue_depth < self.cfg.queue_watermark,
            "admission at queue depth {} >= watermark {}",
            self.queue_depth,
            self.cfg.queue_watermark
        );
    }

    /// Queues an admitted (or requeued) job; requeues go to the front of
    /// their band so a failure victim is not re-penalized.
    fn enqueue(&mut self, job: usize, tenant: u32, front: bool) {
        let joining = self.ring.stamp(tenant) == 0;
        if !joining {
            // The head may change: settle the passes run on the old one.
            self.sync(tenant, self.pass);
        }
        let t = &mut self.tenants[tenant as usize];
        let q = match self.workload[job].priority {
            JobPriority::High => &mut t.queue_high,
            JobPriority::Normal => &mut t.queue_norm,
        };
        if front {
            q.push_front(job);
        } else {
            q.push_back(job);
        }
        self.queue_depth += 1;
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue_depth);
        // Only requeues may ride above the watermark: an admitted job's
        // failure restart is never dropped or re-rejected.
        assert!(
            u64::from(self.queue_depth) <= u64::from(self.cfg.queue_watermark) + self.restarted,
            "queue depth {} over watermark {} + restarts {}",
            self.queue_depth,
            self.cfg.queue_watermark,
            self.restarted
        );
        if joining {
            t.synced = self.pass;
            self.ring.push_back(tenant);
            self.index_warm(tenant);
        }
        self.file_ready(tenant);
    }

    fn on_job_done(&mut self, now: SimTime, job: usize, session: u32, attempt: u32) {
        if self.jobs[job].attempt != attempt {
            // The session died under this run (machine failure); the job
            // was already requeued and this completion is stale.
            return;
        }
        self.jobs[job].running = false;
        self.jobs[job].done = true;
        self.completed += 1;
        self.makespan = self.makespan.max(now);
        let tenant = self.workload[job].tenant;
        self.tenants[tenant as usize].report.completed += 1;
        self.registry.add(metrics::SERVICE_JOBS_COMPLETED, 1);
        self.observer.on_job_completed(now, job, tenant);

        let sess = self
            .sessions
            .get_mut(&session)
            .expect("completion on a live session");
        assert_eq!(sess.running, Some(job), "session/job binding out of sync");
        sess.running = None;
        if self.cfg.warm_pool {
            // Park the session warm and arm its idle TTL.
            sess.expire_gen += 1;
            let gen = sess.expire_gen;
            self.tenants[tenant as usize].idle.insert(session);
            self.index_warm(tenant);
            let ttl = self.cfg.session_ttl;
            self.q
                .schedule(LANE, now + ttl, Ev::SessionExpire { session, gen });
        } else {
            // Warm pooling off: the session retires with its job — a TTL
            // of zero, effectively — so it reports as an expiry and the
            // observer sees the executors released.
            let executors = sess.executors.len() as u32;
            self.destroy_session(session);
            self.sessions_expired += 1;
            self.observer
                .on_session_expired(now, tenant, session, executors);
        }
        self.dispatch(now);
    }

    fn on_session_expire(&mut self, now: SimTime, session: u32, gen: u64) {
        let Some(sess) = self.sessions.get(&session) else {
            return;
        };
        if sess.running.is_some() || sess.expire_gen != gen {
            return; // reused (or busy again) since this TTL was armed
        }
        let tenant = sess.tenant;
        let executors = sess.executors.len() as u32;
        self.tenants[tenant as usize].idle.remove(&session);
        self.index_warm(tenant);
        self.destroy_session(session);
        self.sessions_expired += 1;
        self.observer
            .on_session_expired(now, tenant, session, executors);
        self.dispatch(now);
    }

    fn on_machine_fail(&mut self, now: SimTime, mid: MachineId) {
        if self.cluster.machine(mid).health == MachineHealth::Failed {
            return;
        }
        self.observer.on_machine_failed(now, mid);
        let victims: BTreeSet<ExecutorId> = self.cluster.fail_machine(mid).into_iter().collect();
        let dead: Vec<u32> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.executors.iter().any(|e| victims.contains(e)))
            .map(|(&sid, _)| sid)
            .collect();
        for sid in dead {
            let (tenant, running) = {
                let sess = self.sessions.get(&sid).expect("session listed as dead");
                (sess.tenant, sess.running)
            };
            if let Some(job) = running {
                // The in-flight run is lost whole: bump the attempt so the
                // outstanding JobDone is recognized as stale, and put the
                // job back at the front of its band.
                self.jobs[job].attempt += 1;
                self.jobs[job].running = false;
                self.restarted += 1;
                self.tenants[tenant as usize].report.restarted += 1;
                self.enqueue(job, tenant, true);
                self.observer.on_job_requeued(now, job, tenant);
                self.sessions
                    .get_mut(&sid)
                    .expect("dead session is live")
                    .running = None;
            }
            self.tenants[tenant as usize].idle.remove(&sid);
            self.index_warm(tenant);
            let executors = self
                .sessions
                .get(&sid)
                .expect("dead session is live")
                .executors
                .len() as u32;
            self.destroy_session(sid);
            self.sessions_killed += 1;
            self.observer.on_session_killed(now, tenant, sid, executors);
        }
        self.dispatch(now);
    }

    /// Seals one telemetry frame stamped `at` from the current state; a
    /// no-op without a sampling cadence.
    fn sample(&mut self, at: SimTime) {
        let Some(cadence) = self.cadence else {
            return;
        };
        self.registry
            .set(metrics::SERVICE_QUEUE_DEPTH, u64::from(self.queue_depth));
        self.registry
            .set(metrics::SERVICE_EXECUTORS_HELD, u64::from(self.held_global));
        self.registry
            .set(metrics::SERVICE_ACTIVE_TENANTS, self.active_tenants());
        let frame = self.registry.sample(cadence.window(at));
        self.observer.on_sample(at, &frame);
    }

    fn active_tenants(&self) -> u64 {
        let mut running = vec![false; self.tenants.len()];
        for s in self.sessions.values() {
            if s.running.is_some() {
                running[s.tenant as usize] = true;
            }
        }
        self.tenants
            .iter()
            .zip(running)
            .filter(|(t, r)| t.queued() > 0 || *r)
            .count() as u64
    }

    // ---- dispatch ----

    /// Deficit round robin over the ring (DESIGN.md, "Service dispatch").
    /// Passes repeat while one starts a job; a visit that would start
    /// nothing is skipped and applied later by `sync`. After a pass that
    /// starts nothing, a tenant whose deficit covers its head job is
    /// resource-blocked and the loop stops (an event that frees a session
    /// re-enters here); if there is none, the passes before the earliest
    /// `ready` one would start nothing either and are jumped over.
    fn dispatch(&mut self, now: SimTime) {
        while self.ring.head != NIL {
            self.pass += 1;
            if self.run_pass(now, self.pass) {
                continue;
            }
            let earliest = self.earliest_ready();
            if earliest <= self.pass {
                return;
            }
            self.pass = earliest - 1;
        }
    }

    /// Visits, in ring order, every tenant that can start its head job in
    /// `pass`: it is `ready` and holds an idle session, or has quota room
    /// while the fleet has a session free. Starts only take room, so a
    /// tenant passed over stays unable all pass. Returns whether one did.
    fn run_pass(&mut self, now: SimTime, pass: u64) -> bool {
        let se = self.cfg.session_executors;
        let mut started = false;
        // The stamp of the last tenant passed.
        let mut last = 0;
        let mut next = self.ring.head;
        while next != NIL && self.cluster.free_executor_count() >= se {
            let tenant = next;
            next = self.ring.nodes[tenant as usize].2;
            last = self.ring.stamp(tenant);
            let t = &self.tenants[tenant as usize];
            if t.ready <= pass && (!t.idle.is_empty() || t.held + se <= self.cfg.tenant_quota) {
                self.visit(now, tenant, pass);
                started = true;
            }
        }
        if next == NIL {
            return started;
        }
        // The fleet is full: only the rest of the ring's warm tenants can.
        while let Some(&(stamp, tenant)) = self
            .warm
            .get(self.warm.partition_point(|&(s, _)| s <= last))
        {
            last = stamp;
            if self.tenants[tenant as usize].ready <= pass {
                self.visit(now, tenant, pass);
                started = true;
            }
        }
        started
    }

    /// Visits `tenant` in `pass`, which the caller checked can start its
    /// head job: banks a quantum, then starts head jobs while the deficit
    /// covers their cost and a session is acquirable.
    fn visit(&mut self, now: SimTime, tenant: u32, pass: u64) {
        self.sync(tenant, pass - 1);
        let ti = tenant as usize;
        self.tenants[ti].deficit += self.cfg.drr_quantum;
        let mut started = false;
        while let Some(job) = self.tenants[ti].peek() {
            let cost = self.workload[job].cost.max(1);
            if self.tenants[ti].deficit < cost {
                break;
            }
            let Some(session) = self.acquire_session(tenant) else {
                break;
            };
            let popped = self.tenants[ti].pop();
            debug_assert_eq!(popped, Some(job));
            self.queue_depth -= 1;
            self.tenants[ti].deficit -= cost;
            self.start_job(now, job, tenant, session);
            started = true;
        }
        debug_assert!(started, "a visited tenant starts a job");
        let t = &mut self.tenants[ti];
        t.synced = pass;
        t.stall = 0;
        if t.queued() == 0 {
            t.deficit = 0;
            t.ready = 0;
            if let Ok(i) = self.warm.binary_search(&(self.ring.stamp(tenant), tenant)) {
                self.warm.remove(i);
            }
            self.ring.remove(tenant);
        } else {
            self.file_ready(tenant);
        }
    }

    /// Applies passes `synced + 1 ..= pass` to ring tenant `tenant` as
    /// visits that started nothing: each banks a quantum and, while the
    /// deficit is short of the head job's cost, counts a stall.
    fn sync(&mut self, tenant: u32, pass: u64) {
        let need = self.need(tenant);
        let t = &mut self.tenants[tenant as usize];
        let n = pass - t.synced;
        t.stall += (need - 1).min(n) as u32;
        t.deficit += self.cfg.drr_quantum * n;
        t.synced = pass;
        self.max_deficit_stall = self.max_deficit_stall.max(t.stall);
    }

    /// Passes, at least one, until ring tenant `tenant`'s synced deficit
    /// covers its head job's cost.
    fn need(&self, tenant: u32) -> u64 {
        let t = &self.tenants[tenant as usize];
        let job = t.peek().expect("a ring tenant has a job");
        let short = self.workload[job].cost.max(1).saturating_sub(t.deficit);
        short.div_ceil(self.cfg.drr_quantum).max(1)
    }

    /// Recomputes ring tenant `tenant`'s `ready` pass and files a change
    /// in `ready_at`, compacting the heap when stale entries pile up.
    fn file_ready(&mut self, tenant: u32) {
        let ready = self.tenants[tenant as usize].synced + self.need(tenant);
        let t = &mut self.tenants[tenant as usize];
        if ready == t.ready {
            return;
        }
        t.ready = ready;
        self.ready_at.push(Reverse((ready, tenant)));
        if self.ready_at.len() > 2 * self.tenants.len() + 64 {
            let tenants = &self.tenants;
            self.ready_at
                .retain(|&Reverse((r, t))| tenants[t as usize].ready == r);
        }
    }

    /// The earliest `ready` pass of any ring tenant (the ring is not
    /// empty); drops the stale entries on top of `ready_at`.
    fn earliest_ready(&mut self) -> u64 {
        while let Some(&Reverse((ready, tenant))) = self.ready_at.peek() {
            if self.tenants[tenant as usize].ready == ready {
                return ready;
            }
            self.ready_at.pop();
        }
        unreachable!("every ring tenant has a ready pass filed");
    }

    /// Files or unfiles `tenant` in `warm` after its ring membership or
    /// idle set changed.
    fn index_warm(&mut self, tenant: u32) {
        let key = (self.ring.stamp(tenant), tenant);
        let want = key.0 != 0 && !self.tenants[tenant as usize].idle.is_empty();
        match (self.warm.binary_search(&key), want) {
            (Err(i), true) => self.warm.insert(i, key),
            (Ok(i), false) => {
                self.warm.remove(i);
            }
            _ => {}
        }
    }

    /// Reuses the tenant's lowest-id warm session, or registers a cold
    /// one within quota and fleet capacity. `Some((id, warm))`; `None`
    /// when the tenant is at its quota or the fleet is short.
    fn acquire_session(&mut self, tenant: u32) -> Option<(u32, bool)> {
        if self.cfg.warm_pool {
            if let Some(sid) = self.tenants[tenant as usize].idle.pop_first() {
                self.index_warm(tenant);
                let sess = self.sessions.get_mut(&sid).expect("idle session is live");
                // Warm-pool isolation: a session is only ever handed back
                // to the tenant that registered it.
                assert_eq!(sess.tenant, tenant, "warm session leaked across tenants");
                assert!(sess.running.is_none(), "idle session had a running job");
                sess.expire_gen += 1;
                return Some((sid, true));
            }
        }
        let t = &self.tenants[tenant as usize];
        if t.held + self.cfg.session_executors > self.cfg.tenant_quota
            || self.cluster.free_executor_count() < self.cfg.session_executors
        {
            return None;
        }
        let executors = self.cluster.allocate_many(self.cfg.session_executors, &[]);
        assert_eq!(
            executors.len() as u32,
            self.cfg.session_executors,
            "fleet allocation came up short despite the free-count check"
        );
        let sid = self.next_session;
        self.next_session += 1;
        self.tenants[tenant as usize].held += self.cfg.session_executors;
        self.held_global += self.cfg.session_executors;
        self.sessions.insert(
            sid,
            Session {
                tenant,
                executors,
                running: None,
                expire_gen: 0,
            },
        );
        Some((sid, false))
    }

    /// Releases a session's surviving executors. Caller removes it from
    /// `idle`.
    fn destroy_session(&mut self, sid: u32) {
        let sess = self
            .sessions
            .remove(&sid)
            .expect("destroying a live session");
        assert!(sess.running.is_none(), "destroying a session mid-run");
        for eid in &sess.executors {
            // Executors on a failed machine were already revoked by
            // `fail_machine`; only pooled (still-busy) ones go back.
            if self.cluster.executor(*eid).state == ExecutorState::Busy {
                self.cluster.release(*eid);
            }
        }
        let n = sess.executors.len() as u32;
        self.tenants[sess.tenant as usize].held -= n;
        self.held_global -= n;
    }

    /// Starts `job` on the acquired session: pays the warm/cold dispatch
    /// delay, loads the job into the one inner simulation and runs it
    /// (with the `job_sim_observer` observer, if any, for this run only),
    /// and schedules the completion at the run's makespan.
    fn start_job(&mut self, now: SimTime, job: usize, tenant: u32, (sid, warm): (u32, bool)) {
        if warm {
            self.warm_hits += 1;
            self.tenants[tenant as usize].report.warm_hits += 1;
            self.registry.add(metrics::SERVICE_WARM_HITS, 1);
            self.observer.on_session_warm_hit(now, job, tenant, sid);
        } else {
            self.cold_starts += 1;
            self.tenants[tenant as usize].report.cold_starts += 1;
            self.registry.add(metrics::SERVICE_COLD_STARTS, 1);
            self.observer
                .on_session_cold_start(now, job, tenant, sid, self.cfg.session_executors);
        }
        let delay = if warm {
            self.cfg.warm_dispatch_delay
        } else {
            self.cfg.cold_start_delay
        };
        let start_at = now + delay;
        self.latencies_us.push(
            start_at
                .saturating_since(self.workload[job].submit_at)
                .as_micros(),
        );

        let spec = JobSpec::at_zero(self.workload[job].dag.clone());
        let inner_obs = self.observer.job_sim_observer(job, tenant);
        self.sessions
            .get_mut(&sid)
            .expect("acquired session is live")
            .running = Some(job);
        self.inner.load([spec], &mut self.sched);
        if let Some(obs) = inner_obs {
            self.inner.set_observer(obs);
        }
        let report = self.inner.run_loaded();
        self.sim_events += report.events_processed;
        // Any inner behavioral change surfaces in the service digest.
        self.jobs_digest.eat(report.digest());
        self.observer.on_job_report(now, job, tenant, &report);
        let runtime = report.makespan.saturating_since(SimTime::ZERO);
        self.jobs[job].running = true;
        let attempt = self.jobs[job].attempt;
        self.q.schedule(
            LANE,
            start_at + runtime,
            Ev::JobDone {
                job,
                session: sid,
                attempt,
            },
        );
    }

    // ---- quiesce ----

    fn finish(mut self, now: SimTime) -> ServiceRun {
        // Drain surviving warm sessions (TTL events normally get here
        // first; this covers very long TTLs) so held-executor accounting
        // can be checked against an empty fleet.
        let leftover: Vec<u32> = self.sessions.keys().copied().collect();
        for sid in leftover {
            let sess = &self.sessions[&sid];
            let (tenant, executors) = (sess.tenant, sess.executors.len() as u32);
            self.tenants[tenant as usize].idle.remove(&sid);
            self.destroy_session(sid);
            self.sessions_expired += 1;
            self.observer
                .on_session_expired(now, tenant, sid, executors);
        }
        assert_eq!(self.held_global, 0, "executors still held at quiesce");
        assert_eq!(
            self.cluster.busy_executor_count(),
            0,
            "cluster busy executors at quiesce"
        );
        assert_eq!(
            self.submitted,
            self.admitted + self.rejected,
            "admission accounting leak"
        );
        assert!(
            self.completed == self.admitted,
            "service quiesced with {} of {} admitted jobs stranded",
            self.admitted - self.completed,
            self.admitted
        );
        assert_eq!(self.queue_depth, 0, "queued jobs at quiesce");
        assert!(
            self.jobs.iter().all(|j| j.done && !j.running),
            "job state leak at quiesce"
        );
        // Final sealing frame at quiesce time.
        self.sample(now);
        let events = self.q.processed();
        self.observer.on_service_finished(now, events);
        let report = ServiceReport {
            jobs_submitted: self.submitted,
            jobs_admitted: self.admitted,
            jobs_rejected: self.rejected,
            jobs_completed: self.completed,
            jobs_restarted: self.restarted,
            warm_hits: self.warm_hits,
            cold_starts: self.cold_starts,
            sessions_expired: self.sessions_expired,
            sessions_killed: self.sessions_killed,
            peak_queue_depth: self.peak_queue_depth,
            max_deficit_stall: self.max_deficit_stall,
            sched_latency: LatencySummary::from_samples(self.latencies_us),
            makespan: self.makespan,
            events,
            sim_events: self.sim_events,
            jobs_digest: self.jobs_digest.finish(),
            tenants: self.tenants.into_iter().map(|t| t.report).collect(),
        };
        let templates = self.sched.template_stats();
        ServiceRun {
            report,
            template_lookups: templates.lookups,
            template_hits: templates.hits(),
        }
    }
}
