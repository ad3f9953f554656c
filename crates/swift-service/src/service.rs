//! The service control loop: admission, DRR dispatch, warm sessions.
//!
//! [`ServiceSim`] is a second deterministic event loop layered *above*
//! the per-job `swift-scheduler` simulation: arrivals, admission-control
//! decisions, deficit-round-robin dispatch across tenants, warm-session
//! lifecycle and fleet machine failures all advance on one heap ordered
//! by `(SimTime, sequence)`. Each dispatched job runs as a complete inner
//! [`Simulation`] on its session's executors; the inner run's makespan
//! decides when the service sees the job complete. Same `(workload,
//! config)` — byte-identical [`ServiceReport`], across shard counts and
//! the templates flag.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use swift_cluster::{Cluster, CostModel, ExecutorId, ExecutorState, MachineHealth, MachineId};
use swift_metrics as metrics;
use swift_metrics::Registry;
use swift_scheduler::{JobSpec, SchedulerSession, SimConfig, Simulation};
use swift_sim::{Fnv64, SimDuration, SimTime};
use swift_workload::{JobPriority, ServiceJob};

use crate::config::ServiceConfig;
use crate::observer::{NullServiceObserver, ServiceObserver};
use crate::report::{LatencySummary, ServiceReport, ServiceRun, TenantReport};

/// Service-loop event. Ordering is irrelevant (the heap key is
/// `(time, seq)` with unique sequence numbers); the derives only satisfy
/// the tuple's `Ord` bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Job `jobs[i]` arrives at the front door.
    Arrival(usize),
    /// The inner simulation of `job` (started as `attempt`) finished on
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
    /// Seal a telemetry window.
    Sample,
}

/// Why a dispatch attempt could not start a job.
enum Block {
    /// The tenant is at its executor quota with no warm session idle.
    Quota,
    /// The shared fleet has fewer free executors than a session needs.
    Cluster,
}

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
    deficit: u64,
    /// Executors currently held by this tenant's sessions.
    held: u32,
    in_ring: bool,
    /// Consecutive ring visits that ended deficit-blocked.
    stall: u32,
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

/// The long-running front door over a shared executor fleet.
pub struct ServiceSim {
    cfg: ServiceConfig,
    cluster: Cluster,
    /// Config of every inner per-job simulation.
    inner_cfg: SimConfig,
    /// The controller's one control-plane session: its template cache
    /// serves every job of the fleet.
    sched: SchedulerSession,
    workload: Vec<ServiceJob>,
    jobs: Vec<JobSt>,
    tenants: Vec<Tenant>,
    ring: VecDeque<u32>,
    sessions: BTreeMap<u32, Session>,
    /// Idle (warm) session ids per tenant, lowest id reused first.
    idle: BTreeMap<u32, BTreeSet<u32>>,
    next_session: u32,
    heap: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    seq: u64,
    /// Non-`Sample` events outstanding (keeps sampling from running
    /// forever after the last real event).
    pending_core: u64,
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
    events: u64,
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
        let mut inner_cfg = SimConfig::swift();
        inner_cfg.shards = cfg.shards;
        let sched = SchedulerSession::new(&inner_cfg.policy);
        let tenant_count = workload.iter().map(|j| j.tenant + 1).max().unwrap_or(0);
        let mut tenants = Vec::with_capacity(tenant_count as usize);
        tenants.resize_with(tenant_count as usize, Tenant::default);
        let mut sim = ServiceSim {
            cfg,
            cluster,
            inner_cfg,
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
            ring: VecDeque::new(),
            sessions: BTreeMap::new(),
            idle: BTreeMap::new(),
            next_session: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            pending_core: 0,
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
            events: 0,
            sim_events: 0,
            jobs_digest: Fnv64::new(),
        };
        for i in 0..sim.workload.len() {
            let at = sim.workload[i].submit_at;
            sim.push(at, Ev::Arrival(i));
        }
        if let Some(d) = sim.cfg.sample_every {
            assert!(d > SimDuration::ZERO, "sampling window must be positive");
            sim.push_sample(SimTime::ZERO + d);
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
            self.push(at, Ev::MachineFail(mid.0));
        }
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        if !matches!(ev, Ev::Sample) {
            self.pending_core += 1;
        }
        self.heap.push(Reverse((at, self.seq, ev)));
        self.seq += 1;
    }

    fn push_sample(&mut self, at: SimTime) {
        self.heap.push(Reverse((at, self.seq, Ev::Sample)));
        self.seq += 1;
    }

    /// Runs the loop to quiescence and returns the report plus template
    /// counters (kept out of the report so its bytes are invariant to
    /// [`ServiceConfig::templates`]).
    pub fn run(mut self) -> ServiceRun {
        let mut now = SimTime::ZERO;
        while let Some(Reverse((at, _, ev))) = self.heap.pop() {
            debug_assert!(at >= now, "service event loop went backwards");
            now = at;
            self.events += 1;
            if !matches!(ev, Ev::Sample) {
                self.pending_core -= 1;
            }
            match ev {
                Ev::Arrival(job) => self.on_arrival(now, job),
                Ev::JobDone {
                    job,
                    session,
                    attempt,
                } => {
                    self.on_job_done(now, job, session, attempt);
                }
                Ev::SessionExpire { session, gen } => self.on_session_expire(now, session, gen),
                Ev::MachineFail(m) => self.on_machine_fail(now, MachineId(m)),
                Ev::Sample => self.on_sample(now),
            }
        }
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
                .on_job_rejected(now, job, tenant, self.queue_depth, self.cfg.retry_after);
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
        if !t.in_ring {
            t.in_ring = true;
            self.ring.push_back(tenant);
        }
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
            self.idle.entry(tenant).or_default().insert(session);
            let ttl = self.cfg.session_ttl;
            self.push(now + ttl, Ev::SessionExpire { session, gen });
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
        self.idle.entry(tenant).or_default().remove(&session);
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
            self.idle.entry(tenant).or_default().remove(&sid);
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

    fn on_sample(&mut self, now: SimTime) {
        let window = self
            .cfg
            .sample_every
            .expect("sample event without a cadence");
        self.registry
            .set(metrics::SERVICE_QUEUE_DEPTH, u64::from(self.queue_depth));
        self.registry
            .set(metrics::SERVICE_EXECUTORS_HELD, u64::from(self.held_global));
        self.registry
            .set(metrics::SERVICE_ACTIVE_TENANTS, self.active_tenants());
        let frame = self
            .registry
            .sample(now.as_micros() / window.as_micros().max(1));
        self.observer.on_sample(now, &frame);
        if self.pending_core > 0 {
            self.push_sample(now + window);
        }
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

    /// Deficit round robin over the active-tenant ring. Each visit banks
    /// one quantum, then dispatches head jobs while the deficit covers
    /// their cost and a session is acquirable. Passes repeat while
    /// progress is made or every blocker was deficit-shaped (deficits
    /// grow each pass, so that converges); a pass blocked on resources
    /// stops — a `JobDone` or `SessionExpire` event is pending and will
    /// re-enter here.
    fn dispatch(&mut self, now: SimTime) {
        loop {
            if self.ring.is_empty() {
                return;
            }
            let mut dispatched = false;
            let mut resource_blocked = false;
            let mut deficit_blocked = false;
            for _ in 0..self.ring.len() {
                let tenant = self
                    .ring
                    .pop_front()
                    .expect("ring non-empty within rotation");
                self.tenants[tenant as usize].deficit += self.cfg.drr_quantum;
                let mut progressed = false;
                let mut deficit_here = false;
                while let Some(job) = self.tenants[tenant as usize].peek() {
                    let cost = self.workload[job].cost.max(1);
                    if self.tenants[tenant as usize].deficit < cost {
                        deficit_blocked = true;
                        deficit_here = true;
                        break;
                    }
                    match self.acquire_session(tenant) {
                        Ok(session) => {
                            let popped = self.tenants[tenant as usize].pop();
                            debug_assert_eq!(popped, Some(job));
                            self.queue_depth -= 1;
                            self.tenants[tenant as usize].deficit -= cost;
                            self.start_job(now, job, tenant, session);
                            dispatched = true;
                            progressed = true;
                        }
                        Err(_block) => {
                            resource_blocked = true;
                            break;
                        }
                    }
                }
                let t = &mut self.tenants[tenant as usize];
                if progressed {
                    t.stall = 0;
                } else if deficit_here {
                    t.stall += 1;
                    self.max_deficit_stall = self.max_deficit_stall.max(t.stall);
                }
                if t.queued() == 0 {
                    t.in_ring = false;
                    t.deficit = 0;
                    t.stall = 0;
                } else {
                    self.ring.push_back(tenant);
                }
            }
            if !dispatched && (resource_blocked || !deficit_blocked) {
                return;
            }
        }
    }

    /// Reuses the tenant's lowest-id warm session, or registers a cold
    /// one within quota and fleet capacity. `Ok((id, warm))`.
    fn acquire_session(&mut self, tenant: u32) -> Result<(u32, bool), Block> {
        if self.cfg.warm_pool {
            let warm = self
                .idle
                .get(&tenant)
                .and_then(|s| s.iter().next().copied());
            if let Some(sid) = warm {
                self.idle
                    .get_mut(&tenant)
                    .expect("idle set exists")
                    .remove(&sid);
                let sess = self.sessions.get_mut(&sid).expect("idle session is live");
                // Warm-pool isolation: a session is only ever handed back
                // to the tenant that registered it.
                assert_eq!(sess.tenant, tenant, "warm session leaked across tenants");
                assert!(sess.running.is_none(), "idle session had a running job");
                sess.expire_gen += 1;
                return Ok((sid, true));
            }
        }
        let t = &self.tenants[tenant as usize];
        if t.held + self.cfg.session_executors > self.cfg.tenant_quota {
            return Err(Block::Quota);
        }
        if self.cluster.free_executor_count() < self.cfg.session_executors {
            return Err(Block::Cluster);
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
        Ok((sid, false))
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
    /// delay, runs the inner simulation, and schedules the completion.
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

        let inner_cluster =
            Cluster::new(1, self.cfg.session_executors, self.cluster.cost().clone());
        let spec = JobSpec::at_zero(self.workload[job].dag.clone());
        let inner_obs = self.observer.job_sim_observer(job, tenant);
        self.sessions
            .get_mut(&sid)
            .expect("acquired session is live")
            .running = Some(job);
        // `inner_cfg.templates` stays off: passing the session is the opt-in.
        let inner_cfg = self.inner_cfg.clone();
        let mut sim = if self.cfg.templates {
            Simulation::new_in_session(inner_cluster, inner_cfg, vec![spec], &mut self.sched)
        } else {
            Simulation::new(inner_cluster, inner_cfg, vec![spec])
        };
        if let Some(obs) = inner_obs {
            sim.set_observer(obs);
        }
        let report = sim.run();
        self.sim_events += report.events_processed;
        // Any inner behavioral change surfaces in the service digest.
        self.jobs_digest.eat(report.digest());
        self.observer.on_job_report(now, job, tenant, &report);
        let runtime = report.makespan.saturating_since(SimTime::ZERO);
        self.jobs[job].running = true;
        let attempt = self.jobs[job].attempt;
        self.push(
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
            self.idle.entry(tenant).or_default().remove(&sid);
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
        if self.cfg.sample_every.is_some() {
            // Final sealing frame at quiesce time.
            self.on_sample(now);
        }
        self.observer.on_service_finished(now, self.events);
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
            events: self.events,
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
