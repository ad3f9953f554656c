//! The Resource Scheduler (§II-C): units become resource requests in the
//! FIFO ReqItem queue, and the queue drains with gang semantics — a head
//! request is served only when it fits entirely — or in waves when a gang
//! is larger than the whole cluster.

use super::job::Phase;
use super::observer::GraphletState;
use super::{Event, Simulation, LANE};
use crate::config::Submission;
use crate::event::SimEvent;
use swift_cluster::{CostModel, MachineId};

#[derive(Clone, Debug)]
pub(super) struct Request {
    pub(super) job: usize,
    pub(super) tasks: Vec<u32>,
    /// The graphlet this request gang-schedules, when it is a whole-unit
    /// submission (`None` for recovery re-runs and wave remainders). Used
    /// only for observer gang-wait bookkeeping.
    pub(super) unit: Option<u32>,
    /// The owning job's `phase_epoch` at the last moment `tasks` was known
    /// to contain only `Pending` tasks ([`u64::MAX`] = unknown).
    pub(super) pruned_at: u64,
}

/// The [`SimEvent::GangWaitEnded`] of `job`'s unit `unit`.
fn gang_wait_ended(job: usize, unit: u32, tasks: u32, wave: bool) -> SimEvent {
    SimEvent::GangWaitEnded {
        job: job as u32,
        unit,
        tasks,
        wave,
    }
}

impl Simulation {
    /// A recycled (or fresh) empty task-list buffer.
    pub(super) fn pooled_vec(&mut self) -> Vec<u32> {
        self.vec_pool.pop().unwrap_or_default()
    }

    /// Returns a task-list buffer to the pool for reuse.
    pub(super) fn recycle_vec(&mut self, mut v: Vec<u32>) {
        v.clear();
        if self.vec_pool.len() < 64 {
            self.vec_pool.push(v);
        }
    }

    /// Queues `tasks` of `job`, all `Pending`, as one request stamped with
    /// the job's phase epoch: at the head of the queue when `front`, at
    /// the tail otherwise. An empty list goes back to the pool instead.
    /// Returns whether a request was queued.
    pub(super) fn enqueue(
        &mut self,
        job: usize,
        tasks: Vec<u32>,
        unit: Option<u32>,
        front: bool,
    ) -> bool {
        if tasks.is_empty() {
            self.recycle_vec(tasks);
            return false;
        }
        let req = Request {
            job,
            tasks,
            unit,
            pruned_at: self.jobs[job].phase_epoch,
        };
        if front {
            self.reqs.push_front(req);
        } else {
            self.reqs.push_back(req);
        }
        true
    }

    /// Checks whether any not-yet-submitted unit of job `i` became
    /// submittable; queues its resource request if so.
    pub(super) fn evaluate_units(&mut self, i: usize) {
        if self.jobs[i].done() {
            return;
        }
        // Reused scratch buffer (taken so handler calls below may not
        // observe it mid-use).
        let mut newly = std::mem::take(&mut self.scratch_units);
        newly.clear();
        let j = &self.jobs[i];
        newly.extend((0..j.plan.len() as u32).filter(|&u| {
            !j.unit_submitted[u as usize]
                && match self.cfg.policy.submission {
                    Submission::AllInputsReady => j
                        .plan
                        .upstream_stages(&j.dag, u)
                        .all(|s| j.stages[s.index()].complete),
                    Submission::FirstStageReady => j.plan.units[u as usize]
                        .stages
                        .iter()
                        .any(|&s| j.dag.predecessors(s).all(|p| j.stages[p.index()].complete)),
                }
        }));
        for &u in &newly {
            let mut tasks = self.pooled_vec();
            let j = &mut self.jobs[i];
            // Follow-up graphlets of an already-running job are handled
            // with priority (the Event Processor's high-priority lane for
            // resource-assignment events, §II-C) — otherwise every
            // graphlet boundary would re-queue the job behind all newer
            // arrivals.
            let continuation = j.unit_submitted.iter().any(|&s| s);
            j.unit_submitted[u as usize] = true;
            tasks.extend(
                j.plan.units[u as usize]
                    .stages
                    .iter()
                    .flat_map(|&s| {
                        let st = &j.stages[s.index()];
                        st.offset..st.offset + j.dag.stage(s).task_count
                    })
                    .filter(|&f| j.tasks[f as usize].phase == Phase::Pending),
            );
            let gang = tasks.len() as u32;
            if self.enqueue(i, tasks, Some(u), continuation) {
                let job = i as u32;
                self.emit(|sim| SimEvent::GraphletState {
                    job,
                    unit: u,
                    state: GraphletState::Submitted,
                    stages: sim.jobs[i].plan.units[u as usize]
                        .stages
                        .iter()
                        .map(|s| s.index() as u32)
                        .collect(),
                });
                self.emit(|_| SimEvent::GangWaitStarted {
                    job,
                    unit: u,
                    tasks: gang,
                });
            }
        }
        self.scratch_units = newly;
        self.kick();
    }

    pub(super) fn kick(&mut self) {
        if !self.try_pending && !self.reqs.is_empty() {
            self.try_pending = true;
            self.q.schedule_now(LANE, Event::TrySchedule);
        }
    }

    /// FIFO ReqItem queue draining with gang semantics: the head request is
    /// served only when it fits entirely (the paper's gang scheduling per
    /// unit); a gang larger than the whole cluster is served in waves so it
    /// can still make progress.
    pub(super) fn drain_requests(&mut self) {
        let mut evicted_once = false;
        while let Some(front) = self.reqs.front_mut() {
            let job = front.job;
            if self.jobs[job].done() {
                let req = self.reqs.pop_front().expect("front exists");
                self.recycle_vec(req.tasks);
                continue;
            }
            // Prune the head request to its still-Pending tasks, in place.
            // A request stamped with the job's current phase epoch is
            // already pruned (no task of the job changed phase since), so
            // the common saturated-cluster revisit is O(1), not O(tasks).
            let epoch = self.jobs[job].phase_epoch;
            if front.pruned_at == epoch {
                debug_assert!(
                    front
                        .tasks
                        .iter()
                        .all(|&f| self.jobs[job].tasks[f as usize].phase == Phase::Pending),
                    "stamped request holds a non-Pending task: stale phase_epoch"
                );
            } else {
                let tasks_st = &self.jobs[job].tasks;
                front
                    .tasks
                    .retain(|&f| tasks_st[f as usize].phase == Phase::Pending);
                front.pruned_at = epoch;
            }
            let free = self.cluster.free_executor_count();
            let need = front.tasks.len() as u32;
            if need <= free {
                // The gang fits and is served whole. A queued unit request
                // whose tasks were all superseded (recovery re-routed them)
                // dissolves the same way, with nothing to place.
                let req = self.reqs.pop_front().expect("front exists");
                if let Some(u) = req.unit {
                    self.emit(|_| gang_wait_ended(job, u, need, false));
                }
                self.assign(job, &req.tasks);
                self.recycle_vec(req.tasks);
            } else if need > self.cluster.live_executor_count() && free > 0 {
                // Oversized gang: serve in waves, with per-task release so
                // later waves can ever run. Only tasks whose inputs are
                // already available join a wave — parking a downstream
                // task on an executor while its producers still wait for
                // resources can deadlock the whole cluster.
                let mut req = self.reqs.pop_front().expect("front exists");
                let mut wave = self.pooled_vec();
                // One pass: the first `free` startable tasks form the
                // wave; everything else stays in the request, in order.
                let mut kept = 0;
                for i in 0..req.tasks.len() {
                    let f = req.tasks[i];
                    let stage = self.jobs[job].task_id(f).stage;
                    if wave.len() < free as usize && self.stage_inputs_ready(job, stage) {
                        wave.push(f);
                    } else {
                        req.tasks[kept] = f;
                        kept += 1;
                    }
                }
                req.tasks.truncate(kept);
                if wave.is_empty() {
                    self.recycle_vec(wave);
                    self.reqs.push_front(req);
                    // Every startable task of this gang is placed; wait
                    // for one of its stages to complete.
                    if !evicted_once && self.evict_blocked_wave_tasks() {
                        evicted_once = true;
                        continue;
                    }
                    break;
                }
                let j = &mut self.jobs[job];
                let unit = j.plan.unit_of(j.task_id(wave[0]).stage) as usize;
                j.unit_wave_mode[unit] = true;
                if let Err(at) = self.wave_jobs.binary_search(&job) {
                    self.wave_jobs.insert(at, job);
                }
                // The gang wait ends when the first wave starts; the
                // remainder request keeps draining without gang semantics.
                if let Some(u) = req.unit.take() {
                    let gang = wave.len() as u32;
                    self.emit(|_| gang_wait_ended(job, u, gang, true));
                }
                if req.tasks.is_empty() {
                    self.recycle_vec(req.tasks);
                } else {
                    self.reqs.push_front(req);
                }
                self.assign(job, &wave);
                self.recycle_vec(wave);
                break;
            } else {
                // The head gang does not fit. Normally a running task will
                // release capacity eventually; but if the cluster is fully
                // parked on wave-mode tasks that cannot start (their
                // producers died after their wave was formed), nothing
                // ever would — reclaim those executors first.
                if free == 0 && !evicted_once && self.evict_blocked_wave_tasks() {
                    evicted_once = true;
                    continue;
                }
                break;
            }
        }
    }

    /// Reclaims executors parked on wave-mode tasks whose inputs are not
    /// ready (e.g. a producer that completed before the wave was formed
    /// was later lost to a failure). The evicted tasks return to the back
    /// of the request queue; bumping their epoch cancels any in-flight
    /// plan delivery. Returns whether anything was reclaimed.
    fn evict_blocked_wave_tasks(&mut self) -> bool {
        // Only jobs that ever entered wave mode can hold blocked wave
        // tasks (`unit_wave_mode` is sticky), so the maintained `wave_jobs`
        // index replaces the all-jobs scan. Ascending order matches the
        // old scan's eviction order.
        #[cfg(debug_assertions)]
        for (job, j) in self.jobs.iter().enumerate() {
            debug_assert!(
                self.wave_jobs.binary_search(&job).is_ok() || j.unit_wave_mode.iter().all(|&w| !w),
                "job {job} has a wave-mode unit but is missing from the wave_jobs index"
            );
        }
        let mut reclaimed = false;
        // Eviction never adds a wave job, so the index is stable here.
        for k in 0..self.wave_jobs.len() {
            let job = self.wave_jobs[k];
            if self.jobs[job].done() {
                continue;
            }
            let mut blocked = self.pooled_vec();
            let j = &self.jobs[job];
            blocked.extend((0..j.tasks.len() as u32).filter(|&flat| {
                let stage = j.task_id(flat).stage;
                j.tasks[flat as usize].phase == Phase::Assigned
                    && j.unit_wave_mode[j.plan.unit_of(stage) as usize]
                    && !self.stage_inputs_ready(job, stage)
            }));
            for &flat in &blocked {
                let j = &mut self.jobs[job];
                let t = &mut j.tasks[flat as usize];
                t.epoch += 1;
                t.phase = Phase::Pending;
                t.plan_delivered = false;
                j.phase_epoch += 1;
                reclaimed |= self.free_executor(job, flat, false).is_some();
            }
            self.enqueue(job, blocked, None, false);
        }
        reclaimed
    }

    /// Places the tasks `flats` of `job` on free executors, preferring the
    /// machines their stage's data lives on, and sends each its plan.
    fn assign(&mut self, job: usize, flats: &[u32]) {
        let now = self.q.now();
        let overhead = CostModel::SWIFT_SCHEDULE_OVERHEAD;
        let mut locality = std::mem::take(&mut self.scratch_locality);
        for &flat in flats {
            let tid = self.jobs[job].task_id(flat);
            locality.clear();
            locality.extend(
                self.jobs[job]
                    .dag
                    .stage(tid.stage)
                    .profile
                    .locality
                    .iter()
                    .map(|&m| MachineId(m)),
            );
            let Some(exec) = self.cluster.allocate(&locality) else {
                // Should not happen (count checked), but stay robust:
                // requeue the remainder.
                let mut rest = self.pooled_vec();
                rest.extend(
                    flats
                        .iter()
                        .copied()
                        .filter(|f| self.jobs[job].tasks[*f as usize].phase == Phase::Pending),
                );
                self.enqueue(job, rest, None, true);
                break;
            };
            let j = &mut self.jobs[job];
            let t = &mut j.tasks[flat as usize];
            t.phase = Phase::Assigned;
            t.executor = Some(exec);
            t.plan_delivered = false;
            let epoch = t.epoch;
            j.phase_epoch += 1;
            let launch = j.stages[tid.stage.index()].phases.launch;
            self.exec_owner[exec.index()] = Some((job as u32, flat));
            let job = job as u32;
            self.q.schedule(
                LANE,
                now + overhead + launch,
                Event::PlanReady { job, flat, epoch },
            );
            self.emit(|_| SimEvent::TaskAssigned {
                job,
                task: tid.into(),
                epoch,
                executor: exec.0,
            });
        }
        self.scratch_locality = locality;
    }

    /// Closes the gang waits of `job`'s still-queued unit requests: the
    /// job is completing, aborting or restarting, so those waits can never
    /// be served. Observer bookkeeping only — the stale requests themselves
    /// are dropped by the caller (restart) or discarded when the drain loop
    /// reaches them (terminal states).
    pub(super) fn close_queued_gang_waits(&mut self, job: usize) {
        if self.observer.is_none() {
            return;
        }
        let mut units: Vec<u32> = self
            .reqs
            .iter()
            .filter(|r| r.job == job)
            .filter_map(|r| r.unit)
            .collect();
        units.sort_unstable();
        for u in units {
            self.emit(|_| gang_wait_ended(job, u, 0, false));
        }
    }
}
