//! What a run reports beyond its events: the periodic [`CounterSample`]
//! and the Cache Worker shadow model, which stages memory-shuffled
//! segments in each machine's cache accounting while an observer asks for
//! it. Neither changes a scheduling decision, a timing or the report.

use super::Simulation;
use crate::event::SimEvent;
use std::collections::BTreeMap;
use swift_cluster::MachineId;
use swift_dag::{StageId, TaskId};
use swift_shuffle::SegmentKey;

/// A periodic snapshot of the simulator's live control-plane depths,
/// delivered through [`crate::SimObserver::on_counter_sample`] at `SimTime`
/// window boundaries. Every field is read directly off maintained
/// simulator state (no scans beyond the pending-request queue), so
/// sampling is cheap and — being driven purely by simulated time —
/// deterministic. Cumulative fields (`events_processed`, template
/// lookup totals) let the observer derive per-window deltas that
/// telescope integer-exactly to the end-of-run `RunReport` values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSample {
    /// Events pending in the simulator's queue.
    pub event_queue_depth: u64,
    /// Total events processed so far (cumulative; equals
    /// `RunReport::events_processed` on the final sample).
    pub events_processed: u64,
    /// Gang requests waiting in the pending queue.
    pub pending_requests: u64,
    /// Tasks queued across all pending gang requests.
    pub pending_gang_tasks: u64,
    /// Jobs that are currently in wave mode.
    pub wave_jobs: u64,
    /// Executors on schedulable machines.
    pub live_executors: u64,
    /// Executors currently running a task.
    pub busy_executors: u64,
    /// Entries in the scheduling-template cache once this run's jobs
    /// were admitted (the session's entries, for
    /// [`Simulation::new_in_session`] and [`Simulation::load`]).
    pub template_entries: u64,
    /// Template-cache hits among this run's admissions (cumulative;
    /// every lookup happens when the workload is loaded).
    pub template_hits: u64,
    /// Template-cache misses among this run's admissions.
    pub template_misses: u64,
    /// Bytes staged across all Cache Workers (the shadow model's store
    /// occupancy; 0 unless [`crate::SimObserver::wants_cache_model`]).
    pub cache_store_bytes: u64,
}

impl Simulation {
    /// Builds and delivers one [`CounterSample`] off maintained state.
    /// Every source is either O(1) or O(pending requests); the pending
    /// queue is short by construction (requests drain on every release).
    pub(super) fn emit_counter_sample(&mut self) {
        let Some(obs) = self.observer.as_deref_mut() else {
            return;
        };
        let sample = CounterSample {
            event_queue_depth: self.q.pending() as u64,
            events_processed: self.q.processed(),
            pending_requests: self.reqs.len() as u64,
            pending_gang_tasks: self.reqs.iter().map(|r| r.tasks.len() as u64).sum(),
            wave_jobs: self.wave_jobs.len() as u64,
            live_executors: u64::from(self.cluster.live_executor_count()),
            busy_executors: u64::from(self.cluster.busy_executor_count()),
            template_entries: self.template_entries,
            template_hits: self.template_hits,
            template_misses: self.template_misses,
            cache_store_bytes: self.cluster.cache_live_bytes(),
        };
        obs.on_counter_sample(self.q.now(), &sample);
    }

    /// Consumer side: the starting task reads every memory-staged input
    /// segment of `stage` from the machines the site map names; the bytes
    /// each machine releases are reported in ascending machine order.
    pub(super) fn cache_model_consume(&mut self, job: usize, stage: StageId) {
        let mut reads: Vec<(MachineId, SegmentKey)> = Vec::new();
        let j = &self.jobs[job];
        for d in j
            .schemes
            .iter()
            .filter(|d| d.dst == stage && d.memory_staged())
        {
            for p in 0..j.dag.stage(d.src).task_count {
                if let Some(&mach) = self.cache_sites.get(&(job as u32, d.edge, p)) {
                    let key = SegmentKey {
                        job: job as u64,
                        edge: d.edge,
                        producer: p,
                        partition: 0,
                    };
                    reads.push((mach, key));
                }
            }
        }
        let mut freed: BTreeMap<MachineId, u64> = BTreeMap::new();
        for (mach, key) in reads {
            let cw = self.cluster.cache_mut(mach);
            let before = cw.live_bytes();
            cw.consume(key);
            let released = before - cw.live_bytes();
            if released > 0 {
                *freed.entry(mach).or_insert(0) += released;
                self.cache_sites
                    .remove(&(job as u32, key.edge, key.producer));
            }
        }
        for (mach, bytes) in freed {
            self.emit(|_| SimEvent::CacheEvict {
                machine: mach.0,
                bytes,
            });
        }
    }

    /// Producer side: a finished task stages one segment per memory-staged
    /// out-edge in its machine's Cache Worker, reporting a stale copy a
    /// previous attempt left on another machine as evicted and the LRU
    /// spills as one event.
    pub(super) fn cache_model_insert(&mut self, job: usize, tid: TaskId, mach: MachineId) {
        let mut spilled_bytes = 0u64;
        let mut spilled_segs = 0u32;
        for k in 0..self.jobs[job].schemes.len() {
            let j = &self.jobs[job];
            let d = j.schemes[k];
            if d.src != tid.stage || !d.memory_staged() {
                continue;
            }
            let bytes = j.dag.stage(d.src).profile.output_bytes_per_task.max(1);
            let consumers = j.dag.stage(d.dst).task_count;
            let key = SegmentKey {
                job: job as u64,
                edge: d.edge,
                producer: tid.index,
                partition: 0,
            };
            let site = (job as u32, d.edge, tid.index);
            if let Some(&old) = self.cache_sites.get(&site) {
                if old != mach {
                    if let Some((_, bytes)) = self.cluster.cache_mut(old).evict(key) {
                        self.emit(|_| SimEvent::CacheEvict {
                            machine: old.0,
                            bytes,
                        });
                    }
                }
            }
            let out = self.cluster.cache_mut(mach).insert(key, bytes, consumers);
            for &(_, b) in &out.spilled {
                spilled_bytes += b;
                spilled_segs += 1;
            }
            self.cache_sites.insert(site, mach);
        }
        if spilled_segs > 0 {
            self.emit(|_| SimEvent::CacheSpill {
                machine: mach.0,
                bytes: spilled_bytes,
                segments: spilled_segs,
            });
        }
    }

    /// Drops every staged segment of `job` (completion, abort or restart),
    /// reporting the bytes each machine releases.
    pub(super) fn cache_model_drop_job(&mut self, job: usize) {
        if !self.obs_cache_model {
            return;
        }
        let mut machines: Vec<MachineId> = self
            .cache_sites
            .iter()
            .filter(|&(&(j, _, _), _)| j == job as u32)
            .map(|(_, &m)| m)
            .collect();
        machines.sort_unstable_by_key(|m| m.0);
        machines.dedup();
        self.cache_sites.retain(|&(j, _, _), _| j != job as u32);
        for m in machines {
            let bytes = self.cluster.cache_mut(m).drop_job(job as u64);
            if bytes > 0 {
                self.emit(|_| SimEvent::CacheEvict {
                    machine: m.0,
                    bytes,
                });
            }
        }
    }
}
