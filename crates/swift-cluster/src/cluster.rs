//! The cluster container: allocation, release, health transitions.

use crate::cost::CostModel;
use crate::ids::{ExecutorId, MachineId};
use crate::machine::{Executor, ExecutorState, Machine, MachineHealth};
use swift_shuffle::CacheWorkerMemory;

/// Bucketed-bitset index of schedulable machines keyed by free-executor
/// count: `buckets[c]` holds a bit per machine with exactly `c` free
/// executors. Allocation's "most free machine, ties to highest id" query
/// is then one word-scan of the highest nonempty bucket, and the per-task
/// maintenance (a machine moving between adjacent buckets) is two bit
/// flips — replacing the `BTreeSet<(free, MachineId)>` whose node
/// rebalancing dominated `allocate`/`release` profiles.
///
/// This is a pure cache over machine state: [`Cluster::allocate`]
/// cross-checks its answer against a naive scan in debug builds.
#[derive(Debug)]
struct FreeIndex {
    /// `buckets[c]` = bitset over machine ids with exactly `c` free
    /// executors (index 0 unused: fully-busy machines are absent).
    buckets: Vec<Vec<u64>>,
    /// Machines per bucket, to maintain `max_bucket`.
    counts: Vec<u32>,
    /// Highest `c` with a nonempty bucket; 0 when nothing is free.
    max_bucket: usize,
}

impl FreeIndex {
    fn new(machines: u32, max_free: u32) -> Self {
        let words = (machines as usize).div_ceil(64);
        FreeIndex {
            buckets: vec![vec![0u64; words]; max_free as usize + 1],
            counts: vec![0; max_free as usize + 1],
            max_bucket: 0,
        }
    }

    /// Empties every bucket, keeping the buffers.
    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.fill(0);
        }
        self.counts.fill(0);
        self.max_bucket = 0;
    }

    fn insert(&mut self, free: u32, mid: MachineId) {
        let c = free as usize;
        let word = &mut self.buckets[c][mid.index() / 64];
        let bit = 1u64 << (mid.index() % 64);
        debug_assert_eq!(*word & bit, 0, "machine {mid} already in bucket {c}");
        *word |= bit;
        self.counts[c] += 1;
        self.max_bucket = self.max_bucket.max(c);
    }

    fn remove(&mut self, free: u32, mid: MachineId) {
        let c = free as usize;
        let word = &mut self.buckets[c][mid.index() / 64];
        let bit = 1u64 << (mid.index() % 64);
        debug_assert_ne!(*word & bit, 0, "machine {mid} not in bucket {c}");
        *word &= !bit;
        self.counts[c] -= 1;
        while self.max_bucket > 0 && self.counts[self.max_bucket] == 0 {
            self.max_bucket -= 1;
        }
    }

    /// The machine with the most free executors, ties broken toward the
    /// highest machine id — the exact order the old `(free, id)` set's
    /// `next_back` produced.
    fn most_free(&self) -> Option<MachineId> {
        if self.max_bucket == 0 {
            return None;
        }
        for (w, &word) in self.buckets[self.max_bucket].iter().enumerate().rev() {
            if word != 0 {
                let b = 63 - word.leading_zeros() as usize;
                return Some(MachineId((w * 64 + b) as u32));
            }
        }
        unreachable!("counts say bucket {} is nonempty", self.max_bucket)
    }
}

/// A simulated cluster of machines, each hosting a fixed number of
/// pre-launched Swift Executors and one Cache Worker.
///
/// Allocation follows the paper's placement rule (§III-A2): prefer the
/// requested locality machines, otherwise pick the most free machine, so
/// load spreads and "scheduling flock" is avoided.
#[derive(Debug)]
pub struct Cluster {
    machines: Vec<Machine>,
    executors: Vec<Executor>,
    cost: CostModel,
    /// Schedulable machines with free executors, bucketed by free count.
    free_index: FreeIndex,
    total_free: u32,
    /// Executors on `Healthy` machines (maintained counter; the naive
    /// derivation is the debug cross-check in `live_executor_count`).
    live: u32,
    /// Executors in state `Busy` (same discipline).
    busy: u32,
}

impl Cluster {
    /// Builds a cluster of `machines` machines with `executors_per_machine`
    /// executors each, using `cost` for every derived timing.
    pub fn new(machines: u32, executors_per_machine: u32, cost: CostModel) -> Self {
        assert!(
            machines > 0 && executors_per_machine > 0,
            "cluster must be non-empty"
        );
        let capacity = CostModel::CACHE_WORKER_CAPACITY;
        let ms = (0..machines)
            .map(|m| Machine {
                id: MachineId(m),
                first_executor: m * executors_per_machine,
                executor_count: executors_per_machine,
                health: MachineHealth::Healthy,
                free: Vec::with_capacity(executors_per_machine as usize),
                cache: CacheWorkerMemory::new(capacity),
                recent_task_failures: 0,
            })
            .collect();
        let es = (0..machines * executors_per_machine)
            .map(|e| Executor {
                id: ExecutorId(e),
                machine: MachineId(e / executors_per_machine),
                state: ExecutorState::Idle,
            })
            .collect();
        let mut cluster = Cluster {
            machines: ms,
            executors: es,
            cost,
            free_index: FreeIndex::new(machines, executors_per_machine),
            total_free: 0,
            live: 0,
            busy: 0,
        };
        cluster.reset();
        cluster
    }

    /// Puts the cluster back in its as-built state without reallocating:
    /// every machine healthy with an empty Cache Worker, every executor
    /// idle, each machine's free stack in build order, and the free index
    /// and counters to match. [`Cluster::new`] sets its initial state
    /// here too, so a reset cluster hands out executors exactly as a new
    /// one does.
    pub fn reset(&mut self) {
        self.free_index.clear();
        let mut total = 0;
        for m in &mut self.machines {
            m.health = MachineHealth::Healthy;
            // LIFO stack: lowest relative index allocated first.
            m.free.clear();
            m.free.extend((0..m.executor_count).rev());
            m.cache = CacheWorkerMemory::new(CostModel::CACHE_WORKER_CAPACITY);
            m.recent_task_failures = 0;
            self.free_index.insert(m.executor_count, m.id);
            total += m.executor_count;
        }
        for e in &mut self.executors {
            e.state = ExecutorState::Idle;
        }
        self.total_free = total;
        self.live = total;
        self.busy = 0;
    }

    /// The cluster's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Number of machines.
    pub fn machine_count(&self) -> u32 {
        self.machines.len() as u32
    }

    /// Number of executors (all states).
    pub fn executor_count(&self) -> u32 {
        self.executors.len() as u32
    }

    /// Executors currently free (idle on healthy machines).
    pub fn free_executor_count(&self) -> u32 {
        self.total_free
    }

    /// Executors on healthy (schedulable) machines — the capacity a gang
    /// can ever hope to hold at once. Shrinks as machines fail or drain
    /// read-only; the scheduler must size gangs against this, not against
    /// [`Cluster::executor_count`], or a gang sized for the original
    /// cluster deadlocks after a crash. O(1): a maintained counter,
    /// cross-checked against the machine scan in debug builds.
    pub fn live_executor_count(&self) -> u32 {
        debug_assert_eq!(
            self.live,
            self.machines
                .iter()
                .filter(|m| m.health == MachineHealth::Healthy)
                .map(|m| m.executor_count)
                .sum::<u32>(),
            "live-executor counter drifted from machine state"
        );
        self.live
    }

    /// Executors currently running tasks — the paper's resource-utilization
    /// indicator (Fig. 10 plots this over time). O(1): a maintained
    /// counter, cross-checked against the executor scan in debug builds.
    pub fn busy_executor_count(&self) -> u32 {
        debug_assert_eq!(
            self.busy,
            self.executors
                .iter()
                .filter(|e| e.state == ExecutorState::Busy)
                .count() as u32,
            "busy-executor counter drifted from executor state"
        );
        self.busy
    }

    /// Immutable access to a machine.
    pub fn machine(&self, id: MachineId) -> &Machine {
        &self.machines[id.index()]
    }

    /// Bytes staged across all Cache Workers (memory and disk) — the
    /// shuffle store occupancy the counter-sample telemetry reports.
    /// O(machines); only called at counter-window boundaries.
    pub fn cache_live_bytes(&self) -> u64 {
        self.machines.iter().map(|m| m.cache.live_bytes()).sum()
    }

    /// Mutable access to a machine's Cache Worker accounting.
    pub fn cache_mut(&mut self, id: MachineId) -> &mut swift_shuffle::CacheWorkerMemory {
        &mut self.machines[id.index()].cache
    }

    /// Immutable access to an executor.
    pub fn executor(&self, id: ExecutorId) -> &Executor {
        &self.executors[id.index()]
    }

    /// The machine hosting `executor`.
    pub fn machine_of(&self, executor: ExecutorId) -> MachineId {
        self.executors[executor.index()].machine
    }

    /// Allocates one executor, preferring the `locality` machines (§III-A2:
    /// data locality first, then machine load — the most free machine).
    /// Returns `None` when no healthy machine has a free executor.
    pub fn allocate(&mut self, locality: &[MachineId]) -> Option<ExecutorId> {
        // Locality pass: among the preferred machines, pick the one with
        // most free executors (load consideration within the preference).
        let mut best: Option<(u32, MachineId)> = None;
        for &mid in locality {
            let Some(m) = self.machines.get(mid.index()) else {
                continue;
            };
            if m.schedulable() && m.free_executors() > 0 {
                let key = (m.free_executors(), mid);
                if best.is_none_or(|b| key > b) {
                    best = Some(key);
                }
            }
        }
        let target = match best {
            Some((_, mid)) => mid,
            // Most free machine overall.
            None => {
                let mid = self.free_index.most_free();
                debug_assert_eq!(
                    mid,
                    self.machines
                        .iter()
                        .filter(|m| m.schedulable() && m.free_executors() > 0)
                        .map(|m| (m.free_executors(), m.id))
                        .max()
                        .map(|(_, id)| id),
                    "free-index most-free disagrees with naive machine scan"
                );
                mid?
            }
        };
        self.take_from(target)
    }

    /// Allocates up to `n` executors (partial results possible), locality
    /// preferences applied to each.
    pub fn allocate_many(&mut self, n: u32, locality: &[MachineId]) -> Vec<ExecutorId> {
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            match self.allocate(locality) {
                Some(e) => out.push(e),
                None => break,
            }
        }
        out
    }

    fn take_from(&mut self, mid: MachineId) -> Option<ExecutorId> {
        let m = &mut self.machines[mid.index()];
        let old_free = m.free_executors();
        let rel = m.free.pop()?;
        let eid = ExecutorId(m.first_executor + rel);
        self.executors[eid.index()].state = ExecutorState::Busy;
        self.free_index.remove(old_free, mid);
        if old_free > 1 {
            self.free_index.insert(old_free - 1, mid);
        }
        self.total_free -= 1;
        self.busy += 1;
        Some(eid)
    }

    /// Returns a busy executor to the pool (task finished). On `ReadOnly`
    /// machines the executor is *revoked* instead of pooled — the paper's
    /// draining rule ("Executors on read-only machines will keep running
    /// until no more task is left unfinished in them. Then, the resources
    /// are revoked.").
    pub fn release(&mut self, eid: ExecutorId) {
        let ex = &mut self.executors[eid.index()];
        assert_eq!(
            ex.state,
            ExecutorState::Busy,
            "release of non-busy executor {eid}"
        );
        self.busy -= 1;
        let mid = ex.machine;
        let m = &mut self.machines[mid.index()];
        match m.health {
            MachineHealth::Healthy => {
                ex.state = ExecutorState::Idle;
                let old_free = m.free_executors();
                m.free.push(eid.0 - m.first_executor);
                if old_free > 0 {
                    self.free_index.remove(old_free, mid);
                }
                self.free_index.insert(old_free + 1, mid);
                self.total_free += 1;
            }
            MachineHealth::ReadOnly | MachineHealth::Failed => {
                ex.state = ExecutorState::Revoked;
            }
        }
    }

    /// Fails a machine: all its executors are revoked immediately. Returns
    /// the executors that were busy (their tasks need failure recovery).
    pub fn fail_machine(&mut self, mid: MachineId) -> Vec<ExecutorId> {
        let m = &mut self.machines[mid.index()];
        if m.health == MachineHealth::Failed {
            return Vec::new();
        }
        let old_free = m.free_executors();
        if m.health == MachineHealth::Healthy {
            if old_free > 0 {
                self.free_index.remove(old_free, mid);
                self.total_free -= old_free;
            }
            self.live -= m.executor_count;
        }
        m.health = MachineHealth::Failed;
        m.free.clear();
        let mut lost = Vec::new();
        for e in 0..m.executor_count {
            let eid = ExecutorId(m.first_executor + e);
            let ex = &mut self.executors[eid.index()];
            if ex.state == ExecutorState::Busy {
                lost.push(eid);
                self.busy -= 1;
            }
            ex.state = ExecutorState::Revoked;
        }
        lost
    }

    /// Marks a machine read-only (§IV-A: an unhealthy machine stops taking
    /// new tasks; running tasks drain). Its free executors are revoked at
    /// once; busy ones are revoked as they release.
    pub fn mark_read_only(&mut self, mid: MachineId) {
        let m = &mut self.machines[mid.index()];
        if m.health != MachineHealth::Healthy {
            return;
        }
        let old_free = m.free_executors();
        if old_free > 0 {
            self.free_index.remove(old_free, mid);
            self.total_free -= old_free;
        }
        self.live -= m.executor_count;
        for &rel in &m.free {
            self.executors[(m.first_executor + rel) as usize].state = ExecutorState::Revoked;
        }
        m.free.clear();
        m.health = MachineHealth::ReadOnly;
    }

    /// Brings a failed or read-only machine back as healthy with all
    /// executors idle (simulating repair + executor re-launch).
    pub fn revive_machine(&mut self, mid: MachineId) {
        let m = &mut self.machines[mid.index()];
        if m.health == MachineHealth::Healthy {
            return;
        }
        m.health = MachineHealth::Healthy;
        m.free = (0..m.executor_count).rev().collect();
        for e in 0..m.executor_count {
            let ex = &mut self.executors[(m.first_executor + e) as usize];
            if ex.state == ExecutorState::Busy {
                // A draining (read-only) machine may still have busy
                // executors; revival re-launches everything idle.
                self.busy -= 1;
            }
            ex.state = ExecutorState::Idle;
        }
        self.free_index.insert(m.executor_count, mid);
        self.total_free += m.executor_count;
        self.live += m.executor_count;
    }

    /// Iterates over all machines.
    pub fn machines(&self) -> impl Iterator<Item = &Machine> {
        self.machines.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cluster {
        Cluster::new(4, 3, CostModel::default())
    }

    #[test]
    fn initial_pool_is_fully_free() {
        let c = small();
        assert_eq!(c.machine_count(), 4);
        assert_eq!(c.executor_count(), 12);
        assert_eq!(c.free_executor_count(), 12);
        assert_eq!(c.busy_executor_count(), 0);
    }

    #[test]
    fn allocate_prefers_locality() {
        let mut c = small();
        let e = c.allocate(&[MachineId(2)]).unwrap();
        assert_eq!(c.machine_of(e), MachineId(2));
        assert_eq!(c.free_executor_count(), 11);
    }

    #[test]
    fn allocate_without_locality_picks_most_free() {
        let mut c = small();
        // Drain machine 0 down to 1 free; fresh machines have 3.
        let a = c.allocate(&[MachineId(0)]).unwrap();
        let b = c.allocate(&[MachineId(0)]).unwrap();
        assert_eq!(c.machine_of(a), MachineId(0));
        assert_eq!(c.machine_of(b), MachineId(0));
        // Most free is now machine 1/2/3 (3 free each); ties break by id —
        // the index's most_free is the largest (3, m3).
        let e = c.allocate(&[]).unwrap();
        assert_eq!(c.machine_of(e), MachineId(3));
    }

    #[test]
    fn locality_falls_back_when_preferred_full() {
        let mut c = small();
        for _ in 0..3 {
            c.allocate(&[MachineId(1)]).unwrap();
        }
        let e = c.allocate(&[MachineId(1)]).unwrap();
        assert_ne!(c.machine_of(e), MachineId(1));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut c = small();
        let got = c.allocate_many(100, &[]);
        assert_eq!(got.len(), 12);
        assert!(c.allocate(&[]).is_none());
        assert_eq!(c.free_executor_count(), 0);
        assert_eq!(c.busy_executor_count(), 12);
    }

    #[test]
    fn release_returns_to_pool() {
        let mut c = small();
        let e = c.allocate(&[]).unwrap();
        c.release(e);
        assert_eq!(c.free_executor_count(), 12);
        assert_eq!(c.executor(e).state, ExecutorState::Idle);
    }

    #[test]
    fn fail_machine_revokes_and_reports_busy() {
        let mut c = small();
        let e0 = c.allocate(&[MachineId(0)]).unwrap();
        let lost = c.fail_machine(MachineId(0));
        assert_eq!(lost, vec![e0]);
        assert_eq!(c.free_executor_count(), 9);
        assert_eq!(c.live_executor_count(), 9);
        assert_eq!(c.busy_executor_count(), 0);
        assert!(c.allocate(&[MachineId(0)]).map(|e| c.machine_of(e)) != Some(MachineId(0)));
        // Idempotent.
        assert!(c.fail_machine(MachineId(0)).is_empty());
        assert_eq!(c.live_executor_count(), 9);
    }

    #[test]
    fn read_only_drains() {
        let mut c = small();
        let e = c.allocate(&[MachineId(1)]).unwrap();
        c.mark_read_only(MachineId(1));
        assert_eq!(c.live_executor_count(), 9);
        assert_eq!(c.busy_executor_count(), 1);
        // No new allocations on m1.
        for _ in 0..8 {
            let got = c.allocate(&[MachineId(1)]).unwrap();
            assert_ne!(c.machine_of(got), MachineId(1));
        }
        // The busy executor keeps running; on release it is revoked, not pooled.
        c.release(e);
        assert_eq!(c.executor(e).state, ExecutorState::Revoked);
        assert_eq!(c.busy_executor_count(), 8);
    }

    #[test]
    fn revive_restores_full_capacity() {
        let mut c = small();
        c.allocate(&[MachineId(0)]).unwrap();
        c.fail_machine(MachineId(0));
        c.revive_machine(MachineId(0));
        assert_eq!(c.free_executor_count(), 12);
        assert_eq!(c.live_executor_count(), 12);
        let e = c.allocate(&[MachineId(0)]).unwrap();
        assert_eq!(c.machine_of(e), MachineId(0));
    }

    #[test]
    fn revive_of_draining_machine_resets_busy_count() {
        let mut c = small();
        let e = c.allocate(&[MachineId(1)]).unwrap();
        c.mark_read_only(MachineId(1));
        assert_eq!(c.busy_executor_count(), 1);
        // Revive while a task is still draining: everything re-launches
        // idle, so the busy counter must drop with the executor states.
        c.revive_machine(MachineId(1));
        assert_eq!(c.busy_executor_count(), 0);
        assert_eq!(c.executor(e).state, ExecutorState::Idle);
        assert_eq!(c.free_executor_count(), 12);
    }

    /// After allocations, releases, a crash, a drain and Cache Worker
    /// inserts, `reset` leaves the cluster indistinguishable from a new
    /// one: same counts, empty caches, and the same executors handed out
    /// in the same order.
    #[test]
    fn reset_matches_a_fresh_cluster() {
        let build = || Cluster::new(5, 3, CostModel::default());
        let mut c = build();
        let held = c.allocate_many(7, &[MachineId(1)]);
        c.release(held[2]);
        c.release(held[5]);
        c.fail_machine(MachineId(3));
        c.mark_read_only(MachineId(1));
        let key = swift_shuffle::SegmentKey {
            job: 9,
            edge: 0,
            producer: 1,
            partition: 0,
        };
        c.cache_mut(MachineId(0)).insert(key, 4 << 20, 2);
        c.cache_mut(MachineId(4)).insert(key, 1 << 10, 1);
        assert!(c.cache_live_bytes() > 0);
        c.reset();
        let mut fresh = build();
        let counts = |c: &Cluster| {
            (
                c.free_executor_count(),
                c.live_executor_count(),
                c.busy_executor_count(),
                c.cache_live_bytes(),
            )
        };
        assert_eq!(counts(&c), counts(&fresh));
        assert_eq!(counts(&c), (15, 15, 0, 0));
        for m in c.machines() {
            assert_eq!(m.health, MachineHealth::Healthy);
            assert_eq!(m.cache.segment_count(), 0);
        }
        for (n, locality) in [
            (2, vec![]),
            (4, vec![MachineId(3)]),
            (5, vec![MachineId(1), MachineId(0)]),
            (9, vec![]),
        ] {
            assert_eq!(
                c.allocate_many(n, &locality),
                fresh.allocate_many(n, &locality)
            );
            assert_eq!(counts(&c), counts(&fresh));
        }
    }

    #[test]
    fn free_index_stays_consistent_under_churn() {
        let mut c = Cluster::new(8, 4, CostModel::default());
        let mut held = Vec::new();
        for round in 0..50 {
            if round % 3 == 0 && !held.is_empty() {
                c.release(held.pop().unwrap());
            } else if let Some(e) = c.allocate(&[]) {
                held.push(e);
            }
            let free_sum: u32 = c
                .machines()
                .filter(|m| m.schedulable())
                .map(|m| m.free_executors())
                .sum();
            assert_eq!(free_sum, c.free_executor_count());
        }
    }

    #[test]
    fn counters_stay_consistent_under_fault_churn() {
        // Mixed allocate/release/fail/revive churn; the debug_assert
        // cross-checks inside the count accessors do the real checking.
        let mut c = Cluster::new(9, 3, CostModel::default());
        let mut held: Vec<ExecutorId> = Vec::new();
        for round in 0u32..120 {
            match round % 7 {
                0 | 1 | 4 => {
                    if let Some(e) = c.allocate(&[]) {
                        held.push(e);
                    }
                }
                2 => {
                    if let Some(e) = held.pop() {
                        if c.executor(e).state == ExecutorState::Busy {
                            c.release(e);
                        }
                    }
                }
                3 => {
                    // Held executors on the failed machine become Revoked;
                    // the Busy guard in the release arm skips them.
                    c.fail_machine(MachineId(round % 9));
                }
                5 => c.mark_read_only(MachineId((round + 3) % 9)),
                _ => c.revive_machine(MachineId((round + 1) % 9)),
            }
            let live = c.live_executor_count();
            let busy = c.busy_executor_count();
            let free = c.free_executor_count();
            assert!(free + busy <= c.executor_count());
            assert!(live <= c.executor_count());
        }
    }
}
