//! The engine driver: runs an [`EngineJob`] on real data, moving every
//! shuffle payload through a real Cache Worker store (bounded memory, LRU
//! spill to a log file) and recovering injected task failures through the same
//! `swift-ft` planner the cluster simulation uses.
//!
//! Execution is stage-wise in topological order (tasks of a stage run
//! concurrently on scoped threads). Graphlet structure still governs the
//! data path: pipeline consumers read segments their gang-mates produced,
//! barrier consumers pull staged segments "later" — in both cases through
//! the [`CacheWorkerStore`], which is exactly the Local/Remote Shuffle
//! data path of §III-B. Timing effects of gang scheduling are the
//! simulator's job (`swift-scheduler`); the engine demonstrates
//! *correctness* of the operator set, the shuffle store and the
//! recovery logic on real rows.

use crate::batch::{hash_keys, index, Batch};
use crate::codec::{decode, encode};
use crate::error::{EngineError, Result};
use crate::plan::{EngineJob, OutputPartitioning, StagePlan};
use crate::task::run_batches;
use crate::value::{Catalog, Row};
use std::collections::HashSet;
use std::sync::Arc;
use swift_dag::{partition, StageId, TaskId};
use swift_ft::{plan_recovery, ExecutionSnapshot, FailureKind, TaskRunState};
use swift_shuffle::bytes::Bytes;
use swift_shuffle::{CacheWorkerStore, SegmentKey};

/// Options controlling one engine run.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Tasks that fail (once) on their first attempt — failure-injection
    /// hooks for exercising §IV-B recovery on real data.
    pub fail_once: Vec<TaskId>,
    /// Maximum attempts per task before giving up (0 means default of 3).
    pub max_attempts: u32,
}

/// Counters from one engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of graphlets the job partitioned into.
    pub graphlets: usize,
    /// Task executions, including recovery re-runs.
    pub tasks_run: u64,
    /// Task executions that were recovery re-runs.
    pub recovered_tasks: u64,
    /// Bytes moved through the shuffle store.
    pub shuffled_bytes: u64,
    /// Bytes the Cache Worker spilled to disk under memory pressure.
    pub spilled_bytes: u64,
}

/// Result of one engine run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The sink stage's output rows (concatenated across sink tasks in
    /// task order, so a `Single`-partitioned sorted sink stays sorted).
    pub rows: Vec<Row>,
    /// Execution counters.
    pub stats: RunStats,
}

/// A multi-threaded local execution engine for Swift operator DAGs.
#[derive(Debug)]
pub struct Engine {
    catalog: Arc<Catalog>,
    cache_capacity: u64,
}

impl Engine {
    /// Creates an engine over `catalog` with a 256 MiB Cache Worker.
    pub fn new(catalog: Catalog) -> Self {
        Engine {
            catalog: Arc::new(catalog),
            cache_capacity: 256 << 20,
        }
    }

    /// Overrides the Cache Worker memory capacity (small values force real
    /// LRU spill — see the spill tests and the cache-pressure ablation).
    pub fn with_cache_capacity(mut self, bytes: u64) -> Self {
        self.cache_capacity = bytes;
        self
    }

    /// The engine's table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Runs `job` and returns the sink rows.
    pub fn run(&self, job: &EngineJob) -> Result<Vec<Row>> {
        Ok(self.run_with(job, RunOptions::default())?.rows)
    }

    /// Runs `job` with failure injection / recovery options.
    pub fn run_with(&self, job: &EngineJob, opts: RunOptions) -> Result<RunOutcome> {
        job.validate()?;
        let dag = &job.dag;
        let part = partition(dag);
        let store = CacheWorkerStore::new(self.cache_capacity)?;
        let job_key = dag.job_id.raw();
        let max_attempts = if opts.max_attempts == 0 {
            3
        } else {
            opts.max_attempts
        };

        let mut stats = RunStats {
            graphlets: part.len(),
            ..RunStats::default()
        };
        let mut sink: Vec<(u32, Batch)> = Vec::new();
        let mut finished: HashSet<TaskId> = HashSet::new();
        // Injection bookkeeping: a listed task fails exactly once.
        let mut pending_failures: HashSet<TaskId> = opts.fail_once.iter().copied().collect();

        for &stage_id in dag.topo_order() {
            let stage = dag.stage(stage_id);
            let plan = &job.plans[stage_id.index()];
            let mut to_run: Vec<u32> = (0..stage.task_count).collect();
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                let results = self.run_stage_tasks(
                    job,
                    plan,
                    stage_id,
                    &to_run,
                    &store,
                    job_key,
                    &mut pending_failures,
                )?;
                stats.tasks_run += to_run.len() as u64;
                if attempt > 1 {
                    stats.recovered_tasks += to_run.len() as u64;
                }

                let mut failed: Vec<TaskId> = Vec::new();
                for (idx, res) in to_run.iter().zip(results) {
                    match res {
                        Ok(batch) => {
                            finished.insert(TaskId::new(stage_id, *idx));
                            if plan.outputs.is_empty() {
                                sink.push((*idx, batch));
                            }
                        }
                        Err(EngineError::TaskFailed { .. }) => {
                            failed.push(TaskId::new(stage_id, *idx))
                        }
                        Err(other) => return Err(other),
                    }
                }
                if failed.is_empty() {
                    break;
                }
                if attempt >= max_attempts {
                    return Err(EngineError::TaskFailed {
                        task: format!("{} after {attempt} attempts", failed[0]),
                    });
                }
                // Plan recovery through the same §IV-B logic as the
                // simulator; stage-wise execution means successors have not
                // run yet, so the plan re-runs exactly the failed tasks
                // (idempotent case) and re-fetches their inputs from the
                // Cache Worker store.
                let snap = EngineSnap {
                    finished: &finished,
                    failed: &failed,
                };
                let mut rerun: HashSet<TaskId> = HashSet::new();
                for &f in &failed {
                    let plan = plan_recovery(dag, &part, f, FailureKind::ProcessRestart, &snap);
                    if plan.abort_job {
                        return Err(EngineError::TaskFailed {
                            task: format!("{f} (unrecoverable)"),
                        });
                    }
                    rerun.extend(plan.rerun);
                }
                let mut next: Vec<u32> = rerun
                    .into_iter()
                    .filter(|t| t.stage == stage_id)
                    .map(|t| t.index)
                    .collect();
                next.sort_unstable();
                to_run = next;
            }
        }

        stats.shuffled_bytes = store.spilled_bytes_total() + store.in_memory_bytes();
        stats.spilled_bytes = store.spilled_bytes_total();
        store.delete_job(job_key)?;

        // Order sink output by task index so Single-partitioned sorted
        // results remain globally sorted.
        sink.sort_by_key(|(idx, _)| *idx);
        let rows = sink.into_iter().flat_map(|(_, b)| b.into_rows()).collect();
        Ok(RunOutcome { rows, stats })
    }

    /// Runs the given tasks of one stage, concurrently when there are
    /// several; returns one result per task in `to_run` order.
    #[allow(clippy::too_many_arguments)]
    fn run_stage_tasks(
        &self,
        job: &EngineJob,
        plan: &StagePlan,
        stage_id: StageId,
        to_run: &[u32],
        store: &CacheWorkerStore,
        job_key: u64,
        pending_failures: &mut HashSet<TaskId>,
    ) -> Result<Vec<Result<Batch>>> {
        let dag = &job.dag;
        let stage = dag.stage(stage_id);
        // Which of this wave's tasks must fail (consume the injection).
        let failing: HashSet<u32> = to_run
            .iter()
            .copied()
            .filter(|&i| pending_failures.remove(&TaskId::new(stage_id, i)))
            .collect();

        let run_one = |task_index: u32| -> Result<Batch> {
            // Gather inputs from the shuffle store.
            let mut inputs = Vec::new();
            for (edge_idx, e) in dag.incoming_indexed(stage_id) {
                let m = dag.stage(e.src).task_count;
                let payloads = store.collect_keep(job_key, edge_idx as u32, task_index, m)?;
                inputs.push(payloads.iter().map(decode).collect::<Result<Vec<_>>>()?);
            }
            if failing.contains(&task_index) {
                return Err(EngineError::TaskFailed {
                    task: format!("{} (injected)", TaskId::new(stage_id, task_index)),
                });
            }
            let batch = run_batches(&self.catalog, plan, task_index, stage.task_count, inputs)?;
            // Route output to each outgoing edge.
            for (out_i, (edge_idx, e)) in dag.outgoing_indexed(stage_id).enumerate() {
                let n = dag.stage(e.dst).task_count;
                let payloads = route(&batch, &plan.outputs[out_i], n);
                for (p, payload) in payloads.into_iter().enumerate() {
                    store.put(
                        SegmentKey {
                            job: job_key,
                            edge: edge_idx as u32,
                            producer: task_index,
                            partition: p as u32,
                        },
                        payload,
                    )?;
                }
            }
            // Only a sink's rows outlive the task.
            Ok(if plan.outputs.is_empty() {
                batch
            } else {
                Batch::default()
            })
        };

        // The calling thread runs the wave's last task itself, so a lone
        // task (a final merge, say) spawns nothing. Each task thread
        // allocates from a malloc arena of its own, and an arena keeps
        // much of what its task freed: one thread fewer is one such arena
        // fewer (`engine_spill`'s peak RSS, EXPERIMENTS.md).
        let Some((&last, rest)) = to_run.split_last() else {
            return Ok(Vec::new());
        };
        Ok(std::thread::scope(|scope| {
            let run_one = &run_one;
            let spawned: Vec<_> = rest
                .iter()
                .map(|&task_index| scope.spawn(move || run_one(task_index)))
                .collect();
            let mine = run_one(last);
            let mut results: Vec<Result<Batch>> = spawned
                .into_iter()
                .map(|h| match h.join() {
                    Ok(res) => res,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect();
            results.push(mine);
            results
        }))
    }
}

/// Splits `batch` by consumer task and encodes one columnar payload per
/// consumer, straight from the batch: a broadcast is encoded once and
/// shared by every consumer.
fn route(batch: &Batch, part: &OutputPartitioning, n: u32) -> Vec<Bytes> {
    let n = n as usize;
    let len = batch.len();
    match part {
        OutputPartitioning::Hash(cols) => {
            let mut parts: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (i, h) in hash_keys(batch, cols).into_iter().enumerate() {
                parts[(h % n as u64) as usize].push(index(i));
            }
            parts
                .iter()
                .map(|rows| encode(batch, rows.iter().map(|&i| i as usize)))
                .collect()
        }
        OutputPartitioning::Single => (0..n)
            .map(|p| encode(batch, 0..if p == 0 { len } else { 0 }))
            .collect(),
        OutputPartitioning::Broadcast => vec![encode(batch, 0..len); n],
        OutputPartitioning::RoundRobin => {
            (0..n).map(|p| encode(batch, (p..len).step_by(n))).collect()
        }
    }
}

/// Snapshot of engine progress for the recovery planner.
struct EngineSnap<'a> {
    finished: &'a HashSet<TaskId>,
    failed: &'a [TaskId],
}

impl ExecutionSnapshot for EngineSnap<'_> {
    fn task_state(&self, task: TaskId) -> TaskRunState {
        if self.finished.contains(&task) {
            TaskRunState::Finished
        } else if self.failed.contains(&task) {
            TaskRunState::Running
        } else {
            TaskRunState::NotStarted
        }
    }

    fn delivered(&self, _from: TaskId, _to: TaskId) -> bool {
        // Stage-wise execution: consumers have not started when a producer
        // stage is still being (re-)run.
        false
    }
}
