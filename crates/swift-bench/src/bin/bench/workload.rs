//! What the seven workloads share: the iteration contract, and the
//! single-layer replays over a workload's DAG stream.

use std::sync::Arc;
use std::time::Instant;

use swift_cluster::CostModel;
use swift_dag::{partition, JobDag};
use swift_scheduler::{
    compute_priors, plan_units, PolicyConfig, SimConfig, TemplateCache, TemplateLookup,
};
use swift_shuffle::{plan_shuffles, AdaptiveThresholds, ShuffleMedium};

use crate::metrics::{ratio, Values};
use crate::span::{SpanStats, Tracer};

/// Outcome of one iteration: "inputs and an idle system exist → complete
/// result returned".
#[derive(Clone, Copy, Debug)]
pub(crate) struct Iter {
    /// Wall seconds of the timed regions (the calls into the layers under
    /// test; building inputs for the next iteration and checking results
    /// are outside).
    pub(crate) secs: f64,
    /// Digest of the result; every iteration must reproduce iteration 0's.
    pub(crate) digest: u64,
    /// Operations submitted: jobs (sim, service) or queries (engine).
    pub(crate) attempted: u64,
    /// Operations that returned a complete, correct result.
    pub(crate) completed: u64,
    /// Operations that broke: aborted, stranded, errored, wrong, or
    /// refused by a service running below capacity. Only on
    /// `service_storm` is a job refused at the watermark neither completed
    /// nor failed — refusing is what the service is for under overload,
    /// and `completed_share` carries it.
    pub(crate) failed: u64,
}

pub(crate) trait Workload {
    /// Runs one iteration. `Err` is an oracle violation and fails the run.
    fn iterate(&mut self, tr: &Tracer) -> Result<Iter, String>;

    /// Per-layer metrics: from the traced iterations' `spans`, from the
    /// bench's observers, and from replaying the inputs through single
    /// layers. `plain_iter_s` is the untraced median iteration.
    fn layers(
        &mut self,
        spans: &SpanStats,
        plain_iter_s: f64,
        out: &mut Values,
    ) -> Result<(), String>;
}

/// Builds the named workload's inputs from `seed` — the work `setup_s`
/// times. `smoke` shrinks every size so the whole suite runs in seconds.
pub(crate) fn build(name: &str, seed: u64, smoke: bool, tr: &Tracer) -> Option<Box<dyn Workload>> {
    use crate::engine::EngineWorkload;
    use crate::service::ServiceWorkload;
    use crate::sim::{SimKind, SimWorkload};
    Some(match name {
        "sim_replay_2000" => Box::new(SimWorkload::new(SimKind::Replay, seed, smoke, tr)),
        "sim_faults" => Box::new(SimWorkload::new(SimKind::Faults, seed, smoke, tr)),
        "sim_streamed" => Box::new(SimWorkload::new(SimKind::Streamed, seed, smoke, tr)),
        "service_steady" => Box::new(ServiceWorkload::new(false, seed, smoke, tr)),
        "service_storm" => Box::new(ServiceWorkload::new(true, seed, smoke, tr)),
        "engine_tpch" => Box::new(EngineWorkload::new(false, seed, smoke, tr)),
        "engine_spill" => Box::new(EngineWorkload::new(true, seed, smoke, tr)),
        _ => return None,
    })
}

/// Best of three timings of `f`, in seconds: the replays below are short
/// single-layer loops, where the minimum is the least disturbed sample.
pub(crate) fn best_of_3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Replays a workload's DAG stream through the plan-time layers alone:
/// graphlet partitioning, shuffle planning, the cost model and the
/// template cache. `machines` bounds how many machines an edge can span.
pub(crate) fn dag_replays(dags: &[Arc<JobDag>], machines: u32, out: &mut Values) {
    let jobs = dags.len() as f64;

    let mut graphlets = 0usize;
    let secs = best_of_3(|| {
        graphlets = dags
            .iter()
            .map(|d| std::hint::black_box(partition(d)).len())
            .sum();
    });
    out.set("dag.partition_us_per_job", secs * 1e6 / jobs);
    out.set("dag.graphlets_per_job", graphlets as f64 / jobs);

    let thresholds = AdaptiveThresholds::default();
    let secs = best_of_3(|| {
        for d in dags {
            std::hint::black_box(plan_shuffles(d, thresholds));
        }
    });
    out.set("shuffle.plan_us_per_job", secs * 1e6 / jobs);

    let cost = CostModel::default();
    let mut edges = 0u64;
    let secs = best_of_3(|| {
        edges = 0;
        for d in dags {
            for e in d.edges() {
                let (src, dst) = (d.stage(e.src), d.stage(e.dst));
                let (m, n) = (src.task_count, dst.task_count);
                std::hint::black_box(cost.shuffle_edge_cost(
                    thresholds.select(d.edge_shuffle_size(e)),
                    ShuffleMedium::Memory,
                    m,
                    n,
                    m.min(machines),
                    n.min(machines),
                    src.profile.output_bytes_per_task * u64::from(m),
                ));
                edges += 1;
            }
        }
    });
    out.set("cluster.cost_ns_per_edge", ratio(secs * 1e9, edges as f64));

    // The admission path's cache pipeline: lookup, then plan and register
    // on a miss. The reported time is the lookups' alone.
    let policy: PolicyConfig = SimConfig::swift().policy;
    let mut lookup_s = f64::INFINITY;
    let mut hit_rate = 0.0;
    for _ in 0..3 {
        let mut cache = TemplateCache::new(&policy);
        let mut in_lookup = 0.0;
        for d in dags {
            let start = Instant::now();
            let found = cache.lookup(d);
            in_lookup += start.elapsed().as_secs_f64();
            match found {
                TemplateLookup::Hit(hit) => {
                    std::hint::black_box(&hit);
                }
                TemplateLookup::Miss(ticket) => {
                    let part = Arc::new(partition(d));
                    let plan = Arc::new(plan_units(d, &policy.partitioning));
                    let priors = Arc::new(compute_priors(d, &plan, &policy));
                    cache.insert(ticket, d, part, plan, priors);
                }
            }
        }
        lookup_s = lookup_s.min(in_lookup);
        let stats = cache.stats();
        hit_rate = ratio(stats.hits() as f64, stats.lookups as f64);
    }
    out.set("scheduler.template_lookup_ns", lookup_s * 1e9 / jobs);
    out.set("scheduler.template_hit_rate", hit_rate);
}

/// Records the set-up spans every workload has.
pub(crate) fn setup_layers(spans: &SpanStats, out: &mut Values) {
    out.set("workload.gen_ms", spans.setup_secs("setup.generate") * 1e3);
    out.set("cluster.build_ms", spans.setup_secs("setup.build") * 1e3);
}
