//! Seeded property tests for the scheduling-template cache, driven through
//! `TemplateCache` itself over random layered DAGs (the in-tree seeded
//! RNG; the workspace builds offline, so no proptest). Every property runs
//! under a graphlet policy (`PolicyConfig::swift`) and a bubble policy,
//! whose stage class also carries the exact task count.
//!
//! The contract, from both directions:
//!
//! * **Equal shapes hit.** An identical rebuild under a new job id is
//!   served from the cache, and so is a job whose task counts moved only
//!   within their buckets (graphlets only) — and whatever a hit serves
//!   equals from-scratch planning of the job looked up.
//! * **Different shapes miss.** An added edge, an edge crossing a
//!   shuffle-size threshold, a stage crossing a power-of-two task-count
//!   bucket, or a rebuild that inserts the stages in another order is a
//!   new key. A permuted rebuild hits once it has been registered itself.

use std::sync::Arc;

use swift_dag::{partition, permuted_clone, DagBuilder, JobDag, Operator, StageId};
use swift_scheduler::{
    compute_priors, plan_units, Partitioning, PolicyConfig, TemplateCache, TemplateHit,
    TemplateLookup,
};
use swift_sim::{SimDuration, SimRng};

const CASES: u64 = 96;

fn policies() -> [PolicyConfig; 2] {
    [
        PolicyConfig::swift(),
        PolicyConfig::bubble(150, SimDuration::from_millis(1)),
    ]
}

/// Whether the policy's stage class keys exact task counts.
fn exact_tasks(policy: &PolicyConfig) -> bool {
    matches!(policy.partitioning, Partitioning::Bubbles { .. })
}

/// A random layered DAG spec: per-stage (task count, sorts?) plus an
/// acyclic edge set over lower-to-higher indices that always links each
/// stage to the next. Specs make mutation trivial — edit the spec,
/// rebuild, look up.
#[derive(Clone)]
struct Spec {
    job: u64,
    stages: Vec<(u32, bool)>,
    edges: Vec<(usize, usize)>,
}

fn random_spec(rng: &mut SimRng) -> Spec {
    let n = rng.range(2, 16) as usize;
    let stages = (0..n)
        .map(|_| (rng.range(1, 300) as u32, rng.chance(0.4)))
        .collect();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if j == i + 1 || (rng.chance(0.4) && j <= i + 3) {
                edges.push((i, j));
            }
        }
    }
    Spec {
        job: rng.u64(),
        stages,
        edges,
    }
}

fn build(spec: &Spec) -> JobDag {
    let mut b = DagBuilder::new(spec.job, "template-prop");
    let mut ids = Vec::with_capacity(spec.stages.len());
    for (i, &(tasks, sorts)) in spec.stages.iter().enumerate() {
        let mut sb = b
            .stage(format!("S{i}"), tasks)
            .op(Operator::ShuffleRead)
            .op(Operator::HashJoin);
        if sorts {
            sb = sb.op(Operator::MergeSort);
        }
        ids.push(sb.op(Operator::ShuffleWrite).build());
    }
    for &(i, j) in &spec.edges {
        b.edge(ids[i], ids[j]);
    }
    b.build().expect("spec DAG must be valid")
}

/// Looks `dag` up, requires a miss, and registers its from-scratch
/// artifacts under the miss's ticket.
fn register(cache: &mut TemplateCache, dag: JobDag, policy: &PolicyConfig, what: &str) {
    let dag = Arc::new(dag);
    let TemplateLookup::Miss(ticket) = cache.lookup(&dag) else {
        panic!("{what}: expected a miss");
    };
    let plan = Arc::new(plan_units(&dag, &policy.partitioning));
    let priors = Arc::new(compute_priors(&dag, &plan, policy));
    cache.insert(ticket, &dag, Arc::new(partition(&dag)), plan, priors);
}

/// A fresh cache holding exactly `dag`'s template.
fn cache_with(dag: JobDag, policy: &PolicyConfig) -> TemplateCache {
    let mut cache = TemplateCache::new(policy);
    register(&mut cache, dag, policy, "empty cache");
    cache
}

fn lookup_hit(cache: &mut TemplateCache, dag: &JobDag) -> Option<TemplateHit> {
    match cache.lookup(dag) {
        TemplateLookup::Hit(hit) => Some(hit),
        TemplateLookup::Miss(_) => None,
    }
}

/// What a hit serves must equal from-scratch planning of the job.
fn assert_scratch(hit: &TemplateHit, dag: &JobDag, policy: &PolicyConfig, what: &str) {
    let plan = plan_units(dag, &policy.partitioning);
    assert_eq!(*hit.part, partition(dag), "{what}: partition");
    assert_eq!(*hit.plan, plan, "{what}: unit plan");
    assert_eq!(
        *hit.priors,
        compute_priors(dag, &plan, policy),
        "{what}: scheme priors"
    );
}

#[test]
fn identical_rebuild_hits() {
    for policy in policies() {
        let mut rng = SimRng::new(0x7E3_0001);
        for case in 0..CASES {
            let what = format!("{} case {case}", policy.name);
            let spec = random_spec(&mut rng);
            let mut cache = cache_with(build(&spec), &policy);
            let rebuild = build(&Spec {
                job: rng.u64(),
                ..spec
            });
            let hit = lookup_hit(&mut cache, &rebuild)
                .unwrap_or_else(|| panic!("{what}: identical rebuild missed"));
            assert_scratch(&hit, &rebuild, &policy, &what);
        }
    }
}

/// Adding one edge (anywhere a forward edge is missing) misses.
#[test]
fn added_edge_misses() {
    for policy in policies() {
        let mut rng = SimRng::new(0x7E3_0002);
        let mut mutated_cases = 0;
        for case in 0..CASES {
            let spec = random_spec(&mut rng);
            let n = spec.stages.len();
            let missing: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .filter(|p| !spec.edges.contains(p))
                .collect();
            let Some(&extra) = missing.get(rng.range(0, 1 + missing.len() as u64) as usize) else {
                continue; // fully connected, or drew the no-op slot
            };
            let mut mutated = spec.clone();
            mutated.edges.push(extra);
            mutated.edges.sort_unstable();
            let mut cache = cache_with(build(&spec), &policy);
            let what = format!("{} case {case}: extra edge {extra:?}", policy.name);
            register(&mut cache, build(&mutated), &policy, &what);
            mutated_cases += 1;
        }
        assert!(mutated_cases > CASES / 2, "mutation coverage collapsed");
    }
}

/// Hangs a `producer → consumer` tail off the spec's last stage. Only the
/// tail edge's size depends on the consumer count.
fn with_tail(spec: &Spec, producer: u32, consumer: u32) -> Spec {
    let mut s = spec.clone();
    let last = s.stages.len() - 1;
    s.stages.push((producer, false));
    s.stages.push((consumer, false));
    s.edges.push((last, last + 1));
    s.edges.push((last + 1, last + 2));
    s
}

/// Crossing the 10 000 or the 90 000 shuffle-size threshold misses even
/// when every stage keeps its task-count bucket; a within-bucket control
/// hits unless the policy keys exact counts.
#[test]
fn threshold_crossing_misses() {
    // (producer, consumer before, consumer after): 100 × 99 = 9 900 →
    // 100 × 100 = 10 000, and 300 × 300 = 90 000 → 300 × 301 = 90 300,
    // each consumer pair inside one power-of-two bucket.
    let crossings = [(100, 99, 100), (300, 300, 301)];
    for policy in policies() {
        let mut rng = SimRng::new(0x7E3_0003);
        for case in 0..CASES {
            let spec = random_spec(&mut rng);
            for (p, before, after) in crossings {
                let what = format!("{} case {case}: {p}x{before} -> {p}x{after}", policy.name);
                let mut cache = cache_with(build(&with_tail(&spec, p, before)), &policy);
                let crossed = build(&with_tail(&spec, p, after));
                register(&mut cache, crossed, &policy, &what);
            }
            // Control: 100 × 98 and 100 × 99 are both small.
            let what = format!("{} case {case}: control", policy.name);
            let mut cache = cache_with(build(&with_tail(&spec, 100, 98)), &policy);
            let hit = lookup_hit(&mut cache, &build(&with_tail(&spec, 100, 99))).is_some();
            assert_eq!(hit, !exact_tasks(&policy), "{what}");
        }
    }
}

/// Moving one stage's task count from `2^k - 1` to `2^k` misses.
#[test]
fn bucket_crossing_misses() {
    for policy in policies() {
        let mut rng = SimRng::new(0x7E3_0004);
        for case in 0..CASES {
            let mut spec = random_spec(&mut rng);
            let s = rng.range(0, spec.stages.len() as u64) as usize;
            let k = rng.range(1, 9);
            spec.stages[s].0 = (1 << k) - 1;
            let mut cache = cache_with(build(&spec), &policy);
            spec.stages[s].0 = 1 << k;
            let what = format!("{} case {case}: stage {s} crosses 2^{k}", policy.name);
            register(&mut cache, build(&spec), &policy, &what);
        }
    }
}

/// A rebuild that inserts the stages in another order misses; once it is
/// registered, the next rebuild in that order hits.
#[test]
fn permuted_rebuild_misses_until_inserted() {
    for policy in policies() {
        let mut rng = SimRng::new(0x7E3_0005);
        for case in 0..CASES {
            let what = format!("{} case {case}", policy.name);
            let dag = build(&random_spec(&mut rng));
            let identity: Vec<StageId> = (0..dag.stage_count() as u32).map(StageId).collect();
            let mut order = identity.clone();
            rng.shuffle(&mut order);
            if order == identity {
                order.swap(0, 1);
            }
            let mut cache = cache_with(dag.clone(), &policy);
            register(
                &mut cache,
                permuted_clone(&dag, &order, rng.u64()),
                &policy,
                &what,
            );
            let again = permuted_clone(&dag, &order, rng.u64());
            let hit = lookup_hit(&mut cache, &again)
                .unwrap_or_else(|| panic!("{what}: registered permutation missed"));
            assert_scratch(&hit, &again, &policy, &what);
        }
    }
}

/// A uniform draw from `tasks`' own power-of-two bucket.
fn within_bucket(tasks: u32, rng: &mut SimRng) -> u32 {
    let lo = 1u64 << (31 - tasks.leading_zeros());
    rng.range(lo, 2 * lo) as u32
}

/// Task counts moved within their buckets: whenever the lookup hits, the
/// served artifacts equal from-scratch planning of the perturbed job.
/// Graphlet hits must be common (the template abstraction at work);
/// bubble hits are exactly the cases whose counts did not move.
#[test]
fn within_bucket_hits_serve_scratch_artifacts() {
    for policy in policies() {
        let mut rng = SimRng::new(0x7E3_0006);
        let (mut hits, mut unmoved) = (0, 0);
        for case in 0..CASES {
            let what = format!("{} case {case}", policy.name);
            let spec = random_spec(&mut rng);
            let mut cache = cache_with(build(&spec), &policy);
            let mut moved = Spec {
                job: rng.u64(),
                ..spec.clone()
            };
            for stage in &mut moved.stages {
                if rng.chance(0.3) {
                    stage.0 = within_bucket(stage.0, &mut rng);
                }
            }
            unmoved += u64::from(moved.stages == spec.stages);
            let dag = build(&moved);
            if let Some(hit) = lookup_hit(&mut cache, &dag) {
                assert_scratch(&hit, &dag, &policy, &what);
                hits += 1;
            }
        }
        if exact_tasks(&policy) {
            assert_eq!(hits, unmoved, "{}: only unmoved counts hit", policy.name);
            assert!(hits >= 4, "{}: {hits} hits", policy.name);
        } else {
            assert!(
                hits - unmoved >= CASES / 4,
                "{}: {hits} hits, {unmoved} with unmoved counts",
                policy.name
            );
        }
    }
}
