//! Scheduling-template cache: control-plane decisions for repeated DAG
//! shapes (Execution-Templates-style, with FuxiShuffle scheme priors).
//!
//! Swift's control plane derives three artifacts per admitted job — the
//! graphlet [`Partition`], the gang-layout [`UnitPlan`], and the per-edge
//! shuffle-scheme decisions — all pure functions of the job's *shape*: its
//! DAG structure, per-stage resource class and per-edge size bucket.
//! Production traces repeat shapes constantly, so the cache keys these
//! artifacts by the job's *as-numbered* shape — the stage classes in
//! stage-id order plus the edge list in the DAG's own enumeration order —
//! and serves a job whose shape equals a cached one the cached artifacts
//! verbatim. Like Execution Templates, it caches the repeated block as the
//! driver issues it, not up to isomorphism: a rebuild that inserts its
//! stages or edges in another order is another shape, and misses.
//! Job-specific numbers (exact edge sizes, phase durations, gang counts)
//! are recomputed by the admission path from the job's own profiles.
//!
//! Every job is admitted through the cache, and served artifacts are
//! *definitionally equal* to what from-scratch planning would produce
//! (verified by `debug_assert` on every hit, by
//! [`validate_template_roundtrip`] in every chaos pre-flight, and by the
//! root `template_equivalence` suite, which pins run digests and traces
//! recorded under from-scratch planning).
//!
//! ## What is cached vs. patched
//!
//! | cached (shape-determined) | patched per job |
//! |---|---|
//! | graphlet partition | shuffle edge sizes (`M × N`) |
//! | schedule-unit plan | phase durations (cost model over profiles) |
//! | scheme + medium + crossing per edge | gang sizes, task ids, offsets |
//!
//! Scheme decisions are cacheable because the shape's edge class is the
//! *selection bucket* (Direct/Remote/Local under the paper's
//! thresholds), not the raw size: two edges in the same bucket always
//! select the same scheme, including the §III-B barrier-edge upgrade of
//! Direct to Remote on memory-staged crossing edges.

#![expect(
    clippy::disallowed_types,
    reason = "the shape index is only probed point-wise, never iterated, so its order cannot reach a decision"
)]

use crate::config::{Partitioning, PolicyConfig, ShuffleSelection};
use crate::units::{plan_units, UnitPlan};
use std::collections::HashMap;
use std::sync::Arc;
use swift_dag::{partition, permuted_clone, EdgeKind, JobDag, Partition, Stage, StageId};
use swift_shuffle::{AdaptiveThresholds, ShuffleMedium, ShuffleScheme};
use swift_sim::Fnv64;

/// One cached shuffle-scheme decision, in DAG edge order: everything about
/// the edge's scheme that is shape-determined. The admission path combines
/// a prior with the job's actual edge size and cost model to produce the
/// full [`crate::SchemeDecision`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchemePrior {
    /// Edge index within the job DAG.
    pub edge: u32,
    /// Producer stage.
    pub src: StageId,
    /// Consumer stage.
    pub dst: StageId,
    /// The selected shuffle scheme (barrier-edge upgrade already applied).
    pub scheme: ShuffleScheme,
    /// The staging medium for Cache-Worker schemes.
    pub medium: ShuffleMedium,
    /// Whether the edge crosses a schedule-unit boundary.
    pub crossing: bool,
}

/// Computes the shape-determined part of every edge's scheme decision —
/// the single source of truth for scheme selection, used by the scratch
/// admission path, cached into templates, and replayed by
/// [`validate_template_roundtrip`].
pub fn compute_priors(dag: &JobDag, plan: &UnitPlan, policy: &PolicyConfig) -> Vec<SchemePrior> {
    dag.edges()
        .iter()
        .enumerate()
        .map(|(ei, e)| {
            let size = dag.edge_shuffle_size(e);
            let crossing = plan.unit_of(e.src) != plan.unit_of(e.dst);
            // Bubble stages crossing edges on disk and the rest in memory.
            let medium = if crossing {
                policy.cross_unit_medium
            } else {
                policy.intra_unit_medium
            };
            let mut scheme = policy.shuffle.select(size);
            // Adaptive Direct Shuffle cannot serve a memory-staged crossing
            // edge (§III-B): upgrade to Remote. Fixed schemes are honored.
            if crossing
                && medium == ShuffleMedium::Memory
                && scheme == ShuffleScheme::Direct
                && policy.shuffle == ShuffleSelection::Adaptive
            {
                scheme = ShuffleScheme::Remote;
            }
            SchemePrior {
                edge: ei as u32,
                src: e.src,
                dst: e.dst,
                scheme,
                medium,
                crossing,
            }
        })
        .collect()
}

/// The artifacts a miss plans from scratch: the graphlet partition, the
/// unit plan (read off that partition under [`Partitioning::Graphlets`],
/// so the DAG is partitioned once) and the scheme priors. The admission
/// path, the template roundtrip and the tests all plan a miss through it.
pub(crate) fn plan_artifacts(
    dag: &JobDag,
    policy: &PolicyConfig,
) -> (Arc<Partition>, Arc<UnitPlan>, Arc<Vec<SchemePrior>>) {
    let part = Arc::new(partition(dag));
    let plan = Arc::new(match &policy.partitioning {
        Partitioning::Graphlets => UnitPlan::from_partition(&part),
        other => plan_units(dag, other),
    });
    let priors = Arc::new(compute_priors(dag, &plan, policy));
    (part, plan, priors)
}

/// Counters describing a [`TemplateCache`]'s behavior over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TemplateStats {
    /// Total admissions that consulted the cache.
    pub lookups: u64,
    /// Lookups that found no equal-shape template.
    pub misses: u64,
}

impl TemplateStats {
    /// Lookups served by a cached template.
    pub fn hits(&self) -> u64 {
        self.lookups - self.misses
    }
}

/// How a job's admission interacted with the template cache, reported as
/// [`crate::SimEvent::TemplateMiss`] or [`crate::SimEvent::TemplateHit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TemplateOutcome {
    /// No equal-shape template existed; the job was planned from scratch
    /// and its artifacts registered.
    Miss,
    /// An equal-shape template served the job its cached artifacts.
    Hit,
}

/// One job's template-cache decision: the outcome plus the dimensions the
/// trace events publish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TemplateDecision {
    /// Hit or miss.
    pub(crate) outcome: TemplateOutcome,
    /// 64-bit digest identifying the template that served (or, on a miss,
    /// was registered by) this admission: the hash of its as-numbered
    /// shape. Hits report the same digest as the miss that created the
    /// template.
    pub(crate) signature: u64,
    /// Number of schedule units in the (served or fresh) plan.
    pub(crate) units: u32,
    /// Number of DAG edges covered by scheme priors.
    pub(crate) edges: u32,
}

/// The control-plane artifacts a hit hands to the admission path: the
/// serving template's own `Arc`s, shared verbatim.
#[derive(Clone, Debug)]
pub struct TemplateHit {
    /// The job's graphlet partition.
    pub part: Arc<Partition>,
    /// The job's schedule-unit plan.
    pub plan: Arc<UnitPlan>,
    /// Per-edge scheme priors in the job's own edge order (the shape pins
    /// the edge enumeration order, so they apply as cached).
    pub priors: Arc<Vec<SchemePrior>>,
    /// The serving template's signature digest (for observers).
    pub signature: u64,
}

/// Proof of a completed miss lookup: carries the job's shape so
/// [`TemplateCache::insert`] does not recompute it.
#[derive(Clone, Debug)]
pub struct TemplateTicket {
    shape: Shape,
    hash: u64,
}

impl TemplateTicket {
    /// The template signature digest (for observers): the hash of the
    /// as-numbered shape this miss will register.
    pub fn signature(&self) -> u64 {
        self.hash
    }
}

/// Result of [`TemplateCache::lookup`].
#[derive(Clone, Debug)]
pub enum TemplateLookup {
    /// An equal-shape template was found; its artifacts serve the job.
    Hit(TemplateHit),
    /// No template matched; plan from scratch, then register the artifacts
    /// with [`TemplateCache::insert`].
    Miss(TemplateTicket),
}

/// The policy inputs a shape's classes depend on, and the class
/// functions over them.
struct Classes {
    /// Bubble cuts ([`Partitioning::Bubbles`]) depend on exact task
    /// counts, so under that partitioning the exact count joins the
    /// stage class.
    exact_tasks: bool,
    selection: ShuffleSelection,
}

impl Classes {
    fn new(policy: &PolicyConfig) -> Self {
        Classes {
            exact_tasks: matches!(policy.partitioning, Partitioning::Bubbles { .. }),
            selection: policy.shuffle,
        }
    }

    /// The per-stage resource class: a power-of-two task-count bucket plus
    /// the structural flags scheme selection and partitioning can see.
    fn stage(&self, s: &Stage) -> u64 {
        let bucket = u64::from(u32::BITS - s.task_count.leading_zeros());
        let mut c = bucket;
        c = c << 1 | u64::from(s.sorts_output());
        c = c << 1 | u64::from(s.requires_sorted_input());
        c = c << 1 | u64::from(s.is_source_stage());
        c = c << 1 | u64::from(s.is_sink_stage());
        c = c << 1 | u64::from(s.idempotent);
        if self.exact_tasks {
            c = c << 32 | u64::from(s.task_count);
        }
        c
    }

    /// The per-edge class: the edge's selection bucket, so equal classes
    /// imply equal selected schemes. The bucket fills both two-bit fields
    /// of the class: template signatures hash this value and are rendered
    /// into the trace goldens and pinned trace digests, so its layout must
    /// not change.
    fn edge(&self, size: u64) -> u64 {
        let bucket = selection_bucket(&self.selection, size);
        bucket << 2 | bucket
    }
}

/// A job's as-numbered shape, the cache key: the stage classes in
/// stage-id order and one `(src, dst, is_barrier, edge_class)` tuple per
/// edge in the DAG's own enumeration order. Job ids, names and stage
/// profiles deliberately do not participate. Shapes compare exactly, so
/// a [`Shape::hash64`] collision can never alias two different shapes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Shape {
    stages: Vec<u64>,
    edges: Vec<(u32, u32, bool, u64)>,
}

impl Shape {
    /// Refills the shape from `dag` in one walk, reusing its buffers.
    fn fill(&mut self, dag: &JobDag, classes: &Classes) {
        self.stages.clear();
        self.stages
            .extend(dag.stages().iter().map(|s| classes.stage(s)));
        self.edges.clear();
        self.edges.extend(dag.edges().iter().map(|e| {
            (
                e.src.raw(),
                e.dst.raw(),
                e.kind == EdgeKind::Barrier,
                classes.edge(dag.edge_shuffle_size(e)),
            )
        }));
    }

    /// A stable 64-bit digest of the shape: the index key and the
    /// signature trace events report.
    fn hash64(&self) -> u64 {
        let mut h = Fnv64::new();
        h.eat(self.stages.len() as u64);
        for &s in &self.stages {
            h.eat(s);
        }
        for &(src, dst, barrier, class) in &self.edges {
            h.eat(u64::from(src) << 33 | u64::from(dst) << 1 | u64::from(barrier));
            h.eat(class);
        }
        h.finish()
    }
}

struct Template {
    shape: Shape,
    /// `shape.hash64()`, precomputed: the index key and the signature
    /// digest every decision involving this template reports.
    hash: u64,
    part: Arc<Partition>,
    plan: Arc<UnitPlan>,
    priors: Arc<Vec<SchemePrior>>,
}

/// A cache of control-plane decisions keyed by as-numbered DAG shape.
/// One cache serves one policy (the policy's thresholds and partitioning
/// are baked into the shape's classes), which is why
/// [`TemplateCache::new`] takes the [`PolicyConfig`].
pub struct TemplateCache {
    classes: Classes,
    /// Template indices by shape hash. The index is only ever probed
    /// point-wise (never iterated), so ordering is irrelevant and the
    /// O(1) map wins on the hot path.
    index: HashMap<u64, Vec<usize>>,
    templates: Vec<Template>,
    stats: TemplateStats,
    /// Reusable probe buffers: lookups walk the DAG once and allocate
    /// nothing on the hit path.
    probe: Shape,
}

impl std::fmt::Debug for TemplateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateCache")
            .field("templates", &self.templates.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl TemplateCache {
    /// Creates an empty cache for jobs admitted under `policy`.
    pub fn new(policy: &PolicyConfig) -> Self {
        TemplateCache {
            classes: Classes::new(policy),
            index: HashMap::new(),
            templates: Vec::new(),
            stats: TemplateStats::default(),
            probe: Shape::default(),
        }
    }

    /// Number of registered templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// True before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// The cache's behavior counters so far.
    pub fn stats(&self) -> TemplateStats {
        self.stats
    }

    /// Looks up the template for `dag`'s shape. A candidate is confirmed
    /// by full exact comparison — a 64-bit hash collision degrades to a
    /// miss, never to a wrong hit.
    pub fn lookup(&mut self, dag: &JobDag) -> TemplateLookup {
        self.stats.lookups += 1;
        self.probe.fill(dag, &self.classes);
        let hash = self.probe.hash64();
        let found = self.index.get(&hash).and_then(|cands| {
            cands
                .iter()
                .map(|&ti| &self.templates[ti])
                .find(|t| t.shape == self.probe)
        });
        let Some(t) = found else {
            self.stats.misses += 1;
            return TemplateLookup::Miss(TemplateTicket {
                shape: self.probe.clone(),
                hash,
            });
        };
        debug_assert!(
            t.priors.len() == dag.edges().len()
                && t.priors
                    .iter()
                    .zip(dag.edges())
                    .all(|(p, e)| p.src == e.src && p.dst == e.dst),
            "the shape pins the edge order"
        );
        TemplateLookup::Hit(TemplateHit {
            part: Arc::clone(&t.part),
            plan: Arc::clone(&t.plan),
            priors: Arc::clone(&t.priors),
            signature: t.hash,
        })
    }

    /// Registers the from-scratch artifacts computed after a miss. `dag`
    /// is the job the artifacts were planned for, and the one `ticket`'s
    /// lookup was made for (checked in debug builds); the cache keeps the
    /// ticket's shape, not the DAG.
    pub fn insert(
        &mut self,
        ticket: TemplateTicket,
        dag: &Arc<JobDag>,
        part: Arc<Partition>,
        plan: Arc<UnitPlan>,
        priors: Arc<Vec<SchemePrior>>,
    ) {
        debug_assert!(
            {
                let mut shape = Shape::default();
                shape.fill(dag, &self.classes);
                shape == ticket.shape
            },
            "a ticket must be inserted with the DAG it was looked up for"
        );
        self.index
            .entry(ticket.hash)
            .or_default()
            .push(self.templates.len());
        self.templates.push(Template {
            shape: ticket.shape,
            hash: ticket.hash,
            part,
            plan,
            priors,
        });
    }
}

/// An edge's selection bucket: which scheme the selection would pick for
/// any size in this bucket. Fixed selections collapse to one bucket.
fn selection_bucket(sel: &ShuffleSelection, size: u64) -> u64 {
    match sel {
        ShuffleSelection::Fixed(_) => 0,
        ShuffleSelection::Adaptive => match AdaptiveThresholds::default().select(size) {
            ShuffleScheme::Direct => 0,
            ShuffleScheme::Remote => 1,
            ShuffleScheme::Local => 2,
        },
    }
}

/// Checks that the template cache serves `dag` exactly what from-scratch
/// planning under `policy` produces: the cache must be a pure cost
/// optimization, never a behavioral one. Registers a template from an
/// identical rebuild of `dag` (same stage insertion order, another job
/// id), looks `dag` itself up, and returns one message per served artifact
/// that differs from from-scratch planning, or one for a miss; empty means
/// the roundtrip is exact.
pub fn validate_template_roundtrip(dag: &JobDag, policy: &PolicyConfig) -> Vec<String> {
    let mut cache = TemplateCache::new(policy);
    let order: Vec<StageId> = (0..dag.stage_count() as u32).map(StageId).collect();
    let donor = Arc::new(permuted_clone(dag, &order, dag.job_id.raw() ^ 0x7E11));
    match cache.lookup(&donor) {
        TemplateLookup::Miss(ticket) => {
            let (part, plan, priors) = plan_artifacts(&donor, policy);
            cache.insert(ticket, &donor, part, plan, priors);
        }
        TemplateLookup::Hit(_) => unreachable!("empty cache cannot hit"),
    }
    let TemplateLookup::Hit(served) = cache.lookup(dag) else {
        return vec![
            "template cache missed on an identical rebuild under another job id: the shape \
             key depends on something other than the shape"
                .into(),
        ];
    };
    let part = partition(dag);
    let plan = plan_units(dag, &policy.partitioning);
    let priors = compute_priors(dag, &plan, policy);
    let mut violations = Vec::new();
    if *served.part != part {
        violations.push("served graphlet partition differs from from-scratch partitioning".into());
    }
    if *served.plan != plan {
        violations.push("served unit plan differs from from-scratch unit planning".into());
    }
    if *served.priors != priors {
        violations.push("served scheme priors differ from from-scratch selection".into());
    }
    violations
}

/// Checks a job's scheme priors against §III-B's adaptive selection under
/// the paper's 10 000/90 000 thresholds: an edge's scheme is the one its
/// size selects, with Direct promoted to Remote on a barrier edge, whose
/// data must be staged in a Cache Worker. Returns one message per
/// violating prior; empty means every prior follows the rule.
pub fn validate_scheme_priors(dag: &JobDag, priors: &[SchemePrior]) -> Vec<String> {
    let thresholds = AdaptiveThresholds::default();
    let mut violations = Vec::new();
    for p in priors {
        let Some(edge) = dag.edges().get(p.edge as usize) else {
            violations.push(format!(
                "prior names edge {}, but the job has {} edges",
                p.edge,
                dag.edges().len()
            ));
            continue;
        };
        let (src, dst) = (&dag.stage(edge.src).name, &dag.stage(edge.dst).name);
        let barrier = edge.kind == EdgeKind::Barrier;
        if barrier && !p.scheme.uses_cache_worker() {
            violations.push(format!(
                "Direct Shuffle on barrier edge {src} -> {dst}: its data must be staged in a \
                 Cache Worker"
            ));
            continue;
        }
        let size = dag.edge_shuffle_size(edge);
        let mut expected = thresholds.select(size);
        if barrier && !expected.uses_cache_worker() {
            expected = ShuffleScheme::Remote;
        }
        if p.scheme != expected {
            violations.push(format!(
                "edge {src} -> {dst} of size {size} selects {expected} under thresholds {}/{}, \
                 but its prior is {}",
                thresholds.small, thresholds.large, p.scheme
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_dag::{DagBuilder, Operator};

    fn two_graphlet_dag(job: u64, m_tasks: u32) -> JobDag {
        let mut b = DagBuilder::new(job, "two-graphlets");
        let m = b
            .stage("M", m_tasks)
            .op(Operator::TableScan { table: "t".into() })
            .op(Operator::MergeSort)
            .op(Operator::ShuffleWrite)
            .build();
        let r = b
            .stage("R", 100)
            .op(Operator::ShuffleRead)
            .op(Operator::HashAggregate)
            .op(Operator::AdhocSink)
            .build();
        b.edge(m, r); // barrier: M sorts output
        b.build().unwrap()
    }

    fn register(cache: &mut TemplateCache, dag: &Arc<JobDag>, policy: &PolicyConfig) {
        match cache.lookup(dag) {
            TemplateLookup::Miss(ticket) => {
                let (part, plan, priors) = plan_artifacts(dag, policy);
                cache.insert(ticket, dag, part, plan, priors);
            }
            TemplateLookup::Hit(_) => panic!("expected a miss"),
        }
    }

    #[test]
    fn identity_hit_shares_artifacts() {
        let policy = PolicyConfig::swift();
        let mut cache = TemplateCache::new(&policy);
        let d1 = Arc::new(two_graphlet_dag(1, 200));
        register(&mut cache, &d1, &policy);
        let d2 = two_graphlet_dag(2, 200);
        let (TemplateLookup::Hit(a), TemplateLookup::Hit(b)) =
            (cache.lookup(&d2), cache.lookup(&d2))
        else {
            panic!("equal shape must hit");
        };
        assert!(Arc::ptr_eq(&a.part, &b.part) && Arc::ptr_eq(&a.priors, &b.priors));
        assert_eq!(*a.part, partition(&d2));
        assert_eq!(*a.plan, plan_units(&d2, &policy.partitioning));
        assert_eq!(*a.priors, compute_priors(&d2, &a.plan, &policy));
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits(), s.misses), (3, 2, 1));
    }

    #[test]
    fn different_bucket_misses() {
        let policy = PolicyConfig::swift();
        let mut cache = TemplateCache::new(&policy);
        register(&mut cache, &Arc::new(two_graphlet_dag(1, 200)), &policy);
        // 200×100 = 20_000 sits in the Remote bucket; shrinking the
        // producer to 40 tasks moves the edge into the Direct bucket
        // (40×100 = 4_000).
        let d2 = two_graphlet_dag(3, 40);
        assert!(matches!(cache.lookup(&d2), TemplateLookup::Miss(_)));
    }

    #[test]
    fn bubbles_policy_keys_exact_task_counts() {
        // 200 and 250 tasks share a power-of-two bucket and (200×100,
        // 250×100) a selection bucket: one shape under graphlets, two
        // under bubbles, whose cuts follow exact counts.
        let bubble = PolicyConfig::bubble(150, swift_sim::SimDuration::from_millis(1));
        for (policy, want_hit) in [(PolicyConfig::swift(), true), (bubble, false)] {
            let mut cache = TemplateCache::new(&policy);
            register(&mut cache, &Arc::new(two_graphlet_dag(1, 200)), &policy);
            let hit = matches!(
                cache.lookup(&two_graphlet_dag(2, 250)),
                TemplateLookup::Hit(_)
            );
            assert_eq!(hit, want_hit, "{}", policy.name);
        }
    }

    #[test]
    fn template_roundtrip_is_exact() {
        let policy = PolicyConfig::swift();
        for dag in [
            two_graphlet_dag(9, 200),
            swift_workload::tpch_sim_dag(9, 9),
            swift_workload::tpch_sim_dag(13, 13),
            swift_workload::terasort_dag(100, 40, 40, 64 << 20),
        ] {
            assert_eq!(
                validate_template_roundtrip(&dag, &policy),
                Vec::<String>::new(),
                "{}",
                dag.name
            );
        }
    }

    #[test]
    fn scheme_priors_follow_the_adaptive_rule() {
        let policy = PolicyConfig::swift();
        // 200×100 selects Remote; 40×100 selects Direct, promoted to
        // Remote on this barrier edge.
        for dag in [
            two_graphlet_dag(1, 200),
            two_graphlet_dag(2, 40),
            swift_workload::tpch_sim_dag(9, 9),
        ] {
            let priors = compute_priors(&dag, &plan_units(&dag, &policy.partitioning), &policy);
            let v = validate_scheme_priors(&dag, &priors);
            assert_eq!(v, Vec::<String>::new(), "{}", dag.name);
        }
    }

    #[test]
    fn scheme_priors_off_the_rule_are_flagged() {
        let dag = two_graphlet_dag(1, 200);
        let prior = |edge, scheme| SchemePrior {
            edge,
            src: StageId(0),
            dst: StageId(1),
            scheme,
            medium: ShuffleMedium::Memory,
            crossing: true,
        };
        let priors = [
            prior(0, ShuffleScheme::Local),
            prior(0, ShuffleScheme::Direct),
            prior(1, ShuffleScheme::Remote),
        ];
        assert_eq!(
            validate_scheme_priors(&dag, &priors),
            vec![
                "edge M -> R of size 20000 selects remote under thresholds 10000/90000, but its \
                 prior is local",
                "Direct Shuffle on barrier edge M -> R: its data must be staged in a Cache Worker",
                "prior names edge 1, but the job has 1 edges",
            ]
        );
    }
}
