//! Canonical DAG shape signatures for control-plane template caching.
//!
//! A *shape signature* captures exactly the inputs the scheduler's
//! control-plane decisions are pure functions of: the DAG structure
//! (stages, edges, edge kinds), a caller-supplied *class* value per stage
//! (resource class — e.g. a task-count bucket plus structural flags) and a
//! caller-supplied class value per edge (e.g. a shuffle-size bucket).
//! Job ids, job/stage names and stage profiles deliberately do **not**
//! participate: two jobs of the same shape must sign identically.
//!
//! Two fingerprints are offered:
//!
//! * [`as_numbered_fingerprint`] — the shape *as numbered and as
//!   ordered*: the DAG's own stage ids as positions and the DAG's own
//!   edge enumeration order. Cheap (one linear pass, no sort); equal
//!   fingerprints mean the two DAGs are identical under the identity
//!   mapping, edge list included. This is the fast path for workloads
//!   that rebuild repeated jobs the same way; rebuilds that reorder
//!   stages or edges still unify through the canonical form. The
//!   streaming companions [`as_numbered_hash64`] and
//!   [`ShapeFingerprint::matches_as_numbered`] probe an index without
//!   materializing the fingerprint at all.
//! * [`canonical_fingerprint`] — an insertion-order-independent canonical
//!   form computed by Weisfeiler–Leman colour refinement with
//!   individualization backtracking. Equal canonical fingerprints mean the
//!   DAGs are isomorphic under a class-preserving mapping, which the
//!   returned canonical stage order makes explicit.
//!
//! Fingerprints compare *exactly* (full contents, not just a hash), so a
//! 64-bit hash collision can never alias two different shapes; [`
//! ShapeFingerprint::hash64`] only keys the lookup index.

use crate::dag::{DagBuilder, JobDag};
use crate::edge::EdgeKind;
use crate::ids::StageId;
use swift_sim::Fnv64;

/// Caller-supplied class values: one per stage (by [`StageId`] index) and
/// one per edge (by edge index in [`JobDag::edges`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeClasses {
    /// `stage[s]` = resource-class value of stage `s`.
    pub stage: Vec<u64>,
    /// `edge[e]` = class value (e.g. size bucket) of edge `e`.
    pub edge: Vec<u64>,
}

/// A complete, exactly-comparable rendering of a DAG shape under some
/// stage numbering: per-position stage classes plus the relabelled edge
/// list — sorted in canonical forms, in the DAG's own enumeration order
/// in as-numbered forms.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShapeFingerprint {
    /// Stage class value at each canonical position.
    stages: Vec<u64>,
    /// `(src_pos, dst_pos, is_barrier, edge_class)`.
    edges: Vec<(u32, u32, bool, u64)>,
}

/// Packs one fingerprint edge into the word [`Fnv64`] eats first.
fn edge_word(src_pos: u32, dst_pos: u32, barrier: bool) -> u64 {
    u64::from(src_pos) << 33 | u64::from(dst_pos) << 1 | u64::from(barrier)
}

impl ShapeFingerprint {
    /// A stable 64-bit digest of the fingerprint, for keying cache
    /// indexes. Collisions are possible and harmless: callers must confirm
    /// a candidate by comparing full fingerprints with `==`.
    pub fn hash64(&self) -> u64 {
        let mut h = Fnv64::new();
        h.eat(self.stages.len() as u64);
        for &s in &self.stages {
            h.eat(s);
        }
        for &(a, b, barrier, c) in &self.edges {
            h.eat(edge_word(a, b, barrier));
            h.eat(c);
        }
        h.finish()
    }

    /// True iff this fingerprint equals [`as_numbered_fingerprint`]`(dag,
    /// classes)` — checked by streaming over the DAG, allocating nothing.
    /// The identity-probe companion of [`as_numbered_hash64`].
    pub fn matches_as_numbered(&self, dag: &JobDag, classes: &ShapeClasses) -> bool {
        self.stages == classes.stage
            && self.edges.len() == dag.edges().len()
            && self
                .edges
                .iter()
                .zip(dag.edges().iter().zip(&classes.edge))
                .all(|(&(a, b, barrier, c), (e, &class))| {
                    a == e.src.raw()
                        && b == e.dst.raw()
                        && barrier == (e.kind == EdgeKind::Barrier)
                        && c == class
                })
    }

    /// Number of stages in the signed shape.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Number of edges in the signed shape.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// Builds the fingerprint of `dag` under a given position mapping:
/// `pos[s]` = canonical position of stage `s`.
fn fingerprint_at(dag: &JobDag, classes: &ShapeClasses, pos: &[u32]) -> ShapeFingerprint {
    let mut stages = vec![0u64; dag.stage_count()];
    for (s, &p) in pos.iter().enumerate() {
        stages[p as usize] = classes.stage[s];
    }
    let mut edges: Vec<(u32, u32, bool, u64)> = dag
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            (
                pos[e.src.index()],
                pos[e.dst.index()],
                e.kind == EdgeKind::Barrier,
                classes.edge[i],
            )
        })
        .collect();
    edges.sort_unstable();
    ShapeFingerprint { stages, edges }
}

/// The shape of `dag` under its own stage numbering and edge enumeration
/// order. Equal as-numbered fingerprints mean the two DAGs are identical
/// stage-for-stage and edge-for-edge, including the order their edge
/// lists enumerate in (identity isomorphism; rebuilds that reorder edges
/// unify through [`canonical_fingerprint`] instead).
pub fn as_numbered_fingerprint(dag: &JobDag, classes: &ShapeClasses) -> ShapeFingerprint {
    ShapeFingerprint {
        stages: classes.stage.clone(),
        edges: dag
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                (
                    e.src.raw(),
                    e.dst.raw(),
                    e.kind == EdgeKind::Barrier,
                    classes.edge[i],
                )
            })
            .collect(),
    }
}

/// Reusable scratch for allocation-free as-numbered probes: one pass over
/// the DAG fills the buffers, after which hashing, index probing and
/// exact confirmation all run over hot contiguous memory. A long-lived
/// probe (e.g. owned by a template cache) amortizes its allocations to
/// zero across lookups.
#[derive(Debug, Default)]
pub struct ShapeProbe {
    stages: Vec<u64>,
    edges: Vec<(u32, u32, bool, u64)>,
    /// Scratch `(out-degree, in-degree)` per stage for
    /// [`ShapeProbe::multiset_key64`].
    deg: Vec<(u32, u32)>,
}

impl ShapeProbe {
    /// Fills the probe from `dag` in a single walk. `stage_class` maps
    /// each stage to its resource class; `edge_class` maps each edge and
    /// its shuffle size to its class (e.g. a selection bucket).
    pub fn fill(
        &mut self,
        dag: &JobDag,
        mut stage_class: impl FnMut(&crate::stage::Stage) -> u64,
        mut edge_class: impl FnMut(&crate::edge::Edge, u64) -> u64,
    ) {
        self.stages.clear();
        self.stages
            .extend(dag.stages().iter().map(&mut stage_class));
        self.edges.clear();
        self.edges.extend(dag.edges().iter().map(|e| {
            (
                e.src.raw(),
                e.dst.raw(),
                e.kind == EdgeKind::Barrier,
                edge_class(e, dag.edge_shuffle_size(e)),
            )
        }));
    }

    /// [`ShapeFingerprint::hash64`] of the filled shape — equal to
    /// `as_numbered_fingerprint(dag, classes).hash64()` for the same
    /// class functions.
    pub fn hash64(&self) -> u64 {
        let mut h = Fnv64::new();
        h.eat(self.stages.len() as u64);
        for &s in &self.stages {
            h.eat(s);
        }
        for &(a, b, barrier, c) in &self.edges {
            h.eat(edge_word(a, b, barrier));
            h.eat(c);
        }
        h.finish()
    }

    /// True iff the filled shape equals `fp` (which must itself be an
    /// as-numbered fingerprint for the comparison to be meaningful).
    pub fn matches(&self, fp: &ShapeFingerprint) -> bool {
        self.stages == fp.stages && self.edges == fp.edges
    }

    /// Materializes the filled shape as an owned as-numbered fingerprint.
    pub fn to_fingerprint(&self) -> ShapeFingerprint {
        ShapeFingerprint {
            stages: self.stages.clone(),
            edges: self.edges.clone(),
        }
    }

    /// A permutation-invariant digest of the filled shape: a commutative
    /// (wrapping-sum) combination of per-stage `(class, in-degree,
    /// out-degree)` and per-edge `(class, endpoint classes, barrier)`
    /// hashes — one refinement round's worth of invariants with no sort
    /// and no allocation beyond the probe's own scratch. Equal for any
    /// two fillings of isomorphic shapes, so it is a sound (and in
    /// practice sharp) pre-screen for canonical-fingerprint equality.
    pub fn multiset_key64(&mut self) -> u64 {
        self.deg.clear();
        self.deg.resize(self.stages.len(), (0, 0));
        for &(s, d, _, _) in &self.edges {
            self.deg[s as usize].0 += 1;
            self.deg[d as usize].1 += 1;
        }
        let mut key = 0u64;
        for (&c, &(outd, ind)) in self.stages.iter().zip(&self.deg) {
            let mut h = Fnv64::new();
            h.eat(c);
            h.eat(u64::from(ind) << 32 | u64::from(outd));
            key = key.wrapping_add(h.finish());
        }
        for &(s, d, barrier, c) in &self.edges {
            let mut h = Fnv64::new();
            // Domain-separate edge terms from stage terms.
            h.eat(0x9e37_79b9_7f4a_7c15);
            h.eat(c << 1 | u64::from(barrier));
            h.eat(self.stages[s as usize]);
            h.eat(self.stages[d as usize]);
            key = key.wrapping_add(h.finish());
        }
        let mut lens = Fnv64::new();
        lens.eat(self.stages.len() as u64);
        lens.eat(self.edges.len() as u64);
        key.wrapping_add(lens.finish())
    }

    /// Materializes the filled shape's class vectors (the edge class is
    /// the last component of each edge entry).
    pub fn to_classes(&self) -> ShapeClasses {
        ShapeClasses {
            stage: self.stages.clone(),
            edge: self.edges.iter().map(|&(_, _, _, c)| c).collect(),
        }
    }
}

/// [`ShapeFingerprint::hash64`] of the as-numbered fingerprint, computed
/// by streaming over the DAG without materializing it — the identity
/// probe of a template index costs no allocation at all.
pub fn as_numbered_hash64(dag: &JobDag, classes: &ShapeClasses) -> u64 {
    let mut h = Fnv64::new();
    h.eat(classes.stage.len() as u64);
    for &s in &classes.stage {
        h.eat(s);
    }
    for (e, &class) in dag.edges().iter().zip(&classes.edge) {
        h.eat(edge_word(
            e.src.raw(),
            e.dst.raw(),
            e.kind == EdgeKind::Barrier,
        ));
        h.eat(class);
    }
    h.finish()
}

/// Past this many stages the individualization search is skipped and the
/// as-numbered order used instead: canonicalization degrades to a
/// best-effort (cache hit rate may drop, correctness cannot — fingerprints
/// still compare exactly).
const CANONICAL_STAGE_LIMIT: usize = 256;

/// Backtracking-node budget for the individualization search, bounding the
/// worst case on highly symmetric graphs. Within budget the result is a
/// true canonical form; past it, a deterministic but possibly non-minimal
/// labelling is returned (again: hit rate, not correctness).
const SEARCH_BUDGET: u32 = 4_096;

/// An insertion-order-independent canonical fingerprint of `dag`, plus the
/// canonical stage order (`order[p]` = the stage at canonical position
/// `p`). Two DAGs with equal canonical fingerprints are isomorphic under
/// the class-preserving mapping obtained by pairing their canonical
/// orders position by position.
pub fn canonical_fingerprint(
    dag: &JobDag,
    classes: &ShapeClasses,
) -> (ShapeFingerprint, Vec<StageId>) {
    let n = dag.stage_count();
    if n > CANONICAL_STAGE_LIMIT {
        let fp = as_numbered_fingerprint(dag, classes);
        let order = (0..n as u32).map(StageId).collect();
        return (fp, order);
    }

    // Adjacency as (direction, is_barrier, edge_class, neighbour): the
    // neighbourhood structure WL refinement folds into each colour.
    let mut adj: Vec<Vec<(bool, bool, u64, usize)>> = vec![Vec::new(); n];
    for (i, e) in dag.edges().iter().enumerate() {
        let barrier = e.kind == EdgeKind::Barrier;
        let class = classes.edge[i];
        adj[e.src.index()].push((true, barrier, class, e.dst.index()));
        adj[e.dst.index()].push((false, barrier, class, e.src.index()));
    }

    // Initial colours: dense ranks of the stage class values.
    let mut initial: Vec<(u64, usize)> = classes
        .stage
        .iter()
        .copied()
        .enumerate()
        .map(|(v, c)| (c, v))
        .collect();
    initial.sort_unstable();
    let mut colors = vec![0u32; n];
    let mut rank = 0u32;
    for w in 0..initial.len() {
        if w > 0 && initial[w].0 != initial[w - 1].0 {
            rank += 1;
        }
        colors[initial[w].1] = rank;
    }

    let mut budget = SEARCH_BUDGET;
    let mut best: Option<(ShapeFingerprint, Vec<u32>)> = None;
    search(dag, classes, &adj, colors, &mut budget, &mut best);
    let (fp, pos) = best.expect("canonical search always yields a labelling");
    let mut order = vec![StageId(0); n];
    for (s, &p) in pos.iter().enumerate() {
        order[p as usize] = StageId(s as u32);
    }
    (fp, order)
}

/// A neighbourhood entry in a refinement key: edge direction, barrier
/// flag, edge class, neighbour colour.
type NbhKey = (bool, bool, u64, u32);

/// WL colour refinement to a fixed point. Colours are dense ranks; ranks
/// are assigned by sorting the full refinement keys, so the result is
/// independent of the DAG's stage numbering (no hashing, no collisions).
fn refine(adj: &[Vec<(bool, bool, u64, usize)>], colors: &mut [u32]) {
    let n = colors.len();
    loop {
        let mut keys: Vec<(u32, Vec<NbhKey>, usize)> = (0..n)
            .map(|v| {
                let mut nbh: Vec<NbhKey> = adj[v]
                    .iter()
                    .map(|&(dir, bar, cls, u)| (dir, bar, cls, colors[u]))
                    .collect();
                nbh.sort_unstable();
                (colors[v], nbh, v)
            })
            .collect();
        keys.sort_unstable();
        let mut next = vec![0u32; n];
        let mut rank = 0u32;
        for w in 0..n {
            if w > 0 && (keys[w].0, &keys[w].1) != (keys[w - 1].0, &keys[w - 1].1) {
                rank += 1;
            }
            next[keys[w].2] = rank;
        }
        let classes_before = colors
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let classes_after = rank as usize + 1;
        let stable = classes_after == classes_before;
        colors.copy_from_slice(&next);
        if stable {
            return;
        }
    }
}

/// Individualization-refinement search: refine; if the colouring is
/// discrete, emit the candidate labelling; otherwise split the smallest
/// non-singleton colour class on each of its members in turn and recurse,
/// keeping the lexicographically smallest fingerprint found.
fn search(
    dag: &JobDag,
    classes: &ShapeClasses,
    adj: &[Vec<(bool, bool, u64, usize)>],
    mut colors: Vec<u32>,
    budget: &mut u32,
    best: &mut Option<(ShapeFingerprint, Vec<u32>)>,
) {
    refine(adj, &mut colors);
    let n = colors.len();

    // Smallest colour value with more than one member is the target cell
    // (an isomorphism-invariant choice).
    let mut count = vec![0u32; n];
    for &c in &colors {
        count[c as usize] += 1;
    }
    let target = count.iter().position(|&k| k > 1);

    match target {
        None => {
            // Discrete colouring: colours are positions.
            let fp = fingerprint_at(dag, classes, &colors);
            if best.as_ref().is_none_or(|(b, _)| fp < *b) {
                *best = Some((fp, colors));
            }
        }
        Some(cell) => {
            let members: Vec<usize> = (0..n).filter(|&v| colors[v] == cell as u32).collect();
            for v in members {
                if *budget == 0 {
                    // Budget exhausted: keep whatever minimum was found so
                    // far; if nothing was, force one leaf via first-member
                    // individualization (the loop below still runs once).
                    if best.is_some() {
                        return;
                    }
                }
                *budget = budget.saturating_sub(1);
                // Split v off its class: double every colour and nudge v,
                // preserving the relative order of all other classes.
                let mut split: Vec<u32> = colors.iter().map(|&c| c * 2).collect();
                split[v] += 1;
                search(dag, classes, adj, split, budget, best);
            }
        }
    }
}

/// Rebuilds `dag` with its stages inserted in the given order (a
/// permutation of all stage ids), preserving names, task counts, operator
/// chains, idempotence flags, profiles and explicit edge kinds. The result
/// describes the same job shape under a different stage numbering —
/// exactly what equal-shape signature tests and the template-instantiation
/// validator need.
pub fn permuted_clone(dag: &JobDag, insertion_order: &[StageId], job_id: u64) -> JobDag {
    assert_eq!(
        insertion_order.len(),
        dag.stage_count(),
        "insertion order must cover every stage exactly once"
    );
    let mut b = DagBuilder::new(job_id, dag.name.clone());
    let mut new_id = vec![StageId(0); dag.stage_count()];
    for &old in insertion_order {
        let s = dag.stage(old);
        let mut sb = b
            .stage(s.name.clone(), s.task_count)
            .ops(s.operators.iter().cloned())
            .profile(s.profile.clone());
        if !s.idempotent {
            sb = sb.non_idempotent();
        }
        new_id[old.index()] = sb.build();
    }
    for e in dag.edges() {
        b.edge_kind(new_id[e.src.index()], new_id[e.dst.index()], e.kind);
    }
    b.build()
        .expect("permuting stage insertion preserves DAG validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;
    use crate::operator::Operator;

    /// Uniform classes: stage class = task count, edge class = 0.
    fn plain_classes(dag: &JobDag) -> ShapeClasses {
        ShapeClasses {
            stage: dag
                .stages()
                .iter()
                .map(|s| u64::from(s.task_count))
                .collect(),
            edge: vec![0; dag.edges().len()],
        }
    }

    fn diamond(job_id: u64) -> JobDag {
        let mut b = DagBuilder::new(job_id, "diamond");
        let a = b
            .stage("A", 4)
            .op(Operator::TableScan { table: "t".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let l = b
            .stage("B", 2)
            .op(Operator::ShuffleRead)
            .op(Operator::Filter)
            .op(Operator::ShuffleWrite)
            .build();
        let r = b
            .stage("C", 3)
            .op(Operator::ShuffleRead)
            .op(Operator::Project)
            .op(Operator::ShuffleWrite)
            .build();
        let d = b
            .stage("D", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::AdhocSink)
            .build();
        b.edge(a, l).edge(a, r).edge(l, d).edge(r, d);
        b.build().unwrap()
    }

    #[test]
    fn as_numbered_equal_for_identical_rebuilds() {
        let (d1, d2) = (diamond(1), diamond(999));
        let f1 = as_numbered_fingerprint(&d1, &plain_classes(&d1));
        let f2 = as_numbered_fingerprint(&d2, &plain_classes(&d2));
        assert_eq!(f1, f2, "job id must not influence the fingerprint");
        assert_eq!(f1.hash64(), f2.hash64());
    }

    #[test]
    fn canonical_equal_under_insertion_permutation() {
        let d1 = diamond(1);
        // Rebuild with stages inserted D, C, B, A.
        let perm: Vec<StageId> = (0..4).rev().map(StageId).collect();
        let d2 = permuted_clone(&d1, &perm, 2);
        let (f1, _) = canonical_fingerprint(&d1, &plain_classes(&d1));
        let (f2, _) = canonical_fingerprint(&d2, &plain_classes(&d2));
        assert_eq!(f1, f2, "insertion order must not influence canonical form");
        // As-numbered fingerprints differ (positions moved).
        assert_ne!(
            as_numbered_fingerprint(&d1, &plain_classes(&d1)),
            as_numbered_fingerprint(&d2, &plain_classes(&d2)),
        );
    }

    #[test]
    fn canonical_order_is_a_class_preserving_isomorphism() {
        let d1 = diamond(1);
        let perm: Vec<StageId> = [2u32, 0, 3, 1].into_iter().map(StageId).collect();
        let d2 = permuted_clone(&d1, &perm, 2);
        let c1 = plain_classes(&d1);
        let c2 = plain_classes(&d2);
        let (f1, o1) = canonical_fingerprint(&d1, &c1);
        let (f2, o2) = canonical_fingerprint(&d2, &c2);
        assert_eq!(f1, f2);
        // Pairing canonical positions maps stages with equal classes.
        for p in 0..o1.len() {
            assert_eq!(c1.stage[o1[p].index()], c2.stage[o2[p].index()]);
        }
    }

    #[test]
    fn class_changes_break_collision() {
        let d1 = diamond(1);
        let mut c2 = plain_classes(&d1);
        c2.stage[1] += 1; // different resource class on one stage
        let (f1, _) = canonical_fingerprint(&d1, &plain_classes(&d1));
        let (f2, _) = canonical_fingerprint(&d1, &c2);
        assert_ne!(f1, f2);

        let mut c3 = plain_classes(&d1);
        c3.edge[0] = 7; // different size bucket on one edge
        let (f3, _) = canonical_fingerprint(&d1, &c3);
        assert_ne!(f1, f3);
    }

    #[test]
    fn symmetric_siblings_still_canonicalise() {
        // A fan-out to 3 identical siblings: WL alone cannot split them, so
        // the individualization search must, and any insertion order of the
        // siblings must yield the same canonical form.
        let build = |order: &[usize], job: u64| {
            let mut b = DagBuilder::new(job, "fan");
            let root = b
                .stage("R", 8)
                .op(Operator::TableScan { table: "t".into() })
                .op(Operator::ShuffleWrite)
                .build();
            let mut kids = vec![StageId(0); 3];
            for &i in order {
                kids[i] = b
                    .stage(format!("K{i}"), 2)
                    .op(Operator::ShuffleRead)
                    .op(Operator::AdhocSink)
                    .build();
            }
            for k in kids {
                b.edge(root, k);
            }
            b.build().unwrap()
        };
        let d1 = build(&[0, 1, 2], 1);
        let d2 = build(&[2, 0, 1], 2);
        let (f1, _) = canonical_fingerprint(&d1, &plain_classes(&d1));
        let (f2, _) = canonical_fingerprint(&d2, &plain_classes(&d2));
        assert_eq!(f1, f2);
    }

    #[test]
    fn permuted_clone_preserves_stage_payloads() {
        let d1 = diamond(5);
        let perm: Vec<StageId> = [3u32, 1, 0, 2].into_iter().map(StageId).collect();
        let d2 = permuted_clone(&d1, &perm, 6);
        assert_eq!(d2.stage_count(), d1.stage_count());
        assert_eq!(d2.edges().len(), d1.edges().len());
        for old in d1.stages() {
            let new = d2.stage_by_name(&old.name).unwrap();
            assert_eq!(new.task_count, old.task_count);
            assert_eq!(new.operators, old.operators);
            assert_eq!(new.idempotent, old.idempotent);
            assert_eq!(new.profile, old.profile);
        }
    }

    #[test]
    fn oversized_dag_falls_back_to_as_numbered() {
        let mut b = DagBuilder::new(1, "big-chain");
        let mut prev: Option<StageId> = None;
        for i in 0..(CANONICAL_STAGE_LIMIT + 1) {
            let s = b.stage(format!("S{i}"), 1).op(Operator::Filter).build();
            if let Some(p) = prev {
                b.edge(p, s);
            }
            prev = Some(s);
        }
        let dag = b.build().unwrap();
        let classes = plain_classes(&dag);
        let (f, order) = canonical_fingerprint(&dag, &classes);
        assert_eq!(f, as_numbered_fingerprint(&dag, &classes));
        assert_eq!(order.len(), dag.stage_count());
    }
}
