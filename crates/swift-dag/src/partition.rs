//! Shuffle-mode-aware job partitioning (paper §III-A1, Algorithms 1 & 2).
//!
//! The job DAG is cut at **barrier** edges into *graphlets*: maximal
//! sub-graphs connected by **pipeline** edges. Each graphlet is later gang
//! scheduled as one unit, while different graphlets are scheduled
//! independently as their input data become ready.

use crate::dag::JobDag;
use crate::edge::EdgeKind;
use crate::ids::{GraphletId, StageId};
use std::collections::BTreeSet;

/// One graphlet: a set of stages connected by pipeline edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graphlet {
    /// Dense id of this graphlet within the partition.
    pub id: GraphletId,
    /// Member stages, sorted by id.
    pub stages: Vec<StageId>,
    /// The *trigger stages*: member stages with outgoing barrier edges.
    /// Their completion makes downstream graphlets submittable (Fig. 4
    /// labels one per graphlet, e.g. "Trigger Stage: J4").
    pub trigger_stages: Vec<StageId>,
}

impl Graphlet {
    /// Returns `true` if `stage` belongs to this graphlet.
    pub fn contains(&self, stage: StageId) -> bool {
        self.stages.binary_search(&stage).is_ok()
    }

    /// Total number of task instances in the graphlet — the gang size the
    /// Resource Scheduler must satisfy before the graphlet can run.
    pub fn total_tasks(&self, dag: &JobDag) -> u64 {
        self.stages
            .iter()
            .map(|&s| dag.stage(s).task_count as u64)
            .sum()
    }
}

/// The result of partitioning a job: its graphlets plus dependency
/// structure between them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    graphlets: Vec<Graphlet>,
    /// `stage_to_graphlet[s]` = graphlet owning stage `s`.
    stage_to_graphlet: Vec<GraphletId>,
    /// `deps[g]` = graphlets that must complete before `g` may be submitted
    /// (conservative order, §III-A2): every graphlet reachable via a barrier
    /// edge into `g`.
    deps: Vec<Vec<GraphletId>>,
    /// Reverse of `deps`: graphlets unblocked by `g`'s completion.
    dependents: Vec<Vec<GraphletId>>,
}

impl Partition {
    /// The graphlets in creation order (which follows the DAG's topological
    /// order of their first stage, per Algorithm 1).
    pub fn graphlets(&self) -> &[Graphlet] {
        &self.graphlets
    }

    /// Number of graphlets.
    pub fn len(&self) -> usize {
        self.graphlets.len()
    }

    /// Returns `true` if the partition holds no graphlets (cannot happen for
    /// a valid [`JobDag`], but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.graphlets.is_empty()
    }

    /// Looks up a graphlet by id.
    pub fn graphlet(&self, id: GraphletId) -> &Graphlet {
        &self.graphlets[id.index()]
    }

    /// Number of stages the partition covers: all of the DAG's.
    pub fn stage_count(&self) -> usize {
        self.stage_to_graphlet.len()
    }

    /// The graphlet owning `stage`.
    pub fn graphlet_of(&self, stage: StageId) -> GraphletId {
        self.stage_to_graphlet[stage.index()]
    }

    /// Graphlets that must complete before `g` can be submitted
    /// (conservative submission order, §III-A2).
    pub fn dependencies(&self, g: GraphletId) -> &[GraphletId] {
        &self.deps[g.index()]
    }

    /// Graphlets whose submission waits (among others) on `g`.
    pub fn dependents(&self, g: GraphletId) -> &[GraphletId] {
        &self.dependents[g.index()]
    }

    /// A submission order satisfying all dependencies (topological over the
    /// graphlet dependency graph, smallest id first among ready graphlets).
    pub fn submission_order(&self) -> Vec<GraphletId> {
        let n = self.graphlets.len();
        let mut indeg: Vec<usize> = self.deps.iter().map(Vec::len).collect();
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| std::cmp::Reverse(i as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            order.push(GraphletId(i));
            for &dep in &self.dependents[i as usize] {
                indeg[dep.index()] -= 1;
                if indeg[dep.index()] == 0 {
                    ready.push(std::cmp::Reverse(dep.raw()));
                }
            }
        }
        debug_assert_eq!(order.len(), n, "graphlet dependency graph must be acyclic");
        order
    }
}

/// Partitions `dag` into graphlets following the paper's Algorithm 1
/// ("Shuffle-Mode-Aware Job Partitioning") and Algorithm 2
/// (`scanAndAddStages`).
///
/// Algorithm 1: while the job DAG is not empty, remove the first remaining
/// stage in topological order, start a new graphlet with it, and flood-fill
/// across pipeline edges (Algorithm 2) in both directions, removing every
/// visited stage from the DAG.
///
/// The recursion of Algorithm 2 is realised with an explicit stack so
/// arbitrarily deep pipelines cannot overflow the call stack.
///
/// # Robustness beyond the paper
///
/// For tree-shaped plans (every stage feeds at most one consumer — all the
/// paper's examples) the algorithm's graphlet dependency graph is acyclic.
/// With multi-consumer stages, however, pipeline flood-fill can create
/// graphlets whose barrier dependencies form a cycle (e.g. `0→{1,4}`
/// pipeline, `1→2` barrier, `2→3` pipeline, `3→4` barrier yields
/// `{0,1,4} ⇄ {2,3}`). A scheduler submitting graphlets only when all their
/// inputs are ready would deadlock on such a cycle, so after flood-fill we
/// condense strongly connected components of the graphlet quotient graph:
/// cyclically-dependent graphlets are merged into one. Gang scheduling
/// tolerates the resulting intra-graphlet barrier edges (the consumer tasks
/// of such an edge simply wait for data like any pipeline consumer would).
pub fn partition(dag: &JobDag) -> Partition {
    let n = dag.stage_count();
    let mut remaining: Vec<bool> = vec![true; n];
    let mut stage_to_comp: Vec<u32> = vec![0; n];
    let mut comps: Vec<Vec<StageId>> = Vec::new();

    // Phase 1: Algorithms 1 & 2 — pipeline-connected components, seeded in
    // topological order.
    for &start in dag.topo_order() {
        if !remaining[start.index()] {
            continue;
        }
        let cid = comps.len() as u32;
        let mut members = BTreeSet::new();
        let mut stack = vec![start];
        remaining[start.index()] = false;
        while let Some(stage) = stack.pop() {
            members.insert(stage);
            stage_to_comp[stage.index()] = cid;
            for e in dag.outgoing(stage) {
                if remaining[e.dst.index()] && e.kind == EdgeKind::Pipeline {
                    remaining[e.dst.index()] = false;
                    stack.push(e.dst);
                }
            }
            for e in dag.incoming(stage) {
                if remaining[e.src.index()] && e.kind == EdgeKind::Pipeline {
                    remaining[e.src.index()] = false;
                    stack.push(e.src);
                }
            }
        }
        comps.push(members.into_iter().collect());
    }

    // Phase 2: condense SCCs of the component quotient graph (edges = the
    // barrier edges crossing components). Usually every SCC is a singleton
    // and this is a no-op.
    let c = comps.len();
    let mut quotient: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); c];
    for e in dag.edges() {
        let (from, to) = (stage_to_comp[e.src.index()], stage_to_comp[e.dst.index()]);
        if from != to {
            quotient[from as usize].insert(to);
        }
    }
    let scc_of = condense_sccs(&quotient);

    // Phase 3: materialise final graphlets. Final ids follow the smallest
    // original component id in each SCC, preserving the paper's numbering
    // for the common acyclic case.
    let scc_count = scc_of.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut first_comp: Vec<u32> = vec![u32::MAX; scc_count];
    for (comp, &scc) in scc_of.iter().enumerate() {
        first_comp[scc as usize] = first_comp[scc as usize].min(comp as u32);
    }
    let mut order: Vec<u32> = (0..scc_count as u32).collect();
    order.sort_by_key(|&scc| first_comp[scc as usize]);
    let mut scc_to_gid: Vec<GraphletId> = vec![GraphletId(0); scc_count];
    for (gid, &scc) in order.iter().enumerate() {
        scc_to_gid[scc as usize] = GraphletId(gid as u32);
    }

    let mut stage_sets: Vec<BTreeSet<StageId>> = vec![BTreeSet::new(); scc_count];
    for (comp, stages) in comps.iter().enumerate() {
        let gid = scc_to_gid[scc_of[comp] as usize];
        stage_sets[gid.index()].extend(stages.iter().copied());
    }
    materialise(dag, stage_sets)
}

/// Final pass of [`partition`]: turns the per-graphlet stage sets
/// (already in final graphlet-id order) into a full [`Partition`] —
/// graphlets, trigger stages and the barrier-edge dependency structure.
fn materialise(dag: &JobDag, stage_sets: Vec<BTreeSet<StageId>>) -> Partition {
    let n = dag.stage_count();
    let scc_count = stage_sets.len();
    let mut stage_to_graphlet = vec![GraphletId(0); n];
    let mut graphlets: Vec<Graphlet> = Vec::with_capacity(scc_count);
    for (i, set) in stage_sets.into_iter().enumerate() {
        let id = GraphletId(i as u32);
        let stages: Vec<StageId> = set.into_iter().collect();
        for &s in &stages {
            stage_to_graphlet[s.index()] = id;
        }
        graphlets.push(Graphlet {
            id,
            stages,
            trigger_stages: Vec::new(),
        });
    }
    // Trigger stages: members with a barrier edge that crosses graphlets.
    for g in &mut graphlets {
        g.trigger_stages = g
            .stages
            .iter()
            .copied()
            .filter(|&s| {
                dag.outgoing(s).any(|e| {
                    e.kind == EdgeKind::Barrier
                        && stage_to_graphlet[e.dst.index()] != stage_to_graphlet[e.src.index()]
                })
            })
            .collect();
    }

    // Dependencies from barrier edges crossing final graphlets. (Pipeline
    // edges never cross: merging only ever grows components.)
    let g = graphlets.len();
    let mut deps: Vec<BTreeSet<GraphletId>> = vec![BTreeSet::new(); g];
    for e in dag.edges() {
        let from = stage_to_graphlet[e.src.index()];
        let to = stage_to_graphlet[e.dst.index()];
        if from != to {
            debug_assert_eq!(
                e.kind,
                EdgeKind::Barrier,
                "pipeline edge must not cross graphlets"
            );
            deps[to.index()].insert(from);
        }
    }
    let deps: Vec<Vec<GraphletId>> = deps.into_iter().map(|s| s.into_iter().collect()).collect();
    let mut dependents: Vec<Vec<GraphletId>> = vec![Vec::new(); g];
    for (to, ds) in deps.iter().enumerate() {
        for &from in ds {
            dependents[from.index()].push(GraphletId(to as u32));
        }
    }

    Partition {
        graphlets,
        stage_to_graphlet,
        deps,
        dependents,
    }
}

/// Iterative Tarjan SCC over a small adjacency-set graph; returns the SCC
/// index of every node. SCC indices are arbitrary but stable for a given
/// input.
fn condense_sccs(adj: &[BTreeSet<u32>]) -> Vec<u32> {
    let n = adj.len();
    let mut index = vec![u32::MAX; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut scc_of = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut scc_count = 0u32;

    // Explicit DFS frames: (node, iterator position over its successors).
    for root in 0..n as u32 {
        if index[root as usize] != u32::MAX {
            continue;
        }
        let mut frames: Vec<(u32, std::collections::btree_set::Iter<'_, u32>)> = Vec::new();
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        frames.push((root, adj[root as usize].iter()));
        while let Some((v, it)) = frames.last_mut() {
            let v = *v;
            if let Some(&w) = it.next() {
                if index[w as usize] == u32::MAX {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, adj[w as usize].iter()));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some((parent, _)) = frames.last() {
                    let p = *parent as usize;
                    lowlink[p] = lowlink[p].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    while let Some(w) = stack.pop() {
                        on_stack[w as usize] = false;
                        scc_of[w as usize] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
            }
        }
    }
    scc_of
}

/// Checks a claimed graphlet partition of `dag` (§III-A) and returns one
/// message per violation; empty means the claim is sound:
///
/// * every stage is in exactly one graphlet, and every listed stage exists;
/// * only barrier edges cross graphlets (pipeline producers and consumers
///   must be gang scheduled together);
/// * the graphlet dependency graph is acyclic, or a scheduler that submits
///   a graphlet once its inputs are ready deadlocks.
///
/// It takes the raw claim, not a [`Partition`], which is sound by
/// construction: the chaos pre-flight hands it [`partition`]'s graphlets.
pub fn validate_partition(dag: &JobDag, claimed: &[Vec<StageId>]) -> Vec<String> {
    let mut violations = Vec::new();
    let n = dag.stage_count();
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (g, stages) in claimed.iter().enumerate() {
        for &s in stages {
            if s.index() < n {
                owners[s.index()].push(g);
            } else {
                violations.push(format!(
                    "graphlet {g} lists unknown stage {s} (job has {n} stages)"
                ));
            }
        }
    }
    for (i, gs) in owners.iter().enumerate() {
        let stage = &dag.stage(StageId(i as u32)).name;
        match gs[..] {
            [_] => {}
            [] => violations.push(format!("stage {stage} is in no graphlet")),
            [a, b, ..] => violations.push(format!(
                "stage {stage} is in {} graphlets (first two: {a} and {b})",
                gs.len()
            )),
        }
    }

    // The cross-graphlet checks take each stage's first graphlet, so they
    // still run on a claim that is broken above; unassigned stages are
    // skipped.
    let g = claimed.len();
    let mut quotient: Vec<Vec<usize>> = vec![Vec::new(); g];
    for e in dag.edges() {
        let (Some(&from), Some(&to)) =
            (owners[e.src.index()].first(), owners[e.dst.index()].first())
        else {
            continue;
        };
        if from == to {
            continue;
        }
        if e.kind == EdgeKind::Pipeline {
            violations.push(format!(
                "pipeline edge {} -> {} crosses graphlets {from} and {to}; only barrier edges \
                 may cross",
                dag.stage(e.src).name,
                dag.stage(e.dst).name
            ));
        } else if !quotient[from].contains(&to) {
            quotient[from].push(to);
        }
    }

    // Kahn over the barrier quotient graph.
    let mut indeg = vec![0usize; g];
    for &to in quotient.iter().flatten() {
        indeg[to] += 1;
    }
    let mut ready: Vec<usize> = (0..g).filter(|&i| indeg[i] == 0).collect();
    while let Some(i) = ready.pop() {
        for &to in &quotient[i] {
            indeg[to] -= 1;
            if indeg[to] == 0 {
                ready.push(to);
            }
        }
    }
    let stuck: Vec<String> = (0..g)
        .filter(|&i| indeg[i] > 0)
        .map(|i| i.to_string())
        .collect();
    if !stuck.is_empty() {
        violations.push(format!(
            "graphlet dependency graph is cyclic (graphlets {} wait on each other)",
            stuck.join(", ")
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;
    use crate::operator::Operator;

    /// Builds the TPC-H Q9 DAG of Fig. 4: stages M1..M8, R9, J10, R11, R12
    /// with the published pipeline/barrier structure. Task counts follow
    /// Fig. 4(a) where given.
    pub(crate) fn q9_dag() -> JobDag {
        let mut b = DagBuilder::new(9, "tpch-q9");
        let scan = |b: &mut DagBuilder, name: &str, tasks: u32| {
            b.stage(name, tasks)
                .op(Operator::TableScan {
                    table: name.to_lowercase(),
                })
                .op(Operator::ShuffleWrite)
                .build()
        };
        let m1 = scan(&mut b, "M1", 956);
        let m2 = scan(&mut b, "M2", 220);
        let m3 = scan(&mut b, "M3", 3);
        // J4 joins M1/M2/M3 and contains MergeSort => its outgoing edge is a barrier.
        let j4 = b
            .stage("J4", 403)
            .op(Operator::ShuffleRead)
            .op(Operator::HashJoin)
            .op(Operator::MergeSort)
            .op(Operator::ShuffleWrite)
            .build();
        let m5 = scan(&mut b, "M5", 403);
        let j6 = b
            .stage("J6", 403)
            .op(Operator::ShuffleRead)
            .op(Operator::MergeJoin)
            .op(Operator::MergeSort)
            .op(Operator::ShuffleWrite)
            .build();
        let m7 = scan(&mut b, "M7", 220);
        let m8 = scan(&mut b, "M8", 20);
        let r9 = b
            .stage("R9", 100)
            .op(Operator::ShuffleRead)
            .op(Operator::HashJoin)
            .op(Operator::ShuffleWrite)
            .build();
        let j10 = b
            .stage("J10", 200)
            .op(Operator::ShuffleRead)
            .op(Operator::MergeJoin)
            .op(Operator::MergeSort)
            .op(Operator::ShuffleWrite)
            .build();
        let r11 = b
            .stage("R11", 50)
            .op(Operator::ShuffleRead)
            .op(Operator::StreamedAggregate)
            .op(Operator::ShuffleWrite)
            .build();
        let r12 = b
            .stage("R12", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::AdhocSink)
            .build();
        b.edge(m1, j4).edge(m2, j4).edge(m3, j4); // pipeline
        b.edge(j4, j6); // barrier (J4 has MergeSort)
        b.edge(m5, j6); // pipeline (M5 streams; producer has no output sort)
        b.edge(m7, r9).edge(m8, r9); // pipeline
        b.edge(r9, j10); // pipeline (R9 is a hash join, streams)
        b.edge(j6, j10); // barrier (J6 has MergeSort)
        b.edge(j10, r11); // barrier (J10 has MergeSort)
        b.edge(r11, r12); // pipeline (StreamedAggregate emits in order, streams)
        b.build().unwrap()
    }

    #[test]
    fn q9_partitions_like_fig4() {
        // Pins the published Fig. 4 grouping:
        // {M1,M2,M3,J4}, {M5,J6}, {M7,M8,R9,J10}, {R11,R12}.
        let dag = q9_dag();
        let p = partition(&dag);
        let names: Vec<Vec<String>> = p
            .graphlets()
            .iter()
            .map(|g| {
                g.stages
                    .iter()
                    .map(|&s| dag.stage(s).name.clone())
                    .collect()
            })
            .collect();
        assert_eq!(
            names,
            vec![
                vec!["M1", "M2", "M3", "J4"],
                vec!["M5", "J6"],
                vec!["M7", "M8", "R9", "J10"],
                vec!["R11", "R12"],
            ]
        );
    }

    #[test]
    fn q9_graphlet_dependencies_match_submission_story() {
        let dag = q9_dag();
        let p = partition(&dag);
        // Graphlet 1 (id 0) first; 2 depends on 1; 3 depends on 2; 4 on 3.
        assert!(p.dependencies(GraphletId(0)).is_empty());
        assert_eq!(p.dependencies(GraphletId(1)), &[GraphletId(0)]);
        assert_eq!(p.dependencies(GraphletId(2)), &[GraphletId(1)]);
        assert_eq!(p.dependencies(GraphletId(3)), &[GraphletId(2)]);
        assert_eq!(
            p.submission_order(),
            vec![GraphletId(0), GraphletId(1), GraphletId(2), GraphletId(3)]
        );
    }

    #[test]
    fn q9_trigger_stages() {
        let dag = q9_dag();
        let p = partition(&dag);
        let trig: Vec<Vec<&str>> = p
            .graphlets()
            .iter()
            .map(|g| {
                g.trigger_stages
                    .iter()
                    .map(|&s| dag.stage(s).name.as_str())
                    .collect()
            })
            .collect();
        assert_eq!(
            trig,
            vec![vec!["J4"], vec!["J6"], vec!["J10"], Vec::<&str>::new()]
        );
    }

    #[test]
    fn single_stage_job_is_one_graphlet() {
        let mut b = DagBuilder::new(1, "single");
        b.stage("only", 8)
            .op(Operator::TableScan { table: "t".into() })
            .op(Operator::AdhocSink)
            .build();
        let dag = b.build().unwrap();
        let p = partition(&dag);
        assert_eq!(p.len(), 1);
        assert_eq!(p.graphlet(GraphletId(0)).stages, vec![StageId(0)]);
        assert!(p.graphlet(GraphletId(0)).trigger_stages.is_empty());
    }

    #[test]
    fn all_pipeline_job_is_one_graphlet() {
        let mut b = DagBuilder::new(1, "pipeline-chain");
        let mut prev = None;
        for i in 0..6 {
            let s = b
                .stage(format!("S{i}"), 2)
                .op(if i == 0 {
                    Operator::TableScan { table: "t".into() }
                } else {
                    Operator::ShuffleRead
                })
                .op(Operator::Filter)
                .op(Operator::ShuffleWrite)
                .build();
            if let Some(p) = prev {
                b.edge(p, s);
            }
            prev = Some(s);
        }
        let dag = b.build().unwrap();
        let p = partition(&dag);
        assert_eq!(p.len(), 1);
        assert_eq!(p.graphlet(GraphletId(0)).stages.len(), 6);
    }

    #[test]
    fn all_barrier_chain_is_one_graphlet_per_stage() {
        let mut b = DagBuilder::new(1, "barrier-chain");
        let mut prev: Option<StageId> = None;
        for i in 0..5 {
            let s = b
                .stage(format!("S{i}"), 2)
                .op(Operator::ShuffleRead)
                .op(Operator::MergeSort)
                .op(Operator::ShuffleWrite)
                .build();
            if let Some(p) = prev {
                b.edge(p, s);
            }
            prev = Some(s);
        }
        let dag = b.build().unwrap();
        let p = partition(&dag);
        assert_eq!(p.len(), 5);
        let order = p.submission_order();
        assert_eq!(order.len(), 5);
        for (i, g) in order.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
    }

    #[test]
    fn graphlet_total_tasks_is_gang_size() {
        let dag = q9_dag();
        let p = partition(&dag);
        // graphlet 1 = M1(956)+M2(220)+M3(3)+J4(403)
        assert_eq!(
            p.graphlet(GraphletId(0)).total_tasks(&dag),
            956 + 220 + 3 + 403
        );
    }

    /// 0 -> {1, 4} pipeline, 1 -> 2 barrier, 2 -> 3 pipeline, 3 -> 4
    /// barrier. Pipeline flood-fill yields {0,1,4} and {2,3} with mutual
    /// barrier dependencies.
    fn cyclic_quotient_dag() -> JobDag {
        let mut b = DagBuilder::new(1, "cyclic-quotient");
        let streaming = |b: &mut DagBuilder, n: &str| {
            b.stage(n, 1)
                .op(Operator::ShuffleRead)
                .op(Operator::ShuffleWrite)
                .build()
        };
        let sorting = |b: &mut DagBuilder, n: &str| {
            b.stage(n, 1)
                .op(Operator::ShuffleRead)
                .op(Operator::MergeSort)
                .op(Operator::ShuffleWrite)
                .build()
        };
        let s0 = streaming(&mut b, "S0");
        let s1 = sorting(&mut b, "S1");
        let s2 = streaming(&mut b, "S2");
        let s3 = sorting(&mut b, "S3");
        let s4 = streaming(&mut b, "S4");
        b.edge(s0, s1)
            .edge(s0, s4)
            .edge(s1, s2)
            .edge(s2, s3)
            .edge(s3, s4);
        b.build().unwrap()
    }

    #[test]
    fn cyclic_quotient_is_condensed() {
        // The condensation must merge the two flood-filled components into
        // a single graphlet so schedulers never deadlock.
        let dag = cyclic_quotient_dag();
        assert_eq!(
            dag.edges().iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![
                EdgeKind::Pipeline,
                EdgeKind::Pipeline,
                EdgeKind::Barrier,
                EdgeKind::Pipeline,
                EdgeKind::Barrier
            ]
        );
        let p = partition(&dag);
        assert_eq!(p.len(), 1, "cyclically dependent graphlets must merge");
        assert_eq!(p.graphlet(GraphletId(0)).stages.len(), 5);
        assert!(p.graphlet(GraphletId(0)).trigger_stages.is_empty());
        assert_eq!(p.submission_order(), vec![GraphletId(0)]);
    }

    #[test]
    fn stage_to_graphlet_is_total() {
        let dag = q9_dag();
        let p = partition(&dag);
        for s in dag.stages() {
            let g = p.graphlet_of(s.id);
            assert!(p.graphlet(g).contains(s.id));
        }
    }

    /// A -> B pipeline, B -> C barrier (B sorts): graphlets {A, B} and {C}.
    fn two_graphlet_dag() -> JobDag {
        let mut b = DagBuilder::new(1, "two");
        let a = b
            .stage("A", 4)
            .op(Operator::TableScan { table: "t".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let bb = b
            .stage("B", 4)
            .op(Operator::ShuffleRead)
            .op(Operator::MergeSort)
            .op(Operator::ShuffleWrite)
            .build();
        let c = b
            .stage("C", 2)
            .op(Operator::ShuffleRead)
            .op(Operator::AdhocSink)
            .build();
        b.edge(a, bb).edge(bb, c);
        b.build().unwrap()
    }

    fn claim(stages: &[&[u32]]) -> Vec<Vec<StageId>> {
        stages
            .iter()
            .map(|g| g.iter().map(|&s| StageId(s)).collect())
            .collect()
    }

    #[test]
    fn validate_partition_accepts_what_partition_claims() {
        for dag in [q9_dag(), two_graphlet_dag(), cyclic_quotient_dag()] {
            let claimed: Vec<Vec<StageId>> = partition(&dag)
                .graphlets()
                .iter()
                .map(|g| g.stages.clone())
                .collect();
            assert_eq!(validate_partition(&dag, &claimed), Vec::<String>::new());
        }
    }

    #[test]
    fn validate_partition_flags_unassigned_double_and_unknown_stages() {
        let dag = two_graphlet_dag();
        // C is in no graphlet, A is in two, and the job has no stage 9.
        let v = validate_partition(&dag, &claim(&[&[0, 1], &[0, 9]]));
        assert_eq!(
            v,
            vec![
                "graphlet 1 lists unknown stage s9 (job has 3 stages)",
                "stage A is in 2 graphlets (first two: 0 and 1)",
                "stage C is in no graphlet",
            ]
        );
    }

    #[test]
    fn validate_partition_flags_a_pipeline_edge_across_graphlets() {
        let dag = two_graphlet_dag();
        let v = validate_partition(&dag, &claim(&[&[0], &[1], &[2]]));
        assert_eq!(
            v,
            vec!["pipeline edge A -> B crosses graphlets 0 and 1; only barrier edges may cross"]
        );
    }

    #[test]
    fn validate_partition_flags_a_cyclic_graphlet_graph() {
        let dag = cyclic_quotient_dag();
        let v = validate_partition(&dag, &claim(&[&[0, 1, 4], &[2, 3]]));
        assert_eq!(
            v,
            vec!["graphlet dependency graph is cyclic (graphlets 0, 1 wait on each other)"]
        );
    }
}
