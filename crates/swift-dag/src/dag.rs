//! The job DAG: stages connected by classified shuffle edges.

use crate::edge::{classify_edge, Edge, EdgeKind};
use crate::ids::{JobId, StageId};
use crate::operator::Operator;
use crate::stage::{Stage, StageProfile};
use std::collections::VecDeque;
use std::fmt;

/// Errors produced while building or validating a [`JobDag`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// An edge references a stage id that does not exist.
    UnknownStage(StageId),
    /// A self-loop `s -> s` was added.
    SelfLoop(StageId),
    /// The same `(src, dst)` edge was added twice.
    DuplicateEdge(StageId, StageId),
    /// The graph contains a directed cycle (job DAGs must be acyclic).
    Cycle,
    /// The job has no stages.
    Empty,
    /// A stage has `task_count == 0`.
    ZeroTasks(StageId),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownStage(s) => write!(f, "edge references unknown stage {s}"),
            DagError::SelfLoop(s) => write!(f, "self-loop on stage {s}"),
            DagError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            DagError::Cycle => write!(f, "job graph contains a cycle"),
            DagError::Empty => write!(f, "job graph has no stages"),
            DagError::ZeroTasks(s) => write!(f, "stage {s} has zero tasks"),
        }
    }
}

impl std::error::Error for DagError {}

/// An immutable, validated job DAG.
///
/// Construct one with [`DagBuilder`]; validation (acyclicity, edge sanity)
/// happens at [`DagBuilder::build`] so every existing `JobDag` is
/// well-formed. Stage ids are dense indices into [`JobDag::stages`].
#[derive(Clone, Debug, PartialEq)]
pub struct JobDag {
    /// Id of the job this DAG describes.
    pub job_id: JobId,
    /// Human-readable job name (e.g. `"tpch-q9"`).
    pub name: String,
    stages: Vec<Stage>,
    edges: Vec<Edge>,
    /// `outgoing[s]` = indices into `edges` with `src == s`.
    outgoing: Vec<Vec<u32>>,
    /// `incoming[s]` = indices into `edges` with `dst == s`.
    incoming: Vec<Vec<u32>>,
    topo: Vec<StageId>,
}

impl JobDag {
    /// All stages, indexed by [`StageId`].
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Total number of task instances across all stages.
    pub fn total_tasks(&self) -> u64 {
        self.stages.iter().map(|s| s.task_count as u64).sum()
    }

    /// Looks up a stage by id.
    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.index()]
    }

    /// Looks up a stage by its name, if present.
    pub fn stage_by_name(&self, name: &str) -> Option<&Stage> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Edges leaving `id` (this stage is the producer).
    pub fn outgoing(&self, id: StageId) -> impl Iterator<Item = &Edge> {
        self.outgoing[id.index()]
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Edges entering `id` (this stage is the consumer).
    pub fn incoming(&self, id: StageId) -> impl Iterator<Item = &Edge> {
        self.incoming[id.index()]
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Like [`JobDag::outgoing`], but yields `(edge_index, &Edge)` where
    /// `edge_index` is the edge's position in [`JobDag::edges`] — the
    /// stable identifier shuffle transports key segments by.
    pub fn outgoing_indexed(&self, id: StageId) -> impl Iterator<Item = (usize, &Edge)> {
        self.outgoing[id.index()]
            .iter()
            .map(move |&i| (i as usize, &self.edges[i as usize]))
    }

    /// Like [`JobDag::incoming`], but yields `(edge_index, &Edge)`.
    pub fn incoming_indexed(&self, id: StageId) -> impl Iterator<Item = (usize, &Edge)> {
        self.incoming[id.index()]
            .iter()
            .map(move |&i| (i as usize, &self.edges[i as usize]))
    }

    /// Direct upstream stages of `id`.
    pub fn predecessors(&self, id: StageId) -> impl Iterator<Item = StageId> + '_ {
        self.incoming(id).map(|e| e.src)
    }

    /// Direct downstream stages of `id`.
    pub fn successors(&self, id: StageId) -> impl Iterator<Item = StageId> + '_ {
        self.outgoing(id).map(|e| e.dst)
    }

    /// A topological order of the stages, stable with respect to stage id
    /// (among ready stages the smallest id comes first), so partitioning and
    /// scheduling are deterministic.
    pub fn topo_order(&self) -> &[StageId] {
        &self.topo
    }

    /// Stages with no outgoing edges (the job's sinks).
    pub fn leaves(&self) -> impl Iterator<Item = StageId> + '_ {
        self.stages
            .iter()
            .filter(|s| self.outgoing[s.id.index()].is_empty())
            .map(|s| s.id)
    }

    /// The shuffle edge size (`M × N`, §III-B) of the given edge.
    pub fn edge_shuffle_size(&self, edge: &Edge) -> u64 {
        edge.shuffle_edge_size(
            self.stage(edge.src).task_count,
            self.stage(edge.dst).task_count,
        )
    }

    /// The largest shuffle edge size over all edges of the job; `0` for a
    /// single-stage job. Used to bucket jobs into small/medium/large shuffle
    /// classes for the Fig. 12 experiment.
    pub fn max_shuffle_edge_size(&self) -> u64 {
        self.edges
            .iter()
            .map(|e| self.edge_shuffle_size(e))
            .max()
            .unwrap_or(0)
    }

    /// Renders the DAG in a compact single-line-per-stage text form, handy
    /// for examples and debugging.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "job {} ({} stages, {} tasks)\n",
            self.name,
            self.stage_count(),
            self.total_tasks()
        ));
        for s in &self.stages {
            let ops: Vec<String> = s.operators.iter().map(|o| o.to_string()).collect();
            out.push_str(&format!(
                "  {} [{} tasks] {}\n",
                s.name,
                s.task_count,
                ops.join(" -> ")
            ));
            for e in self.outgoing(s.id) {
                let kind = match e.kind {
                    EdgeKind::Pipeline => "pipeline",
                    EdgeKind::Barrier => "barrier",
                };
                out.push_str(&format!("    --{kind}--> {}\n", self.stage(e.dst).name));
            }
        }
        out
    }
}

/// Builder for [`JobDag`].
///
/// ```
/// use swift_dag::{DagBuilder, Operator, EdgeKind};
///
/// let mut b = DagBuilder::new(1, "example");
/// let scan = b.stage("M1", 4).op(Operator::TableScan { table: "t".into() }).op(Operator::ShuffleWrite).build();
/// let agg = b.stage("R1", 2).op(Operator::ShuffleRead).op(Operator::HashAggregate).op(Operator::AdhocSink).build();
/// b.edge(scan, agg); // kind inferred from the operators (pipeline here)
/// let dag = b.build().unwrap();
/// assert_eq!(dag.edges()[0].kind, EdgeKind::Pipeline);
/// ```
#[derive(Debug)]
pub struct DagBuilder {
    job_id: JobId,
    name: String,
    stages: Vec<Stage>,
    edges: Vec<Edge>,
}

impl DagBuilder {
    /// Starts a new builder for job `job_id` named `name`.
    pub fn new(job_id: u64, name: impl Into<String>) -> Self {
        DagBuilder {
            job_id: JobId(job_id),
            name: name.into(),
            stages: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Begins defining a stage with `task_count` parallel tasks; finish with
    /// [`StageBuilder::build`], which returns the new [`StageId`].
    pub fn stage(&mut self, name: impl Into<String>, task_count: u32) -> StageBuilder<'_> {
        StageBuilder {
            dag: self,
            name: name.into(),
            task_count,
            operators: Vec::new(),
            idempotent: true,
            profile: StageProfile::default(),
        }
    }

    /// Adds an edge whose kind is inferred from the endpoint stages'
    /// operators via [`classify_edge`].
    pub fn edge(&mut self, src: StageId, dst: StageId) -> &mut Self {
        let kind = if let (Some(s), Some(d)) =
            (self.stages.get(src.index()), self.stages.get(dst.index()))
        {
            classify_edge(s, d)
        } else {
            // Unknown endpoints are caught in `build`; kind is irrelevant.
            EdgeKind::Pipeline
        };
        self.edges.push(Edge::new(src, dst, kind));
        self
    }

    /// Adds an edge with an explicit kind, overriding the heuristic.
    pub fn edge_kind(&mut self, src: StageId, dst: StageId, kind: EdgeKind) -> &mut Self {
        self.edges.push(Edge::new(src, dst, kind));
        self
    }

    /// Validates and freezes the DAG.
    pub fn build(self) -> Result<JobDag, DagError> {
        let n = self.stages.len();
        if n == 0 {
            return Err(DagError::Empty);
        }
        for s in &self.stages {
            if s.task_count == 0 {
                return Err(DagError::ZeroTasks(s.id));
            }
        }
        let mut outgoing: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut incoming: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut seen = std::collections::HashSet::new();
        for (i, e) in self.edges.iter().enumerate() {
            if e.src.index() >= n {
                return Err(DagError::UnknownStage(e.src));
            }
            if e.dst.index() >= n {
                return Err(DagError::UnknownStage(e.dst));
            }
            if e.src == e.dst {
                return Err(DagError::SelfLoop(e.src));
            }
            if !seen.insert((e.src, e.dst)) {
                return Err(DagError::DuplicateEdge(e.src, e.dst));
            }
            outgoing[e.src.index()].push(i as u32);
            incoming[e.dst.index()].push(i as u32);
        }
        // Kahn's algorithm with a min-id ready set for determinism.
        let mut indeg: Vec<usize> = incoming.iter().map(Vec::len).collect();
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| std::cmp::Reverse(i as u32))
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            topo.push(StageId(i));
            for &ei in &outgoing[i as usize] {
                let d = self.edges[ei as usize].dst.index();
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    ready.push(std::cmp::Reverse(d as u32));
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cycle);
        }
        Ok(JobDag {
            job_id: self.job_id,
            name: self.name,
            stages: self.stages,
            edges: self.edges,
            outgoing,
            incoming,
            topo,
        })
    }
}

/// In-progress stage definition; see [`DagBuilder::stage`].
#[derive(Debug)]
pub struct StageBuilder<'a> {
    dag: &'a mut DagBuilder,
    name: String,
    task_count: u32,
    operators: Vec<Operator>,
    idempotent: bool,
    profile: StageProfile,
}

impl StageBuilder<'_> {
    /// Appends an operator to the stage's chain.
    pub fn op(mut self, op: Operator) -> Self {
        self.operators.push(op);
        self
    }

    /// Appends several operators at once.
    pub fn ops(mut self, ops: impl IntoIterator<Item = Operator>) -> Self {
        self.operators.extend(ops);
        self
    }

    /// Marks the stage's tasks as non-idempotent (§IV-B1b): re-running them
    /// may produce different output, so recovery must also re-run executed
    /// successors. Stages are idempotent by default.
    pub fn non_idempotent(mut self) -> Self {
        self.idempotent = false;
        self
    }

    /// Sets the stage's size/cost profile.
    pub fn profile(mut self, profile: StageProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Finalizes the stage and returns its id.
    pub fn build(self) -> StageId {
        let id = StageId(self.dag.stages.len() as u32);
        self.dag.stages.push(Stage {
            id,
            name: self.name,
            operators: self.operators,
            task_count: self.task_count,
            idempotent: self.idempotent,
            profile: self.profile,
        });
        id
    }
}

/// Breadth-first reachability helper: all stages reachable from `start`
/// following edge direction (excluding `start` itself unless on a cycle,
/// which a valid [`JobDag`] cannot have).
pub fn descendants(dag: &JobDag, start: StageId) -> Vec<StageId> {
    let mut seen = vec![false; dag.stage_count()];
    let mut queue: VecDeque<StageId> = dag.successors(start).collect();
    let mut out = Vec::new();
    while let Some(s) = queue.pop_front() {
        if seen[s.index()] {
            continue;
        }
        seen[s.index()] = true;
        out.push(s);
        queue.extend(dag.successors(s));
    }
    out.sort();
    out
}

/// Rebuilds `dag` as job `job_id` with its stages inserted in the given
/// order (a permutation of all stage ids), preserving names, task counts,
/// operator chains, idempotence flags, profiles, explicit edge kinds and
/// the edge enumeration order. The identity order yields an identical
/// rebuild; any other order describes the same job under a different
/// stage numbering.
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

    fn diamond() -> JobDag {
        // a -> b, a -> c, b -> d, c -> d
        let mut b = DagBuilder::new(1, "diamond");
        let a = b
            .stage("A", 2)
            .op(Operator::TableScan { table: "t".into() })
            .op(Operator::ShuffleWrite)
            .build();
        let b1 = b
            .stage("B", 2)
            .op(Operator::ShuffleRead)
            .op(Operator::Filter)
            .op(Operator::ShuffleWrite)
            .build();
        let c = b
            .stage("C", 2)
            .op(Operator::ShuffleRead)
            .op(Operator::Project)
            .op(Operator::ShuffleWrite)
            .build();
        let d = b
            .stage("D", 1)
            .op(Operator::ShuffleRead)
            .op(Operator::AdhocSink)
            .build();
        b.edge(a, b1).edge(a, c).edge(b1, d).edge(c, d);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_indexes_diamond() {
        let dag = diamond();
        assert_eq!(dag.stage_count(), 4);
        assert_eq!(dag.total_tasks(), 7);
        assert_eq!(dag.leaves().collect::<Vec<_>>(), vec![StageId(3)]);
        assert_eq!(
            dag.successors(StageId(0)).collect::<Vec<_>>(),
            vec![StageId(1), StageId(2)]
        );
        assert_eq!(
            dag.predecessors(StageId(3)).collect::<Vec<_>>(),
            vec![StageId(1), StageId(2)]
        );
    }

    #[test]
    fn topo_order_is_deterministic_and_valid() {
        let dag = diamond();
        let topo = dag.topo_order();
        assert_eq!(topo, &[StageId(0), StageId(1), StageId(2), StageId(3)]);
        // every edge goes forward in topo order
        let pos: Vec<usize> = {
            let mut p = vec![0; dag.stage_count()];
            for (i, s) in topo.iter().enumerate() {
                p[s.index()] = i;
            }
            p
        };
        for e in dag.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn rejects_cycles() {
        let mut b = DagBuilder::new(1, "cycle");
        let a = b.stage("A", 1).op(Operator::Filter).build();
        let c = b.stage("B", 1).op(Operator::Filter).build();
        b.edge(a, c).edge(c, a);
        assert_eq!(b.build().unwrap_err(), DagError::Cycle);
    }

    #[test]
    fn rejects_self_loop_duplicate_unknown_zero() {
        let mut b = DagBuilder::new(1, "bad");
        let a = b.stage("A", 1).op(Operator::Filter).build();
        b.edge(a, a);
        assert_eq!(b.build().unwrap_err(), DagError::SelfLoop(a));

        let mut b = DagBuilder::new(1, "bad");
        let a = b.stage("A", 1).op(Operator::Filter).build();
        let c = b.stage("B", 1).op(Operator::Filter).build();
        b.edge(a, c).edge(a, c);
        assert_eq!(b.build().unwrap_err(), DagError::DuplicateEdge(a, c));

        let mut b = DagBuilder::new(1, "bad");
        let a = b.stage("A", 1).op(Operator::Filter).build();
        b.edge_kind(a, StageId(9), EdgeKind::Pipeline);
        assert_eq!(b.build().unwrap_err(), DagError::UnknownStage(StageId(9)));

        let mut b = DagBuilder::new(1, "bad");
        b.stage("A", 0).op(Operator::Filter).build();
        assert_eq!(b.build().unwrap_err(), DagError::ZeroTasks(StageId(0)));

        assert_eq!(
            DagBuilder::new(1, "empty").build().unwrap_err(),
            DagError::Empty
        );
    }

    #[test]
    fn max_shuffle_edge_size() {
        let dag = diamond();
        // edges are 2x2, 2x2, 2x1, 2x1 -> max 4
        assert_eq!(dag.max_shuffle_edge_size(), 4);
    }

    #[test]
    fn clone_is_deep_equal() {
        let dag = diamond();
        let back = dag.clone();
        assert_eq!(dag, back);
        assert_eq!(dag.total_tasks(), back.total_tasks());
    }

    #[test]
    fn permuted_clone_preserves_stage_payloads() {
        let d1 = diamond();
        let identity: Vec<StageId> = (0..4).map(StageId).collect();
        let same = permuted_clone(&d1, &identity, 6);
        assert_eq!(same.job_id, JobId(6));
        assert_eq!((same.stages(), same.edges()), (d1.stages(), d1.edges()));

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
    fn render_mentions_every_stage() {
        let dag = diamond();
        let r = dag.render();
        for s in dag.stages() {
            assert!(r.contains(&s.name));
        }
        assert!(r.contains("pipeline"));
    }
}
