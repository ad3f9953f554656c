//! The query planner: AST → stage DAG + executable stage plans.
//!
//! The planner mirrors the structure of the paper's Fig. 4 plans: one scan
//! stage per base table, one stage per join, one aggregation stage, and a
//! single-task merge stage for `ORDER BY`. Two modes exist:
//!
//! * **hash mode** (default) — `HashJoin` / `HashAggregate`: edges stay
//!   pipeline edges and the whole query usually forms one graphlet;
//! * **sort mode** ([`PlanOptions::prefer_sort`]) — `MergeJoin` /
//!   `StreamedAggregate` with producer-side sorts, which makes the
//!   producing stages carry `MergeSort` and turns their outgoing edges
//!   into barrier edges — exactly how TPC-H Q9 splits into the four
//!   graphlets of Fig. 4.
//!
//! A light optimizer pushes single-relation `WHERE` conjuncts down into
//! the scan stages, and prunes columns at the scan: each scan projects
//! only the columns whose names the query mentions somewhere (matched by
//! name, qualifier ignored — conservative), so unused columns never ride
//! through joins and shuffles. The pruning `Project` is an executable
//! operator only; the stage DAG, and so its simulation, is unchanged.

use crate::ast::*;
use std::collections::HashSet;
use std::fmt;
use swift_dag::{DagBuilder, JobDag, Operator, StageProfile};
use swift_engine::{
    AggExpr, AggFunc, BinOp, Catalog, EngineJob, ExecOp, Expr, JoinType, OutputPartitioning,
    SortKey, StagePlan, Value,
};

/// Planner configuration.
#[derive(Clone, Debug)]
pub struct PlanOptions {
    /// Parallelism of base-table scan stages.
    pub scan_tasks: u32,
    /// Parallelism of join/aggregate stages.
    pub shuffle_tasks: u32,
    /// Use sort-merge joins and streamed (sort) aggregation with
    /// producer-side sorts, producing the paper's barrier-edge plans.
    pub prefer_sort: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            scan_tasks: 4,
            shuffle_tasks: 4,
            prefer_sort: false,
        }
    }
}

/// Planning error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanError(pub String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan error: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

type PResult<T> = Result<T, PlanError>;

/// One column of an intermediate relation.
#[derive(Clone, Debug)]
struct ColRef {
    qualifier: Option<String>,
    name: String,
}

/// A stage under construction.
struct StageDraft {
    name: String,
    dag_ops: Vec<Operator>,
    exec_ops: Vec<ExecOp>,
    task_count: u32,
    outputs: Vec<OutputPartitioning>,
    profile: StageProfile,
}

/// A planned relation: the stage producing it plus its output schema.
#[derive(Clone, Copy)]
struct Rel {
    stage: usize,
}

struct Planner<'a> {
    catalog: &'a Catalog,
    opts: &'a PlanOptions,
    stages: Vec<StageDraft>,
    /// (src stage index, dst stage index) in insertion order — insertion
    /// order defines each consumer's input-edge indices.
    edges: Vec<(usize, usize)>,
    /// Output schema of every stage.
    schemas: Vec<Vec<ColRef>>,
    /// Lowercased name of every column the query mentions.
    referenced: HashSet<String>,
}

/// Plans `query` against `catalog` into an executable [`EngineJob`].
pub fn plan_query(
    query: &Query,
    catalog: &Catalog,
    job_id: u64,
    name: &str,
    opts: &PlanOptions,
) -> PResult<EngineJob> {
    let mut referenced = HashSet::new();
    referenced_columns(query, &mut referenced);
    let mut p = Planner {
        catalog,
        opts,
        stages: Vec::new(),
        edges: Vec::new(),
        schemas: Vec::new(),
        referenced,
    };
    let rel = p.plan_select(query)?;
    // Attach the sink to the top stage.
    let top = rel.stage;
    p.stages[top].dag_ops.push(Operator::AdhocSink);
    let output_columns = p.schemas[top].iter().map(|c| c.name.clone()).collect();

    // Materialize the DAG.
    let mut b = DagBuilder::new(job_id, name);
    let mut ids = Vec::with_capacity(p.stages.len());
    for draft in &p.stages {
        let mut sb = b.stage(draft.name.clone(), draft.task_count);
        sb = sb.ops(draft.dag_ops.iter().cloned());
        sb = sb.profile(draft.profile.clone());
        ids.push(sb.build());
    }
    for &(src, dst) in &p.edges {
        b.edge(ids[src], ids[dst]);
    }
    let dag: JobDag = b
        .build()
        .map_err(|e| PlanError(format!("invalid plan DAG: {e}")))?;
    let plans: Vec<StagePlan> = p
        .stages
        .into_iter()
        .map(|d| StagePlan {
            ops: d.exec_ops,
            outputs: d.outputs,
        })
        .collect();
    let job = EngineJob {
        dag,
        plans,
        output_columns,
    };
    job.validate()
        .map_err(|e| PlanError(format!("planner produced invalid job: {e}")))?;
    Ok(job)
}

impl Planner<'_> {
    fn new_stage(&mut self, name: String, task_count: u32, schema: Vec<ColRef>) -> usize {
        self.stages.push(StageDraft {
            name,
            dag_ops: Vec::new(),
            exec_ops: Vec::new(),
            task_count,
            outputs: Vec::new(),
            profile: StageProfile::default(),
        });
        self.schemas.push(schema);
        self.stages.len() - 1
    }

    /// Connects `src` to `dst` with the given output partitioning for the
    /// data leaving `src`. Returns the edge's index among `dst`'s inputs.
    fn connect(&mut self, src: usize, dst: usize, part: OutputPartitioning) -> usize {
        self.stages[src].outputs.push(part);
        if !self.stages[src]
            .dag_ops
            .iter()
            .any(|o| matches!(o, Operator::ShuffleWrite))
        {
            self.stages[src].dag_ops.push(Operator::ShuffleWrite);
        }
        self.edges.push((src, dst));
        self.edges.iter().filter(|(_, d)| *d == dst).count() - 1
    }

    /// Plans a full SELECT (including GROUP BY / ORDER BY / LIMIT) and
    /// returns the producing relation.
    fn plan_select(&mut self, q: &Query) -> PResult<Rel> {
        // Scan stages created by *this* SELECT start here; WHERE pushdown
        // must not reach into sibling or parent queries' stages.
        let scan_base = self.stages.len();

        // FROM + JOINs.
        let mut rel = self.plan_table_ref(&q.from)?;
        for join in &q.joins {
            rel = self.plan_join(rel, join)?;
        }

        // WHERE: push single-relation conjuncts down into their scan stage
        // (filters commute with the producer-side sort, so appending after
        // it is safe); evaluate the rest on the joined relation.
        if let Some(w) = &q.where_clause {
            for conj in split_conjuncts(w) {
                let target = self
                    .single_rel_target(conj, scan_base)
                    .filter(|&s| s != rel.stage)
                    .unwrap_or(rel.stage);
                let schema = self.schemas[target].clone();
                let e = self.resolve(conj, &schema)?;
                self.stages[target].exec_ops.push(ExecOp::Filter(e));
                self.stages[target].dag_ops.push(Operator::Filter);
            }
        }

        // SELECT (+ GROUP BY).
        let has_agg = q.select.iter().any(|s| s.expr.contains_aggregate());
        rel = if has_agg || !q.group_by.is_empty() {
            self.plan_aggregate(rel, q)?
        } else {
            self.plan_projection(rel, q)?
        };

        // ORDER BY -> single-task merge stage with a producer-side sort.
        if !q.order_by.is_empty() {
            rel = self.plan_order_by(rel, q)?;
        }

        if let Some(n) = q.limit {
            self.stages[rel.stage].exec_ops.push(ExecOp::Limit(n));
            self.stages[rel.stage]
                .dag_ops
                .push(Operator::Limit { limit: n });
        }
        Ok(rel)
    }

    fn plan_table_ref(&mut self, t: &TableRef) -> PResult<Rel> {
        match t {
            TableRef::Table { name, alias } => {
                let table = self
                    .catalog
                    .get(name)
                    .ok_or_else(|| PlanError(format!("unknown table {name}")))?;
                let binding = alias.clone().unwrap_or_else(|| name.clone());
                let fields = table.schema.fields();
                let kept: Vec<usize> = (0..fields.len())
                    .filter(|&i| self.referenced.contains(&fields[i].to_ascii_lowercase()))
                    .collect();
                let schema: Vec<ColRef> = kept
                    .iter()
                    .map(|&i| ColRef {
                        qualifier: Some(binding.clone()),
                        name: fields[i].clone(),
                    })
                    .collect();
                let rows = table.rows.len() as u64;
                let stage = self.new_stage(format!("scan_{binding}"), self.opts.scan_tasks, schema);
                self.stages[stage].dag_ops.push(Operator::TableScan {
                    table: name.clone(),
                });
                self.stages[stage].exec_ops.push(ExecOp::Scan {
                    table: name.clone(),
                });
                if kept.len() < fields.len() {
                    self.stages[stage]
                        .exec_ops
                        .push(ExecOp::Project(kept.into_iter().map(Expr::col).collect()));
                }
                self.stages[stage].profile = StageProfile {
                    input_rows_per_task: rows / self.opts.scan_tasks.max(1) as u64,
                    input_bytes_per_task: rows * 64 / self.opts.scan_tasks.max(1) as u64,
                    output_bytes_per_task: rows * 48 / self.opts.scan_tasks.max(1) as u64,
                    process_us_per_task: rows / self.opts.scan_tasks.max(1) as u64,
                    locality: vec![],
                };
                Ok(Rel { stage })
            }
            TableRef::Subquery { query, alias } => {
                let rel = self.plan_select(query)?;
                // Re-qualify the subquery's output columns with its alias.
                if let Some(a) = alias {
                    for c in &mut self.schemas[rel.stage] {
                        c.qualifier = Some(a.clone());
                    }
                }
                Ok(rel)
            }
        }
    }

    fn plan_join(&mut self, left: Rel, join: &JoinClause) -> PResult<Rel> {
        let right = self.plan_table_ref(&join.table)?;
        let lschema = self.schemas[left.stage].clone();
        let rschema = self.schemas[right.stage].clone();

        // Classify the ON conjuncts: cross-side equalities become join
        // keys; predicates over only one side become a pre-join filter on
        // that side (exactly equivalent to ON semantics for the right side
        // of a LEFT JOIN, and for either side of an INNER JOIN).
        let mut lkeys = Vec::new();
        let mut rkeys = Vec::new();
        for cond in &join.on {
            if let AstExpr::Bin {
                op: AstBinOp::Eq,
                l: a,
                r: b,
            } = cond
            {
                let pair = match (self.try_col(a, &lschema), self.try_col(b, &rschema)) {
                    (Some(l), Some(r)) => Some((l, r)),
                    _ => match (self.try_col(b, &lschema), self.try_col(a, &rschema)) {
                        (Some(l), Some(r)) => Some((l, r)),
                        _ => None,
                    },
                };
                if let Some((lc, rc)) = pair {
                    lkeys.push(lc);
                    rkeys.push(rc);
                    continue;
                }
            }
            // Single-side predicate?
            if let Ok(e) = self.resolve(cond, &rschema) {
                self.stages[right.stage].exec_ops.push(ExecOp::Filter(e));
                self.stages[right.stage].dag_ops.push(Operator::Filter);
                continue;
            }
            if let Ok(e) = self.resolve(cond, &lschema) {
                if join.join_type == AstJoinType::Left {
                    return Err(PlanError(format!(
                        "left-side ON predicate {cond:?} is not expressible as a filter                          under LEFT JOIN semantics; move it to WHERE if that is intended"
                    )));
                }
                self.stages[left.stage].exec_ops.push(ExecOp::Filter(e));
                self.stages[left.stage].dag_ops.push(Operator::Filter);
                continue;
            }
            return Err(PlanError(format!(
                "unsupported ON condition {cond:?}: must be a cross-side equality or a single-side predicate"
            )));
        }
        if lkeys.is_empty() {
            return Err(PlanError(
                "JOIN ... ON needs at least one equality between the sides".into(),
            ));
        }

        // Producer-side partitioning (and sorts in sort mode).
        self.add_producer_side(left.stage, &lkeys);
        self.add_producer_side(right.stage, &rkeys);

        let right_width = rschema.len();
        let mut schema = lschema;
        schema.extend(rschema);
        let jname = format!("join_{}", self.stages.len());
        let stage = self.new_stage(jname, self.opts.shuffle_tasks, schema);
        let le = self.connect(left.stage, stage, OutputPartitioning::Hash(lkeys.clone()));
        let re = self.connect(right.stage, stage, OutputPartitioning::Hash(rkeys.clone()));
        debug_assert_eq!(le, 0);
        let join_type = match join.join_type {
            AstJoinType::Inner => JoinType::Inner,
            AstJoinType::Left => JoinType::Left { right_width },
        };
        self.stages[stage].dag_ops.push(Operator::ShuffleRead);
        if self.opts.prefer_sort {
            self.stages[stage].dag_ops.push(Operator::MergeJoin);
            self.stages[stage].exec_ops.push(ExecOp::MergeJoin {
                right_edge: re,
                left_keys: lkeys,
                right_keys: rkeys,
                join_type,
            });
        } else {
            self.stages[stage].dag_ops.push(Operator::HashJoin);
            self.stages[stage].exec_ops.push(ExecOp::HashJoin {
                right_edge: re,
                left_keys: lkeys,
                right_keys: rkeys,
                join_type,
            });
        }
        Ok(Rel { stage })
    }

    /// In sort mode, make `stage` sort its output by `keys` — which adds a
    /// `MergeSort` to its operator chain and thereby turns its outgoing
    /// edge into a barrier edge (the Fig. 4 rule).
    ///
    /// Scan stages are exempt, mirroring the paper's plans: in Fig. 4 the
    /// table scans (M1–M3, M5, M7, M8) stream into their consuming joins
    /// (pipeline edges, shared graphlet), while the join stages J4/J6/J10
    /// carry the `MergeSort` that prepares sorted input for the *next*
    /// merge join — and their outgoing edges are the barrier cuts.
    fn add_producer_side(&mut self, stage: usize, keys: &[usize]) {
        if !self.opts.prefer_sort {
            return;
        }
        if matches!(
            self.stages[stage].exec_ops.first(),
            Some(ExecOp::Scan { .. })
        ) {
            return;
        }
        self.stages[stage].exec_ops.push(ExecOp::Sort(
            keys.iter()
                .map(|&c| SortKey {
                    col: c,
                    desc: false,
                })
                .collect(),
        ));
        self.stages[stage].dag_ops.push(Operator::MergeSort);
    }

    fn plan_projection(&mut self, rel: Rel, q: &Query) -> PResult<Rel> {
        let schema = self.schemas[rel.stage].clone();
        let mut exprs = Vec::new();
        let mut out_schema = Vec::new();
        for (i, item) in q.select.iter().enumerate() {
            exprs.push(self.resolve(&item.expr, &schema)?);
            out_schema.push(ColRef {
                qualifier: None,
                name: output_name(item, i),
            });
        }
        self.stages[rel.stage].exec_ops.push(ExecOp::Project(exprs));
        self.stages[rel.stage].dag_ops.push(Operator::Project);
        self.schemas[rel.stage] = out_schema;
        Ok(rel)
    }

    fn plan_aggregate(&mut self, rel: Rel, q: &Query) -> PResult<Rel> {
        let schema = self.schemas[rel.stage].clone();

        // Pre-projection on the producer: group keys first, then aggregate
        // input expressions.
        let mut pre: Vec<Expr> = Vec::new();
        for g in &q.group_by {
            // SQL allows grouping by a select alias: `... substr(x,1,5) AS
            // p5 ... GROUP BY p5` — substitute the aliased expression.
            let g = resolve_group_alias(g, &q.select);
            pre.push(self.resolve(g, &schema)?);
        }
        let k = pre.len();

        // Collect aggregates from the select list; every non-aggregate
        // select item must be one of the group expressions.
        let mut aggs: Vec<AggExpr> = Vec::new();
        let mut out_map: Vec<usize> = Vec::new(); // select item -> agg-stage column
        let mut out_schema = Vec::new();
        for (i, item) in q.select.iter().enumerate() {
            out_schema.push(ColRef {
                qualifier: None,
                name: output_name(item, i),
            });
            if let AstExpr::Func { name, args, .. } = &item.expr {
                if let Some(func) = agg_func(name) {
                    let arg = args
                        .first()
                        .ok_or_else(|| PlanError(format!("{name}() needs an argument")))?;
                    let e = self.resolve(arg, &schema)?;
                    pre.push(e);
                    aggs.push(AggExpr {
                        func,
                        expr: Expr::col(k + aggs.len()),
                    });
                    out_map.push(k + aggs.len() - 1);
                    continue;
                }
            }
            if item.expr.contains_aggregate() {
                return Err(PlanError(
                    "aggregates must be top-level select items (e.g. sum(x), not sum(x)+1)".into(),
                ));
            }
            let pos = q
                .group_by
                .iter()
                .position(|g| g == &item.expr || matches_alias(g, item))
                .ok_or_else(|| {
                    PlanError(format!(
                        "select item {:?} is neither grouped nor aggregated",
                        item.expr
                    ))
                })?;
            out_map.push(pos);
        }
        self.stages[rel.stage].exec_ops.push(ExecOp::Project(pre));
        self.stages[rel.stage].dag_ops.push(Operator::Project);

        // Group-key positions after pre-projection are 0..k.
        let group: Vec<usize> = (0..k).collect();
        self.add_producer_side(rel.stage, &group);

        let agg_schema: Vec<ColRef> = out_schema.clone();
        // A global aggregate (no GROUP BY) funnels into a single task.
        let agg_tasks = if group.is_empty() {
            1
        } else {
            self.opts.shuffle_tasks
        };
        let stage = self.new_stage(format!("agg_{}", self.stages.len()), agg_tasks, agg_schema);
        let part = if group.is_empty() {
            OutputPartitioning::Single
        } else {
            OutputPartitioning::Hash(group.clone())
        };
        self.connect(rel.stage, stage, part);
        self.stages[stage].dag_ops.push(Operator::ShuffleRead);
        if self.opts.prefer_sort {
            self.stages[stage].dag_ops.push(Operator::StreamedAggregate);
            self.stages[stage]
                .exec_ops
                .push(ExecOp::StreamedAggregate { group, aggs });
        } else {
            self.stages[stage].dag_ops.push(Operator::HashAggregate);
            self.stages[stage]
                .exec_ops
                .push(ExecOp::HashAggregate { group, aggs });
        }
        // Reorder agg output (keys ++ aggs) into select order.
        self.stages[stage].exec_ops.push(ExecOp::Project(
            out_map.iter().map(|&c| Expr::col(c)).collect(),
        ));
        self.stages[stage].dag_ops.push(Operator::Project);
        Ok(Rel { stage })
    }

    fn plan_order_by(&mut self, rel: Rel, q: &Query) -> PResult<Rel> {
        let schema = self.schemas[rel.stage].clone();
        let mut keys = Vec::new();
        for k in &q.order_by {
            // Output columns lose their source qualifier, so `ORDER BY
            // r.manager` should still find output column `manager`.
            let col = self.try_col(&k.expr, &schema).or_else(|| {
                if let AstExpr::Column { name, .. } = &k.expr {
                    self.try_col(
                        &AstExpr::Column {
                            qualifier: None,
                            name: name.clone(),
                        },
                        &schema,
                    )
                } else {
                    None
                }
            });
            let col = col.ok_or_else(|| {
                PlanError(format!(
                    "ORDER BY key {:?} must be an output column",
                    k.expr
                ))
            })?;
            keys.push(SortKey { col, desc: k.desc });
        }
        // Producer sorts its partitions (SortBy), the merge stage merges —
        // a barrier edge. Exception: a StreamedAggregate producer already
        // emits in group-key order (the paper's R11 → R12 pipeline edge),
        // so it streams straight into the merge stage; the merge's own
        // sort establishes the requested direction.
        let streamed = self.stages[rel.stage]
            .exec_ops
            .iter()
            .any(|o| matches!(o, ExecOp::StreamedAggregate { .. }));
        if !streamed {
            self.stages[rel.stage]
                .exec_ops
                .push(ExecOp::Sort(keys.clone()));
            self.stages[rel.stage].dag_ops.push(Operator::SortBy);
        }

        let sort_schema = schema.clone();
        let stage = self.new_stage(format!("merge_{}", self.stages.len()), 1, sort_schema);
        self.connect(rel.stage, stage, OutputPartitioning::Single);
        self.stages[stage].dag_ops.push(Operator::ShuffleRead);
        self.stages[stage].dag_ops.push(Operator::MergeSort);
        self.stages[stage].exec_ops.push(ExecOp::Sort(keys));
        Ok(Rel { stage })
    }

    /// If `e` resolves as a bare column of `schema`, return its index.
    fn try_col(&self, e: &AstExpr, schema: &[ColRef]) -> Option<usize> {
        if let AstExpr::Column { qualifier, name } = e {
            return schema.iter().position(|c| {
                c.name.eq_ignore_ascii_case(name)
                    && match (qualifier, &c.qualifier) {
                        (Some(q), Some(cq)) => q.eq_ignore_ascii_case(cq),
                        (Some(_), None) => false,
                        (None, _) => true,
                    }
            });
        }
        None
    }

    /// If every column of `e` resolves within exactly one of this query's
    /// scan stages (index ≥ `scan_base`), return that stage — the predicate
    /// can then be filtered at the scan instead of after the joins.
    /// Qualified TPC-H-style column names make attribution unambiguous;
    /// a name matching several scans keeps the predicate at the top.
    fn single_rel_target(&self, e: &AstExpr, scan_base: usize) -> Option<usize> {
        let mut target: Option<usize> = None;
        let mut ok = true;
        visit_columns(e, &mut |q, n| {
            let mut found = None;
            let mut matches = 0;
            for (si, schema) in self.schemas.iter().enumerate().skip(scan_base) {
                if !matches!(self.stages[si].exec_ops.first(), Some(ExecOp::Scan { .. })) {
                    continue;
                }
                if schema.iter().any(|c| {
                    c.name.eq_ignore_ascii_case(n)
                        && match (q, &c.qualifier) {
                            (Some(qq), Some(cq)) => qq.eq_ignore_ascii_case(cq),
                            (Some(_), None) => false,
                            (None, _) => true,
                        }
                }) {
                    found = Some(si);
                    matches += 1;
                }
            }
            if matches != 1 {
                ok = false;
                return;
            }
            match (found, target) {
                (Some(f), None) => target = Some(f),
                (Some(f), Some(t)) if f == t => {}
                _ => ok = false,
            }
        });
        if ok {
            target
        } else {
            None
        }
    }

    /// Resolves an AST expression to an executable [`Expr`] over `schema`.
    fn resolve(&self, e: &AstExpr, schema: &[ColRef]) -> PResult<Expr> {
        match e {
            AstExpr::Column { qualifier, name } => {
                self.try_col(e, schema).map(Expr::col).ok_or_else(|| {
                    let q = qualifier
                        .as_deref()
                        .map(|q| format!("{q}."))
                        .unwrap_or_default();
                    PlanError(format!("unknown column {q}{name}"))
                })
            }
            AstExpr::Lit(l) => Ok(Expr::Lit(match l {
                AstLit::Int(i) => Value::Int(*i),
                AstLit::Float(f) => Value::Float(*f),
                AstLit::Str(s) => Value::Str(s.clone()),
                AstLit::Null => Value::Null,
            })),
            AstExpr::Bin { op, l, r } => Ok(Expr::bin(
                bin_op(*op),
                self.resolve(l, schema)?,
                self.resolve(r, schema)?,
            )),
            AstExpr::Not(inner) => Ok(Expr::Not(Box::new(self.resolve(inner, schema)?))),
            AstExpr::IsNull(inner) => Ok(Expr::IsNull(Box::new(self.resolve(inner, schema)?))),
            AstExpr::Like { expr, pattern } => Ok(Expr::Like {
                expr: Box::new(self.resolve(expr, schema)?),
                pattern: pattern.clone(),
            }),
            AstExpr::Func { name, args, .. } => match name.as_str() {
                "substr" => {
                    if args.len() != 3 {
                        return Err(PlanError(
                            "substr(expr, start, len) takes 3 arguments".into(),
                        ));
                    }
                    let start = lit_usize(&args[1])?;
                    let len = lit_usize(&args[2])?;
                    Ok(Expr::Substr {
                        expr: Box::new(self.resolve(&args[0], schema)?),
                        start,
                        len,
                    })
                }
                other if agg_func(other).is_some() => {
                    Err(PlanError(format!("aggregate {other}() not allowed here")))
                }
                other => Err(PlanError(format!("unknown function {other}()"))),
            },
        }
    }
}

fn lit_usize(e: &AstExpr) -> PResult<usize> {
    match e {
        AstExpr::Lit(AstLit::Int(i)) if *i >= 0 => Ok(*i as usize),
        other => Err(PlanError(format!(
            "expected non-negative integer literal, got {other:?}"
        ))),
    }
}

fn agg_func(name: &str) -> Option<AggFunc> {
    Some(match name {
        "sum" => AggFunc::Sum,
        "count" => AggFunc::Count,
        "avg" => AggFunc::Avg,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        _ => return None,
    })
}

fn bin_op(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
        AstBinOp::Eq => BinOp::Eq,
        AstBinOp::Ne => BinOp::Ne,
        AstBinOp::Lt => BinOp::Lt,
        AstBinOp::Le => BinOp::Le,
        AstBinOp::Gt => BinOp::Gt,
        AstBinOp::Ge => BinOp::Ge,
        AstBinOp::And => BinOp::And,
        AstBinOp::Or => BinOp::Or,
    }
}

fn output_name(item: &SelectItem, index: usize) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    match &item.expr {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::Func { name, .. } => name.clone(),
        _ => format!("col{index}"),
    }
}

/// `g` matches a select item when the item is aliased and `g` references
/// that alias (SQL allows grouping by output aliases).
fn matches_alias(g: &AstExpr, item: &SelectItem) -> bool {
    if let (
        AstExpr::Column {
            qualifier: None,
            name,
        },
        Some(alias),
    ) = (g, &item.alias)
    {
        return name.eq_ignore_ascii_case(alias);
    }
    false
}

/// If `g` is a bare column naming a select alias, return the aliased
/// expression; otherwise return `g` itself.
fn resolve_group_alias<'a>(g: &'a AstExpr, select: &'a [SelectItem]) -> &'a AstExpr {
    if let AstExpr::Column {
        qualifier: None,
        name,
    } = g
    {
        for item in select {
            if item
                .alias
                .as_deref()
                .is_some_and(|a| a.eq_ignore_ascii_case(name))
            {
                return &item.expr;
            }
        }
    }
    g
}

fn split_conjuncts(e: &AstExpr) -> Vec<&AstExpr> {
    match e {
        AstExpr::Bin {
            op: AstBinOp::And,
            l,
            r,
        } => {
            let mut out = split_conjuncts(l);
            out.extend(split_conjuncts(r));
            out
        }
        other => vec![other],
    }
}

/// Adds the lowercased name of every column `q` mentions — in SELECT, ON,
/// WHERE, GROUP BY, ORDER BY and its subqueries — to `out`.
fn referenced_columns(q: &Query, out: &mut HashSet<String>) {
    let exprs = q
        .select
        .iter()
        .map(|s| &s.expr)
        .chain(q.joins.iter().flat_map(|j| &j.on))
        .chain(&q.where_clause)
        .chain(&q.group_by)
        .chain(q.order_by.iter().map(|k| &k.expr));
    for e in exprs {
        visit_columns(e, &mut |_, name| {
            out.insert(name.to_ascii_lowercase());
        });
    }
    for t in std::iter::once(&q.from).chain(q.joins.iter().map(|j| &j.table)) {
        if let TableRef::Subquery { query, .. } = t {
            referenced_columns(query, out);
        }
    }
}

fn visit_columns<'a>(e: &'a AstExpr, f: &mut impl FnMut(&'a Option<String>, &'a str)) {
    match e {
        AstExpr::Column { qualifier, name } => f(qualifier, name),
        AstExpr::Bin { l, r, .. } => {
            visit_columns(l, f);
            visit_columns(r, f);
        }
        AstExpr::Not(i) | AstExpr::IsNull(i) => visit_columns(i, f),
        AstExpr::Like { expr, .. } => visit_columns(expr, f),
        AstExpr::Func { args, .. } => {
            for a in args {
                visit_columns(a, f);
            }
        }
        AstExpr::Lit(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_columns_covers_every_clause() {
        let q = crate::parse(
            "select A, sum(b) as s from (select c from t where d > 1) x \
             join u on x.e = u.f where g = 1 group by h order by i",
        )
        .unwrap();
        let mut got = HashSet::new();
        referenced_columns(&q, &mut got);
        let want: HashSet<String> = "a b c d e f g h i".split(' ').map(String::from).collect();
        assert_eq!(got, want);
    }
}
