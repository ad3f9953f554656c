//! Task execution: running one stage plan over one task's inputs.
//!
//! Every operator consumes and produces a [`Batch`]. Rows appear only at
//! the boundary: [`run_task`] turns its input rows into batches once and
//! its output batch back into rows, and [`sort_rows`] sorts through the
//! batch sort. Joins, groupings and sorts work on row indices and gather
//! every output column once, in the order the row engine emitted rows:
//! hash-join matches in probe order and then build order, groups in
//! first-seen (or key) order, sorts stable — so float sums add up in the
//! same order.

use crate::batch::{
    cmp_keys, has_null_key, hash_keys, index, keys_eq, sort_indices, Batch, Column, ColumnBuilder,
    NONE,
};
use crate::error::{EngineError, Result};
use crate::expr::{Accumulator, Expr};
use crate::plan::{AggExpr, ExecOp, JoinType, SortKey, StagePlan, WindowFunc};
use crate::value::{Catalog, Row, Table, Value, ValueRef};
use std::cmp::Ordering;

/// The inputs of one task: `inputs[edge][producer]` = rows that producer
/// task sent to this task's partition, with `edge` indexing the stage's
/// incoming edges in DAG order.
pub type TaskInputs = Vec<Vec<Vec<Row>>>;

/// Executes `plan` for task `task_index` (of `task_count`) and returns its
/// output rows.
pub fn run_task(
    catalog: &Catalog,
    plan: &StagePlan,
    task_index: u32,
    task_count: u32,
    inputs: &TaskInputs,
) -> Result<Vec<Row>> {
    let inputs = inputs
        .iter()
        .map(|edge| edge.iter().map(|rows| Batch::from_rows(rows)).collect())
        .collect::<Result<_>>()?;
    Ok(run_batches(catalog, plan, task_index, task_count, inputs)?.into_rows())
}

/// [`run_task`] over batches: `inputs[edge][producer]`.
pub(crate) fn run_batches(
    catalog: &Catalog,
    plan: &StagePlan,
    task_index: u32,
    task_count: u32,
    inputs: Vec<Vec<Batch>>,
) -> Result<Batch> {
    let mut edges = Edges::new(inputs, &plan.ops);
    let (mut stream, rest) = match plan.ops.split_first() {
        Some((ExecOp::Scan { table }, rest)) => {
            let t = catalog
                .get(table)
                .ok_or_else(|| EngineError::Unknown(format!("table {table}")))?;
            let (batch, fused) = scan(t, rest, task_index, task_count)?;
            (batch, &rest[fused..])
        }
        _ => (edges.take(0)?, &plan.ops[..]),
    };
    for op in rest {
        stream = apply(op, stream, &mut edges)?;
    }
    Ok(stream)
}

/// A task's input edges, handed out by value. An edge several operators
/// read (a self-join) is cloned for all but its last reader.
struct Edges {
    inputs: Vec<Vec<Batch>>,
    readers: Vec<usize>,
}

impl Edges {
    fn new(inputs: Vec<Vec<Batch>>, ops: &[ExecOp]) -> Self {
        let mut readers = vec![0; inputs.len()];
        let mut read = |edge: usize| {
            if let Some(r) = readers.get_mut(edge) {
                *r += 1;
            }
        };
        if !matches!(ops.first(), Some(ExecOp::Scan { .. })) {
            read(0);
        }
        for op in ops {
            if let ExecOp::HashJoin { right_edge, .. } | ExecOp::MergeJoin { right_edge, .. } = op {
                read(*right_edge);
            }
        }
        Edges { inputs, readers }
    }

    /// The rows of `edge`, producer by producer.
    fn take(&mut self, edge: usize) -> Result<Batch> {
        let per_producer = self
            .inputs
            .get_mut(edge)
            .ok_or_else(|| EngineError::Plan(format!("missing input edge {edge}")))?;
        self.readers[edge] -= 1;
        if self.readers[edge] > 0 {
            return Batch::concat(per_producer.clone());
        }
        Batch::concat(std::mem::take(per_producer))
    }
}

/// Scans this task's stripe of `table` (row `i` goes to task
/// `i % task_count`) into a batch, building the columns straight from the
/// borrowed table rows. The column-only `Project`s that lead `ops` are
/// fused: only the columns they keep are built. Returns the batch and how
/// many of `ops` the scan absorbed.
fn scan(table: &Table, ops: &[ExecOp], task: u32, task_count: u32) -> Result<(Batch, usize)> {
    let mut cols: Vec<usize> = (0..table.schema.len()).collect();
    let mut fused = 0;
    for op in ops {
        let ExecOp::Project(exprs) = op else { break };
        let next: Option<Vec<usize>> = exprs
            .iter()
            .map(|e| match e {
                Expr::Col(c) => cols.get(*c).copied(),
                _ => None,
            })
            .collect();
        let Some(next) = next else { break };
        cols = next;
        fused += 1;
    }
    let stripe = table
        .rows
        .iter()
        .skip(task as usize)
        .step_by(task_count as usize);
    let mut builders: Vec<ColumnBuilder> = cols
        .iter()
        .map(|_| ColumnBuilder::with_capacity(stripe.len()))
        .collect();
    let mut len = 0;
    for row in stripe {
        for (b, &c) in builders.iter_mut().zip(&cols) {
            let v = row.get(c).ok_or_else(|| {
                EngineError::Type(format!("column {c} out of range ({} cols)", row.len()))
            })?;
            b.push(v.view());
        }
        len += 1;
    }
    let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
    Ok((Batch::new(columns, len), fused))
}

fn apply(op: &ExecOp, stream: Batch, edges: &mut Edges) -> Result<Batch> {
    match op {
        ExecOp::Scan { table } => Err(EngineError::Plan(format!("Scan({table}) not first"))),
        ExecOp::Filter(pred) => {
            let keep: Vec<u32> = {
                let p = pred.eval(&stream)?;
                (0..stream.len())
                    .filter(|&i| p.get(i).is_true())
                    .map(index)
                    .collect()
            };
            Ok(if keep.len() == stream.len() {
                stream
            } else {
                stream.gather(&keep)
            })
        }
        ExecOp::Project(exprs) => project(stream, exprs),
        ExecOp::HashJoin {
            right_edge,
            left_keys,
            right_keys,
            join_type,
        } => {
            let build = edges.take(*right_edge)?;
            Ok(hash_join(
                &stream, &build, left_keys, right_keys, *join_type,
            ))
        }
        ExecOp::MergeJoin {
            right_edge,
            left_keys,
            right_keys,
            join_type,
        } => {
            let right = edges.take(*right_edge)?;
            Ok(merge_join(
                &stream, &right, left_keys, right_keys, *join_type,
            ))
        }
        ExecOp::Sort(keys) => Ok(stream.gather(&sort_indices(&stream, keys))),
        ExecOp::HashAggregate { group, aggs } => {
            let groups = hash_groups(&stream, group);
            aggregate(&stream, group, aggs, groups)
        }
        ExecOp::StreamedAggregate { group, aggs } => {
            let groups = sorted_groups(&stream, group);
            aggregate(&stream, group, aggs, groups)
        }
        ExecOp::Window {
            partition_by,
            order_by,
            func,
        } => Ok(window(&stream, partition_by, order_by, *func)),
        ExecOp::Limit(n) => {
            let mut s = stream;
            s.truncate(usize::try_from(*n).unwrap_or(usize::MAX));
            Ok(s)
        }
    }
}

/// Projection. Computed columns are evaluated first, while the input is
/// whole; then each plain column reference takes its input column — the
/// last reference moves it, earlier ones clone it.
fn project(input: Batch, exprs: &[Expr]) -> Result<Batch> {
    let len = input.len();
    let mut out: Vec<Option<Column>> = exprs
        .iter()
        .map(|e| match e {
            Expr::Col(_) => Ok(None),
            e => Ok(Some(e.eval(&input)?.into_column(len))),
        })
        .collect::<Result<_>>()?;
    for e in exprs {
        if let Expr::Col(c) = e {
            input.col(*c)?;
        }
    }
    let mut columns: Vec<Option<Column>> = input.into_columns().into_iter().map(Some).collect();
    for (i, e) in exprs.iter().enumerate() {
        let Expr::Col(c) = e else { continue };
        let col = match columns.get_mut(*c) {
            None => Column::nulls(0), // an empty batch of unknown width
            Some(slot) if exprs[i + 1..].contains(e) => slot
                .clone()
                .expect("an earlier reference clones, only the last moves"),
            Some(slot) => slot.take().expect("only the last reference moves"),
        };
        out[i] = Some(col);
    }
    Ok(Batch::new(out.into_iter().flatten().collect(), len))
}

/// Window evaluation: sort by (partition keys, order keys), then walk each
/// partition keeping the function's running state. The computed value is
/// appended as a new trailing column.
fn window(input: &Batch, partition_by: &[usize], order_by: &[SortKey], func: WindowFunc) -> Batch {
    let mut keys = ascending(partition_by);
    keys.extend_from_slice(order_by);
    let mut sorted = input.gather(&sort_indices(input, &keys));
    let order_cols: Vec<usize> = order_by.iter().map(|k| k.col).collect();
    let mut out = ColumnBuilder::with_capacity(sorted.len());
    let mut row_number = 0u64;
    let mut rank = 0u64;
    let mut cum = 0.0f64;
    let mut cum_int = 0i64;
    let mut ints_only = true;
    for k in 0..sorted.len() {
        let same_partition =
            k > 0 && keys_eq(&sorted, partition_by, k - 1, &sorted, partition_by, k);
        if !same_partition {
            row_number = 0;
            rank = 0;
            cum = 0.0;
            cum_int = 0;
            ints_only = true;
        }
        row_number += 1;
        let tied = same_partition
            && cmp_keys(&sorted, &order_cols, k - 1, &sorted, &order_cols, k) == Ordering::Equal;
        if !tied {
            rank = row_number;
        }
        out.push(match func {
            WindowFunc::RowNumber => ValueRef::Int(row_number as i64),
            WindowFunc::Rank => ValueRef::Int(rank as i64),
            WindowFunc::CumSum(col) => {
                match sorted.value(col, k) {
                    ValueRef::Int(i) => {
                        cum_int = cum_int.wrapping_add(i);
                        cum += i as f64;
                    }
                    ValueRef::Float(f) => {
                        ints_only = false;
                        cum += f;
                    }
                    _ => {}
                }
                if ints_only {
                    ValueRef::Int(cum_int)
                } else {
                    ValueRef::Float(cum)
                }
            }
        });
    }
    sorted.push_column(out.finish());
    sorted
}

fn ascending(cols: &[usize]) -> Vec<SortKey> {
    cols.iter()
        .map(|&col| SortKey { col, desc: false })
        .collect()
}

/// Ids chained by key hash: `heads[hash & mask]` starts a chain and
/// `next[id]` continues it.
struct Chains {
    heads: Vec<u32>,
    next: Vec<u32>,
    mask: usize,
}

impl Chains {
    /// Chains for ids below `n`.
    fn new(n: usize) -> Self {
        let buckets = n.next_power_of_two();
        Chains {
            heads: vec![NONE; buckets],
            next: vec![NONE; n],
            mask: buckets - 1,
        }
    }

    /// Links `id` at the head of its hash's chain.
    fn link(&mut self, id: u32, hash: u64) {
        let bucket = &mut self.heads[hash as usize & self.mask];
        self.next[id as usize] = *bucket;
        *bucket = id;
    }

    fn head(&self, hash: u64) -> u32 {
        self.heads[hash as usize & self.mask]
    }
}

/// Row indices of a join's output: `left[k]` ++ `right[k]` is output row
/// `k`, and a [`NONE`] right row pads the left row with NULLs.
#[derive(Default)]
struct Pairs {
    left: Vec<u32>,
    right: Vec<u32>,
}

impl Pairs {
    fn push(&mut self, l: usize, r: u32) {
        self.left.push(index(l));
        self.right.push(r);
    }

    /// The joined batch. An empty right side pads with `right_width` NULL
    /// columns, as it has no columns to gather from.
    fn gather(self, left: &Batch, right: &Batch, join_type: JoinType) -> Batch {
        let len = self.left.len();
        let mut columns = left.gather(&self.left).into_columns();
        match join_type {
            JoinType::Left { right_width } if right.len() == 0 => {
                columns.extend((0..right_width).map(|_| Column::nulls(len)));
            }
            _ => columns.extend(right.gather(&self.right).into_columns()),
        }
        Batch::new(columns, len)
    }
}

/// Hash join. Build rows are chained per key hash in build order and each
/// candidate is confirmed by key equality, so a probe row's matches come
/// out in build order.
fn hash_join(
    probe: &Batch,
    build: &Batch,
    lk: &[usize],
    rk: &[usize],
    join_type: JoinType,
) -> Batch {
    let left_join = matches!(join_type, JoinType::Left { .. });
    let build_hashes = hash_keys(build, rk);
    let mut chains = Chains::new(build.len());
    // Linking at the head, last row first, leaves each chain in build order.
    for i in (0..build.len()).rev() {
        if !has_null_key(build, rk, i) {
            chains.link(index(i), build_hashes[i]); // NULL keys never join
        }
    }
    let mut out = Pairs::default();
    for (p, h) in hash_keys(probe, lk).into_iter().enumerate() {
        let mut matched = false;
        if !has_null_key(probe, lk, p) {
            let mut b = chains.head(h);
            while b != NONE {
                let bi = b as usize;
                if build_hashes[bi] == h && keys_eq(probe, lk, p, build, rk, bi) {
                    out.push(p, b);
                    matched = true;
                }
                b = chains.next[bi];
            }
        }
        if !matched && left_join {
            out.push(p, NONE);
        }
    }
    out.gather(probe, build, join_type)
}

/// Sort-merge join over inputs sorted by their keys. Inputs are
/// defensively re-sorted (the "merge" of pre-sorted runs is then O(n));
/// correctness never depends on the producer having sorted.
fn merge_join(
    left: &Batch,
    right: &Batch,
    lk: &[usize],
    rk: &[usize],
    join_type: JoinType,
) -> Batch {
    let left_join = matches!(join_type, JoinType::Left { .. });
    let ls = sort_indices(left, &ascending(lk));
    let rs = sort_indices(right, &ascending(rk));
    let mut out = Pairs::default();
    let (mut i, mut j) = (0usize, 0usize);
    while i < ls.len() && j < rs.len() {
        let (l, r) = (ls[i] as usize, rs[j] as usize);
        // NULL keys never match (but left rows still survive a left join).
        if has_null_key(left, lk, l) {
            if left_join {
                out.push(l, NONE);
            }
            i += 1;
            continue;
        }
        if has_null_key(right, rk, r) {
            j += 1;
            continue;
        }
        match cmp_keys(left, lk, l, right, rk, r) {
            Ordering::Less => {
                if left_join {
                    out.push(l, NONE);
                }
                i += 1;
            }
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // The full equal block on both sides.
                let same = |s: &[u32], b: &Batch, k: &[usize], x: usize| {
                    s.iter()
                        .take_while(|&&y| cmp_keys(b, k, y as usize, b, k, x) == Ordering::Equal)
                        .count()
                };
                let i_end = i + same(&ls[i..], left, lk, l);
                let j_end = j + same(&rs[j..], right, rk, r);
                for &l in &ls[i..i_end] {
                    for &r in &rs[j..j_end] {
                        out.push(l as usize, r);
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    if left_join {
        for &l in &ls[i..] {
            out.push(l as usize, NONE);
        }
    }
    out.gather(left, right, join_type)
}

/// Stable sort by the given keys.
pub fn sort_rows(rows: Vec<Row>, keys: &[SortKey]) -> Vec<Row> {
    // Sort a batch of just the key columns, then move the rows into place.
    let key_columns = keys
        .iter()
        .map(|k| {
            let mut b = ColumnBuilder::with_capacity(rows.len());
            for row in &rows {
                b.push(row.get(k.col).map_or(ValueRef::Null, Value::view));
            }
            b.finish()
        })
        .collect();
    let key_batch = Batch::new(key_columns, rows.len());
    let renumbered: Vec<SortKey> = keys
        .iter()
        .enumerate()
        .map(|(col, k)| SortKey { col, desc: k.desc })
        .collect();
    let mut slots: Vec<Option<Row>> = rows.into_iter().map(Some).collect();
    sort_indices(&key_batch, &renumbered)
        .into_iter()
        .map(|i| {
            slots[i as usize]
                .take()
                .expect("a permutation names each row once")
        })
        .collect()
}

/// How an aggregation's input falls into groups.
struct Groups {
    /// Input rows in the order their values are folded.
    order: Vec<u32>,
    /// `group_of[k]` is the group of row `order[k]`.
    group_of: Vec<u32>,
    /// Each group's first row, which carries its key, in output order.
    firsts: Vec<u32>,
}

/// Groups in first-seen order, found through chains per key hash; a
/// candidate group is confirmed by key equality with its first row.
fn hash_groups(input: &Batch, group: &[usize]) -> Groups {
    let hashes = hash_keys(input, group);
    let mut chains = Chains::new(input.len());
    let mut firsts: Vec<u32> = Vec::new();
    let mut group_of = Vec::with_capacity(input.len());
    for (i, &h) in hashes.iter().enumerate() {
        let mut g = chains.head(h);
        while g != NONE {
            let first = firsts[g as usize] as usize;
            if hashes[first] == h && keys_eq(input, group, first, input, group, i) {
                break;
            }
            g = chains.next[g as usize];
        }
        if g == NONE {
            g = index(firsts.len());
            chains.link(g, h);
            firsts.push(index(i));
        }
        group_of.push(g);
    }
    Groups {
        order: (0..index(input.len())).collect(),
        group_of,
        firsts,
    }
}

/// Groups in key order (the paper's "sort aggregate"): the input is
/// sorted by the group keys — defensively, so any input is correct — and
/// a group ends where the key changes.
fn sorted_groups(input: &Batch, group: &[usize]) -> Groups {
    let order = sort_indices(input, &ascending(group));
    let mut firsts: Vec<u32> = Vec::new();
    let mut group_of = Vec::with_capacity(order.len());
    for &i in &order {
        let same = firsts
            .last()
            .is_some_and(|&first| keys_eq(input, group, first as usize, input, group, i as usize));
        if !same {
            firsts.push(i);
        }
        group_of.push(index(firsts.len() - 1));
    }
    Groups {
        order,
        group_of,
        firsts,
    }
}

/// Output rows `group_keys ++ aggregates`, one per group. A global
/// aggregate (no GROUP BY) emits one row even for empty input.
fn aggregate(input: &Batch, group: &[usize], aggs: &[AggExpr], groups: Groups) -> Result<Batch> {
    let n_groups = if group.is_empty() {
        1
    } else {
        groups.firsts.len()
    };
    let mut columns: Vec<Column> = group
        .iter()
        .map(|&c| match input.column(c) {
            Some(col) => col.gather(&groups.firsts),
            None => Column::nulls(n_groups),
        })
        .collect();
    for agg in aggs {
        let arg = agg.expr.eval(input)?;
        let mut accs = vec![Accumulator::new(agg.func); n_groups];
        for (&row, &g) in groups.order.iter().zip(&groups.group_of) {
            accs[g as usize].push(arg.get(row as usize));
        }
        let mut out = ColumnBuilder::with_capacity(n_groups);
        for acc in &accs {
            out.push(acc.finish().view());
        }
        columns.push(out.finish());
    }
    Ok(Batch::new(columns, n_groups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, BinOp};
    use crate::value::Schema;

    fn iv(i: i64) -> Value {
        Value::Int(i)
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let rows: Vec<Row> = (0..10).map(|i| vec![iv(i), iv(i % 3)]).collect();
        c.register(Table::new("t", Schema::new(vec!["id", "k"]), rows));
        c
    }

    fn plan(ops: Vec<ExecOp>) -> StagePlan {
        StagePlan {
            ops,
            outputs: vec![],
        }
    }

    #[test]
    fn scan_partitions_by_task() {
        let c = catalog();
        let p = plan(vec![ExecOp::Scan { table: "t".into() }]);
        let parts: Vec<Vec<Row>> = (0..3)
            .map(|task| run_task(&c, &p, task, 3, &vec![]).unwrap())
            .collect();
        // Row i goes to task i % 3.
        assert_eq!(
            parts.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        let mut all: Vec<Row> = parts.into_iter().flatten().collect();
        all.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(all, c.get("t").unwrap().rows, "the union is the table");
    }

    #[test]
    fn scan_then_filters_and_projections_in_order() {
        let c = catalog();
        let ge5 = Expr::bin(BinOp::Ge, Expr::col(0), Expr::lit(5i64));
        // Filter on the table row, project (k, id, k), filter on the
        // projection (its column 2 is k), then a computed projection.
        let p = plan(vec![
            ExecOp::Scan { table: "t".into() },
            ExecOp::Filter(ge5),
            ExecOp::Project(vec![Expr::col(1), Expr::col(0), Expr::col(1)]),
            ExecOp::Filter(Expr::bin(BinOp::Eq, Expr::col(2), Expr::lit(0i64))),
            ExecOp::Project(vec![Expr::bin(BinOp::Add, Expr::col(1), Expr::col(2))]),
        ]);
        let out = run_task(&c, &p, 0, 1, &vec![]).unwrap();
        // id >= 5 and id % 3 == 0: ids 6 and 9.
        assert_eq!(out, vec![vec![iv(6)], vec![iv(9)]]);
        // A filter reading past the projection fails.
        let bad = plan(vec![
            ExecOp::Scan { table: "t".into() },
            ExecOp::Project(vec![Expr::col(0)]),
            ExecOp::Filter(Expr::bin(BinOp::Eq, Expr::col(1), Expr::lit(0i64))),
        ]);
        assert!(run_task(&c, &bad, 0, 1, &vec![]).is_err());
    }

    #[test]
    fn project_repeating_a_column_yields_two_copies() {
        let rows = vec![vec![iv(1), Value::Str("s".into())]];
        let inputs: TaskInputs = vec![vec![rows]];
        let p = plan(vec![ExecOp::Project(vec![
            Expr::col(1),
            Expr::col(1),
            Expr::bin(BinOp::Add, Expr::col(0), Expr::lit(1i64)),
            Expr::col(0),
            Expr::IsNull(Box::new(Expr::col(1))),
        ])]);
        let out = run_task(&Catalog::new(), &p, 0, 1, &inputs).unwrap();
        let s = Value::Str("s".into());
        assert_eq!(
            out,
            vec![vec![s.clone(), s, iv(2), iv(1), Value::Bool(false)]]
        );
    }

    #[test]
    fn self_join_reads_one_edge_twice() {
        let rows = vec![vec![iv(1)], vec![iv(2)]];
        let inputs: TaskInputs = vec![vec![rows]];
        let p = plan(vec![ExecOp::HashJoin {
            right_edge: 0,
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        }]);
        let out = run_task(&Catalog::new(), &p, 0, 1, &inputs).unwrap();
        assert_eq!(out, vec![vec![iv(1), iv(1)], vec![iv(2), iv(2)]]);
    }

    #[test]
    fn filter_project_limit() {
        let c = catalog();
        let p = plan(vec![
            ExecOp::Scan { table: "t".into() },
            ExecOp::Filter(Expr::bin(BinOp::Ge, Expr::col(0), Expr::lit(5i64))),
            ExecOp::Project(vec![Expr::bin(BinOp::Mul, Expr::col(0), Expr::lit(10i64))]),
            ExecOp::Sort(vec![SortKey {
                col: 0,
                desc: false,
            }]),
            ExecOp::Limit(3),
        ]);
        let out = run_task(&c, &p, 0, 1, &vec![]).unwrap();
        assert_eq!(out, vec![vec![iv(50)], vec![iv(60)], vec![iv(70)]]);
    }

    #[test]
    fn hash_join_inner_many_to_many() {
        let left = vec![
            vec![iv(1), iv(10)],
            vec![iv(2), iv(20)],
            vec![iv(1), iv(11)],
        ];
        let right = vec![
            vec![iv(1), iv(100)],
            vec![iv(1), iv(101)],
            vec![iv(3), iv(300)],
        ];
        let inputs: TaskInputs = vec![vec![left], vec![right]];
        let p = plan(vec![ExecOp::HashJoin {
            right_edge: 1,
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        }]);
        let out = run_task(&Catalog::new(), &p, 0, 1, &inputs).unwrap();
        assert_eq!(out.len(), 4, "2 left x 2 right matches on key 1");
        assert!(out.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn merge_join_matches_hash_join() {
        let left: Vec<Row> = (0..20).map(|i| vec![iv(i % 5), iv(i)]).collect();
        let right: Vec<Row> = (0..15).map(|i| vec![iv(i % 7), iv(i * 2)]).collect();
        // Int(2) and Float(2.0) are one key.
        let mixed_left = vec![vec![Value::Float(2.0), iv(0)], vec![iv(3), iv(1)]];
        let mixed_right = vec![vec![iv(2), iv(7)], vec![Value::Float(3.5), iv(8)]];
        let hj = plan(vec![ExecOp::HashJoin {
            right_edge: 1,
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        }]);
        let mj = plan(vec![ExecOp::MergeJoin {
            right_edge: 1,
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        }]);
        let cmp = |x: &Row, y: &Row| {
            for i in 0..x.len() {
                let o = x[i].total_cmp(&y[i]);
                if o != Ordering::Equal {
                    return o;
                }
            }
            Ordering::Equal
        };
        for (left, right, expect) in [(left, right, None), (mixed_left, mixed_right, Some(1))] {
            let inputs: TaskInputs = vec![vec![left], vec![right]];
            let mut a = run_task(&Catalog::new(), &hj, 0, 1, &inputs).unwrap();
            let mut b = run_task(&Catalog::new(), &mj, 0, 1, &inputs).unwrap();
            a.sort_by(cmp);
            b.sort_by(cmp);
            assert_eq!(a, b);
            assert!(!a.is_empty());
            if let Some(n) = expect {
                assert_eq!(a.len(), n);
                assert_eq!(a[0], vec![Value::Float(2.0), iv(0), iv(2), iv(7)]);
            }
        }
    }

    #[test]
    fn left_hash_join_emits_duplicate_build_keys_in_build_order() {
        let left = vec![vec![iv(1), iv(10)], vec![iv(5), iv(50)]];
        let right = vec![
            vec![iv(1), iv(100)],
            vec![iv(2), iv(200)],
            vec![Value::Float(1.0), iv(101)],
            vec![iv(1), iv(102)],
        ];
        let inputs: TaskInputs = vec![vec![left], vec![right]];
        let p = plan(vec![ExecOp::HashJoin {
            right_edge: 1,
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Left { right_width: 2 },
        }]);
        let out = run_task(&Catalog::new(), &p, 0, 1, &inputs).unwrap();
        assert_eq!(
            out,
            vec![
                vec![iv(1), iv(10), iv(1), iv(100)],
                vec![iv(1), iv(10), Value::Float(1.0), iv(101)],
                vec![iv(1), iv(10), iv(1), iv(102)],
                vec![iv(5), iv(50), Value::Null, Value::Null],
            ]
        );
    }

    #[test]
    fn null_keys_never_join() {
        let left = vec![vec![Value::Null, iv(1)], vec![iv(1), iv(2)]];
        let right = vec![vec![Value::Null, iv(9)], vec![iv(1), iv(8)]];
        let inputs: TaskInputs = vec![vec![left], vec![right]];
        for p in [
            plan(vec![ExecOp::HashJoin {
                right_edge: 1,
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: JoinType::Inner,
            }]),
            plan(vec![ExecOp::MergeJoin {
                right_edge: 1,
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: JoinType::Inner,
            }]),
        ] {
            let out = run_task(&Catalog::new(), &p, 0, 1, &inputs).unwrap();
            assert_eq!(out.len(), 1, "only the 1-1 match joins");
        }
    }

    #[test]
    fn aggregates_agree_between_hash_and_streamed() {
        let rows: Vec<Row> = (0..30).map(|i| vec![iv(i % 4), iv(i)]).collect();
        let aggs = vec![
            AggExpr {
                func: AggFunc::Sum,
                expr: Expr::col(1),
            },
            AggExpr {
                func: AggFunc::Count,
                expr: Expr::lit(1i64),
            },
        ];
        let h = plan(vec![ExecOp::HashAggregate {
            group: vec![0],
            aggs: aggs.clone(),
        }]);
        let s = plan(vec![ExecOp::StreamedAggregate {
            group: vec![0],
            aggs,
        }]);
        // The same rows plus two whose key is Float(2.0): they join group
        // Int(2), which keeps its first-seen key value.
        let mut mixed = rows.clone();
        mixed.push(vec![Value::Float(2.0), iv(100)]);
        mixed.push(vec![Value::Float(2.0), iv(1000)]);
        for (rows, group2) in [
            (rows, vec![iv(2), iv(98), iv(7)]),
            (mixed, vec![iv(2), iv(1198), iv(9)]),
        ] {
            let inputs: TaskInputs = vec![vec![rows]];
            let mut a = run_task(&Catalog::new(), &h, 0, 1, &inputs).unwrap();
            let b = run_task(&Catalog::new(), &s, 0, 1, &inputs).unwrap();
            a.sort_by(|x, y| x[0].total_cmp(&y[0]));
            assert_eq!(a, b, "streamed output is key-ordered");
            assert_eq!(a.len(), 4);
            // group 0: 0+4+...+28 = 112
            assert_eq!(a[0], vec![iv(0), iv(112), iv(8)]);
            // group 2: 2+6+...+26 = 98
            assert_eq!(a[2], group2);
        }
    }

    #[test]
    fn global_aggregate_on_empty_input_emits_one_row() {
        let inputs: TaskInputs = vec![vec![vec![]]];
        let p = plan(vec![ExecOp::HashAggregate {
            group: vec![],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                expr: Expr::lit(1i64),
            }],
        }]);
        let out = run_task(&Catalog::new(), &p, 0, 1, &inputs).unwrap();
        assert_eq!(out, vec![vec![iv(0)]]);
    }

    #[test]
    fn left_join_pads_unmatched_rows() {
        let left = vec![
            vec![iv(1), iv(10)],
            vec![iv(2), iv(20)],
            vec![Value::Null, iv(30)],
        ];
        let right = vec![vec![iv(1), iv(100)]];
        let inputs: TaskInputs = vec![vec![left.clone()], vec![right.clone()]];
        for p in [
            plan(vec![ExecOp::HashJoin {
                right_edge: 1,
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: JoinType::Left { right_width: 2 },
            }]),
            plan(vec![ExecOp::MergeJoin {
                right_edge: 1,
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: JoinType::Left { right_width: 2 },
            }]),
        ] {
            let mut out = run_task(&Catalog::new(), &p, 0, 1, &inputs).unwrap();
            out.sort_by(|a, b| a[1].total_cmp(&b[1]));
            assert_eq!(out.len(), 3, "every left row survives");
            assert_eq!(out[0], vec![iv(1), iv(10), iv(1), iv(100)]);
            assert_eq!(out[1], vec![iv(2), iv(20), Value::Null, Value::Null]);
            assert_eq!(out[2], vec![Value::Null, iv(30), Value::Null, Value::Null]);
        }
    }

    #[test]
    fn left_join_with_empty_build_side_pads_via_width_hint() {
        let left = vec![vec![iv(1), iv(10)]];
        let inputs: TaskInputs = vec![vec![left], vec![vec![]]];
        let p = plan(vec![ExecOp::HashJoin {
            right_edge: 1,
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Left { right_width: 3 },
        }]);
        let out = run_task(&Catalog::new(), &p, 0, 1, &inputs).unwrap();
        assert_eq!(
            out,
            vec![vec![iv(1), iv(10), Value::Null, Value::Null, Value::Null]]
        );
    }

    #[test]
    fn window_row_number_and_rank() {
        // (partition, order): p0 -> values 5, 5, 7; p1 -> value 3.
        let rows = vec![
            vec![iv(0), iv(5)],
            vec![iv(1), iv(3)],
            vec![iv(0), iv(7)],
            vec![iv(0), iv(5)],
        ];
        let inputs: TaskInputs = vec![vec![rows.clone()]];
        let rn = plan(vec![ExecOp::Window {
            partition_by: vec![0],
            order_by: vec![SortKey {
                col: 1,
                desc: false,
            }],
            func: WindowFunc::RowNumber,
        }]);
        let out = run_task(&Catalog::new(), &rn, 0, 1, &inputs).unwrap();
        assert_eq!(
            out,
            vec![
                vec![iv(0), iv(5), iv(1)],
                vec![iv(0), iv(5), iv(2)],
                vec![iv(0), iv(7), iv(3)],
                vec![iv(1), iv(3), iv(1)],
            ]
        );
        let rk = plan(vec![ExecOp::Window {
            partition_by: vec![0],
            order_by: vec![SortKey {
                col: 1,
                desc: false,
            }],
            func: WindowFunc::Rank,
        }]);
        let out = run_task(&Catalog::new(), &rk, 0, 1, &inputs).unwrap();
        // Ties share rank 1; next distinct value gets rank 3 (gaps).
        assert_eq!(out[0][2], iv(1));
        assert_eq!(out[1][2], iv(1));
        assert_eq!(out[2][2], iv(3));
        assert_eq!(out[3][2], iv(1));
    }

    #[test]
    fn window_cumsum_resets_per_partition() {
        let rows = vec![
            vec![iv(0), iv(10)],
            vec![iv(0), iv(5)],
            vec![iv(1), iv(2)],
            vec![iv(1), iv(1)],
        ];
        let inputs: TaskInputs = vec![vec![rows]];
        let p = plan(vec![ExecOp::Window {
            partition_by: vec![0],
            order_by: vec![SortKey {
                col: 1,
                desc: false,
            }],
            func: WindowFunc::CumSum(1),
        }]);
        let out = run_task(&Catalog::new(), &p, 0, 1, &inputs).unwrap();
        // p0 sorted: 5, 10 -> cums 5, 15; p1 sorted: 1, 2 -> cums 1, 3.
        assert_eq!(
            out,
            vec![
                vec![iv(0), iv(5), iv(5)],
                vec![iv(0), iv(10), iv(15)],
                vec![iv(1), iv(1), iv(1)],
                vec![iv(1), iv(2), iv(3)],
            ]
        );
    }

    #[test]
    fn sort_desc_and_stability() {
        let rows = vec![vec![iv(1), iv(1)], vec![iv(2), iv(2)], vec![iv(1), iv(3)]];
        let sorted = sort_rows(rows, &[SortKey { col: 0, desc: true }]);
        assert_eq!(sorted[0][0], iv(2));
        // stable: the two key-1 rows keep their relative order
        assert_eq!(sorted[1][1], iv(1));
        assert_eq!(sorted[2][1], iv(3));
    }
}
