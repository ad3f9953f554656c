//! Task execution: running one stage plan over one task's inputs.
//!
//! Rows move through a stage: each operator consumes the stream it is
//! handed, input edges are taken by value, and a row is cloned only where
//! it must exist twice — a table row a scan keeps, a build row joined to
//! several probe rows, a probe row with several matches.

use crate::error::{EngineError, Result};
use crate::expr::{column, Accumulator, Expr};
use crate::plan::{hash_key, keys_eq, AggExpr, ExecOp, JoinType, SortKey, StagePlan, WindowFunc};
use crate::value::{Catalog, Row, Table, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

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
    run_task_owned(catalog, plan, task_index, task_count, inputs.clone())
}

/// [`run_task`] over inputs it may consume.
pub(crate) fn run_task_owned(
    catalog: &Catalog,
    plan: &StagePlan,
    task_index: u32,
    task_count: u32,
    inputs: TaskInputs,
) -> Result<Vec<Row>> {
    let mut edges = Edges::new(inputs, &plan.ops);
    let (mut stream, rest) = match plan.ops.split_first() {
        Some((ExecOp::Scan { table }, rest)) => {
            let t = catalog
                .get(table)
                .ok_or_else(|| EngineError::Unknown(format!("table {table}")))?;
            let (rows, fused) = scan(t, rest, task_index, task_count)?;
            (rows, &rest[fused..])
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
    inputs: TaskInputs,
    readers: Vec<usize>,
}

impl Edges {
    fn new(inputs: TaskInputs, ops: &[ExecOp]) -> Self {
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
    fn take(&mut self, edge: usize) -> Result<Vec<Row>> {
        let per_producer = self
            .inputs
            .get_mut(edge)
            .ok_or_else(|| EngineError::Plan(format!("missing input edge {edge}")))?;
        self.readers[edge] -= 1;
        if self.readers[edge] > 0 {
            return Ok(per_producer.iter().flatten().cloned().collect());
        }
        let mut parts = std::mem::take(per_producer);
        if parts.len() == 1 {
            return Ok(parts.pop().expect("one part"));
        }
        let mut rows = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for p in parts {
            rows.extend(p);
        }
        Ok(rows)
    }
}

/// Scans this task's stripe of `table` (row `i` goes to task
/// `i % task_count`), fused with the `Filter`s and column-only `Project`s
/// that lead `ops`: predicates run on the borrowed table row and only a
/// surviving row — or just its projected columns — is cloned. Returns
/// the rows and how many of `ops` the scan absorbed.
fn scan(table: &Table, ops: &[ExecOp], task: u32, task_count: u32) -> Result<(Vec<Row>, usize)> {
    // Both in table columns: the projection so far, and every predicate.
    let mut cols: Option<Vec<usize>> = None;
    let mut preds: Vec<Expr> = Vec::new();
    let mut fused = 0;
    for op in ops {
        match op {
            ExecOp::Filter(p) => match &cols {
                None => preds.push(p.clone()),
                Some(cols) => match p.remap_cols(cols) {
                    Some(p) => preds.push(p),
                    None => break,
                },
            },
            ExecOp::Project(exprs) => {
                let next = exprs
                    .iter()
                    .map(|e| match (e, &cols) {
                        (Expr::Col(c), None) => Some(*c),
                        (Expr::Col(c), Some(cols)) => cols.get(*c).copied(),
                        _ => None,
                    })
                    .collect();
                match next {
                    Some(next) => cols = Some(next),
                    None => break,
                }
            }
            _ => break,
        }
        fused += 1;
    }
    let stripe = table
        .rows
        .iter()
        .skip(task as usize)
        .step_by(task_count as usize);
    let mut out = Vec::with_capacity(if preds.is_empty() { stripe.len() } else { 0 });
    'rows: for row in stripe {
        for p in &preds {
            if !p.eval_ref(row)?.is_true() {
                continue 'rows;
            }
        }
        out.push(match &cols {
            None => row.clone(),
            Some(cols) => {
                let mut r = Vec::with_capacity(cols.len());
                for &c in cols {
                    r.push(column(row, c)?.clone());
                }
                r
            }
        });
    }
    Ok((out, fused))
}

fn apply(op: &ExecOp, stream: Vec<Row>, edges: &mut Edges) -> Result<Vec<Row>> {
    match op {
        ExecOp::Scan { table } => Err(EngineError::Plan(format!("Scan({table}) not first"))),
        ExecOp::Filter(pred) => {
            let mut out = Vec::with_capacity(stream.len());
            for row in stream {
                if pred.eval_ref(&row)?.is_true() {
                    out.push(row);
                }
            }
            Ok(out)
        }
        ExecOp::Project(exprs) => project(stream, exprs),
        ExecOp::HashJoin {
            right_edge,
            left_keys,
            right_keys,
            join_type,
        } => {
            let build = edges.take(*right_edge)?;
            Ok(hash_join(stream, build, left_keys, right_keys, *join_type))
        }
        ExecOp::MergeJoin {
            right_edge,
            left_keys,
            right_keys,
            join_type,
        } => {
            let right = edges.take(*right_edge)?;
            Ok(merge_join(stream, right, left_keys, right_keys, *join_type))
        }
        ExecOp::Sort(keys) => Ok(sort_rows(stream, keys)),
        ExecOp::HashAggregate { group, aggs } => hash_aggregate(stream, group, aggs),
        ExecOp::StreamedAggregate { group, aggs } => streamed_aggregate(stream, group, aggs),
        ExecOp::Window {
            partition_by,
            order_by,
            func,
        } => Ok(window(stream, partition_by, order_by, *func)),
        ExecOp::Limit(n) => {
            let mut s = stream;
            s.truncate(*n as usize);
            Ok(s)
        }
    }
}

/// Where one projected column comes from.
#[derive(Clone, Copy)]
enum Source {
    /// Moved out of the input row: the column's last plain reference.
    Move(usize),
    /// Cloned: a plain reference the same column has again later on.
    Clone(usize),
    /// Computed by the expression.
    Eval,
}

/// Projection that moves plain column references out of the input row
/// instead of cloning them. Computed columns are evaluated first, while
/// the row is still whole.
fn project(stream: Vec<Row>, exprs: &[Expr]) -> Result<Vec<Row>> {
    let sources: Vec<Source> = exprs
        .iter()
        .enumerate()
        .map(|(i, e)| match e {
            Expr::Col(c) if exprs[i + 1..].contains(e) => Source::Clone(*c),
            Expr::Col(c) => Source::Move(*c),
            _ => Source::Eval,
        })
        .collect();
    let mut out = Vec::with_capacity(stream.len());
    for mut row in stream {
        let mut nr = Vec::with_capacity(exprs.len());
        for (src, e) in sources.iter().zip(exprs) {
            nr.push(match src {
                Source::Eval => e.eval(&row)?,
                Source::Move(_) | Source::Clone(_) => Value::Null,
            });
        }
        for (slot, src) in nr.iter_mut().zip(&sources) {
            match *src {
                Source::Clone(c) => *slot = column(&row, c)?.clone(),
                Source::Move(c) => {
                    column(&row, c)?;
                    *slot = std::mem::replace(&mut row[c], Value::Null);
                }
                Source::Eval => {}
            }
        }
        out.push(nr);
    }
    Ok(out)
}

/// Window evaluation: sort by (partition keys, order keys), then stream
/// through each partition maintaining the function's running state. The
/// computed value is appended as a new trailing column.
fn window(
    stream: Vec<Row>,
    partition_by: &[usize],
    order_by: &[SortKey],
    func: WindowFunc,
) -> Vec<Row> {
    let mut keys: Vec<SortKey> = partition_by
        .iter()
        .map(|&c| SortKey {
            col: c,
            desc: false,
        })
        .collect();
    keys.extend_from_slice(order_by);
    let sorted = sort_rows(stream, &keys);
    let order_cols: Vec<usize> = order_by.iter().map(|k| k.col).collect();
    let mut out: Vec<Row> = Vec::with_capacity(sorted.len());
    let mut row_number = 0u64;
    let mut rank = 0u64;
    let mut cum = 0.0f64;
    let mut cum_int = 0i64;
    let mut ints_only = true;
    for mut row in sorted {
        // The previous row, without the column this operator appended.
        let prev = out.last().map(|p| &p[..p.len() - 1]);
        let same_partition = prev.is_some_and(|p| keys_eq(p, partition_by, &row, partition_by));
        if !same_partition {
            row_number = 0;
            rank = 0;
            cum = 0.0;
            cum_int = 0;
            ints_only = true;
        }
        row_number += 1;
        let tied = same_partition
            && prev.is_some_and(|p| key_cmp(p, &row, &order_cols, &order_cols) == Ordering::Equal);
        if !tied {
            rank = row_number;
        }
        let value = match func {
            WindowFunc::RowNumber => Value::Int(row_number as i64),
            WindowFunc::Rank => Value::Int(rank as i64),
            WindowFunc::CumSum(col) => {
                match row.get(col) {
                    Some(Value::Int(i)) => {
                        cum_int = cum_int.wrapping_add(*i);
                        cum += *i as f64;
                    }
                    Some(Value::Float(f)) => {
                        ints_only = false;
                        cum += f;
                    }
                    _ => {}
                }
                if ints_only {
                    Value::Int(cum_int)
                } else {
                    Value::Float(cum)
                }
            }
        };
        row.push(value);
        out.push(row);
    }
    out
}

/// No entry: the end of a hash chain.
const NONE: usize = usize::MAX;

fn has_null_key(row: &[Value], cols: &[usize]) -> bool {
    cols.iter().any(|&c| row.get(c).is_none_or(Value::is_null))
}

/// `l ++ r` in one exactly sized allocation.
fn joined(l: &[Value], r: &[Value]) -> Row {
    let mut out = Vec::with_capacity(l.len() + r.len());
    out.extend_from_slice(l);
    out.extend_from_slice(r);
    out
}

/// `l ++ r`, reusing `l`.
fn joined_into(mut l: Row, r: &[Value]) -> Row {
    l.reserve_exact(r.len());
    l.extend_from_slice(r);
    l
}

/// `l` padded with `width` NULLs: an unmatched row of a left join.
fn padded(mut l: Row, width: usize) -> Row {
    l.reserve_exact(width);
    l.extend(std::iter::repeat_n(Value::Null, width));
    l
}

/// Hash join. Build rows are chained per key hash in build order and each
/// candidate is confirmed with [`keys_eq`], so a probe row's matches come
/// out in build order. The probe row is moved into its last match.
fn hash_join(
    probe: Vec<Row>,
    build: Vec<Row>,
    lk: &[usize],
    rk: &[usize],
    join_type: JoinType,
) -> Vec<Row> {
    let right_width = match join_type {
        JoinType::Left { right_width } => right_width,
        JoinType::Inner => build.first().map_or(0, Vec::len),
    };
    // Key hash -> (first, last) build row of its chain; `next` links it.
    let mut chains: HashMap<u64, (usize, usize)> = HashMap::with_capacity(build.len());
    let mut next = vec![NONE; build.len()];
    for (i, row) in build.iter().enumerate() {
        if has_null_key(row, rk) {
            continue; // NULL keys never join
        }
        match chains.entry(hash_key(row, rk)) {
            Entry::Occupied(mut e) => {
                let last = &mut e.get_mut().1;
                next[*last] = i;
                *last = i;
            }
            Entry::Vacant(e) => {
                e.insert((i, i));
            }
        }
    }
    let mut out = Vec::with_capacity(probe.len());
    for l in probe {
        let mut i = if has_null_key(&l, lk) {
            NONE
        } else {
            chains
                .get(&hash_key(&l, lk))
                .map_or(NONE, |&(first, _)| first)
        };
        let mut last_match = NONE;
        while i != NONE {
            if keys_eq(&l, lk, &build[i], rk) {
                if last_match != NONE {
                    out.push(joined(&l, &build[last_match]));
                }
                last_match = i;
            }
            i = next[i];
        }
        if last_match != NONE {
            out.push(joined_into(l, &build[last_match]));
        } else if matches!(join_type, JoinType::Left { .. }) {
            out.push(padded(l, right_width));
        }
    }
    out
}

fn key_cmp(a: &[Value], b: &[Value], ak: &[usize], bk: &[usize]) -> Ordering {
    for (&ca, &cb) in ak.iter().zip(bk) {
        let av = a.get(ca).unwrap_or(&Value::Null);
        let bv = b.get(cb).unwrap_or(&Value::Null);
        let ord = av.total_cmp(bv);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Inner sort-merge join over inputs sorted by their keys. Inputs are
/// defensively re-sorted (the "merge" of pre-sorted runs is then O(n));
/// correctness never depends on the producer having sorted.
fn merge_join(
    left: Vec<Row>,
    right: Vec<Row>,
    lk: &[usize],
    rk: &[usize],
    join_type: JoinType,
) -> Vec<Row> {
    let right_width = match join_type {
        JoinType::Left { right_width } => right_width,
        JoinType::Inner => right.first().map_or(0, Vec::len),
    };
    let lkeys: Vec<SortKey> = lk
        .iter()
        .map(|&c| SortKey {
            col: c,
            desc: false,
        })
        .collect();
    let rkeys: Vec<SortKey> = rk
        .iter()
        .map(|&c| SortKey {
            col: c,
            desc: false,
        })
        .collect();
    let mut left = sort_rows(left, &lkeys);
    let right = sort_rows(right, &rkeys);
    let mut out = Vec::with_capacity(left.len());
    let left_join = matches!(join_type, JoinType::Left { .. });
    let emit_unmatched = |l: Row, out: &mut Vec<Row>| {
        if left_join {
            out.push(padded(l, right_width));
        }
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        // NULL keys never match (but left rows still survive a left join).
        if has_null_key(&left[i], lk) {
            emit_unmatched(std::mem::take(&mut left[i]), &mut out);
            i += 1;
            continue;
        }
        if has_null_key(&right[j], rk) {
            j += 1;
            continue;
        }
        match key_cmp(&left[i], &right[j], lk, rk) {
            Ordering::Less => {
                emit_unmatched(std::mem::take(&mut left[i]), &mut out);
                i += 1;
            }
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Find the full equal block on both sides.
                let i_end = (i..left.len())
                    .take_while(|&x| key_cmp(&left[x], &left[i], lk, lk) == Ordering::Equal)
                    .last()
                    .unwrap()
                    + 1;
                let j_end = (j..right.len())
                    .take_while(|&x| key_cmp(&right[x], &right[j], rk, rk) == Ordering::Equal)
                    .last()
                    .unwrap()
                    + 1;
                let (block, last) = (&right[j..j_end - 1], &right[j_end - 1]);
                for l in &mut left[i..i_end] {
                    for r in block {
                        out.push(joined(l, r));
                    }
                    out.push(joined_into(std::mem::take(l), last));
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    // Left-side tail.
    for l in left.drain(i..) {
        emit_unmatched(l, &mut out);
    }
    out
}

/// Stable sort by the given keys.
pub fn sort_rows(mut rows: Vec<Row>, keys: &[SortKey]) -> Vec<Row> {
    rows.sort_by(|a, b| {
        for k in keys {
            let av = a.get(k.col).unwrap_or(&Value::Null);
            let bv = b.get(k.col).unwrap_or(&Value::Null);
            let mut ord = av.total_cmp(bv);
            if k.desc {
                ord = ord.reverse();
            }
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    rows
}

/// One group of an aggregation: its first row (which carries the key) and
/// its running accumulators.
type Group = (Row, Vec<Accumulator>);

fn new_accumulators(aggs: &[AggExpr]) -> Vec<Accumulator> {
    aggs.iter().map(|a| Accumulator::new(a.func)).collect()
}

fn accumulate(accs: &mut [Accumulator], aggs: &[AggExpr], row: &[Value]) -> Result<()> {
    for (acc, a) in accs.iter_mut().zip(aggs) {
        acc.push(&*a.expr.eval_ref(row)?);
    }
    Ok(())
}

fn finish_group(key_row: &[Value], group: &[usize], accs: &[Accumulator]) -> Row {
    let mut out = Vec::with_capacity(group.len() + accs.len());
    out.extend(
        group
            .iter()
            .map(|&c| key_row.get(c).cloned().unwrap_or(Value::Null)),
    );
    out.extend(accs.iter().map(Accumulator::finish));
    out
}

/// Hash aggregation. Groups are kept in first-seen order (the output
/// order) and chained per key hash; a row allocates only when it opens a
/// new group, which then keeps the row itself as its key.
fn hash_aggregate(stream: Vec<Row>, group: &[usize], aggs: &[AggExpr]) -> Result<Vec<Row>> {
    let mut groups: Vec<Group> = Vec::new();
    // Key hash -> newest group with it; `older[g]` is the group before g.
    let mut newest: HashMap<u64, usize> = HashMap::new();
    let mut older: Vec<usize> = Vec::new();
    for row in stream {
        let h = hash_key(&row, group);
        let mut g = newest.get(&h).copied().unwrap_or(NONE);
        while g != NONE && !keys_eq(&groups[g].0, group, &row, group) {
            g = older[g];
        }
        if g == NONE {
            let mut accs = new_accumulators(aggs);
            accumulate(&mut accs, aggs, &row)?;
            older.push(newest.insert(h, groups.len()).unwrap_or(NONE));
            groups.push((row, accs));
        } else {
            accumulate(&mut groups[g].1, aggs, &row)?;
        }
    }
    // Global aggregate (no GROUP BY): emit one row even for empty input.
    if group.is_empty() && groups.is_empty() {
        return Ok(vec![finish_group(&[], group, &new_accumulators(aggs))]);
    }
    Ok(groups
        .iter()
        .map(|(row, accs)| finish_group(row, group, accs))
        .collect())
}

fn streamed_aggregate(stream: Vec<Row>, group: &[usize], aggs: &[AggExpr]) -> Result<Vec<Row>> {
    // Input must be sorted by the group keys; sort defensively so the
    // operator is correct on any input (sorted input makes this a no-op
    // pass for the sort).
    let keys: Vec<SortKey> = group
        .iter()
        .map(|&c| SortKey {
            col: c,
            desc: false,
        })
        .collect();
    let stream = sort_rows(stream, &keys);
    let mut out = Vec::new();
    let mut current: Option<Group> = None;
    for row in stream {
        match &mut current {
            Some((first, accs)) if keys_eq(first, group, &row, group) => {
                accumulate(accs, aggs, &row)?;
            }
            _ => {
                if let Some((first, accs)) = current.take() {
                    out.push(finish_group(&first, group, &accs));
                }
                let mut accs = new_accumulators(aggs);
                accumulate(&mut accs, aggs, &row)?;
                current = Some((row, accs));
            }
        }
    }
    if let Some((first, accs)) = current.take() {
        out.push(finish_group(&first, group, &accs));
    }
    if group.is_empty() && out.is_empty() {
        out.push(finish_group(&[], group, &new_accumulators(aggs)));
    }
    Ok(out)
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
    fn scan_fuses_leading_filters_and_column_projections() {
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
        // A filter reading past the projection is not fused, and fails
        // as it did unfused.
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
        let mut out = run_task(&Catalog::new(), &p, 0, 1, &inputs).unwrap();
        out.sort_by(|a, b| key_cmp(a, b, &[0, 1, 3], &[0, 1, 3]));
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
