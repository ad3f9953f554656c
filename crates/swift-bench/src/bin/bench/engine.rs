//! The two real-engine workloads: `engine_tpch`, `engine_spill`.

use std::collections::BTreeMap;
use std::time::Instant;

use swift_engine::{
    decode_rows, encode_rows, run_task, sort_rows, AggExpr, AggFunc, BinOp, Catalog, Engine,
    EngineJob, ExecOp, Expr, JoinType, Row, RunOptions, RunStats, SortKey, StagePlan, TaskInputs,
    Value,
};
use swift_shuffle::{CacheWorkerStore, SegmentKey};
use swift_sql::{compile, PlanOptions};
use swift_workload::{generate_catalog, teragen, terasort_engine_job, Q13_SQL, Q9_SQL};

use crate::metrics::{median, ratio, Fnv, Values};
use crate::span::{SpanStats, Tracer};
use crate::workload::{best_of_3, setup_layers, Iter, Workload};

/// Tasks per stage: the box has two cores.
const TASKS: u32 = 2;

/// `(metric infix, sql, prefer_sort)` — the query mix of `engine_tpch`.
const QUERIES: [(&str, &str, bool); 4] = [
    ("q9_hash", Q9_SQL, false),
    ("q9_sort", Q9_SQL, true),
    ("q13_hash", Q13_SQL, false),
    ("q13_sort", Q13_SQL, true),
];

pub(crate) struct EngineWorkload {
    spill: bool,
    engine: Engine,
    cache_bytes: u64,
    /// `engine_spill`'s job, built once.
    terasort: EngineJob,
    /// `engine_spill`: the input's row count and wrapping key sum.
    input_rows: u64,
    key_checksum: u64,
    /// `engine_tpch`: naive results of Q9 and Q13, computed on first use.
    reference: Option<[Vec<Row>; 2]>,
    /// Wall seconds of every query execution so far, per `QUERIES` slot
    /// (`engine_spill` uses slot 0), and of every `compile`.
    query_s: [Vec<f64>; 4],
    compile_s: Vec<f64>,
    last_stats: RunStats,
}

impl EngineWorkload {
    pub(crate) fn new(spill: bool, seed: u64, smoke: bool, tr: &Tracer) -> Self {
        let (catalog, cache_bytes) = tr.span("setup.generate", || match (spill, smoke) {
            (false, false) => (generate_catalog(32, seed), 256 << 20),
            (false, true) => (generate_catalog(2, seed), 256 << 20),
            (true, false) => (teragen(200_000, seed), 2 << 20),
            (true, true) => (teragen(5_000, seed), 64 << 10),
        });
        let (input_rows, key_checksum) = if spill {
            let rows = &catalog
                .get("teragen")
                .expect("teragen registers its table")
                .rows;
            (rows.len() as u64, key_sum(rows))
        } else {
            (0, 0)
        };
        let engine = tr.span("setup.build", || {
            Engine::new(catalog).with_cache_capacity(cache_bytes)
        });
        EngineWorkload {
            spill,
            engine,
            cache_bytes,
            terasort: terasort_engine_job(1, TASKS, TASKS),
            input_rows,
            key_checksum,
            reference: None,
            query_s: Default::default(),
            compile_s: Vec::new(),
            last_stats: RunStats::default(),
        }
    }

    fn plan_options(prefer_sort: bool, tasks: u32) -> PlanOptions {
        PlanOptions {
            scan_tasks: tasks,
            shuffle_tasks: tasks,
            prefer_sort,
        }
    }

    /// Compiles and runs the query mix once; returns each query's rows
    /// with its wall seconds, compile included.
    fn run_queries(&mut self, tasks: u32, tr: &Tracer) -> Result<Vec<(Vec<Row>, f64)>, String> {
        let mut out = Vec::with_capacity(QUERIES.len());
        for (i, (name, sql, prefer_sort)) in QUERIES.into_iter().enumerate() {
            let opts = Self::plan_options(prefer_sort, tasks);
            let (job, compile_s) = tr.timed("sql.compile", || {
                compile(sql, self.engine.catalog(), i as u64 + 1, &opts)
            });
            let job = job.map_err(|e| format!("{name}: {e}"))?;
            let (outcome, run_s) = tr.timed("engine.run", || {
                self.engine.run_with(&job, RunOptions::default())
            });
            let outcome = outcome.map_err(|e| format!("{name}: {e}"))?;
            self.last_stats = outcome.stats;
            // Per-query medians come from untraced two-task runs only.
            if tasks == TASKS && !tr.is_on() {
                self.compile_s.push(compile_s);
                self.query_s[i].push(compile_s + run_s);
            }
            out.push((outcome.rows, compile_s + run_s));
        }
        Ok(out)
    }

    /// Runs a terasort job; returns its rows, counters and wall seconds.
    fn run_terasort(
        engine: &Engine,
        job: &EngineJob,
        tr: &Tracer,
    ) -> Result<(Vec<Row>, RunStats, f64), String> {
        let (outcome, secs) =
            tr.timed("engine.run", || engine.run_with(job, RunOptions::default()));
        let outcome = outcome.map_err(|e| format!("terasort: {e}"))?;
        Ok((outcome.rows, outcome.stats, secs))
    }

    fn iterate_tpch(&mut self, tr: &Tracer) -> Result<Iter, String> {
        let results = self.run_queries(TASKS, tr)?;
        let catalog = self.engine.catalog();
        let reference = self
            .reference
            .get_or_insert_with(|| [reference_q9(catalog), reference_q13(catalog)]);
        let mut digest = Fnv::new();
        let mut completed = 0;
        for (i, (rows, _)) in results.iter().enumerate() {
            digest_rows(rows, &mut digest);
            // Hash and sort plans both answer to the same reference, so
            // they also agree with each other.
            if rows_match(rows, &reference[i / 2]) {
                completed += 1;
            } else {
                eprintln!(
                    "bench: {} returned {} rows that differ from the reference ({} rows)",
                    QUERIES[i].0,
                    rows.len(),
                    reference[i / 2].len()
                );
            }
        }
        let attempted = QUERIES.len() as u64;
        Ok(Iter {
            secs: results.iter().map(|(_, s)| s).sum(),
            digest: digest.0,
            attempted,
            completed,
            failed: attempted - completed,
        })
    }

    fn iterate_spill(&mut self, tr: &Tracer) -> Result<Iter, String> {
        let (rows, stats, secs) = Self::run_terasort(&self.engine, &self.terasort, tr)?;
        self.last_stats = stats;
        // The per-job median comes from untraced runs only.
        if !tr.is_on() {
            self.query_s[0].push(secs);
        }
        let sorted = rows.windows(2).all(|w| w[0][0].total_cmp(&w[1][0]).is_le());
        let ok =
            sorted && rows.len() as u64 == self.input_rows && key_sum(&rows) == self.key_checksum;
        if !ok {
            eprintln!(
                "bench: terasort output wrong: sorted={sorted}, {} of {} rows",
                rows.len(),
                self.input_rows
            );
        }
        if self.last_stats.spilled_bytes == 0 {
            return Err("engine_spill spilled nothing: the cache cap no longer binds".into());
        }
        let mut digest = Fnv::new();
        digest_rows(&rows, &mut digest);
        Ok(Iter {
            secs,
            digest: digest.0,
            attempted: 1,
            completed: u64::from(ok),
            failed: u64::from(!ok),
        })
    }

    /// The same job(s) at one task per stage, median of three.
    fn single_thread_s(&mut self) -> Result<f64, String> {
        let off = Tracer::off();
        let mut secs = Vec::new();
        for _ in 0..3 {
            secs.push(if self.spill {
                Self::run_terasort(&self.engine, &terasort_engine_job(1, 1, 1), &off)?.2
            } else {
                self.run_queries(1, &off)?.iter().map(|(_, s)| s).sum()
            });
        }
        Ok(median(&secs))
    }
}

impl Workload for EngineWorkload {
    fn iterate(&mut self, tr: &Tracer) -> Result<Iter, String> {
        if self.spill {
            self.iterate_spill(tr)
        } else {
            self.iterate_tpch(tr)
        }
    }

    fn layers(
        &mut self,
        spans: &SpanStats,
        plain_iter_s: f64,
        out: &mut Values,
    ) -> Result<(), String> {
        setup_layers(spans, out);
        let stats = self.last_stats;
        if self.spill {
            out.set("engine.terasort_ms_p50", median(&self.query_s[0]) * 1e3);
        } else {
            out.set("sql.compile_us_p50", median(&self.compile_s) * 1e6);
            out.set("engine.q9_hash_ms_p50", median(&self.query_s[0]) * 1e3);
            out.set("engine.q9_sort_ms_p50", median(&self.query_s[1]) * 1e3);
            out.set("engine.q13_hash_ms_p50", median(&self.query_s[2]) * 1e3);
            out.set("engine.q13_sort_ms_p50", median(&self.query_s[3]) * 1e3);
        }
        let single_s = self.single_thread_s()?;
        out.set("engine.single_thread_ms_p50", single_s * 1e3);
        out.set("engine.parallel_speedup", ratio(single_s, plain_iter_s));
        // The last job's counters (Q13 under the sort plan, or the terasort).
        out.set("engine.tasks_run", stats.tasks_run as f64);
        out.set("engine.recovered_tasks", stats.recovered_tasks as f64);
        out.set("engine.shuffled_bytes", stats.shuffled_bytes as f64);
        out.set("engine.spilled_bytes", stats.spilled_bytes as f64);
        out.set(
            "shuffle.spill_ratio",
            ratio(stats.spilled_bytes as f64, stats.shuffled_bytes as f64),
        );

        let catalog = self.engine.catalog();
        let scanned_rows: usize = if self.spill {
            self.input_rows as usize
        } else {
            // Rows each iteration scans: every table a query names, per plan.
            QUERIES
                .iter()
                .map(|(_, sql, _)| {
                    catalog
                        .table_names()
                        .iter()
                        .filter(|t| sql.contains(*t))
                        .map(|t| catalog.get(t).map_or(0, |t| t.rows.len()))
                        .sum::<usize>()
                })
                .sum()
        };
        out.set(
            "engine.allocs_per_row",
            ratio(
                spans.allocs("engine.run") + spans.allocs("sql.compile"),
                scanned_rows as f64,
            ),
        );

        let (table, other) = if self.spill {
            ("teragen", None)
        } else {
            ("tpch_lineitem", Some("tpch_orders"))
        };
        operator_layers(catalog, table, other, out)?;
        let rows = &catalog.get(table).ok_or("primary table missing")?.rows;
        codec_layers(rows, out)?;
        store_layers(rows, self.cache_bytes, out).map_err(|e| format!("store replay: {e}"))
    }
}

/// Rows per second of `plan` run as one task over `inputs`.
fn op_rows_per_s(
    catalog: &Catalog,
    plan: &StagePlan,
    inputs: &TaskInputs,
    rows_in: usize,
) -> Result<f64, String> {
    run_task(catalog, plan, 0, 1, inputs).map_err(|e| format!("operator replay: {e}"))?;
    let secs = best_of_3(|| {
        std::hint::black_box(run_task(catalog, plan, 0, 1, inputs).expect("ran once already"));
    });
    Ok(ratio(rows_in as f64, secs))
}

/// swift-engine's operators alone: one-operator stage plans over the
/// workload's own tables. Joins need a second table; `engine_spill` has
/// none and reports scan and sort only.
fn operator_layers(
    catalog: &Catalog,
    table: &str,
    other: Option<&str>,
    out: &mut Values,
) -> Result<(), String> {
    let left = catalog
        .get(table)
        .ok_or("primary table missing")?
        .rows
        .clone();
    let n = left.len();
    let one = |op: ExecOp| StagePlan {
        ops: vec![op],
        outputs: vec![],
    };
    let key = vec![SortKey {
        col: 0,
        desc: false,
    }];
    let scan = one(ExecOp::Scan {
        table: table.into(),
    });
    out.set(
        "engine.op_scan_rows_per_s",
        op_rows_per_s(catalog, &scan, &Vec::new(), n)?,
    );
    let left_in: TaskInputs = vec![vec![left.clone()]];
    out.set(
        "engine.op_sort_rows_per_s",
        op_rows_per_s(catalog, &one(ExecOp::Sort(key.clone())), &left_in, n)?,
    );
    let Some(other) = other else {
        return Ok(());
    };
    // lineitem: l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, ...
    let filter = ExecOp::Filter(Expr::bin(BinOp::Gt, Expr::col(3), Expr::lit(25i64)));
    out.set(
        "engine.op_filter_rows_per_s",
        op_rows_per_s(catalog, &one(filter), &left_in, n)?,
    );
    let agg = ExecOp::HashAggregate {
        group: vec![2],
        aggs: vec![AggExpr {
            func: AggFunc::Sum,
            expr: Expr::col(4),
        }],
    };
    out.set(
        "engine.op_hash_agg_rows_per_s",
        op_rows_per_s(catalog, &one(agg), &left_in, n)?,
    );
    let right = catalog.get(other).ok_or("join table missing")?.rows.clone();
    let joined = n + right.len();
    let hash_join = ExecOp::HashJoin {
        right_edge: 1,
        left_keys: vec![0],
        right_keys: vec![0],
        join_type: JoinType::Inner,
    };
    let join_in: TaskInputs = vec![vec![left.clone()], vec![right.clone()]];
    out.set(
        "engine.op_hash_join_rows_per_s",
        op_rows_per_s(catalog, &one(hash_join), &join_in, joined)?,
    );
    let merge_join = ExecOp::MergeJoin {
        right_edge: 1,
        left_keys: vec![0],
        right_keys: vec![0],
        join_type: JoinType::Inner,
    };
    let sorted_in: TaskInputs = vec![vec![sort_rows(left, &key)], vec![sort_rows(right, &key)]];
    out.set(
        "engine.op_merge_join_rows_per_s",
        op_rows_per_s(catalog, &one(merge_join), &sorted_in, joined)?,
    );
    Ok(())
}

fn codec_layers(rows: &[Row], out: &mut Values) -> Result<(), String> {
    let encoded = encode_rows(rows);
    let mb = encoded.len() as f64 / 1e6;
    let decoded = decode_rows(encoded.clone()).map_err(|e| format!("codec replay: {e}"))?;
    if decoded != rows {
        return Err("codec round trip changed the rows".into());
    }
    let encode_s = best_of_3(|| {
        std::hint::black_box(encode_rows(rows));
    });
    let decode_s = best_of_3(|| {
        std::hint::black_box(decode_rows(encoded.clone()).expect("decoded once already"));
    });
    out.set("engine.codec_encode_mb_per_s", ratio(mb, encode_s));
    out.set("engine.codec_decode_mb_per_s", ratio(mb, decode_s));
    Ok(())
}

/// swift-shuffle's store alone, at the workload's cache capacity and
/// with its segment shape: the primary table cut into one segment per
/// (producer, partition) pair, put, then collected per partition.
fn store_layers(rows: &[Row], capacity: u64, out: &mut Values) -> std::io::Result<()> {
    let cells = (TASKS * TASKS) as usize;
    let segments: Vec<_> = (0..cells)
        .map(|c| {
            let part: Vec<Row> = rows.iter().skip(c).step_by(cells).cloned().collect();
            encode_rows(&part)
        })
        .collect();
    let mb = segments.iter().map(|s| s.len() as f64).sum::<f64>() / 1e6;
    let (mut put_s, mut collect_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let store = CacheWorkerStore::new(capacity)?;
        let start = Instant::now();
        for (c, data) in segments.iter().enumerate() {
            let key = SegmentKey {
                job: 1,
                edge: 0,
                producer: c as u32 / TASKS,
                partition: c as u32 % TASKS,
            };
            store.put(key, data.clone())?;
        }
        put_s = put_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for partition in 0..TASKS {
            std::hint::black_box(store.collect_keep(1, 0, partition, TASKS)?);
        }
        collect_s = collect_s.min(start.elapsed().as_secs_f64());
        store.delete_job(1)?;
    }
    out.set("shuffle.store_put_mb_per_s", ratio(mb, put_s));
    out.set("shuffle.store_collect_mb_per_s", ratio(mb, collect_s));
    Ok(())
}

/// Wrapping sum of the first column as integers.
fn key_sum(rows: &[Row]) -> u64 {
    rows.iter()
        .map(|r| r[0].as_i64().unwrap_or(0) as u64)
        .fold(0, u64::wrapping_add)
}

fn digest_rows(rows: &[Row], h: &mut Fnv) {
    h.word(rows.len() as u64);
    for v in rows.iter().flatten() {
        match v {
            Value::Null => h.word(0),
            Value::Bool(b) => h.word(u64::from(*b) + 1),
            Value::Int(i) => h.word(*i as u64),
            Value::Float(x) => h.word(x.to_bits()),
            Value::Str(s) => h.bytes(s.as_bytes()),
        }
    }
}

/// Row-for-row equality, numbers compared to nine significant digits:
/// plans sum floats in different orders.
fn rows_match(a: &[Row], b: &[Row]) -> bool {
    let same = |x: &Value, y: &Value| match (x.as_f64(), y.as_f64()) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| same(x, y)))
}

fn table<'a>(catalog: &'a Catalog, name: &str) -> &'a [Row] {
    &catalog
        .get(name)
        .unwrap_or_else(|| panic!("generate_catalog registers {name}"))
        .rows
}

fn int(v: &Value) -> i64 {
    v.as_i64().expect("integer column")
}

fn float(v: &Value) -> f64 {
    v.as_f64().expect("numeric column")
}

fn text(v: &Value) -> &str {
    v.as_str().expect("string column")
}

/// TPC-H Q9 straight off the catalog with nested lookups: per lineitem,
/// every matching supplier, partsupp, green part, order and nation.
fn reference_q9(catalog: &Catalog) -> Vec<Row> {
    let by_key = |name: &str, key: usize| {
        let mut m: BTreeMap<i64, Vec<&Row>> = BTreeMap::new();
        for r in table(catalog, name) {
            m.entry(int(&r[key])).or_default().push(r);
        }
        m
    };
    let supplier = by_key("tpch_supplier", 0);
    let part = by_key("tpch_part", 0);
    let orders = by_key("tpch_orders", 0);
    let nation = by_key("tpch_nation", 0);
    let mut partsupp: BTreeMap<(i64, i64), Vec<f64>> = BTreeMap::new();
    for r in table(catalog, "tpch_partsupp") {
        partsupp
            .entry((int(&r[0]), int(&r[1])))
            .or_default()
            .push(float(&r[2]));
    }
    let none = Vec::new();
    let mut profit: BTreeMap<(String, String), f64> = BTreeMap::new();
    for l in table(catalog, "tpch_lineitem") {
        let (orderkey, partkey, suppkey) = (int(&l[0]), int(&l[1]), int(&l[2]));
        let (quantity, price, discount) = (float(&l[3]), float(&l[4]), float(&l[5]));
        for s in supplier.get(&suppkey).unwrap_or(&none) {
            for cost in partsupp.get(&(partkey, suppkey)).into_iter().flatten() {
                for p in part.get(&partkey).unwrap_or(&none) {
                    if !text(&p[1]).contains("green") {
                        continue;
                    }
                    for o in orders.get(&orderkey).unwrap_or(&none) {
                        for n in nation.get(&int(&s[2])).unwrap_or(&none) {
                            let year = &text(&o[2])[..4];
                            let amount = price * (1.0 - discount) - cost * quantity;
                            *profit
                                .entry((text(&n[1]).to_string(), year.to_string()))
                                .or_default() += amount;
                        }
                    }
                }
            }
        }
    }
    let mut rows: Vec<Row> = profit
        .into_iter()
        .map(|((nation, year), sum)| vec![Value::Str(nation), Value::Str(year), Value::Float(sum)])
        .collect();
    // order by nation, o_year desc
    rows.sort_by(|a, b| {
        text(&a[0])
            .cmp(text(&b[0]))
            .then_with(|| text(&b[1]).cmp(text(&a[1])))
    });
    rows
}

/// TPC-H Q13 straight off the catalog: orders per customer that are not
/// special requests, then customers per order count.
fn reference_q13(catalog: &Catalog) -> Vec<Row> {
    let mut per_customer: BTreeMap<i64, i64> = table(catalog, "tpch_customer")
        .iter()
        .map(|c| (int(&c[0]), 0))
        .collect();
    for o in table(catalog, "tpch_orders") {
        if !text(&o[4]).contains("special") {
            if let Some(count) = per_customer.get_mut(&int(&o[1])) {
                *count += 1;
            }
        }
    }
    let mut dist: BTreeMap<i64, i64> = BTreeMap::new();
    for count in per_customer.values() {
        *dist.entry(*count).or_default() += 1;
    }
    let mut rows: Vec<(i64, i64)> = dist.into_iter().collect();
    // order by custdist desc, c_count desc
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
    rows.into_iter()
        .map(|(c_count, custdist)| vec![Value::Int(c_count), Value::Int(custdist)])
        .collect()
}
