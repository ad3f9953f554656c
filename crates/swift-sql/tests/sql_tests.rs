//! End-to-end SQL tests: parse → plan → execute on real data, in both
//! planner modes, cross-checked against hand-computed answers.

use swift_engine::{Catalog, Engine, EngineJob, ExecOp, Expr, Row, Schema, Table, Value};
use swift_sql::{compile, parse, run_sql, PlanOptions};

fn iv(i: i64) -> Value {
    Value::Int(i)
}

fn sv(s: &str) -> Value {
    Value::Str(s.into())
}

/// sales(region, product, amount, year) and regions(name, manager).
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let mut rows: Vec<Row> = Vec::new();
    let regions = ["east", "west", "north"];
    let products = ["apple pie", "green tea", "green apple", "coffee"];
    for i in 0..120i64 {
        rows.push(vec![
            sv(regions[(i % 3) as usize]),
            sv(products[(i % 4) as usize]),
            iv(i % 25),
            sv(if i % 2 == 0 { "2019" } else { "2020" }),
        ]);
    }
    c.register(Table::new(
        "sales",
        Schema::new(vec!["region", "product", "amount", "year"]),
        rows,
    ));
    let mgrs: Vec<Row> = regions
        .iter()
        .map(|r| vec![sv(r), sv(&format!("mgr-{r}"))])
        .collect();
    c.register(Table::new(
        "regions",
        Schema::new(vec!["name", "manager"]),
        mgrs,
    ));
    c
}

fn run(sql: &str, opts: &PlanOptions) -> (Vec<String>, Vec<Row>) {
    let engine = Engine::new(catalog());
    run_sql(&engine, sql, opts).unwrap()
}

fn both_modes(sql: &str) -> Vec<(String, Vec<Row>)> {
    let hash = run(sql, &PlanOptions::default());
    let sort = run(
        sql,
        &PlanOptions {
            prefer_sort: true,
            ..PlanOptions::default()
        },
    );
    vec![("hash".into(), hash.1), ("sort".into(), sort.1)]
}

#[test]
fn select_filter_project() {
    let (cols, mut rows) = run(
        "select amount * 2 as double_amount from sales where amount >= 23 order by double_amount",
        &PlanOptions::default(),
    );
    assert_eq!(cols, vec!["double_amount"]);
    // amounts cycle 0..24; >= 23 happens for amount in {23, 24}, each
    // appearing 120/25 = 4.8 -> amounts 23 and 24 appear ⌊…⌋ times; count
    // directly instead:
    let expect: Vec<i64> = (0..120)
        .map(|i| i % 25)
        .filter(|&a| a >= 23)
        .map(|a| a * 2)
        .collect();
    let mut expect = expect;
    expect.sort_unstable();
    let got: Vec<i64> = rows.drain(..).map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(got, expect);
}

#[test]
fn group_by_sum_matches_manual_in_both_modes() {
    let sql = "select region, sum(amount) as total, count(*) as n \
               from sales group by region order by region";
    // manual
    let mut manual: Vec<(String, i64, i64)> = ["east", "north", "west"]
        .iter()
        .map(|r| (r.to_string(), 0i64, 0i64))
        .collect();
    for i in 0..120i64 {
        let region = ["east", "west", "north"][(i % 3) as usize];
        let slot = manual.iter_mut().find(|(r, _, _)| r == region).unwrap();
        slot.1 += i % 25;
        slot.2 += 1;
    }
    for (mode, rows) in both_modes(sql) {
        assert_eq!(rows.len(), 3, "{mode}");
        for (row, (r, total, n)) in rows.iter().zip(&manual) {
            assert_eq!(row[0], sv(r), "{mode}");
            assert_eq!(row[1], iv(*total), "{mode}");
            assert_eq!(row[2], iv(*n), "{mode}");
        }
    }
}

#[test]
fn join_with_where_and_like() {
    let sql = "select r.manager, sum(s.amount) as total \
               from sales s \
               join regions r on s.region = r.name \
               where s.product like '%green%' \
               group by r.manager \
               order by r.manager";
    for (mode, rows) in both_modes(sql) {
        assert_eq!(rows.len(), 3, "{mode}");
        // manual: products index 1 and 2 are green ones (i%4 in {1,2})
        let mut manual = std::collections::BTreeMap::new();
        for i in 0..120i64 {
            if i % 4 == 1 || i % 4 == 2 {
                let region = ["east", "west", "north"][(i % 3) as usize];
                *manual.entry(format!("mgr-{region}")).or_insert(0) += i % 25;
            }
        }
        for (row, (mgr, total)) in rows.iter().zip(&manual) {
            assert_eq!(row[0], sv(mgr), "{mode}");
            assert_eq!(row[1], iv(*total), "{mode}");
        }
    }
}

#[test]
fn subquery_with_substr_like_q9() {
    // Shape of TPC-H Q9: aggregate over a subquery with computed columns.
    let sql = "select yr, sum(amount) as total from ( \
                 select substr(year, 1, 4) as yr, amount from sales s \
                 join regions r on s.region = r.name \
               ) t group by yr order by yr desc";
    for (mode, rows) in both_modes(sql) {
        assert_eq!(rows.len(), 2, "{mode}");
        assert_eq!(rows[0][0], sv("2020"), "{mode}: desc order");
        assert_eq!(rows[1][0], sv("2019"), "{mode}");
        let t2020: i64 = (0..120i64).filter(|i| i % 2 == 1).map(|i| i % 25).sum();
        let t2019: i64 = (0..120i64).filter(|i| i % 2 == 0).map(|i| i % 25).sum();
        assert_eq!(rows[0][1], iv(t2020), "{mode}");
        assert_eq!(rows[1][1], iv(t2019), "{mode}");
    }
}

#[test]
fn limit_caps_output() {
    let (_, rows) = run(
        "select amount from sales order by amount desc limit 7",
        &PlanOptions::default(),
    );
    assert_eq!(rows.len(), 7);
    // amounts 0..24 over 120 rows: 20..24 appear 4 times, 0..19 five times
    // -> sorted desc the top 7 are four 24s then three 23s.
    let got: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![24, 24, 24, 24, 23, 23, 23]);
}

#[test]
fn sort_mode_produces_multiple_graphlets() {
    // Two chained joins: in sort mode each intermediate join stage sorts
    // its output for the next merge join (Fig. 4 pattern), cutting the
    // plan at those edges; scans stay pipelined with their consuming join.
    let sql = "select s1.region, sum(s2.amount) as t from sales s1 \
               join regions r on s1.region = r.name \
               join sales s2 on s1.region = s2.region \
               group by s1.region order by s1.region";
    let cat = catalog();
    let hash_job = compile(sql, &cat, 1, &PlanOptions::default()).unwrap();
    let sort_job = compile(
        sql,
        &cat,
        1,
        &PlanOptions {
            prefer_sort: true,
            ..PlanOptions::default()
        },
    )
    .unwrap();
    let hash_parts = swift_dag::partition(&hash_job.dag);
    let sort_parts = swift_dag::partition(&sort_job.dag);
    assert!(
        sort_parts.len() > hash_parts.len(),
        "sort {} vs hash {}",
        sort_parts.len(),
        hash_parts.len()
    );
    // And both modes compute the same answer.
    let engine = Engine::new(catalog());
    let a = engine.run(&hash_job).unwrap();
    let b = engine.run(&sort_job).unwrap();
    assert_eq!(a, b);
}

#[test]
fn global_aggregate_without_group_by() {
    let (cols, rows) = run(
        "select sum(amount) as s, count(*) as n from sales",
        &PlanOptions::default(),
    );
    assert_eq!(cols, vec!["s", "n"]);
    assert_eq!(rows.len(), 1);
    let total: i64 = (0..120i64).map(|i| i % 25).sum();
    assert_eq!(rows[0], vec![iv(total), iv(120)]);
}

#[test]
fn planner_errors_are_reported() {
    let cat = catalog();
    let o = PlanOptions::default();
    assert!(compile("select nope from sales", &cat, 1, &o).is_err());
    assert!(compile("select amount from missing_table", &cat, 1, &o).is_err());
    assert!(
        compile("select region, sum(amount) from sales", &cat, 1, &o).is_err(),
        "ungrouped column"
    );
    assert!(
        compile("select sum(amount) + 1 from sales", &cat, 1, &o).is_err(),
        "nested aggregate expr"
    );
    assert!(compile("select frobnicate(amount) from sales", &cat, 1, &o).is_err());
}

#[test]
fn parse_errors_have_positions() {
    let err = parse("select a from t where ???").unwrap_err();
    assert!(err.offset >= 22);
}

#[test]
fn left_join_keeps_unmatched_rows_in_both_modes() {
    // regions join sales: every region matches; add a region with no sales
    // via a filter in the ON clause so LEFT JOIN semantics show.
    let sql = "select r.name, count(s.amount) as n \
               from regions r \
               left join sales s on r.name = s.region and s.amount > 23 \
               group by r.name order by r.name";
    for (mode, rows) in both_modes(sql) {
        assert_eq!(rows.len(), 3, "{mode}: all regions survive");
        // amount > 23 means amount == 24; those rows are i%25==24, i.e.
        // i in {24,49,74,99} -> regions east(i%3==0), west(1), north(2):
        // 24->east, 49->west, 74->north, 99->east.
        let expect = [("east", 2i64), ("north", 1), ("west", 1)];
        for (row, (name, n)) in rows.iter().zip(expect) {
            assert_eq!(row[0], sv(name), "{mode}");
            assert_eq!(row[1], iv(n), "{mode}");
        }
    }
}

#[test]
fn left_join_counts_zero_for_fully_unmatched() {
    // An ON filter nothing satisfies: every region gets count 0 (count of
    // a NULL column ignores NULLs).
    let sql = "select r.name, count(s.amount) as n \
               from regions r \
               left join sales s on r.name = s.region and s.amount > 9999 \
               group by r.name order by r.name";
    let (_, rows) = run(sql, &PlanOptions::default());
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| r[1] == iv(0)), "{rows:?}");
}

#[test]
fn left_side_on_predicate_is_rejected_under_left_join() {
    let cat = catalog();
    let err = compile(
        "select r.name from regions r left join sales s on r.name = s.region and r.name like 'e%'",
        &cat,
        1,
        &PlanOptions::default(),
    );
    assert!(err.is_err());
}

/// The scan stages of `job`: (table, the columns its pruning `Project`
/// keeps, or `None` when it keeps them all).
fn scans(job: &EngineJob) -> Vec<(String, Option<Vec<usize>>)> {
    job.plans
        .iter()
        .filter_map(|p| match p.ops.as_slice() {
            [ExecOp::Scan { table }, rest @ ..] => {
                let kept = match rest.first() {
                    Some(ExecOp::Project(exprs)) if p.ops.len() > 1 => Some(
                        exprs
                            .iter()
                            .map(|e| match e {
                                Expr::Col(c) => *c,
                                other => panic!("pruning projects columns, not {other:?}"),
                            })
                            .collect(),
                    ),
                    _ => None,
                };
                Some((table.clone(), kept))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn q9_scans_carry_only_referenced_columns() {
    let cat = swift_workload::generate_catalog(1, 1);
    for prefer_sort in [false, true] {
        let opts = PlanOptions {
            prefer_sort,
            ..PlanOptions::default()
        };
        let job = compile(swift_workload::Q9_SQL, &cat, 1, &opts).unwrap();
        let scans = scans(&job);
        let lineitem = scans.iter().find(|(t, _)| t == "tpch_lineitem").unwrap();
        // l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice,
        // l_discount — not l_shipdate.
        assert_eq!(lineitem.1, Some(vec![0, 1, 2, 3, 4, 5]));
        let width = |t: &str| cat.get(t).unwrap().schema.len();
        let joined: usize = scans
            .iter()
            .map(|(t, kept)| kept.as_ref().map_or(width(t), Vec::len))
            .sum();
        assert_eq!(joined, 17, "Q9's widest joined row");
    }
}

#[test]
fn columns_named_only_in_on_group_by_or_a_subquery_survive() {
    let cat = catalog();
    let o = PlanOptions::default();
    // `region` and `name` appear only in ON.
    let sql = "select s.amount from sales s join regions r on s.region = r.name";
    let job = compile(sql, &cat, 1, &o).unwrap();
    assert_eq!(
        scans(&job),
        vec![
            ("sales".into(), Some(vec![0, 2])),
            ("regions".into(), Some(vec![0]))
        ]
    );
    assert_eq!(run(sql, &o).1.len(), 120);
    // `year` appears only in GROUP BY.
    let (_, rows) = run(
        "select count(*) as n from sales group by year order by n",
        &o,
    );
    assert_eq!(rows, vec![vec![iv(60)], vec![iv(60)]]);
    // `year` and `product` appear only inside the subquery.
    let (_, rows) = run(
        "select yr from (select year as yr from sales where product like 'green%') t \
         order by yr",
        &o,
    );
    assert_eq!(rows.len(), 60);
    assert_eq!(rows[0], vec![sv("2019")]);
}

#[test]
fn a_query_naming_every_column_is_not_pruned() {
    let sql = "select s.region, s.product, s.amount, s.year, r.manager \
               from sales s join regions r on s.region = r.name";
    let job = compile(sql, &catalog(), 1, &PlanOptions::default()).unwrap();
    assert_eq!(
        scans(&job),
        vec![("sales".into(), None), ("regions".into(), None)]
    );
}

#[test]
fn unknown_columns_still_fail_after_pruning() {
    let cat = catalog();
    let o = PlanOptions::default();
    for sql in [
        "select nope from sales",
        "select amount from sales where nope > 1",
        "select count(*) as n from sales group by nope",
    ] {
        let err = compile(sql, &cat, 1, &o).unwrap_err().to_string();
        assert!(err.contains("unknown column"), "{sql}: {err}");
    }
}

#[test]
fn aliases_resolve_in_group_by() {
    let (_, rows) = run(
        "select substr(product, 1, 5) as p5, count(*) as n from sales group by p5 order by p5",
        &PlanOptions::default(),
    );
    // products: "apple pie", "coffee", "green tea", "green apple" ->
    // prefixes "apple", "coffe", "green"(x2)
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0][0], sv("apple"));
    assert_eq!(rows[1][0], sv("coffe"));
    assert_eq!(rows[2][0], sv("green"));
    assert_eq!(rows[2][1], iv(60));
}
