//! End-to-end engine tests: multi-stage jobs on real data through the real
//! Cache Worker shuffle, including forced spill and failure recovery.

use swift_dag::{DagBuilder, Operator, TaskId};
use swift_engine::*;

fn iv(i: i64) -> Value {
    Value::Int(i)
}

/// orders(order_id, customer, amount): 100 rows, 10 customers.
fn orders_catalog() -> Catalog {
    let mut c = Catalog::new();
    let rows: Vec<Row> = (0..100)
        .map(|i| vec![iv(i), iv(i % 10), iv((i * 7) % 50)])
        .collect();
    c.register(Table::new(
        "orders",
        Schema::new(vec!["order_id", "customer", "amount"]),
        rows,
    ));
    let cust: Vec<Row> = (0..10)
        .map(|i| vec![iv(i), Value::Str(format!("cust-{i}"))])
        .collect();
    c.register(Table::new(
        "customers",
        Schema::new(vec!["id", "name"]),
        cust,
    ));
    c
}

/// scan(orders) -> hash-partition by customer -> sum(amount) group by
/// customer -> sort by customer -> sink (single task).
fn sum_by_customer_job(job_id: u64) -> EngineJob {
    let mut b = DagBuilder::new(job_id, "sum-by-customer");
    let scan = b
        .stage("scan", 4)
        .op(Operator::TableScan {
            table: "orders".into(),
        })
        .op(Operator::ShuffleWrite)
        .build();
    let agg = b
        .stage("agg", 3)
        .op(Operator::ShuffleRead)
        .op(Operator::HashAggregate)
        .op(Operator::ShuffleWrite)
        .build();
    let sort = b
        .stage("sort", 1)
        .op(Operator::ShuffleRead)
        .op(Operator::MergeSort)
        .op(Operator::AdhocSink)
        .build();
    b.edge(scan, agg).edge(agg, sort);
    EngineJob {
        dag: b.build().unwrap(),
        plans: vec![
            StagePlan {
                ops: vec![
                    ExecOp::Scan {
                        table: "orders".into(),
                    },
                    ExecOp::Project(vec![Expr::col(1), Expr::col(2)]),
                ],
                outputs: vec![OutputPartitioning::Hash(vec![0])],
            },
            StagePlan {
                ops: vec![ExecOp::HashAggregate {
                    group: vec![0],
                    aggs: vec![AggExpr {
                        func: AggFunc::Sum,
                        expr: Expr::col(1),
                    }],
                }],
                outputs: vec![OutputPartitioning::Single],
            },
            StagePlan {
                ops: vec![ExecOp::Sort(vec![SortKey {
                    col: 0,
                    desc: false,
                }])],
                outputs: vec![],
            },
        ],
        output_columns: vec!["customer".into(), "total".into()],
    }
}

fn expected_sums() -> Vec<Row> {
    // customer k gets orders i with i%10==k; amount = (i*7)%50.
    (0..10)
        .map(|k| {
            let total: i64 = (0..100).filter(|i| i % 10 == k).map(|i| (i * 7) % 50).sum();
            vec![iv(k), iv(total)]
        })
        .collect()
}

#[test]
fn multi_stage_aggregation_is_correct() {
    let engine = Engine::new(orders_catalog());
    let out = engine.run(&sum_by_customer_job(1)).unwrap();
    assert_eq!(out, expected_sums());
}

#[test]
fn tiny_cache_forces_real_spill_with_same_result() {
    // 64-byte cap: every segment spills to a real temp file.
    let engine = Engine::new(orders_catalog()).with_cache_capacity(64);
    let outcome = engine
        .run_with(&sum_by_customer_job(2), RunOptions::default())
        .unwrap();
    assert_eq!(outcome.rows, expected_sums());
    assert!(outcome.stats.spilled_bytes > 0, "spill must have happened");
}

#[test]
fn injected_failure_recovers_with_identical_result() {
    let engine = Engine::new(orders_catalog());
    let job = sum_by_customer_job(3);
    let agg_stage = job.dag.stage_by_name("agg").unwrap().id;
    let outcome = engine
        .run_with(
            &job,
            RunOptions {
                fail_once: vec![TaskId::new(agg_stage, 1)],
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(outcome.rows, expected_sums());
    assert_eq!(
        outcome.stats.recovered_tasks, 1,
        "exactly the failed task re-ran"
    );
    assert_eq!(outcome.stats.tasks_run, 4 + 3 + 1 + 1);
}

#[test]
fn repeated_failure_exhausts_attempts() {
    let engine = Engine::new(orders_catalog());
    let job = sum_by_customer_job(4);
    let scan = job.dag.stage_by_name("scan").unwrap().id;
    // max_attempts 1: the injected failure is fatal.
    let err = engine
        .run_with(
            &job,
            RunOptions {
                fail_once: vec![TaskId::new(scan, 0)],
                max_attempts: 1,
            },
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::TaskFailed { .. }), "{err}");
}

#[test]
fn join_across_stages() {
    // orders join customers on customer id, both hash-partitioned.
    let mut b = DagBuilder::new(5, "join");
    let o = b
        .stage("orders", 3)
        .op(Operator::TableScan {
            table: "orders".into(),
        })
        .op(Operator::ShuffleWrite)
        .build();
    let c = b
        .stage("customers", 2)
        .op(Operator::TableScan {
            table: "customers".into(),
        })
        .op(Operator::ShuffleWrite)
        .build();
    let j = b
        .stage("join", 2)
        .op(Operator::ShuffleRead)
        .op(Operator::HashJoin)
        .op(Operator::AdhocSink)
        .build();
    b.edge(o, j).edge(c, j);
    let job = EngineJob {
        dag: b.build().unwrap(),
        plans: vec![
            StagePlan {
                ops: vec![ExecOp::Scan {
                    table: "orders".into(),
                }],
                outputs: vec![OutputPartitioning::Hash(vec![1])],
            },
            StagePlan {
                ops: vec![ExecOp::Scan {
                    table: "customers".into(),
                }],
                outputs: vec![OutputPartitioning::Hash(vec![0])],
            },
            StagePlan {
                ops: vec![ExecOp::HashJoin {
                    right_edge: 1,
                    left_keys: vec![1],
                    right_keys: vec![0],
                    join_type: JoinType::Inner,
                }],
                outputs: vec![],
            },
        ],
        output_columns: vec![
            "order_id".into(),
            "customer".into(),
            "amount".into(),
            "id".into(),
            "name".into(),
        ],
    };
    let mut out = Engine::new(orders_catalog()).run(&job).unwrap();
    assert_eq!(out.len(), 100, "every order joins exactly one customer");
    out.sort_by(|a, b| a[0].total_cmp(&b[0]));
    for (i, row) in out.iter().enumerate() {
        assert_eq!(row[0], iv(i as i64));
        assert_eq!(row[1], row[3], "join key matches");
        assert_eq!(row[4], Value::Str(format!("cust-{}", i % 10)));
    }
}

#[test]
fn broadcast_join_matches_hash_partitioned_join() {
    // Small side broadcast to every consumer, big side round-robin: the
    // join result must match the co-partitioned plan.
    let mut b = DagBuilder::new(6, "bcast");
    let o = b
        .stage("orders", 3)
        .op(Operator::TableScan {
            table: "orders".into(),
        })
        .op(Operator::ShuffleWrite)
        .build();
    let c = b
        .stage("customers", 2)
        .op(Operator::TableScan {
            table: "customers".into(),
        })
        .op(Operator::ShuffleWrite)
        .build();
    let j = b
        .stage("join", 4)
        .op(Operator::ShuffleRead)
        .op(Operator::HashJoin)
        .op(Operator::AdhocSink)
        .build();
    b.edge(o, j).edge(c, j);
    let job = EngineJob {
        dag: b.build().unwrap(),
        plans: vec![
            StagePlan {
                ops: vec![ExecOp::Scan {
                    table: "orders".into(),
                }],
                outputs: vec![OutputPartitioning::RoundRobin],
            },
            StagePlan {
                ops: vec![ExecOp::Scan {
                    table: "customers".into(),
                }],
                outputs: vec![OutputPartitioning::Broadcast],
            },
            StagePlan {
                ops: vec![ExecOp::HashJoin {
                    right_edge: 1,
                    left_keys: vec![1],
                    right_keys: vec![0],
                    join_type: JoinType::Inner,
                }],
                outputs: vec![],
            },
        ],
        output_columns: vec![],
    };
    let out = Engine::new(orders_catalog()).run(&job).unwrap();
    assert_eq!(out.len(), 100);
}

#[test]
fn global_sort_via_single_partition_is_totally_ordered() {
    let out = Engine::new(orders_catalog())
        .run(&sum_by_customer_job(7))
        .unwrap();
    for w in out.windows(2) {
        assert!(w[0][0].total_cmp(&w[1][0]).is_lt());
    }
}

#[test]
fn deterministic_across_runs() {
    let engine = Engine::new(orders_catalog());
    let a = engine.run(&sum_by_customer_job(8)).unwrap();
    let b = engine.run(&sum_by_customer_job(8)).unwrap();
    assert_eq!(a, b);
}
