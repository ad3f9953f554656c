//! Result pins for the real engine.
//!
//! Every query result below is folded, value bit for value bit, into one
//! digest. The pins hold the engine's exact output: the same rows in the
//! same order, each float summed in the same order. A change to the data
//! plane must keep them; a change to query semantics re-captures them (the
//! failure message prints every new value) and says why.

use swift::dag::TaskId;
use swift::engine::{Engine, Row, RunOptions, Value};
use swift::sim::Fnv64;
use swift::sql::{run_sql, PlanOptions};
use swift::workload::{generate_catalog, teragen, terasort_engine_job, Q13_SQL, Q9_SQL};

fn digest(rows: &[Row]) -> u64 {
    let mut h = Fnv64::new();
    h.eat(rows.len() as u64);
    for row in rows {
        h.eat(row.len() as u64);
        for v in row {
            match v {
                Value::Null => h.eat(0),
                Value::Bool(b) => h.eat(1 + u64::from(*b)),
                Value::Int(i) => {
                    h.eat(3);
                    h.eat(*i as u64);
                }
                Value::Float(x) => {
                    h.eat(4);
                    h.eat(x.to_bits());
                }
                Value::Str(s) => {
                    h.eat(5);
                    h.eat_str(s);
                }
            }
        }
    }
    h.finish()
}

/// Compares `got` against `want` entry by entry and fails listing every
/// entry, so one run re-captures the whole table.
fn check(what: &str, got: &[(String, u64)], want: &[u64]) {
    let listing: String = got
        .iter()
        .map(|(name, d)| format!("    {d:#018x}, // {name}\n"))
        .collect();
    let same = got.len() == want.len() && got.iter().zip(want).all(|((_, g), w)| g == w);
    assert!(same, "{what} pins moved; now:\n{listing}");
}

/// A join with no ORDER BY: rows come out in join emission order.
const JOIN_SQL: &str = "select s_name, n_name from tpch_supplier s \
                        join tpch_nation n on s.s_nationkey = n.n_nationkey";

/// A grouping with no ORDER BY: groups come out in the aggregate's order.
const GROUP_SQL: &str = "select o_orderpriority, count(*) as n, sum(o_custkey) as s \
                         from tpch_orders group by o_orderpriority";

/// Q9, Q13 and two unordered queries under the hash and sort plans at
/// every combination of scan and shuffle parallelism in {1, 2, 3}.
#[test]
fn tpch_results_are_pinned() {
    let engine = Engine::new(generate_catalog(1, 5));
    let mut got = Vec::new();
    for (name, sql) in [
        ("q9", Q9_SQL),
        ("q13", Q13_SQL),
        ("join", JOIN_SQL),
        ("group", GROUP_SQL),
    ] {
        for prefer_sort in [false, true] {
            for scan_tasks in 1..=3 {
                for shuffle_tasks in 1..=3 {
                    let opts = PlanOptions {
                        scan_tasks,
                        shuffle_tasks,
                        prefer_sort,
                    };
                    let (_, rows) = run_sql(&engine, sql, &opts).expect("query runs");
                    assert!(!rows.is_empty(), "{name} {opts:?}");
                    let plan = if prefer_sort { "sort" } else { "hash" };
                    got.push((
                        format!("{name} {plan} scan={scan_tasks} shuffle={shuffle_tasks}"),
                        digest(&rows),
                    ));
                }
            }
        }
    }
    check("TPC-H", &got, &TPCH_PINS);
}

#[rustfmt::skip]
const TPCH_PINS: [u64; 72] = [
    0x2d886779c4b882e7, // q9 hash scan=1 shuffle=1
    0x3a27a9717f8a37b2, // q9 hash scan=1 shuffle=2
    0x391222544f526328, // q9 hash scan=1 shuffle=3
    0x2d886779c4b882e7, // q9 hash scan=2 shuffle=1
    0x3a27a9717f8a37b2, // q9 hash scan=2 shuffle=2
    0x391222544f526328, // q9 hash scan=2 shuffle=3
    0x2d886779c4b882e7, // q9 hash scan=3 shuffle=1
    0x391222544f526328, // q9 hash scan=3 shuffle=2
    0x391222544f526328, // q9 hash scan=3 shuffle=3
    0x391222544f526328, // q9 sort scan=1 shuffle=1
    0x391222544f526328, // q9 sort scan=1 shuffle=2
    0x391222544f526328, // q9 sort scan=1 shuffle=3
    0x391222544f526328, // q9 sort scan=2 shuffle=1
    0x391222544f526328, // q9 sort scan=2 shuffle=2
    0x391222544f526328, // q9 sort scan=2 shuffle=3
    0x391222544f526328, // q9 sort scan=3 shuffle=1
    0x391222544f526328, // q9 sort scan=3 shuffle=2
    0x391222544f526328, // q9 sort scan=3 shuffle=3
    0xf895b289d9e9395f, // q13 hash scan=1 shuffle=1
    0xf895b289d9e9395f, // q13 hash scan=1 shuffle=2
    0xf895b289d9e9395f, // q13 hash scan=1 shuffle=3
    0xf895b289d9e9395f, // q13 hash scan=2 shuffle=1
    0xf895b289d9e9395f, // q13 hash scan=2 shuffle=2
    0xf895b289d9e9395f, // q13 hash scan=2 shuffle=3
    0xf895b289d9e9395f, // q13 hash scan=3 shuffle=1
    0xf895b289d9e9395f, // q13 hash scan=3 shuffle=2
    0xf895b289d9e9395f, // q13 hash scan=3 shuffle=3
    0xf895b289d9e9395f, // q13 sort scan=1 shuffle=1
    0xf895b289d9e9395f, // q13 sort scan=1 shuffle=2
    0xf895b289d9e9395f, // q13 sort scan=1 shuffle=3
    0xf895b289d9e9395f, // q13 sort scan=2 shuffle=1
    0xf895b289d9e9395f, // q13 sort scan=2 shuffle=2
    0xf895b289d9e9395f, // q13 sort scan=2 shuffle=3
    0xf895b289d9e9395f, // q13 sort scan=3 shuffle=1
    0xf895b289d9e9395f, // q13 sort scan=3 shuffle=2
    0xf895b289d9e9395f, // q13 sort scan=3 shuffle=3
    0x2098380e857ca308, // join hash scan=1 shuffle=1
    0x38944c520baa38de, // join hash scan=1 shuffle=2
    0x3be2a8c54c5b64b3, // join hash scan=1 shuffle=3
    0x082bb212140ef73f, // join hash scan=2 shuffle=1
    0x1565329c85e90757, // join hash scan=2 shuffle=2
    0x3be2a8c54c5b64b3, // join hash scan=2 shuffle=3
    0xa8c7c28a4b4f97fe, // join hash scan=3 shuffle=1
    0x98ceb6e13ec01682, // join hash scan=3 shuffle=2
    0x32db7cccb29321a5, // join hash scan=3 shuffle=3
    0xab917afd859a0af7, // join sort scan=1 shuffle=1
    0x336d778089d2e00c, // join sort scan=1 shuffle=2
    0x56412eeb9151be90, // join sort scan=1 shuffle=3
    0xab917afd859a0af7, // join sort scan=2 shuffle=1
    0x336d778089d2e00c, // join sort scan=2 shuffle=2
    0x56412eeb9151be90, // join sort scan=2 shuffle=3
    0x1be1708050353a36, // join sort scan=3 shuffle=1
    0x7a213cf670ae68f5, // join sort scan=3 shuffle=2
    0x19319a48fc93a4da, // join sort scan=3 shuffle=3
    0xfc9d64d35e04af0d, // group hash scan=1 shuffle=1
    0x20f39984a106a7b6, // group hash scan=1 shuffle=2
    0xd8e97302af6088cf, // group hash scan=1 shuffle=3
    0xa4df090541e096ef, // group hash scan=2 shuffle=1
    0xa4595b79dc1f3343, // group hash scan=2 shuffle=2
    0x4d802ef8819635d0, // group hash scan=2 shuffle=3
    0xad798e045fea9de9, // group hash scan=3 shuffle=1
    0xb812bd981c8beba3, // group hash scan=3 shuffle=2
    0xad798e045fea9de9, // group hash scan=3 shuffle=3
    0x01991032f81b096b, // group sort scan=1 shuffle=1
    0x01991032f81b096b, // group sort scan=1 shuffle=2
    0xefe99b29a5df6980, // group sort scan=1 shuffle=3
    0x01991032f81b096b, // group sort scan=2 shuffle=1
    0x01991032f81b096b, // group sort scan=2 shuffle=2
    0xefe99b29a5df6980, // group sort scan=2 shuffle=3
    0x01991032f81b096b, // group sort scan=3 shuffle=1
    0x01991032f81b096b, // group sort scan=3 shuffle=2
    0xefe99b29a5df6980, // group sort scan=3 shuffle=3
];

/// Terasort through a 64 KiB Cache Worker, so segments spill to disk and
/// come back through the decoder, at m = n in {2, 3}.
#[test]
fn spilling_terasort_is_pinned() {
    let engine = Engine::new(teragen(5_000, 11)).with_cache_capacity(64 << 10);
    let mut got = Vec::new();
    for tasks in [2, 3] {
        let outcome = engine
            .run_with(&terasort_engine_job(1, tasks, tasks), Default::default())
            .expect("terasort runs");
        assert_eq!(outcome.rows.len(), 5_000);
        assert!(
            outcome.stats.spilled_bytes > 0,
            "m = n = {tasks} must spill"
        );
        got.push((format!("terasort m=n={tasks}"), digest(&outcome.rows)));
    }
    check("terasort", &got, &TERASORT_PINS);
}

/// The m = n = 2 spilling terasort with one task failing once, in the
/// reduce stage and then in the merge stage. The re-run task re-reads its
/// inputs from spilled segments through `collect_keep`, and the result
/// must still be the pinned one.
#[test]
fn spilling_terasort_recovers_to_the_pin() {
    let engine = Engine::new(teragen(5_000, 11)).with_cache_capacity(64 << 10);
    let job = terasort_engine_job(1, 2, 2);
    for stage in ["reduce", "merge"] {
        let victim = job
            .dag
            .stage_by_name(stage)
            .expect("terasort has the stage");
        let outcome = engine
            .run_with(
                &job,
                RunOptions {
                    fail_once: vec![TaskId::new(victim.id, 0)],
                    max_attempts: 3,
                },
            )
            .expect("terasort recovers");
        assert_eq!(outcome.stats.recovered_tasks, 1, "{stage}");
        assert!(outcome.stats.spilled_bytes > 0, "{stage} must spill");
        assert_eq!(
            digest(&outcome.rows),
            TERASORT_PINS[0],
            "{stage} failure changed the result"
        );
    }
}

#[rustfmt::skip]
const TERASORT_PINS: [u64; 2] = [
    0xa04de5f55b2b2da5, // terasort m=n=2
    0xa04de5f55b2b2da5, // terasort m=n=3
];
