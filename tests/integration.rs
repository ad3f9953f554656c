//! Cross-crate integration tests: SQL → planner → engine on TPC-H data,
//! workload → simulator, and the consistency between the engine's and the
//! simulator's views of the same job, plus the structural oracles on the
//! built-in workload DAGs and the crate scoping of the determinism
//! contract's `clippy.toml`.

use std::path::Path;
use swift::cluster::{Cluster, CostModel};
use swift::dag::partition;
use swift::engine::{Engine, Value};
use swift::scheduler::{JobSpec, PolicyConfig, SimConfig, Simulation};
use swift::sql::{compile, run_sql, PlanOptions};
use swift::workload::{generate_catalog, q9_sim_dag, tpch_sim_dag, Q13_SQL, Q9_SQL};
use swift_chaos::preflight_dag;

#[test]
fn q9_sql_runs_and_modes_agree() {
    let engine = Engine::new(generate_catalog(2, 42));
    let (cols, hash) = run_sql(&engine, Q9_SQL, &PlanOptions::default()).unwrap();
    let (_, sorted) = run_sql(
        &engine,
        Q9_SQL,
        &PlanOptions {
            prefer_sort: true,
            ..PlanOptions::default()
        },
    )
    .unwrap();
    assert_eq!(cols, vec!["nation", "o_year", "sum_profit"]);
    assert_eq!(hash, sorted, "hash and sort-merge plans agree");
    assert!(!hash.is_empty());
    // Every parallelism answers the same; only float sums may reassociate.
    for scan_tasks in [1, 3] {
        for shuffle_tasks in [1, 3] {
            for prefer_sort in [false, true] {
                let opts = PlanOptions {
                    scan_tasks,
                    shuffle_tasks,
                    prefer_sort,
                };
                let (_, rows) = run_sql(&engine, Q9_SQL, &opts).unwrap();
                assert_eq!(rows.len(), hash.len(), "{opts:?}");
                for (r, h) in rows.iter().zip(&hash) {
                    assert_eq!(r[..2], h[..2], "{opts:?}");
                    let (a, b) = (r[2].as_f64().unwrap(), h[2].as_f64().unwrap());
                    assert!((a - b).abs() <= 1e-9 * a.abs().max(b.abs()), "{opts:?}");
                }
            }
        }
    }
    // ORDER BY nation asc, o_year desc holds.
    for w in hash.windows(2) {
        let n = w[0][0].total_cmp(&w[1][0]);
        assert!(n.is_le());
        if n.is_eq() {
            assert!(
                w[0][1].total_cmp(&w[1][1]).is_ge(),
                "o_year desc within nation"
            );
        }
    }
}

#[test]
fn q9_aggregates_match_manual_computation() {
    let catalog = generate_catalog(1, 7);
    // Manual evaluation of the Q9 semantics over the generated tables.
    let li = &catalog.get("tpch_lineitem").unwrap().rows;
    let ps = &catalog.get("tpch_partsupp").unwrap().rows;
    let parts = &catalog.get("tpch_part").unwrap().rows;
    let supp = &catalog.get("tpch_supplier").unwrap().rows;
    let orders = &catalog.get("tpch_orders").unwrap().rows;
    let nations = &catalog.get("tpch_nation").unwrap().rows;
    let mut expected: std::collections::BTreeMap<(String, String), f64> = Default::default();
    for l in li {
        let (l_ok, l_pk, l_sk) = (
            l[0].as_i64().unwrap(),
            l[1].as_i64().unwrap(),
            l[2].as_i64().unwrap(),
        );
        let part = parts.iter().find(|p| p[0].as_i64() == Some(l_pk)).unwrap();
        if !part[1].as_str().unwrap().contains("green") {
            continue;
        }
        // The generated partsupp can hold duplicate (partkey, suppkey)
        // pairs; an inner join matches each of them.
        let psrs: Vec<_> = ps
            .iter()
            .filter(|r| r[0].as_i64() == Some(l_pk) && r[1].as_i64() == Some(l_sk))
            .collect();
        if psrs.is_empty() {
            continue;
        }
        let s = supp.iter().find(|r| r[0].as_i64() == Some(l_sk)).unwrap();
        let o = orders.iter().find(|r| r[0].as_i64() == Some(l_ok)).unwrap();
        let n = nations.iter().find(|r| r[0] == s[2]).unwrap();
        let year = o[2].as_str().unwrap()[..4].to_string();
        for psr in psrs {
            let amount = l[4].as_f64().unwrap() * (1.0 - l[5].as_f64().unwrap())
                - psr[2].as_f64().unwrap() * l[3].as_f64().unwrap();
            *expected
                .entry((n[1].as_str().unwrap().to_string(), year.clone()))
                .or_default() += amount;
        }
    }

    let engine = Engine::new(catalog.clone());
    let (_, rows) = run_sql(&engine, Q9_SQL, &PlanOptions::default()).unwrap();
    assert_eq!(rows.len(), expected.len());
    for r in &rows {
        let key = (r[0].to_string(), r[1].to_string());
        let want = expected[&key];
        let got = r[2].as_f64().unwrap();
        assert!(
            (got - want).abs() < 1e-6 * want.abs().max(1.0),
            "{key:?}: {got} vs {want}"
        );
    }
}

#[test]
fn q13_sql_distribution_is_consistent() {
    let engine = Engine::new(generate_catalog(2, 11));
    let (cols, rows) = run_sql(&engine, Q13_SQL, &PlanOptions::default()).unwrap();
    assert_eq!(cols, vec!["c_count", "custdist"]);
    // custdist counts customers; total customers with special orders must
    // match the sum of the distribution.
    let total: i64 = rows
        .iter()
        .map(|r| r[1].as_i64().unwrap())
        .collect::<Vec<_>>()
        .iter()
        .sum();
    assert!(total > 0);
    // Sorted by custdist desc, then c_count desc.
    for w in rows.windows(2) {
        let d = w[0][1].total_cmp(&w[1][1]);
        assert!(d.is_ge());
        if d.is_eq() {
            assert!(w[0][0].total_cmp(&w[1][0]).is_ge());
        }
    }
}

#[test]
fn sql_planned_job_runs_in_simulator_too() {
    // The same EngineJob DAG produced by the SQL planner is a valid
    // simulator workload (profiles filled by the planner).
    let catalog = generate_catalog(2, 3);
    let job = compile(
        Q9_SQL,
        &catalog,
        9,
        &PlanOptions {
            prefer_sort: true,
            ..PlanOptions::default()
        },
    )
    .unwrap();
    let report = Simulation::new(
        Cluster::new(20, 8, CostModel::default()),
        SimConfig::swift(),
        vec![JobSpec::at_zero(job.dag.clone())],
    )
    .run();
    assert!(!report.jobs[0].aborted);
    assert!(report.jobs[0].elapsed.as_secs_f64() > 0.0);
}

#[test]
fn paper_q9_partition_and_simulation_cross_check() {
    let dag = q9_sim_dag(9);
    let part = partition(&dag);
    assert_eq!(part.len(), 4, "Fig. 4: four graphlets");
    // Graphlet gang sizes match Fig. 4's task counts.
    let sizes: Vec<u64> = part
        .graphlets()
        .iter()
        .map(|g| g.total_tasks(&dag))
        .collect();
    assert_eq!(
        sizes,
        vec![956 + 220 + 3 + 403, 403 + 403, 220 + 20 + 100 + 200, 50 + 1]
    );

    // All four policies run it to completion; Swift is fastest.
    let mut times = Vec::new();
    for policy in [
        PolicyConfig::swift(),
        PolicyConfig::jetscope(),
        PolicyConfig::bubble(600, swift::sim::SimDuration::from_millis(500)),
        PolicyConfig::spark(),
    ] {
        let name = policy.name.clone();
        let report = Simulation::new(
            Cluster::new(100, 32, CostModel::default()),
            SimConfig::with_policy(policy),
            vec![JobSpec::at_zero(dag.clone())],
        )
        .run();
        assert!(!report.jobs[0].aborted, "{name}");
        times.push((name, report.jobs[0].elapsed.as_secs_f64()));
    }
    let swift_t = times.iter().find(|(n, _)| n == "swift").unwrap().1;
    let spark_t = times.iter().find(|(n, _)| n == "spark").unwrap().1;
    assert!(
        spark_t > swift_t * 1.5,
        "swift {swift_t:.1}s vs spark {spark_t:.1}s"
    );
}

#[test]
fn all_tpch_queries_simulate_under_all_policies() {
    for q in [1, 5, 9, 13, 18, 22] {
        let dag = tpch_sim_dag(q, q as u64);
        for policy in [PolicyConfig::swift(), PolicyConfig::spark()] {
            let name = policy.name.clone();
            let report = Simulation::new(
                Cluster::new(100, 32, CostModel::default()),
                SimConfig::with_policy(policy),
                vec![JobSpec::at_zero(dag.clone())],
            )
            .run();
            assert!(!report.jobs[0].aborted, "q{q} {name}");
        }
    }
}

#[test]
fn engine_and_sql_roundtrip_terasort_values() {
    use swift::workload::{teragen, terasort_engine_job};
    let rows = 2_000u64;
    let engine = Engine::new(teragen(rows, 99));
    let out = engine.run(&terasort_engine_job(1, 4, 3)).unwrap();
    assert_eq!(out.len(), rows as usize);
    let mut keys: Vec<i64> = out.iter().map(|r| r[0].as_i64().unwrap()).collect();
    let sorted = {
        let mut k = keys.clone();
        k.sort_unstable();
        k
    };
    assert_eq!(keys, sorted, "terasort output globally sorted");
    keys.dedup();
    // Sanity: inputs were random, so nearly all keys distinct.
    assert!(keys.len() as u64 > rows * 9 / 10);
}

#[test]
fn value_displays_roundtrip_through_sql_literals() {
    let engine = Engine::new(generate_catalog(1, 1));
    let (_, rows) = run_sql(
        &engine,
        "select n_name, n_regionkey * 2 + 1 as x from tpch_nation where n_name like 'C%' order by n_name",
        &PlanOptions::default(),
    )
    .unwrap();
    assert_eq!(rows[0][0], Value::Str("CANADA".into()));
    assert_eq!(rows[1][0], Value::Str("CHINA".into()));
}

/// The built-in workload DAGs, a TPC-H slice plus TeraSort, pass the
/// structural oracles the chaos pre-flight runs on every seed.
#[test]
fn builtin_dags_pass_the_structural_oracles() {
    let mut dags: Vec<_> = [1usize, 3, 5, 9, 13, 18]
        .iter()
        .map(|&q| tpch_sim_dag(q, q as u64))
        .collect();
    dags.push(swift::workload::terasort_dag(100, 40, 40, 64 << 20));
    for dag in &dags {
        assert_eq!(preflight_dag(dag), Vec::<String>::new(), "{}", dag.name);
    }
}

/// Crates whose runs must be a pure function of the seed. Each carries a
/// byte-identical `clippy.toml` that bans unordered hashing, wall clocks,
/// interior mutability, environment reads and threads; no other crate and
/// not the workspace root has one (the benchmark times with `Instant`).
/// `swift-cluster` is on the list because the scheduler calls into it on
/// every event: executor allocation picks which machine a task runs on,
/// and the cost model computes the timestamp of every event it schedules.
const DETERMINISM_SENSITIVE_CRATES: [&str; 9] = [
    "swift-sim",
    "swift-scheduler",
    "swift-cluster",
    "swift-chaos",
    "swift-shuffle",
    "swift-ft",
    "swift-trace",
    "swift-metrics",
    "swift-service",
];

/// Clippy reads the `clippy.toml` nearest a crate's manifest, so the
/// determinism contract is scoped by where the file sits: every
/// determinism-sensitive crate has one, all copies say the same thing, and
/// nothing else is covered (the benchmark times with `Instant`).
#[test]
fn clippy_configs_mirror_the_crate_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let has_config =
        |dir: &Path| dir.join("clippy.toml").exists() || dir.join(".clippy.toml").exists();
    assert!(!has_config(root), "no workspace-wide config");
    assert!(!has_config(&root.join("crates")));
    let mut with_config: Vec<String> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| has_config(p))
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    with_config.sort();
    let mut listed = DETERMINISM_SENSITIVE_CRATES.map(String::from).to_vec();
    listed.sort();
    assert_eq!(with_config, listed);
    let read = |krate: &str| std::fs::read(root.join("crates").join(krate).join("clippy.toml"));
    let first = read(&listed[0]).unwrap();
    for krate in &listed {
        assert_eq!(read(krate).unwrap(), first, "{krate}/clippy.toml differs");
    }
}
