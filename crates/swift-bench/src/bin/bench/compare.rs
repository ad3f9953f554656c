//! `bench --compare A.json B.json`: the A/A check and the tool later
//! changes quote. A is the baseline; every relative difference has A as
//! its base. `--all` runs the same comparison, over the metrics that
//! repeat exactly, against the committed `sim_baseline.json`.

use std::path::Path;

use crate::json::Json;
use crate::metrics::{compared, repeatable, Better, MetricDef, WORKLOADS};

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(d: &MetricDef, a: f64, b: f64) -> f64 {
    match d.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The share of `a` by which `d` may get worse. `BENCHMARK.json`'s bound,
/// with one exception: `completed_share`'s bound there covers the seed to
/// seed spread of `service_storm`, and on one seed the metric is a pure
/// function of the code, so between two runs of the same seed it may not
/// fall at all.
fn bound(d: &MetricDef, same_seed: bool) -> f64 {
    if same_seed && d.name == "completed_share" {
        0.0
    } else {
        d.bound.expect("compared metrics carry a bound")
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A metric's value in one results file, from whichever pass reports it.
fn value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    let w = doc.get("workloads")?.get(workload)?;
    ["timed", "traced"]
        .iter()
        .find_map(|pass| crate::metric_value(w.get(pass)?, metric))
}

fn seed(doc: &Json) -> Option<f64> {
    doc.get("seed").and_then(Json::as_f64)
}

/// Prints one row per `(workload, metric of defs)`; `false` when any row
/// regresses or either document recorded an oracle failure.
fn compare_docs<'a>(a: &Json, b: &Json, defs: impl Iterator<Item = &'a MetricDef> + Clone) -> bool {
    let mut ok = true;
    for (name, doc) in [("A", a), ("B", b)] {
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            println!("{name} recorded an oracle failure");
            ok = false;
        }
    }
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    println!(
        "{:<16} {:<26} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for (workload, _) in WORKLOADS {
        for d in defs.clone() {
            let (Some(va), Some(vb)) = (value(a, workload, d.name), value(b, workload, d.name))
            else {
                println!("{workload:<16} {:<26} missing from a file", d.name);
                ok = false;
                continue;
            };
            // Zero on both sides: the workload has no such metric.
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let bound = bound(d, same_seed);
            let bad = if va == 0.0 {
                Some("baseline is zero")
            } else {
                (worsening(d, va, vb) > bound).then_some("bound exceeded")
            };
            ok &= bad.is_none();
            println!(
                "{workload:<16} {:<26} {va:>16.6} {vb:>16.6} {:>+8.2}% {:>6.1}%  {}",
                d.name,
                (vb - va) / va * 100.0,
                bound * 100.0,
                bad.unwrap_or(if va == vb { "identical" } else { "ok" }),
            );
        }
    }
    println!("{}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// `bench --compare A.json B.json`, over every compared metric.
pub(crate) fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    Ok(compare_docs(&load(a_path)?, &load(b_path)?, compared()))
}

/// The part of an `--all` document that repeats exactly on its seed: what
/// `sim_baseline.json` holds. One line per workload, so a re-blessed
/// baseline diffs by workload.
pub(crate) fn repeatable_part(doc: &Json) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(w, _)| {
            let pass = |pass: &str| {
                let kept = repeatable().filter_map(|d| {
                    let m = doc.get("workloads")?.get(w)?.get(pass)?;
                    Some((d.name, m.get("metrics")?.get(d.name)?.clone()))
                });
                Json::obj([("metrics", Json::obj(kept))])
            };
            let passes = Json::obj([("timed", pass("timed")), ("traced", pass("traced"))]);
            format!("{}: {}", Json::str(*w).render(), passes.render())
        })
        .collect();
    format!(
        "{{\"schema\": 1, \"seed\": {}, \"correct\": {}, \"workloads\": {{\n{}\n}}}}\n",
        doc.get("seed").map_or("null".into(), Json::render),
        doc.get("correct").map_or("null".into(), Json::render),
        workloads.join(",\n")
    )
}

/// Holds an `--all` document to the committed baseline: simulated-time
/// results and `completed_share` are pure functions of `(workload, seed)`,
/// so on the baseline's seed a later commit may not worsen them beyond
/// their bounds without re-blessing `sim_baseline.json` in a change that
/// says why.
pub(crate) fn check_baseline(doc: &Json) -> Result<bool, String> {
    let baseline = Json::parse(include_str!("sim_baseline.json"))
        .map_err(|e| format!("sim_baseline.json: {e}"))?;
    if seed(&baseline) != seed(doc) {
        eprintln!(
            "bench: sim_baseline.json is for seed {}; this seed's simulated results are not gated",
            seed(&baseline).unwrap_or(f64::NAN)
        );
        return Ok(true);
    }
    println!("A = the committed sim_baseline.json, B = this run");
    Ok(compare_docs(&baseline, doc, repeatable()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn def(name: &str) -> &'static MetricDef {
        compared().find(|d| d.name == name).unwrap()
    }

    /// A results document in which every workload's timed pass reports
    /// `metric` at `value`.
    fn doc(seed: u64, metric: &str, value: f64) -> Json {
        let pass = Json::obj([(
            "metrics",
            Json::obj([(metric, Json::obj([("value", Json::Num(value))]))]),
        )]);
        let workloads = WORKLOADS
            .iter()
            .map(|(w, _)| (*w, Json::obj([("timed", pass.clone())])));
        Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("correct", Json::Bool(true)),
            ("workloads", Json::obj(workloads)),
        ])
    }

    /// Whether B = `b` passes against A = `a` on that one metric.
    fn passes(metric: &str, a: f64, (seed_a, seed_b): (u64, u64), b: f64) -> bool {
        compare_docs(
            &doc(seed_a, metric, a),
            &doc(seed_b, metric, b),
            std::iter::once(def(metric)),
        )
    }

    #[test]
    fn bounds_follow_the_metric_direction() {
        let bound = def("host_jobs_per_s").bound.unwrap();
        assert!(passes(
            "host_jobs_per_s",
            100.0,
            (1, 1),
            100.0 * (1.0 - bound) + 1.0
        ));
        assert!(!passes(
            "host_jobs_per_s",
            100.0,
            (1, 1),
            100.0 * (1.0 - bound) - 1.0
        ));
        assert!(
            passes("host_jobs_per_s", 100.0, (1, 1), 200.0),
            "faster is never a regression"
        );
        let bound = def("peak_rss_mb").bound.unwrap();
        assert!(passes(
            "peak_rss_mb",
            100.0,
            (1, 1),
            100.0 * (1.0 + bound) - 1.0
        ));
        assert!(!passes(
            "peak_rss_mb",
            100.0,
            (1, 1),
            100.0 * (1.0 + bound) + 1.0
        ));
        assert!(passes("sim_job_latency_s_p99", 100.0, (1, 1), 100.0));
        assert!(
            !passes("sim_job_latency_s_p99", 100.0, (1, 1), 102.0),
            "simulated time holds to 1 %"
        );
    }

    #[test]
    fn completed_share_may_not_fall_on_one_seed() {
        assert!(passes("completed_share", 0.836, (1, 1), 0.836));
        assert!(!passes("completed_share", 0.836, (1, 1), 0.835));
        assert!(passes("completed_share", 0.836, (1, 1), 0.9));
        // Between seeds the committed bound applies.
        assert!(passes("completed_share", 0.836, (1, 2), 0.835));
        assert!(!passes("completed_share", 0.836, (1, 2), 0.5));
    }

    #[test]
    fn the_baseline_holds_every_repeatable_metric() {
        let baseline = Json::parse(include_str!("sim_baseline.json")).unwrap();
        assert_eq!(seed(&baseline), Some(crate::DEFAULT_SEED as f64));
        for (w, _) in WORKLOADS {
            for d in repeatable() {
                assert!(value(&baseline, w, d.name).is_some(), "{w} {}", d.name);
            }
        }
        // Re-blessing is copying: the baseline is its own repeatable part.
        assert_eq!(
            repeatable_part(&baseline),
            include_str!("sim_baseline.json")
        );
    }

    #[test]
    fn values_come_from_either_pass() {
        let doc = Json::parse(
            r#"{"workloads": {"sim_faults": {
                "timed": {"metrics": {"setup_s": {"value": 0.5, "unit": "s"}}},
                "traced": {"metrics": {"sim_idle_ratio": {"value": 0.2, "unit": "ratio"}}}}}}"#,
        )
        .unwrap();
        assert_eq!(value(&doc, "sim_faults", "setup_s"), Some(0.5));
        assert_eq!(value(&doc, "sim_faults", "sim_idle_ratio"), Some(0.2));
        assert_eq!(value(&doc, "sim_faults", "peak_rss_mb"), None);
        assert_eq!(value(&doc, "engine_tpch", "setup_s"), None);
        assert_eq!(END_TO_END[0].name, "setup_s");
    }
}
