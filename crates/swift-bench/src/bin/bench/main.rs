//! `bench` — the repo's one benchmark: seven named workloads, four
//! end-to-end metrics the driver gates, and a traced pass that attributes
//! host time to layers. `README.md` beside this file is the manual;
//! `BENCHMARK.json` at the repo root is the contract.
//!
//! ```text
//! bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! bench --all [--seed N] [--seconds S] [--out FILE] [--smoke]
//! bench --smoke
//! bench --compare A.json B.json
//! ```
//!
//! A `--workload` run prints one `workload metric value unit` line per
//! metric and, as its last line, one JSON object: `--trace 0` (the timed
//! pass: benchmark tracing and counting allocator off) carries the
//! end-to-end metrics, `--trace 1` (the traced pass) the per-layer ones.
//! The benchmark drives each layer only through public functions with
//! default configs and changes no product code.

mod compare;
mod engine;
mod json;
mod metrics;
mod service;
mod sim;
mod span;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use metrics::{iqr_pct, median, percentile, sorted, MetricDef, Values, END_TO_END, WORKLOADS};
use span::{alloc_count, SpanStats, Tracer};
use workload::{build, Iter, Workload};

/// The seed every generator gets unless `--seed` says otherwise.
const DEFAULT_SEED: u64 = 20_210_419;
/// Iterations run and thrown away before any timing.
const WARMUP_ITERS: usize = 2;
/// A pass never reports a median over fewer iterations than this.
const MIN_ITERS: usize = 5;
/// Iterations of the traced pass.
const TRACED_ITERS: u32 = 5;
/// A run whose iteration times spread wider than this is flagged noisy.
const NOISY_IQR_PCT: f64 = 10.0;

#[derive(Clone, Debug)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    smoke: bool,
}

/// What one pass measured, in the shape of the result line.
struct Pass {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Values,
}

/// Build outputs and scratch files live under Cargo's target directory.
fn bench_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("bench")
}

/// Points the process's temp dir inside the build directory, so the
/// engine's spill files stay within the checkout. Called before any
/// thread starts.
fn use_local_tmp() -> Result<(), String> {
    let tmp = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(bench_dir())
        .join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", tmp);
    Ok(())
}

fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What a run of untraced iterations saw. The counts cover the timed
/// iterations; `first` is the first warm-up iteration, whose digest every
/// later one must reproduce.
struct Iterations {
    secs: Vec<f64>,
    first: Iter,
    attempted: u64,
    completed: u64,
    failed: u64,
    digests_agree: bool,
}

/// Discards `WARMUP_ITERS` iterations, then iterates until `seconds` of
/// wall time have passed and at least `MIN_ITERS` ran.
fn iterate_for(w: &mut dyn Workload, seconds: f64, smoke: bool) -> Result<Iterations, String> {
    let off = Tracer::off();
    let mut first = None;
    for _ in 0..WARMUP_ITERS {
        let it = w.iterate(&off)?;
        first.get_or_insert(it);
    }
    let first: Iter = first.expect("at least one warm-up iteration");
    let mut out = Iterations {
        secs: Vec::new(),
        first,
        attempted: 0,
        completed: 0,
        failed: 0,
        digests_agree: true,
    };
    let min_iters = if smoke { 2 } else { MIN_ITERS };
    let start = Instant::now();
    while out.secs.len() < min_iters || start.elapsed().as_secs_f64() < seconds {
        let it = w.iterate(&off)?;
        out.secs.push(it.secs);
        out.attempted += it.attempted;
        if it.digest == first.digest {
            out.completed += it.completed;
            out.failed += it.failed;
        } else {
            // A result that does not repeat is no result.
            out.digests_agree = false;
            out.failed += it.attempted;
        }
    }
    Ok(out)
}

fn warn_if_noisy(workload: &str, secs: &[f64]) {
    let iqr = iqr_pct(secs);
    if iqr > NOISY_IQR_PCT {
        eprintln!(
            "bench: WARNING {workload}: iteration times spread {iqr:.1} % of their median \
             (over {NOISY_IQR_PCT} %): this run was disturbed, its host-time numbers are noisy"
        );
    }
}

/// The timed pass: set-up (repeated, median reported), warm-up, then
/// iterations for `--seconds`, with benchmark tracing and the counting
/// allocator off.
fn timed_pass(args: &RunArgs) -> Result<Pass, String> {
    let off = Tracer::off();
    let mut setups = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    let budget = Instant::now();
    let (min_setups, max_setups) = if args.smoke { (1, 1) } else { (3, 1000) };
    // Cheap set-ups are noisy relative to their size: repeat them more.
    while setups.len() < min_setups
        || (setups.len() < max_setups && budget.elapsed() < Duration::from_millis(1500))
    {
        drop(w.take());
        let start = Instant::now();
        w = Some(build(&args.workload, args.seed, args.smoke, &off).ok_or("unknown workload")?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut w = w.expect("set up at least once");

    let its = iterate_for(w.as_mut(), args.seconds, args.smoke)?;
    let rss = peak_rss_mb()?;
    warn_if_noisy(&args.workload, &its.secs);
    eprintln!(
        "bench: {}: {} timed iterations, median {:.3} ms, {} set-ups",
        args.workload,
        its.secs.len(),
        median(&its.secs) * 1e3,
        setups.len()
    );

    let mut values = Values::default();
    values.set("setup_s", median(&setups));
    values.set(
        "host_jobs_per_s",
        its.first.completed as f64 / median(&its.secs),
    );
    values.set("peak_rss_mb", rss);
    values.set(
        "completed_share",
        its.completed as f64 / its.attempted as f64,
    );
    Ok(Pass {
        correct: its.digests_agree && its.failed == 0,
        attempted: its.attempted,
        failed: its.failed,
        values,
    })
}

/// The traced pass: a short untraced baseline, then `TRACED_ITERS`
/// iterations with spans, the bench's observers and the counting
/// allocator on, then the single-layer replays. Spans are written once,
/// at the end.
fn traced_pass(args: &RunArgs) -> Result<Pass, String> {
    let load = loadavg();
    let tr = Tracer::on();
    let mut w = build(&args.workload, args.seed, args.smoke, &tr).ok_or("unknown workload")?;

    let plain = iterate_for(w.as_mut(), args.seconds.min(2.0), args.smoke)?;
    let plain_s = median(&plain.secs);
    warn_if_noisy(&args.workload, &plain.secs);

    let mut traced_secs = Vec::new();
    let mut digests_agree = plain.digests_agree;
    alloc_count::set_enabled(true);
    for i in 0..if args.smoke { 2 } else { TRACED_ITERS } {
        tr.set_iteration(i + 1);
        let root = tr.enter("iteration");
        let it = w.iterate(&tr);
        tr.exit(root);
        let it = it.inspect_err(|_| alloc_count::set_enabled(false))?;
        traced_secs.push(it.secs);
        digests_agree &= it.digest == plain.first.digest;
    }
    alloc_count::set_enabled(false);
    if !digests_agree {
        eprintln!(
            "bench: {}: the traced pass changed the digest",
            args.workload
        );
    }
    let spans = SpanStats::new(tr.spans());
    spans.check()?;

    let mut values = Values::default();
    let plain_sorted = sorted(plain.secs.clone());
    values.set("bench.iterations", plain.secs.len() as f64);
    values.set("bench.iter_ms_p50", plain_s * 1e3);
    values.set("bench.iter_ms_p90", percentile(&plain_sorted, 0.90) * 1e3);
    values.set("bench.iter_ms_iqr_pct", iqr_pct(&plain.secs));
    values.set(
        "bench.trace_overhead_pct",
        (median(&traced_secs) / plain_s - 1.0) * 100.0,
    );
    values.set("bench.loadavg_start", load);
    w.layers(&spans, plain_s, &mut values)?;

    let dir = bench_dir();
    let path = dir.join(format!("{}.spans.json", args.workload));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans.to_json().render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("bench: spans written to {}", path.display());

    Ok(Pass {
        correct: digests_agree && plain.failed == 0,
        attempted: plain.attempted,
        failed: plain.failed,
        values,
    })
}

/// The result object of one pass: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every metric of `defs` present.
fn result_json<'a>(pass: &Pass, defs: impl Iterator<Item = &'a MetricDef>) -> Json {
    let metrics = defs.map(|d| {
        let value = pass.values.get(d.name).unwrap_or(0.0);
        (
            d.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(pass.correct)),
        ("attempted", Json::Num(pass.attempted as f64)),
        ("failed", Json::Num(pass.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// One workload, one pass: prints a line per metric, then the result.
fn run_workload(args: &RunArgs, traced: bool) -> Result<bool, String> {
    use_local_tmp()?;
    let (pass, defs): (Pass, Vec<&MetricDef>) = if traced {
        (traced_pass(args)?, metrics::per_layer().collect())
    } else {
        (timed_pass(args)?, END_TO_END.iter().collect())
    };
    for d in &defs {
        // Metrics of layers this workload does not exercise stay silent.
        if let Some(v) = pass.values.get(d.name) {
            println!("{} {} {v} {}", args.workload, d.name, d.unit);
        }
    }
    println!("{}", result_json(&pass, defs.into_iter()).render());
    Ok(pass.correct)
}

/// Runs `--workload name --trace t` in a fresh child process (so peak
/// RSS is the workload's own), echoes its metric lines and returns its
/// result object.
fn run_child(args: &RunArgs, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", args.workload))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (lines, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if !lines.is_empty() {
        println!("{lines}");
    }
    let result = Json::parse(last)
        .map_err(|e| format!("{} child printed no result ({e}): {last}", args.workload))?;
    if !out.status.success() {
        eprintln!("bench: {} child exited with {}", args.workload, out.status);
    }
    Ok(result)
}

/// A metric's value in one pass's result object.
fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, both passes, each in its own process; the oracles
/// that span workloads; one results file.
fn run_all(seed: u64, seconds: f64, smoke: bool, out: Option<PathBuf>) -> Result<bool, String> {
    let mut ok = true;
    let mut results = Vec::new();
    for (name, _) in WORKLOADS {
        let args = RunArgs {
            workload: name.to_string(),
            seed,
            seconds,
            smoke,
        };
        let timed = run_child(&args, false)?;
        let traced = run_child(&args, true)?;
        for pass in [&timed, &traced] {
            ok &= pass.get("correct").and_then(Json::as_bool) == Some(true);
        }
        results.push((name, Json::obj([("timed", timed), ("traced", traced)])));
    }

    // Recorder passivity across workloads: the streamed run is the plain
    // replay with a recorder attached, so its simulated results are equal.
    let traced_of = |name: &str| {
        results
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, r)| r.get("traced"))
    };
    for d in metrics::compared().filter(|d| d.name.starts_with("sim_")) {
        let replay = traced_of("sim_replay_2000").and_then(|r| metric_value(r, d.name));
        let streamed = traced_of("sim_streamed").and_then(|r| metric_value(r, d.name));
        if replay != streamed {
            eprintln!(
                "bench: FAIL {}: sim_streamed {streamed:?} != sim_replay_2000 {replay:?}",
                d.name
            );
            ok = false;
        }
    }

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = |ok: bool| {
        Json::obj([
            ("schema", Json::Num(1.0)),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("smoke", Json::Bool(smoke)),
            ("cores", Json::Num(cores as f64)),
            ("correct", Json::Bool(ok)),
            ("workloads", Json::obj(results.clone())),
        ])
    };
    let path = out.unwrap_or_else(|| bench_dir().join("results.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    // Smoke sizes have simulated results of their own: nothing to hold.
    if !smoke {
        // What a re-blessed `sim_baseline.json` would hold, beside the
        // results; its verdict is the oracles', not the old baseline's.
        let by_oracles = doc(ok);
        let rebless = path.with_extension("sim_baseline.json");
        std::fs::write(&rebless, compare::repeatable_part(&by_oracles))
            .map_err(|e| format!("cannot write {}: {e}", rebless.display()))?;
        ok &= compare::check_baseline(&by_oracles)?;
    }
    std::fs::write(&path, doc(ok).render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "bench: {} — results written to {}",
        if ok {
            "all oracles green"
        } else {
            "ORACLE FAILURES"
        },
        path.display()
    );
    Ok(ok)
}

const USAGE: &str = "usage:
  bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  bench --all [--seed N] [--seconds S] [--out FILE] [--smoke]
  bench --smoke
  bench --compare A.json B.json";

enum Mode {
    Workload {
        args: RunArgs,
        traced: bool,
    },
    All {
        seed: u64,
        seconds: f64,
        smoke: bool,
        out: Option<PathBuf>,
    },
    Compare(PathBuf, PathBuf),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut all = false;
    let mut out = None;
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i)
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => workload = Some(value(&mut i)?.clone()),
            "--seed" => {
                seed = value(&mut i)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value(&mut i)?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value(&mut i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => smoke = true,
            "--all" => all = true,
            "--out" => out = Some(PathBuf::from(value(&mut i)?)),
            "--compare" => {
                let a = PathBuf::from(value(&mut i)?);
                let b = PathBuf::from(value(&mut i)?);
                if argv.len() != 3 {
                    return Err("--compare takes exactly two files".into());
                }
                return Ok(Mode::Compare(a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    // Smoke timings are printed but never gated, so they can be short.
    let seconds = seconds.unwrap_or(if smoke { 0.1 } else { 10.0 });
    match workload {
        Some(workload) if !all => {
            if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
                let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                return Err(format!(
                    "unknown workload {workload}; one of {}",
                    names.join(", ")
                ));
            }
            Ok(Mode::Workload {
                args: RunArgs {
                    workload,
                    seed,
                    seconds,
                    smoke,
                },
                traced,
            })
        }
        Some(_) => Err("--workload and --all exclude each other".into()),
        None if all || smoke => Ok(Mode::All {
            seed,
            seconds,
            smoke,
            out,
        }),
        None => Err("nothing to do".into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::Workload { args, traced } => run_workload(&args, traced),
        Mode::All {
            seed,
            seconds,
            smoke,
            out,
        } => run_all(seed, seconds, smoke, out),
        Mode::Compare(a, b) => compare::run(&a, &b),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: FAIL: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Better;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_the_driver_form() {
        let argv = strs(&[
            "--workload",
            "sim_faults",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        match parse_args(&argv).unwrap() {
            Mode::Workload { args, traced } => {
                assert_eq!(args.workload, "sim_faults");
                assert_eq!(args.seed, 7);
                assert_eq!(args.seconds, 3.0);
                assert!(traced && !args.smoke);
            }
            _ => panic!("expected a workload run"),
        }
        assert!(parse_args(&strs(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strs(&["--seconds", "0", "--all"])).is_err());
        assert!(parse_args(&strs(&["--trace", "2", "--all"])).is_err());
        assert!(parse_args(&strs(&[])).is_err());
        assert!(matches!(
            parse_args(&strs(&["--smoke"])).unwrap(),
            Mode::All { smoke: true, .. }
        ));
        assert!(matches!(
            parse_args(&strs(&["--compare", "a", "b"])).unwrap(),
            Mode::Compare(..)
        ));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("setup_s", 0.25);
        let pass = Pass {
            correct: true,
            attempted: 1000,
            failed: 0,
            values,
        };
        let doc = Json::parse(&result_json(&pass, END_TO_END.iter()).render()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(1000.0));
        let emitted: Vec<&str> = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(emitted, listed, "every end-to-end metric, nothing else");
        assert_eq!(metric_value(&doc, "setup_s"), Some(0.25));
    }

    /// `BENCHMARK.json` and the tables in `metrics.rs` name the same
    /// workloads and metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths, [Json::str("crates/swift-bench/src/bin/bench")]);

        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let check = |key: &str, ours: Vec<&MetricDef>| {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), ours.len(), "{key}: count");
            for (l, d) in listed.iter().zip(ours) {
                assert_eq!(field(l, "name"), d.name, "{key}: order or name");
                assert_eq!(field(l, "unit"), d.unit, "{}", d.name);
                assert_eq!(field(l, "better"), d.better.as_str(), "{}", d.name);
                let bound = l.get("bound").and_then(Json::as_f64);
                if key == "end_to_end" {
                    assert_eq!(bound, d.bound, "{}", d.name);
                } else {
                    assert_eq!(l.as_obj().unwrap().len(), 3, "{}: per-layer keys", d.name);
                }
            }
        };
        check("end_to_end", END_TO_END.iter().collect());
        check("per_layer", metrics::per_layer().collect());
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
    }

    /// The lines of `[section]` in a manifest, comments and blanks dropped.
    fn manifest_section<'a>(manifest: &'a str, section: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != section)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark's own manifest adds no dependency edge and drops no
    /// lint: its dependencies are among `swift-bench`'s, its lints are the
    /// workspace's.
    #[test]
    fn manifest_mirrors_swift_bench() {
        let own = include_str!("Cargo.toml");
        let swift_bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let names = |manifest| -> Vec<&str> {
            manifest_section(manifest, "[dependencies]")
                .into_iter()
                .map(|l| l.split(['.', ' ', '=']).next().unwrap())
                .collect()
        };
        let allowed = names(swift_bench);
        let ours = names(own);
        assert!(!ours.is_empty());
        for dep in ours {
            assert!(
                allowed.contains(&dep),
                "{dep} is not a swift-bench dependency"
            );
        }
        assert_eq!(
            manifest_section(own, "[lints.rust]"),
            manifest_section(root, "[workspace.lints.rust]")
        );
    }

    /// Both passes of every workload at smoke size: all oracles hold and
    /// every `Values::set` names a listed metric (it panics otherwise).
    #[test]
    fn smoke_passes_of_every_workload_are_correct() {
        use_local_tmp().unwrap();
        for (name, _) in WORKLOADS {
            let args = RunArgs {
                workload: name.to_string(),
                seed: DEFAULT_SEED,
                seconds: 0.05,
                smoke: true,
            };
            let timed = timed_pass(&args).unwrap_or_else(|e| panic!("{name} timed: {e}"));
            assert!(timed.correct && timed.failed == 0, "{name} timed pass");
            for d in &END_TO_END {
                let v = timed.values.get(d.name).unwrap();
                assert!(v > 0.0 && v.is_finite(), "{name} {} = {v}", d.name);
            }
            let traced = traced_pass(&args).unwrap_or_else(|e| panic!("{name} traced: {e}"));
            assert!(traced.correct, "{name} traced pass");
            assert!(traced.values.get("bench.iterations").unwrap() >= 2.0);
        }
    }
}
