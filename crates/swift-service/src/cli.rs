//! The service CLI, fronted by `swift-sql-shell serve ...` /
//! `swift-sql-shell service-replay ...`.
//!
//! ```text
//! serve [--jobs N] [--tenants N] [--seed N] [--storms N] [--watermark N]
//!       [--quota N] [--warm on|off]
//! service-replay <scenario> [--seed N] [--out FILE] [--chrome FILE]
//! service-replay --list
//! ```
//!
//! `serve` generates a multi-tenant workload, drives the front door to
//! quiescence in simulated time and prints the service summary (admission
//! counts, warm/cold split, throughput, scheduling-latency tails and the
//! report digest). `service-replay` records a named scenario as a trace:
//! the exact bytes the golden suite pins (stdout or `--out`), plus the
//! Chrome export via `--chrome` — the CI record-twice smoke byte-compares
//! two `--out` files.

use swift_workload::{generate_service_workload, ServiceWorkloadConfig};

use crate::config::ServiceConfig;
use crate::report::ServiceRun;
use crate::scenarios;
use crate::service::ServiceSim;

const USAGE: &str = "usage: serve [--jobs N] [--tenants N] [--seed N] [--storms N] \
                     [--watermark N] [--quota N] [--warm on|off]\n       \
                     service-replay <scenario> [--seed N] [--out FILE] [--chrome FILE]\n       \
                     service-replay --list";

fn parse_switch(cmd: &str, flag: &str, v: Option<&String>) -> Result<bool, i32> {
    match v.map(String::as_str) {
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        _ => {
            eprintln!("{cmd}: {flag} needs on|off\n{USAGE}");
            Err(2)
        }
    }
}

fn print_summary(run: &ServiceRun) {
    let r = &run.report;
    println!(
        "jobs: submitted={} admitted={} rejected={} completed={} restarted={}",
        r.jobs_submitted, r.jobs_admitted, r.jobs_rejected, r.jobs_completed, r.jobs_restarted
    );
    println!(
        "sessions: warm_hits={} cold_starts={} expired={} killed={}",
        r.warm_hits, r.cold_starts, r.sessions_expired, r.sessions_killed
    );
    println!(
        "queue: peak_depth={} max_deficit_stall={}",
        r.peak_queue_depth, r.max_deficit_stall
    );
    let l = &r.sched_latency;
    println!(
        "sched latency (us): p50={} p90={} p99={} p999={} max={} mean={}",
        l.p50_us, l.p90_us, l.p99_us, l.p999_us, l.max_us, l.mean_us
    );
    println!(
        "throughput: {:.2} jobs/sec over {:.2}s ({} service events, {} sim events)",
        r.jobs_per_sec(),
        r.makespan.as_secs_f64(),
        r.events,
        r.sim_events
    );
    println!(
        "templates: lookups={} hits={}",
        run.template_lookups, run.template_hits
    );
    println!("digest: {:#018x}", r.digest());
}

fn run_serve(args: &[String]) -> i32 {
    let mut wl = ServiceWorkloadConfig::default();
    let mut cfg = ServiceConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        macro_rules! int_flag {
            ($target:expr) => {
                match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => $target = v,
                    None => {
                        eprintln!("serve: {arg} needs an integer\n{USAGE}");
                        return 2;
                    }
                }
            };
        }
        match arg.as_str() {
            "--jobs" => int_flag!(wl.jobs),
            "--tenants" => int_flag!(wl.tenants),
            "--seed" => int_flag!(wl.seed),
            "--storms" => int_flag!(wl.storms),
            "--watermark" => int_flag!(cfg.queue_watermark),
            "--quota" => int_flag!(cfg.tenant_quota),
            "--warm" => match parse_switch("serve", "--warm", it.next()) {
                Ok(v) => cfg.warm_pool = v,
                Err(code) => return code,
            },
            other => {
                eprintln!("serve: unknown flag {other}\n{USAGE}");
                return 2;
            }
        }
    }
    let sim = ServiceSim::new(cfg, generate_service_workload(&wl));
    let run = sim.run();
    println!(
        "service run: {} jobs, {} tenants, seed {}",
        wl.jobs, wl.tenants, wl.seed
    );
    print_summary(&run);
    0
}

fn run_replay(args: &[String]) -> i32 {
    let mut scenario: Option<String> = None;
    let mut seed = 1u64;
    let mut out: Option<String> = None;
    let mut chrome: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for s in &scenarios::SCENARIOS {
                    println!("{:<14} {}", s.name, s.description);
                }
                return 0;
            }
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("service-replay: --seed needs an integer\n{USAGE}");
                    return 2;
                }
            },
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => {
                    eprintln!("service-replay: --out needs a path\n{USAGE}");
                    return 2;
                }
            },
            "--chrome" => match it.next() {
                Some(v) => chrome = Some(v.clone()),
                None => {
                    eprintln!("service-replay: --chrome needs a path\n{USAGE}");
                    return 2;
                }
            },
            name if !name.starts_with('-') && scenario.is_none() => {
                scenario = Some(name.to_string());
            }
            other => {
                eprintln!("service-replay: unknown flag {other}\n{USAGE}");
                return 2;
            }
        }
    }
    let Some(name) = scenario else {
        eprintln!("service-replay: a scenario name is required\n{USAGE}");
        return 2;
    };
    let (trace, _run) = match scenarios::run_recorded(&name, seed) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("service-replay: {e}\n{USAGE}");
            return 2;
        }
    };
    if let Err(e) = trace.check_spans() {
        eprintln!("service-replay: span check failed: {e}");
        return 1;
    }
    let text = trace.render_text();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("service-replay: cannot write {path}: {e}");
                return 2;
            }
        }
        None => print!("{text}"),
    }
    if let Some(path) = &chrome {
        if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
            eprintln!("service-replay: cannot write {path}: {e}");
            return 2;
        }
    }
    0
}

/// Runs the service CLI over pre-split arguments **including** the
/// subcommand word (`serve` or `service-replay`). Returns the process
/// exit code.
pub fn run_cli(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("serve") => run_serve(&args[1..]),
        Some("service-replay") => run_replay(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_is_an_unknown_flag() {
        let args: Vec<String> = ["serve", "--shards", "4"].map(String::from).into();
        assert_eq!(run_cli(&args), 2);
    }
}
