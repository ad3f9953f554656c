//! Command-line driver for seeded chaos campaigns.
//!
//! ```text
//! swift-chaos [--seeds N] [--campaign task|machine|mixed|fault-free|service] [--start-seed S]
//!             [--quiet] [--trace-on-failure]
//! ```
//!
//! Exits non-zero if any seed violates an invariant, printing each
//! offending seed with its violations and a self-contained repro command.
//! The summary reports the scheduling-template cache's lookups and hits.
//! With `--trace-on-failure`, every failing seed is replayed once more
//! under a `swift-trace` recorder and the full event trace is written to
//! `swift-chaos-<campaign>-<seed>.trace` in the current directory.

use std::process::ExitCode;

use swift_chaos::{
    execute_service_traced, execute_traced_sink_with, repro_command, run_campaign, CampaignKind,
};
use swift_scheduler::RecoveryPolicy;
use swift_trace::{RecorderConfig, StreamSink};

struct Args {
    seeds: u64,
    start_seed: u64,
    campaign: CampaignKind,
    quiet: bool,
    trace_on_failure: bool,
}

const USAGE: &str = "usage: swift-chaos [--seeds N] \
                     [--campaign task|machine|mixed|fault-free|service] \
                     [--start-seed S] [--quiet] [--trace-on-failure]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 25,
        start_seed: 1,
        campaign: CampaignKind::Mixed,
        quiet: false,
        trace_on_failure: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--start-seed" => {
                args.start_seed = value("--start-seed")?.parse().map_err(|e| format!("{e}"))?
            }
            "--campaign" => args.campaign = value("--campaign")?.parse()?,
            "--quiet" | "-q" => args.quiet = true,
            "--trace-on-failure" => args.trace_on_failure = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swift-chaos: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "swift-chaos: campaign={} seeds={}..{}",
        args.campaign,
        args.start_seed,
        args.start_seed.saturating_add(args.seeds).saturating_sub(1),
    );

    let report = run_campaign(args.start_seed, args.seeds, args.campaign, |outcome| {
        if !args.quiet {
            let status = if outcome.clean() { "ok" } else { "FAIL" };
            println!(
                "  seed {:>6}  jobs {:>2}  faults {:>2}  plans {:>3}  reads {:>6}  {status}",
                outcome.seed,
                outcome.jobs,
                outcome.faults,
                outcome.plans_checked,
                outcome.reads_checked
            );
        }
    });

    println!(
        "swift-chaos: {} seeds, {} jobs, {} faults injected, {} recovery plans checked, \
         {} shuffle reads checked",
        report.seeds_run,
        report.jobs_run,
        report.faults_injected,
        report.plans_checked,
        report.reads_checked
    );
    println!(
        "swift-chaos: template cache: {} lookups, {} hits ({:.1}% hit rate)",
        report.template_lookups,
        report.template_hits,
        100.0 * report.template_hits as f64 / report.template_lookups.max(1) as f64
    );

    if report.clean() {
        println!("swift-chaos: all invariants held");
        return ExitCode::SUCCESS;
    }

    for outcome in &report.failures {
        eprintln!(
            "\nseed {} violated {} invariant(s):",
            outcome.seed,
            outcome.violations.len()
        );
        for v in &outcome.violations {
            eprintln!("  - {v}");
        }
        eprintln!("  repro: {}", repro_command(outcome.seed, outcome.kind));
        if args.trace_on_failure {
            // Stream the forensics replay straight to disk: a failing
            // seed may be a long run, and the chunked sink bounds peak
            // memory while producing bytes identical to the buffered
            // render.
            let path = format!("swift-chaos-{}-{}.trace", outcome.kind, outcome.seed);
            let scenario = format!("chaos-{}", outcome.kind);
            if outcome.kind == CampaignKind::Service {
                // Service seeds replay under the swift-service recorder
                // (buffered: service traces are admission-scale, not
                // event-scale, so streaming buys nothing).
                let (_, trace) = execute_service_traced(outcome.seed);
                match std::fs::write(&path, trace.render_text()) {
                    Ok(()) => eprintln!("  trace: {path} ({} events)", trace.events.len()),
                    Err(e) => eprintln!("  trace: failed to write {path}: {e}"),
                }
                continue;
            }
            match StreamSink::create(&path, &scenario, outcome.seed) {
                Ok(sink) => {
                    let (_, sink) = execute_traced_sink_with(
                        outcome.seed,
                        outcome.kind,
                        RecoveryPolicy::FineGrained,
                        RecorderConfig::full(),
                        sink,
                    );
                    match sink.finish() {
                        Ok(stats) => eprintln!(
                            "  trace: {path} ({} events, {} bytes, peak buffer {} bytes)",
                            stats.events, stats.bytes_written, stats.peak_buffer_bytes
                        ),
                        Err(e) => eprintln!("  trace: failed to write {path}: {e}"),
                    }
                }
                Err(e) => eprintln!("  trace: failed to create {path}: {e}"),
            }
        }
    }
    eprintln!(
        "\nswift-chaos: {} of {} seeds FAILED",
        report.failures.len(),
        report.seeds_run
    );
    ExitCode::FAILURE
}
