//! The `trace` CLI, fronted by `swift-sql-shell trace ...`.
//!
//! ```text
//! trace <scenario> [--seed N] [--out FILE] [--chrome FILE] [--metrics]
//!                  [--counters] [--lean] [--stream]
//! trace diff A B
//! trace --list
//! ```
//!
//! By default the full text trace is printed to stdout (the exact bytes
//! the golden suite pins). `--out` redirects it to a file, `--chrome`
//! additionally writes the Chrome Trace Event Format JSON, `--metrics`
//! prints the derived metrics summary instead of the raw stream,
//! `--counters` prints the counter tracks only, and `--lean` records the
//! control-plane stream only (no input reads, no Cache Worker shadow
//! model, no counter frames).
//!
//! `--stream` replaces the in-memory recording with a [`crate::StreamSink`]
//! writing directly to `--out`: a render thread renders the events and
//! flushes them in chunks as the run progresses, so peak memory is bounded
//! by the chunk and the batches in flight regardless of run length — the
//! file is byte-identical to the buffered path.
//!
//! `trace diff A B` compares two rendered trace files structurally:
//! first divergent line, per-event-kind count deltas, per-series
//! counter-track deltas. Exit 0 when identical, 1 when they differ.

use crate::recorder::RecorderConfig;
use crate::sink::StreamSink;
use crate::{diff, scenarios};

const USAGE: &str = "usage: trace <scenario> [--seed N] [--out FILE] [--chrome FILE] \
                     [--metrics] [--counters] [--lean] [--stream]\n       \
                     trace diff A B\n       trace --list";

fn run_diff(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("trace: diff takes exactly two files\n{USAGE}");
        return 2;
    };
    let read = |path: &String| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("trace: cannot read {path}: {e}");
            None
        }
    };
    let (Some(ta), Some(tb)) = (read(a), read(b)) else {
        return 2;
    };
    let report = diff::diff_texts(&ta, &tb);
    print!("{}", diff::render(&report, a, b));
    i32::from(!report.identical)
}

/// Runs the trace CLI over pre-split arguments (everything after the
/// `trace` word). Returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("diff") {
        return run_diff(&args[1..]);
    }

    let mut scenario: Option<String> = None;
    let mut seed = 1u64;
    let mut out: Option<String> = None;
    let mut chrome: Option<String> = None;
    let mut metrics = false;
    let mut counters = false;
    let mut lean = false;
    let mut stream = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for s in &scenarios::SCENARIOS {
                    println!(
                        "{:<10} {:>2} machines x {}  {}",
                        s.name, s.machines, s.executors_per_machine, s.description
                    );
                }
                return 0;
            }
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("trace: --seed needs an integer\n{USAGE}");
                    return 2;
                }
            },
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => {
                    eprintln!("trace: --out needs a path\n{USAGE}");
                    return 2;
                }
            },
            "--chrome" => match it.next() {
                Some(v) => chrome = Some(v.clone()),
                None => {
                    eprintln!("trace: --chrome needs a path\n{USAGE}");
                    return 2;
                }
            },
            "--metrics" => metrics = true,
            "--counters" => counters = true,
            "--lean" => lean = true,
            "--stream" => stream = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            flag if flag.starts_with('-') => {
                eprintln!("trace: unknown flag {flag:?}\n{USAGE}");
                return 2;
            }
            name => {
                if scenario.replace(name.to_string()).is_some() {
                    eprintln!("trace: exactly one scenario expected\n{USAGE}");
                    return 2;
                }
            }
        }
    }

    let Some(name) = scenario else {
        eprintln!("trace: no scenario given (try --list)\n{USAGE}");
        return 2;
    };
    let cfg = if lean {
        RecorderConfig::default()
    } else {
        RecorderConfig::full()
    };

    if stream {
        let Some(path) = &out else {
            eprintln!("trace: --stream needs --out FILE\n{USAGE}");
            return 2;
        };
        if chrome.is_some() || metrics || counters {
            eprintln!(
                "trace: --stream writes the text stream only (no --chrome/--metrics/--counters)\n\
                 {USAGE}"
            );
            return 2;
        }
        let sink = match StreamSink::create(path, &name, seed) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("trace: cannot create {path}: {e}");
                return 1;
            }
        };
        let Some((sink, _report)) = scenarios::run_traced_sink(&name, seed, cfg, sink) else {
            eprintln!(
                "trace: unknown scenario {name:?}; known: {}",
                scenarios::names().join(", ")
            );
            return 2;
        };
        match sink.finish() {
            Ok(stats) => {
                eprintln!(
                    "trace: streamed {} events ({} bytes, peak buffer {} bytes) to {path}",
                    stats.events, stats.bytes_written, stats.peak_buffer_bytes
                );
                return 0;
            }
            Err(e) => {
                eprintln!("trace: stream to {path} failed: {e}");
                return 1;
            }
        }
    }

    let Some((trace, report)) = scenarios::run_traced(&name, seed, cfg) else {
        eprintln!(
            "trace: unknown scenario {name:?}; known: {}",
            scenarios::names().join(", ")
        );
        return 2;
    };

    if let Some(path) = &chrome {
        if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
            eprintln!("trace: cannot write {path}: {e}");
            return 1;
        }
        eprintln!("trace: wrote chrome export to {path}");
    }

    let text = trace.render_text();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("trace: cannot write {path}: {e}");
                return 1;
            }
            eprintln!(
                "trace: wrote {} events ({} bytes) to {path}",
                trace.len(),
                text.len()
            );
        }
        None if !metrics && !counters => print!("{text}"),
        None => {}
    }

    if counters {
        print!("{}", trace.render_counters_text());
    }
    if metrics {
        let m = trace.metrics(scenarios::schedule_overhead());
        print!("{}", m.render_text());
        println!(
            "report makespan_us={} idle_ratio={:.6} (trace-derived values above must match)",
            report.makespan.as_micros(),
            report.idle_ratio()
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_is_an_unknown_flag() {
        let args: Vec<String> = ["tiny", "--shards", "4"].map(String::from).into();
        assert_eq!(run_cli(&args), 2);
    }
}
