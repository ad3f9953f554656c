//! `swift-sql-shell` — an interactive SQL shell over the Swift engine,
//! preloaded with the TPC-H-style catalog.
//!
//! ```sh
//! cargo run -p swift-cli --release            # interactive
//! cargo run -p swift-cli --release -- --sf 4 "select count(*) as n from tpch_lineitem"
//! ```
//!
//! Shell commands:
//! * `\t` / `\tables` — list tables
//! * `\d <table>` — describe a table
//! * `\plan <sql>` — show the stage DAG and graphlet partitioning
//! * `\sort on|off` — toggle the sort-merge planner mode (Fig. 4 plans)
//! * `\q` — quit
//!
//! The binary also fronts the run tracer:
//! * `swift-sql-shell trace <scenario> --seed N [--out FILE] [--chrome FILE]`
//!   (see `trace --list` for the scenario registry)

use std::io::{BufRead, Write};
use swift_dag::partition;
use swift_engine::{Engine, Row, Value};
use swift_sql::{compile, run_sql, PlanOptions};
use swift_workload::generate_catalog;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `swift-sql-shell trace <scenario> ...` delegates to the swift-trace
    // CLI: deterministic scenario runs dumped as text or Chrome JSON.
    if raw.first().map(String::as_str) == Some("trace") {
        std::process::exit(swift_trace::run_cli(&raw[1..]));
    }
    // `swift-sql-shell serve ...` / `swift-sql-shell service-replay ...`
    // delegate to the swift-service CLI: the multi-tenant front door and
    // its scenario replayer (the subcommand word is part of the args).
    if matches!(
        raw.first().map(String::as_str),
        Some("serve") | Some("service-replay")
    ) {
        std::process::exit(swift_service::run_cli(&raw));
    }
    let mut args = raw.into_iter();
    let mut sf = 2u32;
    let mut one_shot: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sf" => {
                sf = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--sf needs a positive integer"));
            }
            "--help" | "-h" => {
                println!("usage: swift-sql-shell [--sf N] [SQL]");
                println!("       swift-sql-shell trace <scenario> [swift-trace flags]");
                println!("       swift-sql-shell serve [swift-service flags]");
                println!("       swift-sql-shell service-replay <scenario> [swift-service flags]");
                return;
            }
            sql => one_shot = Some(sql.to_string()),
        }
    }

    let engine = Engine::new(generate_catalog(sf, 42));
    let mut opts = PlanOptions::default();

    if let Some(sql) = one_shot {
        execute(&engine, &sql, &opts);
        return;
    }

    println!("swift-sql-shell — TPC-H catalog at micro scale factor {sf}");
    println!("type SQL, or \\tables, \\d <table>, \\plan <sql>, \\sort on|off, \\q");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("swift> ");
        } else {
            print!("   ..> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            match shell_command(&engine, trimmed, &mut opts) {
                ShellOutcome::Quit => break,
                ShellOutcome::Handled => continue,
            }
        }
        buffer.push_str(&line);
        if trimmed.ends_with(';') || trimmed.is_empty() && !buffer.trim().is_empty() {
            let sql = std::mem::take(&mut buffer);
            if !sql.trim().is_empty() {
                execute(&engine, &sql, &opts);
            }
        }
    }
}

enum ShellOutcome {
    Quit,
    Handled,
}

fn shell_command(engine: &Engine, cmd: &str, opts: &mut PlanOptions) -> ShellOutcome {
    let mut parts = cmd.splitn(2, ' ');
    match parts.next().unwrap_or("") {
        "\\q" | "\\quit" => return ShellOutcome::Quit,
        "\\t" | "\\tables" => {
            for t in engine.catalog().table_names() {
                let rows = engine.catalog().get(t).map_or(0, |t| t.rows.len());
                println!("  {t} ({rows} rows)");
            }
        }
        "\\d" => {
            let Some(name) = parts.next() else {
                println!("usage: \\d <table>");
                return ShellOutcome::Handled;
            };
            match engine.catalog().get(name.trim()) {
                Some(t) => {
                    for f in t.schema.fields() {
                        println!("  {f}");
                    }
                }
                None => println!("unknown table {name}"),
            }
        }
        "\\plan" => {
            let Some(sql) = parts.next() else {
                println!("usage: \\plan <sql>");
                return ShellOutcome::Handled;
            };
            match compile(sql, engine.catalog(), 1, opts) {
                Ok(job) => {
                    print!("{}", job.dag.render());
                    let p = partition(&job.dag);
                    println!("graphlets: {}", p.len());
                    for g in p.graphlets() {
                        let names: Vec<&str> = g
                            .stages
                            .iter()
                            .map(|&s| job.dag.stage(s).name.as_str())
                            .collect();
                        println!("  {:?}: {names:?}", g.id);
                    }
                }
                Err(e) => println!("{e}"),
            }
        }
        "\\sort" => {
            match parts.next().map(str::trim) {
                Some("on") => opts.prefer_sort = true,
                Some("off") => opts.prefer_sort = false,
                _ => println!("usage: \\sort on|off"),
            }
            println!(
                "sort-merge planner mode: {}",
                if opts.prefer_sort { "on" } else { "off" }
            );
        }
        other => println!("unknown command {other}; try \\tables, \\d, \\plan, \\sort, \\q"),
    }
    ShellOutcome::Handled
}

fn execute(engine: &Engine, sql: &str, opts: &PlanOptions) {
    let start = std::time::Instant::now();
    match run_sql(engine, sql, opts) {
        Ok((cols, rows)) => {
            print_result(&cols, &rows);
            println!(
                "({} rows in {:.3}s)",
                rows.len(),
                start.elapsed().as_secs_f64()
            );
        }
        Err(e) => println!("error: {e}"),
    }
}

fn print_result(cols: &[String], rows: &[Row]) {
    let fmt = |v: &Value| match v {
        Value::Float(f) => format!("{f:.4}"),
        other => other.to_string(),
    };
    let mut widths: Vec<usize> = cols.iter().map(String::len).collect();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .take(200)
        .map(|r| r.iter().map(fmt).collect())
        .collect();
    for row in &rendered {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", joined.join(" | "));
    };
    line(&cols.iter().map(String::clone).collect::<Vec<_>>());
    println!(
        "  {}",
        "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len())
    );
    for row in &rendered {
        line(row);
    }
    if rows.len() > 200 {
        println!("  ... ({} more rows)", rows.len() - 200);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
