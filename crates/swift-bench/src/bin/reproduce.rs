//! Reproduces the paper's tables and figures.
//!
//! `reproduce [ID ...]` runs the named experiments (all of them when no id
//! is given), prints each one's cells and summary numbers and writes its
//! series to `experiments/*.tsv`. Exit 0 on success, 1 on an I/O error
//! (printed with its path), 2 on an unknown id.

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use swift_bench::experiments::{self, IDS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() {
        IDS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    if let Some(bad) = ids.iter().find(|id| !IDS.contains(id)) {
        eprintln!(
            "unknown figure id `{bad}`\nusage: reproduce [ID ...]\nids: {}",
            IDS.join(" ")
        );
        return ExitCode::from(2);
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("error: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for figure in experiments::run(&ids) {
        print!("{}", figure.render());
        for table in &figure.tables {
            let path = dir.join(table.file);
            if let Err(e) = fs::write(&path, table.tsv()) {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}
