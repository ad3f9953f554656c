//! # swift-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§V), each
//! printing the regenerated rows/series next to the paper's reported
//! values, plus ablation binaries for the design choices called out in
//! DESIGN.md. Shared setup (clusters, trace → workload conversion,
//! tabular output) lives here.
//!
//! Run an experiment with e.g.
//! `cargo run --release -p swift-bench --bin fig09a_tpch`.

#![warn(missing_docs)]

use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use swift_cluster::{Cluster, CostModel};
use swift_scheduler::JobSpec;
use swift_workload::TraceJob;

/// The paper's 100-node cluster (§V-A), with 32 pre-launched executors per
/// machine (the paper runs "dozens or hundreds" per machine).
pub fn cluster_100() -> Cluster {
    Cluster::new(100, 32, CostModel::default())
}

/// The paper's 2 000-node cluster (§V-A).
pub fn cluster_2000() -> Cluster {
    Cluster::new(2_000, 32, CostModel::default())
}

/// Converts trace jobs to scheduler job specs. The DAGs are shared
/// (`Arc` refcount bumps), not deep-copied, so converting a 2 000-job
/// trace — or converting the same trace once per policy under test —
/// costs nothing beyond the spec vector itself.
pub fn to_specs(trace: &[TraceJob]) -> Vec<JobSpec> {
    trace
        .iter()
        .map(|t| JobSpec {
            dag: t.dag.clone(),
            submit_at: t.submit_at,
        })
        .collect()
}

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table<H: Display, C: Display>(headers: &[H], rows: &[Vec<C>]) {
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = head.iter().map(String::len).collect();
    for row in &data {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let cols: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", cols.join("  "));
    };
    line(&head);
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in &data {
        line(row);
    }
}

/// Where experiment outputs (TSV series for plotting) are written.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes rows as a TSV file under `experiments/`, returning the path.
pub fn write_tsv<C: Display>(name: &str, headers: &[&str], rows: &[Vec<C>]) -> PathBuf {
    let path = experiments_dir().join(name);
    let mut f = fs::File::create(&path).expect("create experiment output");
    writeln!(f, "{}", headers.join("\t")).unwrap();
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| c.to_string()).collect();
        writeln!(f, "{}", cells.join("\t")).unwrap();
    }
    println!("  [series written to {}]", path.display());
    path
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, what: &str, paper: &str) {
    println!("== {id}: {what}");
    println!("   paper reports: {paper}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_have_expected_sizes() {
        assert_eq!(cluster_100().executor_count(), 3_200);
        assert_eq!(cluster_100().machine_count(), 100);
        assert_eq!(cluster_2000().executor_count(), 64_000);
    }

    #[test]
    fn tsv_writes_and_parses_back() {
        let p = write_tsv("test_output.tsv", &["a", "b"], &[vec![1, 2], vec![3, 4]]);
        let content = std::fs::read_to_string(&p).unwrap();
        assert_eq!(content, "a\tb\n1\t2\n3\t4\n");
        let _ = std::fs::remove_file(p);
    }
}
