//! # swift-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation (§V), plus ablations
//! of the design choices called out in DESIGN.md, as one function each in
//! [`experiments`]. A function returns a [`Figure`] and does no I/O: its
//! tables hold the cells exactly as `experiments/*.tsv` stores them, and a
//! few named summary numbers carry the figure's headline. The root test
//! `tests/paper_shapes.rs` asserts the paper's shapes on those values; the
//! `reproduce` binary prints them and writes the TSVs.
//!
//! Reproduce one figure, several, or (no ids) all of them with e.g.
//! `cargo run --release -p swift-bench --bin reproduce -- fig09a`.

#![warn(missing_docs)]

pub mod experiments;

use std::fmt::Write;

/// One table of a figure: the contents of one TSV file.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// File name under `experiments/`.
    pub file: &'static str,
    /// Column names.
    pub headers: &'static [&'static str],
    /// Data rows, each cell exactly as the TSV writes it.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// The TSV text: the header line, then one tab-separated line per row.
    pub fn tsv(&self) -> String {
        let mut out = self.headers.join("\t");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }

    /// The cells of column `header` parsed as numbers. Panics if the
    /// column does not exist or holds a cell that is not a number.
    pub fn column(&self, header: &str) -> Vec<f64> {
        let i = self
            .headers
            .iter()
            .position(|h| *h == header)
            .unwrap_or_else(|| panic!("{} has no column {header}", self.file));
        self.rows
            .iter()
            .map(|row| {
                row[i].parse().unwrap_or_else(|_| {
                    panic!("{} {header}: {:?} is not a number", self.file, row[i])
                })
            })
            .collect()
    }

    /// The row whose first cell is `key`. Panics if there is none.
    pub fn row(&self, key: &str) -> &[String] {
        self.rows
            .iter()
            .find(|row| row[0] == key)
            .unwrap_or_else(|| panic!("{} has no row {key}", self.file))
    }
}

/// What one experiment measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Figure {
    /// The id `reproduce` takes, e.g. `fig09a`.
    pub id: &'static str,
    /// What the paper shows and reports.
    pub claim: &'static str,
    /// Its series, one per TSV file.
    pub tables: Vec<Table>,
    /// Named headline numbers, e.g. a total speedup.
    pub summary: Vec<(String, f64)>,
}

/// Tables longer than this print their size instead of their cells.
const PRINTED_ROWS: usize = 30;

impl Figure {
    /// The summary number `name`. Panics if the figure has none.
    pub fn value(&self, name: &str) -> f64 {
        self.summary
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{} has no summary value {name}", self.id))
            .1
    }

    /// The table written to `file`. Panics if the figure has none.
    pub fn table(&self, file: &str) -> &Table {
        self.tables
            .iter()
            .find(|t| t.file == file)
            .unwrap_or_else(|| panic!("{} has no table {file}", self.id))
    }

    /// The text `reproduce` prints: the claim, each table's cells in
    /// aligned columns (or its row count when it is a plotting series),
    /// and the summary numbers.
    pub fn render(&self) -> String {
        let mut out = format!("== {}: {}\n", self.id, self.claim);
        for table in &self.tables {
            let _ = writeln!(out, "  {} ({} rows)", table.file, table.rows.len());
            if table.rows.len() > PRINTED_ROWS {
                continue;
            }
            let mut widths: Vec<usize> = table.headers.iter().map(|h| h.len()).collect();
            for row in &table.rows {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            let heads = table.headers.iter().map(|h| h.to_string());
            for cells in std::iter::once(heads.collect()).chain(table.rows.iter().cloned()) {
                let line: Vec<String> = cells
                    .iter()
                    .zip(&widths)
                    .map(|(c, w)| format!("{c:>w$}"))
                    .collect();
                let _ = writeln!(out, "    {}", line.join("  "));
            }
        }
        for (name, value) in &self.summary {
            let _ = writeln!(out, "  {name} = {value:.4}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure() -> Figure {
        Figure {
            id: "demo",
            claim: "a claim",
            tables: vec![Table {
                file: "demo.tsv",
                headers: &["a", "bee"],
                rows: vec![vec!["1".into(), "2".into()], vec!["x".into(), "4.5".into()]],
            }],
            summary: vec![("total".into(), 2.5)],
        }
    }

    #[test]
    fn tables_render_as_tsv_and_read_back() {
        let fig = figure();
        let table = fig.table("demo.tsv");
        assert_eq!(table.tsv(), "a\tbee\n1\t2\nx\t4.5\n");
        assert_eq!(table.column("bee"), [2.0, 4.5]);
        assert_eq!(table.row("x"), ["x", "4.5"]);
        assert_eq!(fig.value("total"), 2.5);
    }

    #[test]
    fn render_prints_cells_and_summary() {
        assert_eq!(
            figure().render(),
            "== demo: a claim\n  demo.tsv (2 rows)\n    a  bee\n    1    2\n    x  4.5\n  total = 2.5000\n"
        );
    }
}
