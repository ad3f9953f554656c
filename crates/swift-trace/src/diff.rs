//! `trace diff`: structural comparison of two rendered trace files.
//!
//! Works on the stable text format (v4), so it can compare traces
//! produced by any sink — in-memory render, streamed file, chaos
//! `--trace-on-failure` dump — without re-running anything. Reports the
//! first divergent line, per-event-kind count deltas, and per-series
//! counter-track aggregate deltas (counters summed over windows, gauges
//! at their final value), which localizes "what changed between these two
//! runs" far faster than eyeballing a byte diff.

use std::collections::BTreeMap;

use swift_metrics::SeriesKind;

use crate::TEXT_FORMAT_VERSION;

/// Result of comparing two rendered traces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffReport {
    /// Whether the inputs are byte-identical (line-wise).
    pub identical: bool,
    /// 1-based line number and the two lines at the first divergence;
    /// a side is `None` when that input ended early.
    pub first_divergence: Option<(usize, Option<String>, Option<String>)>,
    /// Event-line counts (header/footer lines excluded).
    pub events: (u64, u64),
    /// Per-event-kind counts that differ: `(kind, a, b)`.
    pub kind_deltas: Vec<(String, u64, u64)>,
    /// Per-series counter-track aggregates that differ:
    /// `(series, "total" | "last", a, b)`.
    pub series_deltas: Vec<(String, &'static str, u64, u64)>,
}

#[derive(Default)]
struct Summary {
    events: u64,
    kinds: BTreeMap<String, u64>,
    series: BTreeMap<&'static str, (&'static str, u64)>,
}

fn summarize(text: &str) -> Summary {
    let mut s = Summary::default();
    // Series IDs are numbered per format version: read under this build's
    // vocabulary, another version's `sN=` values would name the wrong
    // series, so only the current version's counter tracks are summed.
    let current = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("# swift-trace v"))
        .is_some_and(|v| v.parse() == Ok(TEXT_FORMAT_VERSION));
    for line in text.lines() {
        let t = line.trim_start();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut tok = t.split_whitespace();
        let _ts = tok.next();
        let Some(kind) = tok.next() else { continue };
        s.events += 1;
        *s.kinds.entry(kind.to_string()).or_insert(0) += 1;
        if kind != "counters" || !current {
            continue;
        }
        for kv in tok {
            let Some(rest) = kv.strip_prefix('s') else {
                continue; // the window=N field
            };
            let Some((id, v)) = rest.split_once('=') else {
                continue;
            };
            let (Ok(id), Ok(v)) = (id.parse::<u16>(), v.parse::<u64>()) else {
                continue;
            };
            let Some(d) = swift_metrics::series_def(id) else {
                continue;
            };
            match d.kind {
                SeriesKind::Counter => {
                    s.series.entry(d.name).or_insert(("total", 0)).1 += v;
                }
                SeriesKind::Gauge => {
                    s.series.insert(d.name, ("last", v));
                }
            }
        }
    }
    s
}

/// Compares two rendered trace texts.
pub fn diff_texts(a: &str, b: &str) -> DiffReport {
    let mut first_divergence = None;
    let mut la = a.lines();
    let mut lb = b.lines();
    let mut lineno = 0usize;
    loop {
        lineno += 1;
        match (la.next(), lb.next()) {
            (None, None) => break,
            (x, y) if x == y => continue,
            (x, y) => {
                first_divergence = Some((lineno, x.map(String::from), y.map(String::from)));
                break;
            }
        }
    }

    let sa = summarize(a);
    let sb = summarize(b);

    let mut kind_deltas = Vec::new();
    let kinds: std::collections::BTreeSet<&String> =
        sa.kinds.keys().chain(sb.kinds.keys()).collect();
    for k in kinds {
        let ca = sa.kinds.get(k).copied().unwrap_or(0);
        let cb = sb.kinds.get(k).copied().unwrap_or(0);
        if ca != cb {
            kind_deltas.push((k.clone(), ca, cb));
        }
    }

    let mut series_deltas = Vec::new();
    let names: std::collections::BTreeSet<&&str> =
        sa.series.keys().chain(sb.series.keys()).collect();
    for name in names {
        let (agg_a, va) = sa.series.get(*name).copied().unwrap_or(("total", 0));
        let (agg_b, vb) = sb.series.get(*name).copied().unwrap_or((agg_a, 0));
        if va != vb {
            series_deltas.push((name.to_string(), agg_b, va, vb));
        }
    }

    DiffReport {
        identical: first_divergence.is_none(),
        first_divergence,
        events: (sa.events, sb.events),
        kind_deltas,
        series_deltas,
    }
}

/// Renders the report for terminal output.
pub fn render(r: &DiffReport, label_a: &str, label_b: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if r.identical {
        let _ = writeln!(out, "traces identical ({} events)", r.events.0);
        return out;
    }
    let _ = writeln!(out, "traces differ: {label_a} vs {label_b}");
    let _ = writeln!(out, "  events: {} vs {}", r.events.0, r.events.1);
    if let Some((line, a, b)) = &r.first_divergence {
        let _ = writeln!(out, "  first divergence at line {line}:");
        let _ = writeln!(out, "    a: {}", a.as_deref().unwrap_or("<end of input>"));
        let _ = writeln!(out, "    b: {}", b.as_deref().unwrap_or("<end of input>"));
    }
    if !r.kind_deltas.is_empty() {
        let _ = writeln!(out, "  event kinds differing:");
        for (k, a, b) in &r.kind_deltas {
            let _ = writeln!(out, "    {k}: {a} vs {b}");
        }
    }
    if !r.series_deltas.is_empty() {
        let _ = writeln!(out, "  counter series differing:");
        for (name, agg, a, b) in &r.series_deltas {
            let _ = writeln!(out, "    {name}: {agg} {a} vs {b}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "# swift-trace v4\n# scenario=x seed=1\n\
                     0 job_submitted job=0\n\
                     10 counters window=0 s1=5 s13=8\n\
                     20 run_finished events=9\n\
                     # events=3\n";

    #[test]
    fn identical_inputs() {
        let r = diff_texts(A, A);
        assert!(r.identical);
        assert_eq!(r.events, (3, 3));
        assert!(r.kind_deltas.is_empty());
        assert!(r.series_deltas.is_empty());
    }

    #[test]
    fn divergence_is_localized() {
        let b = A.replace("s1=5", "s1=7").replace("events=9", "events=11");
        let r = diff_texts(A, &b);
        assert!(!r.identical);
        let (line, la, lb) = r.first_divergence.clone().unwrap();
        assert_eq!(line, 4);
        assert!(la.unwrap().contains("s1=5"));
        assert!(lb.unwrap().contains("s1=7"));
        // sim.events is a counter: totals 5 vs 7.
        assert_eq!(
            r.series_deltas,
            vec![("sim.events".to_string(), "total", 5, 7)]
        );
        assert!(r.kind_deltas.is_empty());
    }

    #[test]
    fn other_versions_counter_tracks_are_not_read() {
        let a = A.replace("v4", "v3");
        let r = diff_texts(&a, &a.replace("s1=5", "s1=7"));
        assert!(!r.identical);
        assert!(r.series_deltas.is_empty());
    }

    #[test]
    fn missing_tail_reports_end_of_input() {
        let b = "# swift-trace v4\n# scenario=x seed=1\n0 job_submitted job=0\n";
        let r = diff_texts(A, b);
        assert!(!r.identical);
        let (line, _, lb) = r.first_divergence.clone().unwrap();
        assert_eq!(line, 4);
        assert!(lb.is_none());
        assert_eq!(r.events, (3, 1));
        assert_eq!(r.kind_deltas.len(), 2); // counters, run_finished
    }
}
