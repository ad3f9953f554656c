//! The shared diagnostics engine: error codes, severities, spans,
//! suppression accounting and human/machine rendering.
//!
//! The plan/DAG validator ([`crate::plan`]: `SW100`–`SW108` plus `SW110`)
//! and the `.dag` suppression check ([`crate::dagfile`]: `SW009`) emit
//! [`Diagnostic`]s through this module so CLI output, suppression handling
//! and exit-code policy are identical everywhere the analyzer is embedded
//! (the `swift-analyze` binary, `swift-cli analyze`, and the chaos
//! pre-flight).

use std::fmt;

/// Every diagnostic the analyzer can produce. A code is never reused:
/// `SW001`–`SW008` and `SW109` are retired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// A `.dag` file's `swift-analyze: allow(SWxxx)` suppression that
    /// matched no diagnostic — stale after the underlying finding was
    /// fixed, or mistargeted. Not itself suppressible.
    SW009,
    /// DAG fails basic structural validation (cycle, self-loop,
    /// duplicate edge, zero tasks, unknown stage, parse error).
    SW100,
    /// A stage is not assigned to exactly one graphlet.
    SW101,
    /// A pipeline edge crosses graphlets (only barrier edges may).
    SW102,
    /// The graphlet quotient graph is cyclic (scheduler would deadlock).
    SW103,
    /// A graphlet's gang exceeds the declared cluster size (degrades to
    /// wave-mode scheduling).
    SW104,
    /// Shuffle scheme choice inconsistent with the adaptive thresholds.
    SW105,
    /// Recovery plan references a task version the ledger never saw, or a
    /// superseded version with no regeneration scheduled.
    SW106,
    /// Direct Shuffle selected on a barrier edge (barrier data must be
    /// staged in a Cache Worker).
    SW107,
    /// Recovery plan structurally malformed (abort with work attached,
    /// unsorted/duplicate rerun set, out-of-bounds task references).
    SW108,
    /// A plan instantiated from the scheduling-template cache diverges
    /// from from-scratch planning (partition, unit plan or scheme
    /// priors), or the cache misses on an identical rebuild of a job (its
    /// shape key depends on something other than the shape).
    SW110,
}

impl Code {
    /// All codes, in numeric order.
    pub const ALL: [Code; 11] = [
        Code::SW009,
        Code::SW100,
        Code::SW101,
        Code::SW102,
        Code::SW103,
        Code::SW104,
        Code::SW105,
        Code::SW106,
        Code::SW107,
        Code::SW108,
        Code::SW110,
    ];

    /// Stable textual name (`"SW100"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::SW009 => "SW009",
            Code::SW100 => "SW100",
            Code::SW101 => "SW101",
            Code::SW102 => "SW102",
            Code::SW103 => "SW103",
            Code::SW104 => "SW104",
            Code::SW105 => "SW105",
            Code::SW106 => "SW106",
            Code::SW107 => "SW107",
            Code::SW108 => "SW108",
            Code::SW110 => "SW110",
        }
    }

    /// Parses `"SW104"` (case-insensitive) back into a code.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL
            .iter()
            .copied()
            .find(|c| c.as_str().eq_ignore_ascii_case(s.trim()))
    }

    /// Default severity. Everything is an error except gang-size overflow
    /// (which the scheduler tolerates by degrading to wave mode) and
    /// unused suppressions (hygiene; both fail a `--deny-warnings` run).
    pub fn severity(self) -> Severity {
        match self {
            Code::SW104 | Code::SW009 => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description for `--list-codes` and the README table.
    pub fn description(self) -> &'static str {
        match self {
            Code::SW009 => "swift-analyze: allow(...) suppression that matched no diagnostic",
            Code::SW100 => {
                "malformed DAG (cycle, self-loop, duplicate edge, zero tasks, parse error)"
            }
            Code::SW101 => "stage not assigned to exactly one graphlet",
            Code::SW102 => "pipeline edge crosses graphlets",
            Code::SW103 => "graphlet quotient graph is cyclic",
            Code::SW104 => "graphlet gang exceeds declared cluster size (wave-mode degradation)",
            Code::SW105 => "shuffle scheme inconsistent with adaptive thresholds",
            Code::SW106 => "recovery plan references an unknown or superseded task version",
            Code::SW107 => "Direct Shuffle on a barrier edge (data must be staged)",
            Code::SW108 => "recovery plan structurally malformed",
            Code::SW110 => "template-instantiated plan diverges from from-scratch planning",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but tolerated (exit 0 unless `--deny-warnings`).
    Warning,
    /// Definite violation; the analyzer exits non-zero.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where a diagnostic points. `line == 0` means "the whole object" (used
/// for in-memory domain objects that have no source text).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// File path, or a logical name like `dag:tpch-q9` for in-memory
    /// objects.
    pub file: String,
    /// 1-based line; 0 = whole object.
    pub line: u32,
}

impl Span {
    /// Span covering a whole in-memory object.
    pub fn object(name: impl Into<String>) -> Span {
        Span {
            file: name.into(),
            line: 0,
        }
    }

    /// Span at `file:line`.
    pub fn at(file: impl Into<String>, line: u32) -> Span {
        Span {
            file: file.into(),
            line,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            f.write_str(&self.file)
        } else {
            write!(f, "{}:{}", self.file, self.line)
        }
    }
}

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: Code,
    /// Severity (normally [`Code::severity`]).
    pub severity: Severity,
    /// Where.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic with the code's default severity.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
        }
    }

    /// Renders the rustc-style human form.
    pub fn render_human(&self) -> String {
        format!(
            "{}[{}]: {}\n  --> {}",
            self.severity, self.code, self.message, self.span
        )
    }

    /// Renders one machine-readable JSON object (no external deps, so the
    /// encoder is hand-rolled; strings are escaped per RFC 8259).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.code,
            self.severity,
            escape_json(&self.span.file),
            self.span.line,
            escape_json(&self.message)
        )
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Accumulated result of an analyzer run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics silenced by `swift-analyze: allow(...)` comments.
    pub suppressed: usize,
    /// Domain objects (DAGs, partitions, plans) checked.
    pub objects_checked: usize,
}

impl Report {
    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
        self.suppressed += other.suppressed;
        self.objects_checked += other.objects_checked;
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether the run should fail: any error, or any warning when
    /// `deny_warnings` is set.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.error_count() > 0 || (deny_warnings && self.warning_count() > 0)
    }

    /// Sorts diagnostics by span then code, for stable output.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.span, a.code, &a.message).cmp(&(&b.span, b.code, &b.message)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_have_metadata() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
            assert!(!c.description().is_empty());
        }
        assert_eq!(Code::parse("sw104"), Some(Code::SW104));
        assert_eq!(Code::parse("SW999"), None);
        assert_eq!(
            Code::parse("SW004"),
            None,
            "retired source-lint codes stay gone"
        );
    }

    #[test]
    fn only_gang_overflow_and_unused_allows_are_warnings() {
        for c in Code::ALL {
            let expect = if c == Code::SW104 || c == Code::SW009 {
                Severity::Warning
            } else {
                Severity::Error
            };
            assert_eq!(c.severity(), expect, "{c}");
        }
    }

    #[test]
    fn human_and_json_rendering() {
        let d = Diagnostic::new(
            Code::SW107,
            Span::at("fixtures/dags/direct.dag", 7),
            "Direct Shuffle on a barrier edge",
        );
        assert_eq!(
            d.render_human(),
            "error[SW107]: Direct Shuffle on a barrier edge\n  --> fixtures/dags/direct.dag:7"
        );
        assert_eq!(
            d.render_json(),
            "{\"code\":\"SW107\",\"severity\":\"error\",\"file\":\"fixtures/dags/direct.dag\",\
             \"line\":7,\"message\":\"Direct Shuffle on a barrier edge\"}"
        );
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let d = Diagnostic::new(Code::SW100, Span::object("x"), "bad \"name\"\nline");
        assert!(d.render_json().contains("bad \\\"name\\\"\\nline"));
    }

    #[test]
    fn object_spans_render_without_line() {
        assert_eq!(Span::object("dag:tpch-q9").to_string(), "dag:tpch-q9");
        assert_eq!(Span::at("f.rs", 3).to_string(), "f.rs:3");
    }

    #[test]
    fn report_failure_policy() {
        let mut r = Report::default();
        assert!(!r.failed(true));
        r.diagnostics
            .push(Diagnostic::new(Code::SW104, Span::object("g"), "big gang"));
        assert!(!r.failed(false));
        assert!(r.failed(true));
        r.diagnostics.push(Diagnostic::new(
            Code::SW101,
            Span::object("g"),
            "unassigned",
        ));
        assert!(r.failed(false));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
    }
}
