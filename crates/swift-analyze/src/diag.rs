//! The shared diagnostics engine: error codes, severities, spans,
//! suppression accounting and human/machine rendering.
//!
//! Both passes — the source lints ([`crate::source`]: `SW001`–`SW006`
//! plus `SW109`) and the plan/DAG validator ([`crate::plan`]:
//! `SW100`–`SW108` plus `SW110`) — emit [`Diagnostic`]s
//! through this module so CLI output, suppression handling and exit-code
//! policy are identical everywhere the analyzer is embedded (the
//! `swift-analyze` binary, `swift-cli analyze`, and the chaos pre-flight).

use std::fmt;

/// Every diagnostic the analyzer can produce. `SW001`–`SW006` and
/// `SW109` come from the source-lint pass, `SW100`–`SW108` and `SW110`
/// from the plan/DAG validator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Wall-clock time source (`Instant::now`, `SystemTime`) in a
    /// sim-facing crate.
    SW001,
    /// `std::thread` use in a sim-facing crate.
    SW002,
    /// Environment read (`env::var*`) in a sim-facing crate.
    SW003,
    /// Iteration over a `HashMap`/`HashSet` in a determinism-sensitive
    /// crate (must sort or use an ordered collection).
    SW004,
    /// Randomness that does not flow through `SimRng`.
    SW005,
    /// Address/pointer-based ordering or keying.
    SW006,
    /// An order-tainted value (produced by unordered iteration, a wall
    /// clock, an env read or pointer ordering — possibly laundered through
    /// bindings, method chains or helper returns) reaches a determinism
    /// sink: event scheduling, a digest/hash update or trace emission.
    /// The diagnostic carries the source→sink step trace.
    SW007,
    /// Shared mutable state (interior mutability: `Mutex`, `RwLock`,
    /// `RefCell`, `Cell`, `UnsafeCell`, atomics — or a `static mut`-like
    /// global) declared in a crate on the `Simulation` step path. Such
    /// state can change behind a shared reference, outside event order,
    /// and a global outlives the run: a seed replayed in the same process
    /// (as the chaos harness does) would start from the last run's state.
    SW008,
    /// A `swift-analyze: allow(SWxxx)` suppression that matched no
    /// diagnostic — stale after the underlying finding was fixed, or
    /// mistargeted. Not itself suppressible.
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
    /// Float summation over unordered iteration in report aggregation
    /// (a pass-1 source lint, numbered after the validators it was added
    /// behind): float addition is not associative, so summing over a
    /// `HashMap`/`HashSet` changes the aggregate bitwise run-to-run even
    /// when the visited *set* is identical.
    SW109,
    /// A plan instantiated from the scheduling-template cache diverges
    /// from from-scratch planning (partition, unit plan or scheme
    /// priors), or the cache misses on an identical rebuild of a job (its
    /// shape key depends on something other than the shape).
    SW110,
}

impl Code {
    /// All codes, in numeric order.
    pub const ALL: [Code; 20] = [
        Code::SW001,
        Code::SW002,
        Code::SW003,
        Code::SW004,
        Code::SW005,
        Code::SW006,
        Code::SW007,
        Code::SW008,
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
        Code::SW109,
        Code::SW110,
    ];

    /// Stable textual name (`"SW001"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::SW001 => "SW001",
            Code::SW002 => "SW002",
            Code::SW003 => "SW003",
            Code::SW004 => "SW004",
            Code::SW005 => "SW005",
            Code::SW006 => "SW006",
            Code::SW007 => "SW007",
            Code::SW008 => "SW008",
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
            Code::SW109 => "SW109",
            Code::SW110 => "SW110",
        }
    }

    /// Parses `"SW004"` (case-insensitive) back into a code.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL
            .iter()
            .copied()
            .find(|c| c.as_str().eq_ignore_ascii_case(s.trim()))
    }

    /// Default severity. Everything is an error except gang-size overflow
    /// (which the scheduler tolerates by degrading to wave mode) and
    /// unused suppressions (hygiene, escalated by `--deny-unused-allows`).
    pub fn severity(self) -> Severity {
        match self {
            Code::SW104 | Code::SW009 => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description for `--list-codes` and the README table.
    pub fn description(self) -> &'static str {
        match self {
            Code::SW001 => "wall-clock time source (Instant/SystemTime) in a sim-facing crate",
            Code::SW002 => "std::thread use in a sim-facing crate",
            Code::SW003 => "environment read (env::var*) in a sim-facing crate",
            Code::SW004 => "HashMap/HashSet iteration in a determinism-sensitive crate",
            Code::SW005 => "randomness not drawn from SimRng",
            Code::SW006 => "address/pointer-based ordering or keying",
            Code::SW007 => {
                "order-tainted value reaches a determinism sink (scheduling, digest, trace)"
            }
            Code::SW008 => "shared mutable state (interior mutability/static) on the sim step path",
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
            Code::SW109 => {
                "float summation over unordered HashMap/HashSet iteration (order-dependent result)"
            }
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
    /// Source files scanned by pass 1.
    pub files_scanned: usize,
    /// Domain objects (DAGs, partitions, plans) checked by pass 2.
    pub objects_checked: usize,
}

impl Report {
    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
        self.suppressed += other.suppressed;
        self.files_scanned += other.files_scanned;
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
        assert_eq!(Code::parse("sw004"), Some(Code::SW004));
        assert_eq!(Code::parse("SW999"), None);
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
            Code::SW001,
            Span::at("crates/swift-sim/src/lib.rs", 7),
            "Instant::now() in sim code",
        );
        assert_eq!(
            d.render_human(),
            "error[SW001]: Instant::now() in sim code\n  --> crates/swift-sim/src/lib.rs:7"
        );
        assert_eq!(
            d.render_json(),
            "{\"code\":\"SW001\",\"severity\":\"error\",\"file\":\"crates/swift-sim/src/lib.rs\",\
             \"line\":7,\"message\":\"Instant::now() in sim code\"}"
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
