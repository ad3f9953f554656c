//! The determinism taint engine — dataflow-aware pass 1.
//!
//! An intra-procedural analysis with cross-function summaries
//! ([`crate::summary`]) propagating an *order-taint* lattice over each
//! function body:
//!
//! * **Sources**: iteration of an unordered container (`HashMap`/
//!   `HashSet`, seen through transparent wrappers like
//!   `Mutex<HashMap<..>>`), wall-clock reads (`Instant::now`), environment
//!   reads, foreign randomness (`thread_rng`, `RandomState`), and
//!   pointer/address casts.
//! * **Propagation**: through `let` bindings and re-bindings, method
//!   chains (`m.lock().unwrap().iter()`), iterator adapters, `for` loops
//!   and helper-function returns (via summaries).
//! * **Cleansing**: `collect` into an ordered-by-construction container
//!   (`BTreeMap`/`BTreeSet`/`BinaryHeap`), a subsequent `sort*()` on the
//!   binding, or an order-insensitive fold (`count`, `len`, `max`/`min`,
//!   integer `sum`). `collect::<Vec<_>>` *preserves* nondeterministic
//!   order and therefore keeps the taint.
//! * **Sinks**: event scheduling (`schedule*`), digest/hash updates
//!   (`eat`/`update`/`mix`), trace/observer emission (`record`, `emit`,
//!   `on_*` hooks) and float accumulation.
//!
//! Diagnostics:
//!
//! * **SW004** — unordered iteration whose order survives (not
//!   immediately neutralized). Deferred while attached to a binding so a
//!   later `sort()` can cancel it.
//! * **SW007** — an order-tainted value reaches a determinism sink; the
//!   message carries the source→sink step trace.
//! * **SW109** — order-tainted float accumulation (float addition is not
//!   associative), subsumed into the same dataflow engine.
//! * **SW008** — shared-state lint: interior mutability (`Mutex`,
//!   `RefCell`, atomics, ...) or `static mut`-like globals declared on
//!   the `Simulation` step path, where a mutation can escape event order
//!   or outlive the run it belongs to.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Code;
use crate::parse::{
    classify_type, is_interior_mutable, match_delim, type_text, FnItem, ParsedFile, Tok, TypeClass,
};
use crate::summary::{PreparedFile, Summaries};

/// One finding before suppression resolution (0-based line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RawDiag {
    pub(crate) line: u32,
    pub(crate) code: Code,
    pub(crate) msg: String,
}

/// One provenance step of a taint trace.
#[derive(Debug, Clone)]
struct Step {
    line: u32,
    what: String,
}

/// A deferred SW004: unordered iteration awaiting neutralization.
#[derive(Debug, Clone)]
struct Pending {
    line: u32,
    name: String,
}

/// The per-value lattice element.
#[derive(Debug, Clone, Default)]
struct Taint {
    /// The value *is* an unordered container (iterating it is a source).
    container: bool,
    /// The value's content/order already depends on nondeterministic
    /// iteration order or another nondeterministic source.
    tainted: bool,
    /// Name of the container/binding the taint originated from.
    origin: Option<String>,
    /// Source→here provenance for SW007 messages.
    steps: Vec<Step>,
    /// Deferred SW004s carried by this value.
    pendings: Vec<Pending>,
}

impl Taint {
    fn clean() -> Taint {
        Taint::default()
    }

    fn interesting(&self) -> bool {
        self.container || self.tainted
    }

    fn join(&mut self, other: Taint) {
        self.container |= other.container;
        self.tainted |= other.tainted;
        if self.origin.is_none() {
            self.origin = other.origin;
        }
        if self.steps.is_empty() {
            self.steps = other.steps;
        }
        self.pendings.extend(other.pendings);
    }

    fn step(&mut self, line: u32, what: impl Into<String>) {
        if self.steps.len() < 8 {
            self.steps.push(Step {
                line,
                what: what.into(),
            });
        }
    }

    fn origin_name(&self) -> &str {
        self.origin.as_deref().unwrap_or("value")
    }

    fn trace(&self) -> String {
        self.steps
            .iter()
            .map(|s| format!("{} (line {})", s.what, s.line + 1))
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// Iteration methods that expose unordered-container order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_keys",
    "into_values",
];

/// Methods that hand back the same container through a wrapper.
const CONTAINER_KEEP: [&str; 10] = [
    "lock",
    "borrow",
    "borrow_mut",
    "read",
    "write",
    "unwrap",
    "expect",
    "as_ref",
    "as_mut",
    "clone",
];

/// Order-insensitive reductions: the result does not depend on visit
/// order, so they neutralize the taint (and any deferred SW004).
const ORDER_INSENSITIVE: [&str; 12] = [
    "count",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "max",
    "min",
    "max_by_key",
    "min_by_key",
    "max_by",
    "min_by",
    "all",
];

/// In-place sorts that make a tainted order deterministic.
const SORT_METHODS: [&str; 6] = [
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Determinism sinks: feeding them order-tainted data (or calling them
/// inside order-tainted iteration) makes runs diverge. `on_*` observer
/// hooks are matched by prefix. The last three are the telemetry
/// surface (`Registry::sample`, `Histogram::observe`,
/// `TraceMetrics::record_window`): series values land in byte-pinned
/// counter tracks, so hash-order data poisons goldens just like a
/// misordered event.
const SINKS: [&str; 15] = [
    "schedule",
    "schedule_in",
    "schedule_now",
    "schedule_at",
    "push_event",
    "eat",
    "update",
    "write_u64",
    "mix",
    "record",
    "emit",
    "push_span",
    "sample",
    "observe",
    "record_window",
];

/// Std-ish method names that must never resolve through workspace fn
/// summaries (a workspace `fn keys()` must not taint `BTreeMap::keys`).
fn is_std_like(name: &str) -> bool {
    ITER_METHODS.contains(&name)
        || CONTAINER_KEEP.contains(&name)
        || ORDER_INSENSITIVE.contains(&name)
        || SORT_METHODS.contains(&name)
        || matches!(
            name,
            "get"
                | "get_mut"
                | "insert"
                | "remove"
                | "push"
                | "pop"
                | "clear"
                | "extend"
                | "entry"
                | "map"
                | "filter"
                | "filter_map"
                | "flat_map"
                | "flatten"
                | "copied"
                | "cloned"
                | "collect"
                | "sum"
                | "product"
                | "fold"
                | "rev"
                | "enumerate"
                | "zip"
                | "chain"
                | "take"
                | "skip"
                | "next"
                | "find"
                | "position"
                | "last"
                | "nth"
                | "any"
        )
}

/// Keywords that can never start an expression chain.
fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "let"
            | "mut"
            | "ref"
            | "move"
            | "if"
            | "else"
            | "match"
            | "for"
            | "while"
            | "loop"
            | "in"
            | "as"
            | "break"
            | "continue"
            | "return"
            | "where"
            | "unsafe"
            | "fn"
            | "pub"
            | "use"
            | "impl"
            | "struct"
            | "enum"
            | "trait"
            | "mod"
            | "static"
            | "const"
            | "type"
            | "dyn"
            | "crate"
            | "super"
            | "true"
            | "false"
            | "_"
    )
}

fn is_float_ty(ty: &str) -> bool {
    matches!(ty.trim(), "f32" | "f64")
}

fn is_int_ty(ty: &str) -> bool {
    matches!(
        ty.trim(),
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

fn is_float_literal(text: &str) -> bool {
    text.chars().next().is_some_and(|c| c.is_ascii_digit()) && text.contains('.')
}

/// What `collect()` into a given target type does to order taint.
enum CollectClass {
    /// `BTreeMap`/`BTreeSet`/`BinaryHeap`: order re-derived from keys —
    /// cleanses.
    Reordering,
    /// `HashMap`/`HashSet`: order destroyed, container again.
    Unordered,
    /// `Vec`/`VecDeque`/`String`: nondeterministic order preserved.
    Preserving,
    /// Unknown target: conservatively keep the taint.
    Opaque,
}

fn collect_class(ty: Option<&str>) -> CollectClass {
    let Some(ty) = ty else {
        return CollectClass::Opaque;
    };
    match classify_head(ty) {
        Some("BTreeMap") | Some("BTreeSet") | Some("BinaryHeap") => CollectClass::Reordering,
        Some("HashMap") | Some("HashSet") => CollectClass::Unordered,
        Some("Vec") | Some("VecDeque") | Some("String") => CollectClass::Preserving,
        _ => CollectClass::Opaque,
    }
}

/// Last path segment before generics of a type text.
fn classify_head(ty: &str) -> Option<&'static str> {
    for head in [
        "BTreeMap",
        "BTreeSet",
        "BinaryHeap",
        "HashMap",
        "HashSet",
        "VecDeque",
        "Vec",
        "String",
    ] {
        let base = ty.split('<').next().unwrap_or(ty);
        if base
            .split("::")
            .last()
            .map(str::trim)
            .is_some_and(|s| s == head)
        {
            return Some(head);
        }
    }
    None
}

/// Runs SW008 (shared state) plus the per-function taint walk over one
/// prepared file; returns raw findings (0-based lines).
pub(crate) fn taint_file(file: &PreparedFile, summaries: &Summaries) -> Vec<RawDiag> {
    let mut out = Vec::new();
    shared_state(&file.parsed, &file.mask, &mut out);
    for f in &file.parsed.fns {
        if file.mask.get(f.line as usize).copied().unwrap_or(false) {
            continue;
        }
        let Some(body) = f.body else { continue };
        let mut w = Walker::new(&file.parsed, summaries);
        w.walk_fn(f, body);
        out.extend(w.out);
    }
    // One finding per (line, code): the deferred-pending mechanism can
    // surface the same iteration site via both the escaping value and the
    // end-of-fn sweep.
    out.sort_by(|a, b| {
        (a.line, a.code.as_str())
            .cmp(&(b.line, b.code.as_str()))
            .then_with(|| a.msg.cmp(&b.msg))
    });
    out.dedup_by(|a, b| a.line == b.line && a.code == b.code);
    out
}

/// Summary-mode entry: does taint reach `f`'s returned value?
pub(crate) fn fn_returns_tainted(
    parsed: &ParsedFile,
    f: &FnItem,
    body: (usize, usize),
    summaries: &Summaries,
) -> bool {
    let mut w = Walker::new(parsed, summaries);
    w.walk_fn(f, body);
    w.returns_tainted
}

/// SW008: interior mutability and `static mut`-like globals. A run is a
/// pure function of its seed only if every mutation on the step path
/// goes through `&mut` in event order and dies with the run.
fn shared_state(parsed: &ParsedFile, mask: &[bool], out: &mut Vec<RawDiag>) {
    for s in &parsed.statics {
        if mask.get(s.line as usize).copied().unwrap_or(false) {
            continue;
        }
        if s.is_mut || is_interior_mutable(&s.ty) {
            out.push(RawDiag {
                line: s.line,
                code: Code::SW008,
                msg: format!(
                    "static `{}: {}` is shared mutable state on the simulation step path; it \
                     outlives the run, so a seed replayed in the same process starts from the \
                     last run's state — keep it in per-run state instead",
                    s.name, s.ty
                ),
            });
        }
    }
    for line in &parsed.thread_locals {
        if mask.get(*line as usize).copied().unwrap_or(false) {
            continue;
        }
        out.push(RawDiag {
            line: *line,
            code: Code::SW008,
            msg: "thread_local! state on the simulation step path outlives the run and breaks \
                  same-process replay; keep it in per-run state instead"
                .to_string(),
        });
    }
    for (name, tys) in &parsed.fields {
        let lines = parsed.field_lines.get(name).cloned().unwrap_or_default();
        for (ty, line) in tys.iter().zip(lines) {
            if mask.get(line as usize).copied().unwrap_or(false) {
                continue;
            }
            if is_interior_mutable(ty) {
                out.push(RawDiag {
                    line,
                    code: Code::SW008,
                    msg: format!(
                        "field `{name}: {ty}` uses interior mutability on the simulation step \
                         path; it can change behind a shared reference, outside event order — \
                         prefer `&mut` threading"
                    ),
                });
            }
        }
    }
}

/// The intra-procedural walker.
struct Walker<'a> {
    parsed: &'a ParsedFile,
    summaries: &'a Summaries,
    vars: BTreeMap<String, Taint>,
    floats: BTreeSet<String>,
    /// Stack of `for` contexts; `Some` when the loop iterates in
    /// nondeterministic order.
    loops: Vec<Option<Taint>>,
    ret_ty: Option<String>,
    returns_tainted: bool,
    out: Vec<RawDiag>,
}

impl<'a> Walker<'a> {
    fn new(parsed: &'a ParsedFile, summaries: &'a Summaries) -> Walker<'a> {
        Walker {
            parsed,
            summaries,
            vars: BTreeMap::new(),
            floats: BTreeSet::new(),
            loops: Vec::new(),
            ret_ty: None,
            returns_tainted: false,
            out: Vec::new(),
        }
    }

    fn toks(&self) -> &'a [Tok] {
        &self.parsed.toks
    }

    fn emit(&mut self, line: u32, code: Code, msg: String) {
        self.out.push(RawDiag { line, code, msg });
    }

    fn emit_pendings(&mut self, taint: &mut Taint) {
        for p in taint.pendings.drain(..) {
            self.out.push(RawDiag {
                line: p.line,
                code: Code::SW004,
                msg: format!(
                    "iterating unordered `{}` — iteration order is nondeterministic; sort first \
                     or use BTreeMap/BTreeSet",
                    p.name
                ),
            });
        }
    }

    fn tainted_loop(&self) -> Option<&Taint> {
        self.loops.iter().rev().flatten().next()
    }

    fn walk_fn(&mut self, f: &FnItem, body: (usize, usize)) {
        self.ret_ty = f.ret.clone();
        for (name, ty) in &f.params {
            let mut t = Taint::clean();
            if classify_type(ty) == TypeClass::Unordered {
                t.container = true;
                t.origin = Some(name.clone());
                t.step(f.line, format!("unordered parameter `{name}`"));
            }
            if is_float_ty(ty) {
                self.floats.insert(name.clone());
            }
            self.vars.insert(name.clone(), t);
        }
        self.walk_block(body.0, body.1, true);
        // Deferred SW004s never neutralized by a later sort.
        let mut leftovers: Vec<Pending> = Vec::new();
        for t in self.vars.values() {
            if t.tainted {
                leftovers.extend(t.pendings.iter().cloned());
            }
        }
        for p in leftovers {
            self.emit(
                p.line,
                Code::SW004,
                format!(
                    "iterating unordered `{}` — iteration order is nondeterministic; sort first \
                     or use BTreeMap/BTreeSet",
                    p.name
                ),
            );
        }
    }

    /// Walks the statements between `open` (a `{`) and its matching
    /// `close`.
    fn walk_block(&mut self, open: usize, close: usize, fn_level: bool) {
        let toks = self.toks();
        let mut i = open + 1;
        while i < close {
            let t = &toks[i];
            match t.text.as_str() {
                ";" => i += 1,
                "let" => i = self.let_stmt(i, close),
                "for" => i = self.for_stmt(i, close),
                "return" => {
                    let (e, _) = self.stmt_end(i + 1, close);
                    let mut taint = self.eval_expr(i + 1, e, self.ret_ty.clone());
                    self.emit_pendings(&mut taint);
                    if taint.interesting() {
                        self.returns_tainted = true;
                    }
                    i = e + 1;
                }
                "if" | "while" | "match" | "loop" => {
                    // Evaluate the head (condition/scrutinee), then walk
                    // the block generically.
                    let mut j = i + 1;
                    while j < close && !toks[j].is("{") {
                        if ["(", "["].contains(&toks[j].text.as_str()) {
                            j = match_delim(toks, j);
                        }
                        j += 1;
                    }
                    let mut head = self.eval_expr(i + 1, j, None);
                    self.emit_pendings(&mut head);
                    if j < close {
                        let end = match_delim(toks, j);
                        self.walk_block(j, end, false);
                        i = end + 1;
                    } else {
                        i = j;
                    }
                }
                "else" | "unsafe" => i += 1,
                "{" => {
                    let end = match_delim(toks, i);
                    self.walk_block(i, end, false);
                    i = end + 1;
                }
                _ => i = self.generic_stmt(i, close, fn_level),
            }
        }
    }

    /// Scans to the end of a statement starting at `i`: the index of the
    /// terminating `;` (false) or of a block-opening `{` (true).
    fn stmt_end(&self, mut i: usize, close: usize) -> (usize, bool) {
        let toks = self.toks();
        while i < close {
            match toks[i].text.as_str() {
                ";" => return (i, false),
                "{" => return (i, true),
                "(" | "[" => i = match_delim(toks, i) + 1,
                _ => i += 1,
            }
        }
        (close, false)
    }

    /// Like [`stmt_end`] but blocks inside the statement (match/if RHS)
    /// are skipped over instead of terminating it — used for `let` whose
    /// initializer may contain blocks.
    fn stmt_end_skip_blocks(&self, mut i: usize, close: usize) -> usize {
        let toks = self.toks();
        while i < close {
            match toks[i].text.as_str() {
                ";" => return i,
                "(" | "[" | "{" => i = match_delim(toks, i) + 1,
                _ => i += 1,
            }
        }
        close
    }

    fn let_stmt(&mut self, let_idx: usize, close: usize) -> usize {
        let toks = self.toks();
        let stmt_close = self.stmt_end_skip_blocks(let_idx + 1, close);
        // Pattern names up to `:` or `=` (tuple patterns bind every name).
        let mut names: Vec<String> = Vec::new();
        let mut j = let_idx + 1;
        let mut annot: Option<String> = None;
        while j < stmt_close && !toks[j].is("=") {
            if toks[j].is(":") {
                // Annotation runs to the `=` (or statement end).
                let mut k = j + 1;
                let mut depth = 0i64;
                while k < stmt_close {
                    match toks[k].text.as_str() {
                        "=" if depth == 0 => break,
                        "<" | "(" | "[" => depth += 1,
                        ">" | ")" | "]" => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                annot = Some(type_text(&toks[j + 1..k]));
                j = k;
                continue;
            }
            if toks[j].is_word && !is_keyword(&toks[j].text) {
                names.push(toks[j].text.clone());
            }
            j += 1;
        }
        let mut taint = if j < stmt_close && toks[j].is("=") {
            self.eval_expr(j + 1, stmt_close, annot.clone())
        } else {
            Taint::clean()
        };
        if let Some(ty) = &annot {
            if classify_type(ty) == TypeClass::Unordered {
                taint.container = true;
            }
            if is_float_ty(ty) {
                for n in &names {
                    self.floats.insert(n.clone());
                }
            }
        }
        // `let mut total = 0.0;` — float accumulator by literal.
        if j + 2 == stmt_close && is_float_literal(&toks[j + 1].text) {
            for n in &names {
                self.floats.insert(n.clone());
            }
        }
        if names.is_empty() {
            // `let _ = ...`: nothing to defer the finding onto.
            self.emit_pendings(&mut taint);
        }
        for name in &names {
            let mut t = taint.clone();
            if t.interesting() {
                if t.origin.is_none() {
                    t.origin = Some(name.clone());
                }
                if t.tainted {
                    t.step(toks[let_idx].line, format!("bound to `{name}`"));
                }
            }
            self.vars.insert(name.clone(), t);
        }
        stmt_close + 1
    }

    fn for_stmt(&mut self, for_idx: usize, close: usize) -> usize {
        let toks = self.toks();
        // Pattern until top-level `in`.
        let mut j = for_idx + 1;
        let mut pat_names: Vec<String> = Vec::new();
        while j < close && !toks[j].is("in") {
            if toks[j].is("(") || toks[j].is("[") {
                // Collect names inside tuple patterns too.
                j += 1;
                continue;
            }
            if toks[j].is_word && !is_keyword(&toks[j].text) {
                pat_names.push(toks[j].text.clone());
            }
            j += 1;
        }
        let expr_start = j + 1;
        let mut k = expr_start;
        while k < close && !toks[k].is("{") {
            if ["(", "["].contains(&toks[k].text.as_str()) {
                k = match_delim(toks, k);
            }
            k += 1;
        }
        let mut taint = self.eval_expr(expr_start, k, None);
        let expr_line = toks
            .get(expr_start)
            .map(|t| t.line)
            .unwrap_or(toks[for_idx].line);
        if taint.container {
            // Iterating the container directly (`for x in &m`).
            let name = taint.origin_name().to_string();
            self.emit(
                expr_line,
                Code::SW004,
                format!(
                    "`for _ in {name}` iterates an unordered collection; sort first or use \
                     BTreeMap/BTreeSet"
                ),
            );
            taint.tainted = true;
            taint.step(expr_line, format!("unordered iteration of `{name}`"));
        }
        self.emit_pendings(&mut taint);
        let loop_ctx = taint.interesting().then_some(taint);
        self.loops.push(loop_ctx);
        for n in &pat_names {
            self.vars.insert(n.clone(), Taint::clean());
        }
        let ret = if k < close {
            let end = match_delim(toks, k);
            self.walk_block(k, end, false);
            end + 1
        } else {
            k
        };
        self.loops.pop();
        ret
    }

    fn generic_stmt(&mut self, i: usize, close: usize, fn_level: bool) -> usize {
        let toks = self.toks();
        // `name op= expr` — float accumulation inside unordered iteration
        // is SW109 even without an explicit `.sum()`.
        if toks[i].is_word
            && toks
                .get(i + 1)
                .is_some_and(|t| ["+", "-", "*", "/"].contains(&t.text.as_str()))
            && toks.get(i + 2).is_some_and(|t| t.is("="))
            && self.floats.contains(&toks[i].text)
        {
            if let Some(lt) = self.tainted_loop() {
                let trace = lt.trace();
                self.emit(
                    toks[i].line,
                    Code::SW109,
                    format!(
                        "float accumulation into `{}` inside nondeterministic iteration ({trace}) \
                         — addition order changes the aggregate bitwise; iterate in sorted order",
                        toks[i].text
                    ),
                );
            }
        }
        // Plain re-assignment `name = expr` rebinds the taint.
        if toks[i].is_word
            && !is_keyword(&toks[i].text)
            && toks.get(i + 1).is_some_and(|t| t.is("="))
            && !toks.get(i + 2).is_some_and(|t| t.is("="))
            && self.vars.contains_key(&toks[i].text)
        {
            let stmt_close = self.stmt_end_skip_blocks(i + 2, close);
            let taint = self.eval_expr(i + 2, stmt_close, None);
            self.vars.insert(toks[i].text.clone(), taint);
            return stmt_close + 1;
        }
        let (e, is_block) = self.stmt_end(i, close);
        let trailing = fn_level && e == close && !is_block;
        let expected = if trailing { self.ret_ty.clone() } else { None };
        let mut taint = self.eval_expr(i, e, expected);
        self.emit_pendings(&mut taint);
        if trailing && taint.interesting() {
            self.returns_tainted = true;
        }
        if is_block {
            let end = match_delim(toks, e);
            self.walk_block(e, end, false);
            end + 1
        } else {
            e + 1
        }
    }

    /// Evaluates an expression token range: finds every chain, applies
    /// transfer functions, joins the results.
    fn eval_expr(&mut self, start: usize, end: usize, expected: Option<String>) -> Taint {
        let toks = self.toks();
        let mut result = Taint::clean();
        let mut i = start;
        while i < end.min(toks.len()) {
            let t = &toks[i];
            if t.is_word && !is_keyword(&t.text) {
                if toks.get(i + 1).is_some_and(|n| n.is("!")) {
                    // Macro invocation: evaluate the contents, propagate.
                    if toks
                        .get(i + 2)
                        .is_some_and(|d| ["(", "[", "{"].contains(&d.text.as_str()))
                    {
                        let close = match_delim(toks, i + 2);
                        let inner = self.eval_expr(i + 3, close, None);
                        result.join(inner);
                        i = close + 1;
                        continue;
                    }
                    i += 2;
                    continue;
                }
                let (taint, next) = self.eval_chain(i, end, expected.as_deref());
                result.join(taint);
                i = next.max(i + 1);
                continue;
            }
            // `x as *const T as usize` — address-derived value.
            if t.is("as") && toks.get(i + 1).is_some_and(|n| n.is("*")) {
                result.tainted = true;
                result.step(t.line, "address cast (`as *const _`)".to_string());
                i += 2;
                continue;
            }
            i += 1;
        }
        result
    }

    /// Splits a call's argument tokens at top-level commas and evaluates
    /// each argument.
    fn eval_args(&mut self, start: usize, end: usize) -> Vec<Taint> {
        let toks = self.toks();
        let mut out = Vec::new();
        let mut seg_start = start;
        let mut i = start;
        while i < end {
            match toks[i].text.as_str() {
                "(" | "[" | "{" => i = match_delim(toks, i) + 1,
                "," => {
                    out.push(self.eval_expr(seg_start, i, None));
                    i += 1;
                    seg_start = i;
                }
                _ => i += 1,
            }
        }
        if seg_start < end {
            out.push(self.eval_expr(seg_start, end, None));
        }
        out
    }

    /// Fires SW007 if a sink is fed tainted data or called inside
    /// order-tainted iteration.
    fn check_sink(&mut self, name: &str, line: u32, args: &[Taint]) {
        let is_sink = SINKS.contains(&name) || name.starts_with("on_");
        if !is_sink {
            return;
        }
        if let Some(t) = args.iter().find(|t| t.tainted) {
            let trace = t.trace();
            self.emit(
                line,
                Code::SW007,
                format!(
                    "order-tainted value reaches determinism sink `{name}` — taint path: {trace} \
                     → sink `{name}` (line {}); make the order deterministic (sort or an ordered \
                     container) before it reaches the sink",
                    line + 1
                ),
            );
            return;
        }
        if let Some(lt) = self.tainted_loop() {
            let trace = lt.trace();
            self.emit(
                line,
                Code::SW007,
                format!(
                    "determinism sink `{name}` called inside iteration with nondeterministic \
                     order — taint path: {trace} → sink `{name}` (line {}); iterate in sorted \
                     order so sink calls are deterministic",
                    line + 1
                ),
            );
        }
    }

    /// Evaluates one chain starting at an identifier token. Returns the
    /// resulting taint and the index just past the chain.
    fn eval_chain(&mut self, start: usize, end: usize, expected: Option<&str>) -> (Taint, usize) {
        let toks = self.toks();
        // Head path.
        let mut segs: Vec<String> = vec![toks[start].text.clone()];
        let mut i = start + 1;
        while i + 1 < end && toks[i].is("::") {
            if toks[i + 1].is("<") {
                i = match_delim(toks, i + 1) + 1;
                continue;
            }
            if toks[i + 1].is_word {
                segs.push(toks[i + 1].text.clone());
                i += 2;
            } else {
                break;
            }
        }
        let head_line = toks[start].line;
        let mut state;
        let mut base_ident: Option<String> = None;
        let mut method_count = 0usize;
        if i < end && toks[i].is("(") {
            let close = match_delim(toks, i);
            let args = self.eval_args(i + 1, close);
            let name = segs.last().cloned().unwrap_or_default();
            self.check_sink(&name, head_line, &args);
            state = self.head_call(&segs, &args, head_line);
            i = close + 1;
        } else {
            state = self.path_value(&segs);
            if segs.len() == 1 {
                base_ident = Some(segs[0].clone());
            }
        }
        // Suffix chain.
        while i < end.min(toks.len()) {
            match toks[i].text.as_str() {
                "." => {
                    let Some(name_tok) = toks.get(i + 1) else {
                        break;
                    };
                    if !name_tok.is_word {
                        break;
                    }
                    let name = name_tok.text.clone();
                    let line = name_tok.line;
                    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                        // Tuple index: keep state.
                        i += 2;
                        continue;
                    }
                    let mut k = i + 2;
                    let mut turbofish: Option<String> = None;
                    if toks.get(k).is_some_and(|t| t.is("::"))
                        && toks.get(k + 1).is_some_and(|t| t.is("<"))
                    {
                        let ty_end = match_delim(toks, k + 1);
                        turbofish = Some(type_text(&toks[k + 2..ty_end]));
                        k = ty_end + 1;
                    }
                    if toks.get(k).is_some_and(|t| t.is("(")) {
                        let close = match_delim(toks, k);
                        let first_arg_text = toks.get(k + 1).map(|t| t.text.clone());
                        let args = self.eval_args(k + 1, close);
                        self.check_sink(&name, line, &args);
                        state = self.method_transition(
                            state,
                            &name,
                            turbofish.as_deref(),
                            expected,
                            first_arg_text.as_deref(),
                            line,
                            if method_count == 0 {
                                base_ident.as_deref()
                            } else {
                                None
                            },
                        );
                        method_count += 1;
                        i = close + 1;
                    } else {
                        state = self.field_value(state, &name);
                        i = k;
                    }
                }
                "?" => i += 1,
                "[" => i = match_delim(toks, i) + 1,
                _ => break,
            }
        }
        (state, i)
    }

    /// Taint of a bare path (no call): a local variable, `self`, or an
    /// opaque path.
    fn path_value(&self, segs: &[String]) -> Taint {
        if segs.len() == 1 {
            if let Some(t) = self.vars.get(&segs[0]) {
                return t.clone();
            }
        }
        Taint::clean()
    }

    /// Taint of a head call `path::to::fn(args)`.
    fn head_call(&mut self, segs: &[String], args: &[Taint], line: u32) -> Taint {
        let last = segs.last().map(String::as_str).unwrap_or("");
        let prev = segs
            .len()
            .checked_sub(2)
            .map(|i| segs[i].as_str())
            .unwrap_or("");
        let mut t = Taint::clean();
        if (prev == "Instant" || prev == "SystemTime") && last == "now" {
            t.tainted = true;
            t.step(line, format!("wall-clock read `{prev}::now()`"));
            return t;
        }
        if prev == "env" && (last == "var" || last == "vars") {
            t.tainted = true;
            t.step(line, format!("environment read `env::{last}()`"));
            return t;
        }
        if segs.first().is_some_and(|s| s == "rand")
            || last == "thread_rng"
            || prev == "RandomState"
            || prev == "DefaultHasher"
        {
            t.tainted = true;
            t.step(line, "randomness outside SimRng".to_string());
            return t;
        }
        if segs.iter().any(|s| s == "HashMap" || s == "HashSet") {
            t.container = true;
            t.step(line, "unordered container constructed".to_string());
            return t;
        }
        if segs
            .iter()
            .any(|s| ["BTreeMap", "BTreeSet", "Vec", "VecDeque"].contains(&s.as_str()))
        {
            return t;
        }
        if segs.len() <= 2 && !is_std_like(last) {
            if let Some(s) = self.summaries.lookup(last, false) {
                if s.returns_unordered {
                    t.container = true;
                    t.origin = Some(format!("{last}()"));
                    t.step(line, format!("unordered container returned by `{last}()`"));
                } else if s.returns_tainted {
                    t.tainted = true;
                    t.origin = Some(format!("{last}()"));
                    t.step(line, format!("order-tainted return of `{last}()`"));
                }
                return t;
            }
        }
        // Unknown callee (constructor, std helper): propagate arguments.
        for a in args {
            let mut a = a.clone();
            a.container = false; // wrapping a container is not the container
            t.join(a);
        }
        t
    }

    /// Field access `recv.name`.
    fn field_value(&self, state: Taint, name: &str) -> Taint {
        if state.tainted {
            return state; // field of a tainted value stays tainted
        }
        if let Some(tys) = self.parsed.fields.get(name) {
            if tys
                .iter()
                .any(|ty| classify_type(ty) == TypeClass::Unordered)
            {
                let mut t = Taint::clean();
                t.container = true;
                t.origin = Some(name.to_string());
                return t;
            }
        }
        Taint::clean()
    }

    /// The transfer function for one method call in a chain.
    #[allow(clippy::too_many_arguments)]
    fn method_transition(
        &mut self,
        mut state: Taint,
        name: &str,
        turbofish: Option<&str>,
        expected: Option<&str>,
        first_arg: Option<&str>,
        line: u32,
        base_ident: Option<&str>,
    ) -> Taint {
        // Sorting the binding in place neutralizes its taint.
        if SORT_METHODS.contains(&name) {
            if let Some(base) = base_ident {
                if let Some(v) = self.vars.get_mut(base) {
                    v.tainted = false;
                    v.pendings.clear();
                }
            }
            state.tainted = false;
            state.pendings.clear();
            return state;
        }
        if state.container && ITER_METHODS.contains(&name) {
            let origin = state.origin_name().to_string();
            state.container = false;
            state.tainted = true;
            state.step(line, format!("unordered iteration of `{origin}`"));
            state.pendings.push(Pending { line, name: origin });
            return state;
        }
        if name == "collect" {
            let target = turbofish.or(expected);
            match collect_class(target) {
                CollectClass::Reordering => {
                    state.tainted = false;
                    state.container = false;
                    state.pendings.clear();
                }
                CollectClass::Unordered => {
                    state.tainted = false;
                    state.container = true;
                    state.pendings.clear();
                }
                CollectClass::Preserving => {
                    if state.tainted {
                        state.step(line, "collected into an order-preserving container");
                    }
                }
                CollectClass::Opaque => {}
            }
            return state;
        }
        if state.tainted && ORDER_INSENSITIVE.contains(&name) {
            return Taint::clean();
        }
        if name == "sum" || name == "product" {
            let target = turbofish.or(expected);
            if target.is_some_and(is_float_ty) {
                if state.tainted {
                    let origin = state.origin_name().to_string();
                    let trace = state.trace();
                    self.emit(
                        line,
                        Code::SW109,
                        format!(
                            "float summation over unordered `{origin}` ({trace}) — addition \
                             order changes the aggregate bitwise; collect into an ordered \
                             collection (or sort) before summing"
                        ),
                    );
                }
                state.tainted = false;
                return state;
            }
            if target.is_some_and(is_int_ty) {
                return Taint::clean();
            }
            return state;
        }
        if name == "fold" {
            if first_arg.is_some_and(is_float_literal) && state.tainted {
                let origin = state.origin_name().to_string();
                let trace = state.trace();
                self.emit(
                    line,
                    Code::SW109,
                    format!(
                        "float fold over unordered `{origin}` ({trace}) — addition order changes \
                         the aggregate bitwise; collect into an ordered collection (or sort) \
                         before folding"
                    ),
                );
                state.tainted = false;
            }
            return state;
        }
        if name == "as_ptr" {
            state.tainted = true;
            state.step(line, "pointer address taken".to_string());
            return state;
        }
        if state.container {
            if CONTAINER_KEEP.contains(&name) {
                return state;
            }
            // Value lookups (`get`, `len`, ...) do not expose order.
            return Taint::clean();
        }
        if state.tainted {
            // Iterator adapters and unknown methods keep the taint.
            return state;
        }
        // Clean receiver: resolve workspace method summaries.
        if !is_std_like(name) {
            if let Some(s) = self.summaries.lookup(name, true) {
                let mut t = Taint::clean();
                if s.returns_unordered {
                    t.container = true;
                    t.origin = Some(format!(".{name}()"));
                    t.step(line, format!("unordered container returned by `.{name}()`"));
                } else if s.returns_tainted {
                    t.tainted = true;
                    t.origin = Some(format!(".{name}()"));
                    t.step(line, format!("order-tainted return of `.{name}()`"));
                }
                return t;
            }
        }
        Taint::clean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{build_summaries, prepare};

    fn run(src: &str) -> Vec<RawDiag> {
        let file = prepare(src);
        let summaries = build_summaries(&[&file]);
        taint_file(&file, &summaries)
    }

    fn codes(diags: &[RawDiag]) -> Vec<(Code, u32)> {
        diags.iter().map(|d| (d.code, d.line + 1)).collect()
    }

    #[test]
    fn lock_chain_iteration_is_caught() {
        let src = "struct S { state: Mutex<HashMap<u64, u64>> }\n\
                   impl S {\n\
                   fn drain(&self, q: &mut Queue) {\n\
                   for (k, v) in self.state.lock().unwrap().iter() {\n\
                   q.schedule_now(Event::new(*k, *v));\n\
                   }\n\
                   }\n\
                   }\n";
        let d = run(src);
        // SW008 on the Mutex field is the shared-state lint doing its job.
        assert_eq!(
            codes(&d),
            vec![(Code::SW008, 1), (Code::SW004, 4), (Code::SW007, 5)]
        );
        assert!(
            d[2].msg.contains("unordered iteration of `state`"),
            "{}",
            d[2].msg
        );
    }

    #[test]
    fn taint_through_rebinding_reaches_sink() {
        let src = "struct S { state: Mutex<HashMap<u64, u64>> }\n\
                   fn f(s: &S, q: &mut Q) {\n\
                   let snapshot: Vec<u64> = s.state.lock().unwrap().keys().copied().collect();\n\
                   let again = snapshot;\n\
                   for k in again {\n\
                   q.schedule(k);\n\
                   }\n\
                   }\n";
        let d = run(src);
        let cs: Vec<Code> = d.iter().map(|d| d.code).collect();
        assert!(cs.contains(&Code::SW007), "{d:?}");
        assert!(cs.contains(&Code::SW004), "{d:?}");
    }

    #[test]
    fn taint_through_helper_return_reaches_sink() {
        let src = "struct S { state: Mutex<HashMap<u64, u64>> }\n\
                   impl S {\n\
                   fn hot(&self) -> Vec<u64> {\n\
                   self.state.lock().unwrap().keys().copied().collect()\n\
                   }\n\
                   fn flush(&self, q: &mut Q) {\n\
                   for k in self.hot() {\n\
                   q.schedule_in(D, k);\n\
                   }\n\
                   }\n\
                   }\n";
        let d = run(src);
        let sw007: Vec<&RawDiag> = d.iter().filter(|d| d.code == Code::SW007).collect();
        assert_eq!(sw007.len(), 1, "{d:?}");
        assert_eq!(sw007[0].line + 1, 8);
        assert!(sw007[0].msg.contains("hot"), "{}", sw007[0].msg);
    }

    #[test]
    fn collect_into_btreemap_neutralizes() {
        let src = "fn f(m: &HashMap<u32, u32>) -> BTreeMap<u32, u32> {\n\
                   m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<_, _>>()\n\
                   }\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn collect_into_annotated_btreeset_neutralizes() {
        let src = "fn f(m: &HashSet<u32>) -> usize {\n\
                   let s: BTreeSet<u32> = m.iter().copied().collect();\n\
                   s.len()\n\
                   }\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn count_and_len_neutralize() {
        let src = "fn f(m: &HashMap<u32, u32>) -> usize {\n\
                   let a = m.keys().count();\n\
                   a + m.len()\n\
                   }\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn sorted_vec_neutralizes_before_use() {
        let src = "fn f(m: &HashMap<u32, u32>, q: &mut Q) {\n\
                   let mut v: Vec<u32> = m.keys().copied().collect();\n\
                   v.sort();\n\
                   for k in v {\n\
                   q.schedule(k);\n\
                   }\n\
                   }\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn unsorted_vec_collect_still_fires_sw004() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   let v: Vec<u32> = m.keys().copied().collect();\n\
                   v\n\
                   }\n";
        let d = run(src);
        assert_eq!(codes(&d), vec![(Code::SW004, 2)]);
    }

    #[test]
    fn integer_sum_neutralizes() {
        let src = "fn f(m: &HashMap<u32, u64>) -> u64 { m.values().sum::<u64>() }\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn float_sum_fires_sw109_and_sw004() {
        let src = "struct R { per_stage: HashMap<u32, f64> }\n\
                   fn total(r: &R) -> f64 {\n\
                   r.per_stage\n\
                   .values()\n\
                   .copied()\n\
                   .sum::<f64>()\n\
                   }\n";
        let d = run(src);
        assert_eq!(codes(&d), vec![(Code::SW004, 4), (Code::SW109, 6)]);
    }

    #[test]
    fn float_accumulator_in_unordered_loop_fires_sw109() {
        let src = "fn f(m: &HashMap<u32, f64>) -> f64 {\n\
                   let mut total = 0.0;\n\
                   for (_, v) in m.iter() {\n\
                   total += v;\n\
                   }\n\
                   total\n\
                   }\n";
        let d = run(src);
        let cs: Vec<Code> = d.iter().map(|d| d.code).collect();
        assert!(cs.contains(&Code::SW109), "{d:?}");
        assert!(cs.contains(&Code::SW004), "{d:?}");
    }

    #[test]
    fn taint_without_sink_or_escape_is_only_sw004() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   m.keys().copied().collect()\n\
                   }\n";
        let d = run(src);
        assert_eq!(codes(&d), vec![(Code::SW004, 2)]);
    }

    #[test]
    fn btreemap_lock_chain_is_clean() {
        let src = "struct S { state: Mutex<BTreeMap<u64, u64>> }\n\
                   fn f(s: &S, q: &mut Q) {\n\
                   for (k, _) in s.state.lock().unwrap().iter() {\n\
                   q.schedule(*k);\n\
                   }\n\
                   }\n";
        // Only the SW008 field lint fires (Mutex); no order findings.
        let d = run(src);
        assert_eq!(codes(&d), vec![(Code::SW008, 1)]);
    }

    #[test]
    fn wall_clock_value_reaching_sink_is_sw007() {
        let src = "fn f(rec: &mut Recorder) {\n\
                   let t = Instant::now();\n\
                   rec.record(t);\n\
                   }\n";
        let d = run(src);
        assert_eq!(codes(&d), vec![(Code::SW007, 3)]);
        assert!(d[0].msg.contains("wall-clock"), "{}", d[0].msg);
    }

    #[test]
    fn interior_mutability_fields_and_statics_fire_sw008() {
        let src = "static COUNTER: AtomicU64 = AtomicU64::new(0);\n\
                   static mut RAW: u64 = 0;\n\
                   struct S { cache: RefCell<Vec<u8>>, n: u32 }\n";
        let d = run(src);
        assert_eq!(
            codes(&d),
            vec![(Code::SW008, 1), (Code::SW008, 2), (Code::SW008, 3)]
        );
    }

    #[test]
    fn observer_hook_with_tainted_arg_is_sw007() {
        let src = "fn f(obs: &mut O, m: &HashMap<u32, u32>) {\n\
                   let order: Vec<u32> = m.keys().copied().collect();\n\
                   obs.on_batch(order);\n\
                   }\n";
        let d = run(src);
        let cs: Vec<Code> = d.iter().map(|d| d.code).collect();
        assert!(cs.contains(&Code::SW007), "{d:?}");
    }

    #[test]
    fn cfg_test_functions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn t(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n\
                   }\n";
        assert!(run(src).is_empty());
    }
}
