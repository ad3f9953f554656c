//! A lightweight parser over the [`crate::lex`] output: a token stream
//! with line numbers, plus just enough item structure — `fn` signatures
//! with body ranges, `struct` fields, `impl` extents, `static`s — for the
//! determinism taint engine ([`crate::taint`]) to resolve names to types
//! and walk function bodies. This is deliberately not a full Rust
//! grammar: the workspace builds offline (no `syn`), and the taint
//! lattice only needs paths, calls, method chains and `let`/`for`/`return`
//! statement shapes.

use std::collections::BTreeMap;

use crate::lex::LineInfo;

/// One token: an identifier/number/lifetime or a punctuation run.
#[derive(Debug, Clone)]
pub(crate) struct Tok {
    /// Token text (`"name"`, `"::"`, `"->"`, `"{"`, ...).
    pub(crate) text: String,
    /// 0-based source line the token starts on.
    pub(crate) line: u32,
    /// True for identifier-like tokens (idents, numbers, `self`, ...).
    pub(crate) is_word: bool,
}

impl Tok {
    pub(crate) fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// Tokenizes lexed lines (comments/strings already blanked) into a flat
/// token stream. Multi-char operators that matter to the parser (`::`,
/// `->`, `=>`, `..`) are single tokens; everything else punctuates per
/// char. Numbers keep an embedded `.` only when it is followed by a digit
/// (`0.0` is one token, `x.0` is three).
pub(crate) fn tokenize(lines: &[LineInfo]) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (lineno, li) in lines.iter().enumerate() {
        let chars: Vec<char> = li.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: lineno as u32,
                    is_word: true,
                });
                continue;
            }
            if c.is_ascii_digit() {
                let start = i;
                while i < chars.len() {
                    let d = chars[i];
                    let in_number = d.is_alphanumeric()
                        || d == '_'
                        || (d == '.'
                            && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                            && !chars[start..i].contains(&'.'));
                    if !in_number {
                        break;
                    }
                    i += 1;
                }
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: lineno as u32,
                    is_word: true,
                });
                continue;
            }
            if c == '\'' {
                // Lifetime marker survived lexing (`'a`): glue it to the
                // following ident so type parsing can skip it whole.
                let start = i;
                i += 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: lineno as u32,
                    is_word: false,
                });
                continue;
            }
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            if ["::", "->", "=>", ".."].contains(&two.as_str()) {
                toks.push(Tok {
                    text: two,
                    line: lineno as u32,
                    is_word: false,
                });
                i += 2;
                continue;
            }
            toks.push(Tok {
                text: c.to_string(),
                line: lineno as u32,
                is_word: false,
            });
            i += 1;
        }
    }
    toks
}

/// Index of the token matching the opener at `open` (one of `{ ( [ <`),
/// or `toks.len()` if unbalanced. `<` matching is only used for generics
/// and turbofish, where comparison operators cannot appear.
pub(crate) fn match_delim(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "{" => ("{", "}"),
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "<" => ("<", ">"),
        _ => return open,
    };
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is(o) {
            depth += 1;
        } else if t.is(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// A parsed `fn` item.
#[derive(Debug, Clone)]
pub(crate) struct FnItem {
    pub(crate) name: String,
    /// 0-based line of the `fn` keyword.
    pub(crate) line: u32,
    /// `(name, type-text)` per named parameter (`self` excluded).
    pub(crate) params: Vec<(String, String)>,
    /// Return type text, if any.
    pub(crate) ret: Option<String>,
    /// Token range of the body including its braces, if the fn has one.
    pub(crate) body: Option<(usize, usize)>,
    /// Declared inside an `impl`/`trait` block (has a `self` receiver or
    /// sits in method position).
    pub(crate) is_method: bool,
}

/// A parsed `static` item.
#[derive(Debug, Clone)]
pub(crate) struct StaticItem {
    pub(crate) name: String,
    pub(crate) line: u32,
    pub(crate) ty: String,
    pub(crate) is_mut: bool,
}

/// Everything the taint engine needs from one file.
#[derive(Debug, Default)]
pub(crate) struct ParsedFile {
    pub(crate) toks: Vec<Tok>,
    pub(crate) fns: Vec<FnItem>,
    /// Struct-field name → declared type texts (merged across all structs
    /// in the file; lookups are conservative about collisions).
    pub(crate) fields: BTreeMap<String, Vec<String>>,
    /// 0-based lines of field declarations, for SW008 spans.
    pub(crate) field_lines: BTreeMap<String, Vec<u32>>,
    pub(crate) statics: Vec<StaticItem>,
    /// 0-based lines of `thread_local!` invocations.
    pub(crate) thread_locals: Vec<u32>,
}

/// Renders a token range back to compact type text (`Mutex<HashMap<K,V>>`).
pub(crate) fn type_text(toks: &[Tok]) -> String {
    let mut out = String::new();
    for t in toks {
        if t.is_word
            && out
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            out.push(' ');
        }
        out.push_str(&t.text);
    }
    out
}

/// Scans forward from `i` over one type, stopping at a top-level token in
/// `stops`. Returns the exclusive end index.
fn skip_type(toks: &[Tok], mut i: usize, stops: &[&str]) -> usize {
    let mut depth = 0i64;
    while i < toks.len() {
        let t = &toks[i].text;
        if depth == 0 && stops.contains(&t.as_str()) {
            return i;
        }
        match t.as_str() {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parses items out of a token stream.
pub(crate) fn parse_items(toks: &[Tok]) -> ParsedFile {
    let mut file = ParsedFile::default();
    let mut impl_ranges: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "#" if toks.get(i + 1).is_some_and(|n| n.is("[")) => {
                i = match_delim(toks, i + 1) + 1;
            }
            "struct" => {
                i += 1;
                // Skip name + generics to the body.
                while i < toks.len() && !toks[i].is("{") && !toks[i].is(";") && !toks[i].is("(") {
                    i += 1;
                }
                if i < toks.len() && toks[i].is("{") {
                    let end = match_delim(toks, i);
                    parse_fields(&toks[i + 1..end], toks[i].line, &mut file);
                    i = end + 1;
                } else if i < toks.len() && toks[i].is("(") {
                    i = match_delim(toks, i) + 1;
                }
            }
            "impl" | "trait" => {
                // Find the block; everything inside is method position.
                let mut j = i + 1;
                let mut depth = 0i64;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "<" | "(" | "[" => depth += 1,
                        ">" | ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j < toks.len() && toks[j].is("{") {
                    impl_ranges.push((j, match_delim(toks, j)));
                }
                i = j + 1;
            }
            "fn" => {
                let is_method = impl_ranges.iter().any(|&(s, e)| i > s && i < e);
                if let Some((item, next)) = parse_fn(toks, i, is_method) {
                    i = next;
                    file.fns.push(item);
                } else {
                    i += 1;
                }
            }
            "static" => {
                let mut j = i + 1;
                let is_mut = toks.get(j).is_some_and(|t| t.is("mut"));
                if is_mut {
                    j += 1;
                }
                if let Some(name_tok) = toks.get(j).filter(|t| t.is_word) {
                    let name = name_tok.text.clone();
                    if toks.get(j + 1).is_some_and(|t| t.is(":")) {
                        let ty_end = skip_type(toks, j + 2, &["=", ";"]);
                        file.statics.push(StaticItem {
                            name,
                            line: t.line,
                            ty: type_text(&toks[j + 2..ty_end]),
                            is_mut,
                        });
                        i = ty_end;
                        continue;
                    }
                }
                i = j + 1;
            }
            "thread_local" if toks.get(i + 1).is_some_and(|n| n.is("!")) => {
                file.thread_locals.push(t.line);
                i += 2;
            }
            _ => i += 1,
        }
    }
    file.toks = toks.to_vec();
    file
}

/// Parses the fields of one struct body (tokens between its braces).
fn parse_fields(body: &[Tok], _line: u32, file: &mut ParsedFile) {
    let mut i = 0usize;
    while i < body.len() {
        // Skip attributes and visibility.
        if body[i].is("#") && body.get(i + 1).is_some_and(|n| n.is("[")) {
            i = match_delim(body, i + 1) + 1;
            continue;
        }
        if body[i].is("pub") {
            i += 1;
            if i < body.len() && body[i].is("(") {
                i = match_delim(body, i) + 1;
            }
            continue;
        }
        if body[i].is_word && body.get(i + 1).is_some_and(|n| n.is(":")) {
            let name = body[i].text.clone();
            let line = body[i].line;
            let ty_end = skip_type(body, i + 2, &[","]);
            let ty = type_text(&body[i + 2..ty_end]);
            file.fields.entry(name.clone()).or_default().push(ty);
            file.field_lines.entry(name).or_default().push(line);
            i = ty_end + 1;
            continue;
        }
        i += 1;
    }
}

/// Parses one `fn` starting at the `fn` keyword; returns the item and the
/// token index to resume at (past the body or terminating `;`).
fn parse_fn(toks: &[Tok], fn_idx: usize, is_method: bool) -> Option<(FnItem, usize)> {
    let name_tok = toks.get(fn_idx + 1)?;
    if !name_tok.is_word {
        return None;
    }
    let mut i = fn_idx + 2;
    if toks.get(i).is_some_and(|t| t.is("<")) {
        i = match_delim(toks, i) + 1;
    }
    if !toks.get(i).is_some_and(|t| t.is("(")) {
        return None;
    }
    let params_end = match_delim(toks, i);
    let params = parse_params(&toks[i + 1..params_end]);
    let has_self = toks[i + 1..params_end].iter().any(|t| t.is("self"));
    i = params_end + 1;
    let mut ret = None;
    if toks.get(i).is_some_and(|t| t.is("->")) {
        let ty_end = skip_type(toks, i + 1, &["{", ";", "where"]);
        ret = Some(type_text(&toks[i + 1..ty_end]));
        i = ty_end;
    }
    if toks.get(i).is_some_and(|t| t.is("where")) {
        while i < toks.len() && !toks[i].is("{") && !toks[i].is(";") {
            // Skip over delimited groups inside the where clause.
            if ["<", "(", "["].contains(&toks[i].text.as_str()) {
                i = match_delim(toks, i);
            }
            i += 1;
        }
    }
    let body = if toks.get(i).is_some_and(|t| t.is("{")) {
        let end = match_delim(toks, i);
        let b = (i, end);
        i = end + 1;
        Some(b)
    } else {
        i += 1;
        None
    };
    Some((
        FnItem {
            name: name_tok.text.clone(),
            line: toks[fn_idx].line,
            params,
            ret,
            body,
            is_method: is_method || has_self,
        },
        i,
    ))
}

/// Parses `name: Type` pairs out of a parameter list (self receivers and
/// pattern params are skipped).
fn parse_params(toks: &[Tok]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let start = i;
        let end = skip_type(toks, i, &[","]);
        // A simple `name: Type` param: optional `mut`, ident, colon.
        let mut j = start;
        if toks.get(j).is_some_and(|t| t.is("mut")) {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_word && !t.is("self"))
            && toks.get(j + 1).is_some_and(|t| t.is(":"))
        {
            out.push((
                toks[j].text.clone(),
                type_text(&toks[j + 2..end.min(toks.len())]),
            ));
        }
        i = end + 1;
    }
    out
}

// ---- type classification ----

/// Wrappers the analysis sees through when deciding what a value really
/// is: `Mutex<HashMap<..>>` is still an unordered map for ordering
/// purposes — `.lock()` hands out the same container.
const TRANSPARENT_WRAPPERS: [&str; 15] = [
    "Option",
    "Some",
    "Box",
    "Rc",
    "Arc",
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "MutexGuard",
    "Ref",
    "RefMut",
    "Pin",
    "ManuallyDrop",
];

/// Interior-mutability markers for the SW008 shared-state lint.
const INTERIOR_MUTABLE: [&str; 6] = [
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "Condvar",
];

/// What a type means for the order-taint lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TypeClass {
    /// `HashMap`/`HashSet` (possibly behind transparent wrappers):
    /// iterating it is an order-taint source.
    Unordered,
    /// Deterministically ordered container (`BTreeMap`, `Vec`, ...).
    Ordered,
    /// Anything else.
    Other,
}

/// Classifies a type text by peeling transparent wrappers down to the
/// head container.
pub(crate) fn classify_type(ty: &str) -> TypeClass {
    let mut head = ty;
    for _ in 0..8 {
        let Some(h) = head_segment(head) else {
            return TypeClass::Other;
        };
        match h.0.as_str() {
            "HashMap" | "HashSet" => return TypeClass::Unordered,
            "BTreeMap" | "BTreeSet" | "Vec" | "VecDeque" | "BinaryHeap" | "String" => {
                return TypeClass::Ordered
            }
            w if TRANSPARENT_WRAPPERS.contains(&w) => match h.1 {
                Some(inner) => head = inner,
                None => return TypeClass::Other,
            },
            _ => return TypeClass::Other,
        }
    }
    TypeClass::Other
}

/// True if the type (at any nesting depth) contains an interior-mutability
/// marker or an atomic — the SW008 trigger.
pub(crate) fn is_interior_mutable(ty: &str) -> bool {
    ident_tokens(ty)
        .iter()
        .any(|w| INTERIOR_MUTABLE.contains(&w.as_str()) || w.starts_with("Atomic"))
}

/// Splits type text into its identifier tokens.
fn ident_tokens(ty: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in ty.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The head path segment of a type text plus the text of its first
/// generic argument, e.g. `Mutex<HashMap<K,V>>` → (`Mutex`,
/// `Some("HashMap<K,V>")`). References, `dyn`/`impl` and lifetimes are
/// skipped.
fn head_segment(ty: &str) -> Option<(String, Option<&str>)> {
    let mut rest = ty.trim_start();
    loop {
        rest = rest.trim_start();
        if let Some(s) = rest.strip_prefix('&') {
            rest = s;
            continue;
        }
        for kw in ["mut ", "dyn ", "impl "] {
            if let Some(s) = rest.strip_prefix(kw) {
                rest = s;
            }
        }
        if rest.starts_with('\'') {
            let end = rest
                .char_indices()
                .skip(1)
                .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            rest = &rest[end..];
            continue;
        }
        break;
    }
    // Read path segments up to `<` / end; head is the last segment.
    let mut head = String::new();
    let mut chars = rest.char_indices().peekable();
    let mut angle_at = None;
    while let Some((i, c)) = chars.next() {
        if c.is_alphanumeric() || c == '_' {
            head.push(c);
        } else if c == ':' && matches!(chars.peek(), Some((_, ':'))) {
            chars.next();
            head.clear();
        } else if c == '<' {
            angle_at = Some(i);
            break;
        } else {
            break;
        }
    }
    if head.is_empty() {
        return None;
    }
    let inner = angle_at.map(|i| {
        let inner = &rest[i + 1..];
        // First top-level generic argument.
        let mut depth = 0i64;
        let mut end = inner.len();
        for (j, c) in inner.char_indices() {
            match c {
                '<' | '(' | '[' => depth += 1,
                '>' | ')' | ']' => {
                    if depth == 0 {
                        end = j;
                        break;
                    }
                    depth -= 1;
                }
                ',' if depth == 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
        }
        inner[..end].trim()
    });
    Some((head, inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_items(&tokenize(&lex(src)))
    }

    #[test]
    fn tokenizer_handles_numbers_and_chains() {
        let toks = tokenize(&lex("let x = 0.0; m.0.fold(1_000, f)"));
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec![
                "let", "x", "=", "0.0", ";", "m", ".", "0", ".", "fold", "(", "1_000", ",", "f",
                ")"
            ]
        );
    }

    #[test]
    fn fn_signature_and_body_parsed() {
        let f = parse("fn total(r: &Report, n: usize) -> f64 { 0.0 }\n");
        assert_eq!(f.fns.len(), 1);
        let item = &f.fns[0];
        assert_eq!(item.name, "total");
        assert_eq!(item.params.len(), 2);
        assert_eq!(item.params[0], ("r".to_string(), "&Report".to_string()));
        assert_eq!(item.ret.as_deref(), Some("f64"));
        assert!(item.body.is_some());
        assert!(!item.is_method);
    }

    #[test]
    fn methods_and_fields_parsed() {
        let f = parse(
            "struct S { state: Mutex<HashMap<u64, u64>>, n: u32 }\n\
             impl S {\n  fn get(&self) -> u32 { self.n }\n}\n",
        );
        assert_eq!(f.fields["state"], vec!["Mutex<HashMap<u64,u64>>"]);
        assert_eq!(f.fields["n"], vec!["u32"]);
        assert_eq!(f.fns.len(), 1);
        assert!(f.fns[0].is_method);
    }

    #[test]
    fn statics_parsed_with_mut_flag() {
        let f = parse("static COUNTER: AtomicU64 = AtomicU64::new(0);\nstatic mut RAW: u64 = 0;\n");
        assert_eq!(f.statics.len(), 2);
        assert_eq!(f.statics[0].name, "COUNTER");
        assert_eq!(f.statics[0].ty, "AtomicU64");
        assert!(!f.statics[0].is_mut);
        assert!(f.statics[1].is_mut);
    }

    #[test]
    fn type_classification_peels_wrappers() {
        assert_eq!(classify_type("HashMap<u32, u32>"), TypeClass::Unordered);
        assert_eq!(
            classify_type("Mutex<HashMap<SegmentKey, Bytes>>"),
            TypeClass::Unordered
        );
        assert_eq!(
            classify_type("Rc<RefCell<HashSet<u64>>>"),
            TypeClass::Unordered
        );
        assert_eq!(classify_type("&'a mut HashMap<K, V>"), TypeClass::Unordered);
        assert_eq!(
            classify_type("std::collections::HashMap<K, V>"),
            TypeClass::Unordered
        );
        assert_eq!(classify_type("BTreeMap<u32, u32>"), TypeClass::Ordered);
        assert_eq!(classify_type("Vec<HashMap<u32, u32>>"), TypeClass::Ordered);
        assert_eq!(
            classify_type("Option<&HashMap<K, V>>"),
            TypeClass::Unordered
        );
        assert_eq!(classify_type("u64"), TypeClass::Other);
    }

    #[test]
    fn interior_mutability_detected() {
        assert!(is_interior_mutable("Mutex<StoreState>"));
        assert!(is_interior_mutable("Rc<RefCell<RecorderState>>"));
        assert!(is_interior_mutable("AtomicU64"));
        assert!(is_interior_mutable("sync::Mutex<T>"));
        assert!(!is_interior_mutable("MutexGuardLike"));
        assert!(!is_interior_mutable("BTreeMap<u32, Vec<u8>>"));
    }
}
