//! The shared source lexer for pass 1.
//!
//! Both the lexical lints ([`crate::source`]) and the determinism taint
//! engine ([`crate::taint`]) start from the same view of a file: one
//! [`LineInfo`] per source line with comments, string literals and char
//! literals blanked to spaces (so rules match only real code) plus the
//! `swift-analyze: allow(...)` directives harvested from the comments.

use crate::diag::Code;

/// One logical source line after lexing.
#[derive(Debug, Default, Clone)]
pub(crate) struct LineInfo {
    /// The line with comments/strings/char literals blanked to spaces.
    pub(crate) code: String,
    /// Codes allowed by `swift-analyze: allow(...)` comments on this line.
    pub(crate) allows: Vec<Code>,
}

/// Lexes `content` into per-line code text plus allow directives.
pub(crate) fn lex(content: &str) -> Vec<LineInfo> {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut lines: Vec<LineInfo> = vec![LineInfo::default()];
    let mut comment_text = String::new();
    let mut st = St::Code;
    let chars: Vec<char> = content.chars().collect();
    let mut i = 0usize;

    // Appends to the current line's code view.
    macro_rules! push_code {
        ($c:expr) => {
            lines.last_mut().expect("non-empty").code.push($c)
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            flush_allows(&mut comment_text, lines.last_mut().expect("non-empty"));
            lines.push(LineInfo::default());
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    comment_text.clear();
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    comment_text.clear();
                    i += 2;
                    continue;
                }
                if c == 'r' && (next == Some('"') || next == Some('#')) && !prev_is_ident(&chars, i)
                {
                    // Raw string r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        push_code!(' ');
                        for _ in 0..(hashes as usize + 1) {
                            push_code!(' ');
                        }
                        st = St::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                }
                if c == '"' {
                    push_code!(' ');
                    st = St::Str;
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Lifetime ('a) vs char literal ('x' / '\n').
                    let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                        && chars.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        push_code!('\'');
                        i += 1;
                        continue;
                    }
                    push_code!(' ');
                    st = St::Char;
                    i += 1;
                    continue;
                }
                push_code!(c);
                i += 1;
            }
            St::LineComment => {
                comment_text.push(c);
                push_code!(' ');
                i += 1;
            }
            St::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    if depth == 1 {
                        flush_allows(&mut comment_text, lines.last_mut().expect("non-empty"));
                        st = St::Code;
                    } else {
                        st = St::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment_text.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    i += 2;
                } else {
                    if c == '"' {
                        push_code!(' ');
                        st = St::Code;
                    }
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        st = St::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                i += 1;
            }
            St::Char => {
                if c == '\\' {
                    i += 2;
                } else {
                    if c == '\'' {
                        st = St::Code;
                    }
                    i += 1;
                }
            }
        }
    }
    flush_allows(&mut comment_text, lines.last_mut().expect("non-empty"));
    lines
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Parses `swift-analyze: allow(SW004, SW005)` out of a comment.
fn flush_allows(comment: &mut String, line: &mut LineInfo) {
    if let Some(pos) = comment.find("swift-analyze:") {
        let rest = &comment[pos + "swift-analyze:".len()..];
        if let Some(open) = rest.find("allow(") {
            if let Some(close) = rest[open..].find(')') {
                for part in rest[open + "allow(".len()..open + close].split(',') {
                    if let Some(code) = Code::parse(part) {
                        line.allows.push(code);
                    }
                }
            }
        }
    }
    comment.clear();
}

/// Marks lines inside `#[cfg(test)]`-gated items (test modules) so rules
/// skip them: test code may use wall clocks, threads and hash maps freely.
pub(crate) fn test_mask(lines: &[LineInfo]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            // Skip until the gated item's braces balance out.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                mask[j] = true;
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Returns byte offsets where `needle` occurs in `hay` as a path/ident
/// boundary match: the preceding char must not be an identifier char.
pub(crate) fn boundary_matches(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let abs = from + pos;
        let ok_before = abs == 0 || {
            let b = bytes[abs - 1] as char;
            !(b.is_alphanumeric() || b == '_')
        };
        if ok_before {
            out.push(abs);
        }
        from = abs + needle.len().max(1);
    }
    out
}
