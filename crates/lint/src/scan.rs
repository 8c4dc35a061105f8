//! The source model: lexical views, file classification, test spans and
//! suppressions.
//!
//! `iotse-lint` deliberately avoids a full Rust parser (the registry is
//! unreachable, so `syn` is off the table). Instead every file is split into
//! three byte-aligned **views** by a small state machine:
//!
//! * `code` — comments and string/char literals blanked to spaces,
//! * `code_str` — comments blanked, string literals kept (for extracting
//!   `name: "Barometer"` from the catalog),
//! * `comments` — only comment text kept (for `// lint:` justifications and
//!   `// iotse-lint: allow(..)` suppressions).
//!
//! Searching the right view makes the naive substring rules sound: a
//! `HashMap` mentioned in a doc comment or inside a string literal can never
//! trigger a finding, and a suppression marker inside a string literal (as
//! in this linter's own source) is never honoured.

use std::collections::BTreeSet;

/// What kind of target a file belongs to, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: the deterministic result paths.
    Lib,
    /// Binary / example code: drivers, allowed to touch the environment.
    Bin,
    /// Integration tests and benches: exempt from the determinism rules.
    Test,
}

/// One scanned `.rs` file with its lexical views.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Owning crate (directory under `crates/`, or `iotse` for the root).
    pub crate_name: String,
    /// Target classification.
    pub kind: FileKind,
    /// Original lines.
    pub raw: Vec<String>,
    /// Comments and string literals blanked.
    pub code: Vec<String>,
    /// Comments blanked, strings kept.
    pub code_str: Vec<String>,
    /// Only comments kept.
    pub comments: Vec<String>,
    /// 1-based inclusive line ranges of `#[cfg(test)] mod` bodies.
    pub test_spans: Vec<(usize, usize)>,
    /// Per 1-based line: rule ids suppressed on that line.
    pub suppressions: Vec<BTreeSet<String>>,
}

impl SourceFile {
    /// Builds the source model for one file.
    #[must_use]
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let cls = classify(text);
        let raw: Vec<String> = split_lines(text);
        let code = project(text, &cls, |c| c == Cls::Code);
        let code_str = project(text, &cls, |c| c != Cls::Comment);
        let comments = project(text, &cls, |c| c == Cls::Comment);
        let test_spans = find_test_spans(&code);
        let suppressions = find_suppressions(&comments);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_of(rel_path),
            kind: kind_of(rel_path),
            raw,
            code,
            code_str,
            comments,
            test_spans,
            suppressions,
        }
    }

    /// `true` if `line` (1-based) falls inside a `#[cfg(test)]` module.
    #[must_use]
    pub fn in_test_span(&self, line: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// `true` if `rule` is suppressed for a finding on `line` (1-based):
    /// the `// iotse-lint: allow(RULE)` marker may sit on the finding's own
    /// line or on the line directly above it.
    #[must_use]
    pub fn is_suppressed(&self, line: usize, rule: &str) -> bool {
        let hit = |l: usize| {
            self.suppressions
                .get(l.wrapping_sub(1))
                .is_some_and(|s| s.contains(rule))
        };
        hit(line) || (line > 1 && hit(line - 1))
    }

    /// `true` if a `// lint: <reason>` justification sits on `line`
    /// (1-based) or on the line directly above it.
    #[must_use]
    pub fn is_justified(&self, line: usize) -> bool {
        let hit = |l: usize| {
            self.comments
                .get(l.wrapping_sub(1))
                .is_some_and(|c| c.contains(JUSTIFY))
        };
        hit(line) || (line > 1 && hit(line - 1))
    }
}

/// The justification marker of the allocation, `#[allow]` and inlining
/// rules, looked up in the comments view. The leading `// ` keeps an
/// `// iotse-lint: …` marker from passing as a justification.
const JUSTIFY: &str = "// lint:";

/// Byte classification produced by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cls {
    Code,
    Str,
    Comment,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Classifies every byte of `text` as code, string-literal or comment.
#[allow(clippy::too_many_lines)] // lint: one linear state machine; splitting it would obscure the lexing states
fn classify(text: &str) -> Vec<Cls> {
    let b = text.as_bytes();
    let n = b.len();
    let mut cls = vec![Cls::Code; n];
    let mut i = 0;
    while i < n {
        let c = b[i];
        // Line comment.
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            while i < n && b[i] != b'\n' {
                cls[i] = Cls::Comment;
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let mut depth = 0usize;
            while i < n {
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    cls[i] = Cls::Comment;
                    cls[i + 1] = Cls::Comment;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    cls[i] = Cls::Comment;
                    cls[i + 1] = Cls::Comment;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    cls[i] = Cls::Comment;
                    i += 1;
                }
            }
            continue;
        }
        // Raw string r"..." / r#"..."# (optionally b-prefixed).
        if (c == b'r' || c == b'b') && (i == 0 || !is_ident(b[i - 1])) {
            let mut j = i;
            if b[j] == b'b' && j + 1 < n && b[j + 1] == b'r' {
                j += 1;
            }
            if b[j] == b'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < n && b[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && b[k] == b'"' {
                    // Found a raw string from i to its terminator.
                    let mut e = k + 1;
                    'scan: while e < n {
                        if b[e] == b'"' {
                            let mut h = 0usize;
                            while e + 1 + h < n && h < hashes && b[e + 1 + h] == b'#' {
                                h += 1;
                            }
                            if h == hashes {
                                e += 1 + hashes;
                                break 'scan;
                            }
                        }
                        e += 1;
                    }
                    for s in cls.iter_mut().take(e.min(n)).skip(i) {
                        *s = Cls::Str;
                    }
                    i = e;
                    continue;
                }
            }
        }
        // Plain string (optionally b-prefixed).
        if c == b'"'
            || (c == b'b' && i + 1 < n && b[i + 1] == b'"' && (i == 0 || !is_ident(b[i - 1])))
        {
            let start = i;
            if c == b'b' {
                i += 1;
            }
            cls[start] = Cls::Str;
            cls[i] = Cls::Str;
            i += 1;
            while i < n {
                if b[i] == b'\\' && i + 1 < n {
                    cls[i] = Cls::Str;
                    cls[i + 1] = Cls::Str;
                    i += 2;
                } else if b[i] == b'"' {
                    cls[i] = Cls::Str;
                    i += 1;
                    break;
                } else {
                    cls[i] = Cls::Str;
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            if let Some(end) = char_literal_end(b, i) {
                for s in cls.iter_mut().take(end + 1).skip(i) {
                    *s = Cls::Str;
                }
                i = end + 1;
            } else {
                i += 1; // lifetime: the quote stays code
            }
            continue;
        }
        i += 1;
    }
    cls
}

/// If a char literal starts at `i`, returns the index of its closing quote.
fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    let n = b.len();
    if i + 1 >= n {
        return None;
    }
    if b[i + 1] == b'\\' {
        // Escaped: scan (bounded) for the closing quote.
        let mut j = i + 2;
        let cap = (i + 16).min(n);
        while j < cap {
            if b[j] == b'\'' {
                return Some(j);
            }
            j += 1;
        }
        return None;
    }
    // One plain char then a quote — otherwise it is a lifetime.
    if i + 2 < n && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
        return Some(i + 2);
    }
    None
}

fn split_lines(text: &str) -> Vec<String> {
    text.split('\n')
        .map(|l| l.trim_end_matches('\r').to_string())
        .collect()
}

/// Projects `text` into per-line strings keeping only bytes whose class
/// passes `keep`; everything else becomes a space (byte positions are
/// preserved so column-free line matching stays aligned).
fn project(text: &str, cls: &[Cls], keep: impl Fn(Cls) -> bool) -> Vec<String> {
    let mut lines = Vec::new();
    let mut cur = Vec::new();
    for (i, &byte) in text.as_bytes().iter().enumerate() {
        if byte == b'\n' {
            lines.push(String::from_utf8_lossy(&cur).into_owned());
            cur.clear();
        } else if keep(cls[i]) {
            cur.push(byte);
        } else {
            cur.push(b' ');
        }
    }
    lines.push(String::from_utf8_lossy(&cur).into_owned());
    for l in &mut lines {
        while l.ends_with(['\r', ' ']) {
            l.pop();
        }
    }
    lines
}

/// Finds `#[cfg(test)] mod … { … }` bodies by brace counting on the code
/// view. Returns 1-based inclusive line ranges.
fn find_test_spans(code: &[String]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut li = 0;
    while li < code.len() {
        if code[li].contains("#[cfg(test)]") {
            // Find the `mod` keyword within the next few lines.
            let mut mj = None;
            for (j, line) in code
                .iter()
                .enumerate()
                .take((li + 4).min(code.len()))
                .skip(li)
            {
                if find_word(line, "mod").is_some() {
                    mj = Some(j);
                    break;
                }
            }
            if let Some(start) = mj {
                let mut depth = 0i64;
                let mut opened = false;
                let mut end = start;
                'outer: for (j, line) in code.iter().enumerate().skip(start) {
                    for ch in line.bytes() {
                        match ch {
                            b'{' => {
                                depth += 1;
                                opened = true;
                            }
                            b'}' => {
                                depth -= 1;
                                if opened && depth == 0 {
                                    end = j;
                                    break 'outer;
                                }
                            }
                            _ => {}
                        }
                    }
                    end = j;
                }
                spans.push((li + 1, end + 1));
                li = end + 1;
                continue;
            }
        }
        li += 1;
    }
    spans
}

/// Marker introducing a per-line suppression in a comment.
const SUPPRESS: &str = "iotse-lint: allow(";

fn find_suppressions(comments: &[String]) -> Vec<BTreeSet<String>> {
    comments
        .iter()
        .map(|line| {
            let mut set = BTreeSet::new();
            let mut rest = line.as_str();
            while let Some(pos) = rest.find(SUPPRESS) {
                let after = &rest[pos + SUPPRESS.len()..];
                if let Some(close) = after.find(')') {
                    for id in after[..close].split(',') {
                        let id = id.trim();
                        if !id.is_empty() {
                            set.insert(id.to_string());
                        }
                    }
                    rest = &after[close..];
                } else {
                    break;
                }
            }
            set
        })
        .collect()
}

fn crate_of(rel_path: &str) -> String {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        if let Some(slash) = rest.find('/') {
            return rest[..slash].to_string();
        }
    }
    "iotse".to_string()
}

fn kind_of(rel_path: &str) -> FileKind {
    if rel_path.contains("/tests/")
        || rel_path.starts_with("tests/")
        || rel_path.contains("/benches/")
    {
        FileKind::Test
    } else if rel_path.contains("/src/bin/")
        || rel_path.ends_with("src/main.rs")
        || rel_path.contains("/examples/")
        || rel_path.starts_with("examples/")
    {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// Finds `word` in `line` at identifier boundaries, returning its byte
/// offset.
#[must_use]
pub fn find_word(line: &str, word: &str) -> Option<usize> {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(rel) = line[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident(b[at - 1]);
        let end = at + word.len();
        let after_ok = end >= b.len() || !is_ident(b[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_separated() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet m: HashMap<u8, u8>;";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(!f.code[0].contains("HashMap"), "{}", f.code[0]);
        assert!(f.code[1].contains("HashMap"));
        assert!(f.comments[0].contains("HashMap"));
        assert!(f.code_str[0].contains("HashMap"), "{}", f.code_str[0]);
    }

    #[test]
    fn raw_strings_and_chars_are_masked() {
        let src = "let r = r#\"Instant\"#; let c = 'x'; let lt: &'static str = \"\";";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(!f.code[0].contains("Instant"));
        assert!(f.code[0].contains("static"), "lifetime stays code");
    }

    #[test]
    fn nested_block_comments_close() {
        let src = "/* a /* b */ c */ let x = 1;";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.code[0].contains("let x = 1;"));
        assert!(!f.code[0].contains('a'));
    }

    #[test]
    fn test_spans_cover_cfg_test_mod() {
        let src =
            "pub fn a() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\npub fn b() {}";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert_eq!(f.test_spans, vec![(2, 5)]);
        assert!(f.in_test_span(4));
        assert!(!f.in_test_span(6));
    }

    #[test]
    fn suppressions_parse_and_apply_to_next_line() {
        let src = "// iotse-lint: allow(IOTSE-E04, IOTSE-W01) reason\nx.unwrap();\ny.unwrap();";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.is_suppressed(1, "IOTSE-E04"));
        assert!(f.is_suppressed(2, "IOTSE-E04"));
        assert!(f.is_suppressed(2, "IOTSE-W01"));
        assert!(!f.is_suppressed(3, "IOTSE-E04"));
    }

    #[test]
    fn suppression_in_string_literal_is_ignored() {
        let src = "let s = \"iotse-lint: allow(IOTSE-E04)\";\nx.unwrap();";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(!f.is_suppressed(2, "IOTSE-E04"));
    }

    #[test]
    fn classification_of_paths() {
        let f = SourceFile::parse("crates/sim/src/rng.rs", "");
        assert_eq!(f.crate_name, "sim");
        assert_eq!(f.kind, FileKind::Lib);
        let t = SourceFile::parse("crates/bench/tests/golden.rs", "");
        assert_eq!(t.kind, FileKind::Test);
        let b = SourceFile::parse("crates/bench/src/bin/figures.rs", "");
        assert_eq!(b.kind, FileKind::Bin);
        let root = SourceFile::parse("src/lib.rs", "");
        assert_eq!(root.crate_name, "iotse");
    }

    #[test]
    fn find_word_respects_boundaries() {
        assert_eq!(find_word("MyHashMap", "HashMap"), None);
        assert_eq!(find_word("HashMap::new()", "HashMap"), Some(0));
        assert_eq!(find_word("a HashMapx b HashMap", "HashMap"), Some(13));
    }
}
