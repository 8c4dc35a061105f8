//! `IOTSE-S12` — `SeedTree` split labels must be auditable and disjoint.
//!
//! Every RNG stream in the workspace is addressed by a `/`-separated label
//! path through the `SeedTree` (`faults/script-0/seed-7`,
//! `signal/audio`, …). Two *consuming* splits — `stream`, `streams`, or
//! `child` — with the same full path yield correlated generators, which
//! silently breaks the independence assumptions behind the paper's
//! variance estimates. PR 6 tests disjointness dynamically for the labels
//! it happens to construct; this rule audits **every** split site in
//! library code statically:
//!
//! * each label argument must be statically resolvable — a string
//!   literal, a `format!` with a literal template (placeholders normalize
//!   to `{*}`), or a `let` binding / struct-field initializer that
//!   resolves to one. Anything else is *unauditable* and flagged;
//! * the receiver chain is traced through `child(..)` namespaces,
//!   `let`-bound subtrees, and `self.field` subtrees to recover the full
//!   path; two consuming sites with the same path collide.
//!
//! `derive(..)` sites get the auditability check but are exempt from
//! collision detection: pairing `derive(label)` (a cache key) with
//! `stream(label)` (the generator) on one receiver is an intentional
//! idiom in the sensor models. `derive_indexed(prefix, i)` derives the
//! label `prefix` plus `i`'s digits without formatting it, so its path is
//! the prefix followed by `{*}`, as `format!("{prefix}{i}")` would give.

use std::collections::BTreeMap;

use crate::scan::{FileKind, SourceFile};
use crate::Finding;

/// Rule ID.
pub const ID: &str = "IOTSE-S12";
/// One-line summary for `explain`.
pub const SUMMARY: &str =
    "SeedTree split labels must be statically auditable and collision-free workspace-wide";

/// Split methods that *consume* a label path (correlated if duplicated).
const CONSUMING: &[&str] = &["stream", "streams", "child"];
/// All audited split methods.
const OPS: &[&str] = &["derive", "derive_indexed", "stream", "streams", "child"];

/// Recursion bound for receiver/let tracing.
const MAX_DEPTH: usize = 8;

/// Runs the rule over the whole workspace.
pub fn check(files: &[SourceFile], out: &mut Vec<Finding>) {
    // path -> consuming sites, ordered by (file, line).
    let mut consumed: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new();
    for file in files {
        // The tree mechanism itself (and its tests) is exempt: `stream`
        // calling `derive(label)` is the implementation, not a split site.
        if file.kind != FileKind::Lib || file.rel_path.ends_with("src/rng.rs") {
            continue;
        }
        let text = FileText::new(file);
        for site in text.sites() {
            if file.in_test_span(site.line) {
                continue;
            }
            match text.resolve_path(&site, 0) {
                Ok(path) => {
                    if CONSUMING.contains(&site.op) {
                        consumed
                            .entry(path)
                            .or_default()
                            .push((file.rel_path.clone(), site.line));
                    }
                }
                Err(why) => out.push(Finding::at(
                    &file.rel_path,
                    site.line,
                    ID,
                    format!(
                        "`{}(..)` label is not statically auditable: {why} — use a literal or a `format!` with a literal template",
                        site.op
                    ),
                )),
            }
        }
    }
    for (path, mut sites) in consumed {
        if sites.len() < 2 {
            continue;
        }
        sites.sort();
        let (first_file, first_line) = sites[0].clone();
        for (file, line) in &sites[1..] {
            out.push(Finding::at(
                file,
                *line,
                ID,
                format!(
                    "seed path `{path}` is split here and at {first_file}:{first_line} — correlated RNG streams"
                ),
            ));
        }
    }
}

/// One `.op(..)` occurrence.
struct Site {
    /// Byte offset of the `.` in the joined text.
    dot: usize,
    /// Byte offset just past `op(`.
    arg_start: usize,
    /// Method name.
    op: &'static str,
    /// 1-based line.
    line: usize,
}

/// A file's joined text in both lexical views, with offset→line mapping.
/// Structure (parens, identifiers) is read from the string-blanked `code`
/// view; label content from the comment-blanked `code_str` view. The two
/// are byte-aligned.
struct FileText {
    code: String,
    strs: String,
    line_starts: Vec<usize>,
}

impl FileText {
    fn new(file: &SourceFile) -> FileText {
        let mut code = String::new();
        let mut strs = String::new();
        let mut line_starts = Vec::with_capacity(file.code.len());
        for (c, s) in file.code.iter().zip(&file.code_str) {
            line_starts.push(code.len());
            // The views are right-trimmed independently, so pad both to a
            // common byte length to keep offsets aligned.
            let width = c.len().max(s.len());
            code.push_str(c);
            for _ in c.len()..width {
                code.push(' ');
            }
            code.push('\n');
            strs.push_str(s);
            for _ in s.len()..width {
                strs.push(' ');
            }
            strs.push('\n');
        }
        FileText {
            code,
            strs,
            line_starts,
        }
    }

    fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }

    /// Every `.op(` occurrence in the structural view.
    fn sites(&self) -> Vec<Site> {
        let mut sites = Vec::new();
        for &op in OPS {
            let needle = format!(".{op}(");
            let mut from = 0;
            while let Some(at) = self.code[from..].find(&needle) {
                let dot = from + at;
                sites.push(Site {
                    dot,
                    arg_start: dot + needle.len(),
                    op,
                    line: self.line_of(dot),
                });
                from = dot + needle.len();
            }
        }
        sites.sort_by_key(|s| s.dot);
        sites
    }

    /// The full `/`-separated path of a split site: receiver prefix plus
    /// the site's own label. `Err` describes why the label cannot be
    /// audited statically.
    fn resolve_path(&self, site: &Site, depth: usize) -> Result<String, String> {
        let arg = self.first_arg_span(site.arg_start);
        let mut label = self.label_of(arg, depth)?;
        if site.op == "derive_indexed" {
            label.push_str("{*}");
        }
        let prefix = self.receiver_prefix(site.dot, depth);
        Ok(if prefix.is_empty() {
            label
        } else {
            format!("{prefix}/{label}")
        })
    }

    /// Span of the first argument: from `start` to the `,` or closing `)`
    /// at the argument's own nesting level.
    fn first_arg_span(&self, start: usize) -> (usize, usize) {
        let b = self.code.as_bytes();
        let mut depth = 0usize;
        let mut i = start;
        while i < b.len() {
            match b[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    if depth == 0 {
                        return (start, i);
                    }
                    depth -= 1;
                }
                b',' if depth == 0 => return (start, i),
                _ => {}
            }
            i += 1;
        }
        (start, b.len())
    }

    /// Resolves one label argument to its normalized text.
    fn label_of(&self, (start, end): (usize, usize), depth: usize) -> Result<String, String> {
        if depth > MAX_DEPTH {
            return Err("tracing depth exceeded".to_string());
        }
        let code = self.code[start..end].trim();
        let strs = self.strs[start..end].trim_start();
        let (code, strs) = match code.strip_prefix('&') {
            Some(c) => (
                c.trim_start(),
                strs.strip_prefix('&').unwrap_or(strs).trim_start(),
            ),
            None => (code, strs),
        };
        if strs.starts_with('"') {
            return Ok(string_literal(strs));
        }
        if code.starts_with("format") && code[6..].trim_start().starts_with('!') {
            let Some(q) = strs.find('"') else {
                return Err("`format!` without a literal template".to_string());
            };
            return Ok(normalize_placeholders(&string_literal(&strs[q..])));
        }
        if is_ident(code) {
            // A `let` binding in the same file.
            if let Some(rhs) = self.let_rhs(code, start) {
                return self.label_of(rhs, depth + 1);
            }
            return Err(format!(
                "`{code}` does not resolve to a `let` with a literal"
            ));
        }
        let shown: String = code.chars().take(40).collect();
        Err(format!("argument `{shown}` is dynamic"))
    }

    /// RHS span of the nearest `let <name> = …;` before `before`.
    fn let_rhs(&self, name: &str, before: usize) -> Option<(usize, usize)> {
        let mut best: Option<usize> = None;
        let mut from = 0;
        while let Some(at) = self.code[from..].find("let ") {
            let at = from + at;
            from = at + 4;
            if at >= before {
                break;
            }
            let rest = self.code[at + 4..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            if rest.starts_with(name)
                && !rest[name.len()..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                best = Some(at);
            }
        }
        let at = best?;
        let eq = at + self.code[at..before.min(self.code.len())].find('=')?;
        let start = eq + 1;
        let bytes = self.code.as_bytes();
        let mut depth = 0usize;
        let mut i = start;
        while i < bytes.len() {
            match bytes[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth = depth.saturating_sub(1),
                b';' if depth == 0 => return Some((start, i)),
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// The namespace prefix contributed by the receiver expression before
    /// `dot`. Unresolvable receivers contribute no prefix (the root tree).
    fn receiver_prefix(&self, dot: usize, depth: usize) -> String {
        if depth > MAX_DEPTH {
            return String::new();
        }
        let b = self.code.as_bytes();
        let mut i = dot;
        while i > 0 && b[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i == 0 {
            return String::new();
        }
        if b[i - 1] == b')' {
            // Chained call: `recv.m(..).op(..)` — find `m`.
            let open = match self.matching_open(i - 1) {
                Some(o) => o,
                None => return String::new(),
            };
            let mut j = open;
            while j > 0 && b[j - 1].is_ascii_whitespace() {
                j -= 1;
            }
            let name_end = j;
            while j > 0 && (b[j - 1].is_ascii_alphanumeric() || b[j - 1] == b'_') {
                j -= 1;
            }
            let name = &self.code[j..name_end];
            let mut k = j;
            while k > 0 && b[k - 1].is_ascii_whitespace() {
                k -= 1;
            }
            if k == 0 || b[k - 1] != b'.' {
                return String::new(); // free call / constructor — root
            }
            if name == "child" {
                let site = Site {
                    dot: k - 1,
                    arg_start: open + 1,
                    op: "child",
                    line: self.line_of(k - 1),
                };
                return self.resolve_path(&site, depth + 1).unwrap_or_default();
            }
            // Transparent pass-through (`.clone()` etc.).
            return self.receiver_prefix(k - 1, depth + 1);
        }
        if b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_' {
            let name_end = i;
            let mut j = i;
            while j > 0 && (b[j - 1].is_ascii_alphanumeric() || b[j - 1] == b'_') {
                j -= 1;
            }
            let name = self.code[j..name_end].to_string();
            let mut k = j;
            while k > 0 && b[k - 1].is_ascii_whitespace() {
                k -= 1;
            }
            if k > 0 && b[k - 1] == b'.' && self.code[..k - 1].trim_end().ends_with("self") {
                // `self.field` — trace the field initializer.
                return self.field_prefix(&name, depth);
            }
            if k > 0 && (b[k - 1] == b'.' || b[k - 1] == b':') {
                return String::new(); // deeper chain we do not model
            }
            // A `let`-bound subtree.
            if let Some(rhs) = self.let_rhs(&name, dot) {
                return self.child_chain_path(rhs, depth);
            }
        }
        String::new()
    }

    /// Path of the last `.child(` call inside `span` (a `let` RHS or field
    /// initializer), or empty when the span holds none.
    fn child_chain_path(&self, (start, end): (usize, usize), depth: usize) -> String {
        let Some(at) = self.code[start..end].rfind(".child(") else {
            return String::new();
        };
        let dot = start + at;
        let site = Site {
            dot,
            arg_start: dot + ".child(".len(),
            op: "child",
            line: self.line_of(dot),
        };
        self.resolve_path(&site, depth + 1).unwrap_or_default()
    }

    /// Prefix from a `field: <expr containing .child(..)>` initializer.
    fn field_prefix(&self, field: &str, depth: usize) -> String {
        let needle = format!("{field}:");
        let mut from = 0;
        while let Some(at) = self.code[from..].find(&needle) {
            let at = from + at;
            from = at + needle.len();
            // Word boundary on the left; reject `field::`.
            if at > 0 {
                let prev = self.code.as_bytes()[at - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b':' {
                    continue;
                }
            }
            if self.code[at + needle.len()..].starts_with(':') {
                continue;
            }
            let start = at + needle.len();
            let end = self.expr_end(start);
            let path = self.child_chain_path((start, end), depth);
            if !path.is_empty() {
                return path;
            }
        }
        String::new()
    }

    /// End of an initializer expression: the `,` or `}` at nesting level 0.
    fn expr_end(&self, start: usize) -> usize {
        let b = self.code.as_bytes();
        let mut depth = 0usize;
        let mut i = start;
        while i < b.len() {
            match b[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'}' => {
                    if depth == 0 {
                        return i;
                    }
                    depth -= 1;
                }
                b',' if depth == 0 => return i,
                _ => {}
            }
            i += 1;
        }
        b.len()
    }

    /// Offset of the `(` matching the `)` at `close`.
    fn matching_open(&self, close: usize) -> Option<usize> {
        let b = self.code.as_bytes();
        let mut depth = 0usize;
        let mut i = close + 1;
        while i > 0 {
            i -= 1;
            match b[i] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
        None
    }
}

/// The content of a leading `"…"` literal (escape-aware, minimal).
fn string_literal(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars();
    if chars.next() != Some('"') {
        return out;
    }
    let mut escaped = false;
    for c in chars {
        if escaped {
            out.push(c);
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            break;
        } else {
            out.push(c);
        }
    }
    out
}

/// Rewrites every `format!` placeholder to `{*}` so `script-{i}` and
/// `script-{idx}` normalize to the same audited path segment.
fn normalize_placeholders(s: &str) -> String {
    let mut out = String::new();
    let mut it = s.chars().peekable();
    while let Some(c) = it.next() {
        if c == '{' {
            for d in it.by_ref() {
                if d == '}' {
                    break;
                }
            }
            out.push_str("{*}");
        } else {
            out.push(c);
        }
    }
    out
}

/// `true` for a bare identifier.
fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !s.starts_with(|c: char| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse("crates/sim/src/x.rs", src)];
        let mut out = Vec::new();
        check(&files, &mut out);
        out.sort_by_key(|f| f.line);
        out
    }

    #[test]
    fn literal_and_format_labels_are_audited_silently() {
        let out = run(
            "fn f(seeds: &SeedTree, i: usize) {\n    let _a = seeds.stream(\"alpha\");\n    let _b = seeds.stream(&format!(\"beta-{i}\"));\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn duplicate_consuming_labels_collide() {
        let out = run(
            "fn f(seeds: &SeedTree) {\n    let _a = seeds.stream(\"alpha\");\n    let _b = seeds.stream(\"alpha\");\n}\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("`alpha`"), "{}", out[0].message);
        assert!(
            out[0].message.contains("crates/sim/src/x.rs:2"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn format_placeholders_normalize_before_collision_checks() {
        let out = run(
            "fn f(seeds: &SeedTree, i: usize, j: usize) {\n    let _a = seeds.stream(&format!(\"s-{i}\"));\n    let _b = seeds.stream(&format!(\"s-{j}\"));\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`s-{*}`"), "{}", out[0].message);
    }

    #[test]
    fn indexed_derivations_are_audited_like_formatted_labels() {
        let out = run(
            "fn f(seeds: &SeedTree, i: u64, p: &str) -> u64 {\n    let a = seeds.derive_indexed(\"frame/\", i);\n    let _r = seeds.stream(&format!(\"frame/{i}\"));\n    a ^ seeds.derive_indexed(p, i)\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
        assert!(
            out[0].message.contains("`derive_indexed(..)`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn derive_and_stream_may_share_a_label() {
        let out = run(
            "fn f(seeds: &SeedTree) -> u64 {\n    let key = seeds.derive(\"sig\");\n    let _r = seeds.stream(\"sig\");\n    key\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn child_namespaces_prefix_the_path() {
        let out = run(
            "fn f(seeds: &SeedTree) {\n    let _a = seeds.child(\"ns\").stream(\"x\");\n    let _b = seeds.stream(\"x\");\n}\n",
        );
        // `ns/x` and `x` are distinct; `ns` itself is consumed once.
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn let_bound_namespaces_are_traced_across_lines() {
        let out = run(
            "fn f(seeds: &SeedTree, i: usize) {\n    let ns = seeds.child(\"faults\");\n    let _s = ns\n        .child(&format!(\"script-{i}\"))\n        .stream(&format!(\"seed-{}\", i));\n}\nfn g(seeds: &SeedTree, i: usize) {\n    let _t = seeds.child(\"faults\");\n}\n",
        );
        // g() re-consumes the `faults` namespace label.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`faults`"), "{}", out[0].message);
    }

    #[test]
    fn field_subtrees_are_traced_through_the_constructor() {
        let out = run(
            "struct Cam {\n    seeds: SeedTree,\n}\nimpl Cam {\n    fn new(seeds: &SeedTree) -> Cam {\n        Cam {\n            seeds: seeds.child(\"img\"),\n        }\n    }\n    fn frame(&self) -> SimRng {\n        self.seeds.stream(\"frame\")\n    }\n}\nfn other(seeds: &SeedTree) -> SimRng {\n    seeds.stream(\"frame\")\n}\n",
        );
        // `img/frame` vs `frame`: no collision.
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn dynamic_labels_are_unauditable() {
        let out = run(
            "fn f(seeds: &SeedTree, name: &str) {\n    let _a = seeds.stream(name);\n    let _b = seeds.stream(&label_for(3));\n}\n",
        );
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("not statically auditable"));
    }

    #[test]
    fn test_code_and_the_rng_core_are_exempt() {
        let core = SourceFile::parse(
            "crates/sim/src/rng.rs",
            "impl SeedTree {\n    pub fn stream(&self, label: &str) -> SimRng {\n        SimRng::seed_from_u64(self.derive(label))\n    }\n}\n",
        );
        let lib = SourceFile::parse(
            "crates/sim/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(seeds: &SeedTree) {\n        let _a = seeds.stream(\"dup\");\n        let _b = seeds.stream(\"dup\");\n    }\n}\n",
        );
        let mut out = Vec::new();
        check(&[core, lib], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
