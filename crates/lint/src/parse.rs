//! A lightweight Rust *item* parser over the lexical views.
//!
//! PR 2's rules were per-line pattern matches; the call-graph rules
//! (`IOTSE-M11`/`S12`/`H13`) need to know *which function* a line belongs
//! to, what that function's signature says, and how modules nest. This
//! module recovers exactly that — and nothing more — from the
//! comment/string-blanked `code` view: functions with their signatures,
//! owners and 1-based line spans, `impl` and `trait` blocks, and struct
//! fields; other items are stepped over. Function *bodies* are kept as flat token
//! streams; no expression grammar, no type checking, no `syn` (the build
//! environment has no registry access).
//!
//! The parser is deliberately forgiving: anything it does not recognize is
//! skipped token by token, so a new syntax never aborts the scan — it only
//! degrades the analysis toward "no information", which every downstream
//! rule treats conservatively.

use crate::scan::SourceFile;

/// One lexical token of the `code` view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Identifier, keyword or number text — or a one-character punct.
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// `true` for identifier-like tokens (including numbers).
    pub ident: bool,
}

impl Token {
    fn punct(c: char, line: usize) -> Token {
        Token {
            text: c.to_string(),
            line,
            ident: false,
        }
    }
}

/// Splits the blanked `code` view into identifier and punct tokens.
/// String/char literals and comments are already spaces, so they can never
/// produce a token.
#[must_use]
pub fn tokenize(file: &SourceFile) -> Vec<Token> {
    let mut toks = Vec::new();
    for (i, line) in file.code.iter().enumerate() {
        let lineno = i + 1;
        let b = line.as_bytes();
        let mut j = 0;
        while j < b.len() {
            let c = b[j];
            if c.is_ascii_whitespace() {
                j += 1;
            } else if c.is_ascii_alphanumeric() || c == b'_' {
                let start = j;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                toks.push(Token {
                    text: line[start..j].to_string(),
                    line: lineno,
                    ident: true,
                });
            } else {
                toks.push(Token::punct(c as char, lineno));
                j += 1;
            }
        }
    }
    toks
}

/// An `impl` block (or a `trait` declaration, which hosts default bodies).
#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// Base name of the implementing type (`StepCounter` for
    /// `impl Workload for StepCounter`), or the trait's own name for a
    /// `trait` declaration.
    pub ty: String,
    /// Base name of the implemented trait, if this is a trait impl.
    pub trait_name: Option<String>,
    /// 1-based line of the `impl`/`trait` keyword.
    pub line: usize,
    /// `true` when the block declares a type or const parameter (or is a
    /// `trait`, whose default bodies are instantiated per implementor), so
    /// its methods are compiled in each caller's crate.
    pub generic: bool,
}

/// A parsed function with a body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Signature text (`fn` through the byte before the body `{`),
    /// single-spaced.
    pub sig: String,
    /// Body token span: indices into the file's token stream, inclusive of
    /// both braces.
    pub body: (usize, usize),
    /// 1-based inclusive line span of the body.
    pub body_lines: (usize, usize),
    /// Enclosing `impl`/`trait` block, as an index into
    /// [`ParsedFile::impls`].
    pub owner: Option<usize>,
    /// `true` when the item sits inside a `#[cfg(test)]` module.
    pub is_test: bool,
    /// `true` when a `// iotse-lint: hot-path` marker sits directly above
    /// the item (above its attributes/doc comments).
    pub hot_path: bool,
    /// `true` when the item carries `#[inline]` or `#[inline(always)]`.
    pub inline: bool,
    /// `true` when the function declares a type or const parameter, takes
    /// an argument-position `impl Trait`, or sits in a generic
    /// [`ImplBlock`]: it is compiled in each caller's crate.
    pub generic: bool,
}

/// A named struct field with its type text (`seeds: SeedTree`).
#[derive(Debug, Clone)]
pub struct FieldDecl {
    /// Owning struct's base name.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// Type text, single-spaced.
    pub ty: String,
}

/// Everything the item parser recovers from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// The full token stream (function bodies index into it).
    pub tokens: Vec<Token>,
    /// All functions with bodies, in source order.
    pub fns: Vec<FnItem>,
    /// All `impl` blocks and `trait` declarations.
    pub impls: Vec<ImplBlock>,
    /// Named struct fields.
    pub fields: Vec<FieldDecl>,
}

impl ParsedFile {
    /// Parses one scanned file.
    #[must_use]
    pub fn parse(file: &SourceFile) -> ParsedFile {
        let tokens = tokenize(file);
        let mut fns = Vec::new();
        let mut impls = Vec::new();
        let mut fields = Vec::new();
        let mut p = Parser {
            file,
            toks: &tokens,
            i: 0,
            fns: &mut fns,
            impls: &mut impls,
            fields: &mut fields,
            pending_inline: false,
        };
        p.items_until_close(None);
        ParsedFile {
            tokens,
            fns,
            impls,
            fields,
        }
    }

    /// The tokens of `f`'s body, braces included.
    #[must_use]
    pub fn body_tokens(&self, f: &FnItem) -> &[Token] {
        &self.tokens[f.body.0..=f.body.1]
    }
}

/// Marker comment (above an item) that enrolls it in `IOTSE-H13`.
pub const HOT_PATH_MARKER: &str = "iotse-lint: hot-path";

struct Parser<'a> {
    file: &'a SourceFile,
    toks: &'a [Token],
    i: usize,
    fns: &'a mut Vec<FnItem>,
    impls: &'a mut Vec<ImplBlock>,
    fields: &'a mut Vec<FieldDecl>,
    /// Set by an `#[inline]`/`#[inline(always)]` attribute, taken by the
    /// item that follows it.
    pending_inline: bool,
}

/// `true` when a generic parameter list (`<` through `>`) declares a type
/// or const parameter; a list of lifetimes alone is not generic code.
fn declares_type_params(generics: &[Token]) -> bool {
    let mut depth = 0usize;
    let mut param_start = false;
    for t in generics {
        match t.text.as_str() {
            "<" => {
                depth += 1;
                param_start = depth == 1;
                continue;
            }
            ">" => depth = depth.saturating_sub(1),
            "," if depth == 1 => {
                param_start = true;
                continue;
            }
            text if param_start && text != "'" => return true,
            _ => {}
        }
        param_start = false;
    }
    false
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn peek_text(&self) -> &str {
        self.toks.get(self.i).map_or("", |t| t.text.as_str())
    }

    fn peek2_text(&self) -> &str {
        self.toks.get(self.i + 1).map_or("", |t| t.text.as_str())
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    /// Consumes a balanced `open`…`close` group (current token must be
    /// `open`). Returns the index just past the closing token.
    fn consume_balanced(&mut self, open: char, close: char) {
        let (open, close) = (open.to_string(), close.to_string());
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Consumes a balanced generic parameter list starting at `<`. A `>`
    /// preceded by `-` (the arrow of an `Fn() -> T` bound) does not close;
    /// brace groups (const-generic expressions) are skipped whole.
    fn consume_generics(&mut self) {
        let mut depth = 0usize;
        let mut prev_minus = false;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" if !prev_minus => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                "{" => {
                    self.consume_balanced('{', '}');
                    prev_minus = false;
                    continue;
                }
                _ => {}
            }
            prev_minus = t.text == "-";
            self.bump();
        }
    }

    /// Skips to the `;` that terminates a `use`/`const`/`static`/`type`
    /// item, stepping over any balanced brace group in an initializer.
    fn consume_to_semi(&mut self) {
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                ";" => {
                    self.bump();
                    return;
                }
                "{" => self.consume_balanced('{', '}'),
                "(" => self.consume_balanced('(', ')'),
                "[" => self.consume_balanced('[', ']'),
                _ => self.bump(),
            }
        }
    }

    /// Skips one attribute (`#[…]` or `#![…]`); current token is `#`.
    /// An `#[inline]` or `#[inline(always)]` marks the next item inline.
    fn consume_attribute(&mut self) {
        self.bump();
        if self.peek_text() == "!" {
            self.bump();
        }
        if self.peek_text() == "[" {
            let start = self.i;
            self.consume_balanced('[', ']');
            let text: Vec<&str> = self.toks[start..self.i]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            if matches!(
                text.as_slice(),
                ["[", "inline", "]"] | ["[", "inline", "(", "always", ")", "]"]
            ) {
                self.pending_inline = true;
            }
        }
    }

    /// Steps over a `pub`, `pub(crate)`, `pub(super)` or `pub(in …)`.
    fn skip_vis(&mut self) {
        if self.peek_text() == "pub" {
            self.bump();
            if self.peek_text() == "(" {
                self.consume_balanced('(', ')');
            }
        }
    }

    /// `true` if the comment block directly above `line` (walking over
    /// attributes and doc comments) carries the hot-path marker.
    fn hot_marker_above(&self, line: usize) -> bool {
        let mut idx = line.saturating_sub(1); // 0-based index of the item line
        while idx > 0 {
            idx -= 1;
            let comment = self.file.comments[idx].trim();
            if comment.contains(HOT_PATH_MARKER) {
                return true;
            }
            let code = self.file.code[idx].trim();
            let attr_ish = code.starts_with("#[")
                || code.ends_with(")]")
                || code.ends_with(']')
                || (code.is_empty() && !comment.is_empty());
            if !attr_ish {
                return false;
            }
        }
        false
    }

    /// Parses items until the matching `}` of the enclosing scope (or EOF).
    fn items_until_close(&mut self, owner: Option<usize>) {
        while let Some(t) = self.peek() {
            if t.text == "}" {
                self.bump();
                return;
            }
            if t.text == "#" {
                self.consume_attribute();
                continue;
            }
            let inline = std::mem::take(&mut self.pending_inline);
            self.skip_vis();
            // Modifier keywords that may precede `fn`.
            let mut k = self.i;
            while matches!(
                self.toks.get(k).map(|t| t.text.as_str()),
                Some("const" | "async" | "unsafe" | "extern" | "default")
            ) {
                // `const`/`static`/`type` items are handled below unless
                // they are followed by `fn`-introducing tokens.
                if self.toks[k].text == "const"
                    && !matches!(
                        self.toks.get(k + 1).map(|t| t.text.as_str()),
                        Some("fn" | "async" | "unsafe" | "extern")
                    )
                {
                    break;
                }
                k += 1;
            }
            let kw = self.toks.get(k).map(|t| t.text.clone()).unwrap_or_default();
            match kw.as_str() {
                "fn" => {
                    self.i = k;
                    self.parse_fn(owner, inline);
                }
                "impl" => {
                    self.i = k;
                    self.parse_impl();
                }
                "trait" => {
                    self.i = k;
                    self.parse_trait();
                }
                "mod" => {
                    self.i = k;
                    self.parse_mod();
                }
                "struct" | "enum" | "union" => {
                    self.i = k;
                    self.parse_adt();
                }
                "const" | "static" | "type" => {
                    self.i = k;
                    self.skip_simple_decl();
                }
                "use" | "macro_rules" => {
                    self.i = k;
                    if kw == "macro_rules" {
                        // `macro_rules! name { … }`
                        self.bump(); // macro_rules
                        self.bump(); // !
                        self.bump(); // name
                        if self.peek_text() == "{" {
                            self.consume_balanced('{', '}');
                        } else {
                            self.consume_to_semi();
                        }
                    } else {
                        self.consume_to_semi();
                    }
                }
                _ => {
                    // Not an item head: in bodies this is ordinary code;
                    // at item level it is recovery. Either way, step over
                    // balanced groups so we never enter an expression brace
                    // thinking it is a module.
                    match self.peek_text() {
                        "{" => self.consume_balanced('{', '}'),
                        "(" => self.consume_balanced('(', ')'),
                        "[" => self.consume_balanced('[', ']'),
                        _ => self.bump(),
                    }
                }
            }
        }
    }

    fn parse_fn(&mut self, owner: Option<usize>, inline: bool) {
        let fn_line = self.toks[self.i].line;
        let sig_start = self.i;
        self.bump(); // fn
        let Some(name_tok) = self.peek() else { return };
        if !name_tok.ident {
            return;
        }
        let name = name_tok.text.clone();
        self.bump();
        let mut generic = owner.is_some_and(|o| self.impls[o].generic);
        if self.peek_text() == "<" {
            let start = self.i;
            self.consume_generics();
            generic |= declares_type_params(&self.toks[start..self.i]);
        }
        if self.peek_text() == "(" {
            let start = self.i;
            self.consume_balanced('(', ')');
            generic |= self.toks[start..self.i].iter().any(|t| t.text == "impl");
        }
        // Return type / where clause: run to the body `{` or a `;`.
        loop {
            match self.peek_text() {
                "" | ";" | "{" => break,
                "<" => self.consume_generics(),
                "(" => self.consume_balanced('(', ')'),
                "[" => self.consume_balanced('[', ']'),
                _ => self.bump(),
            }
        }
        let sig = join_tokens(&self.toks[sig_start..self.i]);
        if self.peek_text() == ";" {
            self.bump(); // trait method declaration without a body
            return;
        }
        if self.peek_text() != "{" {
            return;
        }
        let body_start = self.i;
        self.consume_balanced('{', '}');
        let body_end = self.i - 1;
        let body_lines = (self.toks[body_start].line, self.toks[body_end].line);
        self.fns.push(FnItem {
            hot_path: self.hot_marker_above(fn_line),
            inline,
            generic,
            name,
            line: fn_line,
            sig,
            body: (body_start, body_end),
            body_lines,
            owner,
            is_test: self.file.in_test_span(fn_line),
        });
        // Items nested inside the body (local fns, helper structs) are
        // parsed in a second bounded pass so they resolve as call targets.
        let save = self.i;
        self.i = body_start + 1;
        let end = body_end;
        self.nested_items(owner, end);
        self.i = save;
    }

    /// Scans a body span for nested `fn` items only (no full recursion —
    /// expression braces make deeper structure ambiguous, and local `fn`s
    /// are the only nested items the call graph needs).
    fn nested_items(&mut self, owner: Option<usize>, end: usize) {
        while self.i < end {
            if self.peek_text() == "fn" {
                // Exclude `Fn`-trait paths: previous token must not be a
                // path separator or `dyn`/`impl`.
                let prev = self.toks[..self.i]
                    .last()
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                if prev != ":" && prev != "dyn" && prev != "impl" && prev != "&" {
                    let save_len = self.fns.len();
                    self.parse_fn(owner, false);
                    if self.fns.len() > save_len {
                        continue;
                    }
                }
            }
            self.bump();
        }
    }

    fn parse_impl(&mut self) {
        let line = self.toks[self.i].line;
        self.bump(); // impl
        let mut generic = false;
        if self.peek_text() == "<" {
            let start = self.i;
            self.consume_generics();
            generic = declares_type_params(&self.toks[start..self.i]);
        }
        // Header tokens up to `{`, split on a top-level `for`.
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut seen_for = false;
        loop {
            match self.peek_text() {
                "" | "{" => break,
                "where" => {
                    // Skip the where clause entirely.
                    while !matches!(self.peek_text(), "" | "{") {
                        if self.peek_text() == "<" {
                            self.consume_generics();
                        } else {
                            self.bump();
                        }
                    }
                    break;
                }
                "for" => {
                    seen_for = true;
                    self.bump();
                }
                "<" => self.consume_generics(),
                "(" => self.consume_balanced('(', ')'),
                t => {
                    let dst = if seen_for {
                        &mut after_for
                    } else {
                        &mut before_for
                    };
                    dst.push(t.to_string());
                    self.bump();
                }
            }
        }
        let (trait_name, ty) = if seen_for {
            (
                last_path_segment(&before_for),
                last_path_segment(&after_for),
            )
        } else {
            (None, last_path_segment(&before_for))
        };
        let idx = self.impls.len();
        self.impls.push(ImplBlock {
            ty: ty.unwrap_or_default(),
            trait_name,
            line,
            generic,
        });
        if self.peek_text() == "{" {
            self.bump();
            self.items_until_close(Some(idx));
        }
    }

    fn parse_trait(&mut self) {
        let line = self.toks[self.i].line;
        self.bump(); // trait
        let name = self.peek().filter(|t| t.ident).map(|t| t.text.clone());
        let Some(name) = name else { return };
        self.bump();
        while !matches!(self.peek_text(), "" | "{" | ";") {
            if self.peek_text() == "<" {
                self.consume_generics();
            } else if self.peek_text() == "(" {
                self.consume_balanced('(', ')');
            } else {
                self.bump();
            }
        }
        if self.peek_text() == "{" {
            let idx = self.impls.len();
            self.impls.push(ImplBlock {
                ty: name,
                trait_name: None,
                line,
                generic: true,
            });
            self.bump();
            self.items_until_close(Some(idx));
        } else if self.peek_text() == ";" {
            self.bump();
        }
    }

    fn parse_mod(&mut self) {
        self.bump(); // mod
        if !self.peek().is_some_and(|t| t.ident) {
            return;
        }
        self.bump();
        if self.peek_text() == ";" {
            self.bump();
        } else if self.peek_text() == "{" {
            self.bump();
            self.items_until_close(None);
        }
    }

    fn parse_adt(&mut self) {
        let is_struct = self.peek_text() == "struct";
        self.bump();
        let name = self.peek().filter(|t| t.ident).map(|t| t.text.clone());
        let Some(name) = name else { return };
        self.bump();
        if self.peek_text() == "<" {
            self.consume_generics();
        }
        while !matches!(self.peek_text(), "" | "{" | "(" | ";") {
            if self.peek_text() == "<" {
                self.consume_generics();
            } else {
                self.bump();
            }
        }
        match self.peek_text() {
            "{" => {
                if is_struct {
                    self.parse_struct_fields(&name);
                } else {
                    self.consume_balanced('{', '}');
                }
            }
            "(" => {
                self.consume_balanced('(', ')');
                if self.peek_text() == ";" {
                    self.bump();
                }
            }
            ";" => self.bump(),
            _ => {}
        }
    }

    /// Records `name: Type` fields of a struct body; current token is `{`.
    fn parse_struct_fields(&mut self, owner: &str) {
        self.bump(); // {
        loop {
            match self.peek_text() {
                "" => return,
                "}" => {
                    self.bump();
                    return;
                }
                "#" => {
                    self.consume_attribute();
                    continue;
                }
                _ => {}
            }
            self.skip_vis();
            let (name_ok, field_name) = match self.peek() {
                Some(t) if t.ident => (true, t.text.clone()),
                _ => (false, String::new()),
            };
            if !name_ok || self.peek2_text() != ":" {
                // Recovery: skip one token.
                self.bump();
                continue;
            }
            self.bump(); // name
            self.bump(); // :
            let ty_start = self.i;
            // Type runs to the `,` or `}` at this level.
            loop {
                match self.peek_text() {
                    "" | "," | "}" => break,
                    "<" => self.consume_generics(),
                    "(" => self.consume_balanced('(', ')'),
                    "[" => self.consume_balanced('[', ']'),
                    "{" => self.consume_balanced('{', '}'),
                    _ => self.bump(),
                }
            }
            self.fields.push(FieldDecl {
                owner: owner.to_string(),
                name: field_name,
                ty: join_tokens(&self.toks[ty_start..self.i]),
            });
            if self.peek_text() == "," {
                self.bump();
            }
        }
    }

    /// Steps over a `const`, `static` or `type` item.
    fn skip_simple_decl(&mut self) {
        self.bump();
        if self.peek_text() == "mut" {
            self.bump();
        }
        if self.peek().is_some_and(|t| t.ident) {
            self.consume_to_semi();
        }
    }
}

/// Joins tokens back into readable single-spaced text (`fn new ( ) -> Self`
/// becomes `fn new() -> Self`-ish; exact spacing is not load-bearing).
#[must_use]
pub fn join_tokens(toks: &[Token]) -> String {
    let mut out = String::new();
    for t in toks {
        let glue = matches!(
            t.text.as_str(),
            "(" | ")" | "[" | "]" | "<" | ">" | "," | ";" | ":" | "'" | "!" | "?"
        ) || out.ends_with(['(', '[', '<', '&', ':', '\''])
            || out.is_empty();
        if !glue {
            out.push(' ');
        }
        out.push_str(&t.text);
    }
    out
}

/// The last `::`-separated path segment of a token run (`fmt Display` from
/// `fmt :: Display`), ignoring everything after the path ends.
fn last_path_segment(toks: &[String]) -> Option<String> {
    let mut last = None;
    for t in toks {
        if t == ":" || t == "&" || t == "mut" || t == "dyn" {
            continue;
        }
        if t.chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            last = Some(t.clone());
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse(&SourceFile::parse("crates/core/src/x.rs", src))
    }

    #[test]
    fn functions_and_bodies_are_found() {
        let p = parse("pub fn a(x: u8) -> u8 {\n    helper(x)\n}\nfn helper(x: u8) -> u8 { x }\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "a");
        assert_eq!(p.fns[0].body_lines, (1, 3));
        assert_eq!(p.fns[1].name, "helper");
        assert!(p.fns[0].sig.contains("fn a"));
    }

    #[test]
    fn impl_blocks_attribute_methods() {
        let p = parse(
            "struct S;\nimpl S {\n    pub fn new() -> S { S }\n}\nimpl Workload for S {\n    fn compute(&mut self) {}\n}\n",
        );
        assert_eq!(p.impls.len(), 2);
        assert_eq!(p.impls[0].ty, "S");
        assert_eq!(p.impls[0].trait_name, None);
        assert_eq!(p.impls[1].ty, "S");
        assert_eq!(p.impls[1].trait_name.as_deref(), Some("Workload"));
        let compute = p.fns.iter().find(|f| f.name == "compute").expect("compute");
        assert_eq!(compute.owner, Some(1));
    }

    #[test]
    fn generics_and_where_clauses_do_not_confuse_bodies() {
        let p = parse(
            "pub fn map<F: Fn(u8) -> u8>(f: F) -> Vec<u8>\nwhere\n    F: Copy,\n{\n    vec![f(1)]\n}\n",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "map");
        assert_eq!(p.fns[0].body_lines, (4, 6));
    }

    #[test]
    fn restricted_visibility_is_tracked() {
        // A restricted visibility is stepped over, not taken for an item.
        let p = parse("pub(crate) fn a() {}\npub(super) struct B;\npub fn c() {}\n");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "c"]);
    }

    #[test]
    fn struct_fields_record_types() {
        let p = parse("pub struct G {\n    seeds: SeedTree,\n    pub n: Vec<u8>,\n}\n");
        assert_eq!(p.fields.len(), 2);
        assert_eq!(p.fields[0].owner, "G");
        assert_eq!(p.fields[0].name, "seeds");
        assert_eq!(p.fields[0].ty, "SeedTree");
        assert!(p.fields[1].ty.contains("Vec"));
    }

    #[test]
    fn inline_attributes_and_generic_code_are_recorded() {
        let p = parse(
            "#[inline]\n#[must_use]\nfn a() {}\n#[inline(always)]\nfn b() {}\n#[inline(never)]\nfn c() {}\nfn d<'a>(x: &'a u8) {}\nfn e<T>(x: T) {}\nfn f(x: impl Copy) {}\nimpl<T> W<T> {\n    fn g(&self) {}\n}\nimpl<'a> V<'a> {\n    fn h(&self) {}\n}\n",
        );
        let get = |n: &str| p.fns.iter().find(|f| f.name == n).expect(n);
        let inline: Vec<bool> = ["a", "b", "c", "d"].map(|n| get(n).inline).to_vec();
        assert_eq!(inline, [true, true, false, false]);
        let generic: Vec<bool> = ["a", "d", "e", "f", "g", "h"]
            .map(|n| get(n).generic)
            .to_vec();
        assert_eq!(generic, [false, false, true, true, true, false]);
    }

    #[test]
    fn hot_path_marker_is_detected_above_attributes() {
        let src = "// iotse-lint: hot-path\n#[inline]\nfn tick() {}\nfn cold() {}\n";
        let p = parse(src);
        assert!(p.fns[0].hot_path);
        assert!(!p.fns[1].hot_path);
    }

    #[test]
    fn nested_fns_are_recorded() {
        let p = parse("fn outer() {\n    fn inner(x: u8) -> u8 { x }\n    inner(1);\n}\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[1].name, "inner");
    }

    #[test]
    fn const_fn_and_const_item_are_distinguished() {
        let p = parse("pub const MAX: usize = 3;\npub const fn zero() -> u8 { 0 }\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "zero");
    }

    #[test]
    fn struct_literal_in_const_is_not_a_scope() {
        let p = parse("const C: P = P { x: 1 };\npub fn after() {}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "after");
    }

    #[test]
    fn trait_decls_host_default_bodies() {
        let p = parse(
            "pub trait W {\n    fn id(&self) -> u8;\n    fn memoizable(&self) -> bool {\n        false\n    }\n}\n",
        );
        assert_eq!(p.fns.len(), 1, "only the default body is recorded");
        assert_eq!(p.fns[0].name, "memoizable");
        let owner = p.fns[0].owner.expect("trait pseudo-impl");
        assert_eq!(p.impls[owner].ty, "W");
    }

    #[test]
    fn cfg_test_functions_are_marked() {
        let p = parse("#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn real() {}\n");
        let t = p.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(t.is_test);
        let real = p.fns.iter().find(|f| f.name == "real").expect("real");
        assert!(!real.is_test);
    }
}
