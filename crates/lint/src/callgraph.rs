//! Name-based call graph over the [`crate::symbols`] table.
//!
//! Three call shapes are recognized in function-body token streams:
//!
//! * `name(..)`          — free-function call, resolved by bare name;
//! * `Qual::name(..)`    — associated call, resolved by `(type, name)`
//!   with `Self::` mapped through the enclosing impl;
//! * `recv.name(..)`     — method call. The receiver type is unknown, so
//!   this resolves to *every* visible workspace method of that name —
//!   except for a literal `self` receiver, which is pinned to the
//!   enclosing impl type when that type defines the method.
//!
//! Over-approximation is deliberate: an extra edge can only *add* an
//! effect downstream, so the purity and allocation rules stay sound.
//! Calls into `std` (or anything else outside the workspace) resolve to
//! nothing and contribute no edge — their effects are covered by the
//! local token patterns in [`crate::effects`].

use crate::symbols::{FnId, Symbols};

/// One resolved call site inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// The callee node.
    pub callee: FnId,
    /// 1-based line of the call.
    pub line: usize,
    /// `true` when the call names exactly one workspace function by its
    /// path, a `self` receiver or a typed `self.field` receiver: a real
    /// call, not a fan-out guess over same-named methods (a fan-out with
    /// one candidate is still a guess: `xs.iter()` may be `std`'s).
    pub unique: bool,
}

/// Adjacency list, indexed by caller [`FnId`]. Sites keep body order, one
/// per call and candidate callee, which makes witness paths deterministic
/// and lets a rule judge each call of a callee on its own line.
#[derive(Debug)]
pub struct CallGraph {
    /// `calls[caller]` — resolved call sites in source order.
    pub calls: Vec<Vec<CallSite>>,
}

/// Workspace method names that collide with ubiquitous `std` methods
/// (`str::split`, `[T]::split`, …). Fanning these out would wire every
/// string split to `SimRng::split` and taint whole subgraphs with phantom
/// RNG, so they resolve only through a pinned receiver (`self.name(..)`
/// or `self.field.name(..)` with a known field type) or a qualified call.
/// Keep this list short and justified — each entry is a hole the effect
/// analysis cannot see through for unpinned receivers.
const AMBIGUOUS_METHODS: &[&str] = &["split", "expect"];

/// Tokens that look like calls but never are.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "loop", "for", "in", "match", "return", "let", "mut", "ref", "move",
    "break", "continue", "as", "where", "unsafe", "async", "await", "fn", "impl", "pub", "use",
    "struct", "enum", "trait", "type", "const", "static", "dyn", "self", "Self", "super", "crate",
];

impl CallGraph {
    /// Extracts and resolves every call edge.
    #[must_use]
    pub fn build(syms: &Symbols<'_>) -> CallGraph {
        let mut calls = Vec::with_capacity(syms.fns.len());
        for id in 0..syms.fns.len() {
            calls.push(edges_of(syms, id));
        }
        CallGraph { calls }
    }

    /// The call sites of one function.
    #[must_use]
    pub fn out(&self, id: FnId) -> &[CallSite] {
        &self.calls[id]
    }
}

/// Unpinned method fan-out, with the ambiguous-name guard.
fn fan_out(syms: &Symbols<'_>, from_crate: &str, name: &str) -> Vec<FnId> {
    if AMBIGUOUS_METHODS.contains(&name) {
        return Vec::new();
    }
    syms.resolve_method(from_crate, name)
}

/// Resolves the call sites of one function body.
fn edges_of(syms: &Symbols<'_>, id: FnId) -> Vec<CallSite> {
    let info = &syms.fns[id];
    let unit = &syms.units[info.file];
    let body = unit.parsed.body_tokens(syms.item(id));
    let self_ty = info.owner_ty.as_deref();
    let mut sites: Vec<CallSite> = Vec::new();
    for (k, tok) in body.iter().enumerate() {
        if !tok.ident || KEYWORDS.contains(&tok.text.as_str()) {
            continue;
        }
        if body.get(k + 1).map_or("", |t| t.text.as_str()) != "(" {
            continue;
        }
        let prev = |n: usize| {
            k.checked_sub(n)
                .and_then(|j| body.get(j))
                .map_or("", |t| t.text.as_str())
        };
        let (targets, pinned) = if prev(1) == "." {
            // Method call. A `self.field.name(..)` receiver with a
            // recorded field type is TRUSTED: the declared type is
            // authoritative, so a `std` receiver (`BinaryHeap`, `Vec`, …)
            // resolves to nothing rather than fanning out to same-named
            // workspace methods. A literal `self.name(..)` resolves
            // through the enclosing impl with fan-out as fallback (the
            // method may be a trait-default body). Everything else fans
            // out — except the std-ambiguous names, which only resolve
            // when pinned.
            if prev(3) == "." && prev(4) == "self" && syms.fns[id].owner_ty.is_some() {
                let field_ty = self_ty.and_then(|ty| syms.field_type(ty, prev(2)));
                match field_ty {
                    Some(ty) => (
                        syms.resolve_qualified(&info.crate_name, &ty, &tok.text, None),
                        true,
                    ),
                    None => (fan_out(syms, &info.crate_name, &tok.text), false),
                }
            } else if prev(2) == "self" {
                let pinned = self_ty
                    .map(|ty| syms.resolve_qualified(&info.crate_name, ty, &tok.text, None))
                    .filter(|ids| !ids.is_empty());
                match pinned {
                    Some(ids) => (ids, true),
                    None => (fan_out(syms, &info.crate_name, &tok.text), false),
                }
            } else {
                (fan_out(syms, &info.crate_name, &tok.text), false)
            }
        } else if prev(1) == ":" && prev(2) == ":" {
            let qual = prev(3);
            if qual.is_empty()
                || !qual
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                (Vec::new(), false)
            } else {
                let ids = syms.resolve_qualified(&info.crate_name, qual, &tok.text, self_ty);
                (ids, true)
            }
        } else if prev(1) == "fn" {
            (Vec::new(), false) // nested definition, not a call
        } else {
            (syms.resolve_bare(&info.crate_name, &tok.text), true)
        };
        let unique = pinned && targets.len() == 1;
        sites.extend(targets.into_iter().map(|callee| CallSite {
            callee,
            line: tok.line,
            unique,
        }));
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;
    use std::path::Path;

    fn files(src: &str) -> Vec<SourceFile> {
        vec![SourceFile::parse("crates/core/src/x.rs", src)]
    }

    fn names_called_by(syms: &Symbols<'_>, g: &CallGraph, caller: &str) -> Vec<String> {
        let (id, _) = syms
            .fns
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == caller)
            .expect("caller");
        g.out(id).iter().map(|s| syms.display(s.callee)).collect()
    }

    #[test]
    fn bare_qualified_and_method_calls_resolve() {
        let files = files(
            "fn a() {\n    helper();\n    S::assoc();\n    let s = S;\n    s.m();\n}\nfn helper() {}\nstruct S;\nimpl S {\n    fn assoc() {}\n    fn m(&self) {}\n}\n",
        );
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        assert_eq!(
            names_called_by(&syms, &g, "a"),
            vec!["helper", "S::assoc", "S::m"]
        );
    }

    #[test]
    fn self_receiver_pins_to_the_impl_type() {
        let files = files(
            "struct A;\nstruct B;\nimpl A {\n    fn go(&self) {\n        self.step();\n    }\n    fn step(&self) {}\n}\nimpl B {\n    fn step(&self) {}\n}\n",
        );
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        assert_eq!(names_called_by(&syms, &g, "go"), vec!["A::step"]);
    }

    #[test]
    fn unknown_receivers_fan_out_to_all_methods() {
        let files = files(
            "struct A;\nstruct B;\nimpl A {\n    fn step(&self) {}\n}\nimpl B {\n    fn step(&self) {}\n}\nfn drive(x: &A) {\n    x.step();\n}\n",
        );
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        assert_eq!(
            names_called_by(&syms, &g, "drive"),
            vec!["A::step", "B::step"]
        );
    }

    #[test]
    fn keywords_macros_and_std_calls_produce_no_edges() {
        let files = files(
            "fn a(xs: &[u8]) {\n    if xs.len() > 0 {\n        let v = Vec::<u8>::with_capacity(4);\n        drop(v);\n    }\n    let _ = format!(\"x\");\n    while check() {}\n}\nfn check() -> bool { false }\n",
        );
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        assert_eq!(names_called_by(&syms, &g, "a"), vec!["check"]);
    }

    #[test]
    fn self_qualified_assoc_calls_resolve() {
        let files = files(
            "struct S;\nimpl S {\n    fn new() -> S {\n        Self::seed()\n    }\n    fn seed() -> S { S }\n}\n",
        );
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        assert_eq!(names_called_by(&syms, &g, "new"), vec!["S::seed"]);
    }
}
