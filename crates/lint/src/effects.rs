//! Per-function effect summaries, propagated over the call graph.
//!
//! Four effect bits are tracked:
//!
//! * [`ALLOC`] — heap allocation (collection constructors, `vec!`/
//!   `format!`, `.collect()`, `.to_string()`-family calls). A site
//!   carrying the `IOTSE-K10` `// lint: <reason>` justification marker is
//!   *not* counted: the justification asserts the allocation is amortized
//!   or intentional, and `IOTSE-H13` honors the same convention.
//! * [`RNG`] — draws pseudo-randomness. Every function defined in a
//!   `src/rng.rs` file is an RNG primitive by fiat; the bit then flows to
//!   callers through the graph.
//! * [`AMBIENT`] — reads or writes ambient state: `static mut` items,
//!   interior-mutability writes (`borrow_mut`/`set`/`store`/…),
//!   `std::env`, `thread_local!`.
//! * [`CLOCK`] — touches a wall-clock type (`Instant`, `SystemTime`).
//!
//! Local bits come from token patterns; [`Effects::analyze`] then closes
//! them transitively (callee bits flow to callers) to a fixpoint. The
//! graph is an over-approximation, so a *clear* bit is a proof — the
//! function provably cannot reach that effect through workspace code —
//! while a *set* bit is only an accusation, which the rules turn into
//! findings with a concrete witness path via [`Effects::witness`].

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::scan::FileKind;
use crate::symbols::{FnId, Symbols};

/// Heap allocation.
pub const ALLOC: u8 = 1;
/// Pseudo-random draw.
pub const RNG: u8 = 2;
/// Ambient state read/write.
pub const AMBIENT: u8 = 4;
/// Wall-clock access.
pub const CLOCK: u8 = 8;

/// Human name of a single effect bit.
#[must_use]
pub fn bit_name(bit: u8) -> &'static str {
    match bit {
        ALLOC => "allocates",
        RNG => "draws RNG",
        AMBIENT => "touches ambient state",
        CLOCK => "reads the wall clock",
        _ => "unknown effect",
    }
}

/// One locally-detected effect source inside a function body.
#[derive(Debug, Clone)]
pub struct LocalEffect {
    /// Which effect.
    pub bit: u8,
    /// 1-based source line.
    pub line: usize,
    /// What matched (`Vec::new(..)`, `` `static mut SLOT` ``, …).
    pub what: String,
}

/// The effect analysis result, indexed by [`FnId`].
#[derive(Debug)]
pub struct Effects {
    /// Locally-detected sources, in body order.
    pub local: Vec<Vec<LocalEffect>>,
    /// Transitive bit union (local ∪ all reachable callees).
    pub total: Vec<u8>,
}

/// Collection types whose `X::new()` / `X::with_capacity()` allocate (or
/// whose first push will).
const ALLOC_TYPES: &[&str] = &[
    "Vec",
    "String",
    "Box",
    "Rc",
    "Arc",
    "BTreeMap",
    "BTreeSet",
    "VecDeque",
    "BinaryHeap",
    "HashMap",
    "HashSet",
];

/// Allocating method names (matched as `.name(`).
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "collect"];

/// Allocating macro names (matched as `name!`).
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Interior-mutability write methods (matched as `.name(`).
const AMBIENT_METHODS: &[&str] = &[
    "borrow_mut",
    "set",
    "store",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    "lock",
];

impl Effects {
    /// Detects local effects and closes them over the call graph.
    #[must_use]
    pub fn analyze(syms: &Symbols<'_>, graph: &CallGraph) -> Effects {
        let static_muts = static_mut_names(syms);
        let mut local = Vec::with_capacity(syms.fns.len());
        let mut total = Vec::with_capacity(syms.fns.len());
        for id in 0..syms.fns.len() {
            let found = local_effects(syms, id, &static_muts);
            total.push(found.iter().fold(0u8, |b, e| b | e.bit));
            local.push(found);
        }
        // Fixpoint: callee bits flow to callers. The graph is small and
        // mostly acyclic, so a handful of sweeps converge.
        loop {
            let mut changed = false;
            for id in 0..total.len() {
                let mut bits = total[id];
                for site in graph.out(id) {
                    bits |= total[site.callee];
                }
                if bits != total[id] {
                    total[id] = bits;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Effects { local, total }
    }

    /// Shortest call path (BFS, body order) from `root` to a function with
    /// a *local* `bit` effect. Returns the path (starting at `root`) and
    /// the terminal local effect. `None` when `root` cannot reach the bit
    /// — i.e. when `total[root] & bit == 0`.
    #[must_use]
    pub fn witness(
        &self,
        graph: &CallGraph,
        root: FnId,
        bit: u8,
    ) -> Option<(Vec<FnId>, LocalEffect)> {
        if self.total[root] & bit == 0 {
            return None;
        }
        let mut parent: Vec<Option<FnId>> = vec![None; self.total.len()];
        let mut queue = std::collections::VecDeque::new();
        let mut visited = vec![false; self.total.len()];
        visited[root] = true;
        queue.push_back(root);
        while let Some(id) = queue.pop_front() {
            if let Some(e) = self.local[id].iter().find(|e| e.bit == bit) {
                let mut path = vec![id];
                let mut cur = id;
                while let Some(p) = parent[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some((path, e.clone()));
            }
            for site in graph.out(id) {
                if self.total[site.callee] & bit != 0 && !visited[site.callee] {
                    visited[site.callee] = true;
                    parent[site.callee] = Some(id);
                    queue.push_back(site.callee);
                }
            }
        }
        None
    }
}

/// Names of every `static mut` item in library code.
fn static_mut_names(syms: &Symbols<'_>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for unit in &syms.units {
        if unit.src.kind != FileKind::Lib {
            continue;
        }
        for line in &unit.src.code {
            if let Some(at) = line.find("static mut ") {
                let rest = &line[at + "static mut ".len()..];
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// Detects the local effects of one function body.
fn local_effects(syms: &Symbols<'_>, id: FnId, static_muts: &BTreeSet<String>) -> Vec<LocalEffect> {
    let info = &syms.fns[id];
    let src = syms.src(id);
    let item = syms.item(id);
    let mut out = Vec::new();
    // RNG primitives: everything defined in an rng core file.
    if src.rel_path.ends_with("src/rng.rs") {
        out.push(LocalEffect {
            bit: RNG,
            line: item.line,
            what: "RNG core primitive".to_string(),
        });
    }
    let body = syms.units[info.file].parsed.body_tokens(item);
    for (k, tok) in body.iter().enumerate() {
        if !tok.ident {
            continue;
        }
        let next = |n: usize| body.get(k + n).map_or("", |t| t.text.as_str());
        let prev = |n: usize| {
            k.checked_sub(n)
                .and_then(|j| body.get(j))
                .map_or("", |t| t.text.as_str())
        };
        let name = tok.text.as_str();
        let mut push = |bit: u8, what: String| {
            out.push(LocalEffect {
                bit,
                line: tok.line,
                what,
            });
        };
        // ALLOC — `X::new(` / `X::with_capacity(` on a collection type.
        if ALLOC_TYPES.contains(&name) && next(1) == ":" && next(2) == ":" {
            let mut m = 3;
            // Step over a turbofish: `Vec::<u8>::new(`.
            if next(m) == "<" {
                let mut depth = 0usize;
                loop {
                    match next(m) {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                m += 1;
                                break;
                            }
                        }
                        "" => break,
                        _ => {}
                    }
                    m += 1;
                }
                if next(m) == ":" && next(m + 1) == ":" {
                    m += 2;
                }
            }
            // No paren check: `or_insert_with(BTreeMap::new)` passes the
            // constructor as a value and still allocates when invoked.
            let assoc = next(m);
            if matches!(assoc, "new" | "with_capacity" | "from") && !src.is_justified(tok.line) {
                push(ALLOC, format!("{name}::{assoc}(..)"));
            }
        }
        // ALLOC — allocating macros and methods.
        if ALLOC_MACROS.contains(&name) && next(1) == "!" && !src.is_justified(tok.line) {
            push(ALLOC, format!("{name}!(..)"));
        }
        if ALLOC_METHODS.contains(&name)
            && prev(1) == "."
            && next(1) == "("
            && !src.is_justified(tok.line)
        {
            push(ALLOC, format!(".{name}(..)"));
        }
        // AMBIENT — static muts, interior-mutability writes, env access.
        if static_muts.contains(name) && next(1) != "!" {
            push(AMBIENT, format!("`static mut {name}`"));
        }
        if AMBIENT_METHODS.contains(&name) && prev(1) == "." && next(1) == "(" {
            push(AMBIENT, format!(".{name}(..)"));
        }
        if name == "env" && prev(1) != "." && next(1) == ":" && next(2) == ":" {
            push(AMBIENT, "std::env access".to_string());
        }
        if name == "thread_local" && next(1) == "!" {
            push(AMBIENT, "thread_local!(..)".to_string());
        }
        // CLOCK — wall-clock types.
        if matches!(name, "Instant" | "SystemTime") {
            push(CLOCK, format!("`{name}`"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;
    use std::path::Path;

    fn files(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter().map(|(p, s)| SourceFile::parse(p, s)).collect()
    }

    fn id_of(syms: &Symbols<'_>, name: &str) -> FnId {
        syms.fns
            .iter()
            .position(|f| f.name == name)
            .expect("fn in table")
    }

    #[test]
    fn local_alloc_patterns_are_detected() {
        let files = files(&[(
            "crates/core/src/x.rs",
            "fn a() {\n    let v: Vec<u8> = Vec::new();\n    let s = format!(\"{}\", 1);\n    let t = s.to_string();\n    drop((v, t));\n}\n",
        )]);
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        let eff = Effects::analyze(&syms, &g);
        let a = id_of(&syms, "a");
        assert_eq!(eff.local[a].len(), 3);
        assert_eq!(eff.total[a], ALLOC);
    }

    #[test]
    fn justified_allocations_do_not_count() {
        let files = files(&[(
            "crates/core/src/x.rs",
            "fn a() {\n    // lint: one-time constructor\n    let v: Vec<u8> = Vec::new();\n    drop(v);\n}\n",
        )]);
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        let eff = Effects::analyze(&syms, &g);
        assert_eq!(eff.total[id_of(&syms, "a")], 0);
    }

    #[test]
    fn rng_is_intrinsic_to_the_rng_core_and_propagates() {
        let files = files(&[
            (
                "crates/sim/src/rng.rs",
                "pub struct SimRng;\nimpl SimRng {\n    pub fn gen(&mut self) -> u64 { 4 }\n}\n",
            ),
            (
                "crates/core/src/x.rs",
                "fn direct(r: &mut SimRng) -> u64 {\n    r.gen()\n}\nfn indirect(r: &mut SimRng) -> u64 {\n    direct(r)\n}\nfn clean() -> u64 { 7 }\n",
            ),
        ]);
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        let eff = Effects::analyze(&syms, &g);
        assert_eq!(eff.total[id_of(&syms, "indirect")] & RNG, RNG);
        assert_eq!(eff.total[id_of(&syms, "clean")], 0);
        let (path, end) = eff
            .witness(&g, id_of(&syms, "indirect"), RNG)
            .expect("witness");
        let names: Vec<String> = path.iter().map(|&p| syms.display(p)).collect();
        assert_eq!(names, vec!["indirect", "direct", "SimRng::gen"]);
        assert_eq!(end.what, "RNG core primitive");
    }

    #[test]
    fn static_mut_and_interior_mutability_are_ambient() {
        let files = files(&[(
            "crates/core/src/x.rs",
            "static mut SLOT: u64 = 0;\nfn touch() -> u64 {\n    unsafe { SLOT }\n}\nfn cell(c: &std::cell::Cell<u8>) {\n    c.set(1);\n}\n",
        )]);
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        let eff = Effects::analyze(&syms, &g);
        assert_eq!(eff.total[id_of(&syms, "touch")], AMBIENT);
        assert_eq!(eff.total[id_of(&syms, "cell")], AMBIENT);
    }

    #[test]
    fn clock_types_are_detected() {
        let files = files(&[(
            "crates/core/src/x.rs",
            "fn t() {\n    let _ = std::time::Instant::now();\n}\n",
        )]);
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        let eff = Effects::analyze(&syms, &g);
        assert_eq!(eff.total[id_of(&syms, "t")], CLOCK);
    }

    #[test]
    fn cycles_converge() {
        let files = files(&[(
            "crates/core/src/x.rs",
            "fn a(n: u8) {\n    if n > 0 {\n        b(n - 1);\n    }\n}\nfn b(n: u8) {\n    let _ = format!(\"{n}\");\n    a(n);\n}\n",
        )]);
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        let eff = Effects::analyze(&syms, &g);
        assert_eq!(eff.total[id_of(&syms, "a")], ALLOC);
        assert_eq!(eff.total[id_of(&syms, "b")], ALLOC);
    }

    #[test]
    fn turbofish_constructor_is_still_an_alloc() {
        let files = files(&[(
            "crates/core/src/x.rs",
            "fn a() {\n    let v = Vec::<u8>::with_capacity(4);\n    drop(v);\n}\n",
        )]);
        let syms = Symbols::build(Path::new("/nonexistent"), &files);
        let g = CallGraph::build(&syms);
        let eff = Effects::analyze(&syms, &g);
        assert_eq!(eff.total[id_of(&syms, "a")], ALLOC);
    }
}
