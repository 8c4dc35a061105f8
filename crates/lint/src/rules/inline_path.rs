//! `IOTSE-I15` — the per-tick path stays inlinable across crates.
//!
//! The release profile has no LTO and the benchmark is a workspace of its
//! own, so a non-generic function is inlined into another crate only when
//! it carries `#[inline]`; rustc's automatic cross-crate inlining takes
//! small leaf functions alone, and a body that calls `expect` or
//! `assert!` is not a leaf. Every sampling tick crosses from `iotse-core`
//! into the time and energy units, the ledger and the sensor read, so an
//! attribute dropped there turns one of its steps back into an
//! out-of-line call. The rule fires in two cases:
//!
//! * a non-generic method of an arithmetic operator impl (`Add`, `Sub`,
//!   `Mul`, `Div`, `Neg` and their `*Assign` forms) in `iotse-sim`,
//!   `iotse-energy` or `iotse-sensors` lacks `#[inline]`;
//! * a `// iotse-lint: hot-path` function reaches a non-generic function
//!   of another crate through call edges that each resolve to one callee,
//!   and that function lacks `#[inline]`. The walk descends through
//!   functions of the hot-path function's own crate and through inlinable
//!   (or generic) ones, whose bodies are compiled where they are called.
//!
//! A call that only runs off the per-tick path (a fault-plan hook, a
//! rejection-sampling tail) is waived at the call with the same
//! `// lint: <reason>` justification `IOTSE-H13` accepts; the walk does
//! not descend through a waived call.

use std::collections::BTreeSet;

use crate::symbols::FnId;
use crate::Analysis;
use crate::Finding;

/// Rule ID.
pub const ID: &str = "IOTSE-I15";
/// One-line summary for `explain`.
pub const SUMMARY: &str =
    "unit operators and the cross-crate callees of hot-path functions must be `#[inline]`";

/// Crates whose operator impls carry the per-tick arithmetic.
const OPERATOR_CRATES: &[&str] = &["sim", "energy", "sensors"];

/// The arithmetic operator traits.
const OPERATOR_TRAITS: &[&str] = &[
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "AddAssign",
    "SubAssign",
    "MulAssign",
    "DivAssign",
];

/// Runs the rule over the analyzed workspace.
pub fn check(analysis: &Analysis<'_>, out: &mut Vec<Finding>) {
    check_operators(analysis, out);
    check_hot_paths(analysis, out);
}

/// The first case: operator methods of the unit crates.
fn check_operators(analysis: &Analysis<'_>, out: &mut Vec<Finding>) {
    let syms = &analysis.syms;
    for id in 0..syms.fns.len() {
        let info = &syms.fns[id];
        let item = syms.item(id);
        if item.inline || item.generic || !OPERATOR_CRATES.contains(&info.crate_name.as_str()) {
            continue;
        }
        let Some(owner) = item.owner else { continue };
        let trait_name = syms.units[info.file].parsed.impls[owner]
            .trait_name
            .as_deref();
        if let Some(op) = trait_name.filter(|t| OPERATOR_TRAITS.contains(t)) {
            out.push(Finding::new(
                syms.src(id),
                item.line,
                ID,
                format!(
                    "`{op}` operator `{}` lacks `#[inline]`: every caller in another crate pays an out-of-line call",
                    syms.display(id),
                ),
            ));
        }
    }
}

/// The second case: out-of-line cross-crate calls under a hot-path root.
fn check_hot_paths(analysis: &Analysis<'_>, out: &mut Vec<Finding>) {
    let syms = &analysis.syms;
    // One finding per offending call, from the first root that reaches it.
    let mut reported: BTreeSet<(FnId, FnId)> = BTreeSet::new();
    for root in 0..syms.fns.len() {
        if !syms.item(root).hot_path {
            continue;
        }
        let home = syms.fns[root].crate_name.as_str();
        let mut parent: Vec<Option<FnId>> = vec![None; syms.fns.len()];
        let mut visited = vec![false; syms.fns.len()];
        let mut queue = std::collections::VecDeque::from([root]);
        visited[root] = true;
        while let Some(id) = queue.pop_front() {
            for site in analysis.graph.out(id) {
                if !site.unique || syms.src(id).is_justified(site.line) {
                    continue;
                }
                let callee = site.callee;
                let item = syms.item(callee);
                let foreign = syms.fns[callee].crate_name != home;
                if foreign && !item.inline && !item.generic {
                    if reported.insert((id, callee)) {
                        let mut chain = vec![syms.display(callee), syms.display(id)];
                        let mut cur = id;
                        while let Some(p) = parent[cur] {
                            chain.push(syms.display(p));
                            cur = p;
                        }
                        chain.reverse();
                        out.push(Finding::new(
                            syms.src(id),
                            site.line,
                            ID,
                            format!(
                                "hot-path call into another crate is out of line: {} ({}:{} lacks `#[inline]`) — mark it or justify the call with `// lint: <reason>`",
                                chain.join(" -> "),
                                syms.src(callee).rel_path,
                                item.line,
                            ),
                        ));
                    }
                } else if !visited[callee] {
                    visited[callee] = true;
                    parent[callee] = Some(id);
                    queue.push_back(callee);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;
    use std::path::Path;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile::parse(path, src))
            .collect();
        let analysis = Analysis::build(Path::new("/nonexistent"), &files);
        let mut out = Vec::new();
        check(&analysis, &mut out);
        out
    }

    #[test]
    fn operator_methods_of_unit_crates_need_inline() {
        let src = "pub struct T(u64);\nimpl Add<u64> for T {\n    type Output = T;\n    fn add(self, d: u64) -> T {\n        T(self.0 + d)\n    }\n}\nimpl Sub<u64> for T {\n    type Output = T;\n    #[inline]\n    fn sub(self, d: u64) -> T {\n        T(self.0 - d)\n    }\n}\nimpl<U> Mul<U> for T {\n    type Output = T;\n    fn mul(self, _: U) -> T {\n        self\n    }\n}\nimpl Display for T {\n    fn fmt(&self) {}\n}\n";
        let out = run(&[("crates/sim/src/time.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].rule, out[0].line), (ID, 4));
        assert!(out[0].message.contains("`Add` operator `T::add`"));
        // The same impl outside the unit crates is not this rule's concern.
        assert!(run(&[("crates/apps/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn hot_path_calls_into_other_crates_need_inline() {
        // The second `fault_hook` call is not justified, so it fires.
        let core = "pub struct Exec {\n    world: World,\n}\nimpl Exec {\n    // iotse-lint: hot-path\n    fn tick(&mut self) {\n        self.step();\n    }\n    fn step(&mut self) {\n        self.world.read();\n        self.world.cold_hook();\n        // lint: runs only with a fault plan\n        self.world.fault_hook();\n        self.world.fault_hook();\n    }\n}\n";
        let sensors = "pub struct World;\nimpl World {\n    #[inline]\n    pub fn read(&mut self) {\n        self.sample();\n    }\n    fn sample(&mut self) {}\n    pub fn cold_hook(&mut self) {}\n    pub fn fault_hook(&mut self) {}\n}\n";
        let out = run(&[
            ("crates/core/src/x.rs", core),
            ("crates/sensors/src/world.rs", sensors),
        ]);
        let got: Vec<(&str, usize, &str)> = out
            .iter()
            .map(|f| (f.file.as_str(), f.line, f.message.as_str()))
            .collect();
        assert_eq!(got.len(), 3, "{got:?}");
        assert_eq!((got[0].0, got[0].1), ("crates/core/src/x.rs", 11));
        assert!(got[0]
            .2
            .contains("Exec::tick -> Exec::step -> World::cold_hook"));
        assert_eq!((got[1].0, got[1].1), ("crates/core/src/x.rs", 14));
        assert!(got[1].2.contains("Exec::step -> World::fault_hook"));
        // The inline `read` is descended: its out-of-line callee fires at
        // the call inside it.
        assert_eq!((got[2].0, got[2].1), ("crates/sensors/src/world.rs", 5));
        let chain = "Exec::tick -> Exec::step -> World::read -> World::sample";
        assert!(got[2].2.contains(chain), "{}", got[2].2);
    }

    #[test]
    fn fan_out_calls_and_same_crate_calls_pass() {
        // `w.go()` names two methods and `w.only()` an untyped receiver:
        // neither is a resolved call, even with a single candidate.
        let core = "// iotse-lint: hot-path\nfn tick(w: &mut A) {\n    w.go();\n    w.only();\n    local();\n}\nfn local() {}\n";
        let sensors = "pub struct A;\npub struct B;\nimpl A {\n    pub fn go(&mut self) {}\n    pub fn only(&mut self) {}\n}\nimpl B {\n    pub fn go(&mut self) {}\n}\n";
        let out = run(&[
            ("crates/core/src/x.rs", core),
            ("crates/sensors/src/y.rs", sensors),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }
}
