//! `IOTSE-M11` — memoizable kernels must be transitively pure.
//!
//! The `compute_cache` replays a kernel's cached `AppOutput` whenever
//! the `(app, salt, window fingerprint)` key repeats — which is only sound
//! if the kernel is a pure function of the window. The dynamic fleet tests
//! sample that property; this rule *proves* it: for every `Workload` impl
//! whose `memoizable()` returns `true`, the transitive call graph of its
//! `compute` entry point must be free of RNG draws, ambient-state access
//! (`static mut`, interior-mutability writes, `std::env`), and wall-clock
//! reads. A violation prints the concrete call path to the offending
//! primitive, so the fix site is one jump away.
//!
//! `AppOutput`: the kernel output type cached per window.

use crate::effects::{bit_name, AMBIENT, CLOCK, RNG};
use crate::scan::FileKind;
use crate::Analysis;
use crate::Finding;

/// Rule ID.
pub const ID: &str = "IOTSE-M11";
/// One-line summary for `explain`.
pub const SUMMARY: &str =
    "Workload impls with `memoizable() == true` must be transitively pure from `compute`";

/// Runs the rule over the analyzed workspace.
pub fn check(analysis: &Analysis<'_>, out: &mut Vec<Finding>) {
    let syms = &analysis.syms;
    for (fi, unit) in syms.units.iter().enumerate() {
        if unit.src.kind != FileKind::Lib {
            continue;
        }
        for (ii, imp) in unit.parsed.impls.iter().enumerate() {
            if imp.trait_name.as_deref() != Some("Workload") {
                continue;
            }
            // Memoization is opt-in: the trait default returns `false`, so
            // only impls that override `memoizable` (with a body that can
            // yield `true`) are audited. A conditional body is treated as
            // memoizable — the cache may engage, so purity must hold.
            let memoizable = unit
                .parsed
                .fns
                .iter()
                .find(|f| f.owner == Some(ii) && f.name == "memoizable")
                .is_some_and(|f| unit.parsed.body_tokens(f).iter().any(|t| t.text == "true"));
            if !memoizable {
                continue;
            }
            let Some(local) = unit
                .parsed
                .fns
                .iter()
                .position(|f| f.owner == Some(ii) && f.name == "compute")
            else {
                continue;
            };
            let Some(id) = syms.id_of(fi, local) else {
                continue;
            };
            for bit in [RNG, AMBIENT, CLOCK] {
                let Some((path, end)) = analysis.effects.witness(&analysis.graph, id, bit) else {
                    continue;
                };
                let chain: Vec<String> = path.iter().map(|&p| syms.display(p)).collect();
                let last = *path.last().expect("witness paths are non-empty");
                out.push(Finding::new(
                    unit.src,
                    unit.parsed.fns[local].line,
                    ID,
                    format!(
                        "memoizable `{}` kernel {}: {} ({}:{}: {})",
                        imp.ty,
                        bit_name(bit),
                        chain.join(" -> "),
                        syms.src(last).rel_path,
                        end.line,
                        end.what,
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;
    use std::path::Path;

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let analysis = Analysis::build(Path::new("/nonexistent"), &files);
        let mut out = Vec::new();
        check(&analysis, &mut out);
        out
    }

    const RNG_CORE: (&str, &str) = (
        "crates/sim/src/rng.rs",
        "pub struct SimRng;\nimpl SimRng {\n    pub fn gen(&mut self) -> u64 { 4 }\n}\n",
    );

    #[test]
    fn impure_memoizable_kernel_is_flagged_with_a_path() {
        let out = run(&[
            RNG_CORE,
            (
                "crates/apps/src/k.rs",
                "struct K { rng: SimRng }\nimpl Workload for K {\n    fn memoizable(&self) -> bool {\n        true\n    }\n    fn compute(&mut self) -> u64 {\n        self.noise()\n    }\n}\nimpl K {\n    fn noise(&mut self) -> u64 {\n        self.rng.gen()\n    }\n}\n",
            ),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, ID);
        assert_eq!(out[0].file, "crates/apps/src/k.rs");
        assert!(out[0].message.contains("draws RNG"), "{}", out[0].message);
        assert!(
            out[0]
                .message
                .contains("K::compute -> K::noise -> SimRng::gen"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn pure_memoizable_and_impure_nonmemoizable_kernels_pass() {
        let out = run(&[
            RNG_CORE,
            (
                "crates/apps/src/k.rs",
                "struct P;\nimpl Workload for P {\n    fn memoizable(&self) -> bool {\n        true\n    }\n    fn compute(&mut self) -> u64 {\n        21 * 2\n    }\n}\nstruct Q { rng: SimRng }\nimpl Workload for Q {\n    fn compute(&mut self) -> u64 {\n        self.rng.gen()\n    }\n}\n",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn ambient_state_is_impure_too() {
        let out = run(&[(
            "crates/apps/src/k.rs",
            "static mut COUNT: u64 = 0;\nstruct K;\nimpl Workload for K {\n    fn memoizable(&self) -> bool {\n        true\n    }\n    fn compute(&mut self) -> u64 {\n        unsafe { COUNT }\n    }\n}\n",
        )]);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].message.contains("touches ambient state"),
            "{}",
            out[0].message
        );
        assert!(
            out[0].message.contains("static mut COUNT"),
            "{}",
            out[0].message
        );
    }
}
