//! `IOTSE-H13` — `// iotse-lint: hot-path` functions must not allocate.
//!
//! PR 4/5 drove the executor's steady-state allocation count to (near)
//! zero and pinned it with bench counters — a *dynamic* gate that only
//! trips when the bench runs and only for the paths the bench exercises.
//! This rule makes the property structural: any function annotated with a
//! `// iotse-lint: hot-path` marker comment must have an allocation-free
//! transitive call graph. Allocations that are deliberate (one-time
//! constructors, amortized growth, tracing that only formats when a sink
//! is attached) are waived at the site with the same `// lint: <reason>`
//! justification `IOTSE-K10` uses, which keeps every intentional heap hit
//! in the `A07`-style audit trail.

use crate::effects::ALLOC;
use crate::Analysis;
use crate::Finding;

/// Rule ID.
pub const ID: &str = "IOTSE-H13";
/// One-line summary for `explain`.
pub const SUMMARY: &str =
    "`// iotse-lint: hot-path` functions must have an allocation-free transitive call graph";

/// Runs the rule over the analyzed workspace.
pub fn check(analysis: &Analysis<'_>, out: &mut Vec<Finding>) {
    let syms = &analysis.syms;
    for id in 0..syms.fns.len() {
        let item = syms.item(id);
        if !item.hot_path {
            continue;
        }
        let Some((path, end)) = analysis.effects.witness(&analysis.graph, id, ALLOC) else {
            continue;
        };
        let chain: Vec<String> = path.iter().map(|&p| syms.display(p)).collect();
        let last = *path.last().expect("witness paths are non-empty");
        out.push(Finding::new(
            syms.src(id),
            item.line,
            ID,
            format!(
                "hot-path fn `{}` allocates: {} ({}:{}: {}) — use scratch buffers or justify with `// lint: <reason>`",
                syms.display(id),
                chain.join(" -> "),
                syms.src(last).rel_path,
                end.line,
                end.what,
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;
    use std::path::Path;

    fn run(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse("crates/core/src/x.rs", src)];
        let analysis = Analysis::build(Path::new("/nonexistent"), &files);
        let mut out = Vec::new();
        check(&analysis, &mut out);
        out
    }

    #[test]
    fn allocation_in_a_callee_is_traced_to_the_marked_fn() {
        let out = run(
            "// iotse-lint: hot-path\nfn tick() {\n    helper();\n}\nfn helper() {\n    let v: Vec<u8> = Vec::new();\n    drop(v);\n}\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, ID);
        assert_eq!(out[0].line, 2);
        assert!(
            out[0].message.contains("tick -> helper"),
            "{}",
            out[0].message
        );
        assert!(
            out[0].message.contains("Vec::new(..)"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn justified_allocations_and_unmarked_fns_pass() {
        let out = run(
            "// iotse-lint: hot-path\nfn tick() {\n    // lint: amortized — grows once, reused every window\n    let v: Vec<u8> = Vec::new();\n    drop(v);\n}\nfn cold() {\n    let s = format!(\"x\");\n    drop(s);\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn iotse_lint_markers_do_not_justify_an_allocation() {
        // An allow marker for another rule, and the hot-path marker of a
        // one-line fn, both sit right above an allocation; neither is a
        // `// lint:` justification.
        let out = run(
            "// iotse-lint: hot-path\nfn tick() {\n    // iotse-lint: allow(IOTSE-E04)\n    let v: Vec<u8> = Vec::new();\n    drop(v);\n}\n// iotse-lint: hot-path\nfn tock() { drop(Vec::<u8>::with_capacity(4)); }\n",
        );
        let lines: Vec<usize> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, [2, 8], "{out:?}");
        assert!(out.iter().all(|f| f.rule == ID));
    }
}
