//! `IOTSE-K10` — kernel hot paths must not allocate silently.
//!
//! The Table II kernels under `crates/apps/src/kernels/` run once per
//! simulated window, per app, per scheme, per fleet slot — their steady
//! state is the hottest loop in the workspace, and PR 5's scratch-arena
//! work drove its per-window allocation count to (near) zero. This rule
//! keeps it there: every `Vec::new(..)` or `vec![..]` in kernel library
//! code must carry a `// lint: <reason>` comment on its line or the line
//! above, naming why the allocation is intentional (one-time constructor,
//! allocating convenience wrapper over an `_into` API, or the allocation
//! *is* the reproduced workload, as in A3's JSON tree).

use crate::scan::{find_word, FileKind, SourceFile};
use crate::Finding;

/// Rule ID.
pub const ID: &str = "IOTSE-K10";
/// One-line summary for `explain`.
pub const SUMMARY: &str =
    "Vec allocations in crates/apps/src/kernels need a `// lint:` justification (use scratch buffers)";

/// The directory whose library code the rule guards.
const KERNELS_DIR: &str = "crates/apps/src/kernels/";

/// Runs the rule over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind == FileKind::Test || !file.rel_path.starts_with(KERNELS_DIR) {
        return;
    }
    for (i, line) in file.code.iter().enumerate() {
        let lineno = i + 1;
        if file.in_test_span(lineno) {
            continue;
        }
        let hit = if line.contains("Vec::new(") {
            Some("Vec::new(..)")
        } else if find_word(line, "vec").is_some_and(|at| line[at..].starts_with("vec!")) {
            Some("vec![..]")
        } else {
            None
        };
        let Some(what) = hit else {
            continue;
        };
        if file.is_justified(lineno) {
            continue;
        }
        out.push(Finding::new(
            file,
            lineno,
            ID,
            format!(
                "`{what}` in a kernel hot path — reuse a scratch buffer, or justify with `// lint: <reason>`"
            ),
        ));
    }
}
