//! `IOTSE-A07` — every `#[allow]` needs a `// lint:` justification.
//!
//! Suppressing a compiler or clippy lint is sometimes right, but it must
//! never be silent: each `#[allow(...)]` / `#![allow(...)]` attribute must
//! carry a `// lint: <reason>` comment on the same line or the line above,
//! so the inventory of waived checks stays reviewable.

use crate::scan::SourceFile;
use crate::Finding;

/// Rule ID.
pub const ID: &str = "IOTSE-A07";
/// One-line summary for `explain`.
pub const SUMMARY: &str =
    "every #[allow(...)] attribute must carry a `// lint:` justification comment";

/// Runs the rule over one file (tests included — suppressions hide real
/// warnings there just as easily).
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    for (i, line) in file.code.iter().enumerate() {
        let lineno = i + 1;
        if !(line.contains("#[allow(") || line.contains("#![allow(")) {
            continue;
        }
        if file.is_justified(lineno) {
            continue;
        }
        out.push(Finding::new(
            file,
            lineno,
            ID,
            "`#[allow(..)]` without a `// lint:` justification on this line or the one above"
                .to_string(),
        ));
    }
}
