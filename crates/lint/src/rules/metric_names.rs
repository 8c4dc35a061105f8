//! `IOTSE-M09` — metric and span labels follow `iotse_<crate>_<name>`.
//!
//! The observability layer exports metrics and folds span stacks across
//! crates; both only stay greppable if every naming site uses the shared
//! scheme. The rule inspects each string literal on the line of a naming
//! call — `enter_span(..)`, `span_label(..)`, `.counter("..")`,
//! `.gauge("..")`, `.histogram("..", ..)` — and requires
//! `iotse_<crate>_<snake_case>` where `<crate>` is one of the workspace
//! crates. Lookup helpers share the method names, so well-named lookups are
//! checked for free; lines without a string literal (definitions,
//! variable-name pass-through) are never flagged.

use crate::scan::{FileKind, SourceFile};
use crate::Finding;

/// Rule ID.
pub const ID: &str = "IOTSE-M09";
/// One-line summary for `explain`.
pub const SUMMARY: &str =
    "metric and span label literals must match iotse_<crate>_<name> (lower snake_case)";

/// Call markers whose string-literal arguments are label registrations.
/// `span_label(` is where the executor interns the span names it then
/// passes to `enter_span_label`.
const CALL_SITES: &[&str] = &[
    "enter_span(",
    "span_label(",
    ".counter(",
    ".gauge(",
    ".histogram(",
];

/// Valid `<crate>` segments for the prefix.
const CRATES: &[&str] = &["sim", "energy", "sensors", "core", "apps", "bench"];

/// `true` if `label` matches `iotse_<crate>_<name>` with a lower
/// snake_case, non-empty `<name>`.
fn is_valid_label(label: &str) -> bool {
    let Some(rest) = label.strip_prefix("iotse_") else {
        return false;
    };
    let Some((crate_part, name)) = rest.split_once('_') else {
        return false;
    };
    CRATES.contains(&crate_part)
        && !name.is_empty()
        && !name.starts_with('_')
        && !name.ends_with('_')
        && !name.contains("__")
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Extracts the plain string literals of one `code_str` line (comments are
/// already blanked; escapes are skipped, not decoded — label literals never
/// need them).
fn string_literals(line: &str) -> Vec<String> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < b.len() && b[j] != b'"' {
                if b[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            out.push(String::from_utf8_lossy(&b[start..j.min(b.len())]).into_owned());
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Runs the rule over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind == FileKind::Test {
        return;
    }
    for (i, code) in file.code.iter().enumerate() {
        let lineno = i + 1;
        if file.in_test_span(lineno) {
            continue;
        }
        if !CALL_SITES.iter().any(|site| code.contains(site)) {
            continue;
        }
        for literal in string_literals(&file.code_str[i]) {
            if !is_valid_label(&literal) {
                out.push(Finding::new(
                    file,
                    lineno,
                    ID,
                    format!(
                        "label `{literal}` does not match iotse_<crate>_<name> \
                         (crates: {})",
                        CRATES.join("|")
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_pattern_is_strict() {
        assert!(is_valid_label("iotse_core_transfer"));
        assert!(is_valid_label("iotse_energy_total_microjoules"));
        assert!(is_valid_label("iotse_bench_sizes2"));
        assert!(!is_valid_label("core_transfer"), "missing prefix");
        assert!(!is_valid_label("iotse_kernel_x"), "unknown crate");
        assert!(!is_valid_label("iotse_core_"), "empty name");
        assert!(!is_valid_label("iotse_core_Transfer"), "upper case");
        assert!(!is_valid_label("iotse_core__x"), "double underscore");
        assert!(!is_valid_label("iotse_core_x_"), "trailing underscore");
    }

    #[test]
    fn only_call_sites_with_literals_are_checked() {
        let src = "\
let id = reg.counter(\"iotse_core_ok_total\");
let bad = reg.gauge(\"power\");
let span = log.enter_span(t, kind, \"iotse_core_tick\");
let name = slot.span_label(&mut trace, \"tick\");
pub fn gauge(&mut self, name: &str) -> GaugeId {
let v = reg.gauge(name);
";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        let mut findings = Vec::new();
        check(&file, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("`power`"));
        assert_eq!(findings[1].line, 4);
        assert!(findings[1].message.contains("`tick`"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t(reg: &mut R) { reg.counter(\"x\"); }\n}";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        let mut findings = Vec::new();
        check(&file, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn literal_extraction_handles_escapes() {
        assert_eq!(string_literals("f(\"a\", \"b\\\"c\")"), vec!["a", "b\\\"c"]);
        assert!(string_literals("no strings here").is_empty());
    }
}
