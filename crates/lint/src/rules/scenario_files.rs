//! `IOTSE-F14` — scenario corpus files must parse and validate.
//!
//! The `scenario` binary's corpus under `scenarios/` is executable CI
//! input: every file is parsed, run, and graded by
//! `iotse_core::scenario_spec`. This rule is the static half of that
//! gate — it runs `ScenarioSpec::parse` on each `scenarios/*.toml` without
//! running any scenario, so a malformed file fails `iotse-lint` (and the
//! editor loop) before the much slower corpus sweep does. The grammar has
//! one definition, the parser itself; the rule reports its first
//! `SpecError` per file, at the offending line.
//!
//! A root with no `scenarios/` directory is silently skipped — the rule
//! gates the corpus where one exists, it does not require one.

use std::path::Path;

use iotse_core::scenario_spec::ScenarioSpec;

use crate::Finding;

/// Rule ID.
pub const ID: &str = "IOTSE-F14";
/// One-line summary for `explain`.
pub const SUMMARY: &str =
    "scenarios/*.toml must pass ScenarioSpec::parse (the first error is reported at its line)";

/// Corpus directory, relative to the scanned root.
pub const DIR: &str = "scenarios";

/// Audits every `.toml` file under `<root>/scenarios`, if the directory
/// exists.
pub fn check(root: &Path, out: &mut Vec<Finding>) {
    let Ok(entries) = std::fs::read_dir(root.join(DIR)) else {
        return;
    };
    let mut names: Vec<String> = entries
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".toml"))
        .collect();
    names.sort();
    for name in names {
        let rel = format!("{DIR}/{name}");
        match std::fs::read_to_string(root.join(DIR).join(&name)) {
            Ok(text) => check_file(&rel, &text, out),
            Err(e) => out.push(Finding::at(&rel, 1, ID, format!("unreadable: {e}"))),
        }
    }
}

fn check_file(rel: &str, text: &str, out: &mut Vec<Finding>) {
    if let Err(e) = ScenarioSpec::parse(text) {
        out.push(Finding::at(rel, e.line, ID, e.message));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(text: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check_file("scenarios/t.toml", text, &mut out);
        out
    }

    /// The one finding `text` yields, as `(line, message)`.
    fn finding(text: &str) -> (usize, String) {
        let out = findings(text);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, ID);
        (out[0].line, out[0].message.clone())
    }

    const OK: &str = "[scenario]\nname = \"ok\"\nseed = 1\nwindows = 2\ndevices = 1\n\
                      scheme = \"beam\"\n[[mix]]\napps = [\"A2\"]\nweight = 3\n\
                      [[expect]]\nkind = \"qos\"\nmax_miss_ratio = 0.5\n";

    #[test]
    fn a_wellformed_file_is_clean() {
        assert!(findings(OK).is_empty(), "{:?}", findings(OK));
    }

    #[test]
    fn each_grammar_violation_is_reported() {
        for (from, to, line, needle) in [
            ("seed = 1\n", "", 1, "missing required key `seed`"),
            ("\"beam\"", "\"warp\"", 6, "unknown scheme `warp`"),
            (
                "devices = 1\n",
                "devices = 1\ncolor = \"red\"\n",
                6,
                "unknown key `color`",
            ),
            ("[\"A2\"]", "[\"A99\"]", 8, "unknown app `A99`"),
            ("weight = 3", "weight = 0", 9, "`weight` must be in 1..="),
        ] {
            let (got_line, msg) = finding(&OK.replace(from, to));
            assert_eq!(got_line, line, "{msg}");
            assert!(msg.contains(needle), "{msg}");
        }
        let (line, msg) = finding(&format!("{OK}[teleport]\nx = 1\n"));
        assert_eq!(line, 13);
        assert!(msg.contains("unknown section `teleport`"), "{msg}");
    }

    #[test]
    fn faults_and_expectations_are_audited() {
        let fault = format!(
            "{OK}[[fault]]\nkind = \"link-partition\"\nstart_ms = 0\nduration_ms = 1\nseed = 7\n"
        );
        assert!(findings(&fault).is_empty(), "{:?}", findings(&fault));
        let (line, msg) = finding(&fault.replace("link-partition", "gamma-ray"));
        assert_eq!(line, 14);
        assert!(msg.contains("unknown fault kind `gamma-ray`"), "{msg}");
        let (line, msg) = finding(&fault.replace("seed = 7\n", ""));
        assert_eq!(line, 13);
        assert!(
            msg.contains("[fault] is missing required key `seed`"),
            "{msg}"
        );
        let (line, msg) = finding(&OK.replace("\"qos\"", "\"vibes\""));
        assert_eq!(line, 11);
        assert!(msg.contains("unknown expectation kind `vibes`"), "{msg}");
    }

    #[test]
    fn section_shape_mismatches_are_reported() {
        let (_, msg) = finding(&OK.replace("[[mix]]", "[mix]"));
        assert!(msg.contains("`mix` must be an array section"), "{msg}");
        let (_, msg) = finding(&OK.replace("[scenario]", "[[scenario]]"));
        assert!(msg.contains("must be a single [scenario] table"), "{msg}");
    }
}
