//! `IOTSE-T06` — source constants must match `specs/table1.toml`.
//!
//! The ground-truth file transcribes the paper's Table I (one `[[sensor]]`
//! per row) and the platform calibration (`[platform]`), in normalized
//! units: **nanoseconds** for durations, **milliwatts** for power. The rule
//! extracts the same constants from
//! `crates/sensors/src/catalog.rs` (every `SensorSpec { … }` literal) and
//! `crates/core/src/calibration.rs` (`Calibration::paper()`), and reports
//! any drift in either direction: a source value that deviates from the
//! table, a source field the table does not cover, a table key with no
//! source counterpart, and sensors present on only one side.
//!
//! Values may be written as product/quotient expressions (`5.0 * 13.0 /
//! 77.0 * 1_000.0`) so fitted constants compare bit-exactly; a relative
//! tolerance of 1e-9 backstops decimal-vs-binary rounding. The file is read
//! with `iotse_core::toml_subset`, the reader scenario files use, which
//! rejects a repeated `[section]` or key, so no row can shadow another.

use std::path::Path;

use iotse_core::toml_subset::{self, Document, Table, Value};

use crate::extract::{self, Extracted, Fields};
use crate::scan::SourceFile;
use crate::Finding;

/// Rule ID.
pub const ID: &str = "IOTSE-T06";
/// One-line summary for `explain`.
pub const SUMMARY: &str =
    "sensor catalog and platform calibration must match specs/table1.toml (ns / mW units)";

/// Ground-truth path, relative to the scanned root.
pub const TRUTH: &str = "specs/table1.toml";
/// Catalog source audited against `[[sensor]]` rows.
pub const CATALOG: &str = "crates/sensors/src/catalog.rs";
/// Calibration source audited against `[platform]`.
pub const CALIBRATION: &str = "crates/core/src/calibration.rs";

/// Relative tolerance for numeric comparison.
const REL_TOL: f64 = 1e-9;

/// Runs the audit over the scanned workspace.
pub fn check(root: &Path, files: &[SourceFile], out: &mut Vec<Finding>) {
    let truth_text = match std::fs::read_to_string(root.join(TRUTH)) {
        Ok(t) => t,
        Err(_) => {
            out.push(Finding::at(
                TRUTH,
                1,
                ID,
                "ground-truth file not found — Table I constants cannot be audited".to_string(),
            ));
            return;
        }
    };
    check_truth(&truth_text, files, out);
}

/// Audits the sources against one ground-truth text.
fn check_truth(truth_text: &str, files: &[SourceFile], out: &mut Vec<Finding>) {
    let doc = match toml_subset::parse(truth_text) {
        Ok(d) => d,
        Err(e) => {
            out.push(Finding::at(
                TRUTH,
                e.line,
                ID,
                format!("malformed ground truth: {}", e.message),
            ));
            return;
        }
    };

    audit_sensors(&doc, files, out);
    audit_platform(&doc, files, out);
}

fn audit_sensors(doc: &Document, files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(catalog) = files.iter().find(|f| f.rel_path == CATALOG) else {
        out.push(Finding::at(
            TRUTH,
            1,
            ID,
            format!("{CATALOG} not found; [[sensor]] rows unaudited"),
        ));
        return;
    };
    let rows = extract::sensor_specs(catalog);
    let mut by_id: std::collections::BTreeMap<String, (usize, &Fields)> = Default::default();
    for (line, fields) in &rows {
        if let Some((_, Extracted::Name(id))) = fields.get("id") {
            by_id.insert(id.clone(), (*line, fields));
        } else {
            out.push(Finding::at(
                CATALOG,
                *line,
                ID,
                "SensorSpec literal without a parseable `id` field".to_string(),
            ));
        }
    }

    let empty = Vec::new();
    let truth_rows = doc.arrays.get("sensor").unwrap_or(&empty);
    if truth_rows.is_empty() {
        out.push(Finding::at(
            TRUTH,
            1,
            ID,
            "no [[sensor]] rows in ground truth".to_string(),
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for (row_line, truth) in truth_rows {
        let Some(Value::Str(id)) = truth.get("id").map(|(_, v)| v.clone()) else {
            out.push(Finding::at(
                TRUTH,
                *row_line,
                ID,
                "[[sensor]] row without string `id`".to_string(),
            ));
            continue;
        };
        seen.insert(id.clone());
        let Some(&(spec_line, fields)) = by_id.get(&id) else {
            out.push(Finding::at(
                TRUTH,
                *row_line,
                ID,
                format!("sensor `{id}` has no SensorSpec in {CATALOG}"),
            ));
            continue;
        };
        let label = format!("sensor `{id}`");
        compare(CATALOG, &label, fields, truth, *row_line, out);
        audit_payload_bytes(&label, spec_line, fields, truth, *row_line, out);
    }
    for (id, (line, _)) in &by_id {
        if !seen.contains(id) {
            out.push(Finding::at(
                CATALOG,
                *line,
                ID,
                format!("sensor `{id}` is missing from {TRUTH}"),
            ));
        }
    }
}

fn audit_platform(doc: &Document, files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(calib) = files.iter().find(|f| f.rel_path == CALIBRATION) else {
        out.push(Finding::at(
            TRUTH,
            1,
            ID,
            format!("{CALIBRATION} not found; [platform] unaudited"),
        ));
        return;
    };
    let fields = extract::calibration_paper(calib);
    if fields.is_empty() {
        out.push(Finding::at(
            CALIBRATION,
            1,
            ID,
            "could not extract Calibration::paper() field initializers".to_string(),
        ));
        return;
    }
    let Some((table_line, truth)) = doc.tables.get("platform") else {
        out.push(Finding::at(
            TRUTH,
            1,
            ID,
            "no [platform] table in ground truth".to_string(),
        ));
        return;
    };
    compare(CALIBRATION, "platform", &fields, truth, *table_line, out);
}

/// Two-way field comparison between extracted source `fields` and a truth
/// `Table`. Source-side findings anchor at the field's own line; truth-side
/// findings (keys with no source counterpart) anchor in the TOML file.
fn compare(
    src_file: &str,
    label: &str,
    fields: &Fields,
    truth: &Table,
    truth_anchor: usize,
    out: &mut Vec<Finding>,
) {
    for (key, (line, val)) in fields {
        match truth.get(key) {
            None => {
                if *val != Extracted::Absent {
                    out.push(Finding::at(
                        src_file,
                        *line,
                        ID,
                        format!("`{key}` of {label} = {val} is not covered by {TRUTH}"),
                    ));
                }
            }
            Some((_, tv)) => {
                if !matches_truth(tv, val) {
                    out.push(Finding::at(
                        src_file,
                        *line,
                        ID,
                        format!(
                            "`{key}` of {label} = {val} deviates from {TRUTH} ({})",
                            value_str(tv)
                        ),
                    ));
                }
            }
        }
    }
    for (key, (tline, _)) in truth {
        if key == "payload_bytes" || fields.contains_key(key) {
            continue;
        }
        let line = if *tline == 0 { truth_anchor } else { *tline };
        out.push(Finding::at(
            TRUTH,
            line,
            ID,
            format!("`{key}` of {label} has no source field in {src_file}"),
        ));
    }
}

/// Audits the `payload_bytes` truth key against the byte size implied by
/// the source row's `payload` kind.
fn audit_payload_bytes(
    label: &str,
    spec_line: usize,
    fields: &Fields,
    truth: &Table,
    row_line: usize,
    out: &mut Vec<Finding>,
) {
    let payload = match fields.get("payload") {
        Some((_, Extracted::Name(p))) => p.clone(),
        _ => return, // a missing `payload` field already reported by `compare`
    };
    let Some(expect) = extract::payload_bytes(&payload) else {
        out.push(Finding::at(
            CATALOG,
            spec_line,
            ID,
            format!("{label}: unknown payload kind `{payload}`"),
        ));
        return;
    };
    match truth
        .get("payload_bytes")
        .map(|(tline, v)| (tline, v, number(v)))
    {
        Some((tline, _, Some(n))) if !close(n, expect) => {
            out.push(Finding::at(
                TRUTH,
                *tline,
                ID,
                format!("{label}: payload_bytes = {n} but payload `{payload}` implies {expect}"),
            ));
        }
        Some((_, _, Some(_))) => {}
        Some((tline, v, None)) => {
            out.push(Finding::at(
                TRUTH,
                *tline,
                ID,
                format!(
                    "{label}: payload_bytes must be numeric, got {}",
                    value_str(v)
                ),
            ));
        }
        None => {
            out.push(Finding::at(
                TRUTH,
                row_line,
                ID,
                format!("{label}: payload_bytes missing (payload `{payload}` implies {expect})"),
            ));
        }
    }
}

/// A truth value as a number: integers and floats (including the
/// product/quotient expressions) compare alike.
fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

fn matches_truth(truth: &Value, src: &Extracted) -> bool {
    match (truth, src) {
        (_, Extracted::Num(b)) => number(truth).is_some_and(|a| close(a, *b)),
        (Value::Str(a), Extracted::Name(b)) => a == b,
        (Value::Bool(a), Extracted::Bool(b)) => a == b,
        _ => false,
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

fn value_str(v: &Value) -> String {
    match v {
        Value::Int(n) => format!("{n}"),
        Value::Float(x) => format!("{x}"),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => format!("{b}"),
        Value::List(items) => items.join(", "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shadowed_truth_value_is_reported_not_audited() {
        // A duplicated key must not let the later value silently win.
        let mut out = Vec::new();
        check_truth(
            "[platform]\ncpu_sleep = 1.5 * 1_000.0\ncpu_sleep = 2_000.0\n",
            &[],
            &mut out,
        );
        assert_eq!(
            out,
            vec![Finding::at(
                TRUTH,
                3,
                ID,
                "malformed ground truth: duplicate key `cpu_sleep`".to_string()
            )]
        );
        // Nor may a repeated [section] merge into the first.
        let mut out = Vec::new();
        check_truth(
            "[platform]\ncpu_active = 5.0\n\n[platform]\ncpu_sleep = 1.5\n",
            &[],
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("duplicate section [platform]"));
    }
}
