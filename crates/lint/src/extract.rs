//! Extraction of paper constants from Rust source.
//!
//! Rule `IOTSE-T06` audits two files against `specs/table1.toml`:
//!
//! * `crates/sensors/src/catalog.rs` — every `SensorSpec { … }` literal is
//!   one Table I row;
//! * `crates/core/src/calibration.rs` — the field initializers of
//!   `Calibration::paper()` are the platform's power-state constants.
//!
//! Extraction works on the comment-stripped view (strings kept), so the
//! field grammar is simply `name: value,` with values built from the small
//! set of constructors used by those files (`SimDuration::from_*`,
//! `Power::from_*`, `mw(..)`, `Some(..)`, enum paths, numeric expressions).

use std::collections::BTreeMap;

use iotse_core::toml_subset::eval_expr;

use crate::scan::SourceFile;

/// A canonicalized value extracted from source or ground truth.
///
/// Durations are in nanoseconds, powers in milliwatts, so both sides of the
/// audit normalize to the same units before comparing.
#[derive(Debug, Clone, PartialEq)]
pub enum Extracted {
    /// A plain or unit-normalized number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// An enum-variant or quoted-string name (`"Spi"`, `"Double"`).
    Name(String),
    /// An explicit absence (`None` in source, omitted key in TOML).
    Absent,
}

impl std::fmt::Display for Extracted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Extracted::Num(n) => write!(f, "{n}"),
            Extracted::Bool(b) => write!(f, "{b}"),
            Extracted::Name(s) => write!(f, "{s}"),
            Extracted::Absent => write!(f, "absent"),
        }
    }
}

/// One struct-literal field: line number and canonical value.
pub type Fields = BTreeMap<String, (usize, Extracted)>;

/// Parses every `SensorSpec { … }` literal in the catalog source.
/// Returns `(line of the literal, fields)` per row, in file order.
#[must_use]
pub fn sensor_specs(file: &SourceFile) -> Vec<(usize, Fields)> {
    let mut out = Vec::new();
    let mut li = 0;
    while li < file.code_str.len() {
        // Trimmed-prefix match: `-> SensorSpec {` on a fn signature must
        // not start a row, only the literal itself does.
        if file.code_str[li].trim_start().starts_with("SensorSpec {") {
            let (fields, end) = parse_fields(file, li);
            out.push((li + 1, fields));
            li = end;
        }
        li += 1;
    }
    out
}

/// Parses the field initializers of `Calibration::paper()`.
#[must_use]
pub fn calibration_paper(file: &SourceFile) -> Fields {
    for (li, line) in file.code_str.iter().enumerate() {
        if line.contains("fn paper()") {
            // The struct literal opens within the next few lines.
            for j in li..(li + 4).min(file.code_str.len()) {
                if file.code_str[j].contains("Calibration {") {
                    return parse_fields(file, j).0;
                }
            }
        }
    }
    Fields::new()
}

/// Parses `name: value,` fields from the line after `start` until the
/// brace depth returns to zero. Returns the fields and the last consumed
/// line index.
fn parse_fields(file: &SourceFile, start: usize) -> (Fields, usize) {
    let mut fields = Fields::new();
    let mut depth = brace_delta(&file.code_str[start]).max(1);
    let mut li = start + 1;
    while li < file.code_str.len() && depth > 0 {
        let line = &file.code_str[li];
        let trimmed = line.trim();
        // Only parse fields at the literal's own level.
        if depth == 1 {
            if let Some(colon) = trimmed.find(": ") {
                let name = trimmed[..colon].trim();
                if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !name.is_empty() {
                    let value = trimmed[colon + 1..].trim().trim_end_matches(',');
                    fields.insert(name.to_string(), (li + 1, canonicalize(value)));
                }
            }
        }
        depth += brace_delta(line);
        li += 1;
    }
    (fields, li.saturating_sub(1))
}

fn brace_delta(line: &str) -> i64 {
    let mut d = 0;
    for b in line.bytes() {
        match b {
            b'{' => d += 1,
            b'}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Canonicalizes one field initializer into an [`Extracted`] value:
/// durations to nanoseconds, powers to milliwatts.
#[must_use]
pub fn canonicalize(value: &str) -> Extracted {
    let v = value.trim();
    match v {
        "true" => return Extracted::Bool(true),
        "false" => return Extracted::Bool(false),
        "None" => return Extracted::Absent,
        _ => {}
    }
    if let Some(inner) = call_arg(v, "Some") {
        return canonicalize(&inner);
    }
    // Unit constructors, normalized.
    for (ctor, scale) in [
        ("SimDuration::from_secs_f64", 1e9),
        ("SimDuration::from_secs", 1e9),
        ("SimDuration::from_millis", 1e6),
        ("SimDuration::from_micros", 1e3),
        ("SimDuration::from_nanos", 1.0),
        ("Power::from_watts", 1e3),
        ("Power::from_milliwatts", 1.0),
        ("mw", 1.0),
    ] {
        if let Some(inner) = call_arg(v, ctor) {
            if let Ok(n) = eval_expr(&inner) {
                return Extracted::Num(n * scale);
            }
        }
    }
    // Enum paths: `SensorId::S4`, `BusKind::Spi`, `PayloadKind::Double`.
    if let Some(pos) = v.rfind("::") {
        let name = &v[pos + 2..];
        if !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric()) {
            return Extracted::Name(name.to_string());
        }
    }
    if let Some(inner) = v.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        return Extracted::Name(inner.to_string());
    }
    if let Ok(n) = eval_expr(v) {
        return Extracted::Num(n);
    }
    Extracted::Name(v.to_string())
}

/// Extracts the argument of `ctor(args)` if `v` is exactly that call.
fn call_arg(v: &str, ctor: &str) -> Option<String> {
    let rest = v.strip_prefix(ctor)?.trim_start();
    let inner = rest.strip_prefix('(')?.strip_suffix(')')?;
    Some(inner.to_string())
}

/// Payload-kind byte sizes, mirrored from
/// `iotse_sensors::spec::PayloadKind::size_bytes` (audited by the fixture
/// tests; the linter cannot link against the crate it audits without
/// chicken-and-egg rebuild ordering).
#[must_use]
pub fn payload_bytes(kind: &str) -> Option<f64> {
    match kind {
        "Double" => Some(8.0),
        "Int" => Some(4.0),
        "IntTriple" => Some(12.0),
        "Signature" => Some(512.0),
        "RgbLow" => Some(24.0 * 1024.0),
        "RgbHigh" => Some(619.0 * 1024.0),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("crates/sensors/src/catalog.rs", src)
    }

    #[test]
    fn parses_a_sensor_spec_literal() {
        let src = "pub fn barometer() -> SensorSpec {\n    SensorSpec {\n        id: SensorId::S1,\n        name: \"Barometer\",\n        bus: BusKind::Spi,\n        read_time: SimDuration::from_micros(37_500),\n        power_min: mw(2.12),\n        payload: PayloadKind::Double,\n        max_rate_hz: Some(157.0),\n        qos_rate_hz: None,\n        mcu_friendly: true,\n    }\n}\n";
        let rows = sensor_specs(&file(src));
        assert_eq!(rows.len(), 1);
        let (_, f) = &rows[0];
        assert_eq!(f["id"].1, Extracted::Name("S1".into()));
        assert_eq!(f["name"].1, Extracted::Name("Barometer".into()));
        assert_eq!(f["bus"].1, Extracted::Name("Spi".into()));
        assert_eq!(f["read_time"].1, Extracted::Num(37_500_000.0));
        assert_eq!(f["power_min"].1, Extracted::Num(2.12));
        assert_eq!(f["max_rate_hz"].1, Extracted::Num(157.0));
        assert_eq!(f["qos_rate_hz"].1, Extracted::Absent);
        assert_eq!(f["mcu_friendly"].1, Extracted::Bool(true));
        assert_eq!(f["read_time"].0, 6, "field line is tracked");
    }

    #[test]
    fn parses_calibration_paper_with_expressions() {
        let src = "impl Calibration {\n    pub fn paper() -> Self {\n        Calibration {\n            cpu_active: Power::from_watts(5.0),\n            mcu_active: Power::from_watts(5.0 * 13.0 / 77.0),\n            mcu_memory_bytes: 80 * 1024,\n            transfer_per_byte: SimDuration::from_nanos(8_320),\n            dma_enabled: false,\n        }\n    }\n}\n";
        let f = calibration_paper(&SourceFile::parse("crates/core/src/calibration.rs", src));
        assert_eq!(f["cpu_active"].1, Extracted::Num(5000.0));
        assert_eq!(f["mcu_active"].1, Extracted::Num(5.0 * 13.0 / 77.0 * 1e3));
        assert_eq!(f["mcu_memory_bytes"].1, Extracted::Num(81920.0));
        assert_eq!(f["transfer_per_byte"].1, Extracted::Num(8320.0));
        assert_eq!(f["dma_enabled"].1, Extracted::Bool(false));
    }

    #[test]
    fn nested_braces_do_not_leak_fields() {
        let src = "SensorSpec {\n    id: SensorId::S2,\n    other: Inner { x: 1.0 },\n}\n";
        let rows = sensor_specs(&file(src));
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].1.contains_key("x"));
    }

    #[test]
    fn payload_sizes_match_spec_rs() {
        assert_eq!(payload_bytes("Double"), Some(8.0));
        assert_eq!(payload_bytes("RgbHigh"), Some(633_856.0));
        assert_eq!(payload_bytes("Unknown"), None);
    }
}
