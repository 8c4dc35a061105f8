//! The std-only TOML subset every spec file in the workspace is written in.
//!
//! `scenarios/*.toml` (read by [`crate::scenario_spec`]) and
//! `specs/table1.toml` (read by the `IOTSE-T06` lint rule) share this one
//! reader: `[section]` tables, `[[section]]` arrays of tables, and
//! `key = value` lines whose value is a boolean, a non-negative integer, a
//! float, an unquoted product/quotient of number literals
//! (`37_500 * 1_000`, `5.0 * 13.0 / 77.0`), a quoted string, or a
//! single-line `["a", "b"]` list of quoted strings. `#` starts a comment
//! outside quotes. A repeated `[section]` or a repeated key within one
//! table is an error, so no value can silently shadow another.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A parse/validation error with the 1-based line it was detected on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number in the file.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> SpecError {
        SpecError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// One scalar (or string-list) value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer literal (`_` separators allowed).
    Int(u64),
    /// A finite float literal, or the value of a `*`/`/` expression.
    Float(f64),
    /// A quoted string.
    Str(String),
    /// A single-line list of quoted strings.
    List(Vec<String>),
}

impl Value {
    /// The value's type, as error messages name it ("an integer", …).
    #[must_use]
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "a boolean",
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Str(_) => "a string",
            Value::List(_) => "a string list",
        }
    }
}

/// A `key = value` table with per-key line numbers.
pub type Table = BTreeMap<String, (usize, Value)>;

/// A parsed file, before any schema is applied.
#[derive(Debug, Default)]
pub struct Document {
    /// `[name]` tables with their header lines.
    pub tables: BTreeMap<String, (usize, Table)>,
    /// `[[name]]` arrays of tables, entries in file order.
    pub arrays: BTreeMap<String, Vec<(usize, Table)>>,
    /// Section names in file order, for unknown-section reporting.
    pub section_lines: Vec<(String, usize)>,
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(v: &str, line: usize) -> Result<Value, SpecError> {
    match v {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Some(inner) = v.strip_prefix('"') {
        let Some(inner) = inner.strip_suffix('"') else {
            return Err(SpecError::new(line, format!("unterminated string `{v}`")));
        };
        if inner.contains('"') {
            return Err(SpecError::new(
                line,
                format!("embedded quote in string `{v}`"),
            ));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    let plain = if v.contains('_') {
        Cow::Owned(v.replace('_', ""))
    } else {
        Cow::Borrowed(v)
    };
    if plain.contains(['*', '/']) {
        if let Ok(x) = eval_expr(v) {
            if x.is_finite() {
                return Ok(Value::Float(x));
            }
        }
    } else if plain.contains(['.', 'e', 'E']) {
        if let Ok(x) = plain.parse::<f64>() {
            if x.is_finite() {
                return Ok(Value::Float(x));
            }
        }
    } else if let Ok(n) = plain.parse::<u64>() {
        return Ok(Value::Int(n));
    }
    Err(SpecError::new(
        line,
        format!("expected a boolean, non-negative number, string, or [\"…\"] list, got `{v}`"),
    ))
}

fn parse_value(v: &str, line: usize) -> Result<Value, SpecError> {
    if let Some(inner) = v.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return Err(SpecError::new(
                line,
                format!("unterminated list `{v}` (lists must be single-line)"),
            ));
        };
        let mut items = Vec::new();
        let trimmed = inner.trim();
        if !trimmed.is_empty() {
            for item in trimmed.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    return Err(SpecError::new(line, format!("empty element in `{v}`")));
                }
                match parse_scalar(item, line)? {
                    Value::Str(s) => items.push(s),
                    other => {
                        return Err(SpecError::new(
                            line,
                            format!("lists may only hold strings, got {}", other.type_name()),
                        ))
                    }
                }
            }
        }
        return Ok(Value::List(items));
    }
    parse_scalar(v, line)
}

/// Parses `text` into tables and arrays of tables.
///
/// # Errors
///
/// Returns a [`SpecError`] at the first malformed line: a bad section
/// header, a line that is not `key = value`, a key outside any section, a
/// value outside the subset, a repeated `[section]`, or a repeated key.
pub fn parse(text: &str) -> Result<Document, SpecError> {
    enum Target {
        None,
        Table(String),
        Array(String),
    }
    let mut doc = Document::default();
    let mut target = Target::None;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            let name = name.trim().to_string();
            doc.section_lines.push((name.clone(), lineno));
            doc.arrays
                .entry(name.clone())
                .or_default()
                .push((lineno, Table::new()));
            target = Target::Array(name);
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            if name.starts_with('[') || name.ends_with(']') {
                return Err(SpecError::new(
                    lineno,
                    format!("malformed section `{line}`"),
                ));
            }
            let name = name.trim().to_string();
            if doc.tables.contains_key(&name) {
                return Err(SpecError::new(
                    lineno,
                    format!("duplicate section [{name}]"),
                ));
            }
            doc.section_lines.push((name.clone(), lineno));
            doc.tables.insert(name.clone(), (lineno, Table::new()));
            target = Target::Table(name);
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(SpecError::new(
                lineno,
                format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = line[..eq].trim().to_string();
        if key.is_empty() {
            return Err(SpecError::new(lineno, "missing key before `=`"));
        }
        let value = parse_value(line[eq + 1..].trim(), lineno)?;
        let table = match &target {
            Target::None => {
                return Err(SpecError::new(
                    lineno,
                    format!("key `{key}` outside any [section]"),
                ))
            }
            Target::Table(name) => doc.tables.get_mut(name).map(|(_, t)| t),
            Target::Array(name) => doc
                .arrays
                .get_mut(name)
                .and_then(|v| v.last_mut())
                .map(|(_, t)| t),
        };
        let Some(table) = table else {
            // Unreachable: the target was inserted when the header parsed.
            return Err(SpecError::new(lineno, "internal: section vanished"));
        };
        if table.contains_key(&key) {
            return Err(SpecError::new(lineno, format!("duplicate key `{key}`")));
        }
        table.insert(key, (lineno, value));
    }
    Ok(doc)
}

/// Evaluates a left-to-right product/quotient chain of number literals
/// (`80 * 1024`, `5.0 * 13.0 / 77.0`, `80*1024`). Underscore separators are
/// accepted.
///
/// # Errors
///
/// Returns a message if a token is not a number, an operator has no left
/// operand, or the expression is empty.
pub fn eval_expr(expr: &str) -> Result<f64, String> {
    let mut acc: Option<f64> = None;
    let mut op = b'*';
    for tok in expr.split_whitespace().flat_map(split_ops) {
        match tok.as_str() {
            "*" | "/" => {
                if acc.is_none() {
                    return Err(format!("operator before operand in `{expr}`"));
                }
                op = tok.as_bytes()[0];
            }
            t => {
                let n: f64 = t
                    .replace('_', "")
                    .parse()
                    .map_err(|_| format!("not a number: `{t}`"))?;
                acc = Some(match (acc, op) {
                    (None, _) => n,
                    (Some(a), b'*') => a * n,
                    (Some(a), _) => a / n,
                });
            }
        }
    }
    acc.ok_or_else(|| format!("empty expression `{expr}`"))
}

/// Splits a whitespace-free token around `*` and `/` (so `80*1024` works).
fn split_ops(tok: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in tok.chars() {
        if ch == '*' || ch == '/' {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
            out.push(ch.to_string());
        } else {
            cur.push(ch);
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_values() {
        let doc = parse(
            "# header\n[platform]\ncpu_active_w = 5.0\nmcu_memory_bytes = 80 * 1024\n\n[[sensor]]\nid = \"S1\"\nmcu_friendly = true\n[[sensor]]\nid = \"S2\"\nmax_rate_hz = 1_000_000.0\n",
        )
        .expect("parses");
        let (_, platform) = &doc.tables["platform"];
        assert_eq!(platform["cpu_active_w"].1, Value::Float(5.0));
        assert_eq!(platform["mcu_memory_bytes"].1, Value::Float(81920.0));
        let sensors = &doc.arrays["sensor"];
        assert_eq!(sensors.len(), 2);
        assert_eq!(sensors[0].1["id"].1, Value::Str("S1".into()));
        assert_eq!(sensors[0].1["mcu_friendly"].1, Value::Bool(true));
        assert_eq!(sensors[1].1["max_rate_hz"].1, Value::Float(1_000_000.0));
    }

    #[test]
    fn expressions_become_numbers_and_quoted_text_stays_a_string() {
        let doc = parse("[p]\nx = 5.0 * 13.0 / 77.0\nq = \"5 * 2\"\nname = \"Barometer\"\n")
            .expect("parses");
        let (_, p) = &doc.tables["p"];
        assert_eq!(p["x"].1, Value::Float(5.0 * 13.0 / 77.0));
        assert_eq!(p["q"].1, Value::Str("5 * 2".into()));
        assert_eq!(p["name"].1, Value::Str("Barometer".into()));
        let err = parse("[p]\nx = 1 / 0\n").expect_err("infinite");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn comments_and_line_numbers() {
        let doc = parse("[p] # section\nx = 1 # one\n").expect("parses");
        let (_, p) = &doc.tables["p"];
        assert_eq!(p["x"], (2, Value::Int(1)));
    }

    #[test]
    fn errors_carry_line() {
        let err = parse("[p]\nbogus\n").expect_err("malformed");
        assert_eq!(err.line, 2);
        let err = parse("x = 1\n").expect_err("no section");
        assert_eq!(err.line, 1);
        let err = parse("[p]\nx = 1\n[q]\n[p]\n").expect_err("repeated section");
        assert_eq!(err.line, 4);
        assert!(err.message.contains("duplicate section"), "{err}");
        let err = parse("[[s]]\nx = 1\nx = 2\n").expect_err("repeated key");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("duplicate key `x`"), "{err}");
    }

    #[test]
    fn lists_parse_and_reject_unquoted_items() {
        let doc = parse("[m]\napps = [\"A1\", \"A2\"]\nnone = []\n").expect("parses");
        let (_, m) = &doc.tables["m"];
        assert_eq!(m["apps"].1, Value::List(vec!["A1".into(), "A2".into()]));
        assert_eq!(m["none"].1, Value::List(Vec::new()));
        let err = parse("[m]\napps = [A1]\n").expect_err("unquoted");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn eval_handles_dense_and_spaced() {
        assert_eq!(eval_expr("80*1024"), Ok(81920.0));
        assert_eq!(eval_expr("24 * 1024"), Ok(24576.0));
        assert_eq!(eval_expr("5.0*13.0/77.0"), Ok(5.0 * 13.0 / 77.0));
        assert!(eval_expr("abc").is_err());
        assert!(eval_expr("* 2").is_err());
        assert!(eval_expr("").is_err());
    }
}
