//! The metric catalogue, the result line, and the two-set comparison.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use iotse_apps::kernels::json::Json;
use iotse_bench::inspect::InspectFormat;

use crate::stats::Quartiles;
use crate::workloads::{Checked, TARGETS};

/// The end-to-end metrics a timed run reports: name and unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("pass_ms.p10", "ms"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics a traced run reports, name and unit, in
/// `BENCHMARK.json` order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = [
        ("runner.speedup", "x"),
        ("compute_cache.hits", "count"),
        ("compute_cache.misses", "count"),
        ("compute_cache.hit_ratio", "fraction"),
        ("signal_cache.hits", "count"),
        ("signal_cache.misses", "count"),
        ("executor.runs", "count"),
        ("executor.events", "count"),
        ("executor.ns_per_event", "ns"),
        ("executor.self_share", "fraction"),
        ("sensors.reads", "count"),
        ("sensors.ns_per_read", "ns"),
        ("sensors.share", "fraction"),
        ("queue.events", "count"),
        ("queue.ns_per_event", "ns"),
        ("queue.share", "fraction"),
        ("apps.compute_calls", "count"),
        ("apps.compute_ms", "ms"),
        ("apps.share", "fraction"),
        ("scenario_spec.parse_ms", "ms"),
        ("scenario_spec.run_ms", "ms"),
        ("scenario_spec.render_ms", "ms"),
        ("scenario_spec.expectations", "count"),
        ("inspect.run_ms", "ms"),
        ("inspect.bare_run_ms", "ms"),
        ("inspect.record_overhead", "x"),
    ];
    let mut all: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(
        InspectFormat::ALL
            .iter()
            .map(|f| (format!("inspect.render_ms.{}", f.name()), "ms")),
    );
    all.extend(TARGETS.iter().map(|(span, _)| (format!("{span}_ms"), "ms")));
    all.extend([
        ("alloc.count".to_string(), "count"),
        ("alloc.mb".to_string(), "MB"),
        ("trace.overhead".to_string(), "x"),
    ]);
    all
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its value and unit, as one compact JSON object.
#[must_use]
pub fn result_line(checked: &Checked, metrics: &[Metric]) -> String {
    // lint: pass counts stay far below 2^53
    #[allow(clippy::cast_precision_loss)]
    let count = |n: u64| Json::Number(n as f64);
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::object([
                    ("value", Json::Number(m.value)),
                    ("unit", Json::String(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::object([
        ("correct", Json::Bool(checked.failed == 0)),
        ("attempted", count(checked.attempted)),
        ("failed", count(checked.failed)),
        ("metrics", Json::Object(metrics)),
    ])
    .to_text()
}

/// Metric values by name from a file of result lines; lines that are not
/// JSON objects are skipped.
fn values_by_metric(text: &str) -> BTreeMap<String, Vec<f64>> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let Ok(doc) = Json::parse(line.trim()) else {
            continue;
        };
        if let Some(Json::Object(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    values
}

/// Compares two sets of runs (files of result lines, e.g. the parent
/// commit's and a change's): per metric, each side's quartiles, its spread
/// (quartile distance over median) and the change of the median.
#[must_use]
pub fn compare(a: &str, b: &str) -> String {
    let (a, b) = (values_by_metric(a), values_by_metric(b));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>4} {:>12} {:>12} {:>12} {:>7} | {:>4} {:>12} {:>12} {:>12} {:>7} | {:>8}",
        "metric",
        "n",
        "q1",
        "median",
        "q3",
        "spread",
        "n",
        "q1",
        "median",
        "q3",
        "spread",
        "change"
    );
    for (name, va) in &a {
        let Some(vb) = b.get(name) else { continue };
        let (Some(qa), Some(qb)) = (Quartiles::of(va), Quartiles::of(vb)) else {
            continue;
        };
        let change = if qa.median == 0.0 {
            0.0
        } else {
            qb.median / qa.median - 1.0
        };
        let _ = writeln!(
            out,
            "{name:<32} {:>4} {:>12.6} {:>12.6} {:>12.6} {:>6.2}% | {:>4} {:>12.6} {:>12.6} {:>12.6} {:>6.2}% | {:>+7.2}%",
            va.len(),
            qa.q1,
            qa.median,
            qa.q3,
            qa.spread() * 100.0,
            vb.len(),
            qb.q1,
            qb.median,
            qb.q3,
            qb.spread() * 100.0,
            change * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = manifest();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let kinds: Vec<String> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        assert_eq!(workloads, kinds);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let checked = Checked {
            attempted: 3,
            failed: 0,
        };
        let line = result_line(
            &checked,
            &[Metric {
                name: "setup_s".into(),
                unit: "s",
                value: 0.001_234_5,
            }],
        );
        assert_eq!(
            line,
            "{\"attempted\":3,\"correct\":true,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"unit\":\"s\",\"value\":0.0012345}}}"
        );
    }

    #[test]
    fn compare_reads_result_lines_per_side() {
        let side = |xs: &[f64]| {
            xs.iter()
                .map(|x| {
                    format!("noise\n{{\"metrics\":{{\"pass_ms.p50\":{{\"value\":{x},\"unit\":\"ms\"}}}}}}\n")
                })
                .collect::<String>()
        };
        let table = compare(&side(&[1.0, 2.0, 3.0, 4.0]), &side(&[2.0, 4.0, 6.0, 8.0]));
        let row = table.lines().nth(1).unwrap();
        assert!(row.starts_with("pass_ms.p50"));
        assert!(row.ends_with("+100.00%"), "{row}");
    }
}
