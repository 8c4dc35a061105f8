//! The bench suite's stable report schema (`BENCH_6.json`).
//!
//! One [`BenchEntry`] per measured case: `(section, workload, scheme)`
//! identifies the case; `wall_ns_*` carry the stopwatch timing; and a
//! sparse name→`u64` [`Counters`] map carries the **deterministic cost
//! counters** — `events`, `bus_bytes`, `allocs`, `alloc_bytes`,
//! `cache_hits`, `cache_misses`, `faults_injected`, `samples_dropped`,
//! `bytes_corrupted`, `alerts_fired`, `series_points`, `detector_evals`,
//! `scenarios_run`, `expectations_evaluated`, `expectations_failed`.
//! They are bitwise-reproducible
//! (simulation events and payload bytes are pure functions of the scenario;
//! heap counts come from the `bench` binary's counting allocator over a
//! single-threaded run; cache counters read the compute-cache statistics
//! after a from-clear run; fault counters replay the seeded fault plan;
//! telemetry counters fold the recorded series and alert stream; scenario
//! counters grade the committed `scenarios/` corpus)
//! and are therefore CI-gateable with **zero** tolerance, while wall time
//! is only advisory (shared runners make it noisy).
//!
//! Schema history: v1–v5 wrote every counter as its own always-present
//! key, adding columns as sections arrived; v6 writes only the nonzero
//! counters, and since every non-header key is a counter and a missing
//! one reads as 0, files of every version parse the same way and a new
//! counter needs no schema bump.
//!
//! Serialization is hand-rolled JSON over the in-tree [`Json`] kernel — the
//! same std-only discipline as the Chrome-trace and Prometheus exporters —
//! so the output is deterministic byte-for-byte: object keys sort
//! alphabetically, entries keep suite order.

use std::borrow::Cow;

use iotse_apps::kernels::json::Json;

/// Version tag written into every report; bump on schema changes.
pub const SCHEMA_VERSION: u64 = 6;

/// Deterministic cost counters by name, sorted by name. Zero values are
/// never stored, so a counter that measured 0 and one a file never
/// mentions are the same. The names the suite records are borrowed, so
/// filling a map that has room reserved allocates nothing — a case's
/// counted run must not count its own bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counters(Vec<(Cow<'static, str>, u64)>);

impl Counters {
    /// An empty map with room for `n` counters.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Counters(Vec::with_capacity(n))
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_ref().cmp(name))
    }

    /// The counter's value (0 if absent).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.find(name).map_or(0, |i| self.0[i].1)
    }

    /// Adds `value` to the counter `name` (adding 0 stores nothing).
    pub fn add(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        if value == 0 {
            return;
        }
        let name = name.into();
        match self.find(&name) {
            Ok(i) => self.0[i].1 += value,
            Err(i) => self.0.insert(i, (name, value)),
        }
    }

    /// The nonzero counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.0.iter().map(|(k, v)| (k.as_ref(), *v))
    }
}

/// One measured case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Suite section: `executor`, `kernel`, `fleet` or `overhead`.
    pub section: String,
    /// Workload label (app list or kernel name).
    pub workload: String,
    /// Scheme label (`baseline`…, `jobs-4`, `kernel`, `instrumented`).
    pub scheme: String,
    /// Median wall time per iteration, nanoseconds. Advisory only.
    pub wall_ns_median: u64,
    /// Fastest iteration, nanoseconds. Advisory only.
    pub wall_ns_min: u64,
    /// Slowest iteration, nanoseconds. Advisory only.
    pub wall_ns_max: u64,
    /// Timed iterations behind the median.
    pub iters: u64,
    /// The deterministic cost counters of one run (see the module docs).
    pub counters: Counters,
}

/// The keys of an entry that are not counters.
const HEADER: [&str; 7] = [
    "section",
    "workload",
    "scheme",
    "wall_ns_median",
    "wall_ns_min",
    "wall_ns_max",
    "iters",
];

impl BenchEntry {
    /// The case identity used for baseline matching.
    #[must_use]
    pub fn case_id(&self) -> String {
        format!("{}/{}/{}", self.section, self.workload, self.scheme)
    }

    fn to_json(&self) -> Json {
        let header = [
            ("section", Json::String(self.section.clone())),
            ("workload", Json::String(self.workload.clone())),
            ("scheme", Json::String(self.scheme.clone())),
            ("wall_ns_median", from_u64(self.wall_ns_median)),
            ("wall_ns_min", from_u64(self.wall_ns_min)),
            ("wall_ns_max", from_u64(self.wall_ns_max)),
            ("iters", from_u64(self.iters)),
        ];
        let counters = self.counters.iter().map(|(k, v)| (k, from_u64(v)));
        Json::Object(
            header
                .into_iter()
                .chain(counters)
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// A full suite report: schema tag plus entries in suite order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BenchReport {
    /// The schema version the file was written with.
    pub schema: u64,
    /// One entry per case, in suite order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// An empty report at the current schema version.
    #[must_use]
    pub fn new() -> Self {
        BenchReport {
            schema: SCHEMA_VERSION,
            entries: Vec::new(),
        }
    }

    /// The entry with `case_id`, if present.
    #[must_use]
    pub fn entry(&self, case_id: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.case_id() == case_id)
    }

    /// Serializes the report to deterministic JSON: one compact line per
    /// entry (diff-friendly for the committed baseline), trailing newline
    /// included so the file is POSIX-clean.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut text = String::new();
        text.push_str("{\n");
        text.push_str(&format!("  \"schema\": {},\n", self.schema));
        text.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            text.push_str("    ");
            text.push_str(&e.to_json().to_text());
            text.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        text.push_str("  ]\n}\n");
        text
    }

    /// Parses a report previously written by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a missing field, or a counter
    /// that does not fit `u64`.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let doc = Json::parse(text).map_err(|e| format!("bench report: {e:?}"))?;
        let schema = field_u64(&doc, "schema")?;
        let entries = doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or("bench report: missing entries array")?
            .iter()
            .map(parse_entry)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport { schema, entries })
    }

    /// Exact-match diff of the deterministic counters against `baseline`:
    /// any missing case, extra case, or counter mismatch produces one line.
    /// Counters are compared over the union of both sides' names, a name
    /// missing on one side reading as 0. Empty means the gate passes.
    #[must_use]
    pub fn diff_counters(&self, baseline: &BenchReport) -> Vec<String> {
        let mut diffs = Vec::new();
        for base in &baseline.entries {
            let id = base.case_id();
            match self.entry(&id) {
                None => diffs.push(format!("{id}: case missing from current report")),
                Some(cur) => {
                    let mut names: Vec<&str> = base.counters.iter().map(|(k, _)| k).collect();
                    names.extend(cur.counters.iter().map(|(k, _)| k));
                    names.sort_unstable();
                    names.dedup();
                    for name in names {
                        let (b, c) = (base.counters.get(name), cur.counters.get(name));
                        if b != c {
                            diffs.push(format!("{id}: {name} {b} -> {c}"));
                        }
                    }
                }
            }
        }
        for cur in &self.entries {
            if baseline.entry(&cur.case_id()).is_none() {
                diffs.push(format!("{}: case missing from baseline", cur.case_id()));
            }
        }
        diffs
    }

    /// Advisory wall-time comparison: one line per case whose median moved
    /// by more than `tolerance` (0.3 = ±30%) relative to `baseline`. Cases
    /// absent from either side are skipped — [`BenchReport::diff_counters`]
    /// already reports those.
    #[must_use]
    pub fn wall_advisories(&self, baseline: &BenchReport, tolerance: f64) -> Vec<String> {
        let mut warnings = Vec::new();
        for base in &baseline.entries {
            let Some(cur) = self.entry(&base.case_id()) else {
                continue;
            };
            if base.wall_ns_median == 0 {
                continue;
            }
            let ratio = to_f64(cur.wall_ns_median) / to_f64(base.wall_ns_median);
            if (ratio - 1.0).abs() > tolerance {
                warnings.push(format!(
                    "{}: wall median {} ns -> {} ns ({:+.1}%)",
                    base.case_id(),
                    base.wall_ns_median,
                    cur.wall_ns_median,
                    (ratio - 1.0) * 100.0
                ));
            }
        }
        warnings
    }
}

/// `u64` → JSON number. Counters and nanosecond medians stay far below
/// 2^53, where `f64` is exact; this asserts it rather than silently
/// rounding.
fn from_u64(v: u64) -> Json {
    assert!(v < (1 << 53), "bench counter {v} exceeds f64 exactness");
    Json::Number(to_f64(v))
}

#[allow(clippy::cast_precision_loss)] // lint: guarded by the 2^53 assert above
fn to_f64(v: u64) -> f64 {
    v as f64
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    let x = doc
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("bench report: missing numeric field '{key}'"))?;
    if x < 0.0 || x.fract() != 0.0 || x >= (1u64 << 53) as f64 {
        return Err(format!("bench report: field '{key}' = {x} is not a u64"));
    }
    // lint: the range/fract checks above make the cast exact
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(x as u64)
}

fn field_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("bench report: missing string field '{key}'"))
}

/// Parses one entry: the header keys by name, every other key as a
/// counter (zeros dropped), so files of every schema version read alike.
fn parse_entry(doc: &Json) -> Result<BenchEntry, String> {
    let Json::Object(fields) = doc else {
        return Err("bench report: entry is not an object".to_string());
    };
    let mut counters = Counters::default();
    for name in fields.keys() {
        if !HEADER.contains(&name.as_str()) {
            counters.add(name.clone(), field_u64(doc, name)?);
        }
    }
    Ok(BenchEntry {
        section: field_str(doc, "section")?,
        workload: field_str(doc, "workload")?,
        scheme: field_str(doc, "scheme")?,
        wall_ns_median: field_u64(doc, "wall_ns_median")?,
        wall_ns_min: field_u64(doc, "wall_ns_min")?,
        wall_ns_max: field_u64(doc, "wall_ns_max")?,
        iters: field_u64(doc, "iters")?,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(section: &str, scheme: &str, events: u64) -> BenchEntry {
        let mut counters = Counters::default();
        for (name, v) in [
            ("events", events),
            ("bus_bytes", 2_400),
            ("allocs", 37),
            ("alloc_bytes", 8_192),
            ("cache_hits", 5),
            ("cache_misses", 3),
            ("faults_injected", 17),
            ("samples_dropped", 4),
            ("bytes_corrupted", 96),
            ("alerts_fired", 2),
            ("series_points", 14),
            ("detector_evals", 12),
            ("scenarios_run", 11),
            ("expectations_evaluated", 27),
            ("expectations_failed", 0),
        ] {
            counters.add(name, v);
        }
        BenchEntry {
            section: section.into(),
            workload: "A2".into(),
            scheme: scheme.into(),
            wall_ns_median: 1_000,
            wall_ns_min: 900,
            wall_ns_max: 1_500,
            iters: 10,
            counters,
        }
    }

    fn report() -> BenchReport {
        BenchReport {
            schema: SCHEMA_VERSION,
            entries: vec![
                entry("executor", "baseline", 400),
                entry("kernel", "kernel", 0),
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = report();
        let text = r.to_json();
        let back = BenchReport::parse(&text).expect("parses");
        assert_eq!(back, r);
        // Serialization is deterministic, and zero counters are not written.
        assert_eq!(back.to_json(), text);
        assert!(!text.contains("expectations_failed"), "{text}");
    }

    /// Parses a one-entry file of `schema` whose counters are the four v1
    /// counters plus `extra`, checking what holds for every version: no
    /// per-version code, the shared counters read back and zeros dropped.
    fn parse_schema(schema: u64, extra: &str) -> Counters {
        let text = format!(
            r#"{{"schema": {schema}, "entries": [
                {{"section":"s","workload":"w","scheme":"x",
                 "wall_ns_median":10,"wall_ns_min":9,"wall_ns_max":11,"iters":3,
                 "events":4000,"bus_bytes":48000,"allocs":42,"alloc_bytes":0{extra}}}
            ]}}"#
        );
        let r = BenchReport::parse(&text).unwrap_or_else(|e| panic!("v{schema}: {e}"));
        assert_eq!(r.schema, schema);
        let c = r.entries[0].counters.clone();
        assert_eq!((c.get("events"), c.get("allocs")), (4000, 42), "v{schema}");
        assert!(c.iter().all(|(_, v)| v > 0), "v{schema}: zeros dropped");
        c
    }

    #[test]
    fn schema_1_files_parse_with_zero_cache_counters() {
        // v1 carried four counters; the cache pair reads as 0.
        let c = parse_schema(1, "");
        assert_eq!((c.get("cache_hits"), c.get("cache_misses")), (0, 0));
    }

    #[test]
    fn pre_v3_files_parse_with_zero_fault_counters() {
        // v2 added the cache pair; the fault trio reads as 0.
        let c = parse_schema(2, r#","cache_hits":5,"cache_misses":0"#);
        assert_eq!(c.get("cache_hits"), 5);
        for name in ["faults_injected", "samples_dropped", "bytes_corrupted"] {
            assert_eq!(c.get(name), 0, "{name}");
        }
    }

    #[test]
    fn pre_v4_files_parse_with_zero_telemetry_counters() {
        // v3 added the fault trio; the telemetry trio reads as 0.
        let c = parse_schema(
            3,
            r#","cache_hits":5,"faults_injected":17,"samples_dropped":4,"bytes_corrupted":96"#,
        );
        assert_eq!(c.get("faults_injected"), 17);
        for name in ["alerts_fired", "series_points", "detector_evals"] {
            assert_eq!(c.get(name), 0, "{name}");
        }
    }

    #[test]
    fn pre_v5_files_parse_with_zero_scenario_counters() {
        // v4 added the telemetry trio; the scenario trio reads as 0. A v5
        // file, which added that trio, parses the same way.
        let c = parse_schema(
            4,
            r#","cache_hits":5,"alerts_fired":2,"series_points":14,"detector_evals":12"#,
        );
        assert_eq!(c.get("alerts_fired"), 2);
        for name in [
            "scenarios_run",
            "expectations_evaluated",
            "expectations_failed",
        ] {
            assert_eq!(c.get(name), 0, "{name}");
        }
        let v5 = parse_schema(
            5,
            r#","scenarios_run":11,"expectations_evaluated":27,"expectations_failed":0"#,
        );
        assert_eq!(v5.get("scenarios_run"), 11);
        assert_eq!(v5.get("absent_in_every_version"), 0);
    }

    #[test]
    fn the_committed_baseline_parses_and_round_trips() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benches/baseline.json");
        let text = std::fs::read_to_string(path).expect("committed baseline");
        let base = BenchReport::parse(&text).expect("baseline parses");
        assert_eq!(base.entries.len(), crate::suite::cases().len());
        let kernel = base.entry("kernel/A4/kernel").expect("gated kernel case");
        assert_eq!(kernel.counters.get("events"), 0);
        assert!(kernel.counters.get("allocs") > 0);
        let back = BenchReport::parse(&base.to_json()).expect("re-parses");
        assert_eq!(back, base, "counter maps survive to_json -> parse");
        assert!(back.diff_counters(&base).is_empty());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(BenchReport::parse("not json").is_err());
        assert!(BenchReport::parse("{}").is_err());
        assert!(BenchReport::parse(r#"{"schema": 1}"#).is_err());
        assert!(BenchReport::parse(r#"{"schema": 1.5, "entries": []}"#).is_err());
        assert!(BenchReport::parse(r#"{"schema": -1, "entries": []}"#).is_err());
        assert!(BenchReport::parse(r#"{"schema": 6, "entries": [1]}"#).is_err());
        let bad_counter = r#"{"schema": 6, "entries": [{"section":"s","workload":"w",
            "scheme":"x","wall_ns_median":1,"wall_ns_min":1,"wall_ns_max":1,"iters":1,
            "events":-3}]}"#;
        assert!(BenchReport::parse(bad_counter).is_err());
    }

    #[test]
    fn counter_diff_is_exact_and_bidirectional() {
        let base = report();
        assert!(base.diff_counters(&base).is_empty(), "self-diff is clean");

        let mut moved = report();
        moved.entries[0].counters.add("events", 1);
        let kernel = &mut moved.entries[1].counters;
        let kept = std::mem::take(kernel);
        for (name, v) in kept.iter() {
            if !matches!(name, "alloc_bytes" | "cache_hits") {
                kernel.add(name.to_string(), v);
            }
        }
        kernel.add("faults_injected", 1);
        let diffs = moved.diff_counters(&base);
        assert_eq!(diffs.len(), 4, "{diffs:?}");
        assert!(diffs[0].contains("events 400 -> 401"));
        assert!(diffs[1].contains("alloc_bytes 8192 -> 0"));
        assert!(diffs[2].contains("cache_hits 5 -> 0"));
        assert!(diffs[3].contains("faults_injected 17 -> 18"));

        // Wall-time drift alone does NOT trip the counter gate.
        let mut slow = report();
        slow.entries[0].wall_ns_median *= 10;
        assert!(slow.diff_counters(&base).is_empty());

        // Missing and extra cases are both reported.
        let mut shrunk = report();
        shrunk.entries.pop();
        assert_eq!(shrunk.diff_counters(&base).len(), 1);
        assert_eq!(base.diff_counters(&shrunk).len(), 1);
    }

    #[test]
    fn a_counter_on_only_one_side_is_reported() {
        let base = report();
        let mut cur = report();
        cur.entries[0].counters.add("new_counter", 7);
        assert_eq!(
            cur.diff_counters(&base),
            ["executor/A2/baseline: new_counter 0 -> 7"]
        );
        assert_eq!(
            base.diff_counters(&cur),
            ["executor/A2/baseline: new_counter 7 -> 0"]
        );
    }

    #[test]
    fn wall_advisories_respect_tolerance() {
        let base = report();
        let mut cur = report();
        cur.entries[0].wall_ns_median = 1_250; // +25%: inside ±30%
        assert!(cur.wall_advisories(&base, 0.3).is_empty());
        cur.entries[0].wall_ns_median = 1_400; // +40%: outside
        let w = cur.wall_advisories(&base, 0.3);
        assert_eq!(w.len(), 1, "{w:?}");
        assert!(w[0].contains("+40.0%"), "{w:?}");
    }
}
