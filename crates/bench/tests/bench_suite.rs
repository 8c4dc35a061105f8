//! End-to-end tests of the `bench` binary: the deterministic counters must
//! be bitwise-identical across back-to-back suite runs, and `--check` must
//! gate on them exactly.
//!
//! The tests share two full suite runs: [`first`] writes a report, and
//! [`second`] gates a second run against it with `--check`, which also
//! gives the back-to-back comparison.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

use iotse_bench::report::{BenchReport, Counters};

fn out_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "iotse_bench_suite_{}_{tag}.json",
        std::process::id()
    ))
}

/// Runs the suite binary with `args` plus `--out`, and returns its output
/// with the report it wrote (if it got that far).
fn bench(tag: &str, args: &[&str]) -> (Output, Option<String>) {
    let path = out_path(tag);
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .arg("--out")
        .arg(&path)
        .output()
        .expect("bench binary launches");
    let text = std::fs::read_to_string(&path).ok();
    let _ = std::fs::remove_file(&path);
    (output, text)
}

/// Runs `bench --check` against the report `baseline` plus `args`.
fn check(tag: &str, baseline: &str, args: &[&str]) -> (Output, Option<String>) {
    let path = out_path(&format!("{tag}_baseline"));
    std::fs::write(&path, baseline).expect("write baseline");
    let path_arg = path.to_str().expect("utf-8 temp path");
    let mut all = vec!["--check", path_arg];
    all.extend_from_slice(args);
    let out = bench(tag, &all);
    let _ = std::fs::remove_file(&path);
    out
}

/// The first full suite run's report, as written.
fn first() -> &'static str {
    static FIRST: OnceLock<String> = OnceLock::new();
    FIRST.get_or_init(|| {
        let (output, text) = bench("first", &[]);
        assert!(output.status.success(), "bench run failed");
        text.expect("report written")
    })
}

/// The second full suite run, gated with `--check` against [`first`]: the
/// check must pass, and its own report is returned.
fn second() -> &'static BenchReport {
    static SECOND: OnceLock<BenchReport> = OnceLock::new();
    SECOND.get_or_init(|| {
        let (output, text) = check("second", first(), &[]);
        assert!(
            output.status.success(),
            "self-check must pass: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        BenchReport::parse(&text.expect("report written")).expect("report parses")
    })
}

fn parse(text: &str) -> BenchReport {
    BenchReport::parse(text).expect("report parses")
}

/// The gated counters, keyed by case.
fn counters(r: &BenchReport) -> Vec<(String, Counters)> {
    r.entries
        .iter()
        .map(|e| (e.case_id(), e.counters.clone()))
        .collect()
}

#[test]
fn counters_are_identical_across_runs() {
    let first = parse(first());
    assert_eq!(
        counters(&first),
        counters(second()),
        "back-to-back runs drifted"
    );
    assert!(!first.entries.is_empty());
}

#[test]
fn compute_cache_section_reports_exact_hit_rates() {
    // In the suite binary the compute_cache cases clear the cache and run
    // on the calling thread, so the from-clear hit/miss counters are
    // exact: 2 windows x 2 memoizable apps miss once under the first
    // scheme and hit under the remaining four.
    let report = parse(first());
    let on = report
        .entry("compute_cache/5-schemes-A4+A9/on")
        .expect("cache-on case present");
    let on = &on.counters;
    assert_eq!(on.get("cache_misses"), 4, "one miss per (app, window)");
    assert_eq!(on.get("cache_hits"), 16, "four reuses per (app, window)");
    let off = report
        .entry("compute_cache/5-schemes-A4+A9/off")
        .expect("cache-off case present");
    let off = &off.counters;
    assert_eq!((off.get("cache_hits"), off.get("cache_misses")), (0, 0));
    for name in ["events", "bus_bytes"] {
        assert_eq!(on.get(name), off.get(name), "caching changed {name}");
    }
}

#[test]
fn check_mode_accepts_own_output_and_rejects_drift() {
    let text = first();

    // Corrupt one deterministic counter: the gate must fail, on exactly
    // that counter.
    let mut doctored = parse(text);
    doctored.entries[0].counters.add("events", 1);
    let id = doctored.entries[0].case_id();
    assert!(id.starts_with("executor/"), "{id}");
    let (output, _) = check("doctored", &doctored.to_json(), &["--section", "executor"]);
    assert!(
        !output.status.success(),
        "doctored baseline must fail the gate"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let regressions: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("counter regression"))
        .collect();
    assert_eq!(regressions.len(), 1, "{stderr}");
    assert!(
        regressions[0].contains(&format!("{id}: events")),
        "{stderr}"
    );

    // Drop a scratch-engine kernel case: the gate must refuse a baseline
    // that no longer pins the A4/A9 alloc counters, before any case runs.
    let mut pruned = parse(text);
    pruned.entries.retain(|e| e.case_id() != "kernel/A4/kernel");
    let (output, _) = check("pruned", &pruned.to_json(), &[]);
    assert!(
        !output.status.success(),
        "baseline without kernel/A4/kernel must fail"
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("kernel/A4/kernel"),
        "refused for the wrong reason"
    );
    assert!(output.stdout.is_empty(), "the suite ran before the refusal");

    // Checking against its own counters passes (wall time is advisory).
    assert!(!second().entries.is_empty());
}
