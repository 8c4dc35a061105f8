//! End-to-end tests of the `bench` binary: the deterministic counters must
//! be bitwise-identical across back-to-back suite runs and across prewarm
//! parallelism, and `--check` must gate on them exactly.

use std::path::PathBuf;
use std::process::Command;

use iotse_bench::report::{BenchReport, Counters};

fn out_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "iotse_bench_suite_{}_{tag}.json",
        std::process::id()
    ))
}

/// Runs the suite binary with `--quick` (same counters as the full budget,
/// smaller stopwatch loops) and `args`, and parses the report it writes.
fn run_suite(tag: &str, args: &[&str]) -> BenchReport {
    let path = out_path(tag);
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("--quick")
        .args(args)
        .arg("--out")
        .arg(&path)
        .status()
        .expect("bench binary launches");
    assert!(status.success(), "bench run failed");
    let text = std::fs::read_to_string(&path).expect("report written");
    let _ = std::fs::remove_file(&path);
    BenchReport::parse(&text).expect("report parses")
}

/// The gated counters, keyed by case.
fn counters(r: &BenchReport) -> Vec<(String, Counters)> {
    r.entries
        .iter()
        .map(|e| (e.case_id(), e.counters.clone()))
        .collect()
}

#[test]
fn counters_are_identical_across_runs_and_prewarm_jobs() {
    let first = run_suite("first", &["--jobs", "1"]);
    let second = run_suite("second", &["--jobs", "1"]);
    assert_eq!(
        counters(&first),
        counters(&second),
        "back-to-back runs drifted"
    );
    let parallel = run_suite("jobs8", &["--jobs", "8"]);
    assert_eq!(
        counters(&first),
        counters(&parallel),
        "prewarm parallelism changed counters"
    );
    assert!(!first.entries.is_empty());
}

#[test]
fn compute_cache_section_reports_exact_hit_rates() {
    // In the suite binary the compute_cache cases own the whole process,
    // so the from-clear hit/miss counters are exact: 2 windows x 2
    // memoizable apps miss once under the first scheme and hit under the
    // remaining four. The section runs alone: the test reads no other.
    let report = run_suite("cache", &["--jobs", "1", "--section", "compute_cache"]);
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
    let path = out_path("gate");
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--quick", "--out"])
        .arg(&path)
        .status()
        .expect("bench binary launches");
    assert!(status.success());

    // Checking against its own counters passes (wall drift is advisory).
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--quick", "--check"])
        .arg(&path)
        .status()
        .expect("bench binary launches");
    assert!(status.success(), "self-check must pass");

    // Corrupt one deterministic counter: the gate must fail.
    let text = std::fs::read_to_string(&path).expect("report written");
    let mut doctored = BenchReport::parse(&text).expect("report parses");
    doctored.entries[0].counters.add("events", 1);
    std::fs::write(&path, doctored.to_json()).expect("rewrite baseline");
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--quick", "--check"])
        .arg(&path)
        .status()
        .expect("bench binary launches");
    assert!(!status.success(), "doctored baseline must fail the gate");

    // Drop a scratch-engine kernel case: the gate must refuse a baseline
    // that no longer pins the A4/A9 alloc counters.
    let mut pruned = BenchReport::parse(&text).expect("report parses");
    pruned.entries.retain(|e| e.case_id() != "kernel/A4/kernel");
    std::fs::write(&path, pruned.to_json()).expect("rewrite baseline");
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--quick", "--check"])
        .arg(&path)
        .status()
        .expect("bench binary launches");
    assert!(
        !status.success(),
        "baseline without kernel/A4/kernel must fail"
    );
    let _ = std::fs::remove_file(&path);
}
