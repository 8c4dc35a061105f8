//! `bench` — the deterministic microbenchmark suite.
//!
//! ```text
//! cargo run --release -p iotse-bench --bin bench -- [--quick] [--jobs N]
//!     [--section NAME] [--out PATH] [--check PATH]
//! ```
//!
//! Runs the ten suite sections (executor, queue, kernel, fleet, overhead,
//! compute_cache, robustness, telemetry, scenarios, figures), prints a
//! table, and
//! optionally writes the
//! stable-schema JSON report (`--out`) or gates the deterministic counters
//! against a committed baseline (`--check`, exact match required; wall
//! time is advisory only — drift beyond ±30% prints a warning but never
//! fails). `--section` restricts the run (and the gate) to one section —
//! the CI robustness job uses `--section robustness`. A full (unfiltered)
//! baseline must carry the per-kernel alloc entries for A4 and A9 — the
//! scratch-engine kernels — so the zero-alloc steady state cannot be
//! silently dropped from the gate.

mod counting_alloc;

use std::process::ExitCode;

use iotse_bench::report::BenchReport;
use iotse_bench::stopwatch::SampleBudget;
use iotse_bench::suite;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Wall-time drift beyond this fraction of baseline prints an advisory.
const WALL_TOLERANCE: f64 = 0.30;

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench: {msg}");
    eprintln!("usage: bench [--quick] [--jobs N] [--section NAME] [--out PATH] [--check PATH]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut jobs = 1usize;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut section: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--jobs" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => jobs = n,
                _ => return fail("--jobs wants a positive integer"),
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => return fail("--out wants a path"),
            },
            "--check" => match args.next() {
                Some(p) => check_path = Some(p),
                None => return fail("--check wants a path"),
            },
            "--section" => match args.next() {
                Some(s) => section = Some(s),
                None => return fail("--section wants a section name"),
            },
            other => return fail(&format!("unknown argument `{other}`")),
        }
    }

    let limits = if quick {
        SampleBudget::quick()
    } else {
        SampleBudget::default()
    };
    let report =
        suite::run_suite_filtered(limits, jobs, &counting_alloc::snapshot, section.as_deref());
    print!("{}", suite::render_table(&report));

    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            return fail(&format!("writing {path}: {e}"));
        }
        println!("wrote {path}");
    }

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("reading {path}: {e}")),
        };
        let mut baseline = match BenchReport::parse(&text) {
            Ok(b) => b,
            Err(e) => return fail(&format!("parsing {path}: {e}")),
        };
        // A filtered run gates against the baseline filtered the same way.
        if let Some(s) = &section {
            baseline.entries.retain(|e| e.section == *s);
            if baseline.entries.is_empty() {
                return fail(&format!("{path} has no cases in section `{s}`"));
            }
        } else {
            // The scratch-engine kernels must stay under the exact-alloc
            // gate: a baseline without them could regress PR 5's
            // zero-alloc steady state without failing CI.
            for id in ["kernel/A4/kernel", "kernel/A9/kernel"] {
                if baseline.entry(id).is_none() {
                    return fail(&format!("{path} lacks the gated case {id}"));
                }
            }
        }
        for w in report.wall_advisories(&baseline, WALL_TOLERANCE) {
            eprintln!("warning: {w}");
        }
        let diffs = report.diff_counters(&baseline);
        if diffs.is_empty() {
            println!("counters match baseline ({} cases)", baseline.entries.len());
        } else {
            for d in &diffs {
                eprintln!("counter regression: {d}");
            }
            eprintln!(
                "bench: {} deterministic counter mismatch(es) vs {path}",
                diffs.len()
            );
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}
