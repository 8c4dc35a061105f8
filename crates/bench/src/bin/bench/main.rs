//! `bench` — the deterministic microbenchmark suite.
//!
//! ```text
//! cargo run --release -p iotse-bench --bin bench -- [--section NAME]
//!     [--out PATH] [--check PATH]
//! ```
//!
//! Runs the ten suite sections (executor, queue, kernel, fleet, overhead,
//! compute_cache, robustness, telemetry, scenarios, figures), each case
//! twice, and prints a table of the counted run's counters and its one
//! advisory wall-time sample. `--out` writes the stable-schema JSON
//! report; `--check` gates the deterministic counters against a committed
//! baseline, exact match required. `--section` restricts the run (and the
//! gate) to one section — the CI robustness job uses `--section
//! robustness`. The baseline is read and validated before the suite runs:
//! a full (unfiltered) one must carry the per-kernel alloc entries for A4
//! and A9 — the scratch-engine kernels — so the zero-alloc steady state
//! cannot be silently dropped from the gate.

mod counting_alloc;

use std::process::ExitCode;

use iotse_bench::suite;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench: {msg}");
    eprintln!("usage: bench [--section NAME] [--out PATH] [--check PATH]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut section: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--out" => &mut out_path,
            "--check" => &mut check_path,
            "--section" => &mut section,
            other => return fail(&format!("unknown argument `{other}`")),
        };
        match args.next() {
            Some(v) => *slot = Some(v),
            None => return fail(&format!("{arg} wants a value")),
        }
    }

    let section = section.as_deref();
    let run = || suite::run_suite(&counting_alloc::snapshot, section);
    let mut gate = None;
    let report = match check_path {
        None => run(),
        Some(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("reading {path}: {e}")),
            };
            match suite::check(&text, section, run) {
                Ok((report, diffs)) => {
                    gate = Some((path, diffs));
                    report
                }
                Err(e) => return fail(&format!("{path}: {e}")),
            }
        }
    };
    print!("{}", suite::render_table(&report));

    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            return fail(&format!("writing {path}: {e}"));
        }
        println!("wrote {path}");
    }

    let Some((path, diffs)) = gate else {
        return ExitCode::SUCCESS;
    };
    if diffs.is_empty() {
        println!("counters match baseline ({} cases)", report.entries.len());
        return ExitCode::SUCCESS;
    }
    for d in &diffs {
        eprintln!("counter regression: {d}");
    }
    eprintln!(
        "bench: {} deterministic counter mismatch(es) vs {path}",
        diffs.len()
    );
    ExitCode::FAILURE
}
