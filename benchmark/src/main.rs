//! `workloads` — runs one benchmark workload and prints its result line.
//!
//! ```text
//! workloads --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! workloads compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! `--trace 0` (the default) times passes and reports the end-to-end
//! metrics; `--trace 1` runs the traced rounds, reports the per-layer
//! metrics and writes the spans to `target/benchmark/NAME.trace.json`
//! (Chrome `trace_event`) and `target/benchmark/NAME.folded` (folded
//! stacks of host nanoseconds). The last line of standard output is the
//! result as one JSON object; `--out` writes it to a file as well. Run it
//! from the repository root, beside the `figures`, `scenario` and
//! `inspect` binaries it takes its reference digests from.
//!
//! `compare` prints, per metric, the quartiles of two files of result
//! lines and the change of the median.

use std::path::Path;
use std::process::ExitCode;

use iotse_benchmark::alloc::CountingAlloc;
use iotse_benchmark::report::{compare, result_line};
use iotse_benchmark::run::{timed, traced};
use iotse_benchmark::spans::{chrome, folded};
use iotse_benchmark::workloads::{Bench, Kind, COMMITTED_SEED};
use iotse_benchmark::{reference, run};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: workloads --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
       workloads compare PARENT.jsonl CHANGE.jsonl
workloads: paper-repro, corpus-check, long-horizon, inspect-export";

/// Measuring time of one run when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;

fn fail(msg: &str) -> ExitCode {
    eprintln!("workloads: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = args.as_slice() else {
            return fail("compare needs two files of result lines");
        };
        return match (std::fs::read_to_string(a), std::fs::read_to_string(b)) {
            (Ok(a), Ok(b)) => {
                print!("{}", compare(&a, &b));
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => fail(&format!("cannot read: {e}")),
        };
    }

    let mut kind = None;
    let mut seed = COMMITTED_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out_path = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let value = args.next();
        match (arg.as_str(), value.as_deref()) {
            ("--workload", Some(name)) => match Kind::parse(name) {
                Ok(k) => kind = Some(k),
                Err(e) => return fail(&e),
            },
            ("--seed", Some(n)) => match n.parse() {
                Ok(n) => seed = n,
                Err(_) => return fail("--seed needs an integer"),
            },
            ("--seconds", Some(n)) => match n.parse() {
                Ok(n) if n > 0 => seconds = n,
                _ => return fail("--seconds needs a positive integer"),
            },
            ("--trace", Some("0")) => trace = false,
            ("--trace", Some("1")) => trace = true,
            ("--out", Some(path)) => out_path = Some(path.to_string()),
            _ => return fail(&format!("bad argument '{arg}'")),
        }
    }
    let Some(kind) = kind else {
        return fail("--workload is required");
    };

    let root = Path::new(".");
    let bench = match Bench::new(kind, seed, root) {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };
    let bin_dir = match std::env::current_exe() {
        Ok(exe) => exe.parent().map(Path::to_path_buf).unwrap_or_default(),
        Err(e) => return fail(&format!("cannot locate this binary: {e}")),
    };
    let reference = match reference::digests(&bench, &bin_dir) {
        Ok(r) => r,
        Err(e) => return fail(&format!("reference: {e}")),
    };

    let outcome = if trace {
        traced(&bench, &reference, seconds)
    } else {
        timed(&bench, &reference, seconds)
    };
    eprint!("{}", outcome.summary);
    if trace {
        if let Err(e) = write_spans(root, kind, &outcome) {
            return fail(&format!("writing spans: {e}"));
        }
    }
    if outcome.checked.failed > 0 {
        eprintln!(
            "workloads: fail ratio {:.4}: {} of {} passes did not reproduce the reference output",
            outcome.checked.fail_ratio(),
            outcome.checked.failed,
            outcome.checked.attempted
        );
    }
    let line = result_line(&outcome.checked, &outcome.metrics);
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, format!("{line}\n")) {
            return fail(&format!("writing {path}: {e}"));
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

fn write_spans(root: &Path, kind: Kind, outcome: &run::Outcome) -> std::io::Result<()> {
    let dir = root.join("target").join("benchmark");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{}.trace.json", kind.name())),
        chrome(&outcome.spans),
    )?;
    std::fs::write(
        dir.join(format!("{}.folded", kind.name())),
        folded(&outcome.spans),
    )?;
    eprintln!(
        "  spans: {} in {}/{}.{{trace.json,folded}}",
        outcome.spans.len(),
        dir.display(),
        kind.name()
    );
    Ok(())
}
