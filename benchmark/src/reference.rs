//! Reference digests, made independently of the passes they check.
//!
//! Where a shipped command prints exactly what a pass produces, the
//! reference is that command's standard output, run as its own process at
//! one job and digested with FNV-1a. The traced run's two-wide passes
//! must match it too, which shows the result does not depend on the job
//! count. `long-horizon`
//! has no command of its own, and `corpus-check` at another seed runs
//! scenario files no command sees; both take a one-job pass as reference.

use std::path::Path;
use std::process::Command;

use iotse_bench::inspect::{InspectFormat, InspectRequest};
use iotse_core::Scheme;

use crate::spans::Tracer;
use crate::stats::fnv1a;
use crate::workloads::{Bench, Kind, COMMITTED_SEED, PAIR};

/// Runs `bin_dir/program args…` to completion and digests its stdout.
/// `scenario` exits 1 when an expectation fails; its report is still the
/// reference (the passes count the failure themselves).
fn digest_of(bin_dir: &Path, program: &str, args: &[&str]) -> Result<u64, String> {
    let path = bin_dir.join(program);
    let out = Command::new(&path)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", path.display()))?;
    match out.status.code() {
        Some(0) => {}
        Some(1) if program == "scenario" => {}
        _ => {
            return Err(format!(
                "{program} {} failed ({}): {}",
                args.join(" "),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ))
        }
    }
    Ok(fnv1a(&out.stdout))
}

/// The digests every pass of `bench` must reproduce, in output order.
/// `bin_dir` holds the `figures`, `scenario` and `inspect` binaries.
///
/// # Errors
///
/// Reports a command that cannot be run or fails.
pub fn digests(bench: &Bench, bin_dir: &Path) -> Result<Vec<u64>, String> {
    let seed = bench.seed.to_string();
    match bench.kind {
        Kind::PaperRepro => Ok(vec![digest_of(
            bin_dir,
            "figures",
            &["--jobs", "1", "--seed", &seed, "all", "sweeps"],
        )?]),
        Kind::CorpusCheck if bench.seed == COMMITTED_SEED => {
            let dir = bench.corpus_dir().to_string_lossy().into_owned();
            Ok(vec![digest_of(
                bin_dir,
                "scenario",
                &["check", &dir, "--jobs", "1"],
            )?])
        }
        Kind::InspectExport => {
            let apps: Vec<String> = PAIR.iter().map(ToString::to_string).collect();
            let apps = apps.join(",");
            let windows = InspectRequest::default().windows.to_string();
            let mut digests = Vec::new();
            for scheme in Scheme::ALL {
                let scheme = scheme.to_string().to_ascii_lowercase();
                for format in InspectFormat::ALL {
                    digests.push(digest_of(
                        bin_dir,
                        "inspect",
                        &[
                            "--scheme",
                            &scheme,
                            "--apps",
                            &apps,
                            "--windows",
                            &windows,
                            "--seed",
                            &seed,
                            "--faults",
                            "demo",
                            "--format",
                            format.name(),
                            "--jobs",
                            "1",
                        ],
                    )?);
                }
            }
            Ok(digests)
        }
        Kind::CorpusCheck | Kind::LongHorizon => Ok(bench.pass(1, &mut Tracer::disabled()).digests),
    }
}
