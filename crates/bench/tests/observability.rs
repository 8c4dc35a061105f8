//! Golden-file and determinism tests for the observability exports.
//!
//! The golden tests pin the exact bytes of each `inspect` format so any
//! drift — formatting, span structure, metric naming, float rendering —
//! fails loudly. The determinism tests assert the acceptance criterion
//! directly: every format is byte-identical across repeated runs and
//! across `--jobs 1/4/8`.
//!
//! To update after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p iotse-bench --test observability
//! ```

use std::fs;
use std::path::PathBuf;

use iotse_bench::inspect::{inspect, InspectFormat, InspectRequest};
use iotse_core::{AppId, Scheme};
use iotse_sim::hash::{fnv1a, FNV_OFFSET};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with UPDATE_GOLDEN=1)", name));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// Step counter under Batching — the paper's flagship pairing.
fn step_counter() -> InspectRequest {
    InspectRequest {
        scheme: Scheme::Batching,
        apps: vec![AppId::A2],
        windows: 2,
        seed: 42,
        jobs: 4,
        faults: Vec::new(),
    }
}

/// Keyword spotting (one on-demand read per window) keeps the full span
/// dump small enough to check in.
fn keyword_spotting() -> InspectRequest {
    InspectRequest {
        scheme: Scheme::Batching,
        apps: vec![AppId::A10],
        windows: 2,
        seed: 42,
        jobs: 4,
        faults: Vec::new(),
    }
}

#[test]
fn inspect_chrome_matches_golden() {
    check(
        "inspect_chrome.json",
        &inspect(&keyword_spotting(), InspectFormat::Chrome),
    );
}

#[test]
fn inspect_folded_matches_golden() {
    check(
        "inspect_folded.txt",
        &inspect(&step_counter(), InspectFormat::Folded),
    );
}

#[test]
fn inspect_table_matches_golden() {
    check(
        "inspect_table.txt",
        &inspect(&step_counter(), InspectFormat::Table),
    );
}

#[test]
fn inspect_metrics_matches_golden() {
    check(
        "inspect_metrics.txt",
        &inspect(&step_counter(), InspectFormat::Metrics),
    );
}

#[test]
fn inspect_timeline_matches_golden() {
    check(
        "inspect_timeline.txt",
        &inspect(&step_counter(), InspectFormat::Timeline),
    );
}

/// The acceptance criterion, asserted through the library the binary is a
/// thin wrapper over: every format, byte-identical at jobs 1, 4 and 8, and
/// across repeated runs at the same level.
#[test]
fn inspect_output_is_identical_across_jobs_and_runs() {
    for format in InspectFormat::ALL {
        let at_jobs = |jobs: usize| {
            inspect(
                &InspectRequest {
                    jobs,
                    ..step_counter()
                },
                format,
            )
        };
        let one = at_jobs(1);
        assert_eq!(one, at_jobs(4), "{} differs at --jobs 4", format.name());
        assert_eq!(one, at_jobs(8), "{} differs at --jobs 8", format.name());
        assert_eq!(one, at_jobs(1), "{} differs across runs", format.name());
        assert!(!one.is_empty(), "{} rendered empty", format.name());
    }
}

/// The folded export's integer nanojoule weights sum to the ledger total
/// within rounding, for every scheme (the exact f64 identity is asserted
/// in `iotse_bench::inspect` and `iotse-core` tests; this pins the
/// rendered bytes).
#[test]
fn folded_nanojoules_sum_to_ledger_total() {
    for scheme in [
        Scheme::Baseline,
        Scheme::Batching,
        Scheme::Com,
        Scheme::Beam,
        Scheme::Bcom,
    ] {
        let req = InspectRequest {
            scheme,
            windows: 1,
            ..step_counter()
        };
        let result = iotse_bench::inspect::run(&req);
        let folded = iotse_bench::inspect::render(&result, InspectFormat::Folded);
        let sum_nj: u64 = folded
            .lines()
            .map(|l| {
                l.rsplit(' ')
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| panic!("bad folded line: {l}"))
            })
            .sum();
        let ledger_nj = result.total_energy().as_microjoules() * 1e3;
        let drift = (sum_nj as f64 - ledger_nj).abs();
        // Each stack rounds independently to integer nJ; with well under
        // 100 stacks the total can drift by at most half that many nJ.
        assert!(
            drift <= 50.0,
            "{scheme}: folded sum {sum_nj} nJ vs ledger {ledger_nj} nJ"
        );
    }
}

/// One digest per (scheme, faults, format) on A2+A7: every scheme's span
/// structure, settle order and exporter bytes, with and without the demo
/// fault storm. The full dumps above pin one scheme; these pin all five
/// at one line each.
#[test]
fn inspect_scheme_digests_match_golden() {
    let mut out = String::new();
    for scheme in Scheme::ALL {
        for (label, faults) in [
            ("none", Vec::new()),
            ("demo", iotse_core::robustness::demo_scripts()),
        ] {
            let result = iotse_bench::inspect::run(&InspectRequest {
                scheme,
                apps: vec![AppId::A2, AppId::A7],
                windows: 2,
                seed: 42,
                jobs: 1,
                faults,
            });
            for format in InspectFormat::ALL {
                let text = iotse_bench::inspect::render(&result, format);
                out.push_str(&format!(
                    "{scheme} faults={label} {} {:016x}\n",
                    format.name(),
                    fnv1a(FNV_OFFSET, text.as_bytes())
                ));
            }
        }
    }
    check("inspect_scheme_digests.txt", &out);
}
