//! Golden-file test for faulted inspect output.
//!
//! The demo fault storm ([`iotse_core::robustness::demo_scripts`]) runs
//! under the default inspect request (Batching × A2, seed 42) for two
//! windows; its `inspect --format table` rendering is pinned byte for byte. The
//! per-scheme storm grading lives in the root `tests/robustness.rs`.
//!
//! To update after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p iotse-bench --test robustness
//! ```

use std::fs;
use std::path::PathBuf;

use iotse_bench::inspect::{inspect, InspectFormat, InspectRequest};
use iotse_core::robustness::demo_scripts;

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

#[test]
fn faulted_inspect_table_matches_golden() {
    let req = InspectRequest {
        windows: 2,
        faults: demo_scripts(),
        ..InspectRequest::default()
    };
    let table = inspect(&req, InspectFormat::Table);
    // The same request without faults must render differently — the faults
    // have to actually reach the instrumented run.
    let clean = inspect(
        &InspectRequest {
            windows: 2,
            ..InspectRequest::default()
        },
        InspectFormat::Table,
    );
    assert_ne!(table, clean, "faults did not alter the inspected run");
    check("inspect_faulted_table.txt", &table);
}
