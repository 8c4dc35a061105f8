//! The workspace's one wall clock.
//!
//! The `bench` suite times each case's counted run once with [`time`] and
//! reports the sample next to the case's deterministic counters. That
//! number is advisory: the gate compares counters only, and wall-time
//! claims belong to `benchmark/`, which measures alternating pairs.
//!
//! This module is the only non-test place in the workspace allowed to touch
//! the wall clock (enforced by `iotse-lint`'s IOTSE-W01 rule); everything
//! else observes time through the simulated clock.

use std::time::{Duration, Instant};

/// Runs `f` once and returns its output with the wall time it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}
