//! The benchmark's only clock.
//!
//! IOTSE-W01 keeps host time out of the simulator; this benchmark exists
//! to measure host time, so every read of it goes through [`now_ns`] and
//! the rule is waived in this one module.

use std::sync::OnceLock;
// iotse-lint: allow(IOTSE-W01) host time is what the benchmark measures
use std::time::Instant;

// iotse-lint: allow(IOTSE-W01) the epoch every span and pass time counts from
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // iotse-lint: allow(IOTSE-W01) the single host-clock read of the benchmark
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::now_ns;

    #[test]
    fn clock_never_runs_backwards() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
