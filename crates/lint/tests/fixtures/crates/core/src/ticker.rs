//! `IOTSE-I15` fixtures: a hot path that calls into `sim`.

/// One clock tick. I15 must fire on the out-of-line `SimTime::from_nanos`
/// and stay silent on the inline `SimTime::as_nanos` and on the fault
/// hook, whose call is justified.
// iotse-lint: hot-path
pub fn advance(t: SimTime) -> u64 {
    let next = SimTime::from_nanos(SimTime::as_nanos(t) + 1);
    // lint: fault-plan hook: runs only with a plan
    let held = fault_hook(next);
    SimTime::as_nanos(held)
}
