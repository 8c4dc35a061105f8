//! `IOTSE-H13` fixtures: annotated hot paths whose transitive call
//! graphs allocate.

/// Steady-state step that must stay allocation-free — H13 must fire on
/// the unjustified `vec!` it reaches through `refill`.
// iotse-lint: hot-path
pub fn tick_step(buf: &mut Vec<u8>) {
    refill(buf);
}

fn refill(buf: &mut Vec<u8>) {
    let staged = vec![0u8; 16];
    buf.extend_from_slice(&staged);
}

/// The same reach, waived at the annotation — H13 must stay silent.
// iotse-lint: hot-path
// iotse-lint: allow(IOTSE-H13)
pub fn tick_step_waived(buf: &mut Vec<u8>) {
    refill(buf);
}
