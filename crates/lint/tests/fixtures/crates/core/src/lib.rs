//! Fixture crate root for `core`.

pub mod calibration;
pub mod executor;
