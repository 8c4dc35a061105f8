//! # iotse-energy — power and energy modeling
//!
//! The measurement half of the `iotse` reproduction of *"Understanding
//! Energy Efficiency in IoT App Executions"* (ICDCS 2019). The paper
//! instrumented a real hub with a Monsoon power monitor; this crate is the
//! simulated substitute:
//!
//! * [`units`] — [`Power`] (mW) and [`Energy`]
//!   (µJ) with `Power × SimDuration → Energy` in the type system.
//! * [`attribution`] — the paper's four sub-task routines and the
//!   [`EnergyLedger`] behind every stacked bar in
//!   Figures 3–12.
//! * [`monitor`] — [`PowerTrace`]: the virtual Monsoon,
//!   an exact piecewise-constant waveform with CSV sampling.
//! * [`flame`] — energy flamegraphs: fold span-tree energy charges into
//!   inferno-compatible collapsed stacks and self/total tables.
//! * [`stacks`] — windowed per-routine energy stacks: the whole-run
//!   ledger telescoped across window boundaries into exact per-window
//!   time series (the windowed-telemetry signal path).
//! * [`report`] — ASCII renderings of breakdowns and bar charts.
//!
//! # Examples
//!
//! Account for the paper's step-counter interrupt cost (1000 interrupts ×
//! 48 µs at 5 W):
//!
//! ```
//! use iotse_energy::attribution::{Device, EnergyLedger, Routine};
//! use iotse_energy::units::Power;
//! use iotse_sim::time::SimDuration;
//!
//! let mut ledger = EnergyLedger::new();
//! let per_interrupt = Power::from_watts(5.0) * SimDuration::from_micros(48);
//! for _ in 0..1000 {
//!     ledger.charge(Device::Cpu, Routine::Interrupt, per_interrupt);
//! }
//! assert!((ledger.routine_total(Routine::Interrupt).as_millijoules() - 240.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod attribution;
pub mod flame;
pub mod monitor;
pub mod report;
pub mod stacks;
pub mod units;

pub use attribution::{Breakdown, Device, EnergyLedger, NormalizedBreakdown, Routine};
pub use flame::FlameGraph;
pub use monitor::PowerTrace;
pub use stacks::EnergyStacks;
pub use units::{Energy, Power};
