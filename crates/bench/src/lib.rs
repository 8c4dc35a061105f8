//! # iotse-bench — the figure/table reproduction harness
//!
//! One module per table and figure of *"Understanding Energy Efficiency in
//! IoT App Executions"* (ICDCS 2019). Each returns a typed result that the
//! `figures` binary renders, the `bench` suite gates by its deterministic
//! counters, and the tests compare against the paper's numbers.
//!
//! # Examples
//!
//! ```
//! use iotse_bench::config::ExperimentConfig;
//! use iotse_bench::figures::fig04;
//!
//! let split = fig04::run(&ExperimentConfig::quick());
//! assert!((split.cpu_share - 0.77).abs() < 0.02); // the paper's 77%
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod csv;
pub mod diff;
pub mod export;
pub mod figures;
pub mod inspect;
pub mod report;
pub mod scenario;
pub mod stopwatch;
pub mod suite;
pub mod sweeps;
pub mod targets;

pub use config::ExperimentConfig;
