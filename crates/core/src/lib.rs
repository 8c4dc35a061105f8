//! # iotse-core — the IoT hub platform and the paper's execution schemes
//!
//! The primary contribution of *"Understanding Energy Efficiency in IoT App
//! Executions"* (ICDCS 2019), reproduced in simulation: a Raspberry Pi 3B
//! "Main board" + ESP8266 "MCU board" platform model and the five execution
//! schemes the paper evaluates.
//!
//! * [`calibration`] — every constant of the model, each traced to the
//!   paper (5 W active CPU, 1.5 W sleep, 4 mJ transitions, 48 µs interrupt
//!   handling, 92 µs + 8.32 µs/B transfers, 80 KB MCU RAM, …).
//! * [`cpu`] / [`mcu`] — serialized device accounts with watermarks, gap
//!   policies (sleep break-even), exact energy charging and Figure 5
//!   timelines.
//! * [`scheme`] — **Baseline**, **Batching**, **COM**, **BEAM**, **BCOM**.
//! * [`admission`] — light/heavy classification (§III-B): memory, MIPS and
//!   sensor-friendliness gates for offloading.
//! * [`workload`] — the trait the eleven Table II apps implement, with real
//!   kernels returning typed [`workload::AppOutput`]s.
//! * [`compute_cache`] — cross-scheme memoization of pure kernel outputs,
//!   keyed by app id, instance salt and a 128-bit window fingerprint.
//! * [`executor`] — [`executor::Scenario`]: runs apps × scheme × windows on
//!   the discrete-event engine and yields a [`result::RunResult`].
//! * [`runner`] — the scenario fleet runner: fans independent scenarios
//!   across OS threads with deterministic, submission-ordered results.
//! * [`telemetry`] — windowed telemetry: per-window/per-routine energy
//!   stacks and streaming EWMA/CUSUM drift alerts, recorded at window
//!   boundaries when a scenario opts in, plus the per-app QoS series read
//!   from a result's windows.
//! * [`robustness`] — the committed demo fault storm
//!   ([`robustness::demo_scripts`], `faults = "demo"` in scenario files).
//! * [`scenario_spec`] — the declarative scenario language: `scenarios/*.toml`
//!   files declaring device populations, weighted app mixes, schemes, seeds,
//!   faults and expectations, compiled onto the fleet runner and graded into
//!   a [`scenario_spec::SpecReport`].
//! * [`toml_subset`] — the std-only TOML reader shared by scenario files and
//!   the `specs/table1.toml` ground truth.
//! * [`result`] — energy breakdowns, per-app QoS/processing reports,
//!   speedups.
//!
//! # Examples
//!
//! The admission rule that makes A11 (speech-to-text) heavy-weight:
//!
//! ```
//! use iotse_core::calibration::Calibration;
//!
//! let cal = Calibration::paper();
//! // 4683 MIPS and 1.43 GB do not fit an 80 KB / 150 MIPS MCU.
//! assert!(4683.0 > cal.mcu_mips_capacity);
//! assert!(1_430_000_000 > cal.mcu_memory_bytes);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]

pub mod admission;
pub mod calibration;
pub mod compute_cache;
pub mod cpu;
pub mod executor;
pub mod mcu;
pub mod result;
pub mod robustness;
pub mod runner;
pub mod scenario_spec;
pub mod scheme;
pub mod telemetry;
pub mod toml_subset;
pub mod workload;

pub use calibration::Calibration;
pub use executor::Scenario;
pub use result::{AppFlow, RunResult};
pub use runner::{run_fleet, Fleet};
pub use scenario_spec::{run_spec, ScenarioSpec, SpecCheck, SpecError, SpecReport};
pub use scheme::Scheme;
pub use telemetry::{Telemetry, TelemetryConfig};
pub use workload::{AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload};
