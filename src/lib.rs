//! # iotse — Understanding Energy Efficiency in IoT App Executions, in Rust
//!
//! A full-stack reproduction of the ICDCS 2019 paper of the same name:
//! a deterministic simulation of the paper's Raspberry Pi 3B + ESP8266 IoT
//! hub, the ten Table I sensors over synthetic physical phenomena with
//! ground truth, the eleven Table II workloads with **real application
//! kernels**, and the five execution schemes the paper evaluates —
//! Baseline, Batching, COM (Computation Offloading to MCU), BEAM and BCOM.
//!
//! The workspace layers:
//!
//! * [`sim`] — discrete-event engine, clock, statistics, tracing.
//! * [`energy`] — power/energy units, state machines, per-routine
//!   attribution, the virtual power monitor.
//! * [`sensors`] — Table I sensor models and the simulated physical world.
//! * [`core`] — the platform model, admission control and the scheme
//!   executor (the paper's contribution).
//! * [`apps`] — the A1–A11 workloads and their kernels.
//!
//! # Quickstart
//!
//! ```
//! use iotse::prelude::*;
//!
//! let seed = 42;
//! let apps = iotse::apps::catalog::apps(&[AppId::A2], seed);
//! let result = Scenario::new(Scheme::Batching, apps).windows(2).seed(seed).run();
//!
//! println!("{} used {}", result.scheme, result.total_energy());
//! assert_eq!(result.interrupts, 2); // one bulk interrupt per window
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use iotse_apps as apps;
pub use iotse_core as core;
pub use iotse_energy as energy;
pub use iotse_sensors as sensors;
pub use iotse_sim as sim;

/// The types most programs need.
pub mod prelude {
    pub use iotse_apps::catalog;
    pub use iotse_core::{
        run_fleet, AppFlow, AppId, AppOutput, Calibration, Fleet, RunResult, Scenario, Scheme,
    };
    pub use iotse_energy::{Breakdown, Energy, Power};
    pub use iotse_sensors::{PhysicalWorld, SensorId, WorldConfig};
    pub use iotse_sim::{FaultKind, FaultScript, FaultStats, SeedTree, SimDuration, SimTime};
}
