//! # iotse-sensors — the ten Table I sensors and the world behind them
//!
//! Part of the `iotse` reproduction of *"Understanding Energy Efficiency in
//! IoT App Executions"* (ICDCS 2019). The paper attached ten physical
//! sensors to an ESP8266 MCU board; this crate is the simulated substitute:
//!
//! * [`spec`] / [`catalog`] — Table I verbatim: per-sensor bus type, read
//!   time, min/typ/max power, payload shape/size, max and QoS sampling
//!   rates, MCU-friendliness.
//! * [`bus`] — I²C/SPI/TTL-serial/analog/camera-serial timing.
//! * [`signal`] — deterministic synthetic phenomena **with ground truth**:
//!   walking gait, ECG beats, earthquakes, spoken keywords, environmental
//!   random walks, camera frames, fingerprints.
//! * [`driver`] — the ADC register: [`driver::quantize`] is the
//!   register-read and formatting tasks (II and III) of the §II-B read
//!   pipeline. Task I's availability errors are the fault layer's
//!   `sensor-unavailable` kind, decided before the world is read.
//! * [`world`] — [`PhysicalWorld`]: one shared world per scenario, the
//!   property BEAM's sensor sharing relies on. It owns every generator
//!   once, and a read is one `match` on the [`SensorId`]: sample the
//!   phenomenon, quantize it, stamp the slot's sequence number.
//! * [`faults`] — the sample-path perturbations (stuck-at, noise) the
//!   fault layer applies after a read.
//!
//! # Examples
//!
//! ```
//! use iotse_sensors::catalog;
//! use iotse_sensors::spec::SensorId;
//! use iotse_sensors::world::{PhysicalWorld, WorldConfig};
//! use iotse_sim::rng::SeedTree;
//! use iotse_sim::time::SimTime;
//!
//! // Table I: the accelerometer emits 12-byte samples at 1 kHz QoS.
//! let s4 = catalog::spec(SensorId::S4);
//! assert_eq!(s4.sample_bytes(), 12);
//! assert_eq!(s4.qos_rate_hz, Some(1000.0));
//!
//! // And the world produces its values.
//! let mut world = PhysicalWorld::new(&SeedTree::new(7), WorldConfig::default());
//! let Ok(sample) = world.read(SensorId::S4, SimTime::from_millis(3));
//! assert!(sample.value.as_triple().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod catalog;
pub mod driver;
pub mod faults;
pub mod reading;
pub mod signal;
pub mod spec;
pub mod world;

pub use bus::BusKind;
pub use reading::{SampleValue, SensorSample};
pub use spec::{PayloadKind, SensorId, SensorSpec};
pub use world::{PhysicalWorld, WorldConfig};
