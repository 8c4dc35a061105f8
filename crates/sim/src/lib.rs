//! # iotse-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the `iotse` workspace, which reproduces *"Understanding
//! Energy Efficiency in IoT App Executions"* (ICDCS 2019) in simulation. The
//! paper measured real hardware in real time; this crate supplies the
//! substitute clock: an exact, integer-nanosecond, deterministically-ordered
//! event loop plus the measurement primitives the energy model is built on.
//!
//! * [`time`] — [`SimTime`] / [`SimDuration`]
//!   integer-nanosecond clock types.
//! * [`queue`] — the pending-event set with deterministic FIFO tie-breaking.
//! * [`engine`] — the [`Engine`] execution loop.
//! * [`metrics`] — deterministic registry of named counters, gauges and
//!   fixed-bucket histograms, snapshotable to a stable-ordered report.
//! * [`trace`] — structured execution traces: hierarchical spans with typed
//!   fields (used for the paper's Figure 5 timelines and the energy
//!   flamegraph fold).
//! * [`timeseries`] — fixed-capacity windowed time series plus streaming
//!   EWMA/CUSUM drift detectors and budget watchdogs (the windowed
//!   telemetry layer's storage and alerting primitives).
//! * [`rng`] — label-addressed deterministic RNG streams.
//!
//! # Examples
//!
//! A minimal periodic process:
//!
//! ```
//! use iotse_sim::engine::Engine;
//! use iotse_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Default)]
//! struct World {
//!     samples: u32,
//! }
//!
//! fn sample(w: &mut World, e: &mut Engine<World>) {
//!     w.samples += 1;
//!     if w.samples < 1000 {
//!         e.schedule_in(SimDuration::from_millis(1), sample); // 1 kHz
//!     }
//! }
//!
//! let mut world = World::default();
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, sample);
//! engine.run(&mut world);
//! assert_eq!(world.samples, 1000);
//! assert_eq!(engine.now(), SimTime::from_millis(999));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod faults;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod time;
pub mod timeseries;
pub mod trace;

pub use engine::{Engine, RunOutcome};
pub use faults::{FaultKind, FaultPlan, FaultScript, FaultStats};
pub use metrics::{MetricsRegistry, MetricsReport};
pub use rng::SeedTree;
pub use time::{SimDuration, SimTime};
pub use trace::{SpanId, TraceKind, TraceLog};
