//! The committed demo fault storm.
//!
//! [`demo_scripts`] fires each of the seven scripted kinds at least once
//! over a two-window run. Scenario files name it as `faults = "demo"`;
//! `inspect --faults demo` and the bench's `robustness` section inject it
//! directly. Grading a scheme
//! under the storm is the scenario language's job: a one-device spec with
//! `faults = "demo"` and an `energy-ratio` expectation runs the clean twin
//! and the faulted fleet and compares their energy (see
//! [`crate::scenario_spec`]).

use iotse_sim::faults::{FaultKind, FaultScript};
use iotse_sim::time::{SimDuration, SimTime};

/// The committed demo fault storm: each of the seven scripted kinds fires
/// at least once over a 2-window, 1 kHz S4 scenario (A2 + A7 in the bench
/// suite). Times are inside `[0, 2 s)`; S4 is target slot 3.
#[must_use]
pub fn demo_scripts() -> Vec<FaultScript> {
    let s4 = iotse_sensors::spec::SensorId::S4.slot();
    vec![
        FaultScript::new(
            FaultKind::SensorDropout { probability: 0.2 },
            SimTime::from_millis(100),
            SimDuration::from_millis(300),
        )
        .target(s4)
        .seeded(1),
        FaultScript::new(
            FaultKind::SensorStuckAt,
            SimTime::from_millis(500),
            SimDuration::from_millis(200),
        )
        .target(s4)
        .seeded(2),
        FaultScript::new(
            FaultKind::SensorNoiseBurst { amplitude: 5.0 },
            SimTime::from_millis(800),
            SimDuration::from_millis(200),
        )
        .target(s4)
        .seeded(3),
        FaultScript::new(
            FaultKind::LinkCorruption { per_byte: 0.05 },
            SimTime::from_millis(1000),
            SimDuration::from_millis(400),
        )
        .seeded(4),
        FaultScript::new(
            FaultKind::LinkPartition,
            SimTime::from_millis(1500),
            SimDuration::from_millis(300),
        )
        .seeded(5),
        FaultScript::new(
            FaultKind::ClockDrift { ppm: 200_000 },
            SimTime::from_millis(1000),
            SimDuration::from_millis(500),
        )
        .seeded(6),
        FaultScript::new(
            FaultKind::InterruptStorm { rate_hz: 2000 },
            SimTime::from_millis(1600),
            SimDuration::from_millis(400),
        )
        .seeded(7),
    ]
}
