//! Failure-injection sweep: Task-I availability errors.
//!
//! §II-B allows a sensor's availability check to fail ("the MCU stops
//! reading and throws an error message"). This sweep injects failures at
//! increasing rates through one whole-run `sensor-unavailable` fault script
//! and measures both the energy overhead of the retries and whether the
//! step counter still answers correctly — robustness the paper assumes but
//! never tests.

use std::fmt;

use iotse_core::{AppId, AppOutput, Scenario, Scheme};
use iotse_sim::faults::{FaultKind, FaultScript};
use iotse_sim::time::{SimDuration, SimTime};

use crate::config::ExperimentConfig;

/// Error rates swept.
pub const RATES: [f64; 4] = [0.0, 0.05, 0.15, 0.30];

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorPoint {
    /// Injected Task-I failure probability.
    pub rate: f64,
    /// Sensor read attempts (including retries).
    pub reads: u64,
    /// Total energy, mJ.
    pub energy_mj: f64,
    /// Steps the kernel reported over the run.
    pub steps: u32,
    /// Ground-truth steps over the run.
    pub true_steps: u32,
}

/// The sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSweep {
    /// One point per rate.
    pub points: Vec<ErrorPoint>,
}

/// Runs the sweep on the step counter under Batching.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> ErrorSweep {
    // One scenario per error rate, all run as one fleet.
    let scenarios = RATES
        .iter()
        .map(|&rate| {
            // Rate 0 scripts nothing: faults off means no plan at all.
            let faults = (rate > 0.0)
                .then(|| {
                    FaultScript::new(
                        FaultKind::SensorUnavailable { probability: rate },
                        SimTime::ZERO,
                        SimDuration::MAX,
                    )
                })
                .into_iter()
                .collect();
            Scenario::new(
                Scheme::Batching,
                iotse_apps::catalog::apps(&[AppId::A2], cfg.seed),
            )
            .windows(cfg.windows)
            .seed(cfg.seed)
            .faults(faults)
        })
        .collect();
    let points = RATES
        .iter()
        .zip(cfg.run_fleet(scenarios))
        .map(|(&rate, r)| {
            let steps = r
                .app(AppId::A2)
                .expect("ran")
                .windows
                .iter()
                .map(|w| match w.output {
                    AppOutput::Steps(n) => n,
                    _ => 0,
                })
                .sum();
            ErrorPoint {
                rate,
                reads: r.sensor_reads,
                energy_mj: r.total_energy().as_millijoules(),
                steps,
                true_steps: 2 * cfg.windows, // default 2 Hz walker
            }
        })
        .collect();
    ErrorSweep { points }
}

impl fmt::Display for ErrorSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Failure injection: Task-I availability errors (A2, Batching)"
        )?;
        writeln!(
            f,
            "  rate    reads (incl. retries)   energy (mJ)   steps / truth"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "  {:4.0}%   {:>8}                {:10.1}   {} / {}",
                p.rate * 100.0,
                p.reads,
                p.energy_mj,
                p.steps,
                p.true_steps
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retries_grow_with_the_error_rate() {
        let sweep = run(&ExperimentConfig::quick());
        for w in sweep.points.windows(2) {
            assert!(
                w[1].reads > w[0].reads,
                "retries must grow: {:?}",
                sweep.points
            );
            assert!(
                w[1].energy_mj >= w[0].energy_mj,
                "retries cost energy: {:?}",
                sweep.points
            );
        }
        // Expected retry volume: reads ≈ n / (1 − rate).
        let last = sweep.points.last().expect("points");
        let base = sweep.points.first().expect("points");
        let expected = base.reads as f64 / (1.0 - last.rate);
        assert!(
            (last.reads as f64 - expected).abs() < expected * 0.05,
            "reads {} vs expected {expected}",
            last.reads
        );
    }

    #[test]
    fn the_kernel_survives_heavy_error_injection() {
        let sweep = run(&ExperimentConfig::quick());
        for p in &sweep.points {
            assert!(
                p.steps.abs_diff(p.true_steps) <= 1,
                "rate {}: {} steps vs {} true",
                p.rate,
                p.steps,
                p.true_steps
            );
        }
    }
}
