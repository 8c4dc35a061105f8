//! Walking-gait accelerometer signal (feeds S4 for the step-counter and
//! earthquake workloads).
//!
//! The vertical axis carries gravity plus one raised-cosine impulse per
//! step; the horizontal axes carry correlated sway. Step instants are
//! regular at the configured cadence, so the generator knows exactly how
//! many steps fall inside any window — the ground truth the step-detection
//! kernel is tested against.

use std::f64::consts::PI;

use iotse_sim::rng::SeedTree;
use iotse_sim::rng::SimRng;
use iotse_sim::time::SimTime;

/// Standard gravity in m/s².
pub const GRAVITY: f64 = 9.806_65;

/// Configuration of a walking pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaitProfile {
    /// Steps per second (typical walking ≈ 1.8–2.2 Hz).
    pub cadence_hz: f64,
    /// Peak vertical acceleration of a step impulse, m/s².
    pub impulse_amplitude: f64,
    /// Width of the step impulse, seconds.
    pub impulse_width_s: f64,
    /// Standard deviation of white measurement noise, m/s².
    pub noise_std: f64,
}

impl Default for GaitProfile {
    fn default() -> Self {
        GaitProfile {
            cadence_hz: 2.0,
            impulse_amplitude: 4.0,
            impulse_width_s: 0.15,
            noise_std: 0.15,
        }
    }
}

/// Deterministic synthetic accelerometer stream with step ground truth.
///
/// # Examples
///
/// ```
/// use iotse_sensors::signal::gait::{GaitGenerator, GaitProfile};
/// use iotse_sim::rng::SeedTree;
/// use iotse_sim::time::SimTime;
///
/// let mut gen = GaitGenerator::new(&SeedTree::new(1), GaitProfile::default());
/// // Exactly 2 steps/s ⇒ 20 true steps in 10 s.
/// assert_eq!(gen.true_steps_between(SimTime::ZERO, SimTime::from_secs(10)), 20);
/// let v = gen.sample_triple(SimTime::from_millis(125));
/// assert!(v[2] > 5.0); // gravity-dominated vertical axis
/// ```
#[derive(Debug)]
pub struct GaitGenerator {
    profile: GaitProfile,
    rng: SimRng,
}

impl GaitGenerator {
    /// Creates a generator drawing its noise from `seeds`.
    ///
    /// # Panics
    ///
    /// Panics if the profile has a non-positive cadence or width.
    #[must_use]
    pub fn new(seeds: &SeedTree, profile: GaitProfile) -> Self {
        assert!(profile.cadence_hz > 0.0, "cadence must be positive");
        assert!(
            profile.impulse_width_s > 0.0,
            "impulse width must be positive"
        );
        GaitGenerator {
            profile,
            rng: seeds.stream("signal/gait"),
        }
    }

    /// The profile in use.
    #[must_use]
    pub fn profile(&self) -> &GaitProfile {
        &self.profile
    }

    /// Ground truth: number of step instants in `[from, to)`.
    #[must_use]
    pub fn true_steps_between(&self, from: SimTime, to: SimTime) -> u64 {
        if to <= from {
            return 0;
        }
        let period = 1.0 / self.profile.cadence_hz;
        // Steps at t_k = (k + 0.5) · period, k = 0, 1, …; count of steps
        // strictly before t is ⌈t/period − 0.5⌉ clamped at zero (an exact
        // boundary hit is excluded, keeping [from, to) half-open).
        let count_before = |t: SimTime| -> u64 {
            let x = t.as_secs_f64() / period - 0.5;
            if x <= 0.0 {
                0
            } else {
                x.ceil() as u64
            }
        };
        count_before(to) - count_before(from)
    }

    /// The noiseless vertical step waveform at time `t_s` (seconds).
    fn step_pulse(&self, t_s: f64) -> f64 {
        let period = 1.0 / self.profile.cadence_hz;
        let phase = (t_s / period).fract(); // position within the stride
                                            // Pulse centred at phase 0.5 (matching `true_steps_between`).
        let center = 0.5 * period;
        let dt = (phase * period - center).abs();
        let half = self.profile.impulse_width_s / 2.0;
        if dt < half {
            // Raised cosine.
            self.profile.impulse_amplitude * 0.5 * (1.0 + (PI * dt / half).cos())
        } else {
            0.0
        }
    }

    /// One 3-axis reading in m/s².
    pub fn sample_triple(&mut self, t: SimTime) -> [f64; 3] {
        let ts = t.as_secs_f64();
        let p = self.profile;
        let sway = 0.4 * (2.0 * PI * p.cadence_hz / 2.0 * ts).sin();
        let bob = 0.25 * (2.0 * PI * p.cadence_hz * ts + 0.7).sin();
        let n = |rng: &mut SimRng| -> f64 {
            // Box–Muller from two uniform draws keeps us on rand's stable API.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
        };
        [
            sway + p.noise_std * n(&mut self.rng),
            bob + p.noise_std * n(&mut self.rng),
            GRAVITY + self.step_pulse(ts) + p.noise_std * n(&mut self.rng),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_sim::time::SimDuration;

    fn gen() -> GaitGenerator {
        GaitGenerator::new(&SeedTree::new(7), GaitProfile::default())
    }

    #[test]
    fn ground_truth_counts_are_exact() {
        let g = gen();
        // Steps at 0.25 s, 0.75 s, 1.25 s, … for cadence 2 Hz.
        assert_eq!(
            g.true_steps_between(SimTime::ZERO, SimTime::from_secs(1)),
            2
        );
        assert_eq!(
            g.true_steps_between(SimTime::ZERO, SimTime::from_millis(250)),
            0
        );
        assert_eq!(
            g.true_steps_between(SimTime::ZERO, SimTime::from_millis(251)),
            1
        );
        assert_eq!(
            g.true_steps_between(SimTime::from_millis(250), SimTime::from_millis(750)),
            1
        );
        assert_eq!(
            g.true_steps_between(SimTime::from_secs(5), SimTime::from_secs(5)),
            0
        );
    }

    #[test]
    fn ground_truth_is_additive_over_windows() {
        let g = gen();
        let mid = SimTime::from_millis(3_333);
        let end = SimTime::from_secs(10);
        let total = g.true_steps_between(SimTime::ZERO, end);
        let split = g.true_steps_between(SimTime::ZERO, mid) + g.true_steps_between(mid, end);
        assert_eq!(total, split);
        assert_eq!(total, 20);
    }

    #[test]
    fn vertical_axis_carries_gravity_and_impulses() {
        let mut g = gen();
        // Away from a step: near gravity.
        let quiet = g.sample_triple(SimTime::ZERO);
        assert!((quiet[2] - GRAVITY).abs() < 1.0);
        // At a step instant (0.25 s): clear peak.
        let peak = g.sample_triple(SimTime::from_millis(250));
        assert!(
            peak[2] > GRAVITY + 2.5,
            "expected step impulse, got {}",
            peak[2]
        );
    }

    #[test]
    fn same_seed_same_signal() {
        let mut a = gen();
        let mut b = gen();
        for i in 0..50 {
            let t = SimTime::ZERO + SimDuration::from_millis(i);
            assert_eq!(a.sample_triple(t), b.sample_triple(t));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = GaitGenerator::new(&SeedTree::new(1), GaitProfile::default());
        let mut b = GaitGenerator::new(&SeedTree::new(2), GaitProfile::default());
        let t = SimTime::from_millis(10);
        assert_ne!(a.sample_triple(t), b.sample_triple(t));
    }

    #[test]
    fn signal_source_returns_triple() {
        let mut g = gen();
        assert!(g.sample_triple(SimTime::ZERO).iter().all(|a| a.is_finite()));
    }

    #[test]
    #[should_panic(expected = "cadence")]
    fn rejects_zero_cadence() {
        let p = GaitProfile {
            cadence_hz: 0.0,
            ..GaitProfile::default()
        };
        let _ = GaitGenerator::new(&SeedTree::new(1), p);
    }
}
