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

/// The vertical bob's phase lead over the stride, 0.7 rad, in turns.
const BOB_LEAD_TURNS: f64 = 0.7 / (2.0 * PI);

/// `sin(2π·t)` for a phase `t` measured in turns, for `|t| < 2⁵¹`.
///
/// The phase is reduced exactly to the quarter turn `[−¼, ¼]` and the
/// sine taken there by its Taylor polynomial through `x¹⁵`: the first
/// omitted term bounds the error by `(π/2)¹⁷/17! < 7·10⁻¹²`, far below
/// the ADC's `10⁻⁴` step.
fn sin_turns(t: f64) -> f64 {
    // Adding and subtracting 1.5·2⁵² rounds to the nearest integer, and
    // `t − k` is exact: both are multiples of `t`'s ulp.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let mut r = t - ((t + ROUND) - ROUND);
    // sin(π − x) = sin x folds the outer quarters in, exactly (Sterbenz).
    if r > 0.25 {
        r = 0.5 - r;
    } else if r < -0.25 {
        r = -0.5 - r;
    }
    let x = 2.0 * PI * r;
    let x2 = x * x;
    // Horner form of x − x³/3! + x⁵/5! − … − x¹⁵/15!.
    let mut p = -1.0 / 1_307_674_368_000.0;
    for d in [
        6_227_020_800.0,
        -39_916_800.0,
        362_880.0,
        -5_040.0,
        120.0,
        -6.0,
        1.0,
    ] {
        p = p * x2 + 1.0 / d;
    }
    p * x
}

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
            // Raised cosine: cos(π·dt/half) is the sine a quarter turn on.
            let turns = 0.25 - dt / (2.0 * half);
            self.profile.impulse_amplitude * 0.5 * (1.0 + sin_turns(turns))
        } else {
            0.0
        }
    }

    /// One 3-axis reading in m/s².
    pub fn sample_triple(&mut self, t: SimTime) -> [f64; 3] {
        let ts = t.as_secs_f64();
        let p = self.profile;
        // Sway at half the cadence (one sway per stride pair), bob at
        // the cadence.
        let sway = 0.4 * sin_turns(p.cadence_hz / 2.0 * ts);
        let bob = 0.25 * sin_turns(p.cadence_hz * ts + BOB_LEAD_TURNS);
        [
            sway + p.noise_std * self.rng.standard_normal(),
            bob + p.noise_std * self.rng.standard_normal(),
            GRAVITY + self.step_pulse(ts) + p.noise_std * self.rng.standard_normal(),
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

    /// Checks `sin_turns(t)` against `f64::sin` within 1e-9.
    fn assert_sine_close(t: f64) {
        let want = (2.0 * PI * t).sin();
        let got = sin_turns(t);
        assert!(
            (got - want).abs() <= 1e-9,
            "sin_turns({t:e}) = {got:e}, sin = {want:e}"
        );
    }

    #[test]
    fn sin_turns_matches_libm_over_the_gait_phase_range() {
        // A default walk for an hour reaches 7 200 turns of bob.
        let mut rng = SeedTree::new(11).stream("test/sine");
        for _ in 0..100_000 {
            assert_sine_close(rng.gen_range(-8_000.0..8_000.0));
        }
        // The pulse's phases: a quarter turn down to the pulse's edge.
        for k in 0..=10_000 {
            assert_sine_close(0.25 - f64::from(k) / 20_000.0);
        }
    }

    #[test]
    fn sin_turns_is_accurate_around_every_quarter_turn() {
        for k in -32_000i32..=32_000 {
            // ±1 ulp around kπ/2 radians…
            let x = f64::from(k) * std::f64::consts::FRAC_PI_2;
            for x in [x.next_down(), x, x.next_up()] {
                let got = sin_turns(x / (2.0 * PI));
                assert!((got - x.sin()).abs() <= 1e-9, "x = {x:e}");
            }
            // …and around k quarter turns, where the reduction folds.
            let t = f64::from(k) / 4.0;
            for t in [t.next_down(), t, t.next_up()] {
                assert_sine_close(t);
            }
        }
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
