//! Seismic ground-motion signal (feeds S4 for the earthquake-detection
//! workload).
//!
//! Background microseismic noise with optional injected earthquakes: each
//! quake is a decaying high-amplitude oscillation over a known window, which
//! the STA/LTA trigger in `iotse-apps` must detect. The injected windows are
//! the ground truth.

use std::f64::consts::PI;

use iotse_sim::rng::SeedTree;
use iotse_sim::time::{SimDuration, SimTime};

use crate::signal::gait::GRAVITY;

/// One injected earthquake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quake {
    /// Onset of strong motion.
    pub onset: SimTime,
    /// Duration of the event.
    pub duration: SimDuration,
    /// Peak ground acceleration, m/s².
    pub peak: f64,
}

impl Quake {
    /// `true` if `t` falls inside the event window.
    #[must_use]
    #[inline]
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.onset && t < self.onset + self.duration
    }
}

/// Deterministic seismic accelerometer stream with event ground truth.
///
/// # Examples
///
/// ```
/// use iotse_sensors::signal::seismic::{Quake, SeismicGenerator};
/// use iotse_sim::rng::SeedTree;
/// use iotse_sim::time::{SimDuration, SimTime};
///
/// let quake = Quake {
///     onset: SimTime::from_secs(5),
///     duration: SimDuration::from_secs(3),
///     peak: 3.0,
/// };
/// let gen = SeismicGenerator::new(&SeedTree::new(1), 0.02, vec![quake]);
/// assert!(gen.true_quake_at(SimTime::from_secs(6)));
/// assert!(!gen.true_quake_at(SimTime::from_secs(1)));
/// ```
#[derive(Debug)]
pub struct SeismicGenerator {
    noise_std: f64,
    quakes: Vec<Quake>,
    seed: u64,
}

impl SeismicGenerator {
    /// Creates a generator with background noise `noise_std` (m/s²) and the
    /// given injected quakes.
    ///
    /// # Panics
    ///
    /// Panics if `noise_std` is negative or quakes overlap.
    #[must_use]
    pub fn new(seeds: &SeedTree, noise_std: f64, mut quakes: Vec<Quake>) -> Self {
        assert!(noise_std >= 0.0, "noise must be non-negative");
        quakes.sort_by_key(|q| q.onset);
        for w in quakes.windows(2) {
            assert!(
                w[0].onset + w[0].duration <= w[1].onset,
                "injected quakes must not overlap"
            );
        }
        SeismicGenerator {
            noise_std,
            quakes,
            seed: seeds.derive("signal/seismic"),
        }
    }

    /// The injected events (ground truth).
    #[must_use]
    pub fn quakes(&self) -> &[Quake] {
        &self.quakes
    }

    /// Ground truth: is strong motion present at `t`?
    #[must_use]
    pub fn true_quake_at(&self, t: SimTime) -> bool {
        self.quakes.iter().any(|q| q.contains(t))
    }

    /// Ground truth: number of events whose onset falls in `[from, to)`.
    #[must_use]
    pub fn true_onsets_between(&self, from: SimTime, to: SimTime) -> usize {
        self.quakes
            .iter()
            .filter(|q| q.onset >= from && q.onset < to)
            .count()
    }

    #[inline]
    fn noise(&self, t: SimTime, axis: u64) -> f64 {
        // Deterministic pure-function noise: hash (seed, t, axis).
        let mut h = self.seed ^ t.as_nanos().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (axis << 61);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        (u - 0.5) * 2.0 * self.noise_std
    }

    /// The 3-axis ground acceleration at `t`, m/s² (z includes gravity).
    #[must_use]
    #[inline]
    pub fn value_at(&self, t: SimTime) -> [f64; 3] {
        let mut x = self.noise(t, 0);
        let mut y = self.noise(t, 1);
        let mut z = GRAVITY + self.noise(t, 2);
        for q in &self.quakes {
            if q.contains(t) {
                let dt = (t - q.onset).as_secs_f64();
                let tau = q.duration.as_secs_f64() / 3.0;
                let envelope = q.peak * (1.0 - (-dt / 0.2).exp()) * (-dt / tau).exp();
                // P-wave ~6 Hz vertical, S-wave ~2.5 Hz horizontal.
                z += envelope * (2.0 * PI * 6.0 * dt).sin();
                x += 0.7 * envelope * (2.0 * PI * 2.5 * dt).sin();
                y += 0.7 * envelope * (2.0 * PI * 2.5 * dt + 1.1).sin();
            }
        }
        [x, y, z]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quake() -> Quake {
        Quake {
            onset: SimTime::from_secs(10),
            duration: SimDuration::from_secs(4),
            peak: 3.0,
        }
    }

    fn gen() -> SeismicGenerator {
        SeismicGenerator::new(&SeedTree::new(11), 0.02, vec![quake()])
    }

    #[test]
    fn quiet_background_is_near_gravity() {
        let g = gen();
        for ms in (0..5_000).step_by(137) {
            let [x, y, z] = g.value_at(SimTime::from_millis(ms));
            assert!(x.abs() < 0.1 && y.abs() < 0.1);
            assert!((z - GRAVITY).abs() < 0.1);
        }
    }

    #[test]
    fn quake_window_has_strong_motion() {
        let g = gen();
        let mut peak = 0.0f64;
        for ms in 10_000..14_000 {
            let [_, _, z] = g.value_at(SimTime::from_millis(ms));
            peak = peak.max((z - GRAVITY).abs());
        }
        assert!(peak > 1.0, "expected strong motion, peak {peak}");
    }

    #[test]
    fn ground_truth_queries() {
        let g = gen();
        assert!(g.true_quake_at(SimTime::from_secs(11)));
        assert!(!g.true_quake_at(SimTime::from_secs(14)));
        assert_eq!(
            g.true_onsets_between(SimTime::ZERO, SimTime::from_secs(20)),
            1
        );
        assert_eq!(
            g.true_onsets_between(SimTime::from_secs(11), SimTime::from_secs(20)),
            0
        );
    }

    #[test]
    fn deterministic_in_time_and_seed() {
        let a = gen();
        let b = gen();
        let t = SimTime::from_millis(10_500);
        assert_eq!(a.value_at(t), b.value_at(t));
        let c = SeismicGenerator::new(&SeedTree::new(12), 0.02, vec![quake()]);
        assert_ne!(a.value_at(t), c.value_at(t));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_quakes_rejected() {
        let q1 = Quake {
            onset: SimTime::from_secs(1),
            duration: SimDuration::from_secs(5),
            peak: 1.0,
        };
        let q2 = Quake {
            onset: SimTime::from_secs(3),
            duration: SimDuration::from_secs(5),
            peak: 1.0,
        };
        let _ = SeismicGenerator::new(&SeedTree::new(1), 0.01, vec![q1, q2]);
    }
}
