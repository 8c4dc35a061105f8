//! Photoplethysmogram/ECG-style pulse signal (feeds S6 for the heartbeat
//! irregularity workload).
//!
//! Beats are laid out ahead of time from a base heart rate; a configurable
//! fraction are **premature** (their RR interval shortened), which is what
//! the Pan–Tompkins-style kernel in `iotse-apps` must flag. The generated
//! beat schedule *is* the ground truth.

use std::f64::consts::PI;
use std::sync::Arc;

use iotse_sim::hash::fingerprint128;
use iotse_sim::rng::SeedTree;
use iotse_sim::time::SimTime;

use crate::signal::cache;

/// Configuration of the synthetic heart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcgProfile {
    /// Base heart rate in beats per minute.
    pub bpm: f64,
    /// Fraction of beats that are premature (RR shortened to 55%).
    pub premature_fraction: f64,
    /// ADC counts of a QRS peak above baseline.
    pub peak_amplitude: f64,
    /// Standard deviation of additive noise, ADC counts.
    pub noise_std: f64,
}

impl Default for EcgProfile {
    fn default() -> Self {
        EcgProfile {
            bpm: 72.0,
            premature_fraction: 0.0,
            peak_amplitude: 400.0,
            noise_std: 8.0,
        }
    }
}

/// One scheduled beat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beat {
    /// When the R-peak occurs.
    pub at: SimTime,
    /// Whether this beat was injected as premature (irregular).
    pub premature: bool,
}

/// Deterministic synthetic pulse-sensor stream with beat ground truth.
///
/// # Examples
///
/// ```
/// use iotse_sensors::signal::ecg::{EcgGenerator, EcgProfile};
/// use iotse_sim::rng::SeedTree;
/// use iotse_sim::time::SimTime;
///
/// let profile = EcgProfile { bpm: 60.0, ..EcgProfile::default() };
/// let gen = EcgGenerator::new(&SeedTree::new(3), profile, SimTime::from_secs(10));
/// // 60 bpm for 10 s ⇒ about 10 beats scheduled.
/// assert!((9..=11).contains(&gen.beats().len()));
/// ```
#[derive(Debug)]
pub struct EcgGenerator {
    profile: EcgProfile,
    /// Shared via the signal cache: scenarios with the same seed and
    /// profile reuse one beat schedule.
    beats: Arc<Vec<Beat>>,
    baseline: f64,
}

impl EcgGenerator {
    /// Schedules beats from `t = 0` to `horizon` and returns the generator.
    ///
    /// # Panics
    ///
    /// Panics if `bpm` is non-positive or `premature_fraction` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn new(seeds: &SeedTree, profile: EcgProfile, horizon: SimTime) -> Self {
        assert!(profile.bpm > 0.0, "bpm must be positive");
        assert!(
            (0.0..=1.0).contains(&profile.premature_fraction),
            "premature_fraction must be within [0, 1]"
        );
        // The schedule is a pure function of the ECG stream seed, the
        // profile and the horizon — memoized so a fleet of scenarios over
        // the same world generates it once.
        let beats = cache::memoized(
            "ecg/beats",
            seeds.derive("signal/ecg"),
            fingerprint128(&[
                profile.bpm.to_bits(),
                profile.premature_fraction.to_bits(),
                horizon.as_nanos(),
            ]),
            || {
                let mut rng = seeds.stream("signal/ecg");
                let base_rr = 60.0 / profile.bpm;
                let mut beats = Vec::new();
                let mut t = 0.35; // first beat slightly in
                while t < horizon.as_secs_f64() {
                    let premature = rng.gen::<f64>() < profile.premature_fraction;
                    beats.push(Beat {
                        at: SimTime::from_nanos((t * 1e9) as u64),
                        premature,
                    });
                    let rr = if premature { base_rr * 0.55 } else { base_rr };
                    t += rr;
                }
                beats
            },
        );
        EcgGenerator {
            profile,
            beats,
            baseline: 512.0,
        }
    }

    /// The scheduled beats (ground truth).
    #[must_use]
    pub fn beats(&self) -> &[Beat] {
        &self.beats
    }

    /// Ground truth: count of premature beats in `[from, to)`.
    #[must_use]
    pub fn true_irregular_between(&self, from: SimTime, to: SimTime) -> usize {
        self.beats
            .iter()
            .filter(|b| b.premature && b.at >= from && b.at < to)
            .count()
    }

    /// Ground truth: count of all beats in `[from, to)`.
    #[must_use]
    pub fn true_beats_between(&self, from: SimTime, to: SimTime) -> usize {
        self.beats
            .iter()
            .filter(|b| b.at >= from && b.at < to)
            .count()
    }

    /// The raw ADC value at instant `t` (without per-call noise state, so
    /// this is a pure function — noise is a deterministic hash of `t`).
    #[must_use]
    pub fn value_at(&self, t: SimTime) -> f64 {
        let ts = t.as_secs_f64();
        // QRS template: sharp biphasic pulse of ±40 ms around each beat.
        let mut v = self.baseline;
        // Beats are sorted; binary search the neighbourhood.
        let idx = self
            .beats
            .partition_point(|b| b.at.as_secs_f64() < ts - 0.1);
        for b in self.beats.iter().skip(idx).take(3) {
            let dt = ts - b.at.as_secs_f64();
            if dt.abs() < 0.04 {
                let x = dt / 0.04 * PI;
                v += self.profile.peak_amplitude * x.cos().max(0.0).powi(2) * x.cos().signum();
            } else if dt > 0.1 {
                break;
            }
        }
        // T-wave: gentle bump 0.25 s after each beat.
        for b in self.beats.iter().skip(idx).take(3) {
            let dt = ts - b.at.as_secs_f64();
            if (0.15..0.35).contains(&dt) {
                v += 0.15 * self.profile.peak_amplitude * (PI * (dt - 0.15) / 0.2).sin();
            }
        }
        // Deterministic "noise": hash the nanosecond timestamp.
        let h = t.as_nanos().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        v + self.profile.noise_std * (u - 0.5) * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(premature: f64) -> EcgGenerator {
        EcgGenerator::new(
            &SeedTree::new(5),
            EcgProfile {
                premature_fraction: premature,
                ..EcgProfile::default()
            },
            SimTime::from_secs(30),
        )
    }

    #[test]
    fn beat_count_tracks_bpm() {
        let g = gen(0.0);
        // 72 bpm over 30 s ⇒ 36 beats expected.
        let n = g.true_beats_between(SimTime::ZERO, SimTime::from_secs(30));
        assert!((34..=37).contains(&n), "got {n}");
    }

    #[test]
    fn regular_schedule_has_constant_rr() {
        let g = gen(0.0);
        let rr: Vec<f64> = g
            .beats()
            .windows(2)
            .map(|w| w[1].at.as_secs_f64() - w[0].at.as_secs_f64())
            .collect();
        for d in rr {
            assert!((d - 60.0 / 72.0).abs() < 1e-9);
        }
        assert_eq!(
            g.true_irregular_between(SimTime::ZERO, SimTime::from_secs(30)),
            0
        );
    }

    #[test]
    fn premature_fraction_injects_short_intervals() {
        let g = gen(0.25);
        let irregular = g.true_irregular_between(SimTime::ZERO, SimTime::from_secs(30));
        assert!(
            irregular > 2,
            "expected several premature beats, got {irregular}"
        );
        // Premature beats are followed by a visibly short RR before them.
        let base_rr = 60.0 / 72.0;
        for w in g.beats().windows(2) {
            let rr = w[1].at.as_secs_f64() - w[0].at.as_secs_f64();
            if w[0].premature {
                assert!(rr < base_rr * 0.6 + 1e-9);
            }
        }
    }

    #[test]
    fn peaks_rise_above_baseline() {
        let g = gen(0.0);
        let beat = g.beats()[3].at;
        let at_peak = g.value_at(beat);
        let between = g.value_at(beat + iotse_sim::time::SimDuration::from_millis(300));
        assert!(
            at_peak > between + 200.0,
            "peak {at_peak} vs rest {between}"
        );
    }

    #[test]
    fn value_is_pure_in_time() {
        let g = gen(0.1);
        let t = SimTime::from_millis(1234);
        assert_eq!(g.value_at(t), g.value_at(t));
    }

    #[test]
    #[should_panic(expected = "bpm")]
    fn rejects_zero_bpm() {
        let _ = EcgGenerator::new(
            &SeedTree::new(1),
            EcgProfile {
                bpm: 0.0,
                ..EcgProfile::default()
            },
            SimTime::from_secs(1),
        );
    }
}
