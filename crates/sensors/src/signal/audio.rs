//! Spoken-keyword audio signal (feeds S8 for the CoAP, Dropbox and
//! speech-to-text workloads).
//!
//! "Speech" is a sequence of keywords, each rendered as a distinctive
//! two-tone chirp with an amplitude envelope, separated by silence gaps.
//! The keyword schedule is the ground truth the MFCC+DTW kernel in
//! `iotse-apps` must recover.

use std::f64::consts::PI;
use std::sync::Arc;

use iotse_sim::hash::fingerprint128;
use iotse_sim::rng::SeedTree;
use iotse_sim::time::{SimDuration, SimTime};

use crate::signal::cache;

/// The keyword vocabulary of the synthetic speaker.
pub const VOCABULARY: [&str; 6] = ["on", "off", "up", "down", "start", "stop"];

/// Duration of one spoken keyword.
pub const WORD_DURATION: SimDuration = SimDuration::from_millis(280);

/// One scheduled utterance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Utterance {
    /// Start of the word.
    pub at: SimTime,
    /// Index into [`VOCABULARY`].
    pub word: usize,
}

/// The characteristic tone pair (Hz) of each vocabulary word. Words are
/// far apart in frequency so a simple spectral front-end can separate them.
#[must_use]
pub fn word_tones(word: usize) -> (f64, f64) {
    const TONES: [(f64, f64); 6] = [
        (180.0, 300.0),
        (220.0, 380.0),
        (260.0, 160.0),
        (300.0, 210.0),
        (340.0, 450.0),
        (400.0, 240.0),
    ];
    TONES[word % TONES.len()]
}

/// Deterministic synthetic audio stream with utterance ground truth.
///
/// # Examples
///
/// ```
/// use iotse_sensors::signal::audio::{AudioGenerator, VOCABULARY};
/// use iotse_sim::rng::SeedTree;
/// use iotse_sim::time::SimTime;
///
/// let gen = AudioGenerator::new(&SeedTree::new(2), 4, SimTime::from_secs(10));
/// assert_eq!(gen.utterances().len(), 4);
/// assert!(gen.utterances().iter().all(|u| u.word < VOCABULARY.len()));
/// ```
#[derive(Debug)]
pub struct AudioGenerator {
    /// Shared via the signal cache: scenarios with the same seed, count and
    /// horizon reuse one schedule.
    utterances: Arc<Vec<Utterance>>,
    noise_std: f64,
    seed: u64,
}

impl AudioGenerator {
    /// Schedules `count` utterances uniformly over `[0, horizon)` with
    /// non-overlapping word windows.
    ///
    /// # Panics
    ///
    /// Panics if the horizon cannot fit `count` non-overlapping words.
    #[must_use]
    pub fn new(seeds: &SeedTree, count: usize, horizon: SimTime) -> Self {
        let slot = WORD_DURATION * 2;
        let slots_available = (horizon.as_nanos() / slot.as_nanos().max(1)) as usize;
        assert!(
            count <= slots_available,
            "cannot fit {count} words of {WORD_DURATION} into {horizon}"
        );
        // Pure function of the audio stream seed, count and horizon —
        // memoized across scenarios replaying the same world.
        let utterances = cache::memoized(
            "audio/utterances",
            seeds.derive("signal/audio"),
            fingerprint128(&[count as u64, horizon.as_nanos()]),
            || {
                let mut rng = seeds.stream("signal/audio");
                // Evenly spaced slots with a jitter that cannot cause overlap.
                let mut utterances = Vec::with_capacity(count);
                for i in 0..count {
                    let slot_start = horizon.as_nanos() / count as u64 * i as u64;
                    let jitter = rng.gen_range(0..WORD_DURATION.as_nanos() / 2);
                    let word = rng.gen_range(0..VOCABULARY.len());
                    utterances.push(Utterance {
                        at: SimTime::from_nanos(slot_start + jitter),
                        word,
                    });
                }
                utterances
            },
        );
        AudioGenerator {
            utterances,
            noise_std: 12.0,
            seed: seeds.derive("signal/audio/noise"),
        }
    }

    /// The scheduled utterances (ground truth).
    #[must_use]
    pub fn utterances(&self) -> &[Utterance] {
        &self.utterances
    }

    /// Ground truth: the word being spoken at `t`, if any.
    #[must_use]
    pub fn true_word_at(&self, t: SimTime) -> Option<usize> {
        self.utterances
            .iter()
            .find(|u| t >= u.at && t < u.at + WORD_DURATION)
            .map(|u| u.word)
    }

    /// The raw microphone ADC value at `t` (centred on 512 counts).
    #[must_use]
    pub fn value_at(&self, t: SimTime) -> f64 {
        let mut v = 512.0;
        if let Some(u) = self
            .utterances
            .iter()
            .find(|u| t >= u.at && t < u.at + WORD_DURATION)
        {
            let dt = (t - u.at).as_secs_f64();
            let dur = WORD_DURATION.as_secs_f64();
            let envelope = (PI * dt / dur).sin();
            let (f1, f2) = word_tones(u.word);
            v += 180.0 * envelope * ((2.0 * PI * f1 * dt).sin() + 0.8 * (2.0 * PI * f2 * dt).sin());
        }
        // Deterministic noise from (seed, t).
        let mut h = self.seed ^ t.as_nanos().wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        v + self.noise_std * (u - 0.5) * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> AudioGenerator {
        AudioGenerator::new(&SeedTree::new(9), 5, SimTime::from_secs(10))
    }

    #[test]
    fn schedules_requested_count_without_overlap() {
        let g = gen();
        assert_eq!(g.utterances().len(), 5);
        for w in g.utterances().windows(2) {
            assert!(w[0].at + WORD_DURATION <= w[1].at, "words overlap");
        }
    }

    #[test]
    fn speech_is_louder_than_silence() {
        let g = gen();
        let u = g.utterances()[0];
        let mid = u.at + WORD_DURATION / 2;
        // RMS energy over the word vs over silence before it.
        let rms = |center: SimTime| -> f64 {
            let mut acc = 0.0;
            for i in 0..64u64 {
                let t = center + SimDuration::from_micros(i * 500);
                let d = g.value_at(t) - 512.0;
                acc += d * d;
            }
            (acc / 64.0).sqrt()
        };
        // Well before the first word there is silence (noise only).
        let silence_probe = if u.at.as_millis() > 100 {
            SimTime::ZERO
        } else {
            u.at + WORD_DURATION + SimDuration::from_millis(50)
        };
        assert!(rms(mid) > 4.0 * rms(silence_probe).max(1.0));
    }

    #[test]
    fn ground_truth_word_lookup() {
        let g = gen();
        for u in g.utterances() {
            assert_eq!(g.true_word_at(u.at), Some(u.word));
            assert_eq!(g.true_word_at(u.at + WORD_DURATION), None);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gen();
        let b = gen();
        assert_eq!(a.utterances(), b.utterances());
        let t = SimTime::from_millis(1234);
        assert_eq!(a.value_at(t), b.value_at(t));
    }

    #[test]
    fn tones_are_distinct_per_word() {
        for i in 0..VOCABULARY.len() {
            for j in (i + 1)..VOCABULARY.len() {
                assert_ne!(word_tones(i), word_tones(j));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn too_many_words_rejected() {
        let _ = AudioGenerator::new(&SeedTree::new(1), 100, SimTime::from_secs(1));
    }
}
