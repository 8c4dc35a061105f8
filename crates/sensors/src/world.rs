//! The simulated physical world behind all ten sensors of one scenario.
//!
//! One [`PhysicalWorld`] instance is shared by every app in a scenario —
//! which is exactly what makes the BEAM comparison meaningful: when the
//! step-counter and the earthquake detector both read S4, they observe the
//! *same* accelerometer samples, so sharing reads (BEAM) changes energy but
//! not results.

use std::convert::Infallible;

use iotse_sim::rng::SeedTree;
use iotse_sim::time::SimTime;

use crate::driver::quantize;
use crate::reading::{SampleValue, SensorSample};
use crate::signal::audio::AudioGenerator;
use crate::signal::ecg::{EcgGenerator, EcgProfile};
use crate::signal::environment::{EnvironmentGenerator, Quantity};
use crate::signal::fingerprint::FingerprintScanner;
use crate::signal::gait::{GaitGenerator, GaitProfile, GRAVITY};
use crate::signal::image::{ImageGenerator, LOW_RES};
use crate::signal::seismic::{Quake, SeismicGenerator};
use crate::spec::SensorId;

/// Configuration of the physical phenomena of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// How far ahead beat/utterance schedules are generated.
    pub horizon: SimTime,
    /// Walking pattern on the accelerometer.
    pub gait: GaitProfile,
    /// Heart behaviour on the pulse sensor.
    pub ecg: EcgProfile,
    /// Earthquakes superimposed on the accelerometer.
    pub quakes: Vec<Quake>,
    /// Number of spoken keywords within the horizon.
    pub utterance_count: usize,
    /// Distinct people presenting fingers to S3.
    pub enrolled_people: u32,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            horizon: SimTime::from_secs(120),
            gait: GaitProfile::default(),
            ecg: EcgProfile {
                premature_fraction: 0.08,
                ..EcgProfile::default()
            },
            quakes: Vec::new(),
            utterance_count: 24,
            enrolled_people: 4,
        }
    }
}

/// Every phenomenon of one scenario, each owned once, plus one sequence
/// counter per sensor slot.
///
/// # Examples
///
/// ```
/// use iotse_sensors::spec::SensorId;
/// use iotse_sensors::world::{PhysicalWorld, WorldConfig};
/// use iotse_sim::rng::SeedTree;
/// use iotse_sim::time::SimTime;
///
/// let mut world = PhysicalWorld::new(&SeedTree::new(42), WorldConfig::default());
/// let s = world.read(SensorId::S4, SimTime::from_millis(1)).expect("accelerometer reads");
/// assert!(s.value.as_triple().is_some());
/// ```
pub struct PhysicalWorld {
    config: WorldConfig,
    /// S1, S2, S5, S7 and S9, in that order.
    env: [EnvironmentGenerator; 5],
    gait: GaitGenerator,
    seismic: SeismicGenerator,
    ecg: EcgGenerator,
    audio: AudioGenerator,
    scanner: FingerprintScanner,
    camera: ImageGenerator,
    /// The next sequence number of each sensor, indexed by
    /// [`SensorId::slot`].
    seq: [u64; 10],
}

impl std::fmt::Debug for PhysicalWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysicalWorld")
            .field("horizon", &self.config.horizon)
            .field("seq", &self.seq)
            .finish()
    }
}

impl PhysicalWorld {
    /// Builds the world: every generator behind the ten Table I sensors.
    #[must_use]
    pub fn new(seeds: &SeedTree, config: WorldConfig) -> Self {
        let gait = GaitGenerator::new(seeds, config.gait);
        let seismic = SeismicGenerator::new(seeds, 0.02, config.quakes.clone());
        let ecg = EcgGenerator::new(seeds, config.ecg, config.horizon);
        let audio = AudioGenerator::new(seeds, config.utterance_count, config.horizon);
        let camera = ImageGenerator::new(seeds, LOW_RES.0, LOW_RES.1);
        let scanner = FingerprintScanner::new(seeds);
        let env = [
            Quantity::PressureHpa,
            Quantity::TemperatureC,
            Quantity::AirQuality,
            Quantity::LightLux,
            Quantity::DistanceM,
        ]
        .map(|q| EnvironmentGenerator::new(seeds, q));
        PhysicalWorld {
            config,
            env,
            gait,
            seismic,
            ecg,
            audio,
            scanner,
            camera,
            seq: [0; 10],
        }
    }

    /// The scenario configuration.
    #[must_use]
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Reads sensor `id` at instant `t`: samples its phenomenon, passes
    /// scalars and axes through the ADC register ([`quantize`], §II-B
    /// Tasks II and III) and stamps the slot's next sequence number.
    /// [`SensorId::S10Hi`] reads S10's camera and shares its slot.
    ///
    /// The read cannot fail: Task-I availability errors are injected by the
    /// fault layer before the world is asked. The `Result` with an
    /// uninhabited error type keeps existing `.is_ok()`/`?` call sites
    /// compiling; destructure it with `let Ok(sample) = …`.
    #[inline]
    pub fn read(&mut self, id: SensorId, t: SimTime) -> Result<SensorSample, Infallible> {
        let slot = usize::from(id.slot());
        let seq = self.seq[slot];
        self.seq[slot] += 1;
        let scalar = |x: f64| SampleValue::Scalar(quantize(x));
        let value = match id {
            SensorId::S1 => scalar(self.env[0].sample_scalar(t)),
            SensorId::S2 => scalar(self.env[1].sample_scalar(t)),
            SensorId::S3 => {
                // Scans cycle through the enrolled people; the remainder is
                // below a `u32` modulus, so the cast is exact.
                let person = (seq % u64::from(self.config.enrolled_people.max(1))) as u32;
                // lint: a scan allocates its template and encoding; the call is noise beside them
                SampleValue::Bytes(self.scanner.scan(person).encode())
            }
            SensorId::S4 => {
                // Gait and seismic motion superimposed on one device.
                let g = self.gait.sample_triple(t);
                let s = self.seismic.value_at(t);
                SampleValue::Triple([
                    quantize(g[0] + s[0]),
                    quantize(g[1] + s[1]),
                    quantize(g[2] + (s[2] - GRAVITY)),
                ])
            }
            SensorId::S5 => scalar(self.env[2].sample_scalar(t)),
            // lint: a beat search and a dozen cosines per read outweigh the call
            SensorId::S6 => scalar(self.ecg.value_at(t)),
            SensorId::S7 => scalar(self.env[3].sample_scalar(t)),
            // lint: an utterance scan and two sines per read outweigh the call
            SensorId::S8 => scalar(self.audio.value_at(t)),
            SensorId::S9 => scalar(self.env[4].sample_scalar(t)),
            // lint: each frame read copies 24 KiB; the call is noise beside it
            SensorId::S10 | SensorId::S10Hi => SampleValue::Bytes(self.camera.frame(seq).pixels),
        };
        Ok(SensorSample {
            sensor: id,
            seq,
            acquired_at: t,
            value,
        })
    }

    /// Ground truth: steps walked in `[from, to)`.
    #[must_use]
    pub fn true_steps_between(&self, from: SimTime, to: SimTime) -> u64 {
        self.gait.true_steps_between(from, to)
    }

    /// Ground truth: is an earthquake happening at `t`?
    #[must_use]
    pub fn true_quake_at(&self, t: SimTime) -> bool {
        self.seismic.true_quake_at(t)
    }

    /// Ground truth: quake onsets in `[from, to)`.
    #[must_use]
    pub fn true_quake_onsets_between(&self, from: SimTime, to: SimTime) -> usize {
        self.seismic.true_onsets_between(from, to)
    }

    /// Ground truth: total and premature beats in `[from, to)`.
    #[must_use]
    pub fn true_beats_between(&self, from: SimTime, to: SimTime) -> (usize, usize) {
        (
            self.ecg.true_beats_between(from, to),
            self.ecg.true_irregular_between(from, to),
        )
    }

    /// Ground truth: the word spoken at `t`, if any.
    #[must_use]
    pub fn true_word_at(&self, t: SimTime) -> Option<usize> {
        self.audio.true_word_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_sim::time::SimDuration;

    fn world() -> PhysicalWorld {
        PhysicalWorld::new(&SeedTree::new(1), WorldConfig::default())
    }

    #[test]
    fn all_ten_sensors_read() {
        let mut w = world();
        let t = SimTime::from_millis(10);
        for id in SensorId::ALL {
            let s = w.read(id, t).expect("reads");
            assert_eq!(s.sensor, id);
        }
    }

    #[test]
    fn payload_shapes_match_spec() {
        let mut w = world();
        let t = SimTime::from_millis(5);
        assert!(w.read(SensorId::S4, t).unwrap().value.as_triple().is_some());
        assert!(w.read(SensorId::S2, t).unwrap().value.as_scalar().is_some());
        let fp = w.read(SensorId::S3, t).unwrap();
        assert_eq!(fp.value.as_bytes().unwrap().len(), 512);
        let img = w.read(SensorId::S10, t).unwrap();
        assert_eq!(
            img.value.as_bytes().unwrap().len(),
            LOW_RES.0 * LOW_RES.1 * 3
        );
    }

    #[test]
    fn quake_superimposes_on_gait() {
        // Peak well above the gait impulse amplitude (4 m/s²) plus noise, so
        // the quake window is unambiguous for any seed.
        let quake = Quake {
            onset: SimTime::from_secs(2),
            duration: SimDuration::from_secs(2),
            peak: 9.0,
        };
        let cfg = WorldConfig {
            quakes: vec![quake],
            ..WorldConfig::default()
        };
        let mut w = PhysicalWorld::new(&SeedTree::new(2), cfg);
        // Strong vertical motion during the quake relative to before it.
        let mut quiet_max: f64 = 0.0;
        let mut strong_max: f64 = 0.0;
        for i in 0..1000u64 {
            let t_q = SimTime::from_millis(i);
            let v = w
                .read(SensorId::S4, t_q)
                .unwrap()
                .value
                .as_triple()
                .unwrap();
            quiet_max = quiet_max.max((v[2] - GRAVITY).abs());
        }
        for i in 0..1000u64 {
            let t_s = SimTime::from_millis(2_000 + i);
            let v = w
                .read(SensorId::S4, t_s)
                .unwrap()
                .value
                .as_triple()
                .unwrap();
            strong_max = strong_max.max((v[2] - GRAVITY).abs());
        }
        assert!(
            strong_max > quiet_max + 1.0,
            "quake {strong_max} vs quiet {quiet_max}"
        );
        assert!(w.true_quake_at(SimTime::from_millis(2_500)));
    }

    #[test]
    fn fingerprints_cycle_through_people() {
        let mut w = world();
        let a = w.read(SensorId::S3, SimTime::ZERO).unwrap();
        let b = w.read(SensorId::S3, SimTime::from_secs(1)).unwrap();
        // Consecutive scans are different people (person id is the first 4
        // bytes of the wire form).
        let pa = u32::from_le_bytes(a.value.as_bytes().unwrap()[0..4].try_into().unwrap());
        let pb = u32::from_le_bytes(b.value.as_bytes().unwrap()[0..4].try_into().unwrap());
        assert_eq!(pa, 0);
        assert_eq!(pb, 1);
    }

    #[test]
    fn frames_advance_per_read() {
        let mut w = world();
        let a = w.read(SensorId::S10, SimTime::ZERO).unwrap();
        let b = w.read(SensorId::S10, SimTime::from_secs(1)).unwrap();
        assert_ne!(a.value, b.value);
    }

    #[test]
    fn same_seed_same_world() {
        let mut a = world();
        let mut b = world();
        for i in 0..20 {
            let t = SimTime::from_millis(i * 7);
            assert_eq!(
                a.read(SensorId::S4, t).unwrap(),
                b.read(SensorId::S4, t).unwrap()
            );
            assert_eq!(
                a.read(SensorId::S8, t).unwrap(),
                b.read(SensorId::S8, t).unwrap()
            );
        }
    }

    #[test]
    fn ground_truth_accessors_are_wired() {
        let w = world();
        assert_eq!(
            w.true_steps_between(SimTime::ZERO, SimTime::from_secs(5)),
            10
        );
        let (beats, _irregular) = w.true_beats_between(SimTime::ZERO, SimTime::from_secs(60));
        assert!(beats > 50);
        assert_eq!(
            w.true_quake_onsets_between(SimTime::ZERO, SimTime::from_secs(60)),
            0
        );
    }

    #[test]
    fn s10_hi_reads_the_shared_camera_slot() {
        // S10Hi is S10's row: it reads the same camera and advances the
        // same slot's sequence number, so frames never repeat between them.
        let mut w = world();
        let Ok(lo) = w.read(SensorId::S10, SimTime::ZERO);
        let Ok(hi) = w.read(SensorId::S10Hi, SimTime::from_secs(1));
        assert_eq!((lo.seq, hi.seq), (0, 1));
        assert_eq!(hi.sensor, SensorId::S10Hi);
        let mut cam = ImageGenerator::new(&SeedTree::new(1), LOW_RES.0, LOW_RES.1);
        assert_eq!(hi.value.as_bytes(), Some(&cam.frame(1).pixels[..]));
        let Ok(next) = w.read(SensorId::S10, SimTime::from_secs(2));
        assert_eq!(next.seq, 2);
    }

    #[test]
    fn read_counts_track_reads() {
        // Each sensor's sequence number counts its own reads.
        let mut w = world();
        let _ = w.read(SensorId::S4, SimTime::ZERO);
        let _ = w.read(SensorId::S4, SimTime::from_millis(1));
        let Ok(s4) = w.read(SensorId::S4, SimTime::from_millis(2));
        let Ok(s8) = w.read(SensorId::S8, SimTime::from_millis(2));
        assert_eq!((s4.seq, s8.seq), (2, 0));
    }
}
