//! The simulated physical world behind all ten sensors of one scenario.
//!
//! One [`PhysicalWorld`] instance is shared by every app in a scenario —
//! which is exactly what makes the BEAM comparison meaningful: when the
//! step-counter and the earthquake detector both read S4, they observe the
//! *same* accelerometer samples, so sharing reads (BEAM) changes energy but
//! not results.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::rc::Rc;

use iotse_sim::rng::SeedTree;
use iotse_sim::time::SimTime;

use crate::catalog;
use crate::driver::SensorDriver;
use crate::reading::{SampleValue, SensorSample, SignalSource};
use crate::signal::audio::AudioGenerator;
use crate::signal::ecg::{EcgGenerator, EcgProfile};
use crate::signal::environment::{EnvironmentGenerator, Quantity};
use crate::signal::fingerprint::FingerprintScanner;
use crate::signal::gait::{GaitGenerator, GaitProfile, GRAVITY};
use crate::signal::image::{ImageGenerator, LOW_RES};
use crate::signal::seismic::{Quake, SeismicGenerator};
use crate::spec::SensorId;

/// Configuration of the physical phenomena of one scenario.
#[derive(Debug, Clone)]
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

/// Adapter turning a closure into a [`SignalSource`].
struct FnSource<F: FnMut(SimTime) -> SampleValue>(F);

impl<F: FnMut(SimTime) -> SampleValue> SignalSource for FnSource<F> {
    fn sample(&mut self, t: SimTime) -> SampleValue {
        (self.0)(t)
    }
}

/// All phenomena plus one [`SensorDriver`] per sensor.
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
    drivers: BTreeMap<SensorId, SensorDriver>,
    gait: Rc<RefCell<GaitGenerator>>,
    seismic: Rc<RefCell<SeismicGenerator>>,
    ecg: Rc<RefCell<EcgGenerator>>,
    audio: Rc<RefCell<AudioGenerator>>,
}

impl std::fmt::Debug for PhysicalWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysicalWorld")
            .field("sensors", &self.drivers.len())
            .field("horizon", &self.config.horizon)
            .finish()
    }
}

impl PhysicalWorld {
    /// Builds the world: all generators and one driver per Table I sensor.
    #[must_use]
    pub fn new(seeds: &SeedTree, config: WorldConfig) -> Self {
        let gait = Rc::new(RefCell::new(GaitGenerator::new(seeds, config.gait)));
        let seismic = Rc::new(RefCell::new(SeismicGenerator::new(
            seeds,
            0.02,
            config.quakes.clone(),
        )));
        let ecg = Rc::new(RefCell::new(EcgGenerator::new(
            seeds,
            config.ecg,
            config.horizon,
        )));
        let audio = Rc::new(RefCell::new(AudioGenerator::new(
            seeds,
            config.utterance_count,
            config.horizon,
        )));
        let camera = Rc::new(RefCell::new(ImageGenerator::new(
            seeds, LOW_RES.0, LOW_RES.1,
        )));
        let scanner = Rc::new(RefCell::new(FingerprintScanner::new(seeds)));

        let mut drivers = BTreeMap::new();
        let mut add = |id: SensorId, source: Box<dyn SignalSource>| {
            drivers.insert(id, SensorDriver::new(catalog::spec(id), source));
        };

        // Environmental scalars.
        for (id, q) in [
            (SensorId::S1, Quantity::PressureHpa),
            (SensorId::S2, Quantity::TemperatureC),
            (SensorId::S5, Quantity::AirQuality),
            (SensorId::S7, Quantity::LightLux),
            (SensorId::S9, Quantity::DistanceM),
        ] {
            let mut env = EnvironmentGenerator::new(seeds, q);
            add(id, Box::new(FnSource(move |t| env.sample(t))));
        }

        // S4: gait and seismic superimposed on the same physical device.
        {
            let gait = Rc::clone(&gait);
            let seismic = Rc::clone(&seismic);
            add(
                SensorId::S4,
                Box::new(FnSource(move |t| {
                    let g = gait.borrow_mut().sample_triple(t);
                    let s = seismic.borrow().value_at(t);
                    SampleValue::Triple([g[0] + s[0], g[1] + s[1], g[2] + (s[2] - GRAVITY)])
                })),
            );
        }

        // S6: pulse waveform.
        {
            let ecg = Rc::clone(&ecg);
            add(
                SensorId::S6,
                Box::new(FnSource(move |t| {
                    SampleValue::Scalar(ecg.borrow().value_at(t))
                })),
            );
        }

        // S8: microphone.
        {
            let audio = Rc::clone(&audio);
            add(
                SensorId::S8,
                Box::new(FnSource(move |t| {
                    SampleValue::Scalar(audio.borrow().value_at(t))
                })),
            );
        }

        // S3: fingerprint scans, cycling through the enrolled people.
        {
            let scanner = Rc::clone(&scanner);
            let people = config.enrolled_people.max(1);
            let mut scan_seq = 0u32;
            add(
                SensorId::S3,
                Box::new(FnSource(move |_t| {
                    let person = scan_seq % people;
                    scan_seq += 1;
                    SampleValue::Bytes(scanner.borrow_mut().scan(person).encode())
                })),
            );
        }

        // S10: camera frames by sequence.
        {
            let camera = Rc::clone(&camera);
            let mut frame_seq = 0u64;
            add(
                SensorId::S10,
                Box::new(FnSource(move |_t| {
                    let frame = camera.borrow_mut().frame(frame_seq);
                    frame_seq += 1;
                    SampleValue::Bytes(frame.pixels)
                })),
            );
        }

        PhysicalWorld {
            config,
            drivers,
            gait,
            seismic,
            ecg,
            audio,
        }
    }

    /// The scenario configuration.
    #[must_use]
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Reads sensor `id` at instant `t` through its driver.
    ///
    /// The read cannot fail: Task-I availability errors are injected by the
    /// fault layer before the world is asked. The `Result` with an
    /// uninhabited error type keeps existing `.is_ok()`/`?` call sites
    /// compiling; destructure it with `let Ok(sample) = …`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not one of the ten scenario sensors (the high-res
    /// image variant has no periodic driver).
    pub fn read(&mut self, id: SensorId, t: SimTime) -> Result<SensorSample, Infallible> {
        Ok(self
            .drivers
            .get_mut(&id)
            .unwrap_or_else(|| panic!("no driver for {id}"))
            .read(t))
    }

    /// Ground truth: steps walked in `[from, to)`.
    #[must_use]
    pub fn true_steps_between(&self, from: SimTime, to: SimTime) -> u64 {
        self.gait.borrow().true_steps_between(from, to)
    }

    /// Ground truth: is an earthquake happening at `t`?
    #[must_use]
    pub fn true_quake_at(&self, t: SimTime) -> bool {
        self.seismic.borrow().true_quake_at(t)
    }

    /// Ground truth: quake onsets in `[from, to)`.
    #[must_use]
    pub fn true_quake_onsets_between(&self, from: SimTime, to: SimTime) -> usize {
        self.seismic.borrow().true_onsets_between(from, to)
    }

    /// Ground truth: total and premature beats in `[from, to)`.
    #[must_use]
    pub fn true_beats_between(&self, from: SimTime, to: SimTime) -> (usize, usize) {
        let e = self.ecg.borrow();
        (
            e.true_beats_between(from, to),
            e.true_irregular_between(from, to),
        )
    }

    /// Ground truth: the word spoken at `t`, if any.
    #[must_use]
    pub fn true_word_at(&self, t: SimTime) -> Option<usize> {
        self.audio.borrow().true_word_at(t)
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
