//! A7 — Earthquake detection (Smart City).
//!
//! Samples the same accelerometer as the step counter at 1 kHz and runs an
//! STA/LTA strong-motion trigger. In the paper this is the app whose
//! computation also "confirms whether an actual earthquake happened" — the
//! confirmation round-trip is folded into its larger compute time.

use iotse_core::workload::{
    identity_fingerprint, AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload,
};
use iotse_sensors::spec::SensorId;
use iotse_sim::time::SimDuration;

use crate::kernels::stalta::{StaLta, StaLtaConfig};
use crate::scratch::Scratch;

/// The earthquake-detection workload.
#[derive(Debug, Clone)]
pub struct EarthquakeDetection {
    detector: StaLta,
    scratch: Scratch,
}

impl EarthquakeDetection {
    /// Creates the workload with an uncharged detector.
    #[must_use]
    pub fn new() -> Self {
        EarthquakeDetection {
            detector: StaLta::new(StaLtaConfig::default()),
            scratch: Scratch::new(),
        }
    }
}

impl Default for EarthquakeDetection {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for EarthquakeDetection {
    fn id(&self) -> AppId {
        AppId::A7
    }

    fn name(&self) -> &'static str {
        "Earthquake detection"
    }

    fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn sensors(&self) -> Vec<SensorUsage> {
        vec![SensorUsage::periodic(SensorId::S4, 1000)]
    }

    fn resources(&self) -> ResourceProfile {
        // Figure 6: the smallest memory footprint of the suite (16.8 KB
        // incl. stack).
        super::profile(16_794, 410, 25.0, 6.0, 60.0)
    }

    // NOT memoizable: the STA/LTA detector carries charged averages across
    // windows, so replaying a cached verdict would skip the state update
    // and change later windows.

    // iotse-lint: hot-path
    fn compute(&mut self, data: &WindowData) -> AppOutput {
        let samples = &mut self.scratch.triples;
        samples.clear();
        samples.extend(
            data.sensor(SensorId::S4)
                .iter()
                .filter_map(|s| s.value.as_triple()),
        );
        AppOutput::Quake {
            detected: self.detector.process_window(samples),
        }
    }

    fn fingerprint(&self) -> Option<u128> {
        Some(identity_fingerprint(self.id(), self.memo_salt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_core::executor::Scenario;
    use iotse_core::scheme::Scheme;
    use iotse_sensors::signal::seismic::Quake;
    use iotse_sensors::world::WorldConfig;
    use iotse_sim::time::SimTime;

    #[test]
    fn quiet_world_stays_quiet() {
        let r = Scenario::new(Scheme::Baseline, vec![Box::new(EarthquakeDetection::new())])
            .windows(5)
            .seed(4)
            .run();
        for w in &r.app(AppId::A7).expect("ran").windows {
            assert_eq!(
                w.output,
                AppOutput::Quake { detected: false },
                "window {}",
                w.window
            );
        }
    }

    #[test]
    fn injected_quake_is_detected_in_its_windows() {
        // The default world also has a 2 Hz walker on S4, so the event must
        // rise above gait energy — a strong local quake.
        let quake = Quake {
            onset: SimTime::from_secs(3),
            duration: SimDuration::from_secs(2),
            peak: 9.0,
        };
        let world = WorldConfig {
            quakes: vec![quake],
            ..WorldConfig::default()
        };
        let r = Scenario::new(Scheme::Com, vec![Box::new(EarthquakeDetection::new())])
            .windows(6)
            .seed(4)
            .world(world)
            .run();
        let verdicts: Vec<bool> = r
            .app(AppId::A7)
            .expect("ran")
            .windows
            .iter()
            .map(|w| matches!(w.output, AppOutput::Quake { detected: true }))
            .collect();
        assert!(
            !verdicts[0] && !verdicts[1],
            "no event before onset: {verdicts:?}"
        );
        assert!(
            verdicts[3] && verdicts[4],
            "event windows must detect: {verdicts:?}"
        );
    }

    #[test]
    fn walking_alone_is_not_an_earthquake() {
        // The default world has a 2 Hz walker on the shared accelerometer.
        let r = Scenario::new(Scheme::Batching, vec![Box::new(EarthquakeDetection::new())])
            .windows(5)
            .seed(11)
            .run();
        assert!(r
            .app(AppId::A7)
            .expect("ran")
            .windows
            .iter()
            .all(|w| w.output == AppOutput::Quake { detected: false }));
    }
}
