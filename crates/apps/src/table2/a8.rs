//! A8 — Heartbeat irregularity detection (Health Care).
//!
//! ECG feature extraction over the pulse sensor: beat detection plus
//! RR-interval analysis that flags premature beats. Figure 6's most
//! compute-hungry light-weight app (108.8 MIPS) — and one of the two
//! (with A3) that COM *slows down* in Figure 13.

use iotse_core::workload::{
    identity_fingerprint, AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload,
};
use iotse_sensors::spec::SensorId;
use iotse_sim::time::SimDuration;

use crate::kernels::qrs::{QrsConfig, QrsDetector};
use crate::scratch::Scratch;

/// The heartbeat-irregularity workload.
#[derive(Debug, Clone)]
pub struct HeartbeatIrregularity {
    detector: QrsDetector,
    scratch: Scratch,
}

impl HeartbeatIrregularity {
    /// Creates the workload with an uncharged detector.
    #[must_use]
    pub fn new() -> Self {
        HeartbeatIrregularity {
            detector: QrsDetector::new(QrsConfig::default()),
            scratch: Scratch::new(),
        }
    }
}

impl Default for HeartbeatIrregularity {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for HeartbeatIrregularity {
    fn id(&self) -> AppId {
        AppId::A8
    }

    fn name(&self) -> &'static str {
        "Heartbeat irregularity detection"
    }

    fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn sensors(&self) -> Vec<SensorUsage> {
        vec![SensorUsage::periodic(SensorId::S6, 1000)]
    }

    fn resources(&self) -> ResourceProfile {
        // Figure 6 maximum MIPS; compute times fitted to Figure 13's 0.8×
        // COM slowdown (61 ms CPU, 320 ms MCU).
        super::profile(22_528, 410, 108.8, 61.0, 320.0)
    }

    // NOT memoizable: the QRS detector tracks adaptive thresholds and
    // RR-interval history across windows, so replaying a cached summary
    // would skip the state update and change later windows.

    // iotse-lint: hot-path
    fn compute(&mut self, data: &WindowData) -> AppOutput {
        let samples = &mut self.scratch.scalars;
        samples.clear();
        samples.extend(
            data.sensor(SensorId::S6)
                .iter()
                .filter_map(|s| s.value.as_scalar()),
        );
        let summary = self.detector.process_window(samples);
        AppOutput::Heartbeat {
            beats: summary.beats,
            irregular: summary.irregular,
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
    use iotse_sensors::signal::ecg::EcgProfile;
    use iotse_sensors::world::WorldConfig;

    fn total_beats(scheme: Scheme, premature: f64, windows: u32, seed: u64) -> (u32, u32) {
        let world = WorldConfig {
            ecg: EcgProfile {
                premature_fraction: premature,
                ..EcgProfile::default()
            },
            ..WorldConfig::default()
        };
        let r = Scenario::new(scheme, vec![Box::new(HeartbeatIrregularity::new())])
            .windows(windows)
            .seed(seed)
            .world(world)
            .run();
        r.app(AppId::A8)
            .expect("ran")
            .windows
            .iter()
            .fold((0, 0), |(b, i), w| match w.output {
                AppOutput::Heartbeat { beats, irregular } => (b + beats, i + irregular),
                _ => panic!("wrong output type"),
            })
    }

    #[test]
    fn beat_rate_tracks_the_heart() {
        let (beats, irregular) = total_beats(Scheme::Baseline, 0.0, 20, 5);
        let expected = 20.0 * 72.0 / 60.0;
        assert!((f64::from(beats) - expected).abs() <= 2.0, "beats {beats}");
        assert_eq!(irregular, 0, "regular rhythm must not be flagged");
    }

    #[test]
    fn premature_beats_are_reported() {
        let (beats, irregular) = total_beats(Scheme::Batching, 0.25, 30, 6);
        assert!(irregular >= 3, "expected flags, got {irregular} of {beats}");
        assert!(irregular < beats / 2);
    }

    #[test]
    fn classified_light_despite_high_mips() {
        // 108.8 MIPS is under the MCU's 150-MIPS ceiling — A8 offloads.
        let r = Scenario::new(Scheme::Com, vec![Box::new(HeartbeatIrregularity::new())])
            .windows(2)
            .seed(7)
            .run();
        assert_eq!(
            r.app(AppId::A8).expect("ran").flow,
            iotse_core::AppFlow::Offloaded
        );
    }
}
