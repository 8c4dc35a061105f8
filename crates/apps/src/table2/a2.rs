//! A2 — Step counter (Health Care).
//!
//! The paper's running example: 1000 accelerometer samples per second fed
//! to a step-detection algorithm (§II-B, Figures 5/7/8/9).

use iotse_core::workload::{
    identity_fingerprint, AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload,
};
use iotse_sensors::spec::SensorId;
use iotse_sim::time::SimDuration;

use crate::kernels::stepcount::{count_steps, StepConfig};
use crate::scratch::Scratch;

/// The step-counter workload.
#[derive(Debug, Clone)]
pub struct StepCounter {
    config: StepConfig,
    scratch: Scratch,
}

impl StepCounter {
    /// Creates the workload with the default detector tuning.
    #[must_use]
    pub fn new() -> Self {
        StepCounter {
            config: StepConfig::default(),
            scratch: Scratch::new(),
        }
    }
}

impl Default for StepCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for StepCounter {
    fn id(&self) -> AppId {
        AppId::A2
    }

    fn name(&self) -> &'static str {
        "Step counter"
    }

    fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn sensors(&self) -> Vec<SensorUsage> {
        vec![SensorUsage::periodic(SensorId::S4, 1000)]
    }

    fn resources(&self) -> ResourceProfile {
        // Figure 6: minimum MIPS of the suite; Figure 8: 2.21 ms on the
        // CPU, 21.7 ms on the MCU.
        super::profile(24_576, 307, 3.94, 2.21, 21.7)
    }

    fn memoizable(&self) -> bool {
        // Stateless detector: `count_steps` is a pure function of the
        // window's samples and the fixed tuning.
        true
    }

    // iotse-lint: hot-path
    fn compute(&mut self, data: &WindowData) -> AppOutput {
        let samples = &mut self.scratch.triples;
        samples.clear();
        samples.extend(
            data.sensor(SensorId::S4)
                .iter()
                .filter_map(|s| s.value.as_triple()),
        );
        AppOutput::Steps(count_steps(samples, &self.config))
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

    #[test]
    fn spec_matches_table2() {
        let app = StepCounter::new();
        assert_eq!(iotse_core::workload::window_interrupts(&app), 1000);
        assert_eq!(iotse_core::workload::window_bytes(&app), 12_000);
    }

    #[test]
    fn counts_the_walkers_true_steps_in_scenario() {
        // Default world walks at 2 Hz ⇒ 2 steps per 1 s window.
        let r = Scenario::new(Scheme::Baseline, vec![Box::new(StepCounter::new())])
            .windows(4)
            .seed(3)
            .run();
        let windows = &r.app(AppId::A2).expect("ran").windows;
        assert_eq!(windows.len(), 4);
        for w in windows {
            assert_eq!(w.output, AppOutput::Steps(2), "window {}", w.window);
        }
    }

    #[test]
    fn output_is_scheme_invariant() {
        let outputs: Vec<Vec<AppOutput>> = Scheme::SINGLE_APP
            .iter()
            .map(|&scheme| {
                let r = Scenario::new(scheme, vec![Box::new(StepCounter::new())])
                    .windows(3)
                    .seed(9)
                    .run();
                r.app(AppId::A2)
                    .expect("ran")
                    .windows
                    .iter()
                    .map(|w| w.output.clone())
                    .collect()
            })
            .collect();
        assert_eq!(outputs[0], outputs[1], "batching changed the answer");
        assert_eq!(outputs[0], outputs[2], "offloading changed the answer");
    }
}
