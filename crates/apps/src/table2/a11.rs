//! A11 — Speech-to-text (Smart City): the heavy-weight workload.
//!
//! Converts each second of microphone audio to text with the
//! MFCC-flavoured keyword spotter (the PocketSphinx substitute). Its
//! declared footprint is the paper's measured envelope — 4683 MIPS and
//! 1.43 GB — which is precisely why admission control refuses to offload
//! it (§IV-E3).

use iotse_core::workload::{
    identity_fingerprint, AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload,
};
use iotse_sensors::spec::SensorId;
use iotse_sim::time::SimDuration;

use crate::kernels::speech::{KeywordSpotter, Recognition};
use crate::scratch::Scratch;

/// The speech-to-text workload.
#[derive(Debug, Clone)]
pub struct SpeechToText {
    spotter: KeywordSpotter,
    scratch: Scratch,
    recognitions: Vec<Recognition>,
}

impl SpeechToText {
    /// Creates the workload (synthesizes its keyword templates).
    #[must_use]
    pub fn new() -> Self {
        SpeechToText {
            spotter: KeywordSpotter::new(1000.0),
            scratch: Scratch::new(),
            recognitions: Vec::new(), // lint: one-time constructor, reused every window
        }
    }
}

impl Default for SpeechToText {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for SpeechToText {
    fn id(&self) -> AppId {
        AppId::A11
    }

    fn name(&self) -> &'static str {
        "Speech-To-Text"
    }

    fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn sensors(&self) -> Vec<SensorUsage> {
        // Table II: 5.86 KB per 1000 interrupts ⇒ 6 B audio frames
        // (16-bit PCM plus a 4-byte sequence header per sample frame).
        vec![SensorUsage {
            sensor: SensorId::S8,
            samples_per_window: 1000,
            bytes_per_sample_override: Some(6),
        }]
    }

    fn resources(&self) -> ResourceProfile {
        // §IV-E3: 4683 MIPS, 1.43 GB — cannot be offloaded. The MCU
        // compute time is the hypothetical value admission control never
        // lets run.
        // Figure 12a: the app-specific routine dominates A11's baseline
        // energy (78%) — the CPU decodes audio nearly the whole window, so
        // Batching has little idle time left to convert into sleep (its
        // small saving). 810 ms of compute per 1 s window reproduces that
        // on this strictly-serialized single-core CPU model.
        ResourceProfile {
            heap_bytes: 1_430_000_000,
            stack_bytes: 8_192,
            mips: 4_683.0,
            cpu_compute: SimDuration::from_millis(810),
            mcu_compute: SimDuration::from_millis(8_100),
        }
    }

    fn memoizable(&self) -> bool {
        // `recognize` is `&self` over the fixed templates; the scratch
        // buffers are workspace, not state.
        true
    }

    // iotse-lint: hot-path
    fn compute(&mut self, data: &WindowData) -> AppOutput {
        let Scratch {
            scalars: samples,
            feats,
            row_a,
            row_b,
            ..
        } = &mut self.scratch;
        samples.clear();
        samples.extend(
            data.sensor(SensorId::S8)
                .iter()
                .filter_map(|s| s.value.as_scalar()),
        );
        self.spotter
            .recognize_into(samples, feats, row_a, row_b, &mut self.recognitions);
        let words = self
            .recognitions
            .iter()
            // lint: the word list is the returned AppOutput, sized by hits, not window len
            .map(|r| self.spotter.word_str(r.word).to_string())
            // lint: the word list is the returned AppOutput
            .collect();
        AppOutput::Words(words)
    }

    fn fingerprint(&self) -> Option<u128> {
        Some(identity_fingerprint(self.id(), self.memo_salt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_core::admission::{classify, WeightClass};
    use iotse_core::calibration::Calibration;
    use iotse_core::executor::Scenario;
    use iotse_core::scheme::Scheme;

    #[test]
    fn classified_heavy_for_both_memory_and_mips() {
        match classify(&SpeechToText::new(), &Calibration::paper()) {
            WeightClass::Heavy(blockers) => {
                assert_eq!(blockers.len(), 2, "{blockers:?}");
            }
            WeightClass::Light => panic!("speech-to-text must be heavy-weight"),
        }
    }

    #[test]
    fn never_offloaded_even_under_bcom() {
        for scheme in [Scheme::Com, Scheme::Bcom] {
            let r = Scenario::new(scheme, vec![Box::new(SpeechToText::new())])
                .windows(2)
                .seed(23)
                .run();
            let flow = r.app(AppId::A11).expect("ran").flow;
            assert_ne!(flow, iotse_core::AppFlow::Offloaded, "{scheme}");
        }
    }

    #[test]
    fn recognizes_a_reasonable_share_of_spoken_words() {
        // The default world schedules ~24 utterances over 120 s; run 30
        // windows and compare recognized words against scheduled ones.
        let r = Scenario::new(Scheme::Batching, vec![Box::new(SpeechToText::new())])
            .windows(30)
            .seed(24)
            .run();
        let recognized: usize = r
            .app(AppId::A11)
            .expect("ran")
            .windows
            .iter()
            .map(|w| match &w.output {
                AppOutput::Words(ws) => ws.len(),
                _ => panic!("wrong output type"),
            })
            .sum();
        // ~6 utterances fall in the first 30 s; edge-straddling words may
        // be missed but most must land.
        assert!(recognized >= 3, "only {recognized} words recognized");
        assert!(recognized <= 10, "implausibly many words: {recognized}");
    }
}
