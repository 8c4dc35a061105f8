//! A9 — JPEG decoder (Security).
//!
//! Takes the camera frame, entropy-encodes its luma plane, and runs the
//! full decode path (varint entropy decode, dequantize, **IDCT**) — the
//! computation the paper's A9 times — then reports the round-trip PSNR.
//!
//! The luma plane, symbol buffer, encoded stream and decoded pixels all
//! live in workload-owned [`Scratch`] lanes, so after the first window the
//! whole encode/decode round-trip runs without heap allocation.

use iotse_core::workload::{
    identity_fingerprint, AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload,
};
use iotse_sensors::signal::image::LOW_RES;
use iotse_sensors::spec::SensorId;
use iotse_sim::time::SimDuration;

use crate::kernels::jpeg;
use crate::scratch::Scratch;

/// JPEG quality factor used by the pipeline.
pub const QUALITY: u8 = 85;

/// The JPEG-decoder workload.
#[derive(Debug, Clone)]
pub struct JpegDecoder {
    scratch: Scratch,
    encoded: jpeg::EncodedImage,
}

impl JpegDecoder {
    /// Creates the workload.
    #[must_use]
    pub fn new() -> Self {
        JpegDecoder {
            scratch: Scratch::new(),
            encoded: jpeg::EncodedImage {
                width: 0,
                height: 0,
                quality: QUALITY,
                stream: Vec::new(), // lint: one-time constructor, reused every window
            },
        }
    }
}

impl Default for JpegDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for JpegDecoder {
    fn id(&self) -> AppId {
        AppId::A9
    }

    fn name(&self) -> &'static str {
        "JPEG Decoder"
    }

    fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn sensors(&self) -> Vec<SensorUsage> {
        vec![SensorUsage::on_demand(SensorId::S10)]
    }

    fn resources(&self) -> ResourceProfile {
        // Figure 6 maximum memory (36.3 KB incl. stack). The fixed-point
        // IDCT ports well to the MCU, giving A9 one of the milder
        // slowdowns (Figure 13 keeps it above 1×).
        super::profile(36_659, 512, 90.0, 50.0, 150.0)
    }

    fn memoizable(&self) -> bool {
        // PSNR is a pure function of the frame bytes; the scratch buffers
        // are workspace, not state.
        true
    }

    // iotse-lint: hot-path
    fn compute(&mut self, data: &WindowData) -> AppOutput {
        let Some(rgb) = data
            .sensor(SensorId::S10)
            .last()
            .and_then(|s| s.value.as_bytes())
        else {
            return AppOutput::ImageQuality { psnr_db: 0.0 };
        };
        let (w, h) = LOW_RES;
        let Scratch {
            bytes_a: luma,
            bytes_b: decoded,
            words: symbols,
            ..
        } = &mut self.scratch;
        // Luma plane from the raw RGB frame.
        luma.clear();
        luma.extend(rgb.chunks_exact(3).map(|p| {
            ((u32::from(p[0]) * 299 + u32::from(p[1]) * 587 + u32::from(p[2]) * 114) / 1000) as u8
        }));
        jpeg::encode_into(luma, w, h, QUALITY, symbols, &mut self.encoded);
        jpeg::decode_into(&self.encoded, symbols, decoded).expect("own encoding decodes");
        AppOutput::ImageQuality {
            psnr_db: jpeg::psnr(luma, decoded),
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

    #[test]
    fn spec_matches_table2() {
        let app = JpegDecoder::new();
        assert_eq!(iotse_core::workload::window_interrupts(&app), 1);
        assert_eq!(iotse_core::workload::window_bytes(&app), 24 * 1024);
    }

    #[test]
    fn every_frame_round_trips_above_30_db() {
        let r = Scenario::new(Scheme::Baseline, vec![Box::new(JpegDecoder::new())])
            .windows(3)
            .seed(18)
            .run();
        for w in &r.app(AppId::A9).expect("ran").windows {
            let AppOutput::ImageQuality { psnr_db } = w.output else {
                panic!("wrong output type");
            };
            assert!(psnr_db > 30.0, "window {} PSNR {psnr_db}", w.window);
            assert!(psnr_db.is_finite(), "noisy frames cannot be lossless");
        }
    }

    #[test]
    fn psnr_is_scheme_invariant() {
        let run = |scheme| {
            let r = Scenario::new(scheme, vec![Box::new(JpegDecoder::new())])
                .windows(2)
                .seed(19)
                .run();
            r.app(AppId::A9)
                .expect("ran")
                .windows
                .iter()
                .map(|w| w.output.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(Scheme::Baseline), run(Scheme::Com));
    }

    #[test]
    fn buffer_reuse_does_not_change_results() {
        // A long-lived decoder reusing its scratch across different frames
        // must agree with a fresh decoder seeing only the last frame.
        use iotse_sensors::reading::{SampleValue, SensorSample};
        use iotse_sim::time::SimTime;
        let (w, h) = LOW_RES;
        let frame = |window: u32, phase: u32| {
            let rgb: Vec<u8> = (0..w * h * 3)
                .map(|i| ((i as u32).wrapping_mul(31).wrapping_add(phase * 97) % 256) as u8)
                .collect();
            let mut data = WindowData {
                window,
                start: SimTime::from_secs(u64::from(window)),
                end: SimTime::from_secs(u64::from(window) + 1),
                samples: std::collections::BTreeMap::new(),
            };
            data.samples.insert(
                SensorId::S10,
                vec![SensorSample {
                    sensor: SensorId::S10,
                    seq: u64::from(window),
                    acquired_at: data.start,
                    value: SampleValue::Bytes(rgb),
                }],
            );
            data
        };
        let mut reused = JpegDecoder::new();
        let _ = reused.compute(&frame(0, 1)); // dirty the scratch lanes
        let second = reused.compute(&frame(1, 2));
        assert_eq!(second, JpegDecoder::new().compute(&frame(1, 2)));
    }
}
