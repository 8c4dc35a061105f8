//! A5 — Blynk (Smartphone Interactions).
//!
//! Pushes sensor values to a phone dashboard using Blynk's binary framing:
//! a 5-byte header (command, message id, body length) and a
//! NUL-separated `vw <pin> <value>` body per virtual-pin write — plus a
//! camera-widget update carrying a downsampled thumbnail of the S10 frame.

use std::fmt::Write as _;

use iotse_core::workload::{
    identity_fingerprint, AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload,
};
use iotse_sensors::signal::image::LOW_RES;
use iotse_sensors::spec::SensorId;
use iotse_sim::time::SimDuration;

use crate::scratch::Scratch;

/// Blynk `hardware` command byte.
pub const CMD_HARDWARE: u8 = 20;

/// One encoded Blynk frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlynkFrame {
    /// Command byte.
    pub command: u8,
    /// Message id.
    pub message_id: u16,
    /// Frame body.
    pub body: Vec<u8>,
}

impl BlynkFrame {
    /// Encodes a virtual-pin write: body `vw\0<pin>\0<value>`.
    #[must_use]
    pub fn virtual_write(message_id: u16, pin: u8, value: &str) -> BlynkFrame {
        // lint: each frame owns its wire body, a handful per window
        let mut body = b"vw\0".to_vec();
        // lint: a one- or two-digit pin label, a handful per window
        body.extend_from_slice(pin.to_string().as_bytes());
        body.push(0);
        body.extend_from_slice(value.as_bytes());
        BlynkFrame {
            command: CMD_HARDWARE,
            message_id,
            body,
        }
    }

    /// Serializes header + body.
    ///
    /// # Panics
    ///
    /// Panics if the body exceeds a u16 length.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let len = u16::try_from(self.body.len()).expect("body fits u16");
        // lint: encode returns the owned wire buffer, sized up front
        let mut out = Vec::with_capacity(5 + self.body.len());
        out.push(self.command);
        out.extend_from_slice(&self.message_id.to_be_bytes());
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses header + body.
    ///
    /// # Errors
    ///
    /// Returns a description of the framing problem.
    pub fn decode(bytes: &[u8]) -> Result<BlynkFrame, String> {
        if bytes.len() < 5 {
            return Err("frame shorter than header".into());
        }
        let len = usize::from(u16::from_be_bytes([bytes[3], bytes[4]]));
        if bytes.len() != 5 + len {
            // lint: the error message only allocates on a malformed frame
            return Err(format!(
                "length field {len} does not match body {}",
                bytes.len() - 5
            ));
        }
        Ok(BlynkFrame {
            command: bytes[0],
            message_id: u16::from_be_bytes([bytes[1], bytes[2]]),
            // lint: decode builds an owned frame; the body copy is the result
            body: bytes[5..].to_vec(),
        })
    }
}

/// The Blynk workload.
#[derive(Debug, Clone, Default)]
pub struct Blynk {
    next_message_id: u16,
    scratch: Scratch,
}

impl Blynk {
    /// Creates the workload.
    #[must_use]
    pub fn new() -> Self {
        Blynk::default()
    }

    fn next_id(&mut self) -> u16 {
        self.next_message_id = self.next_message_id.wrapping_add(1);
        self.next_message_id
    }
}

impl Workload for Blynk {
    fn id(&self) -> AppId {
        AppId::A5
    }

    fn name(&self) -> &'static str {
        "Blynk"
    }

    fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn sensors(&self) -> Vec<SensorUsage> {
        vec![
            SensorUsage::periodic(SensorId::S1, 10),
            SensorUsage::periodic(SensorId::S2, 10),
            SensorUsage::periodic(SensorId::S4, 1000),
            SensorUsage::periodic(SensorId::S5, 200),
            SensorUsage::on_demand(SensorId::S10),
        ]
    }

    fn resources(&self) -> ResourceProfile {
        super::profile(34_816, 512, 55.0, 12.0, 130.0)
    }

    fn memoizable(&self) -> bool {
        // Message ids live in frame headers only; the document is built
        // from frame bodies and body-length-derived wire totals, both pure
        // functions of the window's samples.
        true
    }

    // iotse-lint: hot-path
    fn compute(&mut self, data: &WindowData) -> AppOutput {
        // lint: a handful of protocol frames per window, sized by widget count
        let mut frames: Vec<BlynkFrame> = Vec::new();
        // Scalar dashboards: latest value of each scalar sensor.
        for (pin, sensor) in [(1u8, SensorId::S1), (2, SensorId::S2), (4, SensorId::S5)] {
            if let Some(x) = data.sensor(sensor).last().and_then(|s| s.value.as_scalar()) {
                let id = self.next_id();
                // lint: one short value string per dashboard widget
                frames.push(BlynkFrame::virtual_write(id, pin, &format!("{x:.2}")));
            }
        }
        // Accelerometer widget: window-mean magnitude (streamed sum — no
        // intermediate magnitude buffer).
        let (mag_sum, mag_count) = data
            .sensor(SensorId::S4)
            .iter()
            .filter_map(|s| s.value.as_triple())
            .map(|[x, y, z]| (x * x + y * y + z * z).sqrt())
            .fold((0.0f64, 0usize), |(sum, n), m| (sum + m, n + 1));
        if mag_count > 0 {
            let mean = mag_sum / mag_count as f64;
            let id = self.next_id();
            // lint: one short value string per dashboard widget
            frames.push(BlynkFrame::virtual_write(id, 3, &format!("{mean:.3}")));
        }
        // Camera widget: 8×8-downsampled luma thumbnail of the S10 frame
        // (borrowed straight from the sample — no 24 KiB copy).
        if let Some(rgb) = data
            .sensor(SensorId::S10)
            .last()
            .and_then(|s| s.value.as_bytes())
        {
            let (w, h) = LOW_RES;
            let thumb = &mut self.scratch.text_a;
            thumb.clear();
            for by in 0..8 {
                for bx in 0..8 {
                    let x = bx * w / 8 + w / 16;
                    let y = by * h / 8 + h / 16;
                    let i = (y * w + x) * 3;
                    let luma = (u32::from(rgb[i]) * 299
                        + u32::from(rgb[i + 1]) * 587
                        + u32::from(rgb[i + 2]) * 114)
                        / 1000;
                    let _ = write!(thumb, "{luma:02x}");
                }
            }
            let id = self.next_id();
            frames.push(BlynkFrame::virtual_write(id, 9, &self.scratch.text_a));
        }
        // Serialize the session and verify our own framing end-to-end.
        let mut wire_total = 0usize;
        // lint: the line list becomes the returned AppOutput document
        let mut lines = Vec::new();
        for f in &frames {
            let wire = f.encode();
            wire_total += wire.len();
            let back = BlynkFrame::decode(&wire).expect("own framing decodes");
            lines.push(String::from_utf8_lossy(&back.body).replace('\0', " "));
        }
        // lint: one trailer line per window, part of the returned document
        lines.push(format!("frames={} wire_bytes={wire_total}", frames.len()));
        AppOutput::Document(lines.join("\n"))
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
        let app = Blynk::new();
        assert_eq!(iotse_core::workload::window_interrupts(&app), 1221);
        // 10×8 + 10×8 + 1000×12 + 200×4 + 24 KiB = 37 536 B ≈ 36.66 KB
        // (paper prints 36.91 KB).
        assert_eq!(iotse_core::workload::window_bytes(&app), 12_960 + 24 * 1024);
    }

    #[test]
    fn frame_codec_round_trips() {
        let f = BlynkFrame::virtual_write(7, 3, "9.806");
        let back = BlynkFrame::decode(&f.encode()).expect("decodes");
        assert_eq!(back, f);
        assert_eq!(back.body, b"vw\x003\x009.806");
    }

    #[test]
    fn frame_codec_rejects_bad_lengths() {
        assert!(BlynkFrame::decode(&[20, 0, 1]).is_err());
        let mut wire = BlynkFrame::virtual_write(1, 1, "x").encode();
        wire.pop();
        assert!(BlynkFrame::decode(&wire).is_err());
    }

    #[test]
    fn dashboard_session_contains_all_widgets() {
        let r = Scenario::new(Scheme::Baseline, vec![Box::new(Blynk::new())])
            .windows(2)
            .seed(14)
            .run();
        for w in &r.app(AppId::A5).expect("ran").windows {
            let AppOutput::Document(doc) = &w.output else {
                panic!("wrong type")
            };
            assert!(doc.contains("vw 1 "), "pressure widget missing: {doc}");
            assert!(doc.contains("vw 2 "), "temperature widget missing");
            assert!(doc.contains("vw 3 "), "acceleration widget missing");
            assert!(doc.contains("vw 4 "), "air-quality widget missing");
            assert!(doc.contains("vw 9 "), "camera thumbnail missing");
            assert!(doc.contains("frames=5"));
        }
    }

    #[test]
    fn acceleration_widget_is_near_one_g() {
        let r = Scenario::new(Scheme::Com, vec![Box::new(Blynk::new())])
            .windows(1)
            .seed(15)
            .run();
        let w = &r.app(AppId::A5).expect("ran").windows[0];
        let AppOutput::Document(doc) = &w.output else {
            panic!("wrong type")
        };
        let line = doc
            .lines()
            .find(|l| l.starts_with("vw 3 "))
            .expect("widget");
        let mag: f64 = line.trim_start_matches("vw 3 ").parse().expect("number");
        assert!((mag - 9.9).abs() < 1.0, "mean |a| = {mag}");
    }
}
