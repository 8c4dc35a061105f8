//! A4 — AT&T M2X client (Cloud Communication).
//!
//! Packages five sensor streams into an M2X-style batched stream-values
//! request: a JSON body keyed by stream name with ISO-ish timestamps, plus
//! the HTTP envelope the device would PUT to the cloud.
//!
//! The body is streamed straight into a reusable [`Scratch`] lane with
//! [`json::write_escaped`]/[`json::write_number`], byte-identical to
//! serializing the equivalent [`Json`] tree (`Json::Object` is a `BTreeMap`,
//! so `M2xClient::STREAMS` is kept in sorted-name order) — but without
//! the ~18 k tree-node allocations per window the tree used to cost.

use std::fmt::Write as _;

use iotse_core::workload::{AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload};
use iotse_sensors::spec::SensorId;
use iotse_sim::time::SimDuration;

use crate::kernels::json::{self, Json};
use crate::scratch::Scratch;

/// The M2X cloud-client workload.
#[derive(Debug, Clone, Default)]
pub struct M2xClient {
    scratch: Scratch,
}

impl M2xClient {
    /// Creates the workload.
    #[must_use]
    pub fn new() -> Self {
        M2xClient::default()
    }

    /// The five `(stream name, sensor)` pairs of Table II, in sorted name
    /// order — the order a `Json::Object` body would serialize them in.
    const STREAMS: [(&'static str, SensorId); 5] = [
        ("acceleration", SensorId::S4),
        ("air_quality", SensorId::S5),
        ("light", SensorId::S7),
        ("pressure", SensorId::S1),
        ("temperature", SensorId::S2),
    ];
}

impl Workload for M2xClient {
    fn id(&self) -> AppId {
        AppId::A4
    }

    fn name(&self) -> &'static str {
        "M2X"
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
            SensorUsage::periodic(SensorId::S7, 1000),
        ]
    }

    fn resources(&self) -> ResourceProfile {
        super::profile(30_720, 512, 45.0, 10.0, 110.0)
    }

    fn memoizable(&self) -> bool {
        // The request number is derived from the window index (window w is
        // always request w+1), so the kernel is a pure function of its
        // `WindowData` — every scheme produces the same receipt.
        true
    }

    // iotse-lint: hot-path
    fn compute(&mut self, data: &WindowData) -> AppOutput {
        let request_no = u64::from(data.window) + 1;
        let Scratch {
            text_a: body,
            text_b: request,
            ..
        } = &mut self.scratch;

        // Stream the JSON body: {"name":{"values":[{"timestamp":t,"value":v},…]},…}.
        body.clear();
        body.push('{');
        let mut values = 0usize;
        for (i, (name, sensor)) in Self::STREAMS.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            json::write_escaped(body, name);
            body.push_str(":{\"values\":[");
            let samples = data.sensor(*sensor);
            values += samples.len();
            for (j, s) in samples.iter().enumerate() {
                if j > 0 {
                    body.push(',');
                }
                body.push_str("{\"timestamp\":");
                json::write_number(body, s.acquired_at.as_millis_f64());
                body.push_str(",\"value\":");
                let value = match (s.value.as_scalar(), s.value.as_triple()) {
                    (Some(x), _) => x,
                    // M2X streams are scalar: publish vector magnitude.
                    (_, Some([x, y, z])) => (x * x + y * y + z * z).sqrt(),
                    _ => 0.0,
                };
                json::write_number(body, value);
                body.push('}');
            }
            body.push_str("]}");
        }
        body.push('}');

        // The M2X client frames the body in its HTTP request and transmits
        // it over the network interface of whichever board ran the kernel
        // (the ESP8266 has its own WiFi). Only a delivery receipt flows to
        // the rest of the system, so the request is built, round-trip
        // verified, and summarized here.
        request.clear();
        let _ = write!(
            request,
            "PUT /v2/devices/iotse-hub/updates HTTP/1.1\r\nX-M2X-KEY: {:016x}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            0x1f2e_3d4c_5b6a_7988_u64 ^ request_no,
            body.len(),
        );
        request.push_str(body);

        let echoed = request
            .split("\r\n\r\n")
            .nth(1)
            .expect("request has a body");
        Json::validate(echoed).expect("own body parses");
        // lint: the status line is the returned AppOutput, one small format per window
        AppOutput::Document(format!(
            "202 Accepted request#{request_no} streams={} values={values} bytes={}",
            Self::STREAMS.len(),
            request.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_core::executor::Scenario;
    use iotse_core::scheme::Scheme;
    use iotse_sensors::reading::{SampleValue, SensorSample};
    use iotse_sim::time::SimTime;

    #[test]
    fn spec_matches_table2() {
        let app = M2xClient::new();
        assert_eq!(iotse_core::workload::window_interrupts(&app), 2220);
        // 10×8 + 10×8 + 1000×12 + 200×4 + 1000×8 = 20 960 B = 20.47 KB.
        assert_eq!(iotse_core::workload::window_bytes(&app), 20_960);
    }

    #[test]
    fn receipt_accounts_for_every_stream_value() {
        let r = Scenario::new(Scheme::Batching, vec![Box::new(M2xClient::new())])
            .windows(2)
            .seed(12)
            .run();
        for (i, w) in r.app(AppId::A4).expect("ran").windows.iter().enumerate() {
            let AppOutput::Document(receipt) = &w.output else {
                panic!("wrong type")
            };
            assert!(receipt.starts_with("202 Accepted"), "{receipt}");
            assert!(
                receipt.contains(&format!("request#{}", i + 1)),
                "request counter advances: {receipt}"
            );
            assert!(receipt.contains("streams=5"));
            // 10 + 10 + 1000 + 200 + 1000 values per window (Table II).
            assert!(receipt.contains("values=2220"), "{receipt}");
        }
    }

    #[test]
    fn wire_request_is_larger_than_the_raw_data_it_wraps() {
        // JSON inflates 20.47 KB of raw readings substantially — the
        // receipt reports the HTTP request size.
        let r = Scenario::new(Scheme::Baseline, vec![Box::new(M2xClient::new())])
            .windows(1)
            .seed(13)
            .run();
        let w = &r.app(AppId::A4).expect("ran").windows[0];
        let AppOutput::Document(receipt) = &w.output else {
            panic!("wrong type")
        };
        let bytes: usize = receipt
            .split("bytes=")
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("bytes field");
        assert!(bytes > 20_960, "request smaller than raw data: {bytes}");
    }

    #[test]
    fn streamed_body_matches_json_tree_serialization() {
        // The streaming writer must stay byte-identical to serializing the
        // equivalent Json tree (golden CSVs pin the receipt, this pins the
        // body itself).
        let mut data = WindowData {
            window: 4,
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
            samples: std::collections::BTreeMap::new(),
        };
        let sample = |sensor, ms: u64, value| SensorSample {
            sensor,
            seq: ms,
            acquired_at: SimTime::from_millis(ms),
            value,
        };
        data.samples.insert(
            SensorId::S1,
            vec![
                sample(SensorId::S1, 10, SampleValue::Scalar(1013.25)),
                sample(SensorId::S1, 110, SampleValue::Scalar(-2.5)),
            ],
        );
        data.samples.insert(
            SensorId::S4,
            vec![sample(
                SensorId::S4,
                3,
                SampleValue::Triple([3.0, 4.0, 12.0]),
            )],
        );
        // S2/S5/S7 absent: their streams must serialize as empty arrays.

        let mut app = M2xClient::new();
        let _ = app.compute(&data);
        let tree = Json::object(M2xClient::STREAMS.map(|(name, sensor)| {
            let values = Json::array(data.sensor(sensor).iter().map(|s| {
                let value = match (s.value.as_scalar(), s.value.as_triple()) {
                    (Some(x), _) => x,
                    (_, Some([x, y, z])) => (x * x + y * y + z * z).sqrt(),
                    _ => 0.0,
                };
                Json::object([
                    ("timestamp", Json::Number(s.acquired_at.as_millis_f64())),
                    ("value", Json::Number(value)),
                ])
            }));
            (name, Json::object([("values", values)]))
        }));
        assert_eq!(app.scratch.text_a, tree.to_text());
        assert!(app.scratch.text_b.ends_with(&app.scratch.text_a));
    }

    #[test]
    fn request_number_is_a_pure_function_of_the_window() {
        // A fresh client computing window 6 as its very first call must
        // report request#7 — the precondition for cross-scheme memoization
        // (no hidden per-instance counter).
        let data = WindowData {
            window: 6,
            start: SimTime::from_secs(6),
            end: SimTime::from_secs(7),
            samples: std::collections::BTreeMap::new(),
        };
        let out = M2xClient::new().compute(&data);
        let AppOutput::Document(receipt) = &out else {
            panic!("wrong type")
        };
        assert!(receipt.contains("request#7"), "{receipt}");
        assert!(M2xClient::new().memoizable());
        assert_eq!(M2xClient::new().compute(&data), out);
    }
}
