//! A1 — CoAP server (Building Automation).
//!
//! Serves the light and sound sensors over the Constrained Application
//! Protocol: each window it handles one GET per resource, encoding the
//! observation history as a JSON payload inside a real RFC 7252 message,
//! then decodes its own wire bytes back (the client side) to prove the
//! exchange.

use iotse_core::workload::{
    identity_fingerprint, AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload,
};
use iotse_sensors::spec::SensorId;
use iotse_sim::time::SimDuration;

use crate::kernels::coap::CoapMessage;
use crate::kernels::json;
use crate::scratch::Scratch;

/// The CoAP-server workload.
#[derive(Debug, Clone, Default)]
pub struct CoapServer {
    next_message_id: u16,
    scratch: Scratch,
}

impl CoapServer {
    /// Creates the workload.
    #[must_use]
    pub fn new() -> Self {
        CoapServer::default()
    }
}

/// Handles one GET: encodes the request, parses it server-side, and answers
/// with summary statistics. The JSON payload is streamed into `payload_buf`
/// (byte-identical to serializing the equivalent `Json` object, whose
/// `BTreeMap` would order the keys count, max, mean, resource).
fn serve(mid: u16, payload_buf: &mut String, path: &str, values: &[f64]) -> CoapMessage {
    // Client request …
    let request = CoapMessage::get(mid, &mid.to_be_bytes(), path);
    let wire = request.encode();
    // … server parses it and answers with summary statistics.
    let parsed = CoapMessage::decode(&wire).expect("our own encoding is valid");
    let n = values.len() as f64;
    let mean = if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / n
    };
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    payload_buf.clear();
    payload_buf.push_str("{\"count\":");
    json::write_number(payload_buf, n);
    payload_buf.push_str(",\"max\":");
    json::write_number(payload_buf, if values.is_empty() { 0.0 } else { max });
    payload_buf.push_str(",\"mean\":");
    json::write_number(payload_buf, mean);
    payload_buf.push_str(",\"resource\":");
    json::write_escaped(payload_buf, &parsed.uri_path());
    payload_buf.push('}');
    CoapMessage::content(
        parsed.message_id,
        &parsed.token,
        // lint: the message owns its payload; one copy per served request
        payload_buf.as_bytes().to_vec(),
    )
}

impl Workload for CoapServer {
    fn id(&self) -> AppId {
        AppId::A1
    }

    fn name(&self) -> &'static str {
        "CoAP Server"
    }

    fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn sensors(&self) -> Vec<SensorUsage> {
        vec![
            SensorUsage::periodic(SensorId::S7, 1000),
            SensorUsage::periodic(SensorId::S8, 1000),
        ]
    }

    fn resources(&self) -> ResourceProfile {
        super::profile(28_672, 512, 35.0, 8.0, 90.0)
    }

    fn memoizable(&self) -> bool {
        // The message-id counter shows up only in CoAP framing, never in
        // the JSON payloads the document is built from — the output is a
        // pure function of the window's samples.
        true
    }

    // iotse-lint: hot-path
    fn compute(&mut self, data: &WindowData) -> AppOutput {
        let CoapServer {
            next_message_id,
            scratch,
        } = self;
        let Scratch {
            text_a: payload_buf,
            scalars: values,
            ..
        } = scratch;
        // lint: the document is the returned AppOutput, so it cannot live in scratch
        let mut doc = String::new();
        for (i, (path, sensor)) in [
            ("sensors/light", SensorId::S7),
            ("sensors/sound", SensorId::S8),
        ]
        .into_iter()
        .enumerate()
        {
            values.clear();
            values.extend(
                data.sensor(sensor)
                    .iter()
                    .filter_map(|s| s.value.as_scalar()),
            );
            *next_message_id = next_message_id.wrapping_add(1);
            let response = serve(*next_message_id, payload_buf, path, values);
            // The client decodes the response; a decode failure would be a
            // protocol bug, so it is asserted, not swallowed.
            let round = CoapMessage::decode(&response.encode()).expect("response decodes");
            if i > 0 {
                doc.push('\n');
            }
            doc.push_str(&String::from_utf8_lossy(&round.payload));
        }
        AppOutput::Document(doc)
    }

    fn fingerprint(&self) -> Option<u128> {
        Some(identity_fingerprint(self.id(), self.memo_salt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::json::Json;
    use iotse_core::executor::Scenario;
    use iotse_core::scheme::Scheme;

    #[test]
    fn streamed_payload_matches_json_tree_serialization() {
        let values = [312.5, 12.0, -3.25];
        let mut streamed = String::new();
        let response = serve(7, &mut streamed, "sensors/light", &values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let tree = Json::object([
            ("resource", Json::String("sensors/light".into())),
            ("count", Json::Number(n)),
            ("mean", Json::Number(mean)),
            ("max", Json::Number(max)),
        ]);
        assert_eq!(streamed, tree.to_text());
        assert_eq!(response.payload, tree.to_text().into_bytes());
        // Empty windows summarize to zeros, not NaN.
        let empty = serve(8, &mut streamed, "sensors/sound", &[]);
        let v = Json::parse(&String::from_utf8_lossy(&empty.payload)).expect("valid");
        assert_eq!(v.get("count").and_then(Json::as_f64), Some(0.0));
        assert_eq!(v.get("max").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn spec_matches_table2() {
        let app = CoapServer::new();
        assert_eq!(iotse_core::workload::window_interrupts(&app), 2000);
        assert_eq!(iotse_core::workload::window_bytes(&app), 12_000); // 11.72 KB
    }

    #[test]
    fn serves_parseable_json_over_coap() {
        let r = Scenario::new(Scheme::Baseline, vec![Box::new(CoapServer::new())])
            .windows(2)
            .seed(8)
            .run();
        for w in &r.app(AppId::A1).expect("ran").windows {
            let AppOutput::Document(doc) = &w.output else {
                panic!("wrong output type");
            };
            let lines: Vec<&str> = doc.lines().collect();
            assert_eq!(lines.len(), 2);
            for (line, resource) in lines.iter().zip(["sensors/light", "sensors/sound"]) {
                let v = Json::parse(line).expect("payload is valid JSON");
                assert_eq!(v.get("resource").and_then(Json::as_str), Some(resource));
                assert_eq!(v.get("count").and_then(Json::as_f64), Some(1000.0));
                assert!(v.get("mean").and_then(Json::as_f64).expect("mean") > 0.0);
            }
        }
    }
}
