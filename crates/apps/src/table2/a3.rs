//! A3 — arduinoJSON (Protocol Library).
//!
//! Formats the barometer/temperature readings into a JSON document and
//! parses it back — string-to-double conversion and memory traffic, exactly
//! the work the paper says makes A3 one of the two apps COM slows down
//! (0.45 ms on the CPU vs 7 ms on the MCU).

use iotse_core::workload::{
    identity_fingerprint, AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload,
};
use iotse_sensors::spec::SensorId;
use iotse_sim::time::SimDuration;

use crate::kernels::json::Json;

/// The arduinoJSON workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArduinoJson;

impl ArduinoJson {
    /// Creates the workload.
    #[must_use]
    pub fn new() -> Self {
        ArduinoJson
    }
}

impl Workload for ArduinoJson {
    fn id(&self) -> AppId {
        AppId::A3
    }

    fn name(&self) -> &'static str {
        "arduinoJSON"
    }

    fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn sensors(&self) -> Vec<SensorUsage> {
        vec![
            SensorUsage::periodic(SensorId::S1, 10),
            SensorUsage::periodic(SensorId::S2, 10),
        ]
    }

    fn resources(&self) -> ResourceProfile {
        // §IV-F: "handled by the Main board within 0.45 ms, while requiring
        // 7 ms on the MCU board".
        super::profile(20_992, 410, 12.0, 0.45, 7.0)
    }

    fn memoizable(&self) -> bool {
        // Stateless: the document is built from the window's samples alone.
        true
    }

    fn compute(&mut self, data: &WindowData) -> AppOutput {
        // A3 deliberately keeps the allocating tree path: building,
        // printing and re-parsing the document tree *is* the arduinoJSON
        // workload being reproduced.
        let series = |sensor: SensorId| {
            Json::array(
                data.sensor(sensor)
                    .iter()
                    .filter_map(|s| s.value.as_scalar())
                    .map(Json::Number),
            )
        };
        let doc = Json::object([
            ("window", Json::Number(f64::from(data.window))),
            ("pressure_hpa", series(SensorId::S1)),
            ("temperature_c", series(SensorId::S2)),
        ]);
        let text = doc.to_text();
        // The library's job is both directions: parse what we printed and
        // verify structural identity (a real arduinoJSON regression check).
        let parsed = Json::parse(&text).expect("own output parses");
        assert_eq!(parsed, doc, "JSON round-trip must be lossless");
        AppOutput::Document(text)
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
        let app = ArduinoJson::new();
        assert_eq!(iotse_core::workload::window_interrupts(&app), 20);
        assert_eq!(iotse_core::workload::window_bytes(&app), 160); // 0.16 KB
    }

    #[test]
    fn documents_contain_both_series() {
        let r = Scenario::new(Scheme::Com, vec![Box::new(ArduinoJson::new())])
            .windows(3)
            .seed(10)
            .run();
        for w in &r.app(AppId::A3).expect("ran").windows {
            let AppOutput::Document(text) = &w.output else {
                panic!("wrong output type");
            };
            let v = Json::parse(text).expect("valid JSON");
            for key in ["pressure_hpa", "temperature_c"] {
                let arr = v.get(key).and_then(Json::as_array).expect(key);
                assert_eq!(arr.len(), 10, "{key} has the QoS sample count");
            }
            assert_eq!(
                v.get("window").and_then(Json::as_f64),
                Some(f64::from(w.window))
            );
        }
    }

    #[test]
    fn pressure_values_are_physical() {
        let r = Scenario::new(Scheme::Baseline, vec![Box::new(ArduinoJson::new())])
            .windows(1)
            .seed(11)
            .run();
        let w = &r.app(AppId::A3).expect("ran").windows[0];
        let AppOutput::Document(text) = &w.output else {
            panic!("wrong type")
        };
        let v = Json::parse(text).expect("valid");
        for x in v
            .get("pressure_hpa")
            .and_then(Json::as_array)
            .expect("array")
        {
            let hpa = x.as_f64().expect("number");
            assert!((950.0..=1060.0).contains(&hpa), "pressure {hpa}");
        }
    }
}
