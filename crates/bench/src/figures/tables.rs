//! Tables I and II.
//!
//! Table I is the sensor catalog printed back out; Table II's derived
//! columns (sensor data volume, interrupt counts) are **measured from
//! simulation** — the executor's counters must reproduce the paper's
//! numbers, which is the strongest end-to-end check of the data path.

use std::fmt;

use iotse_core::{AppId, Scheme};

use crate::config::ExperimentConfig;

/// The Table I result (a formatted view over the catalog).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Formatted rows.
    pub rows: Vec<String>,
}

/// Reproduces Table I.
#[must_use]
pub fn table1() -> Table1 {
    let rows = iotse_sensors::catalog::all()
        .into_iter()
        .map(|s| {
            format!(
                "{:7} {:14} {:13} read={:>9} power(min/typ/max)={:>7.2}/{:>7.2}/{:>7.2} mW out=[{}] max={} qos={} {}",
                s.id.to_string(),
                s.name,
                s.bus.to_string(),
                s.read_time.to_string(),
                s.power_min.as_milliwatts(),
                s.power_typical.as_milliwatts(),
                s.power_max.as_milliwatts(),
                s.payload,
                s.max_rate_hz.map_or("-".into(), |h| format!("{h} Hz")),
                s.qos_rate_hz.map_or("-".into(), |h| format!("{h} Hz")),
                if s.mcu_friendly { "MCU-friendly" } else { "MCU-unfriendly" },
            )
        })
        .collect();
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table I: sensor specifications")?;
        for r in &self.rows {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

/// One measured Table II row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The app.
    pub id: AppId,
    /// App name.
    pub name: String,
    /// Sensors used (Table II "Sensor Used").
    pub sensors: Vec<String>,
    /// Declared sensor data per window, KB.
    pub declared_kb: f64,
    /// Measured bytes moved per window under Baseline.
    pub measured_bytes: u64,
    /// Measured interrupts per window under Baseline.
    pub measured_interrupts: u64,
}

/// The Table II result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// A1–A11 rows.
    pub rows: Vec<Table2Row>,
}

/// Reproduces Table II by running each app one window under Baseline and
/// reading the executor's counters.
#[must_use]
pub fn table2(cfg: &ExperimentConfig) -> Table2 {
    let one_window = ExperimentConfig {
        windows: 1,
        ..cfg.clone()
    };
    let results = one_window.run_fleet(
        AppId::ALL
            .iter()
            .map(|&id| one_window.scenario(Scheme::Baseline, &[id]))
            .collect(),
    );
    let rows = AppId::ALL
        .iter()
        .zip(results)
        .map(|(&id, r)| {
            let app = iotse_apps::catalog::app(id, cfg.seed);
            let declared_kb = iotse_core::workload::window_bytes(app.as_ref()) as f64 / 1024.0;
            let sensors = app.sensors().iter().map(|u| u.sensor.to_string()).collect();
            let name = app.name().to_string();
            Table2Row {
                id,
                name,
                sensors,
                declared_kb,
                measured_bytes: r.bytes_transferred,
                measured_interrupts: r.interrupts,
            }
        })
        .collect();
    Table2 { rows }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table II: workload features (measured under Baseline, one window)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:4} {:32} sensors=[{}] data={:6.2} KB interrupts={}",
                r.id.to_string(),
                r.name,
                r.sensors.join(","),
                r.measured_bytes as f64 / 1024.0,
                r.measured_interrupts,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_prints_all_rows() {
        let t = table1();
        assert_eq!(t.rows.len(), 11);
        let text = t.to_string();
        assert!(text.contains("Accelerometer"));
        assert!(text.contains("MCU-unfriendly"));
    }

    #[test]
    fn measured_counters_match_declared_table2() {
        // The end-to-end data-path check: simulation counters must equal
        // the paper's Table II for every app.
        let t = table2(&ExperimentConfig::quick());
        let expected: &[(AppId, u64, f64)] = &[
            (AppId::A1, 2000, 11.72),
            (AppId::A2, 1000, 11.72),
            (AppId::A3, 20, 0.16),
            (AppId::A4, 2220, 20.47),
            (AppId::A5, 1221, 36.66),
            (AppId::A6, 2000, 11.72),
            (AppId::A7, 1000, 11.72),
            (AppId::A8, 1000, 3.91),
            (AppId::A9, 1, 24.0),
            (AppId::A10, 1, 0.5),
            (AppId::A11, 1000, 5.86),
        ];
        for (id, interrupts, kb) in expected {
            let row = t.rows.iter().find(|r| r.id == *id).expect("row");
            assert_eq!(row.measured_interrupts, *interrupts, "{id} interrupts");
            let measured_kb = row.measured_bytes as f64 / 1024.0;
            assert!(
                (measured_kb - kb).abs() < 0.01,
                "{id}: {measured_kb:.2} vs {kb}"
            );
            assert!((row.declared_kb - kb).abs() < 0.01, "{id} declared");
        }
    }
}
