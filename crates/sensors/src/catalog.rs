//! The Table I sensor catalog.
//!
//! Every constructor returns the corresponding Table I row verbatim; the
//! `figures table1` harness prints the catalog back out, and the workload
//! specs in `iotse-apps` reference sensors by [`SensorId`].

use iotse_energy::units::Power;
use iotse_sim::time::SimDuration;

use crate::bus::BusKind;
use crate::spec::{PayloadKind, SensorId, SensorSpec};

#[inline]
fn mw(x: f64) -> Power {
    Power::from_milliwatts(x)
}

/// S1 — BMP280 digital pressure (barometer) sensor.
#[must_use]
#[inline]
pub fn barometer() -> SensorSpec {
    SensorSpec {
        id: SensorId::S1,
        name: "Barometer",
        bus: BusKind::Spi,
        read_time: SimDuration::from_micros(37_500),
        power_min: mw(2.12),
        power_typical: mw(19.47),
        power_max: mw(28.93),
        payload: PayloadKind::Double,
        max_rate_hz: Some(157.0),
        qos_rate_hz: Some(10.0),
        mcu_friendly: true,
    }
}

/// S2 — BMP180 temperature sensor.
#[must_use]
#[inline]
pub fn temperature() -> SensorSpec {
    SensorSpec {
        id: SensorId::S2,
        name: "Temperature",
        bus: BusKind::I2c,
        read_time: SimDuration::from_micros(18_750),
        power_min: mw(1.0),
        power_typical: mw(13.5),
        power_max: mw(20.0),
        payload: PayloadKind::Double,
        max_rate_hz: Some(120.0),
        qos_rate_hz: Some(10.0),
        mcu_friendly: true,
    }
}

/// S3 — Adafruit optical fingerprint sensor (single-shot).
#[must_use]
#[inline]
pub fn fingerprint() -> SensorSpec {
    SensorSpec {
        id: SensorId::S3,
        name: "Fingerprint",
        bus: BusKind::TtlSerial,
        read_time: SimDuration::from_millis(850),
        power_min: mw(432.0),
        power_typical: mw(600.0),
        power_max: mw(900.0),
        payload: PayloadKind::Signature,
        max_rate_hz: None,
        qos_rate_hz: None,
        mcu_friendly: true,
    }
}

/// S4 — ADXL335 3-axis accelerometer.
#[must_use]
#[inline]
pub fn accelerometer() -> SensorSpec {
    SensorSpec {
        id: SensorId::S4,
        name: "Accelerometer",
        bus: BusKind::Analog,
        read_time: SimDuration::from_micros(500),
        power_min: mw(0.63),
        power_typical: mw(1.3),
        power_max: mw(1.75),
        payload: PayloadKind::IntTriple,
        max_rate_hz: Some(1_000_000.0),
        qos_rate_hz: Some(1_000.0),
        mcu_friendly: true,
    }
}

/// S5 — ultra-low-power digital gas (air-quality) sensor.
#[must_use]
#[inline]
pub fn air_quality() -> SensorSpec {
    SensorSpec {
        id: SensorId::S5,
        name: "Air Quality",
        bus: BusKind::I2c,
        read_time: SimDuration::from_micros(960),
        power_min: mw(1.2),
        power_typical: mw(30.0),
        power_max: mw(46.0),
        payload: PayloadKind::Int,
        max_rate_hz: Some(400.0),
        qos_rate_hz: Some(200.0),
        mcu_friendly: true,
    }
}

/// S6 — pulse (heart-rate) sensor.
#[must_use]
#[inline]
pub fn pulse() -> SensorSpec {
    SensorSpec {
        id: SensorId::S6,
        name: "Pulse",
        bus: BusKind::Analog,
        read_time: SimDuration::from_micros(100),
        power_min: mw(9.9),
        power_typical: mw(15.0),
        power_max: mw(22.0),
        payload: PayloadKind::Int,
        max_rate_hz: Some(1_000_000.0),
        qos_rate_hz: Some(1_000.0),
        mcu_friendly: true,
    }
}

/// S7 — BH1750-style digital ambient light sensor.
#[must_use]
#[inline]
pub fn light() -> SensorSpec {
    SensorSpec {
        id: SensorId::S7,
        name: "Light",
        bus: BusKind::I2c,
        read_time: SimDuration::from_micros(100),
        power_min: mw(16.8),
        power_typical: mw(21.0),
        power_max: mw(25.2),
        payload: PayloadKind::Double,
        max_rate_hz: Some(400_000.0),
        qos_rate_hz: Some(1_000.0),
        mcu_friendly: true,
    }
}

/// S8 — Grove sound sensor.
#[must_use]
#[inline]
pub fn sound() -> SensorSpec {
    SensorSpec {
        id: SensorId::S8,
        name: "Sound",
        bus: BusKind::Analog,
        read_time: SimDuration::from_micros(100),
        power_min: mw(16.0),
        power_typical: mw(40.0),
        power_max: mw(96.0),
        payload: PayloadKind::Int,
        max_rate_hz: Some(1_000_000.0),
        qos_rate_hz: Some(1_000.0),
        mcu_friendly: true,
    }
}

/// S9 — PING ultrasonic distance sensor.
#[must_use]
#[inline]
pub fn distance() -> SensorSpec {
    SensorSpec {
        id: SensorId::S9,
        name: "Distance",
        bus: BusKind::Analog,
        read_time: SimDuration::from_micros(200),
        power_min: mw(120.0),
        power_typical: mw(150.0),
        power_max: mw(175.0),
        payload: PayloadKind::Double,
        max_rate_hz: Some(5_000.0),
        qos_rate_hz: Some(1_000.0),
        mcu_friendly: true,
    }
}

/// S10 — ArduCAM mini low-resolution image sensor (MCU-friendly).
#[must_use]
#[inline]
pub fn low_res_image() -> SensorSpec {
    SensorSpec {
        id: SensorId::S10,
        name: "Low-Res. Img",
        bus: BusKind::TtlSerial,
        read_time: SimDuration::from_micros(183_640),
        power_min: mw(30.0),
        power_typical: mw(125.0),
        power_max: mw(140.0),
        payload: PayloadKind::RgbLow,
        max_rate_hz: None,
        qos_rate_hz: None,
        mcu_friendly: true,
    }
}

/// S10(hi) — Sony 8.51 MP high-resolution image sensor, the table's one
/// MCU-**unfriendly** sensor.
#[must_use]
#[inline]
pub fn high_res_image() -> SensorSpec {
    SensorSpec {
        id: SensorId::S10Hi,
        name: "High-Res. Img",
        bus: BusKind::CameraSerial,
        read_time: SimDuration::from_millis(500),
        power_min: mw(382.0),
        power_typical: mw(425.0),
        power_max: mw(700.0),
        payload: PayloadKind::RgbHigh,
        max_rate_hz: None,
        qos_rate_hz: None,
        mcu_friendly: false,
    }
}

/// Looks up a sensor spec by id.
///
/// # Examples
///
/// ```
/// use iotse_sensors::catalog;
/// use iotse_sensors::spec::SensorId;
///
/// let s4 = catalog::spec(SensorId::S4);
/// assert_eq!(s4.name, "Accelerometer");
/// assert_eq!(s4.sample_bytes(), 12);
/// ```
#[must_use]
#[inline]
pub fn spec(id: SensorId) -> SensorSpec {
    match id {
        SensorId::S1 => barometer(),
        SensorId::S2 => temperature(),
        SensorId::S3 => fingerprint(),
        SensorId::S4 => accelerometer(),
        SensorId::S5 => air_quality(),
        SensorId::S6 => pulse(),
        SensorId::S7 => light(),
        SensorId::S8 => sound(),
        SensorId::S9 => distance(),
        SensorId::S10 => low_res_image(),
        SensorId::S10Hi => high_res_image(),
    }
}

/// The full Table I catalog (the ten numbered rows plus the high-res image
/// variant).
#[must_use]
pub fn all() -> Vec<SensorSpec> {
    let mut v: Vec<SensorSpec> = SensorId::ALL.iter().map(|&id| spec(id)).collect();
    v.push(high_res_image());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_is_internally_consistent() {
        for s in all() {
            s.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn catalog_covers_all_ids_uniquely() {
        let rows = all();
        assert_eq!(rows.len(), 11);
        let mut ids: Vec<SensorId> = rows.iter().map(|s| s.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 11);
    }

    #[test]
    fn only_high_res_image_is_mcu_unfriendly() {
        for s in all() {
            assert_eq!(s.mcu_friendly, s.id != SensorId::S10Hi, "{}", s.id);
        }
    }

    #[test]
    fn table_values_spot_checks() {
        assert_eq!(accelerometer().payload.size_bytes(), 12);
        assert_eq!(accelerometer().qos_rate_hz, Some(1_000.0));
        assert_eq!(barometer().bus, BusKind::Spi);
        assert_eq!(barometer().qos_rate_hz, Some(10.0));
        assert_eq!(fingerprint().read_time, SimDuration::from_millis(850));
        assert_eq!(fingerprint().payload.size_bytes(), 512);
        assert_eq!(air_quality().qos_rate_hz, Some(200.0));
        assert!((sound().power_typical.as_milliwatts() - 40.0).abs() < 1e-12);
        assert_eq!(low_res_image().payload.size_bytes(), 24 * 1024);
    }

    #[test]
    fn on_demand_sensors_have_no_rates() {
        for s in [fingerprint(), low_res_image(), high_res_image()] {
            assert!(s.max_rate_hz.is_none());
            assert!(s.qos_rate_hz.is_none());
            assert!(s.qos_interval().is_none());
        }
    }

    #[test]
    fn periodic_sensors_respect_qos_under_max() {
        for s in all() {
            if let (Some(q), Some(m)) = (s.qos_rate_hz, s.max_rate_hz) {
                assert!(q <= m, "{}", s.id);
            }
        }
    }
}
