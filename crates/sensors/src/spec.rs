//! Sensor specifications (the paper's Table I).

use std::fmt;

use iotse_energy::units::Power;
use iotse_sim::time::SimDuration;

use crate::bus::BusKind;

/// Identifies one of the sensors studied in the paper.
///
/// `S10` is the Table I image sensor in its MCU-friendly low-resolution
/// configuration (ArduCAM mini); [`SensorId::S10Hi`] is the same table row's
/// high-resolution configuration, the paper's one MCU-*unfriendly* sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
// lint: the variants are Table I row names; the enum doc covers them
#[allow(missing_docs)]
pub enum SensorId {
    S1,
    S2,
    S3,
    S4,
    S5,
    S6,
    S7,
    S8,
    S9,
    S10,
    S10Hi,
}

impl SensorId {
    /// The ten Table I rows (low-res image stands for S10).
    pub const ALL: [SensorId; 10] = [
        SensorId::S1,
        SensorId::S2,
        SensorId::S3,
        SensorId::S4,
        SensorId::S5,
        SensorId::S6,
        SensorId::S7,
        SensorId::S8,
        SensorId::S9,
        SensorId::S10,
    ];

    /// The sensor's fault-target slot: its position in the Table I order
    /// (S1 is slot 0, S4 slot 3, …). [`SensorId::S10Hi`] shares S10's row
    /// and therefore its slot — a fault on the camera hits both framings.
    #[must_use]
    #[inline]
    pub fn slot(self) -> u16 {
        match self {
            SensorId::S1 => 0,
            SensorId::S2 => 1,
            SensorId::S3 => 2,
            SensorId::S4 => 3,
            SensorId::S5 => 4,
            SensorId::S6 => 5,
            SensorId::S7 => 6,
            SensorId::S8 => 7,
            SensorId::S9 => 8,
            SensorId::S10 | SensorId::S10Hi => 9,
        }
    }
}

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SensorId::S10Hi => f.write_str("S10(hi)"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// The shape and size of one sensor reading (Table I "Output Data").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    /// One IEEE-754 double, 8 bytes.
    Double,
    /// One 32-bit integer, 4 bytes.
    Int,
    /// Three 32-bit integers (x, y, z), 12 bytes.
    IntTriple,
    /// A fingerprint signature blob, 512 bytes.
    Signature,
    /// A low-resolution RGB frame, 24 KiB.
    RgbLow,
    /// A high-resolution RGB frame, ≈ 619 kB.
    RgbHigh,
}

impl PayloadKind {
    /// Payload size in bytes.
    #[must_use]
    pub const fn size_bytes(self) -> usize {
        match self {
            PayloadKind::Double => 8,
            PayloadKind::Int => 4,
            PayloadKind::IntTriple => 12,
            PayloadKind::Signature => 512,
            PayloadKind::RgbLow => 24 * 1024,
            PayloadKind::RgbHigh => 619 * 1024,
        }
    }
}

impl fmt::Display for PayloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PayloadKind::Double => "Double,8B",
            PayloadKind::Int => "Int,4B",
            PayloadKind::IntTriple => "Int*3,12B",
            PayloadKind::Signature => "Signature,512B",
            PayloadKind::RgbLow => "RGB,24kB",
            PayloadKind::RgbHigh => "RGB,619kB",
        };
        f.write_str(s)
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSpec {
    /// Which sensor this is.
    pub id: SensorId,
    /// Human name, e.g. `"Accelerometer"`.
    pub name: &'static str,
    /// Input bus type.
    pub bus: BusKind,
    /// Acquisition latency of one reading at the sensor.
    pub read_time: SimDuration,
    /// Minimum power draw while reading.
    pub power_min: Power,
    /// Typical power draw while reading (used by the energy model).
    pub power_typical: Power,
    /// Maximum power draw while reading.
    pub power_max: Power,
    /// Output payload of one reading.
    pub payload: PayloadKind,
    /// Maximum supported sampling rate in Hz (`None` = single-shot /
    /// on-demand, shown as "-" in the table).
    pub max_rate_hz: Option<f64>,
    /// The application-level QoS sampling rate in Hz (`None` = on-demand).
    pub qos_rate_hz: Option<f64>,
    /// Whether the sensor's driver routines fit the MCU (§IV-C): only the
    /// high-resolution image sensor is MCU-unfriendly.
    pub mcu_friendly: bool,
}

impl SensorSpec {
    /// Size in bytes of one reading.
    #[must_use]
    pub fn sample_bytes(&self) -> usize {
        self.payload.size_bytes()
    }

    /// The sampling interval implied by the QoS rate, if periodic.
    #[must_use]
    pub fn qos_interval(&self) -> Option<SimDuration> {
        self.qos_rate_hz
            .map(|hz| SimDuration::from_secs_f64(1.0 / hz))
    }

    /// Time the MCU-side bus needs to shift one reading in.
    #[must_use]
    pub fn bus_time(&self) -> SimDuration {
        self.bus.transfer_time(self.sample_bytes())
    }

    /// Full occupancy of one read at the MCU: sensor acquisition plus bus
    /// transfer of the payload.
    #[must_use]
    pub fn occupancy(&self) -> SimDuration {
        self.read_time + self.bus_time()
    }

    /// Energy drawn by the sensor itself during one read, at typical power.
    #[must_use]
    pub fn read_energy(&self) -> iotse_energy::units::Energy {
        self.power_typical * self.read_time
    }

    /// Validates internal consistency (rates positive, power ordering).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.power_min > self.power_typical || self.power_typical > self.power_max {
            return Err(format!("{}: power min ≤ typical ≤ max violated", self.id));
        }
        if let Some(hz) = self.max_rate_hz {
            if hz <= 0.0 {
                return Err(format!("{}: non-positive max rate", self.id));
            }
        }
        if let (Some(q), Some(m)) = (self.qos_rate_hz, self.max_rate_hz) {
            if q > m {
                return Err(format!("{}: QoS rate {q} Hz exceeds max {m} Hz", self.id));
            }
        }
        if self.qos_rate_hz.is_some() && self.max_rate_hz.is_none() {
            return Err(format!("{}: QoS rate set for an on-demand sensor", self.id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SensorSpec {
        SensorSpec {
            id: SensorId::S4,
            name: "Accelerometer",
            bus: BusKind::Analog,
            read_time: SimDuration::from_micros(500),
            power_min: Power::from_milliwatts(0.63),
            power_typical: Power::from_milliwatts(1.3),
            power_max: Power::from_milliwatts(1.75),
            payload: PayloadKind::IntTriple,
            max_rate_hz: Some(1_000_000.0),
            qos_rate_hz: Some(1_000.0),
            mcu_friendly: true,
        }
    }

    #[test]
    fn payload_sizes_match_table() {
        assert_eq!(PayloadKind::Double.size_bytes(), 8);
        assert_eq!(PayloadKind::Int.size_bytes(), 4);
        assert_eq!(PayloadKind::IntTriple.size_bytes(), 12);
        assert_eq!(PayloadKind::Signature.size_bytes(), 512);
        assert_eq!(PayloadKind::RgbLow.size_bytes(), 24 * 1024);
    }

    #[test]
    fn qos_interval_from_rate() {
        assert_eq!(spec().qos_interval(), Some(SimDuration::from_millis(1)));
    }

    #[test]
    fn occupancy_is_read_plus_bus() {
        let s = spec();
        assert_eq!(s.occupancy(), s.read_time + s.bus.transfer_time(12));
    }

    #[test]
    fn read_energy_uses_typical_power() {
        let e = spec().read_energy();
        // 1.3 mW × 0.5 ms = 0.65 µJ
        assert!((e.as_microjoules() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_inverted_power() {
        let mut s = spec();
        s.power_min = Power::from_milliwatts(100.0);
        assert!(s.validate().unwrap_err().contains("power"));
    }

    #[test]
    fn validation_catches_qos_above_max() {
        let mut s = spec();
        s.qos_rate_hz = Some(2_000_000.0);
        assert!(s.validate().unwrap_err().contains("exceeds max"));
    }

    #[test]
    fn validation_accepts_table_row() {
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn slots_follow_the_table_order() {
        for (i, id) in SensorId::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(id.slot()), i);
        }
        assert_eq!(SensorId::S10Hi.slot(), SensorId::S10.slot());
    }

    #[test]
    fn sensor_id_displays() {
        assert_eq!(SensorId::S4.to_string(), "S4");
        assert_eq!(SensorId::S10Hi.to_string(), "S10(hi)");
    }
}
