//! Decoded sensor readings.
//!
//! A [`SensorSample`] is what a read hands upward after the three §II-B
//! tasks (check, read register, format): an engineering-unit value stamped
//! with its source, sequence number and acquisition time. The *wire* size of a
//! sample is a property of the sensor spec (Table I), not of the decoded
//! value.

use std::fmt;

use iotse_sim::time::SimTime;

use crate::spec::SensorId;

/// A decoded sensor value in engineering units.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A single scalar (temperature °C, pressure hPa, lux, distance m, …).
    Scalar(f64),
    /// A 3-axis vector (accelerometer m/s²).
    Triple([f64; 3]),
    /// An opaque blob (fingerprint signature, image frame, audio chunk).
    Bytes(Vec<u8>),
}

impl SampleValue {
    /// The scalar value, if this is a scalar.
    #[must_use]
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            SampleValue::Scalar(x) => Some(*x),
            _ => None,
        }
    }

    /// The 3-axis vector, if this is a triple.
    #[must_use]
    pub fn as_triple(&self) -> Option<[f64; 3]> {
        match self {
            SampleValue::Triple(v) => Some(*v),
            _ => None,
        }
    }

    /// The blob, if this is bytes.
    #[must_use]
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            SampleValue::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for SampleValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleValue::Scalar(x) => write!(f, "{x:.4}"),
            SampleValue::Triple([x, y, z]) => write!(f, "({x:.3}, {y:.3}, {z:.3})"),
            SampleValue::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

impl From<f64> for SampleValue {
    fn from(x: f64) -> Self {
        SampleValue::Scalar(x)
    }
}

impl From<[f64; 3]> for SampleValue {
    fn from(v: [f64; 3]) -> Self {
        SampleValue::Triple(v)
    }
}

impl From<Vec<u8>> for SampleValue {
    fn from(b: Vec<u8>) -> Self {
        SampleValue::Bytes(b)
    }
}

/// One decoded reading from one sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSample {
    /// Which sensor produced it.
    pub sensor: SensorId,
    /// Monotone per-sensor sequence number, starting at 0.
    pub seq: u64,
    /// Acquisition instant (when the MCU finished formatting it).
    pub acquired_at: SimTime,
    /// The decoded value.
    pub value: SampleValue,
}

impl fmt::Display for SensorSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{} @{}: {}",
            self.sensor, self.seq, self.acquired_at, self.value
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(SampleValue::Scalar(2.5).as_scalar(), Some(2.5));
        assert_eq!(SampleValue::Scalar(2.5).as_triple(), None);
        assert_eq!(
            SampleValue::Triple([1.0, 2.0, 3.0]).as_triple(),
            Some([1.0, 2.0, 3.0])
        );
        let b = SampleValue::Bytes(vec![1, 2]);
        assert_eq!(b.as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(b.as_scalar(), None);
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(SampleValue::from(1.5), SampleValue::Scalar(1.5));
        assert_eq!(
            SampleValue::from([0.0, 0.0, 9.81]),
            SampleValue::Triple([0.0, 0.0, 9.81])
        );
        assert_eq!(SampleValue::from(vec![7u8]), SampleValue::Bytes(vec![7]));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(SampleValue::Scalar(1.0).to_string(), "1.0000");
        assert_eq!(SampleValue::Bytes(vec![0; 512]).to_string(), "<512 bytes>");
        let s = SensorSample {
            sensor: SensorId::S4,
            seq: 3,
            acquired_at: SimTime::from_millis(4),
            value: SampleValue::Triple([0.0, 0.0, 9.8]),
        };
        assert_eq!(s.to_string(), "S4#3 @t+4ms: (0.000, 0.000, 9.800)");
    }
}
