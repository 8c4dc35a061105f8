//! The MCU-side sensor driver.
//!
//! §II-B decomposes one `Sensor.Read()` into three tasks: **(I)** checking
//! sensor availability, **(II)** reading the data register, and **(III)**
//! formatting raw data into engineering units. [`SensorDriver`] performs the
//! last two steps against a [`SignalSource`]: the register read quantizes
//! the physical value to the sensor's ADC resolution, and formatting scales
//! it back — so the paper's example (raw `1235` → `0.1235 m/s²`) is a real
//! code path. Task I's failures are injected by the fault layer
//! (`sensor-unavailable` in `iotse_sim::faults`) before the driver is
//! called.

use std::fmt;

use iotse_sim::time::SimTime;

use crate::reading::{SampleValue, SensorSample, SignalSource};
use crate::spec::{PayloadKind, SensorSpec};

/// Fixed-point scale used when quantizing scalar physical values through the
/// ADC register (10⁻⁴ units per count, the paper's accelerometer example).
pub const ADC_SCALE: f64 = 1e4;

/// Quantizes a physical value through a signed 32-bit register, exactly as
/// the driver does for genuine reads. Fault injection reuses this so a
/// noise-perturbed value is still a value the ADC could have produced.
#[must_use]
pub fn quantize(x: f64) -> f64 {
    through_register(x)
}

/// Quantizes a physical value through a signed 32-bit register.
#[must_use]
fn through_register(x: f64) -> f64 {
    let counts = (x * ADC_SCALE).round();
    let counts = counts.clamp(f64::from(i32::MIN), f64::from(i32::MAX));
    counts / ADC_SCALE
}

/// The register-read and formatting tasks of the §II-B read pipeline.
pub struct SensorDriver {
    spec: SensorSpec,
    source: Box<dyn SignalSource>,
    seq: u64,
}

impl fmt::Debug for SensorDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SensorDriver")
            .field("spec", &self.spec.id)
            .field("seq", &self.seq)
            .finish()
    }
}

impl SensorDriver {
    /// Creates a driver for `spec` reading from `source`.
    #[must_use]
    pub fn new(spec: SensorSpec, source: Box<dyn SignalSource>) -> Self {
        SensorDriver {
            spec,
            source,
            seq: 0,
        }
    }

    /// The sensor spec this driver serves.
    #[must_use]
    pub fn spec(&self) -> &SensorSpec {
        &self.spec
    }

    /// Performs one read at instant `t`: read the data register, format to
    /// engineering units. Each read consumes the next sequence number.
    pub fn read(&mut self, t: SimTime) -> SensorSample {
        // Task II: reading the sensor data register (quantization happens
        // here), Task III: decode back into meaningful values.
        let raw = self.source.sample(t);
        let value = match (raw, self.spec.payload) {
            (SampleValue::Scalar(x), PayloadKind::Int | PayloadKind::Double) => {
                SampleValue::Scalar(through_register(x))
            }
            (SampleValue::Triple(v), _) => SampleValue::Triple([
                through_register(v[0]),
                through_register(v[1]),
                through_register(v[2]),
            ]),
            (other, _) => other, // blobs pass through untouched
        };
        let sample = SensorSample {
            sensor: self.spec.id,
            seq: self.seq,
            acquired_at: t,
            value,
        };
        self.seq += 1;
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use iotse_sim::faults::{FaultKind, FaultPlan, FaultScript};
    use iotse_sim::rng::SeedTree;
    use iotse_sim::time::SimDuration;

    struct Constant(f64);
    impl SignalSource for Constant {
        fn sample(&mut self, _t: SimTime) -> SampleValue {
            SampleValue::Scalar(self.0)
        }
    }

    struct Vector([f64; 3]);
    impl SignalSource for Vector {
        fn sample(&mut self, _t: SimTime) -> SampleValue {
            SampleValue::Triple(self.0)
        }
    }

    #[test]
    fn quantizes_like_the_papers_example() {
        // Raw register 1235 counts ⇒ 0.1235 m/s² (§II-B Task III example).
        let mut d = SensorDriver::new(catalog::pulse(), Box::new(Constant(0.12351)));
        let s = d.read(SimTime::ZERO);
        assert_eq!(s.value.as_scalar(), Some(0.1235));
    }

    #[test]
    fn triples_are_quantized_per_axis() {
        let mut d = SensorDriver::new(
            catalog::accelerometer(),
            Box::new(Vector([1.00004, -2.00006, 9.80665])),
        );
        let v = d.read(SimTime::ZERO).value.as_triple().expect("triple");
        assert_eq!(v, [1.0, -2.0001, 9.8067]);
    }

    #[test]
    fn sequence_numbers_increment_only_on_success() {
        // A failed Task I never reaches the driver (the fault layer
        // rejects the attempt first), so every driver read is a success
        // and consumes exactly one sequence number.
        let mut d = SensorDriver::new(catalog::light(), Box::new(Constant(300.0)));
        let a = d.read(SimTime::ZERO);
        let b = d.read(SimTime::from_millis(1));
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
    }

    fn unavailable(p: f64) -> FaultScript {
        FaultScript::new(
            FaultKind::SensorUnavailable { probability: p },
            SimTime::ZERO,
            SimDuration::MAX,
        )
    }

    #[test]
    fn error_rate_statistics_are_plausible() {
        // Task I at a 30 % error rate, as the executor runs it: the fault
        // layer rejects an attempt or the driver performs Tasks II-III.
        let mut plan = FaultPlan::new(&SeedTree::new(99), &[unavailable(0.3)]);
        let mut d = SensorDriver::new(catalog::sound(), Box::new(Constant(512.0)));
        let mut delivered = 0;
        for i in 0..1000 {
            let t = SimTime::from_millis(i);
            if !plan.read_unavailable(0, t) {
                assert_eq!(d.read(t).seq, delivered, "seq counts successes only");
                delivered += 1;
            }
        }
        let failed = plan.stats().faults_injected;
        assert_eq!(failed + delivered, 1000);
        assert!(
            (200..400).contains(&failed),
            "expected ≈300 failures, got {failed}"
        );
    }

    #[test]
    #[should_panic(expected = "fault probability")]
    fn error_rate_validated() {
        let _ = unavailable(1.5);
    }
}
