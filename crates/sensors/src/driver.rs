//! The ADC register of the MCU-side sensor driver.
//!
//! §II-B decomposes one `Sensor.Read()` into three tasks: **(I)** checking
//! sensor availability, **(II)** reading the data register, and **(III)**
//! formatting raw data into engineering units. [`quantize`] is Tasks II and
//! III for one value: the register read rounds the physical value to the
//! sensor's ADC resolution, and formatting scales it back — so the paper's
//! example (raw `1235` → `0.1235 m/s²`) is a real code path.
//! [`PhysicalWorld::read`](crate::world::PhysicalWorld::read) applies it to
//! every scalar and axis it samples. Task I's failures are injected by the
//! fault layer (`sensor-unavailable` in `iotse_sim::faults`) before the
//! world is asked.

/// Fixed-point scale used when quantizing scalar physical values through the
/// ADC register (10⁻⁴ units per count, the paper's accelerometer example).
pub const ADC_SCALE: f64 = 1e4;

/// Quantizes a physical value through a signed 32-bit register, exactly as
/// a genuine read does. Fault injection reuses this so a noise-perturbed
/// value is still a value the ADC could have produced.
#[must_use]
pub fn quantize(x: f64) -> f64 {
    let counts = (x * ADC_SCALE).round();
    let counts = counts.clamp(f64::from(i32::MIN), f64::from(i32::MAX));
    counts / ADC_SCALE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SensorId;
    use crate::world::{PhysicalWorld, WorldConfig};
    use iotse_sim::faults::{FaultKind, FaultPlan, FaultScript};
    use iotse_sim::rng::SeedTree;
    use iotse_sim::time::{SimDuration, SimTime};

    fn world() -> PhysicalWorld {
        PhysicalWorld::new(&SeedTree::new(3), WorldConfig::default())
    }

    #[test]
    fn quantizes_like_the_papers_example() {
        // Raw register 1235 counts ⇒ 0.1235 m/s² (§II-B Task III example).
        assert_eq!(quantize(0.12351), 0.1235);
        // A pulse read comes off the same register.
        let Ok(s) = world().read(SensorId::S6, SimTime::from_millis(7));
        let x = s.value.as_scalar().expect("scalar");
        assert_eq!(quantize(x), x);
    }

    #[test]
    fn triples_are_quantized_per_axis() {
        let v = [1.00004, -2.00006, 9.80665].map(quantize);
        assert_eq!(v, [1.0, -2.0001, 9.8067]);
        let Ok(s) = world().read(SensorId::S4, SimTime::from_millis(7));
        let v = s.value.as_triple().expect("triple");
        assert_eq!(v.map(quantize), v);
    }

    #[test]
    fn sequence_numbers_increment_only_on_success() {
        // A failed Task I never reaches the world (the fault layer rejects
        // the attempt first), so every read is a success and consumes
        // exactly one sequence number.
        let mut w = world();
        let Ok(a) = w.read(SensorId::S7, SimTime::ZERO);
        let Ok(b) = w.read(SensorId::S7, SimTime::from_millis(1));
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
        // layer rejects an attempt or the world performs Tasks II-III.
        let mut plan = FaultPlan::new(&SeedTree::new(99), &[unavailable(0.3)]);
        let mut w = world();
        let mut delivered = 0;
        for i in 0..1000 {
            let t = SimTime::from_millis(i);
            if !plan.read_unavailable(SensorId::S8.slot(), t) {
                let Ok(s) = w.read(SensorId::S8, t);
                assert_eq!(s.seq, delivered, "seq counts successes only");
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
