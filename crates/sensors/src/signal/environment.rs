//! Slow environmental scalars (feed S1 barometer, S2 temperature, S5 air
//! quality, S7 light, S9 distance).
//!
//! A mean-reverting random walk (discrete Ornstein–Uhlenbeck) clamped to the
//! physical range of the quantity. Values evolve deterministically from the
//! seed and the *sequence* of sampling instants.

use iotse_sim::rng::SeedTree;
use iotse_sim::rng::SimRng;
use iotse_sim::time::SimTime;

/// Which environmental quantity to synthesize, with realistic defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantity {
    /// Barometric pressure, hPa.
    PressureHpa,
    /// Air temperature, °C.
    TemperatureC,
    /// Air-quality index, ppb equivalent.
    AirQuality,
    /// Illuminance, lux.
    LightLux,
    /// Distance to target, m.
    DistanceM,
}

impl Quantity {
    /// `(mean, reversion-rate 1/s, volatility per √s, min, max)`.
    #[must_use]
    #[inline]
    pub fn parameters(self) -> (f64, f64, f64, f64, f64) {
        match self {
            Quantity::PressureHpa => (1013.25, 0.01, 0.5, 950.0, 1060.0),
            Quantity::TemperatureC => (22.0, 0.02, 0.3, -30.0, 60.0),
            Quantity::AirQuality => (40.0, 0.05, 4.0, 0.0, 500.0),
            Quantity::LightLux => (300.0, 0.1, 40.0, 0.0, 100_000.0),
            Quantity::DistanceM => (1.5, 0.3, 0.4, 0.02, 4.0),
        }
    }
}

/// Deterministic mean-reverting environmental signal.
///
/// # Examples
///
/// ```
/// use iotse_sensors::signal::environment::{EnvironmentGenerator, Quantity};
/// use iotse_sim::rng::SeedTree;
/// use iotse_sim::time::SimTime;
///
/// let mut temp = EnvironmentGenerator::new(&SeedTree::new(1), Quantity::TemperatureC);
/// let v = temp.sample_scalar(SimTime::from_secs(1));
/// assert!((-30.0..=60.0).contains(&v));
/// ```
#[derive(Debug)]
pub struct EnvironmentGenerator {
    quantity: Quantity,
    rng: SimRng,
    value: f64,
    last_t: Option<SimTime>,
}

impl EnvironmentGenerator {
    /// Creates a generator for `quantity`, starting near its mean.
    #[must_use]
    pub fn new(seeds: &SeedTree, quantity: Quantity) -> Self {
        let label = format!("signal/env/{quantity:?}");
        let mut rng = seeds.stream(&label);
        let (mean, _, vol, min, max) = quantity.parameters();
        let start = (mean + (rng.gen::<f64>() - 0.5) * vol * 4.0).clamp(min, max);
        EnvironmentGenerator {
            quantity,
            rng,
            value: start,
            last_t: None,
        }
    }

    /// The quantity being synthesized.
    #[must_use]
    pub fn quantity(&self) -> Quantity {
        self.quantity
    }

    /// Advances the walk to `t` and returns the value.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes an earlier sample.
    #[inline]
    pub fn sample_scalar(&mut self, t: SimTime) -> f64 {
        let (mean, rate, vol, min, max) = self.quantity.parameters();
        let dt = match self.last_t {
            None => 0.0,
            Some(prev) => {
                assert!(t >= prev, "environment sampled backwards in time");
                (t - prev).as_secs_f64()
            }
        };
        self.last_t = Some(t);
        if dt > 0.0 {
            let u1: f64 = self.rng.gen_range(1e-12..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            self.value += rate * (mean - self.value) * dt + vol * dt.sqrt() * gauss;
            self.value = self.value.clamp(min, max);
        }
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_sim::time::SimDuration;

    #[test]
    fn values_stay_in_physical_range() {
        for q in [
            Quantity::PressureHpa,
            Quantity::TemperatureC,
            Quantity::AirQuality,
            Quantity::LightLux,
            Quantity::DistanceM,
        ] {
            let (_, _, _, min, max) = q.parameters();
            let mut g = EnvironmentGenerator::new(&SeedTree::new(3), q);
            let mut t = SimTime::ZERO;
            for _ in 0..500 {
                let v = g.sample_scalar(t);
                assert!((min..=max).contains(&v), "{q:?} escaped range: {v}");
                t += SimDuration::from_millis(100);
            }
        }
    }

    #[test]
    fn walk_is_deterministic_per_seed() {
        let mut a = EnvironmentGenerator::new(&SeedTree::new(4), Quantity::TemperatureC);
        let mut b = EnvironmentGenerator::new(&SeedTree::new(4), Quantity::TemperatureC);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            assert_eq!(a.sample_scalar(t), b.sample_scalar(t));
            t += SimDuration::from_millis(100);
        }
    }

    #[test]
    fn different_quantities_use_independent_streams() {
        let seeds = SeedTree::new(5);
        let mut temp = EnvironmentGenerator::new(&seeds, Quantity::TemperatureC);
        let mut press = EnvironmentGenerator::new(&seeds, Quantity::PressureHpa);
        let t = SimTime::from_secs(1);
        // They should not be the same value (different parameterization and
        // streams).
        assert_ne!(temp.sample_scalar(t), press.sample_scalar(t));
    }

    #[test]
    fn reverts_toward_mean() {
        // Run long and check the average is near the mean.
        let mut g = EnvironmentGenerator::new(&SeedTree::new(6), Quantity::TemperatureC);
        let mut t = SimTime::ZERO;
        let mut acc = 0.0;
        let n = 2_000;
        for _ in 0..n {
            acc += g.sample_scalar(t);
            t += SimDuration::from_secs(1);
        }
        let avg = acc / f64::from(n);
        assert!((avg - 22.0).abs() < 8.0, "mean drifted: {avg}");
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn sampling_backwards_panics() {
        let mut g = EnvironmentGenerator::new(&SeedTree::new(7), Quantity::LightLux);
        g.sample_scalar(SimTime::from_secs(2));
        g.sample_scalar(SimTime::from_secs(1));
    }
}
