//! Physical units for the energy model.
//!
//! [`Power`] is stored in milliwatts and [`Energy`] in microjoules, both as
//! `f64`. The key law `energy = power × time` is expressed in the type
//! system: `Power * SimDuration -> Energy`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use iotse_sim::time::SimDuration;

/// Electrical power, stored in milliwatts.
///
/// # Examples
///
/// ```
/// use iotse_energy::units::{Energy, Power};
/// use iotse_sim::time::SimDuration;
///
/// let cpu_active = Power::from_watts(5.0);
/// let e = cpu_active * SimDuration::from_millis(48);
/// assert_eq!(e, Energy::from_millijoules(240.0)); // Fig 8 interrupt energy
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

/// Electrical energy, stored in microjoules.
///
/// # Examples
///
/// ```
/// use iotse_energy::units::Energy;
///
/// let total = Energy::from_millijoules(1902.0); // paper's step-counter run
/// assert_eq!(total.as_joules(), 1.902);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from milliwatts.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is NaN.
    #[must_use]
    #[inline]
    pub fn from_milliwatts(mw: f64) -> Self {
        assert!(!mw.is_nan(), "power must not be NaN");
        Power(mw)
    }

    /// Creates a power from watts.
    ///
    /// # Panics
    ///
    /// Panics if `w` is NaN.
    #[must_use]
    #[inline]
    pub fn from_watts(w: f64) -> Self {
        Self::from_milliwatts(w * 1e3)
    }

    /// The power in milliwatts.
    #[must_use]
    #[inline]
    pub fn as_milliwatts(self) -> f64 {
        self.0
    }

    /// The power in watts.
    #[must_use]
    #[inline]
    pub fn as_watts(self) -> f64 {
        self.0 / 1e3
    }

    /// `true` if exactly zero.
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from microjoules.
    ///
    /// # Panics
    ///
    /// Panics if `uj` is NaN.
    #[must_use]
    #[inline]
    pub fn from_microjoules(uj: f64) -> Self {
        assert!(!uj.is_nan(), "energy must not be NaN");
        Energy(uj)
    }

    /// Creates an energy from millijoules.
    ///
    /// # Panics
    ///
    /// Panics if `mj` is NaN.
    #[must_use]
    #[inline]
    pub fn from_millijoules(mj: f64) -> Self {
        Self::from_microjoules(mj * 1e3)
    }

    /// Creates an energy from joules.
    ///
    /// # Panics
    ///
    /// Panics if `j` is NaN.
    #[must_use]
    #[inline]
    pub fn from_joules(j: f64) -> Self {
        Self::from_microjoules(j * 1e6)
    }

    /// The energy in microjoules.
    #[must_use]
    #[inline]
    pub fn as_microjoules(self) -> f64 {
        self.0
    }

    /// The energy in millijoules.
    #[must_use]
    #[inline]
    pub fn as_millijoules(self) -> f64 {
        self.0 / 1e3
    }

    /// The energy in joules.
    #[must_use]
    #[inline]
    pub fn as_joules(self) -> f64 {
        self.0 / 1e6
    }

    /// `self / other`, the dimensionless ratio of two energies.
    ///
    /// Returns 0 when `other` is zero (used for normalizing empty
    /// breakdowns).
    #[must_use]
    #[inline]
    pub fn ratio_of(self, other: Energy) -> f64 {
        if other.0 == 0.0 {
            0.0
        } else {
            self.0 / other.0
        }
    }

    /// `true` if exactly zero.
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Average power if this energy was spent over `span`.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero.
    #[must_use]
    #[inline]
    pub fn over(self, span: SimDuration) -> Power {
        assert!(!span.is_zero(), "cannot average energy over a zero span");
        Power::from_milliwatts(self.as_millijoules() / span.as_secs_f64())
    }
}

impl Mul<SimDuration> for Power {
    type Output = Energy;
    #[inline]
    fn mul(self, d: SimDuration) -> Energy {
        // mW × s = mJ; stored in µJ.
        Energy::from_millijoules(self.0 * d.as_secs_f64())
    }
}

impl Mul<Power> for SimDuration {
    type Output = Energy;
    #[inline]
    fn mul(self, p: Power) -> Energy {
        p * self
    }
}

impl Add for Power {
    type Output = Power;
    #[inline]
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}
impl AddAssign for Power {
    #[inline]
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}
impl Sub for Power {
    type Output = Power;
    #[inline]
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}
impl Mul<f64> for Power {
    type Output = Power;
    #[inline]
    fn mul(self, k: f64) -> Power {
        Power(self.0 * k)
    }
}
impl Div<f64> for Power {
    type Output = Power;
    #[inline]
    fn div(self, k: f64) -> Power {
        Power(self.0 / k)
    }
}
impl Neg for Power {
    type Output = Power;
    #[inline]
    fn neg(self) -> Power {
        Power(-self.0)
    }
}
impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, |a, b| a + b)
    }
}

impl Add for Energy {
    type Output = Energy;
    #[inline]
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}
impl AddAssign for Energy {
    #[inline]
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}
impl Sub for Energy {
    type Output = Energy;
    #[inline]
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}
impl SubAssign for Energy {
    #[inline]
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}
impl Mul<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, k: f64) -> Energy {
        Energy(self.0 * k)
    }
}
impl Div<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn div(self, k: f64) -> Energy {
        Energy(self.0 / k)
    }
}
impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e3 {
            write!(f, "{:.3}W", self.as_watts())
        } else {
            write!(f, "{:.3}mW", self.0)
        }
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let uj = self.0.abs();
        if uj >= 1e6 {
            write!(f, "{:.3}J", self.as_joules())
        } else if uj >= 1e3 {
            write!(f, "{:.3}mJ", self.as_millijoules())
        } else {
            write!(f, "{:.3}uJ", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_sim::time::SimDuration;

    #[test]
    fn power_times_time_is_energy() {
        // The paper's sleep-transition overhead: 2.5 W × 1.6 ms = 4 mJ.
        let e = Power::from_watts(2.5) * SimDuration::from_micros(1600);
        assert!((e.as_millijoules() - 4.0).abs() < 1e-12);
        // Commutes.
        assert_eq!(e, SimDuration::from_micros(1600) * Power::from_watts(2.5));
    }

    #[test]
    fn break_even_sleep_time_matches_paper() {
        // 4 mJ / (5 W − 1.5 W) = 1.142857 ms (§III-A says ≈ 1.14 ms).
        let overhead = Power::from_watts(2.5) * SimDuration::from_micros(1600);
        let delta = Power::from_watts(5.0) - Power::from_watts(1.5);
        let break_even_s = overhead.as_joules() / delta.as_watts();
        assert!((break_even_s * 1e3 - 1.1428).abs() < 1e-3);
    }

    #[test]
    fn unit_conversions_round_trip() {
        assert_eq!(Power::from_watts(1.5).as_milliwatts(), 1500.0);
        assert_eq!(Energy::from_joules(2.0).as_millijoules(), 2000.0);
        assert_eq!(Energy::from_millijoules(1.0).as_microjoules(), 1000.0);
    }

    #[test]
    fn arithmetic_behaves() {
        let p = Power::from_watts(5.0) - Power::from_watts(1.5);
        assert_eq!(p, Power::from_watts(3.5));
        assert_eq!(p * 2.0, Power::from_watts(7.0));
        assert_eq!(p / 3.5, Power::from_watts(1.0));
        assert_eq!(
            -Power::from_watts(1.0) + Power::from_watts(1.0),
            Power::ZERO
        );

        let mut e = Energy::from_millijoules(10.0);
        e += Energy::from_millijoules(5.0);
        e -= Energy::from_millijoules(3.0);
        assert_eq!(e, Energy::from_millijoules(12.0));
        assert_eq!(e * 0.5, Energy::from_millijoules(6.0));
        assert_eq!(e / 4.0, Energy::from_millijoules(3.0));
    }

    #[test]
    fn sums_work() {
        let p: Power = [1.0, 2.0, 3.0].iter().map(|&w| Power::from_watts(w)).sum();
        assert_eq!(p, Power::from_watts(6.0));
        let e: Energy = (1..=3)
            .map(|i| Energy::from_millijoules(f64::from(i)))
            .sum();
        assert_eq!(e, Energy::from_millijoules(6.0));
    }

    #[test]
    fn ratio_and_average_power() {
        let a = Energy::from_millijoules(52.0);
        let b = Energy::from_millijoules(100.0);
        assert!((a.ratio_of(b) - 0.52).abs() < 1e-12);
        assert_eq!(a.ratio_of(Energy::ZERO), 0.0);
        let avg = b.over(SimDuration::from_secs(1));
        assert_eq!(avg, Power::from_milliwatts(100.0));
    }

    #[test]
    #[should_panic(expected = "zero span")]
    fn average_over_zero_span_panics() {
        let _ = Energy::from_joules(1.0).over(SimDuration::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Power::from_watts(5.0).to_string(), "5.000W");
        assert_eq!(Power::from_milliwatts(21.0).to_string(), "21.000mW");
        assert_eq!(Energy::from_joules(1.902).to_string(), "1.902J");
        assert_eq!(Energy::from_millijoules(4.0).to_string(), "4.000mJ");
        assert_eq!(Energy::from_microjoules(300.0).to_string(), "300.000uJ");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_power_rejected() {
        let _ = Power::from_milliwatts(f64::NAN);
    }
}
