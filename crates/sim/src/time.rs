//! Simulated time.
//!
//! All simulation time is kept in integer **nanoseconds** so that event
//! ordering is exact and runs are bit-for-bit reproducible. Two newtypes are
//! provided: [`SimTime`] (an absolute instant since simulation start) and
//! [`SimDuration`] (a span between instants). Arithmetic between them mirrors
//! `std::time::{Instant, Duration}`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in nanoseconds since t = 0.
///
/// # Examples
///
/// ```
/// use iotse_sim::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_nanos(), 3_000_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_micros(3_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use iotse_sim::time::SimDuration;
///
/// let d = SimDuration::from_micros(250) * 4;
/// assert_eq!(d, SimDuration::from_millis(1));
/// assert_eq!(d.as_secs_f64(), 0.001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    #[must_use]
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after simulation start.
    #[must_use]
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    #[must_use]
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    #[must_use]
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    #[must_use]
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, truncated.
    #[must_use]
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start, truncated.
    #[must_use]
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float (lossy for > 2^53 ns).
    #[must_use]
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since simulation start as a float.
    #[must_use]
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (simulated time never runs
    /// backwards, so this indicates a scheduling bug).
    #[must_use]
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        match self.0.checked_sub(earlier.0) {
            Some(d) => SimDuration(d),
            // iotse-lint: allow(IOTSE-E04) documented panic contract: time never runs backwards
            None => panic!("duration_since: {earlier} is later than {self}"),
        }
    }

    /// The span from `earlier` to `self`, or zero if `earlier` is later.
    #[must_use]
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, returning `None` on overflow.
    #[must_use]
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Adds a duration, clamping at [`SimTime::MAX`].
    #[must_use]
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The later of two instants.
    #[must_use]
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[must_use]
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `nanos` nanoseconds.
    #[must_use]
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds.
    #[must_use]
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span of `millis` milliseconds.
    #[must_use]
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span of `secs` seconds.
    #[must_use]
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or too large to represent.
    #[must_use]
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let nanos = secs * 1e9;
        assert!(nanos <= u64::MAX as f64, "duration overflow: {secs} s");
        SimDuration(nanos.round() as u64)
    }

    /// Creates a span from fractional milliseconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative, non-finite, or too large to represent.
    #[must_use]
    #[inline]
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// Creates a span from fractional microseconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `micros` is negative, non-finite, or too large to represent.
    #[must_use]
    #[inline]
    pub fn from_micros_f64(micros: f64) -> Self {
        Self::from_secs_f64(micros / 1e6)
    }

    /// The span in whole nanoseconds.
    #[must_use]
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in whole microseconds, truncated.
    #[must_use]
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in whole milliseconds, truncated.
    #[must_use]
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span in fractional seconds.
    #[must_use]
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in fractional milliseconds.
    #[must_use]
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if the span is zero.
    #[must_use]
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Adds two spans, returning `None` on overflow.
    #[must_use]
    #[inline]
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }

    /// Adds two spans, clamping at [`SimDuration::MAX`].
    #[must_use]
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Subtracts, clamping at zero.
    #[must_use]
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a float factor, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative, non-finite, or the result overflows.
    #[must_use]
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        Self::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// The larger of two spans.
    #[must_use]
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    #[must_use]
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                // iotse-lint: allow(IOTSE-E04) overflow is a simulation bug; std::time panics too
                .expect("simulated time overflow (more than ~584 years)"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                // iotse-lint: allow(IOTSE-E04) underflow is a simulation bug; std::time panics too
                .expect("simulated time underflow (before t = 0)"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        // iotse-lint: allow(IOTSE-E04) overflow is a simulation bug; std::time panics too
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        // iotse-lint: allow(IOTSE-E04) underflow is a simulation bug; std::time panics too
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        // iotse-lint: allow(IOTSE-E04) overflow is a simulation bug; std::time panics too
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0ns")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl From<SimDuration> for std::time::Duration {
    fn from(d: SimDuration) -> Self {
        std::time::Duration::from_nanos(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(
            SimDuration::from_secs(2),
            SimDuration::from_nanos(2_000_000_000)
        );
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(5);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_since_is_exact() {
        let a = SimTime::from_nanos(17);
        let b = SimTime::from_nanos(42);
        assert_eq!(b.duration_since(a), SimDuration::from_nanos(25));
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "later than")]
    fn duration_since_panics_when_backwards() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn from_secs_f64_rounds_to_nanos() {
        assert_eq!(
            SimDuration::from_secs_f64(0.000_000_001_4),
            SimDuration::from_nanos(1)
        );
        assert_eq!(
            SimDuration::from_secs_f64(0.000_000_001_6),
            SimDuration::from_nanos(2)
        );
        assert_eq!(
            SimDuration::from_millis_f64(0.192),
            SimDuration::from_micros(192)
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(SimDuration::from_nanos(7).to_string(), "7ns");
        assert_eq!(SimDuration::from_micros(48).to_string(), "48us");
        assert_eq!(SimDuration::from_millis(192).to_string(), "192ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3s");
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimTime::from_millis(1).to_string(), "t+1ms");
    }

    #[test]
    fn mul_div_scale() {
        let d = SimDuration::from_micros(100);
        assert_eq!(d * 10, SimDuration::from_millis(1));
        assert_eq!(d / 4, SimDuration::from_micros(25));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(50));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::MAX.saturating_add(SimDuration::from_nanos(1)),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::from_nanos(3).saturating_sub(SimDuration::from_nanos(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn min_max_select_endpoints() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_micros(5);
        let y = SimDuration::from_micros(9);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn converts_to_std_duration() {
        let d: std::time::Duration = SimDuration::from_millis(12).into();
        assert_eq!(d, std::time::Duration::from_millis(12));
    }
}
