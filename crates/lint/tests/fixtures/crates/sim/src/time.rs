//! Fixture twin of simulated time: the `IOTSE-I15` operator cases and
//! the callees of the hot path in `crates/core/src/ticker.rs`.

use std::ops::{Add, Sub};

/// An instant, in nanoseconds.
#[derive(Clone, Copy)]
pub struct SimTime(u64);

/// A span, in nanoseconds.
#[derive(Clone, Copy)]
pub struct SimDuration(u64);

impl SimTime {
    /// Not inline: the hot-path call from `core` must fire I15.
    pub fn from_nanos(nanos: u64) -> SimTime {
        SimTime(nanos)
    }

    /// Inline: calls stay silent.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }
}

/// Not inline: I15 must fire on `add`.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.wrapping_add(rhs.0))
    }
}

/// Inline: I15 must stay silent.
impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.wrapping_sub(rhs.0))
    }
}

/// Not inline, but its one hot-path call is justified at the call site.
pub fn fault_hook(t: SimTime) -> SimTime {
    t
}
