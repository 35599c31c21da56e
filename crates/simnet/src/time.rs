//! Virtual time for the discrete-event kernel.
//!
//! Time is counted in integer **microseconds** from simulation start —
//! fine enough to resolve sub-millisecond wireless serialization delays,
//! coarse enough that a `u64` lasts half a million years of simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration of virtual time (microseconds).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// From fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((s * 1e6).round() as u64)
    }

    /// As microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor.
    pub const fn times(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

/// An instant of virtual time (microseconds since simulation start).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// The far future (used as "no deadline").
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// From microseconds since start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// As microseconds since start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// As fractional seconds since start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The elapsed duration since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add that never overflows past [`SimTime::FAR_FUTURE`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_micros()))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}µs", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimDuration::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.0015).as_micros(), 1_500);
        assert!((SimDuration::from_micros(2_500).as_millis_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_micros(), 5_000);
        let t2 = t + SimDuration::from_micros(1);
        assert_eq!((t2 - t).as_micros(), 1);
        assert_eq!((t - t2).as_micros(), 0, "saturating");
        assert_eq!(t2.since(t), SimDuration::from_micros(1));
        let mut d = SimDuration::from_micros(10);
        d += SimDuration::from_micros(5);
        assert_eq!(d.as_micros(), 15);
        assert_eq!(d.times(2).as_micros(), 30);
        assert_eq!(
            d.saturating_sub(SimDuration::from_micros(100)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_micros(1));
        assert!(SimTime::from_micros(1) < SimTime::FAR_FUTURE);
        assert!(SimDuration::ZERO < SimDuration::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panic() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12µs");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_micros(1_000_000).to_string(), "t=1.000000s");
    }

    #[test]
    fn saturating_add_caps_at_far_future() {
        let t = SimTime::FAR_FUTURE.saturating_add(SimDuration::from_secs(1));
        assert_eq!(t, SimTime::FAR_FUTURE);
    }
}
