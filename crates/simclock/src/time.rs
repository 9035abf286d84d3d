//! Simulated time.
//!
//! All simulation components share a single millisecond-resolution clock.
//! [`SimTime`] is an absolute instant (milliseconds since the start of the
//! simulation) and [`SimDuration`] is a span between two instants. Both are
//! thin wrappers around `u64` so they are `Copy`, ordered and hashable, and
//! both serialize as plain integers for the JSON export of measurement data.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, measured in milliseconds since the
/// start of the simulation.
///
/// # Example
///
/// ```
/// use simclock::{SimDuration, SimTime};
///
/// let start = SimTime::ZERO;
/// let later = start + SimDuration::from_secs(90);
/// assert_eq!(later.as_secs(), 90);
/// assert_eq!(later - start, SimDuration::from_secs(90));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in milliseconds.
///
/// # Example
///
/// ```
/// use simclock::SimDuration;
///
/// let d = SimDuration::from_hours(2);
/// assert_eq!(d.as_secs(), 7200);
/// assert_eq!(d * 3, SimDuration::from_hours(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant from seconds since simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Creates an instant from hours since simulation start.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3_600_000)
    }

    /// Creates an instant from days since simulation start.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * 86_400_000)
    }

    /// Milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since simulation start.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Seconds since simulation start as a floating point value.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The duration elapsed since `earlier`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Creates a duration from a floating point number of seconds.
    ///
    /// Negative and non-finite values are clamped to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1000.0).round() as u64)
    }

    /// Creates a duration from minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration from hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Creates a duration from days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400_000)
    }

    /// Duration in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Duration in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Duration in seconds as a floating point value.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
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

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1000;
        let ms = self.0 % 1000;
        let days = total_secs / 86_400;
        let hours = (total_secs % 86_400) / 3600;
        let mins = (total_secs % 3600) / 60;
        let secs = total_secs % 60;
        if days > 0 {
            write!(f, "{days}d{hours:02}h{mins:02}m{secs:02}s")
        } else if hours > 0 {
            write!(f, "{hours}h{mins:02}m{secs:02}s")
        } else if mins > 0 {
            write!(f, "{mins}m{secs:02}s")
        } else if ms > 0 && total_secs < 10 {
            write!(f, "{secs}.{ms:03}s")
        } else {
            write!(f, "{secs}s")
        }
    }
}

impl From<SimDuration> for f64 {
    fn from(d: SimDuration) -> f64 {
        d.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(100);
        let d = SimDuration::from_secs(40);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(20);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early - SimDuration::from_secs(100), SimTime::ZERO);
    }

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimTime::from_hours(2), SimTime::from_secs(7200));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
        assert_eq!(SimDuration::from_mins(3).as_secs(), 180);
        assert_eq!(SimDuration::from_secs(5).as_millis(), 5000);
    }

    #[test]
    fn from_secs_f64_clamps_invalid_values() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    fn display_formats_are_compact() {
        assert_eq!(SimDuration::from_secs(5).to_string(), "5s");
        assert_eq!(SimDuration::from_secs(65).to_string(), "1m05s");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3h00m00s");
        assert_eq!(SimDuration::from_days(2).to_string(), "2d00h00m00s");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimTime::from_secs(65).to_string(), "t+1m05s");
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(SimDuration::from_secs(10) * 6, SimDuration::from_mins(1));
        assert_eq!(SimDuration::from_mins(1) / 6, SimDuration::from_secs(10));
    }

}
