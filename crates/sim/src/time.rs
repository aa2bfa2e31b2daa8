//! Simulated time and durations.
//!
//! Time is kept in integer milliseconds. Two simulated years — the paper's
//! experiment length — is about 6.3e10 ms, comfortably inside `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of simulated time, in milliseconds since the start of
/// the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in milliseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// One second.
    pub const SECOND: Duration = Duration(1_000);
    /// One minute.
    pub const MINUTE: Duration = Duration(60 * 1_000);
    /// One hour.
    pub const HOUR: Duration = Duration(60 * 60 * 1_000);
    /// One day.
    pub const DAY: Duration = Duration(24 * 60 * 60 * 1_000);
    /// A "month" is 30 days, the convention used throughout the paper's
    /// parameter descriptions (3-month inter-poll interval, 30-day
    /// recuperation period).
    pub const MONTH: Duration = Duration(30 * 24 * 60 * 60 * 1_000);
    /// A calendar year (365 days).
    pub const YEAR: Duration = Duration(365 * 24 * 60 * 60 * 1_000);

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000)
    }

    /// Builds a duration from fractional seconds, rounding to milliseconds.
    ///
    /// Negative or non-finite inputs saturate to zero.
    pub fn from_secs_f64(s: f64) -> Duration {
        if !s.is_finite() || s <= 0.0 {
            return Duration::ZERO;
        }
        Duration((s * 1_000.0).round() as u64)
    }

    /// Builds a duration from whole hours.
    pub const fn from_hours(h: u64) -> Duration {
        Duration(h * 60 * 60 * 1_000)
    }

    /// Builds a duration from whole days.
    pub const fn from_days(d: u64) -> Duration {
        Duration(d * 24 * 60 * 60 * 1_000)
    }

    /// The most whole `unit`s whose milliseconds fit in [`SimTime`]. Day
    /// (hour, month) counts read from scenario files and the command line
    /// above it are refused rather than wrapped.
    pub const fn max_count(unit: Duration) -> u64 {
        u64::MAX / unit.0
    }

    /// The duration in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / Duration::DAY.0 as f64
    }

    /// Scales the duration by a non-negative factor, rounding to
    /// milliseconds. Saturates at zero for negative or non-finite factors.
    pub fn mul_f64(self, factor: f64) -> Duration {
        if !factor.is_finite() || factor <= 0.0 {
            return Duration::ZERO;
        }
        Duration((self.0 as f64 * factor).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl SimTime {
    /// The start of the run.
    pub const ZERO: SimTime = SimTime(0);

    /// The instant as milliseconds since the start of the run.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The instant as fractional seconds since the start of the run.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The instant as fractional days since the start of the run.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / Duration::DAY.0 as f64
    }

    /// The span from an earlier instant to this one.
    ///
    /// Saturates to zero if `earlier` is in fact later.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div for Duration {
    type Output = f64;
    fn div(self, rhs: Duration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Duration(self.0))
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms == 0 {
            return write!(f, "0ms");
        }
        if ms.is_multiple_of(Duration::DAY.0) {
            write!(f, "{}d", ms / Duration::DAY.0)
        } else if ms.is_multiple_of(Duration::HOUR.0) {
            write!(f, "{}h", ms / Duration::HOUR.0)
        } else if ms.is_multiple_of(Duration::MINUTE.0) {
            write!(f, "{}m", ms / Duration::MINUTE.0)
        } else if ms.is_multiple_of(Duration::SECOND.0) {
            write!(f, "{}s", ms / Duration::SECOND.0)
        } else if ms >= Duration::DAY.0 {
            write!(f, "{:.1}d", self.as_days_f64())
        } else if ms >= Duration::HOUR.0 {
            write!(f, "{:.1}h", ms as f64 / Duration::HOUR.0 as f64)
        } else if ms >= Duration::SECOND.0 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else {
            write!(f, "{}ms", ms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(Duration::SECOND * 60, Duration::MINUTE);
        assert_eq!(Duration::MINUTE * 60, Duration::HOUR);
        assert_eq!(Duration::HOUR * 24, Duration::DAY);
        assert_eq!(Duration::DAY * 30, Duration::MONTH);
        assert_eq!(Duration::DAY * 365, Duration::YEAR);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::ZERO + Duration::from_days(10);
        assert_eq!(t.since(SimTime::ZERO), Duration::from_days(10));
        assert_eq!((t + Duration::HOUR).since(t), Duration::HOUR);
        assert_eq!(t.since(t + Duration::HOUR), Duration::ZERO);
    }

    #[test]
    fn fractional_conversions() {
        assert!((Duration::from_secs(90).as_secs_f64() - 90.0).abs() < 1e-12);
        assert_eq!(Duration::from_secs_f64(1.5), Duration::from_millis(1500));
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
    }

    #[test]
    fn mul_f64_saturates() {
        assert_eq!(Duration::SECOND.mul_f64(2.5), Duration::from_millis(2500));
        assert_eq!(Duration::SECOND.mul_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::SECOND.mul_f64(f64::INFINITY), Duration::ZERO);
    }

    #[test]
    fn display_picks_largest_exact_unit() {
        assert_eq!(Duration::from_days(3).to_string(), "3d");
        assert_eq!(Duration::from_hours(5).to_string(), "5h");
        assert_eq!(Duration::from_secs(7).to_string(), "7s");
        assert_eq!(Duration::from_millis(999).to_string(), "999ms");
        assert_eq!(Duration::ZERO.to_string(), "0ms");
    }

    #[test]
    fn display_falls_back_to_decimals() {
        assert_eq!(Duration::from_millis(1234).to_string(), "1.23s");
        assert_eq!(Duration::from_millis(2_587_889_794).to_string(), "30.0d");
        let ninety_minutes_ish = Duration::from_millis(90 * 60 * 1000 + 1);
        assert_eq!(ninety_minutes_ish.to_string(), "1.5h");
    }

    #[test]
    fn max_count_is_the_last_count_that_fits() {
        let days = Duration::max_count(Duration::DAY);
        assert_eq!(days, 213_503_982_334);
        assert!(days.checked_mul(Duration::DAY.0).is_some());
        assert!((days + 1).checked_mul(Duration::DAY.0).is_none());
        assert_eq!(Duration::max_count(Duration(1)), u64::MAX);
    }

    #[test]
    fn duration_ratio() {
        assert!((Duration::MONTH / Duration::DAY - 30.0).abs() < 1e-12);
    }
}
