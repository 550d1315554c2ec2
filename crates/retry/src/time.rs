//! Virtual time: instants and durations with microsecond resolution.
//!
//! The paper's constructs (`try for 30 minutes`) are about *budgets of
//! time*, not about any particular clock. [`Time`] is an opaque instant
//! on whatever clock the driver supplies — wall-clock for real process
//! execution, the event-queue clock for simulation — and [`Dur`] is a
//! span between instants. Both are plain `u64` microsecond counts, which
//! keeps them `Copy`, totally ordered, and free of platform quirks.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in virtual time, measured in microseconds from an
/// arbitrary epoch (simulation start, or process start in real mode).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The epoch: time zero.
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; used as "no deadline".
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Time {
        Time(us)
    }

    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000)
    }

    /// Raw microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`, saturating at zero if
    /// `earlier` is actually later.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (saturates at [`Time::MAX`]).
    pub fn saturating_add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl Dur {
    /// The zero-length span.
    pub const ZERO: Dur = Dur(0);
    /// The greatest representable span.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Dur {
        Dur(m * 60_000_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Dur {
        Dur(h * 3_600_000_000)
    }

    /// Construct from whole days.
    pub const fn from_days(d: u64) -> Dur {
        Dur(d * 86_400_000_000)
    }

    /// Construct from fractional seconds, saturating; negative inputs
    /// clamp to zero.
    pub fn from_secs_f64(s: f64) -> Dur {
        if s <= 0.0 {
            Dur(0)
        } else {
            let us = s * 1e6;
            if us >= u64::MAX as f64 {
                Dur(u64::MAX)
            } else {
                Dur(us as u64)
            }
        }
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True when this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by a non-negative float, saturating. Used for the
    /// random backoff factor in `[1, 2)`.
    pub fn mul_f64(self, k: f64) -> Dur {
        debug_assert!(k >= 0.0, "negative duration scale");
        let v = self.0 as f64 * k;
        if v >= u64::MAX as f64 {
            Dur(u64::MAX)
        } else {
            Dur(v as u64)
        }
    }

    /// Saturating doubling — the backoff growth step.
    pub fn saturating_double(self) -> Dur {
        Dur(self.0.saturating_mul(2))
    }

    /// The smaller of two spans.
    pub fn min(self, other: Dur) -> Dur {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two spans.
    pub fn max(self, other: Dur) -> Dur {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Convert to a `std::time::Duration` for real-mode sleeping.
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_micros(self.0)
    }

    /// Convert from a `std::time::Duration`, saturating.
    pub fn from_std(d: std::time::Duration) -> Dur {
        let us = d.as_micros();
        if us > u64::MAX as u128 {
            Dur(u64::MAX)
        } else {
            Dur(us as u64)
        }
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, d: Dur) {
        *self = *self + d;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Time) -> Dur {
        debug_assert!(self >= rhs, "time went backwards");
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, k: u64) -> Dur {
        Dur(self.0.saturating_mul(k))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, k: u64) -> Dur {
        Dur(self.0 / k)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_secs_f64())
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us == u64::MAX {
            write!(f, "forever")
        } else if us.is_multiple_of(3_600_000_000) && us > 0 {
            write!(f, "{}h", us / 3_600_000_000)
        } else if us.is_multiple_of(60_000_000) && us > 0 {
            write!(f, "{}m", us / 60_000_000)
        } else if us.is_multiple_of(1_000_000) {
            write!(f, "{}s", us / 1_000_000)
        } else if us.is_multiple_of(1_000) {
            write!(f, "{}ms", us / 1_000)
        } else {
            write!(f, "{}us", us)
        }
    }
}

/// Parse a human duration in the syntax ftsh accepts: a number followed
/// by a unit word, e.g. `30 minutes`, `1 hour`, `90 seconds`, `2 days`.
/// Unit words may be singular, plural, or abbreviated
/// (`s/sec/secs/second/seconds`, `m/min/.../minutes`, `h/hr/.../hours`,
/// `d/day/days`, `ms/msec/millisecond(s)`).
pub fn parse_duration(amount: u64, unit: &str) -> Option<Dur> {
    let unit = unit.to_ascii_lowercase();
    let d = match unit.as_str() {
        "us" | "usec" | "usecs" | "microsecond" | "microseconds" => Dur::from_micros(amount),
        "ms" | "msec" | "msecs" | "millisecond" | "milliseconds" => Dur::from_millis(amount),
        "s" | "sec" | "secs" | "second" | "seconds" => Dur::from_secs(amount),
        "m" | "min" | "mins" | "minute" | "minutes" => Dur::from_mins(amount),
        "h" | "hr" | "hrs" | "hour" | "hours" => Dur::from_hours(amount),
        "d" | "day" | "days" => Dur::from_days(amount),
        _ => return None,
    };
    Some(d)
}

/// Parse a duration as a command line gives it: digits, then a unit
/// word [`parse_duration`] knows, optionally spaced and padded —
/// `90s`, `10 m`, ` 2 hours `. No sign, no fraction, no bare number.
pub fn parse_duration_arg(s: &str) -> Option<Dur> {
    let s = s.trim();
    let split = s.find(|c: char| !c.is_ascii_digit())?;
    let amount: u64 = s[..split].parse().ok()?;
    parse_duration(amount, s[split..].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_args_need_digits_then_a_unit() {
        assert_eq!(parse_duration_arg("90s"), Some(Dur::from_secs(90)));
        assert_eq!(parse_duration_arg("10 m"), Some(Dur::from_mins(10)));
        assert_eq!(parse_duration_arg(" 2 hours "), Some(Dur::from_hours(2)));
        for bad in ["", "s", "5", "-5s", "5 parsecs"] {
            assert_eq!(parse_duration_arg(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn construction_and_conversion() {
        assert_eq!(Dur::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(Dur::from_mins(2).as_secs(), 120);
        assert_eq!(Dur::from_hours(1).as_secs(), 3600);
        assert_eq!(Dur::from_days(1).as_secs(), 86400);
        assert_eq!(Dur::from_millis(1500).as_millis(), 1500);
        assert_eq!(Time::from_secs(5).as_micros(), 5_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(10);
        let d = Dur::from_secs(3);
        assert_eq!(t + d, Time::from_secs(13));
        assert_eq!(Time::from_secs(13) - t, d);
        assert_eq!(d + d, Dur::from_secs(6));
        assert_eq!(d * 4, Dur::from_secs(12));
        assert_eq!(Dur::from_secs(12) / 4, Dur::from_secs(3));
        assert_eq!(Dur::from_secs(5) - Dur::from_secs(7), Dur::ZERO);
    }

    #[test]
    fn saturation() {
        assert_eq!(Time::MAX + Dur::from_secs(1), Time::MAX);
        assert_eq!(Dur::MAX.saturating_double(), Dur::MAX);
        assert_eq!(Dur::MAX + Dur::from_secs(1), Dur::MAX);
        assert_eq!(Dur::MAX.mul_f64(3.0), Dur::MAX);
    }

    #[test]
    fn mul_f64_scales() {
        let d = Dur::from_secs(2);
        assert_eq!(d.mul_f64(1.5), Dur::from_millis(3000));
        assert_eq!(d.mul_f64(0.0), Dur::ZERO);
    }

    #[test]
    fn from_secs_f64_edges() {
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(0.5), Dur::from_millis(500));
        assert_eq!(Dur::from_secs_f64(f64::MAX), Dur::MAX);
    }

    #[test]
    fn saturating_since() {
        let a = Time::from_secs(5);
        let b = Time::from_secs(9);
        assert_eq!(b.saturating_since(a), Dur::from_secs(4));
        assert_eq!(a.saturating_since(b), Dur::ZERO);
    }

    #[test]
    fn parse_units() {
        assert_eq!(parse_duration(30, "minutes"), Some(Dur::from_mins(30)));
        assert_eq!(parse_duration(1, "hour"), Some(Dur::from_hours(1)));
        assert_eq!(parse_duration(5, "s"), Some(Dur::from_secs(5)));
        assert_eq!(parse_duration(2, "DAYS"), Some(Dur::from_days(2)));
        assert_eq!(parse_duration(100, "ms"), Some(Dur::from_millis(100)));
        assert_eq!(parse_duration(1, "fortnight"), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Dur::from_hours(1).to_string(), "1h");
        assert_eq!(Dur::from_mins(5).to_string(), "5m");
        assert_eq!(Dur::from_secs(42).to_string(), "42s");
        assert_eq!(Dur::from_millis(250).to_string(), "250ms");
        assert_eq!(Dur::from_micros(7).to_string(), "7us");
        assert_eq!(Dur::MAX.to_string(), "forever");
    }

    #[test]
    fn std_roundtrip() {
        let d = Dur::from_millis(1234);
        assert_eq!(Dur::from_std(d.to_std()), d);
    }

    #[test]
    fn min_max() {
        let a = Dur::from_secs(1);
        let b = Dur::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
