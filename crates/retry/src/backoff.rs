//! Exponential backoff with randomized spreading.
//!
//! Section 4 of the paper fixes the defaults: *"The base delay is one
//! second, doubled after every failure, up to a maximum of one hour.
//! Each delay interval is multiplied by a random factor between one and
//! two in order to distribute the expected values."* Those defaults are
//! [`BackoffPolicy::ethernet`]; everything is tunable because §8 frames
//! the limits as "the user's limit of tolerance for failures".

use crate::time::Dur;
use rand::{Rng, RngExt};

/// How long to wait between failed attempts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BackoffPolicy {
    /// No delay at all — the "fixed" client of §5 that aggressively
    /// repeats its work "without delay and without regard to any sort
    /// of failure".
    None,
    /// A constant delay between attempts (`try ... every 10 seconds`).
    Constant(Dur),
    /// Exponential backoff: `base * growth^k`, capped, then multiplied
    /// by a random factor drawn uniformly from `[jitter_lo, jitter_hi)`.
    Exponential {
        /// First delay, before growth (paper: 1 s).
        base: Dur,
        /// Multiplier applied per consecutive failure (paper: 2.0).
        growth: f64,
        /// Upper bound on the un-jittered delay (paper: 1 h).
        cap: Dur,
        /// Lower edge of the random spreading factor (paper: 1.0).
        jitter_lo: f64,
        /// Upper edge of the random spreading factor (paper: 2.0).
        jitter_hi: f64,
    },
}

impl BackoffPolicy {
    /// The paper's defaults: 1 s base, doubling, 1 h cap, jitter [1, 2).
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use retry::{BackoffPolicy, Dur};
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let p = BackoffPolicy::ethernet();
    /// let d = p.delay_after(3, &mut rng); // third consecutive failure
    /// assert!(d >= Dur::from_secs(4) && d < Dur::from_secs(8));
    /// ```
    pub fn ethernet() -> BackoffPolicy {
        BackoffPolicy::Exponential {
            base: Dur::from_secs(1),
            growth: 2.0,
            cap: Dur::from_hours(1),
            jitter_lo: 1.0,
            jitter_hi: 2.0,
        }
    }

    /// Exponential with a custom base and cap, keeping the paper's
    /// doubling growth and [1, 2) jitter.
    pub fn exponential(base: Dur, cap: Dur) -> BackoffPolicy {
        BackoffPolicy::Exponential {
            base,
            growth: 2.0,
            cap,
            jitter_lo: 1.0,
            jitter_hi: 2.0,
        }
    }

    /// Remove the randomized spreading (useful for deterministic tests
    /// and for the ablation bench that shows why jitter matters).
    pub fn without_jitter(self) -> BackoffPolicy {
        match self {
            BackoffPolicy::Exponential {
                base, growth, cap, ..
            } => BackoffPolicy::Exponential {
                base,
                growth,
                cap,
                jitter_lo: 1.0,
                jitter_hi: 1.0,
            },
            other => other,
        }
    }

    /// The delay after the `failures`-th consecutive failure
    /// (1-indexed: the first failure yields the base delay).
    /// `failures == 0` yields zero delay.
    pub fn delay_after<R: Rng + ?Sized>(&self, failures: u32, rng: &mut R) -> Dur {
        if failures == 0 {
            return Dur::ZERO;
        }
        match *self {
            BackoffPolicy::None => Dur::ZERO,
            BackoffPolicy::Constant(d) => d,
            BackoffPolicy::Exponential {
                base,
                growth,
                cap,
                jitter_lo,
                jitter_hi,
            } => {
                let exponent = (failures - 1).min(63);
                let grown = base.mul_f64(growth.powi(exponent as i32));
                let capped = grown.min(cap);
                let factor = if jitter_hi > jitter_lo {
                    rng.random_range(jitter_lo..jitter_hi)
                } else {
                    jitter_lo
                };
                capped.mul_f64(factor)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn none_policy_never_delays() {
        let mut r = rng();
        for k in 0..10 {
            assert_eq!(BackoffPolicy::None.delay_after(k, &mut r), Dur::ZERO);
        }
    }

    #[test]
    fn constant_policy_is_constant() {
        let mut r = rng();
        let p = BackoffPolicy::Constant(Dur::from_secs(7));
        assert_eq!(p.delay_after(0, &mut r), Dur::ZERO);
        for k in 1..10 {
            assert_eq!(p.delay_after(k, &mut r), Dur::from_secs(7));
        }
    }

    #[test]
    fn exponential_doubles_without_jitter() {
        let mut r = rng();
        let p = BackoffPolicy::ethernet().without_jitter();
        assert_eq!(p.delay_after(1, &mut r), Dur::from_secs(1));
        assert_eq!(p.delay_after(2, &mut r), Dur::from_secs(2));
        assert_eq!(p.delay_after(3, &mut r), Dur::from_secs(4));
        assert_eq!(p.delay_after(11, &mut r), Dur::from_secs(1024));
    }

    #[test]
    fn exponential_caps_at_one_hour() {
        let mut r = rng();
        let p = BackoffPolicy::ethernet().without_jitter();
        // 2^12 = 4096 > 3600, so the 13th failure is capped.
        assert_eq!(p.delay_after(13, &mut r), Dur::from_hours(1));
        assert_eq!(p.delay_after(40, &mut r), Dur::from_hours(1));
        // Very large failure counts must not overflow.
        assert_eq!(p.delay_after(u32::MAX, &mut r), Dur::from_hours(1));
    }

    #[test]
    fn jitter_is_within_one_to_two() {
        let mut r = rng();
        let p = BackoffPolicy::ethernet();
        for k in 1..=20 {
            let unjittered = BackoffPolicy::ethernet()
                .without_jitter()
                .delay_after(k, &mut r);
            for _ in 0..50 {
                let d = p.delay_after(k, &mut r);
                assert!(d >= unjittered, "jittered {d} below base {unjittered}");
                assert!(
                    d < unjittered.saturating_double() + Dur::from_micros(2),
                    "jittered {d} above 2x base {unjittered}"
                );
            }
        }
    }

    #[test]
    fn zero_failures_means_no_delay() {
        let mut r = rng();
        assert_eq!(BackoffPolicy::ethernet().delay_after(0, &mut r), Dur::ZERO);
    }
}
