//! Exponential backoff with randomized spreading.
//!
//! Section 4 of the paper fixes the defaults: *"The base delay is one
//! second, doubled after every failure, up to a maximum of one hour.
//! Each delay interval is multiplied by a random factor between one and
//! two in order to distribute the expected values."* Those defaults are
//! [`BackoffPolicy::ethernet`]; base and cap are tunable because §8
//! frames the limits as "the user's limit of tolerance for failures".
//! This one type is both what a VM draws its delays from and what the
//! static analyzer charges ([`BackoffPolicy::worst_total`]).

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
    /// Exponential backoff: `base * 2^k`, capped, then (with `jitter`)
    /// multiplied by a random factor drawn uniformly from `[1, 2)`.
    Exponential {
        /// First delay, before doubling (paper: 1 s).
        base: Dur,
        /// Upper bound on the un-jittered delay (paper: 1 h).
        cap: Dur,
        /// Whether the `[1, 2)` spreading factor applies (paper: yes).
        jitter: bool,
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
        BackoffPolicy::exponential(Dur::from_secs(1), Dur::from_hours(1))
    }

    /// Exponential with a custom base and cap, keeping the paper's
    /// doubling and [1, 2) jitter.
    pub fn exponential(base: Dur, cap: Dur) -> BackoffPolicy {
        BackoffPolicy::Exponential {
            base,
            cap,
            jitter: true,
        }
    }

    /// Remove the randomized spreading (useful for deterministic tests
    /// and for the ablation that shows why jitter matters).
    pub fn without_jitter(self) -> BackoffPolicy {
        match self {
            BackoffPolicy::Exponential { base, cap, .. } => BackoffPolicy::Exponential {
                base,
                cap,
                jitter: false,
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
            BackoffPolicy::Exponential { base, cap, jitter } => {
                let exponent = (failures - 1).min(63);
                let capped = base.mul_f64(pow2(exponent)).min(cap);
                let factor = if jitter {
                    rng.random_range(1.0..2.0)
                } else {
                    1.0
                };
                capped.mul_f64(factor)
            }
        }
    }

    /// Supremum of the total delay across `delays` consecutive
    /// failures: the k-th delay is `min(base * 2^(k-1), cap)` times a
    /// factor below 2 (exactly 1 without jitter). The supremum takes
    /// the jitter at its open upper edge, so a jittered bound is tight
    /// but never attained. [`Dur::MAX`] means the sum overflowed.
    ///
    /// ```
    /// use retry::{BackoffPolicy, Dur};
    ///
    /// // try 5 times: four delays of sup 2, 4, 8, 16 s.
    /// assert_eq!(BackoffPolicy::ethernet().worst_total(4), Dur::from_secs(30));
    /// ```
    pub fn worst_total(&self, delays: u32) -> Dur {
        let (base, cap, jitter) = match *self {
            BackoffPolicy::None => return Dur::ZERO,
            BackoffPolicy::Constant(d) => return d * u64::from(delays),
            BackoffPolicy::Exponential { base, cap, jitter } => (base, cap, jitter),
        };
        let cap_us = cap.as_micros() as u128;
        let mut d = base.as_micros() as u128;
        let mut sum: u128 = 0;
        let mut k: u64 = 0;
        let m = u64::from(delays);
        // Doubling reaches the cap within ~64 iterations; the rest of
        // the delays sit at the cap and are charged in closed form.
        while k < m && d < cap_us {
            sum += d;
            d *= 2;
            k += 1;
        }
        sum += u128::from(m - k) * cap_us;
        let jittered = (sum as f64) * if jitter { 2.0 } else { 1.0 };
        if jittered >= u64::MAX as f64 {
            Dur::MAX
        } else {
            Dur::from_micros(jittered.round() as u64)
        }
    }
}

/// 2^`k` for `k` in 0..=63, exactly: the float whose exponent field is
/// `k` and whose mantissa is zero. Bit for bit what `2f64.powi(k)`
/// returns, without the `powi` library call.
#[inline]
fn pow2(k: u32) -> f64 {
    debug_assert!(k <= 63);
    f64::from_bits(u64::from(1023 + k) << 52)
}

impl Default for BackoffPolicy {
    /// The paper's policy, [`BackoffPolicy::ethernet`].
    fn default() -> BackoffPolicy {
        BackoffPolicy::ethernet()
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

    /// The paper's policy: delays sup 2*min(2^(k-1), 3600) seconds.
    #[test]
    fn worst_totals_match_paper_policy() {
        let paper = BackoffPolicy::ethernet();
        assert_eq!(paper.worst_total(0), Dur::ZERO);
        // One delay: base 1 s, jitter sup 2.
        assert_eq!(paper.worst_total(1), Dur::from_secs(2));
        // try 5 times: 2*(1+2+4+8) = 30 s.
        assert_eq!(paper.worst_total(4), Dur::from_secs(30));
        // try 10 times: 2*(2^9 - 1) = 1022 s.
        assert_eq!(paper.worst_total(9), Dur::from_secs(1022));
        // try 13 times: 2*(2^12 - 1) = 8190 s.
        assert_eq!(paper.worst_total(12), Dur::from_secs(8190));
        // try 15 times: the 13th and 14th delays hit the 1 h cap:
        // 2*4095 + 2*2*3600 = 22590 s.
        assert_eq!(paper.worst_total(14), Dur::from_secs(22_590));
    }

    /// The live arena's policy: 100 ms base doubled to a 2 s cap — the
    /// k-th delay is sup 2*min(0.1*2^(k-1), 2) seconds.
    #[test]
    fn worst_totals_match_arena_policy() {
        let arena = BackoffPolicy::exponential(Dur::from_millis(100), Dur::from_secs(2));
        assert_eq!(arena.worst_total(0), Dur::ZERO);
        // One delay: 100 ms, jitter sup 2.
        assert_eq!(arena.worst_total(1), Dur::from_millis(200));
        // Four delays: 2*(0.1+0.2+0.4+0.8) = 3 s.
        assert_eq!(arena.worst_total(4), Dur::from_secs(3));
        // Ten delays: doubling 0.1..=1.6 (sum 3.1), then 2.0 reached at
        // delay 6; delays 6..=10 sit at the 2 s cap.
        // 2*(3.1 + 5*2.0) = 26.2 s.
        assert_eq!(arena.worst_total(10), Dur::from_millis(26_200));
    }

    #[test]
    fn pow2_is_powi_bit_for_bit() {
        for k in 0..=63u32 {
            assert_eq!(pow2(k).to_bits(), 2f64.powi(k as i32).to_bits(), "2^{k}");
        }
    }

    /// `delay_after` as it was written with `powi`: the oracle.
    fn delay_with_powi(p: &BackoffPolicy, failures: u32, rng: &mut StdRng) -> Dur {
        let BackoffPolicy::Exponential { base, cap, jitter } = *p else {
            unreachable!("only exponential policies draw powers of two")
        };
        let exponent = (failures - 1).min(63);
        let capped = base.mul_f64(2f64.powi(exponent as i32)).min(cap);
        let factor = if jitter {
            rng.random_range(1.0..2.0)
        } else {
            1.0
        };
        capped.mul_f64(factor)
    }

    #[test]
    fn delays_match_the_powi_formula_bit_for_bit() {
        let policies = [
            BackoffPolicy::ethernet(),
            BackoffPolicy::exponential(Dur::from_millis(100), Dur::from_secs(2)),
            BackoffPolicy::exponential(Dur::from_micros(1), Dur::MAX),
            BackoffPolicy::exponential(Dur::from_micros(3), Dur::from_micros(u64::MAX / 3)),
            BackoffPolicy::exponential(Dur::from_secs(7), Dur::from_secs(7)),
        ];
        for p in policies.into_iter().flat_map(|p| [p, p.without_jitter()]) {
            for seed in 0..8 {
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for failures in 1..=70 {
                    assert_eq!(
                        p.delay_after(failures, &mut a),
                        delay_with_powi(&p, failures, &mut b),
                        "{p:?} after {failures} failures, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn capped_tail_is_charged_in_closed_form() {
        let paper = BackoffPolicy::ethernet();
        // 1000 delays: 12 uncapped (sum 4095 s), 988 at the cap.
        let want = Dur::from_secs(2 * (4095 + 988 * 3600));
        assert_eq!(paper.worst_total(1000), want);
        // Absurd counts saturate instead of overflowing.
        assert_eq!(paper.worst_total(u32::MAX), Dur::MAX);
    }
}
