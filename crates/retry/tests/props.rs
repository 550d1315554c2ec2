//! Property tests for the time and backoff primitives.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use retry::time::parse_duration;
use retry::{BackoffPolicy, Dur, Time};

/// Every policy the repo installs: the paper's (fig1–fig7 and the
/// analyzer's default), fig8/fig9's 500 ms / 4 s, coord-live's
/// 25 ms / 400 ms, the live arena's 100 ms / 2 s, a constant `every`
/// interval, and Fixed's no delay at all.
fn installed_policies() -> [BackoffPolicy; 6] {
    let ms = Dur::from_millis;
    [
        BackoffPolicy::ethernet(),
        BackoffPolicy::exponential(ms(500), ms(4000)),
        BackoffPolicy::exponential(ms(25), ms(400)),
        BackoffPolicy::exponential(ms(100), ms(2000)),
        BackoffPolicy::Constant(ms(10)),
        BackoffPolicy::None,
    ]
}

/// Σ `delay_after(1..=k)` drawn from one seeded stream, as a `try`
/// failing `k` times in a row draws them.
fn drawn_total(p: &BackoffPolicy, k: u32, seed: u64) -> Dur {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=k).fold(Dur::ZERO, |sum, i| sum + p.delay_after(i, &mut rng))
}

proptest! {
    /// Time + Dur arithmetic is consistent: (t + d) - t == d whenever
    /// no saturation occurs.
    #[test]
    fn add_then_sub_roundtrips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = Time::from_micros(t);
        let dur = Dur::from_micros(d);
        prop_assert_eq!((time + dur) - time, dur);
    }

    /// Duration addition is commutative and associative under
    /// saturation.
    #[test]
    fn dur_add_commutes(a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (Dur::from_micros(a), Dur::from_micros(b));
        prop_assert_eq!(a + b, b + a);
    }

    /// `saturating_since` is the inverse of addition and clamps
    /// negative spans to zero.
    #[test]
    fn saturating_since_clamps(a in any::<u64>(), b in any::<u64>()) {
        let (ta, tb) = (Time::from_micros(a), Time::from_micros(b));
        if a >= b {
            prop_assert_eq!(ta.saturating_since(tb), Dur::from_micros(a - b));
        } else {
            prop_assert_eq!(ta.saturating_since(tb), Dur::ZERO);
        }
    }

    /// mul_f64 by a factor in [1, 2] stays within [d, 2d] (+1us for
    /// rounding).
    #[test]
    fn mul_f64_bounds(us in 0u64..u64::MAX / 4, k in 1.0f64..2.0) {
        let d = Dur::from_micros(us);
        let m = d.mul_f64(k);
        prop_assert!(m >= d);
        prop_assert!(m.as_micros() <= us.saturating_mul(2) + 1);
    }

    /// Duration parsing accepts every canonical unit spelling and
    /// scales linearly.
    #[test]
    fn parse_duration_scales(n in 1u64..10_000) {
        prop_assert_eq!(parse_duration(n, "seconds"), Some(Dur::from_secs(n)));
        prop_assert_eq!(parse_duration(n, "minutes"), Some(Dur::from_mins(n)));
        prop_assert_eq!(parse_duration(n, "ms"), Some(Dur::from_millis(n)));
        prop_assert_eq!(
            parse_duration(n, "minutes").unwrap().as_secs(),
            60 * n
        );
    }

    /// Backoff is monotone in the failure count when unjittered.
    #[test]
    fn unjittered_backoff_is_monotone(k in 1u32..40) {
        let mut rng = StdRng::seed_from_u64(0);
        let p = BackoffPolicy::ethernet().without_jitter();
        let a = p.delay_after(k, &mut rng);
        let b = p.delay_after(k + 1, &mut rng);
        prop_assert!(b >= a);
    }

    /// §4's backoff window: after the k-th consecutive failure the
    /// jittered delay lies in [c, 2c) with c = min(base·2^(k-1), cap)
    /// — the random factor spreads within one octave, and the one-hour
    /// cap binds *before* jitter, so no delay ever reaches 2·cap.
    /// (+2 µs tolerance for f64 rounding in mul_f64.)
    #[test]
    fn ethernet_backoff_window_and_cap(k in 1u32..200, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = BackoffPolicy::ethernet();
        let base = Dur::from_secs(1);
        let cap = Dur::from_hours(1);
        let c = base.mul_f64(2f64.powi((k - 1).min(63) as i32)).min(cap);
        let d = p.delay_after(k, &mut rng);
        prop_assert!(d >= c, "k={} delay {} under floor {}", k, d, c);
        prop_assert!(
            d.as_micros() < c.as_micros().saturating_mul(2) + 2,
            "k={} delay {} above ceiling 2*{}", k, d, c
        );
        prop_assert!(d.as_micros() < cap.as_micros() * 2 + 2);
        // Without jitter the cap is exact at every attempt count.
        prop_assert!(p.without_jitter().delay_after(k, &mut rng) <= cap);
    }

    /// The static envelope bounds what a VM can actually wait: under
    /// every policy the repo installs, the seeded sum of the first `k`
    /// drawn delays never exceeds `worst_total(k)` — for the first 64
    /// failures and deep into the capped tail.
    #[test]
    fn drawn_delays_never_exceed_the_envelope(
        k in 1u32..65,
        tail in 65u32..2048,
        seed in any::<u64>(),
    ) {
        for p in installed_policies() {
            for n in [k, tail] {
                let drawn = drawn_total(&p, n, seed);
                prop_assert!(drawn <= p.worst_total(n), "{:?} k={} drew {}", p, n, drawn);
            }
        }
    }

    /// For the exponential policies the envelope is exactly the jitter
    /// factor's open upper edge (2) times the un-jittered schedule, and
    /// without jitter it is that schedule itself.
    #[test]
    fn exponential_envelope_is_twice_the_unjittered_sum(k in 1u32..65, tail in 65u32..2048) {
        for p in installed_policies() {
            if !matches!(p, BackoffPolicy::Exponential { .. }) {
                continue;
            }
            let flat = p.without_jitter();
            for n in [k, tail] {
                let sum = drawn_total(&flat, n, 0);
                prop_assert_eq!(p.worst_total(n), sum * 2, "{:?} k={}", p, n);
                prop_assert_eq!(flat.worst_total(n), sum, "{:?} k={}", flat, n);
            }
        }
    }

    /// Display uses the largest exact unit: whole hours print as
    /// hours, whole non-hour minutes as minutes.
    #[test]
    fn display_of_whole_units(n in 1u64..1000) {
        prop_assert_eq!(Dur::from_secs(n * 3600).to_string(), format!("{n}h"));
        if n % 60 != 0 {
            prop_assert_eq!(Dur::from_secs(n * 60).to_string(), format!("{n}m"));
        }
    }
}
