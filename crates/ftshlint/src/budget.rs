//! Worst-case retry-budget envelopes: the arithmetic.
//!
//! The envelope of a statement is a supremum on the wall-clock time the
//! *control structure itself* can consume: backoff delays between
//! attempts and deadline-bounded regions. External commands are charged
//! zero — the analysis bounds the overhead a retry discipline adds, not
//! the work being retried — so a time-limited `try` contributes its
//! deadline (the VM kills at the deadline regardless of what the body
//! does), while an attempt-limited `try` contributes its worst-case
//! backoff total plus `n` bodies.
//!
//! The backoff arithmetic is [`BackoffPolicy::worst_total`]: §4's
//! schedule (1 s doubled per consecutive failure to a 1 h cap, times a
//! random spreading factor drawn from [1, 2)) by default, or whatever
//! base and cap the caller configures — DESIGN §14 lists the four the
//! repo installs. [`Dur::MAX`] is the "unbounded" sentinel and prints
//! as `forever`.
//!
//! This module is the region cost and the saturating arithmetic; the
//! walk that applies them to a script — one derivation, over the
//! compiled bytecode — is [`crate::check::envelope_report`].

use retry::{BackoffPolicy, Dur};

pub(crate) fn sat_mul(d: Dur, n: u64) -> Dur {
    if d == Dur::MAX {
        return Dur::MAX;
    }
    Dur::from_micros(d.as_micros().saturating_mul(n))
}

pub(crate) fn sat_add(a: Dur, b: Dur) -> Dur {
    if a == Dur::MAX || b == Dur::MAX {
        return Dur::MAX;
    }
    Dur::from_micros(a.as_micros().saturating_add(b.as_micros()))
}

/// Worst-case cost of one `try` region given its body and catch
/// envelopes.
pub(crate) fn try_cost(
    policy: &BackoffPolicy,
    time: Option<Dur>,
    attempts: Option<u32>,
    every: Option<Dur>,
    body_env: Dur,
    catch_env: Dur,
) -> Dur {
    let by_attempts = match attempts {
        Some(n) if body_env != Dur::MAX => {
            let bodies = sat_mul(body_env, u64::from(n));
            let delays = n.saturating_sub(1);
            let waits = match every {
                Some(e) => sat_mul(e, u64::from(delays)),
                None => policy.worst_total(delays),
            };
            sat_add(bodies, waits)
        }
        _ => Dur::MAX,
    };
    let per_try = match time {
        // The deadline kills whatever is left, so it bounds the region
        // even when the attempt bound does not.
        Some(t) => t.min(by_attempts),
        None => by_attempts,
    };
    sat_add(per_try, catch_env)
}

/// Whether a computed word could ever expand to `name`. Substitution
/// segments expand to arbitrary strings (including empty), so the
/// word's literal runs must appear in `name` in order — anchored at
/// whichever ends of the word are literal. `${shimdir}/unreliable`
/// can therefore never name a function called `fetch` (every
/// expansion ends in `/unreliable`), while a bare `${cmd}` can name
/// anything.
pub(crate) fn pattern_can_match(
    lits: &[&str],
    anchored_start: bool,
    anchored_end: bool,
    name: &str,
) -> bool {
    let mut s = name;
    let mut lits = lits;
    if anchored_start {
        let Some((first, rest_lits)) = lits.split_first() else {
            return true;
        };
        match s.strip_prefix(first) {
            Some(rest) => {
                s = rest;
                lits = rest_lits;
            }
            None => return false,
        }
    }
    if anchored_end {
        let Some((last, rest_lits)) = lits.split_last() else {
            return true;
        };
        match s.strip_suffix(last) {
            Some(rest) => {
                s = rest;
                lits = rest_lits;
            }
            None => return false,
        }
    }
    for lit in lits {
        match s.find(lit) {
            Some(p) => s = &s[p + lit.len()..],
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{envelope_report, EnvelopeReport};
    use ftsh::bytecode::compile;
    use ftsh::parse;

    fn analyze(src: &str, policy: &BackoffPolicy) -> EnvelopeReport {
        envelope_report(&compile(&parse(src).unwrap().stmts), policy)
    }

    fn envelope(src: &str) -> Dur {
        analyze(src, &BackoffPolicy::ethernet()).envelope
    }

    #[test]
    fn attempt_limited_try_sums_bodies_and_backoff() {
        assert_eq!(envelope("try 5 times\n  work\nend\n"), Dur::from_secs(30));
        assert_eq!(
            envelope("try 10 times\n  work\nend\n"),
            Dur::from_secs(1022)
        );
        assert_eq!(
            envelope("try 15 times\n  work\nend\n"),
            Dur::from_secs(22_590)
        );
    }

    #[test]
    fn attempt_limited_try_under_arena_policy() {
        // Same scripts, arena constants: the whole closed form shifts.
        let arena = BackoffPolicy::exponential(Dur::from_millis(100), Dur::from_secs(2));
        let env = |src: &str| analyze(src, &arena).envelope;
        // try 5 times: 2*(0.1+0.2+0.4+0.8) = 3 s.
        assert_eq!(env("try 5 times\n  work\nend\n"), Dur::from_secs(3));
        // try 10 times: 2*(3.1 + 4*2.0) = 22.2 s (cap from delay 6).
        assert_eq!(env("try 10 times\n  work\nend\n"), Dur::from_millis(22_200));
        // `every` overrides the policy identically in both worlds.
        assert_eq!(
            env("try 4 times every 10 seconds\n  work\nend\n"),
            Dur::from_secs(30)
        );
        // Deadlines are policy-independent.
        assert_eq!(env("try for 5 minutes\n  work\nend\n"), Dur::from_mins(5));
    }

    #[test]
    fn every_overrides_backoff() {
        assert_eq!(
            envelope("try 4 times every 10 seconds\n  work\nend\n"),
            Dur::from_secs(30)
        );
    }

    #[test]
    fn deadline_bounds_the_region() {
        assert_eq!(
            envelope("try for 5 minutes\n  work\nend\n"),
            Dur::from_mins(5)
        );
        // The attempt bound is tighter than the deadline here.
        assert_eq!(
            envelope("try for 1 hour or 5 times\n  work\nend\n"),
            Dur::from_secs(30)
        );
        // ... and the deadline is tighter than 10 attempts' backoff.
        assert_eq!(
            envelope("try for 2 minutes or 10 times\n  work\nend\n"),
            Dur::from_mins(2)
        );
    }

    #[test]
    fn unbounded_try_is_forever() {
        assert_eq!(envelope("try\n  work\nend\n"), Dur::MAX);
        // An enclosing deadline restores the bound.
        assert_eq!(
            envelope("try for 10 minutes\n  try\n    work\n  end\nend\n"),
            Dur::from_mins(10)
        );
    }

    #[test]
    fn structure_composes() {
        // forany multiplies by alternatives; catch adds.
        assert_eq!(
            envelope("forany h in a b\n  try 5 times\n    f ${h}\n  end\nend\n"),
            Dur::from_secs(60)
        );
        assert_eq!(
            envelope("try 5 times\n  work\ncatch\n  try 5 times\n    cleanup\n  end\nend\n"),
            Dur::from_secs(60)
        );
        // forall joins on the slowest branch, not the sum.
        assert_eq!(
            envelope("forall h in a b c\n  try 5 times\n    f ${h}\n  end\nend\n"),
            Dur::from_secs(30)
        );
        // if takes the worse arm.
        assert_eq!(
            envelope(
                "if ${x} .lt. 1\n  try 5 times\n    a\n  end\nelse\n  try 10 times\n    b\n  end\nend\n"
            ),
            Dur::from_secs(1022)
        );
    }

    #[test]
    fn function_bodies_charge_at_call_sites() {
        let src = "function f\n  try 5 times\n    work\n  end\nend\nf\nf\n";
        assert_eq!(envelope(src), Dur::from_secs(60));
        // Never-called functions cost nothing.
        let src = "function f\n  try 5 times\n    work\n  end\nend\ntrue\n";
        assert_eq!(envelope(src), Dur::ZERO);
    }

    #[test]
    fn calls_before_the_definition_are_charged() {
        // The compiler resolves function ids whole-script, so a call
        // textually before the definition still dispatches to it; the
        // envelope charges it the same way.
        let src = "f\nfunction f\n  try 5 times\n    work\n  end\nend\n";
        assert_eq!(envelope(src), Dur::from_secs(30));
    }

    #[test]
    fn self_recursion_saturates_and_is_reported() {
        let src = "function f\n  work\n  f\nend\nf\n";
        let a = analyze(src, &BackoffPolicy::ethernet());
        assert_eq!(a.envelope, Dur::MAX);
        assert_eq!(a.recursive.len(), 1);
        assert_eq!(a.recursive[0].0, "f");
        assert!(a.dynamic.is_empty());
    }

    #[test]
    fn mutual_and_forward_recursion_saturate() {
        // f calls g, g calls f: both sit on the cycle.
        let src = "function f\n  g\nend\nfunction g\n  f\nend\nf\n";
        let a = analyze(src, &BackoffPolicy::ethernet());
        assert_eq!(a.envelope, Dur::MAX);
        // At least the detection point is named; the envelope is MAX
        // regardless of which cycle member is reported.
        assert!(!a.recursive.is_empty());
        // An uncalled recursive function still surfaces the diagnostic
        // but cannot blow up the main envelope.
        let src = "function f\n  f\nend\ntrue\n";
        let a = analyze(src, &BackoffPolicy::ethernet());
        assert_eq!(a.envelope, Dur::ZERO);
        assert!(a.recursive.is_empty(), "never costed, never flagged");
    }

    #[test]
    fn dynamic_dispatch_saturates_and_is_reported() {
        // ${cmd} could name f: the callee set is unknown.
        let src = "function f\n  work\nend\ncmd=f\n${cmd} x\n";
        let a = analyze(src, &BackoffPolicy::ethernet());
        assert_eq!(a.envelope, Dur::MAX);
        assert_eq!(a.dynamic.len(), 1);
        // Without any defined functions a computed argv0 is plain
        // external work: zero, no diagnostic.
        let src = "cmd=ls\n${cmd} x\n";
        let a = analyze(src, &BackoffPolicy::ethernet());
        assert_eq!(a.envelope, Dur::ZERO);
        assert!(a.dynamic.is_empty());
    }

    #[test]
    fn nested_attempts_multiply() {
        // Outer 3 attempts of (2 inner attempts + 2 s inner backoff) +
        // outer backoff 2*(1+2) = 6: 3*2 + 6 = inner bodies are zero,
        // so 3*(2 s) + 6 s = 12 s.
        assert_eq!(
            envelope("try 3 times\n  try 2 times\n    work\n  end\nend\n"),
            Dur::from_secs(12)
        );
    }
}
