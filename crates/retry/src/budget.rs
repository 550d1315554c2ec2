//! Try budgets: the user's expressed limit of tolerance for failure.
//!
//! A `try` in ftsh may be bounded by wall time (`try for 1 hour`), by a
//! number of attempts (`try 5 times`), or by both, whichever expires
//! first (`try for 1 hour or 3 times`). [`TryBudget`] is the static
//! description and [`TrySession`] tracks one live `try` block: attempts
//! made, the consecutive-failure backoff streak, and the absolute
//! deadline.

use crate::backoff::BackoffPolicy;
use crate::time::{Dur, Time};
use rand::Rng;

/// Static limits for a `try` construct.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TryBudget {
    /// Total time allowed across all attempts and backoff delays.
    pub time_limit: Option<Dur>,
    /// Maximum number of attempts started.
    pub attempt_limit: Option<u32>,
    /// Delay policy between failed attempts.
    pub backoff: BackoffPolicy,
}

impl TryBudget {
    /// `try for <d>` with the paper's default backoff.
    pub fn for_time(d: Dur) -> TryBudget {
        TryBudget {
            time_limit: Some(d),
            attempt_limit: None,
            backoff: BackoffPolicy::ethernet(),
        }
    }

    /// `try <n> times` with the paper's default backoff.
    pub fn times(n: u32) -> TryBudget {
        TryBudget {
            time_limit: None,
            attempt_limit: Some(n),
            backoff: BackoffPolicy::ethernet(),
        }
    }

    /// Unlimited attempts and time (the bare `try ... end` loop); only
    /// sensible nested under an outer bounded try.
    pub fn unbounded() -> TryBudget {
        TryBudget {
            time_limit: None,
            attempt_limit: None,
            backoff: BackoffPolicy::ethernet(),
        }
    }

    /// Replace the backoff policy.
    pub fn with_backoff(mut self, p: BackoffPolicy) -> TryBudget {
        self.backoff = p;
        self
    }
}

/// What a failed attempt leads to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NextAttempt {
    /// Sleep until the given instant, then attempt again.
    RetryAt(Time),
    /// The budget is spent: the `try` as a whole fails.
    Exhausted,
}

/// One live execution of a `try` block.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use retry::{Dur, NextAttempt, Time, TryBudget, TrySession};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut s = TrySession::start(TryBudget::times(2), Time::ZERO);
/// assert!(s.begin_attempt(Time::ZERO));
/// // First failure: backoff, retry allowed.
/// assert!(matches!(s.on_failure(Time::ZERO, &mut rng), NextAttempt::RetryAt(_)));
/// assert!(s.begin_attempt(Time::from_secs(2)));
/// // Second failure exhausts the two-attempt budget.
/// assert_eq!(s.on_failure(Time::from_secs(2), &mut rng), NextAttempt::Exhausted);
/// ```
#[derive(Clone, Debug)]
pub struct TrySession {
    /// The limits, and the one copy of the backoff policy.
    budget: TryBudget,
    started: Time,
    attempts: u32,
    /// Consecutive failures so far.
    failures: u32,
}

impl TrySession {
    /// Open a session at instant `now`. The deadline, if any, is fixed
    /// from this moment.
    pub fn start(budget: TryBudget, now: Time) -> TrySession {
        TrySession {
            budget,
            started: now,
            attempts: 0,
            failures: 0,
        }
    }

    /// The absolute deadline of this session, if time-limited.
    pub fn deadline(&self) -> Option<Time> {
        self.budget
            .time_limit
            .map(|d| self.started.saturating_add(d))
    }

    /// Attempts started so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// True if the deadline has passed at `now`.
    pub fn expired(&self, now: Time) -> bool {
        match self.deadline() {
            Some(d) => now >= d,
            None => false,
        }
    }

    /// May another attempt begin at `now`? Checks both limits. Callers
    /// must invoke this before each attempt; when it returns `true` the
    /// attempt is counted as started.
    pub fn begin_attempt(&mut self, now: Time) -> bool {
        if self.expired(now) {
            return false;
        }
        if let Some(n) = self.budget.attempt_limit {
            if self.attempts >= n {
                return false;
            }
        }
        self.attempts += 1;
        true
    }

    /// Record that the current attempt failed at `now` and decide what
    /// happens next. A retry whose wake-up instant would land on or
    /// past the deadline is pointless (it would be killed immediately),
    /// so it is reported as [`NextAttempt::Exhausted`].
    pub fn on_failure<R: Rng + ?Sized>(&mut self, now: Time, rng: &mut R) -> NextAttempt {
        if let Some(n) = self.budget.attempt_limit {
            if self.attempts >= n {
                return NextAttempt::Exhausted;
            }
        }
        self.failures = self.failures.saturating_add(1);
        let delay = self.budget.backoff.delay_after(self.failures, rng);
        let wake = now.saturating_add(delay);
        match self.deadline() {
            Some(d) if wake >= d => NextAttempt::Exhausted,
            _ => NextAttempt::RetryAt(wake),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn nojitter(b: TryBudget) -> TryBudget {
        let p = b.backoff.without_jitter();
        b.with_backoff(p)
    }

    #[test]
    fn attempt_limit_enforced() {
        let mut r = rng();
        let mut s = TrySession::start(nojitter(TryBudget::times(3)), Time::ZERO);
        let mut now = Time::ZERO;
        for i in 0..3 {
            assert!(s.begin_attempt(now), "attempt {i} should be allowed");
            match s.on_failure(now, &mut r) {
                NextAttempt::RetryAt(t) => now = t,
                NextAttempt::Exhausted => {
                    assert_eq!(i, 2, "exhausted only after the 3rd failure");
                    return;
                }
            }
        }
        assert!(!s.begin_attempt(now));
    }

    #[test]
    fn deadline_is_absolute() {
        let b = nojitter(TryBudget::for_time(Dur::from_mins(5)));
        let s = TrySession::start(b, Time::from_secs(100));
        assert_eq!(s.deadline(), Some(Time::from_secs(400)));
        assert!(!s.expired(Time::from_secs(399)));
        assert!(s.expired(Time::from_secs(400)));
    }

    #[test]
    fn no_attempt_after_deadline() {
        let b = nojitter(TryBudget::for_time(Dur::from_secs(10)));
        let mut s = TrySession::start(b, Time::ZERO);
        assert!(s.begin_attempt(Time::from_secs(9)));
        assert!(!s.begin_attempt(Time::from_secs(10)));
        assert!(!s.begin_attempt(Time::from_secs(11)));
    }

    #[test]
    fn retry_past_deadline_is_exhausted() {
        let mut r = rng();
        // 3 s budget, 2 s constant backoff: first failure at t=2 would
        // wake at t=4 >= deadline t=3 -> exhausted.
        let b = TryBudget::for_time(Dur::from_secs(3))
            .with_backoff(BackoffPolicy::Constant(Dur::from_secs(2)));
        let mut s = TrySession::start(b, Time::ZERO);
        assert!(s.begin_attempt(Time::ZERO));
        assert_eq!(
            s.on_failure(Time::from_secs(2), &mut r),
            NextAttempt::Exhausted
        );
    }

    #[test]
    fn retry_within_deadline_waits_backoff() {
        let mut r = rng();
        let b = nojitter(TryBudget::for_time(Dur::from_mins(10)));
        let mut s = TrySession::start(b, Time::ZERO);
        assert!(s.begin_attempt(Time::ZERO));
        // First failure: 1 s backoff.
        assert_eq!(
            s.on_failure(Time::from_secs(1), &mut r),
            NextAttempt::RetryAt(Time::from_secs(2))
        );
        assert!(s.begin_attempt(Time::from_secs(2)));
        // Second consecutive failure: 2 s backoff.
        assert_eq!(
            s.on_failure(Time::from_secs(3), &mut r),
            NextAttempt::RetryAt(Time::from_secs(5))
        );
    }

    #[test]
    fn both_limits_whichever_first() {
        let mut r = rng();
        // Generous time, tight attempts.
        let b = TryBudget {
            attempt_limit: Some(2),
            ..nojitter(TryBudget::for_time(Dur::from_hours(1)))
        };
        let mut s = TrySession::start(b, Time::ZERO);
        assert!(s.begin_attempt(Time::ZERO));
        assert!(matches!(
            s.on_failure(Time::ZERO, &mut r),
            NextAttempt::RetryAt(_)
        ));
        assert!(s.begin_attempt(Time::from_secs(1)));
        assert_eq!(
            s.on_failure(Time::from_secs(1), &mut r),
            NextAttempt::Exhausted
        );
    }

    #[test]
    fn unbounded_never_exhausts() {
        let mut r = rng();
        let mut s = TrySession::start(nojitter(TryBudget::unbounded()), Time::ZERO);
        let mut now = Time::ZERO;
        for _ in 0..100 {
            assert!(s.begin_attempt(now));
            match s.on_failure(now, &mut r) {
                NextAttempt::RetryAt(t) => now = t,
                NextAttempt::Exhausted => panic!("unbounded session exhausted"),
            }
        }
        assert_eq!(s.attempts(), 100);
    }
}
