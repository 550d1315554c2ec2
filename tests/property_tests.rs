//! Property-based tests on the core invariants, spanning crates.

use ethernet_grid::retry::{BackoffPolicy, Dur, NextAttempt, Time, TryBudget, TrySession};
use ethernet_grid::simgrid::{DiskBuffer, EventQueue, FdTable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// retry: backoff bounds and budget monotonicity
// ---------------------------------------------------------------------

proptest! {
    /// The jittered delay is always within [pure, 2*pure] where pure is
    /// the unjittered, capped exponential delay.
    #[test]
    fn backoff_jitter_bounds(failures in 1u32..64, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = BackoffPolicy::ethernet();
        let pure = p.without_jitter().delay_after(failures, &mut rng);
        let d = p.delay_after(failures, &mut rng);
        prop_assert!(d >= pure);
        prop_assert!(d.as_micros() <= pure.as_micros().saturating_mul(2) + 1);
    }

    /// Backoff delays never exceed the cap times the maximum jitter.
    #[test]
    fn backoff_never_exceeds_cap(failures in 1u32..10_000, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = BackoffPolicy::ethernet().delay_after(failures, &mut rng);
        prop_assert!(d <= Dur::from_hours(2));
    }

    /// A time-limited session never allows an attempt to begin at or
    /// after its deadline, and never schedules a wake at or past it.
    #[test]
    fn try_session_respects_deadline(
        limit_s in 1u64..3600,
        seed in any::<u64>(),
        failures in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budget = TryBudget::for_time(Dur::from_secs(limit_s));
        let mut s = TrySession::start(budget, Time::from_secs(5));
        let deadline = s.deadline().unwrap();
        let mut now = Time::from_secs(5);
        for _ in 0..failures {
            if !s.begin_attempt(now) {
                prop_assert!(now >= deadline);
                return Ok(());
            }
            prop_assert!(now < deadline);
            match s.on_failure(now, &mut rng) {
                NextAttempt::RetryAt(t) => {
                    prop_assert!(t < deadline, "wake {t:?} at/past deadline {deadline:?}");
                    now = t;
                }
                NextAttempt::Exhausted => return Ok(()),
            }
        }
    }

    /// An attempt-limited session makes exactly its limit of attempts.
    #[test]
    fn try_session_attempt_limit_exact(n in 1u32..50, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = TrySession::start(TryBudget::times(n), Time::ZERO);
        let mut now = Time::ZERO;
        let mut attempts = 0;
        loop {
            if !s.begin_attempt(now) {
                break;
            }
            attempts += 1;
            match s.on_failure(now, &mut rng) {
                NextAttempt::RetryAt(t) => now = t,
                NextAttempt::Exhausted => break,
            }
        }
        prop_assert_eq!(attempts, n);
    }
}

// ---------------------------------------------------------------------
// simgrid: event order, FD conservation, disk accounting
// ---------------------------------------------------------------------

proptest! {
    /// Pops come out in nondecreasing time order regardless of insert
    /// order, with ties broken by insertion sequence.
    #[test]
    fn event_queue_is_totally_ordered(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::from_secs(t), i);
        }
        let mut last_time = Time::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        while let Some((t, i)) = q.pop() {
            prop_assert!(t >= last_time);
            if t > last_time {
                seen_at_time.clear();
            }
            // Ties: indices increase (insertion order).
            if let Some(&prev) = seen_at_time.last() {
                prop_assert!(i > prev, "tie broken out of order");
            }
            seen_at_time.push(i);
            last_time = t;
        }
    }

    /// Alloc/release sequences conserve descriptors and never go
    /// negative or above capacity.
    #[test]
    fn fd_table_conserves(ops in proptest::collection::vec((0u64..200, any::<bool>()), 1..200)) {
        let mut t = FdTable::new(1000);
        let mut held: Vec<u64> = Vec::new();
        for (n, release) in ops {
            if release && !held.is_empty() {
                let n = held.pop().unwrap();
                t.release(n);
            } else if t.alloc(n).is_ok() {
                held.push(n);
            }
            let total: u64 = held.iter().sum();
            prop_assert_eq!(t.in_use(), total);
            prop_assert!(t.in_use() <= t.capacity());
        }
    }

    /// Disk usage equals the sum of live file sizes at all times and
    /// never exceeds capacity, across arbitrary create/write/complete/
    /// delete interleavings.
    #[test]
    fn disk_buffer_accounting(ops in proptest::collection::vec((0u8..5, 0u64..4096), 1..300)) {
        let mut d = DiskBuffer::new(64 * 1024);
        let mut live: Vec<ethernet_grid::simgrid::FileId> = Vec::new();
        let mut sizes = std::collections::HashMap::<_, u64>::default();
        for (op, arg) in ops {
            match op {
                0 => {
                    let id = d.create();
                    live.push(id);
                    sizes.insert(id, 0);
                }
                1 if !live.is_empty() => {
                    let id = live[arg as usize % live.len()];
                    match d.write(id, arg) {
                        Ok(()) => {
                            *sizes.get_mut(&id).unwrap() += arg;
                        }
                        Err(_) => {
                            // ENOSPC deletes the file; other errors keep it.
                            if d.size_of(id).is_none() {
                                live.retain(|&x| x != id);
                                sizes.remove(&id);
                            }
                        }
                    }
                }
                2 if !live.is_empty() => {
                    let id = live[arg as usize % live.len()];
                    let _ = d.complete(id);
                }
                3 if !live.is_empty() => {
                    let id = live[arg as usize % live.len()];
                    if d.delete(id).is_ok() {
                        live.retain(|&x| x != id);
                        sizes.remove(&id);
                    }
                }
                _ => {}
            }
            let expect: u64 = sizes.values().sum();
            prop_assert_eq!(d.used(), expect);
            prop_assert!(d.used() <= d.capacity());
        }
    }
}
