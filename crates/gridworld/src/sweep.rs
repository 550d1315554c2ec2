//! Parallel fan-out of independent sweep points across OS threads.
//!
//! The multi-point figures (1, 4, 5 and the ablations) run one
//! discrete-event simulation per `(discipline, population)` point, and
//! the points share nothing: each builds its own world, VM population
//! and seeded RNG stream. [`map`] exploits that independence by
//! fanning the points over `std::thread::scope` workers while
//! preserving input order in the output, so a parallel sweep is
//! bit-identical to a sequential one — per-point determinism is a
//! property of the point's seed, not of scheduling.
//!
//! Worker count defaults to the machine's available parallelism
//! (capped by the number of points) and can be pinned with the
//! `EG_SWEEP_THREADS` environment variable; `EG_SWEEP_THREADS=1`
//! forces the sequential baseline the perf harness compares against.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Once, OnceLock};

/// The worker count [`map`] would use for `n_items` points: available
/// parallelism capped by the item count, overridden by
/// `EG_SWEEP_THREADS` when set.
///
/// An unusable override (not a number, or zero) falls back to the
/// default — but warns once on stderr naming the rejected value, so a
/// typo like `EG_SWEEP_THREADS=two` cannot silently benchmark the
/// wrong configuration.
pub fn configured_threads(n_items: usize) -> usize {
    let n = match std::env::var("EG_SWEEP_THREADS") {
        Ok(v) => parse_thread_override(&v).unwrap_or_else(|| {
            let default = host_threads();
            static WARN: Once = Once::new();
            WARN.call_once(|| {
                eprintln!(
                    "warning: ignoring EG_SWEEP_THREADS={v:?}: \
                     expected a positive integer, using default ({default})"
                );
            });
            default
        }),
        Err(_) => host_threads(),
    };
    n.min(n_items).max(1)
}

/// The host's available parallelism, asked once per process: the
/// answer comes from cgroup files (≈20 µs a call), and a figure run
/// sweeps many times.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Parse an `EG_SWEEP_THREADS` value: a positive integer, or `None`
/// for anything unusable (non-numeric, zero).
pub fn parse_thread_override(v: &str) -> Option<usize> {
    match v.trim().parse::<usize>() {
        Ok(t) if t > 0 => Some(t),
        _ => None,
    }
}

/// Apply `f` to every item, fanning across [`configured_threads`]
/// scoped threads. Output order matches input order exactly.
pub fn map<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    map_with_threads(configured_threads(items.len()), items, f)
}

/// [`map`] with an explicit worker count (1 = run on this thread).
pub fn map_with_threads<I, O, F>(threads: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<O>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut failed: Vec<(usize, String)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(items.len()))
            .map(|_| {
                scope.spawn(|| {
                    // Work-stealing by index: uneven point costs (a 500-
                    // client run vs a 5-client run) balance themselves.
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return Ok(local);
                        }
                        // Catch a panicking point so we can report
                        // *which* point died, not just that a worker
                        // did.
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                            || f(&items[i]),
                        )) {
                            Ok(out) => local.push((i, out)),
                            Err(payload) => return Err((i, panic_message(payload.as_ref()))),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            match h
                .join()
                .expect("sweep worker cannot panic: points are caught")
            {
                Ok(outs) => {
                    for (i, out) in outs {
                        slots[i] = Some(out);
                    }
                }
                Err(fail) => failed.push(fail),
            }
        }
    });
    if !failed.is_empty() {
        failed.sort_by_key(|&(i, _)| i);
        let (i, msg) = &failed[0];
        panic!(
            "sweep point {i} of {n} panicked: {msg}{more}",
            n = items.len(),
            more = if failed.len() > 1 {
                format!(" ({} more point(s) also panicked)", failed.len() - 1)
            } else {
                String::new()
            },
        );
    }
    slots
        .into_iter()
        .map(|o| o.expect("every index was claimed exactly once"))
        .collect()
}

/// Best-effort rendering of a panic payload (the `&str`/`String` cases
/// `panic!` produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = map_with_threads(8, &items, |&i| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let f = |&i: &u64| {
            // A little arithmetic per item so threads interleave.
            (0..1000u64).fold(i, |a, b| a.wrapping_mul(31).wrapping_add(b))
        };
        assert_eq!(
            map_with_threads(1, &items, f),
            map_with_threads(6, &items, f)
        );
    }

    #[test]
    fn single_item_runs_inline() {
        let out = map_with_threads(8, &[42], |&i: &i32| i + 1);
        assert_eq!(out, vec![43]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = map_with_threads(4, &[], |&i: &i32| i);
        assert!(out.is_empty());
    }

    #[test]
    fn configured_threads_is_capped_by_items() {
        assert_eq!(configured_threads(1), 1);
        assert!(configured_threads(1000) >= 1);
    }

    #[test]
    fn thread_override_rejects_garbage() {
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override(" 2 "), Some(2));
        assert_eq!(parse_thread_override("two"), None);
        assert_eq!(parse_thread_override("0"), None);
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("-1"), None);
    }

    #[test]
    #[should_panic(expected = "sweep point 3 of 8 panicked: point 3 exploded")]
    fn panicking_point_is_identified() {
        let items: Vec<usize> = (0..8).collect();
        let _ = map_with_threads(4, &items, |&i| {
            assert!(i != 3, "point {i} exploded");
            i
        });
    }

    #[test]
    fn first_failing_point_wins_the_report() {
        let items: Vec<usize> = (0..16).collect();
        let res = std::panic::catch_unwind(|| {
            map_with_threads(4, &items, |&i| {
                assert!(i % 2 != 1, "odd point {i}");
                i
            })
        });
        let payload = res.expect_err("sweep must propagate the panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            msg.starts_with("sweep point 1 of 16 panicked: odd point 1"),
            "unexpected message: {msg}"
        );
    }
}
