//! Differential tests for the event kernel: for arbitrary
//! interleavings of schedules and pops, the radix queue must yield the
//! identical `(time, event)` sequence as a reference single-heap queue
//! — the legacy kernel, which breaks ties by a sequence number the
//! radix queue does not store — and, given an end, that sequence cut at
//! the end, with everything later counted as discarded. Every event
//! is scheduled for a random owner, `NO_OWNER` among them. Before every
//! pop, `peek` must show the legacy heap's head and `lookahead` name
//! its owner. A proptest
//! explores shrinkable interleavings; a seeded long haul pushes
//! millions of operations over every bucket.

use proptest::prelude::*;
use retry::Time;
use simgrid::{EventQueue, SimRng, NO_OWNER};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The legacy kernel, restated: one global max-heap, inverted on
/// `(timestamp, insertion seq)`, each event beside its owner.
#[derive(Default)]
struct LegacyQueue {
    heap: BinaryHeap<Reverse<(Time, u64, u32, u32)>>,
    seq: u64,
    now: Time,
}

impl LegacyQueue {
    fn schedule(&mut self, at: Time, owner: u32, event: u32) {
        let at = at.max(self.now);
        self.heap.push(Reverse((at, self.seq, event, owner)));
        self.seq += 1;
    }

    /// What the next `pop` returns.
    fn peek(&self) -> Option<(Time, u32)> {
        self.heap.peek().map(|&Reverse((at, _, ev, _))| (at, ev))
    }

    /// What `lookahead` reports before the next `pop`: the head's
    /// owner, unless it has none.
    fn owner(&self) -> Option<u32> {
        let &Reverse((_, _, _, owner)) = self.heap.peek()?;
        (owner != NO_OWNER).then_some(owner)
    }

    fn pop(&mut self) -> Option<(Time, u32)> {
        let Reverse((at, _, ev, _)) = self.heap.pop()?;
        self.now = at;
        Some((at, ev))
    }
}

/// One second: instants on either side of a multiple of it (or of
/// any power of two) are where a bucketed queue can misfile an event.
const BUCKET_US: u64 = 1_000_000;

/// When a scheduled event is due, relative to the current clock.
#[derive(Clone, Debug)]
enum When {
    /// `mantissa × 10^exp` microseconds from now: a heavy tail from
    /// 1 µs to ten days, so one interleaving mixes events in low and
    /// high radix buckets.
    In { mantissa: u64, exp: u32 },
    /// Exactly on the boundary `buckets` buckets ahead (the first
    /// instant of that bucket), or one microsecond before it (the last
    /// instant of the bucket before).
    Boundary { buckets: u64, before: bool },
    /// Exactly the current instant: the FIFO of events at `now`,
    /// behind whatever is already due.
    Now,
    /// `Time::MAX`.
    Never,
}

impl When {
    fn at(&self, now: Time) -> Time {
        let now = now.as_micros();
        Time::from_micros(match *self {
            When::In { mantissa, exp } => now.saturating_add(mantissa * 10u64.pow(exp)),
            When::Boundary { buckets, before } => (now / BUCKET_US)
                .saturating_add(buckets)
                .saturating_mul(BUCKET_US)
                .saturating_sub(u64::from(before))
                .max(now),
            When::Now => now,
            When::Never => u64::MAX,
        })
    }
}

/// One step of an interleaving: schedule events, each for an owner —
/// one, or a burst that fills many buckets at once — or pop a run of
/// heads. With the heavy tail above a long run carries the clock hours
/// forward, so buckets are emptied and refilled many times within one
/// case.
#[derive(Clone, Debug)]
enum Op {
    Schedule(Vec<(When, u32)>),
    Pop(usize),
}

fn when_strategy() -> impl Strategy<Value = When> {
    prop_oneof![
        12 => (1u64..10, 0u32..12).prop_map(|(mantissa, exp)| When::In { mantissa, exp }),
        4 => (1u64..700, any::<bool>()).prop_map(|(buckets, before)| When::Boundary {
            buckets,
            before
        }),
        2 => Just(When::Now),
        1 => Just(When::Never),
    ]
}

/// Whom an event is scheduled for: anyone, or no one.
fn owner_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![4 => any::<u32>(), 1 => Just(NO_OWNER)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let event = || (when_strategy(), owner_strategy());
    prop_oneof![
        6 => proptest::collection::vec(event(), 1..2).prop_map(Op::Schedule),
        1 => proptest::collection::vec(event(), 20..300).prop_map(Op::Schedule),
        3 => Just(Op::Pop(1)),
        1 => (2usize..200).prop_map(Op::Pop),
    ]
}

/// Where a run ends: on a one-second boundary, one microsecond either
/// side of it — near the clock's start, where boundary schedules land
/// on it, or far past it — or never.
fn end_strategy() -> impl Strategy<Value = Time> {
    let boundary = |buckets: std::ops::Range<u64>| {
        (buckets, -1i64..2)
            .prop_map(|(b, side)| Time::from_micros((b * BUCKET_US).saturating_add_signed(side)))
    };
    prop_oneof![
        3 => boundary(1..700),
        1 => boundary(700..100_000),
        1 => Just(Time::MAX),
    ]
}

/// Run `ops` through the legacy heap and through the radix queue given
/// `end`, and check that the queue pops exactly the legacy heap's
/// events at or before `end`, in the same order, and looks ahead to
/// their owners — including the final
/// drain, whichever bucket each event waited in — and counts every
/// later one as discarded instead of storing it. Neither queue is
/// popped past `end`, so both clocks advance identically.
fn check_against_legacy(end: Time, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut legacy = LegacyQueue::default();
    let mut queue = EventQueue::new();
    queue.set_end(end);
    let mut next_event = 0u32;
    // The legacy queue's head, if a run ending at `end` would pop it.
    let head = |legacy: &LegacyQueue| legacy.peek().filter(|&(at, _)| at <= end);
    let due = |legacy: &LegacyQueue| head(legacy).map(|(at, _)| at);
    let owner = |legacy: &LegacyQueue| due(legacy).and_then(|_| legacy.owner());
    for op in ops {
        let (events, pops) = match op {
            Op::Schedule(events) => (&events[..], 0),
            Op::Pop(n) => (&[][..], *n),
        };
        for &(ref when, who) in events {
            // Both clocks advance identically, so `at` is never in the
            // past for either queue.
            let at = when.at(legacy.now);
            legacy.schedule(at, who, next_event);
            queue.schedule_for(at, who, next_event);
            next_event += 1;
        }
        for _ in 0..pops {
            prop_assert_eq!(queue.peek_time(), due(&legacy));
            prop_assert_eq!(queue.peek().map(|(at, &e)| (at, e)), head(&legacy));
            prop_assert_eq!(queue.lookahead(), owner(&legacy));
            let want = due(&legacy).and_then(|_| legacy.pop());
            prop_assert_eq!(queue.pop(), want);
            prop_assert_eq!(queue.now(), legacy.now);
        }
        let stored = queue.len() as u64;
        prop_assert_eq!(stored + queue.discarded(), legacy.heap.len() as u64);
        prop_assert_eq!(queue.is_empty(), due(&legacy).is_none());
    }
    loop {
        prop_assert_eq!(queue.lookahead(), owner(&legacy));
        let want = due(&legacy).and_then(|_| legacy.pop());
        let got = queue.pop();
        prop_assert_eq!(&got, &want);
        if got.is_none() {
            break;
        }
    }
    prop_assert!(queue.is_empty());
    prop_assert_eq!(queue.len(), 0);
    prop_assert_eq!(queue.discarded(), legacy.heap.len() as u64);
    if end == Time::MAX {
        prop_assert_eq!(queue.discarded(), 0);
    }
    prop_assert_eq!(queue.clamped(), 0);
    Ok(())
}

proptest! {
    /// The radix queue is observationally identical to the legacy
    /// single heap under any schedule/pop interleaving, including the
    /// final drain — whichever bucket each event waited in.
    #[test]
    fn calendar_matches_legacy_queue(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        check_against_legacy(Time::MAX, &ops)?;
    }

    /// Given an end, the radix queue pops exactly what the legacy heap
    /// pops by then, in the same order, and stores nothing it would not
    /// pop.
    #[test]
    fn calendar_with_an_end_matches_legacy_queue_up_to_it(
        end in end_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        check_against_legacy(end, &ops)?;
    }
}

/// The long haul: 400 seeds × 20 000 operations each, checked against
/// the legacy heap after every one. Delays are drawn at a random scale
/// from 1 µs to 2^40 µs (so every bucket below 41 fills and drains,
/// and `Time::MAX` fills bucket 64), schedules come in bursts of up to
/// 200, one in eight lands exactly on `now`, and one in eight repeats
/// the instant of the schedule before it. Owners come from a stream of
/// their own, so the schedule is what it was before events had owners;
/// one in eight is `NO_OWNER`.
#[test]
fn long_haul_matches_legacy_queue() {
    const SEEDS: u64 = 400;
    const OPS: usize = 20_000;
    let (mut pops, mut deepest) = (0u64, 0usize);
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(seed);
        let mut owners = rng.fork(1);
        let mut legacy = LegacyQueue::default();
        let mut radix = EventQueue::new();
        let mut next_event = 0u32;
        let mut last_at = Time::ZERO;
        let mut ops = 0;
        while ops < OPS {
            if rng.range_u64(0, 2) == 0 {
                let burst = if rng.range_u64(0, 8) == 0 {
                    rng.range_u64(2, 201)
                } else {
                    1
                };
                for _ in 0..burst {
                    let now = legacy.now.as_micros();
                    let at = match rng.range_u64(0, 16) {
                        0 | 1 => now,
                        2 | 3 => last_at.as_micros().max(now),
                        4 => u64::MAX,
                        _ => {
                            let scale = rng.range_u64(0, 41);
                            now.saturating_add(rng.range_u64(1, (1 << scale) + 1))
                        }
                    };
                    last_at = Time::from_micros(at);
                    let who = match owners.range_u64(0, 8) {
                        0 => NO_OWNER,
                        _ => owners.next_u64() as u32,
                    };
                    legacy.schedule(last_at, who, next_event);
                    radix.schedule_for(last_at, who, next_event);
                    next_event = next_event.wrapping_add(1);
                    ops += 1;
                }
            } else {
                for _ in 0..rng.range_u64(1, 17) {
                    let want_peek = legacy.peek();
                    let peek = radix.peek().map(|(at, &e)| (at, e));
                    assert_eq!(peek, want_peek, "seed {seed} op {ops}: peek");
                    let want_time = want_peek.map(|(at, _)| at);
                    assert_eq!(
                        radix.peek_time(),
                        want_time,
                        "seed {seed} op {ops}: peek_time"
                    );
                    let owner = legacy.owner();
                    assert_eq!(radix.lookahead(), owner, "seed {seed} op {ops}: lookahead");
                    let want = legacy.pop();
                    assert_eq!(radix.pop(), want, "seed {seed} op {ops}: pop");
                    pops += u64::from(want.is_some());
                    ops += 1;
                }
            }
            assert_eq!(radix.now(), legacy.now, "seed {seed} op {ops}: now");
            assert_eq!(radix.len(), legacy.heap.len(), "seed {seed} op {ops}: len");
            assert_eq!(radix.is_empty(), legacy.heap.is_empty());
            deepest = deepest.max(radix.len());
        }
        loop {
            assert_eq!(radix.lookahead(), legacy.owner(), "seed {seed}: drain");
            let Some(want) = legacy.pop() else { break };
            assert_eq!(radix.pop(), Some(want), "seed {seed}: drain");
            pops += 1;
        }
        assert_eq!(radix.pop(), None);
        assert_eq!((radix.clamped(), radix.discarded()), (0, 0));
    }
    // Most operations pop something, and the queue gets deep.
    assert!(pops > SEEDS * OPS as u64 / 2, "{pops} pops");
    assert!(deepest > 2_000, "{deepest} deep at most");
}
