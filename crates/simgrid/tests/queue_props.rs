//! Differential property test for the event kernel: for arbitrary
//! interleavings of schedules and pops, the bucket calendar must yield
//! the identical `(time, event)` sequence as a reference single-heap
//! queue — the legacy kernel it replaced — and, given an end, that
//! sequence cut at the end, with everything later counted as discarded.

use proptest::prelude::*;
use retry::Time;
use simgrid::EventQueue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The legacy kernel, restated: one global max-heap, inverted on
/// `(timestamp, insertion seq)`.
#[derive(Default)]
struct LegacyQueue {
    heap: BinaryHeap<Reverse<(Time, u64, u32)>>,
    seq: u64,
    now: Time,
}

impl LegacyQueue {
    fn schedule(&mut self, at: Time, event: u32) {
        let at = at.max(self.now);
        self.heap.push(Reverse((at, self.seq, event)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, u32)> {
        let Reverse((at, _, ev)) = self.heap.pop()?;
        self.now = at;
        Some((at, ev))
    }
}

/// The kernel's bucket width, restated: instants on either side of a
/// multiple of it are where a calendar can misfile an event.
const BUCKET_US: u64 = 1_000_000;

/// When a scheduled event is due, relative to the current clock.
#[derive(Clone, Debug)]
enum When {
    /// `mantissa × 10^exp` microseconds from now: a heavy tail from
    /// 1 µs to ten days, so one interleaving mixes events of the
    /// current bucket, of the ring, and past any ring's horizon.
    In { mantissa: u64, exp: u32 },
    /// Exactly on the boundary `buckets` buckets ahead (the first
    /// instant of that bucket), or one microsecond before it (the last
    /// instant of the bucket before).
    Boundary { buckets: u64, before: bool },
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
            When::Never => u64::MAX,
        })
    }
}

/// One step of an interleaving: schedule events — one, or a burst
/// large enough to outgrow the `beyond` heap and make the queue build
/// a ring — or pop a run of heads. With the heavy tail above a long
/// run carries the clock hours forward, so the ring wraps many times
/// within one case.
#[derive(Clone, Debug)]
enum Op {
    Schedule(Vec<When>),
    Pop(usize),
}

fn when_strategy() -> impl Strategy<Value = When> {
    prop_oneof![
        12 => (1u64..10, 0u32..12).prop_map(|(mantissa, exp)| When::In { mantissa, exp }),
        4 => (1u64..700, any::<bool>()).prop_map(|(buckets, before)| When::Boundary {
            buckets,
            before
        }),
        1 => Just(When::Never),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => proptest::collection::vec(when_strategy(), 1..2).prop_map(Op::Schedule),
        1 => proptest::collection::vec(when_strategy(), 20..300).prop_map(Op::Schedule),
        3 => Just(Op::Pop(1)),
        1 => (2usize..200).prop_map(Op::Pop),
    ]
}

/// Where a run ends: on a bucket boundary, one microsecond either side
/// of it — near the clock's start, where boundary schedules land on it,
/// or far past any ring's horizon — or never.
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

/// Run `ops` through the legacy heap and through a calendar given
/// `end`, and check that the calendar pops exactly the legacy heap's
/// events at or before `end`, in the same order — including the final
/// drain, whichever tier each event waited in — and counts every later
/// one as discarded instead of storing it. Neither queue is popped past
/// `end`, so both clocks advance identically.
fn check_against_legacy(end: Time, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut legacy = LegacyQueue::default();
    let mut calendar = EventQueue::new();
    calendar.set_end(end);
    let mut next_event = 0u32;
    // The legacy queue's head, if a run ending at `end` would pop it.
    let due = |legacy: &LegacyQueue| legacy.heap.peek().map(|e| e.0 .0).filter(|&at| at <= end);
    for op in ops {
        let (events, pops) = match op {
            Op::Schedule(events) => (&events[..], 0),
            Op::Pop(n) => (&[][..], *n),
        };
        for when in events {
            // Both clocks advance identically, so `at` is never in the
            // past for either queue.
            let at = when.at(legacy.now);
            legacy.schedule(at, next_event);
            calendar.schedule(at, next_event);
            next_event += 1;
        }
        for _ in 0..pops {
            prop_assert_eq!(calendar.peek_time(), due(&legacy));
            let want = due(&legacy).and_then(|_| legacy.pop());
            prop_assert_eq!(calendar.pop(), want);
            prop_assert_eq!(calendar.now(), legacy.now);
        }
        let stored = calendar.len() as u64;
        prop_assert_eq!(stored + calendar.discarded(), legacy.heap.len() as u64);
        prop_assert_eq!(calendar.is_empty(), due(&legacy).is_none());
    }
    loop {
        let want = due(&legacy).and_then(|_| legacy.pop());
        let got = calendar.pop();
        prop_assert_eq!(&got, &want);
        if got.is_none() {
            break;
        }
    }
    prop_assert!(calendar.is_empty());
    prop_assert_eq!(calendar.len(), 0);
    prop_assert_eq!(calendar.discarded(), legacy.heap.len() as u64);
    if end == Time::MAX {
        prop_assert_eq!(calendar.discarded(), 0);
    }
    prop_assert_eq!(calendar.clamped(), 0);
    Ok(())
}

proptest! {
    /// The calendar is observationally identical to the legacy single
    /// heap under any schedule/pop interleaving, including the final
    /// drain — whichever tier each event waited in.
    #[test]
    fn calendar_matches_legacy_queue(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        check_against_legacy(Time::MAX, &ops)?;
    }

    /// Given an end, the calendar pops exactly what the legacy heap pops
    /// by then, in the same order, and stores nothing it would not pop.
    #[test]
    fn calendar_with_an_end_matches_legacy_queue_up_to_it(
        end in end_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        check_against_legacy(end, &ops)?;
    }
}
