//! The discrete-event kernel: a clock driven by one future-event
//! calendar.
//!
//! Determinism is load-bearing for the reproduction: given the same
//! seed, a scenario must produce bit-identical figure data. Events at
//! equal instants therefore break ties by insertion order (a strictly
//! increasing sequence number), never by heap internals.
//!
//! The queue does not care where its timestamps come from. The
//! simulator pops it as fast as it can and calls the result virtual
//! time; `gridd::poll::TimerWheel` feeds it microseconds since the
//! reactor started and pops only what the wall clock has reached. One
//! calendar, two clocks (DESIGN.md §10 and §11).
//!
//! # Three tiers
//!
//! The calendar is cut into one-second buckets (bucket = timestamp /
//! [`WINDOW_US`]) kept in three tiers:
//!
//! * **near** — a heap of every event in the current bucket or
//!   earlier. Pops come from here only.
//! * **ring** — the buckets just ahead, each an *unsorted* `Vec`
//!   (scheduling is one append), with an occupancy bitmap so the
//!   earliest non-empty one is found in a few word tests however
//!   sparse the schedule. Most far events of a large world are backoffs
//!   and `try` deadlines; here each costs one append.
//! * **beyond** — a heap for events past the ring's horizon
//!   (hour-long backoffs, `Time::MAX`). The ring is sized on demand:
//!   it starts empty and doubles only while `beyond` holds more events
//!   than the ring has slots, so a twenty-client world — or a reactor
//!   with a handful of far timers — keeps one small heap and allocates
//!   no ring at all.
//!
//! When the near heap drains, the earliest non-empty bucket — merged
//! with whatever `beyond` holds for that same bucket — *becomes* the
//! near heap in one `O(n)` heapify, and the drained near buffer goes
//! to a bounded pool that new buckets draw from.
//!
//! Every event is stamped with a sequence number at schedule time, and
//! `pop` takes the minimum `(timestamp, seq)` of the near heap. Every
//! event outside near lies in a later bucket, so that is exactly the
//! order a single heap would produce: pop order — and therefore every
//! figure byte — does not depend on which tier an event waited in.
//!
//! # An end
//!
//! A run that will never pop past some instant can say so
//! ([`EventQueue::set_end`]): from then on an event scheduled after
//! the end is counted ([`EventQueue::discarded`]) and not stored. Pop
//! order is the minimum `(timestamp, seq)` of what is stored, so
//! leaving out events that would never be popped does not reorder the
//! rest. In a figure run most such events are `try` deadlines past its
//! window.

use retry::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn bucket(&self) -> u64 {
        self.at.as_micros() / WINDOW_US
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Width of one calendar bucket. One second: coarse enough that a
/// bucket refills the near heap with a batch of events, fine enough
/// that the near heap stays a fraction of the queue.
const WINDOW_US: u64 = 1_000_000;

/// Most buckets the ring grows to. `try for 5 minutes` deadlines
/// (300 buckets ahead) fit; the rare event further out waits in the
/// `beyond` heap.
const RING_MAX: usize = 512;

/// Fewest buckets an allocated ring has: one bitmap word.
const RING_MIN: usize = 64;

/// Most drained bucket buffers the queue keeps for reuse. In steady
/// state one bucket opens per bucket drained, so a handful covers it;
/// past that, buffers are freed rather than hoarded.
const POOL_MAX: usize = 4;

/// A deterministic future-event list with its own clock.
///
/// Invariants of the calendar (maintained by every `&mut` entry
/// point): `near` holds exactly the events whose bucket is ≤ `cur`,
/// and is non-empty whenever the queue is, so peeking is pure; ring
/// slot `b % ring.len()` holds the events of bucket `b` for `b` in
/// `(cur, cur + ring.len()]` that arrived while `b` was within that
/// horizon; everything else waits in `beyond`.
///
/// ```
/// use retry::Time;
/// use simgrid::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_secs(3), "later");
/// q.schedule(Time::from_secs(1), "sooner");
/// assert_eq!(q.pop(), Some((Time::from_secs(1), "sooner")));
/// assert_eq!(q.now(), Time::from_secs(1));
/// ```
pub struct EventQueue<E> {
    near: BinaryHeap<Entry<E>>,
    /// The bucket `near` is at.
    cur: u64,
    /// Unsorted buckets; the length is zero or a power of two.
    ring: Vec<Vec<Entry<E>>>,
    /// One bit per ring slot: set iff the slot's bucket is non-empty.
    occupied: Vec<u64>,
    /// Events in the ring.
    ring_events: usize,
    beyond: BinaryHeap<Entry<E>>,
    /// Emptied buffers of drained buckets.
    pool: Vec<Vec<Entry<E>>>,
    seq: u64,
    now: Time,
    /// The last instant the run will pop; later events are not stored.
    end: Time,
    popped: u64,
    clamped: u64,
    discarded: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at `T+0`.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            near: BinaryHeap::new(),
            cur: 0,
            ring: Vec::new(),
            occupied: Vec::new(),
            ring_events: 0,
            beyond: BinaryHeap::new(),
            pool: Vec::new(),
            seq: 0,
            now: Time::ZERO,
            end: Time::MAX,
            popped: 0,
            clamped: 0,
            discarded: 0,
        }
    }

    /// Vestige of the sharded queue, kept only because the frozen
    /// `benchmark/` names it; delete with the next `benchmark/` change.
    #[doc(hidden)]
    pub fn with_shards(_nshards: usize) -> EventQueue<E> {
        EventQueue::new()
    }

    /// Vestige of the sharded queue, as [`EventQueue::with_shards`].
    #[doc(hidden)]
    pub fn schedule_keyed(&mut self, _key: usize, at: Time, event: E) {
        self.schedule(at, event);
    }

    /// Events popped from *this* queue since construction. Per-queue
    /// so one run's throughput is attributable even while sweep
    /// workers run other simulations concurrently.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// How many schedules targeted an instant already in the past and
    /// were clamped to `now`. A nonzero count is a latent ordering bug
    /// in the scenario; `figures --stats` and the postmortem surface
    /// it rather than letting the clamp silently "fix" it.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Promise that nothing after `end` will be popped: every later
    /// [`schedule`] past it is discarded and counted in [`discarded`]
    /// instead of stored. Events already stored are kept. The default
    /// end is `Time::MAX`, where nothing is discarded.
    ///
    /// [`schedule`]: EventQueue::schedule
    /// [`discarded`]: EventQueue::discarded
    pub fn set_end(&mut self, end: Time) {
        self.end = end;
    }

    /// How many schedules fell after the end and were not stored.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// The queue's current instant (the timestamp of the last popped
    /// event, or zero).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute instant `at`. Scheduling in the
    /// past is a logic error in debug builds; in release it clamps to
    /// `now` (the event fires immediately, preserving progress) and
    /// increments [`clamped`]. An instant after the [end] is counted in
    /// [`discarded`] and the event dropped.
    ///
    /// [`clamped`]: EventQueue::clamped
    /// [end]: EventQueue::set_end
    /// [`discarded`]: EventQueue::discarded
    pub fn schedule(&mut self, at: Time, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let at = if at < self.now {
            self.clamped += 1;
            self.now
        } else {
            at
        };
        if at > self.end {
            self.discarded += 1;
            return;
        }
        let e = Entry {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        let bucket = e.bucket();
        if self.near.is_empty() {
            // The queue is empty: its calendar restarts at this event.
            self.cur = bucket;
        }
        if bucket <= self.cur {
            self.near.push(e);
        } else if bucket - self.cur <= self.ring.len() as u64 {
            self.push_ring(bucket, e);
        } else {
            self.beyond.push(e);
            // A ring earns its slots: it never has more of them than
            // `beyond` held events when it was built or doubled.
            if self.beyond.len() > self.ring.len().max(RING_MIN / 2) && self.ring.len() < RING_MAX {
                self.grow_ring();
            }
        }
    }

    /// Append to the ring slot of `bucket`, which is within the
    /// horizon.
    fn push_ring(&mut self, bucket: u64, e: Entry<E>) {
        let slot = bucket as usize & (self.ring.len() - 1);
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            if let Some(buf) = self.pool.pop() {
                self.ring[slot] = buf;
            }
        }
        self.ring[slot].push(e);
        self.ring_events += 1;
    }

    /// `beyond` has outgrown the ring: double the ring (each occupied
    /// bucket keeps its buffer, re-slotted) and move over what now
    /// falls within the horizon.
    fn grow_ring(&mut self) {
        let old_len = self.ring.len();
        let len = (old_len * 2).max(RING_MIN);
        let fresh = std::iter::repeat_with(Vec::new).take(len).collect();
        let old = std::mem::replace(&mut self.ring, fresh);
        self.occupied = vec![0; len / 64];
        for (i, buf) in old.into_iter().enumerate() {
            if !buf.is_empty() {
                // The one bucket of (cur, cur + old_len] in old slot `i`.
                let ahead = i.wrapping_sub(self.cur as usize + 1) & (old_len - 1);
                let slot = (self.cur as usize + 1 + ahead) & (len - 1);
                self.occupied[slot / 64] |= 1 << (slot % 64);
                self.ring[slot] = buf;
            }
        }
        let mut kept = Vec::new();
        for e in std::mem::take(&mut self.beyond).into_vec() {
            let bucket = e.bucket();
            if bucket - self.cur <= len as u64 {
                self.push_ring(bucket, e);
            } else {
                kept.push(e);
            }
        }
        self.beyond = BinaryHeap::from(kept);
    }

    /// The earliest non-empty ring bucket, if any: a circular scan of
    /// the occupancy bitmap from the slot of `cur + 1`.
    fn first_ring_bucket(&self) -> Option<u64> {
        if self.ring_events == 0 {
            return None;
        }
        let mask = self.ring.len() - 1;
        let start = (self.cur + 1) as usize & mask;
        let words = self.occupied.len();
        // The start word twice: its high bits first, its low bits last.
        for k in 0..=words {
            let w = (start / 64 + k) % words;
            let mut bits = self.occupied[w];
            if k == 0 {
                bits &= !0 << (start % 64);
            } else if k == words {
                bits &= !(!0 << (start % 64));
            }
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                return Some(self.cur + 1 + (slot.wrapping_sub(start) & mask) as u64);
            }
        }
        unreachable!("ring_events > 0 with an empty bitmap")
    }

    /// The near heap has drained: make the earliest later bucket — its
    /// ring slot plus whatever `beyond` holds for it — the near heap,
    /// and pool the drained buffer.
    fn open_next_bucket(&mut self) {
        let in_ring = self.first_ring_bucket();
        let in_beyond = self.beyond.peek().map(Entry::bucket);
        let next = match (in_ring, in_beyond) {
            (Some(r), Some(b)) => r.min(b),
            (Some(b), None) | (None, Some(b)) => b,
            (None, None) => return,
        };
        let mut bucket = if in_ring == Some(next) {
            let slot = next as usize & (self.ring.len() - 1);
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            let bucket = std::mem::take(&mut self.ring[slot]);
            self.ring_events -= bucket.len();
            bucket
        } else {
            self.pool.pop().unwrap_or_default()
        };
        while self.beyond.peek().is_some_and(|e| e.bucket() == next) {
            bucket.push(self.beyond.pop().expect("peeked"));
        }
        let drained = std::mem::replace(&mut self.near, BinaryHeap::from(bucket));
        self.recycle(drained.into_vec());
        self.cur = next;
    }

    /// Keep an emptied buffer for the next bucket that opens, up to
    /// the pool bound.
    fn recycle(&mut self, buf: Vec<Entry<E>>) {
        debug_assert!(buf.is_empty());
        if buf.capacity() > 0 && self.pool.len() < POOL_MAX {
            self.pool.push(buf);
        }
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.near.peek().map(|e| e.at)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.near.pop()?;
        if self.near.is_empty() {
            self.open_next_bucket();
        }
        debug_assert!(e.at >= self.now, "clock went backwards");
        self.now = e.at;
        self.popped += 1;
        Some((e.at, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near.len() + self.ring_events + self.beyond.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retry::Dur;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(5), "c");
        q.schedule(Time::from_secs(1), "a");
        q.schedule(Time::from_secs(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Time::from_secs(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(2), ());
        q.schedule(Time::from_secs(9), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_secs(2));
        q.pop();
        assert_eq!(q.now(), Time::from_secs(9));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(4), ());
        assert_eq!(q.peek_time(), Some(Time::from_secs(4)));
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_counter_is_per_queue() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for i in 0..5 {
            a.schedule(Time::from_secs(i), ());
        }
        b.schedule(Time::from_secs(1), ());
        while a.pop().is_some() {}
        assert_eq!(a.popped(), 5);
        assert_eq!(b.popped(), 0);
        b.pop();
        assert_eq!(b.popped(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(1), 1);
        q.schedule(Time::from_secs(10), 10);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        // Schedule between now (1s) and the pending 10s event.
        q.schedule(Time::from_secs(5), 5);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 5);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 10);
    }

    #[test]
    fn far_window_migration_preserves_order() {
        // Spread events far beyond one near window so every pop path
        // (drain, refill, migrate) is exercised.
        let mut q = EventQueue::new();
        for i in (0..50u64).rev() {
            q.schedule(Time::from_secs(i * 3), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    /// A queue whose ring has been made to exist: forty events at
    /// T+100 s outgrow `beyond`, and popping them leaves an empty queue
    /// at bucket 100 with a 64-slot ring. Returns the next free event
    /// number.
    fn with_ring() -> (EventQueue<u64>, u64) {
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO, 0);
        for i in 1..=40 {
            q.schedule(Time::from_secs(100), i);
        }
        for i in 0..=40 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
        }
        assert_eq!(q.ring.len(), RING_MIN);
        assert_eq!((q.cur, q.len()), (100, 0));
        (q, 41)
    }

    #[test]
    fn small_schedules_allocate_no_ring() {
        let mut q = EventQueue::new();
        for i in 0..=(RING_MIN / 2) as u64 {
            q.schedule(Time::from_secs(10 * i), i);
        }
        let s = &q;
        assert_eq!((s.near.len(), s.beyond.len()), (1, RING_MIN / 2));
        assert!(s.ring.is_empty() && s.occupied.is_empty());
        // One more far event than that, and the ring is worth having.
        q.schedule(Time::from_secs(5), 99);
        let s = &q;
        assert_eq!(s.ring.len(), RING_MIN);
        // Buckets 5..=60 are within the horizon; 70..=320 are not.
        assert_eq!((s.ring_events, s.beyond.len()), (7, 26));
    }

    #[test]
    fn event_exactly_at_window_end_belongs_to_the_next_bucket() {
        let (mut q, n) = with_ring();
        let end = Time::from_secs(101);
        let last_of_100 = Time::from_micros(end.as_micros() - 1);
        q.schedule(Time::from_secs(100), n); // keeps the queue at bucket 100
        q.schedule(end, n + 1); // first instant of bucket 101
        q.schedule(last_of_100, n + 2);
        q.schedule(end, n + 3);
        let s = &q;
        assert_eq!((s.near.len(), s.ring_events), (2, 2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want = [
            (Time::from_secs(100), n),
            (last_of_100, n + 2),
            (end, n + 1),
            (end, n + 3),
        ];
        assert_eq!(order, want);
    }

    #[test]
    fn bucket_fed_from_ring_and_beyond_pops_in_one_order() {
        let (mut q, n) = with_ring();
        let at = |us: u64| Time::from_micros(200 * WINDOW_US + us);
        q.schedule(Time::from_secs(100), n); // keeps the queue at bucket 100
        q.schedule(at(7), n + 1); // 100 buckets ahead: past the 64-slot horizon
        q.schedule(at(3), n + 2);
        assert_eq!(q.beyond.len(), 2);
        q.schedule(Time::from_secs(150), n + 3);
        assert_eq!(q.pop(), Some((Time::from_secs(100), n)));
        // The queue moved to bucket 150: bucket 200 is within the
        // horizon now, and what arrives for it goes to the ring.
        assert_eq!(q.cur, 150);
        q.schedule(at(5), n + 4);
        q.schedule(at(3), n + 5);
        q.schedule(at(0), n + 6);
        let s = &q;
        assert_eq!((s.near.len(), s.ring_events, s.beyond.len()), (1, 3, 2));
        assert_eq!(q.pop(), Some((Time::from_secs(150), n + 3)));
        let s = &q;
        assert_eq!((s.near.len(), s.ring_events, s.beyond.len()), (5, 0, 0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want = [
            (at(0), n + 6),
            (at(3), n + 2),
            (at(3), n + 5),
            (at(5), n + 4),
            (at(7), n + 1),
        ];
        assert_eq!(order, want);
    }

    #[test]
    fn beyond_head_earlier_than_the_ring_opens_first() {
        let (mut q, n) = with_ring();
        q.schedule(Time::from_secs(100), n);
        q.schedule(Time::from_secs(170), n + 1); // beyond (70 ahead)
        q.schedule(Time::from_secs(140), n + 2); // ring
        assert_eq!(q.pop().map(|(_, e)| e), Some(n));
        q.schedule(Time::from_secs(180), n + 3); // ring (40 ahead of 140)
        assert_eq!(q.pop().map(|(_, e)| e), Some(n + 2));
        // Ring holds bucket 180, beyond holds bucket 170: 170 is next.
        let s = &q;
        assert_eq!((s.cur, s.ring_events, s.beyond.len()), (170, 1, 0));
        assert_eq!(q.pop().map(|(_, e)| e), Some(n + 1));
        assert_eq!(q.pop().map(|(_, e)| e), Some(n + 3));
        assert!(q.is_empty());
    }

    #[test]
    fn len_and_is_empty_count_all_three_tiers() {
        let (mut q, n) = with_ring();
        assert!(q.is_empty());
        q.schedule(Time::from_secs(100), n); // near
        q.schedule(Time::from_secs(130), n + 1); // ring
        q.schedule(Time::from_secs(131), n + 2); // ring
        q.schedule(Time::from_secs(3600), n + 3); // beyond
        q.schedule(Time::MAX, n + 4); // beyond
        let s = &q;
        assert_eq!((s.near.len(), s.ring_events, s.beyond.len()), (1, 2, 2));
        for left in (0..5).rev() {
            assert_eq!((q.len(), q.is_empty()), (left + 1, false));
            assert!(q.pop().is_some());
            assert_eq!(q.len(), left);
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), Time::MAX);
        // An emptied queue restarts its calendar where it is told to.
        q.schedule(Time::MAX, n + 5);
        assert_eq!((q.len(), q.peek_time()), (1, Some(Time::MAX)));
    }

    #[test]
    fn sparse_year_of_hourly_events_then_never() {
        // One event an hour for a year, then one at `Time::MAX`: 8 760
        // occupied buckets among 1.8e13. Finding each next bucket is a
        // bitmap scan and a heap peek, never a walk over empty buckets
        // — which would not get to the last event in a lifetime.
        const HOURS: u64 = 24 * 365;
        for up_front in [true, false] {
            let mut q = EventQueue::new();
            let hour = |h: u64| Time::from_secs(3600 * h);
            q.schedule(Time::MAX, u64::MAX);
            q.schedule(hour(1), 1);
            if up_front {
                (2..=HOURS).for_each(|h| q.schedule(hour(h), h));
            }
            for h in 1..=HOURS {
                assert_eq!(q.pop(), Some((hour(h), h)));
                if !up_front && h < HOURS {
                    q.schedule(hour(h + 1), h + 1);
                }
            }
            assert_eq!(q.pop(), Some((Time::MAX, u64::MAX)));
            assert!(q.is_empty());
            assert!(q.ring.len() <= RING_MAX);
        }
    }

    #[test]
    fn drained_buckets_do_not_accumulate_capacity() {
        // 10 000 buckets of 32 events each pass through the ring. What
        // the queue still holds afterwards is the near buffer and the
        // pool — a handful of bucket-sized buffers, not 10 000.
        const BUCKETS: u64 = 10_000;
        const PER_BUCKET: u64 = 32;
        let mut q = EventQueue::new();
        let fill = |q: &mut EventQueue<u64>, b: u64| {
            for i in 0..PER_BUCKET {
                q.schedule(Time::from_micros(b * WINDOW_US + i), b);
            }
        };
        // Keep 300 buckets scheduled ahead of the clock, as `try for 5
        // minutes` deadlines do.
        (0..300).for_each(|b| fill(&mut q, b));
        for b in 0..BUCKETS {
            if b + 300 < BUCKETS {
                fill(&mut q, b + 300);
            }
            for _ in 0..PER_BUCKET {
                assert_eq!(q.pop().map(|(_, e)| e), Some(b));
            }
        }
        assert!(q.is_empty());
        let s = &q;
        assert_eq!(s.ring.len(), RING_MAX);
        assert!(
            s.ring.iter().all(|b| b.capacity() == 0),
            "emptied slots hold nothing"
        );
        assert!(s.pool.len() <= POOL_MAX);
        let retained: usize = s.near.capacity() + s.pool.iter().map(Vec::capacity).sum::<usize>();
        assert!(
            retained <= (POOL_MAX + 1) * 2 * PER_BUCKET as usize,
            "{retained} entries of capacity retained"
        );
    }

    #[test]
    fn clamped_schedule_lands_in_the_current_bucket() {
        let (mut q, n) = with_ring();
        q.schedule(Time::from_secs(100) + Dur::from_millis(500), n);
        q.schedule(Time::from_secs(101), n + 1);
        q.schedule(Time::from_secs(7200), n + 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(n));
        // Only a compiled-away debug_assert guards this in release.
        if cfg!(debug_assertions) {
            return;
        }
        // Asked for T+3 s at T+100.5 s: clamped to now. The queue has
        // moved on to bucket 101, and an instant at or before its
        // bucket goes to the near heap, ahead of what is there.
        q.schedule(Time::from_secs(3), n + 3);
        assert_eq!(q.clamped(), 1);
        assert_eq!((q.cur, q.near.len()), (101, 2));
        let now = Time::from_secs(100) + Dur::from_millis(500);
        assert_eq!(q.pop(), Some((now, n + 3)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(n + 1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn events_after_the_end_are_counted_not_stored() {
        let mut q = EventQueue::new();
        q.set_end(Time::from_secs(10));
        q.schedule(Time::from_secs(300), "deadline");
        q.schedule(Time::from_secs(10), "at the end");
        q.schedule(Time::MAX, "never");
        q.schedule(Time::from_secs(2), "sooner");
        assert_eq!((q.len(), q.discarded()), (2, 2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["sooner", "at the end"]);
        assert!(q.is_empty());
    }

    #[test]
    fn past_schedule_clamps_and_counts() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(10), "a");
        q.pop();
        assert_eq!(q.clamped(), 0);
        // Only compiled-away debug_assert guards this in release; the
        // runtime contract is clamp-to-now plus an observable count.
        if cfg!(debug_assertions) {
            return;
        }
        q.schedule(Time::from_secs(3), "late");
        assert_eq!(q.clamped(), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (Time::from_secs(10), "late"));
    }
}
