//! The discrete-event kernel: a clock driven by one future-event
//! queue.
//!
//! Determinism is load-bearing for the reproduction: given the same
//! seed, a scenario must produce bit-identical figure data. Events at
//! equal instants therefore pop in the order they were scheduled,
//! never in an order the data structure happens to leave them in.
//!
//! The queue does not care where its timestamps come from. The
//! simulator pops it as fast as it can and calls the result virtual
//! time; `gridd::poll::TimerWheel` feeds it microseconds since the
//! reactor started and pops only what the wall clock has reached. One
//! queue, two clocks (DESIGN.md §10 and §11).
//!
//! # A radix heap
//!
//! The queue is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, 1990):
//! a priority queue for keys that never go below the last key popped.
//! Both users keep to that: [`EventQueue::schedule_for`] clamps an
//! instant before `now` to `now` (and counts it), and `TimerWheel`
//! clamps before it schedules.
//!
//! Keys are microseconds. An event at exactly `now` waits in a FIFO;
//! any other waits in bucket `64 − lzcnt(at ^ now)` — one more than the
//! highest bit in which its instant differs from the clock — an
//! unsorted `Vec` that remembers its earliest instant. A mask marks the
//! non-empty buckets, so the next instant is one `trailing_zeros` away
//! however sparse the schedule.
//!
//! When the FIFO is empty, `pop` takes the lowest non-empty bucket,
//! moves the clock to that bucket's earliest instant and re-files the
//! bucket's events, in order, around the new clock. Each lands in a
//! lower bucket (it shares every bit above the bucket's with the new
//! clock), and the earliest land in the FIFO. A bucket above keeps its
//! events where they are: the clock moved only within bits they differ
//! from it above.
//!
//! # Keys over a slab
//!
//! A bucket holds keys, not events: a key is the event's instant, the
//! index of the slab slot its payload waits in and the event's owner,
//! 16 bytes whatever the event; the FIFO holds the slot and owner
//! alone, 8. A re-file moves keys, so the events of a deep queue — a
//! `SimEv<SubmitEv>` is 48 bytes — are written once when scheduled and
//! read once when popped, however many buckets their keys pass
//! through. A popped slot goes on a free list, and the next schedule
//! takes the slot freed last, a line most likely still cached; the slab
//! never holds more slots than the most events ever queued at once.
//!
//! # An owner in the key
//!
//! The owner is a `u32` the scheduler chooses — the simulator's
//! client index, or [`NO_OWNER`] — stored in what would otherwise be
//! the key's padding. It orders nothing. It is there so that a look
//! at the next event ([`EventQueue::lookahead`]) reads the next key
//! alone: the key was written by the re-file that put it at the head,
//! so its line is cached, where the payload's slot was last touched
//! when the event was scheduled. `lookahead` hints that slot instead,
//! so the next `pop` finds the payload cached.
//!
//! # Ties without a sequence number
//!
//! Every append to a bucket is either a fresh schedule — scheduled
//! after everything already queued — or part of a re-file into a
//! bucket that was empty when the re-file began, in the order of the
//! bucket being emptied. So every bucket is always in schedule order,
//! and the FIFO, which holds exactly the events at `now`, pops them in
//! schedule order: the `(instant, sequence number)` order of a single
//! heap, with no number stored.
//!
//! # An end
//!
//! A run that will never pop past some instant can say so
//! ([`EventQueue::set_end`]): from then on an event scheduled after
//! the end is counted ([`EventQueue::discarded`]) and not stored — it
//! takes no slot. Pop order is the `(instant, schedule order)` order
//! of what is stored, so leaving out events that would never be popped
//! does not reorder the rest. In a figure run most such events are
//! `try` deadlines past its window.

use retry::Time;
use std::collections::VecDeque;

/// The owner of an event scheduled for no one in particular: what
/// [`EventQueue::schedule`] stores, and what
/// [`EventQueue::lookahead`] reports as `None`.
pub const NO_OWNER: u32 = u32::MAX;

/// Which queued event: its slab slot and its owner. The FIFO holds
/// these, a bucket holds them with an instant.
#[derive(Clone, Copy)]
struct Entry {
    slot: u32,
    owner: u32,
}

/// Where a queued event waits: its instant and its entry.
#[derive(Clone, Copy)]
struct Key {
    at: Time,
    entry: Entry,
}

/// Largest buffer, in keys, a bucket (or the FIFO) keeps when it is
/// emptied; a larger one is freed, so a burst does not pin its peak.
/// Chosen by measurement (DESIGN.md §10) when a bucket held whole
/// events: against this cap, keeping every buffer cost `sim_figures`
/// 22 % more peak RSS and keeping none 10 % of its events/s.
const RETAIN_MAX: usize = 2048;

/// The bucket of an event at `at` while the clock reads `now`: 0 when
/// they are equal, otherwise one more than the highest bit in which
/// they differ.
fn bucket(now: Time, at: Time) -> usize {
    64 - (now.as_micros() ^ at.as_micros()).leading_zeros() as usize
}

/// A deterministic future-event list with its own clock.
///
/// Invariants (kept by every `&mut` entry point): every queued event
/// is at or after `now`; `due` holds the entries of exactly the events
/// at `now`, and `buckets[k - 1]` the keys of those in bucket `k` ≥ 1,
/// each in schedule order; bit `k - 1` of `occupied` is set iff
/// `buckets[k - 1]` is non-empty, `earliest[k - 1]` is its earliest
/// instant (`Time::MAX` when empty) and `head[k - 1]` the index of the
/// first key at that instant (0 when empty). A slot holds an event iff
/// exactly one key or FIFO entry names it; every other slot is on
/// `free`. An entry's owner is the one its event was scheduled for.
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
    /// The entries of the events at exactly `now`, in schedule order.
    due: VecDeque<Entry>,
    buckets: [Vec<Key>; 64],
    earliest: [Time; 64],
    /// Per bucket, the index of the key the bucket's re-file would put
    /// first in the FIFO: what [`EventQueue::peek`] returns and
    /// [`EventQueue::lookahead`] names the owner of.
    head: [usize; 64],
    occupied: u64,
    /// Every queued event's payload, in the slot its key names.
    slab: Vec<Option<E>>,
    /// The empty slots of `slab`, the one freed last on top.
    free: Vec<u32>,
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
    /// Bytes of one key, what a re-file moves per event. For tests
    /// that pin it.
    #[doc(hidden)]
    pub const KEY_BYTES: usize = std::mem::size_of::<Key>();

    /// Bytes of one FIFO entry. For tests that pin it.
    #[doc(hidden)]
    pub const FIFO_ENTRY_BYTES: usize = std::mem::size_of::<Entry>();

    /// An empty queue at `T+0`.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            earliest: [Time::MAX; 64],
            head: [0; 64],
            occupied: 0,
            slab: Vec::new(),
            free: Vec::new(),
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

    /// Schedule `event` at absolute instant `at` for no owner:
    /// [`schedule_for`](EventQueue::schedule_for) with [`NO_OWNER`].
    pub fn schedule(&mut self, at: Time, event: E) {
        self.schedule_for(at, NO_OWNER, event);
    }

    /// Schedule `event` at absolute instant `at` on behalf of `owner`,
    /// which [`lookahead`] reports while the event is next and which
    /// changes nothing else. Scheduling in the past is a logic error in
    /// debug builds; in release it clamps to `now` (the event fires
    /// immediately, preserving progress) and increments [`clamped`]. An
    /// instant after the [end] is counted in [`discarded`] and the
    /// event dropped.
    ///
    /// [`lookahead`]: EventQueue::lookahead
    /// [`clamped`]: EventQueue::clamped
    /// [end]: EventQueue::set_end
    /// [`discarded`]: EventQueue::discarded
    pub fn schedule_for(&mut self, at: Time, owner: u32, event: E) {
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("under 2^32 events queued");
                self.slab.push(Some(event));
                slot
            }
        };
        self.file(Key {
            at,
            entry: Entry { slot, owner },
        });
    }

    /// Append `k`, which is not before `now`, to its bucket. Only a
    /// strictly earlier instant moves the bucket's head, so among
    /// equal instants the one scheduled first stays the head, as it
    /// pops first. Whether an instant is earlier is a coin toss in a
    /// re-file, so the head is chosen without a branch: as a branch it
    /// cost the hold model a fifth more per push and pop.
    fn file(&mut self, k: Key) {
        match bucket(self.now, k.at) {
            0 => self.due.push_back(k.entry),
            i => {
                let b = &mut self.buckets[i - 1];
                let earlier = k.at < self.earliest[i - 1];
                self.earliest[i - 1] = self.earliest[i - 1].min(k.at);
                self.head[i - 1] =
                    std::hint::select_unpredictable(earlier, b.len(), self.head[i - 1]);
                self.occupied |= 1 << (i - 1);
                b.push(k);
            }
        }
    }

    /// `due` is empty: move the clock to the earliest queued instant
    /// and re-file the lowest non-empty bucket around it. `None` when
    /// nothing is queued.
    fn advance(&mut self) -> Option<()> {
        if self.due.capacity() > RETAIN_MAX {
            self.due = VecDeque::new();
        }
        if self.occupied == 0 {
            return None;
        }
        let i = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << i);
        self.now = std::mem::replace(&mut self.earliest[i], Time::MAX);
        self.head[i] = 0;
        let mut refile = std::mem::take(&mut self.buckets[i]);
        for k in refile.drain(..) {
            self.file(k);
        }
        if refile.capacity() <= RETAIN_MAX {
            self.buckets[i] = refile;
        }
        Some(())
    }

    /// The event in `slot`, which a key names.
    fn payload(&self, slot: u32) -> &E {
        self.slab[slot as usize]
            .as_ref()
            .expect("a queued key names a full slot")
    }

    /// The instant and entry of the event the next
    /// [`pop`](EventQueue::pop) returns: the FIFO's front, or else the
    /// head of the lowest non-empty bucket.
    fn next(&self) -> Option<(Time, Entry)> {
        if let Some(&e) = self.due.front() {
            Some((self.now, e))
        } else if self.occupied != 0 {
            let i = self.occupied.trailing_zeros() as usize;
            let k = self.buckets[i][self.head[i]];
            Some((k.at, k.entry))
        } else {
            None
        }
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        if !self.due.is_empty() {
            Some(self.now)
        } else if self.occupied != 0 {
            Some(self.earliest[self.occupied.trailing_zeros() as usize])
        } else {
            None
        }
    }

    /// The instant and event the next [`pop`](EventQueue::pop) would
    /// return, without popping it.
    pub fn peek(&self) -> Option<(Time, &E)> {
        self.next().map(|(at, e)| (at, self.payload(e.slot)))
    }

    /// The owner of the event the next [`pop`](EventQueue::pop)
    /// returns: `None` when nothing is queued or the event has
    /// [`NO_OWNER`]. It reads the next key and no payload, and hints
    /// the payload's slab slot ([`prefetch`](crate::prefetch)) so that
    /// the pop finds it cached; a hint changes nothing.
    pub fn lookahead(&self) -> Option<u32> {
        let (_, e) = self.next()?;
        crate::prefetch(&self.slab[e.slot as usize]);
        (e.owner != NO_OWNER).then_some(e.owner)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.due.is_empty() {
            self.advance()?;
        }
        let Entry { slot, .. } = self.due.pop_front().expect("the earliest event is due");
        let event = self.slab[slot as usize].take().expect("a due slot is full");
        self.free.push(slot);
        self.popped += 1;
        Some((self.now, event))
    }

    /// Number of pending events: the slab's occupied slots.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.due.is_empty() && self.occupied == 0
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
    fn reverse_schedule_pops_in_order() {
        // Fifty instants scheduled latest first, so every pop re-files
        // a bucket whose events arrived out of time order.
        let mut q = EventQueue::new();
        for i in (0..50u64).rev() {
            q.schedule(Time::from_secs(i * 3), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bucket_is_one_more_than_the_highest_differing_bit() {
        let t = Time::from_micros;
        // Equal instants: the FIFO.
        assert_eq!(bucket(t(0), t(0)), 0);
        assert_eq!(bucket(t(1 << 40), t(1 << 40)), 0);
        assert_eq!(bucket(Time::MAX, Time::MAX), 0);
        // Highest differing bit 0: bucket 1, which only ever holds the
        // one instant `now + 1` (and only while `now` is even).
        assert_eq!(bucket(t(0), t(1)), 1);
        assert_eq!(bucket(t(6), t(7)), 1);
        // An odd clock's successor carries: the bits differ higher up.
        assert_eq!(bucket(t(7), t(8)), 4);
        // Highest differing bit 63: bucket 64.
        assert_eq!(bucket(t(0), t(1 << 63)), 64);
        assert_eq!(bucket(t((1 << 63) - 1), t(1 << 63)), 64);
        // `Time::MAX` from a clock below 2^63 is bucket 64, and from
        // one above it, one more than the clock's highest zero bit.
        assert_eq!(bucket(Time::ZERO, Time::MAX), 64);
        assert_eq!(bucket(t(u64::MAX - (1 << 20)), Time::MAX), 21);
        assert_eq!(bucket(t(u64::MAX - 1), Time::MAX), 1);
    }

    #[test]
    fn equal_instants_stay_in_schedule_order_across_a_refile() {
        let mut q = EventQueue::new();
        // From T+0, 8 and 12 µs both differ at bit 3: bucket 4.
        q.schedule(Time::from_micros(8), "a");
        q.schedule(Time::from_micros(12), "b");
        q.schedule(Time::from_micros(8), "c");
        assert_eq!(q.occupied, 1 << 3);
        // Popping re-files bucket 4 around T+8 µs: the two events at 8
        // go to the FIFO in order, 12 (bit 2 from 8) to bucket 3.
        assert_eq!(q.pop(), Some((Time::from_micros(8), "a")));
        assert_eq!((q.due.len(), q.occupied), (1, 1 << 2));
        // Fresh schedules queue behind the re-filed events they tie.
        q.schedule(Time::from_micros(12), "d");
        q.schedule(Time::from_micros(8), "e");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let at = Time::from_micros;
        assert_eq!(
            order,
            [(at(8), "c"), (at(8), "e"), (at(12), "b"), (at(12), "d")]
        );
    }

    /// The owner of an event scheduled with `schedule`: none.
    fn unowned<E>(_: E) -> Option<u32> {
        None
    }

    /// The owner the `peek` tests schedule an event for: its first
    /// letter.
    fn letter(e: &str) -> Option<u32> {
        Some(e.as_bytes()[0].into())
    }

    /// Schedule `e` at `at` for the owner [`letter`] names.
    fn schedule_lettered(q: &mut EventQueue<&'static str>, at: Time, e: &'static str) {
        q.schedule_for(at, letter(e).expect("a letter"), e);
    }

    /// Pop `q` dry, checking before every pop that `peek` shows what
    /// the pop returns and `lookahead` names its owner, `owner(e)` for
    /// an event `e`; the popped sequence.
    fn drain_peeking<E: Copy + PartialEq + std::fmt::Debug>(
        q: &mut EventQueue<E>,
        owner: impl Fn(E) -> Option<u32>,
    ) -> Vec<(Time, E)> {
        let mut order = Vec::new();
        loop {
            let peeked = q.peek().map(|(at, &e)| (at, e));
            assert_eq!(peeked.map(|(at, _)| at), q.peek_time());
            assert_eq!(q.lookahead(), peeked.and_then(|(_, e)| owner(e)));
            let popped = q.pop();
            assert_eq!(peeked, popped);
            let Some(p) = popped else { return order };
            order.push(p);
        }
    }

    #[test]
    fn peek_finds_a_bucket_head_appended_after_others() {
        // From T+0, 12 and 8 µs share bucket 4; the earlier came second.
        let mut q = EventQueue::new();
        schedule_lettered(&mut q, Time::from_micros(12), "b");
        schedule_lettered(&mut q, Time::from_micros(8), "a");
        assert_eq!((q.occupied, q.head[3]), (1 << 3, 1));
        assert_eq!(q.peek(), Some((Time::from_micros(8), &"a")));
        assert_eq!(q.lookahead(), letter("a"));
        let at = Time::from_micros;
        assert_eq!(drain_peeking(&mut q, letter), [(at(8), "a"), (at(12), "b")]);
    }

    #[test]
    fn peek_among_equal_earliest_instants_is_the_first_scheduled() {
        let mut q = EventQueue::new();
        for (us, e) in [(12, "x"), (8, "a"), (8, "c"), (9, "y")] {
            schedule_lettered(&mut q, Time::from_micros(us), e);
        }
        assert_eq!(q.peek(), Some((Time::from_micros(8), &"a")));
        assert_eq!(q.lookahead(), letter("a"));
        let at = Time::from_micros;
        assert_eq!(
            drain_peeking(&mut q, letter),
            [(at(8), "a"), (at(8), "c"), (at(9), "y"), (at(12), "x")]
        );
    }

    #[test]
    fn peek_right_after_a_refile_is_the_new_lowest_head() {
        // All four in bucket 4 from T+0. Popping 8 re-files 13, 12, 12
        // around T+8 µs into bucket 3, in that order: its head is the
        // first 12, not the first entry.
        let mut q = EventQueue::new();
        for (us, e) in [(8, "a"), (13, "b"), (12, "c"), (12, "d")] {
            schedule_lettered(&mut q, Time::from_micros(us), e);
        }
        assert_eq!(q.pop(), Some((Time::from_micros(8), "a")));
        assert_eq!((q.due.len(), q.occupied, q.head[2]), (0, 1 << 2, 1));
        assert_eq!(q.peek(), Some((Time::from_micros(12), &"c")));
        assert_eq!(q.lookahead(), letter("c"));
        let at = Time::from_micros;
        assert_eq!(
            drain_peeking(&mut q, letter),
            [(at(12), "c"), (at(12), "d"), (at(13), "b")]
        );
    }

    #[test]
    fn peek_prefers_the_fifo() {
        let mut q = EventQueue::new();
        for (at, e) in [
            (Time::from_secs(5), "bucket"),
            (Time::ZERO, "first"),
            (Time::ZERO, "second"),
        ] {
            schedule_lettered(&mut q, at, e);
        }
        assert_eq!(q.peek(), Some((Time::ZERO, &"first")));
        assert_eq!(q.lookahead(), letter("first"));
        let order: Vec<_> = drain_peeking(&mut q, letter)
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        assert_eq!(order, ["first", "second", "bucket"]);
    }

    #[test]
    fn peek_of_an_emptied_queue_is_none() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        q.schedule(Time::from_secs(1), 1);
        q.schedule(Time::MAX, 2);
        assert_eq!(drain_peeking(&mut q, unowned).len(), 2);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn an_emptied_bucket_starts_its_head_afresh() {
        // Bucket 2 from T+0 takes 3 then 2 (head 1) and is emptied by
        // the pop at T+2 µs. From T+(2^64 − 4) µs, `Time::MAX` is
        // bucket 2 again: no earlier instant moves the head onto it.
        let mut q = EventQueue::new();
        let far = Time::from_micros(u64::MAX - 3);
        q.schedule(Time::from_micros(3), 3);
        q.schedule(Time::from_micros(2), 2);
        q.schedule(far, 0);
        assert_eq!(q.head[1], 1);
        assert_eq!(q.pop(), Some((Time::from_micros(2), 2)));
        assert_eq!(q.pop(), Some((Time::from_micros(3), 3)));
        assert_eq!(q.pop(), Some((far, 0)));
        q.schedule(Time::MAX, 4);
        assert_eq!(q.occupied, 1 << 1);
        assert_eq!(drain_peeking(&mut q, unowned), [(Time::MAX, 4)]);
    }

    #[test]
    fn peek_skips_an_event_discarded_past_the_end() {
        let mut q = EventQueue::new();
        q.set_end(Time::from_secs(10));
        q.schedule(Time::from_secs(300), "deadline");
        assert_eq!((q.peek(), q.discarded()), (None, 1));
        q.schedule(Time::from_secs(12), "late");
        q.schedule(Time::from_secs(7), "kept");
        assert_eq!(q.peek(), Some((Time::from_secs(7), &"kept")));
        assert_eq!(
            drain_peeking(&mut q, unowned),
            [(Time::from_secs(7), "kept")]
        );
    }

    #[test]
    fn events_are_refiled_below_the_bucket_they_leave() {
        // Spread over every bucket of a 2^40 µs range: each pop
        // re-files the lowest bucket, and no event may land at or
        // above the bucket it left, nor before the clock.
        let mut q = EventQueue::new();
        let mut x = 1u64;
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.schedule(Time::from_micros((x >> 24) >> (i % 40)), i);
        }
        let mut last = Time::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
            for (k, b) in q.buckets.iter().enumerate() {
                assert_eq!(q.occupied >> k & 1 == 1, !b.is_empty());
                for e in b {
                    assert_eq!(bucket(q.now, e.at), k + 1);
                    assert!(q.earliest[k] <= e.at);
                }
            }
        }
        assert_eq!(q.earliest, [Time::MAX; 64]);
    }

    #[test]
    fn drained_buckets_keep_only_small_buffers() {
        // 10 000 one-second windows of 32 events each pass through the
        // queue, 300 windows scheduled ahead of the clock as `try for 5
        // minutes` deadlines are; every 1 000th window is a burst of
        // twice the retention cap, half of it at the window's start.
        const WINDOWS: u64 = 10_000;
        const PER_WINDOW: u64 = 32;
        let burst = 2 * RETAIN_MAX as u64 + 100;
        let per = |w: u64| if w % 1_000 == 999 { burst } else { PER_WINDOW };
        let fill = |q: &mut EventQueue<u64>, w: u64| {
            for i in 0..per(w) {
                let offset = if per(w) == burst && i % 2 == 0 { 0 } else { i };
                q.schedule(Time::from_micros(w * 1_000_000 + offset), w);
            }
        };
        let mut q = EventQueue::new();
        (0..300).for_each(|w| fill(&mut q, w));
        for w in 0..WINDOWS {
            if w + 300 < WINDOWS {
                fill(&mut q, w + 300);
            }
            for _ in 0..per(w) {
                assert_eq!(q.pop().map(|(_, e)| e), Some(w));
            }
        }
        assert!(q.is_empty());
        // Emptied, the queue holds at most one capped buffer per
        // bucket, and the FIFO drops an oversized one on its next
        // advance.
        assert!(q.pop().is_none());
        assert!(q.due.capacity() <= RETAIN_MAX);
        for b in &q.buckets {
            assert!(b.capacity() <= RETAIN_MAX, "{} retained", b.capacity());
        }
    }

    #[test]
    fn len_and_is_empty_count_every_bucket() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(100), 0);
        assert_eq!(q.pop(), Some((Time::from_secs(100), 0)));
        assert!(q.is_empty());
        q.schedule(Time::from_secs(100), 1); // the FIFO
        q.schedule(Time::from_secs(130), 2);
        q.schedule(Time::from_secs(131), 3);
        q.schedule(Time::from_secs(3600), 4);
        q.schedule(Time::MAX, 5);
        assert_eq!(q.due.len(), 1);
        assert_eq!(q.occupied.count_ones(), 3);
        for left in (0..5).rev() {
            assert_eq!((q.len(), q.is_empty()), (left + 1, false));
            assert!(q.pop().is_some());
            assert_eq!(q.len(), left);
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), Time::MAX);
        q.schedule(Time::MAX, 6);
        assert_eq!((q.len(), q.peek_time()), (1, Some(Time::MAX)));
    }

    #[test]
    fn sparse_year_of_hourly_events_then_never() {
        // One event an hour for a year, then one at `Time::MAX`: 8 760
        // instants among 1.8e13 µs. Finding each next one is a mask
        // scan and a re-file, never a walk over empty time — which
        // would not get to the last event in a lifetime.
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
        }
    }

    #[test]
    fn clamped_schedule_joins_the_fifo() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(100) + Dur::from_millis(500), 0);
        q.schedule(Time::from_secs(101), 1);
        q.schedule(Time::from_secs(7200), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        // Only a compiled-away debug_assert guards this in release.
        if cfg!(debug_assertions) {
            return;
        }
        // Asked for T+3 s at T+100.5 s: clamped to now, so it is due
        // next, ahead of everything still queued.
        q.schedule(Time::from_secs(3), 3);
        assert_eq!(q.clamped(), 1);
        assert_eq!(q.due.len(), 1);
        let now = Time::from_secs(100) + Dur::from_millis(500);
        assert_eq!(q.pop(), Some((now, 3)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
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

    /// Slots of `q`'s slab that hold an event.
    fn full_slots<E>(q: &EventQueue<E>) -> usize {
        q.slab.iter().filter(|s| s.is_some()).count()
    }

    #[test]
    fn the_slab_never_outgrows_the_deepest_queue() {
        // 10 000 cycles of a few schedules and a few pops, at depths
        // that rise and fall: the slab reuses freed slots before it
        // grows, so it ends as long as the deepest the queue ever was.
        let mut q = EventQueue::new();
        let (mut x, mut peak) = (7u64, 0);
        for cycle in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (pushes, pops) = ((x >> 33) % 5, (x >> 45) % 5);
            for i in 0..pushes {
                let delay = (x >> (7 * i)) % 1_000_000;
                q.schedule(q.now() + Dur::from_micros(delay), cycle);
            }
            peak = peak.max(q.len());
            for _ in 0..pops {
                q.pop();
            }
            assert!(q.slab.len() <= peak, "{} slots, peak {peak}", q.slab.len());
        }
        assert!(peak > 100, "the depth wandered: peak {peak}");
        assert_eq!(q.slab.len(), peak);
    }

    #[test]
    fn a_schedule_past_the_end_takes_no_slot() {
        let mut q = EventQueue::new();
        q.set_end(Time::from_secs(10));
        q.schedule(Time::from_secs(300), "deadline");
        assert_eq!((q.slab.len(), q.discarded()), (0, 1));
        q.schedule(Time::from_secs(5), "kept");
        q.schedule(Time::MAX, "never");
        assert_eq!((q.slab.len(), q.free.len()), (1, 0));
        assert_eq!(q.pop(), Some((Time::from_secs(5), "kept")));
        // The freed slot is reused; a later discard still takes none.
        q.schedule(Time::from_secs(11), "late");
        q.schedule(Time::from_secs(6), "again");
        assert_eq!((q.slab.len(), q.free.len(), q.discarded()), (1, 0, 3));
    }

    #[test]
    fn len_is_the_number_of_full_slots() {
        let mut q = EventQueue::new();
        let mut x = 3u64;
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if x >> 62 == 0 {
                q.pop();
            } else {
                // Some at `now` (the FIFO), the rest spread over buckets.
                let delay = if x >> 61 & 1 == 0 {
                    0
                } else {
                    (x >> 20) % (1 << 30)
                };
                q.schedule(q.now() + Dur::from_micros(delay), i);
            }
            let keys = q.due.len() + q.buckets.iter().map(Vec::len).sum::<usize>();
            assert_eq!((q.len(), full_slots(&q)), (keys, keys));
        }
        while q.pop().is_some() {}
        assert_eq!((q.len(), full_slots(&q)), (0, 0));
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
