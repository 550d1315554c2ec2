//! Readiness and timers for the event-driven server core: a thin safe
//! wrapper over Linux `epoll` (via the workspace's raw `libc` shim),
//! the simulator's event queue (a radix heap) as a timer store, and a
//! cross-thread waker.
//!
//! The old server pinned one OS thread per connection and *slept*
//! through every service time, latency spike, and black-hole window —
//! which caps the daemon near the worker-pool size. Everything here
//! exists so that a connection is just a few hundred bytes of state
//! and a wait is just a queue entry: the [`Epoll`] instance says
//! which sockets can make progress, the [`TimerWheel`] says which
//! deferred completions are due, and one thread multiplexes thousands
//! of both.

use retry::{Dur, Time};
use simgrid::EventQueue;
use std::io::{self, Read as _, Write as _};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

// ----------------------------------------------------------------- epoll

/// One readiness record from [`Epoll::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can take more bytes.
    pub writable: bool,
    /// Error or hang-up: the peer is gone or the fd is broken.
    pub hangup: bool,
}

/// A Linux epoll instance. Level-triggered, close-on-exec.
pub struct Epoll {
    fd: RawFd,
}

fn interest_bits(read: bool, write: bool) -> u32 {
    let mut bits = libc::EPOLLRDHUP;
    if read {
        bits |= libc::EPOLLIN;
    }
    if write {
        bits |= libc::EPOLLOUT;
    }
    bits
}

impl Epoll {
    /// A fresh epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(
        &self,
        op: libc::c_int,
        fd: RawFd,
        token: u64,
        read: bool,
        write: bool,
    ) -> io::Result<()> {
        let mut ev = libc::epoll_event {
            events: interest_bits(read, write),
            u64: token,
        };
        let rc = unsafe { libc::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with `token` and the given interest set.
    pub fn add(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, token, read, write)
    }

    /// Change `fd`'s interest set.
    pub fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, token, read, write)
    }

    /// Deregister `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let rc = unsafe { libc::epoll_ctl(self.fd, libc::EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait for readiness, at most `timeout` (`None`: indefinitely).
    /// Fills `out` (cleared first) and returns how many records landed.
    /// `EINTR` is reported as zero events, not an error.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        const CAP: usize = 256;
        let mut raw = [libc::epoll_event { events: 0, u64: 0 }; CAP];
        let timeout_ms: libc::c_int = match timeout {
            None => -1,
            // Round up so we never wake before a timer's deadline.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as libc::c_int,
        };
        let n =
            unsafe { libc::epoll_wait(self.fd, raw.as_mut_ptr(), CAP as libc::c_int, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(libc::EINTR) {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in raw.iter().take(n as usize) {
            let bits = ev.events;
            out.push(Event {
                token: ev.u64,
                readable: bits & libc::EPOLLIN != 0,
                writable: bits & libc::EPOLLOUT != 0,
                hangup: bits & (libc::EPOLLERR | libc::EPOLLHUP | libc::EPOLLRDHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { libc::close(self.fd) };
    }
}

/// Put `fd` into non-blocking mode.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    let flags = unsafe { libc::fcntl(fd, libc::F_GETFL) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    let rc = unsafe { libc::fcntl(fd, libc::F_SETFL, flags | libc::O_NONBLOCK) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Widen a listening socket's kernel accept backlog (std's `bind`
/// hard-codes 128, which a thousand-client stampede overflows).
pub fn widen_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
    let rc = unsafe { libc::listen(fd, backlog) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

// ----------------------------------------------------------------- waker

/// Cross-thread wake-up for an epoll loop: one end is registered in
/// the loop ([`WakeRx::fd`], the receiving half), the other is poked
/// from any thread.
pub struct Waker {
    tx: UnixStream,
}

/// The loop-side half of a [`Waker`]: register [`WakeRx::fd`] for
/// readability and [`WakeRx::drain`] it when it fires.
pub struct WakeRx {
    rx: UnixStream,
}

/// A connected waker pair.
pub fn waker() -> io::Result<(Waker, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeRx { rx }))
}

impl Waker {
    /// Wake the loop. A full pipe means a wake is already pending, so
    /// `WouldBlock` is success.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

impl WakeRx {
    /// The fd to register for readability.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consume all pending wake bytes.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

// ---------------------------------------------------------------- timers

/// The reactors' timer store: the simulator's own radix queue,
/// [`EventQueue`], on microseconds since `epoch` — one future-event
/// list, here on the wall clock (DESIGN.md §11). A deadline is rounded
/// *up* to a microsecond when scheduled and `now` is rounded *down*
/// when advancing, so a timer never fires early; timers fire in
/// deadline order, ties in schedule order. A deadline is clamped to the
/// last one fired before it is scheduled: the radix queue takes no key
/// below that.
pub struct TimerWheel<T> {
    epoch: Instant,
    queue: EventQueue<T>,
}

impl<T> TimerWheel<T> {
    /// A timer store whose microsecond 0 is `epoch` (usually the
    /// loop's start).
    pub fn new(epoch: Instant) -> TimerWheel<T> {
        TimerWheel {
            epoch,
            queue: EventQueue::new(),
        }
    }

    /// Pending timer count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedule `item` to fire at `at` (never earlier; instants already
    /// in the past fire on the next [`TimerWheel::advance`]).
    pub fn schedule(&mut self, at: Instant, item: T) {
        let since = at.saturating_duration_since(self.epoch);
        let us = since.as_micros() as u64 + u64::from(!since.subsec_nanos().is_multiple_of(1000));
        // The queue's clock is the last deadline it fired. On a wall
        // clock an instant behind that is merely due, not the ordering
        // bug the queue's own past-schedule check is there to catch.
        let at = Time::from_micros(us).max(self.queue.now());
        self.queue.schedule(at, item);
    }

    /// Fire every timer due at or before `now`, in deadline order
    /// (schedule order among equal deadlines), appending the items to
    /// `fired`.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<T>) {
        let now = Time::ZERO + Dur::from_std(now.saturating_duration_since(self.epoch));
        while self.queue.peek_time().is_some_and(|at| at <= now) {
            fired.push(self.queue.pop().expect("peeked").1);
        }
    }

    /// The earliest pending deadline, or `None` when there are no
    /// timers. Drives the epoll wait timeout.
    pub fn next_deadline(&self) -> Option<Instant> {
        let at = self.queue.peek_time()?;
        Some(self.epoch + Duration::from_micros(at.as_micros()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgrid::SimRng;

    #[test]
    fn wheel_fires_in_deadline_order_and_never_early() {
        let t0 = Instant::now();
        let mut w: TimerWheel<u32> = TimerWheel::new(t0);
        w.schedule(t0 + Duration::from_millis(30), 3);
        w.schedule(t0 + Duration::from_millis(10), 1);
        w.schedule(t0 + Duration::from_millis(20), 2);
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(5), &mut fired);
        assert!(fired.is_empty(), "nothing due yet");
        w.advance(t0 + Duration::from_millis(21), &mut fired);
        assert_eq!(fired, vec![1, 2]);
        w.advance(t0 + Duration::from_millis(60), &mut fired);
        assert_eq!(fired, vec![1, 2, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn a_far_timer_stays_pending_until_its_deadline() {
        let t0 = Instant::now();
        let mut w: TimerWheel<&str> = TimerWheel::new(t0);
        w.schedule(t0 + Duration::from_secs(30), "far");
        w.schedule(t0 + Duration::from_millis(50), "near");
        assert_eq!(w.len(), 2);
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_secs(10), &mut fired);
        assert_eq!(fired, vec!["near"]);
        w.advance(t0 + Duration::from_secs(31), &mut fired);
        assert_eq!(fired, vec!["near", "far"]);
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let t0 = Instant::now();
        let mut w: TimerWheel<u8> = TimerWheel::new(t0);
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(100), &mut fired);
        w.schedule(t0 + Duration::from_millis(10), 9); // already past
        w.advance(t0 + Duration::from_millis(101), &mut fired);
        assert_eq!(fired, vec![9]);
    }

    #[test]
    fn next_deadline_tracks_the_earliest_entry() {
        let t0 = Instant::now();
        let mut w: TimerWheel<u8> = TimerWheel::new(t0);
        assert!(w.next_deadline().is_none());
        w.schedule(t0 + Duration::from_secs(30), 1);
        let far_only = w.next_deadline().unwrap();
        assert!(far_only >= t0 + Duration::from_secs(30));
        w.schedule(t0 + Duration::from_millis(40), 2);
        let near = w.next_deadline().unwrap();
        assert!(near >= t0 + Duration::from_millis(40));
        assert!(near <= t0 + Duration::from_millis(42));
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let t0 = Instant::now();
        let mut w: TimerWheel<u8> = TimerWheel::new(t0);
        let at = t0 + Duration::from_millis(7);
        for k in 0..10 {
            w.schedule(at, k);
        }
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(8), &mut fired);
        assert_eq!(fired, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn timers_inside_one_millisecond_fire_in_deadline_order() {
        let t0 = Instant::now();
        let mut w: TimerWheel<&str> = TimerWheel::new(t0);
        w.schedule(t0 + Duration::from_micros(5_600), "later");
        w.schedule(t0 + Duration::from_micros(5_300), "sooner");
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_micros(5_299), &mut fired);
        assert!(fired.is_empty(), "nothing due yet");
        w.advance(t0 + Duration::from_millis(6), &mut fired);
        assert_eq!(fired, ["sooner", "later"]);
    }

    #[test]
    fn next_deadline_is_not_rounded_to_a_millisecond() {
        let t0 = Instant::now();
        let mut w: TimerWheel<()> = TimerWheel::new(t0);
        w.schedule(t0 + Duration::from_micros(2_300), ());
        let next = w.next_deadline().unwrap();
        assert!(next >= t0 + Duration::from_micros(2_300));
        assert!(next < t0 + Duration::from_micros(2_400));
    }

    /// The contract, against a sorted `Vec`: one seeded stream of
    /// schedules, advances and peeks around a moving `now`, with
    /// deadlines from 50 ms in the past (some before the epoch) to two
    /// hours out, sub-microsecond offsets and exact ties.
    #[test]
    fn generated_schedules_match_a_sorted_vec() {
        const NS: i64 = 1_000_000_000;
        // The epoch sits a second after `base`, so an instant up to a
        // second before it is still `base` plus something.
        let base = Instant::now();
        let epoch = base + Duration::from_secs(1);
        let instant = |ns: i64| base + Duration::from_nanos((NS + ns) as u64);
        for seed in 0..8 {
            let mut rng = SimRng::new(seed);
            let mut pick = |n: i64| rng.range_u64(0, n as u64) as i64;
            let mut w: TimerWheel<usize> = TimerWheel::new(epoch);
            // (effective µs, id) in firing order; ids count up, so they
            // are the schedule order. `deadline_ns[id]` is what was asked.
            let mut oracle: Vec<(u64, usize)> = Vec::new();
            let mut deadline_ns: Vec<i64> = Vec::new();
            // A deadline behind the last one fired joins it.
            let mut frontier_us = 0u64;
            let mut now = NS / 100;
            let mut fired = Vec::new();
            for _ in 0..3_000 {
                match pick(10) {
                    0..=5 => {
                        let at = match pick(6) {
                            0 => now - pick(NS / 20),
                            1 => now + pick(1_000_000),
                            2 => now + pick(1_000) * 1_000_000,
                            3 => now + pick(4 * NS),
                            4 => now + pick(7_200 * NS),
                            _ => *deadline_ns.last().unwrap_or(&now),
                        };
                        let id = deadline_ns.len();
                        deadline_ns.push(at);
                        w.schedule(instant(at), id);
                        let us = (at.max(0) as u64).div_ceil(1_000).max(frontier_us);
                        let pos = oracle.partition_point(|&e| e <= (us, id));
                        oracle.insert(pos, (us, id));
                    }
                    _ => {
                        now += match pick(16) {
                            0..=6 => pick(300_000),
                            7..=10 => pick(NS / 50),
                            11..=14 => pick(2 * NS),
                            _ => pick(3_600 * NS),
                        };
                        fired.clear();
                        w.advance(instant(now), &mut fired);
                        let due = oracle.partition_point(|&(us, _)| us as i64 * 1_000 <= now);
                        if due > 0 {
                            frontier_us = oracle[due - 1].0;
                        }
                        let want: Vec<usize> = oracle.drain(..due).map(|(_, id)| id).collect();
                        assert_eq!(fired, want, "seed {seed}: (deadline, schedule) order");
                        for &id in &fired {
                            assert!(
                                deadline_ns[id] <= now,
                                "seed {seed}: timer {id} fired early"
                            );
                        }
                    }
                }
                assert_eq!((w.len(), w.is_empty()), (oracle.len(), oracle.is_empty()));
                let want = oracle
                    .first()
                    .map(|&(us, _)| epoch + Duration::from_micros(us));
                assert_eq!(w.next_deadline(), want, "seed {seed}: next deadline");
            }
        }
    }

    #[test]
    fn waker_wakes_an_epoll_wait() {
        let (tx, rx) = waker().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(rx.fd(), 77, true, false).unwrap();
        let mut out = Vec::new();
        assert_eq!(ep.wait(&mut out, Some(Duration::ZERO)).unwrap(), 0);
        tx.wake();
        tx.wake(); // coalesces
        assert_eq!(ep.wait(&mut out, Some(Duration::from_secs(1))).unwrap(), 1);
        assert_eq!(out[0].token, 77);
        assert!(out[0].readable);
        rx.drain();
        assert_eq!(ep.wait(&mut out, Some(Duration::ZERO)).unwrap(), 0);
    }
}
