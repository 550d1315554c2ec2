//! Host-speed calibration: every timed section is bracketed by a fixed
//! reference kernel, and its wall time is divided by how much slower
//! than nominal the kernel ran beside it.
//!
//! Why: on the shared 2-CPU sandbox the same single-threaded work
//! takes 0.48–0.88 s from one repetition to the next (the slow-down
//! shows in the process's own CPU time, not as steal, and moves on a
//! 0.1–20 s scale), so raw medians of a 12 s run differ by 13–19 %
//! between runs — wider than any regression bound worth having. A
//! kernel run right before and after a section tracks that slow-down:
//! dividing by it brought the same spread to 2–3 % (4 100 repetitions
//! of fig2; see README, "Calibrated seconds").
//!
//! The kernel is ordinary Rust without the allocator — format an
//! integer key, hash it with SipHash, probe an open-addressing table,
//! store a 24-byte value — because what slows the host down does not
//! slow all code alike: in a disturbed spell a dependent integer chain
//! read 0 % slower while a TCP echo read 50 % slower and the simulator
//! 20 %. Over 10 s windows of fig2, normalising by a 16 KiB dependent
//! chain left a 3.8–5.0 % spread, by sort-and-branch 3.0–4.0 %, by this
//! kernel 2.6 %. (The same through a real `HashMap` with `String` keys
//! read 1.8–2.2 %, but its speed depends on the state of the process's
//! heap: beside `ftsh_scripts` it ran 38 % slower than beside
//! `sim_figures`.)
//!
//! A *calibrated second* is therefore the time in which the reference
//! kernel completes `1e9 / NOMINAL_NS_PER_OP` operations: on a host
//! running at nominal speed it equals a wall second. It is not a wall
//! unit, and nothing reports it as one: calibrated metrics carry a
//! `cal_` unit, and every report prints the kernel's measured ns per
//! operation and the slow-down (`bench.kernel_ns_per_op`,
//! `bench.host_slowdown`), so that `cal × slow-down` recovers wall
//! time. The kernel is compiled code over `std`'s formatter and
//! SipHash: another `rustc`, `std` or host rescales every calibrated
//! number alike, so compare calibrated numbers only between runs of
//! one toolchain on one host — which is what a parent-against-change
//! comparison is.

use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;

/// Reference-kernel cost per operation on the sandbox at its unloaded
/// speed (rustc 1.95). Only a scale: it makes a
/// calibrated second read like a wall second there, and cancels out of
/// every comparison between two runs.
pub const NOMINAL_NS_PER_OP: f64 = 25.0;

const KERNEL_OPS: usize = 5_000;
const KERNEL_KEYS: usize = 512;
/// Table slots (a power of two, four per key): 64 KiB.
const KERNEL_SLOTS: usize = 2048;
/// Sub-runs per sample; the fastest one is kept, since a preemption
/// only ever adds time.
const SUB_RUNS: usize = 3;
/// A sample taken this recently still describes the host.
const FRESH_NS: u128 = 2_000_000;

/// One timed section: wall seconds, and the same interval in
/// calibrated seconds.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Wall seconds divided by the slow-down measured beside the section.
    pub cal_s: f64,
}

/// An open timed section (see [`Meter::start`]).
pub struct Section {
    before: f64,
    started: Instant,
}

/// Times sections in calibrated seconds.
pub struct Meter {
    /// The kernel's table: `(key hash, value)`, hash 0 = empty.
    slots: Box<[(u64, [u8; 24])]>,
    /// When the latest sample ended, and the slow-down it read.
    last: Option<(Instant, f64)>,
    /// Every slow-down read, for the `bench.host_slowdown` metric.
    slowdowns: Vec<f64>,
}

/// `fmt::Write` into a fixed buffer.
struct SliceWriter<'a> {
    buf: &'a mut [u8],
    len: usize,
}

impl std::fmt::Write for SliceWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        self.buf
            .get_mut(self.len..end)
            .ok_or(std::fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

impl Meter {
    /// A meter with a warmed-up kernel.
    pub fn new() -> Meter {
        let mut m = Meter {
            slots: vec![(0, [0; 24]); KERNEL_SLOTS].into(),
            last: None,
            slowdowns: Vec::new(),
        };
        for _ in 0..8 {
            m.kernel();
        }
        m
    }

    /// One pass of the reference kernel: an upsert per operation into
    /// the table, keyed by a formatted integer. Allocation-free, and
    /// the same work in every process (`DefaultHasher::new` has fixed
    /// keys). Returns nanoseconds per operation.
    fn kernel(&mut self) -> f64 {
        let started = Instant::now();
        for i in 0..KERNEL_OPS {
            let mut key = [0u8; 24];
            let mut w = SliceWriter {
                buf: &mut key,
                len: 0,
            };
            write!(w, "k{}", i % KERNEL_KEYS).expect("the key fits its buffer");
            let len = w.len;
            let mut hasher = DefaultHasher::new();
            hasher.write(&key[..len]);
            let hash = hasher.finish() | 1;
            let mut at = hash as usize % KERNEL_SLOTS;
            while self.slots[at].0 != 0 && self.slots[at].0 != hash {
                at = (at + 1) % KERNEL_SLOTS;
            }
            self.slots[at] = (hash, [i as u8; 24]);
        }
        std::hint::black_box(&self.slots);
        started.elapsed().as_nanos() as f64 / KERNEL_OPS as f64
    }

    /// How many times slower than nominal the host runs right now.
    fn sample(&mut self) -> f64 {
        let best = (0..SUB_RUNS)
            .map(|_| self.kernel())
            .fold(f64::INFINITY, f64::min);
        let slowdown = best / NOMINAL_NS_PER_OP;
        self.last = Some((Instant::now(), slowdown));
        self.slowdowns.push(slowdown);
        slowdown
    }

    /// Open a timed section: take (or reuse, if fresh) the calibration
    /// sample before it and start the wall clock.
    pub fn start(&mut self) -> Section {
        let before = match self.last {
            Some((at, s)) if at.elapsed().as_nanos() < FRESH_NS => s,
            _ => self.sample(),
        };
        Section {
            before,
            started: Instant::now(),
        }
    }

    /// Close a timed section: stop the wall clock, then take the
    /// calibration sample after it.
    pub fn stop(&mut self, section: Section) -> Timed {
        let wall_s = section.started.elapsed().as_secs_f64();
        let after = self.sample();
        Timed {
            wall_s,
            cal_s: wall_s / ((section.before + after) / 2.0),
        }
    }

    /// Run `f` as one timed section.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let section = self.start();
        let out = f();
        (out, self.stop(section))
    }

    /// Median slow-down over every sample taken so far (1.0 = nominal).
    pub fn median_slowdown(&self) -> f64 {
        crate::stats::median(&self.slowdowns).unwrap_or(1.0)
    }

    /// The same as the kernel's measured wall nanoseconds per operation.
    pub fn median_kernel_ns_per_op(&self) -> f64 {
        self.median_slowdown() * NOMINAL_NS_PER_OP
    }
}
