//! The simulator's phase timer (DESIGN.md §10, "Where an event's
//! cycles go"): [`SimDriver`](crate::SimDriver) charges every cycle of
//! its event loop to exactly one [`Phase`], read off
//! [`simgrid::cycles`] at each phase boundary.
//!
//! The timer is off unless a caller runs the simulation inside
//! [`timed`], on its own thread: `figures --stats` does. A driver
//! checks once per [`run_until`](crate::SimDriver::run_until) call and
//! runs one of two copies of its loop, so with the timer off the loop
//! reads no counter and makes no check per event.

use simgrid::trace::{SharedSink, TraceRecord, TraceSink};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

/// Where a cycle of the event loop goes. Each cycle is charged to one
/// phase only: a phase that runs another (a delivery that ticks a VM)
/// is charged only for its own part.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `peek_time`, `pop`, and the lookahead and its prefetches.
    Queue,
    /// [`ftsh::Vm::tick_into`], each time [`ftsh::step`] ticks.
    Vm,
    /// The rest of a step: the world's `exec` and `cancelled`, routing
    /// the tick's effects and recycling their specs.
    Exec,
    /// A completion's delivery, up to the tick it earns.
    Deliver,
    /// The world's `on_event` and `unit_done`, and faults, up to the
    /// ticks they trigger.
    World,
    /// Writes into the trace sink, when one is installed.
    Trace,
    /// Everything else: the loop itself, wake bookkeeping, unit
    /// turnover, arming the next wake.
    Rest,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 7] = [
        Phase::Queue,
        Phase::Vm,
        Phase::Exec,
        Phase::Deliver,
        Phase::World,
        Phase::Trace,
        Phase::Rest,
    ];

    /// The phase's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::Vm => "vm",
            Phase::Exec => "exec",
            Phase::Deliver => "deliver",
            Phase::World => "world",
            Phase::Trace => "trace",
            Phase::Rest => "rest",
        }
    }
}

/// What the timer charged inside one [`timed`] scope: cycles per
/// phase, indexed like [`Phase::ALL`]. Divide by the events the timed
/// runs popped ([`RunCounts`](crate::RunCounts)) for a per-event split.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCycles(pub [u64; 7]);

impl PhaseCycles {
    /// Cycles charged to `p`.
    pub fn of(&self, p: Phase) -> u64 {
        self.0[p as usize]
    }

    /// Cycles charged to every phase together.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

struct Timer {
    on: Cell<bool>,
    cycles: [Cell<u64>; 7],
    running: Cell<Phase>,
    since: Cell<u64>,
}

thread_local! {
    static TIMER: Timer = const {
        Timer {
            on: Cell::new(false),
            cycles: [const { Cell::new(0) }; 7],
            running: Cell::new(Phase::Rest),
            since: Cell::new(0),
        }
    };
}

/// Run `f` with the phase timer on for this thread, and return what it
/// charged. Simulations `f` runs on other threads (a parallel sweep's
/// workers) are not timed.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, PhaseCycles) {
    TIMER.with(|t| {
        assert!(!t.on.replace(true), "phase timer scopes do not nest");
        t.cycles.iter().for_each(|c| c.set(0));
    });
    // Switched off again even if `f` panics.
    struct Off;
    impl Drop for Off {
        fn drop(&mut self) {
            TIMER.with(|t| t.on.set(false));
        }
    }
    let off = Off;
    let r = f();
    drop(off);
    let charged = TIMER.with(|t| PhaseCycles(t.cycles.each_ref().map(Cell::get)));
    (r, charged)
}

/// Whether this thread is inside [`timed`].
pub(crate) fn enabled() -> bool {
    TIMER.with(|t| t.on.get())
}

/// The driver's view of the timer: its event loop is generic over
/// this, so the copy it runs with [`Off`] is the untimed loop.
pub(crate) trait Clock {
    /// Start charging: the cycles from now on go to [`Phase::Queue`].
    fn start();
    /// Charge the cycles since the last boundary to the phase that ran
    /// them, and charge the ones from now on to `p`. Returns the phase
    /// that ran, so a nested phase can hand back to it.
    fn enter(p: Phase) -> Phase;
}

/// No timer: every call is empty and inlines away.
pub(crate) struct Off;

impl Clock for Off {
    #[inline(always)]
    fn start() {}
    #[inline(always)]
    fn enter(_: Phase) -> Phase {
        Phase::Rest
    }
}

/// The time-stamp counter, charged into this thread's timer.
pub(crate) struct Tsc;

impl Clock for Tsc {
    fn start() {
        TIMER.with(|t| {
            t.running.set(Phase::Queue);
            t.since.set(simgrid::cycles());
        });
    }

    #[inline]
    fn enter(p: Phase) -> Phase {
        TIMER.with(|t| {
            let was = t.running.get();
            // Entering the phase that runs is no boundary: no reading.
            if was != p {
                let now = simgrid::cycles();
                let c = &t.cycles[was as usize];
                c.set(c.get() + now.wrapping_sub(t.since.replace(now)));
                t.running.set(p);
            }
            was
        })
    }
}

/// A trace sink whose writes are charged to [`Phase::Trace`]. The
/// driver installs it in place of the run's sink while the timer is
/// on.
struct TimedSink(SharedSink);

impl TraceSink for TimedSink {
    fn record(&mut self, rec: &TraceRecord) {
        let was = Tsc::enter(Phase::Trace);
        self.0.lock().expect("trace sink poisoned").record(rec);
        Tsc::enter(was);
    }
}

/// `sink`, with its writes charged to [`Phase::Trace`] when the timer
/// is on; `sink` itself otherwise.
pub(crate) fn charge_trace(sink: SharedSink) -> SharedSink {
    if enabled() {
        Arc::new(Mutex::new(TimedSink(sink)))
    } else {
        sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_timer_is_off_outside_its_scope() {
        assert!(!enabled());
        let ((), charged) = timed(|| {
            assert!(enabled());
            Tsc::start();
            assert_eq!(Tsc::enter(Phase::Vm), Phase::Queue);
            assert_eq!(Tsc::enter(Phase::Vm), Phase::Vm);
            assert_eq!(Tsc::enter(Phase::Rest), Phase::Vm);
        });
        assert!(!enabled());
        assert_eq!(charged.of(Phase::Trace), 0);
        assert_eq!(
            charged.total(),
            charged.of(Phase::Queue) + charged.of(Phase::Vm)
        );
    }

    #[test]
    fn a_panicking_scope_switches_the_timer_off() {
        let r = std::panic::catch_unwind(|| timed(|| panic!("inside")));
        assert!(r.is_err());
        assert!(!enabled());
    }
}
