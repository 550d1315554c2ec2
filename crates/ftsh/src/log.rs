//! The execution log.
//!
//! §4: *"While executing a script, ftsh keeps a log of varying detail
//! about the program. Online or post-mortem analysis may determine more
//! detailed reasons for process failure, the exact resources used to
//! execute the program, the frequency of each failure branch, and so
//! forth."* The VM emits one [`TraceRecord`] per interesting
//! transition — the same record the simulator's worlds and the live
//! swarm write, so one reader ([`simgrid::postmortem`]) analyses any of
//! them — and [`LogSummary`] counts the transitions as they happen.
//!
//! The log has *varying detail* in a literal sense. The counters are
//! bumped at every emission site, always. A record is built only when
//! a sink installed with `Vm::set_tracer` will receive it, and that
//! sink is the one way a record leaves a VM: a [`VecSink`] keeps it in
//! memory, a [`JsonlSink`] writes it to a file, a [`RingSink`] keeps
//! the last few. With no sink — how large VM populations run — a
//! million ticks of simulation build no record and allocate nothing
//! for the log.
//!
//! [`TraceRecord`]: simgrid::trace::TraceRecord
//! [`VecSink`]: simgrid::trace::VecSink
//! [`JsonlSink`]: simgrid::trace::JsonlSink
//! [`RingSink`]: simgrid::trace::RingSink

use retry::Dur;

/// The counters a VM keeps of its run; its records go to its sink.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventLog {
    /// Bumped by the VM beside each emission.
    pub(crate) summary: LogSummary,
}

impl EventLog {
    /// Post-mortem aggregate — an O(1) copy of the running counters.
    pub fn summary(&self) -> LogSummary {
        self.summary
    }
}

/// Aggregated view of an [`EventLog`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogSummary {
    /// Commands dispatched.
    pub commands_started: u64,
    /// Commands that exited zero.
    pub commands_succeeded: u64,
    /// Commands that exited nonzero.
    pub commands_failed: u64,
    /// Commands killed by deadlines.
    pub commands_cancelled: u64,
    /// `try` attempts opened.
    pub attempts: u64,
    /// Backoff delays taken.
    pub backoffs: u64,
    /// Total time spent backing off.
    pub total_backoff: Dur,
    /// `try` blocks that ran out of budget.
    pub exhausted_tries: u64,
    /// `try` blocks whose deadline killed in-flight work.
    pub timed_out_tries: u64,
    /// `catch` handlers entered.
    pub catches: u64,
    /// `forany` alternative switches.
    pub alternatives_tried: u64,
}

impl std::ops::AddAssign for LogSummary {
    fn add_assign(&mut self, o: LogSummary) {
        self.commands_started += o.commands_started;
        self.commands_succeeded += o.commands_succeeded;
        self.commands_failed += o.commands_failed;
        self.commands_cancelled += o.commands_cancelled;
        self.attempts += o.attempts;
        self.backoffs += o.backoffs;
        self.total_backoff += o.total_backoff;
        self.exhausted_tries += o.exhausted_tries;
        self.timed_out_tries += o.timed_out_tries;
        self.catches += o.catches;
        self.alternatives_tried += o.alternatives_tried;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_addition_accumulates() {
        let mut a = LogSummary {
            attempts: 2,
            backoffs: 1,
            total_backoff: Dur::from_secs(3),
            ..LogSummary::default()
        };
        let b = LogSummary {
            attempts: 5,
            total_backoff: Dur::from_secs(4),
            ..LogSummary::default()
        };
        a += b;
        assert_eq!(a.attempts, 7);
        assert_eq!(a.backoffs, 1);
        assert_eq!(a.total_backoff, Dur::from_secs(7));
    }
}
