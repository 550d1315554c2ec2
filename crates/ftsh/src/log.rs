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
//! bumped at every emission site whatever else is switched on. A record
//! is built only when someone will receive it: this log, while it is
//! in detailed mode (the default), and the sink installed with
//! `Vm::set_tracer`, if any. Large VM populations run counters-only
//! ([`EventLog::set_detailed`]`(false)`) with no sink, so a million
//! ticks of simulation build no record and allocate nothing for the
//! log; interactive and post-mortem runs keep the full stream.

use retry::Dur;
use simgrid::trace::TraceRecord;

/// The records a VM retained and the counters it always keeps.
#[derive(Clone, Debug)]
pub struct EventLog {
    events: Vec<TraceRecord>,
    /// Bumped by the VM beside each emission, in either detail mode.
    pub(crate) summary: LogSummary,
    detailed: bool,
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog {
            events: Vec::new(),
            summary: LogSummary::default(),
            detailed: true,
        }
    }
}

impl EventLog {
    /// An empty log (detailed mode).
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Switch record retention on or off. Counters keep accumulating in
    /// either mode; records already stored are kept.
    pub fn set_detailed(&mut self, detailed: bool) {
        self.detailed = detailed;
    }

    /// Whether records are being retained.
    pub fn is_detailed(&self) -> bool {
        self.detailed
    }

    /// Forget every record and zero every counter; keep the mode.
    pub(crate) fn reset(&mut self) {
        self.events.clear();
        self.summary = LogSummary::default();
    }

    /// Retain `rec` if the log is detailed.
    pub(crate) fn keep(&mut self, rec: TraceRecord) {
        if self.detailed {
            self.events.push(rec);
        }
    }

    /// All retained records in emission order (empty in counters-only
    /// mode).
    pub fn events(&self) -> &[TraceRecord] {
        &self.events
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Post-mortem aggregate — an O(1) copy of the running counters,
    /// valid in both detail modes.
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
    use retry::Time;
    use simgrid::trace::{TraceEv, NO_ID};

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

    #[test]
    fn empty_log() {
        let log = EventLog::new();
        assert!(log.is_empty());
        assert_eq!(log.summary(), LogSummary::default());
    }

    #[test]
    fn counters_only_mode_keeps_summary_but_no_events() {
        let rec = TraceRecord {
            t: Time::ZERO,
            client: NO_ID,
            task: 0,
            ev: TraceEv::AttemptStart {
                attempt: 1,
                budget: None,
            },
        };
        let mut log = EventLog::new();
        assert!(log.is_detailed());
        log.summary.attempts += 1;
        log.keep(rec.clone());
        log.set_detailed(false);
        assert!(!log.is_detailed());
        log.summary.attempts += 1;
        log.keep(rec.clone());
        // What was stored stays; what came after was only counted.
        assert_eq!(log.events(), [rec]);
        assert_eq!((log.len(), log.summary().attempts), (1, 2));
    }
}
