//! A synchronous driver for the VM.
//!
//! [`VmDriver`] runs a [`Vm`] to completion against a closure executor:
//! each command is executed synchronously the moment the VM asks for
//! it, and time is virtual — the driver jumps straight to each backoff
//! wake-up or `try` deadline instead of sleeping. That gives instant,
//! deterministic script execution, ideal for tests and for reasoning
//! about scripts (the `procman` crate provides the real-process driver
//! with kill escalation).
//!
//! Note the executor is synchronous, so `forall` branches are started
//! in order and their commands run sequentially; the VM semantics
//! (all-must-succeed, abort-on-first-failure) are preserved.

use crate::vm::{step, Answers, CmdResult, CmdToken, CommandSpec, Executor, Vm, VmStatus};
use retry::Time;

/// The final state of a driven script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    success: bool,
    ticks: u64,
}

impl RunOutcome {
    /// Did the script as a whole succeed?
    pub fn success(&self) -> bool {
        self.success
    }

    /// How many times the VM was ticked to get there.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

/// Drives a [`Vm`] on a virtual clock with a synchronous executor
/// closure.
pub struct VmDriver {
    vm: Vm,
    now: Time,
}

impl VmDriver {
    /// A driver for `vm`, its clock at `T+0`.
    pub fn new(vm: Vm) -> VmDriver {
        VmDriver {
            vm,
            now: Time::ZERO,
        }
    }

    /// Access the VM (e.g. its log) after or during a run.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Mutable access to the VM, e.g. to reseed it between runs.
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }

    /// Install a structured-trace sink on the underlying VM; every
    /// attempt, backoff, and command boundary is recorded as it
    /// happens. `client` labels this driver's records when several
    /// drivers share one sink.
    pub fn set_tracer(&mut self, sink: simgrid::trace::SharedSink, client: i64) {
        self.vm.set_tracer(sink, client);
    }

    /// The virtual instant the run has reached.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Run the script to completion. `exec` is called once per command;
    /// `Ok(stdout)` is success, `Err(_)` failure. Panics are not
    /// caught.
    pub fn run_to_completion<F>(&mut self, exec: F) -> RunOutcome
    where
        F: FnMut(&CommandSpec) -> Result<String, String>,
    {
        let mut exec = Inline(exec);
        let mut effects = Vec::new();
        let mut ticks = 0;
        loop {
            let (status, n) = step(&mut self.vm, self.now, &mut effects, &mut exec);
            ticks += n;
            match status {
                VmStatus::Done { success } => return RunOutcome { success, ticks },
                VmStatus::Running { next_wake: Some(t) } => self.now = self.now.max(t),
                VmStatus::Running { next_wake: None } => {
                    unreachable!("a synchronous executor leaves no command in flight")
                }
            }
        }
    }
}

/// A closure that runs each command to its end as it starts.
struct Inline<F>(F);

impl<F: FnMut(&CommandSpec) -> Result<String, String>> Executor for Inline<F> {
    fn start(&mut self, token: CmdToken, spec: &CommandSpec, answers: &mut Answers<'_>) {
        let result = match (self.0)(spec) {
            Ok(out) => CmdResult::ok(out),
            Err(_) => CmdResult::fail(),
        };
        answers.answer(token, result);
    }

    fn cancel(&mut self, _: CmdToken, _: &mut Answers<'_>) {
        // Synchronous commands are already finished by the time a
        // cancel could be issued.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn drive(
        src: &str,
        mut exec: impl FnMut(&CommandSpec) -> Result<String, String>,
    ) -> (bool, Time) {
        let script = parse(src).unwrap();
        let mut d = VmDriver::new(Vm::with_seed(&script, 1));
        let out = d.run_to_completion(&mut exec);
        (out.success(), d.now())
    }

    #[test]
    fn group_success() {
        let mut ran = Vec::new();
        let (ok, _) = drive("a\nb\nc\n", |spec| {
            ran.push(spec.program().to_string());
            Ok(String::new())
        });
        assert!(ok);
        assert_eq!(ran, ["a", "b", "c"]);
    }

    #[test]
    fn group_fail_fast() {
        let mut ran = Vec::new();
        let (ok, _) = drive("a\nboom\nc\n", |spec| {
            ran.push(spec.program().to_string());
            if spec.program() == "boom" {
                Err("exit 1".into())
            } else {
                Ok(String::new())
            }
        });
        assert!(!ok);
        assert_eq!(ran, ["a", "boom"], "c must not run after boom fails");
    }

    #[test]
    fn try_retries_until_success() {
        let mut failures_left = 3;
        let (ok, now) = drive("try 10 times\n flaky\nend\n", |_| {
            if failures_left > 0 {
                failures_left -= 1;
                Err("flaky".into())
            } else {
                Ok(String::new())
            }
        });
        assert!(ok);
        // Backoff 1+2+4 seconds minimum (jittered up to 2x each).
        let t = now.as_secs_f64();
        assert!((7.0..14.001).contains(&t), "elapsed {t}");
    }

    #[test]
    fn try_exhausts_attempts() {
        let mut n = 0;
        let (ok, _) = drive("try 4 times\n nope\nend\n", |_| {
            n += 1;
            Err("always".into())
        });
        assert!(!ok);
        assert_eq!(n, 4);
    }

    #[test]
    fn driver_records_trace_through_sink() {
        use simgrid::trace::{RingSink, TraceEv};
        use std::sync::{Arc, Mutex};

        let script = parse("try 3 times\n flaky\nend\n").unwrap();
        let mut d = VmDriver::new(Vm::with_seed(&script, 1));
        let ring = Arc::new(Mutex::new(RingSink::new(64)));
        d.set_tracer(ring.clone(), 42);
        assert!(d.vm().has_tracer());

        let mut fails = 1;
        let out = d.run_to_completion(|_| {
            if fails > 0 {
                fails -= 1;
                Err("x".into())
            } else {
                Ok(String::new())
            }
        });
        assert!(out.success());

        let recs: Vec<_> = ring.lock().unwrap().records().cloned().collect();
        assert!(recs.iter().all(|r| r.client == 42));
        let tags: Vec<&str> = recs.iter().map(|r| r.ev.tag()).collect();
        assert!(tags.contains(&"attempt-start"));
        assert!(tags.contains(&"backoff"));
        assert!(tags.contains(&"attempt-ok"));
        assert!(tags.contains(&"cmd-start"));
        assert!(tags.contains(&"unit-done"));
        // Two attempts: the first fails (backoff), the second succeeds.
        assert_eq!(
            recs.iter()
                .filter(|r| matches!(r.ev, TraceEv::AttemptStart { .. }))
                .count(),
            2
        );
    }
}
