//! Semantics tests for the ftsh VM, driven manually through the
//! tick/complete interface so asynchrony, cancellation, and virtual
//! time are fully controlled.

use ftsh::parse;
use ftsh::trace::{SharedSink, TraceEv, VecSink, NO_ID};
use ftsh::vm::{CmdResult, CommandSpec, Effect, Tick, Vm, VmStatus};
use retry::{BackoffPolicy, Dur, Time};
use std::sync::{Arc, Mutex};

/// A manual test driver: collects started commands so the test decides
/// when and how each completes.
struct Harness {
    vm: Vm,
    now: Time,
    pending: Vec<(u64, CommandSpec)>,
    cancelled: Vec<u64>,
}

impl Harness {
    fn new(src: &str) -> Harness {
        let script = parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
        let mut vm = Vm::with_seed(&script, 99);
        // Deterministic delays for exact assertions.
        vm.set_default_backoff(BackoffPolicy::ethernet().without_jitter());
        Harness {
            vm,
            now: Time::ZERO,
            pending: Vec::new(),
            cancelled: Vec::new(),
        }
    }

    /// Install a sink on the VM and hand back what it will collect.
    fn record(&mut self) -> Arc<Mutex<VecSink>> {
        let sink = Arc::new(Mutex::new(VecSink::new()));
        self.vm.set_tracer(sink.clone() as SharedSink, NO_ID);
        sink
    }

    fn tick(&mut self) -> VmStatus {
        let Tick { effects, status } = self.vm.tick(self.now);
        for e in effects {
            match e {
                Effect::Start { token, spec, .. } => self.pending.push((token, spec)),
                Effect::Cancel { token } => {
                    self.pending.retain(|(t, _)| *t != token);
                    self.cancelled.push(token);
                }
            }
        }
        status
    }

    fn advance_to(&mut self, t: Time) {
        assert!(t >= self.now);
        self.now = t;
    }

    /// Complete the pending command whose program matches, with the
    /// given result.
    fn finish(&mut self, program: &str, result: CmdResult) {
        let idx = self
            .pending
            .iter()
            .position(|(_, s)| s.program() == program)
            .unwrap_or_else(|| panic!("no pending command '{program}': {:?}", self.pending));
        let (token, _) = self.pending.remove(idx);
        self.vm.complete(token, result);
    }

    fn pending_programs(&self) -> Vec<&str> {
        self.pending.iter().map(|(_, s)| s.program()).collect()
    }

    /// Run to completion, completing every started command immediately
    /// via `f`, advancing virtual time through wakes.
    fn run(&mut self, mut f: impl FnMut(&CommandSpec) -> CmdResult) -> bool {
        loop {
            let status = self.tick();
            if !self.pending.is_empty() {
                for (token, spec) in std::mem::take(&mut self.pending) {
                    self.vm.complete(token, f(&spec));
                }
                continue;
            }
            match status {
                VmStatus::Done { success } => return success,
                VmStatus::Running { next_wake: Some(t) } => self.advance_to(t),
                VmStatus::Running { next_wake: None } => panic!("vm stuck"),
            }
        }
    }
}

#[test]
fn forany_takes_first_success_and_binds_var() {
    let mut h = Harness::new(
        "forany server in xxx yyy zzz\n\
           wget http://${server}/file\n\
         end\n\
         echo ${server}\n",
    );
    let mut echoed = String::new();
    let ok = h.run(|spec| {
        if spec.program() == "wget" {
            // Only yyy works.
            if spec.argv[1].contains("yyy") {
                CmdResult::ok("")
            } else {
                CmdResult::fail()
            }
        } else {
            echoed = spec.argv[1].to_string();
            CmdResult::ok("")
        }
    });
    assert!(ok);
    assert_eq!(echoed, "yyy", "loop variable keeps the winning value");
}

#[test]
fn forany_fails_when_all_alternatives_fail() {
    let mut h = Harness::new("forany s in a b c\n get ${s}\nend\n");
    let mut tried = Vec::new();
    let ok = h.run(|spec| {
        tried.push(spec.argv[1].to_string());
        CmdResult::fail()
    });
    assert!(!ok);
    assert_eq!(tried, ["a", "b", "c"]);
}

#[test]
fn forall_runs_all_branches_concurrently() {
    let mut h = Harness::new("forall f in a b c\n wget ${f}\nend\n");
    let status = h.tick();
    // All three branches start before any completes.
    assert_eq!(h.pending.len(), 3);
    assert!(matches!(status, VmStatus::Running { .. }));
    for (token, _) in std::mem::take(&mut h.pending) {
        h.vm.complete(token, CmdResult::ok(""));
    }
    assert!(matches!(h.tick(), VmStatus::Done { success: true }));
}

#[test]
fn forall_failure_cancels_outstanding_branches() {
    let mut h = Harness::new("forall f in a b c\n wget ${f}\nend\n");
    h.tick();
    assert_eq!(h.pending.len(), 3);
    // Fail branch b while a and c are still in flight.
    h.finish("wget", CmdResult::fail()); // first pending (branch a order) — fail it
    let status = h.tick();
    assert!(
        matches!(status, VmStatus::Done { success: false }),
        "forall fails as soon as one branch fails: {status:?}"
    );
    assert_eq!(h.cancelled.len(), 2, "two outstanding branches cancelled");
}

#[test]
fn forall_branch_envs_are_isolated() {
    let mut h = Harness::new(
        "x=outer\n\
         forall v in a b\n\
           probe ${v} -> x\n\
         end\n\
         echo ${x}\n",
    );
    let mut echoed = String::new();
    let ok = h.run(|spec| match spec.program() {
        "probe" => CmdResult::ok("branch-value\n"),
        _ => {
            echoed = spec.argv[1].to_string();
            CmdResult::ok("")
        }
    });
    assert!(ok);
    assert_eq!(echoed, "outer", "branch capture must not leak to parent");
}

#[test]
fn try_deadline_cancels_inflight_command() {
    let mut h = Harness::new("try for 10 seconds\n slow\nend\n");
    let trace = h.record();
    let status = h.tick();
    assert_eq!(h.pending_programs(), ["slow"]);
    // The VM tells us the deadline.
    let VmStatus::Running { next_wake: Some(w) } = status else {
        panic!("expected running with wake: {status:?}");
    };
    assert_eq!(w, Time::from_secs(10));
    // The command never finishes; at the deadline the try kills it.
    h.advance_to(w);
    let status = h.tick();
    assert_eq!(h.cancelled.len(), 1);
    assert!(matches!(status, VmStatus::Done { success: false }));
    // Log records the forcible termination.
    let records = trace.lock().unwrap().take();
    let kinds: Vec<_> = records.iter().map(|e| &e.ev).collect();
    assert!(kinds.iter().any(|k| matches!(k, TraceEv::TryTimeout)));
    assert!(kinds.iter().any(|k| matches!(k, TraceEv::CmdKilled { .. })));
}

#[test]
fn outer_deadline_dominates_inner_retries() {
    // Inner try would retry for 5 minutes, but the outer 3-second limit
    // kills the whole tree.
    let mut h = Harness::new(
        "try for 3 seconds\n\
           try for 5 minutes\n\
             flaky\n\
           end\n\
         end\n",
    );
    let mut attempts = 0;
    loop {
        let status = h.tick();
        if !h.pending.is_empty() {
            attempts += 1;
            h.finish("flaky", CmdResult::fail());
            continue;
        }
        match status {
            VmStatus::Done { success } => {
                assert!(!success);
                break;
            }
            VmStatus::Running { next_wake: Some(t) } => h.advance_to(t),
            VmStatus::Running { next_wake: None } => panic!("stuck"),
        }
    }
    assert!(h.now <= Time::from_secs(3));
    // Backoff 1s then 2s → wake at t=3 is past the outer deadline, so
    // only two attempts fit.
    assert_eq!(attempts, 2, "1s+2s backoff leaves room for 2 attempts");
}

#[test]
fn catch_runs_on_exhaustion_and_swallow_semantics() {
    // catch without failure swallows the error: the try succeeds.
    let mut h = Harness::new(
        "try 2 times\n\
           nope\n\
         catch\n\
           cleanup\n\
         end\n",
    );
    let mut cleanup_ran = false;
    let ok = h.run(|spec| match spec.program() {
        "nope" => CmdResult::fail(),
        "cleanup" => {
            cleanup_ran = true;
            CmdResult::ok("")
        }
        _ => unreachable!(),
    });
    assert!(ok, "catch that succeeds swallows the failure");
    assert!(cleanup_ran);
}

#[test]
fn catch_with_failure_rethrows() {
    let mut h = Harness::new(
        "try 2 times\n\
           nope\n\
         catch\n\
           cleanup\n\
           failure\n\
         end\n",
    );
    let ok = h.run(|spec| {
        if spec.program() == "nope" {
            CmdResult::fail()
        } else {
            CmdResult::ok("")
        }
    });
    assert!(!ok, "failure in catch propagates");
}

#[test]
fn capture_to_variable_trims_trailing_newline() {
    let mut h = Harness::new(
        "cut -f2 /proc/sys/fs/file-nr -> n\n\
         if ${n} .lt. 1000\n\
           failure\n\
         else\n\
           submit\n\
         end\n",
    );
    let mut submitted = false;
    let ok = h.run(|spec| match spec.program() {
        "cut" => CmdResult::ok("2048\n"),
        "submit" => {
            submitted = true;
            CmdResult::ok("")
        }
        _ => unreachable!(),
    });
    assert!(ok);
    assert!(submitted, "2048 >= 1000 so the submit branch runs");
}

#[test]
fn carrier_sense_defers_when_fds_low() {
    let mut h = Harness::new(
        "try 2 times\n\
           cut -f2 /proc/sys/fs/file-nr -> n\n\
           if ${n} .lt. 1000\n\
             failure\n\
           else\n\
             submit\n\
           end\n\
         end\n",
    );
    let mut submits = 0;
    let ok = h.run(|spec| match spec.program() {
        "cut" => CmdResult::ok("900\n"), // always below threshold
        "submit" => {
            submits += 1;
            CmdResult::ok("")
        }
        _ => unreachable!(),
    });
    assert!(!ok, "carrier never clear -> try exhausts");
    assert_eq!(submits, 0, "submit never reached");
}

#[test]
fn append_capture_accumulates() {
    let mut h = Harness::new("a ->> log\nb ->> log\necho ${log}\n");
    let mut echoed = String::new();
    let ok = h.run(|spec| match spec.program() {
        "a" => CmdResult::ok("one\n"),
        "b" => CmdResult::ok("two\n"),
        _ => {
            echoed = spec.argv[1].to_string();
            CmdResult::ok("")
        }
    });
    assert!(ok);
    assert_eq!(echoed, "onetwo");
}

#[test]
fn stdin_from_variable() {
    let mut h = Harness::new("x=hello\ncat -< x\n");
    let mut stdin_seen = None;
    let ok = h.run(|spec| {
        if spec.program() == "cat" {
            stdin_seen = spec.input.clone();
        }
        CmdResult::ok("")
    });
    assert!(ok);
    assert_eq!(stdin_seen, Some(ftsh::CmdInput::Data("hello".into())));
}

#[test]
fn redirect_to_file_goes_to_executor() {
    let mut h = Harness::new("run >& tmp\n");
    let mut sink = None;
    let ok = h.run(|spec| {
        sink = spec.output.clone();
        assert!(spec.both);
        CmdResult::ok("")
    });
    assert!(ok);
    assert_eq!(
        sink,
        Some(ftsh::OutSink::File {
            path: "tmp".into(),
            append: false
        })
    );
}

#[test]
fn every_interval_overrides_backoff() {
    let mut h = Harness::new("try for 1 minutes every 5 seconds\n flaky\nend\n");
    let trace = h.record();
    let mut remaining_failures = 3;
    let ok = h.run(|_| {
        if remaining_failures > 0 {
            remaining_failures -= 1;
            CmdResult::fail()
        } else {
            CmdResult::ok("")
        }
    });
    assert!(ok);
    // Verify the constant 5s cadence from the backoff log entries.
    let records = trace.lock().unwrap().take();
    let logged: Vec<Dur> = records
        .iter()
        .filter_map(|e| match e.ev {
            TraceEv::Backoff { delay, .. } => Some(delay),
            _ => None,
        })
        .collect();
    assert_eq!(logged, vec![Dur::from_secs(5); 3]);
}

#[test]
fn zero_attempt_try_fails_without_running() {
    let mut h = Harness::new("try 0 times\n never\nend\n");
    let mut ran = false;
    let ok = h.run(|_| {
        ran = true;
        CmdResult::ok("")
    });
    assert!(!ok);
    assert!(!ran);
}

#[test]
fn empty_command_name_fails() {
    let mut h = Harness::new("${unset_var} arg\n");
    let ok = h.run(|_| panic!("nothing should run"));
    assert!(!ok);
}

#[test]
fn assignment_expands_at_assignment_time() {
    let mut h = Harness::new("a=1\nb=${a}2\na=9\necho ${b}\n");
    let mut echoed = String::new();
    let ok = h.run(|spec| {
        echoed = spec.argv[1].to_string();
        CmdResult::ok("")
    });
    assert!(ok);
    assert_eq!(echoed, "12");
}

#[test]
fn seeded_vm_is_deterministic() {
    let run = |seed: u64| {
        let script = parse("try 6 times\n x\nend\n").unwrap();
        let mut vm = Vm::with_seed(&script, seed);
        let mut now = Time::ZERO;
        let mut wakes = Vec::new();
        loop {
            let t = vm.tick(now);
            let mut completed = false;
            for e in t.effects {
                if let Effect::Start { token, .. } = e {
                    vm.complete(token, CmdResult::fail());
                    completed = true;
                }
            }
            if completed {
                continue;
            }
            match t.status {
                VmStatus::Done { .. } => break,
                VmStatus::Running { next_wake: Some(w) } => {
                    wakes.push(w);
                    now = w;
                }
                VmStatus::Running { next_wake: None } => panic!("stuck"),
            }
        }
        wakes
    };
    assert_eq!(run(5), run(5), "same seed, same jitter");
    assert_ne!(run(5), run(6), "different seed, different jitter");
}

#[test]
fn nested_forany_try_from_paper_black_hole_idiom() {
    // The Ethernet file reader: probe a flag with a tight limit before
    // the big transfer.
    let src = "try for 900 seconds\n\
                 forany host in xxx yyy zzz\n\
                   try for 5 seconds\n\
                     wget http://${host}/flag\n\
                   end\n\
                   try for 60 seconds\n\
                     wget http://${host}/data\n\
                   end\n\
                 end\n\
               end\n";
    let mut h = Harness::new(src);
    // xxx is a black hole for the flag: its probe fails. yyy works.
    let mut transfers = Vec::new();
    let ok = h.run(|spec| {
        let url = &spec.argv[1];
        transfers.push(url.clone());
        if url.contains("xxx") {
            CmdResult::fail()
        } else {
            CmdResult::ok("")
        }
    });
    assert!(ok);
    // Never attempted the xxx data transfer: the probe shielded it.
    assert!(!transfers.iter().any(|u| u.contains("xxx/data")));
    assert!(transfers.iter().any(|u| u.contains("yyy/data")));
}

#[test]
fn log_summary_counts_attempts_and_backoffs() {
    let mut h = Harness::new("try 3 times\n x\nend\n");
    let ok = h.run(|_| CmdResult::fail());
    assert!(!ok);
    let s = h.vm.log().summary();
    assert_eq!(s.attempts, 3);
    assert_eq!(s.commands_started, 3);
    assert_eq!(s.commands_failed, 3);
    assert_eq!(s.backoffs, 2, "no backoff after the final failure");
    assert_eq!(s.exhausted_tries, 1);
}

#[test]
fn tick_after_done_is_stable() {
    let mut h = Harness::new("x\n");
    let ok = h.run(|_| CmdResult::ok(""));
    assert!(ok);
    assert!(matches!(h.tick(), VmStatus::Done { success: true }));
    assert_eq!(h.vm.outcome(), Some(true));
}

#[test]
fn stale_completion_after_cancel_is_ignored() {
    let mut h = Harness::new("try for 1 seconds\n slow\nend\n");
    h.tick();
    let (token, _) = h.pending[0].clone();
    h.advance_to(Time::from_secs(1));
    let st = h.tick();
    assert!(matches!(st, VmStatus::Done { success: false }));
    // The real process raced to completion after the kill: ignored.
    h.vm.complete(token, CmdResult::ok("late"));
    assert_eq!(h.vm.outcome(), Some(false));
}

#[test]
fn forall_throttling_limits_concurrency() {
    let script = parse("forall f in a b c d e\n wget ${f}\nend\n").unwrap();
    let mut vm = Vm::with_seed(&script, 1);
    vm.set_max_parallel(Some(2));
    let mut now = Time::ZERO;
    let mut max_seen = 0usize;
    let mut inflight: Vec<u64> = Vec::new();
    let mut started = 0;
    loop {
        let t = vm.tick(now);
        for e in t.effects {
            if let Effect::Start { token, .. } = e {
                inflight.push(token);
                started += 1;
            }
        }
        max_seen = max_seen.max(inflight.len());
        if let VmStatus::Done { success } = t.status {
            assert!(success);
            break;
        }
        // Finish one command at a time so slots free one by one.
        let token = inflight.remove(0);
        now += Dur::from_secs(1);
        vm.complete(token, CmdResult::ok(""));
    }
    assert_eq!(started, 5, "all branches eventually run");
    assert!(max_seen <= 2, "concurrency capped at 2, saw {max_seen}");
}

#[test]
fn forall_throttling_failure_skips_pending() {
    let script = parse("forall f in a b c d e\n wget ${f}\nend\n").unwrap();
    let mut vm = Vm::with_seed(&script, 1);
    vm.set_max_parallel(Some(1));
    let mut now = Time::ZERO;
    let mut started = 0;
    loop {
        let t = vm.tick(now);
        let mut tok = None;
        for e in t.effects {
            if let Effect::Start { token, .. } = e {
                tok = Some(token);
                started += 1;
            }
        }
        if let VmStatus::Done { success } = t.status {
            assert!(!success);
            break;
        }
        let token = tok.expect("serial: exactly one at a time");
        now += Dur::from_secs(1);
        // Second branch fails: remaining three must never start.
        let result = if started == 2 {
            CmdResult::fail()
        } else {
            CmdResult::ok("")
        };
        vm.complete(token, result);
    }
    assert_eq!(started, 2, "pending branches skipped after failure");
}

#[test]
fn unthrottled_forall_spawns_everything_at_once() {
    let script = parse("forall f in a b c d e\n wget ${f}\nend\n").unwrap();
    let mut vm = Vm::with_seed(&script, 1);
    let t = vm.tick(Time::ZERO);
    let starts = t
        .effects
        .iter()
        .filter(|e| matches!(e, Effect::Start { .. }))
        .count();
    assert_eq!(starts, 5);
}

#[test]
fn function_definition_and_call() {
    let mut h = Harness::new(
        "function fetch\n\
           wget http://${1}/${2}\n\
         end\n\
         fetch yyy data\n",
    );
    let mut url = String::new();
    let ok = h.run(|spec| {
        url = spec.argv[1].to_string();
        CmdResult::ok("")
    });
    assert!(ok);
    assert_eq!(url, "http://yyy/data", "positional parameters expand");
}

#[test]
fn function_positionals_restored_after_call() {
    let mut h = Harness::new(
        "function inner\n\
           probe ${1}\n\
         end\n\
         function outer\n\
           inner nested\n\
           probe ${1}\n\
         end\n\
         outer original\n",
    );
    let mut seen = Vec::new();
    let ok = h.run(|spec| {
        seen.push(spec.argv[1].to_string());
        CmdResult::ok("")
    });
    assert!(ok);
    assert_eq!(
        seen,
        ["nested", "original"],
        "caller's ${{1}} restored after the inner call returns"
    );
}

#[test]
fn function_star_and_zero() {
    let mut h = Harness::new(
        "function show\n\
           probe ${0} ${*}\n\
         end\n\
         show a b c\n",
    );
    let mut args = Vec::new();
    let ok = h.run(|spec| {
        args = spec.argv.clone();
        CmdResult::ok("")
    });
    assert!(ok);
    // ftsh words are atomic: ${*} expands to one word, no resplitting.
    assert_eq!(args, ["probe", "show", "a b c"]);
}

#[test]
fn function_failure_propagates_and_is_catchable() {
    let mut h = Harness::new(
        "function flaky\n\
           failure\n\
         end\n\
         try 3 times\n\
           flaky\n\
         catch\n\
           success\n\
         end\n",
    );
    let ok = h.run(|_| unreachable!("no external command runs"));
    assert!(ok, "the function's failures retried, then caught");
    assert_eq!(h.vm.log().summary().attempts, 3);
}

#[test]
fn function_recursion_is_bounded() {
    let mut h = Harness::new(
        "function forever\n\
           forever\n\
         end\n\
         forever\n",
    );
    let ok = h.run(|_| unreachable!());
    assert!(!ok, "runaway recursion fails instead of overflowing");
}

#[test]
fn undefined_name_still_runs_external_command() {
    let mut h = Harness::new("function f\n success\nend\nwget u\n");
    let mut ran = false;
    let ok = h.run(|spec| {
        ran = spec.program() == "wget";
        CmdResult::ok("")
    });
    assert!(ok);
    assert!(ran, "non-function names dispatch externally");
}

#[test]
fn deadline_kill_restores_caller_positionals() {
    // A try deadline that aborts a function call mid-flight must not
    // leak the callee's ${1} into the caller.
    let mut h = Harness::new(
        "function slowfn\n\
           hang\n\
         end\n\
         function outer\n\
           try for 1 seconds or 1 times\n\
             slowfn nested\n\
           catch\n\
             success\n\
           end\n\
           probe ${1}\n\
         end\n\
         outer original\n",
    );
    // Drive manually: the hang never completes; the deadline fires.
    let mut probed = None;
    loop {
        let status = h.tick();
        if let Some(idx) = h.pending.iter().position(|(_, s)| s.program() == "probe") {
            let (token, spec) = h.pending.remove(idx);
            probed = Some(spec.argv[1].to_string());
            h.vm.complete(token, CmdResult::ok(""));
            continue;
        }
        match status {
            VmStatus::Done { success } => {
                assert!(success);
                break;
            }
            VmStatus::Running { next_wake: Some(t) } => h.advance_to(t),
            VmStatus::Running { next_wake: None } => {
                // Only the hang is pending; wait for the deadline.
                panic!("expected a deadline wake");
            }
        }
    }
    assert_eq!(
        probed.as_deref(),
        Some("original"),
        "caller's positionals restored after the killed call"
    );
}

/// Drive `src` to completion with every command succeeding at once,
/// asserting after each tick that at most `bound` tasks are alive.
/// Returns the `task` of the last `Effect::Start` and of the last
/// `cmd-start` trace record.
fn run_with_bounded_table(src: &str, max_parallel: Option<usize>, bound: usize) -> (usize, usize) {
    let script = parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
    let mut vm = Vm::with_seed(&script, 99);
    vm.set_max_parallel(max_parallel);
    let trace = Arc::new(Mutex::new(VecSink::new()));
    vm.set_tracer(trace.clone() as SharedSink, 0);
    let mut now = Time::ZERO;
    let mut effects = Vec::new();
    let mut last_started = 0;
    loop {
        let status = vm.tick_into(now, &mut effects);
        assert!(
            vm.live_tasks() <= bound,
            "{} live tasks at {now:?}, want at most {bound}",
            vm.live_tasks()
        );
        let mut started = false;
        for e in effects.drain(..) {
            if let Effect::Start { token, task, spec } = e {
                started = true;
                last_started = task;
                vm.complete(token, CmdResult::ok(""));
                vm.recycle_spec(spec);
            }
        }
        match status {
            VmStatus::Done { success } => {
                assert!(!success, "the loop body always fails");
                break;
            }
            VmStatus::Running { next_wake: Some(t) } if !started => now = now.max(t),
            VmStatus::Running { next_wake: None } if !started => panic!("vm stalled"),
            VmStatus::Running { .. } => {}
        }
    }
    let records = trace.lock().unwrap().take();
    let last_traced = records
        .iter()
        .rev()
        .find(|r| matches!(r.ev, TraceEv::CmdStart { .. }))
        .expect("commands ran")
        .task;
    let last_traced = usize::try_from(last_traced).expect("trace records carry the task id");
    (last_started, last_traced)
}

#[test]
fn forall_in_a_loop_keeps_the_task_table_bounded() {
    // Regression: finished branches used to stay in the task table for
    // the life of the VM, so this loop held 40 001 entries at the end
    // and every tick walked all of them.
    const ITERS: usize = 5_000;
    let src = format!(
        "try {ITERS} times every 1 ms\n\
           forall p in a b c d\n\
             probe ${{p}}\n\
           end\n\
           forall q in a b c d\n\
             work ${{q}}\n\
           end\n\
           failure\n\
         end\n"
    );
    // The root is task 0 and every branch takes the next ordinal, so
    // the last of ITERS x 2 x 4 branches is task ITERS * 8: ids are
    // never reused, however few tasks are alive.
    let last = ITERS * 8;
    for (max_parallel, bound) in [(None, 5), (Some(1), 2), (Some(2), 3)] {
        let (started, traced) = run_with_bounded_table(&src, max_parallel, bound);
        assert_eq!(started, last, "max_parallel {max_parallel:?}");
        assert_eq!(traced, last, "max_parallel {max_parallel:?}");
    }
}

#[test]
fn deadline_after_many_retired_branches_cancels_each_inflight_command_once() {
    let mut h = Harness::new(
        "try for 60 seconds\n\
           try 25 times every 1 ms\n\
             forall p in a b c d\n\
               quick ${p}\n\
             end\n\
             failure\n\
           catch\n\
             success\n\
           end\n\
           forall q in w x y z\n\
             hang ${q}\n\
           end\n\
         end\n",
    );
    // Retire 100 branches, then leave four commands in flight.
    let mut quick = 0;
    loop {
        let status = h.tick();
        if h.pending_programs().contains(&"quick") {
            for (token, _) in std::mem::take(&mut h.pending) {
                quick += 1;
                h.vm.complete(token, CmdResult::ok(""));
            }
            continue;
        }
        if h.pending.len() == 4 {
            break;
        }
        match status {
            VmStatus::Running { next_wake: Some(t) } => h.advance_to(t),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(quick, 100);
    assert_eq!(h.pending_programs(), ["hang"; 4]);
    assert_eq!(h.vm.live_tasks(), 5);
    let mut inflight: Vec<u64> = h.pending.iter().map(|(t, _)| *t).collect();

    h.advance_to(Time::from_secs(60));
    let status = h.tick();
    assert!(matches!(status, VmStatus::Done { success: false }));
    h.cancelled.sort_unstable();
    inflight.sort_unstable();
    assert_eq!(h.cancelled, inflight, "one cancel per in-flight command");
    assert_eq!(h.vm.live_tasks(), 1);
    assert_eq!(h.vm.log().summary().commands_cancelled, 4);
}

// ---------------------------------------------------------------------
// The effects buffer belongs to the caller
// ---------------------------------------------------------------------

/// Three commands start in the first tick; a 2 s deadline cancels the
/// two still running in a later one.
const BUFFER_SCRIPT: &str = "try for 2 seconds\n\
                               forall x in a b c\n\
                                 run-${x}\n\
                               end\n\
                             end\n";

#[test]
fn tick_into_clears_what_the_caller_left_in_the_buffer() {
    let script = parse(BUFFER_SCRIPT).unwrap();
    let mut vm = Vm::with_seed(&script, 1);
    let mut out = vec![Effect::Cancel { token: 77 }, Effect::Cancel { token: 78 }];
    vm.tick_into(Time::ZERO, &mut out);
    let tokens: Vec<u64> = out
        .iter()
        .map(|e| match e {
            Effect::Start { token, .. } => *token,
            Effect::Cancel { token } => panic!("stale cancel {token} survived the tick"),
        })
        .collect();
    assert_eq!(tokens, [0, 1, 2]);
    // A tick with nothing to report leaves the buffer empty, not stale.
    vm.tick_into(Time::from_secs(1), &mut out);
    assert!(out.is_empty());
}

#[test]
fn a_vm_keeps_neither_of_two_alternating_buffers() {
    // The VM builds a tick's effects in the caller's allocation and
    // hands the same allocation back: a driver's one buffer stays its
    // own (and hot), and a VM between ticks owns no effects block.
    let script = parse(BUFFER_SCRIPT).unwrap();
    let mut vm = Vm::with_seed(&script, 1);
    let mut a: Vec<Effect> = Vec::with_capacity(4);
    let mut b: Vec<Effect> = Vec::with_capacity(16);
    let (a_at, b_at) = (a.as_ptr(), b.as_ptr());
    vm.tick_into(Time::ZERO, &mut a);
    assert_eq!(a.len(), 3);
    vm.complete(1, CmdResult::ok(""));
    vm.tick_into(Time::from_secs(1), &mut b);
    assert!(b.is_empty());
    vm.tick_into(Time::from_secs(2), &mut a);
    assert_eq!(
        a,
        [Effect::Cancel { token: 0 }, Effect::Cancel { token: 2 }]
    );
    let status = vm.tick_into(Time::from_secs(3), &mut b);
    assert_eq!(status, VmStatus::Done { success: false });
    assert_eq!((a.capacity(), a.as_ptr()), (4, a_at));
    assert_eq!((b.capacity(), b.as_ptr()), (16, b_at));
}

#[test]
fn tick_and_tick_into_report_the_same_effects() {
    let script = parse(BUFFER_SCRIPT).unwrap();
    let mut by_value = Vm::with_seed(&script, 1);
    let mut in_place = Vm::with_seed(&script, 1);
    let mut out = Vec::new();
    for (secs, finished) in [(0, Some(1)), (1, None), (2, None), (3, None)] {
        let now = Time::from_secs(secs);
        let tick = by_value.tick(now);
        let status = in_place.tick_into(now, &mut out);
        assert_eq!((&tick.effects, tick.status), (&out, status), "at {now:?}");
        if let Some(token) = finished {
            by_value.complete(token, CmdResult::ok(""));
            in_place.complete(token, CmdResult::ok(""));
        }
    }
    assert_eq!(by_value.outcome(), Some(false));
}
