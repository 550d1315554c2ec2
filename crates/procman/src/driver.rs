//! The real-process driver: runs an ftsh [`Vm`] against actual POSIX
//! processes on the wall clock.
//!
//! Each command started by the VM is spawned in its own session
//! ([`SessionChild`]) and watched by a monitor thread that reports the
//! exit status over a channel. The driver waits for whichever comes
//! first — a completion or the VM's next wake-up (backoff expiry or
//! `try` deadline) — and on cancellation escalates SIGTERM → SIGKILL
//! against the whole session, so even process trees die with their
//! deadline.

use crate::session::{ProcessOutcome, SessionChild, SpawnError};
use ftsh::vm::{step, Answers, CmdResult, CmdToken, CommandSpec, Executor, Vm, VmStatus};
use ftsh::{LogSummary, Script};
use retry::Time;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Set by the SIGTERM hook; checked by drivers running with
/// [`RealOptions::handle_sigterm`].
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn sigterm_handler(_: i32) {
    // Only an atomic store: async-signal-safe.
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

/// Install the cooperative SIGTERM hook (§4: a child ftsh traps the
/// warning SIGTERM from its parent "and then reacting by killing its
/// own children"). Drivers running with
/// [`RealOptions::handle_sigterm`] poll the flag and terminate every
/// session they own before exiting. Idempotent.
pub fn install_sigterm_hook() {
    // SAFETY: installing a handler that only stores an atomic.
    unsafe {
        libc::signal(libc::SIGTERM, sigterm_handler as *const () as usize);
    }
}

/// Options for real execution.
#[derive(Clone, Debug)]
pub struct RealOptions {
    /// Grace period between SIGTERM and SIGKILL on cancellation.
    pub kill_grace: Duration,
    /// RNG seed for backoff jitter (None: from entropy).
    pub seed: Option<u64>,
    /// Honour the cooperative SIGTERM flag set by
    /// [`install_sigterm_hook`]: when the parent asks this shell to
    /// exit, kill every owned session first (§4's nested-shell
    /// protocol). Waits are sliced so the flag is noticed promptly.
    pub handle_sigterm: bool,
}

impl Default for RealOptions {
    fn default() -> RealOptions {
        RealOptions {
            kill_grace: Duration::from_millis(500),
            seed: None,
            handle_sigterm: false,
        }
    }
}

/// Result of a real run.
#[derive(Debug)]
pub struct RealReport {
    /// Did the script as a whole succeed?
    pub success: bool,
    /// The VM's counters (attempts, backoffs, kills…); its records
    /// went to the sink installed on it, if any.
    pub summary: LogSummary,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// How each real process actually ended, in completion order —
    /// the exit-code/signal detail §2 laments is invisible at the
    /// shell interface, preserved here for post-mortem analysis.
    pub process_outcomes: Vec<(String, ProcessOutcome)>,
    /// The shell variables at the end of the run (the root task's
    /// environment) — what a REPL carries into the next statement.
    pub final_env: ftsh::Env,
}

/// Run a parsed script against real processes. Blocks until done.
///
/// ```
/// use ftsh::parse;
/// use procman::{run_script, RealOptions};
///
/// let script = parse("true\n").unwrap();
/// let report = run_script(&script, &RealOptions::default());
/// assert!(report.success);
/// ```
pub fn run_script(script: &Script, opts: &RealOptions) -> RealReport {
    let vm = match opts.seed {
        Some(s) => Vm::with_seed(script, s),
        // Deliberately entropy-seeded: concurrent real shells must not
        // share a jitter stream (§4). Simulation paths always seed.
        None => Vm::new(script),
    };
    run_vm(vm, opts)
}

/// [`run_vm`] with an optional structured-trace sink installed on the
/// VM (as client 0): every record the VM emits is written there live
/// while the real processes run, in the schema the simulator emits, so
/// one post-mortem pipeline reads both.
pub fn run_vm_traced(
    mut vm: Vm,
    opts: &RealOptions,
    trace: Option<ftsh::trace::SharedSink>,
) -> RealReport {
    if let Some(sink) = trace {
        vm.set_tracer(sink, 0);
    }
    run_vm(vm, opts)
}

/// Run a prepared VM (e.g. with a preloaded environment) against real
/// processes.
pub fn run_vm(mut vm: Vm, opts: &RealOptions) -> RealReport {
    let start = Instant::now();
    let now = |start: Instant| {
        Time::from_micros(start.elapsed().as_micros().min(u64::MAX as u128) as u64)
    };
    let (tx, rx) = mpsc::channel::<Finished>();
    let mut sessions = Sessions {
        running: HashMap::new(),
        programs: HashMap::new(),
        tx,
        kill_grace: opts.kill_grace,
    };
    let mut process_outcomes: Vec<(String, ProcessOutcome)> = Vec::new();
    let mut effects = Vec::new();

    let success = loop {
        if opts.handle_sigterm && TERM_REQUESTED.load(Ordering::SeqCst) {
            // The parent shell wants us gone: take our children with
            // us, as §4 prescribes.
            for (_, pid) in sessions.running.drain() {
                SessionChild::kill_escalate(pid, opts.kill_grace);
            }
            break false;
        }
        let next_wake = match step(&mut vm, now(start), &mut effects, &mut sessions).0 {
            VmStatus::Done { success } => break success,
            VmStatus::Running { next_wake } => next_wake,
        };
        let wait = match next_wake {
            Some(t) => {
                let n = now(start);
                if t <= n {
                    // A wake is already due; tick again without
                    // draining the channel.
                    continue;
                }
                Some((t - n).to_std())
            }
            None => None,
        };
        // Slice long waits so the SIGTERM flag is noticed within
        // ~200 ms even mid-sleep.
        let slice = Duration::from_millis(200);
        let idle = sessions.running.is_empty();
        let wait = match (opts.handle_sigterm, wait) {
            (true, Some(d)) => Some(d.min(slice)),
            (true, None) if !idle => Some(slice),
            (_, w) => w,
        };
        let received = match wait {
            Some(d) => rx.recv_timeout(d).ok(),
            // Nothing running and nothing to wake: the only way out is
            // completions already queued in the channel.
            None if idle => rx.try_recv().ok(),
            None => rx.recv().ok(),
        };
        let Some(first) = received else {
            if wait.is_none() && idle {
                // Deadlocked VM; cannot happen with a well-formed
                // script, but never spin.
                break false;
            }
            continue;
        };
        // Deliver it, and any further completions that raced in.
        for (token, result, outcome) in std::iter::once(first).chain(rx.try_iter()) {
            if let Some(p) = sessions.programs.remove(&token) {
                process_outcomes.push((p, outcome));
            }
            vm.complete(token, result);
            sessions.running.remove(&token);
        }
    };

    // Processes killed by a deadline report their fate from monitor
    // threads shortly after SIGTERM/SIGKILL; collect those stragglers
    // so the post-mortem record is complete.
    let drain_deadline = Instant::now() + opts.kill_grace + Duration::from_secs(2);
    while !sessions.programs.is_empty() {
        let left = drain_deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match rx.recv_timeout(left) {
            Ok((t, _r, o)) => {
                if let Some(p) = sessions.programs.remove(&t) {
                    process_outcomes.push((p, o));
                }
            }
            Err(_) => break,
        }
    }

    RealReport {
        success,
        summary: vm.log().summary(),
        elapsed: start.elapsed(),
        process_outcomes,
        final_env: vm.env().clone(),
    }
}

/// A finished process as its monitor thread reports it.
type Finished = (CmdToken, CmdResult, ProcessOutcome);

/// [`run_vm`]'s executor: every command a session of its own, watched
/// by a monitor thread that reports on `tx`.
struct Sessions {
    /// Session leader of each command in flight.
    running: HashMap<CmdToken, i32>,
    /// Program of each command whose process outcome is still to come.
    programs: HashMap<CmdToken, String>,
    tx: mpsc::Sender<Finished>,
    kill_grace: Duration,
}

impl Executor for Sessions {
    fn start(&mut self, token: CmdToken, spec: &CommandSpec, answers: &mut Answers<'_>) {
        match SessionChild::spawn(spec) {
            Ok(child) => {
                self.running.insert(token, child.pid());
                self.programs.insert(token, spec.program().to_string());
                let tx = self.tx.clone();
                std::thread::spawn(move || {
                    let (outcome, out) = child.wait_detailed();
                    let result = CmdResult {
                        success: outcome.success(),
                        stdout: (!out.is_empty()).then(|| out.into()),
                    };
                    let _ = tx.send((token, result, outcome));
                });
            }
            Err(SpawnError::Spawn(_) | SpawnError::Redirect(_)) => {
                // "The program could not be loaded and run" is just
                // another untyped failure.
                answers.answer(token, CmdResult::fail());
            }
        }
    }

    fn cancel(&mut self, token: CmdToken, _: &mut Answers<'_>) {
        if let Some(pid) = self.running.remove(&token) {
            SessionChild::kill_escalate(pid, self.kill_grace);
            // The monitor thread will still send a result; the VM
            // ignores stale tokens.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsh::parse;

    fn run(src: &str) -> RealReport {
        let script = parse(src).unwrap();
        run_script(
            &script,
            &RealOptions {
                kill_grace: Duration::from_millis(100),
                seed: Some(42),
                ..RealOptions::default()
            },
        )
    }

    #[test]
    fn group_of_real_commands() {
        let r = run("true\ntrue\n");
        assert!(r.success);
        let r = run("true\nfalse\ntrue\n");
        assert!(!r.success);
    }

    #[test]
    fn capture_into_variable_feeds_condition() {
        let r = run("echo 2048 -> n\n\
             if ${n} .ge. 1000\n\
               true\n\
             else\n\
               failure\n\
             end\n");
        assert!(r.success);
    }

    #[test]
    fn final_env_carries_variables_out() {
        let r = run("echo 7 -> n\nx=${n}${n}\n");
        assert!(r.success);
        assert_eq!(r.final_env.get("x"), "77");
    }

    #[test]
    fn process_outcomes_record_exit_detail() {
        let r = run("sh -c \"exit 3\"\ntrue\n");
        assert!(!r.success);
        assert_eq!(
            r.process_outcomes,
            vec![("sh".to_string(), crate::ProcessOutcome::Exited(3))],
            "the failing exit code is preserved post mortem"
        );
    }

    #[test]
    fn killed_processes_report_their_signal() {
        let r = run("try for 1 seconds or 1 times\n sleep 30\nend\n");
        assert!(!r.success);
        let signal_deaths = r
            .process_outcomes
            .iter()
            .filter(|(p, o)| p == "sleep" && matches!(o, crate::ProcessOutcome::Signaled(_)))
            .count();
        assert_eq!(signal_deaths, 1, "outcomes: {:?}", r.process_outcomes);
    }

    #[test]
    fn try_deadline_kills_sleep() {
        let started = Instant::now();
        let r = run("try for 1 seconds or 1 times\n sleep 30\nend\n");
        assert!(!r.success);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "deadline must kill the sleep: {:?}",
            started.elapsed()
        );
        assert!(r.summary.timed_out_tries >= 1);
    }

    #[test]
    fn forany_falls_through_to_working_command() {
        let r = run("forany cmd in false false true\n\
               ${cmd}\n\
             end\n");
        assert!(r.success);
    }

    #[test]
    fn forall_runs_real_branches_in_parallel() {
        // Three 300 ms sleeps in parallel finish well under 900 ms.
        let started = Instant::now();
        let r = run("forall t in 0.3 0.3 0.3\n\
               sleep ${t}\n\
             end\n");
        assert!(r.success);
        assert!(
            started.elapsed() < Duration::from_millis(850),
            "parallel branches took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn forall_failure_aborts_siblings_quickly() {
        let started = Instant::now();
        let r = run("forall t in 30 0.1x 30\n\
               sleep ${t}\n\
             end\n");
        assert!(!r.success, "bad sleep operand fails the forall");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "siblings must be killed, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn missing_program_fails_cleanly() {
        let r = run("/definitely/not/a/program\n");
        assert!(!r.success);
    }

    #[test]
    fn unloadable_program_is_retried_like_any_failure() {
        let r = run("try 3 times every 10 ms\n /no/such/prog\nend\n");
        assert!(!r.success);
        assert_eq!(r.summary.attempts, 3);
    }

    #[test]
    fn forany_falls_through_an_unloadable_program() {
        let r = run("forany c in /no/such/prog true\n ${c}\nend\n");
        assert!(r.success);
    }

    #[test]
    fn unloadable_program_exhausts_attempts_long_before_the_deadline() {
        let started = Instant::now();
        let r = run("try for 10 seconds or 3 times every 10 ms\n /no/such/prog\nend\n");
        assert!(!r.success);
        assert_eq!(r.summary.attempts, 3);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "each failed spawn must be retried at once, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn traced_real_run_records_attempts_and_commands() {
        use ftsh::trace::{RingSink, TraceEv};
        use std::sync::{Arc, Mutex};

        let script = parse("try 2 times every 10 ms\n false\nend\n").unwrap();
        let ring = Arc::new(Mutex::new(RingSink::new(64)));
        let r = run_vm_traced(
            ftsh::Vm::with_seed(&script, 3),
            &RealOptions {
                seed: Some(3),
                ..RealOptions::default()
            },
            Some(ring.clone()),
        );
        assert!(!r.success);
        let recs: Vec<_> = ring.lock().unwrap().records().cloned().collect();
        assert!(recs.iter().all(|rec| rec.client == 0));
        let starts = recs
            .iter()
            .filter(|r| matches!(r.ev, TraceEv::AttemptStart { .. }))
            .count();
        assert_eq!(starts, 2, "both real attempts recorded");
        assert!(recs
            .iter()
            .any(|r| matches!(&r.ev, TraceEv::CmdStart { program, .. } if program == "false")));
        assert!(recs
            .iter()
            .any(|r| matches!(r.ev, TraceEv::UnitDone { ok: false })));
    }

    #[test]
    fn retry_succeeds_with_marker_file() {
        // A command that fails until a marker exists, created by the
        // second attempt's sibling: classic retried-unit test.
        let dir = std::env::temp_dir().join(format!("ftsh-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let marker = dir.join("marker");
        let m = marker.to_str().unwrap();
        let src = format!(
            "try for 1 hour every 50 ms\n\
               sh -c \"test -f {m} || (touch {m}; exit 1)\"\n\
             end\n"
        );
        let r = run(&src);
        assert!(r.success);
        assert!(r.summary.attempts >= 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod function_tests {
    use super::*;
    use ftsh::parse;

    #[test]
    fn functions_run_against_real_commands() {
        let script = parse(
            "function check\n\
               sh -c \"test ${1} = ok\"\n\
             end\n\
             check ok\n",
        )
        .unwrap();
        let r = run_script(&script, &RealOptions::default());
        assert!(r.success);

        let script = parse(
            "function check\n\
               sh -c \"test ${1} = ok\"\n\
             end\n\
             check nope\n",
        )
        .unwrap();
        let r = run_script(&script, &RealOptions::default());
        assert!(!r.success);
    }
}

#[cfg(test)]
mod cp_cases {
    //! §2's taxonomy of `cp a b` failures, made distinguishable by the
    //! post-mortem record even though control flow stays untyped.

    use super::*;
    use crate::ProcessOutcome;
    use ftsh::parse;

    fn run_one(src: &str) -> RealReport {
        run_script(
            &parse(src).unwrap(),
            &RealOptions {
                seed: Some(1),
                ..RealOptions::default()
            },
        )
    }

    #[test]
    fn case1_copy_succeeds() {
        let dir = std::env::temp_dir().join(format!("ftsh-cp1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a"), "data").unwrap();
        let (a, b) = (dir.join("a"), dir.join("b"));
        let r = run_one(&format!("cp {} {}\n", a.display(), b.display()));
        assert!(r.success);
        assert_eq!(r.process_outcomes[0].1, ProcessOutcome::Exited(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn case2_source_missing_exits_nonzero() {
        let r = run_one("cp /no/such/source /tmp/ftsh-cp-dest\n");
        assert!(!r.success);
        // The paper's point: an ordinary nonzero exit, indistinguishable
        // *in band* from a transient failure…
        assert!(matches!(r.process_outcomes[0].1, ProcessOutcome::Exited(c) if c != 0));
    }

    #[test]
    fn case4_program_cannot_be_loaded() {
        let r = run_one("/no/such/cp a b\n");
        assert!(!r.success);
        // …while a failure to create the process never produces a
        // process at all: visible as an empty outcome list.
        assert!(r.process_outcomes.is_empty());
    }

    #[test]
    fn untyped_retry_handles_all_cases_the_same_way() {
        // The Ethernet approach: the shell does not care *why* cp
        // failed; the try simply retries and eventually gives up.
        let r = run_one(
            "try for 1 hour every 10 ms or 3 times\n\
               cp /no/such/source /tmp/ftsh-cp-dest2\n\
             end\n",
        );
        assert!(!r.success);
        assert_eq!(r.summary.attempts, 3);
        assert_eq!(r.process_outcomes.len(), 3);
    }
}
