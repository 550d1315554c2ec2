//! POSIX process sessions and kill escalation.
//!
//! §4: *"Whenever ftsh creates a new child process, it allocates a new
//! POSIX session id with `setsid`. POSIX allows for an entire process
//! session to be terminated with a single system call… Such processes
//! are first gently requested to exit with SIGTERM and later forcibly
//! killed with SIGKILL."* This module is exactly that mechanism: spawn
//! in a fresh session, signal the whole session, escalate after a
//! grace period.

use ftsh::vm::{CmdInput, CommandSpec, OutSink};
use std::fs::OpenOptions;
use std::io::Write;
use std::os::unix::process::{CommandExt, ExitStatusExt};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// How a real process ended — the detail §2 laments is unavailable to
/// shells at the interface. ftsh keeps control flow untyped, but the
/// log records it for post-mortem analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessOutcome {
    /// Normal exit with this status code.
    Exited(i32),
    /// Abnormal termination by this signal (e.g. the SIGTERM/SIGKILL
    /// of a deadline).
    Signaled(i32),
    /// The wait itself failed (should not happen in practice).
    Unknown,
}

impl ProcessOutcome {
    /// The POSIX success criterion: exited normally with status 0.
    pub fn success(self) -> bool {
        self == ProcessOutcome::Exited(0)
    }
}

/// How a kill escalation resolved: the polite path or the big hammer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EscalationOutcome {
    /// The session honored SIGTERM (or was already gone) before the
    /// grace period expired; no SIGKILL was sent.
    ExitedWithinGrace,
    /// The session outlived the grace period and was SIGKILLed.
    ForceKilled,
}

/// A child process leading its own session.
#[derive(Debug)]
pub struct SessionChild {
    child: Child,
    pid: i32,
    /// Whether stdout was piped for capture.
    captures: bool,
}

/// Errors spawning a command.
#[derive(Debug)]
pub enum SpawnError {
    /// The program could not be started (not found, not executable…).
    Spawn(std::io::Error),
    /// A redirection file could not be opened.
    Redirect(std::io::Error),
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::Spawn(e) => write!(f, "cannot run program: {e}"),
            SpawnError::Redirect(e) => write!(f, "cannot open redirection: {e}"),
        }
    }
}

impl std::error::Error for SpawnError {}

impl SessionChild {
    /// Spawn `spec` as the leader of a new POSIX session, with its
    /// redirections applied.
    pub fn spawn(spec: &CommandSpec) -> Result<SessionChild, SpawnError> {
        assert!(!spec.argv.is_empty(), "empty argv");
        let mut cmd = Command::new(&spec.argv[0]);
        cmd.args(&spec.argv[1..]);

        // Standard input.
        match &spec.input {
            Some(CmdInput::Data(_)) => {
                cmd.stdin(Stdio::piped());
            }
            Some(CmdInput::File(path)) => {
                let f = OpenOptions::new()
                    .read(true)
                    .open(path)
                    .map_err(SpawnError::Redirect)?;
                cmd.stdin(Stdio::from(f));
            }
            None => {
                cmd.stdin(Stdio::null());
            }
        }

        // Standard output (and error).
        let mut captures = false;
        match &spec.output {
            Some(OutSink::Var { .. }) => {
                captures = true;
                cmd.stdout(Stdio::piped());
                if spec.both {
                    // Capture stderr alongside stdout. A shared pipe
                    // would interleave arbitrarily; the VM only needs
                    // the combined text, so we route stderr into the
                    // same pipe via the child's fd table after fork.
                    cmd.stderr(Stdio::piped());
                } else {
                    cmd.stderr(Stdio::inherit());
                }
            }
            Some(OutSink::File { path, append }) => {
                let f = OpenOptions::new()
                    .create(true)
                    .write(true)
                    .append(*append)
                    .truncate(!*append)
                    .open(path)
                    .map_err(SpawnError::Redirect)?;
                if spec.both {
                    let f2 = f.try_clone().map_err(SpawnError::Redirect)?;
                    cmd.stderr(Stdio::from(f2));
                }
                cmd.stdout(Stdio::from(f));
            }
            None => {}
        }

        // New session: the whole process tree can be signalled at once.
        // SAFETY: setsid is async-signal-safe and has no preconditions
        // in the just-forked child.
        unsafe {
            cmd.pre_exec(|| {
                if libc::setsid() == -1 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }

        let mut child = cmd.spawn().map_err(SpawnError::Spawn)?;
        let pid = child.id() as i32;

        // Feed stdin data, then close the pipe so the child sees EOF.
        if let Some(CmdInput::Data(data)) = &spec.input {
            if let Some(mut stdin) = child.stdin.take() {
                // A child that never reads can make this block; data
                // sizes here are shell-variable sized, well under pipe
                // capacity, so a straight write is fine.
                let _ = stdin.write_all(data.as_bytes());
            }
        }

        Ok(SessionChild {
            child,
            pid,
            captures,
        })
    }

    /// The session (and process-group) id.
    pub fn pid(&self) -> i32 {
        self.pid
    }

    /// Send a signal to the whole session.
    pub fn signal_session(pid: i32, sig: i32) {
        // SAFETY: plain kill(2); an ESRCH result (already gone) is fine.
        unsafe {
            libc::kill(-pid, sig);
        }
    }

    /// True when no process in the session can still receive a
    /// signal. A reaped tree yields ESRCH from `kill(-pid, 0)`.
    fn session_gone(pid: i32) -> bool {
        // SAFETY: signal 0 only checks deliverability, nothing is sent.
        let rc = unsafe { libc::kill(-pid, 0) };
        rc == -1 && std::io::Error::last_os_error().raw_os_error() == Some(libc::ESRCH)
    }

    /// Politely terminate the session, then force-kill after `grace`.
    /// Spawns a detached escalation thread so the caller never blocks.
    pub fn kill_escalate(pid: i32, grace: Duration) {
        let _ = Self::escalate(pid, grace);
    }

    /// [`SessionChild::kill_escalate`] with an observable outcome:
    /// SIGTERM is sent immediately, then a helper thread *polls* for
    /// the session's exit and only fires SIGKILL if the grace period
    /// truly expires. A SIGTERM-compliant child therefore ends the
    /// escalation (and releases the helper thread) well under `grace`
    /// instead of every kill holding a thread for the full period and
    /// SIGKILLing an already-recycled session id.
    pub fn escalate(pid: i32, grace: Duration) -> std::thread::JoinHandle<EscalationOutcome> {
        Self::signal_session(pid, libc::SIGTERM);
        std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + grace;
            loop {
                if Self::session_gone(pid) {
                    return EscalationOutcome::ExitedWithinGrace;
                }
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    Self::signal_session(pid, libc::SIGKILL);
                    return EscalationOutcome::ForceKilled;
                }
                std::thread::sleep(left.min(Duration::from_millis(10)));
            }
        })
    }

    /// Wait for the child to exit, collecting captured output. Blocks.
    pub fn wait(self) -> (bool, String) {
        let (outcome, text) = self.wait_detailed();
        (outcome.success(), text)
    }

    /// Like [`SessionChild::wait`], but reporting how the process
    /// ended (exit code vs. signal) for the post-mortem log.
    pub fn wait_detailed(self) -> (ProcessOutcome, String) {
        let SessionChild {
            child, captures, ..
        } = self;
        match child.wait_with_output() {
            Ok(out) => {
                let mut text = String::new();
                if captures {
                    text.push_str(&String::from_utf8_lossy(&out.stdout));
                    if !out.stderr.is_empty() {
                        text.push_str(&String::from_utf8_lossy(&out.stderr));
                    }
                }
                let outcome = match (out.status.code(), out.status.signal()) {
                    (Some(code), _) => ProcessOutcome::Exited(code),
                    (None, Some(sig)) => ProcessOutcome::Signaled(sig),
                    (None, None) => ProcessOutcome::Unknown,
                };
                (outcome, text)
            }
            Err(_) => (ProcessOutcome::Unknown, String::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsh::vm::{CmdResult, CommandSpec};

    fn spec(argv: &[&str]) -> CommandSpec {
        CommandSpec {
            argv: argv.iter().map(|s| ftsh::Istr::from(*s)).collect(),
            input: None,
            output: None,
            both: false,
        }
    }

    /// A file a child touches once it is ready (a trap installed, a
    /// grandchild forked), for [`await_ready`] to poll.
    fn ready_marker(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("ftsh-ready-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Block, for at most 10 s, until the child has touched `marker`.
    fn await_ready(marker: &std::path::Path) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !marker.exists() {
            assert!(
                std::time::Instant::now() < deadline,
                "child never signalled {}",
                marker.display()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = std::fs::remove_file(marker);
    }

    #[test]
    fn true_succeeds_false_fails() {
        let c = SessionChild::spawn(&spec(&["true"])).unwrap();
        assert!(c.wait().0);
        let c = SessionChild::spawn(&spec(&["false"])).unwrap();
        assert!(!c.wait().0);
    }

    #[test]
    fn missing_program_is_a_spawn_error() {
        let e = SessionChild::spawn(&spec(&["/no/such/program-xyz"]));
        assert!(matches!(e, Err(SpawnError::Spawn(_))));
    }

    #[test]
    fn captures_stdout() {
        let mut s = spec(&["echo", "hello"]);
        s.output = Some(OutSink::Var {
            name: "x".into(),
            append: false,
        });
        let c = SessionChild::spawn(&s).unwrap();
        let (ok, out) = c.wait();
        assert!(ok);
        assert_eq!(out, "hello\n");
    }

    #[test]
    fn captures_stderr_with_both() {
        let mut s = spec(&["sh", "-c", "echo err >&2"]);
        s.output = Some(OutSink::Var {
            name: "x".into(),
            append: false,
        });
        s.both = true;
        let c = SessionChild::spawn(&s).unwrap();
        let (ok, out) = c.wait();
        assert!(ok);
        assert!(out.contains("err"));
    }

    #[test]
    fn stdin_data_reaches_child() {
        let mut s = spec(&["cat"]);
        s.input = Some(CmdInput::Data("ping".into()));
        s.output = Some(OutSink::Var {
            name: "x".into(),
            append: false,
        });
        let c = SessionChild::spawn(&s).unwrap();
        let (ok, out) = c.wait();
        assert!(ok);
        assert_eq!(out, "ping");
    }

    #[test]
    fn file_redirection_writes_and_appends() {
        let dir = std::env::temp_dir().join(format!("ftsh-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        let p = path.to_str().unwrap().to_string();

        let mut s = spec(&["echo", "one"]);
        s.output = Some(OutSink::File {
            path: p.as_str().into(),
            append: false,
        });
        SessionChild::spawn(&s).unwrap().wait();

        let mut s = spec(&["echo", "two"]);
        s.output = Some(OutSink::File {
            path: p.as_str().into(),
            append: true,
        });
        SessionChild::spawn(&s).unwrap().wait();

        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "one\ntwo\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_escalate_terminates_sleepers() {
        let c = SessionChild::spawn(&spec(&["sleep", "30"])).unwrap();
        let pid = c.pid();
        let started = std::time::Instant::now();
        SessionChild::kill_escalate(pid, Duration::from_millis(200));
        let (outcome, _) = c.wait_detailed();
        assert!(!outcome.success(), "killed process reports failure");
        assert!(
            matches!(outcome, ProcessOutcome::Signaled(sig) if sig == libc::SIGTERM || sig == libc::SIGKILL),
            "death by signal is visible post mortem: {outcome:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn exit_codes_are_detailed() {
        let c = SessionChild::spawn(&spec(&["sh", "-c", "exit 42"])).unwrap();
        let (outcome, _) = c.wait_detailed();
        assert_eq!(outcome, ProcessOutcome::Exited(42));
        assert!(!outcome.success());
        let c = SessionChild::spawn(&spec(&["true"])).unwrap();
        assert_eq!(c.wait_detailed().0, ProcessOutcome::Exited(0));
    }

    #[test]
    fn session_kill_reaches_grandchildren() {
        // sh spawns a sleeping grandchild; killing the session must
        // reach it because the whole tree shares the session id.
        let ready = ready_marker("grandchild");
        let script = format!("sleep 30 & touch {}; wait", ready.display());
        let c = SessionChild::spawn(&spec(&["sh", "-c", &script])).unwrap();
        let pid = c.pid();
        await_ready(&ready);
        SessionChild::kill_escalate(pid, Duration::from_millis(200));
        let started = std::time::Instant::now();
        let (ok, _) = c.wait();
        assert!(!ok);
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn sigterm_compliant_child_ends_escalation_early() {
        // A 10 s grace must not cost 10 s when the child honors
        // SIGTERM immediately: the escalation polls for exit.
        let c = SessionChild::spawn(&spec(&["sleep", "30"])).unwrap();
        let started = std::time::Instant::now();
        let h = SessionChild::escalate(c.pid(), Duration::from_secs(10));
        let (outcome, _) = c.wait_detailed();
        assert_eq!(outcome, ProcessOutcome::Signaled(libc::SIGTERM));
        let esc = h.join().unwrap();
        assert_eq!(esc, EscalationOutcome::ExitedWithinGrace);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "escalation stalled {:?} on a compliant child",
            started.elapsed()
        );
    }

    #[test]
    fn stubborn_child_is_force_killed_at_grace() {
        // Ignore SIGTERM and busy-loop; only SIGKILL can end this.
        let ready = ready_marker("stubborn");
        let script = format!(
            "trap '' TERM; touch {}; while :; do :; done",
            ready.display()
        );
        let c = SessionChild::spawn(&spec(&["sh", "-c", &script])).unwrap();
        // The trap is installed before the SIGTERM arrives.
        await_ready(&ready);
        let h = SessionChild::escalate(c.pid(), Duration::from_millis(300));
        let (outcome, _) = c.wait_detailed();
        assert_eq!(outcome, ProcessOutcome::Signaled(libc::SIGKILL));
        assert_eq!(h.join().unwrap(), EscalationOutcome::ForceKilled);
    }

    #[test]
    fn result_roundtrip_types() {
        // Sanity on the ftsh-facing result shape.
        let r = CmdResult::ok("x");
        assert!(r.success);
    }

    #[test]
    fn concurrent_escalation_reaps_every_session() {
        // Eight live sessions at once — half SIGTERM-compliant, half
        // trapping TERM, every one holding a sleeping grandchild —
        // and the SIGTERM→SIGKILL escalation must reap all of them:
        // no session may survive, no process group may be orphaned.
        const N: usize = 8;
        let mut kids = Vec::with_capacity(N);
        let mut markers = Vec::with_capacity(N);
        for i in 0..N {
            let ready = ready_marker(&format!("concurrent-{i}"));
            let script = if i % 2 == 0 {
                // Compliant: TERM kills the shell and its grandchild.
                format!("sleep 30 & touch {}; wait", ready.display())
            } else {
                // Stubborn: ignores TERM; only the KILL at grace end
                // can take the group down.
                format!(
                    "trap '' TERM; sleep 30 & touch {}; while :; do sleep 1; done",
                    ready.display()
                )
            };
            kids.push(SessionChild::spawn(&spec(&["sh", "-c", &script])).unwrap());
            markers.push(ready);
        }
        // Every trap is installed and every grandchild forked.
        for ready in &markers {
            await_ready(ready);
        }

        let pids: Vec<i32> = kids.iter().map(|c| c.pid()).collect();
        let handles: Vec<_> = pids
            .iter()
            .map(|&pid| SessionChild::escalate(pid, Duration::from_millis(400)))
            .collect();

        let mut compliant = 0;
        let mut forced = 0;
        for h in handles {
            match h.join().unwrap() {
                EscalationOutcome::ExitedWithinGrace => compliant += 1,
                EscalationOutcome::ForceKilled => forced += 1,
            }
        }
        assert_eq!(compliant + forced, N);
        assert!(forced >= 1, "trap-TERM sessions require the SIGKILL leg");

        for c in kids {
            let (outcome, _) = c.wait_detailed();
            assert!(!outcome.success(), "killed session must report failure");
        }
        // Conservation: every session id must answer ESRCH — a live
        // group member (orphaned grandchild included) would still
        // accept signal 0.
        for pid in pids {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !SessionChild::session_gone(pid) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "session {pid} leaked an orphaned process group"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}
