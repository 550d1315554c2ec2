//! End-to-end tests of the `ftsh` command-line binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn ftsh() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftsh"))
}

#[test]
fn inline_script_success_and_failure_exit_codes() {
    let st = ftsh().args(["-c", "true\n"]).status().unwrap();
    assert_eq!(st.code(), Some(0));
    let st = ftsh().args(["-c", "false\n"]).status().unwrap();
    assert_eq!(st.code(), Some(1));
}

#[test]
fn parse_error_exits_2() {
    let out = ftsh()
        .args(["-c", "try for 5 minutes\nx\n"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("parse error at 1:1"),
        "diagnostic carries line:col: {err}"
    );
}

#[test]
fn parse_error_points_a_caret_at_the_offender() {
    // Regression: a known-bad script must produce a line:col diagnostic
    // with a caret excerpt under the offending token.
    let dir = std::env::temp_dir().join(format!("ftsh-caret-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.ftsh");
    std::fs::write(&path, "wget url\ntry for 9 fortnights\n  x\nend\n").unwrap();
    let out = ftsh().arg(path.to_str().unwrap()).output().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("parse error at 2:11"),
        "line:col of the bad unit: {err}"
    );
    assert!(
        err.contains("2 | try for 9 fortnights"),
        "source excerpt: {err}"
    );
    assert!(err.contains("^^^^^^^^^^"), "caret under the token: {err}");
}

#[test]
fn check_mode_parses_without_running() {
    let st = ftsh()
        .args(["--check", "-c", "definitely-not-a-real-program\n"])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(0), "--check never executes");
}

#[test]
fn pretty_mode_prints_canonical_form() {
    let out = ftsh()
        .args([
            "--pretty",
            "-c",
            "try   for  5    minutes\n  wget url\nend\n",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text, "try for 5 minutes\n  wget url\nend\n");
}

#[test]
fn script_file_runs() {
    let dir = std::env::temp_dir().join(format!("ftsh-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("s.ftsh");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "#!/usr/bin/env ftsh").unwrap();
    writeln!(f, "echo ok -> x").unwrap();
    writeln!(f, "if ${{x}} .eql. ok").unwrap();
    writeln!(f, "true").unwrap();
    writeln!(f, "else").unwrap();
    writeln!(f, "failure").unwrap();
    writeln!(f, "end").unwrap();
    drop(f);
    let st = ftsh().arg(path.to_str().unwrap()).status().unwrap();
    assert_eq!(st.code(), Some(0), "shebang line is a comment");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_mode_reports_attempts() {
    let out = ftsh()
        .args([
            "--log",
            "-c",
            "try for 1 hour every 10 ms or 3 times\nfalse\nend\n",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("attempt #3"), "log shows attempts: {err}");
    assert!(
        err.contains("try budget exhausted"),
        "log shows exhaustion: {err}"
    );
}

/// A `forany` that falls through to its second alternative, a `->`
/// capture and a two-branch `forall`: every kind only the in-VM log
/// used to hold.
const FORANY_CAPTURE_FORALL: &str = "try for 10 seconds\n\
       forany h in a b\n\
         sh -c \"test ${h} = b && echo picked-${h}\" -> out\n\
       end\n\
     end\n\
     forall t in 0.05 0.1\n\
       sleep ${t}\n\
     end\n";

/// A rendered line with what changes from run to run taken out: the
/// timestamp, a command's duration and the `client 0` a traced run's
/// records name.
fn shape(line: &str) -> String {
    let words = line.split_once("] ").map_or(line, |(_, w)| w);
    let words = words.strip_prefix("client 0 ").unwrap_or(words);
    match words.rsplit_once(" (") {
        Some((head, took)) if took.trim_end_matches("s)").parse::<f64>().is_ok() => head.into(),
        _ => words.into(),
    }
}

#[test]
fn the_trace_file_alone_is_the_log() {
    use ftsh::postmortem::{alternative_frequency, per_program, render_log, render_timeline};
    use ftsh::trace::from_jsonl;

    let dir = std::env::temp_dir().join(format!("ftsh-trace-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let read_back = |path: &std::path::Path| {
        from_jsonl(&std::fs::read_to_string(path).unwrap()).expect("trace file parses")
    };
    let run = |args: &[&str], trace: Option<&std::path::Path>| {
        let mut cmd = ftsh();
        cmd.args(["--seed", "1"]).args(args);
        if let Some(path) = trace {
            cmd.arg("--trace").arg(path);
        }
        let out = cmd.args(["-c", FORANY_CAPTURE_FORALL]).output().unwrap();
        assert_eq!(out.status.code(), Some(0));
        String::from_utf8(out.stderr).unwrap()
    };

    // `--log`: what it printed, the `-- ` trailer aside, is what the
    // trace file renders to.
    let log_trace = dir.join("log.jsonl");
    let err = run(&["--log"], Some(&log_trace));
    let logged: String = err
        .lines()
        .filter(|l| !l.starts_with("-- "))
        .flat_map(|l| [l, "\n"])
        .collect();
    let records = read_back(&log_trace);
    assert_eq!(logged, render_log(&records));
    for fact in [
        "forany -> a",
        "forany -> b",
        "exec sh -c test a = b && echo picked-a",
        "set out",
        "forall x2",
        "exec sleep 0.05",
        "exec sleep 0.1",
        "try succeeded on attempt #1",
        "unit done (success)",
    ] {
        assert!(logged.contains(fact), "{fact:?} missing from {logged}");
    }
    // §4's questions, answered from the file alone.
    let alternatives = alternative_frequency(&records);
    assert_eq!((alternatives["a"], alternatives["b"]), (1, 1));
    let programs = per_program(&records);
    assert_eq!((programs["sh"].failed, programs["sh"].succeeded), (1, 1));
    assert_eq!(programs["sleep"].succeeded, 2);

    // `--timeline`: what it printed is the trace file's timeline.
    let timeline_trace = dir.join("timeline.jsonl");
    let timeline = run(&["--timeline"], Some(&timeline_trace));
    assert_eq!(timeline, render_timeline(&read_back(&timeline_trace), None));

    // Without `--trace` both render the same records, held in memory
    // and naming no client: the timeline first, then the log.
    let err = run(&["--log", "--timeline"], None);
    assert!(!err.contains("client"), "{err}");
    let untraced_timeline: Vec<String> = err
        .lines()
        .filter(|l| !l.starts_with('[') && !l.starts_with("-- "))
        .map(shape)
        .collect();
    let traced_timeline: Vec<String> = timeline
        .lines()
        .filter(|&l| l != "== client 0 ==")
        .map(shape)
        .collect();
    assert_eq!(untraced_timeline, traced_timeline);
    // A `forall`'s branches finish in wall-clock order: compare the
    // log's lines as a multiset.
    let sorted = |mut lines: Vec<String>| {
        lines.sort();
        lines
    };
    let untraced_log = err.lines().filter(|l| l.starts_with('[')).map(shape);
    assert_eq!(
        sorted(untraced_log.collect()),
        sorted(logged.lines().map(shape).collect())
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace file that cannot take the run's records fails the run: the
/// records sit in a buffer until the end, so only the final flush
/// sees `/dev/full` refuse them.
#[test]
fn a_trace_file_that_cannot_be_written_exits_2() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = ftsh()
        .args(["--seed", "1", "--trace", "/dev/full", "-c", "true"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write trace file /dev/full"), "{err}");
}

#[test]
fn missing_file_is_a_usage_error() {
    let st = ftsh().arg("/no/such/script.ftsh").status().unwrap();
    assert_eq!(st.code(), Some(2));
}

#[test]
fn usage_error_on_bad_flags() {
    let out = ftsh().arg("--bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    for flag in ["--timeline", "--trace", "--repl", "--seed"] {
        assert!(err.contains(flag), "usage names {flag}: {err}");
    }
    let st = ftsh().args(["-c"]).status().unwrap();
    assert_eq!(st.code(), Some(2));
}

#[test]
fn lint_findings_exit_2_and_script_failure_exits_1() {
    // The exit-code contract: a script that *runs and fails* is 1
    // (retryable work), a script the analyzer rejects is 2 (malformed).
    let st = ftsh().args(["-c", "false\n"]).status().unwrap();
    assert_eq!(st.code(), Some(1), "script failure is exit 1");

    let out = ftsh()
        .args(["--lint", "-c", "try\n  submit job\nend\n"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "lint findings are exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unbounded-try"), "{err}");
    assert!(err.contains("no-carrier-sense"), "{err}");
    assert!(err.contains("discipline Aloha"), "{err}");

    // A clean script lints silently and never executes.
    let st = ftsh()
        .args(["--lint", "-c", "definitely-not-a-real-program\n"])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(0), "--lint never executes");
}

#[test]
fn lint_max_budget_rejects_wide_envelopes() {
    // try 10 times: worst-case backoff envelope 2*(2^9 - 1) = 1022 s.
    let out = ftsh()
        .args([
            "--lint",
            "--max-budget",
            "10m",
            "-c",
            "try for 1 hour or 10 times\n  x\nend\n",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget-exceeded"), "{err}");
    assert!(err.contains("1022s"), "{err}");

    // 5 attempts (30 s) fit the same bound.
    let st = ftsh()
        .args([
            "--lint",
            "--max-budget",
            "10m",
            "-c",
            "try for 1 hour or 5 times\n  x\nend\n",
        ])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(0));

    let st = ftsh()
        .args(["--lint", "--max-budget", "nonsense"])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(2), "bad duration is a usage error");
}

#[test]
fn lint_define_silences_harness_variables() {
    let out = ftsh()
        .args(["--lint", "-c", "${shimdir}/tool arg\n"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("use-before-assign"));

    let st = ftsh()
        .args([
            "--lint",
            "--define",
            "shimdir",
            "-c",
            "${shimdir}/tool arg\n",
        ])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(0));
}

#[test]
fn deadline_kills_inline_sleep() {
    let started = std::time::Instant::now();
    let st = ftsh()
        .args(["-c", "try for 1 seconds or 1 times\nsleep 30\nend\n"])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(1));
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "the CLI enforced the deadline: {:?}",
        started.elapsed()
    );
}

#[test]
fn timeline_mode_renders_swimlanes() {
    let out = ftsh()
        .args([
            "--timeline",
            "-c",
            "forall t in 0.05 0.05\nsleep ${t}\nend\n",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("task 0"), "{err}");
    assert!(
        err.contains("task 1"),
        "branches get their own lanes: {err}"
    );
    assert!(err.contains("forall x2"), "{err}");
}

#[test]
fn backoff_flags_change_retry_pacing() {
    // Two failing attempts with a 50 ms base and no jitter finish fast
    // and deterministically; the paper default (1 s base) would take
    // over a second.
    let started = std::time::Instant::now();
    let st = ftsh()
        .args([
            "--backoff-base",
            "50",
            "--no-jitter",
            "--seed",
            "1",
            "-c",
            "try 3 times\nfalse\nend\n",
        ])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(1));
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(900),
        "50ms+100ms backoff, took {elapsed:?}"
    );
}

#[test]
fn backoff_flag_usage_errors() {
    assert_eq!(
        ftsh().args(["--backoff-base"]).status().unwrap().code(),
        Some(2)
    );
    assert_eq!(
        ftsh()
            .args(["--backoff-cap", "xyz", "-c", "true\n"])
            .status()
            .unwrap()
            .code(),
        Some(2)
    );
}

#[test]
fn repl_mode_persists_variables_across_lines() {
    use std::io::Write;
    let mut child = ftsh()
        .arg("--repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"n=5\nif ${n} .eq. 5\ntrue\nend\nexit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.matches("ok").count() >= 2, "{text}");
}

#[test]
fn sigterm_relays_to_nested_shells_and_their_children() {
    // A parent ftsh runs a child ftsh (a new session!), which runs a
    // long sleep in yet another session. SIGTERM to the parent must
    // tear the whole arrangement down promptly — §4's nested-shell
    // protocol.
    use std::io::Read;
    let ftsh_bin = env!("CARGO_BIN_EXE_ftsh");
    // The child shell touches `ready` from its script, so both shells
    // have their SIGTERM hooks installed by the time it appears.
    let ready = std::env::temp_dir().join(format!("ftsh-cli-ready-{}", std::process::id()));
    let _ = std::fs::remove_file(&ready);
    let inner = format!("touch {}\nsleep 30\n", ready.display());
    let mut child = ftsh()
        .args(["-c", &format!("{ftsh_bin} -c \"{inner}\"\n")])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !ready.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "child shell never started"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = std::fs::remove_file(&ready);
    // SIGTERM the parent shell process itself.
    unsafe {
        libc::kill(child.id() as i32, libc::SIGTERM);
    }
    let started = std::time::Instant::now();
    let status = child.wait().unwrap();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "parent exited promptly: {:?}",
        started.elapsed()
    );
    assert_ne!(status.code(), Some(0), "terminated run reports failure");
    let mut buf = String::new();
    if let Some(mut e) = child.stderr.take() {
        let _ = e.read_to_string(&mut buf);
    }
}
