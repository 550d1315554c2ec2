//! The `ftsh` command-line interpreter.
//!
//! ```text
//! ftsh SCRIPT.ftsh        run a script file
//! ftsh -c 'try ... end'   run an inline script
//! ftsh --check SCRIPT     parse only, report errors
//! ftsh --lint SCRIPT      parse and statically analyze (ftshlint)
//! ftsh --pretty SCRIPT    parse and print the canonical form
//! ftsh --log SCRIPT       run and dump the execution log afterwards
//! ftsh --timeline SCRIPT  run and render per-task swimlanes
//! ftsh --trace OUT.jsonl  run and stream a structured trace (JSONL)
//! ftsh --repl             interactive session (variables persist)
//! ```
//!
//! Lint options (with `--lint`):
//!
//! ```text
//! --max-budget DUR        reject scripts whose worst-case retry
//!                         envelope exceeds DUR ('90s', '2 hours')
//! --define NAME           pre-bind a variable for the dataflow rules
//! ```
//!
//! Backoff tuning (the paper's defaults are 1 s base, 1 h cap, with a
//! random factor in [1, 2)):
//!
//! ```text
//! --backoff-base MILLIS   first delay after a failure
//! --backoff-cap SECONDS   upper bound on the delay
//! --no-jitter             disable the random spreading factor
//! --seed N                fix the jitter RNG (reproducible runs)
//! ```
//!
//! Exit status: **0** if the script succeeded (or `--check`/`--lint`
//! found nothing), **1** if the script ran and failed, **2** on usage
//! errors, parse errors, lint findings, or a `--trace` file that could
//! not be written — so callers can tell "the work failed" (retryable)
//! from "the script is malformed" (not).

use ftsh::postmortem::{render_log, render_timeline};
use ftsh::trace::{JsonlSink, SharedSink, TraceRecord, TraceSink, VecSink, NO_ID};
use ftsh::{parse, pretty, Vm};
use procman::{run_vm, RealOptions};

use retry::{parse_duration_arg, BackoffPolicy, Dur};
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

/// The `--trace` file, and the records `--log` / `--timeline` render
/// when either is on. The file is written as the run goes, and it may
/// be a path that cannot be read back (`/dev/stderr`, a pipe).
struct Tee(JsonlSink<BufWriter<File>>, Option<SharedSink>);

impl TraceSink for Tee {
    fn record(&mut self, rec: &TraceRecord) {
        self.0.record(rec);
        if let Some(kept) = &self.1 {
            kept.lock().expect("trace sink poisoned").record(rec);
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(concat!(
        "usage: ftsh [MODE] [OPTIONS] SCRIPT.ftsh | -c 'script text'\n",
        "       ftsh --repl\n",
        "modes:   --check | --lint [--max-budget DUR] [--define NAME]... | --pretty\n",
        "options: --log  --timeline  --trace OUT.jsonl\n",
        "         --backoff-base MILLIS  --backoff-cap SECONDS  --no-jitter  --seed N",
    ));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut do_lint = false;
    let mut lint_opts = ftshlint::Options::default();
    let mut show_pretty = false;
    let mut show_log = false;
    let mut show_timeline = false;
    let mut inline: Option<String> = None;
    let mut path: Option<String> = None;
    let mut backoff_base: Option<u64> = None;
    let mut backoff_cap: Option<u64> = None;
    let mut jitter = true;
    let mut seed: Option<u64> = None;
    let mut trace_path: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--lint" => do_lint = true,
            "--max-budget" => match it.next().as_deref().and_then(parse_duration_arg) {
                Some(d) => lint_opts.max_budget = Some(d),
                None => return usage(),
            },
            "--define" => match it.next() {
                Some(name) => lint_opts.defines.push(name),
                None => return usage(),
            },
            "--pretty" => show_pretty = true,
            "--log" => show_log = true,
            "--timeline" => show_timeline = true,
            "-c" => match it.next() {
                Some(s) => inline = Some(s),
                None => return usage(),
            },
            "--backoff-base" => match it.next().and_then(|s| s.parse().ok()) {
                Some(ms) => backoff_base = Some(ms),
                None => return usage(),
            },
            "--backoff-cap" => match it.next().and_then(|s| s.parse().ok()) {
                Some(secs) => backoff_cap = Some(secs),
                None => return usage(),
            },
            "--no-jitter" => jitter = false,
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(p),
                None => return usage(),
            },
            "--repl" | "-i" => {
                let mut repl = procman::Repl::new(RealOptions::default(), true);
                let stdin = std::io::stdin();
                let status = repl.run(stdin.lock(), std::io::stdout());
                return ExitCode::from(status.clamp(0, 2) as u8);
            }
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => seed = Some(n),
                None => return usage(),
            },
            "-h" | "--help" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => return usage(),
            other => {
                if path.is_some() {
                    return usage();
                }
                path = Some(other.to_string());
            }
        }
    }

    let source = match (inline, &path) {
        (Some(s), None) => s,
        (None, Some(p)) => match std::fs::read_to_string(p) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ftsh: cannot read {p}: {e}");
                return ExitCode::from(2);
            }
        },
        _ => return usage(),
    };

    let script = match parse(&source) {
        Ok(s) => s,
        Err(e) => {
            // Line:col plus a caret excerpt pointing at the offender.
            eprintln!("ftsh: {}", e.render(&source));
            return ExitCode::from(2);
        }
    };

    if show_pretty {
        print!("{}", pretty(&script));
        return ExitCode::SUCCESS;
    }
    if do_lint {
        let file = path.as_deref().unwrap_or("<inline>");
        let report = ftshlint::lint_script(&script, &source, &lint_opts);
        for d in &report.diagnostics {
            eprintln!("{}\n", d.render(file, &source));
        }
        eprintln!(
            "ftsh: lint: {} finding(s), {} suppressed; discipline {}, worst-case envelope {}",
            report.diagnostics.len(),
            report.suppressed,
            report.discipline,
            report.envelope,
        );
        return if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }
    if check {
        return ExitCode::SUCCESS;
    }

    // §4: nested shells relay termination — trap the parent's SIGTERM
    // and take our own sessions down with us.
    procman::install_sigterm_hook();
    let opts = RealOptions {
        handle_sigterm: true,
        ..RealOptions::default()
    };
    let mut vm = match seed {
        Some(n) => Vm::with_seed(&script, n),
        // No --seed: entropy keeps concurrent shells' jitter
        // decorrelated (§4); pass --seed for reproducible runs.
        None => Vm::new(&script),
    };
    if backoff_base.is_some() || backoff_cap.is_some() || !jitter {
        let mut policy = BackoffPolicy::exponential(
            Dur::from_millis(backoff_base.unwrap_or(1000)),
            Dur::from_secs(backoff_cap.unwrap_or(3600)),
        );
        if !jitter {
            policy = policy.without_jitter();
        }
        vm.set_default_backoff(policy);
    }
    // The VM's one sink: with `--trace`, the file (the VM runs as
    // client 0), teed to `kept` for `--log` / `--timeline`; without it,
    // `kept` alone, naming no client.
    let kept = Arc::new(Mutex::new(VecSink::new()));
    let keep = (show_log || show_timeline).then(|| kept.clone() as SharedSink);
    let mut tee = None;
    match (&trace_path, keep) {
        (Some(p), keep) => match File::create(p) {
            Ok(f) => {
                let sink = Arc::new(Mutex::new(Tee(JsonlSink::new(BufWriter::new(f)), keep)));
                vm.set_tracer(sink.clone(), 0);
                tee = Some(sink);
            }
            Err(e) => {
                eprintln!("ftsh: cannot create trace file {p}: {e}");
                return ExitCode::from(2);
            }
        },
        (None, Some(keep)) => vm.set_tracer(keep, NO_ID),
        (None, None) => {}
    }
    let report = run_vm(vm, &opts);
    let records = kept.lock().expect("trace sink poisoned").take();

    if show_timeline {
        eprint!("{}", render_timeline(&records, None));
    }
    if show_log {
        eprint!("{}", render_log(&records));
        let s = report.summary;
        eprintln!(
            "-- {} commands, {} attempts, {} backoffs ({} total), {} timeouts",
            s.commands_started, s.attempts, s.backoffs, s.total_backoff, s.timed_out_tries
        );
        for (prog, outcome) in &report.process_outcomes {
            eprintln!("-- {prog}: {outcome:?}");
        }
    }

    // The file's last records sit in its buffer until this flush; a
    // write that failed at any point fails the run.
    if let (Some(tee), Some(p)) = (tee, &trace_path) {
        let mut tee = tee.lock().expect("trace sink poisoned");
        tee.0.flush();
        if let Some(e) = tee.0.error() {
            eprintln!("ftsh: cannot write trace file {p}: {e}");
            return ExitCode::from(2);
        }
    }

    if report.success {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
