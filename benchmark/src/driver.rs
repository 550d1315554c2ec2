//! Running workloads in fresh processes: the whole benchmark in one
//! command, and `--agree`, which runs it twice and holds the two sets
//! of runs against the declared bounds.

use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use crate::Args;
use std::process::{Command, ExitCode, Stdio};

/// A child run's result line, parsed.
#[derive(Debug, PartialEq)]
pub struct RunResult {
    /// Did every output check pass?
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value)` in the order printed.
    pub metrics: Vec<(String, f64)>,
}

/// The text between `key` and the next `,` or `}` in `line`.
fn scalar<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// Parse the result line [`crate::result_line`] prints. Not a JSON
/// parser: it reads exactly that one shape.
pub fn parse_result_line(line: &str) -> Option<RunResult> {
    let correct = scalar(line, "\"correct\":")?.parse().ok()?;
    let attempted = scalar(line, "\"attempted\":")?.parse().ok()?;
    let failed = scalar(line, "\"failed\":")?.parse().ok()?;
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    // Each entry reads `"name": {"value": 1.5, "unit": "ms"}`.
    while let Some(at) = rest.find("\": {\"value\":") {
        let name = &rest[rest[..at].rfind('"')? + 1..at];
        let value = scalar(&rest[at..], "\"value\":")?.parse().ok()?;
        metrics.push((name.to_string(), value));
        rest = &rest[at + 1..];
        rest = &rest[rest.find('}')? + 1..];
    }
    Some(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Run one workload in a fresh process of this same executable,
/// forwarding its report (all but the result line) to standard output.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
    echo: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{report}");
    }
    parse_result_line(last).ok_or_else(|| {
        format!(
            "{workload} (exit {}): no result line in {last:?}",
            out.status
        )
    })
}

/// The first line a command prints, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers were taken: CPU count, compiler, commit.
fn print_host() {
    println!(
        "host_cpus {}; {}; commit {}",
        crate::host_cpus(),
        first_line_of("rustc", &["--version"]),
        first_line_of(
            "git",
            &["-C", crate::gen::REPO_ROOT, "rev-parse", "--short", "HEAD"]
        )
    );
}

/// No `--workload`: every workload, end-to-end then traced, each in a
/// fresh process. The layer probes are the same whatever the workload,
/// so only the first traced run carries them.
pub fn run_all(args: &Args) -> Result<ExitCode, String> {
    print_host();
    let mut wrong = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        for trace in [0, if i == 0 { 1 } else { 2 }] {
            let r = run_child(w.name, args.seed, args.seconds, trace, true)?;
            if !r.correct {
                wrong.push(format!("{} (--trace {trace})", w.name));
            }
        }
    }
    if wrong.is_empty() {
        println!("every output check passed");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("output checks FAILED in: {}", wrong.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

/// By what share of `a` is `b` worse, in the metric's own direction?
/// Negative when `b` is better.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Runs in each of `--agree`'s two sets: the count the benchmark
/// contract's own acceptance takes its quartiles over, and the one the
/// spreads in README.md were measured with.
const AGREE_RUNS: u64 = 10;

/// `--agree`: two sets of [`AGREE_RUNS`] end-to-end runs per workload
/// (run `i` of either set uses seed `--seed + i`), then, per workload
/// and metric: both medians, how much worse either is than the other,
/// the spread within each set, and the bound. Non-zero exit when a
/// median is worse than its twin by more than the bound, when a spread
/// exceeds it (`setup_s` excepted, as in the benchmark contract), or
/// when an output check failed.
pub fn agree(args: &Args) -> Result<ExitCode, String> {
    print_host();
    let mut ok = true;
    for w in &WORKLOADS {
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for i in 0..AGREE_RUNS {
                let r = run_child(w.name, args.seed + i, args.seconds, 0, false)?;
                ok &= r.correct;
                set.push(r);
            }
        }
        println!("== {}: two sets of {AGREE_RUNS} runs ==", w.name);
        for m in &END_TO_END {
            let values = |set: &[RunResult]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.iter().find(|(n, _)| n == m.name).map(|v| v.1))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (Some(ma), Some(mb)) = (median(&a), median(&b)) else {
                return Err(format!("{}: no {} reported", w.name, m.name));
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let apart = worse_by(m.better, ma, mb).max(worse_by(m.better, mb, ma));
            let widest = spread(&a).into_iter().chain(spread(&b)).fold(0.0, f64::max);
            let spread_ok = m.name == "setup_s" || widest <= bound;
            let verdict = if apart <= bound && spread_ok {
                "agree"
            } else {
                "DISAGREE"
            };
            ok &= apart <= bound && spread_ok;
            println!(
                "  {:<12} {ma:>16.6} vs {mb:>16.6} {:<5} apart {:>6.2}%  spread {:>6.2}%  bound {:>5.1}%  {verdict}",
                m.name,
                m.unit,
                apart * 100.0,
                widest * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let metrics = [(&END_TO_END[0], 1234.5), (&END_TO_END[3], 0.000125)];
        let line = crate::result_line(true, 10, 0, &metrics);
        assert_eq!(
            parse_result_line(&line),
            Some(RunResult {
                correct: true,
                attempted: 10,
                failed: 0,
                metrics: vec![("work_per_s".into(), 1234.5), ("setup_s".into(), 0.000125)],
            })
        );
        let failing = crate::result_line(false, 7, 2, &[]);
        let parsed = parse_result_line(&failing).unwrap();
        assert_eq!(
            (parsed.correct, parsed.attempted, parsed.failed),
            (false, 7, 2)
        );
        assert!(parsed.metrics.is_empty());
        assert_eq!(parse_result_line("thread 'main' panicked"), None);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert_eq!(worse_by(Better::Lower, 10.0, 12.0), 0.2);
        assert_eq!(worse_by(Better::Lower, 10.0, 8.0), -0.2);
        assert_eq!(worse_by(Better::Higher, 10.0, 8.0), 0.2);
        assert_eq!(worse_by(Better::Higher, 10.0, 12.0), -0.2);
    }
}
