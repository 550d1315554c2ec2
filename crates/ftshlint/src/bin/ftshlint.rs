//! `ftshlint` — lint ftsh scripts from the command line.
//!
//! ```text
//! ftshlint [options] <script.ftsh>...
//!
//!   --format human|json   human (default): rustc-style carets.
//!                         json: one JSON object per diagnostic line.
//!   --max-budget <dur>    reject scripts whose worst-case retry
//!                         envelope exceeds <dur> ('90s', '10m', '2h',
//!                         '3 hours').
//!   --define <name>       pre-bind a variable for the dataflow rules
//!                         (repeatable; same effect as an in-file
//!                         '# lint: define <name>').
//!   --allow <rule>        suppress a rule id everywhere (repeatable).
//!   --report <path.md>    also write a markdown classification report.
//!   --rules               list the rules and exit.
//!   --backoff-base <dur>  base retry delay for envelope analysis
//!                         (default 1s, the paper's §4 value).
//!   --backoff-cap <dur>   delay ceiling for envelope analysis
//!                         (default 1h).
//!   --workflow            treat the scripts as one workflow: join
//!                         their key effects (each script's fetches
//!                         must be produced by a sibling) and report
//!                         missing producers, runtime key cycles and
//!                         never-completing jobs instead of per-script
//!                         lints.
//!
//! Exit status: 0 all scripts clean, 1 at least one finding,
//! 2 usage, I/O, or parse error.
//! ```

use ftshlint::check::{check_with, Verdict, WorkflowJob, WorkflowSpec};
use ftshlint::{lint, markdown_report, Options, Report, RULES};
use gridworld::figures::COORD_WINDOW;
use retry::{parse_duration_arg, BackoffPolicy, Dur};
use std::process::ExitCode;

struct Cli {
    format: Format,
    opts: Options,
    report: Option<String>,
    workflow: bool,
    files: Vec<String>,
}

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
}

fn usage() -> String {
    "usage: ftshlint [--format human|json] [--max-budget <dur>] [--define <name>]... \
     [--allow <rule>]... [--report <path.md>] [--rules] [--backoff-base <dur>] \
     [--backoff-cap <dur>] [--workflow] <script.ftsh>..."
        .to_string()
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        format: Format::Human,
        opts: Options::default(),
        report: None,
        workflow: false,
        files: Vec::new(),
    };
    let (mut base, mut cap) = (Dur::from_secs(1), Dur::from_hours(1));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match a.as_str() {
            "--format" => {
                cli.format = match val("--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format '{other}'\n{}", usage())),
                }
            }
            "--max-budget" => {
                let v = val("--max-budget")?;
                cli.opts.max_budget = Some(parse_duration_arg(&v).ok_or_else(|| {
                    format!("cannot parse duration '{v}' (try '90s', '2 hours')")
                })?);
            }
            "--backoff-base" => {
                let v = val("--backoff-base")?;
                base = parse_duration_arg(&v)
                    .ok_or_else(|| format!("cannot parse duration '{v}' (try '500ms', '1s')"))?;
            }
            "--backoff-cap" => {
                let v = val("--backoff-cap")?;
                cap = parse_duration_arg(&v)
                    .ok_or_else(|| format!("cannot parse duration '{v}' (try '4s', '1h')"))?;
            }
            "--workflow" => cli.workflow = true,
            "--define" => cli.opts.defines.push(val("--define")?),
            "--allow" => cli.opts.allow.push(val("--allow")?),
            "--report" => cli.report = Some(val("--report")?),
            "--rules" => {
                println!("{:<28} {:<8} {:<6} summary", "id", "severity", "paper");
                for r in RULES {
                    println!(
                        "{:<28} {:<8} {:<6} {}",
                        r.id, r.severity, r.paper, r.summary
                    );
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            f if f.starts_with('-') => return Err(format!("unknown flag '{f}'\n{}", usage())),
            f => cli.files.push(f.to_string()),
        }
    }
    if cli.files.is_empty() {
        return Err(usage());
    }
    cli.opts.policy = BackoffPolicy::exponential(base, cap);
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ftshlint: {e}");
            return ExitCode::from(2);
        }
    };

    if cli.workflow {
        return run_workflow(&cli);
    }

    let mut entries: Vec<(String, String, Report)> = Vec::new();
    let mut findings = 0usize;
    for file in &cli.files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ftshlint: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = match lint(&src, &cli.opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ftshlint: {file}: {}", e.render(&src));
                return ExitCode::from(2);
            }
        };
        for d in &report.diagnostics {
            match cli.format {
                Format::Human => println!("{}\n", d.render(file, &src)),
                Format::Json => println!("{}", d.to_json(file, &src)),
            }
        }
        findings += report.diagnostics.len();
        entries.push((file.clone(), src, report));
    }

    if cli.format == Format::Human {
        let suppressed: usize = entries.iter().map(|(_, _, r)| r.suppressed).sum();
        eprintln!(
            "ftshlint: {} script(s), {} finding(s), {} suppressed",
            entries.len(),
            findings,
            suppressed
        );
    }

    if let Some(path) = &cli.report {
        if let Err(e) = std::fs::write(path, markdown_report(&entries)) {
            eprintln!("ftshlint: cannot write report {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if findings > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `--workflow`: the scripts are one coordinated workload. Each file
/// becomes a job whose declared inputs are exactly its own fetches —
/// so the join judges producibility (keys nobody publishes, runtime
/// key cycles, jobs that can never complete), not declaration
/// hygiene. Envelopes are judged under the `--backoff-base` /
/// `--backoff-cap` policy, over the full-scale coord window.
fn run_workflow(cli: &Cli) -> ExitCode {
    let mut jobs = Vec::new();
    for (i, file) in cli.files.iter().enumerate() {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ftshlint: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let name = std::path::Path::new(file)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(file.as_str())
            .to_string();
        // Parse errors resurface as `job-parse-error` inside check().
        let effects = ftsh::parse(&src)
            .map(|script| ftshlint::keyflow::key_effects(&script, &[]))
            .unwrap_or_default();
        jobs.push(WorkflowJob {
            name,
            client: i,
            source: src,
            env: Vec::new(),
            declared_inputs: effects.consumes.iter().cloned().collect(),
            declared_outputs: effects.produces.iter().map(|p| p.key.clone()).collect(),
            local_work: Dur::ZERO,
            not_before: Dur::ZERO,
        });
    }
    let spec = WorkflowSpec {
        jobs,
        external: Vec::new(),
    };
    let report = check_with(&spec, None, COORD_WINDOW, &cli.opts.policy);
    for f in &report.findings {
        println!("{f}");
    }
    eprintln!("ftshlint: workflow verdict: {}", report.verdict);
    if let Some(path) = &cli.report {
        if let Err(e) = std::fs::write(path, report.markdown("workflow")) {
            eprintln!("ftshlint: cannot write report {path}: {e}");
            return ExitCode::from(2);
        }
    }
    match report.verdict {
        Verdict::Clean => ExitCode::SUCCESS,
        Verdict::Advisory | Verdict::Doomed => ExitCode::from(1),
    }
}
