//! `ftshcheck` — whole-workflow static checking from the command line.
//!
//! ```text
//! ftshcheck [workload]... [options]
//!
//! workloads (default: all):
//!   dag         the DAG workflow (diamond spec unless --spec is given)
//!   allreduce   the all-reduce collective
//!   fig8        the fig8 preset: all-reduce under the built-in
//!               kill-and-restart plan
//!   fig9        the fig9 preset: diamond DAG under the built-in
//!               ENOSPC-window-plus-merge-kill plan
//!   all         every workload above
//!   <x.ftsh>... loose scripts, each checked standalone: it must
//!               parse, be able to complete, and its key summary and
//!               envelope are reported (its fetches are assumed
//!               staged — cross-script joins are the workloads' job)
//!
//! options:
//!   --discipline ethernet|aloha|fixed|all   (default all)
//!   --spec <file.json>     custom DagSpec for the dag workload
//!   --plan <file.json>     fault plan (replaces any preset plan)
//!   --ranks <n>            all-reduce ranks (default 4)
//!   --rounds <n>           all-reduce rounds (default 3)
//!   --dep-timeout <dur>    DAG dependency budget (default 600s)
//!   --round-timeout <dur>  all-reduce round budget (default 600s)
//!   --fetch-timeout <dur>  inner fetch budget (default 60s)
//!   --compute <dur>        all-reduce per-round compute (default 2s)
//!   --horizon <dur>        blackout-analysis horizon (default 600s)
//!   --md <path.md>         also write the markdown report
//!
//! Exit status: 0 every workload clean, 1 worst verdict advisory,
//! 2 at least one workload doomed, 3 usage or I/O error.
//! ```

use ftshlint::check::{check, CheckReport, Verdict, WorkflowJob, WorkflowSpec};
use gridworld::coord::DagSpec;
use gridworld::figures::{fig8_kill_plan, fig9_fault_plan};
use retry::{parse_duration_arg, Discipline, Dur};
use simgrid::faults::FaultPlan;
use std::process::ExitCode;

struct Cli {
    workloads: Vec<String>,
    scripts: Vec<String>,
    disciplines: Vec<Discipline>,
    spec: Option<String>,
    plan: Option<String>,
    ranks: usize,
    rounds: u32,
    dep_timeout: Dur,
    round_timeout: Dur,
    fetch_timeout: Dur,
    compute: Dur,
    horizon: Dur,
    md: Option<String>,
}

fn usage() -> String {
    "usage: ftshcheck [dag|allreduce|fig8|fig9|all]... \
     [--discipline ethernet|aloha|fixed|all] [--spec <dag.json>] [--plan <plan.json>] \
     [--ranks <n>] [--rounds <n>] [--dep-timeout <dur>] [--round-timeout <dur>] \
     [--fetch-timeout <dur>] [--compute <dur>] [--horizon <dur>] [--md <path.md>]"
        .to_string()
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        scripts: Vec::new(),
        disciplines: Discipline::ALL.to_vec(),
        spec: None,
        plan: None,
        ranks: 4,
        rounds: 3,
        dep_timeout: Dur::from_secs(600),
        round_timeout: Dur::from_secs(600),
        fetch_timeout: Dur::from_secs(60),
        compute: Dur::from_secs(2),
        horizon: Dur::from_secs(600),
        md: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let mut dur = |flag: &str| {
            let v = val(flag)?;
            parse_duration_arg(&v)
                .ok_or_else(|| format!("cannot parse duration '{v}' (try '90s', '10m')"))
        };
        match a.as_str() {
            "--discipline" => {
                cli.disciplines = match val("--discipline")?.as_str() {
                    "ethernet" => vec![Discipline::Ethernet],
                    "aloha" => vec![Discipline::Aloha],
                    "fixed" => vec![Discipline::Fixed],
                    "all" => Discipline::ALL.to_vec(),
                    other => return Err(format!("unknown discipline '{other}'\n{}", usage())),
                }
            }
            "--spec" => cli.spec = Some(val("--spec")?),
            "--plan" => cli.plan = Some(val("--plan")?),
            "--ranks" => {
                let v = val("--ranks")?;
                cli.ranks = v.parse().map_err(|_| format!("bad rank count '{v}'"))?;
            }
            "--rounds" => {
                let v = val("--rounds")?;
                cli.rounds = v.parse().map_err(|_| format!("bad round count '{v}'"))?;
            }
            "--dep-timeout" => cli.dep_timeout = dur("--dep-timeout")?,
            "--round-timeout" => cli.round_timeout = dur("--round-timeout")?,
            "--fetch-timeout" => cli.fetch_timeout = dur("--fetch-timeout")?,
            "--compute" => cli.compute = dur("--compute")?,
            "--horizon" => cli.horizon = dur("--horizon")?,
            "--md" => cli.md = Some(val("--md")?),
            "--help" | "-h" => return Err(usage()),
            w @ ("dag" | "allreduce" | "fig8" | "fig9") => cli.workloads.push(w.to_string()),
            "all" => cli
                .workloads
                .extend(["dag", "allreduce", "fig8", "fig9"].map(String::from)),
            f if std::path::Path::new(f)
                .extension()
                .is_some_and(|ext| ext.eq_ignore_ascii_case("ftsh")) =>
            {
                cli.scripts.push(f.to_string());
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if cli.workloads.is_empty() && cli.scripts.is_empty() {
        cli.workloads
            .extend(["dag", "allreduce", "fig8", "fig9"].map(String::from));
    }
    cli.workloads.dedup();
    Ok(cli)
}

fn load_plan(cli: &Cli) -> Result<Option<FaultPlan>, String> {
    let Some(path) = &cli.plan else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FaultPlan::parse_json(&text)
        .map(Some)
        .map_err(|e| format!("{path}: {e}"))
}

fn load_dag(cli: &Cli) -> Result<DagSpec, String> {
    match &cli.spec {
        None => Ok(DagSpec::diamond()),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = DagSpec::parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
            spec.validate().map_err(|e| format!("{path}: {e}"))?;
            Ok(spec)
        }
    }
}

/// One checked (workload, discipline) pair.
struct Checked {
    title: String,
    report: CheckReport,
}

fn run(cli: &Cli) -> Result<Vec<Checked>, String> {
    let override_plan = load_plan(cli)?;
    let mut out = Vec::new();
    for path in &cli.scripts {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path.as_str())
            .to_string();
        // A loose script's fetches are assumed staged: standalone it
        // must only parse and be able to complete.
        let consumes: Vec<String> = ftsh::parse(&src)
            .map(|s| {
                ftshlint::keyflow::key_effects(&s, &[])
                    .consumes
                    .into_iter()
                    .collect()
            })
            .unwrap_or_default();
        let spec = WorkflowSpec {
            jobs: vec![WorkflowJob {
                name: name.clone(),
                client: 0,
                source: src,
                env: Vec::new(),
                declared_inputs: consumes.clone(),
                declared_outputs: Vec::new(),
                local_work: Dur::ZERO,
                not_before: Dur::ZERO,
            }],
            external: consumes,
        };
        let report = check(&spec, override_plan.as_ref(), cli.horizon);
        out.push(Checked {
            title: name,
            report,
        });
    }
    for workload in &cli.workloads {
        for &discipline in &cli.disciplines {
            let (spec, plan) = match workload.as_str() {
                "dag" => (
                    WorkflowSpec::dag(
                        &load_dag(cli)?,
                        discipline,
                        cli.dep_timeout,
                        cli.fetch_timeout,
                    ),
                    override_plan.clone(),
                ),
                "allreduce" => (
                    WorkflowSpec::allreduce(
                        discipline,
                        cli.ranks,
                        cli.rounds,
                        cli.round_timeout,
                        cli.fetch_timeout,
                        cli.compute,
                    ),
                    override_plan.clone(),
                ),
                "fig8" => (
                    WorkflowSpec::allreduce(
                        discipline,
                        cli.ranks,
                        cli.rounds,
                        cli.round_timeout,
                        cli.fetch_timeout,
                        cli.compute,
                    ),
                    Some(override_plan.clone().unwrap_or_else(|| fig8_kill_plan(1))),
                ),
                "fig9" => (
                    WorkflowSpec::dag(
                        &DagSpec::diamond(),
                        discipline,
                        cli.dep_timeout,
                        cli.fetch_timeout,
                    ),
                    Some(override_plan.clone().unwrap_or_else(|| fig9_fault_plan(1))),
                ),
                other => return Err(format!("unknown workload '{other}'")),
            };
            let report = check(&spec, plan.as_ref(), cli.horizon);
            out.push(Checked {
                title: format!("{workload} / {discipline:?}"),
                report,
            });
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(3);
        }
    };
    let checked = match run(&cli) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("ftshcheck: {msg}");
            return ExitCode::from(3);
        }
    };
    let mut md = String::from("# workflow check\n\n");
    let mut worst = Verdict::Clean;
    for c in &checked {
        println!("{}: {}", c.title, c.report.verdict);
        for f in &c.report.findings {
            println!("  {f}");
        }
        md.push_str(&c.report.markdown(&c.title));
        md.push('\n');
        worst = match (worst, c.report.verdict) {
            (_, Verdict::Doomed) | (Verdict::Doomed, _) => Verdict::Doomed,
            (_, Verdict::Advisory) | (Verdict::Advisory, _) => Verdict::Advisory,
            _ => Verdict::Clean,
        };
    }
    if let Some(path) = &cli.md {
        if let Err(e) = std::fs::write(path, &md) {
            eprintln!("ftshcheck: cannot write {path}: {e}");
            return ExitCode::from(3);
        }
    }
    match worst {
        Verdict::Clean => ExitCode::SUCCESS,
        Verdict::Advisory => ExitCode::from(1),
        Verdict::Doomed => ExitCode::from(2),
    }
}
