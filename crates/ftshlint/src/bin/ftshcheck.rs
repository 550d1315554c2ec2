//! `ftshcheck` — whole-workflow static checking from the command line.
//!
//! ```text
//! ftshcheck [workload]... [options]
//!
//! workloads (default: all):
//!   dag         the DAG workflow (diamond spec unless --spec is given)
//!   allreduce   the all-reduce collective
//!   fig8        what `figures fig8` runs at full scale: the all-reduce
//!               under the figure's kill-and-restart plan
//!   fig9        what `figures fig9` runs at full scale: the diamond
//!               DAG under the figure's ENOSPC-window-plus-merge-kill
//!               plan
//!   all         every workload above
//!   <x.ftsh>... loose scripts, each checked standalone: it must
//!               parse, be able to complete, and its key summary and
//!               envelope are reported (its fetches are assumed
//!               staged — cross-script joins are the workloads' job)
//!
//! options:
//!   --discipline ethernet|aloha|fixed|all   (default all)
//!   --spec <file.json>     custom DagSpec for the dag workload
//!   --plan <file.json>     fault plan: appended to fig8's and fig9's
//!                          own injections, as `figures --faults` does;
//!                          the whole plan of every other workload
//!   --md <path.md>         also write the markdown report
//!
//! Exit status: 0 every workload clean, 1 worst verdict advisory,
//! 2 at least one workload doomed, 3 usage or I/O error.
//! ```
//!
//! A workload is checked with the values its simulated run uses —
//! `AllReduceParams::default()` / `DagParams::default()`, and for fig8
//! and fig9 the rounds, window and plan of `fig8_workload` /
//! `fig9_workload` — under the backoff the run installs, over the
//! figure's window or `gridworld::figures::COORD_WINDOW`.

use ftshlint::check::{check_with, CheckReport, Verdict, WorkflowJob, WorkflowSpec};
use gridworld::coord::{AllReduceParams, DagParams, DagSpec};
use gridworld::figures::{fig8_workload, fig9_workload, Scale, COORD_WINDOW};
use retry::{BackoffPolicy, Discipline, Dur};
use simgrid::faults::FaultPlan;
use std::process::ExitCode;

/// The built-in workloads, in the order `all` checks them.
const WORKLOADS: [&str; 4] = ["dag", "allreduce", "fig8", "fig9"];

struct Cli {
    /// Each workload once, in the order first named.
    workloads: Vec<&'static str>,
    scripts: Vec<String>,
    disciplines: Vec<Discipline>,
    spec: Option<String>,
    plan: Option<String>,
    md: Option<String>,
}

fn usage() -> String {
    "usage: ftshcheck [dag|allreduce|fig8|fig9|all|<x.ftsh>]... \
     [--discipline ethernet|aloha|fixed|all] [--spec <dag.json>] [--plan <plan.json>] \
     [--md <path.md>]"
        .to_string()
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        scripts: Vec::new(),
        disciplines: Discipline::ALL.to_vec(),
        spec: None,
        plan: None,
        md: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
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
            "--md" => cli.md = Some(val("--md")?),
            "--help" | "-h" => return Err(usage()),
            "all" => cli.workloads.extend(WORKLOADS),
            f if std::path::Path::new(f)
                .extension()
                .is_some_and(|ext| ext.eq_ignore_ascii_case("ftsh")) =>
            {
                cli.scripts.push(f.to_string());
            }
            other => match WORKLOADS.iter().find(|&&w| w == other) {
                Some(&w) => cli.workloads.push(w),
                None => return Err(format!("unknown argument '{other}'\n{}", usage())),
            },
        }
    }
    if cli.workloads.is_empty() && cli.scripts.is_empty() {
        cli.workloads.extend(WORKLOADS);
    }
    let mut seen = Vec::new();
    cli.workloads.retain(|w| {
        let first = !seen.contains(w);
        seen.push(*w);
        first
    });
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

/// One built-in workload as its run installs it: the workflow, the
/// plan it suffers, how far it runs, and its VMs' backoff.
struct Workload {
    spec: WorkflowSpec,
    plan: Option<FaultPlan>,
    horizon: Dur,
    policy: BackoffPolicy,
}

/// `name` (one of [`WORKLOADS`]) under `d`, built the way `fig8_run` /
/// `fig9_run` build their params. fig8 and fig9 append `custom` to the
/// figure's own injections; `dag` (on `dag`, the `--spec` workflow)
/// and `allreduce` run the same params with `custom` as their whole
/// plan. The presets' seed is immaterial: the checker draws nothing
/// from a plan's RNG.
fn workload(name: &str, d: Discipline, dag: &DagSpec, custom: Option<&FaultPlan>) -> Workload {
    match name {
        "allreduce" | "fig8" => {
            let mut p = AllReduceParams {
                discipline: d,
                ..AllReduceParams::default()
            };
            let (horizon, plan) = if name == "fig8" {
                let (rounds, window, plan) = fig8_workload(Scale::Full, 1, custom);
                p.rounds = rounds;
                (window, Some(plan))
            } else {
                (COORD_WINDOW, custom.cloned())
            };
            Workload {
                spec: WorkflowSpec::allreduce(
                    d,
                    p.n_ranks,
                    p.rounds,
                    p.round_timeout,
                    p.fetch_timeout,
                    p.compute_base,
                ),
                plan,
                horizon,
                policy: d.backoff_within(p.backoff_base, p.backoff_cap),
            }
        }
        _ => {
            let mut p = DagParams {
                discipline: d,
                ..DagParams::default()
            };
            let (horizon, plan) = if name == "fig9" {
                let (window, plan) = fig9_workload(Scale::Full, 1, custom);
                (window, Some(plan))
            } else {
                p.spec = dag.clone();
                (COORD_WINDOW, custom.cloned())
            };
            Workload {
                spec: WorkflowSpec::dag(&p.spec, d, p.dep_timeout, p.fetch_timeout),
                plan,
                horizon,
                policy: d.backoff_within(p.backoff_base, p.backoff_cap),
            }
        }
    }
}

/// One checked (workload, discipline) pair.
struct Checked {
    title: String,
    report: CheckReport,
}

fn run(cli: &Cli) -> Result<Vec<Checked>, String> {
    let custom = load_plan(cli)?;
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
        // `ftsh` runs a script under the VM's default, the paper's policy.
        let report = check_with(
            &spec,
            custom.as_ref(),
            COORD_WINDOW,
            &BackoffPolicy::ethernet(),
        );
        out.push(Checked {
            title: name,
            report,
        });
    }
    let dag = load_dag(cli)?;
    for &name in &cli.workloads {
        for &d in &cli.disciplines {
            let w = workload(name, d, &dag, custom.as_ref());
            out.push(Checked {
                title: format!("{name} / {d:?}"),
                report: check_with(&w.spec, w.plan.as_ref(), w.horizon, &w.policy),
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

#[cfg(test)]
mod tests {
    use super::*;
    use gridworld::coord::{allreduce_text, coord_vm, dag_job_script_text};
    use retry::Time;
    use simgrid::faults::{FaultKind, FaultSpec};

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| (*s).to_string()).collect()
    }

    /// Rank 2 killed 4 s in, never to return.
    fn kill_rank_2() -> FaultPlan {
        FaultPlan::new(9).with(FaultSpec::once(
            Time::ZERO + Dur::from_secs(4),
            FaultKind::ClientKill {
                client: 2,
                restart: None,
            },
        ))
    }

    #[test]
    fn a_workload_named_twice_is_checked_once_where_first_named() {
        let cli = parse_cli(&args(&["fig8", "all", "fig9", "dag"])).unwrap();
        assert_eq!(cli.workloads, ["fig8", "dag", "allreduce", "fig9"]);
        assert_eq!(parse_cli(&args(&[])).unwrap().workloads, WORKLOADS);
    }

    /// fig8 and fig9 check the figure's plan with `--plan` appended,
    /// over the figure's window; `dag` and `allreduce` take `--plan`
    /// whole, over the full-scale coord window.
    #[test]
    fn figure_workloads_append_the_plan_the_others_take_it_whole() {
        let custom = kill_rank_2();
        let diamond = DagSpec::diamond();
        for d in Discipline::ALL {
            let (_, window, plan) = fig8_workload(Scale::Full, 2003, Some(&custom));
            let w = workload("fig8", d, &diamond, Some(&custom));
            assert_eq!(w.plan.as_ref().map(|p| &p.specs), Some(&plan.specs), "{d}");
            assert_eq!(w.horizon, window);
            let (window, plan) = fig9_workload(Scale::Full, 2003, Some(&custom));
            let w = workload("fig9", d, &diamond, Some(&custom));
            assert_eq!(w.plan.as_ref().map(|p| &p.specs), Some(&plan.specs), "{d}");
            assert_eq!(w.horizon, window);
            for name in ["dag", "allreduce"] {
                let w = workload(name, d, &diamond, Some(&custom));
                assert_eq!(w.plan.as_ref(), Some(&custom), "{name}/{d}");
                assert_eq!(w.horizon, COORD_WINDOW);
                assert_eq!(workload(name, d, &diamond, None).plan, None);
            }
        }
    }

    /// Every job runs the text `fig8_run` / `fig9_run` hand the
    /// simulator, under the backoff its VMs install.
    #[test]
    fn figure_workloads_check_the_text_and_policy_the_figures_run() {
        let script = ftsh::parse("x\n").unwrap();
        let installed = |d: Discipline, base, cap| {
            coord_vm(&script, d, ftsh::Env::new(), 1, base, cap).default_backoff()
        };
        for d in Discipline::ALL {
            let (rounds, _, _) = fig8_workload(Scale::Full, 2003, None);
            let p = AllReduceParams {
                discipline: d,
                rounds,
                ..AllReduceParams::default()
            };
            let w = workload("fig8", d, &DagSpec::diamond(), None);
            let text = allreduce_text(p.discipline, p.n_ranks, p.round_timeout, p.fetch_timeout);
            assert_eq!(w.spec.jobs.len(), p.n_ranks * rounds as usize);
            assert!(w.spec.jobs.iter().all(|job| job.source == text), "{d}");
            assert_eq!(w.policy, installed(d, p.backoff_base, p.backoff_cap));

            let p = DagParams {
                discipline: d,
                ..DagParams::default()
            };
            let w = workload("fig9", d, &DagSpec::diamond(), None);
            assert_eq!(w.spec.jobs.len(), p.spec.jobs.len());
            for (job, spec) in w.spec.jobs.iter().zip(&p.spec.jobs) {
                let text = dag_job_script_text(p.discipline, spec, p.dep_timeout, p.fetch_timeout);
                assert_eq!(job.source, text, "{}/{d}", spec.name);
            }
            assert_eq!(w.policy, installed(d, p.backoff_base, p.backoff_cap));
        }
    }
}
