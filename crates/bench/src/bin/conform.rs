//! `conform` — run the sim ↔ real differential conformance corpus.
//!
//! ```text
//! conform [--corpus DIR] [--report PATH] [--sample-plan PATH]
//! ```
//!
//! Every script in the corpus runs through the 3-way matrix — the
//! tree-walking oracle, `ftsh::Vm`, and the real-process `procman`
//! driver — under the same fault plan, and every pair of
//! outcomes is diffed (see `egbench::conformance`). Writes a markdown
//! divergence report
//! (default `results/conformance.md`) and a sample `PLAN.json`
//! (default `results/PLAN.sample.json`) demonstrating the fault-plan
//! schema `figures --faults` consumes — both uploaded as CI artifacts
//! next to `BENCH_engine.json`.
//!
//! Exit status: 0 conformant, 1 divergences found, 2 harness error.

use egbench::conformance::{corpus_dir, report, run_corpus};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut corpus = corpus_dir();
    let mut report_path = egbench::results_dir().join("conformance.md");
    let mut plan_path = egbench::results_dir().join("PLAN.sample.json");

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut take = |name: &str| -> Option<PathBuf> {
            let v = argv.next();
            if v.is_none() {
                eprintln!("{name} needs a path");
            }
            v.map(PathBuf::from)
        };
        match arg.as_str() {
            "--corpus" => match take("--corpus") {
                Some(p) => corpus = p,
                None => return ExitCode::from(2),
            },
            "--report" => match take("--report") {
                Some(p) => report_path = p,
                None => return ExitCode::from(2),
            },
            "--sample-plan" => match take("--sample-plan") {
                Some(p) => plan_path = p,
                None => return ExitCode::from(2),
            },
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: conform [--corpus DIR] [--report PATH] [--sample-plan PATH]");
                return ExitCode::from(2);
            }
        }
    }

    let verdicts = match run_corpus(&corpus) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("conform: {e}");
            return ExitCode::from(2);
        }
    };

    for v in &verdicts {
        let mark = if v.ok() { "ok " } else { "DIVERGED" };
        println!("{mark:8} {}", v.name);
        for d in &v.divergences {
            println!("         - {d}");
        }
    }
    let diverged = verdicts.iter().filter(|v| !v.ok()).count();
    println!(
        "{} scripts, {} conformant, {} diverged",
        verdicts.len(),
        verdicts.len() - diverged,
        diverged
    );

    for (path, text) in [
        (&report_path, report(&verdicts)),
        (&plan_path, egbench::sample_plan().to_json()),
    ] {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("conform: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }

    if diverged > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
