//! Shared plumbing for the figure harness: table printing and JSON
//! emission of [`simgrid::SeriesSet`] results.

#![warn(missing_docs)]

pub mod conformance;
pub mod coord_live;
pub mod live;
pub mod swarm;

use simgrid::SeriesSet;
use std::path::{Path, PathBuf};

/// The workspace root (where `BENCH_engine.json` and `results/` land).
pub fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// Where figure data lands (`results/` at the workspace root).
pub fn results_dir() -> PathBuf {
    workspace_root().join("results")
}

/// Print a figure as an aligned table and persist it as JSON and CSV.
/// Returns the JSON path.
pub fn emit(name: &str, set: &SeriesSet) -> std::io::Result<PathBuf> {
    println!("{}", set.to_table());
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, set.to_json_pretty())?;
    std::fs::write(dir.join(format!("{name}.csv")), set.to_csv())?;
    Ok(path)
}

/// The steady-state interpreter workload `figures --stats` records and
/// the `engine/vm_steady` criterion row tracks: a control-and-variable
/// heavy script (assignments, string conds, forany, all over
/// interpolated words) under a bounded retry loop of `attempts`, whose
/// one command per attempt fails so the loop spins the interpreter
/// rather than the (absent) plant.
pub fn vm_steady_source(attempts: u32) -> String {
    let body = "  a=${b}\n  if ${a} .eql. base\n    c=${a}${b}\n  else\n    c=err\n  end\n  forany v in ${a} ${c}\n    d=${v}\n  end\n  e=${d}\n"
        .repeat(64);
    format!("b=base\ntry {attempts} times every 1 ms\n{body}  failure\nend\n")
}

/// Drive one VM through a [`vm_steady_source`] script to completion
/// with instant virtual completions; returns the tick count.
pub fn vm_steady_run(script: &ftsh::Script) -> u64 {
    use ftsh::vm::{CmdResult, Effect, Vm, VmStatus};
    let mut vm = Vm::with_seed(script, 7);
    vm.set_log_detail(false);
    let mut now = retry::Time::ZERO;
    let mut ticks = 0u64;
    let mut effects = Vec::new();
    loop {
        ticks += 1;
        let status = vm.tick_into(now, &mut effects);
        for e in effects.drain(..) {
            if let Effect::Start { token, .. } = e {
                vm.complete(token, CmdResult::fail());
            }
        }
        match status {
            VmStatus::Done { .. } => return ticks,
            VmStatus::Running { next_wake } => {
                if let Some(w) = next_wake {
                    now = now.max(w);
                }
            }
        }
    }
}

/// A compact textual summary of a figure for EXPERIMENTS.md-style
/// reporting: last value of each series.
pub fn summarize(set: &SeriesSet) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = write!(out, "{}:", set.title);
    for s in &set.series {
        let _ = write!(out, " {}={:.1}", s.name, s.last().unwrap_or(f64::NAN));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgrid::Series;

    #[test]
    fn summarize_lists_series() {
        let mut set = SeriesSet::new("T", "x", "y");
        let s = set.add(Series::new("A"));
        s.push_xy(1.0, 2.0);
        assert_eq!(summarize(&set), "T: A=2.0");
    }

    #[test]
    fn results_dir_is_under_workspace() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }
}
