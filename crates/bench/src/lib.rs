//! Shared plumbing for the figure harness: Markdown-table and JSON
//! emission of [`simgrid::SeriesSet`] results.

#![warn(missing_docs)]

pub mod conformance;
pub mod live;
pub mod swarm;

use retry::{Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
use simgrid::SeriesSet;
use std::path::{Path, PathBuf};

/// The workspace this process runs in: the nearest ancestor of the
/// current directory whose `Cargo.toml` declares `[workspace]`. Its
/// `results/` and `BENCH_engine.json` are where `figures` and `conform`
/// write by default; `None` outside any workspace.
pub fn workspace_root() -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    cwd.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// The sample fault plan: an aggressive crash schedule (a schedd kill
/// every simulated minute from t=30 s, 15 s down each) plus a lossy
/// `condor_submit` channel. `conform` publishes it as
/// `results/PLAN.sample.json`, EXPERIMENTS.md's stress table arms it on
/// fig2 and fig3, and `figures claims` judges that pair under it.
pub fn sample_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(7);
    plan.specs.push(FaultSpec::repeating(
        Time::from_secs(30),
        Dur::from_secs(60),
        10,
        FaultKind::ScheddKill {
            downtime: Some(Dur::from_secs(15)),
        },
    ));
    plan.specs.push(FaultSpec::once(
        Time::from_secs(120),
        FaultKind::MsgLoss {
            channel: "condor_submit".into(),
            probability: 0.5,
            duration: Dur::from_secs(30),
        },
    ));
    plan
}

/// Print a figure as its Markdown table and persist it under `dir` as
/// `NAME.json` and that table, `NAME.md`. Returns the JSON path.
pub fn emit(dir: &Path, name: &str, set: &SeriesSet) -> std::io::Result<PathBuf> {
    let table = set.to_table();
    println!("{table}");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, set.to_json_pretty())?;
    std::fs::write(dir.join(format!("{name}.md")), table)?;
    Ok(path)
}

/// The steady-state interpreter workload `figures --stats` records: a
/// control-and-variable heavy script (assignments, string conds,
/// forany, all over interpolated words) under a bounded retry loop of
/// `attempts`, whose one command per attempt fails so the loop spins
/// the interpreter rather than the (absent) plant.
pub fn vm_steady_source(attempts: u32) -> String {
    let body = "  a=${b}\n  if ${a} .eql. base\n    c=${a}${b}\n  else\n    c=err\n  end\n  forany v in ${a} ${c}\n    d=${v}\n  end\n  e=${d}\n"
        .repeat(64);
    format!("b=base\ntry {attempts} times every 1 ms\n{body}  failure\nend\n")
}

/// The call-path workload behind `figures --stats`'
/// `calls_allocs_per_call`: `attempts` iterations of
/// [`VM_CALLS_PER_ATTEMPT`] function calls and nothing else. `step`
/// takes two arguments, reads `${*}` (so the join is paid) and calls
/// `leaf` with its own arguments swapped, which shadows and restores
/// them; neither body runs a command or builds a string, so every
/// allocation counted is the call path's own.
pub fn vm_calls_source(attempts: u32) -> String {
    let calls = "  step ${a} x\n".repeat(VM_CALLS_PER_ATTEMPT as usize / 2);
    format!(
        "function leaf\n  b=${{1}}\nend\n\
         function step\n  leaf ${{2}} ${{1}}\n  c=${{*}}\nend\n\
         a=seed\ntry {attempts} times every 1 ms\n{calls}  failure\nend\n"
    )
}

/// Function calls one attempt of [`vm_calls_source`] makes (`step` and
/// the `leaf` inside it each count).
pub const VM_CALLS_PER_ATTEMPT: u64 = 16;

/// The `forall`-in-a-retry-loop workload behind `figures --stats`'
/// `forall_iter_ratio_800_over_50`: `iters` iterations of two
/// four-branch `forall`s, the `try … forall … end` shape of the
/// paper's §4 scripts. Every branch task retires before the next
/// iteration starts, so the cost of one iteration must not depend on
/// how many came before.
pub fn vm_forall_loop_source(iters: u32) -> String {
    let body =
        "  forall part in p0 p1 p2 p3\n    probe ${part} -> got\n    work ${part} ${got}\n  end\n"
            .repeat(2);
    format!("try {iters} times every 1 ms\n{body}  failure\nend\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `figure_baselines` judges the crash-plan claim on the tracked
    /// file, so it must be this plan byte for byte.
    #[test]
    fn sample_plan_is_the_tracked_file() {
        let tracked = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/PLAN.sample.json"
        );
        let tracked = std::fs::read_to_string(tracked).unwrap();
        assert_eq!(tracked, sample_plan().to_json());
    }

    /// Tests run in the crate's directory, inside this workspace.
    #[test]
    fn the_workspace_is_found_from_the_current_directory() {
        let root = workspace_root().expect("a workspace above the crate");
        assert!(root.join("results/PLAN.sample.json").is_file());
        assert!(Path::new(env!("CARGO_MANIFEST_DIR")).starts_with(&root));
    }
}
