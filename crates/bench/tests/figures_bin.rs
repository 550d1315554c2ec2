//! Smoke test of the `figures` binary in quick mode. Every run that
//! writes figure data writes it under a scratch directory: the tracked
//! `results/` holds full-scale, seed-2003 artifacts a test must not
//! overwrite.

use gridworld::claims::CLAIMS;
use std::path::{Path, PathBuf};
use std::process::Command;

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

/// A fresh directory of this test's own under the build's temp dir.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("figures_bin-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn quick_fig6_emits_table_and_json() {
    let dir = scratch("fig6");
    let out = figures()
        .args(["--quick", "--seed", "7", "--out"])
        .arg(&dir)
        .arg("fig6")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 6"));
    assert!(stdout.contains("Transfers"));
    for file in ["fig6.json", "fig6.csv"] {
        let path = dir.join(file);
        assert!(path.exists(), "wrote {}", path.display());
    }
    let json = std::fs::read_to_string(dir.join("fig6.json")).unwrap();
    assert!(json.contains("Figure 6"), "{json}");
}

#[test]
fn garbage_sweep_threads_warns_on_stderr() {
    let dir = scratch("fig1");
    let out = figures()
        .env("EG_SWEEP_THREADS", "two")
        .args(["--quick", "--seed", "7", "--out"])
        .arg(&dir)
        .arg("fig1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("ignoring EG_SWEEP_THREADS=\"two\""),
        "an unusable override must be called out, got:\n{stderr}"
    );
    assert!(dir.join("fig1.json").exists());
}

/// Every file under `dir` with its bytes, by name.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect();
    files.sort();
    files
}

/// `claims` writes one row per claim under `--out` and nothing under
/// the tracked `results/`. Quick windows are too short for some claims
/// (fig6's 60 s stall needs the full 900 s), so the exit status need
/// only agree with the report's count.
#[test]
fn claims_writes_one_row_per_claim_under_out() {
    let dir = scratch("claims");
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let before = snapshot(&results);
    let out = figures()
        .args(["--quick", "--out"])
        .arg(&dir)
        .arg("claims")
        .output()
        .unwrap();
    let md = std::fs::read_to_string(dir.join("claims.md")).unwrap();
    let n = CLAIMS.len();
    let rows: Vec<&str> = md.lines().filter(|l| l.starts_with("| `")).collect();
    assert_eq!(rows.len(), n, "{md}");
    for (row, claim) in rows.iter().zip(CLAIMS) {
        assert!(row.starts_with(&format!("| `{}` |", claim.name)), "{row}");
    }
    let all_hold = md.contains(&format!("{n} of {n} hold"));
    // Exit 0 when every claim holds, 1 when one fails.
    assert_eq!(out.status.code(), Some(i32::from(!all_hold)), "{md}");
    assert!(dir.join("fig1.json").exists() && dir.join("fig9.json").exists());
    assert!(snapshot(&results) == before, "results/ was left alone");
}

#[test]
fn out_without_a_directory_is_a_usage_error() {
    let st = figures().args(["fig6", "--out"]).status().unwrap();
    assert_eq!(st.code(), Some(2));
}

#[test]
fn unknown_figure_is_an_error() {
    let st = figures().arg("fig99").status().unwrap();
    assert!(!st.success());
}

#[test]
fn out_of_range_fault_plan_is_a_usage_error() {
    let dir = scratch("bad-plan");
    std::fs::create_dir_all(&dir).unwrap();
    let plan = dir.join("PLAN.json");
    std::fs::write(
        &plan,
        r#"{"specs": [{"kind": "msg-loss", "channel": "wget", "probability": 1.5, "duration_us": 1}]}"#,
    )
    .unwrap();
    let out = figures()
        .args(["--quick", "--out"])
        .arg(&dir)
        .arg("--faults")
        .arg(&plan)
        .arg("fig6")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad fault plan") && stderr.contains("\"probability\""),
        "{stderr}"
    );
    assert!(!dir.join("fig6.json").exists(), "no figure from a bad plan");
}

#[test]
fn bad_flag_is_a_usage_error() {
    let st = figures().arg("--frobnicate").status().unwrap();
    assert_eq!(st.code(), Some(2));
}

/// A live mode reads only its own flags: one it would drop (another
/// mode, a figure name, `--trace`), or an arena knob without `--live`,
/// is a usage error instead of being silently ignored. So is a flag
/// beside `claims` that would judge other figures than the claims', or
/// none.
#[test]
fn a_flag_the_chosen_mode_would_drop_is_a_usage_error() {
    let dir = scratch("dropped-flag");
    let trace = dir.join("t.jsonl");
    let trace = trace.to_str().unwrap();
    let plan = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/PLAN.sample.json"
    );
    for args in [
        &["--live", "--coord-live", "--quick"][..],
        &["--coord-live", "--live-clients", "5"],
        &["--min-dispatch", "5", "fig6", "--quick"],
        &["--live", "--quick", "fig2"],
        &["--live", "--quick", "--trace", trace],
        &["--live", "--quick", "claims"],
        &["claims", "--quick", "--faults", plan],
        &["claims", "--quick", "--stats"],
        &["claims", "--quick", "--check-only"],
    ] {
        let out = figures()
            .args(args)
            .arg("--out")
            .arg(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
    }
    assert!(!dir.exists(), "nothing ran");
}

/// fig1 because `--stats` exits non-zero past its allocation budget,
/// which is set for the sweep figures: a quick fig6 allocates its
/// setup over only 155 ticks.
#[test]
fn stats_with_out_writes_its_ledger_there() {
    let dir = scratch("stats");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    let ledger = std::fs::read(&root).unwrap();
    let out = figures()
        .args(["--stats", "--quick", "--out"])
        .arg(&dir)
        .arg("fig1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(dir.join("BENCH_engine.json")).unwrap();
    assert!(written.contains("\"figures\": [\"fig1\"]"), "{written}");
    assert_eq!(
        std::fs::read(&root).unwrap(),
        ledger,
        "the tracked ledger at the root is left alone"
    );
}
