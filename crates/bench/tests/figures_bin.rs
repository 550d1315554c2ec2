//! Smoke test of the `figures` binary in quick mode. Every run that
//! writes figure data writes it under a scratch directory: the tracked
//! `results/` holds full-scale, seed-2003 artifacts a test must not
//! overwrite.

use std::path::PathBuf;
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
