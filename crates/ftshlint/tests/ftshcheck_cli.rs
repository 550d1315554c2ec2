//! `ftshcheck` end to end: a figure preset checks clean, and a plan
//! appended to it that kills a rank for good is proven doomed.

use std::process::Command;

fn ftshcheck(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftshcheck"))
        .args(args)
        .output()
        .unwrap();
    (out.status.code(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn fig8_is_clean_until_a_rank_dies_for_good() {
    let (code, stdout) = ftshcheck(&["fig8"]);
    assert_eq!(code, Some(0), "{stdout}");

    let plan = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("kill-rank-2.json");
    std::fs::write(
        &plan,
        r#"{"seed": 1, "specs": [{"kind": "client-kill", "at_us": 4000000, "client": 2, "restart_us": null}]}"#,
    )
    .unwrap();
    let (code, stdout) = ftshcheck(&[
        "fig8",
        "--discipline",
        "ethernet",
        "--plan",
        plan.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("unsatisfiable-barrier") && l.contains("[key `r2 1`]")),
        "{stdout}"
    );
}

#[test]
fn help_is_not_a_usage_error() {
    for flag in ["--help", "-h"] {
        let (code, stdout) = ftshcheck(&[flag]);
        assert_eq!(code, Some(0), "{flag}: {stdout}");
        assert!(stdout.starts_with("usage: ftshcheck"), "{flag}: {stdout}");
    }
    let (code, stdout) = ftshcheck(&["--bogus"]);
    assert_eq!(code, Some(3), "{stdout}");
    assert!(
        stdout.is_empty(),
        "the usage error goes to stderr: {stdout}"
    );
}
