//! The `->>` append and `->&` stderr-merge capture forms, verified
//! against the live daemon's `put`/`get` path — real `gridctl`
//! processes over TCP, not shell shims — complementing the VM-vs-real
//! conformance corpus (scripts 14 and 15).

use gridd::GriddConfig;
use procman::RealOptions;
use std::path::PathBuf;
use std::time::Duration;

/// The daemon the redirection scripts talk to: instant service, no
/// faults — this test is about the capture plumbing, not contention.
fn calm_config() -> GriddConfig {
    GriddConfig {
        service: Duration::from_millis(1),
        ..GriddConfig::default()
    }
}

/// Locate a binary built beside this test's (`gridctl` one directory
/// up from a test binary in `deps/`).
fn find_sibling(name: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    for _ in 0..3 {
        let cand = dir.join(name);
        if cand.is_file() {
            return Some(cand);
        }
        if !dir.pop() {
            break;
        }
    }
    None
}

#[test]
fn append_and_stderr_merge_capture_the_live_put_path() {
    let Some(gridctl) = find_sibling("gridctl") else {
        eprintln!("skipping: gridctl not built (cargo build -p eg-gridd)");
        return;
    };
    let h = gridd::start(calm_config()).expect("daemon starts");
    let addr = h.addr();
    let g = gridctl.display();

    // `->` overwrites; `->>` accumulates the file's contents across
    // repeated gets; `->&` folds gridctl's stderr diagnostic into the
    // capture when the get fails (exit 1 absorbed by the try/catch).
    let text = format!(
        "{g} {addr} 0 put f.txt hello grid -> stored\n\
         {g} {addr} 0 get f.txt -> first\n\
         {g} {addr} 0 get f.txt ->> twice\n\
         {g} {addr} 0 get f.txt ->> twice\n\
         try 1 time\n\
         \x20 {g} {addr} 0 get missing ->& merged\n\
         catch\n\
         \x20 true\n\
         end\n"
    );
    let script = ftsh::parse(&text).expect("script parses");
    let report = procman::run_script(&script, &RealOptions::default());
    assert!(
        report.success,
        "script failed: {:?} {:?}",
        report.summary, report.process_outcomes
    );

    let env = &report.final_env;
    assert_eq!(env.get("stored"), "10 bytes");
    assert_eq!(env.get("first"), "hello grid");
    assert_eq!(env.get("twice"), "hello gridhello grid");
    assert!(
        env.get("merged").contains("gridctl:"),
        "stderr diagnostic should be merged into the capture, got {:?}",
        env.get("merged")
    );
    h.shutdown();
}
