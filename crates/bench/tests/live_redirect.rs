//! The `->>` append and `->&` stderr-merge capture forms, verified
//! against the live daemon's `put`/`get` path — real `gridctl`
//! processes over TCP, not shell shims — complementing the VM-vs-real
//! conformance corpus (scripts 14 and 15).

use gridd::GriddConfig;
use procman::RealOptions;
use std::time::Duration;

/// The daemon the redirection scripts talk to: instant service, no
/// faults — this test is about the capture plumbing, not contention.
fn calm_config() -> GriddConfig {
    GriddConfig {
        service: Duration::from_millis(1),
        ..GriddConfig::default()
    }
}

#[test]
fn append_and_stderr_merge_capture_the_live_put_path() {
    let Some(gridctl) = egbench::live::find_sibling("gridctl") else {
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
