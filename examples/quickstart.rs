//! Quickstart: parse an ftsh script and run it three ways.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! 1. against a toy in-process executor on a virtual clock (instant);
//! 2. against real POSIX processes (`/bin/sh` and friends);
//! 3. inspecting the execution log the shell keeps.

use ethernet_grid::ftsh::{parse, pretty, Vm, VmDriver};
use ethernet_grid::procman::{run_script, RealOptions};

fn main() {
    // The motivating example from §1 of the paper: retry a fetch for
    // up to an hour, trying three hosts for five minutes each.
    let source = "\
try for 1 hour
  forany host in xxx yyy zzz
    try for 5 minutes
      fetch-file ${host} filename
    end
  end
end
";
    let script = parse(source).expect("the paper's script parses");
    println!("canonical form:\n{}", pretty(&script));

    // --- 1. Virtual time + toy executor -----------------------------
    // Here `fetch-file` fails on xxx, succeeds on yyy. Backoff delays
    // cost nothing: the clock is simulated.
    let mut driver = VmDriver::new(Vm::with_seed(&script, 7));
    let outcome = driver.run_to_completion(|spec| {
        println!("  [sim] {}", spec.argv.join(" "));
        if spec.argv.get(1).map(|s| s.as_str()) == Some("yyy") {
            Ok(String::new())
        } else {
            Err("connection refused".into())
        }
    });
    println!(
        "simulated run: {} (virtual time {:.1}s)\n",
        if outcome.success() { "ok" } else { "failed" },
        driver.now().as_secs_f64()
    );

    // --- 2. Real processes ------------------------------------------
    // A script with real commands: capture output into a variable and
    // branch on it, exactly like the paper's carrier-sense fragment.
    let real = parse(
        "echo 2048 -> n\n\
         if ${n} .ge. 1000\n\
           echo carrier clear, proceeding\n\
         else\n\
           failure\n\
         end\n",
    )
    .unwrap();
    let report = run_script(&real, &RealOptions::default());
    println!(
        "real run: {} in {:?}",
        if report.success { "ok" } else { "failed" },
        report.elapsed
    );

    // --- 3. The execution log ----------------------------------------
    let s = report.log.summary();
    println!(
        "log: {} commands started, {} succeeded, {} attempts",
        s.commands_started, s.commands_succeeded, s.attempts
    );
}
