//! Post-mortem analysis of an ftsh run (§4: "the frequency of each
//! failure branch, and so forth"), demonstrated on a replicated fetch
//! with one dead mirror, plus ftsh functions from the cookbook.
//!
//! ```text
//! cargo run --example post_mortem
//! ```

use ethernet_grid::ftsh::postmortem::{alternative_frequency, per_program};
use ethernet_grid::ftsh::{parse, Vm, VmDriver};

fn main() {
    // A function wrapping the paper's probe-then-fetch idiom; the
    // mirror list is tried in order, with bounded patience per mirror.
    let src = "\
function fetch_one
  try for 5 seconds
    wget http://${1}/flag
  end
  try for 60 seconds
    wget http://${1}/data
  end
end

try for 10 minutes
  forany mirror in dead-mirror flaky-mirror good-mirror
    fetch_one ${mirror}
  end
end
";
    let script = parse(src).expect("script parses");
    let mut driver = VmDriver::new(Vm::with_seed(&script, 42));

    let mut flaky_left = 2;
    let out = driver.run_to_completion(|spec| {
        let url = &spec.argv[1];
        if url.contains("dead-mirror") {
            Err("connection refused".into())
        } else if url.contains("flaky-mirror") && flaky_left > 0 {
            flaky_left -= 1;
            Err("reset by peer".into())
        } else {
            Ok(String::new())
        }
    });

    println!(
        "script outcome: {}\n",
        if out.success() { "ok" } else { "failed" }
    );

    let log = driver.vm().log();
    let s = log.summary();
    println!(
        "summary: {} commands ({} ok, {} failed), {} attempts, {} backoffs totalling {}\n",
        s.commands_started,
        s.commands_succeeded,
        s.commands_failed,
        s.attempts,
        s.backoffs,
        s.total_backoff
    );

    println!("per-program breakdown:");
    for (prog, st) in per_program(log.events()) {
        println!(
            "  {prog:<10} started {:>3}  ok {:>3}  failed {:>3}  killed {:>3}",
            st.started, st.succeeded, st.failed, st.cancelled
        );
    }

    println!("\nforany alternative frequency (who carried the load):");
    for (value, n) in alternative_frequency(log.events()) {
        println!("  {value:<14} tried {n} time(s)");
    }
}
