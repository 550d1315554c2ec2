//! Run ftsh scripts against real processes: deadlines really kill
//! process trees, output really lands in shell variables.
//!
//! ```text
//! cargo run --example real_shell
//! ```

use ethernet_grid::ftsh::parse;
use ethernet_grid::procman::{run_script, RealOptions};
use std::time::Duration;

fn run(title: &str, src: &str) {
    println!("--- {title} ---");
    let script = parse(src).expect("script parses");
    let report = run_script(
        &script,
        &RealOptions {
            kill_grace: Duration::from_millis(200),
            seed: Some(1),
            ..RealOptions::default()
        },
    );
    let s = report.summary;
    println!(
        "result: {} in {:?} ({} commands, {} attempts, {} kills)\n",
        if report.success { "ok" } else { "failed" },
        report.elapsed,
        s.commands_started,
        s.attempts,
        s.commands_cancelled,
    );
}

fn main() {
    // 1. A deadline killing a whole process tree: sh spawns a sleeping
    // grandchild; the try's one-second limit terminates the session.
    run(
        "deadline kills a process tree",
        "try for 1 seconds or 1 times\n\
           sh -c \"sleep 30 & wait\"\n\
         end\n",
    );

    // 2. The I/O transaction: repeated attempts do not interleave
    // partial output because it is held in a variable.
    run(
        "capture to variable + condition",
        "date +%s -> now\n\
         if ${now} .gt. 0\n\
           echo captured ${now}\n\
         end\n",
    );

    // 3. forany over real commands: first success wins.
    run(
        "forany picks the working alternative",
        "forany cmd in false false true\n\
           ${cmd}\n\
         end\n",
    );

    // 4. forall: parallel branches, failure aborts the rest.
    run(
        "forall runs in parallel",
        "forall t in 0.2 0.2 0.2\n\
           sleep ${t}\n\
         end\n",
    );
}
