//! The `gridd` daemon binary.
//!
//! ```text
//! gridd [--listen ADDR] [--faults PLAN.json]
//!       [--slots N] [--service-ms MS] [--crash-overloads N]
//!       [--downtime-ms MS] [--deadline-ms MS] [--print-addr]
//! ```
//!
//! Binds (default `127.0.0.1:7177`; `:0` picks a free port), prints
//! `gridd listening on ADDR` (stdout, flushed — machine-readable with
//! `--print-addr`, which prints *only* the address), then serves until
//! killed.

use gridd::GriddConfig;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gridd [--listen ADDR] [--faults PLAN.json] \
         [--slots N] [--service-ms MS] [--crash-overloads N] \
         [--downtime-ms MS] [--deadline-ms MS] [--print-addr]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut cfg = GriddConfig {
        listen: "127.0.0.1:7177".into(),
        ..GriddConfig::default()
    };
    let mut print_addr = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        macro_rules! next_parse {
            ($ty:ty) => {
                match it.next().and_then(|s| s.parse::<$ty>().ok()) {
                    Some(v) => v,
                    None => return usage(),
                }
            };
        }
        match a.as_str() {
            "--listen" => cfg.listen = next_parse!(String),
            "--slots" => cfg.slots = next_parse!(u64),
            "--service-ms" => cfg.service = Duration::from_millis(next_parse!(u64)),
            "--crash-overloads" => cfg.crash_overloads = next_parse!(u32),
            "--downtime-ms" => cfg.downtime = Duration::from_millis(next_parse!(u64)),
            "--deadline-ms" => cfg.deadline = Duration::from_millis(next_parse!(u64)),
            "--faults" => {
                let Some(path) = it.next() else {
                    return usage();
                };
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("gridd: cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                match simgrid::FaultPlan::parse_json(&text) {
                    Ok(plan) => cfg.plan = plan,
                    Err(e) => {
                        eprintln!("gridd: bad fault plan {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--print-addr" => print_addr = true,
            "-h" | "--help" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    let handle = match gridd::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gridd: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = std::io::stdout();
    if print_addr {
        let _ = writeln!(out, "{}", handle.addr());
    } else {
        let _ = writeln!(out, "gridd listening on {}", handle.addr());
    }
    let _ = out.flush();
    // Serve until killed (SIGTERM/SIGKILL from the harness or shell).
    loop {
        std::thread::park();
    }
}
