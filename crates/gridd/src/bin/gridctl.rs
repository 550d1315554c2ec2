//! `gridctl` — the verb-per-invocation client the ftsh scripts drive.
//!
//! ```text
//! gridctl ADDR CLIENT submit JOB        print the job id
//! gridctl ADDR CLIENT put NAME DATA...  store DATA (joined by spaces)
//! gridctl ADDR CLIENT get NAME          print the file contents
//! gridctl ADDR CLIENT df                print the free-descriptor count
//! gridctl ADDR CLIENT sense N           exit 0 iff free descriptors >= N
//! gridctl ADDR CLIENT stats             print the metrics JSON
//! ```
//!
//! Exit status: 0 on success, 1 on any grid failure (busy, down,
//! ENOSPC, reset, deadline) — precisely the signal an ftsh `try`
//! block needs to back off and retry. `sense` is the carrier-sense
//! prelude as one verb: a cheap `df` plus the threshold test, so the
//! Ethernet discipline's "defer when the medium is busy" is a single
//! failing command.
//!
//! `--timeout-ms MS` (before ADDR) overrides the 10 s per-op deadline.

use gridd::GridClient;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gridctl [--timeout-ms MS] ADDR CLIENT \
         (submit JOB | put NAME DATA... | get NAME | df | sense N | stats)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut timeout = Duration::from_secs(10);
    if args.first().map(|s| s.as_str()) == Some("--timeout-ms") {
        if args.len() < 2 {
            return usage();
        }
        match args[1].parse::<u64>() {
            Ok(ms) => timeout = Duration::from_millis(ms),
            Err(_) => return usage(),
        }
        args.drain(..2);
    }
    if args.len() < 3 {
        return usage();
    }
    let addr = args[0].clone();
    let client: u32 = match args[1].parse() {
        Ok(c) => c,
        Err(_) => return usage(),
    };
    let c = GridClient::new(addr, client).with_timeout(timeout);
    let verb = args[2].as_str();
    let rest = &args[3..];

    let outcome: Result<String, String> = match (verb, rest) {
        ("submit", [job]) => c.submit(job).map_err(|e| e.to_string()),
        ("put", [name, data @ ..]) if !data.is_empty() => {
            let payload = data.join(" ");
            c.put(name, payload.as_bytes())
                .map(|()| format!("{} bytes", payload.len()))
                .map_err(|e| e.to_string())
        }
        ("get", [name]) => match c.get(name) {
            Ok(data) => Ok(String::from_utf8_lossy(&data).into_owned()),
            Err(e) => Err(e.to_string()),
        },
        ("df", []) => c.df().map(|n| n.to_string()).map_err(|e| e.to_string()),
        ("sense", [n]) => {
            let need: u64 = match n.parse() {
                Ok(v) => v,
                Err(_) => return usage(),
            };
            match c.df() {
                Ok(free) if free >= need => Ok(free.to_string()),
                Ok(free) => Err(format!("medium busy: {free} < {need}")),
                Err(e) => Err(e.to_string()),
            }
        }
        ("stats", []) => c.stats().map_err(|e| e.to_string()),
        _ => return usage(),
    };

    match outcome {
        Ok(text) => {
            let mut out = std::io::stdout();
            let _ = writeln!(out, "{text}");
            let _ = out.flush();
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("gridctl: {msg}");
            ExitCode::FAILURE
        }
    }
}
