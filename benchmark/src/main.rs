//! The repository's one repeatable benchmark.
//!
//! ```text
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1|2]
//! benchmark                      # every workload, each in a fresh process
//! benchmark --agree              # two sets of ten runs; do they agree within the bounds?
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every tracer off;
//! `--trace 1` runs the layer probes, then the same workload untraced
//! and under the span recorder, writes
//! `benchmark/out/trace-<workload>.json`, and reports every per-layer
//! metric; `--trace 2` is `--trace 1` without the probes (the `bench.*`
//! metrics only), which the all-workloads mode uses so that it runs the
//! probes once. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the exit code is
//! non-zero when an output check failed. Every layer is measured from
//! outside, by timing calls into public functions. See README.md.

mod alloc;
mod clock;
mod driver;
mod gen;
mod layers;
mod quiet;
mod sched;
mod spec;
mod stats;
mod trace;
mod workloads;

use spec::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::ExitCode;
use workloads::{Ctx, Measured};

/// Parsed command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    /// 0: end to end; 1: probes and traced pair; 2: traced pair only.
    pub trace: u8,
    pub agree: bool,
    pub print_json: bool,
}

const USAGE: &str = "usage: benchmark [--workload sim_figures|sim_scale|ftsh_scripts|live_verbs] \
[--seed N] [--seconds S] [--trace 0|1|2] [--agree] [--print-benchmark-json]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2003,
        seconds: RUN_SECONDS as f64,
        trace: 0,
        agree: false,
        print_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => 0,
                    "1" => 1,
                    "2" => 2,
                    other => return Err(format!("--trace takes 0, 1 or 2, not {other:?}")),
                }
            }
            "--agree" => args.agree = true,
            "--print-benchmark-json" => args.print_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Clear every `EG_*` tuning variable the crates read and pin the
/// sweep to one thread, so a run measures the defaults whatever the
/// caller's environment holds. Called before any thread starts.
fn pin_environment() {
    let ours: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("EG_"))
        .collect();
    for k in ours {
        std::env::remove_var(k);
    }
    std::env::set_var("EG_SWEEP_THREADS", "1");
}

/// CPUs this process may run on, as counted on the first call (`main`
/// makes it, before `live_verbs` pins the process to one). No
/// measurement starts more busy threads than this:
/// `gridworld.sweep.speedup_t2` is the only one that wants a second
/// CPU, and falls back to one thread without it.
pub fn host_cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Peak resident set size (`VmHWM`) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn run_workload(name: &str, ctx: &mut Ctx) -> Result<Measured, String> {
    match name {
        "sim_figures" => Ok(workloads::sim_figures::run(ctx)),
        "sim_scale" => Ok(workloads::sim_scale::run(ctx)),
        "ftsh_scripts" => workloads::ftsh_scripts::run(ctx),
        "live_verbs" => workloads::live_verbs::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn print_timings(m: &Measured) {
    for (name, unit, s) in &m.timings {
        println!(
            "  {name:<58} median {:>14.4} {unit:<6} q1 {:>14.4} q3 {:>14.4} n {}",
            s.median, s.q1, s.q3, s.n
        );
    }
}

/// The result line: one JSON object, the last line of standard output.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Print the named values in declaration order and finish the run:
/// every declared metric must be present and finite, or the run is
/// incorrect.
fn finish<'a>(
    declared: impl IntoIterator<Item = &'a Metric>,
    values: &[(&str, f64)],
    ctx: &Ctx,
) -> ExitCode {
    let mut correct = ctx.failed == 0;
    let mut out = Vec::new();
    for m in declared {
        match values.iter().find(|(n, _)| *n == m.name) {
            Some(&(_, v)) if v.is_finite() => {
                println!("{:<48} {v:>18.6} {}", m.name, m.unit);
                out.push((m, v));
            }
            other => {
                println!("{:<48} missing or not finite: {other:?}", m.name);
                correct = false;
            }
        }
    }
    for why in &ctx.failures {
        println!("FAILED: {why}");
    }
    println!(
        "checked {} operations, {} failed; reference kernel {:.2} ns/op, host slow-down {:.3} \
         (cal_ units and setup_s are wall clock / slow-down)",
        ctx.attempted,
        ctx.failed,
        ctx.meter.median_kernel_ns_per_op(),
        ctx.meter.median_slowdown()
    );
    println!("{}", result_line(correct, ctx.attempted, ctx.failed, &out));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--trace 0`: the end-to-end metrics, every tracer off.
fn end_to_end_run(name: &str, args: &Args) -> Result<ExitCode, String> {
    let mut ctx = Ctx::new(args.seed, args.seconds, false);
    let m = run_workload(name, &mut ctx)?;
    println!(
        "== {name}: end-to-end, seed {}, {} s, host_cpus {} ==",
        args.seed,
        args.seconds,
        host_cpus()
    );
    print_timings(&m);
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let values = [
        ("work_per_s", m.work_per_s),
        ("latency_us", m.latency_us),
        ("peak_rss_mb", rss),
        ("setup_s", m.setup_s),
    ];
    Ok(finish(&END_TO_END, &values, &ctx))
}

/// `--trace 1`: the layer probes, then the same workload untraced and
/// traced (half the measuring time each, for the tracing overhead) and
/// the span file. `--trace 2`: the same without the probes. The probes
/// go first: the last of them pins the process to one CPU, as
/// `live_verbs` itself does.
fn traced_run(name: &str, args: &Args) -> Result<ExitCode, String> {
    let with_probes = args.trace == 1;
    let mut probes = Ctx::new(args.seed, args.seconds, false);
    let mut values = if with_probes {
        layers::probe_all(&mut probes)?
    } else {
        Vec::new()
    };
    let mut plain = Ctx::new(args.seed, args.seconds / 2.0, false);
    let untraced = run_workload(name, &mut plain)?;
    let mut ctx = Ctx::new(args.seed, args.seconds / 2.0, true);
    let traced = run_workload(name, &mut ctx)?;
    for other in [&mut probes, &mut plain] {
        ctx.attempted += other.attempted;
        ctx.failed += other.failed;
        ctx.failures.append(&mut other.failures);
    }

    let dir = std::path::Path::new(gen::REPO_ROOT).join("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{name}.json"));
    std::fs::write(&path, ctx.tracer.to_json(name))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "== {name}: traced, seed {}, {} s, host_cpus {} ==",
        args.seed,
        args.seconds,
        host_cpus()
    );
    print_timings(&traced);
    println!("  spans written to {}", path.display());
    values.extend(layers::bench_metrics(&untraced, &traced, &ctx));
    let declared = PER_LAYER
        .iter()
        .filter(|m| with_probes || m.name.starts_with("bench."));
    Ok(finish(declared, &values, &ctx))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_json {
        let errs = spec::validate(&WORKLOADS, &END_TO_END, &PER_LAYER);
        if !errs.is_empty() {
            eprintln!("the declared tables break the benchmark contract: {errs:#?}");
            return ExitCode::FAILURE;
        }
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    pin_environment();
    alloc::fix_mmap_threshold();
    host_cpus(); // counted now, before any workload narrows the affinity mask
    let outcome = match (&args.workload, args.agree) {
        (_, true) => driver::agree(&args),
        (None, false) => driver::run_all(&args),
        (Some(name), false) if args.trace > 0 => traced_run(name, &args),
        (Some(name), false) => end_to_end_run(name, &args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::FAILURE
    })
}
