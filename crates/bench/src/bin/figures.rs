//! Regenerate the paper's figures.
//!
//! ```text
//! figures [--quick] [--seed N] [--out DIR] [fig1 fig2 ... | all | claims]
//! figures --trace OUT.jsonl [--seed N] [figs...]
//! figures --faults PLAN.json [figs...]
//! figures --stats [--quick] [--seed N] [--out DIR] [figs...]
//! figures --live [--quick | --live-clients N] [--min-dispatch V] [--seed N] [--out DIR]
//! figures --coord-live [--seed N] [--out DIR]
//! figures postmortem TRACE.jsonl [--timeline] [--rounds] [--client N]
//! ```
//!
//! Prints each figure as an aligned table (the rows the paper plots)
//! and writes `results/figN.json` — or `DIR/figN.json` with `--out
//! DIR`, which is also where `--live` and `--coord-live` put theirs.
//! Default scale is `--full` (paper-size populations and windows);
//! `--quick` runs the reduced versions used in CI.
//!
//! `claims` is a figure set like `all`: it runs every figure a shape
//! claim of EXPERIMENTS.md reads (`gridworld::claims`), writes their
//! data as above, judges every claim — the crash-plan claim on fig2
//! and fig3 run again under `egbench::sample_plan` — and writes
//! `results/claims.md` (or `DIR/claims.md`), one row per claim. It
//! exits 1 when a claim fails; it does not combine with `--faults` or
//! `--stats`.
//!
//! `--trace` additionally records the structured trace of every
//! simulation behind the figure — attempt spans with backoff draws and
//! budgets, command boundaries, carrier-sense probes, deferrals,
//! collisions, schedd crashes — as JSONL. With one figure the file is
//! written at the given path; with several, each figure gets
//! `PATH-<fig>.jsonl`. Traces are bit-deterministic per seed, however
//! many sweep threads run.
//!
//! `--faults` arms a deterministic fault-injection plan (see
//! `simgrid::faults::FaultPlan::parse_json` for the JSON schema) in
//! every run behind each figure: schedd kills, ENOSPC windows,
//! free-space lies, server black-hole toggles, message loss, latency
//! spikes, clock skew. The scenarios' own constants (the crash knee,
//! the disk size, the stock black hole) stay as they are; fig8 and
//! fig9 append the plan to their own kills and windows. A plan that
//! does not parse, or holds a value out of range, exits 2. Every
//! injection appears in the structured trace as a `fault` record, so
//! `--trace` plus `postmortem` counts them per kind.
//!
//! `postmortem` reads such a file back and reconstructs the run: event
//! counts, retry/backoff distributions, attempts-per-success, and
//! (with `--timeline`) per-client swimlanes, filtered by `--client`.
//!
//! `--live` is the arena mode: instead of simulating, it starts a real
//! `gridd` daemon in-process and races N concurrent real clients per
//! discipline against it — Aloha first, then Ethernet — under forced
//! schedd crashes. The population is one epoll swarm of ftsh VMs, each
//! running the generated arena script with its verbs mapped onto a
//! persistent TCP connection, so N scales to 1000+ on one core.
//! `--quick` shrinks it to the 3-client CI race; `--live-clients N`
//! sets the population instead, with physics scaled to N.
//! `--coord-live` runs the fig8 all-reduce the same way: real ranks,
//! one kill and rejoin. Both are one live runner (`egbench::live`):
//! each discipline's merged JSONL trace (the usual schema) and
//! postmortem, and the live-vs-sim comparison, land in `results/`; the
//! exit code is nonzero unless the live daemon confirms the simulator's
//! prediction — and, with `--min-dispatch V` (arena only), unless the
//! better discipline sustains at least V decoded responses per second.
//! A live mode reads only the flags in its usage line above; any other
//! flag or a figure name beside it exits 2.
//!
//! `--stats` is the engine perf baseline: it runs the multi-point
//! sweep figures twice — once pinned to one sweep thread (the
//! sequential baseline) and once fanned across threads — and writes
//! wall-clock, peak RSS, events-processed/sec and allocations-per-tick
//! for both passes, plus the parallel speedup, to
//! `BENCH_engine.json` at the workspace root — or to
//! `DIR/BENCH_engine.json` with `--out DIR`, which leaves the tracked
//! ledger alone. A third pass repeats the sequential one with the
//! simulator's phase timer on (`gridworld::phases`): it prints and
//! records TSC cycles per popped event by phase, and events/s with the
//! timer off and on.

use egbench::live::{CoordLiveOptions, LiveOptions, Study};
use gridworld::claims::{self, CLAIMS, UNDER_PLAN};
use gridworld::figures::{
    by_name_full, by_name_with_plan, Scale, ALL_ABLATIONS, ALL_FIGURES, COORD_FIGURES,
    EXTENDED_FIGURES,
};
use gridworld::{Phase, PhaseCycles};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation so `--stats` can report
/// allocations-per-tick; delegates all actual memory work to the
/// system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`), or
/// 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One measured pass over the sweep figures at a fixed thread count.
struct PassStats {
    /// Worker count this pass asked the sweep engine for.
    threads_requested: usize,
    /// Worker count the engine resolved the request to (the
    /// `EG_SWEEP_THREADS` pipeline, before the per-figure point cap).
    threads_effective: usize,
    wall_s: f64,
    events: u64,
    /// Past-scheduled events clamped forward to `now` across the pass.
    clamps: u64,
    /// Events scheduled past their run's end, counted and not stored.
    discarded: u64,
    /// Wakes popped that an ended unit left behind, and the units they
    /// started before their start instant (reported, not gated).
    stale_wakes: u64,
    early_units: u64,
    vm_ticks: u64,
    allocs: u64,
}

impl PassStats {
    fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// `n` per popped event (0 when nothing was popped).
    fn per_event(&self, n: u64) -> f64 {
        if self.events > 0 {
            n as f64 / self.events as f64
        } else {
            0.0
        }
    }

    fn allocs_per_tick(&self) -> f64 {
        if self.vm_ticks > 0 {
            self.allocs as f64 / self.vm_ticks as f64
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\n    \"threads_requested\": {},\n    \"threads_effective\": {},\n    \"wall_s\": {:.6},\n    \"events\": {},\n    \"events_per_sec\": {:.1},\n    \"queue_clamps\": {},\n    \"events_discarded\": {},\n    \"stale_wakes\": {},\n    \"early_units\": {},\n    \"vm_ticks\": {},\n    \"allocations\": {},\n    \"allocs_per_tick\": {:.2}\n  }}",
            self.threads_requested,
            self.threads_effective,
            self.wall_s,
            self.events,
            self.events_per_sec(),
            self.clamps,
            self.discarded,
            self.stale_wakes,
            self.early_units,
            self.vm_ticks,
            self.allocs,
            self.allocs_per_tick(),
        )
    }
}

/// Run every named figure once with the sweep pinned to `threads`
/// workers, summing each run's own engine counters.
fn run_pass(threads: usize, figs: &[String], scale: Scale, seed: u64) -> PassStats {
    std::env::set_var("EG_SWEEP_THREADS", threads.to_string());
    // What the engine actually resolves the request to, before the
    // per-figure point cap (usize::MAX points ⇒ cap never binds).
    let threads_effective = gridworld::sweep::configured_threads(usize::MAX);
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    // Events and ticks are aggregated per run (each figure sums its
    // own drivers' counters), so another thread's simulations can
    // never contaminate the sample.
    let mut events = 0u64;
    let mut clamps = 0u64;
    let mut discarded = 0u64;
    let (mut stale_wakes, mut early_units) = (0u64, 0u64);
    let mut vm_ticks = 0u64;
    for name in figs {
        let run = by_name_full(name, scale, seed, false).expect("stats figure exists");
        events += run.events_popped;
        clamps += run.clamps;
        discarded += run.discarded;
        stale_wakes += run.stale_wakes;
        early_units += run.early_units;
        vm_ticks += run.vm_ticks;
        std::hint::black_box(&run.set);
    }
    let wall_s = start.elapsed().as_secs_f64();
    std::env::remove_var("EG_SWEEP_THREADS");
    PassStats {
        threads_requested: threads,
        threads_effective,
        wall_s,
        events,
        clamps,
        discarded,
        stale_wakes,
        early_units,
        vm_ticks,
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs0,
    }
}

/// The `phases` section of `BENCH_engine.json`: the sequential pass
/// again with the phase timer on, beside the pass with it off.
fn phases_json(off: &PassStats, on: &PassStats, charged: &PhaseCycles) -> String {
    let rows = Phase::ALL
        .iter()
        .map(|&p| (p.name(), charged.of(p)))
        .chain([("total", charged.total())])
        .map(|(name, c)| format!("\"{name}\": {:.0}", on.per_event(c)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n    \"clock\": \"simgrid::cycles (TSC), sequential pass\",\n    \"events_per_sec_off\": {:.1},\n    \"events_per_sec_on\": {:.1},\n    \"cycles_per_event\": {{ {rows} }}\n  }}",
        off.events_per_sec(),
        on.events_per_sec(),
    )
}

/// What the `vm` section of `BENCH_engine.json` measures.
struct VmStats {
    ticks: u64,
    wall_s: f64,
    /// Heap allocations per function call on [`egbench::vm_calls_source`]
    /// (exact: the difference between two run lengths).
    calls_allocs_per_call: f64,
    /// Time per iteration of [`egbench::vm_forall_loop_source`] at 800
    /// iterations over the same at 50: 1.0 when an iteration costs the
    /// same however many branch tasks came and went before it.
    forall_iter_ratio_800_over_50: f64,
}

impl VmStats {
    fn ticks_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ticks as f64 / self.wall_s
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\n    \"workload\": \"steady-interp mixed x64, 2000 attempts\",\n    \"ticks\": {},\n    \"wall_s\": {:.6},\n    \"ticks_per_sec\": {:.0},\n    \"calls_allocs_per_call\": {:.2},\n    \"forall_iter_ratio_800_over_50\": {:.2}\n  }}",
            self.ticks,
            self.wall_s,
            self.ticks_per_sec(),
            self.calls_allocs_per_call,
            self.forall_iter_ratio_800_over_50,
        )
    }
}

/// Drive one VM (seed 7, no trace sink) through `script` on a
/// virtual clock, every command succeeding at once with output `ok`.
/// Returns the tick count.
fn vm_run(script: &ftsh::Script) -> u64 {
    let mut driver = ftsh::VmDriver::new(ftsh::Vm::with_seed(script, 7));
    driver.run_to_completion(|_| Ok("ok".into())).ticks()
}

/// The interpreter rows for `BENCH_engine.json`.
fn vm_bench() -> VmStats {
    let script = ftsh::parse(&egbench::vm_steady_source(2000)).expect("steady workload parses");
    // Warm caches (and the compile cache) before the timed leg.
    vm_run(&script);
    let start = Instant::now();
    let ticks = vm_run(&script);
    let wall_s = start.elapsed().as_secs_f64();

    // Two run lengths: set-up allocations cancel in the difference.
    let calls_allocs = |attempts: u32| {
        let script = ftsh::parse(&egbench::vm_calls_source(attempts)).expect("calls parses");
        vm_run(&script);
        let before = ALLOCS.load(Ordering::Relaxed);
        vm_run(&script);
        ALLOCS.load(Ordering::Relaxed) - before
    };
    let extra_calls = 200 * egbench::VM_CALLS_PER_ATTEMPT;
    let calls_allocs_per_call = (calls_allocs(300) - calls_allocs(100)) as f64 / extra_calls as f64;

    // The same 800 iterations as one run and as sixteen runs of 50,
    // best of five each.
    let forall_s = |iters: u32, runs: u32| {
        let script = ftsh::parse(&egbench::vm_forall_loop_source(iters)).expect("forall parses");
        (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..runs {
                    vm_run(&script);
                }
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let forall_iter_ratio_800_over_50 = forall_s(800, 1) / forall_s(50, 16);
    VmStats {
        ticks,
        wall_s,
        calls_allocs_per_call,
        forall_iter_ratio_800_over_50,
    }
}

/// Parse `"<key>": <float>` out of `BENCH_budget.json` (flat object,
/// no serde in the workspace).
fn parse_budget(text: &str, key: &str) -> Option<f64> {
    let tail = text.split(&format!("\"{key}\"")).nth(1)?;
    let val = tail.split(':').nth(1)?;
    val.split([',', '}', '\n']).next()?.trim().parse().ok()
}

/// The perf baseline harness behind `--stats`; it writes
/// `BENCH_engine.json` into `dir`.
fn run_stats(mut figs: Vec<String>, scale: Scale, seed: u64, dir: &Path) -> ExitCode {
    if figs.is_empty() {
        // The multi-point sweep figures: one independent simulation per
        // (discipline, population) point, the parallel runner's home turf.
        figs = vec!["fig1".into(), "fig4".into(), "fig5".into()];
    }
    if let Some(bad) = figs.iter().find(|f| {
        !ALL_FIGURES.contains(&f.as_str())
            && !ALL_ABLATIONS.contains(&f.as_str())
            && !EXTENDED_FIGURES.contains(&f.as_str())
            && !COORD_FIGURES.contains(&f.as_str())
    }) {
        eprintln!("unknown figure: {bad}");
        return ExitCode::from(2);
    }
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    eprintln!("== stats: sequential baseline (1 sweep thread) ==");
    let seq = run_pass(1, &figs, scale, seed);
    eprintln!(
        "   {:.3}s, {} events ({:.0}/s), {} ticks, {:.1} allocs/tick",
        seq.wall_s,
        seq.events,
        seq.events_per_sec(),
        seq.vm_ticks,
        seq.allocs_per_tick()
    );
    eprintln!("== stats: sequential, phase timer on ==");
    let (timed, charged) = gridworld::phases::timed(|| run_pass(1, &figs, scale, seed));
    eprintln!(
        "   {:.3}s, {:.0} events/s on against {:.0} off; TSC cycles per popped event:",
        timed.wall_s,
        timed.events_per_sec(),
        seq.events_per_sec(),
    );
    for p in Phase::ALL {
        eprintln!("   {:>8} {:>7.0}", p.name(), timed.per_event(charged.of(p)));
    }
    eprintln!(
        "   {:>8} {:>7.0}",
        "total",
        timed.per_event(charged.total())
    );
    // The timer observes; it must not change what it times.
    if (timed.events, timed.vm_ticks) != (seq.events, seq.vm_ticks) {
        eprintln!(
            "   the timed pass differs: {} events, {} ticks, against {} and {}",
            timed.events, timed.vm_ticks, seq.events, seq.vm_ticks
        );
        return ExitCode::FAILURE;
    }
    // The parallel leg is sized to the host: benchmarking a 2-thread
    // sweep on a 1-CPU box would measure contention, not speedup, so a
    // single-CPU host skips the leg and records the speedup as N/A.
    let par = if host_cpus > 1 {
        eprintln!("== stats: parallel sweep ({host_cpus} threads) ==");
        let par = run_pass(host_cpus, &figs, scale, seed);
        eprintln!(
            "   {:.3}s, {} events ({:.0}/s), {} ticks, {:.1} allocs/tick",
            par.wall_s,
            par.events,
            par.events_per_sec(),
            par.vm_ticks,
            par.allocs_per_tick()
        );
        Some(par)
    } else {
        eprintln!("== stats: single-CPU host, skipping the parallel leg (speedup N/A) ==");
        None
    };

    let total_clamps = seq.clamps + par.as_ref().map_or(0, |p| p.clamps);
    if total_clamps > 0 {
        eprintln!(
            "   warning: {total_clamps} event(s) were scheduled into the past and clamped to now"
        );
    }
    let speedup = par.as_ref().and_then(|p| {
        if p.wall_s > 0.0 {
            Some(seq.wall_s / p.wall_s)
        } else {
            None
        }
    });
    let rss = peak_rss_kb();
    let fig_list = figs
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let par_json = par
        .as_ref()
        .map_or_else(|| "null".to_string(), PassStats::to_json);
    let speedup_json = speedup.map_or_else(|| "null".to_string(), |s| format!("{s:.2}"));
    eprintln!("== stats: steady-state interpreter ==");
    let vm = vm_bench();
    let vm_json = vm.to_json();
    eprintln!(
        "   {:.0} ticks/s on the steady workload, {:.2} allocs/call, forall iter x{:.2} at 800 vs 50",
        vm.ticks_per_sec(),
        vm.calls_allocs_per_call,
        vm.forall_iter_ratio_800_over_50
    );
    let json = format!(
        "{{\n  \"harness\": \"figures --stats\",\n  \"scale\": \"{scale:?}\",\n  \"seed\": {seed},\n  \"figures\": [{fig_list}],\n  \"host_cpus\": {host_cpus},\n  \"peak_rss_kb\": {rss},\n  \"sequential\": {},\n  \"phases\": {},\n  \"parallel\": {par_json},\n  \"speedup\": {speedup_json},\n  \"vm\": {vm_json}\n}}\n",
        seq.to_json(),
        phases_json(&seq, &timed, &charged),
    );
    let path = dir.join("BENCH_engine.json");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &json)) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    print!("{json}");
    eprintln!("   wrote {}", path.display());
    match speedup {
        Some(s) => eprintln!("   speedup: {s:.2}x over sequential on {host_cpus} CPU(s)"),
        None => eprintln!("   speedup: N/A (single-CPU host)"),
    }

    // Perf-regression tripwire: `BENCH_budget.json` next to the
    // recorded baseline caps allocations-per-tick of the sequential
    // pass and the two interpreter scaling rows; CI fails the build
    // when a measurement exceeds its cap.
    let budget_path = egbench::workspace_root().join("BENCH_budget.json");
    if let Ok(text) = std::fs::read_to_string(&budget_path) {
        for (key, what, measured) in [
            ("max_allocs_per_tick", "allocs/tick", seq.allocs_per_tick()),
            (
                "max_calls_allocs_per_call",
                "allocs/call",
                vm.calls_allocs_per_call,
            ),
            (
                "max_forall_iter_ratio_800_over_50",
                "forall iter ratio",
                vm.forall_iter_ratio_800_over_50,
            ),
        ] {
            let Some(budget) = parse_budget(&text, key) else {
                eprintln!("   cannot parse {key} from {}", budget_path.display());
                return ExitCode::FAILURE;
            };
            if measured > budget {
                eprintln!(
                    "   BUDGET EXCEEDED: {measured:.2} {what} > budget {budget:.2} (from {})",
                    budget_path.display()
                );
                return ExitCode::FAILURE;
            }
            eprintln!("   within budget: {measured:.2} <= {budget:.2} {what}");
        }
    }
    ExitCode::SUCCESS
}

/// `figures postmortem TRACE.jsonl [--timeline] [--rounds]
/// [--client N]` — read a structured trace back and reconstruct what
/// happened.
fn run_postmortem(args: Vec<String>) -> ExitCode {
    let mut path: Option<String> = None;
    let mut timeline = false;
    let mut rounds = false;
    let mut client: Option<i64> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--timeline" => timeline = true,
            "--rounds" => rounds = true,
            "--client" => match it.next().and_then(|s| s.parse().ok()) {
                Some(c) => client = Some(c),
                None => {
                    eprintln!("--client needs a number");
                    return ExitCode::from(2);
                }
            },
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unknown postmortem argument: {other}");
                eprintln!(
                    "usage: figures postmortem TRACE.jsonl [--timeline] [--rounds] [--client N]"
                );
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: figures postmortem TRACE.jsonl [--timeline] [--rounds] [--client N]");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let records = match simgrid::trace::from_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let summary = simgrid::TraceSummary::from_records(&records);
    print!("{}", summary.render());
    if rounds {
        print!("{}", simgrid::postmortem::render_rounds(&records));
    }
    if timeline {
        print!("{}", simgrid::postmortem::render_timeline(&records, client));
    }
    ExitCode::SUCCESS
}

/// A live study behind `--live` or `--coord-live`: real daemon, real
/// clients, and a sim-vs-live verdict. Prints the study's table; the
/// exit code fails unless the live daemon confirms the simulator and,
/// with `min_dispatch`, unless the better discipline clears that floor.
fn run_live<S: Study>(study: &S, seed: u64, out_dir: &Path, min_dispatch: Option<f64>) -> ExitCode {
    eprintln!("== {}: {} ==", S::TITLE, study.preamble(seed));
    let report = match egbench::live::run(study, seed, out_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("live run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = out_dir.join(format!("{}.md", S::NAME));
    if let Ok(md) = std::fs::read_to_string(&table) {
        print!("{md}");
    }
    eprintln!("   wrote {}", table.display());
    // The throughput gate for CI's stress job: the *better* discipline
    // must clear the floor — a regression that halves the event loop's
    // dispatch rate fails the run even when the ordering still holds.
    if let Some(floor) = min_dispatch {
        let best = report
            .aloha
            .dispatch_rate
            .max(report.ethernet.dispatch_rate);
        if best < floor {
            eprintln!(
                "   dispatch rate {best:.0} verbs/s is below the --min-dispatch floor {floor:.0}"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("   dispatch rate {best:.0} verbs/s clears the --min-dispatch floor {floor:.0}");
    }
    if report.confirms {
        eprintln!("   live daemon CONFIRMS the sim's {}", S::CLAIM);
        ExitCode::SUCCESS
    } else {
        eprintln!("   live daemon DOES NOT CONFIRM {}", S::CLAIM);
        ExitCode::FAILURE
    }
}

/// Where one figure's trace goes: the exact `--trace` path when a
/// single figure runs, `PATH-<fig>.jsonl` when several do.
fn trace_path_for(base: &str, name: &str, single: bool) -> String {
    if single {
        return base.to_string();
    }
    match base.strip_suffix(".jsonl") {
        Some(stem) => format!("{stem}-{name}.jsonl"),
        None => format!("{base}-{name}.jsonl"),
    }
}

const USAGE: &str = "usage: figures [--quick] [--seed N] [--out DIR] [--stats] [--trace OUT.jsonl] [--faults PLAN.json] [fig1..fig9 | all | ablations | coord | claims | ablation-threshold | ablation-channel]
       figures --live [--quick | --live-clients N] [--min-dispatch V] [--seed N] [--out DIR]
       figures --coord-live [--seed N] [--out DIR]
       figures postmortem TRACE.jsonl [--timeline] [--rounds] [--client N]";

fn main() -> ExitCode {
    let mut scale: Option<Scale> = None;
    let mut seed: u64 = 2003;
    let mut chart = false;
    let mut stats = false;
    let mut live = false;
    let mut coord_live = false;
    let mut claims = false;
    let mut live_clients: Option<usize> = None;
    let mut min_dispatch: Option<f64> = None;
    let mut trace_base: Option<String> = None;
    // `--out DIR`, if given: where figure data, live output and the
    // `--stats` ledger go instead of their tracked homes.
    let mut out: Option<PathBuf> = None;
    let mut plan: Option<simgrid::FaultPlan> = None;
    let mut wanted: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("postmortem") {
        args.next();
        return run_postmortem(args.collect());
    }
    let mut it = args;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Some(Scale::Quick),
            "--full" => scale = Some(Scale::Full),
            "--chart" => chart = true,
            "--stats" => stats = true,
            "--live" => live = true,
            "--coord-live" => coord_live = true,
            "--live-clients" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => live_clients = Some(n),
                _ => {
                    eprintln!("--live-clients needs a positive number");
                    return ExitCode::from(2);
                }
            },
            "--min-dispatch" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => min_dispatch = Some(v),
                _ => {
                    eprintln!("--min-dispatch needs a positive verbs/s floor");
                    return ExitCode::from(2);
                }
            },
            "--trace" => match it.next() {
                Some(p) => trace_base = Some(p),
                None => {
                    eprintln!("--trace needs a path");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(dir) => out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs a number");
                    return ExitCode::from(2);
                }
            },
            "--faults" => {
                let Some(path) = it.next() else {
                    eprintln!("--faults needs a PLAN.json path");
                    return ExitCode::from(2);
                };
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                match simgrid::FaultPlan::parse_json(&text) {
                    Ok(p) => plan = Some(p),
                    Err(e) => {
                        eprintln!("bad fault plan {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "all" => wanted.extend(ALL_FIGURES.iter().map(|s| s.to_string())),
            "ablations" => wanted.extend(ALL_ABLATIONS.iter().map(|s| s.to_string())),
            "coord" => wanted.extend(COORD_FIGURES.iter().map(|s| s.to_string())),
            "claims" => claims = true,
            other if other.starts_with("fig") || other.starts_with("ablation-") => {
                wanted.push(other.to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // A live run reads only its own flags: one a live mode would drop,
    // or an arena knob without `--live`, is a usage error.
    let sim_only =
        stats || chart || trace_base.is_some() || plan.is_some() || claims || !wanted.is_empty();
    if (live && coord_live)
        || ((live || coord_live) && sim_only)
        || (coord_live && scale.is_some())
        || (live_clients.is_some() && (!live || scale.is_some()))
        || (min_dispatch.is_some() && !live)
        || (claims && (stats || plan.is_some()))
    {
        eprintln!("a flag or figure name the chosen mode would ignore");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let out_dir = out.clone().unwrap_or_else(egbench::results_dir);
    if live {
        // An explicit population size picks physics scaled to it.
        let arena = match (live_clients, scale) {
            (Some(n), _) => LiveOptions::sized(n),
            (None, Some(Scale::Quick)) => LiveOptions::quick(),
            (None, _) => LiveOptions::full(),
        };
        return run_live(&arena, seed, &out_dir, min_dispatch);
    }
    if coord_live {
        return run_live(&CoordLiveOptions::quick(), seed, &out_dir, None);
    }
    let scale = scale.unwrap_or(Scale::Full);
    if stats {
        let dir = out.unwrap_or_else(egbench::workspace_root);
        return run_stats(wanted, scale, seed, &dir);
    }
    if claims {
        for id in claims::figures_read() {
            if !id.ends_with(UNDER_PLAN) && !wanted.iter().any(|w| w == id) {
                wanted.push(id.to_string());
            }
        }
    }
    if wanted.is_empty() {
        wanted.extend(ALL_FIGURES.iter().map(|s| s.to_string()));
    }

    let single = wanted.len() == 1;
    // The figures the claims read, kept once emitted.
    let mut sets: Vec<(String, simgrid::SeriesSet)> = Vec::new();
    for name in wanted {
        eprintln!("== running {name} ({scale:?}, seed {seed}) ==");
        match by_name_with_plan(&name, scale, seed, trace_base.is_some(), plan.as_ref()) {
            Some(run) => {
                if run.clamps > 0 {
                    eprintln!(
                        "   warning: {} event(s) were scheduled into the past and clamped to now",
                        run.clamps
                    );
                }
                match egbench::emit(&out_dir, &name, &run.set) {
                    Ok(path) => {
                        if chart {
                            println!("{}", run.set.to_ascii_chart(64, 16));
                        }
                        eprintln!("   wrote {}", path.display());
                    }
                    Err(e) => {
                        eprintln!("   cannot write results: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                if let (Some(base), Some(records)) = (&trace_base, &run.trace) {
                    let tpath = trace_path_for(base, &name, single);
                    let jsonl = simgrid::trace::to_jsonl(records);
                    if let Err(e) = std::fs::write(&tpath, jsonl) {
                        eprintln!("   cannot write trace {tpath}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("   wrote {tpath} ({} records)", records.len());
                }
                if claims {
                    sets.push((name, run.set));
                }
            }
            None => {
                eprintln!("unknown figure: {name}");
                return ExitCode::from(2);
            }
        }
    }
    if claims {
        return judge_claims(sets, scale, seed, &out_dir);
    }
    ExitCode::SUCCESS
}

/// The end of `figures claims`: run the figures the claims read under
/// the sample plan, judge every claim on `sets` and those, and write
/// `claims.md` into `dir`. Exits 1 when a claim fails.
fn judge_claims(
    mut sets: Vec<(String, simgrid::SeriesSet)>,
    scale: Scale,
    seed: u64,
    dir: &Path,
) -> ExitCode {
    eprintln!("== running the claims' planned figures ({scale:?}, seed {seed}) ==");
    sets.extend(claims::run_planned(scale, seed, &egbench::sample_plan()));
    let judged: Vec<_> = CLAIMS.iter().map(|c| (c, c.judge(&sets))).collect();
    let md = claims::report(scale, seed, &judged);
    let path = dir.join("claims.md");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &md)) {
        eprintln!("   cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    print!("{md}");
    eprintln!("   wrote {}", path.display());
    let failed: Vec<&str> = judged
        .iter()
        .filter(|(_, v)| !v.holds)
        .map(|(c, _)| c.name)
        .collect();
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("   claims that fail: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
