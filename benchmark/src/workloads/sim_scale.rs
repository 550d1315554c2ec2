//! `sim_scale`: fig1x's top point — 100 000 submitters, Ethernet and
//! Aloha, a 120 s virtual window.
//!
//! The same VM and world code as `sim_figures`, but queue depth and
//! per-client state exceed the CPU caches: `simgrid::events` and memory
//! dominate. This is where sharding, a memory diet or parallel shards
//! would show, and where a VM-only change should barely move.

use super::{repeat_setup, summarise, Ctx, Measured};
use gridworld::{run_submission, run_submission_traced, SubmitOutcome, SubmitParams};
use retry::{Discipline, Dur};
use simgrid::trace::{shared, RingSink};
use std::time::Instant;

/// Population of the timed runs.
pub const CLIENTS: usize = 100_000;
/// Population of the shallow run behind `latency_us`: the same code
/// with a cache-resident queue (fig1x's bottom point).
const SHALLOW_CLIENTS: usize = 1_000;
/// Timed shallow runs after each deep run.
const SHALLOW_RUNS_PER_REP: usize = 6;
/// Virtual window of every run.
pub const WINDOW: Dur = Dur::from_secs(120);
/// Records a traced run keeps; at this population a full trace would
/// not fit in memory, so the sink is a ring.
const TRACE_RING: usize = 1 << 16;

/// fig1x's parameters for one point.
pub fn params(seed: u64, discipline: Discipline, n_clients: usize) -> SubmitParams {
    SubmitParams {
        n_clients,
        discipline,
        seed: seed ^ (n_clients as u64),
        // As fig1x: 100k clients arriving within fig1's 10 s would all
        // collide before carrier sense has anything to measure.
        start_stagger: Dur::from_secs(60),
        ..SubmitParams::default()
    }
}

/// What must repeat exactly from one run of a point to the next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    events: u64,
    jobs: u64,
    crashes: u64,
    deferrals: u64,
    commands: u64,
}

fn fingerprint(o: &SubmitOutcome) -> Fingerprint {
    Fingerprint {
        events: o.events_popped,
        jobs: o.jobs_submitted,
        crashes: o.crashes,
        deferrals: o.deferrals,
        commands: o.client_totals.commands_started,
    }
}

/// One timed run of a point inside a calibration bracket and a span.
fn timed_run(
    ctx: &mut Ctx,
    discipline: Discipline,
    n: usize,
    name: &'static str,
) -> (SubmitOutcome, f64) {
    let p = params(ctx.seed, discipline, n);
    let sink = ctx.tracer.on().then(|| shared(RingSink::new(TRACE_RING)));
    let span = ctx.tracer.open("gridworld", name);
    let (o, timed) = ctx.meter.time(|| run_submission_traced(p, WINDOW, sink));
    ctx.tracer.close(span);
    (o, timed.cal_s)
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Measured {
    let mut timings = Vec::new();

    // Set-up: build the 100k-client population and its world, run
    // nothing.
    let seed = ctx.seed;
    let build = || run_submission(params(seed, Discipline::Ethernet, CLIENTS), Dur::ZERO);
    let (setups, _) = repeat_setup(ctx, build, drop);
    let setup_s = summarise(&mut timings, "setup_s", "cal_s", &setups);

    // Warm-up: one shallow run, untimed (the deep runs are their own
    // warm-up: each builds its population afresh).
    let (shallow_ref, _) = timed_run(ctx, Discipline::Ethernet, SHALLOW_CLIENTS, "shallow");

    let disciplines = [Discipline::Ethernet, Discipline::Aloha];
    let mut cal_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reference: [Option<Fingerprint>; 2] = [None, None];
    let mut shallow_us = Vec::new();
    let deadline = ctx.deadline();
    let mut rep = 0u32;
    // One deep run per repetition, the disciplines taking turns; at
    // least one of each.
    while rep < 2 || Instant::now() < deadline {
        let d = rep as usize % 2;
        rep += 1;
        ctx.tracer.set_rep(rep);
        let span = ctx.tracer.open("bench", "rep");
        let (o, s) = timed_run(ctx, disciplines[d], CLIENTS, "deep");
        cal_s[d].push(s);
        let fp = fingerprint(&o);
        let want = *reference[d].get_or_insert(fp);
        ctx.check(fp == want && o.queue_clamps == 0, || {
            format!(
                "{:?} at {CLIENTS}: {fp:?} != {want:?}, {} clamps",
                disciplines[d], o.queue_clamps
            )
        });
        // The deep run left the caches cold: one shallow run untimed,
        // then the timed ones.
        for k in 0..=SHALLOW_RUNS_PER_REP {
            let (o, s) = timed_run(ctx, Discipline::Ethernet, SHALLOW_CLIENTS, "shallow");
            if k > 0 {
                shallow_us.push(s * 1e6);
            }
            ctx.check(fingerprint(&o) == fingerprint(&shallow_ref), || {
                format!("Ethernet at {SHALLOW_CLIENTS} differs from the warm-up run")
            });
        }
        ctx.tracer.close(span);
    }

    let events: u64 = reference.iter().flatten().map(|fp| fp.events).sum();
    let eth = summarise(&mut timings, "ethernet 100k run", "cal_s", &cal_s[0]);
    let aloha = summarise(&mut timings, "aloha 100k run", "cal_s", &cal_s[1]);
    let work_per_s = summarise(
        &mut timings,
        "work_per_s (events of both runs / their median times)",
        "1/cal_s",
        &[events as f64 / (eth + aloha)],
    );
    let latency_us = summarise(
        &mut timings,
        "latency_us (1 000-client run)",
        "cal_us",
        &shallow_us,
    );
    Measured {
        work_per_s,
        latency_us,
        setup_s,
        timings,
        latency_samples_us: shallow_us,
    }
}
