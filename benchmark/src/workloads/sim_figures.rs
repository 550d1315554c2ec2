//! `sim_figures`: the paper's own worlds, fig1–fig9 at full scale.
//!
//! At ≤500 clients the event queue is shallow and cache-resident, so
//! `ftsh` VM ticks and `gridworld` world physics do most of the work.
//! One repetition regenerates all nine figures on one sweep thread.

use super::{repeat_setup, summarise, Ctx, Measured};
use gridworld::coord::{run_allreduce, run_dag, AllReduceParams, DagParams};
use gridworld::figures::{by_name_full, FigureRun, Scale};
use gridworld::{run_blackhole, run_buffer, run_submission};
use gridworld::{BlackHoleParams, BufferParams, SubmitParams};
use retry::{Discipline, Dur};
use std::time::Instant;

/// The figures of one repetition, in order.
pub const FIGURES: [&str; 9] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
];

/// Which world each figure runs in, as the layer metrics name them.
pub const WORLD_OF: [&str; 9] = [
    "submit",
    "submit",
    "submit",
    "buffer",
    "buffer",
    "blackhole",
    "blackhole",
    "allreduce",
    "dag",
];

/// Events fig1–fig9 pop at seed 2003; a simulator speed-up must leave
/// it unchanged.
const PINNED_EVENTS_SEED_2003: u64 = 2_118_378;

/// The set-up this workload times: building each of the five worlds
/// and its client population at paper scale, running nothing (a
/// zero-length window).
fn build_worlds(seed: u64) {
    for discipline in [Discipline::Ethernet, Discipline::Aloha] {
        let submit = SubmitParams {
            n_clients: 500,
            discipline,
            seed,
            ..SubmitParams::default()
        };
        std::hint::black_box(run_submission(submit, Dur::ZERO));
        let buffer = BufferParams {
            n_producers: 50,
            discipline,
            seed,
            ..BufferParams::default()
        };
        std::hint::black_box(run_buffer(buffer, Dur::ZERO));
        let reader = BlackHoleParams {
            discipline,
            seed,
            ..BlackHoleParams::default()
        };
        std::hint::black_box(run_blackhole(reader, Dur::ZERO));
        let ranks = AllReduceParams {
            discipline,
            seed,
            ..AllReduceParams::default()
        };
        std::hint::black_box(run_allreduce(ranks, Dur::ZERO));
        let dag = DagParams {
            discipline,
            seed,
            ..DagParams::default()
        };
        std::hint::black_box(run_dag(dag, Dur::ZERO));
    }
}

/// One figure's outputs and cost within a repetition.
pub struct FigureCost {
    /// Events popped behind the figure.
    pub events: u64,
    /// Calibrated seconds.
    pub cal_s: f64,
    /// Heap allocations made while it ran.
    pub allocs: u64,
}

/// Regenerate all nine figures once, each inside its own calibration
/// bracket and span. Returns the runs (for output checks) and costs.
pub fn sweep(ctx: &mut Ctx, sim_trace: bool) -> (Vec<FigureRun>, Vec<FigureCost>) {
    let mut runs = Vec::with_capacity(FIGURES.len());
    let mut costs = Vec::with_capacity(FIGURES.len());
    for name in FIGURES {
        let span = ctx.tracer.open("gridworld", name);
        let ((run, allocs), timed) = ctx.meter.time(|| {
            let before = crate::alloc::count();
            let run = by_name_full(name, Scale::Full, ctx.seed, sim_trace).expect("a known figure");
            (run, crate::alloc::count() - before)
        });
        ctx.tracer.close(span);
        costs.push(FigureCost {
            events: run.events_popped,
            cal_s: timed.cal_s,
            allocs,
        });
        runs.push(run);
    }
    (runs, costs)
}

fn last_of(run: &FigureRun, series: &str) -> Option<f64> {
    run.set.get(series).and_then(simgrid::Series::last)
}

/// Checks that hold on the warm-up repetition alone: the paper's
/// pinned results at seed 2003, and Ethernet ≥ Aloha at fig1's top
/// population at any seed.
fn check_reference(ctx: &mut Ctx, runs: &[FigureRun]) {
    let (eth, aloha) = (last_of(&runs[0], "Ethernet"), last_of(&runs[0], "Aloha"));
    ctx.check(eth.is_some() && eth >= aloha, || {
        format!("fig1 top population: Ethernet {eth:?} < Aloha {aloha:?}")
    });
    let clamps: u64 = runs.iter().map(|r| r.clamps).sum();
    ctx.check(clamps == 0, || {
        format!("{clamps} events scheduled in the past")
    });
    if ctx.seed == 2003 {
        let (fig2, fig3) = (
            last_of(&runs[1], "Jobs Submitted"),
            last_of(&runs[2], "Jobs Submitted"),
        );
        ctx.check(fig2 == Some(2524.0), || {
            format!("fig2 jobs {fig2:?}, want 2524")
        });
        ctx.check(fig3 == Some(2690.0), || {
            format!("fig3 jobs {fig3:?}, want 2690")
        });
        let events: u64 = runs.iter().map(|r| r.events_popped).sum();
        ctx.check(events == PINNED_EVENTS_SEED_2003, || {
            format!("fig1-fig9 popped {events} events, want {PINNED_EVENTS_SEED_2003}")
        });
    }
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Measured {
    let mut timings = Vec::new();

    let seed = ctx.seed;
    let (setups, ()) = repeat_setup(ctx, || build_worlds(seed), drop);
    let setup_s = summarise(&mut timings, "setup_s", "cal_s", &setups);

    // Warm-up repetition: untimed, and the reference every timed
    // repetition's outputs must equal byte for byte.
    let sim_trace = ctx.tracer.on();
    let span = ctx.tracer.open("bench", "warmup");
    let (reference, ref_costs) = sweep(ctx, sim_trace);
    ctx.tracer.close(span);
    check_reference(ctx, &reference);
    let ref_json: Vec<String> = reference.iter().map(|r| r.set.to_json()).collect();

    let mut rates = Vec::new();
    let mut coord_us = Vec::new();
    let mut allocs_per_rep = Vec::new();
    let deadline = ctx.deadline();
    let mut rep = 0u32;
    while rep < 2 || Instant::now() < deadline {
        rep += 1;
        ctx.tracer.set_rep(rep);
        let span = ctx.tracer.open("bench", "rep");
        let (runs, costs) = sweep(ctx, sim_trace);
        ctx.tracer.close(span);
        for (i, (run, cost)) in runs.iter().zip(&costs).enumerate() {
            let same = run.set.to_json() == ref_json[i] && cost.events == ref_costs[i].events;
            ctx.check(same, || {
                format!("{} differs from the warm-up repetition", FIGURES[i])
            });
        }
        let events: u64 = costs.iter().map(|c| c.events).sum();
        let cal_s: f64 = costs.iter().map(|c| c.cal_s).sum();
        rates.push(events as f64 / cal_s);
        coord_us.push((costs[7].cal_s + costs[8].cal_s) * 1e6);
        allocs_per_rep.push(costs.iter().map(|c| c.allocs).sum::<u64>());
    }
    // A count, not a timing: repetitions allocate the same number of
    // times, up to the few rehashes that `HashMap`'s per-process random
    // keys move (a handful in a million).
    let lo = allocs_per_rep.iter().min().copied().unwrap_or(0);
    let hi = allocs_per_rep.iter().max().copied().unwrap_or(0);
    ctx.check((hi - lo) as f64 <= 1e-4 * lo as f64, || {
        format!("allocations differ between repetitions: {allocs_per_rep:?}")
    });

    let work_per_s = summarise(
        &mut timings,
        "work_per_s (events popped per s)",
        "1/cal_s",
        &rates,
    );
    let latency_us = summarise(
        &mut timings,
        "latency_us (fig8+fig9 regenerated)",
        "cal_us",
        &coord_us,
    );
    Measured {
        work_per_s,
        latency_us,
        setup_s,
        timings,
        latency_samples_us: coord_us,
    }
}
