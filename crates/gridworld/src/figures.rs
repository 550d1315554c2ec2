//! Regeneration of every figure in the paper's evaluation (§5).
//!
//! Each function runs the corresponding scenario and returns a
//! [`SeriesSet`] whose series match the figure's legend. Absolute
//! numbers come from a simulated testbed and differ from the paper's
//! 2003 hardware; the *shapes* — who wins, where Fixed collapses,
//! where the broadcast-jam spikes appear — are the reproduction
//! target (see EXPERIMENTS.md).

use crate::coord::allreduce::{run_allreduce_traced, AllReduceParams};
use crate::coord::dag::{run_dag_traced, DagParams};
use crate::scenarios::blackhole::{run_blackhole_traced, BlackHoleParams};
use crate::scenarios::buffer::{run_buffer_traced, BufferParams};
use crate::scenarios::submit::{run_submission_traced, SubmitParams};
use crate::sweep;
use retry::{Discipline, Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
use simgrid::trace::{SharedSink, TraceRecord, VecSink};
use simgrid::{Series, SeriesSet};
use std::sync::{Arc, Mutex};

/// One regenerated figure plus its engine-work count and (when
/// requested) its structured trace.
///
/// Sweep figures run one independent simulation per (discipline,
/// population) point, possibly on several threads; the trace is the
/// concatenation of each point's records **in point order**, so the
/// bytes are identical no matter how the sweep was scheduled.
pub struct FigureRun {
    /// The figure's series.
    pub set: SeriesSet,
    /// Events popped across every simulation run behind this figure
    /// (aggregated per run — see [`crate::driver::SimDriver::events_popped`]).
    pub events_popped: u64,
    /// VM ticks issued across every run behind this figure (per-driver
    /// counts summed — see [`crate::driver::SimDriver::vm_ticks`]).
    pub vm_ticks: u64,
    /// Past-scheduled events clamped forward to `now`, summed over
    /// every run behind this figure. Always zero in a healthy run;
    /// surfaced by `figures --stats` as a regression tripwire.
    pub clamps: u64,
    /// Events scheduled past their run's end and so never stored,
    /// summed over every run behind this figure (see
    /// [`crate::driver::SimDriver::discarded`]).
    pub discarded: u64,
    /// Structured-trace records, present only when tracing was
    /// requested. Timestamps restart at `T+0` for each sweep point.
    pub trace: Option<Vec<TraceRecord>>,
}

/// A per-point trace collector: `(sink to install, handle to drain)`,
/// both `None` when tracing is off.
#[allow(clippy::type_complexity)]
fn point_sink(traced: bool) -> (Option<SharedSink>, Option<Arc<Mutex<VecSink>>>) {
    if traced {
        let h = Arc::new(Mutex::new(VecSink::new()));
        (Some(h.clone() as SharedSink), Some(h))
    } else {
        (None, None)
    }
}

/// A coordinated figure's own injections with a custom plan appended
/// after them; the custom plan's seed drives the RNG stream.
fn with_custom(mut own: FaultPlan, custom: Option<&FaultPlan>) -> FaultPlan {
    if let Some(c) = custom {
        own.seed = c.seed;
        own.extend_from(c);
    }
    own
}

/// What one simulation run contributes to its figure besides the
/// plotted values: its engine-work counters and its trace records.
struct RunWork {
    events_popped: u64,
    vm_ticks: u64,
    clamps: u64,
    discarded: u64,
    trace: Vec<TraceRecord>,
}

/// One run's [`RunWork`]: the counters every scenario outcome `o`
/// carries, plus whatever the point's trace collector gathered.
macro_rules! work {
    ($o:ident, $handle:expr) => {
        RunWork {
            events_popped: $o.events_popped,
            vm_ticks: $o.vm_ticks,
            clamps: $o.queue_clamps,
            discarded: $o.events_discarded,
            trace: $handle
                .map(|h| h.lock().expect("trace sink lock").take())
                .unwrap_or_default(),
        }
    };
}

impl FigureRun {
    /// A figure from its series and the work of every run behind it,
    /// summed — and the traces concatenated — in run order.
    fn assemble(
        set: SeriesSet,
        works: impl IntoIterator<Item = RunWork>,
        traced: bool,
    ) -> FigureRun {
        let mut run = FigureRun {
            set,
            events_popped: 0,
            vm_ticks: 0,
            clamps: 0,
            discarded: 0,
            trace: traced.then(Vec::new),
        };
        for w in works {
            run.events_popped += w.events_popped;
            run.vm_ticks += w.vm_ticks;
            run.clamps += w.clamps;
            run.discarded += w.discarded;
            if let Some(trace) = &mut run.trace {
                trace.extend(w.trace);
            }
        }
        run
    }
}

/// The cross product of disciplines and population sizes, in figure
/// order: one independent simulation point each, ready for a parallel
/// sweep.
fn cross_points(ns: &[usize]) -> Vec<(Discipline, usize)> {
    Discipline::ALL
        .iter()
        .flat_map(|&d| ns.iter().map(move |&n| (d, n)))
        .collect()
}

/// Reassemble per-point sweep results (in `cross_points` order) into
/// one series per discipline.
fn series_per_discipline(set: &mut SeriesSet, ns: &[usize], values: Vec<f64>) {
    let mut it = values.into_iter();
    for d in Discipline::ALL {
        let mut series = Series::new(d.label());
        for &n in ns {
            series.push_xy(n as f64, it.next().expect("one value per point"));
        }
        set.add(series);
    }
}

/// Scale of a figure run: `full` matches the paper's population sizes
/// and windows; `quick` is a reduced version for CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale populations and windows.
    Full,
    /// Reduced sizes for fast iteration.
    Quick,
}

impl Scale {
    fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Figure 1 — *Scalability of Job Submission*: jobs submitted in a
/// five-minute window vs. number of submitters, for the three
/// disciplines.
pub fn fig1_submission_scalability(scale: Scale, seed: u64) -> SeriesSet {
    fig1_run(scale, seed, false, None).set
}

fn fig1_run(scale: Scale, seed: u64, traced: bool, plan: Option<&FaultPlan>) -> FigureRun {
    let ns: Vec<usize> = scale.pick(
        vec![
            5, 10, 25, 50, 100, 150, 200, 250, 300, 350, 400, 425, 450, 500,
        ],
        vec![50, 200, 450],
    );
    let window = scale.pick(Dur::from_mins(5), Dur::from_secs(90));
    let mut set = SeriesSet::new(
        "Figure 1: Scalability of Job Submission",
        "Number of Submitters",
        "Jobs Submitted",
    );
    let points = cross_points(&ns);
    let results = sweep::map(&points, |&(d, n)| {
        let (sink, handle) = point_sink(traced);
        let params = SubmitParams {
            n_clients: n,
            discipline: d,
            seed: seed ^ (n as u64),
            fault_plan: plan.cloned().unwrap_or_default(),
            ..SubmitParams::default()
        };
        let o = run_submission_traced(params, window, sink);
        (o.jobs_submitted as f64, work!(o, handle))
    });
    let (jobs, works): (Vec<f64>, Vec<RunWork>) = results.into_iter().unzip();
    series_per_discipline(&mut set, &ns, jobs);
    FigureRun::assemble(set, works, traced)
}

/// Figure 1x — *Submission at Population Extremes*: Figure 1's
/// population axis pushed two to three orders of magnitude past the
/// paper's 500 submitters, up to 100 000 concurrent ftsh clients
/// against the same single schedd. Ethernet and Aloha only: both are
/// self-limiting (carrier sense, exponential backoff), so their event
/// volume stays proportional to the population. Fixed retries without
/// delay, which makes its event count scale with the window instead of
/// the population — its collapse is already established by Figure 1,
/// so it is excluded rather than simulated at ruinous cost.
pub fn fig1x_population_extremes(scale: Scale, seed: u64) -> SeriesSet {
    fig1x_run(scale, seed, false, None).set
}

/// The disciplines fig1x sweeps (see [`fig1x_population_extremes`]).
const FIG1X_DISCIPLINES: [Discipline; 2] = [Discipline::Ethernet, Discipline::Aloha];

fn fig1x_run(scale: Scale, seed: u64, traced: bool, plan: Option<&FaultPlan>) -> FigureRun {
    let ns: Vec<usize> = scale.pick(
        vec![1_000, 3_000, 10_000, 30_000, 100_000],
        vec![1_000, 10_000],
    );
    // A shorter window than fig1: at these populations the FD table
    // saturates within seconds, so steady state arrives almost
    // immediately and a two-minute window already averages over many
    // backoff generations.
    let window = scale.pick(Dur::from_secs(120), Dur::from_secs(45));
    let mut set = SeriesSet::new(
        "Figure 1x: Submission at Population Extremes",
        "Number of Submitters",
        "Jobs Submitted",
    );
    let points: Vec<(Discipline, usize)> = FIG1X_DISCIPLINES
        .iter()
        .flat_map(|&d| ns.iter().map(move |&n| (d, n)))
        .collect();
    let results = sweep::map(&points, |&(d, n)| {
        let (sink, handle) = point_sink(traced);
        let params = SubmitParams {
            n_clients: n,
            discipline: d,
            seed: seed ^ (n as u64),
            // Spread the start burst over a minute: 100k clients
            // arriving within fig1's 10 s would all collide before
            // carrier sense has anything to measure.
            start_stagger: Dur::from_secs(60),
            fault_plan: plan.cloned().unwrap_or_default(),
            ..SubmitParams::default()
        };
        let o = run_submission_traced(params, window, sink);
        (o.jobs_submitted as f64, work!(o, handle))
    });
    let (jobs, works): (Vec<f64>, Vec<RunWork>) = results.into_iter().unzip();
    let mut it = jobs.into_iter();
    for d in FIG1X_DISCIPLINES {
        let mut series = Series::new(d.label());
        for &n in &ns {
            series.push_xy(n as f64, it.next().expect("one value per point"));
        }
        set.add(series);
    }
    FigureRun::assemble(set, works, traced)
}

fn submit_timeline(
    d: Discipline,
    scale: Scale,
    seed: u64,
    traced: bool,
    plan: Option<&FaultPlan>,
    title: &str,
) -> FigureRun {
    // The paper ran its timelines at 400 submitters, just past its
    // testbed's crash knee; our knee sits at ~405 attempts' worth of
    // descriptors, so 425 puts the timeline in the same regime.
    let params = SubmitParams {
        n_clients: scale.pick(425, 120),
        discipline: d,
        seed,
        fault_plan: plan.cloned().unwrap_or_default(),
        ..SubmitParams::default()
    };
    let window = scale.pick(Dur::from_secs(1800), Dur::from_secs(300));
    let (sink, handle) = point_sink(traced);
    let o = run_submission_traced(params, window, sink);
    let work = work!(o, handle);
    let mut set = SeriesSet::new(title, "Time (s)", "Available FDs / Jobs Submitted");
    let mut fd = o.fd_series;
    fd.name = "Available FDs".into();
    let mut jobs = o.jobs_series;
    jobs.name = "Jobs Submitted".into();
    set.add(fd);
    set.add(jobs);
    FigureRun::assemble(set, [work], traced)
}

/// Figure 2 — *Timeline of Aloha Submitter*: available FDs and
/// cumulative jobs over 30 minutes with the submitter population just
/// past the crash knee.
pub fn fig2_aloha_timeline(scale: Scale, seed: u64) -> SeriesSet {
    fig2_run(scale, seed, false, None).set
}

fn fig2_run(scale: Scale, seed: u64, traced: bool, plan: Option<&FaultPlan>) -> FigureRun {
    submit_timeline(
        Discipline::Aloha,
        scale,
        seed,
        traced,
        plan,
        "Figure 2: Timeline of Aloha Submitter",
    )
}

/// Figure 3 — *Timeline of Ethernet Submitter*: as Figure 2 for the
/// Ethernet discipline.
pub fn fig3_ethernet_timeline(scale: Scale, seed: u64) -> SeriesSet {
    fig3_run(scale, seed, false, None).set
}

fn fig3_run(scale: Scale, seed: u64, traced: bool, plan: Option<&FaultPlan>) -> FigureRun {
    submit_timeline(
        Discipline::Ethernet,
        scale,
        seed,
        traced,
        plan,
        "Figure 3: Timeline of Ethernet Submitter",
    )
}

/// The steady-state measurement window for the buffer figures: run
/// until the buffer has been saturated, then count what the consumer
/// drains in the last segment.
fn buffer_run(
    d: Discipline,
    n: usize,
    scale: Scale,
    seed: u64,
    traced: bool,
    plan: Option<&FaultPlan>,
) -> (f64, u64, RunWork) {
    let total = scale.pick(Dur::from_secs(180), Dur::from_secs(120));
    let measure_from = scale.pick(Dur::from_secs(120), Dur::from_secs(80));
    let params = BufferParams {
        n_producers: n,
        discipline: d,
        seed: seed ^ (n as u64),
        fault_plan: plan.cloned().unwrap_or_default(),
        ..BufferParams::default()
    };
    let (sink, handle) = point_sink(traced);
    let o = run_buffer_traced(params, total, sink);
    let consumed = o.consumed_between(Time::ZERO + measure_from, Time::ZERO + total);
    (consumed, o.collisions, work!(o, handle))
}

/// Figure 4 — *Buffer Throughput*: files consumed in the steady-state
/// window vs. number of producers.
pub fn fig4_buffer_throughput(scale: Scale, seed: u64) -> SeriesSet {
    fig4_run(scale, seed, false, None).set
}

fn fig4_run(scale: Scale, seed: u64, traced: bool, plan: Option<&FaultPlan>) -> FigureRun {
    let ns: Vec<usize> = scale.pick(vec![5, 10, 15, 20, 25, 30, 35, 40, 45, 50], vec![10, 40]);
    let mut set = SeriesSet::new(
        "Figure 4: Buffer Throughput",
        "Number of Producers",
        "Total Files Consumed",
    );
    let points = cross_points(&ns);
    let results = sweep::map(&points, |&(d, n)| {
        let (consumed, _, work) = buffer_run(d, n, scale, seed, traced, plan);
        (consumed, work)
    });
    let (consumed, works): (Vec<f64>, Vec<RunWork>) = results.into_iter().unzip();
    series_per_discipline(&mut set, &ns, consumed);
    FigureRun::assemble(set, works, traced)
}

/// Figure 5 — *Buffer Collisions*: mid-write ENOSPC collisions over
/// the whole run vs. number of producers.
pub fn fig5_buffer_collisions(scale: Scale, seed: u64) -> SeriesSet {
    fig5_run(scale, seed, false, None).set
}

fn fig5_run(scale: Scale, seed: u64, traced: bool, plan: Option<&FaultPlan>) -> FigureRun {
    let ns: Vec<usize> = scale.pick(vec![5, 10, 15, 20, 25, 30, 35, 40, 45, 50], vec![10, 40]);
    let mut set = SeriesSet::new(
        "Figure 5: Buffer Collisions",
        "Number of Producers",
        "Total Collisions",
    );
    let points = cross_points(&ns);
    let results = sweep::map(&points, |&(d, n)| {
        let (_, collisions, work) = buffer_run(d, n, scale, seed, traced, plan);
        (collisions as f64, work)
    });
    let (collisions, works): (Vec<f64>, Vec<RunWork>) = results.into_iter().unzip();
    series_per_discipline(&mut set, &ns, collisions);
    FigureRun::assemble(set, works, traced)
}

fn reader_figure(
    d: Discipline,
    scale: Scale,
    seed: u64,
    traced: bool,
    plan: Option<&FaultPlan>,
    title: &str,
) -> FigureRun {
    let params = BlackHoleParams {
        discipline: d,
        seed,
        fault_plan: plan.cloned().unwrap_or_default(),
        ..BlackHoleParams::default()
    };
    let window = scale.pick(Dur::from_secs(900), Dur::from_secs(300));
    let (sink, handle) = point_sink(traced);
    let o = run_blackhole_traced(params, window, sink);
    let work = work!(o, handle);
    let mut set = SeriesSet::new(title, "Time (s)", "Number of Events");
    let mut t = o.transfer_series;
    t.name = "Transfers".into();
    set.add(t);
    if d == Discipline::Ethernet {
        let mut s = o.deferral_series;
        s.name = "Deferrals".into();
        set.add(s);
    } else {
        let mut s = o.collision_series;
        s.name = "Collisions".into();
        set.add(s);
    }
    FigureRun::assemble(set, [work], traced)
}

/// Figure 6 — *Aloha File Reader*: cumulative transfers and collisions
/// over 900 s with one black-hole server.
pub fn fig6_aloha_reader(scale: Scale, seed: u64) -> SeriesSet {
    fig6_run(scale, seed, false, None).set
}

fn fig6_run(scale: Scale, seed: u64, traced: bool, plan: Option<&FaultPlan>) -> FigureRun {
    reader_figure(
        Discipline::Aloha,
        scale,
        seed,
        traced,
        plan,
        "Figure 6: Aloha File Reader",
    )
}

/// Figure 7 — *Ethernet File Reader*: cumulative transfers and
/// deferrals over 900 s with one black-hole server.
pub fn fig7_ethernet_reader(scale: Scale, seed: u64) -> SeriesSet {
    fig7_run(scale, seed, false, None).set
}

fn fig7_run(scale: Scale, seed: u64, traced: bool, plan: Option<&FaultPlan>) -> FigureRun {
    reader_figure(
        Discipline::Ethernet,
        scale,
        seed,
        traced,
        plan,
        "Figure 7: Ethernet File Reader",
    )
}

/// Figure 8 — *Fault-Tolerant All-Reduce*: per-round global completion
/// time for N ranks barriering through the shared store, with one rank
/// killed mid-round and restarted. One series per discipline; lower and
/// complete is better (a missing point is a round the discipline never
/// globally finished inside the window).
pub fn fig8_allreduce(scale: Scale, seed: u64) -> SeriesSet {
    fig8_run(scale, seed, false, None).set
}

/// The built-in fig8 injection: rank 1 is killed 4 s in — mid-compute
/// of the first round for every discipline — and restarts 6 s later,
/// forcing the barrier to hold while the straggler catches up.
pub fn fig8_kill_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with(FaultSpec::once(
        Time::ZERO + Dur::from_secs(4),
        FaultKind::ClientKill {
            client: 1,
            restart: Some(Dur::from_secs(6)),
        },
    ))
}

/// The workload fig8 actually runs at `scale`: `(rounds, window,
/// fault plan)` with any custom plan appended to the kill, exactly as
/// [`fig8_allreduce`] would. The figures harness feeds this to the
/// static workflow checker before committing to a run.
pub fn fig8_workload(scale: Scale, seed: u64, custom: Option<&FaultPlan>) -> (u32, Dur, FaultPlan) {
    (
        scale.pick(3, 2),
        scale.pick(Dur::from_secs(600), Dur::from_secs(300)),
        with_custom(fig8_kill_plan(seed), custom),
    )
}

fn fig8_run(scale: Scale, seed: u64, traced: bool, plan: Option<&FaultPlan>) -> FigureRun {
    let (rounds, window, faults) = fig8_workload(scale, seed, plan);
    let mut set = SeriesSet::new(
        "Figure 8: Fault-Tolerant All-Reduce (kill + restart)",
        "Round",
        "Global Completion Time (s)",
    );
    let results = sweep::map(&Discipline::ALL, |&d| {
        let params = AllReduceParams {
            discipline: d,
            rounds,
            seed,
            fault_plan: faults.clone(),
            ..AllReduceParams::default()
        };
        let (sink, handle) = point_sink(traced);
        let o = run_allreduce_traced(params, window, sink);
        let work = work!(o, handle);
        (o.round_series, work)
    });
    let (series, works): (Vec<Series>, Vec<RunWork>) = results.into_iter().unzip();
    for s in series {
        set.add(s);
    }
    FigureRun::assemble(set, works, traced)
}

/// Figure 9 — *Swift-Style DAG Workflow*: per-job completion time for
/// the eight-job diamond workflow flowing through the shared store,
/// with an ENOSPC window corrupting publishes early on and the `merge`
/// job killed (and restarted) mid-flight. One series per discipline;
/// the x axis is the job's index in the spec, the last point is the
/// workflow makespan.
pub fn fig9_dag(scale: Scale, seed: u64) -> SeriesSet {
    fig9_run(scale, seed, false, None).set
}

/// The built-in fig9 injection: publishes fail for 8 s starting 1 s in
/// (the store "fills up" under the first wave of outputs), and the
/// `merge` job — the diamond's waist — is killed 6 s in, restarting
/// 5 s later.
pub fn fig9_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(FaultSpec::once(
            Time::ZERO + Dur::from_secs(1),
            FaultKind::EnospcWindow {
                duration: Dur::from_secs(8),
            },
        ))
        .with(FaultSpec::once(
            Time::ZERO + Dur::from_secs(6),
            FaultKind::ClientKill {
                client: 4,
                restart: Some(Dur::from_secs(5)),
            },
        ))
}

/// The workload fig9 actually runs at `scale`: `(window, fault plan)`,
/// custom plan appended exactly as [`fig9_dag`] would.
pub fn fig9_workload(scale: Scale, seed: u64, custom: Option<&FaultPlan>) -> (Dur, FaultPlan) {
    (
        scale.pick(Dur::from_secs(600), Dur::from_secs(300)),
        with_custom(fig9_fault_plan(seed), custom),
    )
}

fn fig9_run(scale: Scale, seed: u64, traced: bool, plan: Option<&FaultPlan>) -> FigureRun {
    let (window, faults) = fig9_workload(scale, seed, plan);
    let mut set = SeriesSet::new(
        "Figure 9: DAG Workflow (ENOSPC window + merge kill)",
        "Job Index (spec order)",
        "Completion Time (s)",
    );
    let results = sweep::map(&Discipline::ALL, |&d| {
        let params = DagParams {
            discipline: d,
            seed,
            fault_plan: faults.clone(),
            ..DagParams::default()
        };
        let (sink, handle) = point_sink(traced);
        let o = run_dag_traced(params, window, sink);
        let work = work!(o, handle);
        (o.job_series, work)
    });
    let (series, works): (Vec<Series>, Vec<RunWork>) = results.into_iter().unzip();
    for s in series {
        set.add(s);
    }
    FigureRun::assemble(set, works, traced)
}

/// Ablation A — carrier-sense threshold sweep: jobs submitted and
/// schedd crashes vs. the Ethernet client's free-FD threshold, in the
/// overload regime. Shows the knob the paper fixes at 1000: too low
/// reverts to Aloha behaviour, too high over-defers.
pub fn ablation_threshold_sweep(scale: Scale, seed: u64) -> SeriesSet {
    ablation_threshold_run(scale, seed, false, None).set
}

fn ablation_threshold_run(
    scale: Scale,
    seed: u64,
    traced: bool,
    plan: Option<&FaultPlan>,
) -> FigureRun {
    let thresholds: Vec<u64> = scale.pick(
        vec![0, 100, 500, 1000, 2000, 4000, 6000, 7000, 7500, 7900],
        vec![0, 1000, 4000],
    );
    let window = scale.pick(Dur::from_mins(5), Dur::from_secs(90));
    let mut set = SeriesSet::new(
        "Ablation: carrier-sense threshold (450 submitters)",
        "Threshold (free FDs)",
        "Jobs Submitted / Crashes",
    );
    let mut jobs = Series::new("Jobs");
    let mut crashes = Series::new("Crashes");
    let outcomes = sweep::map(&thresholds, |&t| {
        let (sink, handle) = point_sink(traced);
        let params = SubmitParams {
            n_clients: 450,
            discipline: Discipline::Ethernet,
            threshold: t,
            seed,
            fault_plan: plan.cloned().unwrap_or_default(),
            ..SubmitParams::default()
        };
        let o = run_submission_traced(params, window, sink);
        let work = work!(o, handle);
        ((o.jobs_submitted, o.crashes), work)
    });
    let (counts, works): (Vec<(u64, u64)>, Vec<RunWork>) = outcomes.into_iter().unzip();
    for (&t, (j, c)) in thresholds.iter().zip(counts) {
        jobs.push_xy(t as f64, j as f64);
        crashes.push_xy(t as f64, c as f64);
    }
    set.add(jobs);
    set.add(crashes);
    FigureRun::assemble(set, works, traced)
}

/// Ablation B — the shared-channel story of §3: throughput S vs.
/// offered load G for the three station disciplines on a slotted
/// medium (the "Aloha saturates" remark, mechanically).
pub fn ablation_channel_saturation(scale: Scale, seed: u64) -> SeriesSet {
    use simgrid::simulate_channel;
    let ps: Vec<f64> = scale.pick(
        vec![0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1],
        vec![0.005, 0.05],
    );
    let slots = scale.pick(100_000, 10_000);
    let mut set = SeriesSet::new(
        "Ablation: slotted-channel throughput (50 stations)",
        "Offered load G (new frames/slot)",
        "Throughput S (successes/slot)",
    );
    for d in Discipline::ALL {
        let mut series = Series::new(d.label());
        for &p in &ps {
            let st = simulate_channel(d, 50, p, slots, seed);
            series.push_xy(st.offered_load(), st.throughput());
        }
        set.add(series);
    }
    set
}

/// All figures by id (`"fig1"` … `"fig7"`, plus the ablations
/// `"ablation-threshold"` and `"ablation-channel"`).
pub fn by_name(name: &str, scale: Scale, seed: u64) -> Option<SeriesSet> {
    by_name_full(name, scale, seed, false).map(|r| r.set)
}

/// [`by_name`] with the engine-work count and (when `traced`) the
/// figure's structured trace. The trace is bit-deterministic per seed:
/// sweep points collect into private buffers that are concatenated in
/// point order, so sequential and parallel sweeps produce identical
/// bytes. `ablation-channel` has no VMs or event queue; it traces
/// nothing and reports zero events.
pub fn by_name_full(name: &str, scale: Scale, seed: u64, traced: bool) -> Option<FigureRun> {
    by_name_with_plan(name, scale, seed, traced, None)
}

/// [`by_name_full`] with an optional custom fault plan, injected into
/// every run behind the figure (fig8 and fig9 append it to their own
/// injections). The plan never changes a world's constants.
/// `ablation-channel` has no event queue; it ignores the plan.
pub fn by_name_with_plan(
    name: &str,
    scale: Scale,
    seed: u64,
    traced: bool,
    plan: Option<&FaultPlan>,
) -> Option<FigureRun> {
    Some(match name {
        "fig1" => fig1_run(scale, seed, traced, plan),
        "fig1x" => fig1x_run(scale, seed, traced, plan),
        "fig2" => fig2_run(scale, seed, traced, plan),
        "fig3" => fig3_run(scale, seed, traced, plan),
        "fig4" => fig4_run(scale, seed, traced, plan),
        "fig5" => fig5_run(scale, seed, traced, plan),
        "fig6" => fig6_run(scale, seed, traced, plan),
        "fig7" => fig7_run(scale, seed, traced, plan),
        "fig8" => fig8_run(scale, seed, traced, plan),
        "fig9" => fig9_run(scale, seed, traced, plan),
        "ablation-threshold" => ablation_threshold_run(scale, seed, traced, plan),
        "ablation-channel" => {
            FigureRun::assemble(ablation_channel_saturation(scale, seed), [], traced)
        }
        _ => return None,
    })
}

/// The ids of the extra ablation figures.
pub const ALL_ABLATIONS: [&str; 2] = ["ablation-threshold", "ablation-channel"];

/// The ids of the extended (beyond-paper) figures. Kept out of
/// [`ALL_FIGURES`] so `figures all` and the determinism gate stay at
/// paper scale; regenerate explicitly with `figures fig1x`.
pub const EXTENDED_FIGURES: [&str; 1] = ["fig1x"];

/// The ids of the coordinated-workload figures (beyond the paper's
/// seven, see [`crate::coord`]). Kept out of [`ALL_FIGURES`] so
/// `figures all` stays at paper scale; regenerate explicitly with
/// `figures fig8` / `figures fig9`.
pub const COORD_FIGURES: [&str; 2] = ["fig8", "fig9"];

/// The ids of all figures.
pub const ALL_FIGURES: [&str; 7] = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig1_has_three_disciplines() {
        let set = fig1_submission_scalability(Scale::Quick, 1);
        assert_eq!(set.series.len(), 3);
        for s in &set.series {
            assert_eq!(s.len(), 3, "three population sizes in quick mode");
        }
        // Shape: at the overload point (450), Ethernet > Fixed.
        let eth = set.get("Ethernet").unwrap().points.last().unwrap().1;
        let fix = set.get("Fixed").unwrap().points.last().unwrap().1;
        assert!(eth > fix, "ethernet {eth} vs fixed {fix}");
    }

    #[test]
    fn quick_timelines_have_two_series() {
        for f in [
            fig2_aloha_timeline(Scale::Quick, 1),
            fig3_ethernet_timeline(Scale::Quick, 1),
        ] {
            assert_eq!(f.series.len(), 2);
            assert!(f.series.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn quick_reader_figures() {
        let f6 = fig6_aloha_reader(Scale::Quick, 1);
        assert!(f6.get("Transfers").is_some());
        assert!(f6.get("Collisions").is_some());
        let f7 = fig7_ethernet_reader(Scale::Quick, 1);
        assert!(f7.get("Transfers").is_some());
        assert!(f7.get("Deferrals").is_some());
    }

    #[test]
    fn quick_ablations_have_shape() {
        let t = ablation_threshold_sweep(Scale::Quick, 1);
        assert_eq!(t.series.len(), 2);
        let jobs = t.get("Jobs").unwrap();
        // Threshold 1000 beats threshold 0 in the overload regime.
        assert!(jobs.points[1].1 > jobs.points[0].1);

        let c = ablation_channel_saturation(Scale::Quick, 1);
        let eth = c.get("Ethernet").unwrap().last().unwrap();
        let alo = c.get("Aloha").unwrap().last().unwrap();
        let fix = c.get("Fixed").unwrap().last().unwrap();
        assert!(eth > alo && alo > fix);
    }

    #[test]
    fn by_name_covers_all() {
        for name in ALL_FIGURES.iter().chain(&COORD_FIGURES) {
            // Only check dispatch, not execution, for the heavy ones.
            assert!(name.starts_with("fig"));
        }
        assert!(by_name("fig10", Scale::Quick, 0).is_none());
    }

    #[test]
    fn quick_coord_figures_have_shape() {
        // fig8: three discipline series, each completing both quick
        // rounds despite the kill, with Ethernet's global completion
        // no later than Aloha's.
        let f8 = fig8_allreduce(Scale::Quick, 1);
        assert_eq!(f8.series.len(), 3);
        for s in &f8.series {
            assert_eq!(s.len(), 2, "{}: both rounds complete", s.name);
        }
        let eth = f8.get("Ethernet").unwrap().last().unwrap();
        let alo = f8.get("Aloha").unwrap().last().unwrap();
        assert!(eth <= alo, "ethernet {eth} vs aloha {alo}");

        // fig9: all eight jobs finish under the faults; the makespan
        // (last point) keeps the same ordering.
        let f9 = fig9_dag(Scale::Quick, 1);
        assert_eq!(f9.series.len(), 3);
        for s in &f9.series {
            assert_eq!(s.len(), 8, "{}: all jobs complete", s.name);
        }
        let eth = f9.get("Ethernet").unwrap().last().unwrap();
        let alo = f9.get("Aloha").unwrap().last().unwrap();
        assert!(eth <= alo, "ethernet {eth} vs aloha {alo}");
    }
}
