//! The live arena: the fig2/fig3 submission study re-run on real
//! wall-clock against a real `gridd` daemon.
//!
//! Where the simulator multiplexes hundreds of virtual clients over
//! one event queue, the arena runs N *real* clients over real TCP at
//! a daemon whose schedd crashes under real concurrent overload (plus
//! whatever the fault plan forces). The population is a
//! [`crate::swarm`] — lightweight state machines multiplexed on one
//! epoll reactor, batching verbs over persistent connections — so the
//! arena scales from the historical 8 clients to 1000+ on one core.
//! The swarm emits the PR 2 trace schema in memory; the merged trace
//! feeds the existing postmortem with zero schema changes.
//!
//! This is also the multi-client extension of the conformance
//! harness: the full-scale simulation predicts the Ethernet>Aloha ordering
//! of completed jobs, and the daemon either confirms it (`CONFIRMS`)
//! or not — the verdict lands in `results/live_arena.md`.

use gridd::{ClientSnapshot, GriddConfig};
use gridworld::figures::{by_name_with_plan, Scale};
use retry::{BackoffPolicy, Discipline, Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
use simgrid::trace::TraceRecord;
use simgrid::{Series, SeriesSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Arena parameters. Defaults are the full-scale (≥8 clients) run;
/// [`LiveOptions::quick`] shrinks to the 3-client CI race.
#[derive(Clone, Debug)]
pub struct LiveOptions {
    /// Concurrent real clients per discipline.
    pub clients: usize,
    /// Jobs each client tries to push through the schedd.
    pub jobs: usize,
    /// How long the schedd holds a slot per accepted job. Longer
    /// service = longer busy windows = more blind submits per window.
    pub service: Duration,
    /// Uncovered submits (net of grant decay) that crash the schedd.
    /// Must sit above the occasional Ethernet sense-then-submit race
    /// but below a blind stampede's sustained pressure.
    pub crash_overloads: u32,
    /// Seed for VM jitter streams and the sim prediction.
    pub seed: u64,
    /// Where traces, postmortems, and the comparison table land.
    pub out_dir: PathBuf,
}

impl LiveOptions {
    /// Full arena: 8 concurrent clients, 6 jobs each, 2 service slots.
    pub fn full(seed: u64, out_dir: PathBuf) -> LiveOptions {
        LiveOptions {
            clients: 8,
            jobs: 6,
            service: Duration::from_millis(150),
            crash_overloads: 5,
            seed,
            out_dir,
        }
    }

    /// CI smoke arena: 3 concurrent clients, 3 jobs each, 1 slot.
    /// Slower service and a lower crash threshold keep the physics
    /// proportionate: 2 waiting clients can still crash the schedd by
    /// hammering, but a single sense race cannot.
    pub fn quick(seed: u64, out_dir: PathBuf) -> LiveOptions {
        LiveOptions {
            clients: 3,
            jobs: 3,
            service: Duration::from_millis(300),
            crash_overloads: 3,
            seed,
            out_dir,
        }
    }

    /// An arena scaled to an arbitrary population (the `--live-clients`
    /// path). Small populations keep the historical full-arena physics;
    /// larger ones shorten service and scale the crash threshold with
    /// the population, so an Aloha stampede still crashes the schedd
    /// while Ethernet's occasional stale-sense races do not.
    pub fn sized(clients: usize, seed: u64, out_dir: PathBuf) -> LiveOptions {
        if clients <= 8 {
            return LiveOptions {
                clients,
                ..LiveOptions::full(seed, out_dir)
            };
        }
        LiveOptions {
            clients,
            jobs: 4,
            service: Duration::from_millis(100),
            crash_overloads: (clients / 8).max(6) as u32,
            seed,
            out_dir,
        }
    }
}

/// What one discipline's run produced.
#[derive(Clone, Debug)]
pub struct DisciplineOutcome {
    /// Which discipline ran.
    pub discipline: Discipline,
    /// Per-client daemon counters at the end of the run.
    pub clients: Vec<ClientSnapshot>,
    /// Schedd crashes during the run (overload + plan-forced).
    pub crashes: u64,
    /// Merged, time-sorted trace of every client.
    pub trace: Vec<TraceRecord>,
    /// Wall-clock the whole population took.
    pub wall_s: f64,
    /// Client-observed dispatch rate (responses per second).
    pub dispatch_rate: f64,
    /// Requests the population put on the wire.
    pub verbs_sent: u64,
    /// Malformed or mismatched frames seen by clients (must be 0).
    pub protocol_errors: u64,
}

impl DisciplineOutcome {
    /// Total jobs the schedd serviced to completion.
    pub fn jobs_done(&self) -> u64 {
        self.clients.iter().map(|c| c.submit_ok).sum()
    }

    /// Total carrier-sense reads.
    pub fn df_calls(&self) -> u64 {
        self.clients.iter().map(|c| c.df_calls).sum()
    }

    /// Total submissions refused busy or down.
    pub fn failed_submits(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.submit_busy + c.submit_down + c.submit_lost)
            .sum()
    }
}

/// The whole arena: both disciplines plus the sim prediction.
#[derive(Clone, Debug)]
pub struct ArenaReport {
    /// Aloha's live outcome.
    pub aloha: DisciplineOutcome,
    /// Ethernet's live outcome.
    pub ethernet: DisciplineOutcome,
    /// Full-scale-sim predicted jobs (aloha, ethernet) — fig2/fig3.
    pub sim_jobs: (f64, f64),
    /// Did the daemon confirm the predicted Ethernet>Aloha ordering?
    pub confirms: bool,
}

/// Locate a sibling binary of the current executable (`gridctl` next
/// to `figures`, or one directory up from a test binary in `deps/`).
pub fn find_sibling(name: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    for _ in 0..3 {
        let cand = dir.join(name);
        if cand.is_file() {
            return Some(cand);
        }
        if !dir.pop() {
            break;
        }
    }
    None
}

/// The arena's adversarial schedule: forced schedd kills on top of
/// whatever the daemon's own overload physics produces. Identical for
/// both disciplines — the paper's point is how each *reacts*.
pub fn arena_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with(FaultSpec::repeating(
        Time::from_secs(1),
        Dur::from_secs(4),
        2,
        FaultKind::ScheddKill {
            downtime: Some(Dur::from_millis(1200)),
        },
    ))
}

/// The daemon the arena runs against: a genuinely contended schedd —
/// the slot pool is far smaller than the population, service takes
/// real time, and a *sustained* stampede crashes it. Every blind
/// (Aloha) submit while the pool is drained pushes the overload
/// counter toward the crash threshold; Ethernet's sense probe defers
/// instead. The threshold is high enough that the occasional
/// sense-then-submit race (two Ethernet clients both seeing the last
/// free slot) does not crash the schedd — only a population that
/// keeps hammering a drained pool does, which is the paper's point.
pub fn arena_config(opts: &LiveOptions) -> GriddConfig {
    GriddConfig {
        slots: (opts.clients / 4).max(1) as u64,
        service: opts.service,
        crash_overloads: opts.crash_overloads,
        downtime: Duration::from_secs(3),
        deadline: Duration::from_secs(8),
        plan: arena_plan(opts.seed),
        ..GriddConfig::default()
    }
}

/// The live backoff policy: the paper's exponential shape scaled to
/// the arena's seconds-long window (100 ms base, 2 s cap). Fixed runs
/// with no backoff, as always.
pub fn live_backoff(discipline: Discipline) -> BackoffPolicy {
    match discipline {
        Discipline::Fixed => BackoffPolicy::None,
        _ => BackoffPolicy::exponential(Dur::from_millis(100), Dur::from_secs(2)),
    }
}

/// Run one discipline's population against a fresh daemon: one epoll
/// swarm of lightweight clients over persistent connections.
pub fn run_discipline(
    discipline: Discipline,
    opts: &LiveOptions,
) -> std::io::Result<DisciplineOutcome> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let handle = gridd::start(arena_config(opts))?;
    let addr = handle.addr().to_string();
    let label = discipline.label().to_lowercase();

    let mut sopts =
        crate::swarm::SwarmOptions::arena(discipline, opts.clients, opts.jobs, addr, opts.seed);
    sopts.backoff = live_backoff(discipline);
    let mut report = crate::swarm::run(sopts)?;

    let (clients, crashes) = handle.snapshot();
    handle.shutdown();

    // The merged in-memory trace feeds the postmortem pipeline.
    let trace = std::mem::take(&mut report.trace);
    let merged = opts.out_dir.join(format!("live-{label}.jsonl"));
    std::fs::write(&merged, simgrid::trace::to_jsonl(&trace))?;
    let summary = simgrid::TraceSummary::from_records(&trace);
    std::fs::write(
        opts.out_dir.join(format!("live-{label}-postmortem.txt")),
        summary.render(),
    )?;

    Ok(DisciplineOutcome {
        discipline,
        clients,
        crashes,
        trace,
        wall_s: report.wall_s,
        dispatch_rate: report.dispatch_rate(),
        verbs_sent: report.verbs_sent,
        protocol_errors: report.protocol_errors,
    })
}

/// Jobs the full-scale simulation predicts for a submit-timeline figure.
fn sim_prediction(fig: &str, seed: u64) -> f64 {
    by_name_with_plan(fig, Scale::Full, seed, false, None)
        .and_then(|run| run.set.get("Jobs Submitted").and_then(Series::last))
        .unwrap_or(f64::NAN)
}

/// Run the whole arena: Aloha then Ethernet against fresh daemons,
/// compare with the full-scale sim fig2/fig3 prediction, and write
/// `live_arena.json` + `live_arena.md` under `out_dir`.
pub fn run_arena(opts: &LiveOptions) -> std::io::Result<ArenaReport> {
    let aloha = run_discipline(Discipline::Aloha, opts)?;
    let ethernet = run_discipline(Discipline::Ethernet, opts)?;
    let sim_jobs = (
        sim_prediction("fig2", opts.seed),
        sim_prediction("fig3", opts.seed),
    );
    let sim_predicts = sim_jobs.1 > sim_jobs.0;
    let live_confirms = ethernet.jobs_done() > aloha.jobs_done();
    let confirms = sim_predicts && live_confirms;

    // results/live_arena.json — per-client completions per discipline,
    // in the same metrics shape every figure uses.
    let mut set = SeriesSet::new(
        "Live arena: jobs completed per client",
        "client",
        "jobs completed",
    );
    for out in [&aloha, &ethernet] {
        let mut s = Series::new(out.discipline.label());
        for c in &out.clients {
            s.push_xy(c.client as f64, c.submit_ok as f64);
        }
        set.add(s);
    }
    std::fs::create_dir_all(&opts.out_dir)?;
    std::fs::write(opts.out_dir.join("live_arena.json"), set.to_json_pretty())?;
    std::fs::write(
        opts.out_dir.join("live_arena.md"),
        render_table(&aloha, &ethernet, sim_jobs, confirms, opts),
    )?;

    Ok(ArenaReport {
        aloha,
        ethernet,
        sim_jobs,
        confirms,
    })
}

/// The live-vs-sim comparison table (also reproduced in
/// EXPERIMENTS.md).
fn render_table(
    aloha: &DisciplineOutcome,
    ethernet: &DisciplineOutcome,
    sim_jobs: (f64, f64),
    confirms: bool,
    opts: &LiveOptions,
) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# Live arena vs. simulation (fig2/fig3)\n");
    let _ = writeln!(
        md,
        "{} concurrent real clients x {} jobs, seed {}.\n",
        opts.clients, opts.jobs, opts.seed
    );
    let _ = writeln!(
        md,
        "| discipline | live jobs done | live failed submits | live sense reads | schedd crashes | dispatch (verbs/s) | wall (s) | sim jobs (full sim) |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
    for (out, sim) in [(aloha, sim_jobs.0), (ethernet, sim_jobs.1)] {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {:.0} | {:.1} | {:.0} |",
            out.discipline.label(),
            out.jobs_done(),
            out.failed_submits(),
            out.df_calls(),
            out.crashes,
            out.dispatch_rate,
            out.wall_s,
            sim,
        );
    }
    let _ = writeln!(
        md,
        "\nSim predicts Ethernet > Aloha; the live daemon **{}** it.",
        if confirms {
            "CONFIRMS"
        } else {
            "DOES NOT CONFIRM"
        }
    );
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_plan_forces_schedd_kills() {
        let plan = arena_plan(7);
        let kills: Vec<_> = plan
            .specs
            .iter()
            .filter(|s| matches!(s.kind, FaultKind::ScheddKill { .. }))
            .collect();
        assert_eq!(kills.len(), 1);
        assert_eq!(kills[0].count, 2);
    }
}
