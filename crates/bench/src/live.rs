//! The live arena: the fig2/fig3 submission study re-run on real
//! wall-clock against a real `gridd` daemon.
//!
//! Where the simulator multiplexes hundreds of virtual clients over
//! one event queue, the arena runs N *real* clients over real TCP at
//! a daemon whose schedd crashes under real concurrent overload (plus
//! whatever the fault plan forces). The clients are the same kind of
//! thing in both worlds: ftsh VMs running an ftsh script — here
//! [`gridworld::scripts::arena_script`], driven by the
//! [`crate::swarm`] reactor over persistent connections, so the arena
//! scales from the historical 8 clients to 1000+ on one core. The VMs
//! record the structured trace schema into one sink; the merged trace
//! feeds the existing postmortem with zero schema changes.
//!
//! This is also the multi-client extension of the conformance
//! harness: the full-scale simulation predicts the Ethernet>Aloha ordering
//! of completed jobs, and the daemon either confirms it (`CONFIRMS`)
//! or not — the verdict lands in `results/live_arena.md`.

use crate::swarm::{self, Harness, SwarmReport, Verb};
use ftsh::vm::{CommandSpec, Vm};
use gridd::{ClientSnapshot, GriddConfig, Request};
use gridworld::figures::{by_name_with_plan, Scale};
use gridworld::scripts::{arena_script, arena_worst_case, ARENA_SENSE_THRESHOLD};
use retry::{Discipline, Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
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
    /// Wall-clock the whole population took.
    pub wall_s: f64,
    /// Client-observed dispatch rate (responses per second).
    pub dispatch_rate: f64,
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

/// The arena's backoff `(base, cap)`: the paper's exponential shape
/// scaled to the arena's seconds-long window. [`run_population`]
/// installs `discipline.backoff_within(base, cap)` on every client VM —
/// the one place the arena's policy is applied.
pub const ARENA_BACKOFF: (Dur, Dur) = (Dur::from_millis(100), Dur::from_secs(2));

/// The arena's verb table: `sense` reads the schedd's free slots;
/// `submit <job>` commits the job.
struct ArenaVerbs;

impl Harness for ArenaVerbs {
    fn verb(&mut self, client: usize, spec: &CommandSpec) -> Verb {
        let client = client as u32;
        match (spec.program(), spec.argv.get(1)) {
            ("sense", None) => Verb::Sense {
                requests: vec![Request::Df { client }],
                busy_below: ARENA_SENSE_THRESHOLD,
            },
            ("submit", Some(job)) => Verb::Act(Request::Submit {
                client,
                job: job.to_string(),
            }),
            _ => Verb::Unknown,
        }
    }
}

/// Run one discipline's population against the daemon at `addr`, to
/// completion: every client is a VM running [`arena_script`] — parsed
/// once, shared, `${client}` in the environment — under
/// [`ARENA_BACKOFF`], on the [`crate::swarm`] reactor. Starts are
/// spread over ~0.5 ms per client (at least 200 ms), so a thousand
/// connects do not land in one accept burst.
pub fn run_population(
    discipline: Discipline,
    opts: &LiveOptions,
    addr: &str,
) -> std::io::Result<SwarmReport> {
    let script = arena_script(discipline, opts.jobs);
    let stagger = Duration::from_millis((opts.clients as u64 / 2).max(200));
    let n = opts.clients.max(1);
    let (base, cap) = ARENA_BACKOFF;
    let vms = (0..opts.clients)
        .map(|id| {
            let mut env = ftsh::Env::new();
            env.set("client", id.to_string());
            let seed = opts.seed ^ (id as u64).wrapping_mul(0x9E37);
            let mut vm = Vm::with_env_seed(&script, env, seed);
            vm.set_default_backoff(discipline.backoff_within(base, cap));
            (vm, stagger.mul_f64(id as f64 / n as f64))
        })
        .collect();
    let watchdog = arena_worst_case(opts.jobs).to_std() + stagger + Duration::from_secs(10);
    swarm::drive(ArenaVerbs, addr, vms, &[], watchdog)
}

/// Run one discipline's population against a fresh daemon, and leave
/// its merged trace and postmortem under `out_dir`.
pub fn run_discipline(
    discipline: Discipline,
    opts: &LiveOptions,
) -> std::io::Result<DisciplineOutcome> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let handle = gridd::start(arena_config(opts))?;
    let label = discipline.label().to_lowercase();

    let report = run_population(discipline, opts, &handle.addr().to_string());
    let (clients, crashes) = handle.snapshot();
    handle.shutdown();
    let report = report?;

    // The merged in-memory trace feeds the postmortem pipeline.
    let trace = &report.trace;
    let merged = opts.out_dir.join(format!("live-{label}.jsonl"));
    std::fs::write(&merged, simgrid::trace::to_jsonl(trace))?;
    let summary = simgrid::TraceSummary::from_records(trace);
    std::fs::write(
        opts.out_dir.join(format!("live-{label}-postmortem.txt")),
        summary.render(),
    )?;

    Ok(DisciplineOutcome {
        discipline,
        clients,
        crashes,
        wall_s: report.wall_s,
        dispatch_rate: report.dispatch_rate(),
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
    use crate::swarm::{dry_run, spec};
    use ftsh::vm::CmdResult;
    use gridd::Response;
    use simgrid::trace::TraceEv;

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

    #[test]
    fn arena_table_maps_verbs_and_folds_replies() {
        let mut t = ArenaVerbs;
        // sense -> df; the script gets the count to compare.
        let free = |slots| [Response::Free { slots }];
        let (verb, result, evs) = dry_run(&mut t, &spec(&["sense"]), &free(3));
        let sense = Verb::Sense {
            requests: vec![Request::Df { client: 0 }],
            busy_below: 1,
        };
        assert_eq!(verb, sense);
        assert_eq!(result, Some(Ok(CmdResult::ok("3"))));
        assert_eq!(evs, [TraceEv::CarrierSense { free: 3 }]);
        // Zero slots: the read is recorded as a deferral.
        let (_, result, evs) = dry_run(&mut t, &spec(&["sense"]), &free(0));
        assert_eq!(result, Some(Ok(CmdResult::ok("0"))));
        assert_eq!(evs, [TraceEv::CarrierSense { free: 0 }, TraceEv::Deferral]);
        // submit -> submit; ok succeeds, err fails, neither is traced
        // by the driver.
        let ok = Response::Ok { info: "id".into() };
        let (verb, result, evs) = dry_run(&mut t, &spec(&["submit", "job-0-1"]), &[ok]);
        let submit = Request::Submit {
            client: 0,
            job: "job-0-1".into(),
        };
        assert_eq!(verb, Verb::Act(submit));
        assert!(result.unwrap().unwrap().success);
        assert!(evs.is_empty());
        let busy = Response::Err {
            code: gridd::ErrCode::Busy,
            msg: String::new(),
        };
        let (_, result, _) = dry_run(&mut t, &spec(&["submit", "j"]), &[busy]);
        assert!(!result.unwrap().unwrap().success);
        // A reply of the wrong kind is a protocol error, not a result.
        let (_, result, _) = dry_run(&mut t, &spec(&["submit", "j"]), &free(1));
        assert_eq!(result, Some(Err(())));
        // Anything else is not in the table and fails inline.
        let (verb, result, _) = dry_run(&mut t, &spec(&["condor_submit", "x"]), &[]);
        assert_eq!(verb, Verb::Unknown);
        assert!(!result.unwrap().unwrap().success);
        assert_eq!(t.verb(0, &spec(&["submit"])), Verb::Unknown);
    }

    /// `clients` clients pushing two jobs each at a calm daemon (no
    /// crashes, no forced kills: pure throughput).
    fn population(
        discipline: Discipline,
        clients: usize,
        slots: u64,
        service_ms: u64,
    ) -> (SwarmReport, Vec<ClientSnapshot>) {
        let handle = gridd::start(GriddConfig {
            slots,
            service: Duration::from_millis(service_ms),
            crash_overloads: u32::MAX,
            backlog: clients.max(64) * 2,
            ..GriddConfig::default()
        })
        .expect("daemon starts");
        let opts = LiveOptions {
            clients,
            jobs: 2,
            ..LiveOptions::quick(11, std::env::temp_dir())
        };
        let report = run_population(discipline, &opts, &handle.addr().to_string());
        let (snaps, _) = handle.snapshot();
        handle.shutdown();
        (
            report.expect("every client finishes on a clean wire"),
            snaps,
        )
    }

    fn count(report: &SwarmReport, pred: impl Fn(&TraceEv) -> bool) -> usize {
        report.trace.iter().filter(|r| pred(&r.ev)).count()
    }

    #[test]
    fn swarm_pushes_jobs_through() {
        let (report, snaps) = population(Discipline::Ethernet, 32, 8, 20);
        let ok: u64 = snaps.iter().map(|c| c.submit_ok).sum();
        assert!(ok > 0, "some jobs must complete");
        assert!(report.dispatch_rate() > 0.0);
        // Persistent connections batch verbs: more replies than units.
        assert!(report.responses > 32 * 2);
        // One VM per client, each finishing its script.
        assert_eq!(
            count(&report, |ev| matches!(ev, TraceEv::UnitDone { ok: true })),
            32
        );
    }

    #[test]
    fn aloha_swarm_runs_blind() {
        let (report, _) = population(Discipline::Aloha, 16, 4, 20);
        // Aloha never senses: no CarrierSense events in its trace.
        assert_eq!(
            count(&report, |ev| matches!(ev, TraceEv::CarrierSense { .. })),
            0
        );
    }

    /// Regression: the arena used to install the exponential policy
    /// for every discipline, so a Fixed population backed off unless
    /// the caller remembered to overwrite it.
    #[test]
    fn fixed_swarm_never_backs_off() {
        // One slot, eight clients: most submits are refused busy.
        let (report, _) = population(Discipline::Fixed, 8, 1, 40);
        assert!(
            count(
                &report,
                |ev| matches!(ev, TraceEv::AttemptStart { attempt, .. } if *attempt > 1)
            ) > 0,
            "the contended pool must force retries"
        );
        assert_eq!(
            count(
                &report,
                |ev| matches!(ev, TraceEv::Backoff { delay, .. } if !delay.is_zero())
            ),
            0,
            "Fixed retries with no delay"
        );
    }
}
