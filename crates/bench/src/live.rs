//! Live studies: a paper result re-run on real wall-clock against a
//! real `gridd` daemon.
//!
//! Where the simulator multiplexes its clients over one event queue, a
//! live study runs *real* clients over real TCP: ftsh VMs running the
//! scripts the simulator runs, driven by the [`crate::swarm`] reactor
//! over persistent connections against a daemon in this process. One
//! runner ([`run`]) carries out every study. Per discipline, Aloha
//! then Ethernet, it builds the population, starts a fresh daemon,
//! drives the population to completion, snapshots the daemon's
//! per-client counters into an [`Outcome`], and leaves the merged trace
//! (the usual schema) and its postmortem under the output directory.
//! Then it asks the simulator for its prediction, judges the verdict,
//! and writes the study's JSON series and Markdown table. A [`Study`]
//! supplies only its own parts: the daemon, the verb table, the
//! population, the prediction, the verdict rule, and its table and
//! series. Two studies ride it:
//!
//! * **The arena** ([`LiveOptions`], `figures --live`): the fig2/fig3
//!   submission study. N clients run
//!   [`gridworld::scripts::arena_script`] at a schedd whose slot pool
//!   is far smaller than the population and which crashes under real
//!   concurrent overload (plus forced kills). The full-scale
//!   simulation predicts the Ethernet > Aloha ordering of completed
//!   jobs, and the daemon either confirms it (`CONFIRMS`) or not —
//!   the verdict lands in `live_arena.md`, the traces in
//!   `live-{aloha,ethernet}.jsonl`. The swarm scales it from the
//!   historical 8 clients to 1000+ on one core.
//! * **The all-reduce smoke** ([`CoordLiveOptions`], `figures
//!   --coord-live`): the fig8 all-reduce. The ranks run
//!   [`gridworld::coord::allreduce_text`], one VM per rank built by the
//!   sim's own [`rank_unit_vm`]; which round a rank is on, how long it
//!   computes and which unit it runs next is the sim's own
//!   [`RankPolicy`], drawn in the same order. The daemon's file server
//!   is the sim's store ([`simgrid::KeyStore`]): a single-server FIFO
//!   where a blind `get` miss is an expensive directory scan
//!   ([`GriddConfig::file_miss_service`]), a put lands when it is
//!   served, and the `stat` probe reads the key space for free. One
//!   rank dies mid-run and rejoins after a downtime — a `client-kill`
//!   spec with a restart delay, the same spec the static pre-flight
//!   reasons about — and while the barrier holds for the straggler,
//!   the Aloha population's blind polling congests the FIFO that the
//!   straggler's re-publish then queues behind. The Ethernet
//!   population senses instead, so the fig8 sim predicts its
//!   time-to-global-completion is no worse; the daemon either
//!   confirms that ordering or the smoke fails (`coord_live.md`,
//!   traces `live-allreduce-{aloha,ethernet}.jsonl`).
//!
//! Neither verb table contains retry logic: the budget is in the
//! script and the backoff policy is installed on the VM.

use crate::swarm::{self, Harness, SwarmReport, Verb};
use ftsh::vm::{CommandSpec, Vm};
use ftshlint::check::{check, WorkflowSpec};
use gridd::{ClientSnapshot, GriddConfig, Request};
use gridworld::coord::{allreduce_text, rank_unit_vm, AllReduceParams, RankPolicy};
use gridworld::figures::{by_name_with_plan, Scale};
use gridworld::scripts::{arena_script, arena_worst_case, ARENA_SENSE_THRESHOLD};
use gridworld::NextUnit;
use retry::{Discipline, Dur, Time};
use simgrid::faults::{ClientKillInfo, FaultKind, FaultPlan, FaultSpec};
use simgrid::{Series, SeriesSet};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

// ---------------------------------------------------------------- runner

/// One live study: the parts the runner cannot know.
pub trait Study {
    /// The verb table the population's commands go through.
    type Verbs: Harness;
    /// Stem of the study's series and table: `NAME.json`, `NAME.md`.
    const NAME: &'static str;
    /// Stem of each discipline's trace and postmortem:
    /// `TRACE-<discipline>.jsonl`, `TRACE-<discipline>-postmortem.txt`.
    const TRACE: &'static str;
    /// The table's title.
    const TITLE: &'static str;
    /// The table's columns after `discipline`.
    const COLUMNS: &'static [&'static str];
    /// The ordering the simulator predicts, as the verdict states it.
    const CLAIM: &'static str;

    /// The daemon one discipline's population runs against.
    fn config(&self, seed: u64) -> GriddConfig;

    /// One discipline's population. Fails, before any daemon starts,
    /// when the population must not be launched.
    fn population(&self, discipline: Discipline, seed: u64) -> io::Result<Population<Self::Verbs>>;

    /// What the simulator predicts for `discipline`.
    fn sim(&self, discipline: Discipline, seed: u64) -> f64;

    /// Does the live pair confirm the simulator's `(aloha, ethernet)`
    /// prediction?
    fn confirms(&self, sim: (f64, f64), aloha: &Outcome, ethernet: &Outcome) -> bool;

    /// The sentence under the table's title.
    fn preamble(&self, seed: u64) -> String;

    /// One discipline's table cells after its label, `|`-separated.
    fn cells(&self, out: &Outcome, sim: f64) -> String;

    /// The study's JSON series.
    fn series(&self, aloha: &Outcome, ethernet: &Outcome) -> SeriesSet;
}

/// One discipline's population: its verb table, each client's VM and
/// start offset, the kills it suffers, and the bound on the whole run.
pub struct Population<H> {
    verbs: H,
    vms: Vec<(Vm, Duration)>,
    kills: Vec<ClientKillInfo>,
    watchdog: Duration,
}

impl<H: Harness> Population<H> {
    /// Drive the population to completion against the daemon at `addr`.
    pub fn drive(self, addr: &str) -> io::Result<SwarmReport> {
        swarm::drive(self.verbs, addr, self.vms, &self.kills, self.watchdog)
    }
}

/// What one discipline's live run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Which discipline ran.
    pub discipline: Discipline,
    /// Per-client daemon counters at the end of the run; every count a
    /// table shows is a sum over these rows.
    pub clients: Vec<ClientSnapshot>,
    /// Schedd crashes during the run (overload + plan-forced).
    pub crashes: u64,
    /// Wall-clock until the whole population finished.
    pub wall_s: f64,
    /// Client-observed dispatch rate (responses per second).
    pub dispatch_rate: f64,
    /// Clients killed mid-run.
    pub kills: u64,
    /// Killed clients that rejoined.
    pub restarts: u64,
}

impl Outcome {
    /// One daemon counter summed over every client.
    fn total(&self, counter: impl Fn(&ClientSnapshot) -> u64) -> u64 {
        self.clients.iter().map(counter).sum()
    }
}

/// A whole study: both disciplines plus the simulator's prediction.
#[derive(Clone, Debug)]
pub struct Report {
    /// Aloha's live outcome.
    pub aloha: Outcome,
    /// Ethernet's live outcome.
    pub ethernet: Outcome,
    /// The simulator's prediction (aloha, ethernet).
    pub sim: (f64, f64),
    /// Did the live daemon confirm the predicted ordering?
    pub confirms: bool,
}

/// Run one discipline's population against a fresh daemon, and leave
/// its merged trace and postmortem under `out_dir`.
fn run_discipline<S: Study>(
    study: &S,
    discipline: Discipline,
    seed: u64,
    out_dir: &Path,
) -> io::Result<Outcome> {
    let population = study.population(discipline, seed)?;
    std::fs::create_dir_all(out_dir)?;
    let handle = gridd::start(study.config(seed))?;
    let report = population.drive(&handle.addr().to_string());
    let (clients, crashes) = handle.snapshot();
    handle.shutdown();
    let report = report?;

    let stem = format!("{}-{}", S::TRACE, discipline.label().to_lowercase());
    let trace = &report.trace;
    std::fs::write(
        out_dir.join(format!("{stem}.jsonl")),
        simgrid::trace::to_jsonl(trace),
    )?;
    std::fs::write(
        out_dir.join(format!("{stem}-postmortem.txt")),
        simgrid::TraceSummary::from_records(trace).render(),
    )?;
    Ok(Outcome {
        discipline,
        clients,
        crashes,
        wall_s: report.wall_s,
        dispatch_rate: report.dispatch_rate(),
        kills: report.kills,
        restarts: report.restarts,
    })
}

/// Run a whole study: Aloha then Ethernet against fresh daemons, the
/// simulator's prediction and the verdict, and `NAME.json` + `NAME.md`
/// under `out_dir`.
pub fn run<S: Study>(study: &S, seed: u64, out_dir: &Path) -> io::Result<Report> {
    let aloha = run_discipline(study, Discipline::Aloha, seed, out_dir)?;
    let ethernet = run_discipline(study, Discipline::Ethernet, seed, out_dir)?;
    let sim = (
        study.sim(Discipline::Aloha, seed),
        study.sim(Discipline::Ethernet, seed),
    );
    let series = study.series(&aloha, &ethernet);
    std::fs::write(
        out_dir.join(format!("{}.json", S::NAME)),
        series.to_json_pretty(),
    )?;
    let report = Report {
        confirms: study.confirms(sim, &aloha, &ethernet),
        aloha,
        ethernet,
        sim,
    };
    std::fs::write(
        out_dir.join(format!("{}.md", S::NAME)),
        render_table(study, seed, &report),
    )?;
    Ok(report)
}

/// A study's live-vs-sim comparison table (also reproduced in
/// EXPERIMENTS.md).
fn render_table<S: Study>(study: &S, seed: u64, report: &Report) -> String {
    let mut md = format!(
        "# {}\n\n{}\n\n| discipline | {} |\n{}|\n",
        S::TITLE,
        study.preamble(seed),
        S::COLUMNS.join(" | "),
        "|---".repeat(S::COLUMNS.len() + 1),
    );
    for (out, sim) in [
        (&report.aloha, report.sim.0),
        (&report.ethernet, report.sim.1),
    ] {
        let cells = study.cells(out, sim);
        let _ = writeln!(md, "| {} | {cells} |", out.discipline.label());
    }
    let verdict = if report.confirms {
        "CONFIRMS"
    } else {
        "DOES NOT CONFIRM"
    };
    let _ = writeln!(
        md,
        "\nSim predicts {}; the live daemon **{verdict}** it.",
        S::CLAIM
    );
    md
}

/// The last point of `series` in figure `fig` at `scale` and `seed`.
fn sim_last(fig: &str, series: &str, scale: Scale, seed: u64) -> f64 {
    by_name_with_plan(fig, scale, seed, false, None)
        .and_then(|run| run.set.get(series).and_then(Series::last))
        .unwrap_or(f64::NAN)
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

// ----------------------------------------------------------------- arena

/// The arena's parameters. Defaults are the full-scale (≥8 clients)
/// run; [`LiveOptions::quick`] shrinks to the 3-client CI race.
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
}

impl LiveOptions {
    /// Full arena: 8 concurrent clients, 6 jobs each, 2 service slots.
    pub fn full() -> LiveOptions {
        LiveOptions {
            clients: 8,
            jobs: 6,
            service: Duration::from_millis(150),
            crash_overloads: 5,
        }
    }

    /// CI smoke arena: 3 concurrent clients, 3 jobs each, 1 slot.
    /// Slower service and a lower crash threshold keep the physics
    /// proportionate: 2 waiting clients can still crash the schedd by
    /// hammering, but a single sense race cannot.
    pub fn quick() -> LiveOptions {
        LiveOptions {
            clients: 3,
            jobs: 3,
            service: Duration::from_millis(300),
            crash_overloads: 3,
        }
    }

    /// An arena scaled to an arbitrary population (the `--live-clients`
    /// path). Small populations keep the historical full-arena physics;
    /// larger ones shorten service and scale the crash threshold with
    /// the population, so an Aloha stampede still crashes the schedd
    /// while Ethernet's occasional stale-sense races do not.
    pub fn sized(clients: usize) -> LiveOptions {
        if clients <= 8 {
            return LiveOptions {
                clients,
                ..LiveOptions::full()
            };
        }
        LiveOptions {
            clients,
            jobs: 4,
            service: Duration::from_millis(100),
            crash_overloads: (clients / 8).max(6) as u32,
        }
    }
}

/// The arena's adversarial schedule: forced schedd kills on top of
/// whatever the daemon's own overload physics produces. Identical for
/// both disciplines — the paper's point is how each *reacts*.
fn arena_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with(FaultSpec::repeating(
        Time::from_secs(1),
        Dur::from_secs(4),
        2,
        FaultKind::ScheddKill {
            downtime: Some(Dur::from_millis(1200)),
        },
    ))
}

/// The arena's backoff `(base, cap)`: the paper's exponential shape
/// scaled to the arena's seconds-long window. The arena's
/// [`Study::population`] installs `discipline.backoff_within(base,
/// cap)` on every client VM — the one place the arena's policy is
/// applied.
pub const ARENA_BACKOFF: (Dur, Dur) = (Dur::from_millis(100), Dur::from_secs(2));

/// The arena's verb table: `sense` reads the schedd's free slots;
/// `submit <job>` commits the job.
pub struct ArenaVerbs;

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

impl Study for LiveOptions {
    type Verbs = ArenaVerbs;
    const NAME: &'static str = "live_arena";
    const TRACE: &'static str = "live";
    const TITLE: &'static str = "Live arena vs. simulation (fig2/fig3)";
    const COLUMNS: &'static [&'static str] = &[
        "live jobs done",
        "live failed submits",
        "live sense reads",
        "schedd crashes",
        "dispatch (verbs/s)",
        "wall (s)",
        "sim jobs (full sim)",
    ];
    const CLAIM: &'static str = "Ethernet > Aloha";

    /// A genuinely contended schedd: the slot pool is far smaller than
    /// the population, service takes real time, and a *sustained*
    /// stampede crashes it. Every blind (Aloha) submit while the pool
    /// is drained pushes the overload counter toward the crash
    /// threshold; Ethernet's sense probe defers instead. The threshold
    /// is high enough that the occasional sense-then-submit race (two
    /// Ethernet clients both seeing the last free slot) does not crash
    /// the schedd — only a population that keeps hammering a drained
    /// pool does, which is the paper's point.
    fn config(&self, seed: u64) -> GriddConfig {
        GriddConfig {
            slots: (self.clients / 4).max(1) as u64,
            service: self.service,
            crash_overloads: self.crash_overloads,
            downtime: Duration::from_secs(3),
            deadline: Duration::from_secs(8),
            plan: arena_plan(seed),
            ..GriddConfig::default()
        }
    }

    /// Every client is a VM running [`arena_script`] — parsed once,
    /// shared, `${client}` in the environment — under
    /// [`ARENA_BACKOFF`]. Starts are spread over ~0.5 ms per client (at
    /// least 200 ms), so a thousand connects do not land in one accept
    /// burst.
    fn population(&self, discipline: Discipline, seed: u64) -> io::Result<Population<ArenaVerbs>> {
        let script = arena_script(discipline, self.jobs);
        let stagger = Duration::from_millis((self.clients as u64 / 2).max(200));
        let n = self.clients.max(1);
        let (base, cap) = ARENA_BACKOFF;
        let vms = (0..self.clients)
            .map(|id| {
                let mut env = ftsh::Env::new();
                env.set("client", id.to_string());
                let seed = seed ^ (id as u64).wrapping_mul(0x9E37);
                let mut vm = Vm::with_env_seed(&script, env, seed);
                vm.set_default_backoff(discipline.backoff_within(base, cap));
                (vm, stagger.mul_f64(id as f64 / n as f64))
            })
            .collect();
        Ok(Population {
            verbs: ArenaVerbs,
            vms,
            kills: Vec::new(),
            watchdog: arena_worst_case(self.jobs).to_std() + stagger + Duration::from_secs(10),
        })
    }

    /// Jobs the full-scale fig2 (Aloha) or fig3 (Ethernet) submits.
    fn sim(&self, discipline: Discipline, seed: u64) -> f64 {
        let fig = match discipline {
            Discipline::Ethernet => "fig3",
            _ => "fig2",
        };
        sim_last(fig, "Jobs Submitted", Scale::Full, seed)
    }

    fn confirms(&self, sim: (f64, f64), aloha: &Outcome, ethernet: &Outcome) -> bool {
        let jobs = |out: &Outcome| out.total(|c| c.submit_ok);
        sim.1 > sim.0 && jobs(ethernet) > jobs(aloha)
    }

    fn preamble(&self, seed: u64) -> String {
        format!(
            "{} concurrent real clients x {} jobs, seed {seed}.",
            self.clients, self.jobs
        )
    }

    fn cells(&self, out: &Outcome, sim: f64) -> String {
        format!(
            "{} | {} | {} | {} | {:.0} | {:.1} | {sim:.0}",
            out.total(|c| c.submit_ok),
            out.total(|c| c.submit_busy + c.submit_down + c.submit_lost),
            out.total(|c| c.df_calls),
            out.crashes,
            out.dispatch_rate,
            out.wall_s,
        )
    }

    /// Per-client completions per discipline, in the same metrics
    /// shape every figure uses.
    fn series(&self, aloha: &Outcome, ethernet: &Outcome) -> SeriesSet {
        let mut set = SeriesSet::new(
            "Live arena: jobs completed per client",
            "client",
            "jobs completed",
        );
        for out in [aloha, ethernet] {
            let mut s = Series::new(out.discipline.label());
            for c in &out.clients {
                s.push_xy(c.client as f64, c.submit_ok as f64);
            }
            set.add(s);
        }
        set
    }
}

// ---------------------------------------------------- all-reduce smoke

/// The all-reduce smoke's parameters.
#[derive(Clone, Debug)]
pub struct CoordLiveOptions {
    /// Ranks (the barrier width).
    pub ranks: usize,
    /// Rounds each rank must complete.
    pub rounds: u32,
    /// Service time of a put or a get hit at the file server.
    pub file_service: Duration,
    /// Service time of a blind get miss (the expensive scan).
    pub file_miss_service: Duration,
    /// Base compute time of one partial (plus per-rank jitter).
    pub compute: Duration,
    /// How long the killed rank stays down before rejoining.
    pub downtime: Duration,
    /// Whether the killed rank rejoins at all. `false` models a
    /// permanent loss — a workload the static checker proves can never
    /// clear its barrier, and which the runner therefore refuses to
    /// launch (live, it would hang every surviving rank).
    pub rejoin: bool,
}

impl CoordLiveOptions {
    /// The CI smoke: 4 ranks, 2 rounds, one kill + rejoin.
    pub fn quick() -> CoordLiveOptions {
        CoordLiveOptions {
            ranks: 4,
            rounds: 2,
            file_service: Duration::from_millis(3),
            file_miss_service: Duration::from_millis(120),
            compute: Duration::from_millis(60),
            downtime: Duration::from_millis(1500),
            rejoin: true,
        }
    }
}

/// One discipline's rank population, stated once: the scenario at
/// live scale, the rank script, and the rank policy. The static
/// pre-flight and the launcher both start from `Ranks::new`, so what
/// the checker proves is about the program the ranks execute. On the
/// swarm this is the ranks' verb table (`compute` → a timer, `publish`
/// → `put`, `fetch` → `get`, `probe` → one pipelined `stat` per peer,
/// summed) — the live counterpart of the sim's all-reduce world, minus
/// the store (the daemon is the store).
pub struct Ranks {
    /// Rank count, rounds, `try` budgets, backoff envelope, and the
    /// kill plan (`fault_plan`): rank 1 is killed one compute into the
    /// last round's window and rejoins after the downtime, or — with
    /// `rejoin: false` — never.
    params: AllReduceParams,
    /// The rank script's source: what the checker analyses and the
    /// ranks run.
    source: String,
    /// Rounds, compute draws and next units: the sim's own policy.
    policy: RankPolicy,
}

impl Ranks {
    fn new(discipline: Discipline, opts: &CoordLiveOptions, seed: u64) -> Ranks {
        let compute = Dur::from_std(opts.compute);
        let kill_at = compute * u64::from(opts.rounds.max(1) - 1);
        let plan = FaultPlan::new(seed).with(FaultSpec::once(
            Time::ZERO + kill_at,
            FaultKind::ClientKill {
                client: 1,
                restart: opts.rejoin.then(|| Dur::from_std(opts.downtime)),
            },
        ));
        let params = AllReduceParams {
            n_ranks: opts.ranks,
            rounds: opts.rounds,
            discipline,
            compute_base: compute,
            compute_jitter: compute,
            // Rounds run in fractions of a second here, so the fig8
            // backoff envelope (0.5–4 s) tightens with them.
            backoff_base: Dur::from_millis(25),
            backoff_cap: Dur::from_millis(400),
            success_think: Dur::ZERO,
            failure_think: Dur::from_millis(25),
            seed,
            fault_plan: plan,
            ..AllReduceParams::default()
        };
        let source = allreduce_text(
            discipline,
            params.n_ranks,
            params.round_timeout,
            params.fetch_timeout,
        );
        Ranks {
            source,
            policy: RankPolicy::new(&params),
            params,
        }
    }

    /// The workflow the checker reasons about: one unit per
    /// (rank, round), every unit running `source`.
    fn spec(&self) -> WorkflowSpec {
        let p = &self.params;
        let spec = WorkflowSpec::allreduce(
            p.discipline,
            p.n_ranks,
            p.rounds,
            p.round_timeout,
            p.fetch_timeout,
            p.compute_base,
        );
        assert!(
            spec.jobs.iter().all(|job| job.source == self.source),
            "the checker must analyse the text the ranks run"
        );
        spec
    }

    /// Each rank's first VM seed, drawn before any unit runs.
    fn first_seeds(&mut self) -> Vec<u64> {
        (0..self.params.n_ranks)
            .map(|_| self.policy.seed())
            .collect()
    }
}

/// A policy unit on the swarm's clock.
fn on_wall_clock((env, seed, delay): NextUnit<Dur>) -> NextUnit<Duration> {
    (env, seed, delay.to_std())
}

impl Harness for Ranks {
    fn verb(&mut self, client: usize, spec: &CommandSpec) -> Verb {
        let arg = |i: usize| spec.argv.get(i).map_or("", ftsh::Istr::as_str);
        let client = client as u32;
        match spec.program() {
            "compute" => Verb::Local(self.policy.compute().to_std()),
            "publish" => Verb::Act(Request::Put {
                client,
                name: format!("{}.{}", arg(1), arg(2)),
                data: b"v".to_vec(),
            }),
            "fetch" => Verb::Act(Request::Get {
                client,
                name: format!("{}.{}", arg(1), arg(2)),
            }),
            // The carrier-sense probe: one free `stat` per peer; the
            // replies sum to the round's landed-key count.
            "probe" => Verb::Sense {
                requests: (0..self.params.n_ranks)
                    .map(|peer| Request::Stat {
                        client,
                        name: format!("r{peer}.{}", arg(1)),
                    })
                    .collect(),
                busy_below: self.params.n_ranks as u64,
            },
            _ => Verb::Unknown,
        }
    }

    fn unit_done(&mut self, rank: usize, success: bool) -> Option<NextUnit<Duration>> {
        self.policy.unit_done(rank, success).map(on_wall_clock)
    }

    fn revive(&mut self, rank: usize) -> Option<NextUnit<Duration>> {
        self.policy.resume(rank).map(on_wall_clock)
    }
}

/// Static pre-flight of one live run: the workflow the ranks would
/// execute, checked under the kill plan they would suffer. Returns the
/// `unsatisfiable-barrier` findings; any means the barrier is proven
/// unclearable and the rank population must not be launched.
fn preflight_barrier_proofs(ranks: &Ranks) -> Vec<String> {
    let plan = &ranks.params.fault_plan;
    let report = check(&ranks.spec(), Some(plan), Dur::from_secs(600));
    report
        .rule("unsatisfiable-barrier")
        .map(ToString::to_string)
        .collect()
}

impl Study for CoordLiveOptions {
    type Verbs = Ranks;
    const NAME: &'static str = "coord_live";
    const TRACE: &'static str = "live-allreduce";
    const TITLE: &'static str = "Live all-reduce vs. simulation (fig8)";
    const COLUMNS: &'static [&'static str] = &[
        "live wall (s)",
        "blind misses",
        "sense reads",
        "fetch hits",
        "kills",
        "rejoins",
        "sim final-round done (s)",
    ];
    const CLAIM: &'static str = "Ethernet ≤ Aloha on time-to-global-completion";

    fn config(&self, seed: u64) -> GriddConfig {
        GriddConfig {
            slots: self.ranks as u64,
            file_service: self.file_service,
            file_miss_service: self.file_miss_service,
            deadline: Duration::from_secs(10),
            plan: FaultPlan::new(seed),
            ..GriddConfig::default()
        }
    }

    /// Refused when the static pre-flight proves the barrier
    /// unsatisfiable under the kill plan.
    fn population(&self, discipline: Discipline, seed: u64) -> io::Result<Population<Ranks>> {
        let mut ranks = Ranks::new(discipline, self, seed);
        let proofs = preflight_barrier_proofs(&ranks);
        if !proofs.is_empty() {
            return Err(io::Error::other(format!(
                "refusing to launch {} ranks: the checker proves the barrier unsatisfiable\n  {}",
                self.ranks,
                proofs.join("\n  ")
            )));
        }
        let script = ftsh::parse(&ranks.source).expect("generated script parses");
        let vms = ranks
            .first_seeds()
            .into_iter()
            .enumerate()
            .map(|(rank, seed)| {
                let vm = rank_unit_vm(&script, &ranks.params, rank, 0, seed);
                (vm, Duration::ZERO)
            })
            .collect();
        Ok(Population {
            kills: ranks.params.fault_plan.client_kills(),
            watchdog: ranks.params.round_timeout.to_std() * self.rounds,
            verbs: ranks,
            vms,
        })
    }

    /// Quick-scale fig8's final-round global completion time.
    fn sim(&self, discipline: Discipline, seed: u64) -> f64 {
        sim_last("fig8", discipline.label(), Scale::Quick, seed)
    }

    /// "Ethernet ≥ Aloha" in outcome terms: its global completion is
    /// no later. Live wall-clock gets a small tolerance for scheduler
    /// noise on loaded CI runners.
    fn confirms(&self, sim: (f64, f64), aloha: &Outcome, ethernet: &Outcome) -> bool {
        sim.1 <= sim.0 && ethernet.wall_s <= aloha.wall_s * 1.05
    }

    fn preamble(&self, seed: u64) -> String {
        format!(
            "{} real ranks x {} rounds, one kill + rejoin ({} ms down), seed {seed}.",
            self.ranks,
            self.rounds,
            self.downtime.as_millis(),
        )
    }

    fn cells(&self, out: &Outcome, sim: f64) -> String {
        format!(
            "{:.2} | {} | {} | {} | {} | {} | {sim:.1}",
            out.wall_s,
            out.total(|c| c.get_err),
            out.total(|c| c.df_calls),
            out.total(|c| c.get_ok),
            out.kills,
            out.restarts,
        )
    }

    fn series(&self, aloha: &Outcome, ethernet: &Outcome) -> SeriesSet {
        let mut set = SeriesSet::new(
            "Live all-reduce: time-to-global-completion",
            "discipline (0 = Aloha, 1 = Ethernet)",
            "wall-clock (s)",
        );
        let mut s = Series::new("wall_s");
        s.push_xy(0.0, aloha.wall_s);
        s.push_xy(1.0, ethernet.wall_s);
        set.add(s);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swarm::{dry_run, spec};
    use ftsh::vm::CmdResult;
    use gridd::Response;
    use gridworld::coord::rank_env;
    use simgrid::trace::TraceEv;
    use simgrid::SimRng;

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
            ..LiveOptions::quick()
        };
        let addr = handle.addr().to_string();
        let report = opts.population(discipline, 11).and_then(|p| p.drive(&addr));
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

    // ------------------------------------------------------------- ranks

    fn quick(d: Discipline) -> Ranks {
        Ranks::new(d, &CoordLiveOptions::quick(), 7)
    }

    #[test]
    fn rank_table_maps_verbs_and_folds_replies() {
        let mut t = quick(Discipline::Ethernet);
        let name = || "r2.1".to_string();
        let ok = Response::Ok {
            info: "1 bytes".into(),
        };
        let (verb, result, evs) = dry_run(&mut t, &spec(&["publish", "r2", "1"]), &[ok]);
        let data = b"v".to_vec();
        let put = Request::Put {
            client: 0,
            name: name(),
            data,
        };
        assert_eq!(verb, Verb::Act(put));
        assert!(result.unwrap().unwrap().success);
        assert!(evs.is_empty());

        // fetch -> get: data is a hit, not-found the expensive miss.
        let hit = Response::Data {
            data: b"v".to_vec(),
        };
        let (verb, result, _) = dry_run(&mut t, &spec(&["fetch", "r2", "1"]), &[hit]);
        assert_eq!(
            verb,
            Verb::Act(Request::Get {
                client: 0,
                name: name()
            })
        );
        assert!(result.unwrap().unwrap().success);
        let miss = Response::Err {
            code: gridd::ErrCode::NotFound,
            msg: String::new(),
        };
        let (_, result, _) = dry_run(&mut t, &spec(&["fetch", "r2", "1"]), &[miss]);
        assert!(!result.unwrap().unwrap().success);

        // probe -> one stat per peer; the 0|1 replies fold into the
        // landed count the script compares against the rank count.
        let free = |slots| Response::Free { slots };
        let probe = spec(&["probe", "1"]);
        let (verb, result, evs) = dry_run(&mut t, &probe, &[free(1), free(0), free(1), free(1)]);
        let stats = (0..4).map(|p| Request::Stat {
            client: 0,
            name: format!("r{p}.1"),
        });
        let sense = Verb::Sense {
            requests: stats.collect(),
            busy_below: 4,
        };
        assert_eq!(verb, sense);
        assert_eq!(result.unwrap().unwrap(), CmdResult::ok("3"));
        assert_eq!(evs, [TraceEv::CarrierSense { free: 3 }, TraceEv::Deferral]);
        // Three of four replies: the command is still in flight.
        let (_, result, evs) = dry_run(&mut t, &probe, &[free(1), free(1), free(1)]);
        assert_eq!(result, None);
        assert!(evs.is_empty());
        // A full round is sensed free: no deferral.
        let (_, result, evs) = dry_run(&mut t, &probe, &[free(1), free(1), free(1), free(1)]);
        assert_eq!(result.unwrap().unwrap(), CmdResult::ok("4"));
        assert_eq!(evs, [TraceEv::CarrierSense { free: 4 }]);

        // compute is local work inside the jitter envelope; anything
        // else is not in the table.
        let (verb, result, _) = dry_run(&mut t, &spec(&["compute", "r2", "1"]), &[]);
        let Verb::Local(work) = verb else {
            panic!("compute is local, got {verb:?}");
        };
        assert!((60..120).contains(&work.as_millis()), "{work:?}");
        assert_eq!(result, None);
        let (verb, result, _) = dry_run(&mut t, &spec(&["wget", "x"]), &[]);
        assert_eq!(verb, Verb::Unknown);
        assert!(!result.unwrap().unwrap().success);
    }

    #[test]
    fn rank_unit_sequence_is_pinned() {
        // The ranks draw from one stream seeded by the run's seed, in
        // the order they ask: every rank's first VM seed, then compute
        // jitter and each next unit's VM seed as they come up.
        let mut model = SimRng::new(7);
        let mut t = quick(Discipline::Ethernet);
        let first: Vec<u64> = (0..4).map(|_| model.next_u64()).collect();
        assert_eq!(t.first_seeds(), first);
        let base = Dur::from_millis(60);
        for rank in [2, 0] {
            let jitter = Dur::from_secs_f64(model.uniform(0.0, base.as_secs_f64()));
            let verb = t.verb(rank, &spec(&["compute", "r0", "0"]));
            assert_eq!(verb, Verb::Local((base + jitter).to_std()));
        }
        let unit = |model: &mut SimRng, rank, round, delay_ms| {
            let delay = Duration::from_millis(delay_ms);
            Some((rank_env(rank, round), model.next_u64(), delay))
        };
        // Rank 0 clears round 0 and goes straight on to round 1.
        assert_eq!(t.unit_done(0, true), unit(&mut model, 0, 1, 0));
        // Rank 1's round 0 fails: it re-runs round 0 after the 25 ms
        // failure think.
        assert_eq!(t.unit_done(1, false), unit(&mut model, 1, 0, 25));
        // Rank 0 clears round 1, its last: it retires, drawing nothing.
        assert_eq!(t.unit_done(0, true), None);
        // A revived rank resumes its round at once; a retired one stays
        // retired, drawing nothing.
        assert_eq!(t.revive(1), unit(&mut model, 1, 0, 0));
        assert_eq!(t.revive(0), None);
        // Rank 1 clears both rounds; a compute after that draws next.
        assert_eq!(t.unit_done(1, true), unit(&mut model, 1, 1, 0));
        assert_eq!(t.unit_done(1, true), None);
        let jitter = Dur::from_secs_f64(model.uniform(0.0, base.as_secs_f64()));
        let verb = t.verb(3, &spec(&["compute", "r3", "1"]));
        assert_eq!(verb, Verb::Local((base + jitter).to_std()));
    }

    #[test]
    fn checker_and_ranks_share_one_text() {
        for d in Discipline::ALL {
            let ranks = quick(d);
            let p = &ranks.params;
            // `spec` itself asserts every job's source is byte-equal to
            // the text the rank VMs were parsed from...
            let spec = ranks.spec();
            assert_eq!(spec.jobs.len(), p.n_ranks * p.rounds as usize);
            let script = ftsh::parse(&ranks.source).unwrap();
            assert_eq!(script, ftsh::parse(&spec.jobs[0].source).unwrap());
            // ...and it is the script the simulator runs.
            let sim =
                gridworld::coord::allreduce_script(d, p.n_ranks, p.round_timeout, p.fetch_timeout);
            assert_eq!(script, sim, "{d}");
            // One kill, of rank 1, from the plan the checker is given.
            let kills = p.fault_plan.client_kills();
            assert_eq!(kills.len(), 1);
            assert_eq!((kills[0].client, kills[0].restart.is_some()), (1, true));
        }
    }

    #[test]
    fn preflight_accepts_the_rejoining_smoke() {
        for d in Discipline::ALL {
            assert!(
                preflight_barrier_proofs(&quick(d)).is_empty(),
                "the shipping smoke must pass pre-flight under {d}"
            );
        }
    }

    #[test]
    fn preflight_refuses_a_rank_that_never_rejoins() {
        let mut opts = CoordLiveOptions::quick();
        opts.rejoin = false;
        let proofs = preflight_barrier_proofs(&Ranks::new(Discipline::Ethernet, &opts, 7));
        assert!(!proofs.is_empty(), "a permanent kill must be proven fatal");
        assert!(
            proofs[0].contains("unsatisfiable-barrier"),
            "proof names the rule: {}",
            proofs[0]
        );
        // And the launcher itself refuses — without touching a daemon.
        let err = run_discipline(&opts, Discipline::Ethernet, 7, &std::env::temp_dir())
            .expect_err("launch must be refused");
        assert!(err.to_string().contains("refusing to launch"), "{err}");
    }

    // ------------------------------------------------------------ tables

    /// One client's daemon counters: the submit outcomes and sense
    /// reads the arena counts, the fetches the all-reduce counts.
    fn row(client: u32, submits: [u64; 4], df_calls: u64, gets: [u64; 2]) -> ClientSnapshot {
        let [submit_ok, submit_busy, submit_down, submit_lost] = submits;
        let [get_ok, get_err] = gets;
        ClientSnapshot {
            client,
            submit_ok,
            submit_busy,
            submit_down,
            submit_lost,
            df_calls,
            get_ok,
            get_err,
            ..ClientSnapshot::default()
        }
    }

    fn outcome(
        discipline: Discipline,
        clients: Vec<ClientSnapshot>,
        crashes: u64,
        wall_s: f64,
        dispatch_rate: f64,
        kills: u64,
    ) -> Outcome {
        Outcome {
            discipline,
            clients,
            crashes,
            wall_s,
            dispatch_rate,
            kills,
            restarts: kills,
        }
    }

    fn report(aloha: Outcome, ethernet: Outcome, sim: (f64, f64), confirms: bool) -> Report {
        Report {
            aloha,
            ethernet,
            sim,
            confirms,
        }
    }

    // Rendered by the two renderers this one replaced, from outcomes
    // with the same counts as the ones below.
    const ARENA_3: &str = "\
# Live arena vs. simulation (fig2/fig3)

3 concurrent real clients x 3 jobs, seed 2003.

| discipline | live jobs done | live failed submits | live sense reads | schedd crashes | dispatch (verbs/s) | wall (s) | sim jobs (full sim) |
|---|---|---|---|---|---|---|---|
| Aloha | 3 | 18 | 0 | 4 | 12 | 14.3 | 2524 |
| Ethernet | 8 | 4 | 27 | 1 | 31 | 9.0 | 2690 |

Sim predicts Ethernet > Aloha; the live daemon **CONFIRMS** it.
";
    const ARENA_1000: &str = "\
# Live arena vs. simulation (fig2/fig3)

1000 concurrent real clients x 4 jobs, seed 2003.

| discipline | live jobs done | live failed submits | live sense reads | schedd crashes | dispatch (verbs/s) | wall (s) | sim jobs (full sim) |
|---|---|---|---|---|---|---|---|
| Aloha | 2300 | 7285 | 0 | 37 | 2216 | 61.8 | 2524 |
| Ethernet | 1999 | 74 | 9800 | 0 | 1987 | 58.0 | 2690 |

Sim predicts Ethernet > Aloha; the live daemon **DOES NOT CONFIRM** it.
";
    const ALLREDUCE_CONFIRMS: &str = "\
# Live all-reduce vs. simulation (fig8)

4 real ranks x 2 rounds, one kill + rejoin (1500 ms down), seed 2003.

| discipline | live wall (s) | blind misses | sense reads | fetch hits | kills | rejoins | sim final-round done (s) |
|---|---|---|---|---|---|---|---|
| Aloha | 2.33 | 17 | 0 | 32 | 1 | 1 | 1033.7 |
| Ethernet | 2.33 | 0 | 41 | 24 | 1 | 1 | 1017.2 |

Sim predicts Ethernet ≤ Aloha on time-to-global-completion; the live daemon **CONFIRMS** it.
";
    const ALLREDUCE_DOES_NOT: &str = "\
# Live all-reduce vs. simulation (fig8)

4 real ranks x 2 rounds, one kill + rejoin (1500 ms down), seed 2003.

| discipline | live wall (s) | blind misses | sense reads | fetch hits | kills | rejoins | sim final-round done (s) |
|---|---|---|---|---|---|---|---|
| Aloha | 2.33 | 17 | 0 | 32 | 1 | 1 | 1033.7 |
| Ethernet | 3.10 | 0 | 41 | 24 | 1 | 1 | 1017.2 |

Sim predicts Ethernet ≤ Aloha on time-to-global-completion; the live daemon **DOES NOT CONFIRM** it.
";

    /// Both studies' tables, byte for byte as before the two live
    /// harnesses became one: every column is a sum over the snapshot
    /// rows or an outcome field, in both verdicts.
    #[test]
    fn one_renderer_draws_both_studies_tables() {
        let sim = (2524.0, 2690.0);
        let aloha = vec![
            row(0, [1, 4, 2, 1], 0, [0, 0]),
            row(1, [0, 6, 1, 0], 0, [0, 0]),
            row(2, [2, 3, 0, 1], 0, [0, 0]),
        ];
        let ethernet = vec![
            row(0, [3, 1, 0, 0], 9, [0, 0]),
            row(1, [2, 0, 1, 0], 7, [0, 0]),
            row(2, [3, 2, 0, 0], 11, [0, 0]),
        ];
        let quick = report(
            outcome(Discipline::Aloha, aloha, 4, 14.26, 12.5, 0),
            outcome(Discipline::Ethernet, ethernet, 1, 9.04, 31.49, 0),
            sim,
            true,
        );
        assert_eq!(render_table(&LiveOptions::quick(), 2003, &quick), ARENA_3);

        let aloha = vec![
            row(0, [1200, 3000, 700, 20], 0, [0, 0]),
            row(999, [1100, 2900, 650, 15], 0, [0, 0]),
        ];
        let ethernet = vec![
            row(0, [1000, 40, 2, 0], 5000, [0, 0]),
            row(999, [999, 31, 0, 1], 4800, [0, 0]),
        ];
        let big = report(
            outcome(Discipline::Aloha, aloha, 37, 61.75, 2215.6, 0),
            outcome(Discipline::Ethernet, ethernet, 0, 58.04, 1987.2, 0),
            sim,
            false,
        );
        assert_eq!(
            render_table(&LiveOptions::sized(1000), 2003, &big),
            ARENA_1000
        );

        let sim = (1033.7, 1017.25);
        let aloha = vec![
            row(0, [0; 4], 0, [8, 5]),
            row(1, [0; 4], 0, [8, 0]),
            row(2, [0; 4], 0, [8, 12]),
            row(3, [0; 4], 0, [8, 0]),
        ];
        let ethernet = vec![
            row(0, [0; 4], 10, [6, 0]),
            row(1, [0; 4], 11, [6, 0]),
            row(2, [0; 4], 10, [6, 0]),
            row(3, [0; 4], 10, [6, 0]),
        ];
        let smoke = CoordLiveOptions::quick();
        let mut ties = report(
            outcome(Discipline::Aloha, aloha, 0, 2.334, 40.0, 1),
            outcome(Discipline::Ethernet, ethernet, 0, 2.326, 52.0, 1),
            sim,
            true,
        );
        assert_eq!(render_table(&smoke, 2003, &ties), ALLREDUCE_CONFIRMS);
        ties.ethernet.wall_s = 3.1;
        ties.confirms = false;
        assert_eq!(render_table(&smoke, 2003, &ties), ALLREDUCE_DOES_NOT);
    }
}
