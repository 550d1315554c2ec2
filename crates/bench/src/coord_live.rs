//! The live coordinated-workload smoke: the fig8 all-reduce re-run on
//! real wall-clock against a real `gridd` daemon.
//!
//! The ranks are ftsh VMs running the scripts the simulator runs —
//! [`gridworld::coord::allreduce_text`], one VM per rank built by the
//! sim's own [`rank_unit_vm`] — on the [`crate::swarm`] reactor. This
//! module is their verb table (`compute` → a timer, `publish` → `put`,
//! `fetch` → `get`, `probe` → one pipelined `stat` per peer, summed).
//! Which round a rank is on, how long it computes and which unit it
//! runs next is the sim's own [`RankPolicy`], drawn in the same order;
//! barriers, retries and backoff are the script's.
//!
//! The daemon's file server is the sim's store ([`simgrid::KeyStore`],
//! `coord::Store` in the simulated worlds): a single-server FIFO
//! where a blind `get` miss is an expensive directory scan
//! ([`GriddConfig::file_miss_service`]), a put lands when it is served
//! rather than when it arrives, and the `stat` probe reads the key
//! space for free. A rank's `forall` of fetches is pipelined on its
//! one connection and queues at the server all at once. One rank
//! dies mid-run and rejoins after a downtime — a `client-kill` spec
//! with a restart delay, the same spec the static pre-flight reasons
//! about — and while the barrier holds for the straggler, the Aloha
//! population's blind polling congests the FIFO that the straggler's
//! own re-publish then has to queue behind. The Ethernet population
//! senses instead, so its time-to-global-completion is predicted (by
//! the fig8 sim) to be no worse — the daemon either confirms that
//! ordering or the smoke fails.

use crate::swarm::{self, Harness, Verb};
use ftsh::vm::CommandSpec;
use ftshlint::check::{check, WorkflowSpec};
use gridd::{GriddConfig, Request};
use gridworld::coord::{allreduce_text, rank_unit_vm, AllReduceParams, RankPolicy};
use gridworld::figures::{by_name_with_plan, Scale};
use gridworld::NextUnit;
use retry::{Discipline, Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
use simgrid::{Series, SeriesSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Parameters of the live all-reduce.
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
    /// clear its barrier, and which [`run_coord_discipline`] therefore
    /// refuses to launch (live, it would hang every surviving rank).
    pub rejoin: bool,
    /// Seed for jitter streams and the sim prediction.
    pub seed: u64,
    /// Where artifacts land.
    pub out_dir: PathBuf,
}

impl CoordLiveOptions {
    /// The CI smoke: 4 ranks, 2 rounds, one kill + rejoin.
    pub fn quick(seed: u64, out_dir: PathBuf) -> CoordLiveOptions {
        CoordLiveOptions {
            ranks: 4,
            rounds: 2,
            file_service: Duration::from_millis(3),
            file_miss_service: Duration::from_millis(120),
            compute: Duration::from_millis(60),
            downtime: Duration::from_millis(1500),
            rejoin: true,
            seed,
            out_dir,
        }
    }
}

/// What one discipline's live run produced.
#[derive(Clone, Debug)]
pub struct CoordOutcome {
    /// Which discipline ran.
    pub discipline: Discipline,
    /// Wall-clock until every rank finished every round — the live
    /// time-to-global-completion.
    pub wall_s: f64,
    /// Blind fetch misses the daemon served (expensive scans).
    pub misses: u64,
    /// Free carrier-sense reads (`stat`).
    pub senses: u64,
    /// Successful fetches.
    pub hits: u64,
    /// Ranks killed mid-run.
    pub kills: u64,
    /// Ranks that rejoined after a kill.
    pub restarts: u64,
}

/// The whole smoke: both disciplines plus the fig8 sim prediction.
#[derive(Clone, Debug)]
pub struct CoordReport {
    /// Aloha's live outcome.
    pub aloha: CoordOutcome,
    /// Ethernet's live outcome.
    pub ethernet: CoordOutcome,
    /// Sim-predicted final-round global completion (aloha, ethernet),
    /// from quick-scale fig8.
    pub sim_done: (f64, f64),
    /// Did the live daemon confirm the predicted Ethernet ≤ Aloha
    /// time-to-global-completion ordering?
    pub confirms: bool,
}

/// One discipline's rank population, stated once: the scenario at
/// live scale, the rank script, and the rank policy. The static
/// pre-flight and the launcher both start from [`Ranks::new`], so what
/// the checker proves is about the program the ranks execute. On the
/// swarm this is the ranks' verb table — the live counterpart of the
/// sim's all-reduce world, minus the store (the daemon is the store).
struct Ranks {
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
    fn new(discipline: Discipline, opts: &CoordLiveOptions) -> Ranks {
        let compute = Dur::from_std(opts.compute);
        let kill_at = compute * u64::from(opts.rounds.max(1) - 1);
        let plan = FaultPlan::new(opts.seed).with(FaultSpec::once(
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
            seed: opts.seed,
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

/// Run one discipline's rank population against a fresh daemon.
pub fn run_coord_discipline(
    discipline: Discipline,
    opts: &CoordLiveOptions,
) -> std::io::Result<CoordOutcome> {
    let mut ranks = Ranks::new(discipline, opts);
    let proofs = preflight_barrier_proofs(&ranks);
    if !proofs.is_empty() {
        return Err(std::io::Error::other(format!(
            "refusing to launch {} ranks: the checker proves the barrier unsatisfiable\n  {}",
            opts.ranks,
            proofs.join("\n  ")
        )));
    }
    let cfg = GriddConfig {
        slots: opts.ranks as u64,
        file_service: opts.file_service,
        file_miss_service: opts.file_miss_service,
        deadline: Duration::from_secs(10),
        plan: FaultPlan::new(opts.seed),
        ..GriddConfig::default()
    };
    let handle = gridd::start(cfg)?;

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
    let kills = ranks.params.fault_plan.client_kills();
    let watchdog = ranks.params.round_timeout.to_std() * opts.rounds;
    let report = swarm::drive(ranks, &handle.addr().to_string(), vms, &kills, watchdog);

    let (clients, _) = handle.snapshot();
    handle.shutdown();
    let report = report?;
    Ok(CoordOutcome {
        discipline,
        wall_s: report.wall_s,
        misses: clients.iter().map(|c| c.get_err).sum(),
        senses: clients.iter().map(|c| c.df_calls).sum(),
        hits: clients.iter().map(|c| c.get_ok).sum(),
        kills: report.kills,
        restarts: report.restarts,
    })
}

/// Quick-scale fig8 prediction: the final round's global completion
/// time for one discipline.
fn sim_done(discipline: Discipline, seed: u64) -> f64 {
    by_name_with_plan("fig8", Scale::Quick, seed, false, None)
        .and_then(|run| run.set.get(discipline.label()).and_then(Series::last))
        .unwrap_or(f64::NAN)
}

/// Run the whole smoke: Aloha then Ethernet against fresh daemons,
/// compare with the quick-scale fig8 prediction, and write
/// `coord_live.json` + `coord_live.md` under `out_dir`.
pub fn run_coord_live(opts: &CoordLiveOptions) -> std::io::Result<CoordReport> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let aloha = run_coord_discipline(Discipline::Aloha, opts)?;
    let ethernet = run_coord_discipline(Discipline::Ethernet, opts)?;
    let sim = (
        sim_done(Discipline::Aloha, opts.seed),
        sim_done(Discipline::Ethernet, opts.seed),
    );
    // "Ethernet ≥ Aloha" in outcome terms: its global completion is no
    // later. Live wall-clock gets a small tolerance for scheduler
    // noise on loaded CI runners.
    let sim_predicts = sim.1 <= sim.0;
    let live_confirms = ethernet.wall_s <= aloha.wall_s * 1.05;
    let confirms = sim_predicts && live_confirms;

    let mut set = SeriesSet::new(
        "Live all-reduce: time-to-global-completion",
        "discipline (0 = Aloha, 1 = Ethernet)",
        "wall-clock (s)",
    );
    let mut s = Series::new("wall_s");
    s.push_xy(0.0, aloha.wall_s);
    s.push_xy(1.0, ethernet.wall_s);
    set.add(s);
    std::fs::write(opts.out_dir.join("coord_live.json"), set.to_json_pretty())?;
    std::fs::write(
        opts.out_dir.join("coord_live.md"),
        render_table(&aloha, &ethernet, sim, confirms, opts),
    )?;
    Ok(CoordReport {
        aloha,
        ethernet,
        sim_done: sim,
        confirms,
    })
}

/// The live-vs-sim comparison table (also reproduced in
/// EXPERIMENTS.md).
fn render_table(
    aloha: &CoordOutcome,
    ethernet: &CoordOutcome,
    sim: (f64, f64),
    confirms: bool,
    opts: &CoordLiveOptions,
) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# Live all-reduce vs. simulation (fig8)\n");
    let _ = writeln!(
        md,
        "{} real ranks x {} rounds, one kill + rejoin ({} ms down), seed {}.\n",
        opts.ranks,
        opts.rounds,
        opts.downtime.as_millis(),
        opts.seed
    );
    let _ = writeln!(
        md,
        "| discipline | live wall (s) | blind misses | sense reads | fetch hits | kills | rejoins | sim final-round done (s) |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
    for (out, s) in [(aloha, sim.0), (ethernet, sim.1)] {
        let _ = writeln!(
            md,
            "| {} | {:.2} | {} | {} | {} | {} | {} | {:.1} |",
            out.discipline.label(),
            out.wall_s,
            out.misses,
            out.senses,
            out.hits,
            out.kills,
            out.restarts,
            s,
        );
    }
    let _ = writeln!(
        md,
        "\nSim predicts Ethernet ≤ Aloha on time-to-global-completion; the live daemon **{}** it.",
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
    use gridworld::coord::rank_env;
    use simgrid::trace::TraceEv;
    use simgrid::SimRng;

    fn quick(d: Discipline) -> Ranks {
        Ranks::new(d, &CoordLiveOptions::quick(7, std::env::temp_dir()))
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
        let mut opts = CoordLiveOptions::quick(7, std::env::temp_dir());
        opts.rejoin = false;
        let proofs = preflight_barrier_proofs(&Ranks::new(Discipline::Ethernet, &opts));
        assert!(!proofs.is_empty(), "a permanent kill must be proven fatal");
        assert!(
            proofs[0].contains("unsatisfiable-barrier"),
            "proof names the rule: {}",
            proofs[0]
        );
        // And the launcher itself refuses — without touching a daemon.
        let err =
            run_coord_discipline(Discipline::Ethernet, &opts).expect_err("launch must be refused");
        assert!(err.to_string().contains("refusing to launch"), "{err}");
    }
}
