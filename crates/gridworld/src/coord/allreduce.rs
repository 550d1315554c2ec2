//! Scenario 4 — fault-tolerant all-reduce/barrier (Figure 8).
//!
//! N worker ranks run synchronized rounds. In each round a rank
//! computes its partial value, publishes it to the shared store under
//! the key `(round, rank)`, and then fetches every peer's key —
//! `forall` over the peer list is the barrier: the rank's round
//! completes only when all N keys landed.
//!
//! The contended resource is the store's single-server FIFO front end
//! ([`Store`]). A fetch of a key that is not there yet is an
//! *expensive miss* (an exhaustive directory scan holding the server),
//! so a discipline that polls blindly for a straggler degrades
//! everyone's puts and gets. The Ethernet rank instead probes a cached
//! per-round count of landed keys — free carrier sensing — and defers
//! (with exponential backoff) until the whole round is present before
//! committing any fetch.
//!
//! Rank kills: a [`FaultKind::ClientKill`] injection drops a rank
//! mid-round. Its published key survives, its in-flight store
//! operations are cancelled, and — if the spec carries a restart
//! delay — the world re-admits the rank on the round it was in, and
//! the driver restarts its VM there: it re-computes and re-publishes
//! (the store deduplicates keys, so a re-publish never double-counts
//! the barrier). Live ranks notice nothing except that the round's last
//! key is late: the carrier stays sensed-busy until the straggler
//! lands.
//!
//! Which round a rank is on, how long its compute takes and which unit
//! it runs next is one [`RankPolicy`], driven by this world and by the
//! live ranks alike.

use crate::coord::{coord_vm, schedule_done, store_reply, Store, StoreDone};
use crate::driver::{staggered_starts, ClientId, CommandWorld, Ctx, ExecOutcome, SimDriver};
use crate::lifecycle::NextUnit;
use ftsh::vm::{CmdResult, CmdToken, CommandSpec, Vm};
use ftsh::Script;
use retry::{Discipline, Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan};
use simgrid::trace::SharedSink;
use simgrid::{Series, Served, SimRng, StoreOp};

/// The space-separated peer list `r0 r1 … rN-1` the barrier `forall`
/// iterates over.
pub fn peer_list(n_ranks: usize) -> String {
    let mut s = String::new();
    for r in 0..n_ranks {
        if r > 0 {
            s.push(' ');
        }
        s.push('r');
        s.push_str(&r.to_string());
    }
    s
}

/// The Aloha rank (Fixed is the same script with no backoff): publish,
/// then blindly fetch every peer's key until each lands.
///
/// ```text
/// compute ${rank} ${round}
/// publish ${rank} ${round}
/// forall peer in r0 r1 r2 r3
///   try for 600 seconds
///     fetch ${peer} ${round}
///   end
/// end
/// ```
pub fn allreduce_aloha_text(n_ranks: usize, round_timeout: Dur) -> String {
    format!(
        "compute ${{rank}} ${{round}}\n\
         publish ${{rank}} ${{round}}\n\
         forall peer in {peers}\n\
           try for {t} seconds\n\
             fetch ${{peer}} ${{round}}\n\
           end\n\
         end\n",
        peers = peer_list(n_ranks),
        t = round_timeout.as_secs(),
    )
}

/// The Ethernet rank senses the carrier first: a free `probe` of the
/// round's landed-key count gates the whole fetch phase, so no fetch
/// is committed until every peer has published.
///
/// ```text
/// compute ${rank} ${round}
/// publish ${rank} ${round}
/// try for 600 seconds
///   probe ${round} -> n
///   if ${n} .lt. 4
///     failure
///   else
///     forall peer in r0 r1 r2 r3
///       try for 60 seconds
///         fetch ${peer} ${round}
///       end
///     end
///   end
/// end
/// ```
pub fn allreduce_ethernet_text(n_ranks: usize, round_timeout: Dur, fetch_timeout: Dur) -> String {
    format!(
        "compute ${{rank}} ${{round}}\n\
         publish ${{rank}} ${{round}}\n\
         try for {t} seconds\n\
           probe ${{round}} -> n\n\
           if ${{n}} .lt. {n_ranks}\n\
             failure\n\
           else\n\
             forall peer in {peers}\n\
               try for {ft} seconds\n\
                 fetch ${{peer}} ${{round}}\n\
               end\n\
             end\n\
           end\n\
         end\n",
        peers = peer_list(n_ranks),
        t = round_timeout.as_secs(),
        ft = fetch_timeout.as_secs(),
    )
}

/// The rank script's source for one discipline — the one text the
/// simulator, the static checker and the live ranks all start from.
pub fn allreduce_text(
    discipline: Discipline,
    n_ranks: usize,
    round_timeout: Dur,
    fetch_timeout: Dur,
) -> String {
    match discipline {
        Discipline::Ethernet => allreduce_ethernet_text(n_ranks, round_timeout, fetch_timeout),
        Discipline::Aloha | Discipline::Fixed => allreduce_aloha_text(n_ranks, round_timeout),
    }
}

/// The rank script for one discipline.
pub fn allreduce_script(
    discipline: Discipline,
    n_ranks: usize,
    round_timeout: Dur,
    fetch_timeout: Dur,
) -> Script {
    let text = allreduce_text(discipline, n_ranks, round_timeout, fetch_timeout);
    ftsh::parse(&text).expect("generated script parses")
}

/// Parameters of the all-reduce scenario.
#[derive(Clone, Debug)]
pub struct AllReduceParams {
    /// Number of worker ranks (clients `0..n_ranks`).
    pub n_ranks: usize,
    /// Rounds each rank must complete.
    pub rounds: u32,
    /// Rank discipline.
    pub discipline: Discipline,
    /// Base compute time of one partial value.
    pub compute_base: Dur,
    /// Uniform jitter added to each compute.
    pub compute_jitter: Dur,
    /// Store service time of one publish.
    pub put_service: Dur,
    /// Store service time of a fetch that hits.
    pub get_service: Dur,
    /// Store service time of a fetch that misses — the exhaustive
    /// directory scan blind polling pays.
    pub miss_service: Dur,
    /// Cost of the carrier-sense probe (local cached count; the store
    /// server is not involved).
    pub probe_cost: Dur,
    /// `try` budget on one rank-round (barrier wait included); an
    /// exhausted budget fails the unit and the rank re-runs the round.
    pub round_timeout: Dur,
    /// Inner `try` budget on each Ethernet fetch (the carrier was
    /// sensed free, so fetches are expected to hit at once).
    pub fetch_timeout: Dur,
    /// Pause after completing a round before starting the next.
    pub success_think: Dur,
    /// Pause after a failed round before re-running it.
    pub failure_think: Dur,
    /// Ranks start uniformly spread over this span.
    pub start_stagger: Dur,
    /// Backoff base for Aloha/Ethernet `try` retries (rounds run in
    /// seconds, so the submit scenario's 1 s..1 h envelope tightens).
    pub backoff_base: Dur,
    /// Backoff cap for Aloha/Ethernet `try` retries.
    pub backoff_cap: Dur,
    /// Master seed.
    pub seed: u64,
    /// Fault plan: `client-kill` specs name ranks by client index
    /// (empty: no faults).
    pub fault_plan: FaultPlan,
}

impl Default for AllReduceParams {
    fn default() -> AllReduceParams {
        AllReduceParams {
            n_ranks: 4,
            rounds: 3,
            discipline: Discipline::Ethernet,
            compute_base: Dur::from_secs(2),
            compute_jitter: Dur::from_secs(1),
            put_service: Dur::from_millis(100),
            get_service: Dur::from_millis(50),
            miss_service: Dur::from_secs(2),
            probe_cost: Dur::from_millis(10),
            round_timeout: Dur::from_secs(600),
            fetch_timeout: Dur::from_secs(60),
            success_think: Dur::from_millis(500),
            failure_think: Dur::from_millis(500),
            start_stagger: Dur::from_secs(2),
            backoff_base: Dur::from_millis(500),
            backoff_cap: Dur::from_secs(4),
            seed: 0x5eed,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// The all-reduce rank policy, stated once: the round each rank is
/// on, how long a compute takes, and the unit a rank runs next after a
/// success, a failure or a kill. The simulated world and the live ranks
/// both drive it, so the two draw the same numbers in the same order
/// from one stream seeded by [`AllReduceParams::seed`].
pub struct RankPolicy {
    rounds: u32,
    compute_base: Dur,
    compute_jitter: Dur,
    success_think: Dur,
    failure_think: Dur,
    rng: SimRng,
    /// The round each rank is working on (== `rounds` once retired).
    round: Vec<u32>,
}

impl RankPolicy {
    /// Every rank on round 0.
    pub fn new(params: &AllReduceParams) -> RankPolicy {
        RankPolicy {
            rounds: params.rounds,
            compute_base: params.compute_base,
            compute_jitter: params.compute_jitter,
            success_think: params.success_think,
            failure_think: params.failure_think,
            rng: SimRng::new(params.seed),
            round: vec![0; params.n_ranks],
        }
    }

    /// The round `rank` is working on (`rounds` once it retired).
    pub fn round(&self, rank: ClientId) -> u32 {
        self.round[rank]
    }

    /// A VM seed from the policy's stream.
    pub fn seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// How long one compute takes: the base plus a uniform jitter.
    pub fn compute(&mut self) -> Dur {
        let jitter = self
            .rng
            .uniform(0.0, self.compute_jitter.as_secs_f64().max(1e-9));
        self.compute_base + Dur::from_secs_f64(jitter)
    }

    /// `rank` finished a unit: after a success it moves to the next
    /// round (retiring after the last), after a failure it re-runs the
    /// round. Returns the next unit and the think before it, or `None`
    /// once the rank retired.
    pub fn unit_done(&mut self, rank: ClientId, success: bool) -> Option<NextUnit<Dur>> {
        let think = if success {
            self.round[rank] += 1;
            if self.round[rank] >= self.rounds {
                return None; // all rounds done: retire
            }
            self.success_think
        } else {
            // Round budget exhausted (e.g. the barrier never filled
            // while a peer was dead): the whole rank-round re-runs.
            self.failure_think
        };
        Some(self.unit(rank, think))
    }

    /// A killed `rank` comes back: it resumes its round at once, unless
    /// it had already finished every round.
    pub fn resume(&mut self, rank: ClientId) -> Option<NextUnit<Dur>> {
        (self.round[rank] < self.rounds).then(|| self.unit(rank, Dur::ZERO))
    }

    /// `rank`'s current round as a unit, after `delay`.
    fn unit(&mut self, rank: ClientId, delay: Dur) -> NextUnit<Dur> {
        let seed = self.seed();
        (rank_env(rank, self.round[rank]), seed, delay)
    }
}

/// The store + round-accounting world.
struct AllReduceWorld {
    params: AllReduceParams,
    ranks: RankPolicy,
    /// Keys are `(round, rank)`; a re-publish overwrites.
    store: Store<(u32, usize)>,
    /// Landed-key count per round — what the carrier-sense probe reads.
    landed: Vec<u32>,
    /// Ranks that completed each round.
    round_done: Vec<u32>,
    /// When the last rank completed each round.
    round_done_at: Vec<Option<Time>>,
    /// The counters the run returns.
    out: AllReduceOutcome,
}

impl AllReduceWorld {
    fn new(params: AllReduceParams) -> AllReduceWorld {
        let rounds = params.rounds as usize;
        AllReduceWorld {
            ranks: RankPolicy::new(&params),
            store: Store::new(params.put_service, params.get_service, params.miss_service),
            landed: vec![0; rounds],
            round_done: vec![0; rounds],
            round_done_at: vec![None; rounds],
            out: AllReduceOutcome::default(),
            params,
        }
    }
}

/// What one rank-round's unit starts from: `${rank}`/`${round}` come in
/// through the environment, so one shared AST serves every rank and
/// round. The live ranks' units start from this same environment.
pub fn rank_env(rank: ClientId, round: u32) -> ftsh::Env {
    let mut env = ftsh::Env::new();
    env.set("rank", format!("r{rank}"));
    env.set("round", round.to_string());
    env
}

/// Build the VM `rank` runs its rounds on, set for round `round`
/// ([`rank_env`]). The live ranks are built by this same function.
pub fn rank_unit_vm(
    script: &Script,
    params: &AllReduceParams,
    rank: ClientId,
    round: u32,
    seed: u64,
) -> Vm {
    coord_vm(
        script,
        params.discipline,
        rank_env(rank, round),
        seed,
        params.backoff_base,
        params.backoff_cap,
    )
}

/// `"r7"` → `7`.
fn parse_rank(word: &str) -> Option<usize> {
    word.strip_prefix('r')?.parse().ok()
}

impl CommandWorld for AllReduceWorld {
    type Ev = StoreDone;

    fn exec(
        &mut self,
        ctx: &mut Ctx<'_, StoreDone>,
        client: ClientId,
        token: CmdToken,
        spec: &CommandSpec,
    ) -> ExecOutcome {
        let arg = |i: usize| spec.argv.get(i).map(ftsh::Istr::as_str).unwrap_or("");
        match spec.program() {
            "compute" => ExecOutcome::At(ctx.now() + self.ranks.compute(), CmdResult::succeed()),
            // The carrier-sense probe: how many of this round's keys
            // have landed. Reads a cached count — free of the store
            // server.
            "probe" => {
                let Ok(round) = arg(1).parse::<u32>() else {
                    return ExecOutcome::Now(CmdResult::fail());
                };
                let count = self.landed.get(round as usize).copied().unwrap_or(0);
                let count = u64::from(count);
                if ctx.sense(client, count, self.params.n_ranks as u64) {
                    self.out.deferrals += 1;
                }
                ExecOutcome::At(ctx.now() + self.params.probe_cost, ctx.count(count))
            }
            verb @ ("publish" | "fetch") => {
                let (Some(rank), Ok(round)) = (parse_rank(arg(1)), arg(2).parse::<u32>()) else {
                    return ExecOutcome::Now(CmdResult::fail());
                };
                let op = if verb == "publish" {
                    StoreOp::Put((round, rank), ())
                } else {
                    StoreOp::Get((round, rank))
                };
                schedule_done(ctx, self.store.request((client, token), op));
                ExecOutcome::Held
            }
            _ => ExecOutcome::Now(CmdResult::fail()),
        }
    }

    fn cancelled(&mut self, ctx: &mut Ctx<'_, StoreDone>, client: ClientId, token: CmdToken) {
        schedule_done(ctx, self.store.leave(|&who| who == (client, token)));
    }

    fn inject_fault(&mut self, _ctx: &mut Ctx<'_, StoreDone>, kind: &FaultKind) {
        // A kill arrives only when it hit a running rank: the rank-round
        // it was on is lost.
        if let FaultKind::ClientKill { .. } = kind {
            self.out.kills += 1;
            self.out.rounds_lost += 1;
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, StoreDone>, ev: StoreDone) {
        let StoreDone { seq } = ev;
        // Re-publishes after a rank restart overwrite: the barrier
        // count never sees a key twice.
        let mut round = 0;
        let admit = |key: &(u32, usize), (): &(), _: Option<&()>| {
            round = key.0 as usize;
            true
        };
        let Some(done) = self.store.finish(seq, admit) else {
            return; // that service was aborted by a cancel
        };
        schedule_done(ctx, done.next);
        let success = match done.served {
            Served::Stored { new } => {
                if let (true, Some(c)) = (new, self.landed.get_mut(round)) {
                    *c += 1;
                }
                true
            }
            Served::Hit(()) => true,
            Served::Miss(_) | Served::Refused => false,
        };
        store_reply(ctx, done.who, success);
    }

    fn unit_done(
        &mut self,
        ctx: &mut Ctx<'_, StoreDone>,
        client: ClientId,
        success: bool,
    ) -> Option<NextUnit> {
        if success {
            let k = self.ranks.round(client) as usize;
            self.round_done[k] += 1;
            if self.round_done[k] as usize == self.params.n_ranks {
                self.round_done_at[k] = Some(ctx.now());
            }
        } else {
            self.out.rounds_lost += 1;
        }
        let (env, seed, think) = self.ranks.unit_done(client, success)?;
        Some((env, seed, ctx.now() + think))
    }

    fn restart_client(
        &mut self,
        ctx: &mut Ctx<'_, StoreDone>,
        client: ClientId,
    ) -> Option<NextUnit> {
        let (env, seed, delay) = self.ranks.resume(client)?;
        self.out.restarts += 1;
        Some((env, seed, ctx.now() + delay))
    }
}

/// Results of one all-reduce run.
#[derive(Debug, Default)]
pub struct AllReduceOutcome {
    /// Rounds globally completed (every rank landed).
    pub rounds_completed: u32,
    /// Time-to-global-completion: when the last rank finished the
    /// last round, in seconds (`None` if the run never got there).
    pub all_done_at: Option<f64>,
    /// Per-round global completion time: x = round (1-based), y =
    /// seconds. Incomplete rounds are absent.
    pub round_series: Series,
    /// Rank-rounds lost to kills or exhausted round budgets.
    pub rounds_lost: u64,
    /// `client-kill` injections that hit a live rank.
    pub kills: u64,
    /// Ranks re-admitted after a kill.
    pub restarts: u64,
    /// Carrier-sense deferrals (Ethernet only).
    pub deferrals: u64,
    /// Expensive store misses served (blind polls of absent keys).
    pub failed_fetches: u64,
    /// Aggregated ftsh log summary across all rank VMs.
    pub client_totals: ftsh::LogSummary,
    /// Events popped from this run's own queue.
    pub events_popped: u64,
    /// VM ticks this run's driver issued.
    pub vm_ticks: u64,
    /// Past-scheduled events clamped forward to `now`.
    pub queue_clamps: u64,
    /// Events scheduled past the window's end, counted and not stored.
    pub events_discarded: u64,
    /// Wakes popped that an ended unit left behind ([`crate::RunCounts`]).
    pub stale_wakes: u64,
    /// Units a stale wake started before their start instant.
    pub early_units: u64,
}

/// Run the all-reduce for up to `duration` of virtual time.
///
/// ```
/// use gridworld::coord::{run_allreduce, AllReduceParams};
/// use retry::{Discipline, Dur};
///
/// let o = run_allreduce(
///     AllReduceParams {
///         n_ranks: 3,
///         rounds: 2,
///         discipline: Discipline::Ethernet,
///         ..AllReduceParams::default()
///     },
///     Dur::from_secs(120),
/// );
/// assert_eq!(o.rounds_completed, 2);
/// ```
pub fn run_allreduce(params: AllReduceParams, duration: Dur) -> AllReduceOutcome {
    run_allreduce_traced(params, duration, None)
}

/// [`run_allreduce`] with an optional structured-trace sink: every
/// rank VM plus the store world record into it (probes, deferrals,
/// per-round `unit-done`s, fault injections).
pub fn run_allreduce_traced(
    params: AllReduceParams,
    duration: Dur,
    sink: Option<SharedSink>,
) -> AllReduceOutcome {
    let world = AllReduceWorld::new(params.clone());
    let mut rng = SimRng::new(params.seed ^ 0xC11E);
    let p = &params;
    let script = allreduce_script(p.discipline, p.n_ranks, p.round_timeout, p.fetch_timeout);
    let vms: Vec<Vm> = (0..params.n_ranks)
        .map(|c| {
            let seed = rng.fork(c as u64).next_u64();
            rank_unit_vm(&script, &params, c, 0, seed)
        })
        .collect();
    let starts = staggered_starts(&mut rng, params.n_ranks, params.start_stagger);
    let mut driver = SimDriver::with_starts(world, vms, starts);
    let run = driver.run_traced(sink, params.fault_plan, Time::ZERO + duration, |_| {});
    let w = driver.world;
    let mut round_series = Series::new(params.discipline.label());
    for (k, at) in w.round_done_at.iter().enumerate() {
        if let Some(t) = at {
            round_series.push_xy((k + 1) as f64, t.as_secs_f64());
        }
    }
    AllReduceOutcome {
        rounds_completed: w.round_done_at.iter().filter(|t| t.is_some()).count() as u32,
        all_done_at: w
            .round_done_at
            .last()
            .copied()
            .flatten()
            .map(Time::as_secs_f64),
        round_series,
        failed_fetches: w.store.misses(),
        client_totals: driver.log_totals,
        events_popped: run.events_popped,
        vm_ticks: run.vm_ticks,
        queue_clamps: run.queue_clamps,
        events_discarded: run.events_discarded,
        stale_wakes: run.stale_wakes,
        early_units: run.early_units,
        ..w.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig8_kill_plan;
    use simgrid::faults::FaultSpec;

    fn base(d: Discipline) -> AllReduceParams {
        AllReduceParams {
            discipline: d,
            ..AllReduceParams::default()
        }
    }

    #[test]
    fn all_disciplines_complete_without_faults() {
        for d in Discipline::ALL {
            let o = run_allreduce(base(d), Dur::from_secs(300));
            assert_eq!(o.rounds_completed, 3, "{d}");
            assert!(o.all_done_at.is_some(), "{d}");
            assert_eq!(o.kills, 0, "{d}");
            assert_eq!(o.round_series.len(), 3, "{d}");
        }
    }

    #[test]
    fn ethernet_defers_and_avoids_misses() {
        let o = run_allreduce(base(Discipline::Ethernet), Dur::from_secs(300));
        assert!(o.deferrals > 0, "barrier waits must show up as deferrals");
        assert_eq!(o.failed_fetches, 0, "sensed-free fetches always hit");
        let a = run_allreduce(base(Discipline::Aloha), Dur::from_secs(300));
        assert!(a.failed_fetches > 0, "blind polling misses");
    }

    fn kill_plan(seed: u64, rank: usize, restart: Option<Dur>) -> FaultPlan {
        FaultPlan::new(seed).with(FaultSpec::once(
            Time::ZERO + Dur::from_secs(4),
            FaultKind::ClientKill {
                client: rank,
                restart,
            },
        ))
    }

    #[test]
    fn mid_round_kill_with_restart_completes_every_discipline() {
        for d in Discipline::ALL {
            let mut p = base(d);
            p.fault_plan = kill_plan(p.seed, 1, Some(Dur::from_secs(6)));
            let o = run_allreduce(p, Dur::from_secs(600));
            assert_eq!(o.rounds_completed, 3, "{d}");
            assert_eq!(o.kills, 1, "{d}");
            assert_eq!(o.restarts, 1, "{d}");
            assert!(o.rounds_lost >= 1, "{d}");
        }
    }

    #[test]
    fn a_second_kill_inside_the_downtime_changes_nothing() {
        // fig8's kill takes rank 1 down from 4 s to 10 s. Killing it
        // again at 7 s finds no running rank: nothing is counted, and
        // no second revival is scheduled.
        let again = FaultSpec::once(
            Time::from_secs(7),
            FaultKind::ClientKill {
                client: 1,
                restart: Some(Dur::from_secs(6)),
            },
        );
        for d in Discipline::ALL {
            let run = |fault_plan: FaultPlan| {
                let p = AllReduceParams {
                    seed: 2003,
                    fault_plan,
                    ..base(d)
                };
                let o = run_allreduce(p, Dur::from_secs(600));
                (o.kills, o.restarts, o.rounds_lost, o.round_series)
            };
            let once = run(fig8_kill_plan(2003));
            assert_eq!((once.0, once.1), (1, 1), "{d}");
            let twice = run(fig8_kill_plan(2003).with(again.clone()));
            assert_eq!(twice, once, "{d}");
        }
    }

    #[test]
    fn kill_without_restart_stalls_the_barrier() {
        let mut p = base(Discipline::Ethernet);
        p.rounds = 2;
        p.fault_plan = kill_plan(p.seed, 2, None);
        let o = run_allreduce(p, Dur::from_secs(120));
        assert_eq!(o.rounds_completed, 0, "a dead rank blocks every round");
        assert_eq!(o.kills, 1);
        assert_eq!(o.restarts, 0);
        assert!(o.deferrals > 0, "survivors keep sensing a busy carrier");
    }

    #[test]
    fn generated_scripts_parse_for_any_population() {
        for n in [1, 2, 8, 64] {
            for d in Discipline::ALL {
                let s = allreduce_script(d, n, Dur::from_secs(600), Dur::from_secs(60));
                assert!(!s.stmts.is_empty());
            }
        }
    }
}
