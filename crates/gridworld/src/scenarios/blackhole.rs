//! Scenario 3 — black holes (Figures 6–7).
//!
//! Three clients repeatedly fetch a 100 MB file from one of three
//! single-threaded replica servers chosen in random order. One server
//! is a permanent black hole: it accepts connections but never sends a
//! byte. The Aloha reader commits 60 seconds to whichever server it
//! picked; the Ethernet reader first fetches a well-known one-byte
//! flag file under a 5-second limit and only then commits to the
//! transfer.

use crate::driver::{ClientId, CommandWorld, Ctx, ExecOutcome, NextUnit, SimDriver};
use crate::scripts::{reader_script, unit_vm};
use ftsh::vm::{CmdResult, CmdToken, CommandSpec};
use retry::{Discipline, Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan};
use simgrid::trace::{SharedSink, TraceEv, NO_ID};
use simgrid::{Admission, FileServer, Series, ServerKind, SimRng};

/// Parameters of the reader scenario (defaults: the paper's numbers).
#[derive(Clone, Debug)]
pub struct BlackHoleParams {
    /// Number of reader clients (paper: 3).
    pub n_clients: usize,
    /// Reader discipline (the paper compares Aloha and Ethernet here).
    pub discipline: Discipline,
    /// Server hostnames; index into `black_holes` marks the traps.
    pub servers: Vec<String>,
    /// Which servers are black holes from the start (paper: one of
    /// three). The constant's only home: a fault plan can flap a
    /// server with timed `black-hole` toggles, but never clears these.
    pub black_holes: Vec<usize>,
    /// Server bandwidth in bytes/second (100 MB ≈ 10 s ⇒ 10 MB/s).
    pub bandwidth: u64,
    /// Size of the data file (paper: 100 MB).
    pub data_size: u64,
    /// Size of the flag file (paper: 1 byte).
    pub flag_size: u64,
    /// Connection setup latency.
    pub connect_latency: Dur,
    /// Pause between work units.
    pub unit_think: Dur,
    /// Master seed.
    pub seed: u64,
    /// Faults injected into this run (empty: none).
    pub fault_plan: FaultPlan,
}

impl Default for BlackHoleParams {
    fn default() -> BlackHoleParams {
        BlackHoleParams {
            n_clients: 3,
            discipline: Discipline::Ethernet,
            servers: vec!["xxx".into(), "yyy".into(), "zzz".into()],
            black_holes: vec![2],
            bandwidth: 10 * (1 << 20),
            data_size: 100 * (1 << 20),
            flag_size: 1,
            connect_latency: Dur::from_millis(100),
            unit_think: Dur::from_millis(100),
            seed: 0xb1ac_401e,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Scenario events.
#[derive(Debug)]
pub enum BlackHoleEv {
    /// A server finished its current transfer (valid per server seq).
    TransferDone {
        /// Server index.
        server: usize,
        /// Validity sequence number.
        seq: u64,
    },
}

/// One `wget` connected to a replica: the job a server queues.
#[derive(Clone, Copy, Debug)]
struct Fetch {
    client: ClientId,
    token: CmdToken,
    /// Bytes requested.
    size: u64,
}

/// The replica-servers world.
pub struct BlackHoleWorld {
    params: BlackHoleParams,
    rng: SimRng,
    /// The replicas, in `params.servers` order; which of them are
    /// black holes right now is each server's own kind (toggled by
    /// injected [`FaultKind::ServerBlackHole`] faults).
    servers: Vec<FileServer<Fetch>>,
    /// Successful 100 MB transfers.
    pub transfers: u64,
    /// Failed/killed data-transfer attempts (Figure 6's collisions).
    pub collisions: u64,
    /// Failed/killed flag probes (Figure 7's deferrals).
    pub deferrals: u64,
    /// Event timeline: cumulative transfers.
    pub transfer_series: Series,
    /// Event timeline: cumulative collisions.
    pub collision_series: Series,
    /// Event timeline: cumulative deferrals.
    pub deferral_series: Series,
    /// Per-client instants of successful transfers.
    pub per_client_successes: Vec<Vec<Time>>,
    /// Structured-trace sink for scenario-level events (deferrals and
    /// collisions as attempts die); `None` ⇒ no records, no cost.
    trace: Option<SharedSink>,
}

impl BlackHoleWorld {
    fn new(params: BlackHoleParams) -> BlackHoleWorld {
        let servers = (0..params.servers.len())
            .map(|i| FileServer::new(server_kind(params.black_holes.contains(&i))))
            .collect();
        BlackHoleWorld {
            rng: SimRng::new(params.seed),
            servers,
            transfers: 0,
            collisions: 0,
            deferrals: 0,
            transfer_series: Series::new("transfers"),
            collision_series: Series::new("collisions"),
            deferral_series: Series::new("deferrals"),
            per_client_successes: vec![Vec::new(); params.n_clients],
            trace: None,
            params,
        }
    }

    fn host_index(&self, host: &str) -> Option<usize> {
        self.params.servers.iter().position(|s| s == host)
    }

    /// How long a transfer of `bytes` takes once being served.
    fn transfer_time(&self, bytes: u64) -> Dur {
        Dur::from_secs_f64(bytes as f64 / self.params.bandwidth as f64)
    }

    /// `server` began service `seq`, if it began one: schedule the end
    /// of the transfer now at its head.
    fn begin_transfer(&self, ctx: &mut Ctx<'_, BlackHoleEv>, server: usize, seq: Option<u64>) {
        if let (Some(seq), Some(job)) = (seq, self.servers[server].serving()) {
            let at = ctx.now() + self.transfer_time(job.size);
            ctx.schedule(at, BlackHoleEv::TransferDone { server, seq });
        }
    }

    fn unit_env(&mut self) -> ftsh::Env {
        // Shuffle the host order for this work unit ("a server chosen
        // at random").
        let mut order: Vec<usize> = (0..self.params.servers.len()).collect();
        for i in (1..order.len()).rev() {
            let j = self.rng.range_u64(0, i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let mut env = ftsh::Env::new();
        for (slot, &srv) in order.iter().enumerate() {
            env.set(format!("h{}", slot + 1), self.params.servers[srv].clone());
        }
        env
    }

    /// A failed or killed attempt: classify by what was being fetched.
    fn record_miss(&mut self, now: Time, client: ClientId, was_flag: bool) {
        if was_flag {
            self.deferrals += 1;
            self.deferral_series.push(now, self.deferrals as f64);
            simgrid::trace::emit(&self.trace, now, client as i64, NO_ID, TraceEv::Deferral);
        } else {
            self.collisions += 1;
            self.collision_series.push(now, self.collisions as f64);
            simgrid::trace::emit(&self.trace, now, client as i64, NO_ID, TraceEv::Collision);
        }
    }
}

fn server_kind(black_hole: bool) -> ServerKind {
    if black_hole {
        ServerKind::BlackHole
    } else {
        ServerKind::Normal
    }
}

/// Parse `http://host/path` into (host, path).
fn parse_url(url: &str) -> Option<(&str, &str)> {
    let rest = url.strip_prefix("http://")?;
    let (host, path) = rest.split_once('/')?;
    Some((host, path))
}

impl CommandWorld for BlackHoleWorld {
    type Ev = BlackHoleEv;

    fn exec(
        &mut self,
        ctx: &mut Ctx<'_, BlackHoleEv>,
        client: ClientId,
        token: CmdToken,
        spec: &CommandSpec,
    ) -> ExecOutcome {
        if spec.program() != "wget" {
            return ExecOutcome::Now(CmdResult::fail());
        }
        let Some((host, path)) = spec.argv.get(1).and_then(|u| parse_url(u)) else {
            return ExecOutcome::Now(CmdResult::fail());
        };
        let Some(server) = self.host_index(host) else {
            // Unknown host: DNS failure, reported quickly.
            return ExecOutcome::At(ctx.now() + self.params.connect_latency, CmdResult::fail());
        };
        let size = if path == "flag" {
            self.params.flag_size
        } else {
            self.params.data_size
        };
        if path == "flag" && self.servers[server].kind() == ServerKind::Normal {
            // A live server answers the one-byte liveness probe promptly
            // even while a bulk transfer occupies its data channel —
            // carrier sensing distinguishes dead from busy (§5). Only a
            // black hole leaves the probe hanging.
            let dur = self.params.connect_latency + self.transfer_time(size);
            return ExecOutcome::At(ctx.now() + dur, CmdResult::succeed());
        }
        let job = Fetch {
            client,
            token,
            size,
        };
        if let Admission::Serving(seq) = self.servers[server].connect(job) {
            self.begin_transfer(ctx, server, Some(seq));
        }
        ExecOutcome::Held
    }

    fn cancelled(&mut self, ctx: &mut Ctx<'_, BlackHoleEv>, client: ClientId, token: CmdToken) {
        // Whichever server the connection is on lets it go; if it was
        // the one being served, the next in line takes over.
        for server in 0..self.servers.len() {
            let left = self.servers[server].disconnect(|j| (j.client, j.token) == (client, token));
            if let Some(job) = left.job {
                self.record_miss(ctx.now(), client, job.size == self.params.flag_size);
                self.begin_transfer(ctx, server, left.started);
                return;
            }
        }
    }

    fn inject_fault(&mut self, ctx: &mut Ctx<'_, BlackHoleEv>, kind: &FaultKind) {
        if let FaultKind::ServerBlackHole { server, enable } = kind {
            if let Some(idx) = self.host_index(server) {
                // Collapsing, the in-flight transfer falls silent (its
                // scheduled completion goes stale) and the client stays
                // connected (Held) until its own deadline fires;
                // recovering, the head of the line resumes.
                let resumed = self.servers[idx].set_kind(server_kind(*enable));
                self.begin_transfer(ctx, idx, resumed);
            }
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, BlackHoleEv>, ev: BlackHoleEv) {
        match ev {
            BlackHoleEv::TransferDone { server, seq } => {
                let Some((job, next)) = self.servers[server].finish(seq) else {
                    return; // that transfer was killed
                };
                if job.size == self.params.data_size {
                    self.transfers += 1;
                    self.transfer_series.push(ctx.now(), self.transfers as f64);
                    self.per_client_successes[job.client].push(ctx.now());
                }
                ctx.complete(job.client, job.token, CmdResult::succeed());
                self.begin_transfer(ctx, server, next);
            }
        }
    }

    fn unit_done(
        &mut self,
        ctx: &mut Ctx<'_, BlackHoleEv>,
        _client: ClientId,
        _success: bool,
    ) -> Option<NextUnit> {
        // The env's shuffle draws first, then the seed.
        let env = self.unit_env();
        Some((env, self.rng.next_u64(), ctx.now() + self.params.unit_think))
    }
}

/// Results of a reader run.
#[derive(Debug)]
pub struct BlackHoleOutcome {
    /// Successful 100 MB transfers.
    pub transfers: u64,
    /// Failed/killed data attempts.
    pub collisions: u64,
    /// Failed/killed flag probes.
    pub deferrals: u64,
    /// Cumulative transfer timeline.
    pub transfer_series: Series,
    /// Cumulative collision timeline.
    pub collision_series: Series,
    /// Cumulative deferral timeline.
    pub deferral_series: Series,
    /// The longest time any single client went between successful
    /// transfers — the "hiccup" the Aloha reader suffers on the black
    /// hole.
    pub longest_stall: Dur,
    /// Events popped from this run's own queue (per-run engine work).
    pub events_popped: u64,
    /// VM ticks this run's driver issued.
    pub vm_ticks: u64,
    /// Past-scheduled events the queue clamped forward to `now`.
    pub queue_clamps: u64,
    /// Events scheduled past the window's end, counted and not stored.
    pub events_discarded: u64,
}

/// Run the scenario for `duration` of virtual time (paper: 900 s).
pub fn run_blackhole(params: BlackHoleParams, duration: Dur) -> BlackHoleOutcome {
    run_blackhole_traced(params, duration, None)
}

/// [`run_blackhole`] with an optional structured-trace sink: every
/// reader VM plus the replica-server world record into it (attempt
/// spans, backoffs, flag-probe deferrals, transfer collisions).
pub fn run_blackhole_traced(
    params: BlackHoleParams,
    duration: Dur,
    trace: Option<SharedSink>,
) -> BlackHoleOutcome {
    let mut world = BlackHoleWorld::new(params.clone());
    world.trace.clone_from(&trace);
    let script = reader_script(params.discipline);
    let mut vms = Vec::with_capacity(params.n_clients);
    let mut rng = SimRng::new(params.seed ^ 0x5e1f);
    for _ in 0..params.n_clients {
        let env = world.unit_env();
        vms.push(unit_vm(&script, params.discipline, env, rng.next_u64()));
    }
    let mut driver = SimDriver::new(world, vms);
    let (events_popped, vm_ticks, queue_clamps, events_discarded) =
        driver.run_traced(trace, params.fault_plan, Time::ZERO + duration, |_| {});
    let w = &driver.world;
    let mut longest = Dur::ZERO;
    for times in &w.per_client_successes {
        let mut prev = Time::ZERO;
        for &t in times {
            longest = longest.max(t.saturating_since(prev));
            prev = t;
        }
        longest = longest.max((Time::ZERO + duration).saturating_since(prev));
    }
    BlackHoleOutcome {
        transfers: w.transfers,
        collisions: w.collisions,
        deferrals: w.deferrals,
        transfer_series: w.transfer_series.clone(),
        collision_series: w.collision_series.clone(),
        deferral_series: w.deferral_series.clone(),
        longest_stall: longest,
        events_popped,
        vm_ticks,
        queue_clamps,
        events_discarded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgrid::faults::FaultSpec;

    fn run(d: Discipline) -> BlackHoleOutcome {
        let params = BlackHoleParams {
            discipline: d,
            ..BlackHoleParams::default()
        };
        run_blackhole(params, Dur::from_secs(900))
    }

    #[test]
    fn aloha_reader_makes_progress_but_stalls() {
        let o = run(Discipline::Aloha);
        assert!(o.transfers > 20, "transfers {}", o.transfers);
        assert!(o.collisions > 3, "collisions {}", o.collisions);
        assert!(
            o.longest_stall >= Dur::from_secs(55),
            "expected a ~60s black-hole stall, saw {}",
            o.longest_stall
        );
    }

    #[test]
    fn ethernet_reader_avoids_stalls() {
        let o = run(Discipline::Ethernet);
        assert!(o.transfers > 30, "transfers {}", o.transfers);
        assert!(o.deferrals > 3, "deferrals {}", o.deferrals);
        assert!(
            o.longest_stall < Dur::from_secs(55),
            "no 60s hiccups expected, saw {}",
            o.longest_stall
        );
    }

    #[test]
    fn ethernet_outperforms_aloha() {
        let a = run(Discipline::Aloha);
        let e = run(Discipline::Ethernet);
        assert!(
            e.transfers > a.transfers,
            "ethernet {} vs aloha {}",
            e.transfers,
            a.transfers
        );
        assert!(e.collisions < a.collisions.max(1));
    }

    #[test]
    fn no_black_hole_means_no_collisions_for_aloha() {
        let params = BlackHoleParams {
            discipline: Discipline::Aloha,
            black_holes: vec![],
            ..BlackHoleParams::default()
        };
        let o = run_blackhole(params, Dur::from_secs(300));
        assert_eq!(o.collisions, 0, "healthy servers, 3 clients, no misses");
        assert!(o.transfers > 20);
    }

    #[test]
    fn all_black_holes_means_no_transfers() {
        let params = BlackHoleParams {
            discipline: Discipline::Aloha,
            black_holes: vec![0, 1, 2],
            ..BlackHoleParams::default()
        };
        let o = run_blackhole(params, Dur::from_secs(300));
        assert_eq!(o.transfers, 0);
        assert!(o.collisions > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(Discipline::Aloha);
        let b = run(Discipline::Aloha);
        assert_eq!(a.transfers, b.transfers);
        assert_eq!(a.collisions, b.collisions);
    }

    #[test]
    fn a_custom_plan_keeps_the_stock_black_hole() {
        // The traps come from `black_holes` alone: a plan that toggles
        // no server — empty, or losing messages on a channel the
        // reader never runs — leaves the run exactly as the stock one.
        let loss_elsewhere = FaultPlan::new(2003).with(FaultSpec::once(
            Time::from_secs(10),
            FaultKind::MsgLoss {
                channel: "condor_submit".into(),
                probability: 1.0,
                duration: Dur::from_secs(200),
            },
        ));
        for d in [Discipline::Aloha, Discipline::Ethernet] {
            let run = |fault_plan: FaultPlan| {
                let params = BlackHoleParams {
                    discipline: d,
                    seed: 2003,
                    fault_plan,
                    ..BlackHoleParams::default()
                };
                let o = run_blackhole(params, Dur::from_secs(300));
                (o.transfers, o.collisions)
            };
            let stock = run(FaultPlan::default());
            if d == Discipline::Aloha {
                assert!(stock.1 > 0, "the stock black hole must bite: {stock:?}");
            }
            assert_eq!(run(FaultPlan::new(2003)), stock, "{d}: empty plan");
            assert_eq!(run(loss_elsewhere.clone()), stock, "{d}: unrelated loss");
        }
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let w = BlackHoleWorld::new(BlackHoleParams::default());
        let t = w.transfer_time(100 << 20);
        assert!(
            (t.as_secs_f64() - 10.0).abs() < 1e-9,
            "100MB at 10MB/s is 10s"
        );
    }

    #[test]
    fn url_parsing() {
        assert_eq!(parse_url("http://xxx/data"), Some(("xxx", "data")));
        assert_eq!(parse_url("http://yyy/flag"), Some(("yyy", "flag")));
        assert_eq!(parse_url("ftp://xxx/data"), None);
        assert_eq!(parse_url("http://nohost"), None);
    }
}
