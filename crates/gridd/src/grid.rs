//! The daemon's physics, with no socket in it and one clock.
//!
//! A [`Grid`] is everything about gridd that is *model* rather than
//! *wiring*: the schedd's slot pool with its overload crashes and
//! downtime, the file server (the simulator's own
//! [`simgrid::KeyStore`] behind a byte-capacity check), the fault
//! plan compiled to the simulator's own window table
//! ([`simgrid::faults::FaultWindows`]), the plan's RNG stream and the
//! per-client counters. It reads no clock and owns no timer: the
//! reactor ([`crate::server`]) hands it each event with `now` — a
//! [`retry::Time`] since daemon start, read once per event — and
//! carries out the [`Effect`]s it answers with. The same calls with
//! made-up instants replay the daemon in virtual time, which is how
//! this module's tests run.
//!
//! ## The contract
//!
//! * [`Grid::on_request`] — a decoded request arrived on `conn`. Every
//!   request is answered exactly once, now or later, by an
//!   [`Effect::Reply`] or an [`Effect::Close`] naming its connection.
//! * [`Effect::Wake`]`(t, id)` asks for [`Grid::on_timer`]`(now, id)`
//!   once `t` has come — never earlier, later is fine. A timer is
//!   never cancelled: one that outlived its purpose (the peer hung
//!   up, the store service was aborted) is recognised and ignored.
//! * A wake named [`TimerId::Conn`] *holds* that connection until it
//!   fires: the request it arrived with is stalled by a latency spike,
//!   holds a schedd slot for its service time, or fell into a black
//!   hole, and no further request from that peer may be put to the
//!   core meanwhile. File operations do not hold: a connection may
//!   have several queued at the file server at once, as one simulated
//!   client's parallel fetches are. Their replies come in the order
//!   asked; a sense read (`df`, `stat`) is answered on the spot, past
//!   any file operation the same connection still waits for — sensing
//!   is free.
//! * [`Grid::on_hangup`] — a connection with requests outstanding
//!   died. Its operations leave the file server's queue as a cancelled
//!   client's leave the simulated one, freeing the server for the next
//!   job if one was being served. A submission in service keeps its
//!   slot to the end of its service time and is accounted then, reply
//!   or no reply.
//!
//! ## Arrival and now
//!
//! A request stalled by a `latency-spike` is served later than it
//! arrived. Fault *lookups* (is the schedd inside a kill window, is
//! the file server a black hole, what does the free-space estimate
//! claim) are judged at the instant the request **arrived** — a
//! stalled request belongs to the windows it arrived in. State
//! *transitions* (crash downtime over, kill window opened or closed)
//! are applied by `Grid::sync` as of **now**, the instant of the
//! event being handled, and only ever move forward. A put lands, and
//! is refused by an ENOSPC window or a full disk, when its service
//! *ends*, as in the simulator.
//!
//! ## The schedd
//!
//! A pool of [`GriddConfig::slots`] service slots; a `submit` holds one
//! for [`GriddConfig::service`]. With none free the submission is
//! refused and overload pressure rises; enough of it
//! ([`GriddConfig::crash_overloads`]) crashes the schedd for
//! [`GriddConfig::downtime`]. Every crash — and every forced
//! `schedd-kill` window opening — starts a new *epoch*: the slots of
//! the jobs in service are free at once, and those jobs complete as
//! lost when their service time is up. This slot bucket is the live
//! arena's schedd and the only implementation of itself; the paper's
//! FD-table schedd is `gridworld`'s `SubmitWorld`.

use crate::proto::{ErrCode, Request, Response};
use crate::server::GriddConfig;
use retry::{Dur, Time};
use simgrid::faults::FaultWindows;
use simgrid::{KeyStore, Series, SeriesSet, Served, SimRng, Started, StoreOp};
use std::collections::HashMap;

/// The reactor's name for one connection; never reused while the
/// daemon lives, and opaque to the core.
pub type ConnId = u64;

/// Names a timer the core asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerId {
    /// Whatever `conn` is held for — a latency stall, a submission's
    /// service time, a black-hole swallow — is due.
    Conn(ConnId),
    /// The file server's service with this sequence number ends.
    Store(u64),
}

/// What the reactor must do for the core.
#[derive(Debug, PartialEq, Eq)]
pub enum Effect {
    /// Send the response; the connection is held no longer.
    Reply(ConnId, Response),
    /// Close the connection without answering.
    Close(ConnId),
    /// Call [`Grid::on_timer`] with this id once this instant has come.
    Wake(Time, TimerId),
}

/// One client's counters: what the `stats` verb dumps and
/// [`crate::GriddHandle::snapshot`] returns.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientSnapshot {
    /// Client index the counters belong to.
    pub client: u32,
    /// Jobs accepted and serviced to completion.
    pub submit_ok: u64,
    /// Submissions refused for lack of a free slot.
    pub submit_busy: u64,
    /// Submissions rejected while the schedd was down.
    pub submit_down: u64,
    /// Jobs accepted but lost to a mid-service crash (overload-driven
    /// or a forced `schedd-kill` window opening).
    pub submit_lost: u64,
    /// Carrier-sense reads (`df`/`stat`).
    pub df_calls: u64,
    /// Connections reset by injected message loss.
    pub resets: u64,
    /// Successful file stores.
    pub put_ok: u64,
    /// Failed file stores (ENOSPC, windows included).
    pub put_err: u64,
    /// Successful file reads.
    pub get_ok: u64,
    /// Failed file reads.
    pub get_err: u64,
}

impl ClientSnapshot {
    /// The counters by name, in the order `stats` lists them.
    fn rows(&self) -> [(&'static str, u64); 10] {
        [
            ("submit_ok", self.submit_ok),
            ("submit_busy", self.submit_busy),
            ("submit_down", self.submit_down),
            ("submit_lost", self.submit_lost),
            ("put_ok", self.put_ok),
            ("put_err", self.put_err),
            ("get_ok", self.get_ok),
            ("get_err", self.get_err),
            ("df_calls", self.df_calls),
            ("resets", self.resets),
        ]
    }
}

/// Why a connection is held.
enum Hold {
    /// A latency spike holds the request it arrived with.
    Stalled { req: Request, arrived: Time },
    /// A submission in service, stamped with the epoch that took it.
    Service {
        client: u32,
        epoch: u64,
        job_id: String,
    },
    /// Black-holed: to be closed, never answered.
    Swallowed,
}

/// The daemon's state machine. See the module docs for the contract.
pub struct Grid {
    slots: u64,
    service: Dur,
    crash_overloads: u32,
    downtime: Dur,
    deadline: Dur,
    disk_bytes: usize,
    windows: FaultWindows,
    /// The plan's private stream (message-loss draws).
    rng: SimRng,
    /// Slots held by jobs of the current epoch.
    in_service: u64,
    /// Consecutive-ish refusals for lack of a slot: a refusal adds
    /// one, a grant takes one away.
    overload: u32,
    /// Overload crashes so far.
    crashes: u64,
    /// `crashes` plus the kill windows opened, as of the last `sync`.
    epoch: u64,
    /// Kill windows seen to close, as of the last `sync`.
    forced_closed: u64,
    /// Crashed by overload: down until then.
    down_until: Option<Time>,
    /// Jobs accepted so far (numbers the job ids).
    jobs: u64,
    store: KeyStore<String, Vec<u8>, (ConnId, u32)>,
    disk_used: usize,
    clients: HashMap<u32, ClientSnapshot>,
    holds: HashMap<ConnId, Hold>,
}

fn counters(clients: &mut HashMap<u32, ClientSnapshot>, client: u32) -> &mut ClientSnapshot {
    clients.entry(client).or_insert_with(|| ClientSnapshot {
        client,
        ..ClientSnapshot::default()
    })
}

fn err(code: ErrCode, msg: impl Into<String>) -> Response {
    Response::Err {
        code,
        msg: msg.into(),
    }
}

impl Grid {
    /// A freshly started daemon: full slot pool, empty file server,
    /// the plan's windows counted from `Time::ZERO`.
    pub fn new(cfg: &GriddConfig) -> Grid {
        Grid {
            slots: cfg.slots,
            service: Dur::from_std(cfg.service),
            crash_overloads: cfg.crash_overloads,
            downtime: Dur::from_std(cfg.downtime),
            deadline: Dur::from_std(cfg.deadline),
            disk_bytes: cfg.disk_bytes,
            windows: cfg.plan.windows(Dur::from_std(cfg.downtime)),
            rng: cfg.plan.rng(),
            in_service: 0,
            overload: 0,
            crashes: 0,
            epoch: 0,
            forced_closed: 0,
            down_until: None,
            jobs: 0,
            store: KeyStore::new(
                Dur::from_std(cfg.file_service),
                Dur::from_std(cfg.file_service),
                Dur::from_std(cfg.file_miss_service),
            ),
            disk_used: 0,
            clients: HashMap::new(),
            holds: HashMap::new(),
        }
    }

    fn client(&mut self, id: u32) -> &mut ClientSnapshot {
        counters(&mut self.clients, id)
    }

    /// Bring the schedd's state up to `now`. A kill window that opened
    /// took every job in service with it (a new epoch); one that
    /// closed, like a crash downtime that ran out, restarts the schedd
    /// with overload pressure cleared. Each transition happens once,
    /// whatever instants later requests claim to have arrived at.
    fn sync(&mut self, now: Time) {
        let opened = self.windows.forced_starts(now);
        if self.crashes + opened != self.epoch {
            self.epoch = self.crashes + opened;
            self.in_service = 0;
        }
        let closed = opened - u64::from(self.windows.sched_forced_down(now));
        let downtime_over = self.down_until.is_some_and(|until| now >= until);
        if closed != self.forced_closed || downtime_over {
            self.forced_closed = closed;
            self.down_until = None;
            self.overload = 0;
        }
    }

    /// Was the schedd down for a request that arrived at `arrived`?
    /// (After [`sync`](Self::sync): a crash downtime still set is
    /// still running.)
    fn sched_down(&self, arrived: Time) -> bool {
        self.windows.sched_forced_down(arrived) || self.down_until.is_some()
    }

    /// Per-client counters in client order, and the schedd crashes up
    /// to `now`: overload crashes plus forced kill windows opened — the
    /// accounting the simulator uses.
    pub fn snapshot(&self, now: Time) -> (Vec<ClientSnapshot>, u64) {
        let mut clients: Vec<ClientSnapshot> = self.clients.values().cloned().collect();
        clients.sort_by_key(|c| c.client);
        (clients, self.crashes + self.windows.forced_starts(now))
    }

    /// The counters as a `simgrid::metrics::SeriesSet` — the JSON
    /// shape every figure emits. One series per counter, one point per
    /// client `(client, count)`; the `schedd_crashes` series carries
    /// the crash count at x=0.
    fn stats_json(&self, now: Time) -> String {
        let (clients, crashes) = self.snapshot(now);
        let names = ClientSnapshot::default().rows();
        let mut series: Vec<Series> = names.iter().map(|&(name, _)| Series::new(name)).collect();
        for c in &clients {
            for (s, (_, count)) in series.iter_mut().zip(c.rows()) {
                s.push_xy(f64::from(c.client), count as f64);
            }
        }
        let mut set = SeriesSet::new("gridd per-client counters", "client", "count");
        for s in series {
            set.add(s);
        }
        let mut s = Series::new("schedd_crashes");
        s.push_xy(0.0, crashes as f64);
        set.add(s);
        set.to_json()
    }

    /// A request arrived on `conn` at `now`.
    pub fn on_request(&mut self, now: Time, conn: ConnId, req: Request, out: &mut Vec<Effect>) {
        let extra = self.windows.extra_latency(req.verb(), now);
        if extra.is_zero() {
            self.serve(now, now, conn, req, out);
        } else {
            // The stall is bounded like every wait on a connection.
            let until = now + extra.min(self.deadline);
            self.holds.insert(conn, Hold::Stalled { req, arrived: now });
            out.push(Effect::Wake(until, TimerId::Conn(conn)));
        }
    }

    /// The timer asked for under `id` is due.
    pub fn on_timer(&mut self, now: Time, id: TimerId, out: &mut Vec<Effect>) {
        match id {
            TimerId::Conn(conn) => self.release(now, conn, out),
            TimerId::Store(seq) => {
                let next = self.finish_store(now, seq, out);
                self.run_store(now, next, out);
            }
        }
    }

    /// What `conn` was held for is due.
    fn release(&mut self, now: Time, conn: ConnId, out: &mut Vec<Effect>) {
        match self.holds.remove(&conn) {
            None => {} // the peer hung up first
            Some(Hold::Stalled { req, arrived }) => self.serve(now, arrived, conn, req, out),
            Some(Hold::Swallowed) => out.push(Effect::Close(conn)),
            Some(Hold::Service {
                client,
                epoch,
                job_id,
            }) => {
                self.sync(now);
                let resp = if epoch == self.epoch {
                    self.in_service -= 1;
                    self.client(client).submit_ok += 1;
                    Response::Ok { info: job_id }
                } else {
                    // A crash (overload or forced kill) took the job,
                    // and its slot was freed with it.
                    self.client(client).submit_lost += 1;
                    err(ErrCode::Down, "job lost in schedd crash")
                };
                out.push(Effect::Reply(conn, resp));
            }
        }
    }

    /// Connection `conn`, with requests outstanding, is gone.
    pub fn on_hangup(&mut self, now: Time, conn: ConnId, out: &mut Vec<Effect>) {
        // A slot is held, and accounted, to the end of service.
        if !matches!(self.holds.get(&conn), Some(Hold::Service { .. })) {
            self.holds.remove(&conn);
        }
        let next = self.store.leave(|&(c, _)| c == conn);
        self.run_store(now, next, out);
    }

    /// Serve a request that arrived at `arrived`, now.
    fn serve(
        &mut self,
        now: Time,
        arrived: Time,
        conn: ConnId,
        req: Request,
        out: &mut Vec<Effect>,
    ) {
        // Injected loss resets the connection *instead of* replying —
        // a dropped message.
        let p = self.windows.loss_probability(req.verb(), arrived);
        if p > 0.0 && self.rng.chance(p) {
            if let Some(c) = req.client() {
                self.client(c).resets += 1;
            }
            out.push(Effect::Close(conn));
            return;
        }
        let resp = match req {
            Request::Submit { client, job } => match self.submit(now, arrived, client, &job) {
                Ok(hold) => {
                    // The slot is held for the service time: this is
                    // where concurrent aggressive clients collide.
                    self.holds.insert(conn, hold);
                    out.push(Effect::Wake(now + self.service, TimerId::Conn(conn)));
                    return;
                }
                Err(refusal) => refusal,
            },
            Request::Df { client } => {
                self.sync(now);
                self.client(client).df_calls += 1;
                let free = if self.sched_down(arrived) {
                    0
                } else {
                    self.slots - self.in_service
                };
                // An active free-space lie skews the estimate — the
                // attack on carrier sense itself.
                let lied = (free as i64).saturating_add(self.windows.df_delta(arrived));
                Response::Free {
                    slots: lied.max(0) as u64,
                }
            }
            // The file server's carrier sense: is the file there right
            // now? Read off the key space, never queued behind file
            // service and never black-holed, so sensing stays free
            // while committed work pays the FIFO.
            Request::Stat { client, name } => {
                self.client(client).df_calls += 1;
                Response::Free {
                    slots: u64::from(self.store.contains(&name)),
                }
            }
            Request::Stats => Response::Stats {
                json: self.stats_json(now),
            },
            Request::Put { client, name, data } => {
                return self.file_op(now, arrived, (conn, client), StoreOp::Put(name, data), out);
            }
            Request::Get { client, name } => {
                return self.file_op(now, arrived, (conn, client), StoreOp::Get(name), out);
            }
        };
        out.push(Effect::Reply(conn, resp));
    }

    /// A submission: a refusal to send back, or the hold that keeps
    /// its slot.
    fn submit(
        &mut self,
        now: Time,
        arrived: Time,
        client: u32,
        job: &str,
    ) -> Result<Hold, Response> {
        self.sync(now);
        if self.sched_down(arrived) {
            self.client(client).submit_down += 1;
            return Err(err(ErrCode::Down, "schedd is down"));
        }
        if self.in_service >= self.slots {
            self.overload += 1;
            if self.overload < self.crash_overloads {
                self.client(client).submit_busy += 1;
                return Err(err(ErrCode::Busy, "no free service slots"));
            }
            // The stampede starved the schedd: it crashes, every job
            // in service is lost, and the service goes dark.
            self.overload = 0;
            self.crashes += 1;
            self.epoch += 1;
            self.in_service = 0;
            self.down_until = Some(now + self.downtime);
            self.client(client).submit_down += 1;
            return Err(err(ErrCode::Down, "schedd crashed under load"));
        }
        self.in_service += 1;
        // A grant relieves pressure but does not erase it: sustained
        // overload still accumulates toward a crash while slots churn.
        self.overload = self.overload.saturating_sub(1);
        self.jobs += 1;
        Ok(Hold::Service {
            client,
            epoch: self.epoch,
            job_id: format!("{job}@{}", self.jobs),
        })
    }

    /// A `put` or `get`: swallowed by a black hole, or handed to the
    /// file server.
    fn file_op(
        &mut self,
        now: Time,
        arrived: Time,
        who: (ConnId, u32),
        op: StoreOp<String, Vec<u8>>,
        out: &mut Vec<Effect>,
    ) {
        if let Some(end) = self.windows.black_hole_until(arrived) {
            // Never answered; closed when the hole does, or at the
            // connection deadline, so the client's wait is bounded.
            let until = end.max(now).min(now + self.deadline);
            self.holds.insert(who.0, Hold::Swallowed);
            out.push(Effect::Wake(until, TimerId::Conn(who.0)));
            return;
        }
        let started = self.store.request(who, op);
        self.run_store(now, started, out);
    }

    /// The file server started a service (or did not): one that costs
    /// nothing ends on the spot — so a free operation on an idle server
    /// is answered inline — and may start the next; the first that
    /// takes time gets a timer.
    fn run_store(&mut self, now: Time, mut started: Option<Started>, out: &mut Vec<Effect>) {
        while let Some(Started { seq, dur }) = started {
            if !dur.is_zero() {
                out.push(Effect::Wake(now + dur, TimerId::Store(seq)));
                return;
            }
            started = self.finish_store(now, seq, out);
        }
    }

    /// File service `seq` ends at `now`: the operation takes effect
    /// and its owner is answered. Returns the service that starts
    /// next. A stale `seq` (its owner hung up) does nothing.
    fn finish_store(&mut self, now: Time, seq: u64, out: &mut Vec<Effect>) -> Option<Started> {
        let windowed = self.windows.enospc_active(now);
        let (used, capacity) = (self.disk_used, self.disk_bytes);
        let (mut used_after, mut len) = (used, 0);
        let done = self.store.finish(seq, |_, data, old| {
            len = data.len();
            used_after = used - old.map_or(0, Vec::len) + len;
            !windowed && used_after <= capacity
        })?;
        let (conn, client) = done.who;
        let c = counters(&mut self.clients, client);
        let resp = match done.served {
            Served::Stored { .. } => {
                self.disk_used = used_after;
                c.put_ok += 1;
                Response::Ok {
                    info: format!("{len} bytes"),
                }
            }
            Served::Refused => {
                c.put_err += 1;
                let why = if windowed { " (fault window)" } else { "" };
                err(ErrCode::Enospc, format!("no space left on device{why}"))
            }
            Served::Hit(data) => {
                c.get_ok += 1;
                Response::Data { data: data.clone() }
            }
            Served::Miss(name) => {
                c.get_err += 1;
                err(ErrCode::NotFound, format!("no such file: {name}"))
            }
        };
        out.push(Effect::Reply(conn, resp));
        done.next
    }
}

#[cfg(test)]
mod tests;
