//! The client swarm: N grid clients, each a real ftsh VM running a
//! real ftsh script, multiplexed over sockets on one epoll reactor.
//! Like `procman` (real processes) and `gridworld::SimDriver` (the
//! event queue), it drives each [`ftsh::Vm`] by [`ftsh::step`] and
//! brings only its own world: the transport and the clock. Its unit
//! lifecycle is `SimDriver`'s own type, [`Lifecycle`]: the harness
//! says only what a client's next unit is, the lifecycle
//! [restarts](Vm::restart) its one VM, and it decides which timers are
//! stale and which wake to arm. The reactor keeps the clock and the
//! timer wheel.
//!
//! The reactor owns the wiring and nothing else. A VM's
//! [`Effect::Start`] is looked up in the harness's verb table
//! ([`Harness::verb`]) and becomes wire [`Request`]s pipelined on the
//! client's *persistent* connection; the daemon answers a connection
//! in order, so replies complete the in-flight commands first in,
//! first out. (Its free sense verbs answer at once and would overtake
//! file service still queued on the same connection; neither script
//! senses while committed work is in flight.) [`Effect::Cancel`] — a `try` deadline landing
//! mid-command — sacrifices the connection, exactly what killing a
//! per-verb process would do: the late reply must never be taken for
//! the answer to a later command, and the sibling commands in flight
//! on that connection complete as failures. The VM's `next_wake` goes
//! on the timer wheel. Every attempt, backoff, timeout, catch and
//! unit-done record in the merged trace is the VM's own; the reactor
//! adds only `carrier-sense` and `deferral`, as the simulated worlds
//! do.
//!
//! Two harnesses ride the reactor, one per study of [`crate::live`]:
//! the arena population (`sense` → `df`, `submit` → `submit`, over
//! [`gridworld::scripts::arena_script`]) and the coordinated ranks (the
//! fig8 all-reduce scripts the simulator runs). Neither contains retry
//! logic: the budget is in the script and the backoff policy is
//! installed on the VM.
//!
//! The reactor reuses the daemon's own readiness toolkit
//! ([`gridd::poll`]): one epoll instance for sockets, one timer wheel
//! for staggered starts, VM wake-ups, local work and rank kills.

use ftsh::vm::{step, Answers, CmdResult, CmdToken, CommandSpec, Effect, Executor, Vm, VmStatus};
use gridd::poll::{set_nonblocking, Epoll, Event, TimerWheel};
use gridd::proto::{FrameBuf, Request, Response};
use gridworld::{Lifecycle, NextUnit, Wake};
use retry::{Dur, Time};
use simgrid::faults::ClientKillInfo;
use simgrid::trace::{carrier_sense, TraceEv, TraceRecord, TraceSink as _, VecSink, NO_ID};
use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ------------------------------------------------------------ verb tables

/// What a verb table makes of one started command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verb {
    /// Not in the table: the command fails on the spot.
    Unknown,
    /// Local work, no wire traffic: succeeds after the delay.
    Local(Duration),
    /// Committed work: one request; an `ok`/`data` reply is success,
    /// an `err` reply failure.
    Act(Request),
    /// A free carrier-sense read: the requests are pipelined and their
    /// `free` replies summed. The command succeeds with the sum as its
    /// output — the script compares it, as the §5 Ethernet clients do
    /// — and a sum under `busy_below` is recorded as a deferral.
    Sense {
        /// The reads, one reply each.
        requests: Vec<Request>,
        /// The threshold the script defers under.
        busy_below: u64,
    },
}

/// One population's half of the swarm: the verb table that maps its
/// scripts' commands onto the wire, and what follows a finished unit.
pub trait Harness {
    /// Map a command a client's VM started.
    fn verb(&mut self, client: usize, spec: &CommandSpec) -> Verb;

    /// A client's script finished (one work unit). Return the next
    /// unit, or `None` to retire the client.
    fn unit_done(&mut self, client: usize, success: bool) -> Option<NextUnit<Duration>> {
        let _ = (client, success);
        None
    }

    /// A killed client's restart delay elapsed. Return the unit it
    /// resumes with, or `None` to leave the client dead.
    fn revive(&mut self, client: usize) -> Option<NextUnit<Duration>> {
        let _ = client;
        None
    }
}

/// One wire verb in flight on a client's connection.
struct Call {
    token: CmdToken,
    /// The deferral threshold of a sense read; `None` for an act.
    busy_below: Option<u64>,
    /// Replies still owed.
    left: usize,
    /// Sum of the `free` replies so far.
    free: u64,
    ok: bool,
}

impl Call {
    fn new(token: CmdToken, busy_below: Option<u64>, requests: usize) -> Call {
        Call {
            token,
            busy_below,
            left: requests,
            free: 0,
            ok: true,
        }
    }

    /// Fold one reply in. `Ok(true)` when it was the call's last;
    /// `Err` when its kind does not fit the verb — a wire-protocol bug.
    fn reply(&mut self, resp: &Response) -> Result<bool, ()> {
        match (self.busy_below, resp) {
            (Some(_), Response::Free { slots }) => self.free += slots,
            (None, Response::Ok { .. } | Response::Data { .. }) => {}
            (None, Response::Err { .. }) => self.ok = false,
            _ => return Err(()),
        }
        self.left -= 1;
        Ok(self.left == 0)
    }

    /// Every reply is in: the command's result. A sense read is
    /// recorded (`carrier-sense`, plus `deferral` when it read busy)
    /// the way the simulated worlds record theirs.
    fn finish(&self, record: impl FnMut(TraceEv)) -> CmdResult {
        let Some(busy_below) = self.busy_below else {
            return CmdResult {
                success: self.ok,
                stdout: None,
            };
        };
        carrier_sense(self.free, busy_below, record);
        CmdResult::ok(self.free.to_string())
    }
}

// ---------------------------------------------------------------- report

/// What the swarm did, measured at the client side.
#[derive(Clone, Debug, Default)]
pub struct SwarmReport {
    /// Merged, time-sorted trace of every client.
    pub trace: Vec<TraceRecord>,
    /// Well-formed responses decoded.
    pub responses: u64,
    /// Re-connects after resets/timeouts (first connects excluded).
    pub reconnects: u64,
    /// Clients killed mid-run by the kill plan.
    pub kills: u64,
    /// Killed clients the harness re-admitted.
    pub restarts: u64,
    /// Wall-clock for the whole population.
    pub wall_s: f64,
}

impl SwarmReport {
    /// Client-observed dispatch rate: decoded responses per second of
    /// wall-clock — the scalability headline.
    pub fn dispatch_rate(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.responses as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

// --------------------------------------------------------------- reactor

/// Timer completions. `epoch` guards staleness: it is the client's unit
/// epoch when the timer was armed ([`Lifecycle::epoch`]), and token
/// numbering restarts with every unit, so a timer armed for an earlier
/// unit must not touch the next.
enum Tev {
    /// Tick the VM: its start, a backoff wake-up or a `try` deadline.
    Wake { id: usize, epoch: u32, at: Time },
    /// A [`Verb::Local`] finished.
    LocalDone {
        id: usize,
        epoch: u32,
        token: CmdToken,
    },
    /// The kill plan takes a client down at its planned instant `at`.
    Kill {
        id: usize,
        at: Time,
        restart: Option<Dur>,
    },
    /// A killed client's downtime is over.
    Revive { id: usize },
}

#[derive(Default)]
struct Client {
    /// The client's one VM; out of its slot only while it steps.
    vm: Option<Vm>,
    life: Lifecycle,
    /// Commands completed since the VM last ran, in completion order.
    done: Vec<(CmdToken, CmdResult)>,
    stream: Option<TcpStream>,
    frames: FrameBuf,
    out: Vec<u8>,
    out_pos: usize,
    /// Epoll holds write interest for the socket (read interest always).
    want_write: bool,
    ever_connected: bool,
    /// Wire verbs awaiting replies, oldest first.
    calls: VecDeque<Call>,
}

/// The reactor: clients, sockets, timers, and the collected report.
struct Swarm<'a, H> {
    harness: H,
    addr: &'a str,
    epoll: Epoll,
    timers: TimerWheel<Tev>,
    clients: Vec<Client>,
    /// Clients not yet retired (or dead for good).
    live: usize,
    start: Instant,
    /// The one trace sink: every VM records into it, and so does the
    /// reactor's own carrier-sense bookkeeping.
    sink: Arc<Mutex<VecSink>>,
    effects: Vec<Effect>,
    /// The one buffer every socket is read through; a read that does
    /// not fill it has emptied the socket.
    read_buf: Box<[u8]>,
    /// Frames that failed to decode or had the wrong kind. Any is a
    /// wire-protocol bug and fails the run.
    protocol_errors: u64,
    report: SwarmReport,
}

/// Drive a population to completion: client `i` starts on `vms[i].0`
/// after the offset `vms[i].1` and runs until the harness retires it.
/// `kills` (client-kill triggers of a fault plan, on the run's own
/// clock) take clients down mid-run; `watchdog` bounds the whole run,
/// which fails if anyone is still going when it fires — or if a
/// single malformed or mismatched frame was seen on the wire.
/// Daemon-side counters come from [`gridd::GriddHandle::snapshot`].
pub fn drive<H: Harness>(
    harness: H,
    addr: &str,
    vms: Vec<(Vm, Duration)>,
    kills: &[ClientKillInfo],
    watchdog: Duration,
) -> io::Result<SwarmReport> {
    let start = Instant::now();
    let mut swarm = Swarm {
        harness,
        addr,
        epoll: Epoll::new()?,
        timers: TimerWheel::new(start),
        clients: Vec::with_capacity(vms.len()),
        live: vms.len(),
        start,
        sink: Arc::new(Mutex::new(VecSink::new())),
        effects: Vec::new(),
        read_buf: vec![0; 4096].into_boxed_slice(),
        protocol_errors: 0,
        report: SwarmReport::default(),
    };
    for (id, (mut vm, offset)) in vms.into_iter().enumerate() {
        vm.set_tracer(swarm.sink.clone(), id as i64);
        swarm.clients.push(Client {
            vm: Some(vm),
            ..Client::default()
        });
        swarm.wake(id, swarm.now() + Dur::from_std(offset));
    }
    for k in kills.iter().filter(|k| k.client < swarm.clients.len()) {
        swarm.timers.schedule(
            swarm.instant(k.at),
            Tev::Kill {
                id: k.client,
                at: k.at,
                restart: k.restart,
            },
        );
    }

    let cap = start + watchdog;
    let mut events: Vec<Event> = Vec::new();
    let mut fired: Vec<Tev> = Vec::new();
    while swarm.live > 0 {
        let now = Instant::now();
        if now >= cap {
            break;
        }
        swarm.timers.advance(now, &mut fired);
        for tev in fired.drain(..) {
            swarm.on_timer(tev);
        }
        if swarm.live == 0 {
            break;
        }
        let timeout = swarm
            .timers
            .next_deadline()
            .map_or(cap, |at| at.min(cap))
            .saturating_duration_since(Instant::now());
        swarm.epoll.wait(&mut events, Some(timeout))?;
        for ev in &events {
            let id = ev.token as usize;
            if ev.writable {
                swarm.flush(id);
            }
            if ev.readable || ev.hangup {
                swarm.on_readable(id);
            }
            swarm.settle(id);
        }
    }
    if swarm.live > 0 {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("{} client(s) still running after {watchdog:?}", swarm.live),
        ));
    }
    if swarm.protocol_errors > 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} protocol error(s) on the wire", swarm.protocol_errors),
        ));
    }
    let mut report = swarm.report;
    report.wall_s = start.elapsed().as_secs_f64();
    report.trace = swarm.sink.lock().expect("trace sink lock").take();
    report.trace.sort_by_key(|r| (r.t, r.client, r.task));
    Ok(report)
}

impl<H: Harness> Swarm<'_, H> {
    /// The run's clock as the VMs see it.
    fn now(&self) -> Time {
        Time::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn instant(&self, at: Time) -> Instant {
        self.start + Duration::from_micros(at.as_micros())
    }

    // ---------------------------------------------------------- driving

    /// Wake client `id`'s VM at `at`, unless an earlier wake is armed
    /// ([`Lifecycle::arm`]).
    fn wake(&mut self, id: usize, at: Time) {
        if self.clients[id].life.arm(at) {
            self.schedule_wake(id, at);
        }
    }

    /// Put a wake for client `id`'s VM at `at` on the wheel, stamped
    /// with its current unit epoch.
    fn schedule_wake(&mut self, id: usize, at: Time) {
        let epoch = self.clients[id].life.epoch();
        let when = self.instant(at);
        self.timers.schedule(when, Tev::Wake { id, epoch, at });
    }

    /// Start `unit` on client `id`'s VM. The wheel starts it, even when
    /// it is due now.
    fn next_unit(&mut self, id: usize, (env, seed, delay): NextUnit<Duration>) {
        let now = self.now();
        let c = &mut self.clients[id];
        let vm = c.vm.as_mut().expect("a VM in its slot");
        let unit = (env, seed, now + Dur::from_std(delay));
        match c.life.restart(vm, unit, now) {
            Some(start) => self.schedule_wake(id, start), // armed already
            None => self.wake(id, now),
        }
    }

    fn on_timer(&mut self, tev: Tev) {
        match tev {
            Tev::Wake { id, epoch, at } => {
                if self.clients[id].life.wake(epoch, at) == Wake::Fresh {
                    self.tick(id);
                }
            }
            Tev::LocalDone { id, epoch, token } => {
                if self.clients[id].life.epoch() == epoch {
                    self.complete(id, token, CmdResult::ok(""));
                    self.settle(id);
                }
            }
            Tev::Kill { id, at, restart } => {
                // Only a kill that finds a running client counts (and
                // earns a revival), as in the simulator.
                let c = &mut self.clients[id];
                if !c.life.kill() {
                    return;
                }
                c.calls.clear();
                self.report.kills += 1;
                self.drop_stream(id);
                // Revived `down` after the kill's planned instant, as in
                // the simulator, however late the reactor handled it.
                match restart {
                    Some(down) => self
                        .timers
                        .schedule(self.instant(at + down), Tev::Revive { id }),
                    None => self.live -= 1,
                }
            }
            Tev::Revive { id } => match self.harness.revive(id) {
                Some(unit) => {
                    self.report.restarts += 1;
                    self.next_unit(id, unit);
                }
                None => self.live -= 1,
            },
        }
    }

    /// Tick client `id`'s VM if a completion is waiting for it.
    fn settle(&mut self, id: usize) {
        if !self.clients[id].done.is_empty() {
            self.tick(id);
        }
    }

    /// Hand client `id`'s VM what completed since it last ran, step it
    /// until it waits on the world again, and act on how it stands.
    fn tick(&mut self, id: usize) {
        let c = &mut self.clients[id];
        if !c.life.running() {
            return;
        }
        let mut vm = c.vm.take().expect("a running client's VM");
        for (token, result) in c.done.drain(..) {
            vm.complete(token, result);
        }
        let now = self.now();
        let mut effects = std::mem::take(&mut self.effects);
        let (status, _) = step(&mut vm, now, &mut effects, &mut Wire { swarm: self, id });
        self.effects = effects;
        self.clients[id].vm = Some(vm);
        match status {
            VmStatus::Running { next_wake } => {
                if let Some(at) = next_wake {
                    self.wake(id, at);
                }
            }
            VmStatus::Done { success } => {
                let next = self.harness.unit_done(id, success);
                match self.clients[id].life.finish(next) {
                    Some(unit) => self.next_unit(id, unit),
                    None => {
                        self.drop_stream(id);
                        self.live -= 1;
                    }
                }
            }
        }
    }

    /// A command of client `id` finished; its VM is told when it next
    /// runs — at once if it is stepping.
    fn complete(&mut self, id: usize, token: CmdToken, result: CmdResult) {
        self.clients[id].done.push((token, result));
    }

    fn start(&mut self, id: usize, token: CmdToken, spec: &CommandSpec) {
        match self.harness.verb(id, spec) {
            Verb::Unknown => self.complete(id, token, CmdResult::fail()),
            Verb::Local(work) => {
                let epoch = self.clients[id].life.epoch();
                self.timers
                    .schedule(Instant::now() + work, Tev::LocalDone { id, epoch, token });
            }
            Verb::Act(req) => self.send(id, Call::new(token, None, 1), &[req]),
            Verb::Sense {
                requests,
                busy_below,
            } => self.send(
                id,
                Call::new(token, Some(busy_below), requests.len()),
                &requests,
            ),
        }
    }

    /// The VM gave up on an in-flight command (a `try` deadline). Its
    /// reply must not be taken for the answer to a later command, so
    /// the persistent connection is sacrificed — exactly what killing
    /// a per-verb process would do — and the siblings in flight on it
    /// fail. Local work needs nothing: the VM ignores the stale
    /// completion.
    fn cancel(&mut self, id: usize, token: CmdToken) {
        let calls = &mut self.clients[id].calls;
        if let Some(pos) = calls.iter().position(|c| c.token == token) {
            calls.remove(pos);
            self.on_conn_lost(id);
        }
    }

    // ------------------------------------------------------------ wiring

    /// Connect (or reconnect) client `id`'s persistent socket. Uses a
    /// blocking localhost connect — microseconds — then flips the fd
    /// non-blocking for the reactor.
    fn ensure_connected(&mut self, id: usize) -> bool {
        if self.clients[id].stream.is_some() {
            return true;
        }
        let Ok(stream) = TcpStream::connect(self.addr) else {
            return false;
        };
        let _ = stream.set_nodelay(true);
        if set_nonblocking(stream.as_raw_fd()).is_err()
            || self
                .epoll
                .add(stream.as_raw_fd(), id as u64, true, false)
                .is_err()
        {
            return false;
        }
        if self.clients[id].ever_connected {
            self.report.reconnects += 1;
        }
        let c = &mut self.clients[id];
        c.ever_connected = true;
        c.stream = Some(stream);
        true
    }

    fn drop_stream(&mut self, id: usize) {
        if let Some(stream) = self.clients[id].stream.take() {
            let _ = self.epoll.delete(stream.as_raw_fd());
        }
        let c = &mut self.clients[id];
        c.frames = FrameBuf::new();
        c.out.clear();
        c.out_pos = 0;
        c.want_write = false;
    }

    /// Queue a verb's requests on the persistent connection and push
    /// bytes.
    fn send(&mut self, id: usize, call: Call, reqs: &[Request]) {
        // Queued first: if the connection cannot be had, the call
        // fails with everything else in flight.
        self.clients[id].calls.push_back(call);
        if !self.ensure_connected(id) {
            self.on_conn_lost(id);
            return;
        }
        for req in reqs {
            req.encode_frame(&mut self.clients[id].out);
        }
        self.flush(id);
    }

    /// Push queued bytes; write interest follows whether the socket
    /// took them all, and epoll is told only when that changes.
    fn flush(&mut self, id: usize) {
        let c = &mut self.clients[id];
        let Some(stream) = c.stream.as_mut() else {
            return;
        };
        // `Some(blocked)` once the socket took all it will; `None`
        // when it is dead.
        let blocked = loop {
            if c.out_pos == c.out.len() {
                c.out.clear();
                c.out_pos = 0;
                break Some(false);
            }
            match stream.write(&c.out[c.out_pos..]) {
                Ok(0) => break None,
                Ok(n) => c.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Some(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break None,
            }
        };
        match blocked {
            Some(blocked) if blocked == c.want_write => {}
            Some(blocked) => {
                let fd = stream.as_raw_fd();
                if self.epoll.modify(fd, id as u64, true, blocked).is_ok() {
                    c.want_write = blocked;
                }
            }
            None => self.on_conn_lost(id),
        }
    }

    fn on_readable(&mut self, id: usize) {
        let c = &mut self.clients[id];
        let Some(stream) = c.stream.as_mut() else {
            return;
        };
        let buf = &mut self.read_buf[..];
        // Level-triggered: a short read ends the loop, and whatever
        // lands later (an end of stream included) raises a new event.
        let dead = loop {
            match stream.read(buf) {
                Ok(0) => break true,
                Ok(n) => {
                    c.frames.extend(&buf[..n]);
                    if n < buf.len() {
                        break false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        // Process every complete frame already received — a response
        // may complete a command even if the daemon closed right after
        // writing it.
        loop {
            let resp = match self.clients[id].frames.next_slice() {
                Ok(Some(payload)) => Response::decode(payload).ok(),
                Ok(None) => break,
                Err(_) => None,
            };
            if !resp.is_some_and(|resp| self.on_response(id, &resp)) {
                self.protocol_errors += 1;
                self.on_conn_lost(id);
                return;
            }
        }
        if dead {
            self.on_conn_lost(id);
        }
    }

    /// Fold a reply into the oldest call in flight; `false` when it
    /// fits none (the wrong kind, or nothing was in flight — only
    /// possible through a protocol bug, since a cancelled command
    /// takes its connection with it).
    fn on_response(&mut self, id: usize, resp: &Response) -> bool {
        self.report.responses += 1;
        let calls = &mut self.clients[id].calls;
        let Some(Ok(last)) = calls.front_mut().map(|call| call.reply(resp)) else {
            return false;
        };
        if last {
            let call = calls.pop_front().expect("replied to the front call");
            let (t, sink) = (self.now(), &self.sink);
            let result = call.finish(|ev| {
                sink.lock().expect("trace sink lock").record(&TraceRecord {
                    t,
                    client: id as i64,
                    task: NO_ID,
                    ev,
                });
            });
            self.complete(id, call.token, result);
        }
        true
    }

    /// The connection is gone (daemon msg-loss, an idle-patrol close,
    /// backpressure drop, a refused connect, or a cancel sacrificing
    /// it). Every verb in flight on it becomes a failed command; the
    /// next one reconnects.
    fn on_conn_lost(&mut self, id: usize) {
        self.drop_stream(id);
        while let Some(call) = self.clients[id].calls.pop_front() {
            self.complete(id, call.token, CmdResult::fail());
        }
    }
}

/// Client `id`'s commands as the reactor carries them out while its VM
/// steps.
struct Wire<'s, 'a, H> {
    swarm: &'s mut Swarm<'a, H>,
    id: usize,
}

impl<H: Harness> Wire<'_, '_, H> {
    /// Deliver what the start or cancel just completed.
    fn hand_over(&mut self, answers: &mut Answers<'_>) {
        for (token, result) in self.swarm.clients[self.id].done.drain(..) {
            answers.answer(token, result);
        }
    }
}

impl<H: Harness> Executor for Wire<'_, '_, H> {
    fn start(&mut self, token: CmdToken, spec: &CommandSpec, answers: &mut Answers<'_>) {
        self.swarm.start(self.id, token, spec);
        self.hand_over(answers);
    }

    fn cancel(&mut self, token: CmdToken, answers: &mut Answers<'_>) {
        self.swarm.cancel(self.id, token);
        self.hand_over(answers);
    }
}

/// Socket-free exercise of a verb table: start `spec` as client 0,
/// feed the scripted `replies`, and return the verb, the command's
/// result (`None` while replies are owed, or for local work;
/// `Some(Err)` on a reply of the wrong kind) and the trace records the
/// fold emitted.
#[cfg(test)]
pub(crate) fn dry_run<H: Harness>(
    harness: &mut H,
    spec: &CommandSpec,
    replies: &[Response],
) -> (Verb, Option<Result<CmdResult, ()>>, Vec<TraceEv>) {
    let verb = harness.verb(0, spec);
    let mut call = match &verb {
        Verb::Unknown => return (verb, Some(Ok(CmdResult::fail())), Vec::new()),
        Verb::Local(_) => return (verb, None, Vec::new()),
        Verb::Act(_) => Call::new(1, None, 1),
        Verb::Sense {
            requests,
            busy_below,
        } => Call::new(1, Some(*busy_below), requests.len()),
    };
    let mut evs = Vec::new();
    let mut result = None;
    for resp in replies {
        result = match call.reply(resp) {
            Ok(true) => Some(Ok(call.finish(|ev| evs.push(ev)))),
            Ok(false) => None,
            Err(()) => Some(Err(())),
        };
    }
    (verb, result, evs)
}

#[cfg(test)]
pub(crate) fn spec(argv: &[&str]) -> CommandSpec {
    CommandSpec {
        argv: argv.iter().map(|w| ftsh::Istr::from(*w)).collect(),
        input: None,
        output: None,
        both: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `submit <job>` and nothing else.
    struct SubmitOnly;

    impl Harness for SubmitOnly {
        fn verb(&mut self, client: usize, spec: &CommandSpec) -> Verb {
            match (spec.program(), spec.argv.get(1)) {
                ("submit", Some(job)) => Verb::Act(Request::Submit {
                    client: client as u32,
                    job: job.to_string(),
                }),
                _ => Verb::Unknown,
            }
        }
    }

    /// A `try` deadline landing mid-`submit`: the VM (not the driver)
    /// records the kill and the timeout, the connection is sacrificed
    /// and re-dialled once, and the slow daemon's late reply — written
    /// to the dead connection — never completes a command of the next
    /// unit.
    #[test]
    fn deadline_mid_submit_sacrifices_the_connection() {
        // Service (400 ms) outlasts the first unit's budget (100 ms),
        // but not the second's.
        let handle = gridd::start(gridd::GriddConfig {
            slots: 2,
            service: Duration::from_millis(400),
            ..gridd::GriddConfig::default()
        })
        .expect("daemon starts");
        let script = ftsh::parse(
            "try for 100 ms\n  submit slow\ncatch\n  success\nend\n\
             try for 5 seconds\n  submit next\nend\n",
        )
        .unwrap();
        let vm = Vm::with_seed(&script, 1);
        let addr = handle.addr().to_string();
        let report = drive(
            SubmitOnly,
            &addr,
            vec![(vm, Duration::ZERO)],
            &[],
            Duration::from_secs(20),
        )
        .expect("swarm runs");
        handle.shutdown();

        assert_eq!(report.reconnects, 1);
        let evs: Vec<&TraceEv> = report.trace.iter().map(|r| &r.ev).collect();
        let at = |want: &TraceEv| evs.iter().position(|ev| *ev == want);
        let killed = at(&TraceEv::CmdKilled {
            program: "submit".into(),
        })
        .expect("the VM kills the in-flight submit");
        let timeout = at(&TraceEv::TryTimeout).expect("the VM times the try out");
        assert!(killed < timeout);
        // The second unit's submit ran its full service: the only
        // successful command end comes after the timeout, and only one
        // reply was ever decoded.
        assert_eq!(report.responses, 1);
        let ok_end = at(&TraceEv::CmdEnd {
            program: "submit".into(),
            ok: true,
        })
        .expect("the second submit completes");
        assert!(ok_end > timeout);
        assert_eq!(evs.last(), Some(&&TraceEv::UnitDone { ok: true }));
    }
}
