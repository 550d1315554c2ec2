//! The daemon's reactor: sockets, framing, timers and nothing else.
//!
//! Everything gridd *models* is the socket-free [`Grid`] core
//! ([`crate::grid`], which also states the contract between the two);
//! this module is the wiring around it. One epoll event loop over
//! non-blocking sockets multiplexes thousands of connections, each an
//! incremental frame decoder ([`crate::proto::FrameBuf`]), an outgoing
//! byte buffer that survives partial writes, a count of requests the
//! core has yet to answer, and one bit: *held* or not. Each decoded
//! request goes to [`Grid::on_request`] with the loop's one clock —
//! [`retry::Time`] since daemon start, read once per event — and the
//! [`Effect`]s that come back are carried out here: a reply is framed
//! and flushed, a close drops the connection unanswered, and a wake
//! becomes a timer-wheel entry that calls [`Grid::on_timer`] back, so
//! every delay is a timer and never a sleeping thread. A wake that
//! names a connection holds it until it fires: frame parsing pauses
//! and read interest drops, so TCP backpressure reaches the peer.
//!
//! The rest is what is about sockets: accept with backpressure
//! (beyond [`GriddConfig::backlog`] concurrent connections new
//! arrivals are dropped on the floor — the refusal an overloaded
//! schedd hands real clients), protocol errors, the idle patrol (a
//! peer that makes no progress for [`GriddConfig::deadline`] is
//! reaped), telling the core when a peer it still owes an answer
//! hangs up ([`Grid::on_hangup`]), and a bounded shutdown.
//!
//! There is one event loop. The core is one state machine behind one
//! lock, so a second loop would only add contention on it; one loop
//! serves the 1000-client arena with room to spare.

use crate::grid::{ClientSnapshot, ConnId, Effect, Grid, TimerId};
use crate::poll::{set_nonblocking, waker, Epoll, Event, TimerWheel, WakeRx, Waker};
use crate::proto::{frame_into, ErrCode, FrameBuf, Request, Response};
use retry::Time;
use simgrid::faults::FaultPlan;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration. `Default` gives a small, crashy schedd good
/// for exercising the disciplines quickly.
#[derive(Clone, Debug)]
pub struct GriddConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Event-loop count: there is exactly one, so only `0` (the
    /// default) and `1` are accepted; [`start`] refuses anything else.
    pub threads: usize,
    /// Concurrent-connection cap; beyond it new connections are
    /// dropped (the overloaded schedd refusing service).
    pub backlog: usize,
    /// Schedd service-slot pool (token bucket capacity).
    pub slots: u64,
    /// How long one submission holds a slot.
    pub service: Duration,
    /// Consecutive no-slot submissions that crash the schedd.
    pub crash_overloads: u32,
    /// How long a crashed schedd stays down (also the default for
    /// `schedd-kill` specs without an explicit downtime).
    pub downtime: Duration,
    /// Per-connection deadline: an idle or stalled peer is closed
    /// after this long without progress.
    pub deadline: Duration,
    /// File-server capacity in bytes; `put` beyond it reports ENOSPC.
    pub disk_bytes: usize,
    /// File-server service time of a `put` or a `get` that hits. The
    /// file server is a single-server FIFO: while one operation is in
    /// service, later ones queue behind it. Zero (the default) answers
    /// inline on an idle server.
    pub file_service: Duration,
    /// File-server service time of a `get` miss — the exhaustive
    /// directory scan a blind poll pays. With a nonzero miss cost a
    /// polling stampede congests the FIFO for everyone, which is what
    /// the coordinated-workload arena measures. Zero = inline.
    pub file_miss_service: Duration,
    /// The adversarial schedule (and physics constants).
    pub plan: FaultPlan,
}

impl Default for GriddConfig {
    fn default() -> GriddConfig {
        GriddConfig {
            listen: "127.0.0.1:0".into(),
            threads: 0,
            backlog: 4096,
            slots: 4,
            service: Duration::from_millis(150),
            crash_overloads: 6,
            downtime: Duration::from_millis(1500),
            deadline: Duration::from_secs(10),
            disk_bytes: 16 << 20,
            file_service: Duration::ZERO,
            file_miss_service: Duration::ZERO,
            plan: FaultPlan::default(),
        }
    }
}

struct Inner {
    /// The daemon's physics; `snapshot` and the event loop share it.
    grid: Mutex<Grid>,
    deadline: Duration,
    max_conns: usize,
    /// Instant zero of the core's clock and of the timer wheel.
    start: Instant,
    stop: AtomicBool,
}

impl Inner {
    /// `at` on the core's clock: time since daemon start.
    fn time(&self, at: Instant) -> Time {
        Time::from_micros(at.saturating_duration_since(self.start).as_micros() as u64)
    }

    fn grid(&self) -> std::sync::MutexGuard<'_, Grid> {
        self.grid.lock().expect("grid lock")
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`GriddHandle::shutdown`].
pub struct GriddHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    waker: Waker,
    event_loop: JoinHandle<()>,
}

impl GriddHandle {
    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time per-client counters plus the global schedd crash
    /// count — overload crashes *and* forced kill windows opened, the
    /// same accounting the simulator uses — the structured twin of the
    /// `stats` verb.
    pub fn snapshot(&self) -> (Vec<ClientSnapshot>, u64) {
        let now = self.inner.time(Instant::now());
        self.inner.grid().snapshot(now)
    }

    /// Stop the event loop and join it. In-flight connections are
    /// interrupted (whatever they were held for is dropped), so
    /// shutdown completes within a bounded grace period no matter how
    /// stalled or mid-service the peers are.
    pub fn shutdown(self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        let _ = self.event_loop.join();
    }
}

/// Bind, spawn the event loop, and serve until [`GriddHandle::shutdown`].
pub fn start(cfg: GriddConfig) -> io::Result<GriddHandle> {
    if cfg.threads > 1 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "gridd runs one event loop; threads must be 0 or 1",
        ));
    }
    let listener = TcpListener::bind(&cfg.listen)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // std's bind hard-codes a 128-entry kernel accept queue; a
    // thousand-client arena overflows that between two poll rounds.
    let _ = crate::poll::widen_backlog(listener.as_raw_fd(), 4096);
    // The plan's starvation physics, when present, bounds the
    // concurrent-connection cap the way the sim's schedd backlog
    // bounds submissions.
    let max_conns = cfg
        .plan
        .crash_physics()
        .map(|(_, backlog)| backlog.max(1))
        .unwrap_or(cfg.backlog);
    let inner = Arc::new(Inner {
        grid: Mutex::new(Grid::new(&cfg)),
        deadline: cfg.deadline,
        max_conns,
        start: Instant::now(),
        stop: AtomicBool::new(false),
    });
    let (waker, wake_rx) = waker()?;
    let event_loop = EventLoop::new(inner.clone(), listener, wake_rx)?;
    Ok(GriddHandle {
        addr,
        inner,
        waker,
        event_loop: std::thread::spawn(move || event_loop.run()),
    })
}

// ------------------------------------------------------------ event loop

/// Token values reserved for non-connection fds.
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Timer-wheel completions.
enum TimerEv {
    /// Per-connection idle patrol.
    Deadline { idx: usize, gen: u64 },
    /// A timer the core asked for ([`Effect::Wake`]). It fires whether
    /// or not the connection it concerns survived: a slot must return
    /// and a job must be accounted either way.
    Core(TimerId),
}

/// One connection's state: incremental reader, partial-progress
/// writer, and where it stands with the core.
struct Conn {
    stream: TcpStream,
    gen: u64,
    frames: FrameBuf,
    out: Vec<u8>,
    out_pos: usize,
    /// Requests put to the core and not yet answered.
    owed: u32,
    /// A core timer naming this connection is pending: frames are not
    /// parsed and the socket is not read until it fires.
    held: bool,
    last_activity: Instant,
    want_write: bool,
    /// Close once the outgoing buffer drains (protocol error path).
    closing: bool,
}

struct EventLoop {
    inner: Arc<Inner>,
    epoll: Epoll,
    listener: TcpListener,
    wake: WakeRx,
    conns: Vec<Option<Conn>>,
    gens: Vec<u64>,
    free: Vec<usize>,
    timers: TimerWheel<TimerEv>,
    /// The instant of the event being handled: the one clock reading
    /// everything that event causes is stamped with.
    tick: Instant,
    /// Reused buffer for the core's answers.
    effects: Vec<Effect>,
}

/// The core's name for slot `idx` in its `gen`-th use. Generations
/// only count up, so a name is never handed out twice (32 bits of
/// generation: four billion reuses of one slot).
fn conn_id(idx: usize, gen: u64) -> ConnId {
    (gen << 32) | idx as u64
}

impl EventLoop {
    fn new(inner: Arc<Inner>, listener: TcpListener, wake: WakeRx) -> io::Result<EventLoop> {
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        epoll.add(wake.fd(), TOKEN_WAKER, true, false)?;
        let timers = TimerWheel::new(inner.start);
        let tick = inner.start;
        Ok(EventLoop {
            inner,
            epoll,
            listener,
            wake,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            timers,
            tick,
            effects: Vec::new(),
        })
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<TimerEv> = Vec::new();
        loop {
            if self.inner.stop.load(Ordering::SeqCst) {
                break;
            }
            self.timers.advance(Instant::now(), &mut fired);
            for ev in fired.drain(..) {
                self.tick = Instant::now();
                match ev {
                    TimerEv::Deadline { idx, gen } => self.on_deadline(idx, gen),
                    TimerEv::Core(id) => self.on_core_timer(id),
                }
            }
            let timeout = self
                .timers
                .next_deadline()
                .map(|at| at.saturating_duration_since(Instant::now()));
            if self.epoll.wait(&mut events, timeout).is_err() {
                break;
            }
            for ev in &events {
                self.tick = Instant::now();
                match ev.token {
                    TOKEN_LISTENER => self.on_accept_ready(),
                    TOKEN_WAKER => self.wake.drain(),
                    idx => {
                        let idx = idx as usize;
                        if ev.writable {
                            self.try_flush(idx);
                        }
                        if ev.readable {
                            self.on_readable(idx);
                        }
                        if ev.hangup && !ev.readable {
                            // Nothing left to read and the peer is
                            // gone: reap now rather than at deadline.
                            self.close_conn(idx);
                        }
                    }
                }
            }
        }
        // Teardown: dropping the loop closes every connection,
        // whatever the core held it for.
    }

    // ---------------------------------------------------------- accept

    fn on_accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Backpressure: beyond the cap the connection is
                    // dropped, which the client observes as a reset —
                    // the overloaded schedd refusing service.
                    if self.conns.len() - self.free.len() < self.inner.max_conns {
                        let _ = self.register(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) -> io::Result<()> {
        let _ = stream.set_nodelay(true);
        set_nonblocking(stream.as_raw_fd())?;
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        if let Err(e) = self.epoll.add(stream.as_raw_fd(), idx as u64, true, false) {
            self.free.push(idx);
            return Err(e);
        }
        self.gens[idx] += 1;
        let gen = self.gens[idx];
        self.conns[idx] = Some(Conn {
            stream,
            gen,
            frames: FrameBuf::new(),
            out: Vec::new(),
            out_pos: 0,
            owed: 0,
            held: false,
            last_activity: self.tick,
            want_write: false,
            closing: false,
        });
        self.timers.schedule(
            self.tick + self.inner.deadline,
            TimerEv::Deadline { idx, gen },
        );
        Ok(())
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        self.free.push(idx);
        if conn.owed > 0 {
            // Whatever the core still does for the peer, it is gone.
            let id = conn_id(idx, conn.gen);
            self.ask(|grid, now, out| grid.on_hangup(now, id, out));
        }
    }

    /// The slot of the connection the core calls `id`, if it lives.
    fn live(&self, id: ConnId) -> Option<usize> {
        let idx = (id & u64::from(u32::MAX)) as usize;
        matches!(self.conns.get(idx), Some(Some(c)) if conn_id(idx, c.gen) == id).then_some(idx)
    }

    // ------------------------------------------------------------ core

    /// Put one event to the core, on the clock reading of the event
    /// being handled, and carry out what it answers.
    fn ask(&mut self, event: impl FnOnce(&mut Grid, Time, &mut Vec<Effect>)) {
        let mut effects = std::mem::take(&mut self.effects);
        event(
            &mut self.inner.grid(),
            self.inner.time(self.tick),
            &mut effects,
        );
        for effect in effects.drain(..) {
            match effect {
                Effect::Reply(id, resp) => {
                    let Some(idx) = self.live(id) else { continue };
                    let conn = self.conns[idx].as_mut().expect("live conn");
                    conn.owed -= 1;
                    frame_into(&mut conn.out, &resp.encode());
                    self.try_flush(idx);
                }
                Effect::Close(id) => {
                    if let Some(idx) = self.live(id) {
                        // The close is that request's answer.
                        self.conns[idx].as_mut().expect("live conn").owed -= 1;
                        self.close_conn(idx);
                    }
                }
                Effect::Wake(at, id) => {
                    if let TimerId::Conn(conn) = id {
                        if let Some(idx) = self.live(conn) {
                            self.conns[idx].as_mut().expect("live conn").held = true;
                        }
                    }
                    let at = self.inner.start + Duration::from_micros(at.as_micros());
                    self.timers.schedule(at, TimerEv::Core(id));
                }
            }
        }
        // Carrying out an effect can put a further event to the core;
        // the innermost call leaves its buffer behind for reuse.
        self.effects = effects;
    }

    /// A timer the core asked for is due. One that names a connection
    /// ends the hold it stood for: unless the core's answer holds the
    /// connection anew, it goes back to parsing what it has buffered.
    fn on_core_timer(&mut self, id: TimerId) {
        let held = match id {
            TimerId::Conn(conn) => self.live(conn),
            TimerId::Store(_) => None,
        };
        if let Some(idx) = held {
            self.conns[idx].as_mut().expect("live conn").held = false;
        }
        self.ask(|grid, now, out| grid.on_timer(now, id, out));
        if let Some(idx) = held {
            self.drain_frames(idx);
        }
    }

    // ------------------------------------------------------------ read

    fn on_readable(&mut self, idx: usize) {
        let mut scratch = [0u8; 16 * 1024];
        let dead = {
            let Some(Some(conn)) = self.conns.get_mut(idx) else {
                return;
            };
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => break true,
                    Ok(n) => {
                        conn.last_activity = self.tick;
                        conn.frames.extend(&scratch[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break true,
                }
            }
        };
        if dead {
            self.close_conn(idx);
            return;
        }
        self.drain_frames(idx);
    }

    /// Decode every complete frame and put it to the core, stopping
    /// when the core holds the connection (the remainder stays
    /// buffered; read interest drops so TCP backpressure reaches the
    /// peer).
    fn drain_frames(&mut self, idx: usize) {
        loop {
            let (frame, gen) = {
                let Some(Some(conn)) = self.conns.get_mut(idx) else {
                    return;
                };
                if conn.closing || conn.held {
                    break;
                }
                (conn.frames.next_frame(), conn.gen)
            };
            let req = match frame {
                Ok(Some(payload)) => Request::decode(&payload),
                Ok(None) => break,
                Err(e) => Err(e),
            };
            match req {
                Ok(req) => {
                    self.conns[idx].as_mut().expect("live conn").owed += 1;
                    let id = conn_id(idx, gen);
                    self.ask(|grid, now, out| grid.on_request(now, id, req, out));
                }
                Err(e) => {
                    self.protocol_error(idx, &e.to_string());
                    break;
                }
            }
        }
        self.update_interest(idx);
    }

    /// Answer a malformed frame with `bad`, then close once the reply
    /// drains (the closing flag is raised *before* the flush so a fast
    /// socket cannot race past it).
    fn protocol_error(&mut self, idx: usize, msg: &str) {
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return;
        };
        conn.closing = true;
        let resp = Response::Err {
            code: ErrCode::Bad,
            msg: msg.to_string(),
        };
        frame_into(&mut conn.out, &resp.encode());
        self.try_flush(idx);
    }

    // ---------------------------------------------------------- timers

    fn on_deadline(&mut self, idx: usize, gen: u64) {
        let Some(Some(conn)) = self.conns.get(idx) else {
            return;
        };
        if conn.gen != gen {
            return;
        }
        // While the core holds the peer it is allowed to wait; every
        // hold the core places is itself bounded.
        let due = if conn.held {
            self.tick + self.inner.deadline
        } else {
            conn.last_activity + self.inner.deadline
        };
        if self.tick >= due {
            self.close_conn(idx);
        } else {
            self.timers.schedule(due, TimerEv::Deadline { idx, gen });
        }
    }

    // ----------------------------------------------------------- write

    fn try_flush(&mut self, idx: usize) {
        enum Flush {
            Drained(bool), // payload: close-after-drain flag
            Blocked,
            Dead,
        }
        let res = {
            let Some(Some(conn)) = self.conns.get_mut(idx) else {
                return;
            };
            loop {
                if conn.out_pos >= conn.out.len() {
                    conn.out.clear();
                    conn.out_pos = 0;
                    conn.want_write = false;
                    break Flush::Drained(conn.closing);
                }
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => break Flush::Dead,
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_activity = self.tick;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        conn.want_write = true;
                        break Flush::Blocked;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break Flush::Dead,
                }
            }
        };
        match res {
            Flush::Dead | Flush::Drained(true) => self.close_conn(idx),
            Flush::Blocked | Flush::Drained(false) => self.update_interest(idx),
        }
    }

    /// Reconcile epoll interest with the connection's state: read while
    /// the core does not hold it, write while bytes are queued.
    fn update_interest(&mut self, idx: usize) {
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return;
        };
        let read = !conn.held && !conn.closing;
        let write = conn.want_write;
        let _ = self
            .epoll
            .modify(conn.stream.as_raw_fd(), idx as u64, read, write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::io::{FromRawFd, IntoRawFd};

    /// Regression: a connection epoll refuses must hand its slab slot
    /// back. The slot was popped (or pushed fresh) before `epoll.add`
    /// and nothing returned it on the error path, so each failure
    /// leaked one index for the life of the daemon.
    #[test]
    fn a_failed_registration_returns_its_slot() {
        let inner = Arc::new(Inner {
            grid: Mutex::new(Grid::new(&GriddConfig::default())),
            deadline: Duration::from_secs(10),
            max_conns: 16,
            start: Instant::now(),
            stop: AtomicBool::new(false),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (_waker, wake_rx) = waker().unwrap();
        let mut lp = EventLoop::new(inner, listener, wake_rx).unwrap();

        // epoll refuses regular files (EPERM); dress one up as a socket.
        let file = std::fs::File::open(std::env::current_exe().unwrap()).unwrap();
        // SAFETY: `into_raw_fd` just gave up ownership of this open
        // descriptor, so the new owner is its only one. Nothing treats
        // it as a socket beyond an ignored `set_nodelay` error.
        let not_a_socket = unsafe { TcpStream::from_raw_fd(file.into_raw_fd()) };
        assert!(lp.register(not_a_socket).is_err());
        assert_eq!((lp.conns.len(), lp.free.len()), (1, 1), "slot came back");

        let _peer = TcpStream::connect(addr).unwrap();
        let (accepted, _) = lp.listener.accept().unwrap();
        lp.register(accepted).unwrap();
        assert_eq!((lp.conns.len(), lp.free.len()), (1, 0), "and is reused");
        assert!(lp.live(conn_id(0, 1)).is_some(), "first use of slot 0");
    }
}
