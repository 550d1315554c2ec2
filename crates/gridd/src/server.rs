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
//! into the connection's buffer, a close ends the connection behind
//! what was framed before it, and a wake becomes a timer-wheel entry
//! that calls [`Grid::on_timer`] back, so every delay is a timer and
//! never a sleeping thread. A wake that names a connection holds it
//! until it fires: frame parsing pauses and read interest drops, so TCP
//! backpressure reaches the peer.
//!
//! ## What a wake-up costs
//!
//! The loop pays per readiness event, not per verb; a sense read has to
//! be nearly free, and it is the syscalls that cost.
//!
//! * **One write per connection per event.** A reply is framed in place
//!   behind the ones before it and the connection goes on a *dirty
//!   list* (once); the list is written out when the epoll event or
//!   fired timer that produced the replies has been handled — never
//!   later than that. A window of 32 pipelined verbs is one `write`.
//!   Only a connection whose unsent bytes pass `FLUSH_AT` is written at
//!   once, so bulk replies stream out instead of piling up. Bytes reach
//!   a socket in the order the core answered, and a connection that is
//!   to be closed — [`Effect::Close`], a protocol error, an end of
//!   stream — is closed by that same flush, *after* what was framed for
//!   it earlier: a reset never overtakes the reply before it.
//! * **`epoll_ctl` only when interest changes.** Each connection
//!   remembers the interest set epoll holds for it. A served verb
//!   changes nothing; a `submit` pays its two real changes (the hold
//!   drops read interest, the timer restores it).
//! * **One read per event.** One loop-owned buffer; a `read` that does
//!   not fill it has emptied the socket and ends the read loop — epoll
//!   is level-triggered, so whatever lands later raises a new event.
//!   It follows that what a peer sent ahead of its end of stream is
//!   served, and answered, before the hang-up is acted on.
//! * **No copy on the way in or out.** Requests are decoded straight
//!   from the frame buffer and replies encoded straight into the
//!   outgoing one.
//!
//! A peer that does not read its replies cannot make the daemon grow:
//! while a flush left bytes unsent the connection is treated as held —
//! its frames are not parsed, its socket is not read — until a later
//! flush drains them. What is queued for one connection is thus at most
//! `FLUSH_AT` plus one reply (plus the answers to file operations it
//! already had queued at a busy file server), and both buffers give
//! back what one large frame made them allocate with the first fill
//! that does not need it.
//!
//! Epoll tokens are the connection's [`ConnId`] — slot *and*
//! generation — so the readiness record of a connection that another
//! one's event closed earlier in the same batch resolves to nothing,
//! not to whoever an accept has put into the slot since.
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
use crate::proto::{clear_and_trim, ErrCode, FrameBuf, Request, Response};
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
    /// dropped (the overloaded schedd refusing service). The cap's
    /// only home: no fault plan overrides it.
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
    /// The adversarial schedule.
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
    /// count — overload crashes *and* the forced kills that hit a
    /// running schedd, the same accounting the simulator uses — the
    /// structured twin of the `stats` verb.
    pub fn snapshot(&self) -> (Vec<ClientSnapshot>, u64) {
        self.inner.grid().snapshot()
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
    let inner = Arc::new(Inner {
        grid: Mutex::new(Grid::new(&cfg)),
        deadline: cfg.deadline,
        max_conns: cfg.backlog,
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

/// Token values reserved for non-connection fds; a connection's token
/// is its [`conn_id`].
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// The loop's one read buffer. A `read` that does not fill it has
/// emptied the socket.
const READ_BUF: usize = 16 * 1024;
/// Unsent bytes on one connection that are written at once rather than
/// when the event that produced them ends, so bulk replies stream out
/// instead of piling up.
const FLUSH_AT: usize = 32 * 1024;

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
    /// The last flush left bytes the socket would not take. Until a
    /// later one drains them the connection is treated as held: a peer
    /// that does not read its replies is not asked for more requests.
    want_write: bool,
    /// Close once the outgoing buffer drains.
    closing: bool,
    /// On the loop's dirty list (listed once, however many replies).
    dirty: bool,
    /// The `(read, write)` interest epoll holds for the socket.
    interest: (bool, bool),
}

/// Syscalls the loop made, for the tests that pin what a verb costs.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Default)]
struct Counters {
    reads: u64,
    writes: u64,
    /// `epoll_ctl(MOD)` calls; registering and closing are not counted.
    interest_changes: u64,
    /// `epoll_wait` returns that carried at least one event.
    wakes: u64,
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
    /// Connections with something framed (or a close pending) that no
    /// flush has seen yet; emptied after every event and fired timer.
    dirty: Vec<ConnId>,
    read_buf: Box<[u8]>,
    events: Vec<Event>,
    fired: Vec<TimerEv>,
    counters: Counters,
}

/// The core's name for slot `idx` in its `gen`-th use, and the token
/// epoll knows the socket by. Generations only count up, so a name is
/// never handed out twice (32 bits of generation: four billion reuses
/// of one slot) and a readiness record that outlived its connection
/// resolves to nothing instead of to the slot's next tenant.
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
        let mut lp = EventLoop {
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
            dirty: Vec::new(),
            read_buf: vec![0; READ_BUF].into_boxed_slice(),
            events: Vec::new(),
            fired: Vec::new(),
            counters: Counters::default(),
        };
        // The plan's timer fires once unasked; the core asks for it
        // from then on.
        lp.ask(|grid, now, out| grid.on_timer(now, TimerId::Plan, out));
        Ok(lp)
    }

    fn run(mut self) {
        while !self.inner.stop.load(Ordering::SeqCst) {
            if self.turn(None).is_err() {
                break;
            }
        }
        // Teardown: dropping the loop closes every connection,
        // whatever the core held it for.
    }

    /// One turn of the loop: wait for readiness — until the next timer
    /// is due, and no longer than `timeout` — handle what came, then
    /// fire the timers that are due. Whatever an event or a timer made
    /// the core answer is written before the next one is looked at.
    fn turn(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let next_timer = self
            .timers
            .next_deadline()
            .map(|at| at.saturating_duration_since(Instant::now()));
        let wait = match (next_timer, timeout) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let mut events = std::mem::take(&mut self.events);
        let waited = self.epoll.wait(&mut events, wait);
        self.counters.wakes += u64::from(!events.is_empty());
        for ev in &events {
            self.tick = Instant::now();
            self.on_event(*ev);
            self.flush_dirty();
        }
        self.events = events;

        let mut fired = std::mem::take(&mut self.fired);
        self.timers.advance(Instant::now(), &mut fired);
        for ev in fired.drain(..) {
            self.tick = Instant::now();
            match ev {
                TimerEv::Deadline { idx, gen } => self.on_deadline(idx, gen),
                TimerEv::Core(id) => self.on_core_timer(id),
            }
            self.flush_dirty();
        }
        self.fired = fired;
        waited.map(drop)
    }

    fn on_event(&mut self, ev: Event) {
        match ev.token {
            TOKEN_LISTENER => self.on_accept_ready(),
            TOKEN_WAKER => self.wake.drain(),
            id => {
                // A record that outlived its connection (closed earlier
                // in this batch) names nobody, whoever has the slot now.
                let Some(idx) = self.live(id) else { return };
                if ev.writable {
                    self.try_flush(idx);
                }
                if ev.readable {
                    self.on_readable(idx);
                } else if ev.hangup {
                    // Nothing left to read and the peer is gone: reap
                    // now rather than at deadline.
                    self.close_conn(idx);
                }
            }
        }
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
        let gen = self.gens[idx] + 1;
        if let Err(e) = self
            .epoll
            .add(stream.as_raw_fd(), conn_id(idx, gen), true, false)
        {
            self.free.push(idx);
            return Err(e);
        }
        self.gens[idx] = gen;
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
            dirty: false,
            interest: (true, false),
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

    /// The slot of the connection the core (and epoll) calls `id`, if
    /// it lives.
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
                    if conn.closing {
                        continue; // nothing is framed behind a close
                    }
                    resp.encode_frame(&mut conn.out);
                    if conn.out.len() - conn.out_pos >= FLUSH_AT {
                        self.try_flush(idx);
                    } else {
                        self.mark_dirty(idx);
                    }
                }
                Effect::Close(id) => {
                    if let Some(idx) = self.live(id) {
                        // The close is that request's answer.
                        self.conns[idx].as_mut().expect("live conn").owed -= 1;
                        self.close_after_flush(idx);
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
            TimerId::Store(_) | TimerId::Plan => None,
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

    /// Read what the socket has into the frame buffer and serve it. A
    /// read that does not fill the buffer ends the loop — epoll is
    /// level-triggered, so bytes that land later raise a new event —
    /// and what was read ahead of an end of stream is served before the
    /// hang-up is acted on.
    fn on_readable(&mut self, idx: usize) {
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return;
        };
        let buf = &mut self.read_buf[..];
        let dead = loop {
            self.counters.reads += 1;
            match conn.stream.read(buf) {
                Ok(0) => break true,
                Ok(n) => {
                    conn.last_activity = self.tick;
                    conn.frames.extend(&buf[..n]);
                    if n < buf.len() {
                        break false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        self.drain_frames(idx);
        if dead {
            self.close_after_flush(idx);
        }
    }

    /// Decode every complete frame, straight out of the buffer, and put
    /// it to the core, stopping when the core holds the connection or
    /// the peer is behind on reading its replies (the remainder stays
    /// buffered; read interest drops so TCP backpressure reaches the
    /// peer).
    fn drain_frames(&mut self, idx: usize) {
        loop {
            let Some(Some(conn)) = self.conns.get_mut(idx) else {
                return;
            };
            if conn.closing || conn.held || conn.want_write {
                break;
            }
            let req = match conn.frames.next_slice() {
                Ok(Some(payload)) => Request::decode(payload),
                Ok(None) => break,
                Err(e) => Err(e),
            };
            match req {
                Ok(req) => {
                    conn.owed += 1;
                    let id = conn_id(idx, conn.gen);
                    self.ask(|grid, now, out| grid.on_request(now, id, req, out));
                }
                Err(e) => {
                    // Answer a malformed frame with `bad`, behind the
                    // replies to what came before it, then close.
                    let msg = e.to_string();
                    let code = ErrCode::Bad;
                    Response::Err { code, msg }.encode_frame(&mut conn.out);
                    self.close_after_flush(idx);
                    break;
                }
            }
        }
        self.update_interest(idx);
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

    /// Something was framed for `idx`: have the flush that ends this
    /// event write it.
    fn mark_dirty(&mut self, idx: usize) {
        let conn = self.conns[idx].as_mut().expect("live conn");
        if !conn.dirty {
            conn.dirty = true;
            self.dirty.push(conn_id(idx, conn.gen));
        }
    }

    /// Close `idx` — no further frame of its is parsed and nothing more
    /// is framed for it — once what is already framed has been written.
    fn close_after_flush(&mut self, idx: usize) {
        if let Some(Some(conn)) = self.conns.get_mut(idx) {
            conn.closing = true;
            self.mark_dirty(idx);
        }
    }

    /// Write what the event just handled framed, one `write` per
    /// connection. A flush that finds its peer dead closes it, and what
    /// the core answers to *that* joins the list being emptied.
    fn flush_dirty(&mut self) {
        while let Some(id) = self.dirty.pop() {
            if let Some(idx) = self.live(id) {
                self.conns[idx].as_mut().expect("live conn").dirty = false;
                self.try_flush(idx);
            }
        }
    }

    /// The one place bytes reach a socket.
    fn try_flush(&mut self, idx: usize) {
        enum Flush {
            Drained,
            Blocked,
            Dead,
        }
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return;
        };
        let was_blocked = conn.want_write;
        let res = loop {
            if conn.out_pos >= conn.out.len() {
                clear_and_trim(&mut conn.out);
                conn.out_pos = 0;
                conn.want_write = false;
                break Flush::Drained;
            }
            self.counters.writes += 1;
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => break Flush::Dead,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = self.tick;
                    if conn.out_pos < conn.out.len() {
                        // A short write: the socket is full.
                        conn.want_write = true;
                        break Flush::Blocked;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.want_write = true;
                    break Flush::Blocked;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break Flush::Dead,
            }
        };
        match res {
            Flush::Dead => self.close_conn(idx),
            Flush::Drained if conn.closing => self.close_conn(idx),
            // The peer caught up: back to the frames it has buffered.
            Flush::Drained if was_blocked => self.drain_frames(idx),
            Flush::Drained | Flush::Blocked => self.update_interest(idx),
        }
    }

    /// Reconcile epoll interest with the connection's state: read while
    /// nothing stops its frames from being parsed, write while bytes
    /// are queued. The one place interest changes, and only when it
    /// does.
    fn update_interest(&mut self, idx: usize) {
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return;
        };
        let want = (
            !conn.held && !conn.closing && !conn.want_write,
            conn.want_write,
        );
        if want == conn.interest {
            return;
        }
        self.counters.interest_changes += 1;
        let (fd, id) = (conn.stream.as_raw_fd(), conn_id(idx, conn.gen));
        if self.epoll.modify(fd, id, want.0, want.1).is_ok() {
            conn.interest = want;
        }
    }
}

#[cfg(test)]
mod tests {
    //! The loop stepped by hand against real loopback peers: what a
    //! verb costs in syscalls, and what a turn guarantees. Nothing
    //! sleeps; a turn waits in `epoll_wait` for the peer's bytes.
    use super::*;
    use crate::tests::reply;
    use std::os::unix::io::{FromRawFd, IntoRawFd};

    /// An event loop nobody runs, where its listener is bound, and the
    /// waker to keep for as long as the loop is turned (a dropped one
    /// reads as an end of stream, for ever).
    fn hand_loop(cfg: &GriddConfig) -> (EventLoop, SocketAddr, Waker) {
        let inner = Arc::new(Inner {
            grid: Mutex::new(Grid::new(cfg)),
            deadline: cfg.deadline,
            max_conns: cfg.backlog,
            start: Instant::now(),
            stop: AtomicBool::new(false),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (waker, wake_rx) = waker().unwrap();
        let lp = EventLoop::new(inner, listener, wake_rx).unwrap();
        (lp, addr, waker)
    }

    /// At most this long in `epoll_wait`; a turn returns as soon as
    /// something happens, so it is only ever waited out by a bug.
    const PATIENCE: Option<Duration> = Some(Duration::from_secs(5));

    /// Turn the loop until `done` says so.
    fn turn_until(lp: &mut EventLoop, mut done: impl FnMut(&EventLoop) -> bool) {
        for _ in 0..10_000 {
            if done(lp) {
                return;
            }
            lp.turn(PATIENCE).unwrap();
        }
        panic!("the loop never got there");
    }

    /// A blocking peer whose connection the loop has accepted.
    fn connect(lp: &mut EventLoop, addr: SocketAddr) -> TcpStream {
        let peer = TcpStream::connect(addr).unwrap();
        peer.set_read_timeout(PATIENCE).unwrap();
        peer.set_nodelay(true).unwrap();
        let before = lp.conns.len() - lp.free.len();
        turn_until(lp, |lp| lp.conns.len() - lp.free.len() > before);
        peer
    }

    /// One request, one `write`.
    fn send(peer: &mut TcpStream, req: &Request) {
        let mut wire = Vec::new();
        req.encode_frame(&mut wire);
        peer.write_all(&wire).unwrap();
    }

    /// Client `client`'s counters at the core.
    fn row(lp: &EventLoop, client: u32) -> ClientSnapshot {
        let (rows, _) = lp.inner.grid().snapshot();
        rows.into_iter()
            .find(|r| r.client == client)
            .unwrap_or_default()
    }

    /// `[reads, writes, epoll_ctl calls, wake-ups]` since `before`
    /// (since the loop was made, for `[0; 4]`).
    fn spent(lp: &EventLoop, before: [u64; 4]) -> [u64; 4] {
        let c = &lp.counters;
        let now = [c.reads, c.writes, c.interest_changes, c.wakes];
        std::array::from_fn(|k| now[k] - before[k])
    }

    /// Regression: a connection epoll refuses must hand its slab slot
    /// back. The slot was popped (or pushed fresh) before `epoll.add`
    /// and nothing returned it on the error path, so each failure
    /// leaked one index for the life of the daemon.
    #[test]
    fn a_failed_registration_returns_its_slot() {
        let (mut lp, addr, _waker) = hand_loop(&GriddConfig::default());

        // epoll refuses regular files (EPERM); dress one up as a socket.
        let file = std::fs::File::open(std::env::current_exe().unwrap()).unwrap();
        // SAFETY: `into_raw_fd` just gave up ownership of this open
        // descriptor, so the new owner is its only one. Nothing treats
        // it as a socket beyond an ignored `set_nodelay` error.
        let not_a_socket = unsafe { TcpStream::from_raw_fd(file.into_raw_fd()) };
        assert!(lp.register(not_a_socket).is_err());
        assert_eq!((lp.conns.len(), lp.free.len()), (1, 1), "slot came back");

        let _peer = connect(&mut lp, addr);
        assert_eq!((lp.conns.len(), lp.free.len()), (1, 0), "and is reused");
        assert!(lp.live(conn_id(0, 1)).is_some(), "first use of slot 0");
    }

    /// The connection cap: beyond [`GriddConfig::backlog`] concurrent
    /// peers a newcomer is dropped on the floor (it reads end of
    /// stream), the admitted peers are served as before, and a slot
    /// freed by a hang-up admits the next newcomer.
    #[test]
    fn a_peer_past_the_backlog_is_dropped_until_a_slot_frees() {
        let cfg = GriddConfig {
            backlog: 2,
            ..GriddConfig::default()
        };
        let (mut lp, addr, _waker) = hand_loop(&cfg);
        let mut a = connect(&mut lp, addr);
        let mut b = connect(&mut lp, addr);
        let live = |lp: &EventLoop| lp.conns.len() - lp.free.len();

        let mut third = TcpStream::connect(addr).unwrap();
        third.set_read_timeout(PATIENCE).unwrap();
        lp.turn(PATIENCE).unwrap();
        assert_eq!(live(&lp), 2, "the third peer was not admitted");
        assert_eq!(
            third.read(&mut [0; 8]).unwrap(),
            0,
            "and reads end of stream"
        );

        for peer in [&mut a, &mut b] {
            send(peer, &Request::Df { client: 1 });
            lp.turn(PATIENCE).unwrap();
            assert_eq!(reply(peer), Response::Free { slots: 4 });
        }

        drop(a);
        turn_until(&mut lp, |lp| live(lp) == 1);
        let mut fourth = connect(&mut lp, addr);
        send(&mut fourth, &Request::Df { client: 4 });
        lp.turn(PATIENCE).unwrap();
        assert_eq!(reply(&mut fourth), Response::Free { slots: 4 });
        assert_eq!(live(&lp), 2);
    }

    /// Regression: epoll tokens were the bare slot index, so the
    /// readiness record of a connection closed earlier in a batch (by
    /// another connection's event) was applied to whoever an accept in
    /// the same batch had put into the slot since — and a hang-up
    /// record closed the newcomer.
    #[test]
    fn a_stale_readiness_record_spares_the_slots_next_tenant() {
        let (mut lp, addr, _waker) = hand_loop(&GriddConfig::default());
        let _gone = connect(&mut lp, addr);
        let old = conn_id(0, 1);
        lp.close_conn(lp.live(old).expect("slot 0, first use"));
        let mut tenant = connect(&mut lp, addr);
        assert_eq!(lp.live(conn_id(0, 2)), Some(0), "slot 0 again");

        lp.on_event(Event {
            token: old,
            readable: false,
            writable: false,
            hangup: true,
        });
        assert_eq!(lp.live(conn_id(0, 2)), Some(0), "the newcomer survives");
        send(&mut tenant, &Request::Df { client: 1 });
        lp.turn(PATIENCE).unwrap();
        assert_eq!(reply(&mut tenant), Response::Free { slots: 4 });
    }

    /// A window of 32 `df` arriving in one segment is one wake-up: one
    /// read (two if the segment split), one write, and no `epoll_ctl`
    /// — the interest set never changed. (Per reply it was 2 / 32 / 33.)
    #[test]
    fn a_pipelined_window_costs_one_read_and_one_write() {
        let (mut lp, addr, _waker) = hand_loop(&GriddConfig::default());
        let mut peer = connect(&mut lp, addr);
        let mut wire = Vec::new();
        for _ in 0..32 {
            Request::Df { client: 9 }.encode_frame(&mut wire);
        }
        let before = spent(&lp, [0; 4]);
        peer.write_all(&wire).unwrap();
        turn_until(&mut lp, |lp| row(lp, 9).df_calls == 32);
        for _ in 0..32 {
            assert_eq!(reply(&mut peer), Response::Free { slots: 4 });
        }
        let [reads, writes, changes, wakes] = spent(&lp, before);
        assert!(reads <= 2 && writes <= 2, "{reads} reads, {writes} writes");
        assert_eq!(changes, 0, "epoll_ctl calls");
        assert!(wakes <= 2, "{wakes} wake-ups");
    }

    /// A ping-pong verb is exactly one read, one write and no
    /// `epoll_ctl`. (It was two reads — the second to collect `EAGAIN`
    /// — and two `epoll_ctl` that changed nothing.)
    #[test]
    fn a_pingpong_verb_costs_one_read_one_write_and_no_epoll_ctl() {
        let (mut lp, addr, _waker) = hand_loop(&GriddConfig::default());
        let mut peer = connect(&mut lp, addr);
        let before = spent(&lp, [0; 4]);
        for _ in 0..100 {
            send(&mut peer, &Request::Df { client: 9 });
            lp.turn(PATIENCE).unwrap();
            assert_eq!(reply(&mut peer), Response::Free { slots: 4 });
        }
        // Reads, writes, epoll_ctl calls, wake-ups.
        assert_eq!(spent(&lp, before), [100, 100, 0, 100]);
    }

    /// A `submit` pays the two interest changes that are real: the hold
    /// drops read interest and the timer that ends it brings it back.
    #[test]
    fn a_submit_costs_exactly_two_interest_changes() {
        let cfg = GriddConfig {
            service: Duration::from_millis(5),
            ..GriddConfig::default()
        };
        let (mut lp, addr, _waker) = hand_loop(&cfg);
        let mut peer = connect(&mut lp, addr);
        let before = spent(&lp, [0; 4]);
        let job = "j".to_string();
        send(&mut peer, &Request::Submit { client: 9, job });
        turn_until(&mut lp, |lp| row(lp, 9).submit_ok == 1);
        assert!(matches!(reply(&mut peer), Response::Ok { .. }));
        let [reads, writes, changes, _] = spent(&lp, before);
        assert_eq!(changes, 2, "the hold, and its release");
        assert_eq!((reads, writes), (1, 1));
    }

    /// A reply that a timer produces does not wait for a socket event:
    /// the turn that fires the store's timer writes B its answer while
    /// A, the only other connection, stays quiet.
    #[test]
    fn a_timers_reply_is_written_in_the_turn_that_fired_it() {
        let cfg = GriddConfig {
            file_miss_service: Duration::from_millis(5),
            ..GriddConfig::default()
        };
        let (mut lp, addr, _waker) = hand_loop(&cfg);
        let _a = connect(&mut lp, addr);
        let mut b = connect(&mut lp, addr);
        let name = "nobody-put-this".to_string();
        send(&mut b, &Request::Get { client: 9, name });
        let mut writes_before = 0;
        turn_until(&mut lp, |lp| {
            let answered = row(lp, 9).get_err == 1;
            if !answered {
                writes_before = lp.counters.writes;
            }
            answered
        });
        assert_eq!(lp.counters.writes, writes_before + 1, "same turn");
        assert!(matches!(reply(&mut b), Response::Err { .. }));
    }

    /// ROADMAP 2b, "a slow reader never grows the write buffer without
    /// limit": while a flush left bytes unsent the peer's frames are
    /// not parsed, so what is queued for it stays under `FLUSH_AT` plus
    /// one reply however much it pipelines; others are served
    /// meanwhile, and once it reads, every reply arrives, in order.
    #[test]
    fn a_peer_that_does_not_read_cannot_grow_the_daemon() {
        const BIG: usize = 64 * 1024;
        const GETS: usize = 5_000;
        let fill = |k: usize| b'a' + (k % 3) as u8;
        let (mut lp, addr, _waker) = hand_loop(&GriddConfig::default());
        let mut peer = connect(&mut lp, addr);
        for k in 0..3 {
            let (name, data) = (format!("big{k}"), vec![fill(k); BIG]);
            let put = Request::Put {
                client: 9,
                name,
                data,
            };
            send(&mut peer, &put);
            turn_until(&mut lp, |lp| row(lp, 9).put_ok == k as u64 + 1);
            assert!(matches!(reply(&mut peer), Response::Ok { .. }));
        }

        let mut wire = Vec::new();
        for k in 0..GETS {
            let name = format!("big{}", k % 3);
            Request::Get { client: 9, name }.encode_frame(&mut wire);
        }
        let reply_len = 4 + 1 + 4 + BIG;
        let queued = |lp: &EventLoop| {
            let c = lp.conns[0].as_ref().expect("the peer's connection");
            assert!(c.out.len() - c.out_pos < FLUSH_AT + reply_len);
            c.want_write
        };
        // Write without reading until neither side can go on: the
        // daemon blocked on the peer's full socket, the peer (perhaps)
        // on the daemon's, which is no longer read.
        peer.set_nonblocking(true).unwrap();
        let mut sent = 0;
        loop {
            let stuck = match peer.write(&wire[sent..]) {
                Ok(n) => {
                    sent += n;
                    sent == wire.len()
                }
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                    true
                }
            };
            lp.turn(Some(Duration::ZERO)).unwrap();
            if queued(&lp) && stuck {
                break;
            }
        }
        assert!(row(&lp, 9).get_ok < GETS as u64 / 2, "parsing stopped");

        let mut other = connect(&mut lp, addr);
        send(&mut other, &Request::Df { client: 1 });
        lp.turn(PATIENCE).unwrap();
        assert_eq!(reply(&mut other), Response::Free { slots: 4 });

        // The peer starts reading (and finishes writing).
        let (mut frames, mut buf) = (FrameBuf::new(), vec![0; 256 * 1024]);
        let mut got = 0;
        while got < GETS {
            if sent < wire.len() {
                sent += peer.write(&wire[sent..]).unwrap_or(0);
            }
            match peer.read(&mut buf) {
                Ok(0) => panic!("closed after {got} replies"),
                Ok(n) => frames.extend(&buf[..n]),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
            while let Some(payload) = frames.next_slice().unwrap() {
                let Ok(Response::Data { data }) = Response::decode(payload) else {
                    panic!("reply {got} is not data");
                };
                assert_eq!((data.len(), data[0]), (BIG, fill(got)), "reply {got}");
                got += 1;
            }
            lp.turn(Some(Duration::ZERO)).unwrap();
            queued(&lp);
        }
        assert_eq!(row(&lp, 9).get_ok, GETS as u64);

        // Back to small verbs, the connection is back to small buffers.
        peer.set_nonblocking(false).unwrap();
        send(&mut peer, &Request::Df { client: 9 });
        lp.turn(PATIENCE).unwrap();
        assert_eq!(reply(&mut peer), Response::Free { slots: 4 });
        let kept = lp.conns[0].as_ref().unwrap().out.capacity();
        assert!(kept <= crate::proto::KEEP, "{kept} bytes kept");
    }
}
