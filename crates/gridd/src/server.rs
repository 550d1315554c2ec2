//! The daemon: an event-driven TCP server emulating the paper's
//! contended grid services on a real socket.
//!
//! The server core is readiness-based: each worker thread runs one
//! epoll event loop ([`GriddConfig::threads`], default 1 — a single
//! loop multiplexes thousands of connections) over non-blocking
//! sockets. A connection is a small state machine — an incremental
//! frame decoder ([`crate::proto::FrameBuf`]), an outgoing byte buffer
//! that survives partial writes, and at most one *deferred* operation.
//! Everything the old thread-per-connection server expressed as
//! `thread::sleep` is a timer-wheel completion instead:
//!
//! * a `submit`'s service time is a [`TimerEv::ServiceDone`] entry —
//!   the slot returns and the response is written when it fires;
//! * an injected latency spike parks the decoded request until a
//!   [`TimerEv::Resume`] entry fires;
//! * a black-holed file verb is swallowed by a [`TimerEv::Swallow`]
//!   entry that closes the connection without answering;
//! * per-connection deadlines are [`TimerEv::Deadline`] entries, so an
//!   idle or stalled peer is reaped without pinning anything.
//!
//! Accept is backpressure-aware: beyond [`GriddConfig::backlog`]
//! concurrent connections, new arrivals are dropped on the floor —
//! exactly the refusal an overloaded schedd hands real clients.
//!
//! ## Contention physics
//!
//! The schedd is a token bucket of [`GriddConfig::slots`] service
//! slots. A `submit` takes a slot for [`GriddConfig::service`] of real
//! wall-clock; with no slot free the submission is refused and the
//! schedd's *overload pressure* rises — enough consecutive overloaded
//! submissions ([`GriddConfig::crash_overloads`]) crash it, losing
//! every in-flight job and taking the service down for
//! [`GriddConfig::downtime`]. `df` reports the free-slot count (zero
//! while down) and never blocks: it is the carrier-sense channel, so
//! an Ethernet client can defer instead of becoming part of the
//! stampede that crashes the schedd. Aloha clients discover the
//! contention by failing.
//!
//! ## Fault plans
//!
//! The same [`simgrid::faults::FaultPlan`] JSON that drives the
//! simulator drives the daemon, mapped onto wall-clock windows
//! relative to server start: `schedd-kill` forces downtime (closed
//! early by `schedd-restart`), `enospc` fails `put`, `free-space-lie`
//! skews `df`, `black-hole` makes the file server swallow `put`/`get`
//! without answering, `msg-loss` resets connections before the reply,
//! and `latency-spike` stalls responses. Physics kinds configure
//! constants (`schedd-crash-on-starvation`'s backlog bounds the
//! connection cap); `clock-skew`/`cmd-fail-first` are VM-side and
//! ignored here.
//!
//! A forced `schedd-kill` has the *simulator's* loss accounting: the
//! kill instant advances the schedd's crash epoch, so every job in
//! service when the window opens completes as `submit_lost` (the
//! broadcast jam), and the slot pool comes back full — overload
//! pressure cleared — when the window exits.

use crate::poll::{set_nonblocking, waker, Epoll, Event, TimerWheel, WakeRx, Waker};
use crate::proto::{frame_into, ErrCode, FrameBuf, Request, Response};
use simgrid::faults::{FaultKind, FaultPlan};
use simgrid::{Series, SeriesSet, SimRng};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration. `Default` gives a small, crashy schedd good
/// for exercising the disciplines quickly.
#[derive(Clone, Debug)]
pub struct GriddConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Event-loop count. `0`: use `EG_GRIDD_THREADS`, default 1 (one
    /// epoll loop comfortably serves thousands of connections).
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
    /// file server is a single-server FIFO per event loop: while one
    /// operation is in service, later ones queue behind it. Zero
    /// (the default) answers inline, the historical behavior.
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

impl GriddConfig {
    /// Resolve the event-loop count: explicit config, else
    /// `EG_GRIDD_THREADS`, else 1.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::env::var("EG_GRIDD_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n: &usize| n > 0)
            .unwrap_or(1)
    }
}

/// One half-open wall-clock window (relative to server start).
#[derive(Clone, Copy, Debug)]
struct Window {
    start: Duration,
    end: Duration,
}

impl Window {
    fn contains(&self, t: Duration) -> bool {
        t >= self.start && t < self.end
    }
}

/// The plan compiled onto the wall clock.
#[derive(Default)]
struct Windows {
    /// Forced schedd downtime (`schedd-kill`, truncated by restarts),
    /// coalesced into disjoint windows sorted by start.
    sched_down: Vec<Window>,
    /// `put` fails with ENOSPC.
    enospc: Vec<Window>,
    /// `df` estimates are skewed by this many slots.
    df_lie: Vec<(Window, i64)>,
    /// File server swallows requests without answering.
    black_hole: Vec<Window>,
    /// Connections reset with this probability before the reply.
    msg_loss: Vec<(Window, f64)>,
    /// Responses delayed by this much.
    latency: Vec<(Window, Duration)>,
}

const FOREVER: Duration = Duration::from_secs(u32::MAX as u64);

/// Coalesce possibly-overlapping windows into a disjoint, sorted set.
fn coalesce(mut windows: Vec<Window>) -> Vec<Window> {
    windows.sort_by_key(|w| w.start);
    let mut out: Vec<Window> = Vec::with_capacity(windows.len());
    for w in windows {
        match out.last_mut() {
            Some(prev) if w.start <= prev.end => prev.end = prev.end.max(w.end),
            _ => out.push(w),
        }
    }
    out
}

impl Windows {
    fn compile(plan: &FaultPlan, default_downtime: Duration) -> Windows {
        let mut w = Windows::default();
        // schedd-kill opens a downtime window; the next schedd-restart
        // occurrence inside it closes it early. Collect all kill/
        // restart instants first, then pair them up in time order.
        let mut kills: Vec<(Duration, Duration)> = Vec::new(); // (at, downtime)
        let mut restarts: Vec<Duration> = Vec::new();
        // black-hole enables open a window closed by the next disable.
        let mut bh_events: Vec<(Duration, bool)> = Vec::new();
        for spec in &plan.specs {
            // The spec's trigger instants, on the wall clock.
            let triggers = || {
                spec.triggers()
                    .into_iter()
                    .map(|at| Duration::from_micros(at.as_micros()))
            };
            match &spec.kind {
                FaultKind::ScheddKill { downtime } => {
                    let d = downtime.map(|d| d.to_std()).unwrap_or(default_downtime);
                    for at in triggers() {
                        kills.push((at, d));
                    }
                }
                FaultKind::ScheddRestart => restarts.extend(triggers()),
                FaultKind::EnospcWindow { duration } => {
                    for at in triggers() {
                        w.enospc.push(Window {
                            start: at,
                            end: at + duration.to_std(),
                        });
                    }
                }
                FaultKind::FreeSpaceLie {
                    delta_bytes,
                    duration,
                } => {
                    for at in triggers() {
                        w.df_lie.push((
                            Window {
                                start: at,
                                end: at + duration.to_std(),
                            },
                            *delta_bytes,
                        ));
                    }
                }
                FaultKind::ServerBlackHole { enable, .. } => {
                    for at in triggers() {
                        bh_events.push((at, *enable));
                    }
                }
                FaultKind::MsgLoss {
                    probability,
                    duration,
                    ..
                } => {
                    for at in triggers() {
                        w.msg_loss.push((
                            Window {
                                start: at,
                                end: at + duration.to_std(),
                            },
                            *probability,
                        ));
                    }
                }
                FaultKind::LatencySpike {
                    extra, duration, ..
                } => {
                    for at in triggers() {
                        w.latency.push((
                            Window {
                                start: at,
                                end: at + duration.to_std(),
                            },
                            extra.to_std(),
                        ));
                    }
                }
                // VM-side or construction-time physics — not windows.
                // `ClientKill` targets a sim client, which the live
                // daemon does not model either.
                FaultKind::ClockSkew { .. }
                | FaultKind::CmdFailFirst { .. }
                | FaultKind::ScheddCrashOnStarvation { .. }
                | FaultKind::EnospcAtCapacity { .. }
                | FaultKind::BlackHoleServers { .. }
                | FaultKind::ClientKill { .. } => {}
            }
        }
        restarts.sort();
        let mut down = Vec::with_capacity(kills.len());
        for (at, downtime) in kills {
            let natural_end = at.saturating_add(downtime);
            let end = restarts
                .iter()
                .copied()
                .find(|&r| r > at && r < natural_end)
                .unwrap_or(natural_end);
            down.push(Window { start: at, end });
        }
        w.sched_down = coalesce(down);
        bh_events.sort_by_key(|(at, _)| *at);
        let mut open: Option<Duration> = None;
        for (at, enable) in bh_events {
            match (enable, open) {
                (true, None) => open = Some(at),
                (false, Some(start)) => {
                    w.black_hole.push(Window { start, end: at });
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(start) = open {
            w.black_hole.push(Window {
                start,
                end: FOREVER,
            });
        }
        w
    }

    fn sched_forced_down(&self, t: Duration) -> bool {
        self.sched_down.iter().any(|w| w.contains(t))
    }

    /// How many forced kill windows have *opened* by `t`. Added to the
    /// overload crash count this makes the schedd's effective crash
    /// epoch: a job accepted before a kill and completing after it sees
    /// a different epoch and is accounted `submit_lost` — the same
    /// broadcast-jam accounting the simulator applies.
    fn forced_starts(&self, t: Duration) -> u64 {
        self.sched_down.iter().take_while(|w| w.start <= t).count() as u64
    }

    fn enospc_active(&self, t: Duration) -> bool {
        self.enospc.iter().any(|w| w.contains(t))
    }

    fn df_delta(&self, t: Duration) -> i64 {
        self.df_lie
            .iter()
            .filter(|(w, _)| w.contains(t))
            .map(|(_, d)| *d)
            .sum()
    }

    fn black_hole_until(&self, t: Duration) -> Option<Duration> {
        self.black_hole
            .iter()
            .find(|w| w.contains(t))
            .map(|w| w.end)
    }

    fn loss_probability(&self, t: Duration) -> f64 {
        self.msg_loss
            .iter()
            .filter(|(w, _)| w.contains(t))
            .map(|(_, p)| *p)
            .fold(0.0, f64::max)
    }

    fn extra_latency(&self, t: Duration) -> Duration {
        self.latency
            .iter()
            .filter(|(w, _)| w.contains(t))
            .map(|(_, d)| *d)
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

/// Per-client counters, dumped by the `stats` verb.
#[derive(Clone, Default)]
struct ClientCounters {
    submit_ok: u64,
    submit_busy: u64,
    submit_down: u64,
    submit_lost: u64,
    put_ok: u64,
    put_err: u64,
    get_ok: u64,
    get_err: u64,
    df_calls: u64,
    resets: u64,
}

/// Mutable daemon state shared by the event loops.
struct Shared {
    free_slots: u64,
    overload: u32,
    /// Overload-crash count; the *effective* epoch adds the number of
    /// forced kill windows opened so far (see `Windows::forced_starts`).
    crash_epoch: u64,
    down_until: Option<Instant>,
    /// True while the most recent `sched_down` check saw a forced kill
    /// window; the falling edge refills the slot pool.
    forced_active: bool,
    crashes: u64,
    jobs: u64,
    files: HashMap<String, Vec<u8>>,
    disk_used: usize,
    clients: HashMap<u32, ClientCounters>,
    rng: SimRng,
}

impl Shared {
    fn client(&mut self, id: u32) -> &mut ClientCounters {
        self.clients.entry(id).or_default()
    }
}

struct Inner {
    cfg: GriddConfig,
    max_conns: usize,
    windows: Windows,
    start: Instant,
    state: Mutex<Shared>,
    stop: AtomicBool,
    active_conns: AtomicUsize,
}

impl Inner {
    fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The schedd's effective crash epoch right now: overload crashes
    /// plus forced kill-window starts. Monotonic; a submit completes
    /// `submit_ok` iff the epoch is unchanged across its service time.
    fn effective_epoch(&self, st: &Shared, elapsed: Duration) -> u64 {
        st.crash_epoch + self.windows.forced_starts(elapsed)
    }

    /// Is the schedd down at `elapsed`? Applies the lazy state
    /// transitions: a crash-driven downtime that has elapsed — or a
    /// forced kill window that has closed — restarts the schedd with a
    /// full slot pool and cleared overload pressure.
    fn sched_down(&self, st: &mut Shared, elapsed: Duration) -> bool {
        if self.windows.sched_forced_down(elapsed) {
            st.forced_active = true;
            return true;
        }
        if st.forced_active {
            // Forced window exited: restart with a full pool. (In-service
            // jobs accepted before the kill still return their slot when
            // their timer fires; the cap in `finish_submit` absorbs it.)
            st.forced_active = false;
            st.down_until = None;
            st.free_slots = self.cfg.slots;
            st.overload = 0;
            return false;
        }
        match st.down_until {
            Some(until) if Instant::now() < until => true,
            Some(_) => {
                // Downtime over: restart with a full slot pool.
                st.down_until = None;
                st.free_slots = self.cfg.slots;
                st.overload = 0;
                false
            }
            None => false,
        }
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`GriddHandle::shutdown`].
pub struct GriddHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    wakers: Vec<Waker>,
    loops: Vec<JoinHandle<()>>,
}

/// A point-in-time copy of one client's counters (see the `stats`
/// verb for the JSON form).
#[derive(Clone, Debug, Default)]
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
    /// Carrier-sense reads (`df`/`sense`).
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
        let elapsed = self.inner.elapsed();
        let st = self.inner.state.lock().expect("state lock");
        let mut clients: Vec<ClientSnapshot> = st
            .clients
            .iter()
            .map(|(&client, c)| ClientSnapshot {
                client,
                submit_ok: c.submit_ok,
                submit_busy: c.submit_busy,
                submit_down: c.submit_down,
                submit_lost: c.submit_lost,
                df_calls: c.df_calls,
                resets: c.resets,
                put_ok: c.put_ok,
                put_err: c.put_err,
                get_ok: c.get_ok,
                get_err: c.get_err,
            })
            .collect();
        clients.sort_by_key(|c| c.client);
        let crashes = st.crashes + self.inner.windows.forced_starts(elapsed);
        (clients, crashes)
    }

    /// Stop every event loop and join it. In-flight connections are
    /// interrupted (their deferred operations are dropped), so
    /// shutdown completes within a bounded grace period no matter how
    /// stalled or mid-service the peers are.
    pub fn shutdown(mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
        for t in self.loops.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bind, spawn the event loops, and serve until [`GriddHandle::shutdown`].
pub fn start(cfg: GriddConfig) -> io::Result<GriddHandle> {
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
    let threads = cfg.resolved_threads();
    let windows = Windows::compile(&cfg.plan, cfg.downtime);
    let rng = cfg.plan.rng();
    let inner = Arc::new(Inner {
        max_conns,
        windows,
        start: Instant::now(),
        state: Mutex::new(Shared {
            free_slots: cfg.slots,
            overload: 0,
            crash_epoch: 0,
            down_until: None,
            forced_active: false,
            crashes: 0,
            jobs: 0,
            files: HashMap::new(),
            disk_used: 0,
            clients: HashMap::new(),
            rng,
        }),
        cfg,
        stop: AtomicBool::new(false),
        active_conns: AtomicUsize::new(0),
    });

    let mut wakers = Vec::with_capacity(threads);
    let mut loops = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (wake_tx, wake_rx) = waker()?;
        let lst = listener.try_clone()?;
        let lp = EventLoop::new(inner.clone(), lst, wake_rx)?;
        wakers.push(wake_tx);
        loops.push(std::thread::spawn(move || lp.run()));
    }

    Ok(GriddHandle {
        addr,
        inner,
        wakers,
        loops,
    })
}

// ------------------------------------------------------------ event loop

/// Token values reserved for non-connection fds.
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// A deferred operation owned by one connection. At most one is
/// pending per connection; frame parsing pauses (and read interest
/// drops, for natural TCP backpressure) until it resolves.
enum Pending {
    /// Nothing deferred; frames are processed as they complete.
    None,
    /// An injected latency spike holds the decoded request.
    Stall {
        req: Request,
        /// Server time the request arrived (fault windows are judged
        /// at arrival, exactly like the blocking server did).
        elapsed: Duration,
    },
    /// A submit holds a service slot; the response is written when the
    /// service timer fires.
    Service,
    /// A black-holed file verb: the timer closes the connection
    /// without ever answering.
    Swallow,
}

/// Timer-wheel completions.
enum TimerEv {
    /// Per-connection deadline patrol.
    Deadline { idx: usize, gen: u64 },
    /// Latency stall elapsed: process the held request.
    Resume { idx: usize, gen: u64 },
    /// A submit's service time elapsed. Fires even if the connection
    /// died mid-service: the slot must return and the job must be
    /// accounted either way.
    ServiceDone {
        idx: usize,
        gen: u64,
        client: u32,
        epoch: u64,
        job_id: String,
    },
    /// Black-hole swallow: close without answering.
    Swallow { idx: usize, gen: u64 },
    /// A queued file-server operation finished service: deliver its
    /// precomputed response (dropped if the connection died).
    FileDone {
        idx: usize,
        gen: u64,
        resp: Response,
    },
}

/// One connection's state: incremental reader, partial-progress
/// writer, and the deferred-operation slot.
struct Conn {
    stream: TcpStream,
    gen: u64,
    frames: FrameBuf,
    out: Vec<u8>,
    out_pos: usize,
    pending: Pending,
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
    /// The file server's FIFO horizon (per event loop): server time
    /// until which the file server is busy with earlier operations.
    file_busy_until: Duration,
}

impl EventLoop {
    fn new(inner: Arc<Inner>, listener: TcpListener, wake: WakeRx) -> io::Result<EventLoop> {
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        epoll.add(wake.fd(), TOKEN_WAKER, true, false)?;
        let timers = TimerWheel::new(inner.start);
        Ok(EventLoop {
            inner,
            epoll,
            listener,
            wake,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            timers,
            file_busy_until: Duration::ZERO,
        })
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<TimerEv> = Vec::new();
        loop {
            if self.inner.stop.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            self.timers.advance(now, &mut fired);
            for ev in fired.drain(..) {
                self.on_timer(ev);
            }
            let timeout = self
                .timers
                .next_deadline()
                .map(|at| at.saturating_duration_since(Instant::now()));
            if self.epoll.wait(&mut events, timeout).is_err() {
                break;
            }
            for ev in &events {
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
        // Teardown: interrupt every in-flight connection.
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
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
                    let prev = self.inner.active_conns.fetch_add(1, Ordering::SeqCst);
                    if prev >= self.inner.max_conns {
                        self.inner.active_conns.fetch_sub(1, Ordering::SeqCst);
                        drop(stream);
                        continue;
                    }
                    if self.register(stream).is_err() {
                        self.inner.active_conns.fetch_sub(1, Ordering::SeqCst);
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
        self.gens[idx] += 1;
        let gen = self.gens[idx];
        let now = Instant::now();
        self.epoll
            .add(stream.as_raw_fd(), idx as u64, true, false)?;
        self.conns[idx] = Some(Conn {
            stream,
            gen,
            frames: FrameBuf::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: Pending::None,
            last_activity: now,
            want_write: false,
            closing: false,
        });
        self.timers.schedule(
            now + self.inner.cfg.deadline,
            TimerEv::Deadline { idx, gen },
        );
        Ok(())
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            drop(conn);
            self.free.push(idx);
            self.inner.active_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn conn_live(&self, idx: usize, gen: u64) -> bool {
        matches!(self.conns.get(idx), Some(Some(c)) if c.gen == gen)
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
                        conn.last_activity = Instant::now();
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

    /// Decode and process every complete frame, stopping while a
    /// deferred operation is pending (the remainder stays buffered;
    /// read interest drops so TCP backpressure reaches the peer).
    fn drain_frames(&mut self, idx: usize) {
        loop {
            let frame = {
                let Some(Some(conn)) = self.conns.get_mut(idx) else {
                    return;
                };
                if conn.closing || !matches!(conn.pending, Pending::None) {
                    break;
                }
                conn.frames.next_frame()
            };
            match frame {
                Ok(Some(payload)) => match Request::decode(&payload) {
                    Ok(req) => {
                        let elapsed = self.inner.elapsed();
                        self.process_request(idx, req, elapsed);
                    }
                    Err(e) => {
                        self.protocol_error(idx, &e.to_string());
                        break;
                    }
                },
                Ok(None) => break,
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
        frame_into(
            &mut conn.out,
            &Response::Err {
                code: ErrCode::Bad,
                msg: msg.to_string(),
            }
            .encode(),
        );
        self.try_flush(idx);
    }

    // --------------------------------------------------------- process

    /// Stage one: apply the latency-spike window. A stalled request
    /// parks in [`Pending::Stall`] until its [`TimerEv::Resume`] fires.
    fn process_request(&mut self, idx: usize, req: Request, elapsed: Duration) {
        let extra = self.inner.windows.extra_latency(elapsed);
        if !extra.is_zero() {
            let Some(Some(conn)) = self.conns.get_mut(idx) else {
                return;
            };
            let gen = conn.gen;
            conn.pending = Pending::Stall { req, elapsed };
            self.timers.schedule(
                Instant::now() + extra.min(self.inner.cfg.deadline),
                TimerEv::Resume { idx, gen },
            );
            return;
        }
        self.process_now(idx, req, elapsed);
    }

    /// Stage two: message loss, then the verb itself.
    fn process_now(&mut self, idx: usize, req: Request, elapsed: Duration) {
        // Injected loss resets the connection *instead of* replying —
        // a dropped message.
        let p = self.inner.windows.loss_probability(elapsed);
        if p > 0.0 {
            let lost = {
                let mut st = self.inner.state.lock().expect("state lock");
                let lost = st.rng.chance(p);
                if lost {
                    if let Some(c) = req.client() {
                        st.client(c).resets += 1;
                    }
                }
                lost
            };
            if lost {
                self.close_conn(idx);
                return;
            }
        }
        match req {
            Request::Submit { client, job } => self.submit(idx, client, &job, elapsed),
            Request::Put { client, name, data } => {
                self.file_put(idx, client, &name, &data, elapsed);
            }
            Request::Get { client, name } => self.file_get(idx, client, &name, elapsed),
            Request::Stat { client, name } => {
                let resp = self.file_stat(client, &name);
                self.respond(idx, &resp);
            }
            Request::Df { client } => {
                let resp = self.df(client, elapsed);
                self.respond(idx, &resp);
            }
            Request::Stats => {
                let resp = Response::Stats {
                    json: stats_json(&self.inner),
                };
                self.respond(idx, &resp);
            }
        }
    }

    fn submit(&mut self, idx: usize, client: u32, job: &str, elapsed: Duration) {
        enum Outcome {
            Reject(Response),
            Accept { epoch: u64, job_id: String },
        }
        let outcome = {
            let inner = self.inner.clone();
            let mut st = inner.state.lock().expect("state lock");
            if inner.sched_down(&mut st, elapsed) {
                st.client(client).submit_down += 1;
                Outcome::Reject(Response::Err {
                    code: ErrCode::Down,
                    msg: "schedd is down".into(),
                })
            } else if st.free_slots == 0 {
                st.overload += 1;
                if st.overload >= inner.cfg.crash_overloads {
                    // The stampede starved the schedd: it crashes, every
                    // in-flight job is lost, and the service goes dark.
                    st.overload = 0;
                    st.crash_epoch += 1;
                    st.crashes += 1;
                    st.down_until = Some(Instant::now() + inner.cfg.downtime);
                    st.client(client).submit_down += 1;
                    Outcome::Reject(Response::Err {
                        code: ErrCode::Down,
                        msg: "schedd crashed under load".into(),
                    })
                } else {
                    st.client(client).submit_busy += 1;
                    Outcome::Reject(Response::Err {
                        code: ErrCode::Busy,
                        msg: "no free service slots".into(),
                    })
                }
            } else {
                st.free_slots -= 1;
                // A grant relieves pressure but does not erase it:
                // sustained overload still accumulates toward a crash
                // even while slots churn.
                st.overload = st.overload.saturating_sub(1);
                st.jobs += 1;
                let epoch = inner.effective_epoch(&st, elapsed);
                Outcome::Accept {
                    epoch,
                    job_id: format!("{job}@{}", st.jobs),
                }
            }
        };
        match outcome {
            Outcome::Reject(resp) => self.respond(idx, &resp),
            Outcome::Accept { epoch, job_id } => {
                // Hold the slot for the service time — as a timer
                // completion, not a sleeping worker. This is where
                // concurrent aggressive clients collide on a real clock.
                let gen = match self.conns.get_mut(idx) {
                    Some(Some(conn)) => {
                        conn.pending = Pending::Service;
                        conn.gen
                    }
                    // Connection already gone: the slot is still held;
                    // schedule the completion against a generation that
                    // can never match so the accounting happens anyway.
                    _ => 0,
                };
                self.timers.schedule(
                    Instant::now() + self.inner.cfg.service,
                    TimerEv::ServiceDone {
                        idx,
                        gen,
                        client,
                        epoch,
                        job_id,
                    },
                );
                self.update_interest(idx);
            }
        }
    }

    fn df(&mut self, client: u32, elapsed: Duration) -> Response {
        let mut st = self.inner.state.lock().expect("state lock");
        st.client(client).df_calls += 1;
        let free = if self.inner.sched_down(&mut st, elapsed) {
            0
        } else {
            st.free_slots
        };
        // An active free-space lie skews the estimate — the attack on
        // carrier sense itself.
        let delta = self.inner.windows.df_delta(elapsed);
        let lied = (free as i64).saturating_add(delta).max(0) as u64;
        Response::Free { slots: lied }
    }

    /// Black-hole a file verb: schedule the swallow (bounded by the
    /// connection deadline so the client's wait is bounded too) and
    /// never answer. Returns true when the verb was swallowed.
    fn black_hole(&mut self, idx: usize, elapsed: Duration) -> bool {
        if let Some(end) = self.inner.windows.black_hole_until(elapsed) {
            let remaining = end.saturating_sub(elapsed);
            let Some(Some(conn)) = self.conns.get_mut(idx) else {
                return true;
            };
            let gen = conn.gen;
            conn.pending = Pending::Swallow;
            self.timers.schedule(
                Instant::now() + remaining.min(self.inner.cfg.deadline),
                TimerEv::Swallow { idx, gen },
            );
            return true;
        }
        false
    }

    fn file_put(&mut self, idx: usize, client: u32, name: &str, data: &[u8], elapsed: Duration) {
        if self.black_hole(idx, elapsed) {
            return;
        }
        let resp = {
            let mut st = self.inner.state.lock().expect("state lock");
            if self.inner.windows.enospc_active(elapsed) {
                st.client(client).put_err += 1;
                Response::Err {
                    code: ErrCode::Enospc,
                    msg: "no space left on device (fault window)".into(),
                }
            } else {
                let old = st.files.get(name).map(|d| d.len()).unwrap_or(0);
                let used_after = st.disk_used - old + data.len();
                if used_after > self.inner.cfg.disk_bytes {
                    st.client(client).put_err += 1;
                    Response::Err {
                        code: ErrCode::Enospc,
                        msg: "no space left on device".into(),
                    }
                } else {
                    st.disk_used = used_after;
                    st.files.insert(name.to_string(), data.to_vec());
                    st.client(client).put_ok += 1;
                    Response::Ok {
                        info: format!("{} bytes", data.len()),
                    }
                }
            }
        };
        self.finish_file(idx, resp, self.inner.cfg.file_service, elapsed);
    }

    fn file_get(&mut self, idx: usize, client: u32, name: &str, elapsed: Duration) {
        if self.black_hole(idx, elapsed) {
            return;
        }
        let resp = {
            let mut st = self.inner.state.lock().expect("state lock");
            match st.files.get(name).cloned() {
                Some(data) => {
                    st.client(client).get_ok += 1;
                    (Response::Data { data }, self.inner.cfg.file_service)
                }
                None => {
                    st.client(client).get_err += 1;
                    (
                        Response::Err {
                            code: ErrCode::NotFound,
                            msg: format!("no such file: {name}"),
                        },
                        self.inner.cfg.file_miss_service,
                    )
                }
            }
        };
        self.finish_file(idx, resp.0, resp.1, elapsed);
    }

    /// `stat` — the file server's carrier-sense channel: does the file
    /// exist right now? Answered from the directory cache, never
    /// queued behind file service and never black-holed, so sensing
    /// stays free while committed work pays the FIFO. Counted with the
    /// other carrier-sense reads.
    fn file_stat(&mut self, client: u32, name: &str) -> Response {
        let mut st = self.inner.state.lock().expect("state lock");
        st.client(client).df_calls += 1;
        let exists = u64::from(st.files.contains_key(name));
        Response::Free { slots: exists }
    }

    /// Deliver a file-server response after its service time: the file
    /// server is a single-server FIFO, so the operation starts when
    /// every earlier one finished and holds the server for `dur`. The
    /// zero-cost idle path answers inline (the historical behavior).
    fn finish_file(&mut self, idx: usize, resp: Response, dur: Duration, elapsed: Duration) {
        if dur.is_zero() && self.file_busy_until <= elapsed {
            self.respond(idx, &resp);
            return;
        }
        let start = self.file_busy_until.max(elapsed);
        let done = start + dur;
        self.file_busy_until = done;
        let gen = match self.conns.get(idx) {
            Some(Some(conn)) => conn.gen,
            _ => 0,
        };
        self.timers.schedule(
            Instant::now() + done.saturating_sub(elapsed),
            TimerEv::FileDone { idx, gen, resp },
        );
    }

    // ---------------------------------------------------------- timers

    fn on_timer(&mut self, ev: TimerEv) {
        match ev {
            TimerEv::Deadline { idx, gen } => self.on_deadline(idx, gen),
            TimerEv::Resume { idx, gen } => self.on_resume(idx, gen),
            TimerEv::FileDone { idx, gen, resp } => {
                if self.conn_live(idx, gen) {
                    self.respond(idx, &resp);
                }
            }
            TimerEv::Swallow { idx, gen } => {
                if self.conn_live(idx, gen) {
                    self.close_conn(idx);
                }
            }
            TimerEv::ServiceDone {
                idx,
                gen,
                client,
                epoch,
                job_id,
            } => self.on_service_done(idx, gen, client, epoch, &job_id),
        }
    }

    fn on_deadline(&mut self, idx: usize, gen: u64) {
        if !self.conn_live(idx, gen) {
            return;
        }
        let deadline = self.inner.cfg.deadline;
        let (rearm_at, close) = {
            let conn = self.conns[idx].as_ref().expect("live conn");
            if !matches!(conn.pending, Pending::None) {
                // Server-side work in progress; the peer is allowed to
                // wait through it.
                (Instant::now() + deadline, false)
            } else {
                let due = conn.last_activity + deadline;
                if Instant::now() >= due {
                    (due, true)
                } else {
                    (due, false)
                }
            }
        };
        if close {
            self.close_conn(idx);
            return;
        }
        self.timers
            .schedule(rearm_at, TimerEv::Deadline { idx, gen });
    }

    fn on_resume(&mut self, idx: usize, gen: u64) {
        if !self.conn_live(idx, gen) {
            return;
        }
        let conn = self.conns[idx].as_mut().expect("live conn");
        let pending = std::mem::replace(&mut conn.pending, Pending::None);
        if let Pending::Stall { req, elapsed } = pending {
            self.process_now(idx, req, elapsed);
            // The stalled verb may itself have deferred again (service
            // hold, swallow); otherwise resume frame processing.
            self.drain_frames(idx);
        } else {
            // Anything else here is a logic error; restore it.
            self.conns[idx].as_mut().expect("live conn").pending = pending;
        }
    }

    fn on_service_done(&mut self, idx: usize, gen: u64, client: u32, epoch: u64, job_id: &str) {
        // The slot returns and the job is accounted whether or not the
        // submitter's connection survived its own service time.
        let resp = {
            let inner = self.inner.clone();
            let mut st = inner.state.lock().expect("state lock");
            st.free_slots = (st.free_slots + 1).min(inner.cfg.slots);
            let now_epoch = inner.effective_epoch(&st, inner.elapsed());
            if now_epoch != epoch {
                // A crash (overload or forced kill window) happened
                // while this job was in service: it is gone.
                st.client(client).submit_lost += 1;
                Response::Err {
                    code: ErrCode::Down,
                    msg: "job lost in schedd crash".into(),
                }
            } else {
                st.client(client).submit_ok += 1;
                Response::Ok {
                    info: job_id.to_string(),
                }
            }
        };
        if self.conn_live(idx, gen) {
            let conn = self.conns[idx].as_mut().expect("live conn");
            if matches!(conn.pending, Pending::Service) {
                conn.pending = Pending::None;
            }
            self.respond(idx, &resp);
            self.drain_frames(idx);
        }
    }

    // ----------------------------------------------------------- write

    /// Queue a response frame and push as much as the socket takes.
    fn respond(&mut self, idx: usize, resp: &Response) {
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return;
        };
        frame_into(&mut conn.out, &resp.encode());
        self.try_flush(idx);
    }

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
                        conn.last_activity = Instant::now();
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
            Flush::Dead => self.close_conn(idx),
            Flush::Blocked => self.update_interest(idx),
            Flush::Drained(true) => self.close_conn(idx),
            Flush::Drained(false) => self.update_interest(idx),
        }
    }

    /// Reconcile epoll interest with the connection's state: read while
    /// no operation is deferred, write while bytes are queued.
    fn update_interest(&mut self, idx: usize) {
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return;
        };
        let read = matches!(conn.pending, Pending::None) && !conn.closing;
        let write = conn.want_write;
        let _ = self
            .epoll
            .modify(conn.stream.as_raw_fd(), idx as u64, read, write);
    }
}

/// Render the counters as a `simgrid::metrics::SeriesSet` — the same
/// JSON shape every figure emits, so downstream tooling needs nothing
/// new. One series per counter, one point per client `(client, count)`;
/// the `schedd_crashes` series carries the global crash count at x=0.
fn stats_json(inner: &Inner) -> String {
    let elapsed = inner.elapsed();
    let st = inner.state.lock().expect("state lock");
    let mut set = SeriesSet::new("gridd per-client counters", "client", "count");
    let mut ids: Vec<u32> = st.clients.keys().copied().collect();
    ids.sort_unstable();
    type Getter = fn(&ClientCounters) -> u64;
    let counters: [(&str, Getter); 10] = [
        ("submit_ok", |c| c.submit_ok),
        ("submit_busy", |c| c.submit_busy),
        ("submit_down", |c| c.submit_down),
        ("submit_lost", |c| c.submit_lost),
        ("put_ok", |c| c.put_ok),
        ("put_err", |c| c.put_err),
        ("get_ok", |c| c.get_ok),
        ("get_err", |c| c.get_err),
        ("df_calls", |c| c.df_calls),
        ("resets", |c| c.resets),
    ];
    for (name, get) in counters {
        let mut s = Series::new(name);
        for &id in &ids {
            s.push_xy(id as f64, get(&st.clients[&id]) as f64);
        }
        set.add(s);
    }
    let mut crashes = Series::new("schedd_crashes");
    crashes.push_xy(
        0.0,
        (st.crashes + inner.windows.forced_starts(elapsed)) as f64,
    );
    set.add(crashes);
    set.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use retry::{Dur, Time};
    use simgrid::faults::FaultSpec;

    fn plan_with(specs: Vec<FaultSpec>) -> FaultPlan {
        let mut p = FaultPlan::new(7);
        p.specs = specs;
        p
    }

    #[test]
    fn windows_expand_repeats_and_pair_black_holes() {
        let plan = plan_with(vec![
            FaultSpec::repeating(
                Time::from_secs(1),
                Dur::from_secs(10),
                3,
                FaultKind::ScheddKill {
                    downtime: Some(Dur::from_secs(2)),
                },
            ),
            FaultSpec::once(
                Time::from_secs(5),
                FaultKind::ServerBlackHole {
                    server: "yyy".into(),
                    enable: true,
                },
            ),
            FaultSpec::once(
                Time::from_secs(8),
                FaultKind::ServerBlackHole {
                    server: "yyy".into(),
                    enable: false,
                },
            ),
        ]);
        let w = Windows::compile(&plan, Duration::from_secs(1));
        assert_eq!(w.sched_down.len(), 3);
        assert!(w.sched_forced_down(Duration::from_secs(12)));
        assert!(!w.sched_forced_down(Duration::from_secs(4)));
        assert_eq!(w.black_hole.len(), 1);
        assert_eq!(
            w.black_hole_until(Duration::from_secs(6)),
            Some(Duration::from_secs(8))
        );
        assert_eq!(w.black_hole_until(Duration::from_secs(9)), None);
    }

    #[test]
    fn restart_truncates_kill_window() {
        let plan = plan_with(vec![
            FaultSpec::once(
                Time::from_secs(1),
                FaultKind::ScheddKill {
                    downtime: Some(Dur::from_secs(10)),
                },
            ),
            FaultSpec::once(Time::from_secs(3), FaultKind::ScheddRestart),
        ]);
        let w = Windows::compile(&plan, Duration::from_secs(1));
        assert!(w.sched_forced_down(Duration::from_secs(2)));
        assert!(!w.sched_forced_down(Duration::from_secs(4)));
    }

    #[test]
    fn unterminated_black_hole_stays_open() {
        let plan = plan_with(vec![FaultSpec::once(
            Time::from_secs(2),
            FaultKind::ServerBlackHole {
                server: "yyy".into(),
                enable: true,
            },
        )]);
        let w = Windows::compile(&plan, Duration::from_secs(1));
        assert!(w.black_hole_until(Duration::from_secs(1)).is_none());
        assert!(w.black_hole_until(Duration::from_secs(1000)).is_some());
    }

    #[test]
    fn lie_windows_sum_and_clamp() {
        let plan = plan_with(vec![FaultSpec::once(
            Time::from_secs(0),
            FaultKind::FreeSpaceLie {
                delta_bytes: -100,
                duration: Dur::from_secs(5),
            },
        )]);
        let w = Windows::compile(&plan, Duration::from_secs(1));
        assert_eq!(w.df_delta(Duration::from_secs(1)), -100);
        assert_eq!(w.df_delta(Duration::from_secs(6)), 0);
    }

    #[test]
    fn forced_starts_counts_window_openings() {
        let plan = plan_with(vec![FaultSpec::repeating(
            Time::from_secs(1),
            Dur::from_secs(10),
            3,
            FaultKind::ScheddKill {
                downtime: Some(Dur::from_secs(2)),
            },
        )]);
        let w = Windows::compile(&plan, Duration::from_secs(1));
        assert_eq!(w.forced_starts(Duration::from_millis(500)), 0);
        assert_eq!(w.forced_starts(Duration::from_secs(1)), 1);
        assert_eq!(w.forced_starts(Duration::from_secs(5)), 1);
        assert_eq!(w.forced_starts(Duration::from_secs(11)), 2);
        assert_eq!(w.forced_starts(Duration::from_secs(100)), 3);
    }

    #[test]
    fn overlapping_kill_windows_coalesce() {
        let plan = plan_with(vec![
            FaultSpec::once(
                Time::from_secs(1),
                FaultKind::ScheddKill {
                    downtime: Some(Dur::from_secs(5)),
                },
            ),
            FaultSpec::once(
                Time::from_secs(3),
                FaultKind::ScheddKill {
                    downtime: Some(Dur::from_secs(5)),
                },
            ),
        ]);
        let w = Windows::compile(&plan, Duration::from_secs(1));
        assert_eq!(w.sched_down.len(), 1, "overlap coalesces into one window");
        assert!(w.sched_forced_down(Duration::from_secs(7)));
        assert!(!w.sched_forced_down(Duration::from_secs(8)));
        // One coalesced window = one broadcast jam.
        assert_eq!(w.forced_starts(Duration::from_secs(10)), 1);
    }
}
