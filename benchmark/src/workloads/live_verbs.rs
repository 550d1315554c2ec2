//! `live_verbs`: an in-process `gridd` (one event loop, no fault plan)
//! driven over loopback by one generator thread with two persistent
//! connections built on `gridd::proto`. Closed loop throughout.
//!
//! The reactor, wire codec and timer wheel with the modelled physics
//! out of the way. Four phases take turns in short chunks: *ping-pong*
//! (`df`, window 1: one verb, because the median of a mix of verbs with
//! different costs sits in the gap between them and flips from run to
//! run), *pipelined* small-verb mix (window 32 per connection,
//! client ids rotating over 1000), *bulk* (`put` 4 KiB beside `get`
//! 64 KiB, window 4) and *deferred* (`submit` with a 2 ms hold, one in
//! flight per connection, slots ≥ in-flight). Small beside bulk
//! separates per-message from per-byte cost, writes sit beside reads,
//! and inline beside deferred replies use the same event loop
//! differently. The swarm arena is deliberately not a workload: its
//! rate is the modelled service time.

use super::{repeat_setup, summarise, Ctx, Measured};
use crate::quiet::{Echo, Tagged};
use crate::stats;
use crate::trace::Tracer;
use gridd::proto::{frame_into, FrameBuf};
use gridd::{ErrCode, GriddConfig, GriddHandle, Request, Response};
use simgrid::SimRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connections the generator holds.
const CONNECTIONS: usize = 2;
/// Pipelined requests in flight per connection.
pub const WINDOW: usize = 32;
/// Client ids the small verbs rotate over.
const CLIENT_IDS: u32 = 1000;
/// Preloaded 64 B keys (`get` hits), and names `put` 64 B rotates over.
const SMALL_KEYS: usize = 64;
/// Preloaded 64 KiB keys for the bulk phase.
const BIG_KEYS: usize = 8;
const SMALL_LEN: usize = 64;
const BIG_LEN: usize = 64 * 1024;
const BULK_PUT_LEN: usize = 4 * 1024;
/// Bulk requests in flight per connection.
const BULK_WINDOW: usize = 4;
/// How long a `submit` holds its slot.
pub const HOLD: Duration = Duration::from_millis(2);

/// Chunk sizes: each phase's share of one cycle, sized so that a chunk
/// lasts 5–15 ms on the sandbox.
const PINGPONG_PER_CHUNK: usize = 400;
const PIPELINED_ROUNDS_PER_CHUNK: usize = 60;
const BULK_ROUNDS_PER_CHUNK: usize = 32;
const DEFERRED_ROUNDS_PER_CHUNK: usize = 4;

/// The five small verbs, in the order the mix cycles through them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// `df`: the carrier-sense read.
    Df,
    /// `stat` of a preloaded key.
    Stat,
    /// `get` of a preloaded 64 B key.
    GetHit,
    /// `get` of a key nobody put: the expected reply is `not-found`.
    GetMiss,
    /// `put` of 64 B.
    Put,
}

/// The mix, and the order of `gridd.server.rtt_p50_us.*`.
pub const MIX: [Verb; 5] = [Verb::Df, Verb::Stat, Verb::GetHit, Verb::GetMiss, Verb::Put];

/// What the generator itself counted, to hold against the daemon's
/// `stats` counters at the end.
#[derive(Default, Debug, PartialEq, Eq)]
struct Counts {
    df_calls: u64,
    put_ok: u64,
    get_ok: u64,
    get_err: u64,
    submit_ok: u64,
}

/// One persistent connection: blocking socket, explicit write buffer,
/// incremental frame decoder.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    frames: FrameBuf,
    scratch: Box<[u8; 64 * 1024]>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that never comes must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(64 * 1024),
            frames: FrameBuf::new(),
            scratch: Box::new([0; 64 * 1024]),
        })
    }

    /// Encode and queue a request (sent by [`Conn::flush`]).
    fn queue(&mut self, t: &mut Tracer, req: &Request) {
        let payload = t.span("gridd", "proto::encode", || req.encode());
        frame_into(&mut self.out, &payload);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    /// Block until the next reply frame and decode it.
    fn reply(&mut self, t: &mut Tracer) -> Result<Response, String> {
        loop {
            match self.frames.next_frame() {
                Ok(Some(payload)) => {
                    return t
                        .span("gridd", "proto::decode", || Response::decode(&payload))
                        .map_err(|e| format!("undecodable reply: {e}"));
                }
                Ok(None) => {}
                Err(e) => return Err(format!("bad frame: {e}")),
            }
            match self.stream.read(&mut self.scratch[..]) {
                Ok(0) => return Err("connection reset".into()),
                Ok(n) => self.frames.extend(&self.scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// A running daemon, the generator's connections to it, and what the
/// generator expects it to hold.
pub struct Session {
    handle: GriddHandle,
    conns: Vec<Conn>,
    small: Vec<Vec<u8>>,
    big: Vec<Vec<u8>>,
    bulk_payload: Vec<u8>,
    counts: Counts,
    /// Requests sent so far; drives client-id and key rotation.
    seq: u64,
    /// Connections re-opened after an error; each is a failed operation.
    pub reconnects: u64,
}

fn seeded_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

impl Session {
    /// Start the daemon, connect, and preload the keys `get` will hit.
    /// This whole function is the set-up `setup_s` times.
    pub fn start(seed: u64) -> Result<Session, String> {
        let cfg = GriddConfig {
            threads: 1,
            slots: 4,
            service: HOLD,
            // Explicit, and longer than any gap between two uses of a
            // connection: the default 10 s idle deadline would close a
            // connection that sat out a long phase.
            deadline: Duration::from_secs(120),
            ..GriddConfig::default()
        };
        let handle = gridd::start(cfg).map_err(|e| format!("gridd::start: {e}"))?;
        let addr = handle.addr();
        let mut rng = SimRng::new(seed ^ 0x11FE_5E55);
        let mut s = Session {
            handle,
            conns: Vec::new(),
            small: (0..SMALL_KEYS)
                .map(|_| seeded_bytes(&mut rng, SMALL_LEN))
                .collect(),
            big: (0..BIG_KEYS)
                .map(|_| seeded_bytes(&mut rng, BIG_LEN))
                .collect(),
            bulk_payload: seeded_bytes(&mut rng, BULK_PUT_LEN),
            counts: Counts::default(),
            seq: 0,
            reconnects: 0,
        };
        for _ in 0..CONNECTIONS {
            s.conns
                .push(Conn::connect(addr).map_err(|e| format!("connect: {e}"))?);
        }
        let mut off = Tracer::new(false);
        let preload: Vec<(String, Vec<u8>)> = (s.small.iter().enumerate())
            .map(|(i, v)| (format!("k{i}"), v.clone()))
            .chain(
                s.big
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (format!("big{i}"), v.clone())),
            )
            .collect();
        for (name, data) in preload {
            let req = Request::Put {
                client: 0,
                name,
                data,
            };
            s.conns[0].queue(&mut off, &req);
            s.conns[0].flush().map_err(|e| format!("preload: {e}"))?;
            match s.conns[0].reply(&mut off)? {
                Response::Ok { .. } => s.counts.put_ok += 1,
                other => return Err(format!("preload refused: {other:?}")),
            }
        }
        Ok(s)
    }

    /// Stop the daemon and wait for its event loop to end.
    pub fn shutdown(self) {
        drop(self.conns);
        self.handle.shutdown();
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The request for small verb `verb` at sequence number `i`.
    fn small_request(&self, verb: Verb, i: u64) -> Request {
        let client = (i % u64::from(CLIENT_IDS)) as u32;
        let key = (i as usize / MIX.len()) % SMALL_KEYS;
        match verb {
            Verb::Df => Request::Df { client },
            Verb::Stat => Request::Stat {
                client,
                name: format!("k{key}"),
            },
            Verb::GetHit => Request::Get {
                client,
                name: format!("k{key}"),
            },
            Verb::GetMiss => Request::Get {
                client,
                name: format!("absent{key}"),
            },
            Verb::Put => Request::Put {
                client,
                name: format!("w{key}"),
                data: self.small[key].clone(),
            },
        }
    }

    /// Is `resp` the right answer to small verb `verb` at sequence `i`?
    fn small_reply_ok(&mut self, verb: Verb, i: u64, resp: &Response) -> bool {
        let key = (i as usize / MIX.len()) % SMALL_KEYS;
        match (verb, resp) {
            // 4 slots, nothing submitted while small verbs run.
            (Verb::Df, Response::Free { slots: 4 }) => self.counts.df_calls += 1,
            // `stat` answers on the sense channel: 1 = the key exists.
            (Verb::Stat, Response::Free { slots: 1 }) => self.counts.df_calls += 1,
            (Verb::GetHit, Response::Data { data }) if *data == self.small[key] => {
                self.counts.get_ok += 1
            }
            (
                Verb::GetMiss,
                Response::Err {
                    code: ErrCode::NotFound,
                    ..
                },
            ) => self.counts.get_err += 1,
            (Verb::Put, Response::Ok { .. }) => self.counts.put_ok += 1,
            _ => return false,
        }
        true
    }

    /// After an I/O or protocol error: replace connection `c`, and
    /// count the reconnect (itself a failed operation).
    fn reconnect(&mut self, c: usize) {
        self.reconnects += 1;
        if let Ok(conn) = Conn::connect(self.addr()) {
            self.conns[c] = conn;
        }
    }

    /// Ping-pong: `n` requests on connection 0, one in flight, cycling
    /// through `verbs`; each round trip timed on its own. Returns the
    /// wall-clock RTTs in µs, tagged with their verb's index in `verbs`.
    pub fn pingpong(&mut self, ctx: &mut Ctx, verbs: &[Verb], n: usize) -> Vec<(usize, f64)> {
        let mut rtts = Vec::with_capacity(n);
        for k in 0..n {
            let (v, i) = (k % verbs.len(), self.seq);
            self.seq += 1;
            let req = self.small_request(verbs[v], i);
            let span = ctx.tracer.open("gridd", "request");
            let t0 = Instant::now();
            self.conns[0].queue(&mut ctx.tracer, &req);
            let resp = self.conns[0].flush().map_err(|e| e.to_string());
            let resp = resp.and_then(|()| self.conns[0].reply(&mut ctx.tracer));
            let rtt = t0.elapsed();
            ctx.tracer.close(span);
            match resp {
                Ok(r) => {
                    let ok = self.small_reply_ok(verbs[v], i, &r);
                    ctx.check(ok, || format!("{:?} #{i}: wrong reply {r:?}", verbs[v]));
                    rtts.push((v, rtt.as_secs_f64() * 1e6));
                }
                Err(e) => {
                    ctx.check(false, || format!("{:?} #{i}: {e}", verbs[v]));
                    self.reconnect(0);
                }
            }
        }
        rtts
    }

    /// One pipelined round: a window of requests written to every
    /// connection, then every reply read back and checked. `build`
    /// makes the request for slot `k` of connection `c`; `accept`
    /// judges its reply. Returns requests completed.
    fn round(
        &mut self,
        ctx: &mut Ctx,
        window: usize,
        build: &dyn Fn(&Session, usize, u64) -> Request,
        accept: &dyn Fn(&mut Session, usize, u64, &Response) -> bool,
    ) -> u64 {
        let span = ctx.tracer.open("gridd", "window");
        let base = self.seq;
        self.seq += (window * CONNECTIONS) as u64;
        let mut sent = [false; CONNECTIONS];
        for (c, sent) in sent.iter_mut().enumerate() {
            for k in 0..window {
                let req = build(self, c, base + (c * window + k) as u64);
                self.conns[c].queue(&mut ctx.tracer, &req);
            }
            match self.conns[c].flush() {
                Ok(()) => *sent = true,
                Err(e) => {
                    ctx.check(false, || format!("connection {c}: write: {e}"));
                    self.reconnect(c);
                }
            }
        }
        let mut done = 0;
        for c in (0..CONNECTIONS).filter(|&c| sent[c]) {
            for k in 0..window {
                let i = base + (c * window + k) as u64;
                match self.conns[c].reply(&mut ctx.tracer) {
                    Ok(r) => {
                        let ok = accept(self, c, i, &r);
                        ctx.check(ok, || format!("request #{i}: wrong reply {r:?}"));
                        done += 1;
                    }
                    Err(e) => {
                        ctx.check(false, || format!("request #{i}: {e}"));
                        self.reconnect(c);
                        break;
                    }
                }
            }
        }
        ctx.tracer.close(span);
        done
    }

    /// Pipelined small verbs cycling through `verbs`, [`WINDOW`] in
    /// flight per connection, for `rounds` rounds. Returns verbs
    /// completed.
    pub fn pipelined(&mut self, ctx: &mut Ctx, verbs: &[Verb], rounds: usize) -> u64 {
        let verb_at = |i: u64| verbs[(i % verbs.len() as u64) as usize];
        (0..rounds)
            .map(|_| {
                self.round(
                    ctx,
                    WINDOW,
                    &|s, _, i| s.small_request(verb_at(i), i),
                    &|s, _, i, r| s.small_reply_ok(verb_at(i), i, r),
                )
            })
            .sum()
    }

    /// Bulk: connection 0 writes 4 KiB `put`s while connection 1 reads
    /// 64 KiB `get`s, [`BULK_WINDOW`] in flight each. Returns payload
    /// bytes moved.
    pub fn bulk(&mut self, ctx: &mut Ctx, rounds: usize) -> u64 {
        let mut bytes = 0;
        for _ in 0..rounds {
            let done = self.round(
                ctx,
                BULK_WINDOW,
                &|s, c, i| {
                    if c == 0 {
                        Request::Put {
                            client: 1,
                            name: format!("bulk{}", i % 16),
                            data: s.bulk_payload.clone(),
                        }
                    } else {
                        Request::Get {
                            client: 2,
                            name: format!("big{}", i as usize % BIG_KEYS),
                        }
                    }
                },
                &|s, c, i, r| match (c, r) {
                    (0, Response::Ok { .. }) => {
                        s.counts.put_ok += 1;
                        true
                    }
                    (1, Response::Data { data }) if *data == s.big[i as usize % BIG_KEYS] => {
                        s.counts.get_ok += 1;
                        true
                    }
                    _ => false,
                },
            );
            // Every round moves the same bytes when nothing failed.
            if done == (BULK_WINDOW * CONNECTIONS) as u64 {
                bytes += (BULK_WINDOW * (BULK_PUT_LEN + BIG_LEN)) as u64;
            }
        }
        bytes
    }

    /// Deferred replies: one `submit` in flight per connection, each
    /// holding a slot for [`HOLD`]. Returns each round's wall-clock
    /// latency in µs (send to last reply).
    pub fn deferred(&mut self, ctx: &mut Ctx, rounds: usize) -> Vec<f64> {
        let mut us = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t0 = Instant::now();
            let done = self.round(
                ctx,
                1,
                &|_, c, i| Request::Submit {
                    client: c as u32,
                    job: format!("j{i}"),
                },
                &|s, _, i, r| match r {
                    Response::Ok { info } if info.starts_with(&format!("j{i}@")) => {
                        s.counts.submit_ok += 1;
                        true
                    }
                    _ => false,
                },
            );
            if done == CONNECTIONS as u64 {
                us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        us
    }

    /// Hold the daemon's own counters against the generator's.
    pub fn check_counters(&self, ctx: &mut Ctx) {
        let (clients, crashes) = self.handle.snapshot();
        let theirs = Counts {
            df_calls: clients.iter().map(|c| c.df_calls).sum(),
            put_ok: clients.iter().map(|c| c.put_ok).sum(),
            get_ok: clients.iter().map(|c| c.get_ok).sum(),
            get_err: clients.iter().map(|c| c.get_err).sum(),
            submit_ok: clients.iter().map(|c| c.submit_ok).sum(),
        };
        ctx.check(theirs == self.counts, || {
            format!("daemon counted {theirs:?}, generator {:?}", self.counts)
        });
        let errors: u64 = clients
            .iter()
            .map(|c| c.put_err + c.submit_busy + c.submit_down + c.submit_lost + c.resets)
            .sum();
        ctx.check(errors == 0 && crashes == 0 && self.reconnects == 0, || {
            format!(
                "{errors} refused operations, {crashes} crashes, {} reconnects",
                self.reconnects
            )
        });
    }
}

/// What one cycle of the four phases measured.
struct Cycle {
    rtts_us: Vec<f64>,
    verbs_per_s: f64,
    bulk_mb_per_s: f64,
    overshoot_us: Vec<f64>,
}

/// One timed chunk of every phase, inside a `rep` span.
fn cycle(ctx: &mut Ctx, s: &mut Session) -> Cycle {
    let span = ctx.tracer.open("bench", "rep");

    // Individually timed samples are wall-clock; the chunk's
    // calibrated-to-wall ratio converts them.
    let section = ctx.meter.start();
    let rtts = s.pingpong(ctx, &[Verb::Df], PINGPONG_PER_CHUNK);
    let timed = ctx.meter.stop(section);
    let scale = timed.cal_s / timed.wall_s;
    let rtts_us = rtts.iter().map(|&(_, us)| us * scale).collect();

    let section = ctx.meter.start();
    let verbs = s.pipelined(ctx, &MIX, PIPELINED_ROUNDS_PER_CHUNK);
    let verbs_per_s = verbs as f64 / ctx.meter.stop(section).cal_s;

    let section = ctx.meter.start();
    let bytes = s.bulk(ctx, BULK_ROUNDS_PER_CHUNK);
    let bulk_mb_per_s = bytes as f64 / 1e6 / ctx.meter.stop(section).cal_s;

    // Wall-clock, not calibrated: the hold is a timer, not CPU work.
    let held = s.deferred(ctx, DEFERRED_ROUNDS_PER_CHUNK);
    let overshoot_us = held
        .iter()
        .map(|us| us - HOLD.as_secs_f64() * 1e6)
        .collect();

    ctx.tracer.close(span);
    Cycle {
        rtts_us,
        verbs_per_s,
        bulk_mb_per_s,
        overshoot_us,
    }
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut timings = Vec::new();
    // Before the daemon starts, so that its event loop inherits them.
    crate::sched::settle();

    // Set-up, repeated: start, connect, preload. Every daemon but the
    // last is stopped again (untimed); the timed phase uses the last.
    let seed = ctx.seed;
    let (setups, session) = repeat_setup(
        ctx,
        || Session::start(seed),
        |s| {
            if let Ok(s) = s {
                s.shutdown();
            }
        },
    );
    let setup_s = summarise(&mut timings, "setup_s", "cal_s", &setups);
    let mut s = session?;

    // Warm-up: one untimed cycle.
    cycle(ctx, &mut s);

    // Each cycle is tagged with the reference echo around it (see
    // `quiet`): only cycles measured in the host's undisturbed state
    // count.
    let mut echo = Echo::start().map_err(|e| format!("reference echo: {e}"))?;
    let mut cycles = Tagged::new();
    let deadline = ctx.deadline();
    let mut rep = 0u32;
    while rep < 2 || Instant::now() < deadline {
        rep += 1;
        ctx.tracer.set_rep(rep);
        echo.tag(&mut cycles, || cycle(ctx, &mut s))?;
    }
    s.check_counters(ctx);
    s.shutdown();

    let quiet = cycles.quiet();
    let of = |f: &dyn Fn(&Cycle) -> f64| quiet.iter().map(|c| f(c)).collect::<Vec<f64>>();
    let rtt_p50_us: Vec<f64> = quiet
        .iter()
        .filter_map(|c| stats::median(&c.rtts_us))
        .collect();
    let rtts_us: Vec<f64> = quiet
        .iter()
        .flat_map(|c| c.rtts_us.iter().copied())
        .collect();
    let overshoot_us: Vec<f64> = quiet
        .iter()
        .flat_map(|c| c.overshoot_us.iter().copied())
        .collect();
    summarise(
        &mut timings,
        format!("cycles measured in the quiet state, of {}", cycles.len()),
        "count",
        &[quiet.len() as f64],
    );
    let work_per_s = summarise(
        &mut timings,
        "work_per_s (pipelined small verbs per s)",
        "1/cal_s",
        &of(&|c| c.verbs_per_s),
    );
    let latency_us = summarise(
        &mut timings,
        "latency_us (ping-pong df RTT, median of chunk medians)",
        "cal_us",
        &rtt_p50_us,
    );
    summarise(
        &mut timings,
        "bulk payload",
        "MB/cal_s",
        &of(&|c| c.bulk_mb_per_s),
    );
    summarise(
        &mut timings,
        "submit latency beyond the 2 ms hold (wall clock)",
        "us",
        &overshoot_us,
    );
    Ok(Measured {
        work_per_s,
        latency_us,
        setup_s,
        timings,
        latency_samples_us: rtts_us,
    })
}
