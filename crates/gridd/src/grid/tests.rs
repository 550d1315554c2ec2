//! The daemon's physics on a virtual clock: call sequences with
//! explicit instants, no sockets, no threads, no sleeps.

use super::*;
use crate::tests::quick_config;
use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
use std::collections::HashSet;
use std::time::Duration;

fn ms(n: u64) -> Time {
    Time::from_micros(n * 1000)
}

/// A [`Grid`] on a virtual clock. The timers the core asks for
/// wait in `wakes` and fire, in the order of their instants (then
/// of asking), as the clock is moved past them; every reply and
/// close is logged with the instant it happened. As the reactor
/// does, the bench fires the plan's timer once, unasked, at start,
/// and holds a connection from an [`Effect::Hold`] until its
/// [`Effect::Release`], which must follow the held request's answer,
/// or from a stall's wake until it fires: no request may arrive on a
/// held connection.
struct Bench {
    grid: Grid,
    wakes: Vec<(Time, u64, TimerId)>,
    asked: u64,
    log: Vec<(Time, Effect)>,
    held: HashSet<ConnId>,
    /// Every reply, inline or later, as it came: when, to whom, and
    /// its error code (`None`: not an error).
    answers: Vec<Answer>,
}

/// One reply: when, to whom, and its error code (`None`: not an error).
type Answer = (Time, ConnId, Option<ErrCode>);

impl Bench {
    fn new(cfg: &GriddConfig) -> Bench {
        Bench {
            grid: Grid::new(cfg),
            wakes: vec![(Time::ZERO, 0, TimerId::Plan)],
            asked: 1,
            log: Vec::new(),
            held: HashSet::new(),
            answers: Vec::new(),
        }
    }

    /// File what the core answered at `now`; returns the replies and
    /// closes.
    fn absorb(&mut self, now: Time, effects: Vec<Effect>) -> Vec<Effect> {
        let mut rest = Vec::new();
        for e in effects {
            match e {
                Effect::Wake(at, id) => {
                    assert!(at >= now, "a timer in the past: {at:?} < {now:?}");
                    if let TimerId::Conn(conn) = id {
                        self.held.insert(conn);
                    }
                    self.wakes.push((at, self.asked, id));
                    self.asked += 1;
                }
                Effect::Hold(conn) => {
                    assert!(self.held.insert(conn), "{conn} held twice");
                }
                Effect::Release(conn) => {
                    assert!(self.held.remove(&conn), "{conn} released unheld");
                    let last = self.answers.last().map(|&(_, c, _)| c);
                    assert_eq!(last, Some(conn), "{conn} released before its answer");
                }
                Effect::Reply(conn, ref resp) => {
                    self.answers.push((now, conn, code(resp)));
                    rest.push(e);
                }
                Effect::Close(conn) => {
                    self.held.remove(&conn);
                    rest.push(e);
                }
            }
        }
        rest
    }

    /// Move the clock to `to`, firing every timer due on the way.
    fn advance(&mut self, to: Time) {
        loop {
            self.wakes.sort_by_key(|&(at, n, _)| (at, n));
            let Some(&(at, _, id)) = self.wakes.first().filter(|w| w.0 <= to) else {
                return;
            };
            self.wakes.remove(0);
            if let TimerId::Conn(conn) = id {
                self.held.remove(&conn);
            }
            let mut out = Vec::new();
            self.grid.on_timer(at, id, &mut out);
            for e in self.absorb(at, out) {
                self.log.push((at, e));
            }
        }
    }

    /// At `at`, `req` arrives on `conn`. Returns what the core
    /// answered on the spot (nothing: the connection is held).
    fn send(&mut self, at: Time, conn: ConnId, req: Request) -> Vec<Effect> {
        self.advance(at);
        assert!(!self.held.contains(&conn), "{conn} is held");
        let mut out = Vec::new();
        self.grid.on_request(at, conn, req, &mut out);
        self.absorb(at, out)
    }

    fn hangup(&mut self, at: Time, conn: ConnId) {
        self.advance(at);
        self.held.remove(&conn);
        let mut out = Vec::new();
        self.grid.on_hangup(at, conn, &mut out);
        for e in self.absorb(at, out) {
            self.log.push((at, e));
        }
    }

    /// When `conn`, having been held, was answered, and with what.
    fn answer(&self, conn: ConnId) -> Option<(Time, &Response)> {
        self.log.iter().find_map(|(at, e)| match e {
            Effect::Reply(c, resp) if *c == conn => Some((*at, resp)),
            _ => None,
        })
    }

    /// The free count a sense read (`df`, `stat`) gets at `at`.
    fn sense(&mut self, at: Time, req: Request) -> u64 {
        match self.send(at, 99, req).as_slice() {
            [Effect::Reply(99, Response::Free { slots })] => *slots,
            other => panic!("a sense read answers inline, got {other:?}"),
        }
    }

    fn df(&mut self, at: Time) -> u64 {
        self.sense(at, Request::Df { client: 0 })
    }

    fn stat(&mut self, at: Time, name: &str) -> u64 {
        let name = name.into();
        self.sense(at, Request::Stat { client: 0, name })
    }

    fn row(&self, client: u32) -> ClientSnapshot {
        let (rows, _) = self.grid.snapshot();
        rows.into_iter()
            .find(|r| r.client == client)
            .unwrap_or_default()
    }
}

fn submit(client: u32, job: &str) -> Request {
    Request::Submit {
        client,
        job: job.into(),
    }
}

fn put(client: u32, name: &str, data: &[u8]) -> Request {
    Request::Put {
        client,
        name: name.into(),
        data: data.to_vec(),
    }
}

fn get(client: u32, name: &str) -> Request {
    Request::Get {
        client,
        name: name.into(),
    }
}

fn code(resp: &Response) -> Option<ErrCode> {
    match resp {
        Response::Err { code, .. } => Some(*code),
        _ => None,
    }
}

/// The one error an inline refusal carries.
fn refused(effects: &[Effect], conn: ConnId) -> ErrCode {
    match effects {
        [Effect::Reply(c, resp)] if *c == conn => code(resp).expect("an error reply"),
        other => panic!("expected one error reply, got {other:?}"),
    }
}

fn kill(at: Time, downtime_ms: u64) -> FaultSpec {
    FaultSpec::once(
        at,
        FaultKind::ScheddKill {
            downtime: Some(Dur::from_millis(downtime_ms)),
        },
    )
}

fn restart(at: Time) -> FaultSpec {
    FaultSpec::once(at, FaultKind::ScheddRestart)
}

fn hole(at: Time, enable: bool) -> FaultSpec {
    let server = "yyy".into();
    FaultSpec::once(at, FaultKind::ServerBlackHole { server, enable })
}

/// A latency spike on `submit` over `[0, 1 s)`, of `extra_ms`.
fn submit_spike(extra_ms: u64) -> FaultSpec {
    FaultSpec::once(
        Time::ZERO,
        FaultKind::LatencySpike {
            channel: "submit".into(),
            extra: Dur::from_millis(extra_ms),
            duration: Dur::from_secs(1),
        },
    )
}

#[test]
fn free_operations_on_an_idle_server_answer_inline() {
    // The default file server costs nothing: no timer, no hold.
    let mut b = Bench::new(&quick_config());
    let stored = b.send(ms(1), 1, put(0, "f", b"payload"));
    assert_eq!(
        stored,
        [Effect::Reply(
            1,
            Response::Ok {
                info: "7 bytes".into()
            }
        )]
    );
    let data = b"payload".to_vec();
    assert_eq!(
        b.send(ms(1), 1, get(0, "f")),
        [Effect::Reply(1, Response::Data { data })]
    );
    assert_eq!(
        refused(&b.send(ms(1), 1, get(0, "g")), 1),
        ErrCode::NotFound
    );
    assert!(b.wakes.is_empty(), "nothing was deferred");
    let me = b.row(0);
    assert_eq!((me.put_ok, me.get_ok, me.get_err), (1, 1, 1));
}

#[test]
fn stat_senses_free_while_misses_queue() {
    // A nonzero miss cost makes blind gets hold the file server;
    // stat reads the key space regardless.
    let mut cfg = quick_config();
    cfg.file_service = Duration::from_millis(5);
    cfg.file_miss_service = Duration::from_millis(120);
    let mut b = Bench::new(&cfg);

    assert_eq!(b.stat(ms(0), "partial"), 0);
    assert!(b.send(ms(0), 1, get(0, "partial")).is_empty(), "held");
    b.advance(ms(119));
    assert_eq!(b.answer(1), None);
    b.advance(ms(120));
    let (at, resp) = b.answer(1).expect("the miss is served");
    assert_eq!((at, code(resp)), (ms(120), Some(ErrCode::NotFound)));

    // A put queued behind two misses waits for the FIFO to drain —
    // and until it is served, the key is not there to be sensed.
    assert!(b.send(ms(200), 2, get(1, "partial")).is_empty());
    assert!(b.send(ms(210), 3, get(2, "partial")).is_empty());
    assert!(b.send(ms(230), 4, put(0, "partial", b"v")).is_empty());
    assert_eq!(b.stat(ms(231), "partial"), 0, "queued is not stored");
    assert_eq!(b.stat(ms(444), "partial"), 0, "nor is in service");
    assert_eq!(b.answer(2).map(|a| a.0), Some(ms(320)));
    assert_eq!(b.answer(3).map(|a| a.0), Some(ms(440)));
    assert_eq!(b.answer(4), None);
    assert_eq!(b.stat(ms(445), "partial"), 1, "200 + 2 x 120 + 5 ms");
    let stored = Response::Ok {
        info: "1 bytes".into(),
    };
    assert_eq!(b.answer(4), Some((ms(445), &stored)));

    assert!(b.send(ms(446), 5, get(0, "partial")).is_empty());
    b.advance(ms(451));
    let hit = Response::Data {
        data: b"v".to_vec(),
    };
    assert_eq!(b.answer(5), Some((ms(451), &hit)), "a hit costs 5 ms");
    assert_eq!(b.row(0).df_calls, 4, "stat counts as a carrier-sense read");
    assert_eq!(b.row(1).get_err + b.row(2).get_err, 2);
}

#[test]
fn a_hangup_mid_queue_frees_the_file_server() {
    let mut cfg = quick_config();
    cfg.file_miss_service = Duration::from_millis(120);
    let mut b = Bench::new(&cfg);
    assert!(b.send(ms(0), 1, get(1, "x")).is_empty());
    assert!(b.send(ms(10), 2, get(2, "y")).is_empty());
    assert!(b.send(ms(20), 3, get(3, "z")).is_empty());
    // The peer being served gives up: the next job starts at once
    // instead of waiting out a scan nobody wants.
    b.hangup(ms(30), 1);
    // One leaving the queue changes nothing for the others.
    b.hangup(ms(40), 3);
    b.advance(ms(1000));
    assert_eq!(b.answer(2).map(|a| a.0), Some(ms(150)), "30 + 120 ms");
    assert_eq!(b.answer(1), None);
    assert_eq!(b.answer(3), None);
    assert_eq!(b.row(1).get_err, 0, "an abandoned get is never judged");
    assert!(
        b.wakes.is_empty(),
        "the aborted service's timer was ignored"
    );
    // The server is idle again: a free put answers inline.
    assert_eq!(b.send(ms(1000), 4, put(0, "x", b"1")).len(), 1);
}

#[test]
fn one_connection_may_queue_several_file_operations() {
    // A rank's `forall` of fetches travels pipelined on one
    // connection: all of them wait at the file server at once, as
    // a simulated client's parallel commands do.
    let mut cfg = quick_config();
    cfg.file_miss_service = Duration::from_millis(120);
    let mut b = Bench::new(&cfg);
    for name in ["a", "b", "c"] {
        assert!(b.send(ms(0), 1, get(1, name)).is_empty());
    }
    assert!(b.send(ms(5), 2, get(2, "d")).is_empty());
    // Sensing is free, even from a connection with fetches queued.
    assert_eq!(b.send(ms(10), 1, Request::Df { client: 1 }).len(), 1);
    b.advance(ms(240));
    let answered: Vec<_> = b.log.iter().map(|(at, _)| *at).collect();
    assert_eq!(answered, [ms(120), ms(240)], "one at a time, in order");
    // The peer goes, and its third fetch — in service since 240 ms
    // — with it: the next in line starts at once.
    b.hangup(ms(250), 1);
    b.advance(ms(1000));
    assert_eq!(b.answer(2).map(|a| a.0), Some(ms(370)), "250 + 120 ms");
    assert_eq!((b.row(1).get_err, b.log.len()), (2, 3));
}

#[test]
fn a_full_disk_refuses_puts_but_not_overwrites_that_fit() {
    let mut cfg = quick_config();
    cfg.disk_bytes = 10;
    let mut b = Bench::new(&cfg);
    assert_eq!(b.send(ms(0), 1, put(0, "a", &[0; 8])).len(), 1);
    let full = b.send(ms(0), 1, put(0, "b", &[0; 8]));
    assert_eq!(refused(&full, 1), ErrCode::Enospc);
    let fits = b.send(ms(0), 1, put(0, "a", &[0; 10]));
    assert_eq!(
        fits,
        [Effect::Reply(
            1,
            Response::Ok {
                info: "10 bytes".into()
            }
        )]
    );
    let me = b.row(0);
    assert_eq!((me.put_ok, me.put_err), (2, 1));
}

/// A bare [`simgrid::Schedd`] under the daemon's constants
/// (`schedd_params`), driven as the daemon drives its own: each
/// submit launches an attempt, and its wakes fire in the order of
/// their instants (then of asking).
struct Bare {
    schedd: Schedd<ConnId>,
    filed: Filed,
}

/// What a bare schedd answered.
#[derive(Default)]
struct Filed {
    wakes: Vec<(Time, u64, ScheddTimer)>,
    asked: u64,
    answers: Vec<Answer>,
    crashes: Vec<Time>,
}

impl Filed {
    /// File what the schedd answered at `now` as the bench files the
    /// daemon's replies: a served job is not an error, a failed one is
    /// `down`.
    fn file(&mut self, now: Time, fx: ScheddEffect<ConnId>) {
        match fx {
            ScheddEffect::Wake(at, timer) => {
                self.wakes.push((at, self.asked, timer));
                self.asked += 1;
            }
            ScheddEffect::Served { job, .. } => self.answers.push((now, job, None)),
            ScheddEffect::Failed(job) => self.answers.push((now, job, Some(ErrCode::Down))),
            ScheddEffect::Refused(_) => unreachable!("the daemon's attempts have no startup"),
            ScheddEffect::Crashed => self.crashes.push(now),
        }
    }
}

impl Bare {
    fn new(cfg: &GriddConfig) -> Bare {
        Bare {
            schedd: Schedd::new(schedd_params(cfg), 0),
            filed: Filed::default(),
        }
    }

    fn advance(&mut self, to: Time) {
        loop {
            let wakes = &mut self.filed.wakes;
            wakes.sort_by_key(|&(at, n, _)| (at, n));
            let Some(&(at, _, timer)) = wakes.first().filter(|w| w.0 <= to) else {
                return;
            };
            wakes.remove(0);
            let filed = &mut self.filed;
            self.schedd
                .on_timer(at, timer, &mut |fx| filed.file(at, fx));
        }
    }

    fn submit(&mut self, at: Time, conn: ConnId) {
        self.advance(at);
        let filed = &mut self.filed;
        let code = match self.schedd.launch(at, conn, &mut |fx| filed.file(at, fx)) {
            Ok(()) => return,
            Err(Refusal::Full) => ErrCode::Busy,
            Err(Refusal::Down) => ErrCode::Down,
        };
        self.filed.answers.push((at, conn, Some(code)));
    }
}

/// Item 10(d)'s differential, fig2's crash knee on virtual time. A
/// blind burst fills the three-descriptor table while the schedd pauses
/// between two services (30 ms service, a 5 ms gap): the next service
/// cannot get its descriptor, and the schedd crashes at the gap's end.
/// Every connected submission is lost at that instant — the promoted
/// head, then the queue in arrival order — and the table is whole
/// again, so `df` reads it free while the schedd is down. A bare
/// `simgrid::Schedd` under the same constants, given the same calls,
/// answers the same, at the same instants.
#[test]
fn a_blind_burst_across_a_gap_starves_the_schedd_as_the_simulators_does() {
    let mut cfg = quick_config();
    cfg.slots = 3;
    let burst: [(u64, ConnId); 6] = [(0, 1), (10, 2), (10, 3), (31, 4), (32, 5), (33, 6)];
    let later: [(u64, ConnId); 2] = [(100, 7), (335, 8)];
    let mut b = Bench::new(&cfg);
    let mut bare = Bare::new(&cfg);
    for &(at, conn) in &burst {
        b.send(ms(at), conn, submit(conn as u32, &format!("j{conn}")));
        bare.submit(ms(at), conn);
    }
    // Job 1 was served at 30 ms; jobs 2, 4 and 5 fill the table.
    assert_eq!(b.df(ms(34)), 0);
    assert_eq!(b.grid.snapshot().1, 0);
    b.advance(ms(35));
    assert_eq!(b.grid.snapshot().1, 1, "the starvation crash, at 35 ms");
    assert_eq!(b.df(ms(36)), 3, "the crash gave every descriptor back");
    for &(at, conn) in &later {
        b.send(ms(at), conn, submit(conn as u32, &format!("j{conn}")));
        bare.submit(ms(at), conn);
    }
    assert_eq!(b.df(ms(340)), 1, "job 8 is in service");
    b.advance(ms(1000));
    bare.advance(ms(1000));

    let (busy, down) = (Some(ErrCode::Busy), Some(ErrCode::Down));
    let expected = [
        (ms(10), 3, busy),  // the table is full
        (ms(30), 1, None),  // served
        (ms(33), 6, busy),  // full again, in the gap
        (ms(35), 2, down),  // the promoted head...
        (ms(35), 4, down),  // ...then the queue, in arrival order
        (ms(35), 5, down),  //
        (ms(100), 7, down), // still down
        (ms(365), 8, None), // up at 335 ms, served 30 ms later
    ];
    // The bench's own `df` reads answer on connection 99.
    let submits: Vec<Answer> = b.answers.iter().filter(|a| a.1 != 99).copied().collect();
    assert_eq!(submits, expected);
    assert_eq!(
        bare.filed.answers, submits,
        "the daemon is the simulator's schedd"
    );
    assert_eq!(bare.filed.crashes, [ms(35)]);
    let lost: Vec<u64> = [2, 4, 5].map(|c| b.row(c).submit_lost).to_vec();
    assert_eq!(lost, [1, 1, 1]);
    let done = Response::Ok {
        info: "j8@5".into(),
    };
    assert_eq!(
        b.answer(8),
        Some((ms(365), &done)),
        "jobs 1, 2, 4, 5 came first"
    );
}

#[test]
fn fault_plan_drives_enospc_and_lies() {
    let mut cfg = quick_config();
    cfg.plan = FaultPlan::new(11)
        .with(FaultSpec::once(
            Time::ZERO,
            FaultKind::EnospcWindow {
                duration: Dur::from_secs(3600),
            },
        ))
        .with(FaultSpec::once(
            Time::ZERO,
            FaultKind::FreeSpaceLie {
                delta_bytes: 40,
                duration: Dur::from_secs(3600),
            },
        ));
    let mut b = Bench::new(&cfg);
    let windowed = b.send(ms(1), 1, put(3, "x", b"data"));
    assert_eq!(refused(&windowed, 1), ErrCode::Enospc);
    assert_eq!(b.row(3).put_err, 1);
    // 2 real free descriptors + a 40-descriptor lie.
    assert_eq!(b.df(ms(1)), 42);
}

#[test]
fn forced_schedd_kill_window_rejects_submits() {
    let mut cfg = quick_config();
    cfg.plan = FaultPlan::new(5).with(kill(Time::ZERO, 3_600_000));
    let mut b = Bench::new(&cfg);
    assert_eq!(refused(&b.send(ms(1), 1, submit(0, "j")), 1), ErrCode::Down);
    // `df` reads the descriptor table, which does not know the schedd
    // is down: the refused attempt gave its descriptor back.
    assert_eq!(b.df(ms(1)), 2);
    // The file server is a different service: still up.
    let stored = Response::Ok {
        info: "2 bytes".into(),
    };
    assert_eq!(
        b.send(ms(2), 1, put(0, "f", b"ok")),
        [Effect::Reply(1, stored)]
    );
}

/// A forced `schedd-kill` landing mid-service loses the job in service
/// (`submit_lost`) at the kill's instant, not when its service would
/// have ended, and gives its descriptors back; the schedd refuses
/// submits until the downtime is over.
#[test]
fn a_forced_kill_loses_the_job_in_service_at_once() {
    let mut cfg = quick_config();
    cfg.service = Duration::from_millis(500);
    // Down over [150 ms, 450 ms), while the victim is in service.
    cfg.plan = FaultPlan::new(7).with(kill(ms(150), 300));
    let mut b = Bench::new(&cfg);
    assert!(b.send(ms(0), 1, submit(1, "victim")).is_empty());
    assert_eq!(b.df(ms(149)), 0, "its attempt and its service");
    assert_eq!(b.df(ms(150)), 2, "both given back by the crash");
    match b.answer(1) {
        Some((at, Response::Err { code, msg })) => {
            assert_eq!((at, *code), (ms(150), ErrCode::Down));
            assert!(msg.contains("lost"), "want a lost-job message, got {msg}");
        }
        other => panic!("victim must lose its job, got {other:?}"),
    }
    let rejected = b.send(ms(250), 2, submit(0, "rejected"));
    assert_eq!(refused(&rejected, 2), ErrCode::Down);
    assert_eq!(
        refused(&b.send(ms(449), 2, submit(0, "early")), 2),
        ErrCode::Down
    );
    assert!(
        b.send(ms(450), 2, submit(0, "after")).is_empty(),
        "up again"
    );
    b.advance(ms(2000));
    let (_, crashes) = b.grid.snapshot();
    assert_eq!(crashes, 1, "the forced kill counts as one crash");
    let victim = b.row(1);
    assert_eq!((victim.submit_lost, victim.submit_ok), (1, 0), "{victim:?}");
    let me = b.row(0);
    assert_eq!((me.submit_down, me.submit_ok), (2, 1), "{me:?}");
}

/// A submit stalled by a latency spike *across the end* of a kill's
/// downtime is judged by the schedd that serves it — up again — and is
/// admitted once, into a table the schedd's own service shares.
#[test]
fn a_submit_stalled_across_a_kills_downtime_is_admitted_once() {
    let mut cfg = quick_config();
    cfg.slots = 3;
    cfg.service = Duration::from_secs(1);
    cfg.plan = FaultPlan::new(7)
        .with(kill(ms(100), 100))
        .with(FaultSpec::once(
            ms(100),
            FaultKind::LatencySpike {
                channel: "submit".into(),
                extra: Dur::from_millis(150),
                duration: Dur::from_millis(100),
            },
        ));
    let mut b = Bench::new(&cfg);
    // Arrives while the schedd is down, inside the spike: held until
    // 150 + 150 ms, when the schedd is up again.
    assert!(b.send(ms(150), 1, submit(1, "stalled")).is_empty());
    // The outage is over; a long job is served at once.
    assert!(b.send(ms(210), 2, submit(2, "long")).is_empty());
    assert_eq!(b.df(ms(250)), 1);
    b.advance(ms(300));
    assert_eq!(b.answer(1), None, "admitted at 300 ms, and queued");
    assert_eq!(b.df(ms(310)), 0, "two attempts and one service");
    let third = b.send(ms(330), 4, submit(4, "third"));
    assert_eq!(refused(&third, 4), ErrCode::Busy, "the table is full");
    b.advance(ms(3000));
    assert_eq!(b.row(1).submit_ok + b.row(2).submit_ok, 2);
    assert_eq!(b.df(ms(3000)), 3);
    assert_eq!(b.grid.snapshot().1, 1);
}

/// A peer that hangs up takes its submission out of the schedd, as a
/// cancelled simulated client leaves it: its descriptors come back at
/// once, it is never accounted, and the schedd pauses its gap before
/// the next job.
#[test]
fn a_hangup_takes_its_submission_out_of_the_schedd() {
    let mut b = Bench::new(&quick_config());
    assert!(b.send(ms(0), 1, submit(1, "j")).is_empty());
    assert_eq!(b.df(ms(4)), 0);
    b.hangup(ms(5), 1);
    assert_eq!(b.df(ms(5)), 2, "attempt and service given back");
    assert!(b.send(ms(6), 2, submit(2, "next")).is_empty());
    b.advance(ms(100));
    assert_eq!(b.answer(1), None);
    let done = Response::Ok {
        info: "next@2".into(),
    };
    assert_eq!(b.answer(2), Some((ms(40), &done)), "after the 5 ms gap");
    assert_eq!((b.row(1).submit_ok, b.row(1).submit_lost), (0, 0));
}

/// A black hole is the file server's own kind. While it lasts, a
/// `put` or `get` waits in the FIFO unanswered — the operation in
/// service when it opened goes back to the head — and one whose peer
/// hangs up leaves the line. When it closes, the rest are served in
/// arrival order.
#[test]
fn a_black_hole_holds_file_requests_until_it_closes() {
    let mut cfg = quick_config();
    cfg.file_service = Duration::from_millis(10);
    cfg.file_miss_service = Duration::from_millis(10);
    cfg.plan = FaultPlan::new(1)
        .with(hole(ms(100), true))
        .with(hole(ms(1000), false));
    let mut b = Bench::new(&cfg);
    assert!(b.send(ms(95), 1, put(1, "a", b"1")).is_empty());
    assert!(b.send(ms(200), 2, get(2, "a")).is_empty());
    assert!(b.send(ms(300), 3, put(3, "b", b"3")).is_empty());
    assert!(b.send(ms(400), 4, get(4, "b")).is_empty());
    b.hangup(ms(500), 3);
    // The schedd is a different service, and sensing stays free.
    assert_eq!(b.df(ms(600)), 2);
    assert_eq!(b.stat(ms(600), "a"), 0, "nothing lands in a hole");
    b.advance(ms(999));
    assert!(b.log.is_empty(), "no reply while the hole lasts");
    b.advance(ms(2000));
    let replies: Vec<_> = b.log.iter().map(|(at, e)| (*at, e)).collect();
    let ok = Response::Ok {
        info: "1 bytes".into(),
    };
    let hit = Response::Data {
        data: b"1".to_vec(),
    };
    assert_eq!(
        replies[..2],
        [
            (ms(1010), &Effect::Reply(1, ok)),
            (ms(1020), &Effect::Reply(2, hit)),
        ]
    );
    let (at, resp) = b.answer(4).expect("served last");
    assert_eq!((at, code(resp)), (ms(1030), Some(ErrCode::NotFound)));
    assert_eq!(b.log.len(), 3, "3's put left with its peer");
}

/// The simulator's kill rule: a kill that finds the schedd down, from
/// a starvation crash or an earlier kill, does nothing — no crash
/// counted, and the outage it found ends when it would have.
#[test]
fn a_kill_while_down_does_nothing() {
    let mut cfg = quick_config();
    cfg.service = Duration::from_millis(600); // a 100 ms gap
    cfg.plan = FaultPlan::new(1)
        .with(kill(ms(800), 1000))
        .with(kill(ms(1010), 100))
        .with(kill(ms(1050), 1000));
    let mut b = Bench::new(&cfg);
    assert!(b.send(ms(0), 1, submit(1, "a")).is_empty());
    // Two blind submits fill the table in the gap after job 1: the
    // schedd starves at 700 ms and is down over [700, 1000) ms.
    assert!(b.send(ms(610), 2, submit(2, "b")).is_empty());
    assert!(b.send(ms(620), 3, submit(3, "c")).is_empty());
    b.advance(ms(700));
    assert_eq!(b.grid.snapshot().1, 1);
    let down = b.send(ms(999), 4, submit(4, "d"));
    assert_eq!(refused(&down, 4), ErrCode::Down);
    assert_eq!(b.grid.snapshot().1, 1, "the kill at 800 ms found it down");
    assert!(b.send(ms(1000), 4, submit(4, "e")).is_empty(), "up again");
    // The kill at 1010 ms hits, and loses job "e"; the one at 1050 ms
    // finds the schedd down.
    let down = b.send(ms(1109), 5, submit(5, "f"));
    assert_eq!(refused(&down, 5), ErrCode::Down);
    assert_eq!(b.grid.snapshot().1, 2);
    assert!(
        b.send(ms(1110), 5, submit(5, "g")).is_empty(),
        "the 100 ms kill's only"
    );
    assert_eq!(b.grid.snapshot().1, 2);
    let lost: Vec<u64> = [1, 2, 3, 4].map(|c| b.row(c).submit_lost).to_vec();
    assert_eq!(lost, [0, 1, 1, 1], "job 1 was served first");
}

/// A trigger applies before any event at its instant, the schedd's
/// own restart wake included: a kill at the very instant a downtime
/// ends finds the schedd down, and the downtime ends as it would have.
#[test]
fn a_kill_at_the_instant_a_downtime_ends_finds_the_schedd_down() {
    let mut cfg = quick_config();
    cfg.plan = FaultPlan::new(1)
        .with(kill(ms(100), 100))
        .with(kill(ms(200), 1000));
    let mut b = Bench::new(&cfg);
    assert_eq!(
        refused(&b.send(ms(199), 1, submit(1, "a")), 1),
        ErrCode::Down
    );
    assert!(
        b.send(ms(200), 1, submit(1, "b")).is_empty(),
        "up at 200 ms"
    );
    assert_eq!(b.grid.snapshot().1, 1);
}

/// A restart brings the schedd up at once, whatever took it down, and
/// the wake that was to end a downtime a restart cut short does not end
/// a later one.
#[test]
fn a_restart_ends_any_downtime_and_no_stale_wake_ends_a_later_one() {
    let mut cfg = quick_config();
    cfg.downtime = Duration::from_secs(10);
    cfg.plan = FaultPlan::new(1)
        .with(restart(ms(100)))
        .with(kill(ms(200), 10_000))
        .with(restart(ms(300)))
        .with(FaultSpec::once(
            ms(400),
            FaultKind::ScheddKill { downtime: None },
        ));
    let mut b = Bench::new(&cfg);
    assert!(
        b.send(ms(100), 1, submit(1, "a")).is_empty(),
        "a restart while up"
    );
    b.advance(ms(200));
    assert_eq!(
        b.answer(1).map(|(at, r)| (at, code(r))),
        Some((ms(130), None))
    );
    assert_eq!(
        refused(&b.send(ms(299), 2, submit(2, "b")), 2),
        ErrCode::Down
    );
    assert!(
        b.send(ms(300), 2, submit(2, "c")).is_empty(),
        "ten seconds cut short"
    );
    // Killed again at 400 ms, for the daemon's ten seconds: the first
    // kill's wake at 10.2 s finds the schedd down for another 0.2 s.
    b.advance(ms(10_200));
    assert_eq!(
        refused(&b.send(ms(10_300), 3, submit(3, "d")), 3),
        ErrCode::Down
    );
    assert!(b.send(ms(10_400), 3, submit(3, "e")).is_empty());
    assert_eq!(b.grid.snapshot().1, 2);
}

/// A submit stalled by a latency spike is judged by the schedd's state
/// when it is served, not when it arrived: one that arrived while the
/// schedd ran is refused by the kill that came before its service.
#[test]
fn a_stalled_submit_is_judged_by_the_schedd_that_serves_it() {
    let mut cfg = quick_config();
    cfg.plan = FaultPlan::new(1)
        .with(kill(ms(100), 100))
        .with(submit_spike(150));
    let mut b = Bench::new(&cfg);
    assert!(b.send(ms(0), 1, submit(1, "up")).is_empty());
    assert!(b.send(ms(150), 2, submit(2, "down")).is_empty());
    b.advance(ms(1000));
    let (at, resp) = b.answer(1).expect("served at 150 ms");
    assert_eq!((at, code(resp)), (ms(150), Some(ErrCode::Down)));
    let done = Response::Ok {
        info: "down@1".into(),
    };
    assert_eq!(b.answer(2), Some((ms(330), &done)), "served at 300 ms");
    assert_eq!(b.row(1).submit_down, 1);
}

/// However late the plan's timer fires, no input overtakes a trigger
/// due by its instant: the core applies the trigger first. Here the
/// plan's timer never fires at all.
#[test]
fn a_trigger_due_by_an_inputs_instant_applies_before_it() {
    let mut cfg = quick_config();
    cfg.file_service = Duration::from_millis(50);
    cfg.plan = FaultPlan::new(1)
        .with(kill(ms(100), 1000))
        .with(hole(ms(200), true));
    let mut grid = Grid::new(&cfg);
    let mut out = Vec::new();
    grid.on_request(ms(99), 1, submit(1, "a"), &mut out);
    let done = TimerId::Schedd(ScheddTimer::ServiceDone(1));
    assert_eq!(out, [Effect::Hold(1), Effect::Wake(ms(129), done)]);
    out.clear();
    // The kill at 100 ms comes first: it loses job "a", then "b" finds
    // the schedd down.
    grid.on_request(ms(100), 2, submit(2, "b"), &mut out);
    let restart = TimerId::Schedd(ScheddTimer::Restart);
    let lost = err(ErrCode::Down, "job lost in schedd crash");
    let down = err(ErrCode::Down, "schedd is down");
    assert_eq!(
        out,
        [
            Effect::Reply(1, lost),
            Effect::Release(1),
            Effect::Wake(ms(1100), restart),
            Effect::Reply(2, down)
        ]
    );
    out.clear();
    grid.on_request(ms(150), 3, put(3, "f", b"x"), &mut out);
    assert_eq!(out, [Effect::Wake(ms(200), TimerId::Store(1))]);
    out.clear();
    // The hole opens at 200 ms, before the put's service ends there.
    grid.on_timer(ms(200), TimerId::Store(1), &mut out);
    assert!(out.is_empty(), "{out:?}");
    assert_eq!(grid.snapshot().1, 1);
}

#[test]
fn loss_and_latency_hit_only_the_verb_they_name() {
    let mut cfg = quick_config();
    cfg.plan = FaultPlan::new(3)
        .with(FaultSpec::once(
            Time::ZERO,
            FaultKind::MsgLoss {
                channel: "get".into(),
                probability: 1.0,
                duration: Dur::from_secs(1),
            },
        ))
        .with(FaultSpec::once(
            Time::ZERO,
            FaultKind::LatencySpike {
                channel: "df".into(),
                extra: Dur::from_millis(40),
                duration: Dur::from_secs(1),
            },
        ));
    let mut b = Bench::new(&cfg);
    assert_eq!(b.send(ms(10), 1, put(7, "f", b"x")).len(), 1, "untouched");
    assert_eq!(b.send(ms(10), 1, get(7, "f")), [Effect::Close(1)]);
    assert_eq!(b.row(7).resets, 1);
    // The spiked verb is held, then served as of its arrival.
    assert!(b.send(ms(990), 2, Request::Df { client: 7 }).is_empty());
    b.advance(ms(1030));
    let free = Response::Free { slots: 2 };
    assert_eq!(b.answer(2), Some((ms(1030), &free)));
    // Past both windows.
    assert_eq!(b.send(ms(1040), 1, get(7, "f")).len(), 1);
    assert_eq!(b.df(ms(1040)), 2);
}
