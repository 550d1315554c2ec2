//! The daemon's physics on a virtual clock: call sequences with
//! explicit instants, no sockets, no threads, no sleeps.

use super::*;
use crate::tests::quick_config;
use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
use std::time::Duration;

fn ms(n: u64) -> Time {
    Time::from_micros(n * 1000)
}

/// A [`Grid`] on a virtual clock. The timers the core asks for
/// wait in `wakes` and fire, in the order of their instants (then
/// of asking), as the clock is moved past them; every reply and
/// close is logged with the instant it happened. As the reactor
/// does, the bench fires the plan's timer once, unasked, at start.
struct Bench {
    grid: Grid,
    wakes: Vec<(Time, u64, TimerId)>,
    asked: u64,
    log: Vec<(Time, Effect)>,
}

impl Bench {
    fn new(cfg: &GriddConfig) -> Bench {
        Bench {
            grid: Grid::new(cfg),
            wakes: vec![(Time::ZERO, 0, TimerId::Plan)],
            asked: 1,
            log: Vec::new(),
        }
    }

    /// File what the core answered at `now`; returns the part that
    /// is not timers.
    fn absorb(&mut self, now: Time, effects: Vec<Effect>) -> Vec<Effect> {
        let mut rest = Vec::new();
        for e in effects {
            if let Effect::Wake(at, id) = e {
                assert!(at >= now, "a timer in the past: {at:?} < {now:?}");
                self.wakes.push((at, self.asked, id));
                self.asked += 1;
            } else {
                rest.push(e);
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
        let mut out = Vec::new();
        self.grid.on_request(at, conn, req, &mut out);
        self.absorb(at, out)
    }

    fn hangup(&mut self, at: Time, conn: ConnId) {
        self.advance(at);
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

#[test]
fn overload_crashes_the_schedd_and_df_sees_it() {
    let mut cfg = quick_config();
    cfg.slots = 1;
    cfg.service = Duration::from_millis(500);
    cfg.crash_overloads = 2;
    let mut b = Bench::new(&cfg);
    // Occupy the only slot.
    assert!(b.send(ms(0), 1, submit(1, "hog")).is_empty());
    // First overloaded submit: busy. Second: crash.
    assert_eq!(
        refused(&b.send(ms(100), 2, submit(0, "j1")), 2),
        ErrCode::Busy
    );
    assert_eq!(
        refused(&b.send(ms(100), 2, submit(0, "j2")), 2),
        ErrCode::Down
    );
    // Carrier sense reads zero while the schedd is down.
    assert_eq!(b.df(ms(101)), 0);
    assert_eq!(b.df(ms(399)), 0);
    // After downtime the schedd is back with a full pool: the
    // crash freed the hog's slot along with the hog.
    assert_eq!(b.df(ms(400)), 1, "crashed at 100 ms, down for 300");
    assert!(b.send(ms(400), 2, submit(0, "j3")).is_empty());
    // The in-flight job was lost in the crash.
    b.advance(ms(900));
    let (at, resp) = b.answer(1).expect("the hog hears back");
    assert_eq!((at, code(resp)), (ms(500), Some(ErrCode::Down)));
    let done = Response::Ok {
        info: "j3@2".into(),
    };
    assert_eq!(b.answer(2), Some((ms(900), &done)));
    assert_eq!(b.grid.snapshot().1, 1);
    assert_eq!(b.row(1).submit_lost, 1);
    let me = b.row(0);
    assert_eq!((me.submit_busy, me.submit_down, me.submit_ok), (1, 1, 1));
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
    // 2 real free slots + a 40-slot lie.
    assert_eq!(b.df(ms(1)), 42);
}

#[test]
fn forced_schedd_kill_window_rejects_submits() {
    let mut cfg = quick_config();
    cfg.plan = FaultPlan::new(5).with(kill(Time::ZERO, 3_600_000));
    let mut b = Bench::new(&cfg);
    assert_eq!(refused(&b.send(ms(1), 1, submit(0, "j")), 1), ErrCode::Down);
    assert_eq!(b.df(ms(1)), 0);
    // The file server is a different service: still up.
    let stored = Response::Ok {
        info: "2 bytes".into(),
    };
    assert_eq!(
        b.send(ms(2), 1, put(0, "f", b"ok")),
        [Effect::Reply(1, stored)]
    );
}

/// A forced `schedd-kill` window opening mid-service must lose the
/// in-service job (`submit_lost`), not complete it as `submit_ok`;
/// and the window closing must hand back a *full* slot pool with
/// the overload streak cleared.
#[test]
fn forced_kill_loses_in_service_job_and_refills_slot_pool() {
    let mut cfg = quick_config();
    cfg.service = Duration::from_millis(500);
    // Kill window [150 ms, 450 ms): opens while the victim job is
    // in service, closes before its service time is up.
    cfg.plan = FaultPlan::new(7).with(kill(ms(150), 300));
    let mut b = Bench::new(&cfg);
    assert!(b.send(ms(0), 1, submit(1, "victim")).is_empty());
    assert_eq!(b.df(ms(149)), 1);
    assert_eq!(b.df(ms(150)), 0, "window must read as down");
    assert_eq!(
        refused(&b.send(ms(250), 2, submit(0, "rejected")), 2),
        ErrCode::Down
    );
    assert_eq!(b.df(ms(449)), 0);
    // The window has exited: the pool is back to full strength,
    // including the slot the lost job was holding.
    assert_eq!(b.df(ms(450)), 2, "slot pool must refill after the window");
    // The victim was mid-service when the window opened: its
    // completion lands in a later crash epoch and is lost.
    b.advance(ms(500));
    match b.answer(1) {
        Some((at, Response::Err { code, msg })) => {
            assert_eq!((at, *code), (ms(500), ErrCode::Down));
            assert!(msg.contains("lost"), "want a lost-job message, got {msg}");
        }
        other => panic!("victim must lose its job, got {other:?}"),
    }
    assert_eq!(b.df(ms(500)), 2, "and the lost job returns no second slot");
    let (_, crashes) = b.grid.snapshot();
    assert_eq!(crashes, 1, "the forced window counts as one crash");
    let victim = b.row(1);
    assert_eq!((victim.submit_lost, victim.submit_ok), (1, 0), "{victim:?}");
}

/// Regression: a submit stalled by a latency spike *across the end*
/// of a kill's downtime is judged by the schedd that serves it — up
/// again — and the restart that ended the downtime happened once.
/// Judging the schedd by arrival instants re-opened the outage, and
/// the next request "closed" it again: a second refill with a job in
/// service.
#[test]
fn a_submit_stalled_across_a_kill_windows_end_does_not_refill_the_pool_twice() {
    let mut cfg = quick_config();
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
    // The outage is over; a long job takes one of two slots.
    assert!(b.send(ms(210), 2, submit(2, "long")).is_empty());
    assert_eq!(b.df(ms(250)), 1);
    b.advance(ms(300));
    assert_eq!(b.answer(1), None, "served at 300 ms, and in service");
    assert_eq!(b.df(ms(310)), 0, "two jobs in service");
    let third = b.send(ms(330), 4, submit(4, "third"));
    assert_eq!(refused(&third, 4), ErrCode::Busy, "never more than `slots`");
    b.advance(ms(2000));
    assert_eq!(b.row(1).submit_ok + b.row(2).submit_ok, 2);
    assert_eq!(b.df(ms(2000)), 2);
}

#[test]
fn a_submission_outlives_its_connection() {
    let mut b = Bench::new(&quick_config());
    assert!(b.send(ms(0), 1, submit(1, "j")).is_empty());
    b.hangup(ms(5), 1);
    assert_eq!(b.df(ms(29)), 1, "the slot is held to the end of service");
    assert_eq!(b.df(ms(30)), 2);
    assert_eq!(b.row(1).submit_ok, 1, "accounted though nobody listens");
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
/// an overload crash or an earlier kill, does nothing — no crash
/// counted, and the outage it found ends when it would have.
#[test]
fn a_kill_while_down_does_nothing() {
    let mut cfg = quick_config();
    cfg.slots = 1;
    cfg.service = Duration::from_millis(500);
    cfg.crash_overloads = 1;
    cfg.plan = FaultPlan::new(1)
        .with(kill(ms(100), 1000))
        .with(kill(ms(400), 100))
        .with(kill(ms(450), 1000));
    let mut b = Bench::new(&cfg);
    assert!(b.send(ms(0), 1, submit(1, "hog")).is_empty());
    // The first refusal crashes the schedd: down over [10, 310) ms.
    assert_eq!(
        refused(&b.send(ms(10), 2, submit(2, "j")), 2),
        ErrCode::Down
    );
    assert_eq!(b.df(ms(309)), 0);
    assert_eq!(b.df(ms(310)), 1, "the kill at 100 ms found it down");
    assert_eq!(b.grid.snapshot().1, 1, "and counted no crash");
    // The kill at 400 ms hits; the one at 450 ms finds it down.
    assert_eq!(b.df(ms(400)), 0);
    assert_eq!(b.df(ms(499)), 0);
    assert_eq!(b.df(ms(500)), 1, "down for the first kill's 100 ms only");
    assert_eq!(b.grid.snapshot().1, 2);
    let (_, resp) = b.answer(1).expect("the hog hears back");
    assert_eq!(
        code(resp),
        Some(ErrCode::Down),
        "lost in the overload crash"
    );
}

/// A restart brings the schedd up at once, whatever took it down, and
/// clears overload pressure even on a running schedd.
#[test]
fn a_restart_ends_any_downtime_and_clears_overload() {
    let mut cfg = quick_config();
    cfg.slots = 1;
    cfg.service = Duration::from_secs(1);
    cfg.crash_overloads = 2;
    cfg.plan = FaultPlan::new(1)
        .with(restart(ms(100)))
        .with(kill(ms(200), 10_000))
        .with(restart(ms(300)))
        .with(restart(ms(500)));
    let mut b = Bench::new(&cfg);
    assert!(b.send(ms(0), 1, submit(1, "hog")).is_empty());
    assert_eq!(
        refused(&b.send(ms(10), 2, submit(2, "a")), 2),
        ErrCode::Busy
    );
    assert_eq!(
        refused(&b.send(ms(20), 2, submit(2, "b")), 2),
        ErrCode::Down
    );
    assert_eq!(b.df(ms(99)), 0);
    assert_eq!(b.df(ms(100)), 1, "an overload downtime ended early");
    assert_eq!(b.df(ms(200)), 0);
    assert_eq!(b.df(ms(300)), 1, "a kill's ten seconds ended early");
    assert!(b.send(ms(400), 3, submit(3, "c")).is_empty());
    assert_eq!(
        refused(&b.send(ms(410), 4, submit(4, "d")), 4),
        ErrCode::Busy
    );
    // Without the restart at 500 ms, this second refusal would crash.
    assert_eq!(
        refused(&b.send(ms(510), 4, submit(4, "e")), 4),
        ErrCode::Busy
    );
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
    assert_eq!(out, [Effect::Wake(ms(129), TimerId::Conn(1))]);
    out.clear();
    grid.on_request(ms(100), 2, submit(2, "b"), &mut out);
    assert_eq!(refused(&out, 2), ErrCode::Down);
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
