//! # gridd — the paper's contended grid services on a real socket
//!
//! Everything before this crate reproduced "The Ethernet Approach to
//! Grid Computing" against a virtual clock. `gridd` serves the same
//! contended resources — an overloadable schedd, a file server that
//! can black-hole or run out of space, a free-space estimator that can
//! lie — from a real TCP daemon, so whole populations
//! of real Ethernet/Aloha/Fixed ftsh clients can collide on real
//! wall-clock.
//!
//! * [`proto`] — the length-prefixed wire protocol (`submit`, `put`,
//!   `get`, `df`, `stats`);
//! * [`poll`] — the readiness layer: epoll wrapper, timer wheel,
//!   cross-thread waker, listener-backlog widening;
//! * [`grid`] — the daemon's physics with no socket in it and one
//!   clock: slot-pool schedd with crash epochs, the simulator's own
//!   key store and fault-window table, counters; driven by
//!   `on_request` / `on_timer` / `on_hangup` with explicit instants,
//!   and by the fault plan's own timer through `inject_fault`;
//! * [`server`] — the reactor around it: one epoll event loop over
//!   per-connection framing state, a timer wheel for every delay the
//!   core asks for, the idle patrol, bounded shutdown;
//! * [`client`] — [`GridClient`]: one connection per operation, behind
//!   the `gridctl` binary real ftsh scripts drive. The live harnesses'
//!   client swarm does not use it: it pipelines [`proto`] frames over
//!   persistent connections from its own [`poll`] reactor.

#![warn(missing_docs)]

pub mod client;
pub mod grid;
pub mod poll;
pub mod proto;
pub mod server;

pub use client::{GridClient, GridError};
pub use grid::ClientSnapshot;
pub use proto::{ErrCode, Request, Response};
pub use server::{start, GriddConfig, GriddHandle};

#[cfg(test)]
mod tests {
    //! What is about sockets: the physics behind them is tested on a
    //! virtual clock in [`grid`].
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    /// A small schedd with short holds, for this crate's tests.
    pub(crate) fn quick_config() -> GriddConfig {
        GriddConfig {
            slots: 2,
            service: Duration::from_millis(30),
            crash_overloads: 3,
            downtime: Duration::from_millis(300),
            deadline: Duration::from_secs(2),
            ..GriddConfig::default()
        }
    }

    #[test]
    fn submit_put_get_df_roundtrip() {
        let h = start(quick_config()).unwrap();
        let c = GridClient::new(h.addr().to_string(), 0);
        let free = c.df().unwrap();
        assert_eq!(free, 2);
        let id = c.submit("job-a").unwrap();
        assert!(id.starts_with("job-a@"), "{id}");
        c.put("f.txt", b"payload").unwrap();
        assert!(c.stat("f.txt").unwrap());
        assert_eq!(c.get("f.txt").unwrap(), b"payload");
        assert!(matches!(
            c.get("missing"),
            Err(GridError::Server(ErrCode::NotFound, _))
        ));
        h.shutdown();
    }

    #[test]
    fn more_than_one_event_loop_is_refused() {
        let cfg = GriddConfig {
            threads: 2,
            ..quick_config()
        };
        let refused = start(cfg).err().expect("one loop only");
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// Pipeline `reqs` (a `None` is a well-formed frame with an unknown
    /// verb tag) in one write.
    fn pipeline(s: &mut TcpStream, reqs: &[Option<Request>]) {
        let mut bytes = Vec::new();
        for req in reqs {
            match req {
                Some(req) => req.encode_frame(&mut bytes),
                None => proto::frame_into(&mut bytes, &[0x7f]),
            }
        }
        s.write_all(&bytes).unwrap();
    }

    fn connect(h: &GriddHandle) -> TcpStream {
        let s = TcpStream::connect(h.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    }

    /// The next reply on `s`, waited for as long as its read timeout.
    pub(crate) fn reply(s: &mut TcpStream) -> Response {
        Response::decode(&proto::read_frame(s).expect("a reply")).expect("well-formed")
    }

    /// What was served ahead of the bad frame is answered ahead of the
    /// `bad` (replies wait for the end of the event now, and the close
    /// must not overtake them); nothing behind it is served.
    #[test]
    fn protocol_error_is_answered_then_the_connection_closes() {
        let h = start(quick_config()).unwrap();
        let mut s = connect(&h);
        let df = || Some(Request::Df { client: 0 });
        pipeline(&mut s, &[df(), df(), None, df()]);
        assert_eq!(reply(&mut s), Response::Free { slots: 2 });
        assert_eq!(reply(&mut s), Response::Free { slots: 2 });
        assert!(matches!(
            reply(&mut s),
            Response::Err {
                code: ErrCode::Bad,
                ..
            }
        ));
        // Nothing after the bad frame is served: end of stream.
        assert_eq!(s.read(&mut [0u8; 16]).unwrap(), 0);
        let (rows, _) = h.snapshot();
        assert_eq!(rows[0].df_calls, 2);
        h.shutdown();
    }

    /// A lost message resets the connection *behind* the reply to the
    /// request served before it.
    #[test]
    fn a_reset_does_not_overtake_the_reply_before_it() {
        use retry::{Dur, Time};
        use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
        let mut cfg = quick_config();
        cfg.plan = FaultPlan::new(3).with(FaultSpec::once(
            Time::ZERO,
            FaultKind::MsgLoss {
                channel: "get".into(),
                probability: 1.0,
                duration: Dur::from_secs(3600),
            },
        ));
        let h = start(cfg).unwrap();
        let mut s = connect(&h);
        let name = "f".to_string();
        let get = Request::Get { client: 0, name };
        pipeline(&mut s, &[Some(Request::Df { client: 0 }), Some(get)]);
        assert_eq!(reply(&mut s), Response::Free { slots: 2 });
        assert!(proto::read_frame(&mut s).is_err(), "then the reset");
        let (rows, _) = h.snapshot();
        assert_eq!((rows[0].df_calls, rows[0].resets), (1, 1));
        h.shutdown();
    }

    /// What a peer sent before it half-closed is served, and answered,
    /// before the hang-up is acted on. (It used to depend on whether
    /// the FIN had arrived by the reactor's second `read`.)
    #[test]
    fn bytes_ahead_of_a_half_close_are_served_and_answered() {
        let h = start(quick_config()).unwrap();
        let mut s = connect(&h);
        let put = Request::Put {
            client: 0,
            name: "last-words".into(),
            data: b"x".to_vec(),
        };
        pipeline(&mut s, &[Some(put)]);
        s.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(matches!(reply(&mut s), Response::Ok { .. }));
        assert_eq!(s.read(&mut [0u8; 16]).unwrap(), 0, "then the close");
        let c = GridClient::new(h.addr().to_string(), 1);
        assert!(c.stat("last-words").unwrap());
        h.shutdown();
    }

    /// A peer that hangs up while the file server works for it gives
    /// the server back: the next in line does not wait out a scan
    /// nobody wants (one miss here, not two).
    #[test]
    fn a_hangup_reaches_the_core() {
        let miss = Duration::from_millis(400);
        let mut cfg = quick_config();
        cfg.file_miss_service = miss;
        let h = start(cfg).unwrap();
        let mut quitter = TcpStream::connect(h.addr()).unwrap();
        let name = "x".to_string();
        let get = Request::Get { client: 1, name };
        proto::write_frame(&mut quitter, &get.encode()).unwrap();
        let t0 = Instant::now();
        drop(quitter);
        let c = GridClient::new(h.addr().to_string(), 0);
        assert!(c.get("y").is_err());
        let waited = t0.elapsed();
        assert!(waited >= miss, "the miss still costs: {waited:?}");
        assert!(waited < miss * 2, "queued behind a dead peer: {waited:?}");
        h.shutdown();
    }

    /// Regression: shutdown must not wait out in-flight service holds.
    /// A job parked on a 30-second service timer would have pinned the
    /// old thread-per-connection server; the event loop drops deferred
    /// work and joins within a bounded grace period.
    #[test]
    fn shutdown_is_bounded_with_inflight_service() {
        let mut cfg = quick_config();
        cfg.slots = 1;
        cfg.service = Duration::from_secs(30);
        let h = start(cfg).unwrap();
        let addr = h.addr().to_string();
        let c = GridClient::new(addr.clone(), 0);
        let bg = std::thread::spawn(move || GridClient::new(addr, 2).submit("parked"));
        // Each read is a round trip; the slot is taken once it reads 0.
        while c.df().unwrap() != 0 {}
        let t0 = Instant::now();
        h.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "shutdown must interrupt the 30s service hold, took {:?}",
            t0.elapsed()
        );
        // The parked client sees its connection die, not a success.
        assert!(bg.join().unwrap().is_err());
    }

    #[test]
    fn stats_verb_emits_metrics_json() {
        let h = start(quick_config()).unwrap();
        let c = GridClient::new(h.addr().to_string(), 5);
        c.submit("j").unwrap();
        c.df().unwrap();
        let json = c.stats().unwrap();
        assert!(
            json.contains("\"title\":\"gridd per-client counters\""),
            "{json}"
        );
        assert!(json.contains("\"submit_ok\""));
        assert!(json.contains("\"df_calls\""));
        assert!(json.contains("[[5,1]]"), "client 5 counted once: {json}");
        assert!(json.contains("\"schedd_crashes\""));
        h.shutdown();
    }
}
