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
//!   `on_request` / `on_timer` / `on_hangup` with explicit instants;
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

    #[test]
    fn protocol_error_is_answered_then_the_connection_closes() {
        let h = start(quick_config()).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // A well-formed frame carrying an unknown verb tag, with a
        // valid request pipelined behind it.
        let mut bytes = Vec::new();
        proto::frame_into(&mut bytes, &[0x7f]);
        proto::frame_into(&mut bytes, &Request::Df { client: 0 }.encode());
        s.write_all(&bytes).unwrap();
        let reply = proto::read_frame(&mut s).expect("the error is reported");
        assert!(matches!(
            Response::decode(&reply),
            Ok(Response::Err {
                code: ErrCode::Bad,
                ..
            })
        ));
        // Nothing after the bad frame is served: end of stream.
        assert_eq!(s.read(&mut [0u8; 16]).unwrap(), 0);
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
