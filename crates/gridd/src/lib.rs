//! # gridd — the paper's contended grid services on a real socket
//!
//! Everything before this crate reproduced "The Ethernet Approach to
//! Grid Computing" against a virtual clock. `gridd` serves the same
//! contended resources — an overloadable schedd, a file server that
//! can black-hole or run out of space, a free-space estimator that can
//! lie — from a real multi-threaded TCP daemon, so whole populations
//! of real Ethernet/Aloha/Fixed ftsh clients can collide on real
//! wall-clock.
//!
//! * [`proto`] — the length-prefixed wire protocol (`submit`, `put`,
//!   `get`, `df`, `stats`);
//! * [`poll`] — the readiness layer: epoll wrapper, timer wheel,
//!   cross-thread waker, listener-backlog widening;
//! * [`server`] — the daemon: epoll event loops over per-connection
//!   state machines, a timer wheel for every delay (service holds,
//!   latency stalls, black-hole swallows, deadlines), token-bucket
//!   service slots, crash physics, and
//!   [`simgrid::faults::FaultPlan`]-driven misbehaviour;
//! * [`client`] — [`GridClient`]: one connection per operation, behind
//!   the `gridctl` binary real ftsh scripts drive. The live harnesses'
//!   client swarm does not use it: it pipelines [`proto`] frames over
//!   persistent connections from its own [`poll`] reactor.

#![warn(missing_docs)]

pub mod client;
pub mod poll;
pub mod proto;
pub mod server;

pub use client::{GridClient, GridError};
pub use proto::{ErrCode, Request, Response};
pub use server::{start, ClientSnapshot, GriddConfig, GriddHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use retry::{Dur, Time};
    use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
    use std::time::Duration;

    fn quick_config() -> GriddConfig {
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
        assert_eq!(c.get("f.txt").unwrap(), b"payload");
        assert!(matches!(
            c.get("missing"),
            Err(GridError::Server(ErrCode::NotFound, _))
        ));
        h.shutdown();
    }

    #[test]
    fn stat_senses_free_while_misses_queue() {
        // A nonzero miss cost makes blind gets hold the file server;
        // stat answers from the directory cache regardless.
        let mut cfg = quick_config();
        cfg.file_service = Duration::from_millis(5);
        cfg.file_miss_service = Duration::from_millis(120);
        let h = start(cfg).unwrap();
        let c = GridClient::new(h.addr().to_string(), 0);

        assert!(!c.stat("partial").unwrap());
        let t0 = std::time::Instant::now();
        assert!(matches!(
            c.get("partial"),
            Err(GridError::Server(ErrCode::NotFound, _))
        ));
        let miss = t0.elapsed();
        assert!(miss >= Duration::from_millis(100), "miss took {miss:?}");

        // A put queued behind two misses waits for the FIFO to drain.
        let addr = h.addr().to_string();
        let pollers: Vec<_> = (1..3u32)
            .map(|k| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let p = GridClient::new(addr, k);
                    let _ = p.get("partial");
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        let t1 = std::time::Instant::now();
        c.put("partial", b"v").unwrap();
        assert!(
            t1.elapsed() >= Duration::from_millis(60),
            "put skipped the queue: {:?}",
            t1.elapsed()
        );
        for p in pollers {
            p.join().unwrap();
        }
        assert!(c.stat("partial").unwrap());
        assert_eq!(c.get("partial").unwrap(), b"v");

        let (clients, _) = h.snapshot();
        let me = clients.iter().find(|r| r.client == 0).unwrap();
        assert_eq!(me.df_calls, 2, "stat counts as a carrier-sense read");
        h.shutdown();
    }

    #[test]
    fn overload_crashes_the_schedd_and_df_sees_it() {
        let mut cfg = quick_config();
        cfg.slots = 1;
        cfg.service = Duration::from_millis(500);
        cfg.crash_overloads = 2;
        let h = start(cfg).unwrap();
        let addr = h.addr().to_string();
        // Occupy the only slot from a second thread.
        let bg = {
            let addr = addr.clone();
            std::thread::spawn(move || GridClient::new(addr, 1).submit("hog"))
        };
        std::thread::sleep(Duration::from_millis(100));
        let c = GridClient::new(addr.clone(), 0);
        // First overloaded submit: busy. Second: crash.
        assert!(matches!(
            c.submit("j1"),
            Err(GridError::Server(ErrCode::Busy, _))
        ));
        assert!(matches!(
            c.submit("j2"),
            Err(GridError::Server(ErrCode::Down, _))
        ));
        // Carrier sense reads zero while the schedd is down.
        assert_eq!(c.df().unwrap(), 0);
        // The in-flight job was lost in the crash.
        assert!(matches!(
            bg.join().unwrap(),
            Err(GridError::Server(ErrCode::Down, _))
        ));
        // After downtime the schedd is back with a full pool.
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(c.df().unwrap(), 1);
        assert!(c.submit("j3").is_ok());
        h.shutdown();
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
        let h = start(cfg).unwrap();
        let c = GridClient::new(h.addr().to_string(), 3);
        assert!(matches!(
            c.put("x", b"data"),
            Err(GridError::Server(ErrCode::Enospc, _))
        ));
        // 2 real free slots + a 40-slot lie.
        assert_eq!(c.df().unwrap(), 42);
        h.shutdown();
    }

    #[test]
    fn forced_schedd_kill_window_rejects_submits() {
        let mut cfg = quick_config();
        cfg.plan = FaultPlan::new(5).with(FaultSpec::once(
            Time::ZERO,
            FaultKind::ScheddKill {
                downtime: Some(Dur::from_secs(3600)),
            },
        ));
        let h = start(cfg).unwrap();
        let c = GridClient::new(h.addr().to_string(), 0);
        assert!(matches!(
            c.submit("j"),
            Err(GridError::Server(ErrCode::Down, _))
        ));
        assert_eq!(c.df().unwrap(), 0);
        // The file server is a different service: still up.
        c.put("f", b"ok").unwrap();
        h.shutdown();
    }

    /// Regression: a forced `schedd-kill` window opening mid-service
    /// must lose the in-service job (`submit_lost`), not complete it
    /// as `submit_ok`; and the window closing must hand back a *full*
    /// slot pool with the overload streak cleared. Before the fix the
    /// forced window never bumped the crash epoch, so the job's
    /// service timer fired after the "crash" and happily reported
    /// success — and the slot it consumed stayed consumed.
    #[test]
    fn forced_kill_loses_in_service_job_and_refills_slot_pool() {
        let mut cfg = quick_config();
        cfg.service = Duration::from_millis(500);
        // Kill window [150ms, 450ms): opens while the victim job is
        // in service, closes before its service timer fires.
        cfg.plan = FaultPlan::new(7).with(FaultSpec::once(
            Time::from_micros(150_000),
            FaultKind::ScheddKill {
                downtime: Some(Dur::from_millis(300)),
            },
        ));
        let h = start(cfg).unwrap();
        let addr = h.addr().to_string();
        let victim = {
            let addr = addr.clone();
            std::thread::spawn(move || GridClient::new(addr, 1).submit("victim"))
        };
        std::thread::sleep(Duration::from_millis(250)); // inside the window
        let c = GridClient::new(addr, 0);
        assert_eq!(c.df().unwrap(), 0, "window must read as down");
        assert!(matches!(
            c.submit("rejected"),
            Err(GridError::Server(ErrCode::Down, _))
        ));
        // The victim was mid-service when the window opened: its
        // completion lands in a later crash epoch and is lost.
        match victim.join().unwrap() {
            Err(GridError::Server(ErrCode::Down, msg)) => {
                assert!(msg.contains("lost"), "want a lost-job message, got {msg}");
            }
            other => panic!("victim must lose its job, got {other:?}"),
        }
        // The window has exited by now (victim joined at ~500ms): the
        // slot pool must be back to full strength, including the slot
        // the lost job was holding.
        assert_eq!(c.df().unwrap(), 2, "slot pool must refill after the window");
        let (clients, crashes) = h.snapshot();
        assert_eq!(crashes, 1, "the forced window counts as one crash");
        let victim_row = clients.iter().find(|s| s.client == 1).unwrap();
        assert_eq!(victim_row.submit_lost, 1, "{victim_row:?}");
        assert_eq!(victim_row.submit_ok, 0, "{victim_row:?}");
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
        let bg = std::thread::spawn(move || GridClient::new(addr, 2).submit("parked"));
        std::thread::sleep(Duration::from_millis(150)); // let it reach service
        let t0 = std::time::Instant::now();
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
        h.shutdown();
    }

    #[test]
    fn black_hole_swallows_file_requests() {
        let mut cfg = quick_config();
        cfg.deadline = Duration::from_millis(300);
        cfg.plan = FaultPlan::new(1).with(FaultSpec::once(
            Time::ZERO,
            FaultKind::ServerBlackHole {
                server: "yyy".into(),
                enable: true,
            },
        ));
        let h = start(cfg).unwrap();
        let c = GridClient::new(h.addr().to_string(), 0).with_timeout(Duration::from_millis(500));
        let t0 = std::time::Instant::now();
        let out = c.get("anything");
        assert!(matches!(out, Err(GridError::Io(_))), "{out:?}");
        assert!(t0.elapsed() >= Duration::from_millis(250));
        // The schedd is a different service: still answering.
        assert!(c.df().is_ok());
        h.shutdown();
    }
}
