//! Live ↔ sim agreement on forced `schedd-kill` loss accounting, plus
//! the arena's 1000-client stress smoke.
//!
//! An injected [`FaultKind::ScheddKill`] is a real crash on both
//! sides: the crash counter bumps and every in-flight submission fails
//! in the broadcast jam. The two agree by shared code: the simulator's
//! driver hands each trigger to its world's `inject_fault`, which
//! kills the schedd that world owns (`simgrid::Schedd::kill`), and the
//! daemon's core re-arms the same plan one trigger at a time and
//! applies each at its instant through `gridd::grid::Grid::inject_fault`,
//! the same hook on the daemon's own schedd, with the same rule: a
//! kill that finds the schedd down does nothing. These tests run one
//! kill through each end.

use egbench::live::{LiveOptions, Study};
use gridd::{ErrCode, GridClient, GridError, GriddConfig};
use gridworld::scenarios::submit::{run_submission, SubmitParams};
use retry::{Discipline, Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
use std::time::Duration;

/// One forced kill mid-run: the sim must count exactly one extra crash
/// versus the identical unfaulted run, and must not gain jobs from it.
#[test]
fn sim_counts_forced_kill_as_crash() {
    let params = |fault_plan: FaultPlan| SubmitParams {
        n_clients: 20,
        discipline: Discipline::Ethernet,
        seed: 99,
        fault_plan,
        ..SubmitParams::default()
    };
    let baseline = run_submission(params(FaultPlan::default()), Dur::from_secs(120));
    assert_eq!(baseline.crashes, 0, "ethernet at n=20 must not crash");

    // Same physics, plus one forced kill at t=60s — mid-run, when
    // submissions are in flight.
    let plan = FaultPlan::new(99).with(FaultSpec::once(
        Time::from_secs(60),
        FaultKind::ScheddKill { downtime: None },
    ));
    let killed = run_submission(params(plan), Dur::from_secs(120));
    assert_eq!(killed.crashes, 1, "the forced kill is one crash");
    assert!(
        killed.jobs_submitted <= baseline.jobs_submitted,
        "a kill cannot gain jobs: {} vs baseline {}",
        killed.jobs_submitted,
        baseline.jobs_submitted
    );
}

/// The live daemon's side of the same contract: a kill window opening
/// while a job is in service counts as one crash, loses that job
/// (`submit_lost`, the broadcast jam), and hands back a full slot pool
/// when the window closes — mirroring the sim's `crash_after`, which
/// fails the serving connection and releases its descriptors.
#[test]
fn live_daemon_matches_sim_kill_accounting() {
    let cfg = GriddConfig {
        slots: 2,
        service: Duration::from_millis(500),
        downtime: Duration::from_secs(2),
        deadline: Duration::from_secs(5),
        plan: FaultPlan::new(99).with(FaultSpec::once(
            Time::from_micros(150_000),
            FaultKind::ScheddKill {
                downtime: Some(Dur::from_millis(300)),
            },
        )),
        ..GriddConfig::default()
    };
    let h = gridd::start(cfg).unwrap();
    let addr = h.addr().to_string();
    let victim = {
        let addr = addr.clone();
        std::thread::spawn(move || GridClient::new(addr, 1).submit("victim"))
    };
    // The kill window [150ms, 450ms) opens while the victim is in
    // service; its 500ms completion lands in the next crash epoch.
    assert!(
        matches!(
            victim.join().unwrap(),
            Err(GridError::Server(ErrCode::Down, _))
        ),
        "in-service job must be lost in the forced kill"
    );
    let c = GridClient::new(addr, 0);
    assert_eq!(c.df().unwrap(), 2, "full slot pool after the window");
    let (clients, crashes) = h.snapshot();
    assert_eq!(crashes, 1, "the forced kill is one crash, as in the sim");
    let victim_row = clients.iter().find(|s| s.client == 1).unwrap();
    assert_eq!(
        (victim_row.submit_lost, victim_row.submit_ok),
        (1, 0),
        "{victim_row:?}"
    );
    h.shutdown();
}

/// The 1000-client arena smoke: one epoll swarm against one daemon,
/// quick physics. Gate: jobs complete and the wire stays clean. Run
/// with `cargo test --release -- --ignored stress` (CI's gridd-stress
/// job does; it is too heavy for the default debug test sweep).
#[test]
#[ignore = "1000-client stress; run explicitly with -- --ignored"]
fn stress_swarm_1000_clients() {
    let arena = LiveOptions::sized(1000);
    let h = gridd::start(arena.config(4242)).unwrap();
    let report = arena
        .population(Discipline::Ethernet, 4242)
        .and_then(|p| p.drive(&h.addr().to_string()));
    let (clients, _) = h.snapshot();
    h.shutdown();
    let report = report.expect("every client finishes and the wire stays clean at 1000 clients");
    let jobs_done: u64 = clients.iter().map(|c| c.submit_ok).sum();
    assert!(
        jobs_done > 0,
        "the arena must push jobs through: {} responses, {} reconnects",
        report.responses,
        report.reconnects
    );
    assert!(
        report.dispatch_rate() > 100.0,
        "dispatch collapsed: {:.0} verbs/s",
        report.dispatch_rate()
    );
}
