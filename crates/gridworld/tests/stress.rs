//! Failure injection and boundary stress for the scenario worlds:
//! extreme parameters must neither panic nor violate resource
//! invariants, and the documented shapes must be robust to them.

use gridworld::{
    run_blackhole, run_buffer, run_submission, BlackHoleParams, BufferParams, SubmitParams,
};
use retry::{Discipline, Dur};
use simgrid::ScheddParams;

#[test]
fn submit_zero_stagger_thundering_herd() {
    // Everyone arrives in the same instant; carrier sense can only
    // react sequentially. The run must survive and the FD table can
    // never be over-allocated (FdTable would panic on violation).
    for d in Discipline::ALL {
        let o = run_submission(
            SubmitParams {
                n_clients: 450,
                discipline: d,
                start_stagger: Dur::ZERO,
                ..SubmitParams::default()
            },
            Dur::from_secs(60),
        );
        // Whatever happened, accounting stayed sane (min_free is a
        // u64 and the table asserts conservation internally).
        assert!(o.min_free_fds <= 8000);
    }
}

#[test]
fn submit_tiny_fd_table_survives() {
    // With almost no descriptors the carrier-sense window (probe to
    // allocation) is wide relative to capacity, so even Ethernet can
    // mis-sense and crash the schedd occasionally — the paper's
    // "acquisition protocol is permitted to occasionally fail". The
    // run must stay sane and keep some throughput between crashes.
    let o = run_submission(
        SubmitParams {
            n_clients: 50,
            discipline: Discipline::Ethernet,
            schedd: ScheddParams {
                fd_capacity: 100,
                ..ScheddParams::default()
            },
            threshold: 90,
            ..SubmitParams::default()
        },
        Dur::from_secs(120),
    );
    assert!(o.crashes < 12, "crash storms bounded: {}", o.crashes);
    assert!(o.jobs_submitted > 0, "some work still lands");
}

#[test]
fn submit_huge_downtime_still_recovers() {
    let o = run_submission(
        SubmitParams {
            n_clients: 450,
            discipline: Discipline::Aloha,
            schedd: ScheddParams {
                restart_downtime: Dur::from_secs(60),
                ..ScheddParams::default()
            },
            ..SubmitParams::default()
        },
        Dur::from_secs(300),
    );
    assert!(o.jobs_submitted > 0, "work continues between crash epochs");
}

#[test]
fn buffer_one_byte_files_and_tiny_buffer() {
    let o = run_buffer(
        BufferParams {
            n_producers: 10,
            discipline: Discipline::Fixed,
            capacity: 1024,
            max_file: 512,
            ..BufferParams::default()
        },
        Dur::from_secs(60),
    );
    // Extreme contention: collisions happen, accounting holds
    // (DiskBuffer asserts used <= capacity internally).
    assert!(o.files_produced + o.collisions > 0);
}

#[test]
fn buffer_single_producer_never_collides() {
    let o = run_buffer(
        BufferParams {
            n_producers: 1,
            discipline: Discipline::Fixed,
            ..BufferParams::default()
        },
        Dur::from_secs(120),
    );
    assert_eq!(o.collisions, 0, "1 producer at 0.5 MB/s vs 1 MB/s drain");
    assert!(o.files_consumed > 50);
}

#[test]
fn buffer_consumer_faster_than_producers_is_clean() {
    let o = run_buffer(
        BufferParams {
            n_producers: 2,
            discipline: Discipline::Aloha,
            consumer_rate: 100 << 20,
            ..BufferParams::default()
        },
        Dur::from_secs(60),
    );
    assert_eq!(o.collisions, 0);
    // Everything produced is (eventually) consumed.
    assert!(o.files_consumed + 2 >= o.files_produced);
}

#[test]
fn blackhole_flag_slower_than_probe_limit_defers_everything() {
    // If even the healthy servers are so slow the 5 s probe cannot
    // complete (bandwidth 0.1 B/s), Ethernet readers defer forever and
    // finish no transfers — but terminate cleanly.
    let o = run_blackhole(
        BlackHoleParams {
            discipline: Discipline::Ethernet,
            bandwidth: 1,
            flag_size: 100,
            ..BlackHoleParams::default()
        },
        Dur::from_secs(300),
    );
    assert_eq!(o.transfers, 0);
    assert!(o.deferrals > 0);
}

#[test]
fn blackhole_many_clients_single_server() {
    let o = run_blackhole(
        BlackHoleParams {
            n_clients: 10,
            discipline: Discipline::Ethernet,
            servers: vec!["only".into()],
            black_holes: vec![],
            ..BlackHoleParams::default()
        },
        Dur::from_secs(300),
    );
    // One 10 MB/s server, 100 MB files: ~10 s each, so ~30 transfers
    // minus queue-timeout losses.
    assert!(o.transfers >= 15, "transfers {}", o.transfers);
}

#[test]
fn blackhole_zero_clients_is_a_noop() {
    let o = run_blackhole(
        BlackHoleParams {
            n_clients: 0,
            ..BlackHoleParams::default()
        },
        Dur::from_secs(10),
    );
    assert_eq!(o.transfers, 0);
    assert_eq!(o.collisions, 0);
}

#[test]
fn submit_zero_clients_is_a_noop() {
    let o = run_submission(
        SubmitParams {
            n_clients: 0,
            ..SubmitParams::default()
        },
        Dur::from_secs(10),
    );
    assert_eq!(o.jobs_submitted, 0);
}

#[test]
fn submit_ten_thousand_clients_smoke() {
    // fig1x territory: two orders of magnitude past the paper's 100s
    // axis. Carrier sense must keep the schedd alive, work must still
    // land, and nothing may schedule into the past at this scale.
    let o = run_submission(
        SubmitParams {
            n_clients: 10_000,
            discipline: Discipline::Ethernet,
            start_stagger: Dur::from_secs(60),
            ..SubmitParams::default()
        },
        Dur::from_secs(90),
    );
    assert!(o.jobs_submitted > 0, "work lands at 10k clients");
    assert_eq!(o.crashes, 0, "carrier sense holds at 10k clients");
    assert_eq!(o.queue_clamps, 0, "no past-scheduling at scale");
}

#[test]
fn all_scenarios_deterministic_under_stress() {
    let run = || {
        run_submission(
            SubmitParams {
                n_clients: 450,
                discipline: Discipline::Fixed,
                start_stagger: Dur::ZERO,
                ..SubmitParams::default()
            },
            Dur::from_secs(60),
        )
        .jobs_submitted
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------------
// Golden determinism: exact values for pinned seeds at quick scale.
// These catch accidental drift in the models; update them consciously
// when a model change is intended, and re-check EXPERIMENTS.md.
// ---------------------------------------------------------------------

#[test]
fn golden_submission_quick() {
    let o = run_submission(
        SubmitParams {
            n_clients: 100,
            discipline: Discipline::Aloha,
            seed: 2003,
            ..SubmitParams::default()
        },
        Dur::from_secs(60),
    );
    let p = run_submission(
        SubmitParams {
            n_clients: 100,
            discipline: Discipline::Aloha,
            seed: 2003,
            ..SubmitParams::default()
        },
        Dur::from_secs(60),
    );
    // Bitwise repeatability plus a sanity corridor for the magnitude.
    assert_eq!(o.jobs_submitted, p.jobs_submitted);
    assert_eq!(o.failed_connects, p.failed_connects);
    assert!(
        (80..220).contains(&o.jobs_submitted),
        "quick-scale corridor: {}",
        o.jobs_submitted
    );
}

#[test]
fn golden_blackhole_quick() {
    let run = || {
        run_blackhole(
            BlackHoleParams {
                discipline: Discipline::Ethernet,
                seed: 2003,
                ..BlackHoleParams::default()
            },
            Dur::from_secs(300),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.transfers, b.transfers);
    assert_eq!(a.deferrals, b.deferrals);
    assert!((30..70).contains(&a.transfers), "corridor: {}", a.transfers);
}
