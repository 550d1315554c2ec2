//! Integration tests spanning the workspace: the same ftsh scripts,
//! parsed once, exercised against the in-process executor, the real
//! POSIX driver, and the discrete-event grid worlds.

use ethernet_grid::ftsh::trace::{TraceEv, VecSink};
use ethernet_grid::ftsh::{parse, pretty, Vm, VmDriver};
use ethernet_grid::gridworld::{
    run_blackhole, run_buffer, run_submission, BlackHoleParams, BufferParams, SubmitParams,
};
use ethernet_grid::procman::{run_script, run_vm_traced, RealOptions};
use ethernet_grid::retry::{Discipline, Dur};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[test]
fn paper_fragment_parses_pretties_and_reparses() {
    // Every ftsh fragment printed in the paper, §1–§5.
    let fragments = [
        "try for 1 hour\n forany host in xxx yyy zzz\n  try for 5 minutes\n   fetch-file ${host} filename\n  end\n end\nend\n",
        "wget http://server/file.tar.gz\ngunzip file.tar.gz\ntar xvf file.tar\n",
        "try for 30 minutes\n wget http://server/file.tar.gz\n gunzip file.tar.gz\n tar xvf file.tar\nend\n",
        "try 5 times\n wget http://server/file.tar.gz\ncatch\n rm -f file.tar.gz\n failure\nend\n",
        "forany server in xxx yyy zzz\n wget http://${server}/file.tar.gz\nend\necho \"got file from ${server}\"\n",
        "forall file in xxx yyy zzz\n wget http://${server}/${file}\nend\n",
        "try for 30 minutes\n try for 5 minutes\n  wget http://server/file.tar.gz\n end\n try for 1 minute or 3 times\n  gunzip file.tar.gz\n  tar xvf file.tar\n end\nend\n",
        "try 5 times\n run-simulation >& tmp\nend\ncat < tmp\n",
        "try 5 times\n run-simulation ->& tmp\nend\ncat -< tmp\n",
        "try for 5 minutes\n condor_submit submit.job\nend\n",
        "try for 5 minutes\n cut -f2 /proc/sys/fs/file-nr -> n\n if ${n} .lt. 1000\n  failure\n else\n  condor_submit submit.job\n end\nend\n",
        "try for 900 seconds\n forany host in xxx yyy zzz\n  try for 60 seconds\n   wget http://${host}/data\n  end\n end\nend\n",
        "try for 900 seconds\n forany host in xxx yyy zzz\n  try for 5 seconds\n   wget http://${host}/flag\n  end\n  try for 60 seconds\n   wget http://${host}/data\n  end\n end\nend\n",
    ];
    for (i, src) in fragments.iter().enumerate() {
        let a = parse(src).unwrap_or_else(|e| panic!("fragment {i}: {e}"));
        let b = parse(&pretty(&a)).unwrap_or_else(|e| panic!("fragment {i} reparse: {e}"));
        assert_eq!(a, b, "fragment {i} roundtrip");
    }
}

#[test]
fn same_script_runs_simulated_and_real() {
    let src = "try for 1 minutes or 3 times\n\
               ${cmd} one\n\
               end\n";
    let script = parse(src).unwrap();

    // Simulated: cmd=flaky-twice.
    let mut env = ethernet_grid::ftsh::Env::new();
    env.set("cmd", "anything");
    let mut d = VmDriver::new(Vm::with_env_seed(&script, env, 3));
    let mut failures = 1;
    let out = d.run_to_completion(|_| {
        if failures > 0 {
            failures -= 1;
            Err("x".into())
        } else {
            Ok(String::new())
        }
    });
    assert!(out.success());

    // Real: cmd=true succeeds immediately.
    let src_real = "true one\n";
    let report = run_script(&parse(src_real).unwrap(), &RealOptions::default());
    assert!(report.success);
}

#[test]
fn real_deadline_kill_is_visible_in_log() {
    let script = parse("try for 1 seconds or 1 times\n sleep 20\nend\n").unwrap();
    let log = Arc::new(Mutex::new(VecSink::new()));
    let report = run_vm_traced(
        Vm::with_seed(&script, 1),
        &RealOptions {
            kill_grace: Duration::from_millis(100),
            ..RealOptions::default()
        },
        Some(log.clone()),
    );
    assert!(!report.success);
    assert!(report.elapsed < Duration::from_secs(8));
    let records = log.lock().unwrap().take();
    let kinds: Vec<_> = records.iter().map(|e| &e.ev).collect();
    assert!(kinds.iter().any(|k| matches!(k, TraceEv::TryTimeout)));
    assert!(kinds.iter().any(|k| matches!(k, TraceEv::CmdKilled { .. })));
}

/// The figure claims (`gridworld::claims`, judged at full scale by
/// `figure_baselines`) read fig6's and fig7's series, which carry no
/// collision count for Ethernet: that the flag probe shields every
/// Ethernet transfer is asserted here alone.
#[test]
fn figure6_and_7_shapes_hold() {
    let e = run_blackhole(
        BlackHoleParams {
            discipline: Discipline::Ethernet,
            ..BlackHoleParams::default()
        },
        Dur::from_secs(900),
    );
    assert_eq!(e.collisions, 0, "the probe shields the transfer");
}

/// Ablation A's claim (`ablation-threshold-zero`) judges jobs and
/// crashes; that a zero threshold never defers, so the Ethernet script
/// degenerates to Aloha plus a probe, is asserted here alone.
#[test]
fn carrier_sense_threshold_zero_degenerates_to_aloha() {
    let eth0 = run_submission(
        SubmitParams {
            n_clients: 450,
            discipline: Discipline::Ethernet,
            threshold: 0,
            ..SubmitParams::default()
        },
        Dur::from_secs(120),
    );
    assert_eq!(eth0.deferrals, 0);
}

#[test]
fn scenarios_are_deterministic_across_processes() {
    // Not just within a run: fixed constants that lock in the seeds.
    let o = run_submission(
        SubmitParams {
            n_clients: 100,
            discipline: Discipline::Aloha,
            seed: 77,
            ..SubmitParams::default()
        },
        Dur::from_secs(60),
    );
    let o2 = run_submission(
        SubmitParams {
            n_clients: 100,
            discipline: Discipline::Aloha,
            seed: 77,
            ..SubmitParams::default()
        },
        Dur::from_secs(60),
    );
    assert_eq!(o.jobs_submitted, o2.jobs_submitted);
    assert_eq!(o.fd_series, o2.fd_series);
}

#[test]
fn figure_shapes_are_seed_robust() {
    // The headline orderings must hold across seeds, not just the one
    // the figures use, and so must fig1's crash counts, which no
    // figure plots.
    for seed in [11, 222, 3333] {
        let run = |d: Discipline| {
            run_submission(
                SubmitParams {
                    n_clients: 450,
                    discipline: d,
                    seed,
                    ..SubmitParams::default()
                },
                Dur::from_secs(120),
            )
        };
        let e = run(Discipline::Ethernet);
        let f = run(Discipline::Fixed);
        assert!(
            e.jobs_submitted > 3 * f.jobs_submitted,
            "seed {seed}: ethernet {} vs fixed {}",
            e.jobs_submitted,
            f.jobs_submitted
        );
        assert_eq!(e.crashes, 0, "seed {seed}");
        assert!(f.crashes > 0, "seed {seed}");

        let b = |d| {
            run_buffer(
                BufferParams {
                    n_producers: 40,
                    discipline: d,
                    seed,
                    ..BufferParams::default()
                },
                Dur::from_secs(180),
            )
        };
        let be = b(Discipline::Ethernet);
        let bf = b(Discipline::Fixed);
        assert!(
            be.collisions * 10 < bf.collisions.max(1),
            "seed {seed}: buffer collisions {} vs {}",
            be.collisions,
            bf.collisions
        );
    }
}
