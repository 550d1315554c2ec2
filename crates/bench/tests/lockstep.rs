//! Lockstep differential over the scripts the workspace actually runs:
//! the tree-walking oracle (`ftsh::tree::TreeVm`) and the interpreter
//! (`ftsh::Vm`) side by side, tick for tick.
//!
//! `bytecode_props` covers *random* scripts; this covers the real ones —
//! every script `gridworld::scripts` and `gridworld::coord` generate for
//! Fixed/Aloha/Ethernet (under the backoff policy each discipline
//! installs), the live arena's generated script included, the
//! conformance corpus, and the example and procman scripts. Both machines get the same seed and the same seeded command
//! outcomes, and at every tick must agree on the effect stream and the
//! status — including `next_wake`, which moves with every backoff jitter
//! draw, so identical wake instants mean identical RNG consumption. This
//! is what stands in for running whole figures on the oracle: a figure is
//! these scripts under these policies, and a scenario world only ever
//! sees the effect stream.

use ftsh::tree::TreeVm;
use ftsh::vm::{CmdResult, Effect, Vm, VmStatus};
use ftsh::{parse, Env, Script};
use gridworld::coord::{allreduce_script, allreduce_text, dag_job_script, DagSpec};
use gridworld::scripts::{
    arena_script, arena_text, arena_worst_case, buffer_script, reader_script, submit_script,
};
use retry::{BackoffPolicy, Discipline, Dur, Time};
use simgrid::trace::{SharedSink, VecSink};
use simgrid::SimRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

const SEEDS: u64 = 8;
const MAX_STEPS: usize = 5_000;

struct Case {
    name: String,
    script: Script,
    backoff: BackoffPolicy,
}

/// The coordinated workloads' tightened exponential (`coord_vm`).
fn coord_backoff(d: Discipline) -> BackoffPolicy {
    match d {
        Discipline::Fixed => BackoffPolicy::None,
        _ => BackoffPolicy::exponential(Dur::from_millis(500), Dur::from_secs(8)),
    }
}

fn scenario_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for d in Discipline::ALL {
        let label = d.label();
        for (scenario, script) in [
            ("submit", submit_script(d, 1000)),
            ("buffer", buffer_script(d)),
            ("reader", reader_script(d)),
        ] {
            cases.push(Case {
                name: format!("{scenario}/{label}"),
                script,
                backoff: d.backoff(),
            });
        }
        cases.push(Case {
            name: format!("arena/{label}"),
            script: arena_script(d, 4),
            backoff: egbench::live::live_backoff(d),
        });
        cases.push(Case {
            name: format!("allreduce/{label}"),
            script: allreduce_script(d, 4, Dur::from_secs(600), Dur::from_secs(60)),
            backoff: coord_backoff(d),
        });
        for job in &DagSpec::diamond().jobs {
            cases.push(Case {
                name: format!("dag/{label}/{}", job.name),
                script: dag_job_script(d, job, Dur::from_secs(600), Dur::from_secs(60)),
                backoff: coord_backoff(d),
            });
        }
    }
    cases
}

fn file_cases(rel: &str, want: usize) -> Vec<Case> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let scripts = egbench::conformance::discover(&dir).expect("corpus directory reads");
    assert_eq!(scripts.len(), want, "{rel} moved?");
    scripts
        .iter()
        .map(|s| Case {
            name: format!("{rel}/{}", s.name),
            script: parse(&s.source).unwrap_or_else(|e| panic!("{rel}/{}: {e}", s.name)),
            backoff: BackoffPolicy::ethernet(),
        })
        .collect()
}

/// Every variable some case reads from its environment.
fn case_env() -> Env {
    let mut env = Env::new();
    for (k, v) in [
        ("h1", "alpha"),
        ("h2", "beta"),
        ("h3", "gamma"),
        ("rank", "r1"),
        ("round", "0"),
        ("client", "7"),
        ("shimdir", "/shim"),
    ] {
        env.set(k, v);
    }
    env
}

fn bindings(env: &Env) -> BTreeMap<String, String> {
    env.iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn sink() -> (SharedSink, Arc<Mutex<VecSink>>) {
    let buf = Arc::new(Mutex::new(VecSink::new()));
    (buf.clone() as SharedSink, buf)
}

/// Captured outputs straddle every carrier-sense threshold the scripts
/// compare against (rank counts, input counts, 1000 free FDs), plus
/// one non-numeric value that makes `.lt.` itself fail.
const OUTPUTS: [&str; 8] = [
    "0\n",
    "1\n",
    "3\n",
    "4\n",
    "999\n",
    "5000\n",
    "words\n",
    "two\nlines\n\n",
];

/// Latencies straddle the scripts' 5 s / 60 s / 600 s deadlines.
const LATENCIES_MS: [u64; 6] = [0, 0, 20, 900, 7_000, 90_000];

fn lockstep(case: &Case, seed: u64) {
    let what = format!("{} (seed {seed})", case.name);
    let mut tree = TreeVm::with_env_seed(&case.script, case_env(), seed);
    let mut vm = Vm::with_env_seed(&case.script, case_env(), seed);
    tree.set_default_backoff(case.backoff);
    vm.set_default_backoff(case.backoff);
    // Every other seed also throttles `forall` to two live branches.
    let throttle = seed.is_multiple_of(2).then_some(2);
    tree.set_max_parallel(throttle);
    vm.set_max_parallel(throttle);
    let (tree_sink, tree_trace) = sink();
    let (vm_sink, vm_trace) = sink();
    tree.set_tracer(tree_sink, 0);
    vm.set_tracer(vm_sink, 0);

    // The world: one outcome stream, applied to both machines.
    let mut world = SimRng::new(seed).fork(case.name.len() as u64);
    let mut pick = |n: usize| world.range_u64(0, n as u64) as usize;
    // (due, token, result); held commands are simply never scheduled.
    let mut pending: Vec<(Time, u64, CmdResult)> = Vec::new();
    let mut now = Time::ZERO;
    let mut finished = false;
    for step in 0..MAX_STEPS {
        let a = tree.tick(now);
        let b = vm.tick(now);
        assert_eq!(a, b, "{what}: tick {step} at {now:?} diverges");
        for eff in a.effects {
            match eff {
                Effect::Start { token, .. } => {
                    let result = match pick(10) {
                        0 => continue, // hold: only a deadline ends it
                        1..=4 => CmdResult::fail(),
                        _ => CmdResult::ok(OUTPUTS[pick(OUTPUTS.len())]),
                    };
                    let due = now
                        .saturating_add(Dur::from_millis(LATENCIES_MS[pick(LATENCIES_MS.len())]));
                    pending.push((due, token, result));
                }
                Effect::Cancel { token } => pending.retain(|p| p.1 != token),
            }
        }
        let VmStatus::Running { next_wake } = a.status else {
            finished = true;
            break;
        };
        pending.sort_by_key(|p| (p.0, p.1));
        let Some(next) = pending
            .first()
            .map(|p| p.0)
            .into_iter()
            .chain(next_wake)
            .min()
        else {
            break; // both wait forever on held commands, identically
        };
        now = now.max(next);
        while pending.first().is_some_and(|p| p.0 <= now) {
            let (_, token, result) = pending.remove(0);
            tree.complete(token, result.clone());
            vm.complete(token, result);
        }
    }

    assert_eq!(tree.outcome(), vm.outcome(), "{what}: outcome");
    assert_eq!(tree.log().events(), vm.log().events(), "{what}: event log");
    assert_eq!(
        tree_trace.lock().unwrap().take(),
        vm_trace.lock().unwrap().take(),
        "{what}: trace records"
    );
    if finished {
        assert_eq!(
            bindings(tree.env()),
            bindings(vm.env()),
            "{what}: final bindings"
        );
    }
}

fn run(cases: &[Case]) {
    for case in cases {
        for seed in 0..SEEDS {
            lockstep(case, 2003 + seed);
        }
    }
}

#[test]
fn scenario_and_coord_scripts_run_in_lockstep_under_every_discipline() {
    let cases = scenario_cases();
    // 3 scenarios + arena + all-reduce + 8 diamond jobs, per discipline.
    assert_eq!(cases.len(), 3 * (3 + 1 + 1 + 8));
    run(&cases);
}

/// The scripts the live world executes pass the same gate the corpus
/// does for the §5 scripts: no error-severity lint finding. The arena
/// script's envelope is also what the swarm sizes its watchdog from.
#[test]
fn live_scripts_lint_without_errors() {
    let opts = ftshlint::Options {
        defines: ["client", "rank", "round"].map(String::from).to_vec(),
        policy: ftshlint::budget::BudgetPolicy::ARENA,
        ..ftshlint::Options::default()
    };
    for d in Discipline::ALL {
        let arena = arena_text(d, 4);
        let rank = allreduce_text(d, 4, Dur::from_secs(600), Dur::from_secs(60));
        for (what, src) in [("arena", &arena), ("allreduce", &rank)] {
            let script = parse(src).unwrap_or_else(|e| panic!("{what}/{d}: {e}"));
            let report = ftshlint::lint_script(&script, src, &opts);
            let errors: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|diag| diag.severity == ftshlint::Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{what}/{d}: {errors:?}");
            if what == "arena" {
                assert_eq!(report.envelope, arena_worst_case(4), "{d}");
            }
        }
    }
}

#[test]
fn corpus_example_and_procman_scripts_run_in_lockstep() {
    run(&file_cases("conformance", 22));
    run(&file_cases("../../examples/ftsh", 5));
    run(&file_cases("../procman/tests/scripts", 9));
}
