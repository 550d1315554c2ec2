//! Lockstep differential: the tree-walking oracle (`ftsh::tree::TreeVm`)
//! and the interpreter (`ftsh::Vm`) side by side, tick for tick, through
//! one drive loop, [`lockstep`].
//!
//! It runs the scripts the workspace actually runs — every script
//! `gridworld::scripts` and `gridworld::coord` generate for
//! Fixed/Aloha/Ethernet (under the backoff policy each discipline
//! installs, read from the world's own defaults), the live arena's
//! generated script included, the conformance corpus, and the example
//! and procman scripts — plus hand-written corner cases and seeded
//! scripts from the shared generator (`ftsh::tree::gen`). Both machines
//! get the same seed and the same seeded command outcomes, and at every
//! tick must agree on the effect stream and the status — including
//! `next_wake`, which moves with every backoff jitter draw, so identical
//! wake instants mean identical RNG consumption. This is what stands in
//! for running whole figures on the oracle: a figure is these scripts
//! under these policies, and a scenario world only ever sees the effect
//! stream.
//!
//! A third machine rides along — the interpreter the way a population
//! runs it, with no sink — so every case also shows that what a VM
//! records changes nothing it does, and that its counters and what its
//! sink received tell one story.

use egbench::live::ARENA_BACKOFF;
use ftsh::tree::gen;
use ftsh::tree::TreeVm;
use ftsh::vm::{CmdResult, Effect, Vm, VmStatus};
use ftsh::{parse, pretty, Env, LogSummary, Script};
use gridd::grid::SERVE_FDS;
use gridworld::coord::{
    allreduce_script, allreduce_text, dag_job_script, AllReduceParams, DagParams, DagSpec,
};
use gridworld::scripts::{arena_script, arena_text, buffer_script, reader_script, submit_script};
use retry::{BackoffPolicy, Discipline, Dur, Time};
use simgrid::trace::{SharedSink, TraceRecord, VecSink};
use simgrid::{SimRng, TraceSummary};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex};

const SEEDS: u64 = 8;
const MAX_STEPS: usize = 50_000;

struct Case {
    name: String,
    script: Script,
    backoff: BackoffPolicy,
}

fn scenario_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    // The policies fig8, fig9 and the live arena install, read from
    // where they are set.
    let (rank, dag) = (AllReduceParams::default(), DagParams::default());
    let arena = ARENA_BACKOFF;
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
            script: arena_script(d, 4, SERVE_FDS),
            backoff: d.backoff_within(arena.0, arena.1),
        });
        cases.push(Case {
            name: format!("allreduce/{label}"),
            script: allreduce_script(d, 4, Dur::from_secs(600), Dur::from_secs(60)),
            backoff: d.backoff_within(rank.backoff_base, rank.backoff_cap),
        });
        for job in &DagSpec::diamond().jobs {
            cases.push(Case {
                name: format!("dag/{label}/{}", job.name),
                script: dag_job_script(d, job, Dur::from_secs(600), Dur::from_secs(60)),
                backoff: d.backoff_within(dag.backoff_base, dag.backoff_cap),
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

/// The summary a record stream adds up to, counted by kind by the
/// trace reader — not by the VM's own counters.
fn counted(records: &[TraceRecord]) -> LogSummary {
    let s = TraceSummary::from_records(records);
    LogSummary {
        commands_started: s.cmd_starts,
        commands_succeeded: s.cmd_ok,
        commands_failed: s.cmd_failed,
        commands_cancelled: s.cmd_killed,
        attempts: s.attempts,
        backoffs: s.backoff_us.len() as u64,
        total_backoff: Dur::from_micros(s.backoff_us.iter().sum()),
        exhausted_tries: s.exhausted,
        timed_out_tries: s.timeouts,
        catches: s.catches,
        alternatives_tried: s.alternatives,
    }
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

/// Run `vm` as a throwaway unit for up to `ticks` ticks, answering each
/// command it starts at once or never, as `rng` says, then cut it off:
/// the unit may leave commands in flight, `forall` branches open or a
/// cached final environment, all of which a restart must forget.
fn warm_up(vm: &mut Vm, rng: &mut SimRng, ticks: u64) {
    let mut now = Time::ZERO;
    for _ in 0..ticks {
        let tick = vm.tick(now);
        let mut started = Vec::new();
        for eff in tick.effects {
            match eff {
                Effect::Start { token, .. } => started.push(token),
                Effect::Cancel { token } => started.retain(|&t| t != token),
            }
        }
        for token in started {
            match rng.range_u64(0, 3) {
                0 => {} // left in flight
                1 => assert!(vm.complete(token, CmdResult::fail())),
                _ => assert!(vm.complete(token, CmdResult::ok("warm\n"))),
            }
        }
        match tick.status {
            VmStatus::Done { .. } => {
                let _ = vm.env();
                return;
            }
            VmStatus::Running { next_wake } => now = next_wake.map_or(now, |w| now.max(w)),
        }
    }
}

/// Prints a failing case's script as a failed check unwinds, so it
/// replays from its name and seed.
struct Replay<'a>(&'a str, &'a str);

impl Drop for Replay<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {}\n{}", self.0, self.1);
        }
    }
}

/// The one tree ↔ interpreter drive loop. The machines run the case's
/// script printed and reparsed (the reparse must equal it). The
/// interpreter first runs part of a throwaway unit and is restarted in
/// place, so every tick also holds a restarted VM to the fresh oracle
/// and the fresh sink-less machine. Besides effects, records and
/// bindings it checks the token ledger (each token started once, a
/// cancel only of a started one, each resolved once, none left over)
/// and that a finished machine stays finished.
///
/// `holds`: whether the world may leave a command unanswered for good,
/// which only a script with every command under a deadline survives.
/// Without holds the script must run to its end within [`MAX_STEPS`].
/// Returns the interpreter's log summary.
fn lockstep(case: &Case, seed: u64, holds: bool) -> LogSummary {
    let what = format!("{} (seed {seed})", case.name);
    let text = pretty(&case.script);
    let _replay = Replay(&what, &text);
    let script = parse(&text).unwrap_or_else(|e| panic!("{what}: printed script reparses: {e}"));
    assert_eq!(script, case.script, "{what}: print → reparse");
    let mut tree = TreeVm::with_env_seed(&script, case_env(), seed);
    let mut warm_env = Env::new();
    warm_env.set("warm", "up");
    let mut vm = Vm::with_env_seed(&script, warm_env, !seed);
    // The interpreter again, with no sink: it keeps only its counters.
    let mut bare = Vm::with_env_seed(&script, case_env(), seed);
    tree.set_default_backoff(case.backoff);
    vm.set_default_backoff(case.backoff);
    bare.set_default_backoff(case.backoff);
    // Every other seed also throttles `forall` to two live branches.
    let throttle = seed.is_multiple_of(2).then_some(2);
    tree.set_max_parallel(throttle);
    vm.set_max_parallel(throttle);
    bare.set_max_parallel(throttle);
    let mut warm = SimRng::new(seed).fork(u64::MAX);
    let ticks = warm.range_u64(0, 12);
    warm_up(&mut vm, &mut warm, ticks);
    vm.restart(case_env(), seed);
    let (tree_sink, tree_trace) = sink();
    let (vm_sink, vm_trace) = sink();
    tree.set_tracer(tree_sink, 0);
    vm.set_tracer(vm_sink, 0);

    // The world: one outcome stream, applied to both machines.
    let mut world = SimRng::new(seed).fork(case.name.len() as u64);
    let mut pick = |n: usize| world.range_u64(0, n as u64) as usize;
    // (due, token, result); held commands are simply never scheduled.
    let mut pending: Vec<(Time, u64, CmdResult)> = Vec::new();
    let (mut started, mut resolved) = (HashSet::new(), HashSet::new());
    let mut now = Time::ZERO;
    let mut done = None;
    for step in 0..MAX_STEPS {
        let a = tree.tick(now);
        let b = vm.tick(now);
        assert_eq!(a, b, "{what}: tick {step} at {now:?} diverges");
        assert_eq!(b, bare.tick(now), "{what}: tick {step}, recording or not");
        // What the interpreter says is in flight is what it started,
        // read back without the spec; a cancelled command is not.
        for eff in &b.effects {
            let (token, program) = match eff {
                Effect::Start { token, spec, .. } => {
                    assert!(started.insert(*token), "{what}: token {token} reused");
                    (*token, Some(spec.program()))
                }
                Effect::Cancel { token } => {
                    assert!(
                        started.contains(token),
                        "{what}: cancel of unstarted {token}"
                    );
                    assert!(resolved.insert(*token), "{what}: {token} resolved twice");
                    (*token, None)
                }
            };
            let cancelled = b.effects.contains(&Effect::Cancel { token });
            let want = program.filter(|_| !cancelled);
            assert_eq!(vm.in_flight(token), want, "{what}: in_flight({token})");
        }
        for eff in a.effects {
            match eff {
                // `hang` never answers: only a deadline ends it.
                Effect::Start { spec, .. } if spec.program() == "hang" => {}
                Effect::Start { token, .. } => {
                    let result = match pick(10) {
                        0 if holds => continue, // only a deadline ends it
                        0..=4 => CmdResult::fail(),
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
            done = Some(a.status);
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
            assert!(resolved.insert(token), "{what}: {token} resolved twice");
            let waited = [
                tree.complete(token, result.clone()),
                bare.complete(token, result.clone()),
                vm.complete(token, result),
            ];
            assert_eq!(vm.in_flight(token), None, "{what}: {token} completed");
            assert!(
                waited.iter().all(|&w| w == waited[2]),
                "{what}: {token} waited on by (tree, bare, vm) = {waited:?}"
            );
        }
    }
    assert!(
        holds || done.is_some(),
        "{what}: stuck with every command answered"
    );
    if let Some(status) = done {
        assert_eq!(started, resolved, "{what}: tokens left unresolved");
        let outcome = vm.outcome().map(|success| VmStatus::Done { success });
        assert_eq!(outcome, Some(status), "{what}: outcome vs final status");
        // A finished machine stays finished, and does nothing more.
        let again = vm.tick(now);
        assert_eq!(again.status, status, "{what}: done, ticked again");
        assert!(again.effects.is_empty(), "{what}: done, ticked again");
        assert_eq!(tree.tick(now), again, "{what}: done, ticked again, tree");
        assert_eq!(bare.tick(now), again, "{what}: done, ticked again, bare");
        assert_eq!(
            bindings(tree.env()),
            bindings(vm.env()),
            "{what}: final bindings"
        );
    }

    assert_eq!(tree.outcome(), vm.outcome(), "{what}: outcome");
    assert_eq!(vm.outcome(), bare.outcome(), "{what}: outcome, bare");
    let records = vm_trace.lock().unwrap().take();
    let tree_records = tree_trace.lock().unwrap().take();
    assert_eq!(tree_records, records, "{what}: what the sinks received");
    let summary = vm.log().summary();
    assert_eq!(counted(&records), summary, "{what}: counters vs records");
    assert_eq!(tree.log().summary(), summary, "{what}: counters, tree");
    assert_eq!(bare.log().summary(), summary, "{what}: counters, bare");
    summary
}

fn run(cases: &[Case]) {
    for case in cases {
        for seed in 0..SEEDS {
            lockstep(case, 2003 + seed, true);
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
        policy: BackoffPolicy::exponential(ARENA_BACKOFF.0, ARENA_BACKOFF.1),
        ..ftshlint::Options::default()
    };
    for d in Discipline::ALL {
        let arena = arena_text(d, 4, SERVE_FDS);
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
                assert_eq!(report.envelope, Dur::from_secs(6) * 4, "{d}");
            }
        }
    }
}

/// What the generated and corpus scripts leave thin: `forall` in a long
/// retry loop (branch tasks retiring by the hundred), and every corner
/// of the call path — argument counts, `$0`/`$*`/unbound positionals,
/// shadow and restore, the recursion guard, dynamic dispatch,
/// positionals reached only through a computed name, and a deadline
/// unwinding through calls.
const CALL_AND_LOOP_CASES: [(&str, &str); 9] = [
    (
        "forall-in-try-300",
        "try 300 times every 1 ms\n\
           forall p in a b c\n\
             try for 5 seconds\n\
               probe ${p} -> got\n\
               work ${p} ${got}\n\
             end\n\
           end\n\
           failure\n\
         end\n",
    ),
    (
        "forall-in-function-in-forall-branch",
        "function fan\n\
           forall q in x y\n\
             work ${0} ${1} ${q} ${*}\n\
           end\n\
           n=2\n\
           forall r in u v\n\
             cat ${r} -< ${n}\n\
           end\n\
         end\n\
         forall p in a b\n\
           fan ${p} extra\n\
         end\n",
    ),
    (
        "argument-counts",
        "function show\n\
           echo ${0} ${1} ${3} ${12} ${13} ${*}\n\
         end\n\
         try 3 times every 1 ms\n\
           show\n\
           show one\n\
           show one two three\n\
           show a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 a11 a12\n\
           echo top ${0} ${1} ${*}\n\
         end\n",
    ),
    (
        "shadow-and-restore",
        "function inner\n\
           echo inner ${0} ${1} ${2} ${*} ${007}\n\
         end\n\
         function outer\n\
           echo before ${1} ${2} ${*} ${007}\n\
           inner ${2} shadow\n\
           echo between ${1} ${2} ${*}\n\
           inner\n\
           echo after ${0} ${1} ${2} ${*}\n\
         end\n\
         n=1\n\
         try 5 times every 1 ms\n\
           echo kept -> ${n}\n\
           echo spelt -> 007\n\
         end\n\
         try 3 times every 1 ms\n\
           outer first second\n\
         end\n\
         cat ${007} -< ${n}\n",
    ),
    (
        "recursion-guard",
        "function down\n\
           n=${n}x\n\
           down ${n} ${1}\n\
         end\n\
         try 1 times\n\
           down seed\n\
         catch\n\
           echo reached ${n} ${1}\n\
         end\n",
    ),
    (
        "dynamic-dispatch",
        "function greet\n\
           echo hello ${1} ${2} ${*}\n\
         end\n\
         try 3 times every 1 ms\n\
           cmd=greet\n\
           ${cmd} a b\n\
           cmd=external\n\
           ${cmd} a b\n\
         end\n",
    ),
    (
        "computed-positional-names",
        "function noop\n\
           success\n\
         end\n\
         function feed\n\
           n=1\n\
           cat -< ${n}\n\
           noop p q r\n\
           cat -< ${n}\n\
           n=*\n\
           cat -< ${n}\n\
           n=2\n\
           more ->> ${n}\n\
           cat -< ${n}\n\
           n=7\n\
           cat -< ${n}\n\
           n=0\n\
           cat -< ${n}\n\
         end\n\
         n=1\n\
         try 5 times every 1 ms\n\
           echo kept -> ${n}\n\
         end\n\
         try 4 times every 1 ms\n\
           feed alpha beta\n\
         end\n\
         n=1\n\
         cat -< ${n}\n\
         n=*\n\
         cat -< ${n}\n",
    ),
    (
        "computed-positional-names-with-static-mentions",
        "function feed\n\
           n=1\n\
           cat ${1} -< ${n}\n\
           n=*\n\
           cat ${*} -< ${n}\n\
           more ->> ${n}\n\
           cat ${*} -< ${n}\n\
         end\n\
         try 4 times every 1 ms\n\
           feed alpha beta\n\
         end\n",
    ),
    (
        "deadline-unwinds-two-calls",
        "function leaf\n\
           hang ${1} ${*}\n\
         end\n\
         function mid\n\
           leaf ${2} deeper\n\
         end\n\
         function top\n\
           try for 5 seconds\n\
             mid ${1} below\n\
           catch\n\
             echo caught ${0} ${1} ${*}\n\
           end\n\
           echo after ${0} ${1} ${*}\n\
         end\n\
         top arg\n",
    ),
];

#[test]
fn forall_loops_and_the_call_path_run_in_lockstep() {
    for (name, source) in CALL_AND_LOOP_CASES {
        let case = Case {
            name: name.to_string(),
            script: parse(source).unwrap_or_else(|e| panic!("{name}: {e}")),
            backoff: BackoffPolicy::ethernet(),
        };
        for seed in 0..SEEDS {
            let summary = lockstep(&case, 2003 + seed, false);
            match name {
                // The outer try runs out its whole budget, every seed.
                "forall-in-try-300" => assert!(summary.attempts >= 300, "{name}: {summary:?}"),
                "deadline-unwinds-two-calls" => {
                    assert_eq!(summary.commands_cancelled, 1, "{name}: {summary:?}");
                }
                _ => {}
            }
        }
    }
}

/// Every way a command names where its output goes or what it runs:
/// a literal capture target (bound through its compiled slot), `->>`,
/// a target computed at run time, a positional target inside a
/// function, and a computed argv\[0\] — the one program name a
/// running command keeps — killed by a `try` deadline and by a failing
/// `forall` sibling.
const CAPTURE_CASES: [(&str, &str); 6] = [
    (
        "literal-capture",
        "probe -> n\n\
         if ${n} .lt. 5\n\
           low ${n}\n\
         else\n\
           high ${n}\n\
         end\n\
         probe -> unread\n",
    ),
    (
        "append-capture",
        "probe ->> log\n\
         probe ->> log\n\
         probe > file ->> log\n\
         echo ${log}\n",
    ),
    (
        "computed-target",
        "v=out\n\
         probe -> ${v}\n\
         echo ${out}\n\
         w=spilled\n\
         probe ->> ${w}\n\
         probe ->> ${w}\n\
         cat -< ${w}\n",
    ),
    (
        "positional-target-in-a-function",
        "function f\n\
           probe -> 1\n\
           echo ${1} ${2}\n\
           probe ->> 2\n\
           cat -< 2\n\
         end\n\
         function g\n\
           probe -> 3\n\
           cat -< 3\n\
         end\n\
         f a b\n\
         g\n\
         echo ${1}\n",
    ),
    (
        "computed-program-killed-by-a-deadline",
        "p=hang\n\
         try for 5 seconds\n\
           ${p} x -> out\n\
         catch\n\
           success\n\
         end\n\
         q=ha\n\
         try for 5 seconds\n\
           ${q}ng ${p}\n\
         end\n",
    ),
    (
        "computed-program-killed-by-a-sibling",
        "try for 5 seconds\n\
           forall q in hang fail\n\
             ${q} now -> got\n\
           end\n\
         end\n",
    ),
];

#[test]
fn capture_targets_and_computed_programs_run_in_lockstep() {
    for (name, source) in CAPTURE_CASES {
        let case = Case {
            name: name.to_string(),
            script: parse(source).unwrap_or_else(|e| panic!("{name}: {e}")),
            backoff: BackoffPolicy::ethernet(),
        };
        let summaries: Vec<_> = (0..SEEDS)
            .map(|seed| lockstep(&case, 2003 + seed, false))
            .collect();
        let killed = summaries.iter().map(|s| s.commands_cancelled);
        let (least, most) = (killed.clone().min(), killed.max());
        match name {
            "computed-program-killed-by-a-deadline" => assert!(least >= Some(2), "{name}"),
            // Killed by the failing sibling, or else by the deadline.
            "computed-program-killed-by-a-sibling" => assert!(least >= Some(1), "{name}"),
            _ => assert_eq!(most, Some(0), "{name}"),
        }
    }
}

/// How many seeded scripts from the shared generator each run checks.
const GENERATED: u64 = 384;

/// Generated scripts: case `gen/N` is `gen::script(N)` run at seed `N`,
/// with every command answered, so one number replays a failure.
#[test]
fn generated_scripts_run_in_lockstep() {
    for seed in 0..GENERATED {
        let case = Case {
            name: format!("gen/{seed}"),
            script: gen::script(seed),
            backoff: BackoffPolicy::ethernet(),
        };
        lockstep(&case, seed, false);
    }
}

#[test]
fn corpus_example_and_procman_scripts_run_in_lockstep() {
    run(&file_cases("conformance", 22));
    run(&file_cases("../../examples/ftsh", 5));
    run(&file_cases("../procman/tests/scripts", 9));
}
