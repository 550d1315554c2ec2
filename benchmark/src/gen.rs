//! Inputs of the `ftsh_scripts` workload: the repository's script
//! corpus, seeded generated scripts, and the five VM shapes — plus the
//! loop that drives a [`Vm`] with instant modelled completions.

use ftsh::vm::{CmdResult, CommandSpec, Effect, Vm, VmStatus};
use retry::Time;
use simgrid::SimRng;
use std::fmt::Write as _;
use std::path::Path;

/// Repository root: the benchmark is always built inside the checkout
/// it measures.
pub const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Directories holding the repository's `.ftsh` corpus (conformance
/// matrix, real-shell tests, examples).
const CORPUS_DIRS: [&str; 3] = [
    "crates/bench/conformance",
    "crates/procman/tests/scripts",
    "examples/ftsh",
];

/// Scripts the corpus held when the benchmark was defined; a different
/// count means the toolchain phase no longer measures the same work.
pub const CORPUS_SCRIPTS: usize = 36;

/// Statement counts of the generated scripts. Fixed, so that the
/// toolchain's work per pass is the same size at every seed; the seed
/// picks the statements.
pub const GENERATED_SIZES: [usize; 6] = [10, 30, 100, 300, 1000, 2000];

/// Load the corpus as `(relative path, source)`, sorted by path.
pub fn load_corpus() -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for dir in CORPUS_DIRS {
        for entry in std::fs::read_dir(Path::new(REPO_ROOT).join(dir))? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "ftsh") {
                let name = path.file_name().expect("a file").to_string_lossy();
                out.push((format!("{dir}/{name}"), std::fs::read_to_string(&path)?));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// One generated top-level statement (possibly a small block), counted
/// as however many statements it holds. Draws only from `rng`.
fn statement(rng: &mut SimRng, out: &mut String, k: usize) -> usize {
    match rng.range_u64(0, 8) {
        0 => {
            let _ = writeln!(out, "v{}=item-{k}", k % 7);
            1
        }
        1 => {
            let _ = writeln!(
                out,
                "fetch-{} ${{v{}}} --id {k} -> out{}",
                k % 5,
                k % 7,
                k % 3
            );
            1
        }
        2 => {
            let _ = writeln!(
                out,
                "stage \"block ${{v{}}} of {k}\" path/${{out{}}}/data",
                k % 7,
                k % 3
            );
            1
        }
        3 => {
            let _ = writeln!(
                out,
                "if ${{n{}}} .lt. {}\n  defer {k}\nelse\n  proceed {k} ${{v{}}}\nend",
                k % 4,
                rng.range_u64(1, 5000),
                k % 7
            );
            3
        }
        4 => {
            let _ = writeln!(
                out,
                "try for {} seconds or {} times\n  transfer ${{v{}}} host-{k}\nend",
                rng.range_u64(5, 600),
                rng.range_u64(2, 9),
                k % 7
            );
            2
        }
        5 => {
            let _ = writeln!(
                out,
                "forany host in alpha-{k} beta-{k} gamma-{k}\n  try for {} seconds\n    wget http://${{host}}/f{k}\n  end\nend",
                rng.range_u64(5, 120)
            );
            3
        }
        6 => {
            let _ = writeln!(
                out,
                "forall part in p0 p1 p2 p3\n  try {} times every {} ms\n    publish ${{part}} {k} -> ack{}\n  end\nend",
                rng.range_u64(2, 6),
                rng.range_u64(10, 500),
                k % 3
            );
            3
        }
        _ => {
            let _ = writeln!(out, "helper{} {k} ${{v{}}}", k % 3, k % 7);
            1
        }
    }
}

/// A script of at least `statements` statements drawn from `rng`:
/// three helper functions up front (so calls resolve statically), then
/// a flat mix of assignments, commands with interpolated words and
/// captures, `if`, `try`, `forany` and `forall` blocks.
pub fn generate_script(rng: &mut SimRng, statements: usize) -> String {
    let mut s = String::new();
    for f in 0..3 {
        let _ = writeln!(
            s,
            "function helper{f}\n  note ${{1}} ${{2}} -> last{f}\nend"
        );
    }
    let mut n = 6;
    let mut k = 0;
    while n < statements {
        n += statement(rng, &mut s, k);
        k += 1;
    }
    s
}

/// The generated scripts for a seed, one per entry of [`GENERATED_SIZES`].
pub fn generate_scripts(seed: u64) -> Vec<String> {
    let root = SimRng::new(seed ^ 0x5C81_97E5);
    GENERATED_SIZES
        .iter()
        .enumerate()
        .map(|(i, &n)| generate_script(&mut root.fork(i as u64), n))
        .collect()
}

/// A VM shape: a script whose outer `try N times` body is one *iter*,
/// so the work per iter is fixed by the script and not by how the
/// interpreter slices ticks.
pub struct Shape {
    /// Short name (`straight`, `calls`, …).
    pub name: &'static str,
    /// ftsh source.
    pub source: String,
    /// Iters one run performs (the outer `try` count).
    pub iters: u64,
    /// Commands one run must start, for the output check.
    pub commands: u64,
}

/// Iters per run of a shape. Every outer body ends in `failure`, so
/// the outer `try` always runs out its whole budget.
pub const SHAPE_ITERS: u64 = 200;

/// One step of work, the same in `straight` and `calls`: a capture, a
/// comparison on it, an assignment built from two variables, and a
/// command taking both.
const STEP: &str = "probe ${a} -> got\n\
                    if ${got} .eql. ok\n\
                      b=${a}-${got}\n\
                    else\n\
                      b=none\n\
                    end\n\
                    work ${a} ${b}\n";
const STEPS_PER_ITER: u64 = 8;

fn indent(block: &str) -> String {
    block.lines().fold(String::new(), |mut s, l| {
        let _ = writeln!(s, "  {l}");
        s
    })
}

/// The five shapes. Program names carry the modelled result (see
/// [`model`]): `probe` prints `ok`, `flaky-N` fails until its N-th
/// start in a row, `refuse` fails, everything else succeeds.
pub fn shapes() -> Vec<Shape> {
    let wrap = |body: &str| {
        format!(
            "a=seed\ntry {SHAPE_ITERS} times every 1 ms\n{}  failure\nend\n",
            indent(body)
        )
    };
    let straight = STEP.repeat(STEPS_PER_ITER as usize);
    // The same steps, each behind a function call with two positionals
    // (the second unused: it is there to be bound and restored).
    let step_fn = format!(
        "function step\n{}end\n",
        indent(&STEP.replace("${a}", "${1}"))
    );
    let calls = "step ${a} x\n".repeat(STEPS_PER_ITER as usize);
    let forany = "forany host in h1 h2 h3 h4\n  \
                    if ${host} .neql. h4\n    refuse ${host}\n  else\n    work ${host}\n  end\n\
                  end\n"
        .repeat(2);
    let forall = "forall part in p0 p1 p2 p3\n  probe ${part} -> got\n  work ${part} ${got}\nend\n"
        .repeat(2);
    let retry = "try 4 times\n  flaky-3 ${a}\nend\ntry for 30 seconds\n  flaky-3 ${a}\nend\n";
    vec![
        Shape {
            name: "straight",
            source: wrap(&straight),
            iters: SHAPE_ITERS,
            commands: SHAPE_ITERS * STEPS_PER_ITER * 2,
        },
        Shape {
            name: "calls",
            source: format!("{step_fn}{}", wrap(&calls)),
            iters: SHAPE_ITERS,
            commands: SHAPE_ITERS * STEPS_PER_ITER * 2,
        },
        Shape {
            name: "forany",
            source: wrap(&forany),
            iters: SHAPE_ITERS,
            commands: SHAPE_ITERS * 2 * 4,
        },
        Shape {
            name: "forall",
            source: wrap(&forall),
            iters: SHAPE_ITERS,
            commands: SHAPE_ITERS * 2 * 4 * 2,
        },
        Shape {
            name: "retry",
            source: wrap(retry),
            iters: SHAPE_ITERS,
            commands: SHAPE_ITERS * 2 * 3,
        },
    ]
}

/// The modelled plant behind [`drive`]: decides each command's result
/// from its program name alone, instantly.
#[derive(Default)]
pub struct Model {
    /// Consecutive `flaky-N` starts since the last success.
    flaky_streak: u64,
}

impl Model {
    fn result(&mut self, spec: &CommandSpec) -> CmdResult {
        let program = spec.program();
        if let Some(n) = program.strip_prefix("flaky-") {
            self.flaky_streak += 1;
            if self.flaky_streak < n.parse().unwrap_or(1) {
                return CmdResult::fail();
            }
            self.flaky_streak = 0;
            return CmdResult::ok("");
        }
        match program {
            "refuse" => CmdResult::fail(),
            "probe" => CmdResult::ok("ok"),
            // Carrier-sense reads of the scenario scripts: plenty free.
            "cut" | "estimate-space" => CmdResult::ok("5000"),
            "make-output" => CmdResult::ok("100"),
            _ => CmdResult::ok(""),
        }
    }
}

/// What one driven run did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// The script's outcome; `None` if the VM stalled (no command in
    /// flight, no wake-up due — a bug in the VM or the script).
    pub success: Option<bool>,
    /// Commands started.
    pub commands: u64,
    /// Calls to `tick_into`.
    pub ticks: u64,
}

/// Drive `vm` to completion on a virtual clock: every started command
/// completes at once with the [`Model`]'s result, and the clock jumps
/// straight to each wake-up.
pub fn drive(vm: &mut Vm, effects: &mut Vec<Effect>) -> RunResult {
    let mut model = Model::default();
    let mut now = Time::ZERO;
    let mut run = RunResult {
        success: None,
        commands: 0,
        ticks: 0,
    };
    loop {
        run.ticks += 1;
        let status = vm.tick_into(now, effects);
        let mut started = false;
        for e in effects.drain(..) {
            if let Effect::Start { token, spec, .. } = e {
                started = true;
                run.commands += 1;
                vm.complete(token, model.result(&spec));
                vm.recycle_spec(spec);
            }
        }
        match status {
            VmStatus::Done { success } => {
                run.success = Some(success);
                return run;
            }
            VmStatus::Running {
                next_wake: Some(at),
            } if !started => now = now.max(at),
            VmStatus::Running { next_wake: None } if !started => return run,
            VmStatus::Running { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(generate_scripts(2003), generate_scripts(2003));
        assert_ne!(generate_scripts(2003), generate_scripts(2004));
    }

    #[test]
    fn generated_scripts_parse_compile_and_have_their_size() {
        for seed in [0, 1, 2003, u64::MAX] {
            for (src, &want) in generate_scripts(seed).iter().zip(&GENERATED_SIZES) {
                let script =
                    ftsh::parse(src).unwrap_or_else(|e| panic!("seed {seed}: {e:?}\n{src}"));
                let prog = ftsh::bytecode::compile(&script.stmts);
                assert!(!prog.ops.is_empty());
                let stmts = src
                    .lines()
                    .filter(|l| !matches!(l.trim(), "end" | "else"))
                    .count();
                assert!(
                    (want..want + 3).contains(&stmts),
                    "{stmts} statements, want {want}"
                );
            }
        }
    }

    #[test]
    fn shapes_run_their_declared_work() {
        for shape in shapes() {
            let script =
                ftsh::parse(&shape.source).unwrap_or_else(|e| panic!("{}: {e:?}", shape.name));
            let mut vm = Vm::with_seed(&script, 7);
            let run = drive(&mut vm, &mut Vec::new());
            // The outer body always ends in `failure`: the try runs out.
            assert_eq!(run.success, Some(false), "{}", shape.name);
            assert_eq!(run.commands, shape.commands, "{}", shape.name);
            assert_eq!(vm.log().summary().exhausted_tries, 1, "{}", shape.name);
        }
    }

    #[test]
    fn straight_and_calls_do_the_same_commands() {
        let all = shapes();
        assert_eq!(all[0].commands, all[1].commands);
    }

    #[test]
    fn corpus_is_the_pinned_size_and_parses() {
        let corpus = load_corpus().expect("corpus directories exist");
        assert_eq!(corpus.len(), CORPUS_SCRIPTS);
        for (path, src) in &corpus {
            ftsh::parse(src).unwrap_or_else(|e| panic!("{path}: {e:?}"));
        }
    }
}
