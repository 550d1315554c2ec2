//! Differential sim ↔ real conformance: one corpus, three interpreters.
//!
//! The paper's central claim is that ftsh's semantics are *portable
//! across execution substrates*: the same script means the same thing
//! whether its commands are real POSIX processes (§4's process
//! manager) or simulated completions (the gridworld reproduction).
//! This module tests that claim mechanically — and, since the
//! interpreter is a compiled one, that it agrees with the tree-walking
//! reference semantics. Every corpus script in
//! `crates/bench/conformance/` is run three times under an equivalent
//! [`FaultPlan`]:
//!
//! * **tree** — the tree-walking oracle ([`ftsh::tree::TreeVm`],
//!   compiled only for this harness) driven by a virtual clock; command
//!   behaviour comes from a small closed model (`true`, `false`,
//!   `echo`, `cat`, and the `unreliable`/`slow`/`noisy` fault shims)
//!   with failures drawn from the plan's `cmd-fail-first` specs;
//! * **byte** — the same script and model under [`ftsh::Vm`], the
//!   bytecode interpreter everything else in the workspace runs;
//! * **real** — the VM driven by `procman` against real processes,
//!   with `unreliable`/`slow`/`noisy` realised as generated shell
//!   shims whose failure budgets are seeded from the *same* plan.
//!
//! Each pair of runs is diffed on three axes: final script status,
//! final bindings of every observable variable (assignments and `->`
//! captures, collected from the AST), and the multiset of structured
//! trace tags the VM emitted (attempts, backoffs, command spans,
//! kills). Any difference is a *divergence* — evidence either that
//! simulated failure semantics have drifted from the real ones, or
//! that the bytecode lowering has drifted from the reference walker.
//! (The finer-grained tick-by-tick comparison of the two simulated
//! machines is `tests/lockstep.rs`.)

use ftsh::tree::TreeVm;
use ftsh::vm::{CmdInput, CmdResult, CmdToken, CommandSpec, Effect, Tick, Vm, VmStatus};
use ftsh::{parse, Env, Redir, RedirTarget, Script, Seg, Stmt};
use retry::{Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan};
use simgrid::trace::{SharedSink, TraceRecord, VecSink};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default plan seed when a corpus script has no `.plan.json` sidecar.
pub const DEFAULT_PLAN_SEED: u64 = 2003;

/// Hard cap on sim executor steps — a stalled VM is a harness bug, not
/// a divergence, and should abort loudly.
const MAX_SIM_STEPS: usize = 1_000_000;

/// One corpus entry: a script plus the fault plan both sides run under.
#[derive(Clone, Debug)]
pub struct CorpusScript {
    /// File stem (e.g. `04_retry_unreliable`).
    pub name: String,
    /// Script source text.
    pub source: String,
    /// The fault plan (empty default when no sidecar exists).
    pub plan: FaultPlan,
}

/// What one interpreter produced, projected onto the comparable axes.
#[derive(Clone, Debug, PartialEq)]
pub struct Observation {
    /// Did the script as a whole succeed?
    pub success: bool,
    /// Final value of every observable variable (unset reads as `""`).
    pub bindings: BTreeMap<String, String>,
    /// Structured-trace tag → occurrence count.
    pub trace_counts: BTreeMap<&'static str, usize>,
}

/// The verdict for one corpus script across the 3-way matrix.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Corpus entry name.
    pub name: String,
    /// Simulated observation from the tree-walking oracle.
    pub sim: Observation,
    /// Simulated observation from the interpreter ([`Vm`]).
    pub sim_byte: Observation,
    /// Real-process observation.
    pub real: Observation,
    /// Human-readable divergences (labelled by the pair that
    /// disagreed); empty means conformant on all three axes.
    pub divergences: Vec<String>,
}

impl Verdict {
    /// Conformant?
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The corpus directory shipped with this crate.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("conformance")
}

/// Load every `*.ftsh` script (sorted by name) plus its optional
/// `<stem>.plan.json` sidecar from `dir`.
pub fn discover(dir: &Path) -> Result<Vec<CorpusScript>, String> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ftsh"))
        .collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let sidecar = path.with_extension("plan.json");
        let plan = if sidecar.exists() {
            let text = std::fs::read_to_string(&sidecar)
                .map_err(|e| format!("read {}: {e}", sidecar.display()))?;
            FaultPlan::parse_json(&text).map_err(|e| format!("{}: {e}", sidecar.display()))?
        } else {
            FaultPlan::new(DEFAULT_PLAN_SEED)
        };
        out.push(CorpusScript { name, source, plan });
    }
    Ok(out)
}

/// Every variable a script can observably bind: assignment targets and
/// literal `-> var` capture names, collected recursively. Loop
/// variables are deliberately excluded — their final value depends on
/// scheduling interleavings the two substrates need not share.
pub fn observable_vars(script: &Script) -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    collect_vars(&script.stmts, &mut vars);
    vars
}

fn collect_vars(block: &ftsh::ast::Block, vars: &mut BTreeSet<String>) {
    for stmt in block {
        match stmt {
            Stmt::Assign { var, .. } => {
                vars.insert(var.clone());
            }
            Stmt::Command(cmd) => {
                for redir in &cmd.redirs {
                    if let Redir::Out {
                        to: RedirTarget::Variable,
                        target,
                        ..
                    } = redir
                    {
                        // Only statically-named captures are comparable.
                        if let [Seg::Lit(name)] = target.segs() {
                            vars.insert(name.to_string());
                        }
                    }
                }
            }
            Stmt::Try { body, catch, .. } => {
                collect_vars(body, vars);
                if let Some(c) = catch {
                    collect_vars(c, vars);
                }
            }
            Stmt::ForAny { body, .. } | Stmt::ForAll { body, .. } => collect_vars(body, vars),
            Stmt::If { then, els, .. } => {
                collect_vars(then, vars);
                if let Some(e) = els {
                    collect_vars(e, vars);
                }
            }
            Stmt::Function { body, .. } => collect_vars(body, vars),
            Stmt::Failure | Stmt::Success => {}
        }
    }
}

fn tag_counts(records: &[TraceRecord]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for r in records {
        *counts.entry(r.ev.tag()).or_insert(0) += 1;
    }
    counts
}

fn bindings_of(env: &Env, vars: &BTreeSet<String>) -> BTreeMap<String, String> {
    vars.iter()
        .map(|v| (v.clone(), env.get(v).to_string()))
        .collect()
}

fn basename(program: &str) -> &str {
    program.rsplit('/').next().unwrap_or(program)
}

/// The closed command model the simulated side runs against. Mirrors
/// what the generated real shims do, with virtual latencies.
fn model_command(
    spec: &CommandSpec,
    plan: &FaultPlan,
    fail_left: &mut HashMap<String, u32>,
) -> (Dur, CmdResult) {
    let tick = Dur::from_millis(1);
    match basename(spec.program()) {
        "true" => (tick, CmdResult::ok("")),
        // No shim is written for `missing`: the real side cannot load
        // it, and §2 makes that just another failure.
        "false" | "missing" => (tick, CmdResult::fail()),
        "echo" => {
            let mut out = spec.argv[1..].join(" ");
            out.push('\n');
            (tick, CmdResult::ok(out))
        }
        "cat" => match &spec.input {
            Some(CmdInput::Data(data)) => (tick, CmdResult::ok(data.clone())),
            _ => (tick, CmdResult::fail()),
        },
        "unreliable" => {
            let name = spec.argv.get(1).cloned().unwrap_or_default();
            let left = fail_left
                .entry(name.to_string())
                .or_insert_with(|| plan.fail_first(&name));
            if *left > 0 {
                *left -= 1;
                (tick, CmdResult::fail())
            } else {
                (tick, CmdResult::ok(format!("ok {name}\n")))
            }
        }
        "slow" => {
            let secs: f64 = spec.argv.get(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
            (Dur::from_secs_f64(secs), CmdResult::ok("done\n"))
        }
        "noisy" => {
            // One line to each stream; stderr reaches the capture only
            // through a `->&` merge, mirroring the real shim where the
            // session pipes stderr only when `both` is set.
            let name = spec.argv.get(1).cloned().unwrap_or_default();
            let mut out = format!("out {name}\n");
            if spec.both {
                let _ = writeln!(out, "err {name}");
            }
            (tick, CmdResult::ok(out))
        }
        other => panic!("conformance model: unknown program {other:?}"),
    }
}

fn sim_env(shimdir: &str) -> Env {
    let mut env = Env::new();
    env.set("shimdir", shimdir);
    env
}

/// Run a corpus script through the interpreter ([`Vm`]) on the
/// simulated side, under `plan`.
pub fn run_sim(script: &Script, plan: &FaultPlan, shimdir: &str) -> Observation {
    let vm = Vm::with_env_seed(script, sim_env(shimdir), plan.seed);
    drive_sim(
        vm,
        Vm::set_tracer,
        Vm::tick,
        Vm::complete,
        Vm::env,
        script,
        plan,
    )
}

/// [`run_sim`] on the tree-walking oracle.
pub fn run_sim_tree(script: &Script, plan: &FaultPlan, shimdir: &str) -> Observation {
    let vm = TreeVm::with_env_seed(script, sim_env(shimdir), plan.seed);
    drive_sim(
        vm,
        TreeVm::set_tracer,
        TreeVm::tick,
        TreeVm::complete,
        TreeVm::env,
        script,
        plan,
    )
}

/// The simulated executor, written once for both machines: they share
/// no trait, only the four methods passed in.
fn drive_sim<M>(
    mut vm: M,
    set_tracer: fn(&mut M, SharedSink, i64),
    tick: fn(&mut M, Time) -> Tick,
    complete: fn(&mut M, CmdToken, CmdResult),
    env: fn(&M) -> &Env,
    script: &Script,
    plan: &FaultPlan,
) -> Observation {
    let vars = observable_vars(script);
    let buf = Arc::new(Mutex::new(VecSink::new()));
    set_tracer(&mut vm, buf.clone(), 0);

    let mut fail_left: HashMap<String, u32> = HashMap::new();
    // (due, token, result): completions sorted by time then token so
    // delivery order is a pure function of the plan.
    let mut pending: Vec<(Time, u64, CmdResult)> = Vec::new();
    let mut now = Time::ZERO;
    for step in 0.. {
        assert!(step < MAX_SIM_STEPS, "sim executor stalled (harness bug)");
        let tick = tick(&mut vm, now);
        for eff in tick.effects {
            match eff {
                Effect::Start { token, spec, .. } => {
                    let (delay, result) = model_command(&spec, plan, &mut fail_left);
                    pending.push((now.saturating_add(delay), token, result));
                }
                Effect::Cancel { token } => pending.retain(|p| p.1 != token),
            }
        }
        match tick.status {
            VmStatus::Done { success } => {
                let records = buf.lock().unwrap().take();
                return Observation {
                    success,
                    bindings: bindings_of(env(&vm), &vars),
                    trace_counts: tag_counts(&records),
                };
            }
            VmStatus::Running { next_wake } => {
                pending.sort_by_key(|p| (p.0, p.1));
                let next_cmd = pending.first().map(|p| p.0);
                let next = match (next_cmd, next_wake) {
                    (Some(a), Some(b)) => a.min(b),
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => panic!("vm waits on nothing (harness bug)"),
                };
                now = now.max(next);
                while pending.first().is_some_and(|p| p.0 <= now) {
                    let (_, token, result) = pending.remove(0);
                    complete(&mut vm, token, result);
                }
            }
        }
    }
    unreachable!()
}

static SHIM_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Generate the real-side shim directory for `plan`: executable
/// `unreliable`, `slow`, and `noisy` shell scripts, plus per-name
/// `fail-NAME` budget files under `state/` seeded from the plan's
/// `cmd-fail-first` specs — the on-disk mirror of the sim model.
pub fn write_shims(plan: &FaultPlan) -> std::io::Result<PathBuf> {
    let dir = std::env::temp_dir().join(format!(
        "eg-conform-{}-{}",
        std::process::id(),
        SHIM_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let state = dir.join("state");
    std::fs::create_dir_all(&state)?;

    let unreliable = r#"#!/bin/sh
# Fail while the plan-seeded budget file holds a positive count.
f="$(dirname "$0")/state/fail-$1"
n=0
[ -f "$f" ] && n=$(cat "$f")
if [ "$n" -gt 0 ]; then
  echo $((n - 1)) > "$f"
  exit 1
fi
echo "ok $1"
"#;
    let slow = r#"#!/bin/sh
sleep "$1"
echo done
"#;
    let noisy = r#"#!/bin/sh
echo "out $1"
echo "err $1" >&2
"#;
    for (name, body) in [("unreliable", unreliable), ("slow", slow), ("noisy", noisy)] {
        let path = dir.join(name);
        std::fs::write(&path, body)?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755))?;
        }
    }
    let mut budgets: BTreeMap<&str, u32> = BTreeMap::new();
    for spec in &plan.specs {
        if let FaultKind::CmdFailFirst { program, n } = &spec.kind {
            *budgets.entry(program.as_str()).or_insert(0) += n;
        }
    }
    for (program, n) in budgets {
        std::fs::write(state.join(format!("fail-{program}")), format!("{n}\n"))?;
    }
    Ok(dir)
}

/// Run a corpus script against real processes under `plan`.
pub fn run_real(script: &Script, plan: &FaultPlan) -> std::io::Result<Observation> {
    let vars = observable_vars(script);
    let shimdir = write_shims(plan)?;
    let mut env = Env::new();
    env.set("shimdir", shimdir.to_string_lossy().to_string());
    let vm = Vm::with_env_seed(script, env, plan.seed);
    let buf = Arc::new(Mutex::new(VecSink::new()));
    let sink: SharedSink = buf.clone();
    let opts = procman::RealOptions {
        kill_grace: std::time::Duration::from_millis(100),
        seed: Some(plan.seed),
        handle_sigterm: false,
    };
    let report = procman::run_vm_traced(vm, &opts, Some(sink));
    let records = buf.lock().unwrap().take();
    let _ = std::fs::remove_dir_all(&shimdir);
    Ok(Observation {
        success: report.success,
        bindings: bindings_of(&report.final_env, &vars),
        trace_counts: tag_counts(&records),
    })
}

/// Diff two observations into human-readable divergences, naming
/// each side (`tree`, `byte`, `real`, …) in them.
pub fn diff_labeled(a: &Observation, b: &Observation, an: &str, bn: &str) -> Vec<String> {
    let mut out = Vec::new();
    if a.success != b.success {
        out.push(format!(
            "status: {an}={} {bn}={}",
            verdict_word(a.success),
            verdict_word(b.success)
        ));
    }
    for (var, av) in &a.bindings {
        let bv = b.bindings.get(var).map(String::as_str).unwrap_or("");
        if av != bv {
            out.push(format!("binding {var}: {an}={av:?} {bn}={bv:?}"));
        }
    }
    let tags: BTreeSet<&&str> = a.trace_counts.keys().chain(b.trace_counts.keys()).collect();
    for tag in tags {
        let ac = a.trace_counts.get(*tag).copied().unwrap_or(0);
        let bc = b.trace_counts.get(*tag).copied().unwrap_or(0);
        if ac != bc {
            out.push(format!("trace {tag}: {an}={ac} {bn}={bc}"));
        }
    }
    out
}

fn verdict_word(success: bool) -> &'static str {
    if success {
        "success"
    } else {
        "failure"
    }
}

/// Run one corpus entry through the full 3-way matrix — tree-walking
/// oracle, interpreter, and real processes — and diff every pair.
pub fn check(entry: &CorpusScript) -> Result<Verdict, String> {
    let script = parse(&entry.source).map_err(|e| format!("{}: parse: {e}", entry.name))?;
    let sim = run_sim_tree(&script, &entry.plan, "/shim");
    let sim_byte = run_sim(&script, &entry.plan, "/shim");
    let real = run_real(&script, &entry.plan).map_err(|e| format!("{}: real: {e}", entry.name))?;
    let mut divergences = diff_labeled(&sim, &sim_byte, "tree", "byte");
    divergences.extend(diff_labeled(&sim, &real, "tree", "real"));
    divergences.extend(diff_labeled(&sim_byte, &real, "byte", "real"));
    Ok(Verdict {
        name: entry.name.clone(),
        sim,
        sim_byte,
        real,
        divergences,
    })
}

/// Run the whole corpus. Errors are harness failures (unreadable
/// corpus, unparseable script), not divergences.
pub fn run_corpus(dir: &Path) -> Result<Vec<Verdict>, String> {
    let corpus = discover(dir)?;
    if corpus.is_empty() {
        return Err(format!("empty corpus at {}", dir.display()));
    }
    corpus.iter().map(check).collect()
}

/// Render verdicts as a markdown divergence report (the CI artifact).
pub fn report(verdicts: &[Verdict]) -> String {
    let diverged = verdicts.iter().filter(|v| !v.ok()).count();
    let mut out = String::new();
    let _ = writeln!(out, "# Tree ↔ bytecode ↔ real conformance report\n");
    let _ = writeln!(
        out,
        "{} scripts, {} conformant, {} diverged.\n",
        verdicts.len(),
        verdicts.len() - diverged,
        diverged
    );
    let _ = writeln!(out, "| script | tree | byte | real | divergences |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for v in verdicts {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            v.name,
            verdict_word(v.sim.success),
            verdict_word(v.sim_byte.success),
            verdict_word(v.real.success),
            if v.ok() {
                "—".to_string()
            } else {
                v.divergences.join("; ")
            }
        );
    }
    for v in verdicts.iter().filter(|v| !v.ok()) {
        let _ = writeln!(out, "\n## {}\n", v.name);
        for d in &v.divergences {
            let _ = writeln!(out, "- {d}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observable_vars_sees_assigns_captures_and_nesting() {
        let script = parse(
            "x=1\n\
             try 2 times\n  echo hi -> cap\ncatch\n  y=2\nend\n\
             if ${x} .eq. 1\n  z=3\nelse\n  w=4\nend\n\
             forany v in a b\n  echo ${v} -> inner\nend\n",
        )
        .unwrap();
        let vars = observable_vars(&script);
        let want: BTreeSet<String> = ["x", "cap", "y", "z", "w", "inner"]
            .into_iter()
            .map(String::from)
            .collect();
        assert_eq!(vars, want, "loop var v must be excluded");
    }

    #[test]
    fn sim_model_honours_fail_first_budget() {
        let plan = FaultPlan::new(1).with(simgrid::faults::FaultSpec::once(
            Time::ZERO,
            FaultKind::CmdFailFirst {
                program: "alpha".into(),
                n: 2,
            },
        ));
        let script =
            parse("try 5 times every 10 ms\n  ${shimdir}/unreliable alpha -> out\nend\n").unwrap();
        let obs = run_sim(&script, &plan, "/shim");
        assert!(obs.success);
        assert_eq!(obs.bindings["out"], "ok alpha");
        // Two failed attempts, one success.
        assert_eq!(obs.trace_counts.get("cmd-start").copied().unwrap_or(0), 3);
    }

    #[test]
    fn diff_flags_each_axis() {
        let a = Observation {
            success: true,
            bindings: [("x".to_string(), "1".to_string())].into_iter().collect(),
            trace_counts: [("cmd-start", 2)].into_iter().collect(),
        };
        let mut b = a.clone();
        assert!(diff_labeled(&a, &b, "sim", "real").is_empty());
        b.success = false;
        b.bindings.insert("x".into(), "2".into());
        b.trace_counts.insert("cmd-start", 3);
        let d = diff_labeled(&a, &b, "sim", "real");
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d[1].contains("sim=\"1\" real=\"2\""), "{d:?}");
    }
}
