//! Whole-workflow static checking: bytecode retry envelopes joined
//! with per-script key effects and the fault plan.
//!
//! Three layers, each feeding the next:
//!
//! 1. **Retry envelope** — [`envelope_report`] derives the worst-case
//!    retry envelope (the arithmetic is `crate::budget`'s) by walking
//!    the compiled [`Prog`] — the same program the interpreter runs,
//!    so the bound is about the code that executes. It is the only
//!    envelope derivation: `lint_script` reports it and its
//!    unbounded-call diagnostics, [`check`] budgets jobs with it.
//! 2. **Key effects** — [`crate::keyflow::key_effects`] summarizes
//!    each job's store traffic: what it publishes, what it must fetch
//!    first, and under which retry budget.
//! 3. **Workflow join** — [`check`] takes a [`WorkflowSpec`] (one
//!    summary-able job per participant), an optional
//!    [`FaultPlan`], and a horizon, then decides feasibility *before
//!    any simulation runs*: undeclared dependencies, declared edges no
//!    script actually uses, runtime key cycles invisible to the
//!    declared DAG, barriers over a peer the plan kills for good, and
//!    publishes doomed by a permanent ENOSPC blackout.
//!
//! ## Soundness direction
//!
//! The checker is sound for *dooming*, not for *blessing*: a
//! [`Verdict::Doomed`] workflow provably stalls (every producer of
//! some required key is dead or transitively gated on one), while
//! [`Verdict::Clean`] only means no such proof exists — scheduling
//! races or faults landing after a publish can still hurt. When any
//! job summary is opaque (computed command names, recursion), the
//! would-be errors degrade to warnings: the abstract interpreter can
//! no longer enumerate every produce, so nothing is provable.

use crate::budget::{pattern_can_match, sat_add, sat_mul, try_cost};
use crate::keyflow::{key_effects, KeyEffects};
use crate::Severity;
use ftsh::bytecode::{compile_cached, CmdTpl, FuncRef, Ip, Op, Prog, SegTpl, WordTpl, NO_CATCH};
use ftsh::{Script, Span};
use gridworld::coord::{allreduce_text, dag_job_script_text, DagSpec};
use retry::{BackoffPolicy, Discipline, Dur, Time};
use simgrid::faults::FaultPlan;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Bytecode retry envelope
// ---------------------------------------------------------------------

/// What the envelope walk found: the bound, and the two constructs
/// that have no finite one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnvelopeReport {
    /// Worst-case retry envelope of the whole script ([`Dur::MAX`] =
    /// unbounded).
    pub envelope: Dur,
    /// Functions at which a call-graph cycle closed (each charged
    /// [`Dur::MAX`]), sorted by name, with a representative source
    /// span from the body.
    pub recursive: Vec<(String, Span)>,
    /// argv\[0\] spans of call sites that are computed and could name
    /// a defined function: the callee set is unknown, charged
    /// [`Dur::MAX`].
    pub dynamic: Vec<Span>,
}

/// Worst-case retry envelope of a compiled program under `policy`,
/// with the call sites that made it unbounded.
///
/// Group cost is the sum of statement costs (including statements
/// after a `failure`: an upper bound may over-count), `if` is the max
/// over branches, `try` goes through `budget::try_cost`, `forany`
/// multiplies its body by the alternative count, `forall` branches run
/// concurrently so the body counts once. Calls resolve against the
/// *whole script*, exactly as the compiler's pre-pass assigns function
/// ids — a call site is charged its callee's memoized max-over-bodies
/// summary wherever the definition appears — and the two constructs
/// with no finite static bound saturate to [`Dur::MAX`] rather than
/// silently costing zero: recursion (self- or mutual) and dynamic
/// dispatch (`${cmd} ...` that could expand to a defined function's
/// name).
#[must_use]
pub fn envelope_report(prog: &Prog, policy: &BackoffPolicy) -> EnvelopeReport {
    let mut func_entries: HashMap<u32, Vec<Ip>> = HashMap::new();
    for op in &prog.ops {
        if let Op::FuncDef { func, entry } = *op {
            func_entries.entry(func).or_default().push(entry);
        }
    }
    let mut walker = CostWalker {
        prog,
        policy,
        func_entries,
        summaries: HashMap::new(),
        in_progress: HashSet::new(),
        recursive: BTreeMap::new(),
        dynamic: Vec::new(),
    };
    let envelope = walker.cost(0, prog.ops.len() as Ip);
    EnvelopeReport {
        envelope,
        recursive: walker.recursive.into_iter().collect(),
        dynamic: walker.dynamic,
    }
}

/// The envelope alone, from source, through the process-wide bytecode
/// cache.
#[must_use]
pub fn bytecode_envelope(script: &Script, policy: &BackoffPolicy) -> Dur {
    envelope_report(&compile_cached(script), policy).envelope
}

/// Whether a `FuncRef::Dynamic` command could actually dispatch to a
/// defined function: [`pattern_can_match`] of its argv\[0\] template
/// against every function name. The compiler's `Dynamic` marking is
/// coarse (any computed argv\[0\] in a script with functions); the
/// analyses sharpen it so `${shimdir}/tool` is charged as a plain
/// external command.
pub(crate) fn could_dispatch_function(prog: &Prog, cmd: &CmdTpl) -> bool {
    let Some(&w0) = cmd.argv.first() else {
        return false;
    };
    prog.func_names.iter().any(|f| word_could_name(prog, w0, f))
}

/// [`pattern_can_match`] over a compiled word template.
fn word_could_name(prog: &Prog, wix: u32, name: &str) -> bool {
    match &prog.words[wix as usize] {
        WordTpl::Empty => name.is_empty(),
        WordTpl::Lit(l) => &**l == name,
        WordTpl::Slot(_) => true,
        WordTpl::Mixed(segs) => {
            let lits: Vec<&str> = segs
                .iter()
                .filter_map(|s| match s {
                    SegTpl::Lit(l) => Some(&**l),
                    SegTpl::Slot(_) => None,
                })
                .collect();
            let anchored_start = matches!(segs.first(), Some(SegTpl::Lit(_)));
            let anchored_end = matches!(segs.last(), Some(SegTpl::Lit(_)));
            pattern_can_match(&lits, anchored_start, anchored_end, name)
        }
    }
}

struct CostWalker<'p> {
    prog: &'p Prog,
    policy: &'p BackoffPolicy,
    func_entries: HashMap<u32, Vec<Ip>>,
    summaries: HashMap<u32, Dur>,
    in_progress: HashSet<u32>,
    recursive: BTreeMap<String, Span>,
    dynamic: Vec<Span>,
}

impl CostWalker<'_> {
    /// Max over this function's bodies (a name rebound mid-script
    /// keeps the worse bound); call-graph cycles have no finite bound.
    fn func_cost(&mut self, id: u32) -> Dur {
        if let Some(&d) = self.summaries.get(&id) {
            return d;
        }
        if !self.in_progress.insert(id) {
            let (name, span) = (
                &self.prog.func_names[id as usize],
                self.prog.func_spans[id as usize],
            );
            self.recursive.insert(name.to_string(), span);
            return Dur::MAX;
        }
        let entries = self.func_entries.get(&id).cloned().unwrap_or_default();
        let end = self.prog.ops.len() as Ip;
        let mut cost = Dur::ZERO;
        for e in entries {
            cost = cost.max(self.cost(e, end));
        }
        self.in_progress.remove(&id);
        self.summaries.insert(id, cost);
        cost
    }

    /// Cost of the linear region `[ip, end)`, stopping at the region's
    /// own result/terminator op. Control ops cost nothing; structured
    /// statements are skipped over via their recorded extents.
    fn cost(&mut self, mut ip: Ip, end: Ip) -> Dur {
        let mut total = Dur::ZERO;
        while ip < end {
            match self.prog.ops[ip as usize] {
                Op::Success
                | Op::Failure
                | Op::Jmp(_)
                | Op::JmpIfFail(_)
                | Op::Assign { .. }
                | Op::FuncDef { .. }
                | Op::TryAttempt => ip += 1,
                Op::EvalCond { cond, .. } => {
                    let tpl = &self.prog.conds[cond as usize];
                    // With an else there is a jump-over op right
                    // before it; without, the then branch runs to the
                    // join.
                    let then_end = tpl.else_ip.map_or(tpl.join, |e| e - 1);
                    let then = self.cost(ip + 1, then_end);
                    let els = tpl.else_ip.map_or(Dur::ZERO, |e| self.cost(e, tpl.join));
                    total = sat_add(total, then.max(els));
                    ip = tpl.join;
                }
                Op::TryEnter {
                    tri,
                    catch_ip,
                    end_ip,
                } => {
                    let spec = &self.prog.tries[tri as usize];
                    let body_end = if catch_ip == NO_CATCH {
                        end_ip - 1
                    } else {
                        catch_ip - 1
                    };
                    let body = self.cost(ip + 2, body_end);
                    let catch = if catch_ip == NO_CATCH {
                        Dur::ZERO
                    } else {
                        self.cost(catch_ip, end_ip - 1)
                    };
                    total = sat_add(
                        total,
                        try_cost(
                            self.policy,
                            spec.time,
                            spec.attempts,
                            spec.every,
                            body,
                            catch,
                        ),
                    );
                    ip = end_ip;
                }
                Op::ForAnyEnter { list, end_ip, .. } => {
                    let body = self.cost(ip + 1, end_ip - 1);
                    let n = self.prog.lists[list as usize].len() as u64;
                    total = sat_add(total, sat_mul(body, n));
                    ip = end_ip;
                }
                Op::ForAllEnter { end_ip, .. } => {
                    let body = self.cost(ip + 1, end_ip - 1);
                    total = sat_add(total, body);
                    ip = end_ip;
                }
                Op::Cmd(cix) => {
                    let cmd = &self.prog.cmds[cix as usize];
                    let call = match cmd.func {
                        FuncRef::Static(id) => self.func_cost(id),
                        FuncRef::Dynamic if could_dispatch_function(self.prog, cmd) => {
                            self.dynamic.push(self.prog.cmd_spans[cix as usize]);
                            Dur::MAX
                        }
                        FuncRef::Dynamic | FuncRef::None => Dur::ZERO,
                    };
                    total = sat_add(total, call);
                    ip += 1;
                }
                Op::TryResult | Op::ForAnyResult | Op::TaskEnd | Op::Ret => break,
            }
        }
        total
    }
}

// ---------------------------------------------------------------------
// Workflow model
// ---------------------------------------------------------------------

/// One summarizable unit of a workflow: a script a specific client
/// runs, with the coordination metadata the declared plan claims.
#[derive(Clone, Debug)]
pub struct WorkflowJob {
    /// Display name (DAG job name, or `r{rank}#{round}`).
    pub name: String,
    /// Client index faults address (`FaultKind::ClientKill`).
    pub client: usize,
    /// ftsh source the client runs for this unit.
    pub source: String,
    /// Variable bindings the script runs under.
    pub env: Vec<(String, String)>,
    /// Store keys the declared plan says this unit reads.
    pub declared_inputs: Vec<String>,
    /// Store keys the declared plan says this unit publishes.
    pub declared_outputs: Vec<String>,
    /// Local compute between having inputs and publishing (job
    /// runtime, or a round's compute time): a lower bound on how long
    /// the unit holds its outputs back.
    pub local_work: Dur,
    /// Earliest start relative to workflow start (round `k` cannot
    /// begin before `k` predecessor rounds of compute).
    pub not_before: Dur,
}

/// A whole workflow: every job plus the externally staged keys.
#[derive(Clone, Debug, Default)]
pub struct WorkflowSpec {
    /// All jobs, one per coordination unit.
    pub jobs: Vec<WorkflowJob>,
    /// Keys present in the store before any job runs.
    pub external: Vec<String>,
}

impl WorkflowSpec {
    /// The workflow a [`DagSpec`] runs under `run_dag`: client `i`
    /// hosts `jobs[i]`, scripts are the generated per-discipline job
    /// scripts, and keys no job produces are staged externally.
    #[must_use]
    pub fn dag(
        spec: &DagSpec,
        discipline: Discipline,
        dep_timeout: Dur,
        fetch_timeout: Dur,
    ) -> WorkflowSpec {
        let jobs = spec
            .jobs
            .iter()
            .enumerate()
            .map(|(i, job)| WorkflowJob {
                name: job.name.clone(),
                client: i,
                source: dag_job_script_text(discipline, job, dep_timeout, fetch_timeout),
                env: Vec::new(),
                declared_inputs: job.inputs.clone(),
                declared_outputs: job.outputs.clone(),
                local_work: job.runtime,
                not_before: Dur::ZERO,
            })
            .collect();
        WorkflowSpec {
            jobs,
            external: spec.external_inputs(),
        }
    }

    /// The workflow `run_allreduce` runs: one unit per `(rank, round)`
    /// pair, rank `i` on client `i`, keyed `"r{i} {k}"`. Round `k`
    /// cannot start before `k` rounds of compute, and its barrier
    /// declares every rank's key for that round as an input.
    #[must_use]
    pub fn allreduce(
        discipline: Discipline,
        n_ranks: usize,
        rounds: u32,
        round_timeout: Dur,
        fetch_timeout: Dur,
        compute_base: Dur,
    ) -> WorkflowSpec {
        let source = allreduce_text(discipline, n_ranks, round_timeout, fetch_timeout);
        let mut jobs = Vec::new();
        for round in 0..rounds {
            let barrier: Vec<String> = (0..n_ranks).map(|j| format!("r{j} {round}")).collect();
            for rank in 0..n_ranks {
                jobs.push(WorkflowJob {
                    name: format!("r{rank}#{round}"),
                    client: rank,
                    source: source.clone(),
                    env: vec![
                        ("rank".into(), format!("r{rank}")),
                        ("round".into(), format!("{round}")),
                    ],
                    declared_inputs: barrier.clone(),
                    declared_outputs: vec![format!("r{rank} {round}")],
                    local_work: compute_base,
                    not_before: compute_base * u64::from(round),
                });
            }
        }
        WorkflowSpec {
            jobs,
            external: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Findings and verdicts
// ---------------------------------------------------------------------

/// One workflow-level finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (listed in [`crate::RULES`]).
    pub rule: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// The job the finding is about, when job-scoped.
    pub job: Option<String>,
    /// The store key the finding is about, when key-scoped.
    pub key: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity, self.rule)?;
        if let Some(job) = &self.job {
            write!(f, " [job {job}]")?;
        }
        if let Some(key) = &self.key {
            write!(f, " [key `{key}`]")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The checker's overall judgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No findings above info: nothing provably wrong.
    Clean,
    /// Warnings only: risky, but completion is not excluded.
    Advisory,
    /// At least one error: the workflow provably cannot complete
    /// (some job's required key has no live producer).
    Doomed,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Clean => "clean",
            Verdict::Advisory => "advisory",
            Verdict::Doomed => "doomed",
        })
    }
}

/// Per-job summary carried in the report.
#[derive(Clone, Debug)]
pub struct JobSummary {
    /// Job name.
    pub name: String,
    /// Hosting client index.
    pub client: usize,
    /// The inferred key effects.
    pub effects: KeyEffects,
    /// Worst-case retry envelope of the job's script (bytecode walk).
    pub envelope: Dur,
}

/// Everything [`check`] decided.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// One summary per job, in spec order.
    pub jobs: Vec<JobSummary>,
    /// All findings, most severe first.
    pub findings: Vec<Finding>,
    /// The overall judgement.
    pub verdict: Verdict,
}

impl CheckReport {
    /// Findings at exactly this severity.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.severity == severity)
    }

    /// Findings under a given rule id.
    pub fn rule(&self, rule: &str) -> impl Iterator<Item = &Finding> + '_ {
        let rule = rule.to_owned();
        self.findings.iter().filter(move |f| f.rule == rule)
    }

    /// Render the report as markdown (the CI artifact format).
    #[must_use]
    pub fn markdown(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {title}\n");
        let _ = writeln!(out, "verdict: **{}**\n", self.verdict);
        let _ = writeln!(out, "| job | client | envelope | produces | requires |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for j in &self.jobs {
            let produces: Vec<&str> = j.effects.produces.iter().map(|p| p.key.as_str()).collect();
            let requires: Vec<&str> = j.effects.requires.iter().map(String::as_str).collect();
            let env = if j.envelope == Dur::MAX {
                "unbounded".to_owned()
            } else {
                format!("{:.0}s", j.envelope.as_secs_f64())
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                j.name,
                j.client,
                env,
                produces.join(", "),
                requires.join(", "),
            );
        }
        let _ = writeln!(out);
        if self.findings.is_empty() {
            let _ = writeln!(out, "no findings.");
        } else {
            for f in &self.findings {
                let _ = writeln!(out, "- {f}");
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------

/// Why a specific produce can never land.
#[derive(Clone, Copy, Debug)]
enum DeadReason {
    /// The hosting client is killed without restart no later than the
    /// produce's earliest-landing lower bound.
    Killed { at: Time },
    /// A permanent ENOSPC blackout covers every instant from `from`
    /// on, and the produce cannot land before it starts.
    Blackout { from: Time },
}

/// Check a workflow against an optional fault plan over `horizon`
/// (how far the blackout analysis looks; use the planned sim
/// duration). Uses the default (paper) backoff policy for envelopes.
#[must_use]
pub fn check(spec: &WorkflowSpec, plan: Option<&FaultPlan>, horizon: Dur) -> CheckReport {
    check_with(spec, plan, horizon, &BackoffPolicy::ethernet())
}

/// [`check`] under an explicit backoff policy.
///
/// The pipeline: summarize every job ([`key_effects`] +
/// [`bytecode_envelope`]), run the structural rules (parse errors,
/// never-completing scripts, undeclared dependencies, dead declared
/// edges), then the feasibility core — a lower-bound relaxation on
/// key availability times, fault-death marking per produce, and a
/// producibility fixpoint whose complement is classified into
/// missing-producer / unsatisfiable-barrier / budget-infeasible /
/// key-cycle findings.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn check_with(
    spec: &WorkflowSpec,
    plan: Option<&FaultPlan>,
    horizon: Dur,
    policy: &BackoffPolicy,
) -> CheckReport {
    let mut findings = Vec::new();
    let mut jobs = Vec::new();
    let external: BTreeSet<&str> = spec.external.iter().map(String::as_str).collect();

    // ---- layer 1+2: per-job summaries --------------------------------
    let mut summaries: Vec<Option<KeyEffects>> = Vec::new();
    for job in &spec.jobs {
        match ftsh::parse(&job.source) {
            Ok(script) => {
                let env: Vec<(&str, &str)> = job
                    .env
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                let effects = key_effects(&script, &env);
                let envelope = bytecode_envelope(&script, policy);
                if !effects.completes {
                    findings.push(Finding {
                        rule: "job-never-completes",
                        severity: Severity::Error,
                        job: Some(job.name.clone()),
                        key: None,
                        message: "every path through the script ends in an unhandled \
                                  `failure`; the job can only ever fail"
                            .into(),
                    });
                }
                if effects.opaque {
                    findings.push(Finding {
                        rule: "opaque-summary",
                        severity: Severity::Info,
                        job: Some(job.name.clone()),
                        key: None,
                        message: "computed command names or deep/recursive calls made the \
                                  key summary incomplete; feasibility errors degrade to \
                                  warnings"
                            .into(),
                    });
                }
                jobs.push(JobSummary {
                    name: job.name.clone(),
                    client: job.client,
                    effects: effects.clone(),
                    envelope,
                });
                summaries.push(Some(effects));
            }
            Err(e) => {
                findings.push(Finding {
                    rule: "job-parse-error",
                    severity: Severity::Error,
                    job: Some(job.name.clone()),
                    key: None,
                    message: format!("the job's script does not parse: {e}"),
                });
                jobs.push(JobSummary {
                    name: job.name.clone(),
                    client: job.client,
                    effects: KeyEffects::default(),
                    envelope: Dur::ZERO,
                });
                summaries.push(None);
            }
        }
    }
    let any_opaque = summaries.iter().flatten().any(|s| s.opaque);
    // A proof needs the produce sets to be exhaustive; opaque
    // summaries (or unparsable jobs) break that.
    let proof_grade = if any_opaque || summaries.iter().any(Option::is_none) {
        Severity::Warning
    } else {
        Severity::Error
    };

    // ---- structural rules -------------------------------------------
    for (job, summary) in spec.jobs.iter().zip(&summaries) {
        let Some(effects) = summary else { continue };
        let declared: BTreeSet<&str> = job.declared_inputs.iter().map(String::as_str).collect();
        for key in &effects.consumes {
            if !declared.contains(key.as_str()) && !external.contains(key.as_str()) {
                findings.push(Finding {
                    rule: "undeclared-dependency",
                    severity: Severity::Warning,
                    job: Some(job.name.clone()),
                    key: Some(key.clone()),
                    message: format!(
                        "the script fetches `{key}` but the declared plan lists it \
                         neither as an input of `{}` nor as externally staged; the \
                         scheduler cannot order around this edge",
                        job.name
                    ),
                });
            }
        }
        for key in &job.declared_inputs {
            if !effects.consumes.contains(key) && !effects.senses.contains(key) {
                findings.push(Finding {
                    rule: "dead-declared-edge",
                    severity: Severity::Info,
                    job: Some(job.name.clone()),
                    key: Some(key.clone()),
                    message: format!(
                        "`{}` declares input `{key}` but its script never fetches or \
                         senses it; the declared edge over-serializes the plan",
                        job.name
                    ),
                });
            }
        }
    }

    // ---- feasibility core -------------------------------------------
    // Producer table: key -> (job index, produce index).
    let mut producers: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (ji, summary) in summaries.iter().enumerate() {
        let Some(effects) = summary else { continue };
        for (pi, p) in effects.produces.iter().enumerate() {
            producers.entry(p.key.as_str()).or_default().push((ji, pi));
        }
    }

    // Lower-bound relaxation: the earliest any produce of a key can
    // land, assuming every gate key appears at ITS earliest. Monotone
    // (min over sums of maxes), so iterating to a fixed point
    // terminates; keys that never get a label are gated on an
    // unproducible chain and fall to the cycle classifier below.
    let mut key_lb: HashMap<&str, Dur> = HashMap::new();
    for key in &external {
        key_lb.insert(key, Dur::ZERO);
    }
    let mut prod_lb: HashMap<(usize, usize), Dur> = HashMap::new();
    let rounds = spec.jobs.len().saturating_mul(2).saturating_add(2);
    for _ in 0..rounds {
        let mut changed = false;
        for (ji, summary) in summaries.iter().enumerate() {
            let Some(effects) = summary else { continue };
            let job = &spec.jobs[ji];
            for (pi, p) in effects.produces.iter().enumerate() {
                let mut gate_max = Dur::ZERO;
                let mut labeled = true;
                for gate in &p.gated_on {
                    match key_lb.get(gate.as_str()) {
                        Some(&lb) => gate_max = gate_max.max(lb),
                        None => {
                            labeled = false;
                            break;
                        }
                    }
                }
                if !labeled {
                    continue;
                }
                let lb = sat_add(sat_add(job.not_before, job.local_work), gate_max);
                match prod_lb.get_mut(&(ji, pi)) {
                    Some(slot) if lb < *slot => {
                        *slot = lb;
                        changed = true;
                    }
                    Some(_) => {}
                    None => {
                        prod_lb.insert((ji, pi), lb);
                        changed = true;
                    }
                }
                match key_lb.get_mut(p.key.as_str()) {
                    Some(entry) if lb < *entry => {
                        *entry = lb;
                        changed = true;
                    }
                    Some(_) => {}
                    None => {
                        key_lb.insert(p.key.as_str(), lb);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Fault-death per produce: the client dies for good before the
    // produce's earliest possible landing, or a permanent blackout
    // swallows every landing instant. Both are sound: the kill bound
    // uses <= because store service takes strictly positive time past
    // the lower bound, and a killed client's in-flight puts are
    // cancelled.
    let mut dead: HashMap<(usize, usize), DeadReason> = HashMap::new();
    if let Some(plan) = plan {
        let kills = plan.client_kills();
        let blackout_from = plan.enospc_permanent_from(Time::ZERO.saturating_add(horizon));
        for (&(ji, pi), &lb) in &prod_lb {
            let job = &spec.jobs[ji];
            let landing = Time::ZERO.saturating_add(lb);
            if let Some(kill) = kills
                .iter()
                .find(|k| k.client == job.client && k.restart.is_none() && k.at <= landing)
            {
                dead.insert((ji, pi), DeadReason::Killed { at: kill.at });
                continue;
            }
            if let Some(from) = blackout_from {
                if landing >= from {
                    dead.insert((ji, pi), DeadReason::Blackout { from });
                }
            }
        }
    }

    // Producibility fixpoint: a key is producible iff some live
    // produce of it is gated only on producible keys.
    let mut producible: BTreeSet<&str> = external.clone();
    loop {
        let mut changed = false;
        for (key, prods) in &producers {
            if producible.contains(key) {
                continue;
            }
            let live = prods.iter().any(|idx| {
                if dead.contains_key(idx) {
                    return false;
                }
                let Some(effects) = &summaries[idx.0] else {
                    return false;
                };
                effects.produces[idx.1]
                    .gated_on
                    .iter()
                    .all(|g| producible.contains(g.as_str()))
            });
            if live {
                producible.insert(key);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Classify every required-but-unproducible key, once per key, by
    // tracing the gating chain to its root cause: a producer the plan
    // kills or blacks out, a key nobody publishes, or a genuine cycle
    // in the runtime key graph.
    let tracer = CauseTracer {
        producers: &producers,
        summaries: &summaries,
        dead: &dead,
        prod_lb: &prod_lb,
        producible: &producible,
        external: &external,
    };
    let mut flagged: BTreeSet<&str> = BTreeSet::new();
    for (ji, summary) in summaries.iter().enumerate() {
        let Some(effects) = summary else { continue };
        let job = &spec.jobs[ji];
        for key in &effects.requires {
            let key = key.as_str();
            if producible.contains(key) || !flagged.insert(key) {
                continue;
            }
            let waits = format!("`{}` waits on `{key}`", job.name);
            let mut path = Vec::new();
            let finding = match tracer.root_cause(key, &mut path) {
                Cause::Missing(root) => Finding {
                    rule: "missing-producer",
                    severity: proof_grade,
                    job: Some(job.name.clone()),
                    key: Some(key.to_owned()),
                    message: if root == key {
                        format!(
                            "{waits}, but no job publishes it and it is not staged \
                             externally"
                        )
                    } else {
                        format!(
                            "{waits}; every path to it runs through `{root}`, which \
                             no job publishes and which is not staged externally"
                        )
                    },
                },
                Cause::Killed {
                    key: root,
                    producer,
                    at,
                    lb,
                } => {
                    let pjob = &spec.jobs[producer];
                    let via = if root == key {
                        String::new()
                    } else {
                        format!(" (reached through `{root}`)")
                    };
                    Finding {
                        rule: "unsatisfiable-barrier",
                        severity: proof_grade,
                        job: Some(job.name.clone()),
                        key: Some(key.to_owned()),
                        message: format!(
                            "{waits}{via}, published only by `{}` on client {}, but \
                             the fault plan kills that client at {:.0}s with no \
                             restart — at or before the earliest possible publish \
                             ({:.0}s); the barrier can never be satisfied",
                            pjob.name,
                            pjob.client,
                            (at - Time::ZERO).as_secs_f64(),
                            lb.as_secs_f64(),
                        ),
                    }
                }
                Cause::Blackout { key: root, from } => {
                    let via = if root == key {
                        String::new()
                    } else {
                        format!(" (reached through `{root}`)")
                    };
                    Finding {
                        rule: "budget-infeasible",
                        severity: proof_grade,
                        job: Some(job.name.clone()),
                        key: Some(key.to_owned()),
                        message: format!(
                            "{waits}{via}, but a permanent ENOSPC blackout starts \
                             at {:.0}s — before the key's earliest publish — and \
                             never lifts within the horizon; no retry budget \
                             survives it",
                            (from - Time::ZERO).as_secs_f64(),
                        ),
                    }
                }
                Cause::Cycle(cycle) => Finding {
                    rule: "key-cycle",
                    severity: proof_grade,
                    job: Some(job.name.clone()),
                    key: Some(key.to_owned()),
                    message: format!(
                        "{waits}, but the runtime key graph has a wait cycle the \
                         declared DAG does not show: {} — every producer is gated \
                         on a key that is itself unproducible",
                        cycle
                            .iter()
                            .map(|k| format!("`{k}`"))
                            .collect::<Vec<_>>()
                            .join(" ← "),
                    ),
                },
            };
            findings.push(finding);
        }
    }

    // Finite blackouts that outlast a produce's whole retry budget:
    // not a stall proof (the job re-runs after its try exhausts), but
    // the deadline the author chose cannot ride it out.
    if let Some(plan) = plan {
        if plan
            .enospc_permanent_from(Time::ZERO.saturating_add(horizon))
            .is_none()
        {
            let longest = plan.longest_enospc_blackout(Time::ZERO.saturating_add(horizon));
            let mut noted: BTreeSet<&str> = BTreeSet::new();
            for (ji, summary) in summaries.iter().enumerate() {
                let Some(effects) = summary else { continue };
                for p in &effects.produces {
                    let Some(budget) = p.retry_budget else {
                        continue;
                    };
                    if longest >= budget && noted.insert(p.key.as_str()) {
                        findings.push(Finding {
                            rule: "budget-infeasible",
                            severity: Severity::Warning,
                            job: Some(spec.jobs[ji].name.clone()),
                            key: Some(p.key.clone()),
                            message: format!(
                                "an ENOSPC blackout of {:.0}s covers the entire \
                                 {:.0}s retry budget around publishing `{}`; the \
                                 attempt that meets it is guaranteed to exhaust",
                                longest.as_secs_f64(),
                                budget.as_secs_f64(),
                                p.key,
                            ),
                        });
                    }
                }
            }
        }
    }

    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(b.rule))
            .then_with(|| a.job.cmp(&b.job))
            .then_with(|| a.key.cmp(&b.key))
    });
    let verdict = match findings.iter().map(|f| f.severity).max() {
        Some(Severity::Error) => Verdict::Doomed,
        Some(Severity::Warning) => Verdict::Advisory,
        _ => Verdict::Clean,
    };
    CheckReport {
        jobs,
        findings,
        verdict,
    }
}

/// Why a required key can never appear in the store.
enum Cause<'a> {
    /// The chain dead-ends in a key nobody publishes.
    Missing(&'a str),
    /// The chain dead-ends in a key whose only producers the plan
    /// kills for good before they can publish.
    Killed {
        /// The root key.
        key: &'a str,
        /// Job index of a killed producer.
        producer: usize,
        /// When the kill lands.
        at: Time,
        /// The produce's earliest-landing lower bound.
        lb: Dur,
    },
    /// The chain dead-ends in a key swallowed by a permanent blackout.
    Blackout {
        /// The root key.
        key: &'a str,
        /// When the blackout starts.
        from: Time,
    },
    /// The chain closes on itself: a genuine runtime key cycle.
    Cycle(Vec<String>),
}

/// Follows the first unproducible gate of the first producer of each
/// unproducible key until it hits a dead end or revisits a key.
struct CauseTracer<'a> {
    producers: &'a BTreeMap<&'a str, Vec<(usize, usize)>>,
    summaries: &'a [Option<KeyEffects>],
    dead: &'a HashMap<(usize, usize), DeadReason>,
    prod_lb: &'a HashMap<(usize, usize), Dur>,
    producible: &'a BTreeSet<&'a str>,
    external: &'a BTreeSet<&'a str>,
}

impl<'a> CauseTracer<'a> {
    fn root_cause(&self, key: &'a str, path: &mut Vec<String>) -> Cause<'a> {
        if let Some(pos) = path.iter().position(|k| k == key) {
            let mut cycle: Vec<String> = path[pos..].to_vec();
            cycle.push(key.to_owned());
            return Cause::Cycle(cycle);
        }
        let prods = self.producers.get(key).map_or(&[][..], Vec::as_slice);
        if prods.is_empty() && !self.external.contains(key) {
            return Cause::Missing(key);
        }
        for idx in prods {
            match self.dead.get(idx) {
                Some(DeadReason::Killed { at }) => {
                    return Cause::Killed {
                        key,
                        producer: idx.0,
                        at: *at,
                        lb: self.prod_lb.get(idx).copied().unwrap_or(Dur::ZERO),
                    };
                }
                Some(DeadReason::Blackout { from }) => {
                    return Cause::Blackout { key, from: *from };
                }
                None => {}
            }
        }
        // Not dead, not missing, yet unproducible: some gate of every
        // producer is unproducible. Trace the first one.
        path.push(key.to_owned());
        for &(ji, pi) in prods {
            let Some(effects) = &self.summaries[ji] else {
                continue;
            };
            if let Some(gate) = effects.produces[pi]
                .gated_on
                .iter()
                .find(|g| !self.producible.contains(g.as_str()))
            {
                // The gate string lives in the summaries, same
                // lifetime as the producer table keys.
                let gate: &'a str = gate.as_str();
                return self.root_cause(gate, path);
            }
        }
        // Unreachable for a genuinely unproducible key; report the
        // key itself as the end of the chain.
        let mut cycle = path.clone();
        cycle.push(key.to_owned());
        Cause::Cycle(cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgrid::faults::{FaultKind, FaultSpec};

    fn secs(s: u64) -> Dur {
        Dur::from_secs(s)
    }

    fn job(name: &str, client: usize, source: &str, ins: &[&str], outs: &[&str]) -> WorkflowJob {
        WorkflowJob {
            name: name.into(),
            client,
            source: source.into(),
            env: Vec::new(),
            declared_inputs: ins.iter().map(|&s| s.to_owned()).collect(),
            declared_outputs: outs.iter().map(|&s| s.to_owned()).collect(),
            local_work: secs(1),
            not_before: Dur::ZERO,
        }
    }

    fn kill(client: usize, at_s: u64, restart: Option<Dur>) -> FaultPlan {
        let mut plan = FaultPlan::new(7);
        plan.specs.push(FaultSpec::once(
            Time::ZERO + secs(at_s),
            FaultKind::ClientKill { client, restart },
        ));
        plan
    }

    // ---- clean workflows --------------------------------------------

    #[test]
    fn diamond_dag_checks_clean_under_every_discipline() {
        let dag = DagSpec::diamond();
        for discipline in Discipline::ALL {
            let spec = WorkflowSpec::dag(&dag, discipline, secs(600), secs(60));
            let report = check(&spec, None, secs(300));
            assert_eq!(
                report.verdict,
                Verdict::Clean,
                "diamond under {discipline:?}: {:?}",
                report.findings
            );
        }
    }

    #[test]
    fn allreduce_checks_clean_without_faults() {
        for discipline in Discipline::ALL {
            let spec = WorkflowSpec::allreduce(discipline, 4, 3, secs(600), secs(60), secs(2));
            let report = check(&spec, None, secs(300));
            assert_eq!(
                report.verdict,
                Verdict::Clean,
                "allreduce under {discipline:?}: {:?}",
                report.findings
            );
            assert_eq!(report.jobs.len(), 12);
        }
    }

    #[test]
    fn allreduce_summaries_resolve_round_keys() {
        let spec =
            WorkflowSpec::allreduce(Discipline::Ethernet, 4, 2, secs(600), secs(60), secs(2));
        let r1_round0 = &spec.jobs[1];
        assert_eq!(r1_round0.name, "r1#0");
        let report = check(&spec, None, secs(300));
        let summary = &report.jobs[1];
        assert_eq!(summary.effects.produces.len(), 1);
        assert_eq!(summary.effects.produces[0].key, "r1 0");
        assert!(summary.effects.requires.contains("r0 0"));
        assert!(summary.effects.requires.contains("r3 0"));
    }

    // ---- adversarial workflows --------------------------------------

    #[test]
    fn undeclared_fetch_is_flagged_as_a_hidden_edge() {
        let spec = WorkflowSpec {
            jobs: vec![
                job("a", 0, "run a\npublish ka\n", &[], &["ka"]),
                job(
                    "b",
                    1,
                    "fetch ka\nfetch secret\nrun b\npublish kb\n",
                    &["ka"],
                    &["kb"],
                ),
                job("s", 2, "run s\npublish secret\n", &[], &["secret"]),
            ],
            external: Vec::new(),
        };
        let report = check(&spec, None, secs(300));
        let hidden: Vec<_> = report.rule("undeclared-dependency").collect();
        assert_eq!(hidden.len(), 1);
        assert_eq!(hidden[0].key.as_deref(), Some("secret"));
        assert_eq!(report.verdict, Verdict::Advisory);
    }

    #[test]
    fn declared_edge_nothing_fetches_is_noted() {
        let spec = WorkflowSpec {
            jobs: vec![
                job("a", 0, "run a\npublish ka\n", &[], &["ka"]),
                job("b", 1, "run b\npublish kb\n", &["ka"], &["kb"]),
            ],
            external: Vec::new(),
        };
        let report = check(&spec, None, secs(300));
        let dead: Vec<_> = report.rule("dead-declared-edge").collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].key.as_deref(), Some("ka"));
        // Info only: the verdict stays clean.
        assert_eq!(report.verdict, Verdict::Clean);
    }

    #[test]
    fn runtime_key_cycle_behind_an_acyclic_declared_dag_is_doomed() {
        // Declared DAG: a -> b (acyclic). Scripts: a waits for kb
        // before publishing ka, b waits for ka before publishing kb.
        let spec = WorkflowSpec {
            jobs: vec![
                job("a", 0, "fetch kb\nrun a\npublish ka\n", &[], &["ka"]),
                job("b", 1, "fetch ka\nrun b\npublish kb\n", &["ka"], &["kb"]),
            ],
            external: Vec::new(),
        };
        let report = check(&spec, None, secs(300));
        assert_eq!(report.verdict, Verdict::Doomed, "{:?}", report.findings);
        let cycles: Vec<_> = report.rule("key-cycle").collect();
        assert!(!cycles.is_empty());
        assert!(
            cycles[0].message.contains("ka") && cycles[0].message.contains("kb"),
            "cycle message names both keys: {}",
            cycles[0].message
        );
    }

    #[test]
    fn missing_producer_is_doomed() {
        let spec = WorkflowSpec {
            jobs: vec![job(
                "a",
                0,
                "fetch ghost\nrun a\npublish ka\n",
                &["ghost"],
                &["ka"],
            )],
            external: Vec::new(),
        };
        let report = check(&spec, None, secs(300));
        assert_eq!(report.verdict, Verdict::Doomed);
        assert_eq!(report.rule("missing-producer").count(), 1);
    }

    #[test]
    fn externally_staged_keys_are_not_missing() {
        let spec = WorkflowSpec {
            jobs: vec![job(
                "a",
                0,
                "fetch raw\nrun a\npublish ka\n",
                &["raw"],
                &["ka"],
            )],
            external: vec!["raw".into()],
        };
        let report = check(&spec, None, secs(300));
        assert_eq!(report.verdict, Verdict::Clean, "{:?}", report.findings);
    }

    #[test]
    fn killed_rank_without_restart_dooms_the_barrier() {
        let spec =
            WorkflowSpec::allreduce(Discipline::Ethernet, 4, 2, secs(600), secs(60), secs(2));
        // lb("r2 1") = 1*compute (not_before) + compute = 4s; a kill at
        // 4s with no restart lands at or before it.
        let plan = kill(2, 4, None);
        let report = check(&spec, Some(&plan), secs(120));
        assert_eq!(report.verdict, Verdict::Doomed, "{:?}", report.findings);
        let barrier: Vec<_> = report.rule("unsatisfiable-barrier").collect();
        assert!(!barrier.is_empty());
        assert!(barrier.iter().any(|f| f.key.as_deref() == Some("r2 1")));
    }

    #[test]
    fn killed_rank_with_restart_is_not_a_barrier_proof() {
        let spec =
            WorkflowSpec::allreduce(Discipline::Ethernet, 4, 2, secs(600), secs(60), secs(2));
        let plan = kill(2, 4, Some(secs(3)));
        let report = check(&spec, Some(&plan), secs(120));
        assert_eq!(report.rule("unsatisfiable-barrier").count(), 0);
        assert_eq!(report.verdict, Verdict::Clean, "{:?}", report.findings);
    }

    #[test]
    fn kill_after_the_publish_window_is_not_flagged() {
        let spec =
            WorkflowSpec::allreduce(Discipline::Ethernet, 4, 1, secs(600), secs(60), secs(2));
        // lb("r2 0") = 2s; a kill at 100s cannot prove the publish
        // never landed.
        let plan = kill(2, 100, None);
        let report = check(&spec, Some(&plan), secs(120));
        assert_eq!(report.rule("unsatisfiable-barrier").count(), 0);
    }

    #[test]
    fn killed_dag_producer_dooms_its_consumers() {
        let dag = DagSpec::diamond();
        let spec = WorkflowSpec::dag(&dag, Discipline::Ethernet, secs(600), secs(60));
        // Client 2 runs align-b (runtime 3s, input raw): lb(band-b) =
        // 3s. Kill at 1s, never restart.
        let plan = kill(2, 1, None);
        let report = check(&spec, Some(&plan), secs(300));
        assert_eq!(report.verdict, Verdict::Doomed, "{:?}", report.findings);
        let barrier: Vec<_> = report.rule("unsatisfiable-barrier").collect();
        assert!(barrier.iter().any(|f| f.key.as_deref() == Some("band-b")));
    }

    #[test]
    fn permanent_blackout_is_budget_infeasible() {
        let dag = DagSpec::diamond();
        let spec = WorkflowSpec::dag(&dag, Discipline::Ethernet, secs(600), secs(60));
        let mut plan = FaultPlan::new(7);
        plan.specs.push(FaultSpec::once(
            Time::ZERO + secs(1),
            FaultKind::EnospcWindow {
                duration: secs(100_000),
            },
        ));
        let report = check(&spec, Some(&plan), secs(300));
        assert_eq!(report.verdict, Verdict::Doomed, "{:?}", report.findings);
        assert!(report.rule("budget-infeasible").count() >= 1);
    }

    #[test]
    fn finite_blackout_longer_than_the_retry_budget_is_advisory() {
        let dag = DagSpec::diamond();
        // dep_timeout 30s: each publish's retry budget is 30s; a 40s
        // blackout outlasts it, but the workflow is not doomed (the
        // job re-runs after the try exhausts).
        let spec = WorkflowSpec::dag(&dag, Discipline::Ethernet, secs(30), secs(10));
        let mut plan = FaultPlan::new(7);
        plan.specs.push(FaultSpec::once(
            Time::ZERO + secs(1),
            FaultKind::EnospcWindow { duration: secs(40) },
        ));
        let report = check(&spec, Some(&plan), secs(600));
        assert_eq!(report.verdict, Verdict::Advisory, "{:?}", report.findings);
        assert!(report.rule("budget-infeasible").count() >= 1);
        assert!(report
            .rule("budget-infeasible")
            .all(|f| f.severity == Severity::Warning));
    }

    #[test]
    fn never_completing_job_is_an_error() {
        let spec = WorkflowSpec {
            jobs: vec![job("a", 0, "run a\nfailure\n", &[], &[])],
            external: Vec::new(),
        };
        let report = check(&spec, None, secs(300));
        assert_eq!(report.rule("job-never-completes").count(), 1);
        assert_eq!(report.verdict, Verdict::Doomed);
    }

    #[test]
    fn opaque_jobs_downgrade_proofs_to_warnings() {
        let spec = WorkflowSpec {
            jobs: vec![
                job("a", 0, "fetch ghost\nrun a\n", &["ghost"], &[]),
                job("mystery", 1, "probe q -> v\n${v} something\n", &[], &[]),
            ],
            external: Vec::new(),
        };
        let report = check(&spec, None, secs(300));
        // `mystery` might publish ghost for all the checker knows.
        assert_eq!(report.verdict, Verdict::Advisory, "{:?}", report.findings);
        assert!(report
            .rule("missing-producer")
            .all(|f| f.severity == Severity::Warning));
    }

    #[test]
    fn parse_error_is_reported_not_panicked() {
        let spec = WorkflowSpec {
            jobs: vec![job("bad", 0, "try for\n", &[], &[])],
            external: Vec::new(),
        };
        let report = check(&spec, None, secs(300));
        assert_eq!(report.rule("job-parse-error").count(), 1);
        assert_eq!(report.verdict, Verdict::Doomed);
    }

    #[test]
    fn markdown_report_names_the_verdict_and_jobs() {
        let dag = DagSpec::diamond();
        let spec = WorkflowSpec::dag(&dag, Discipline::Ethernet, secs(600), secs(60));
        let report = check(&spec, None, secs(300));
        let md = report.markdown("fig9 diamond");
        assert!(md.contains("## fig9 diamond"));
        assert!(md.contains("**clean**"));
        assert!(md.contains("| merge |"));
    }

    #[test]
    fn dag_workflow_spec_mirrors_the_dag_jobs() {
        let dag = DagSpec::diamond();
        let spec = WorkflowSpec::dag(&dag, Discipline::Ethernet, secs(600), secs(60));
        assert_eq!(spec.jobs.len(), dag.jobs.len());
        // The diamond is self-contained: `extract` produces `raw`.
        assert!(spec.external.is_empty());
        let merge = spec.jobs.iter().find(|j| j.name == "merge").expect("merge");
        assert_eq!(merge.declared_inputs.len(), 3);
    }
}
