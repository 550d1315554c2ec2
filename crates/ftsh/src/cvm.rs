//! The interpreter: a bytecode machine.
//!
//! [`Vm`] executes the flat program produced by [`crate::bytecode`]:
//! dispatch is a jump-threaded loop over copyable ops, sequencing
//! needs no frames at all (it is jump targets), and statically-known
//! variables live in a plain slot vector instead of a hash map. Its
//! semantics are pinned against the tree-walking oracle
//! (`crate::tree`, test-only): identical effects, identical log and
//! trace events in identical order, and identical RNG draws (the only
//! draws are inside `TrySession::on_failure`, reached under exactly
//! the same control flow).
//!
//! Variables the program can only name at run time — computed capture
//! targets, positional parameters past the ones mentioned statically —
//! spill into a per-task side map; [`CEnv::set_dyn`] routes by the
//! compiler's name table, so a name never lives in both places.

use crate::ast::Script;
use crate::bytecode::{
    self, is_positional_name, CmdTpl, FuncRef, Op, Prog, RedirTpl, SegTpl, SlotIx, SlotMap,
    WordTpl, NO_CATCH,
};
use crate::cond::eval_cond_values;
use crate::intern::Istr;
use crate::log::{EventLog, LogKind};
use crate::vm::{
    CmdInput, CmdResult, CmdToken, CommandSpec, Effect, OutSink, TaskId, Tick, VmStatus,
};
use crate::words::{trim_capture, Env};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use retry::{BackoffPolicy, NextAttempt, Time, TryBudget, TrySession};
use simgrid::trace::{SharedSink, TraceEv, NO_ID};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Variable scope of one task: slot vector for statically-known names
/// plus a spill map for dynamic ones. Cloned per `forall` branch.
#[derive(Clone, Debug)]
struct CEnv {
    slots: Vec<Option<Istr>>,
    extra: HashMap<Istr, Istr>,
}

impl CEnv {
    fn new(n: usize) -> CEnv {
        CEnv {
            slots: vec![None; n],
            extra: HashMap::new(),
        }
    }

    fn from_env(env: &Env, m: &SlotMap) -> CEnv {
        let mut e = CEnv::new(m.len());
        for (k, v) in env.iter() {
            e.set_dyn(m, k.clone(), v.clone());
        }
        e
    }

    #[inline]
    fn get_slot(&self, s: SlotIx) -> Option<&Istr> {
        self.slots[s as usize].as_ref()
    }

    #[inline]
    fn set_slot(&mut self, s: SlotIx, v: Istr) {
        self.slots[s as usize] = Some(v);
    }

    /// Look up by name (redirection sources resolve their target name
    /// at run time).
    fn get_dyn(&self, m: &SlotMap, name: &str) -> Option<&Istr> {
        match m.by_name.get(name) {
            Some(&s) => self.get_slot(s),
            None => self.extra.get(name),
        }
    }

    /// Bind by name, routing to the slot when the name is statically
    /// known so reads through slots always see it.
    fn set_dyn(&mut self, m: &SlotMap, name: Istr, value: Istr) {
        match m.by_name.get(name.as_str()) {
            Some(&s) => self.slots[s as usize] = Some(value),
            None => {
                self.extra.insert(name, value);
            }
        }
    }

    /// Append by name (the `->>` capture form), mirroring
    /// [`Env::append`].
    fn append_dyn(&mut self, m: &SlotMap, name: &Istr, value: &str) {
        let joined = |v: &Istr| {
            let mut s = String::with_capacity(v.len() + value.len());
            s.push_str(v);
            s.push_str(value);
            Istr::from(s)
        };
        match m.by_name.get(name.as_str()) {
            Some(&s) => {
                let slot = &mut self.slots[s as usize];
                *slot = Some(match slot {
                    Some(v) => joined(v),
                    None => Istr::from(value),
                });
            }
            None => match self.extra.get_mut(name.as_str()) {
                Some(v) => *v = joined(v),
                None => {
                    self.extra.insert(name.clone(), Istr::from(value));
                }
            },
        }
    }

    /// Expand a compiled word into a borrowed `&str`, building into
    /// `scratch` only for the mixed shape — the zero-refcount variant
    /// of [`CEnv::expand`] for consumers that never keep the value
    /// (condition evaluation).
    fn expand_str<'a>(&'a self, w: &'a WordTpl, scratch: &'a mut String) -> &'a str {
        match w {
            WordTpl::Empty => "",
            WordTpl::Lit(s) => s,
            WordTpl::Slot(s) => self.get_slot(*s).map_or("", Istr::as_str),
            WordTpl::Mixed(segs) => {
                scratch.clear();
                for seg in segs {
                    match seg {
                        SegTpl::Lit(l) => scratch.push_str(l),
                        SegTpl::Slot(s) => {
                            if let Some(v) = self.get_slot(*s) {
                                scratch.push_str(v);
                            }
                        }
                    }
                }
                scratch
            }
        }
    }

    /// Expand a compiled word. The same three shapes as
    /// [`Env::expand`], with the hash lookup already compiled away.
    fn expand(&self, w: &WordTpl) -> Istr {
        match w {
            WordTpl::Empty => Istr::empty(),
            WordTpl::Lit(s) => s.clone(),
            WordTpl::Slot(s) => self.get_slot(*s).cloned().unwrap_or_default(),
            WordTpl::Mixed(segs) => {
                let mut out = String::new();
                for seg in segs {
                    match seg {
                        SegTpl::Lit(l) => out.push_str(l),
                        SegTpl::Slot(s) => {
                            if let Some(v) = self.get_slot(*s) {
                                out.push_str(v);
                            }
                        }
                    }
                }
                Istr::from(out)
            }
        }
    }

    fn snapshot_positionals(&self, m: &SlotMap) -> Vec<(Istr, Istr)> {
        let mut out = Vec::new();
        for (i, v) in self.slots.iter().enumerate() {
            if m.positional[i] {
                if let Some(v) = v {
                    out.push((m.names[i].clone(), v.clone()));
                }
            }
        }
        for (k, v) in &self.extra {
            if is_positional_name(k) {
                out.push((k.clone(), v.clone()));
            }
        }
        out
    }

    fn clear_positionals(&mut self, m: &SlotMap) {
        for (i, v) in self.slots.iter_mut().enumerate() {
            if m.positional[i] {
                *v = None;
            }
        }
        self.extra.retain(|k, _| !is_positional_name(k));
    }

    /// Copy every binding out into a plain [`Env`] (the root task's
    /// final environment).
    fn materialize(&self, m: &SlotMap) -> Env {
        let mut env = Env::new();
        for (i, v) in self.slots.iter().enumerate() {
            if let Some(v) = v {
                env.set(m.names[i].clone(), v.clone());
            }
        }
        for (k, v) in &self.extra {
            env.set(k.clone(), v.clone());
        }
        env
    }
}

/// Structured control state: only the constructs that genuinely carry
/// run-time state keep frames — sequencing is jump targets.
#[derive(Debug)]
enum CFrame {
    Try {
        session: TrySession,
        attempt_ip: u32,
        catch_ip: u32,
        end_ip: u32,
        in_catch: bool,
    },
    ForAny {
        values: Vec<Istr>,
        idx: usize,
        var: SlotIx,
        body_ip: u32,
        end_ip: u32,
    },
    ForAll {
        children: Vec<TaskId>,
        /// Branch bindings not yet spawned (throttled parallelism).
        pending: Vec<Istr>,
        var: SlotIx,
        branch_ip: u32,
        end_ip: u32,
    },
    Call {
        saved_positionals: Vec<(Istr, Istr)>,
        ret_ip: u32,
    },
}

#[derive(Debug)]
enum CState {
    Ready,
    RunningCmd {
        token: CmdToken,
        program: Istr,
        out_var: Option<(Istr, bool)>,
    },
    Sleeping {
        until: Time,
    },
    WaitingChildren,
}

#[derive(Debug)]
struct CTask {
    frames: Vec<CFrame>,
    env: CEnv,
    /// Instruction pointer into the shared program.
    ip: u32,
    /// The result register: outcome of the last completed statement.
    res: bool,
    state: CState,
    parent: Option<TaskId>,
    /// Number of `Call` frames (function recursion guard).
    call_depth: u32,
}

/// The virtual machine for one script execution.
///
/// Manual driving (what `procman` and `gridworld` do internally):
///
/// ```
/// use ftsh::parse;
/// use ftsh::vm::{CmdResult, Effect, Vm, VmStatus};
/// use retry::Time;
///
/// let script = parse("hello world\n").unwrap();
/// let mut vm = Vm::with_seed(&script, 1);
/// let tick = vm.tick(Time::ZERO);
/// let Effect::Start { token, spec, .. } = &tick.effects[0] else { panic!() };
/// assert_eq!(spec.argv, ["hello", "world"]);
/// vm.complete(*token, CmdResult::ok(""));
/// assert!(matches!(vm.tick(Time::ZERO).status, VmStatus::Done { success: true }));
/// ```
pub struct Vm {
    prog: Arc<Prog>,
    tasks: Vec<Option<CTask>>,
    token_ctr: CmdToken,
    /// In-flight commands; linear scan beats hashing at realistic
    /// in-flight counts (a handful per VM).
    token_task: Vec<(CmdToken, TaskId)>,
    /// Per-function entry point, bound when its `FuncDef` executes.
    fn_entries: Vec<Option<u32>>,
    rng: StdRng,
    log: EventLog,
    outcome: Option<bool>,
    default_backoff: BackoffPolicy,
    effects: Vec<Effect>,
    now: Time,
    final_env: Env,
    max_parallel: Option<usize>,
    tracer: Option<SharedSink>,
    trace_client: i64,
    /// Emptied argv vectors handed back via [`Vm::recycle_spec`];
    /// command dispatch draws from here before allocating.
    spare_argv: Vec<Vec<Istr>>,
    /// Retired `forany` value vectors, reused by the next loop entry
    /// so steady-state iteration never allocates.
    spare_values: Vec<Vec<Istr>>,
    /// Mixed-word expansion buffer: segments build here, then one
    /// exact-sized `Istr` copy leaves — no intermediate `String` per
    /// expansion.
    scratch: String,
}

impl Vm {
    /// Build a VM for a script with an empty environment and an
    /// entropy-seeded RNG for backoff jitter.
    pub fn new(script: &Script) -> Vm {
        Vm::with_env_seed(script, Env::new(), rand::rng().random())
    }

    /// Build a VM with a fixed RNG seed (deterministic backoff jitter).
    pub fn with_seed(script: &Script, seed: u64) -> Vm {
        Vm::with_env_seed(script, Env::new(), seed)
    }

    /// Build a VM with an initial environment and seed. The script
    /// compiles once per parsed allocation
    /// ([`bytecode::compile_cached`]): a population built from one
    /// script shares one program.
    pub fn with_env_seed(script: &Script, env: Env, seed: u64) -> Vm {
        let prog = bytecode::compile_cached(script);
        let root = CTask {
            frames: Vec::new(),
            env: CEnv::from_env(&env, &prog.slots),
            ip: 0,
            res: true,
            state: CState::Ready,
            parent: None,
            call_depth: 0,
        };
        let n_funcs = prog.func_names.len();
        Vm {
            prog,
            tasks: vec![Some(root)],
            token_ctr: 0,
            token_task: Vec::new(),
            fn_entries: vec![None; n_funcs],
            rng: StdRng::seed_from_u64(seed),
            log: EventLog::new(),
            outcome: None,
            default_backoff: BackoffPolicy::ethernet(),
            effects: Vec::new(),
            now: Time::ZERO,
            final_env: Env::new(),
            max_parallel: None,
            tracer: None,
            trace_client: NO_ID,
            spare_argv: Vec::new(),
            spare_values: Vec::new(),
            scratch: String::new(),
        }
    }

    /// Reclaim the value vector of a popped `forany` frame.
    fn recycle_forany(&mut self, frame: Option<CFrame>) {
        if let Some(CFrame::ForAny { values, .. }) = frame {
            if self.spare_values.len() < 8 {
                self.spare_values.push(values);
            }
        }
    }

    /// Hand a finished command's spec back so its argv buffer can be
    /// reused by the next dispatch. Purely an optimisation: a driver
    /// that drops specs instead loses nothing but the recycling.
    pub fn recycle_spec(&mut self, spec: CommandSpec) {
        let mut argv = spec.argv;
        argv.clear();
        // A handful covers any realistic burst of parallel branches;
        // beyond that, let excess buffers drop.
        if self.spare_argv.len() < 8 {
            self.spare_argv.push(argv);
        }
    }

    /// Move the spare buffers of a retiring VM into this one. Drivers
    /// that replace a client's VM per work unit call this so the
    /// recycled argv pool survives the replacement.
    pub fn adopt_spares(&mut self, prev: &mut Vm) {
        if self.spare_argv.is_empty() {
            std::mem::swap(&mut self.spare_argv, &mut prev.spare_argv);
        }
    }

    /// Install a structured-trace sink; every span and command event
    /// this VM produces is recorded there, attributed to `client`
    /// (the scenario's client index, or [`NO_ID`] outside a
    /// population). With no sink installed — the default — every
    /// emission site is a single `Option` test: the tick path stays
    /// allocation-free.
    pub fn set_tracer(&mut self, sink: SharedSink, client: i64) {
        self.tracer = Some(sink);
        self.trace_client = client;
    }

    /// True when a trace sink is installed.
    pub fn has_tracer(&self) -> bool {
        self.tracer.is_some()
    }

    /// Emit a structured trace record (no-op without a sink).
    #[inline]
    fn trace(&self, tid: TaskId, ev: TraceEv) {
        simgrid::trace::emit(&self.tracer, self.now, self.trace_client, tid as i64, ev);
    }

    /// Override the backoff policy used by `try` blocks that do not
    /// specify `every`. This is how the Fixed discipline (no delay) and
    /// the jitter ablations are expressed.
    pub fn set_default_backoff(&mut self, p: BackoffPolicy) {
        self.default_backoff = p;
    }

    /// The backoff policy `try` blocks without `every` run under.
    pub fn default_backoff(&self) -> BackoffPolicy {
        self.default_backoff
    }

    /// Throttle `forall`: at most `n` branches run concurrently, the
    /// rest start as slots free up. §4 notes that "the creation of
    /// processes must be governed by an Ethernet-like algorithm": this
    /// is the limited-allocation obligation applied to the process
    /// table itself. `None` (the default) spawns every branch at once.
    pub fn set_max_parallel(&mut self, n: Option<usize>) {
        self.max_parallel = n.map(|n| n.max(1));
    }

    /// The execution log so far.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Switch the execution log between full event retention (the
    /// default) and counters-only mode — see [`EventLog::set_detailed`].
    /// Population drivers run counters-only: the [`LogSummary`] still
    /// aggregates exactly, but a million ticks retain no per-event
    /// storage.
    ///
    /// [`LogSummary`]: crate::log::LogSummary
    pub fn set_log_detail(&mut self, detailed: bool) {
        self.log.set_detailed(detailed);
    }

    /// The root environment: the variables visible after completion
    /// (materialized when the script finishes; empty mid-run).
    pub fn env(&self) -> &Env {
        &self.final_env
    }

    /// The script outcome, if finished.
    pub fn outcome(&self) -> Option<bool> {
        self.outcome
    }

    /// Report an in-flight command as finished. Stale tokens (already
    /// cancelled) are ignored. Call [`Vm::tick`] afterwards.
    pub fn complete(&mut self, token: CmdToken, result: CmdResult) {
        let Some(pos) = self.token_task.iter().position(|&(t, _)| t == token) else {
            return; // cancelled earlier; the race is benign
        };
        let (_, tid) = self.token_task.swap_remove(pos);
        let task = self.tasks[tid].as_mut().expect("token mapped to dead task");
        let (program, out_var) = match &task.state {
            CState::RunningCmd {
                token: t,
                program,
                out_var,
            } => {
                debug_assert_eq!(*t, token, "token/task mismatch");
                (program.clone(), out_var.clone())
            }
            other => panic!("complete() on task not running a command: {other:?}"),
        };
        if let Some((name, append)) = out_var {
            let value = trim_capture(&result.stdout);
            if append {
                task.env.append_dyn(&self.prog.slots, &name, value);
            } else if value.len() == result.stdout.len() {
                task.env
                    .set_dyn(&self.prog.slots, name.clone(), result.stdout.clone());
            } else {
                task.env
                    .set_dyn(&self.prog.slots, name.clone(), Istr::from(value));
            }
            self.log.var_set(self.now, tid, &name);
        }
        if self.tracer.is_some() {
            simgrid::trace::emit(
                &self.tracer,
                self.now,
                self.trace_client,
                tid as i64,
                TraceEv::CmdEnd {
                    program: program.to_string(),
                    ok: result.success,
                },
            );
        }
        self.log.push(
            self.now,
            tid,
            LogKind::CmdEnd {
                program,
                success: result.success,
            },
        );
        // The instruction pointer already sits just past the dispatch
        // op (on its fail-check); the command's outcome lands in the
        // result register.
        task.res = result.success;
        task.state = CState::Ready;
    }

    /// Advance every runnable strand at virtual instant `now`.
    pub fn tick(&mut self, now: Time) -> Tick {
        let mut effects = Vec::new();
        let status = self.tick_into(now, &mut effects);
        Tick { effects, status }
    }

    /// [`Vm::tick`] into a caller-owned effects buffer: `out` is
    /// cleared and refilled, and its capacity is recycled into the
    /// VM's internal buffer — a driver ticking thousands of VMs in a
    /// loop reuses one allocation instead of taking a fresh `Vec`
    /// per tick.
    pub fn tick_into(&mut self, now: Time, out: &mut Vec<Effect>) -> VmStatus {
        debug_assert!(now >= self.now, "tick time went backwards");
        self.now = now;
        self.effects.clear();

        if self.outcome.is_none() {
            self.fire_deadlines();
            self.wake_sleepers();
            self.step_all();
        }

        let status = match self.outcome {
            Some(success) => VmStatus::Done { success },
            None => VmStatus::Running {
                next_wake: self.next_wake(),
            },
        };
        out.clear();
        std::mem::swap(&mut self.effects, out);
        status
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn fire_deadlines(&mut self) {
        let prog = Arc::clone(&self.prog);
        for tid in 0..self.tasks.len() {
            let Some(task) = &self.tasks[tid] else {
                continue;
            };
            let expired = task.frames.iter().position(|f| match f {
                CFrame::Try {
                    session, in_catch, ..
                } => !in_catch && session.expired(self.now),
                _ => false,
            });
            let Some(i) = expired else { continue };

            let mut task = self.tasks[tid].take().expect("checked live");
            while task.frames.len() > i + 1 {
                let f = task.frames.pop().expect("len checked");
                match f {
                    CFrame::ForAll { children, .. } => {
                        for c in children {
                            self.cancel_subtree(c);
                        }
                    }
                    CFrame::Call {
                        saved_positionals, ..
                    } => {
                        task.call_depth -= 1;
                        task.env.clear_positionals(&prog.slots);
                        for (k, v) in saved_positionals {
                            task.env.set_dyn(&prog.slots, k, v);
                        }
                    }
                    _ => {}
                }
            }
            self.cancel_running_cmd(tid, &mut task);
            self.log.push(self.now, tid, LogKind::TryTimeout);
            self.trace(tid, TraceEv::TryTimeout);
            self.fail_try_frame(tid, &mut task);
            task.state = CState::Ready;
            self.tasks[tid] = Some(task);
        }
    }

    /// The top frame of `task` is a `Try` whose budget is spent: aim
    /// the instruction pointer at its catch handler, or pop it and
    /// leave failure in the result register (the op at `end_ip` is the
    /// fail-check). Does not touch the task state.
    fn fail_try_frame(&mut self, tid: TaskId, task: &mut CTask) {
        let Some(CFrame::Try {
            catch_ip,
            end_ip,
            in_catch,
            ..
        }) = task.frames.last_mut()
        else {
            unreachable!("fail_try_frame: top frame is not a try");
        };
        if *catch_ip != NO_CATCH && !*in_catch {
            *in_catch = true;
            let catch_ip = *catch_ip;
            self.log.push(self.now, tid, LogKind::CatchEntered);
            self.trace(tid, TraceEv::CatchEntered);
            task.ip = catch_ip;
            task.res = true;
        } else {
            let end = *end_ip;
            task.frames.pop();
            task.ip = end;
            task.res = false;
        }
    }

    fn cancel_running_cmd(&mut self, tid: TaskId, task: &mut CTask) {
        if let CState::RunningCmd { token, program, .. } = &task.state {
            self.effects.push(Effect::Cancel { token: *token });
            if let Some(pos) = self.token_task.iter().position(|(t, _)| t == token) {
                self.token_task.swap_remove(pos);
            }
            if self.tracer.is_some() {
                self.trace(
                    tid,
                    TraceEv::CmdKilled {
                        program: program.to_string(),
                    },
                );
            }
            self.log.push(
                self.now,
                tid,
                LogKind::CmdCancelled {
                    program: program.clone(),
                },
            );
        }
    }

    fn cancel_subtree(&mut self, tid: TaskId) {
        let Some(mut task) = self.tasks[tid].take() else {
            return;
        };
        self.cancel_running_cmd(tid, &mut task);
        for f in task.frames.drain(..) {
            if let CFrame::ForAll { children, .. } = f {
                for c in children {
                    self.cancel_subtree(c);
                }
            }
        }
    }

    fn wake_sleepers(&mut self) {
        for task in self.tasks.iter_mut().flatten() {
            if let CState::Sleeping { until } = task.state {
                if until <= self.now {
                    // The instruction pointer was parked on the
                    // admission op when the backoff began.
                    task.state = CState::Ready;
                }
            }
        }
    }

    fn step_all(&mut self) {
        loop {
            let ready = (0..self.tasks.len()).find(|&i| {
                matches!(
                    self.tasks[i].as_ref().map(|t| &t.state),
                    Some(CState::Ready)
                )
            });
            let Some(tid) = ready else { break };
            self.step_task(tid);
            if self.outcome.is_some() {
                break;
            }
        }
    }

    fn step_task(&mut self, tid: TaskId) {
        let mut task = self.tasks[tid].take().expect("stepping a dead task");
        match self.run_task(tid, &mut task) {
            None => {
                self.tasks[tid] = Some(task);
            }
            Some(result) => {
                if let Some(pid) = task.parent {
                    self.child_finished(pid, tid, result);
                } else {
                    self.final_env = task.env.materialize(&self.prog.slots);
                    self.outcome = Some(result);
                    self.log
                        .push(self.now, tid, LogKind::ScriptDone { success: result });
                    self.trace(tid, TraceEv::UnitDone { ok: result });
                }
            }
        }
    }

    /// The dispatch loop: run one task until it blocks or finishes.
    /// Returns `Some(result)` when its code region ends.
    #[allow(clippy::too_many_lines)]
    fn run_task(&mut self, tid: TaskId, task: &mut CTask) -> Option<bool> {
        if !matches!(task.state, CState::Ready) {
            return None;
        }
        let prog = Arc::clone(&self.prog);
        loop {
            match prog.ops[task.ip as usize] {
                Op::Success => {
                    task.res = true;
                    task.ip += 1;
                }
                Op::Failure => {
                    task.res = false;
                    task.ip += 1;
                }
                Op::Jmp(t) => task.ip = t,
                Op::JmpIfFail(t) => {
                    if task.res {
                        task.ip += 1;
                    } else {
                        task.ip = t;
                    }
                }
                Op::Assign { slot, value } => {
                    let w = &prog.words[value as usize];
                    let v = if matches!(w, WordTpl::Mixed(_)) {
                        let s = task.env.expand_str(w, &mut self.scratch);
                        // Re-binding the bytes already in the slot (a
                        // retry loop recomputing the same value) keeps
                        // the existing allocation.
                        match task.env.get_slot(slot) {
                            Some(v) if v.as_str() == s => None,
                            _ => Some(Istr::from(s)),
                        }
                    } else {
                        Some(task.env.expand(w))
                    };
                    if let Some(v) = v {
                        task.env.set_slot(slot, v);
                    }
                    self.log
                        .var_set(self.now, tid, &prog.slots.names[slot as usize]);
                    task.res = true;
                    task.ip += 1;
                }
                Op::EvalCond {
                    cond,
                    on_false,
                    on_err,
                } => {
                    let c = &prog.conds[cond as usize];
                    let (mut sl, mut sr) = (String::new(), String::new());
                    let lhs = task.env.expand_str(&prog.words[c.lhs as usize], &mut sl);
                    let rhs = task.env.expand_str(&prog.words[c.rhs as usize], &mut sr);
                    match eval_cond_values(c.op, lhs, rhs) {
                        Ok(true) => {
                            task.res = true;
                            task.ip += 1;
                        }
                        Ok(false) => {
                            task.res = true;
                            task.ip = on_false;
                        }
                        Err(_) => {
                            task.res = false;
                            task.ip = on_err;
                        }
                    }
                }
                Op::FuncDef { func, entry } => {
                    self.fn_entries[func as usize] = Some(entry);
                    task.res = true;
                    task.ip += 1;
                }
                Op::TryEnter {
                    tri,
                    catch_ip,
                    end_ip,
                } => {
                    let t = &prog.tries[tri as usize];
                    let backoff = match t.every {
                        Some(d) => BackoffPolicy::Constant(d),
                        None => self.default_backoff,
                    };
                    let budget = TryBudget {
                        time_limit: t.time,
                        attempt_limit: t.attempts,
                        backoff,
                    };
                    task.frames.push(CFrame::Try {
                        session: TrySession::start(budget, self.now),
                        attempt_ip: task.ip + 1,
                        catch_ip,
                        end_ip,
                        in_catch: false,
                    });
                    task.ip += 1;
                }
                Op::TryAttempt => {
                    let Some(CFrame::Try { session, .. }) = task.frames.last_mut() else {
                        unreachable!("TryAttempt without a try frame")
                    };
                    if session.begin_attempt(self.now) {
                        let attempt = session.attempts();
                        let budget = session.deadline().map(|d| d.saturating_since(self.now));
                        self.log
                            .push(self.now, tid, LogKind::TryAttempt { attempt });
                        self.trace(tid, TraceEv::AttemptStart { attempt, budget });
                        task.res = true;
                        task.ip += 1;
                    } else {
                        self.log.push(self.now, tid, LogKind::TryExhausted);
                        self.trace(tid, TraceEv::TryExhausted);
                        self.fail_try_frame(tid, task);
                    }
                }
                Op::TryResult => {
                    let res = task.res;
                    let Some(CFrame::Try {
                        session,
                        attempt_ip,
                        end_ip,
                        in_catch,
                        ..
                    }) = task.frames.last_mut()
                    else {
                        unreachable!("TryResult without a try frame")
                    };
                    if *in_catch {
                        let end = *end_ip;
                        task.frames.pop();
                        task.ip = end; // res carries the catch result
                    } else if res {
                        let attempt = session.attempts();
                        let end = *end_ip;
                        task.frames.pop();
                        self.trace(tid, TraceEv::AttemptOk { attempt });
                        task.ip = end;
                    } else {
                        let attempt = session.attempts();
                        let aip = *attempt_ip;
                        match session.on_failure(self.now, &mut self.rng) {
                            NextAttempt::RetryAt(t) => {
                                let delay = t.saturating_since(self.now);
                                self.log.push(self.now, tid, LogKind::Backoff { delay });
                                self.trace(tid, TraceEv::Backoff { attempt, delay });
                                task.state = CState::Sleeping { until: t };
                                task.ip = aip;
                                return None;
                            }
                            NextAttempt::Exhausted => {
                                self.log.push(self.now, tid, LogKind::TryExhausted);
                                self.trace(tid, TraceEv::TryExhausted);
                                self.fail_try_frame(tid, task);
                            }
                        }
                    }
                }
                Op::ForAnyEnter { list, var, end_ip } => {
                    let mut values = self.spare_values.pop().unwrap_or_default();
                    values.clear();
                    values.extend(
                        prog.lists[list as usize]
                            .iter()
                            .map(|&w| task.env.expand(&prog.words[w as usize])),
                    );
                    let value = values[0].clone();
                    self.log.for_any_next(self.now, tid, &value);
                    task.env.set_slot(var, value);
                    task.frames.push(CFrame::ForAny {
                        values,
                        idx: 0,
                        var,
                        body_ip: task.ip + 1,
                        end_ip,
                    });
                    task.res = true;
                    task.ip += 1;
                }
                Op::ForAnyResult => {
                    let res = task.res;
                    let Some(CFrame::ForAny {
                        values,
                        idx,
                        var,
                        body_ip,
                        end_ip,
                    }) = task.frames.last_mut()
                    else {
                        unreachable!("ForAnyResult without a forany frame")
                    };
                    if res {
                        let end = *end_ip;
                        self.recycle_forany(task.frames.pop());
                        task.ip = end;
                    } else {
                        *idx += 1;
                        if *idx >= values.len() {
                            let end = *end_ip;
                            self.recycle_forany(task.frames.pop());
                            task.res = false;
                            task.ip = end;
                        } else {
                            let value = values[*idx].clone();
                            let var = *var;
                            let bip = *body_ip;
                            self.log.for_any_next(self.now, tid, &value);
                            task.env.set_slot(var, value);
                            task.res = true;
                            task.ip = bip;
                        }
                    }
                }
                Op::ForAllEnter { list, var, end_ip } => {
                    let values: Vec<Istr> = prog.lists[list as usize]
                        .iter()
                        .map(|&w| task.env.expand(&prog.words[w as usize]))
                        .collect();
                    self.log.push(
                        self.now,
                        tid,
                        LogKind::ForAllSpawn {
                            branches: values.len(),
                        },
                    );
                    let limit = self.max_parallel.unwrap_or(values.len()).max(1);
                    let branch_ip = task.ip + 1;
                    let (now_vals, later_vals) = if values.len() > limit {
                        let later = values[limit..].to_vec();
                        (values[..limit].to_vec(), later)
                    } else {
                        (values, Vec::new())
                    };
                    let mut children = Vec::with_capacity(now_vals.len());
                    for v in now_vals {
                        children.push(self.spawn_branch(tid, &task.env, var, v, branch_ip));
                    }
                    // Pending branches start in reverse-pop order.
                    let mut pending = later_vals;
                    pending.reverse();
                    task.frames.push(CFrame::ForAll {
                        children,
                        pending,
                        var,
                        branch_ip,
                        end_ip,
                    });
                    task.state = CState::WaitingChildren;
                    task.ip = end_ip; // resumed here by child_finished
                    return None;
                }
                Op::TaskEnd => return Some(task.res),
                Op::Ret => {
                    let Some(CFrame::Call {
                        saved_positionals,
                        ret_ip,
                    }) = task.frames.last_mut()
                    else {
                        unreachable!("Ret without a call frame")
                    };
                    let saved = std::mem::take(saved_positionals);
                    let rip = *ret_ip;
                    task.frames.pop();
                    task.call_depth -= 1;
                    task.env.clear_positionals(&prog.slots);
                    for (k, v) in saved {
                        task.env.set_dyn(&prog.slots, k, v);
                    }
                    task.ip = rip; // res carries the body's result
                }
                Op::Cmd(cix) => {
                    if let ControlFlow::Break(blocked) = self.dispatch_cmd(tid, task, &prog, cix) {
                        return blocked;
                    }
                }
            }
        }
    }

    /// Dispatch one command op: a function call (continue in the
    /// body), an immediate failure (empty name, recursion limit), or
    /// an external command (block). `Continue` keeps the run loop
    /// going; `Break` carries `run_task`'s return value (`None`: the
    /// task blocked on the spawned command).
    fn dispatch_cmd(
        &mut self,
        tid: TaskId,
        task: &mut CTask,
        prog: &Prog,
        cix: u32,
    ) -> ControlFlow<Option<bool>> {
        let cmd: &CmdTpl = &prog.cmds[cix as usize];
        let mut argv = self.spare_argv.pop().unwrap_or_default();
        argv.clear();
        argv.extend(
            cmd.argv
                .iter()
                .map(|&w| task.env.expand(&prog.words[w as usize])),
        );
        if argv.first().map(|s| s.is_empty()).unwrap_or(true) {
            // A command whose name expanded to nothing cannot run.
            task.res = false;
            task.ip += 1;
            return ControlFlow::Continue(());
        }

        // Defined functions shadow external commands.
        let entry = match cmd.func {
            FuncRef::None => None,
            FuncRef::Static(id) => self.fn_entries[id as usize],
            FuncRef::Dynamic => prog
                .func_ids
                .get(argv[0].as_str())
                .and_then(|&id| self.fn_entries[id as usize]),
        };
        if let Some(entry) = entry {
            if task.call_depth >= 64 {
                // Runaway recursion is just another untyped failure.
                task.res = false;
                task.ip += 1;
                return ControlFlow::Continue(());
            }
            let saved = task.env.snapshot_positionals(&prog.slots);
            task.env.clear_positionals(&prog.slots);
            task.env
                .set_dyn(&prog.slots, Istr::from("0"), argv[0].clone());
            for (i, a) in argv[1..].iter().enumerate() {
                task.env
                    .set_dyn(&prog.slots, Istr::from((i + 1).to_string()), a.clone());
            }
            task.env.set_dyn(
                &prog.slots,
                Istr::from("*"),
                Istr::from(argv[1..].join(" ")),
            );
            task.frames.push(CFrame::Call {
                saved_positionals: saved,
                ret_ip: task.ip + 1,
            });
            task.call_depth += 1;
            argv.clear();
            if self.spare_argv.len() < 8 {
                self.spare_argv.push(argv);
            }
            task.res = true;
            task.ip = entry;
            return ControlFlow::Continue(());
        }

        let mut input = None;
        let mut output = None;
        let mut both = false;
        let mut out_var = None;
        for r in &cmd.redirs {
            match r {
                RedirTpl::In { var, source } => {
                    let name = task.env.expand(&prog.words[*source as usize]);
                    input = Some(if *var {
                        CmdInput::Data(
                            task.env
                                .get_dyn(&prog.slots, &name)
                                .cloned()
                                .unwrap_or_default(),
                        )
                    } else {
                        CmdInput::File(name)
                    });
                }
                RedirTpl::Out {
                    var,
                    append,
                    both: b,
                    target,
                } => {
                    let name = task.env.expand(&prog.words[*target as usize]);
                    both = *b;
                    if *var {
                        out_var = Some((name.clone(), *append));
                        output = Some(OutSink::Var {
                            name,
                            append: *append,
                        });
                    } else {
                        out_var = None;
                        output = Some(OutSink::File {
                            path: name,
                            append: *append,
                        });
                    }
                }
            }
        }

        let token = self.token_ctr;
        self.token_ctr += 1;
        self.token_task.push((token, tid));
        let spec = CommandSpec {
            argv,
            input,
            output,
            both,
        };
        self.log.cmd_start(self.now, tid, &spec.argv);
        if self.tracer.is_some() {
            self.trace(
                tid,
                TraceEv::CmdStart {
                    program: spec.program().to_string(),
                },
            );
        }
        task.state = CState::RunningCmd {
            token,
            program: spec.argv.first().cloned().unwrap_or_default(),
            out_var,
        };
        task.ip += 1; // resume on the fail-check with res = outcome
        self.effects.push(Effect::Start {
            token,
            task: tid,
            spec,
        });
        ControlFlow::Break(None)
    }

    fn spawn_branch(
        &mut self,
        parent: TaskId,
        parent_env: &CEnv,
        var: SlotIx,
        value: Istr,
        branch_ip: u32,
    ) -> TaskId {
        let mut env = parent_env.clone();
        env.set_slot(var, value);
        let child = CTask {
            frames: Vec::new(),
            env,
            ip: branch_ip,
            res: true,
            state: CState::Ready,
            parent: Some(parent),
            call_depth: 0,
        };
        self.tasks.push(Some(child));
        self.tasks.len() - 1
    }

    fn child_finished(&mut self, pid: TaskId, child: TaskId, res: bool) {
        let Some(mut parent) = self.tasks[pid].take() else {
            return; // parent already cancelled
        };
        let Some(CFrame::ForAll {
            children,
            pending,
            var,
            branch_ip,
            end_ip,
        }) = parent.frames.last_mut()
        else {
            unreachable!("child finished but parent is not in a forall")
        };
        children.retain(|&c| c != child);
        if !res {
            // First failure aborts all outstanding branches; pending
            // ones never start.
            pending.clear();
            let remaining = std::mem::take(children);
            let end = *end_ip;
            parent.frames.pop();
            parent.state = CState::Ready;
            parent.res = false;
            parent.ip = end;
            for c in remaining {
                self.cancel_subtree(c);
            }
        } else if let Some(value) = pending.pop() {
            // A slot freed up: start the next throttled branch.
            let var = *var;
            let bip = *branch_ip;
            let env = parent.env.clone();
            let new_child = self.spawn_branch(pid, &env, var, value, bip);
            if let Some(CFrame::ForAll { children, .. }) = parent.frames.last_mut() {
                children.push(new_child);
            }
        } else if children.is_empty() {
            let end = *end_ip;
            parent.frames.pop();
            parent.state = CState::Ready;
            parent.res = true;
            parent.ip = end;
        }
        self.tasks[pid] = Some(parent);
    }

    fn next_wake(&self) -> Option<Time> {
        let mut wake: Option<Time> = None;
        let mut consider = |t: Time| {
            wake = Some(match wake {
                Some(w) if w <= t => w,
                _ => t,
            });
        };
        for task in self.tasks.iter().flatten() {
            if let CState::Sleeping { until } = task.state {
                consider(until);
            }
            for f in &task.frames {
                if let CFrame::Try {
                    session,
                    in_catch: false,
                    ..
                } = f
                {
                    if let Some(d) = session.deadline() {
                        consider(d);
                    }
                }
            }
        }
        wake
    }
}
