//! The interpreter: a bytecode machine.
//!
//! [`Vm`] executes the flat program produced by [`crate::bytecode`]:
//! dispatch is a jump-threaded loop over copyable ops, sequencing
//! needs no frames at all (it is jump targets), and statically-known
//! variables live in a plain slot vector instead of a hash map. Its
//! semantics are pinned against the tree-walking oracle
//! (`crate::tree`, test-only): identical effects, identical records
//! in identical order, and identical RNG draws (the only
//! draws are inside `TrySession::on_failure`, reached under exactly
//! the same control flow).
//!
//! Variables the program can only name at run time — computed capture
//! targets, initial bindings it never mentions — spill into a per-task
//! side map; [`CEnv::set_dyn`] routes by the compiler's name table, so
//! a name never lives in both places. Function arguments the body never
//! mentions stay on the task's call-window stack ([`Win`]) and are read
//! from there by the rare run-time-named lookup.
//!
//! Scheduling state is one table of *live* tasks in ascending
//! [`TaskId`] order (ids are spawn ordinals and are never reused), so a
//! tick costs in proportion to the tasks alive now, not to the tasks
//! the script ever spawned (DESIGN.md §12).

use crate::ast::Script;
use crate::bytecode::{
    self, is_positional_name, pos_arg, CmdTpl, FuncRef, Op, PosArg, Prog, RedirTpl, SegTpl, SlotIx,
    SlotMap, WordTpl, NO_CATCH,
};
use crate::cond::eval_compiled;
use crate::intern::Istr;
use crate::log::EventLog;
use crate::vm::{
    CmdInput, CmdResult, CmdToken, CommandSpec, Effect, OutSink, TaskId, Tick, VmStatus,
};
use crate::words::{trim_capture, Env};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use retry::{BackoffPolicy, NextAttempt, Time, TryBudget, TrySession};
use simgrid::trace::{SharedSink, TraceEv, TraceRecord};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

/// Variable scope of one task: slot vector for statically-known names
/// plus a spill map for dynamic ones, boxed on the first such binding
/// (no paper script makes one). Copied per `forall` branch.
#[derive(Debug)]
struct CEnv {
    slots: Vec<Option<Istr>>,
    // Boxed: 8 bytes in every task, where the map inline is 48.
    #[allow(clippy::box_collection)]
    extra: Option<Box<HashMap<Istr, Istr>>>,
}

impl CEnv {
    fn new(n: usize) -> CEnv {
        CEnv {
            slots: vec![None; n],
            extra: None,
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

    /// Bind by name, routing to the slot when the name is statically
    /// known so reads through slots always see it.
    fn set_dyn(&mut self, m: &SlotMap, name: Istr, value: Istr) {
        match m.by_name.get(name.as_str()) {
            Some(&s) => self.slots[s as usize] = Some(value),
            None => {
                self.extra_mut().insert(name, value);
            }
        }
    }

    /// The spill map, boxed on first use.
    fn extra_mut(&mut self) -> &mut HashMap<Istr, Istr> {
        self.extra.get_or_insert_with(Box::default)
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

    /// Copy every binding out into a plain [`Env`] (the root task's
    /// final environment).
    fn materialize(&self, m: &SlotMap) -> Env {
        let mut env = Env::new();
        for (i, v) in self.slots.iter().enumerate() {
            if let Some(v) = v {
                env.set(m.names[i].clone(), v.clone());
            }
        }
        for (k, v) in self.extra.iter().flat_map(|m| m.iter()) {
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
    /// Always the top frame of a task in `WaitingChildren`; its
    /// branches are the live tasks whose `parent` is this task.
    ForAll {
        /// Branches running now.
        live: usize,
        /// Branch bindings not yet spawned, next one last.
        pending: Vec<Istr>,
        var: SlotIx,
        branch_ip: u32,
        end_ip: u32,
    },
    Call {
        /// Height of the task's window stack when the call began:
        /// everything above belongs to this call.
        base: u32,
        /// The caller's `args_at`.
        args_at: u32,
        ret_ip: u32,
    },
}

/// A task's control-frame stack, bottom first. The bottom frame sits
/// inline in the task, so a paper client (one `try`, one frame) reaches
/// it through no pointer of its own: [`Vm::prefetch`] loads it with
/// the root task. Deeper frames spill to `rest`, whose buffer outlives
/// `clear`.
#[derive(Debug, Default)]
struct Frames {
    first: Option<CFrame>,
    /// Frames above `first`; empty whenever `first` is.
    rest: Vec<CFrame>,
}

impl Frames {
    /// Push a frame. The first spill reserves exactly what the compiler
    /// measured of the rest (`depth`, the deepest nesting, less the
    /// inline frame), so a script nested two deep holds one frame's
    /// worth of heap rather than `Vec`'s default four.
    fn push(&mut self, depth: u32, frame: CFrame) {
        if self.first.is_none() {
            self.first = Some(frame);
            return;
        }
        if self.rest.capacity() == 0 {
            self.rest.reserve_exact(depth.saturating_sub(1) as usize);
        }
        self.rest.push(frame);
    }

    fn pop(&mut self) -> Option<CFrame> {
        self.rest.pop().or_else(|| self.first.take())
    }

    fn last(&self) -> Option<&CFrame> {
        self.rest.last().or(self.first.as_ref())
    }

    fn last_mut(&mut self) -> Option<&mut CFrame> {
        match self.rest.last_mut() {
            Some(top) => Some(top),
            None => self.first.as_mut(),
        }
    }

    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// Where the lowest frame that `pred` holds for sits.
    fn position(&self, mut pred: impl FnMut(&CFrame) -> bool) -> Option<usize> {
        let first = self.first.as_ref()?;
        if pred(first) {
            return Some(0);
        }
        self.rest.iter().position(pred).map(|i| i + 1)
    }

    /// Bottom first.
    fn iter(&self) -> impl Iterator<Item = &CFrame> {
        self.first.iter().chain(&self.rest)
    }

    fn clear(&mut self) {
        self.first = None;
        self.rest.clear();
    }
}

/// One entry of a task's call-window stack. A call pushes the
/// positional bindings it displaces, then its own arguments; returning
/// pops both, putting the displaced bindings back.
#[derive(Clone, Debug)]
enum Win {
    /// An argument of an active call, `argv[0]` first.
    Arg(Istr),
    /// A caller's binding of a positional slot.
    Slot(SlotIx, Istr),
    /// A caller's binding of a positional name in the spill map.
    Extra(Istr, Istr),
}

/// Argument `i` of a window.
fn arg(args: &[Win], i: usize) -> Option<Istr> {
    match args.get(i)? {
        Win::Arg(a) => Some(a.clone()),
        _ => None,
    }
}

/// What `->>` binds: `value` after the old binding, if any (as
/// [`Env::append`] joins).
fn appended(old: Option<&Istr>, value: &str) -> Istr {
    match old {
        Some(old) => {
            let mut s = String::with_capacity(old.len() + value.len());
            s.push_str(old);
            s.push_str(value);
            Istr::from(s)
        }
        None => Istr::from(value),
    }
}

/// The program a running command started: argv\[0\] read back through
/// template `cix`, or the expansion kept when argv\[0\] is not a literal.
fn program_of<'a>(prog: &'a Prog, cix: u32, kept: Option<&'a Istr>) -> &'a str {
    match kept {
        Some(p) => p,
        None => prog
            .literal_program(cix)
            .expect("a literal argv[0] when none was kept"),
    }
}

/// Where command `cmd` captures its output, if anywhere: the last
/// output redirection decides (a later `>` overrides an earlier `->`).
/// `(slot, append)`, `slot` being `None` for a name the running
/// command keeps.
fn capture_of(cmd: &CmdTpl) -> Option<(Option<SlotIx>, bool)> {
    let last = cmd
        .redirs
        .iter()
        .rev()
        .find(|r| matches!(r, RedirTpl::Out { .. }))?;
    match *last {
        RedirTpl::Out {
            var: true,
            append,
            slot,
            ..
        } => Some((slot, append)),
        _ => None,
    }
}

/// `${*}`: the arguments after the function name, space-joined.
fn star_into(args: &[Win], buf: &mut String) {
    buf.clear();
    for (i, a) in args.iter().skip(1).enumerate() {
        if i > 0 {
            buf.push(' ');
        }
        if let Win::Arg(a) = a {
            buf.push_str(a);
        }
    }
}

#[derive(Debug)]
enum CState {
    Ready,
    /// Waiting on command `token`, started by the command template
    /// `cix`. Its program and capture target are read back through
    /// the template; only what the template cannot say is kept.
    RunningCmd {
        token: CmdToken,
        cix: u32,
        /// argv\[0\], when it is not a literal.
        program: Option<Istr>,
        /// The capture target's name, when its template has no slot
        /// for it (a computed name, or a literal nothing reads).
        target: Option<Istr>,
    },
    Sleeping {
        until: Time,
    },
    WaitingChildren,
}

#[derive(Debug)]
struct CTask {
    /// Spawn ordinal: the root is 0, every branch takes the next
    /// number, and no number is used twice.
    id: TaskId,
    frames: Frames,
    env: CEnv,
    /// Call-window stack; see [`Win`].
    win: Vec<Win>,
    /// Where the innermost active call's arguments start in `win`
    /// (they run to the top). A `forall` branch starts with a copy of
    /// its parent's innermost window at 0.
    args_at: u32,
    /// Instruction pointer into the shared program.
    ip: u32,
    /// The result register: outcome of the last completed statement.
    res: bool,
    state: CState,
    parent: Option<TaskId>,
    /// Number of `Call` frames (function recursion guard).
    call_depth: u32,
}

impl CTask {
    fn new(id: TaskId, env: CEnv) -> CTask {
        CTask {
            id,
            frames: Frames::default(),
            env,
            win: Vec::new(),
            args_at: 0,
            ip: 0,
            res: true,
            state: CState::Ready,
            parent: None,
            call_depth: 0,
        }
    }

    /// Drop every binding, frame and window entry, keeping the buffers.
    fn empty(&mut self) {
        self.frames.clear();
        self.env.slots.clear();
        if let Some(extra) = &mut self.env.extra {
            extra.clear();
        }
        self.win.clear();
        self.state = CState::Ready;
    }

    /// Look a variable up by a name computed at run time (the source
    /// of a `-<` redirection, the old value under `->>`).
    fn lookup(&self, m: &SlotMap, name: &str) -> Option<Istr> {
        if let Some(&s) = m.by_name.get(name) {
            return self.env.get_slot(s).cloned();
        }
        if let Some(v) = self.env.extra.as_ref().and_then(|m| m.get(name)) {
            return Some(v.clone());
        }
        // A positional the program never mentions: still on the window.
        let args = &self.win[self.args_at as usize..];
        match pos_arg(name)? {
            PosArg::Arg(i) => arg(args, i),
            PosArg::Star => {
                let mut joined = String::new();
                star_into(args, &mut joined);
                Some(Istr::from(joined))
            }
            PosArg::Unbound => None,
        }
    }

    /// Enter a function: shelve every positional binding the caller
    /// holds, push `argv` as the new window (emptying it) and bind the
    /// positionals the program mentions. `${*}` is joined here only
    /// when it has a slot; otherwise [`CTask::lookup`] joins on demand.
    fn enter_call(&mut self, prog: &Prog, argv: &mut Vec<Istr>, ret_ip: u32, buf: &mut String) {
        let m = &prog.slots;
        let base = self.win.len() as u32;
        for &(s, _) in &*m.positional {
            if let Some(v) = self.env.slots[s as usize].take() {
                self.win.push(Win::Slot(s, v));
            }
        }
        if let Some(extra) = self.env.extra.as_mut().filter(|m| !m.is_empty()) {
            let win = &mut self.win;
            extra.retain(|k, v| {
                let shelve = is_positional_name(k);
                if shelve {
                    win.push(Win::Extra(k.clone(), v.clone()));
                }
                !shelve
            });
        }
        let frame = CFrame::Call {
            base,
            args_at: self.args_at,
            ret_ip,
        };
        self.frames.push(prog.frame_depth, frame);
        self.call_depth += 1;
        self.args_at = self.win.len() as u32;
        self.win.extend(argv.drain(..).map(Win::Arg));
        let window = &self.win[self.args_at as usize..];
        for &(s, which) in &*m.positional {
            self.env.slots[s as usize] = match which {
                PosArg::Arg(i) => arg(window, i),
                PosArg::Star => {
                    star_into(window, buf);
                    Some(Istr::from(buf.as_str()))
                }
                PosArg::Unbound => None,
            };
        }
    }

    /// Leave a function (its `Ret`, or a deadline unwinding through
    /// the popped `Call` frame, whose fields these are): unbind the
    /// callee's positionals and put the caller's back.
    fn leave_call(&mut self, m: &SlotMap, base: u32, args_at: u32) {
        self.call_depth -= 1;
        for &(s, _) in &*m.positional {
            self.env.slots[s as usize] = None;
        }
        if let Some(extra) = &mut self.env.extra {
            extra.retain(|k, _| !is_positional_name(k));
        }
        for w in self.win.drain(base as usize..) {
            match w {
                Win::Arg(_) => {}
                Win::Slot(s, v) => self.env.slots[s as usize] = Some(v),
                Win::Extra(k, v) => {
                    self.env.extra_mut().insert(k, v);
                }
            }
        }
        self.args_at = args_at;
    }
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
    /// The program, shared by every VM built from the script. Driving
    /// the VM only borrows it: [`Machine`]'s methods take `&Prog`, so no
    /// tick or command touches this refcount.
    prog: Arc<Prog>,
    /// Everything a tick mutates.
    m: Machine,
    /// The root task's bindings, copied out the first time
    /// [`Vm::env`] is asked after the script finished. A population
    /// driver never asks, and so never pays for the copy. A `OnceCell`,
    /// 8 bytes where a `OnceLock` is 16: a `Vm` is `Send`, and no
    /// driver shares one between threads.
    final_env: OnceCell<Box<Env>>,
}

/// The mutable half of a [`Vm`]: its tasks, counters, RNG, log and
/// pools. Kept apart from the program so a tick can borrow the one
/// while it mutates the other.
///
/// Hot and cold (DESIGN.md §12): a field stays here only if every
/// paper client's tick reads it; the rest lives in [`Cold`], boxed on
/// first use, which no submit, buffer or blackhole client ever makes.
struct Machine {
    /// The live tasks, in ascending id order. A finished or cancelled
    /// task leaves at once, so every per-tick pass is over tasks that
    /// can still act, and walking the table front to back visits them
    /// lowest id first.
    tasks: Vec<CTask>,
    /// The id the next `forall` branch takes.
    next_id: TaskId,
    token_ctr: CmdToken,
    rng: StdRng,
    log: EventLog,
    outcome: Option<bool>,
    default_backoff: BackoffPolicy,
    now: Time,
    /// The pooled argv: the string vector the next command dispatch
    /// draws, inline so that the `Vm`'s own lines locate its buffer
    /// ([`Vm::prefetch`] hints it). No buffer while a command holds it.
    /// String vectors to reuse — argv handed back via
    /// [`Vm::recycle_spec`], value lists of finished `forany`/`forall`
    /// loops — are pooled here, and in [`Machine::spill`] once this
    /// holds one. Command dispatch and loop entry draw from the pool
    /// before allocating, so steady-state iteration never allocates.
    /// Each is emptied when pooled, except the argv of an all-literal
    /// command ([`CmdTpl::literal`]): its words are the program's own
    /// literals, so keeping them pins nothing, and the next dispatch of
    /// that command takes the vector as it is. Whoever draws a vector
    /// for anything else empties it first.
    argv: Vec<Istr>,
    /// Pooled vectors beyond the first: a loop's value list beside the
    /// argv, or the argv of a parallel branch. Boxed on first use,
    /// which a script that never holds two vectors at once (a submit
    /// or buffer client) never makes. Not in [`Cold`]: a `forany`
    /// reader pools its value list here every unit. Boxed: 8 bytes in
    /// every `Vm`, where the `Vec` inline is 24.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<Vec<Istr>>>>,
    /// The command whose all-literal argv dispatch handed out last
    /// ([`NO_CMD`] before any): the one argv [`Vm::recycle_spec`] may
    /// pool with its words.
    lit_argv: u32,
    cold: Option<Box<Cold>>,
}

/// What only some scripts or drivers use: functions, a `forall`
/// limit, a trace sink, `forall` branches to recycle, mixed words in
/// an assignment or a condition.
#[derive(Default)]
struct Cold {
    /// Per-function entry point, bound when its `FuncDef` executes;
    /// sized to the program's functions by the first one.
    fn_entries: Vec<Option<u32>>,
    max_parallel: Option<usize>,
    /// The trace sink and the client its records are attributed to.
    tracer: Option<(SharedSink, i64)>,
    /// Retired `forall` branches, emptied but keeping their buffers;
    /// [`Machine::spawn_pending`] refills one instead of allocating.
    spare_tasks: Vec<CTask>,
    /// Mixed-word expansion buffer: segments build here, then one
    /// exact-sized `Istr` copy leaves — no intermediate `String` per
    /// expansion.
    scratch: String,
    /// The right-hand side of a condition, while `scratch` holds the
    /// left.
    scratch_rhs: String,
}

/// Cap on each of the spare pools (the string vectors, the inline one
/// counted, and the retired tasks): a handful covers any realistic
/// burst of parallel branches; beyond that, let excess buffers drop.
const SPARES: usize = 8;

/// [`Machine::lit_argv`] before any all-literal dispatch.
const NO_CMD: u32 = u32::MAX;

/// Position of task `id` in a table sorted by id.
fn pos_of(tasks: &[CTask], id: TaskId) -> Option<usize> {
    tasks.binary_search_by_key(&id, |t| t.id).ok()
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
        let root = CTask::new(0, CEnv::from_env(&env, &prog.slots));
        Vm {
            prog,
            m: Machine {
                tasks: vec![root],
                next_id: 1,
                token_ctr: 0,
                rng: StdRng::seed_from_u64(seed),
                log: EventLog::default(),
                outcome: None,
                default_backoff: BackoffPolicy::ethernet(),
                now: Time::ZERO,
                argv: Vec::new(),
                spill: None,
                lit_argv: NO_CMD,
                cold: None,
            },
            final_env: OnceCell::new(),
        }
    }

    /// Hand a finished command's spec back so its argv buffer can be
    /// reused by the next dispatch. Purely an optimisation: a driver
    /// that drops specs instead loses nothing but the recycling. The
    /// argv of the last all-literal command dispatched is pooled with
    /// its words, when it still holds exactly that command's literals;
    /// any other is emptied first.
    pub fn recycle_spec(&mut self, spec: CommandSpec) {
        let m = &mut self.m;
        let cix = m.lit_argv;
        if cix != NO_CMD && self.prog.holds_literals(cix, &spec.argv) {
            m.pool_vec(spec.argv);
        } else {
            m.recycle_vec(spec.argv);
        }
    }

    /// Start the script over in place, as the client's next work unit:
    /// afterwards the VM is exactly what `Vm::with_env_seed(script, env,
    /// seed)` builds, whatever was in flight forgotten. It keeps the
    /// program, backoff, `forall` limit and tracer, and every
    /// buffer, so a unit whose `env` allocates nothing restarts without
    /// allocating.
    pub fn restart(&mut self, env: Env, seed: u64) {
        let m = &mut self.m;
        let mut tasks = std::mem::take(&mut m.tasks);
        for task in tasks.drain(1..) {
            m.retire(task);
        }
        let root = &mut tasks[0];
        root.empty();
        (root.ip, root.res, root.args_at, root.call_depth) = (0, true, 0, 0);
        root.env.slots.resize(self.prog.slots.len(), None);
        for (k, v) in env.iter() {
            root.env.set_dyn(&self.prog.slots, k.clone(), v.clone());
        }
        m.tasks = tasks;
        m.next_id = 1;
        m.token_ctr = 0;
        if let Some(cold) = &mut m.cold {
            cold.fn_entries.fill(None);
        }
        m.rng = StdRng::seed_from_u64(seed);
        m.log = EventLog::default();
        m.outcome = None;
        m.now = Time::ZERO;
        self.final_env.take();
    }

    /// Bytes one control frame takes on a task's frame stack. For
    /// tests that pin the per-client footprint.
    #[doc(hidden)]
    pub const FRAME_BYTES: usize = std::mem::size_of::<CFrame>();

    /// Bytes one task takes in the task table, its inline frame
    /// included: what [`Vm::prefetch`] hints for the root task. For
    /// tests that pin the per-client footprint.
    #[doc(hidden)]
    pub const TASK_BYTES: usize = std::mem::size_of::<CTask>();

    /// Bytes of the cold part (`Cold`), the one block a VM makes
    /// only on first use. For tests that pin when it is made.
    #[doc(hidden)]
    pub const COLD_BYTES: usize = std::mem::size_of::<Cold>();

    /// Tasks alive right now: the root plus every running `forall`
    /// branch. For tests that pin the task table's size.
    #[doc(hidden)]
    pub fn live_tasks(&self) -> usize {
        self.m.tasks.len()
    }

    /// Ask the CPU to load the blocks a tick reads first through this
    /// VM's own pointers: the root task, where every tick's pass over
    /// the task table starts (its bottom frame, inline, with it), and
    /// the words of the pooled argv, which the next dispatch of an
    /// all-literal command compares with its own (an emptied argv has
    /// none to hint). A hint ([`simgrid::prefetch`]): it changes
    /// nothing. A population driver calls it for the client it will
    /// tick next. It stops there, so a wide `forall` costs no more
    /// hints than a plain script.
    #[inline]
    pub fn prefetch(&self) {
        if let Some(root) = self.m.tasks.first() {
            simgrid::prefetch(root);
        }
        simgrid::prefetch(self.m.argv.as_slice());
    }

    /// Install a structured-trace sink, the one place this VM's records
    /// go, each attributed to `client` (the scenario's client index, or
    /// [`NO_ID`] outside a population). With no sink installed — the
    /// default — no record is built and only the [`Vm::log`] counters
    /// move: the tick path stays allocation-free.
    ///
    /// [`NO_ID`]: simgrid::trace::NO_ID
    pub fn set_tracer(&mut self, sink: SharedSink, client: i64) {
        self.m.cold().tracer = Some((sink, client));
    }

    /// True when a trace sink is installed.
    pub fn has_tracer(&self) -> bool {
        self.m.cold.as_ref().is_some_and(|c| c.tracer.is_some())
    }

    /// Override the backoff policy used by `try` blocks that do not
    /// specify `every`. This is how the Fixed discipline (no delay) and
    /// the jitter ablations are expressed.
    pub fn set_default_backoff(&mut self, p: BackoffPolicy) {
        self.m.default_backoff = p;
    }

    /// The backoff policy `try` blocks without `every` run under.
    pub fn default_backoff(&self) -> BackoffPolicy {
        self.m.default_backoff
    }

    /// Throttle `forall`: at most `n` branches run concurrently, the
    /// rest start as slots free up. §4 notes that "the creation of
    /// processes must be governed by an Ethernet-like algorithm": this
    /// is the limited-allocation obligation applied to the process
    /// table itself. `None` (the default) spawns every branch at once.
    pub fn set_max_parallel(&mut self, n: Option<usize>) {
        if n.is_some() || self.m.cold.is_some() {
            self.m.cold().max_parallel = n.map(|n| n.max(1));
        }
    }

    /// The execution log's counters so far.
    pub fn log(&self) -> &EventLog {
        &self.m.log
    }

    /// Vestige of the retaining log, kept only because the frozen
    /// `benchmark/` names it; delete with the next `benchmark/` change.
    /// Does nothing: a VM keeps only its counters, and its records
    /// leave through the sink [`Vm::set_tracer`] installs.
    #[doc(hidden)]
    pub fn set_log_detail(&mut self, _detailed: bool) {}

    /// The root environment: the variables visible after completion
    /// (empty mid-run).
    pub fn env(&self) -> &Env {
        static EMPTY: OnceLock<Env> = OnceLock::new();
        if self.m.outcome.is_none() {
            return EMPTY.get_or_init(Env::new);
        }
        // The root task stays in the table once the script is done.
        self.final_env
            .get_or_init(|| Box::new(self.m.tasks[0].env.materialize(&self.prog.slots)))
    }

    /// The script outcome, if finished.
    pub fn outcome(&self) -> Option<bool> {
        self.m.outcome
    }

    /// The program of in-flight command `token`, or `None` when this VM
    /// is not waiting on it (never started here, completed, or
    /// cancelled). The waiting task's state is the one record of what
    /// is in flight: a driver asks instead of keeping its own, and so
    /// does the VM — a scan of the live tasks, a handful per VM. The
    /// name is the program's own literal, or the expansion the task
    /// kept when argv\[0\] was computed; nothing is copied.
    pub fn in_flight(&self, token: CmdToken) -> Option<&str> {
        self.m.tasks.iter().find_map(|t| match &t.state {
            CState::RunningCmd {
                token: tk,
                cix,
                program,
                ..
            } if *tk == token => Some(program_of(&self.prog, *cix, program.as_ref())),
            _ => None,
        })
    }

    /// The tokens of every in-flight command, ascending (issue order).
    pub fn in_flight_tokens(&self) -> Vec<CmdToken> {
        let running = self.m.tasks.iter().filter_map(|t| match t.state {
            CState::RunningCmd { token, .. } => Some(token),
            _ => None,
        });
        let mut tokens: Vec<CmdToken> = running.collect();
        tokens.sort_unstable();
        tokens
    }

    /// Report an in-flight command as finished, and say whether this
    /// VM was waiting on it. Stale tokens (already cancelled) are
    /// ignored: the answer is then `false`, and the VM is as it was.
    /// Call [`Vm::tick`] after a `true`.
    pub fn complete(&mut self, token: CmdToken, result: CmdResult) -> bool {
        self.m.complete(&self.prog, token, result)
    }

    /// Advance every runnable strand at virtual instant `now`.
    pub fn tick(&mut self, now: Time) -> Tick {
        let mut effects = Vec::new();
        let status = self.tick_into(now, &mut effects);
        Tick { effects, status }
    }

    /// [`Vm::tick`] into a caller-owned effects buffer: `out` is
    /// cleared and refilled in place. The tick builds its effects in
    /// `out`'s own allocation and hands it straight back, so the VM
    /// never owns an effects buffer — a driver ticking thousands of
    /// VMs in a loop keeps one buffer, always the same one, hot.
    pub fn tick_into(&mut self, now: Time, out: &mut Vec<Effect>) -> VmStatus {
        self.m.tick_into(&self.prog, now, out)
    }
}

impl Machine {
    /// The cold part, boxed the first time something needs it.
    fn cold(&mut self) -> &mut Cold {
        self.cold.get_or_insert_with(Box::default)
    }

    /// The entry point of function `id`, once its definition ran.
    fn fn_entry(&self, id: u32) -> Option<u32> {
        let cold = self.cold.as_deref()?;
        cold.fn_entries.get(id as usize).copied().flatten()
    }

    fn recycle_vec(&mut self, mut v: Vec<Istr>) {
        v.clear();
        self.pool_vec(v);
    }

    /// Pool `v` as it is: emptied, or the literal argv of a command.
    /// It becomes the pooled argv if there is none, and spills
    /// otherwise.
    #[inline(always)]
    fn pool_vec(&mut self, v: Vec<Istr>) {
        if self.argv.capacity() == 0 {
            self.argv = v;
        } else {
            self.spill_vec(v);
        }
    }

    /// Pool `v` beside the pooled argv, boxing the spill on first use.
    /// Out of line: only a loop or a parallel branch gets here, and
    /// [`Machine::pool_vec`] is inlined into every recycle.
    #[inline(never)]
    fn spill_vec(&mut self, v: Vec<Istr>) {
        let spill = self.spill.get_or_insert_with(|| {
            // One spilled vector is all a `forany` client ever pools.
            Box::new(Vec::with_capacity(1))
        });
        if spill.len() < SPARES - 1 {
            spill.push(v);
        }
    }

    /// The pooled argv, for a command dispatch: the inline one, or a
    /// spilled one when a dispatch already holds that, or a new one.
    #[inline(always)]
    fn take_argv(&mut self) -> Vec<Istr> {
        if self.argv.capacity() != 0 {
            std::mem::take(&mut self.argv)
        } else {
            self.unspill().unwrap_or_default()
        }
    }

    /// The vector spilled last, if any.
    fn unspill(&mut self) -> Option<Vec<Istr>> {
        self.spill.as_mut().and_then(|s| s.pop())
    }

    /// An empty vector for a loop's values: a spilled one first, so
    /// that the inline one stays for the loop body's commands, then
    /// the inline one, then a new one.
    fn take_vec(&mut self) -> Vec<Istr> {
        let mut v = match self.unspill() {
            Some(v) => v,
            None => std::mem::take(&mut self.argv),
        };
        v.clear();
        v
    }

    /// Reclaim the value vector of a popped loop frame.
    fn recycle_frame(&mut self, frame: Option<CFrame>) {
        match frame {
            Some(CFrame::ForAny { values, .. }) => self.recycle_vec(values),
            Some(CFrame::ForAll { pending, .. }) => self.recycle_vec(pending),
            _ => {}
        }
    }

    /// Emit the record of one transition of task `tid` to the sink, if
    /// one is installed; `ev` runs only then. A kind that
    /// [`LogSummary`] counts bumps its counter beside the call, whoever
    /// listens.
    ///
    /// [`LogSummary`]: crate::log::LogSummary
    #[inline]
    fn emit(&mut self, tid: TaskId, ev: impl FnOnce() -> TraceEv) {
        if let Some((sink, client)) = self.cold.as_ref().and_then(|c| c.tracer.as_ref()) {
            let rec = TraceRecord {
                t: self.now,
                client: *client,
                task: tid as i64,
                ev: ev(),
            };
            sink.lock().expect("trace sink poisoned").record(&rec);
        }
    }

    /// [`Vm::complete`]. A capture is bound straight into the slot its
    /// template names (a name without a slot routes by name), and the output
    /// handle itself is bound when there is no newline to trim.
    fn complete(&mut self, prog: &Prog, token: CmdToken, result: CmdResult) -> bool {
        let waiting = self
            .tasks
            .iter_mut()
            .find(|t| matches!(t.state, CState::RunningCmd { token: tk, .. } if tk == token));
        let Some(task) = waiting else {
            return false; // cancelled earlier; the race is benign
        };
        let tid = task.id;
        let CState::RunningCmd {
            cix,
            program,
            target,
            ..
        } = std::mem::replace(&mut task.state, CState::Ready)
        else {
            unreachable!("matched above")
        };
        // The instruction pointer already sits just past the dispatch
        // op (on its fail-check); the command's outcome lands in the
        // result register.
        let ok = result.success;
        task.res = ok;
        if let Some((slot, append)) = capture_of(&prog.cmds[cix as usize]) {
            let name = match slot {
                Some(s) => &prog.slots.names[s as usize],
                None => target
                    .as_ref()
                    .expect("a capture without a slot keeps its name"),
            };
            let stdout = result.stdout;
            let full = stdout.as_deref().unwrap_or("");
            let value = trim_capture(full);
            let bound = if append {
                let old = match slot {
                    Some(s) => task.env.get_slot(s).cloned(),
                    None => task.lookup(&prog.slots, name),
                };
                appended(old.as_ref(), value)
            } else if value.len() == full.len() {
                stdout.unwrap_or_default()
            } else {
                Istr::from(value)
            };
            match slot {
                Some(s) => task.env.set_slot(s, bound),
                None => task.env.set_dyn(&prog.slots, name.clone(), bound),
            }
            self.emit(tid, || TraceEv::VarSet {
                name: name.to_string(),
            });
        }
        if ok {
            self.log.summary.commands_succeeded += 1;
        } else {
            self.log.summary.commands_failed += 1;
        }
        self.emit(tid, || TraceEv::CmdEnd {
            program: program_of(prog, cix, program.as_ref()).to_string(),
            ok,
        });
        true
    }

    /// [`Vm::tick_into`].
    fn tick_into(&mut self, prog: &Prog, now: Time, out: &mut Vec<Effect>) -> VmStatus {
        debug_assert!(now >= self.now, "tick time went backwards");
        self.now = now;
        out.clear();

        if self.outcome.is_none() {
            // The table is lifted out so a task can be stepped in place
            // while `self` stays borrowable.
            let mut tasks = std::mem::take(&mut self.tasks);
            self.fire_deadlines(prog, &mut tasks, out);
            for task in &mut tasks {
                // A sleeper's instruction pointer was parked on the
                // admission op when its backoff began.
                if matches!(task.state, CState::Sleeping { until } if until <= now) {
                    task.state = CState::Ready;
                }
            }
            self.step_all(prog, &mut tasks, out);
            self.tasks = tasks;
        }

        match self.outcome {
            Some(success) => VmStatus::Done { success },
            None => VmStatus::Running {
                next_wake: self.next_wake(),
            },
        }
    }

    fn fire_deadlines(&mut self, prog: &Prog, tasks: &mut Vec<CTask>, out: &mut Vec<Effect>) {
        let mut pos = 0;
        while pos < tasks.len() {
            let task = &mut tasks[pos];
            let expired = task.frames.position(|f| match f {
                CFrame::Try {
                    session, in_catch, ..
                } => !in_catch && session.expired(self.now),
                _ => false,
            });
            if let Some(i) = expired {
                let forked = matches!(task.frames.last(), Some(CFrame::ForAll { .. }));
                while task.frames.len() > i + 1 {
                    if let Some(CFrame::Call { base, args_at, .. }) = task.frames.pop() {
                        task.leave_call(&prog.slots, base, args_at);
                    }
                }
                if forked {
                    // Branches have higher ids: they sit past `pos`,
                    // and removing them leaves `pos` where it is.
                    let id = task.id;
                    self.cancel_children(prog, tasks, id, pos + 1, out);
                }
                let task = &mut tasks[pos];
                self.cancel_running_cmd(prog, task, out);
                self.log.summary.timed_out_tries += 1;
                self.emit(task.id, || TraceEv::TryTimeout);
                self.fail_try_frame(task);
                task.state = CState::Ready;
            }
            pos += 1;
        }
    }

    /// The top frame of `task` is a `Try` whose budget is spent: aim
    /// the instruction pointer at its catch handler, or pop it and
    /// leave failure in the result register (the op at `end_ip` is the
    /// fail-check). Does not touch the task state.
    fn fail_try_frame(&mut self, task: &mut CTask) {
        let tid = task.id;
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
            self.log.summary.catches += 1;
            self.emit(tid, || TraceEv::CatchEntered);
            task.ip = catch_ip;
            task.res = true;
        } else {
            let end = *end_ip;
            task.frames.pop();
            task.ip = end;
            task.res = false;
        }
    }

    fn cancel_running_cmd(&mut self, prog: &Prog, task: &CTask, out: &mut Vec<Effect>) {
        if let CState::RunningCmd {
            token,
            cix,
            program,
            ..
        } = &task.state
        {
            out.push(Effect::Cancel { token: *token });
            self.log.summary.commands_cancelled += 1;
            self.emit(task.id, || TraceEv::CmdKilled {
                program: program_of(prog, *cix, program.as_ref()).to_string(),
            });
        }
    }

    /// Cancel every branch of task `pid`, lowest id first and each
    /// one's own branches right after it. `from` is any position at or
    /// before the first of them.
    fn cancel_children(
        &mut self,
        prog: &Prog,
        tasks: &mut Vec<CTask>,
        pid: TaskId,
        from: usize,
        out: &mut Vec<Effect>,
    ) {
        let mut pos = from;
        while pos < tasks.len() {
            if tasks[pos].parent != Some(pid) {
                pos += 1;
                continue;
            }
            let child = tasks.remove(pos);
            self.cancel_running_cmd(prog, &child, out);
            if matches!(child.state, CState::WaitingChildren) {
                self.cancel_children(prog, tasks, child.id, pos, out);
            }
            self.retire(child);
        }
    }

    /// Keep a dead branch's buffers, emptied, for the next spawn.
    fn retire(&mut self, mut task: CTask) {
        let spares = &mut self.cold().spare_tasks;
        if spares.len() < SPARES {
            task.empty();
            spares.push(task);
        }
    }

    /// Step ready tasks, lowest id first, until none is ready. No task
    /// before the cursor is ready: stepping a task wakes nothing but
    /// its parent (when its last branch ends), and [`Vm::finish`] then
    /// moves the cursor back there.
    fn step_all(&mut self, prog: &Prog, tasks: &mut Vec<CTask>, out: &mut Vec<Effect>) {
        let mut at = 0;
        while at < tasks.len() && self.outcome.is_none() {
            if !matches!(tasks[at].state, CState::Ready) {
                at += 1;
                continue;
            }
            if let Some(result) = self.run_task(prog, &mut tasks[at], out) {
                at = self.finish(prog, tasks, at, result, out);
            } else {
                if matches!(tasks[at].state, CState::WaitingChildren) {
                    self.spawn_pending(tasks, at);
                }
                at += 1;
            }
        }
    }

    /// The task at `at` ran off the end of its code. Returns where the
    /// step cursor goes next.
    fn finish(
        &mut self,
        prog: &Prog,
        tasks: &mut Vec<CTask>,
        at: usize,
        result: bool,
        out: &mut Vec<Effect>,
    ) -> usize {
        let task = &tasks[at];
        let Some(pid) = task.parent else {
            self.outcome = Some(result);
            self.emit(task.id, || TraceEv::UnitDone { ok: result });
            return at;
        };
        let branch = tasks.remove(at);
        self.retire(branch);
        // A cancelled parent takes its branches with it, so a branch
        // that ran has a live parent — before it, the id being lower.
        let ppos = pos_of(tasks, pid).expect("a branch outlived its forall");
        let parent = &mut tasks[ppos];
        let Some(CFrame::ForAll {
            live,
            pending,
            end_ip,
            ..
        }) = parent.frames.last_mut()
        else {
            unreachable!("child finished but parent is not in a forall")
        };
        *live -= 1;
        if result && (*live > 0 || !pending.is_empty()) {
            // A slot freed up: start the next throttled branch. What
            // slid into `at` has a higher id than the branch that left.
            self.spawn_pending(tasks, ppos);
            return at;
        }
        // Joined — or the first failure, which aborts all outstanding
        // branches; pending ones never start.
        parent.ip = *end_ip;
        parent.res = result;
        parent.state = CState::Ready;
        let frame = parent.frames.pop();
        self.recycle_frame(frame);
        if !result {
            self.cancel_children(prog, tasks, pid, ppos + 1, out);
        }
        ppos
    }

    /// The dispatch loop: run one task until it blocks or finishes.
    /// Returns `Some(result)` when its code region ends.
    #[allow(clippy::too_many_lines)]
    fn run_task(&mut self, prog: &Prog, task: &mut CTask, out: &mut Vec<Effect>) -> Option<bool> {
        let tid = task.id;
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
                        let s = task.env.expand_str(w, &mut self.cold().scratch);
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
                    self.emit(tid, || TraceEv::VarSet {
                        name: prog.slots.names[slot as usize].to_string(),
                    });
                    task.res = true;
                    task.ip += 1;
                }
                Op::EvalCond {
                    cond,
                    on_false,
                    on_err,
                } => {
                    let c = &prog.conds[cond as usize];
                    let (lw, rw) = (&prog.words[c.lhs as usize], &prog.words[c.rhs as usize]);
                    // Only a mixed word builds into a buffer: a plain
                    // slot or literal is borrowed, and leaves the cold
                    // part unmade.
                    let mut unused = (String::new(), String::new());
                    let (sl, sr) = if [lw, rw].iter().any(|w| matches!(w, WordTpl::Mixed(_))) {
                        let cold = self.cold();
                        (&mut cold.scratch, &mut cold.scratch_rhs)
                    } else {
                        (&mut unused.0, &mut unused.1)
                    };
                    let lhs = task.env.expand_str(lw, sl);
                    let rhs = task.env.expand_str(rw, sr);
                    match eval_compiled(c.op, c.nums, lhs, rhs) {
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
                    let entries = &mut self.cold().fn_entries;
                    entries.resize(prog.func_names.len(), None);
                    entries[func as usize] = Some(entry);
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
                    let frame = CFrame::Try {
                        session: TrySession::start(budget, self.now),
                        attempt_ip: task.ip + 1,
                        catch_ip,
                        end_ip,
                        in_catch: false,
                    };
                    task.frames.push(prog.frame_depth, frame);
                    task.ip += 1;
                }
                Op::TryAttempt => {
                    let Some(CFrame::Try { session, .. }) = task.frames.last_mut() else {
                        unreachable!("TryAttempt without a try frame")
                    };
                    if session.begin_attempt(self.now) {
                        let attempt = session.attempts();
                        let budget = session.deadline().map(|d| d.saturating_since(self.now));
                        self.log.summary.attempts += 1;
                        self.emit(tid, || TraceEv::AttemptStart { attempt, budget });
                        task.res = true;
                        task.ip += 1;
                    } else {
                        self.log.summary.exhausted_tries += 1;
                        self.emit(tid, || TraceEv::TryExhausted);
                        self.fail_try_frame(task);
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
                        self.emit(tid, || TraceEv::AttemptOk { attempt });
                        task.ip = end;
                    } else {
                        let attempt = session.attempts();
                        let aip = *attempt_ip;
                        match session.on_failure(self.now, &mut self.rng) {
                            NextAttempt::RetryAt(t) => {
                                let delay = t.saturating_since(self.now);
                                self.log.summary.backoffs += 1;
                                self.log.summary.total_backoff += delay;
                                self.emit(tid, || TraceEv::Backoff { attempt, delay });
                                task.state = CState::Sleeping { until: t };
                                task.ip = aip;
                                return None;
                            }
                            NextAttempt::Exhausted => {
                                self.log.summary.exhausted_tries += 1;
                                self.emit(tid, || TraceEv::TryExhausted);
                                self.fail_try_frame(task);
                            }
                        }
                    }
                }
                Op::ForAnyEnter { list, var, end_ip } => {
                    let mut values = self.take_vec();
                    values.extend(
                        prog.lists[list as usize]
                            .iter()
                            .map(|&w| task.env.expand(&prog.words[w as usize])),
                    );
                    let value = values[0].clone();
                    self.log.summary.alternatives_tried += 1;
                    self.emit(tid, || TraceEv::ForAnyNext {
                        value: value.to_string(),
                    });
                    task.env.set_slot(var, value);
                    let frame = CFrame::ForAny {
                        values,
                        idx: 0,
                        var,
                        body_ip: task.ip + 1,
                        end_ip,
                    };
                    task.frames.push(prog.frame_depth, frame);
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
                        self.recycle_frame(task.frames.pop());
                        task.ip = end;
                    } else {
                        *idx += 1;
                        if *idx >= values.len() {
                            let end = *end_ip;
                            self.recycle_frame(task.frames.pop());
                            task.res = false;
                            task.ip = end;
                        } else {
                            let value = values[*idx].clone();
                            let var = *var;
                            let bip = *body_ip;
                            self.log.summary.alternatives_tried += 1;
                            self.emit(tid, || TraceEv::ForAnyNext {
                                value: value.to_string(),
                            });
                            task.env.set_slot(var, value);
                            task.res = true;
                            task.ip = bip;
                        }
                    }
                }
                Op::ForAllEnter { list, var, end_ip } => {
                    let mut pending = self.take_vec();
                    pending.extend(
                        prog.lists[list as usize]
                            .iter()
                            .map(|&w| task.env.expand(&prog.words[w as usize])),
                    );
                    self.emit(tid, || TraceEv::ForAllSpawn {
                        branches: pending.len() as u64,
                    });
                    // Branches start in list order, popped off the
                    // back; `step_all` spawns them once this returns.
                    pending.reverse();
                    let frame = CFrame::ForAll {
                        live: 0,
                        pending,
                        var,
                        branch_ip: task.ip + 1,
                        end_ip,
                    };
                    task.frames.push(prog.frame_depth, frame);
                    task.state = CState::WaitingChildren;
                    task.ip = end_ip; // resumed here by `finish`
                    return None;
                }
                Op::TaskEnd => return Some(task.res),
                Op::Ret => {
                    let Some(CFrame::Call {
                        base,
                        args_at,
                        ret_ip,
                    }) = task.frames.pop()
                    else {
                        unreachable!("Ret without a call frame")
                    };
                    task.leave_call(&prog.slots, base, args_at);
                    task.ip = ret_ip; // res carries the body's result
                }
                Op::Cmd(cix) => {
                    if let ControlFlow::Break(blocked) = self.dispatch_cmd(task, prog, cix, out) {
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
        task: &mut CTask,
        prog: &Prog,
        cix: u32,
        out: &mut Vec<Effect>,
    ) -> ControlFlow<Option<bool>> {
        let tid = task.id;
        let cmd: &CmdTpl = &prog.cmds[cix as usize];
        let mut argv = self.take_argv();
        if cmd.literal {
            self.lit_argv = cix;
        }
        // A spare that holds this command's literals is its argv
        // already: no word is cloned, and no refcount moves.
        if !(cmd.literal && prog.holds_literals(cix, &argv)) {
            argv.clear();
            argv.extend(
                cmd.argv
                    .iter()
                    .map(|&w| task.env.expand(&prog.words[w as usize])),
            );
        }
        if argv.first().map(|s| s.is_empty()).unwrap_or(true) {
            // A command whose name expanded to nothing cannot run.
            self.recycle_vec(argv);
            task.res = false;
            task.ip += 1;
            return ControlFlow::Continue(());
        }

        // Defined functions shadow external commands.
        let entry = match cmd.func {
            FuncRef::None => None,
            FuncRef::Static(id) => self.fn_entry(id),
            FuncRef::Dynamic => prog
                .func_ids
                .get(argv[0].as_str())
                .and_then(|&id| self.fn_entry(id)),
        };
        if let Some(entry) = entry {
            if task.call_depth >= 64 {
                // Runaway recursion is just another untyped failure.
                self.recycle_vec(argv);
                task.res = false;
                task.ip += 1;
                return ControlFlow::Continue(());
            }
            task.enter_call(prog, &mut argv, task.ip + 1, &mut self.cold().scratch);
            self.recycle_vec(argv);
            task.res = true;
            task.ip = entry;
            return ControlFlow::Continue(());
        }

        let mut input = None;
        let mut output = None;
        let mut both = false;
        let mut target = None;
        for r in &cmd.redirs {
            match r {
                RedirTpl::In { var, source } => {
                    let name = task.env.expand(&prog.words[*source as usize]);
                    input = Some(if *var {
                        CmdInput::Data(task.lookup(&prog.slots, &name).unwrap_or_default())
                    } else {
                        CmdInput::File(name)
                    });
                }
                RedirTpl::Out {
                    var,
                    append,
                    both: b,
                    target: word,
                    slot,
                } => {
                    let name = task.env.expand(&prog.words[*word as usize]);
                    both = *b;
                    // A capture is read back through the template at
                    // completion; only a name without a slot is kept.
                    target = (*var && slot.is_none()).then(|| name.clone());
                    output = Some(if *var {
                        OutSink::Var {
                            name,
                            append: *append,
                        }
                    } else {
                        OutSink::File {
                            path: name,
                            append: *append,
                        }
                    });
                }
            }
        }

        let token = self.token_ctr;
        self.token_ctr += 1;
        let spec = CommandSpec {
            argv,
            input,
            output,
            both,
        };
        self.log.summary.commands_started += 1;
        self.emit(tid, || TraceEv::CmdStart {
            program: spec.program().to_string(),
            args: spec.argv[1..].iter().map(Istr::to_string).collect(),
        });
        task.state = CState::RunningCmd {
            token,
            cix,
            program: prog
                .literal_program(cix)
                .is_none()
                .then(|| spec.argv[0].clone()),
            target,
        };
        task.ip += 1; // resume on the fail-check with res = outcome
        out.push(Effect::Start {
            token,
            task: tid,
            spec,
        });
        ControlFlow::Break(None)
    }

    /// Start branches of the `forall` that `tasks[ppos]` waits on, in
    /// list order, until the parallelism limit or the list runs out.
    /// A branch is a copy of its parent's scope and innermost call
    /// window with the loop variable bound; its id is the highest yet,
    /// so pushing it keeps the table sorted.
    fn spawn_pending(&mut self, tasks: &mut Vec<CTask>, ppos: usize) {
        let limit = self.cold.as_ref().and_then(|c| c.max_parallel);
        let limit = limit.unwrap_or(usize::MAX);
        loop {
            let parent = &mut tasks[ppos];
            let Some(CFrame::ForAll {
                live,
                pending,
                var,
                branch_ip,
                ..
            }) = parent.frames.last_mut()
            else {
                unreachable!("spawning for a task that is not in a forall")
            };
            if *live >= limit {
                return;
            }
            let Some(value) = pending.pop() else { return };
            *live += 1;
            // A retired branch's buffers, emptied, or fresh ones.
            let spare = self.cold.as_mut().and_then(|c| c.spare_tasks.pop());
            let mut child = CTask {
                id: self.next_id,
                parent: Some(parent.id),
                ip: *branch_ip,
                res: true,
                args_at: 0,
                call_depth: 0,
                ..spare.unwrap_or_else(|| CTask::new(0, CEnv::new(0)))
            };
            self.next_id += 1;
            child.env.slots.clone_from(&parent.env.slots);
            child.env.extra.clone_from(&parent.env.extra);
            child.env.set_slot(*var, value);
            let window = &parent.win[parent.args_at as usize..];
            child.win.extend_from_slice(window);
            tasks.push(child);
        }
    }

    fn next_wake(&self) -> Option<Time> {
        let mut wake: Option<Time> = None;
        let mut consider = |t: Time| {
            wake = Some(match wake {
                Some(w) if w <= t => w,
                _ => t,
            });
        };
        for task in &self.tasks {
            if let CState::Sleeping { until } = task.state {
                consider(until);
            }
            for f in task.frames.iter() {
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
