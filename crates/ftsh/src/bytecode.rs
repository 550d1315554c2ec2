//! Compilation of the spanned AST to flat bytecode.
//!
//! Walking the shared `Arc<[Stmt]>` AST directly means re-matching
//! statement nodes every tick, pushing `Block`-holding frames (two
//! `Arc` refcount bumps each), and resolving every variable through a
//! `HashMap<Istr, Istr>`; at population scale that dispatch is the
//! simulation floor. This module compiles a script once into a
//! [`Prog`]: a flat `Vec<Op>` with explicit jump targets, word
//! templates whose variable references are preresolved to *slots*
//! (indices into a per-task `Vec<Option<Istr>>`), and side tables for
//! commands, conditions, `try` budgets and loop value lists. The
//! interpreter ([`crate::Vm`]) then runs a jump-threaded loop over
//! plain array indexing, and the static analyses in `ftshlint` walk
//! the same program (source spans ride in side tables for their
//! diagnostics).
//!
//! Lowering rules (the equivalence argument is spelled out in
//! DESIGN.md §12):
//!
//! * A *group* is fail-fast: every fallible statement is followed by a
//!   [`Op::JmpIfFail`] to the group's result op, so the eventual result
//!   op always observes the group outcome in the `res` register.
//! * `try` lowers to [`Op::TryEnter`] (push a frame holding the live
//!   `TrySession`), [`Op::TryAttempt`] (admission: budget check, log,
//!   trace), the body group, and [`Op::TryResult`] (success pops;
//!   failure consults the session for backoff-sleep-and-loop, catch
//!   entry, or exhaustion) — the exact decision order of the oracle.
//! * `forany`/`forall` lower to enter ops that expand the value list at
//!   runtime and a result op (`forany`) or task spawning (`forall`,
//!   whose branch region ends in [`Op::TaskEnd`] like the root).
//! * Function bodies compile out of line, ending in [`Op::Ret`];
//!   [`Op::FuncDef`] binds name → entry at execution time, preserving
//!   definition-before-use and later-override semantics.
//!
//! Compiled programs are cached process-wide, keyed on the identity of
//! the script's statement allocation: a population of VMs built from
//! one parsed script compiles once.

use crate::ast::{Block, Cond, CondOp, Redir, RedirTarget, Script, Seg, Span, Stmt, TrySpec, Word};
use crate::cond::parse_num;
use crate::intern::Istr;
use retry::Dur;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Index into [`Prog::slots`]' name table / a task's slot vector.
pub type SlotIx = u32;
/// Index into [`Prog::words`].
pub type WordIx = u32;
/// Instruction pointer: index into [`Prog::ops`].
pub type Ip = u32;

/// Sentinel for "no catch clause" in [`Op::TryEnter`].
pub const NO_CATCH: Ip = Ip::MAX;

/// One segment of a mixed word template.
#[derive(Debug)]
pub enum SegTpl {
    /// A literal run of characters.
    Lit(Istr),
    /// A `${var}` substitution, preresolved to its slot.
    Slot(SlotIx),
}

/// A compiled word: what [`crate::words::Env::expand`] decides per
/// expansion, decided once at compile time instead.
#[derive(Debug)]
pub enum WordTpl {
    /// The empty word.
    Empty,
    /// Fully literal: expansion is a refcount bump.
    Lit(Istr),
    /// A bare `${var}`: expansion is a slot read.
    Slot(SlotIx),
    /// Mixed literal/variable segments: expansion builds a string.
    Mixed(Box<[SegTpl]>),
}

/// A compiled `if` condition, plus the branch layout metadata static
/// analysis needs to reconstruct the structured `if` from flat code
/// (the interpreter itself never reads `else_ip`/`join`; it follows
/// the jumps threaded through [`Op::EvalCond`]).
#[derive(Debug)]
pub struct CondTpl {
    /// Left-hand word of the comparison.
    pub lhs: WordIx,
    /// The comparison operator.
    pub op: CondOp,
    /// Right-hand word of the comparison.
    pub rhs: WordIx,
    /// Under a numeric operator, each side's value when that side is a
    /// literal that reads as a number, read once here; `None` when the
    /// side must be expanded and read at each evaluation.
    pub nums: [Option<f64>; 2],
    /// Entry of the `else` branch, when the `if` has one. The `then`
    /// branch is `[cond_ip + 1, else_ip - 1)` (the op at `else_ip - 1`
    /// is the `Jmp` over the else).
    pub else_ip: Option<Ip>,
    /// First op after the whole `if`: where the branches rejoin.
    pub join: Ip,
}

/// A compiled `try` header (the budget inputs; the live session is
/// built per execution).
#[derive(Debug)]
pub struct TryTpl {
    /// `for N <unit>` wall-clock budget, if given.
    pub time: Option<Dur>,
    /// `N times` attempt budget, if given.
    pub attempts: Option<u32>,
    /// `every N <unit>` fixed retry spacing, overriding the
    /// discipline's backoff policy.
    pub every: Option<Dur>,
}

/// A compiled redirection. Applied left to right at dispatch (a later
/// `>` overrides an earlier one; its `both` flag wins).
#[derive(Debug)]
pub enum RedirTpl {
    /// `< source` / `-< var`.
    In {
        /// Reads from a variable (`-<`) rather than a file.
        var: bool,
        /// The file name or variable name word.
        source: WordIx,
    },
    /// `> target` / `>> target` / `-> var` and friends.
    Out {
        /// Writes to a variable (`->`) rather than a file.
        var: bool,
        /// Appends (`>>`) instead of truncating.
        append: bool,
        /// Captures stderr along with stdout (`2>` forms).
        both: bool,
        /// The file name or variable name word.
        target: WordIx,
        /// A capture's slot when its name is a literal the script also
        /// reads: the result is bound there without expanding or
        /// hashing the name. `None` for a file, a name computed at run
        /// time, and a literal name nothing reads (those route by name).
        slot: Option<SlotIx>,
    },
}

/// How a command's `argv[0]` relates to defined functions.
#[derive(Clone, Copy, Debug)]
pub enum FuncRef {
    /// Statically not a function name: skip the lookup entirely.
    None,
    /// A literal name that *is* a known function name: check whether
    /// its definition has executed yet.
    Static(u32),
    /// `argv[0]` contains substitutions and the program defines
    /// functions: look the expanded name up at dispatch.
    Dynamic,
}

/// A compiled command.
#[derive(Debug)]
pub struct CmdTpl {
    /// The argument words, `argv[0]` first.
    pub argv: Box<[WordIx]>,
    /// Redirections, applied left to right at dispatch.
    pub redirs: Box<[RedirTpl]>,
    /// Whether `argv[0]` can name a defined function.
    pub func: FuncRef,
    /// Whether every argv word is a [`WordTpl::Lit`]: the argv is the
    /// same strings at every dispatch.
    pub literal: bool,
}

/// The static variable-name table: every name the script mentions
/// statically gets a slot; dynamic sets (computed capture targets)
/// route through `by_name` and fall back to a per-task spill map.
#[derive(Debug)]
pub struct SlotMap {
    /// Slot index → variable name.
    pub names: Box<[Istr]>,
    /// The slots with positional names, and what a call binds to each.
    /// A call boundary touches exactly these slots, so a function call
    /// costs in proportion to the positionals the script mentions, not
    /// to its variable count.
    pub positional: Box<[(SlotIx, PosArg)]>,
    /// Variable name → slot index.
    pub by_name: HashMap<Istr, SlotIx>,
}

impl SlotMap {
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

/// One bytecode instruction. The interpreter keeps a boolean result
/// register (`res`) per task; ops read and write it instead of
/// threading `Ctl::Return(bool)` through frame matches.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `res = true`.
    Success,
    /// `res = false` (the `failure` atom; always followed by a jump to
    /// the group's result op).
    Failure,
    /// Unconditional jump.
    Jmp(Ip),
    /// Jump when `res` is false (fail-fast edge of a group).
    JmpIfFail(Ip),
    /// `name=value`: expand, bind the slot, log `VarSet`; `res = true`.
    Assign {
        /// Destination slot.
        slot: SlotIx,
        /// The value word to expand.
        value: WordIx,
    },
    /// Evaluate a condition. `Ok(true)`: fall through. `Ok(false)`:
    /// jump to `on_false` (the else branch, or the join). `Err`: the
    /// statement itself fails — `res = false`, jump to `on_err` (the
    /// enclosing group's result op).
    EvalCond {
        /// Index into [`Prog::conds`].
        cond: u32,
        /// Target when the condition is false.
        on_false: Ip,
        /// Target when evaluation errors (non-numeric comparison).
        on_err: Ip,
    },
    /// Bind a function name to its body's entry point; `res = true`.
    FuncDef {
        /// Function id (index into [`Prog::func_names`]).
        func: u32,
        /// Entry point of the out-of-line body.
        entry: Ip,
    },
    /// Dispatch a command (or a function call when `argv[0]` names a
    /// defined function). Blocks the task on an external command.
    Cmd(u32),
    /// Push a `try` frame with a fresh session. Falls through to the
    /// admission op at `ip + 1`.
    TryEnter {
        /// Index into [`Prog::tries`].
        tri: u32,
        /// Catch-group entry, or [`NO_CATCH`]. The body group runs
        /// `[ip + 2, catch_ip - 1)` when a catch exists (the op before
        /// the catch entry is the body's [`Op::TryResult`]), else
        /// `[ip + 2, end_ip - 1)`.
        catch_ip: Ip,
        /// First op past the whole `try` (its fail-fast `JmpIfFail`).
        end_ip: Ip,
    },
    /// Admission: `begin_attempt` or the spent path.
    TryAttempt,
    /// The body (or catch) group finished with `res`.
    TryResult,
    /// Expand the value list, push a `forany` frame, bind the first
    /// value. Body begins at `ip + 1`.
    ForAnyEnter {
        /// Index into [`Prog::lists`].
        list: u32,
        /// The loop variable's slot.
        var: SlotIx,
        /// First op past the loop (body is `[ip + 1, end_ip - 1)`,
        /// with [`Op::ForAnyResult`] at `end_ip - 1`).
        end_ip: Ip,
    },
    /// The `forany` body finished with `res`: succeed, advance, or
    /// exhaust.
    ForAnyResult,
    /// Expand the value list and spawn branch tasks (branch region
    /// begins at `ip + 1`); block waiting for children.
    ForAllEnter {
        /// Index into [`Prog::lists`].
        list: u32,
        /// The branch variable's slot.
        var: SlotIx,
        /// First op past the statement (branch region is
        /// `[ip + 1, end_ip - 1)`, terminated by [`Op::TaskEnd`]).
        end_ip: Ip,
    },
    /// End of a task's code (the root script or a `forall` branch):
    /// the task finishes with `res`.
    TaskEnd,
    /// End of a function body: pop the call frame, restore the
    /// caller's positionals, return to the call site.
    Ret,
}

/// A compiled script.
#[derive(Debug)]
pub struct Prog {
    /// The flat instruction stream.
    pub ops: Box<[Op]>,
    /// Word template side table.
    pub words: Box<[WordTpl]>,
    /// Value lists for `forany`/`forall`.
    pub lists: Box<[Box<[WordIx]>]>,
    /// `if` condition side table (with branch layout metadata).
    pub conds: Box<[CondTpl]>,
    /// `try` budget side table.
    pub tries: Box<[TryTpl]>,
    /// Command side table.
    pub cmds: Box<[CmdTpl]>,
    /// Source span of each command's argv\[0\], parallel to `cmds`
    /// (unknown for programmatically built scripts). Only diagnostics
    /// read it; the interpreter never does.
    pub cmd_spans: Box<[Span]>,
    /// Function id → name.
    pub func_names: Box<[Istr]>,
    /// A representative source span per function, parallel to
    /// `func_names`: the first spanned construct inside the first
    /// definition that has one (function statements carry no span of
    /// their own).
    pub func_spans: Box<[Span]>,
    /// Function name → id (assigned whole-script in a pre-pass, so
    /// [`FuncRef::Static`] resolves regardless of definition order).
    pub func_ids: HashMap<Istr, u32>,
    /// The static variable-name table.
    pub slots: SlotMap,
    /// The deepest a task's frame stack gets from lexical nesting
    /// alone: `try`, `forany` and `forall` frames within one task's
    /// code, plus the call frame under a function body. A task
    /// reserves this many frames at its first push; a call made from
    /// inside a construct pushes past it and the stack grows as any
    /// `Vec` does.
    pub frame_depth: u32,
}

impl Prog {
    /// Whether `argv` is command `cix`'s argv of literals, word for
    /// word the program's own strings ([`Istr::ptr_eq`]), not merely
    /// equal text. Always false for a command that is not
    /// [`CmdTpl::literal`].
    #[inline]
    pub(crate) fn holds_literals(&self, cix: u32, argv: &[Istr]) -> bool {
        let cmd = &self.cmds[cix as usize];
        cmd.literal
            && cmd.argv.len() == argv.len()
            && cmd
                .argv
                .iter()
                .zip(argv)
                .all(|(&w, a)| match &self.words[w as usize] {
                    WordTpl::Lit(l) => l.ptr_eq(a),
                    _ => false,
                })
    }

    /// argv\[0\] of command `cix` when it is a literal word — the
    /// program every run of the command starts, readable without
    /// expanding anything.
    pub(crate) fn literal_program(&self, cix: u32) -> Option<&Istr> {
        let first = *self.cmds[cix as usize].argv.first()?;
        match &self.words[first as usize] {
            WordTpl::Lit(s) => Some(s),
            _ => None,
        }
    }
}

/// Where a pending fail-edge must be patched once the group's result
/// op is placed.
enum Pending {
    /// A `Jmp`/`JmpIfFail` target.
    Target(usize),
    /// An `EvalCond::on_false` field.
    CondFalse(usize),
    /// An `EvalCond::on_err` field.
    CondErr(usize),
}

#[derive(Default)]
struct Compiler {
    ops: Vec<Op>,
    words: Vec<WordTpl>,
    lists: Vec<Box<[WordIx]>>,
    conds: Vec<CondTpl>,
    tries: Vec<TryTpl>,
    cmds: Vec<CmdTpl>,
    cmd_spans: Vec<Span>,
    func_names: Vec<Istr>,
    func_spans: Vec<Span>,
    func_ids: HashMap<Istr, u32>,
    slot_names: Vec<Istr>,
    slot_by_name: HashMap<Istr, SlotIx>,
    /// Function bodies awaiting out-of-line compilation:
    /// (`FuncDef` op index to patch, body).
    deferred: Vec<(usize, Block)>,
    /// Frames the code being compiled sits under, and the most seen.
    depth: u32,
    frame_depth: u32,
}

impl Compiler {
    fn here(&self) -> Ip {
        self.ops.len() as Ip
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn patch(&mut self, p: Pending, target: Ip) {
        match p {
            Pending::Target(i) => match &mut self.ops[i] {
                Op::Jmp(t) | Op::JmpIfFail(t) => *t = target,
                other => unreachable!("patching non-jump {other:?}"),
            },
            Pending::CondFalse(i) => {
                let Op::EvalCond { on_false, .. } = &mut self.ops[i] else {
                    unreachable!("patching non-cond")
                };
                *on_false = target;
            }
            Pending::CondErr(i) => {
                let Op::EvalCond { on_err, .. } = &mut self.ops[i] else {
                    unreachable!("patching non-cond")
                };
                *on_err = target;
            }
        }
    }

    /// The code compiled next runs under one more frame.
    fn enter_frame(&mut self) {
        self.depth += 1;
        self.frame_depth = self.frame_depth.max(self.depth);
    }

    fn patch_fails(&mut self, fails: Vec<Pending>, target: Ip) {
        for p in fails {
            self.patch(p, target);
        }
    }

    fn slot(&mut self, name: &str) -> SlotIx {
        if let Some(&s) = self.slot_by_name.get(name) {
            return s;
        }
        let s = self.slot_names.len() as SlotIx;
        let n = Istr::from(name);
        self.slot_names.push(n.clone());
        self.slot_by_name.insert(n, s);
        s
    }

    fn word(&mut self, w: &Word) -> WordIx {
        let tpl = match w.segs() {
            [] => WordTpl::Empty,
            [Seg::Lit(s)] => WordTpl::Lit(s.clone()),
            [Seg::Var(v)] => WordTpl::Slot(self.slot(v)),
            segs => WordTpl::Mixed(
                segs.iter()
                    .map(|seg| match seg {
                        Seg::Lit(l) => SegTpl::Lit(l.clone()),
                        Seg::Var(v) => SegTpl::Slot(self.slot(v)),
                    })
                    .collect(),
            ),
        };
        self.words.push(tpl);
        (self.words.len() - 1) as WordIx
    }

    fn list(&mut self, ws: &[Word]) -> u32 {
        let ixs: Box<[WordIx]> = ws.iter().map(|w| self.word(w)).collect();
        self.lists.push(ixs);
        (self.lists.len() - 1) as u32
    }

    fn cond(&mut self, c: &Cond) -> u32 {
        let lhs = self.word(&c.lhs);
        let rhs = self.word(&c.rhs);
        let num = |w: WordIx| match &self.words[w as usize] {
            WordTpl::Lit(s) if c.op.is_numeric() => parse_num(s).ok(),
            _ => None,
        };
        let nums = [num(lhs), num(rhs)];
        self.conds.push(CondTpl {
            lhs,
            op: c.op,
            rhs,
            nums,
            else_ip: None,
            join: 0,
        });
        (self.conds.len() - 1) as u32
    }

    fn tri(&mut self, spec: &TrySpec) -> u32 {
        self.tries.push(TryTpl {
            time: spec.time,
            attempts: spec.attempts,
            every: spec.every,
        });
        (self.tries.len() - 1) as u32
    }

    /// Pre-pass: collect every function name so call sites compiled
    /// before (or without) the definition still resolve statically.
    fn collect_funcs(&mut self, b: &Block) {
        for s in b {
            match s {
                Stmt::Function { name, body } => {
                    let n = Istr::from(name.as_str());
                    let next = self.func_names.len() as u32;
                    let id = *self.func_ids.entry(n.clone()).or_insert(next);
                    if id == next {
                        self.func_names.push(n);
                        self.func_spans.push(Span::default());
                    }
                    let span = &mut self.func_spans[id as usize];
                    if !span.is_known() {
                        *span = first_span(body).unwrap_or_default();
                    }
                    self.collect_funcs(body);
                }
                Stmt::Try { body, catch, .. } => {
                    self.collect_funcs(body);
                    if let Some(c) = catch {
                        self.collect_funcs(c);
                    }
                }
                Stmt::ForAny { body, .. } | Stmt::ForAll { body, .. } => {
                    self.collect_funcs(body);
                }
                Stmt::If { then, els, .. } => {
                    self.collect_funcs(then);
                    if let Some(e) = els {
                        self.collect_funcs(e);
                    }
                }
                _ => {}
            }
        }
    }

    /// Compile a fail-fast group. Fail-edges accumulate in `fails` and
    /// are patched by the caller to the group's result op.
    fn group(&mut self, b: &Block, fails: &mut Vec<Pending>) {
        for s in b {
            self.stmt(s, fails);
        }
    }

    fn stmt(&mut self, s: &Stmt, fails: &mut Vec<Pending>) {
        match s {
            Stmt::Success => {
                self.emit(Op::Success);
            }
            Stmt::Failure => {
                self.emit(Op::Failure);
                let j = self.emit(Op::Jmp(0));
                fails.push(Pending::Target(j));
            }
            Stmt::Assign { var, value } => {
                let slot = self.slot(var);
                let value = self.word(value);
                self.emit(Op::Assign { slot, value });
            }
            Stmt::If { cond, then, els } => {
                let cond = self.cond(cond);
                let ec = self.emit(Op::EvalCond {
                    cond,
                    on_false: 0,
                    on_err: 0,
                });
                fails.push(Pending::CondErr(ec));
                self.group(then, fails);
                match els {
                    Some(e) => {
                        let over = self.emit(Op::Jmp(0));
                        let else_ip = self.here();
                        self.patch(Pending::CondFalse(ec), else_ip);
                        self.group(e, fails);
                        let join = self.here();
                        self.patch(Pending::Target(over), join);
                        self.conds[cond as usize].else_ip = Some(else_ip);
                        self.conds[cond as usize].join = join;
                    }
                    None => {
                        let join = self.here();
                        self.patch(Pending::CondFalse(ec), join);
                        self.conds[cond as usize].join = join;
                    }
                }
            }
            Stmt::Try { spec, body, catch } => {
                let tri = self.tri(spec);
                let enter = self.emit(Op::TryEnter {
                    tri,
                    catch_ip: NO_CATCH,
                    end_ip: 0,
                });
                self.emit(Op::TryAttempt);
                self.enter_frame();
                let mut body_fails = Vec::new();
                self.group(body, &mut body_fails);
                let body_result = self.here();
                self.emit(Op::TryResult);
                self.patch_fails(body_fails, body_result);
                let catch_ip = match catch {
                    Some(c) => {
                        let cip = self.here();
                        let mut catch_fails = Vec::new();
                        self.group(c, &mut catch_fails);
                        let catch_result = self.here();
                        self.emit(Op::TryResult);
                        self.patch_fails(catch_fails, catch_result);
                        cip
                    }
                    None => NO_CATCH,
                };
                self.depth -= 1;
                let end = self.here();
                let Op::TryEnter {
                    catch_ip: c,
                    end_ip,
                    ..
                } = &mut self.ops[enter]
                else {
                    unreachable!()
                };
                *c = catch_ip;
                *end_ip = end;
                let j = self.emit(Op::JmpIfFail(0));
                fails.push(Pending::Target(j));
            }
            Stmt::ForAny { var, values, body } => {
                let list = self.list(values);
                let var = self.slot(var);
                let enter = self.emit(Op::ForAnyEnter {
                    list,
                    var,
                    end_ip: 0,
                });
                self.enter_frame();
                let mut body_fails = Vec::new();
                self.group(body, &mut body_fails);
                self.depth -= 1;
                let result = self.here();
                self.emit(Op::ForAnyResult);
                self.patch_fails(body_fails, result);
                let end = self.here();
                let Op::ForAnyEnter { end_ip, .. } = &mut self.ops[enter] else {
                    unreachable!()
                };
                *end_ip = end;
                let j = self.emit(Op::JmpIfFail(0));
                fails.push(Pending::Target(j));
            }
            Stmt::ForAll { var, values, body } => {
                let list = self.list(values);
                let var = self.slot(var);
                let enter = self.emit(Op::ForAllEnter {
                    list,
                    var,
                    end_ip: 0,
                });
                // The parent holds the `forall` frame; each branch is a
                // task of its own with an empty stack.
                self.enter_frame();
                self.depth -= 1;
                let parent = std::mem::take(&mut self.depth);
                let mut branch_fails = Vec::new();
                self.group(body, &mut branch_fails);
                self.depth = parent;
                let te = self.here();
                self.emit(Op::TaskEnd);
                self.patch_fails(branch_fails, te);
                let end = self.here();
                let Op::ForAllEnter { end_ip, .. } = &mut self.ops[enter] else {
                    unreachable!()
                };
                *end_ip = end;
                let j = self.emit(Op::JmpIfFail(0));
                fails.push(Pending::Target(j));
            }
            Stmt::Function { name, body } => {
                let func = self.func_ids[name.as_str()];
                let op = self.emit(Op::FuncDef { func, entry: 0 });
                self.deferred.push((op, body.clone()));
            }
            Stmt::Command(cmd) => {
                let argv: Box<[WordIx]> = cmd.words.iter().map(|w| self.word(w)).collect();
                let func = match cmd.words.first() {
                    Some(w0) => match w0.as_lit() {
                        Some(lit) => match self.func_ids.get(lit) {
                            Some(&id) => FuncRef::Static(id),
                            None => FuncRef::None,
                        },
                        None if !self.func_ids.is_empty() => FuncRef::Dynamic,
                        None => FuncRef::None,
                    },
                    None => FuncRef::None,
                };
                let redirs: Box<[RedirTpl]> = cmd
                    .redirs
                    .iter()
                    .map(|r| match r {
                        Redir::In { from, source } => RedirTpl::In {
                            var: *from == RedirTarget::Variable,
                            source: self.word(source),
                        },
                        Redir::Out {
                            to,
                            append,
                            both,
                            target,
                        } => RedirTpl::Out {
                            var: *to == RedirTarget::Variable,
                            append: *append,
                            both: *both,
                            target: self.word(target),
                            slot: None, // resolved in `finish`
                        },
                    })
                    .collect();
                let literal = argv
                    .iter()
                    .all(|&w| matches!(self.words[w as usize], WordTpl::Lit(_)));
                self.cmds.push(CmdTpl {
                    argv,
                    redirs,
                    func,
                    literal,
                });
                self.cmd_spans
                    .push(cmd.words.first().map(Word::span).unwrap_or_default());
                let cix = (self.cmds.len() - 1) as u32;
                self.emit(Op::Cmd(cix));
                let j = self.emit(Op::JmpIfFail(0));
                fails.push(Pending::Target(j));
            }
        }
    }

    /// Compile queued function bodies (which may queue more: nested
    /// definitions) and patch their `FuncDef` entry points.
    fn flush_deferred(&mut self) {
        let mut i = 0;
        while i < self.deferred.len() {
            let (op_ix, body) = {
                let (op_ix, body) = &self.deferred[i];
                (*op_ix, body.clone())
            };
            let entry = self.here();
            self.depth = 0;
            self.enter_frame(); // the call frame
            let mut fails = Vec::new();
            self.group(&body, &mut fails);
            let ret = self.here();
            self.emit(Op::Ret);
            self.patch_fails(fails, ret);
            let Op::FuncDef { entry: e, .. } = &mut self.ops[op_ix] else {
                unreachable!()
            };
            *e = entry;
            i += 1;
        }
    }

    fn finish(mut self) -> Prog {
        // Every name the script mentions has its slot by now. A capture
        // into one of them binds it directly; a literal name nothing
        // reads gets no slot of its own, so the table — and what the
        // analyses make of it — is what the script's reads alone make.
        for cmd in &mut self.cmds {
            for r in &mut cmd.redirs {
                if let RedirTpl::Out {
                    var: true,
                    target,
                    slot,
                    ..
                } = r
                {
                    if let WordTpl::Lit(name) = &self.words[*target as usize] {
                        *slot = self.slot_by_name.get(name.as_str()).copied();
                    }
                }
            }
        }
        let positional: Box<[(SlotIx, PosArg)]> = self
            .slot_names
            .iter()
            .enumerate()
            .filter_map(|(s, n)| Some((s as SlotIx, pos_arg(n)?)))
            .collect();
        Prog {
            ops: self.ops.into(),
            words: self.words.into(),
            lists: self.lists.into(),
            conds: self.conds.into(),
            tries: self.tries.into(),
            cmds: self.cmds.into(),
            cmd_spans: self.cmd_spans.into(),
            func_names: self.func_names.into(),
            func_spans: self.func_spans.into(),
            func_ids: self.func_ids,
            slots: SlotMap {
                names: self.slot_names.into(),
                positional,
                by_name: self.slot_by_name,
            },
            frame_depth: self.frame_depth,
        }
    }
}

/// First known source span inside a block, in source order.
fn first_span(stmts: &[Stmt]) -> Option<Span> {
    let known = |span: Span| Some(span).filter(|s| s.is_known());
    stmts.iter().find_map(|s| match s {
        Stmt::Command(c) => c.words.first().and_then(|w| known(w.span())),
        Stmt::Assign { value, .. } => known(value.span()),
        Stmt::Try { spec, body, catch } => known(spec.span)
            .or_else(|| first_span(body))
            .or_else(|| catch.as_ref().and_then(|c| first_span(c))),
        Stmt::ForAny { body, .. } | Stmt::ForAll { body, .. } | Stmt::Function { body, .. } => {
            first_span(body)
        }
        Stmt::If { cond, then, els } => known(cond.lhs.span())
            .or_else(|| first_span(then))
            .or_else(|| els.as_ref().and_then(|e| first_span(e))),
        Stmt::Failure | Stmt::Success => None,
    })
}

/// What a function call binds to a positional name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PosArg {
    /// `${N}`, N in canonical decimal: argv\[N\] (`${0}` is the
    /// function's own name).
    Arg(usize),
    /// `${*}`: the arguments after the name, space-joined.
    Star,
    /// Positional by the predicate, so unbound at every call boundary,
    /// but spelt as no call binds it (`""`, `"007"`).
    Unbound,
}

/// Classify `name` as a positional parameter: `*`, or all ASCII digits
/// — the same predicate [`crate::words::Env::clear_positionals`] uses,
/// empty string included. `None` for an ordinary variable name.
pub(crate) fn pos_arg(name: &str) -> Option<PosArg> {
    if name == "*" {
        return Some(PosArg::Star);
    }
    if !name.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let canonical = name == "0" || !(name.is_empty() || name.starts_with('0'));
    let index = name.parse().ok().filter(|_| canonical);
    Some(index.map_or(PosArg::Unbound, PosArg::Arg))
}

/// Is `name` a positional parameter?
pub fn is_positional_name(name: &str) -> bool {
    pos_arg(name).is_some()
}

/// Compile a statement block into a program.
#[must_use]
pub fn compile(block: &Block) -> Prog {
    let mut c = Compiler::default();
    c.collect_funcs(block);
    let mut fails = Vec::new();
    c.group(block, &mut fails);
    let te = c.here();
    c.emit(Op::TaskEnd);
    c.patch_fails(fails, te);
    c.flush_deferred();
    c.finish()
}

type Cache = Mutex<Vec<(Weak<[Stmt]>, Arc<Prog>)>>;

static CACHE: OnceLock<Cache> = OnceLock::new();

/// Compile a script, reusing the cached program when this script's
/// statement allocation was compiled before. The cache holds weak AST
/// references and is pruned on every miss, so dropped scripts release
/// their programs.
///
/// A hit compares addresses only. A `Weak` keeps its allocation (if
/// not its contents) until it is dropped, so no other AST can occupy an
/// address the cache still holds, and an entry whose address is the
/// key's is the key's own — alive, since the caller holds it. No entry
/// is upgraded, and no shared refcount but the hit program's is
/// touched.
pub fn compile_cached(script: &Script) -> Arc<Prog> {
    let key = Arc::as_ptr(script.stmts.stmts_arc());
    let mut cache = CACHE.get_or_init(Cache::default).lock().unwrap();
    if let Some((_, prog)) = cache
        .iter()
        .find(|(weak, _)| std::ptr::eq(weak.as_ptr(), key))
    {
        return Arc::clone(prog);
    }
    let prog = Arc::new(compile(&script.stmts));
    cache.retain(|(weak, _)| weak.strong_count() > 0);
    cache.push((Arc::downgrade(script.stmts.stmts_arc()), Arc::clone(&prog)));
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn compile_caches_by_ast_identity() {
        let script = parse("true\nfalse\n").unwrap();
        let a = compile_cached(&script);
        let b = compile_cached(&script.clone());
        assert!(Arc::ptr_eq(&a, &b), "same allocation, same program");
        let other = parse("true\nfalse\n").unwrap();
        let c = compile_cached(&other);
        assert!(!Arc::ptr_eq(&a, &c), "fresh parse compiles fresh");
    }

    #[test]
    fn a_dropped_script_never_lends_its_program_to_the_next() {
        // Each script is dropped while its entry is cached, so the next
        // parse could only reuse its address if the entry let go of it.
        for i in 0..64 {
            let name = format!("cmd{i}");
            let script = parse(&format!("{name} -> out{i}\n")).unwrap();
            let prog = compile_cached(&script);
            assert_eq!(prog.literal_program(0).map(Istr::as_str), Some(&*name));
        }
    }

    #[test]
    fn literal_capture_targets_that_are_read_have_slots() {
        let script = parse("a -> n\nb -> ${n}\nc > n\nd -> unread\ne -> n\n").unwrap();
        let prog = compile(&script.stmts);
        let slots: Vec<_> = prog
            .cmds
            .iter()
            .map(|c| match c.redirs.last() {
                Some(RedirTpl::Out { slot, .. }) => slot.map(|s| &*prog.slots.names[s as usize]),
                _ => unreachable!(),
            })
            .collect();
        // `-> ${n}` is computed, a file is no variable, and a name no
        // word reads has no slot to bind.
        assert_eq!(slots, [Some("n"), None, None, None, Some("n")]);
    }

    #[test]
    fn slots_cover_static_names() {
        let script = parse("x=1\nforany h in a ${x}\n  echo ${h}\nend\n").unwrap();
        let prog = compile(&script.stmts);
        for name in ["x", "h"] {
            assert!(
                prog.slots.by_name.contains_key(name),
                "{name} should have a slot"
            );
        }
    }

    #[test]
    fn frame_depth_is_the_deepest_lexical_nesting_of_one_task() {
        let depth = |src: &str| compile(&parse(src).unwrap().stmts).frame_depth;
        assert_eq!(depth("a\nb=1\n"), 0);
        assert_eq!(depth("try 2 times\n a\nend\ntry 3 times\n b\nend\n"), 1);
        let reader =
            "try for 9 seconds\n forany h in a b\n  try 2 times\n   get ${h}\n  end\n end\nend\n";
        assert_eq!(depth(reader), 3);
        // The parent holds the forall frame; a branch starts empty.
        assert_eq!(depth("forall x in a b\n try 2 times\n  c\n end\nend\n"), 1);
        assert_eq!(depth("try 2 times\n forall x in a b\n  c\n end\nend\n"), 2);
        // A function body runs under its call frame.
        assert_eq!(depth("function f\n try 2 times\n  c\n end\nend\nf\n"), 2);
    }

    #[test]
    fn try_layout_threads_jumps() {
        let script = parse("try 2 times\n  wget\nend\n").unwrap();
        let prog = compile(&script.stmts);
        // TryEnter, TryAttempt, Cmd, JmpIfFail, TryResult, JmpIfFail, TaskEnd
        let Op::TryEnter {
            catch_ip, end_ip, ..
        } = prog.ops[0]
        else {
            panic!("expected TryEnter first, got {:?}", prog.ops[0]);
        };
        assert_eq!(catch_ip, NO_CATCH);
        assert!(matches!(prog.ops[1], Op::TryAttempt));
        assert!(matches!(prog.ops[end_ip as usize], Op::JmpIfFail(_)));
        assert!(matches!(prog.ops.last(), Some(Op::TaskEnd)));
    }

    #[test]
    fn positional_predicate_matches_env() {
        assert!(is_positional_name("*"));
        assert!(is_positional_name("0"));
        assert!(is_positional_name("17"));
        assert!(is_positional_name("")); // vacuous, as in Env
        assert!(!is_positional_name("x"));
        assert!(!is_positional_name("1a"));
        // Only the spelling a call uses names an argument.
        assert_eq!(pos_arg("12"), Some(PosArg::Arg(12)));
        assert_eq!(pos_arg("007"), Some(PosArg::Unbound));
        assert_eq!(pos_arg(""), Some(PosArg::Unbound));
        assert_eq!(pos_arg("99999999999999999999999"), Some(PosArg::Unbound));
    }
}
