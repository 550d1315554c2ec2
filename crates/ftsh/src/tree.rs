//! The tree-walking reference interpreter: a test-only oracle.
//!
//! [`TreeVm`] executes the shared AST by reference, frame by frame —
//! the most literal reading of the language's semantics. It is not the
//! shipped interpreter (that is [`crate::Vm`], the bytecode machine)
//! and production code cannot construct it: this module exists only
//! under `cfg(test)` or the `tree-oracle` feature, which the
//! differential harnesses enable to drive both machines in lockstep
//! and diff every observable — effects, wake instants (hence RNG
//! draws), records and final bindings. It has the
//! same driving surface as [`crate::Vm`] minus the performance
//! plumbing an oracle has no use for.

use crate::ast::{Block, Command, Redir, RedirTarget, Script, Stmt, TrySpec};
use crate::cond::eval_cond;
use crate::intern::Istr;
use crate::log::EventLog;
use crate::vm::{
    CmdInput, CmdResult, CmdToken, CommandSpec, Effect, OutSink, TaskId, Tick, VmStatus,
};
use crate::words::{trim_capture, Env};
use rand::rngs::StdRng;
use rand::SeedableRng;
use retry::{BackoffPolicy, Dur, NextAttempt, Time, TryBudget, TrySession};
use simgrid::trace::{SharedSink, TraceEv, TraceRecord};
use std::collections::HashMap;

pub mod gen;

#[derive(Clone, Copy, Debug)]
enum Ctl {
    Exec,
    Return(bool),
}

#[derive(Debug)]
enum Frame {
    Seq {
        stmts: Block,
        idx: usize,
    },
    Try {
        session: TrySession,
        body: Block,
        catch: Option<Block>,
        in_catch: bool,
    },
    ForAny {
        var: String,
        values: Vec<Istr>,
        idx: usize,
        body: Block,
    },
    ForAll {
        children: Vec<TaskId>,
        /// Branch bindings not yet spawned (throttled parallelism).
        pending: Vec<Istr>,
        var: String,
        body: Block,
    },
    /// A function invocation: restores the caller's positional
    /// parameters when the body returns.
    Call {
        saved_positionals: Vec<(Istr, Istr)>,
    },
}

#[derive(Debug)]
enum TaskState {
    Ready(Ctl),
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
struct Task {
    frames: Vec<Frame>,
    env: Env,
    state: TaskState,
    parent: Option<TaskId>,
}

/// The tree-walking interpreter: the reference semantics
/// [`crate::Vm`] is differentially tested against.
pub struct TreeVm {
    tasks: Vec<Option<Task>>,
    token_ctr: CmdToken,
    token_task: HashMap<CmdToken, TaskId>,
    rng: StdRng,
    log: EventLog,
    outcome: Option<bool>,
    default_backoff: BackoffPolicy,
    effects: Vec<Effect>,
    now: Time,
    final_env: Env,
    max_parallel: Option<usize>,
    functions: HashMap<String, Block>,
    /// The trace sink and the client its records are attributed to.
    tracer: Option<(SharedSink, i64)>,
}

impl TreeVm {
    /// Build a VM with an initial environment and seed.
    pub fn with_env_seed(script: &Script, env: Env, seed: u64) -> TreeVm {
        let root = Task {
            frames: vec![Frame::Seq {
                // An O(1) handle clone: the whole population of VMs
                // built from one parsed script shares a single AST.
                stmts: script.stmts.clone(),
                idx: 0,
            }],
            env,
            state: TaskState::Ready(Ctl::Exec),
            parent: None,
        };
        TreeVm {
            tasks: vec![Some(root)],
            token_ctr: 0,
            token_task: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            log: EventLog::default(),
            outcome: None,
            default_backoff: BackoffPolicy::ethernet(),
            effects: Vec::new(),
            now: Time::ZERO,
            final_env: Env::new(),
            max_parallel: None,
            functions: HashMap::new(),
            tracer: None,
        }
    }

    /// Install a structured-trace sink, the one place this machine's
    /// records go, each attributed to `client`.
    pub fn set_tracer(&mut self, sink: SharedSink, client: i64) {
        self.tracer = Some((sink, client));
    }

    /// Emit the record of one transition of task `tid` to the sink, if
    /// one is installed. The kinds the summary counts bump their
    /// counter beside the call.
    fn emit(&mut self, tid: TaskId, ev: TraceEv) {
        if let Some((sink, client)) = &self.tracer {
            let rec = TraceRecord {
                t: self.now,
                client: *client,
                task: tid as i64,
                ev,
            };
            sink.lock().expect("trace sink poisoned").record(&rec);
        }
    }

    /// Override the backoff policy used by `try` blocks that do not
    /// specify `every`.
    pub fn set_default_backoff(&mut self, p: BackoffPolicy) {
        self.default_backoff = p;
    }

    /// Throttle `forall`: at most `n` branches run concurrently, the
    /// rest start as slots free up.
    pub fn set_max_parallel(&mut self, n: Option<usize>) {
        self.max_parallel = n.map(|n| n.max(1));
    }

    /// The execution log's counters so far.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The root environment (variables visible after completion).
    pub fn env(&self) -> &Env {
        // The root task may already be gone if the script finished; we
        // keep a copy of its env in that case.
        match &self.tasks[0] {
            Some(t) => &t.env,
            None => &self.final_env,
        }
    }

    /// The script outcome, if finished.
    pub fn outcome(&self) -> Option<bool> {
        self.outcome
    }

    /// Report an in-flight command as finished, and say whether this
    /// machine was waiting on it. Stale tokens (already cancelled) are
    /// ignored. Call [`TreeVm::tick`] after a `true`.
    pub fn complete(&mut self, token: CmdToken, result: CmdResult) -> bool {
        let Some(tid) = self.token_task.remove(&token) else {
            return false; // cancelled earlier; the race is benign
        };
        let task = self.tasks[tid].as_mut().expect("token mapped to dead task");
        let (program, out_var) = match &task.state {
            TaskState::RunningCmd {
                token: t,
                program,
                out_var,
            } => {
                debug_assert_eq!(*t, token, "token/task mismatch");
                (program.clone(), out_var.clone())
            }
            other => panic!("complete() on task not running a command: {other:?}"),
        };
        let ok = result.success;
        task.state = TaskState::Ready(Ctl::Return(ok));
        if let Some((name, append)) = out_var {
            let value = trim_capture(result.stdout.as_deref().unwrap_or(""));
            if append {
                task.env.append(&name, value);
            } else {
                task.env.set(name.clone(), value);
            }
            let name = name.to_string();
            self.emit(tid, TraceEv::VarSet { name });
        }
        if ok {
            self.log.summary.commands_succeeded += 1;
        } else {
            self.log.summary.commands_failed += 1;
        }
        let program = program.to_string();
        self.emit(tid, TraceEv::CmdEnd { program, ok });
        true
    }

    /// Advance every runnable strand at virtual instant `now`.
    pub fn tick(&mut self, now: Time) -> Tick {
        debug_assert!(now >= self.now, "tick time went backwards");
        self.now = now;

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
        Tick {
            effects: std::mem::take(&mut self.effects),
            status,
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Kill work under any `try` whose deadline has passed.
    fn fire_deadlines(&mut self) {
        for tid in 0..self.tasks.len() {
            // The task may be dead already, or cancelled by an earlier
            // task's unwind in this same loop.
            let Some(task) = &self.tasks[tid] else {
                continue;
            };
            let expired = task.frames.iter().position(|f| match f {
                Frame::Try {
                    session, in_catch, ..
                } => !in_catch && session.expired(self.now),
                _ => false,
            });
            let Some(i) = expired else { continue };

            let mut task = self.tasks[tid].take().expect("checked live");
            // Cancel everything above the expired frame. Function-call
            // frames restore the caller's positional parameters even
            // when killed, so ${1}… never leak across an aborted call.
            while task.frames.len() > i + 1 {
                let f = task.frames.pop().expect("len checked");
                match f {
                    Frame::ForAll { children, .. } => {
                        for c in children {
                            self.cancel_subtree(c);
                        }
                    }
                    Frame::Call { saved_positionals } => {
                        task.env.clear_positionals();
                        for (k, v) in saved_positionals {
                            task.env.set(k, v);
                        }
                    }
                    _ => {}
                }
            }
            self.cancel_running_cmd(tid, &mut task);
            self.log.summary.timed_out_tries += 1;
            self.emit(tid, TraceEv::TryTimeout);
            self.fail_try_frame(tid, &mut task);
            self.tasks[tid] = Some(task);
        }
    }

    /// The top frame of `task` is a `Try` whose budget is spent: enter
    /// its catch handler, or pop it and propagate failure.
    fn fail_try_frame(&mut self, tid: TaskId, task: &mut Task) {
        let Some(Frame::Try {
            catch, in_catch, ..
        }) = task.frames.last_mut()
        else {
            unreachable!("fail_try_frame: top frame is not a try");
        };
        if let (Some(c), false) = (catch.clone(), *in_catch) {
            *in_catch = true;
            self.log.summary.catches += 1;
            self.emit(tid, TraceEv::CatchEntered);
            task.frames.push(Frame::Seq { stmts: c, idx: 0 });
            task.state = TaskState::Ready(Ctl::Exec);
        } else {
            task.frames.pop();
            task.state = TaskState::Ready(Ctl::Return(false));
        }
    }

    fn cancel_running_cmd(&mut self, tid: TaskId, task: &mut Task) {
        if let TaskState::RunningCmd { token, program, .. } = &task.state {
            self.effects.push(Effect::Cancel { token: *token });
            self.token_task.remove(token);
            self.log.summary.commands_cancelled += 1;
            self.emit(
                tid,
                TraceEv::CmdKilled {
                    program: program.to_string(),
                },
            );
        }
    }

    /// Remove a task and its whole subtree, cancelling in-flight
    /// commands. Used when a sibling failure or a deadline aborts a
    /// `forall`.
    fn cancel_subtree(&mut self, tid: TaskId) {
        let Some(mut task) = self.tasks[tid].take() else {
            return;
        };
        self.cancel_running_cmd(tid, &mut task);
        for f in task.frames.drain(..) {
            if let Frame::ForAll { children, .. } = f {
                for c in children {
                    self.cancel_subtree(c);
                }
            }
        }
    }

    fn wake_sleepers(&mut self) {
        for task in self.tasks.iter_mut().flatten() {
            if let TaskState::Sleeping { until } = task.state {
                if until <= self.now {
                    task.state = TaskState::Ready(Ctl::Exec);
                }
            }
        }
    }

    fn step_all(&mut self) {
        loop {
            // Re-scan from the front each round: stepping a task can
            // ready, spawn or kill others, and the lowest-id ready
            // task always runs next (the determinism contract).
            let ready = (0..self.tasks.len()).find(|&i| {
                matches!(
                    self.tasks[i].as_ref().map(|t| &t.state),
                    Some(TaskState::Ready(_))
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
                    self.final_env = std::mem::take(&mut task.env);
                    self.outcome = Some(result);
                    self.emit(tid, TraceEv::UnitDone { ok: result });
                }
            }
        }
    }

    /// Run one task until it blocks or finishes. Returns `Some(result)`
    /// when the task's stack empties.
    fn run_task(&mut self, tid: TaskId, task: &mut Task) -> Option<bool> {
        let TaskState::Ready(mut ctl) = task.state else {
            return None;
        };
        // Mark as consumed; we will set a new state before blocking.
        task.state = TaskState::WaitingChildren; // placeholder, always overwritten

        loop {
            match ctl {
                Ctl::Return(res) => match self.return_into_frame(tid, task, res) {
                    Flow::Continue(c) => ctl = c,
                    Flow::Blocked => return None,
                    Flow::Finished(r) => return Some(r),
                },
                Ctl::Exec => match self.exec_top(tid, task) {
                    Flow::Continue(c) => ctl = c,
                    Flow::Blocked => return None,
                    Flow::Finished(r) => return Some(r),
                },
            }
        }
    }

    fn return_into_frame(&mut self, tid: TaskId, task: &mut Task, res: bool) -> Flow {
        let Some(top) = task.frames.last_mut() else {
            return Flow::Finished(res);
        };
        match top {
            Frame::Seq { stmts, idx } => {
                if res {
                    *idx += 1;
                    if *idx >= stmts.len() {
                        task.frames.pop();
                        Flow::Continue(Ctl::Return(true))
                    } else {
                        Flow::Continue(Ctl::Exec)
                    }
                } else {
                    // Fail-fast group.
                    task.frames.pop();
                    Flow::Continue(Ctl::Return(false))
                }
            }
            Frame::Try {
                session, in_catch, ..
            } => {
                if *in_catch {
                    // The catch group's result is the try's result.
                    task.frames.pop();
                    Flow::Continue(Ctl::Return(res))
                } else if res {
                    let attempt = session.attempts();
                    task.frames.pop();
                    self.emit(tid, TraceEv::AttemptOk { attempt });
                    Flow::Continue(Ctl::Return(true))
                } else {
                    let attempt = session.attempts();
                    match session.on_failure(self.now, &mut self.rng) {
                        NextAttempt::RetryAt(t) => {
                            let delay = t.saturating_since(self.now);
                            self.log.summary.backoffs += 1;
                            self.log.summary.total_backoff += delay;
                            self.emit(tid, TraceEv::Backoff { attempt, delay });
                            task.state = TaskState::Sleeping { until: t };
                            Flow::Blocked
                        }
                        NextAttempt::Exhausted => {
                            self.log.summary.exhausted_tries += 1;
                            self.emit(tid, TraceEv::TryExhausted);
                            self.fail_try_frame(tid, task);
                            match task.state {
                                TaskState::Ready(c) => Flow::Continue(c),
                                _ => Flow::Blocked,
                            }
                        }
                    }
                }
            }
            Frame::ForAny {
                var,
                values,
                idx,
                body,
            } => {
                if res {
                    task.frames.pop();
                    Flow::Continue(Ctl::Return(true))
                } else {
                    *idx += 1;
                    if *idx >= values.len() {
                        task.frames.pop();
                        Flow::Continue(Ctl::Return(false))
                    } else {
                        let value = values[*idx].clone();
                        let var = var.clone();
                        let body = body.clone();
                        self.log.summary.alternatives_tried += 1;
                        self.emit(
                            tid,
                            TraceEv::ForAnyNext {
                                value: value.to_string(),
                            },
                        );
                        task.env.set(var, value);
                        task.frames.push(Frame::Seq {
                            stmts: body,
                            idx: 0,
                        });
                        Flow::Continue(Ctl::Exec)
                    }
                }
            }
            Frame::ForAll { .. } => {
                unreachable!("forall results arrive via child_finished")
            }
            Frame::Call { saved_positionals } => {
                let saved = std::mem::take(saved_positionals);
                task.frames.pop();
                task.env.clear_positionals();
                for (k, v) in saved {
                    task.env.set(k, v);
                }
                Flow::Continue(Ctl::Return(res))
            }
        }
    }

    fn exec_top(&mut self, tid: TaskId, task: &mut Task) -> Flow {
        // Decide with a short borrow what to do, then act.
        enum Act {
            Finished,
            GroupDone,
            Stmt(Block, usize),
            EnterTryBody(Block, u32, Option<Dur>),
            TrySpent,
            BindForAny(String, Istr, Block),
        }

        let act = match task.frames.last_mut() {
            None => Act::Finished,
            Some(Frame::Seq { stmts, idx }) => {
                if *idx >= stmts.len() {
                    Act::GroupDone
                } else {
                    // Clone the shared handle (reference-count bump),
                    // not the statement: execution is by reference.
                    Act::Stmt(stmts.clone(), *idx)
                }
            }
            Some(Frame::Try { session, body, .. }) => {
                if session.begin_attempt(self.now) {
                    // Budget remaining at admission: what the span
                    // records as the headroom this attempt started
                    // with (`None` = unbounded try).
                    let budget = session.deadline().map(|d| d.saturating_since(self.now));
                    Act::EnterTryBody(body.clone(), session.attempts(), budget)
                } else {
                    Act::TrySpent
                }
            }
            Some(Frame::ForAny {
                var,
                values,
                idx,
                body,
            }) => Act::BindForAny(var.clone(), values[*idx].clone(), body.clone()),
            Some(Frame::ForAll { .. }) => {
                unreachable!("forall frame is never executed directly")
            }
            Some(Frame::Call { .. }) => Act::GroupDone,
        };

        match act {
            Act::Finished => Flow::Finished(true),
            Act::GroupDone => {
                task.frames.pop();
                Flow::Continue(Ctl::Return(true))
            }
            Act::Stmt(block, idx) => self.exec_stmt(tid, task, &block[idx]),
            Act::EnterTryBody(body, attempt, budget) => {
                self.log.summary.attempts += 1;
                self.emit(tid, TraceEv::AttemptStart { attempt, budget });
                task.frames.push(Frame::Seq {
                    stmts: body,
                    idx: 0,
                });
                Flow::Continue(Ctl::Exec)
            }
            Act::TrySpent => {
                self.log.summary.exhausted_tries += 1;
                self.emit(tid, TraceEv::TryExhausted);
                self.fail_try_frame(tid, task);
                match task.state {
                    TaskState::Ready(c) => Flow::Continue(c),
                    _ => Flow::Blocked,
                }
            }
            Act::BindForAny(var, value, body) => {
                self.log.summary.alternatives_tried += 1;
                self.emit(
                    tid,
                    TraceEv::ForAnyNext {
                        value: value.to_string(),
                    },
                );
                task.env.set(var, value);
                task.frames.push(Frame::Seq {
                    stmts: body,
                    idx: 0,
                });
                Flow::Continue(Ctl::Exec)
            }
        }
    }

    fn exec_stmt(&mut self, tid: TaskId, task: &mut Task, stmt: &Stmt) -> Flow {
        match stmt {
            Stmt::Failure => Flow::Continue(Ctl::Return(false)),
            Stmt::Success => Flow::Continue(Ctl::Return(true)),
            Stmt::Assign { var, value } => {
                let v = task.env.expand(value);
                task.env.set(var.as_str(), v);
                self.emit(tid, TraceEv::VarSet { name: var.clone() });
                Flow::Continue(Ctl::Return(true))
            }
            Stmt::If { cond, then, els } => match eval_cond(cond, &task.env) {
                Ok(true) => {
                    task.frames.push(Frame::Seq {
                        stmts: then.clone(),
                        idx: 0,
                    });
                    Flow::Continue(Ctl::Exec)
                }
                Ok(false) => match els {
                    Some(e) => {
                        task.frames.push(Frame::Seq {
                            stmts: e.clone(),
                            idx: 0,
                        });
                        Flow::Continue(Ctl::Exec)
                    }
                    None => Flow::Continue(Ctl::Return(true)),
                },
                Err(_) => Flow::Continue(Ctl::Return(false)),
            },
            Stmt::Try { spec, body, catch } => {
                let budget = self.budget_for(spec);
                task.frames.push(Frame::Try {
                    session: TrySession::start(budget, self.now),
                    body: body.clone(),
                    catch: catch.clone(),
                    in_catch: false,
                });
                Flow::Continue(Ctl::Exec)
            }
            Stmt::ForAny { var, values, body } => {
                let values = task.env.expand_all(values);
                task.frames.push(Frame::ForAny {
                    var: var.clone(),
                    values,
                    idx: 0,
                    body: body.clone(),
                });
                Flow::Continue(Ctl::Exec)
            }
            Stmt::ForAll { var, values, body } => {
                let values = task.env.expand_all(values);
                let body = body.clone();
                self.emit(
                    tid,
                    TraceEv::ForAllSpawn {
                        branches: values.len() as u64,
                    },
                );
                let limit = self.max_parallel.unwrap_or(values.len()).max(1);
                let (now_vals, later_vals) = if values.len() > limit {
                    let later = values[limit..].to_vec();
                    (values[..limit].to_vec(), later)
                } else {
                    (values, Vec::new())
                };
                let mut children = Vec::with_capacity(now_vals.len());
                for v in now_vals {
                    children.push(self.spawn_branch(tid, &task.env, var, v, &body));
                }
                // Pending branches start in reverse-pop order.
                let mut pending = later_vals;
                pending.reverse();
                task.frames.push(Frame::ForAll {
                    children,
                    pending,
                    var: var.clone(),
                    body,
                });
                task.state = TaskState::WaitingChildren;
                Flow::Blocked
            }
            Stmt::Function { name, body } => {
                self.functions.insert(name.clone(), body.clone());
                Flow::Continue(Ctl::Return(true))
            }
            Stmt::Command(cmd) => self.exec_command(tid, task, cmd),
        }
    }

    fn exec_command(&mut self, tid: TaskId, task: &mut Task, cmd: &Command) -> Flow {
        let argv = task.env.expand_all(&cmd.words);
        if argv.first().map(|s| s.is_empty()).unwrap_or(true) {
            // A command whose name expanded to nothing cannot run.
            return Flow::Continue(Ctl::Return(false));
        }

        // Defined functions shadow external commands. Redirections on
        // a call are meaningless (a function has no byte streams of
        // its own) and are ignored.
        if let Some(body) = self.functions.get(argv[0].as_str()).cloned() {
            let depth = task
                .frames
                .iter()
                .filter(|f| matches!(f, Frame::Call { .. }))
                .count();
            if depth >= 64 {
                // Runaway recursion is just another untyped failure.
                return Flow::Continue(Ctl::Return(false));
            }
            let saved = task.env.snapshot_positionals();
            task.env.clear_positionals();
            task.env.set("0", argv[0].clone());
            for (i, a) in argv[1..].iter().enumerate() {
                task.env.set((i + 1).to_string(), a.clone());
            }
            task.env.set("*", argv[1..].join(" "));
            task.frames.push(Frame::Call {
                saved_positionals: saved,
            });
            task.frames.push(Frame::Seq {
                stmts: body,
                idx: 0,
            });
            return Flow::Continue(Ctl::Exec);
        }

        let mut input = None;
        let mut output = None;
        let mut both = false;
        let mut out_var = None;
        for r in &cmd.redirs {
            match r {
                Redir::In { from, source } => {
                    let name = task.env.expand(source);
                    input = Some(match from {
                        RedirTarget::Variable => {
                            CmdInput::Data(task.env.get_istr(&name).cloned().unwrap_or_default())
                        }
                        RedirTarget::File => CmdInput::File(name),
                    });
                }
                Redir::Out {
                    to,
                    append,
                    both: b,
                    target,
                } => {
                    let name = task.env.expand(target);
                    both = *b;
                    match to {
                        RedirTarget::Variable => {
                            out_var = Some((name.clone(), *append));
                            output = Some(OutSink::Var {
                                name,
                                append: *append,
                            });
                        }
                        RedirTarget::File => {
                            out_var = None;
                            output = Some(OutSink::File {
                                path: name,
                                append: *append,
                            });
                        }
                    }
                }
            }
        }

        let token = self.token_ctr;
        self.token_ctr += 1;
        self.token_task.insert(token, tid);
        let spec = CommandSpec {
            argv,
            input,
            output,
            both,
        };
        self.log.summary.commands_started += 1;
        self.emit(
            tid,
            TraceEv::CmdStart {
                program: spec.program().to_string(),
                args: spec.argv[1..].iter().map(Istr::to_string).collect(),
            },
        );
        task.state = TaskState::RunningCmd {
            token,
            // argv[0] is non-empty here (checked on entry); share it.
            program: spec.argv.first().cloned().unwrap_or_default(),
            out_var,
        };
        self.effects.push(Effect::Start {
            token,
            task: tid,
            spec,
        });
        Flow::Blocked
    }

    fn spawn_branch(
        &mut self,
        parent: TaskId,
        parent_env: &Env,
        var: &str,
        value: Istr,
        body: &Block,
    ) -> TaskId {
        let mut env = parent_env.clone();
        env.set(var, value);
        let child = Task {
            frames: vec![Frame::Seq {
                stmts: body.clone(),
                idx: 0,
            }],
            env,
            state: TaskState::Ready(Ctl::Exec),
            parent: Some(parent),
        };
        self.tasks.push(Some(child));
        self.tasks.len() - 1
    }

    fn child_finished(&mut self, pid: TaskId, child: TaskId, res: bool) {
        let Some(mut parent) = self.tasks[pid].take() else {
            return; // parent already cancelled
        };
        let Some(Frame::ForAll {
            children,
            pending,
            var,
            body,
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
            parent.frames.pop();
            parent.state = TaskState::Ready(Ctl::Return(false));
            for c in remaining {
                self.cancel_subtree(c);
            }
        } else if let Some(value) = pending.pop() {
            // A slot freed up: start the next throttled branch.
            let var = var.clone();
            let body = body.clone();
            let env = parent.env.clone();
            let new_child = self.spawn_branch(pid, &env, &var, value, &body);
            if let Some(Frame::ForAll { children, .. }) = parent.frames.last_mut() {
                children.push(new_child);
            }
        } else if children.is_empty() {
            parent.frames.pop();
            parent.state = TaskState::Ready(Ctl::Return(true));
        }
        self.tasks[pid] = Some(parent);
    }

    fn budget_for(&self, spec: &TrySpec) -> TryBudget {
        let backoff = match spec.every {
            Some(d) => BackoffPolicy::Constant(d),
            None => self.default_backoff,
        };
        TryBudget {
            time_limit: spec.time,
            attempt_limit: spec.attempts,
            backoff,
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
        for task in self.tasks.iter().flatten() {
            if let TaskState::Sleeping { until } = task.state {
                consider(until);
            }
            for f in &task.frames {
                if let Frame::Try {
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

enum Flow {
    Continue(Ctl),
    Blocked,
    Finished(bool),
}
