//! The ftsh virtual machine: a resumable stack machine.
//!
//! The original ftsh is a blocking C interpreter. We instead
//! *interpret incrementally*: [`Vm::tick`] advances every runnable
//! strand of the script as far as it can, then reports [`Effect`]s —
//! commands to start or cancel — and the next virtual instant at which
//! it must be ticked again (backoff wake-ups and `try` deadlines). The
//! driver supplies "now", completes commands with [`Vm::complete`],
//! and ticks again.
//!
//! This inversion is what lets one interpreter serve two worlds:
//!
//! * `procman` drives it with real wall-clock time and real POSIX
//!   process sessions;
//! * `gridworld` drives hundreds of VMs inside a discrete-event
//!   simulation, reproducing the paper's figures deterministically.
//!
//! `forall` branches become independent *tasks* (the unit the paper
//! kills via POSIX sessions); a `try` whose deadline expires unwinds
//! every frame and task beneath it, cancelling in-flight commands, and
//! then fails like any other untyped failure.
//!
//! This module holds the driving vocabulary (tokens, specs, effects,
//! statuses) and the one rule every driver drives by, [`step`]; the
//! machine itself is the bytecode interpreter in `cvm.rs`, re-exported
//! here as [`Vm`].

pub use crate::cvm::Vm;
use crate::intern::Istr;
use retry::Time;

/// Identifies an in-flight command between [`Effect::Start`] and
/// [`Vm::complete`].
pub type CmdToken = u64;

/// Identifies a VM task (the root script is task 0; every `forall`
/// branch gets a fresh task).
pub type TaskId = usize;

/// Where a command's standard input comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum CmdInput {
    /// Literal data (the `-<` variable form, already expanded).
    Data(Istr),
    /// A file path (the `<` form); the executor opens it.
    File(Istr),
}

/// Where a command's standard output goes.
#[derive(Clone, Debug, PartialEq)]
pub enum OutSink {
    /// Capture into a shell variable: the executor must return stdout
    /// in [`CmdResult::stdout`]; the VM assigns the variable.
    Var {
        /// Variable name.
        name: Istr,
        /// Append to the existing value (`->>`).
        append: bool,
    },
    /// Write to a file; the executor owns the filesystem.
    File {
        /// Target path (already expanded).
        path: Istr,
        /// Append (`>>`).
        append: bool,
    },
}

/// A fully expanded command ready for an executor.
#[derive(Clone, Debug, PartialEq)]
pub struct CommandSpec {
    /// Expanded argv; `argv[0]` is the program.
    pub argv: Vec<Istr>,
    /// Standard input source, if redirected.
    pub input: Option<CmdInput>,
    /// Standard output sink, if redirected.
    pub output: Option<OutSink>,
    /// Capture/redirect standard error along with stdout (`>&`/`->&`).
    pub both: bool,
}

impl CommandSpec {
    /// The program name (empty string if argv is empty).
    pub fn program(&self) -> &str {
        self.argv.first().map(Istr::as_str).unwrap_or("")
    }
}

/// What an executor reports back for a finished command.
#[derive(Clone, Debug, PartialEq)]
pub struct CmdResult {
    /// Did the command exit normally with status zero?
    pub success: bool,
    /// Captured standard output, `None` when there was none (only
    /// consulted for `Var` sinks; a capture of `None` binds `""`).
    /// Interned so a simulated world can hand the same output to
    /// thousands of clients without copying it per completion, and
    /// optional so a result without output holds no handle at all —
    /// not even to the one shared empty string, whose refcount every
    /// thread of a sweep would otherwise bump.
    pub stdout: Option<Istr>,
}

impl CmdResult {
    /// A successful result carrying output. Empty output is stored as
    /// none.
    pub fn ok(stdout: impl Into<Istr>) -> CmdResult {
        let stdout = stdout.into();
        CmdResult {
            success: true,
            stdout: (!stdout.is_empty()).then_some(stdout),
        }
    }

    /// A successful result with no output: [`CmdResult::ok`] of `""`
    /// without building a string first.
    pub fn succeed() -> CmdResult {
        CmdResult {
            success: true,
            stdout: None,
        }
    }

    /// A failed result, with no output.
    pub fn fail() -> CmdResult {
        CmdResult {
            success: false,
            stdout: None,
        }
    }
}

/// Side effects a tick asks the driver to perform.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// Start the command; report back with [`Vm::complete`].
    Start {
        /// Correlation token.
        token: CmdToken,
        /// The task that issued it (useful for per-branch accounting).
        task: TaskId,
        /// What to run.
        spec: CommandSpec,
    },
    /// Stop an in-flight command; no completion should follow (one that
    /// races in anyway is ignored).
    Cancel {
        /// Token from the corresponding start.
        token: CmdToken,
    },
}

/// Overall VM state after a tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VmStatus {
    /// Work remains.
    Running {
        /// The next instant at which [`Vm::tick`] must be called even
        /// if no command completes (earliest backoff wake-up or `try`
        /// deadline); `None` when the VM is only waiting on commands.
        next_wake: Option<Time>,
    },
    /// The script finished.
    Done {
        /// Overall script outcome.
        success: bool,
    },
}

/// The result of one [`Vm::tick`].
#[derive(Clone, Debug, PartialEq)]
pub struct Tick {
    /// Commands to start or cancel, in order.
    pub effects: Vec<Effect>,
    /// Whether to keep driving.
    pub status: VmStatus,
}

/// What a driver does with the commands a VM starts and cancels — the
/// part of driving a VM that belongs to its world. [`step`] is the
/// rest.
pub trait Executor {
    /// Start command `token`. A result known before this returns goes
    /// to `answers` — this command's, or those of others that starting
    /// it cost (a lost connection fails every call in flight on it).
    /// Any other result is the driver's to deliver later with
    /// [`Vm::complete`].
    fn start(&mut self, token: CmdToken, spec: &CommandSpec, answers: &mut Answers<'_>);

    /// The VM gave up on in-flight command `token`; no result for it is
    /// wanted. Results this costs other commands go to `answers`.
    fn cancel(&mut self, token: CmdToken, answers: &mut Answers<'_>);

    /// Tick `vm`: [`step`] calls this for every tick it takes. The
    /// provided body is [`Vm::tick_into`] and nothing else; a driver
    /// that times its phases wraps it.
    #[inline(always)]
    fn tick(&mut self, vm: &mut Vm, now: Time, effects: &mut Vec<Effect>) -> VmStatus {
        vm.tick_into(now, effects)
    }
}

/// Where an [`Executor`] hands the results it has at once. Each goes
/// to the VM the moment it is given.
pub struct Answers<'a> {
    vm: &'a mut Vm,
    /// The batch's effects not yet routed: the first `live` of them.
    /// A cancel for a command answered here is moved past `live`.
    rest: &'a mut [Effect],
    live: usize,
    given: bool,
}

impl Answers<'_> {
    /// Complete command `token` with `result` now. A cancel for it
    /// still queued in this batch is dropped: the executor has answered
    /// already, so there is nothing left to stop.
    #[inline]
    pub fn answer(&mut self, token: CmdToken, result: CmdResult) {
        self.vm.complete(token, result);
        self.given = true;
        let cancel = Effect::Cancel { token };
        if let Some(i) = self.rest[..self.live].iter().position(|e| *e == cancel) {
            self.rest[i..self.live].rotate_left(1);
            self.live -= 1;
        }
    }
}

/// Drive `vm` at `now` until it waits on the world: tick it into the
/// caller's `effects` buffer ([`Executor::tick`]), route each effect
/// through `exec` in order, hand the specs back ([`Vm::recycle_spec`]),
/// and tick again while anything was answered inline. Returns the last
/// tick's status and how many ticks were taken.
///
/// Inlined into each driver's loop, as the loops it replaced were
/// written: the simulator steps a VM per event, and out of line the
/// call showed in its per-event cost.
#[inline]
pub fn step(
    vm: &mut Vm,
    now: Time,
    effects: &mut Vec<Effect>,
    exec: &mut impl Executor,
) -> (VmStatus, u64) {
    let mut ticks = 0;
    loop {
        ticks += 1;
        let status = exec.tick(vm, now, effects);
        let mut answered = false;
        let mut next = 0;
        while next < effects.len() {
            let (routed, rest) = effects.split_at_mut(next + 1);
            let mut answers = Answers {
                vm: &mut *vm,
                live: rest.len(),
                rest,
                given: false,
            };
            match &routed[next] {
                Effect::Start { token, spec, .. } => exec.start(*token, spec, &mut answers),
                Effect::Cancel { token } => exec.cancel(*token, &mut answers),
            }
            answered |= answers.given;
            next += 1;
            let kept = next + answers.live;
            effects.truncate(kept);
        }
        for eff in effects.drain(..) {
            if let Effect::Start { spec, .. } = eff {
                vm.recycle_spec(spec);
            }
        }
        if !answered {
            return (status, ticks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Holds each command it starts; the second start loses both held
    /// commands at once, the way a dropped connection fails every call
    /// in flight on it.
    #[derive(Default)]
    struct Lossy {
        held: Vec<CmdToken>,
        cancelled: Vec<CmdToken>,
    }

    impl Executor for Lossy {
        fn start(&mut self, token: CmdToken, _: &CommandSpec, answers: &mut Answers<'_>) {
            self.held.push(token);
            if self.held.len() == 2 {
                for lost in self.held.drain(..) {
                    answers.answer(lost, CmdResult::fail());
                }
            }
        }

        fn cancel(&mut self, token: CmdToken, _: &mut Answers<'_>) {
            self.cancelled.push(token);
        }
    }

    #[test]
    fn answers_for_other_commands_drop_their_queued_cancels() {
        // Branches a, b and d start commands and branch c fails in the
        // same tick, so the VM queues a cancel behind each start. The
        // start of b answers a and b; only d's cancel is left to route.
        let script = parse(
            "forall x in a b d c\n if ${x} .eql. c\n  failure\n else\n  cmd ${x}\n end\nend\n",
        )
        .unwrap();
        let mut vm = Vm::with_seed(&script, 1);
        let mut exec = Lossy::default();
        let mut effects = Vec::new();
        let (status, ticks) = step(&mut vm, Time::ZERO, &mut effects, &mut exec);
        assert_eq!(status, VmStatus::Done { success: false });
        assert_eq!(ticks, 2, "answers given inline earn one more tick");
        assert_eq!(exec.held.len(), 1);
        assert_eq!(exec.cancelled, exec.held);
    }
}
