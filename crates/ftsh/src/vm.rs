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
//! statuses); the machine itself is the bytecode interpreter in
//! `cvm.rs`, re-exported here as [`Vm`].

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
    /// Captured standard output (only consulted for `Var` sinks).
    /// Interned so a simulated world can hand the same output to
    /// thousands of clients without copying it per completion.
    pub stdout: Istr,
}

impl CmdResult {
    /// A successful result carrying output.
    pub fn ok(stdout: impl Into<Istr>) -> CmdResult {
        CmdResult {
            success: true,
            stdout: stdout.into(),
        }
    }

    /// A failed result.
    pub fn fail() -> CmdResult {
        CmdResult {
            success: false,
            stdout: Istr::empty(),
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
