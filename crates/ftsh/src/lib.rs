//! # ftsh — the fault tolerant shell
//!
//! A Rust implementation of the scripting language from *"The Ethernet
//! Approach to Grid Computing"* (Thain & Livny, HPDC 2003). ftsh is a
//! shell whose atoms are external commands and whose control flow is
//! organized around **untyped failure**:
//!
//! ```text
//! try for 1 hour
//!   forany host in xxx yyy zzz
//!     try for 5 minutes
//!       fetch-file ${host} filename
//!     end
//!   end
//! end
//! ```
//!
//! * a *group* of commands fails fast;
//! * `try` retries a group with exponential backoff (1 s base, doubled,
//!   1 h cap, random factor in [1, 2)) under a time and/or attempt
//!   budget, forcibly terminating work that outlives its deadline;
//! * `catch` handles the untyped failure; `failure` throws one;
//! * `forany` succeeds on the first alternative that succeeds;
//! * `forall` runs branches in parallel and aborts the rest when any
//!   branch fails;
//! * `->`/`->&`/`-<` redirect output and input to shell *variables*,
//!   giving a simple I/O transaction so repeated attempts do not
//!   interleave partial output.
//!
//! ## Architecture
//!
//! [`parse`] turns source into a [`Script`]; [`bytecode`] compiles it
//! once into a flat program, and [`Vm`] — the one interpreter — runs
//! that program as a **resumable stack machine**: [`Vm::tick`] returns
//! commands to start or cancel plus the next deadline, and the caller
//! supplies results via [`Vm::complete`]. (The tree-walking reference
//! semantics `Vm` is tested against is `tree::TreeVm`, which exists
//! only under `cfg(test)` or the `tree-oracle` feature: a differential
//! oracle, not a second backend.) Every driver drives it by one rule,
//! [`step`], and supplies an [`Executor`] for its world:
//!
//! * [`VmDriver`] (here) — synchronous closure executor on a virtual
//!   clock;
//! * `procman::run_vm` — real POSIX processes in their own
//!   sessions, SIGTERM→SIGKILL on deadline;
//! * `gridworld::SimDriver` — hundreds of VMs inside a discrete-event
//!   simulation;
//! * `egbench::swarm` — thousands of VMs on one epoll reactor against a
//!   live `gridd`.

#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod cond;
pub(crate) mod cvm;
pub mod errors;
pub mod grammar;
pub mod intern;
pub mod interp;
pub mod lexer;
pub mod log;
pub mod parser;
pub mod pretty;
#[cfg(any(test, feature = "tree-oracle"))]
pub mod tree;
pub mod vm;
pub mod words;

pub use ast::{
    Block, Command, Cond, CondOp, Redir, RedirTarget, Script, Seg, Span, Stmt, TrySpec, Word,
};
pub use cond::{eval_cond, eval_cond_values};
pub use errors::{line_col, ParseError};
pub use intern::Istr;
pub use interp::{RunOutcome, VmDriver};
pub use log::{EventLog, LogSummary};
pub use parser::parse;
pub use pretty::pretty;
pub use vm::{
    step, Answers, CmdInput, CmdResult, CmdToken, CommandSpec, Effect, Executor, OutSink, TaskId,
    Tick, Vm, VmStatus,
};
pub use words::Env;

/// The shared structured-trace vocabulary ([`simgrid::trace`]) and its
/// reader ([`simgrid::postmortem`]), re-exported so `procman` and
/// scripts driving [`Vm`] directly can install sinks and analyse
/// [`EventLog::events`] without a simulator dependency.
pub use simgrid::{postmortem, trace};
