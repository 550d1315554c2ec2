//! # gridworld — the paper's three evaluation scenarios, end to end
//!
//! Populations of clients running real ftsh scripts (see
//! [`scripts`]) are multiplexed over a discrete-event simulation by
//! [`driver::SimDriver`]; the scenario worlds in [`scenarios`] give
//! the commands their semantics against the contended resources of
//! `simgrid`. [`figures`] regenerates every figure of §5, and
//! [`claims`] judges the shapes EXPERIMENTS.md claims for them.

#![warn(missing_docs)]

pub mod claims;
pub mod coord;
pub mod driver;
pub mod figures;
pub mod lifecycle;
pub mod phases;
pub mod scenarios;
pub mod scripts;
pub mod sweep;

pub use driver::{ClientId, CommandWorld, Ctx, ExecOutcome, RunCounts, SimDriver, SimEv};
pub use figures::{by_name_full, FigureRun, Scale};
pub use lifecycle::{Lifecycle, NextUnit, Wake};
pub use phases::{Phase, PhaseCycles};
pub use scenarios::blackhole::{
    run_blackhole, run_blackhole_traced, BlackHoleOutcome, BlackHoleParams,
};
pub use scenarios::buffer::{run_buffer, run_buffer_traced, BufferOutcome, BufferParams};
pub use scenarios::submit::{run_submission, run_submission_traced, SubmitOutcome, SubmitParams};
