//! # `retry` — the retry kernel of the Ethernet approach
//!
//! This crate is the pure, time-agnostic heart of the reproduction of
//! *"The Ethernet Approach to Grid Computing"* (Thain & Livny, HPDC 2003).
//! It captures the obligations the paper places on well-behaved clients of
//! a contended resource:
//!
//! * **Exponential backoff** — after each failure a client delays before
//!   retrying, doubling the delay, capped, and multiplied by a random
//!   factor in `[1, 2)` so that competing clients spread out in time
//!   ([`BackoffPolicy`], which also bounds the total a static analyzer
//!   charges for it).
//! * **Bounded tolerance** — the user expresses *their* limit of
//!   tolerance for failure as a deadline, an attempt count, or both
//!   ([`TryBudget`], [`TrySession`]).
//! * **Carrier sense** — before consuming a resource an Ethernet client
//!   measures whether there is capacity, and defers if not
//!   ([`Discipline`]; the worlds record each reading through
//!   `simgrid::trace::carrier_sense`).
//!
//! Everything here is independent of wall-clock time: callers supply
//! "now" as a [`Time`] value, which lets the very same code drive both
//! real process execution (`procman`) and the discrete-event simulator
//! (`simgrid`). That property is what makes the claim "the simulated
//! clients run the same retry code as the real shell" true.

#![warn(missing_docs)]

pub mod backoff;
pub mod budget;
pub mod discipline;
pub mod time;

pub use backoff::BackoffPolicy;
pub use budget::{NextAttempt, TryBudget, TrySession};
pub use discipline::Discipline;
pub use time::{parse_duration, parse_duration_arg, Dur, Time};
