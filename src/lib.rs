//! # ethernet-grid
//!
//! A reproduction of *"The Ethernet Approach to Grid Computing"*
//! (Douglas Thain and Miron Livny, HPDC-12, 2003): the **ftsh** fault
//! tolerant shell and the grid contention studies the paper evaluates.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`retry`] — the pure retry kernel: backoff, try budgets, and the
//!   Fixed/Aloha/Ethernet client disciplines;
//! * [`ftsh`] — the fault tolerant shell: lexer, parser, and a
//!   resumable virtual machine that runs identically against real
//!   processes and the simulator;
//! * [`procman`] — real POSIX execution: sessions, SIGTERM→SIGKILL
//!   escalation, deadline enforcement, capture-to-variable;
//! * [`simgrid`] — the discrete-event simulator with its resource
//!   models (kernel FD table, shared disk buffer, file servers);
//! * [`gridworld`] — the paper's three scenarios (job submission,
//!   output buffer, black-hole replica selection) wired end to end.
//!
//! ## Quickstart
//!
//! ```
//! use ethernet_grid::ftsh::{parse, Vm, VmDriver};
//!
//! let script = parse(
//!     "try for 10 seconds\n\
//!        hello world\n\
//!      end\n",
//! )
//! .unwrap();
//!
//! // Drive the script with a toy executor on a virtual clock: every
//! // command succeeds.
//! // A fixed seed makes the run (and this doctest) deterministic;
//! // `Vm::new` seeds backoff jitter from entropy instead.
//! let mut driver = VmDriver::new(Vm::with_seed(&script, 42));
//! let outcome = driver.run_to_completion(|_cmd| Ok(String::new()));
//! assert!(outcome.success());
//! ```

pub use ftsh;
pub use gridworld;
pub use procman;
pub use retry;
pub use simgrid;
