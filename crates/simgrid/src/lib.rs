//! # simgrid — a discrete-event grid substrate
//!
//! The paper evaluates the Ethernet approach on a real testbed: a
//! Condor scheduler driven to file-descriptor exhaustion, an NFS buffer
//! filled by producers, and replicated web servers, one of which is a
//! black hole. This crate is the synthetic equivalent: a deterministic
//! discrete-event kernel ([`EventQueue`]) plus models of the
//! contended resources:
//!
//! * [`FdTable`] — a kernel file-descriptor table with conservation
//!   accounting (the unexpected contended resource of §5's first
//!   scenario);
//! * [`DiskBuffer`] — a shared output buffer with in-progress vs.
//!   complete files, mid-write ENOSPC, and the paper's free-space
//!   estimator for carrier sense;
//! * [`FileServer`] — the single-threaded server with a FIFO accept
//!   queue, or a *black hole* that accepts connections and never
//!   serves them. Generic over its jobs and free of any clock: the
//!   replica file servers of the third scenario are this model, and
//!   so is the server inside a [`KeyStore`];
//! * [`KeyStore`] — the put/get key space behind one such server:
//!   operations priced when their service starts, taking effect when
//!   it ends. The coordinated workloads' store and the live daemon's
//!   file server are both this one value;
//! * [`Schedd`] — the paper's Condor schedd: one such server on an
//!   [`FdTable`] it shares with its clients, with a bookkeeping gap
//!   between services and a crash when a service cannot get its
//!   transient descriptors. Clockless like the rest: the submission
//!   world of the first scenario and the live daemon drive it.
//!
//! [`faults`] holds the fault-plan language and the one compiler from
//! a plan to time windows ([`faults::FaultWindows`]) that the
//! simulator, the static checker and the daemon read. [`IdMap`] is
//! the deterministic lookup table the worlds key by client and token.
//! [`prefetch`] is the cache hint the simulator's event loop issues
//! for the next event's client, and [`cycles`] the counter its phase
//! timer reads.
//!
//! Time is `retry::Time` — the same virtual instants the ftsh VM
//! consumes — so whole populations of VMs can be multiplexed over one
//! queue.

#![warn(missing_docs)]

pub mod channel;
mod cycles;
pub mod events;
pub mod faults;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod postmortem;
mod prefetch;
pub mod resources;
pub mod rng;
pub mod trace;

pub use channel::{simulate_channel, ChannelStats};
pub use cycles::cycles;
pub use events::{EventQueue, NO_OWNER};
pub use faults::{FaultKind, FaultPlan, FaultSpec};
pub use hash::IdMap;
pub use metrics::{json_escape, percentile, Series, SeriesSet};
pub use postmortem::TraceSummary;
pub use prefetch::prefetch;
pub use resources::disk::{DiskBuffer, FileId, WriteError};
pub use resources::fdtable::{FdExhausted, FdTable};
pub use resources::schedd::{Refusal, Schedd, ScheddEffect, ScheddParams, ScheddTimer};
pub use resources::server::{Admission, FileServer, ServerKind};
pub use resources::store::{Finished, KeyStore, Served, Started, StoreOp};
pub use rng::SimRng;
pub use trace::{SharedSink, TraceEv, TraceRecord, TraceSink};
