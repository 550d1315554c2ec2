//! Models of the contended resources from the paper's three scenarios,
//! and the key store of the coordinated workloads and the live daemon.

pub mod disk;
pub mod fdtable;
pub mod server;
pub mod store;
