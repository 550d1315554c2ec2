//! Models of the contended resources from the paper's three scenarios
//! (the first scenario's schedd among them), and the key store of the
//! coordinated workloads and the live daemon.

pub mod disk;
pub mod fdtable;
pub mod schedd;
pub mod server;
pub mod store;
