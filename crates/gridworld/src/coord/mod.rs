//! Coordinated workloads: fault-tolerant collectives and DAG
//! workflows (Figures 8–9).
//!
//! The paper's three scenarios are independent clients racing one
//! contended resource. This module adds workloads where progress is
//! *gated on every participant*, the regime MPICH-G2-style collectives
//! and Swift-style dataflow live in:
//!
//! * [`allreduce`] — N ftsh worker ranks compute a partial value,
//!   publish it through the shared put/get store, and use `forall`
//!   over peer fetches as the barrier. A round completes only when
//!   every rank lands; [`FaultKind::ClientKill`] injections kill ranks
//!   mid-round (optionally restarting them), and the metric is
//!   time-to-global-completion and rounds lost per discipline.
//! * [`dag`] — a declarative [`DagSpec`](dag::DagSpec) of ftsh jobs
//!   with producer/consumer edges through store keys: a job may start
//!   once its inputs exist. Ethernet jobs sense the carrier with a
//!   free `df` probe; Aloha jobs poll blindly with expensive misses.
//!
//! Both families run on the same [`SimDriver`](crate::driver)
//! machinery as the paper scenarios — shared `Arc<[Stmt]>` ASTs,
//! structured traces, byte-identical results across sweep threads and
//! event-queue shards — and against the real `gridd` daemon via the
//! bench live driver.
//!
//! ## The contended resource
//!
//! Both worlds share one store model, [`OpQueue`]: a single-server
//! FIFO in front of the key space. Publishing and fetching consume
//! server time; a fetch of a key that does not exist yet is an
//! *expensive miss* (an exhaustive directory scan), so blind polling
//! for a straggler's output degrades everyone's service. The
//! carrier-sense probe reads a cached key count without touching the
//! server — sensing is free, committing work is not, exactly the
//! asymmetry §6 of the paper builds its Ethernet discipline on.
//!
//! [`FaultKind::ClientKill`]: simgrid::faults::FaultKind::ClientKill

use crate::driver::ClientId;
use crate::scripts::unit_vm;
use ftsh::vm::CmdToken;
use ftsh::{Env, Script, Vm};
use retry::{BackoffPolicy, Discipline, Dur};
use std::collections::VecDeque;

pub mod allreduce;
pub mod dag;

pub use allreduce::{
    allreduce_aloha_text, allreduce_ethernet_text, allreduce_script, allreduce_text, peer_list,
    rank_unit_vm, run_allreduce, run_allreduce_traced, AllReduceOutcome, AllReduceParams,
};
pub use dag::{
    dag_job_script, dag_job_script_text, run_dag, run_dag_traced, DagJob, DagOutcome, DagParams,
    DagSpec,
};

/// One operation queued at the shared store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreOp<K> {
    /// Publish (put) a key.
    Put(K),
    /// Look a key up (get).
    Get(K),
}

/// The single-server FIFO front end of the shared store: every put and
/// get waits its turn, and the server works on exactly one operation
/// at a time. The queue does not know the key space — callers decide
/// each operation's service time (hit vs. expensive miss) and apply
/// its effect when the service completes.
///
/// Every started service gets a fresh sequence number; a `ServiceDone`
/// event carrying a stale number (the service was aborted by a cancel)
/// is ignored by [`service_done`](OpQueue::service_done).
#[derive(Debug)]
pub struct OpQueue<K> {
    queue: VecDeque<(ClientId, CmdToken, StoreOp<K>)>,
    serving: Option<(ClientId, CmdToken, StoreOp<K>)>,
    seq: u64,
}

impl<K> Default for OpQueue<K> {
    fn default() -> OpQueue<K> {
        OpQueue::new()
    }
}

impl<K> OpQueue<K> {
    /// An empty, idle store queue.
    pub fn new() -> OpQueue<K> {
        OpQueue {
            queue: VecDeque::new(),
            serving: None,
            seq: 0,
        }
    }

    /// Enqueue one operation. If the server was idle it starts at
    /// once: the caller must schedule a `ServiceDone` for the returned
    /// `(seq, dur)`, where `dur` came from `dur_of` on the op now
    /// being served.
    pub fn submit(
        &mut self,
        client: ClientId,
        token: CmdToken,
        op: StoreOp<K>,
        dur_of: impl FnOnce(&StoreOp<K>) -> Dur,
    ) -> Option<(u64, Dur)> {
        self.queue.push_back((client, token, op));
        if self.serving.is_none() {
            self.begin(dur_of)
        } else {
            None
        }
    }

    /// The service with sequence number `seq` finished. Returns the
    /// completed operation plus, if more work is queued, the next
    /// service to schedule. A stale `seq` returns `None`.
    #[allow(clippy::type_complexity)]
    pub fn service_done(
        &mut self,
        seq: u64,
        dur_of: impl FnOnce(&StoreOp<K>) -> Dur,
    ) -> Option<((ClientId, CmdToken, StoreOp<K>), Option<(u64, Dur)>)> {
        if seq != self.seq || self.serving.is_none() {
            return None;
        }
        let done = self.serving.take().expect("checked");
        let next = self.begin(dur_of);
        Some((done, next))
    }

    /// A client's command was cancelled: drop its queued operations
    /// and abort its in-service one. If the abort freed the server and
    /// work is queued, the next service starts (schedule its
    /// `ServiceDone`).
    pub fn cancel(
        &mut self,
        client: ClientId,
        token: CmdToken,
        dur_of: impl FnOnce(&StoreOp<K>) -> Dur,
    ) -> Option<(u64, Dur)> {
        self.queue.retain(|&(c, t, _)| (c, t) != (client, token));
        match &self.serving {
            Some((c, t, _)) if (*c, *t) == (client, token) => {
                self.serving = None;
                self.begin(dur_of)
            }
            _ => None,
        }
    }

    /// Operations waiting or in service (store congestion).
    pub fn depth(&self) -> usize {
        self.queue.len() + usize::from(self.serving.is_some())
    }

    /// The operation currently being served, if any.
    pub fn serving(&self) -> Option<&(ClientId, CmdToken, StoreOp<K>)> {
        self.serving.as_ref()
    }

    fn begin(&mut self, dur_of: impl FnOnce(&StoreOp<K>) -> Dur) -> Option<(u64, Dur)> {
        debug_assert!(self.serving.is_none());
        let head = self.queue.pop_front()?;
        let dur = dur_of(&head.2);
        self.serving = Some(head);
        self.seq += 1;
        Some((self.seq, dur))
    }
}

/// Build one coord work-unit VM. Collective rounds complete in
/// seconds, not the submit scenario's minutes, so Aloha and Ethernet
/// run the exponential policy tightened to `backoff_base..backoff_cap`
/// (still with the ×[1,2) spreading factor); Fixed keeps hammering
/// with no delay.
pub fn coord_vm(
    script: &Script,
    discipline: Discipline,
    env: Env,
    seed: u64,
    backoff_base: Dur,
    backoff_cap: Dur,
) -> Vm {
    let mut vm = unit_vm(script, discipline, env, seed);
    if discipline != Discipline::Fixed {
        vm.set_default_backoff(BackoffPolicy::exponential(backoff_base, backoff_cap));
    }
    vm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dur(ms: u64) -> Dur {
        Dur::from_millis(ms)
    }

    #[test]
    fn fifo_order_and_seq_invalidation() {
        let mut q: OpQueue<u32> = OpQueue::new();
        let cost = |op: &StoreOp<u32>| match op {
            StoreOp::Put(_) => dur(100),
            StoreOp::Get(_) => dur(50),
        };
        let first = q.submit(0, 1, StoreOp::Put(7), cost);
        assert_eq!(first, Some((1, dur(100))));
        assert_eq!(q.submit(1, 1, StoreOp::Get(7), cost), None);
        assert_eq!(q.depth(), 2);

        // Stale sequence numbers are ignored.
        assert!(q.service_done(99, cost).is_none());

        let ((c, t, op), next) = q.service_done(1, cost).expect("head served");
        assert_eq!((c, t, op), (0, 1, StoreOp::Put(7)));
        assert_eq!(next, Some((2, dur(50))));
        let ((c, _, _), next) = q.service_done(2, cost).expect("second served");
        assert_eq!(c, 1);
        assert!(next.is_none());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn cancel_aborts_service_and_starts_next() {
        let mut q: OpQueue<u32> = OpQueue::new();
        let cost = |_: &StoreOp<u32>| dur(10);
        let (seq, _) = q.submit(0, 1, StoreOp::Get(1), cost).expect("starts");
        q.submit(1, 1, StoreOp::Get(2), cost);
        q.submit(1, 2, StoreOp::Get(3), cost);
        // Cancelling a queued (not serving) op removes it silently.
        assert!(q.cancel(1, 2, cost).is_none());
        // Cancelling the in-service op starts client 1's first get;
        // the aborted service's seq goes stale.
        let next = q.cancel(0, 1, cost).expect("next starts");
        assert!(q.service_done(seq, cost).is_none(), "aborted seq is stale");
        let ((c, t, _), more) = q.service_done(next.0, cost).expect("served");
        assert_eq!((c, t), (1, 1));
        assert!(more.is_none());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn coord_vm_backoff_by_discipline() {
        let script = ftsh::parse("try for 2 seconds\n x\nend\n").unwrap();
        // Fixed keeps the no-delay policy; the others get the
        // tightened exponential. Observable via the VM default.
        let f = coord_vm(
            &script,
            Discipline::Fixed,
            Env::new(),
            1,
            dur(500),
            dur(8000),
        );
        let e = coord_vm(
            &script,
            Discipline::Ethernet,
            Env::new(),
            1,
            dur(500),
            dur(8000),
        );
        assert_eq!(f.default_backoff(), BackoffPolicy::None);
        assert_eq!(
            e.default_backoff(),
            BackoffPolicy::exponential(dur(500), dur(8000))
        );
    }
}
