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
//! * [`dag`] — a declarative [`dag::DagSpec`] of ftsh jobs
//!   with producer/consumer edges through store keys: a job may start
//!   once its inputs exist. Ethernet jobs sense the carrier with a
//!   free `df` probe; Aloha jobs poll blindly with expensive misses.
//!
//! Both families run on the same [`SimDriver`](crate::driver)
//! machinery as the paper scenarios — shared `Arc<[Stmt]>` ASTs,
//! structured traces, byte-identical results across sweep threads —
//! and against the real `gridd` daemon via the bench live driver.
//!
//! ## The contended resource
//!
//! Both worlds — and the live daemon's file server — are one store,
//! [`simgrid::KeyStore`]: a key space behind a single-server FIFO (the
//! same [`simgrid::FileServer`] the black-hole scenario's replicas
//! are). Publishing and fetching consume server time; a fetch of a key
//! that does not exist yet is an *expensive miss* (an exhaustive
//! directory scan), so blind polling for a straggler's output degrades
//! everyone's service. The carrier-sense probe reads the key space
//! without touching the server — sensing is free, committing work is
//! not, exactly the asymmetry §6 of the paper builds its Ethernet
//! discipline on.
//!
//! [`FaultKind::ClientKill`]: simgrid::faults::FaultKind::ClientKill

use crate::driver::{ClientId, Ctx};
use ftsh::vm::{CmdResult, CmdToken};
use ftsh::{Env, Script, Vm};
use retry::{Discipline, Dur};
use simgrid::{KeyStore, Started};

pub mod allreduce;
pub mod dag;

pub use allreduce::{
    allreduce_aloha_text, allreduce_ethernet_text, allreduce_script, allreduce_text, peer_list,
    rank_env, rank_unit_vm, run_allreduce, run_allreduce_traced, AllReduceOutcome, AllReduceParams,
    RankPolicy,
};
pub use dag::{
    dag_job_script, dag_job_script_text, run_dag, run_dag_traced, DagJob, DagOutcome, DagParams,
    DagSpec,
};

/// The shared store as the simulated worlds use it: keys carry no
/// payload, and an operation belongs to the command that issued it.
pub type Store<K> = KeyStore<K, (), (ClientId, CmdToken)>;

/// The one scenario event of both coordinated worlds: the store
/// finished a service.
#[derive(Debug)]
pub struct StoreDone {
    /// Sequence number stamped when the service began.
    pub seq: u64,
}

/// The store started a service: put its end on the virtual clock.
fn schedule_done(ctx: &mut Ctx<'_, StoreDone>, started: Option<Started>) {
    if let Some(Started { seq, dur }) = started {
        ctx.schedule(ctx.now() + dur, StoreDone { seq });
    }
}

/// Tell the command behind a finished store operation how it went.
fn store_reply(ctx: &mut Ctx<'_, StoreDone>, (client, token): (ClientId, CmdToken), success: bool) {
    let result = if success {
        CmdResult::succeed()
    } else {
        CmdResult::fail()
    };
    ctx.complete(client, token, result);
}

/// Build one coord work-unit VM. Collective rounds complete in
/// seconds, not the submit scenario's minutes, so the discipline's
/// policy is scaled to `backoff_base..backoff_cap`
/// ([`Discipline::backoff_within`]).
pub fn coord_vm(
    script: &Script,
    discipline: Discipline,
    env: Env,
    seed: u64,
    backoff_base: Dur,
    backoff_cap: Dur,
) -> Vm {
    let mut vm = Vm::with_env_seed(script, env, seed);
    vm.set_default_backoff(discipline.backoff_within(backoff_base, backoff_cap));
    vm
}

#[cfg(test)]
mod tests {
    use super::*;
    use retry::BackoffPolicy;

    fn dur(ms: u64) -> Dur {
        Dur::from_millis(ms)
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
