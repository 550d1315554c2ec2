//! Differential soundness gate: the workflow checker's verdicts are
//! cross-checked against the deterministic simulator on the same
//! workload + fault plan.
//!
//! The contract is one-directional. `Doomed` must be a *proof*: every
//! statically-doomed scenario here must actually stall in the sim.
//! `Clean` is not a completion proof in general, but on the curated
//! scenarios below (the repo's own figure workloads) clean workflows
//! do complete, and we pin that too — a checker that started calling
//! live workloads doomed would break these tests from the other side.

use ftshlint::check::{check, Verdict, WorkflowJob, WorkflowSpec};
use gridworld::coord::{run_allreduce, run_dag, AllReduceParams, DagParams, DagSpec};
use gridworld::figures::{fig8_kill_plan, fig9_fault_plan};
use retry::{Discipline, Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};

fn secs(s: u64) -> Dur {
    Dur::from_secs(s)
}

fn kill(client: usize, at_s: u64, restart: Option<Dur>) -> FaultPlan {
    FaultPlan::new(0x5eed).with(FaultSpec::once(
        Time::ZERO + secs(at_s),
        FaultKind::ClientKill { client, restart },
    ))
}

// ---- clean workloads: checker says clean, sim completes -------------

#[test]
fn clean_diamond_checks_clean_and_completes() {
    let dag = DagSpec::diamond();
    for discipline in Discipline::ALL {
        let spec = WorkflowSpec::dag(&dag, discipline, secs(600), secs(60));
        let report = check(&spec, None, secs(300));
        assert_eq!(report.verdict, Verdict::Clean, "{:?}", report.findings);
    }
    let o = run_dag(DagParams::default(), secs(300));
    assert_eq!(o.jobs_done, 8, "clean verdict, so the sim must finish");
    assert!(o.makespan.is_some());
}

#[test]
fn clean_allreduce_checks_clean_and_completes() {
    for discipline in Discipline::ALL {
        let spec = WorkflowSpec::allreduce(discipline, 4, 2, secs(600), secs(60), secs(2));
        let report = check(&spec, None, secs(300));
        assert_eq!(report.verdict, Verdict::Clean, "{:?}", report.findings);
    }
    let params = AllReduceParams {
        rounds: 2,
        ..AllReduceParams::default()
    };
    let o = run_allreduce(params, secs(300));
    assert_eq!(
        o.rounds_completed, 2,
        "clean verdict, so the sim must finish"
    );
}

#[test]
fn figure_preset_plans_check_clean() {
    // The published fig8/fig9 plans kill-and-restart: survivable, and
    // the checker must agree (the figure pipelines gate on this).
    for discipline in Discipline::ALL {
        let spec = WorkflowSpec::allreduce(discipline, 4, 2, secs(600), secs(60), secs(2));
        let report = check(&spec, Some(&fig8_kill_plan(1)), secs(600));
        assert_eq!(
            report.verdict,
            Verdict::Clean,
            "fig8: {:?}",
            report.findings
        );
        let dag = WorkflowSpec::dag(&DagSpec::diamond(), discipline, secs(600), secs(60));
        let report = check(&dag, Some(&fig9_fault_plan(1)), secs(600));
        assert_eq!(
            report.verdict,
            Verdict::Clean,
            "fig9: {:?}",
            report.findings
        );
    }
}

// ---- adversarial workload 1: killed rank, no restart ----------------

#[test]
fn killed_rank_barrier_is_doomed_and_the_sim_stalls() {
    let spec = WorkflowSpec::allreduce(Discipline::Ethernet, 4, 2, secs(600), secs(60), secs(2));
    let plan = kill(2, 4, None);
    let report = check(&spec, Some(&plan), secs(300));
    assert_eq!(report.verdict, Verdict::Doomed, "{:?}", report.findings);
    assert!(report.rule("unsatisfiable-barrier").count() >= 1);

    let params = AllReduceParams {
        rounds: 2,
        fault_plan: plan,
        ..AllReduceParams::default()
    };
    let o = run_allreduce(params, secs(120));
    assert_eq!(
        o.rounds_completed, 0,
        "statically doomed, so no round lands"
    );
    assert_eq!(o.kills, 1);
    assert_eq!(o.restarts, 0);
}

#[test]
fn killed_rank_with_restart_is_not_doomed_and_the_sim_recovers() {
    let spec = WorkflowSpec::allreduce(Discipline::Ethernet, 4, 2, secs(600), secs(60), secs(2));
    let plan = kill(1, 4, Some(secs(6)));
    let report = check(&spec, Some(&plan), secs(300));
    assert_ne!(report.verdict, Verdict::Doomed, "{:?}", report.findings);

    let params = AllReduceParams {
        rounds: 2,
        fault_plan: plan,
        ..AllReduceParams::default()
    };
    let o = run_allreduce(params, secs(600));
    assert_eq!(o.rounds_completed, 2);
    assert_eq!(o.restarts, 1);
}

// ---- adversarial workload 2: killed DAG producer --------------------

#[test]
fn killed_dag_producer_is_doomed_and_the_sim_stalls() {
    // Client 2 runs align-b, sole producer of `band-b`; killing it
    // before its landing lower bound starves merge and everything
    // downstream.
    let dag = DagSpec::diamond();
    let spec = WorkflowSpec::dag(&dag, Discipline::Ethernet, secs(600), secs(60));
    let plan = kill(2, 1, None);
    let report = check(&spec, Some(&plan), secs(300));
    assert_eq!(report.verdict, Verdict::Doomed, "{:?}", report.findings);
    assert!(report.rule("unsatisfiable-barrier").count() >= 1);

    let params = DagParams {
        fault_plan: plan,
        ..DagParams::default()
    };
    let o = run_dag(params, secs(300));
    assert!(o.jobs_done < 8, "doomed workflow finished: {}", o.jobs_done);
    assert!(o.makespan.is_none());
}

// ---- adversarial workload 3: infeasible budget (blackout) -----------

#[test]
fn permanent_blackout_is_doomed_and_the_sim_stalls() {
    let dag = DagSpec::diamond();
    let spec = WorkflowSpec::dag(&dag, Discipline::Ethernet, secs(600), secs(60));
    let plan = FaultPlan::new(0x5eed).with(FaultSpec::once(
        Time::ZERO + secs(1),
        FaultKind::EnospcWindow {
            duration: secs(100_000),
        },
    ));
    let report = check(&spec, Some(&plan), secs(300));
    assert_eq!(report.verdict, Verdict::Doomed, "{:?}", report.findings);
    assert!(report.rule("budget-infeasible").count() >= 1);

    let params = DagParams {
        fault_plan: plan,
        ..DagParams::default()
    };
    let o = run_dag(params, secs(300));
    assert!(o.jobs_done < 8, "doomed workflow finished: {}", o.jobs_done);
}

// ---- adversarial workload 4: runtime key cycle ----------------------

#[test]
fn runtime_key_cycle_is_doomed_with_a_cycle_witness() {
    // The declared DAG (a -> b) is acyclic; only the scripts' actual
    // fetch gates form the deadlock. No simulator counterpart: the DAG
    // world runs generated scripts, and a workload that cannot be
    // expressed there is exactly what the checker exists to catch.
    let mk = |name: &str, client: usize, source: &str, ins: &[&str], outs: &[&str]| WorkflowJob {
        name: name.into(),
        client,
        source: source.into(),
        env: Vec::new(),
        declared_inputs: ins.iter().map(|&s| s.to_owned()).collect(),
        declared_outputs: outs.iter().map(|&s| s.to_owned()).collect(),
        local_work: secs(1),
        not_before: Dur::ZERO,
    };
    let spec = WorkflowSpec {
        jobs: vec![
            mk("a", 0, "fetch kb\nrun a\npublish ka\n", &[], &["ka"]),
            mk("b", 1, "fetch ka\nrun b\npublish kb\n", &["ka"], &["kb"]),
        ],
        external: Vec::new(),
    };
    let report = check(&spec, None, secs(300));
    assert_eq!(report.verdict, Verdict::Doomed, "{:?}", report.findings);
    let cycle = report
        .rule("key-cycle")
        .next()
        .expect("a cycle finding with a witness path");
    assert!(
        cycle.message.contains("ka") && cycle.message.contains("kb"),
        "witness names both keys: {}",
        cycle.message
    );
}
