//! Tier-1 gate: the conformance corpus runs through the full 3-way
//! matrix (tree-walking oracle, `ftsh::Vm`, real processes) with zero
//! unexplained divergences.

use egbench::conformance::{
    corpus_dir, diff_labeled, report, run_corpus, run_real, run_sim, run_sim_tree,
};
use simgrid::faults::FaultPlan;

/// A program that cannot be loaded fails like any other command: `try`
/// retries it and `forany` falls through to the next alternative, on
/// the simulated side (where the model fails `missing`) and on the real
/// side (where no shim of that name exists, so the spawn fails).
#[test]
fn an_unloadable_program_fails_alike_on_every_substrate() {
    let script = ftsh::parse(
        "try 3 times every 10 ms\n  ${shimdir}/missing\n\
         catch\n  forany c in ${shimdir}/missing true\n    ${c}\n    picked=${c}\n  end\nend\n",
    )
    .unwrap();
    let plan = FaultPlan::new(1);
    let tree = run_sim_tree(&script, &plan, "/shim");
    let byte = run_sim(&script, &plan, "/shim");
    let real = run_real(&script, &plan).expect("shims written");
    assert!(tree.success, "forany falls through to true");
    assert_eq!(tree.bindings["picked"], "true");
    assert_eq!(tree.trace_counts["attempt-start"], 3);
    let mut divergences = diff_labeled(&tree, &byte, "tree", "byte");
    divergences.extend(diff_labeled(&tree, &real, "tree", "real"));
    assert!(divergences.is_empty(), "{divergences:?}");
}

#[test]
fn corpus_is_conformant_across_substrates() {
    let verdicts = run_corpus(&corpus_dir()).expect("conformance harness");
    assert!(
        verdicts.len() >= 20,
        "corpus must hold at least 20 scripts, found {}",
        verdicts.len()
    );
    let diverged: Vec<&str> = verdicts
        .iter()
        .filter(|v| !v.ok())
        .map(|v| v.name.as_str())
        .collect();
    assert!(
        diverged.is_empty(),
        "interpreters disagree on {diverged:?}\n{}",
        report(&verdicts)
    );
}
