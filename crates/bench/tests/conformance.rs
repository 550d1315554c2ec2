//! Tier-1 gate: the conformance corpus runs through the full 3-way
//! matrix (tree-walking oracle, `ftsh::Vm`, real processes) with zero
//! unexplained divergences.

use egbench::conformance::{corpus_dir, report, run_corpus};

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
