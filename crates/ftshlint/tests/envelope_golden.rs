//! Golden values for the one envelope derivation
//! ([`ftshlint::check::envelope_report`], a walk over the compiled
//! bytecode).
//!
//! Until PR 12 the envelope was derived twice — on the AST and on the
//! bytecode — and a parity test held the two together. The AST analyzer
//! is gone; what it agreed on with the bytecode walker at its last green
//! run is frozen here instead: every corpus script's envelope under both
//! policies, and the exact `recursive-function` /
//! `dynamic-dispatch-unbounded` diagnostics (rule, message, span) the
//! AST analyzer used to produce.

use ftshlint::check::bytecode_envelope;
use ftshlint::{lint, Options};
use retry::{BackoffPolicy, Dur};
use std::path::{Path, PathBuf};

const FOREVER: u64 = u64::MAX;

/// `(script stem, paper-policy envelope ms, arena 100 ms / 2 s envelope ms)`.
type Row = (&'static str, u64, u64);

/// Per corpus directory, its rows — recorded at the last commit where
/// the AST and bytecode derivations both existed and agreed on each.
#[rustfmt::skip]
const GOLDEN: &[(&str, &[Row])] = &[
    ("bench/conformance", &[
        ("01_true", 0, 0),
        ("02_echo_capture", 0, 0),
        ("03_false_catch", 10, 10),
        ("04_retry_unreliable", 40, 40),
        ("05_exhausted_catch", 20, 20),
        ("06_forany_fallback", 0, 0),
        ("07_forall_parallel", 0, 0),
        ("08_if_cond", 0, 0),
        ("09_function", 30, 30),
        ("10_deadline_kill", 0, 0),
        ("11_io_transaction", 0, 0),
        ("12_nested_ethernet", 60, 60),
        ("13_failure_success", 0, 0),
        ("14_append_capture", 10, 10),
        ("15_stderr_merge", 0, 0),
        ("16_nested_try_budgets", 50, 50),
        ("17_deadline_over_call", 0, 0),
        ("18_empty_blocks", 0, 0),
        ("19_catch_rebinding", 0, 0),
        ("20_dynamic_dispatch", FOREVER, FOREVER),
        ("21_forall_barrier", 60, 60),
        ("22_dependency_chain", 40, 40),
    ]),
    ("../examples/ftsh", &[
        ("allreduce_rank", 600_000, 600_000),
        ("aloha_submit", FOREVER, FOREVER),
        ("dag_merge_job", 1_200_000, 1_200_000),
        ("ethernet_submit", 259_200_000, 259_200_000),
        ("fixed_hammer", 3_600_000, 3_600_000),
    ]),
    ("procman/tests/scripts", &[
        ("carrier_sense", 2_000, 200),
        ("catch_cleanup", 2_000, 200),
        ("deadline_kill", 0, 0),
        ("forall_parallel", 0, 0),
        ("forany_fallback", 0, 0),
        ("functions", FOREVER, FOREVER),
        ("io_transaction", 0, 0),
        ("precheck", 2_000, 200),
        ("unpack", 6_000, 600),
    ]),
];

fn corpus_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel)
}

fn read(rel: &str) -> String {
    let path = corpus_path(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn envelope_of(ms: u64) -> Dur {
    if ms == FOREVER {
        Dur::MAX
    } else {
        Dur::from_millis(ms)
    }
}

#[test]
fn every_corpus_script_keeps_its_golden_envelope() {
    for &(dir, rows) in GOLDEN {
        // A script added to a corpus must get a row (derive it, check
        // it by hand against budget.rs's closed forms, record it).
        let on_disk = std::fs::read_dir(corpus_path(dir))
            .unwrap_or_else(|e| panic!("read {dir}: {e}"))
            .filter(|e| e.as_ref().unwrap().path().extension() == Some("ftsh".as_ref()))
            .count();
        assert_eq!(on_disk, rows.len(), "{dir} and its golden rows disagree");

        for &(stem, paper, arena) in rows {
            let rel = format!("{dir}/{stem}.ftsh");
            let src = read(&rel);
            let script = ftsh::parse(&src).unwrap_or_else(|e| panic!("{rel}: {}", e.render(&src)));
            for (policy, want) in [
                (BackoffPolicy::ethernet(), paper),
                (
                    BackoffPolicy::exponential(Dur::from_millis(100), Dur::from_secs(2)),
                    arena,
                ),
            ] {
                let got = bytecode_envelope(&script, &policy);
                assert_eq!(got, envelope_of(want), "{rel} under {policy:?}");
            }
        }
    }
}

// ---- frozen diagnostics ----------------------------------------------

const DYNAMIC_MSG: &str = "argv[0] is computed and could expand to a defined function \
                           name: the callee is unknown, so the call is charged an \
                           unbounded envelope";

fn recursive_msg(name: &str) -> String {
    format!(
        "function `{name}` sits on a call-graph cycle: no finite unrolling \
         bounds its retry envelope (charged as unbounded)"
    )
}

/// `(rule, start, end, message)` of the two envelope rules' findings,
/// in report order.
fn envelope_findings(src: &str) -> Vec<(&'static str, u32, u32, String)> {
    let opts = Options {
        allow: vec!["use-before-assign".into(), "no-carrier-sense".into()],
        ..Options::default()
    };
    lint(src, &opts)
        .expect("parses")
        .diagnostics
        .into_iter()
        .filter(|d| d.rule == "recursive-function" || d.rule == "dynamic-dispatch-unbounded")
        .map(|d| (d.rule, d.span.start, d.span.end, d.message))
        .collect()
}

#[test]
fn dynamic_dispatch_diagnostic_on_the_corpus_script_is_unchanged() {
    // The corpus script suppresses the rule for the lint gate; neutralise
    // that one annotation (same length, so spans do not move).
    let src = read("bench/conformance/20_dynamic_dispatch.ftsh").replace(
        "allow dynamic-dispatch-unbounded",
        "allow dynamic-dispatch-unboundeX",
    );
    assert_eq!(
        envelope_findings(&src),
        [("dynamic-dispatch-unbounded", 261, 268, DYNAMIC_MSG.into())]
    );
    assert_eq!(&src[261..268], "${pick}");

    // Two call sites inside one function body, each reported once.
    let src = read("procman/tests/scripts/functions.ftsh");
    assert_eq!(
        envelope_findings(&src),
        [
            ("dynamic-dispatch-unbounded", 131, 135, DYNAMIC_MSG.into()),
            ("dynamic-dispatch-unbounded", 143, 147, DYNAMIC_MSG.into()),
        ]
    );
}

#[test]
fn recursive_function_diagnostics_are_unchanged() {
    // Self-recursion: the span is the first word of the body.
    let src = "function f\n  work\n  f\nend\nf\n";
    assert_eq!(
        envelope_findings(src),
        [("recursive-function", 13, 17, recursive_msg("f"))]
    );
    // Mutual recursion through a try and an if: the function where the
    // cycle closes is named, spanned at its body's `try` header.
    let src = "function a\n  try 2 times\n    b\n  end\nend\nfunction b\n  \
               if ${x} .eq. 1\n    a\n  end\nend\nx=1\na\n";
    assert_eq!(
        envelope_findings(src),
        [("recursive-function", 13, 24, recursive_msg("a"))]
    );
    assert_eq!(&src[13..24], "try 2 times");
    // A cycle through a nested definition, plus a computed call whose
    // literal tail matches a function name.
    let src = "function f\n  function g\n    f\n  end\n  g\nend\nf\n${x}f\n";
    assert_eq!(
        envelope_findings(src),
        [
            ("recursive-function", 28, 29, recursive_msg("f")),
            ("dynamic-dispatch-unbounded", 46, 51, DYNAMIC_MSG.into()),
        ]
    );
}
