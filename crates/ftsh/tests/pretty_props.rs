//! Property: `parse(pretty(ast)) == ast` for generated scripts.
//!
//! `parser_robustness.rs` checks the source-level fixpoint
//! (pretty∘parse is idempotent on corpus text); this test attacks the
//! other direction with *synthesized* ASTs from the shared generator
//! (`ftsh::tree::gen`) — nested try/catch with every budget form,
//! forany/forall, if/else, functions, captures and input redirections —
//! so the printer's quoting and duration rendering are exercised on
//! shapes no corpus script has. A failure names the generator seed.

use ftsh::ast::{Block, Stmt};
use ftsh::tree::gen;
use ftsh::{parse, pretty, Script};

/// How many generated scripts each property reads.
const SCRIPTS: u64 = 512;

/// The generated script `seed` names, its canonical text and its reparse.
fn round_trip(seed: u64) -> (Script, String, Script) {
    let script = gen::script(seed);
    let text = pretty(&script);
    let reparsed = parse(&text)
        .unwrap_or_else(|e| panic!("seed {seed}: pretty output must parse: {e}\n---\n{text}"));
    (script, text, reparsed)
}

/// Check every statement span in `block` against the source `text`
/// (which `what` names in a failure) and
/// the span of its enclosing construct: known, in bounds, ordered and
/// disjoint within the block, nested inside the parent, and with word /
/// try-header spans contained in their statement's span.
fn check_spans(block: &Block, what: &str, text: &str, enclosing: ftsh::Span) {
    let mut prev_end = enclosing.start;
    for (stmt, span) in block.iter_spanned() {
        assert!(span.is_known(), "unspanned stmt {stmt:?} in {what}");
        assert!(
            span.start < span.end && (span.end as usize) <= text.len(),
            "span {span:?} out of bounds in {what}"
        );
        assert!(
            span.start >= prev_end,
            "sibling spans overlap at {span:?} in {what}"
        );
        assert!(
            span.start >= enclosing.start && span.end <= enclosing.end,
            "stmt span {span:?} escapes enclosing {enclosing:?} in {what}"
        );
        prev_end = span.end;
        let contains = |inner: ftsh::Span| inner.start >= span.start && inner.end <= span.end;
        match stmt {
            Stmt::Command(c) => {
                for w in &c.words {
                    assert!(
                        w.span().is_known() && contains(w.span()),
                        "word span {:?} outside stmt {span:?} in {what}",
                        w.span()
                    );
                }
            }
            Stmt::Try { spec, body, catch } => {
                assert!(
                    spec.span.is_known() && contains(spec.span),
                    "try header span {:?} outside stmt {span:?} in {what}",
                    spec.span
                );
                assert!(
                    text[spec.span.start as usize..].starts_with("try"),
                    "header span must start at the keyword in {what}"
                );
                check_spans(body, what, text, span);
                if let Some(c) = catch {
                    check_spans(c, what, text, span);
                }
            }
            Stmt::ForAny { body, .. } | Stmt::ForAll { body, .. } => {
                check_spans(body, what, text, span);
            }
            Stmt::If { then, els, .. } => {
                check_spans(then, what, text, span);
                if let Some(e) = els {
                    check_spans(e, what, text, span);
                }
            }
            Stmt::Function { body, .. } => check_spans(body, what, text, span),
            Stmt::Assign { .. } | Stmt::Failure | Stmt::Success => {}
        }
    }
}

/// The printer is a right inverse of the parser on generated ASTs, and
/// its output is a fixpoint: printing the reparse changes nothing.
#[test]
fn pretty_then_parse_is_identity() {
    for seed in 0..SCRIPTS {
        let (script, text, reparsed) = round_trip(seed);
        assert_eq!(
            reparsed, script,
            "seed {seed}: not a fixpoint:\n---\n{text}"
        );
        assert_eq!(
            pretty(&reparsed),
            text,
            "seed {seed}: printing is not idempotent"
        );
    }
}

/// Reparsing pretty output attaches a well-formed span to every node:
/// spans exist, sit inside their parents and never overlap among
/// siblings.
#[test]
fn reparse_of_pretty_output_is_fully_spanned() {
    for seed in 0..SCRIPTS {
        let (_, text, reparsed) = round_trip(seed);
        let whole = ftsh::Span::new(0, text.len() as u32);
        check_spans(
            &reparsed.stmts,
            &format!("seed {seed}:\n{text}"),
            &text,
            whole,
        );
    }
}
