//! Robustness properties of the lexer and parser: arbitrary input must
//! never panic, and diagnostics must carry plausible line numbers.

use ftsh::lexer::lex;
use ftsh::{parse, ParseError};
use proptest::prelude::*;

/// Token soup: keywords, operators, quotes and substitutions joined by
/// spaces.
fn shelly() -> impl Strategy<Value = String> {
    const WORDS: [&str; 26] = [
        "try", "end", "forany", "forall", "if", "catch", "for", "times", "5", "minutes", "in",
        "\n", "->", "->&", "-<", ">", "<", "${x}", "$", "\"", "'", "#c", "\\", "a=b", ".lt.",
        "cmd",
    ];
    proptest::collection::vec(0..WORDS.len(), 0..40)
        .prop_map(|ix| ix.iter().map(|&i| WORDS[i]).collect::<Vec<_>>().join(" "))
}

/// Whole statement lines, headers and terminators in any order, so
/// constructs are often left open or short of a value.
fn statement_lines() -> impl Strategy<Value = String> {
    const LINES: [&str; 16] = [
        "try 3 times",
        "try 99999999999 times",
        "try for 5 seconds",
        "forany v in a b",
        "forany v in",
        "forall v in x",
        "forall v in -> x",
        "function f",
        "if a .lt. b",
        "catch",
        "else",
        "end",
        "cmd x",
        "x=1",
        "failure",
        "",
    ];
    proptest::collection::vec(0..LINES.len(), 0..12)
        .prop_map(|ix| ix.iter().map(|&i| LINES[i]).collect::<Vec<_>>().join("\n"))
}

/// Multi-byte characters beside every byte the lexer treats specially:
/// the shim's `.` is printable ASCII only, and a byte scanner fails by
/// slicing inside a character.
fn wide_beside_special() -> impl Strategy<Value = String> {
    const SPECIAL: [&str; 17] = [
        "\n", " ", "\t", "\r", "#", "\\", "\"", "'", "$", "{", "}", "<", ">", "-", "&", "=", ".",
    ];
    const WIDE: [&str; 3] = ["é", "€", "😀"];
    let mut atoms: Vec<String> = ["a", "x=", "${", "try", "end", "3 times"]
        .map(String::from)
        .to_vec();
    for s in SPECIAL {
        for w in WIDE {
            atoms.push(format!("{s}{w}"));
            atoms.push(format!("{w}{s}"));
        }
    }
    proptest::collection::vec(0..atoms.len(), 0..40)
        .prop_map(move |ix| ix.iter().map(|&i| atoms[i].as_str()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Multi-byte text never panics the front end, and every span —
    /// tokens in order, errors — falls on character boundaries.
    #[test]
    fn multibyte_text_splits_on_char_boundaries(src in wide_beside_special()) {
        let fits = |start: u32, end: u32| {
            start <= end
                && end as usize <= src.len()
                && src.is_char_boundary(start as usize)
                && src.is_char_boundary(end as usize)
        };
        match lex(&src) {
            Ok(tokens) => {
                let mut prev_end = 0;
                for t in &tokens {
                    prop_assert!(
                        prev_end <= t.span.start && fits(t.span.start, t.span.end),
                        "{t:?} after {prev_end} in {src:?}"
                    );
                    prev_end = t.span.end;
                    let _ = t.word(&src);
                }
            }
            Err(e) => {
                let span = e.span.expect("lexer errors carry spans");
                prop_assert!(fits(span.start, span.end), "{e:?} in {src:?}");
            }
        }
        if let Err(e) = parse(&src) {
            let span = e.span.expect("parse errors carry spans");
            prop_assert!(fits(span.start, span.end), "{e:?} in {src:?}");
        }
    }

    /// Parsing arbitrary text never panics; it either produces a
    /// script or a diagnostic.
    #[test]
    fn parse_never_panics(src in ".{0,200}") {
        let _ = parse(&src);
    }

    /// Parsing arbitrary *shell-flavoured* text never panics either
    /// (denser in the interesting bytes: quotes, $, redirects,
    /// keywords).
    #[test]
    fn parse_never_panics_shelly(src in shelly()) {
        let _ = parse(&src);
    }

    /// Every parse error points at source text: DESIGN §9 has parse
    /// errors reuse the spans, and without one `ParseError::render`
    /// drops to the bare `line N:` form.
    #[test]
    fn every_error_carries_a_span(src in prop_oneof![shelly(), statement_lines()]) {
        if let Err(e) = parse(&src) {
            let in_bounds = e
                .span
                .is_some_and(|s| s.start <= s.end && s.end as usize <= src.len());
            prop_assert!(in_bounds, "{e:?} for {src:?}");
        }
    }

    /// Error line numbers stay within the script.
    #[test]
    fn error_lines_in_range(src in "[a-z \\n${}\"']{0,120}") {
        if let Err(ParseError { line, .. }) = parse(&src) {
            let n_lines = src.split('\n').count() as u32;
            prop_assert!(line >= 1 && line <= n_lines + 1, "line {line} of {n_lines}");
        }
    }

    /// A parsed script re-parses from its pretty form (the workspace
    /// property tests generate ASTs; this one starts from *source* that
    /// happened to parse).
    #[test]
    fn accepted_source_roundtrips(
        cmds in proptest::collection::vec("[a-z][a-z0-9]{0,6}( [a-z0-9./:-]{1,8}){0,3}", 1..6)
    ) {
        let src = cmds.join("\n") + "\n";
        if let Ok(a) = parse(&src) {
            let b = parse(&ftsh::pretty(&a)).expect("pretty output parses");
            prop_assert_eq!(a, b);
        }
    }
}
