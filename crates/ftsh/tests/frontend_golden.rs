//! Golden front end: what `lex` and `parse` make of the script corpus,
//! of seeded mutations of it, and of the quoting traps a lexer rewrite
//! trips on — every token's kind, line, span and decoded segments, and
//! every statement, word and `try` header span or the error (line,
//! message, span). Hashes were recorded at PR 21 before the byte
//! lexer replaced the char-iterator one, and that rewrite left this
//! file untouched: the front end's observable behaviour is frozen here.
//!
//! On a mismatch the test prints the first differing input with its
//! dump, and the full table of hashes it computed.

use ftsh::lexer::lex;
use ftsh::{parse, Block, ParseError, Redir, Seg, Stmt, Word};
use simgrid::SimRng;
use std::fmt::Write as _;
use std::path::Path;

/// Corpus directories relative to this crate (the benchmark's 36
/// scripts).
const CORPUS_DIRS: [&str; 3] = [
    "../bench/conformance",
    "../procman/tests/scripts",
    "../../examples/ftsh",
];

/// `(file, hash of its dump)`, sorted by path.
#[rustfmt::skip]
const CORPUS: &[(&str, u64)] = &[
    ("../../examples/ftsh/allreduce_rank.ftsh", 0xcc0f358b1113d4c8),
    ("../../examples/ftsh/aloha_submit.ftsh", 0x89640694ec0466af),
    ("../../examples/ftsh/dag_merge_job.ftsh", 0x90df658956a38fe8),
    ("../../examples/ftsh/ethernet_submit.ftsh", 0x0bf4fe30a1a166be),
    ("../../examples/ftsh/fixed_hammer.ftsh", 0xcf9c260eedac0fba),
    ("../bench/conformance/01_true.ftsh", 0xe387d952a1d3cac2),
    ("../bench/conformance/02_echo_capture.ftsh", 0x4ecde941119ef95e),
    ("../bench/conformance/03_false_catch.ftsh", 0xf5d0569d9ca45f00),
    ("../bench/conformance/04_retry_unreliable.ftsh", 0x160d48b90c886d7f),
    ("../bench/conformance/05_exhausted_catch.ftsh", 0x34d5827dc4f6fa5f),
    ("../bench/conformance/06_forany_fallback.ftsh", 0xc271b3a7692ea7f9),
    ("../bench/conformance/07_forall_parallel.ftsh", 0x43b8791c267e677e),
    ("../bench/conformance/08_if_cond.ftsh", 0x9245527b32684ff3),
    ("../bench/conformance/09_function.ftsh", 0x5938e6e891422469),
    ("../bench/conformance/10_deadline_kill.ftsh", 0x21e6cd190ef9751d),
    ("../bench/conformance/11_io_transaction.ftsh", 0xeba43a47dd12180f),
    ("../bench/conformance/12_nested_ethernet.ftsh", 0xa3bed4f2cb40883a),
    ("../bench/conformance/13_failure_success.ftsh", 0xfb466e02307ca02b),
    ("../bench/conformance/14_append_capture.ftsh", 0xff2e4993b3f6b162),
    ("../bench/conformance/15_stderr_merge.ftsh", 0x69b68386e2877e82),
    ("../bench/conformance/16_nested_try_budgets.ftsh", 0x331e58aec115ca8c),
    ("../bench/conformance/17_deadline_over_call.ftsh", 0x5f36345db6470d34),
    ("../bench/conformance/18_empty_blocks.ftsh", 0xa4e220dd8e95b33e),
    ("../bench/conformance/19_catch_rebinding.ftsh", 0xe3ccfc3ea9468386),
    ("../bench/conformance/20_dynamic_dispatch.ftsh", 0x63346e8c578fe399),
    ("../bench/conformance/21_forall_barrier.ftsh", 0xdca9f4a76e9b7dd1),
    ("../bench/conformance/22_dependency_chain.ftsh", 0x9042af0f35b75bd7),
    ("../procman/tests/scripts/carrier_sense.ftsh", 0xaa8a0506099e3bf6),
    ("../procman/tests/scripts/catch_cleanup.ftsh", 0xdb5cada5d400d09e),
    ("../procman/tests/scripts/deadline_kill.ftsh", 0xb160dba8ddbfc34a),
    ("../procman/tests/scripts/forall_parallel.ftsh", 0x968ff2fc7dda8468),
    ("../procman/tests/scripts/forany_fallback.ftsh", 0xc492056c06a59b5b),
    ("../procman/tests/scripts/functions.ftsh", 0x126487558d493169),
    ("../procman/tests/scripts/io_transaction.ftsh", 0x26e1d13f935d056a),
    ("../procman/tests/scripts/precheck.ftsh", 0x9fbbb8e48b4773da),
    ("../procman/tests/scripts/unpack.ftsh", 0xe8356aa1e814e64e),
];

/// One hash per batch of [`BATCH`] mutations.
const BATCH: usize = 250;
#[rustfmt::skip]
const MUTATION_BATCHES: &[u64] = &[
    0x898e561b194e39e2,
    0x1a5eddf580d855cc,
    0x48f20f45484e6c3f,
    0xded7a7f1def98a3c,
    0xabeda73ad65c57db,
    0x6dd8503091d3c614,
    0x358b3eb7aa2e405b,
    0x564138bac5b9c038,
];

/// `(source, hash of its dump)`: the behaviours a rewrite must keep.
#[rustfmt::skip]
const TRAPS: &[(&str, u64)] = &[
    // A quoted or escaped keyword is a keyword.
    ("try 3 times\n  x\n\"end\"\n", 0x83e00bc062c01d19),
    ("try 3 times\n  x\ne\\nd\n", 0xb27c7f09c0ee5f7e),
    ("\"if\" a .lt. b\n  x\nend\n", 0x650fd3685ebf2451),
    // `\`-newline joins a word across lines; the token's line is where
    // the word ends.
    ("echo a\\\nb c\\\n\nd\n", 0xaf668c4c43ca053c),
    ("echo \"a\nb\" 'c\nd' e\n", 0x31ee48150dd05d7c),
    // Redirections are operators only at word start.
    ("echo a>b <c -<d ->e a->b >>&f\n", 0xc02aa0d7b9448a27),
    ("cmd \"\">x $v>y\n", 0xa16a07631a2e94f3),
    // `#` ends an unquoted word mid-word.
    ("echo a#b \"c#d\"\n", 0x6cfe57a07f2323e1),
    // An unterminated `${` points differently at a newline and at EOF.
    ("echo ${x\n", 0x048843a1f77100a9),
    ("echo ${x", 0xa975bc772747eb67),
    ("echo ${}\n", 0xfa51d0483e420523),
    ("echo $ x\n", 0x6fc1a85ef39135bb),
    // Trailing backslashes, bare and quoted; unterminated quotes.
    ("echo \\", 0xb64f3e93ade6781b),
    ("echo \"a\\", 0xdb046e90639c1a47),
    ("echo 'a\nb", 0xe7735f845accef85),
    // Multi-byte text in words, quotes, escapes and names.
    ("x=\"é€😀\" \\é ${é} é$v€\n", 0x3d6b84b6fba1fa11),
    ("forany v in \"\" '' é\n  echo ${v}\nend\n", 0x2120d7ac56ddeaee),
];

/// What the mutations splice in: the lexer's special bytes, keywords,
/// and multi-byte characters.
const PIECES: &[&str] = &[
    "\n", " ", "\t", "\r", "#", "\\", "\"", "'", "$", "{", "}", "<", ">", "-", "&", "=", "\\\n",
    "${", "try", "end", "for", "times", "in", "forany", "forall", "if", "else", "catch",
    "function", "every", "or", "failure", "success", ".lt.", "seconds", "é", "€", "😀",
];

const MUTATIONS: usize = 2000;

fn load_corpus() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in CORPUS_DIRS {
        let dir_path = root.join(dir);
        for entry in std::fs::read_dir(&dir_path).expect("corpus directory") {
            let path = entry.expect("corpus entry").path();
            if path.extension().is_some_and(|e| e == "ftsh") {
                let name = path.file_name().expect("a file").to_string_lossy();
                let src = std::fs::read_to_string(&path).expect("corpus script");
                out.push((format!("{dir}/{name}"), src));
            }
        }
    }
    out.sort();
    out
}

/// 1 to 4 edits at character boundaries: insert a piece, delete a
/// character, or replace one with a piece.
fn mutate(rng: &mut SimRng, src: &str) -> String {
    let mut s = src.to_string();
    for _ in 0..rng.range_u64(1, 5) {
        let at = s
            .char_indices()
            .map(|(i, _)| i)
            .nth(rng.range_u64(0, s.chars().count() as u64 + 1) as usize)
            .unwrap_or(s.len());
        let next = s[at..].chars().next().map_or(at, |c| at + c.len_utf8());
        let piece = PIECES[rng.range_u64(0, PIECES.len() as u64) as usize];
        match rng.range_u64(0, 3) {
            0 => s.insert_str(at, piece),
            1 => s.replace_range(at..next, ""),
            _ => s.replace_range(at..next, piece),
        }
    }
    s
}

fn mutations(corpus: &[(String, String)]) -> Vec<String> {
    let root = SimRng::new(21);
    (0..MUTATIONS as u64)
        .map(|i| {
            let mut rng = root.fork(i);
            let pick = rng.range_u64(0, corpus.len() as u64) as usize;
            mutate(&mut rng, &corpus[pick].1)
        })
        .collect()
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn dump_err(out: &mut String, e: &ParseError) {
    let _ = writeln!(out, "error line {} {:?} {:?}", e.line, e.msg, e.span);
}

fn dump_word(out: &mut String, w: &Word) {
    let _ = write!(out, "[{}..{}", w.span().start, w.span().end);
    for seg in w.segs() {
        let _ = match seg {
            Seg::Lit(l) => write!(out, " lit {:?}", l.as_str()),
            Seg::Var(v) => write!(out, " var {:?}", v.as_str()),
        };
    }
    out.push(']');
}

fn dump_block(out: &mut String, block: &Block, depth: usize) {
    for (stmt, span) in block.iter_spanned() {
        let _ = write!(out, "{:depth$}{}..{} ", "", span.start, span.end);
        match stmt {
            Stmt::Command(c) => {
                out.push_str("command");
                for w in &c.words {
                    out.push(' ');
                    dump_word(out, w);
                }
                for r in &c.redirs {
                    match r {
                        Redir::Out {
                            to,
                            append,
                            both,
                            target,
                        } => {
                            let _ = write!(out, " out {to:?} append={append} both={both} ");
                            dump_word(out, target);
                        }
                        Redir::In { from, source } => {
                            let _ = write!(out, " in {from:?} ");
                            dump_word(out, source);
                        }
                    }
                }
                out.push('\n');
            }
            Stmt::Try { spec, body, catch } => {
                let _ = writeln!(
                    out,
                    "try {:?} {:?} {:?} header {}..{}",
                    spec.time, spec.attempts, spec.every, spec.span.start, spec.span.end
                );
                dump_block(out, body, depth + 2);
                if let Some(c) = catch {
                    let _ = writeln!(out, "{:depth$}catch", "");
                    dump_block(out, c, depth + 2);
                }
            }
            Stmt::ForAny { var, values, body } | Stmt::ForAll { var, values, body } => {
                let kw = if matches!(stmt, Stmt::ForAll { .. }) {
                    "forall"
                } else {
                    "forany"
                };
                let _ = write!(out, "{kw} {var:?} in");
                for w in values {
                    out.push(' ');
                    dump_word(out, w);
                }
                out.push('\n');
                dump_block(out, body, depth + 2);
            }
            Stmt::If { cond, then, els } => {
                out.push_str("if ");
                dump_word(out, &cond.lhs);
                let _ = write!(out, " {:?} ", cond.op);
                dump_word(out, &cond.rhs);
                out.push('\n');
                dump_block(out, then, depth + 2);
                if let Some(e) = els {
                    let _ = writeln!(out, "{:depth$}else", "");
                    dump_block(out, e, depth + 2);
                }
            }
            Stmt::Assign { var, value } => {
                let _ = write!(out, "assign {var:?} ");
                dump_word(out, value);
                out.push('\n');
            }
            Stmt::Failure => out.push_str("failure\n"),
            Stmt::Success => out.push_str("success\n"),
            Stmt::Function { name, body } => {
                let _ = writeln!(out, "function {name:?}");
                dump_block(out, body, depth + 2);
            }
        }
    }
}

/// Everything the front end makes of `src`, through public API only.
fn dump(src: &str) -> String {
    let mut out = String::from("lex\n");
    match lex(src) {
        Err(e) => dump_err(&mut out, &e),
        Ok(tokens) => {
            for t in &tokens {
                let _ = write!(out, "{} {}..{} ", t.line, t.span.start, t.span.end);
                // Operators, newlines and the end print as their kind.
                if let Some(w) = t.word(src) {
                    out.push_str("word ");
                    dump_word(&mut out, &w);
                } else {
                    let _ = write!(out, "{:?}", t.kind);
                }
                out.push('\n');
            }
        }
    }
    out.push_str("parse\n");
    match parse(src) {
        Err(e) => dump_err(&mut out, &e),
        Ok(script) => dump_block(&mut out, &script.stmts, 0),
    }
    out
}

/// Inputs hashed together, and the hash they were frozen at.
struct Group<'a> {
    name: String,
    inputs: Vec<&'a str>,
    want: u64,
}

#[test]
fn lex_and_parse_match_the_frozen_dumps() {
    let corpus = load_corpus();
    let paths: Vec<&str> = corpus.iter().map(|(p, _)| p.as_str()).collect();
    let named: Vec<&str> = CORPUS.iter().map(|&(p, _)| p).collect();
    assert_eq!(paths, named, "the corpus the hashes were taken over");
    assert_eq!(MUTATION_BATCHES.len() * BATCH, MUTATIONS);
    let mutated = mutations(&corpus);

    let corpus_groups = corpus
        .iter()
        .zip(CORPUS)
        .map(|((path, src), &(_, want))| Group {
            name: path.clone(),
            inputs: vec![src.as_str()],
            want,
        });
    let batch_groups =
        mutated
            .chunks(BATCH)
            .zip(MUTATION_BATCHES)
            .enumerate()
            .map(|(b, (batch, &want))| Group {
                name: format!("mutations {}..{}", b * BATCH, (b + 1) * BATCH),
                inputs: batch.iter().map(String::as_str).collect(),
                want,
            });
    let trap_groups = TRAPS.iter().enumerate().map(|(i, &(src, want))| Group {
        name: format!("trap {i}"),
        inputs: vec![src],
        want,
    });

    let mut table = String::new();
    let mut first_bad = None;
    for g in corpus_groups.chain(batch_groups).chain(trap_groups) {
        let dumps: Vec<String> = g.inputs.iter().map(|src| dump(src)).collect();
        let got = fnv1a(&dumps.concat());
        let _ = writeln!(table, "{:<48} {got:#018x}", g.name);
        if got != g.want && first_bad.is_none() {
            first_bad = Some((g, dumps));
        }
    }
    if let Some((g, dumps)) = first_bad {
        // A batch hash cannot say which of its inputs moved: keep every
        // dump of the group, to diff against the same file written by
        // the recording commit.
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("frontend_golden.txt");
        let mut all = String::new();
        for (src, d) in g.inputs.iter().zip(&dumps) {
            let _ = write!(all, "{src:?}\n{d}\n");
        }
        let _ = std::fs::write(&path, all);
        panic!(
            "{} differs from its frozen hash {:#018x}\nfirst input: {:?}\nits dump:\n{}\nevery dump of the group: {}\nall hashes:\n{table}",
            g.name,
            g.want,
            g.inputs[0],
            dumps[0],
            path.display()
        );
    }
}
