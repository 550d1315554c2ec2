//! The docs' copies of tracked results are the tracked results.
//!
//! A table of README.md or EXPERIMENTS.md that restates one file of
//! `results/` is that file's `|` lines, copied verbatim between a
//! `<!-- results/NAME.md -->` line and an `<!-- end -->` line. A run
//! that moves a number rewrites the file, never a doc: this test then
//! fails until each copy is pasted again, and prints the block as it
//! should read.

use std::fs;
use std::path::PathBuf;

/// The documents whose blocks are checked.
const DOCS: [&str; 2] = ["README.md", "EXPERIMENTS.md"];

/// The line that closes a block.
const END: &str = "<!-- end -->";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The file a block copies, `results/NAME.md`, if `line` opens one.
fn source(line: &str) -> Option<&str> {
    let path = line.trim().strip_prefix("<!-- ")?.strip_suffix(" -->")?;
    path.strip_prefix("results/")?.strip_suffix(".md")?;
    Some(path)
}

/// How many blocks `text` (the document `doc`) holds, and what is
/// wrong with them, one message each. `read` gives a tracked file's
/// text by its path from the root, or `None` when there is none.
fn check_blocks(
    doc: &str,
    text: &str,
    read: impl Fn(&str) -> Option<String>,
) -> (usize, Vec<String>) {
    let mut blocks = 0;
    let mut bad = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((at, line)) = lines.next() {
        let Some(file) = source(line) else {
            continue;
        };
        blocks += 1;
        let here = format!("{doc}:{}", at + 1);
        let mut body = Vec::new();
        let mut closed = false;
        for (_, line) in lines.by_ref() {
            if line.trim() == END {
                closed = true;
                break;
            }
            body.push(line);
        }
        if !closed {
            bad.push(format!("{here}: the block of {file} has no `{END}`"));
            continue;
        }
        let Some(tracked) = read(file) else {
            bad.push(format!("{here}: names {file}, which does not exist"));
            continue;
        };
        let want: Vec<&str> = tracked.lines().filter(|l| l.starts_with('|')).collect();
        if body != want {
            bad.push(format!(
                "{here}: the block differs from {file}; it should read:\n{}",
                want.join("\n")
            ));
        }
    }
    (blocks, bad)
}

#[test]
fn every_block_is_its_tracked_file() {
    let (mut blocks, mut bad) = (0, Vec::new());
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).unwrap();
        let (n, problems) = check_blocks(doc, &text, |file| {
            fs::read_to_string(root().join(file)).ok()
        });
        blocks += n;
        bad.extend(problems);
    }
    // Guards against a scanner that finds nothing and so passes: the
    // six figures' tables, the two ablations', the three live arenas'
    // and the all-reduce's.
    assert!(blocks >= 12, "only {blocks} blocks found");
    assert!(bad.is_empty(), "{}", bad.join("\n\n"));
}

#[test]
fn an_edited_cell_a_missing_file_or_an_open_block_is_caught() {
    let tracked = "# T\n\n| n | jobs |\n|---:|---:|\n| 5 | 639 |\n";
    let read = |file: &str| (file == "results/t.md").then(|| tracked.to_string());
    let doc =
        "Prose.\n\n<!-- results/t.md -->\n| n | jobs |\n|---:|---:|\n| 5 | 639 |\n<!-- end -->\n";
    assert_eq!(check_blocks("D.md", doc, read), (1, Vec::new()));

    let edited = doc.replace("| 5 | 639 |", "| 5 | 640 |");
    let (_, bad) = check_blocks("D.md", &edited, read);
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(bad[0].starts_with("D.md:3: the block differs from results/t.md"));
    assert!(
        bad[0].ends_with("should read:\n| n | jobs |\n|---:|---:|\n| 5 | 639 |"),
        "the message shows the block as it should read: {}",
        bad[0]
    );

    let missing = doc.replace("results/t.md", "results/gone.md");
    let (_, bad) = check_blocks("D.md", &missing, read);
    assert_eq!(bad, ["D.md:3: names results/gone.md, which does not exist"]);

    let open = doc.replace(END, "");
    let (_, bad) = check_blocks("D.md", &open, read);
    assert_eq!(
        bad,
        ["D.md:3: the block of results/t.md has no `<!-- end -->`"]
    );

    // A comment that names no results/ table opens no block.
    assert_eq!(
        check_blocks("D.md", "<!-- results/t.json -->\n<!-- note -->\n", read).0,
        0
    );
}
