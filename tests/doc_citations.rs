//! Every citation of DESIGN.md resolves.
//!
//! Code comments and the other documents point into DESIGN.md as
//! `DESIGN.md §N` or `DESIGN §N`, and some name a subsection:
//! `§N, "Title"`. A section number must be a `## N.` heading of
//! DESIGN.md, and a title must begin a `###` heading or a `**bold**`
//! paragraph lead inside that section. A quoted phrase that is not in
//! the `§N, "Title"` form (`§11's "not covered"`) is not a title
//! citation. Lines are joined before matching, so a citation wrapped
//! across comment lines still counts.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir`, recursively.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The files whose citations are checked: the code trees, the other
/// documents and the verify skill. DESIGN.md's own cross-references
/// are checked separately (`§N, "Title"` only: its bare `§N` also
/// names sections of the paper).
fn citing_files() -> Vec<PathBuf> {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files_under(&root.join(dir), &mut files);
    }
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        files.push(root.join(doc));
    }
    // This file's own examples are test data, not citations.
    files.retain(|f| !f.ends_with("tests/doc_citations.rs"));
    files.sort();
    files
}

/// `text` with each line's leading whitespace and comment markers
/// (`//!`, `///`, `//`) removed, joined by single spaces.
fn joined(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let mut line = line.trim_start();
        for marker in ["//!", "///", "//"] {
            if let Some(rest) = line.strip_prefix(marker) {
                line = rest;
                break;
            }
        }
        for word in line.split_whitespace() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(word);
        }
    }
    out
}

/// The section number that starts `s` (after optional spaces), and
/// the rest of `s` after it.
fn section_number(s: &str) -> Option<(u32, &str)> {
    let s = s.trim_start();
    let digits = s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return None;
    }
    Some((s[..digits].parse().ok()?, &s[digits..]))
}

/// The title of a `§N, "Title"` citation whose `, "` starts `rest`.
fn quoted_title(rest: &str) -> Option<String> {
    let body = rest.strip_prefix(", \"")?;
    Some(body[..body.find('"')?].to_string())
}

/// A citation of DESIGN.md found in a file: the section and, when
/// given, the subsection title.
#[derive(Debug)]
struct Citation {
    file: PathBuf,
    section: u32,
    title: Option<String>,
}

/// The `§N` that follow `text` (which starts just past a `§`), chained
/// as `§N and §M`.
fn chained(file: &Path, text: &str, out: &mut Vec<Citation>) {
    let mut text = text;
    while let Some((section, rest)) = section_number(text) {
        out.push(Citation {
            file: file.to_path_buf(),
            section,
            title: quoted_title(rest),
        });
        match rest.trim_start().strip_prefix("and §") {
            Some(next) => text = next,
            None => break,
        }
    }
}

/// Every `DESIGN(.md) §N` in `text`, and the `§N` chained after it.
fn design_citations(file: &Path, text: &str, out: &mut Vec<Citation>) {
    let mut from = 0;
    while let Some(at) = text[from..].find("DESIGN") {
        let start = from + at + "DESIGN".len();
        from = start;
        let rest = text[start..].strip_prefix(".md").unwrap_or(&text[start..]);
        if let Some(after) = rest.trim_start().strip_prefix('§') {
            chained(file, after, out);
        }
    }
}

/// Every `§N, "Title"` in `text`, whatever precedes it.
fn title_citations(file: &Path, text: &str, out: &mut Vec<Citation>) {
    for (at, _) in text.match_indices('§') {
        if let Some((section, rest)) = section_number(&text[at + '§'.len_utf8()..]) {
            if let Some(title) = quoted_title(rest) {
                out.push(Citation {
                    file: file.to_path_buf(),
                    section,
                    title: Some(title),
                });
            }
        }
    }
}

/// DESIGN.md, split into its numbered sections: for each `## N.`, the
/// titles a citation may name there — every `###` heading and every
/// `**bold**` lead of a line, with whitespace collapsed.
fn design_sections(design: &str) -> Vec<(u32, Vec<String>)> {
    let lines: Vec<&str> = design.lines().collect();
    let mut sections: Vec<(u32, Vec<String>)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(head) = line.strip_prefix("## ") {
            if let Some((n, rest)) = section_number(head) {
                if rest.starts_with('.') {
                    sections.push((n, Vec::new()));
                }
            }
            continue;
        }
        let Some((_, titles)) = sections.last_mut() else {
            continue;
        };
        if let Some(heading) = line.strip_prefix("### ") {
            titles.push(heading.trim().to_string());
            continue;
        }
        let mut lead = line.trim_start();
        if let Some(rest) = lead.strip_prefix("- ") {
            lead = rest;
        } else if let Some((_, rest)) = section_number(lead) {
            lead = rest.strip_prefix(". ").unwrap_or(lead);
        }
        let Some(bold) = lead.strip_prefix("**") else {
            continue;
        };
        // A lead may wrap: read on until its closing `**`.
        let mut text = bold.to_string();
        for next in &lines[i + 1..] {
            if text.contains("**") || next.trim().is_empty() {
                break;
            }
            text.push(' ');
            text.push_str(next.trim());
        }
        if let Some(end) = text.find("**") {
            titles.push(text[..end].split_whitespace().collect::<Vec<_>>().join(" "));
        }
    }
    sections
}

/// The citations in DESIGN.md that do not resolve, one line each.
fn unresolved(design: &str, citations: &[Citation]) -> Vec<String> {
    let sections = design_sections(design);
    let mut bad = Vec::new();
    for c in citations {
        let file = c.file.strip_prefix(root()).unwrap_or(&c.file).display();
        let Some((_, titles)) = sections.iter().find(|(n, _)| *n == c.section) else {
            bad.push(format!("{file}: §{} is no section of DESIGN.md", c.section));
            continue;
        };
        if let Some(title) = &c.title {
            let title = title.split_whitespace().collect::<Vec<_>>().join(" ");
            if !titles.iter().any(|t| t.starts_with(&title)) {
                bad.push(format!(
                    "{file}: §{}, \"{title}\" begins no heading or bold lead there",
                    c.section
                ));
            }
        }
    }
    bad
}

fn all_citations(design: &str) -> Vec<Citation> {
    let mut citations = Vec::new();
    for path in citing_files() {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        design_citations(&path, &joined(&text), &mut citations);
    }
    title_citations(&root().join("DESIGN.md"), &joined(design), &mut citations);
    citations
}

#[test]
fn every_design_citation_names_a_section_and_its_title() {
    let design = fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let citations = all_citations(&design);
    // Guards against a scanner that finds nothing and so passes.
    assert!(
        citations.len() >= 30,
        "only {} citations found",
        citations.len()
    );
    let titled = citations.iter().filter(|c| c.title.is_some()).count();
    assert!(titled >= 8, "only {titled} title citations found");
    let bad = unresolved(&design, &citations);
    assert!(
        bad.is_empty(),
        "unresolved DESIGN.md citations:\n{}",
        bad.join("\n")
    );
}

#[test]
fn a_renamed_title_or_a_missing_section_is_caught() {
    let design =
        "# D\n\n## 3. Queue\n\n### One total order\n\n**Keys over a\nslab.** Text.\n\n## 4. Next\n";
    let cite = |section, title: Option<&str>| Citation {
        file: PathBuf::from("x.rs"),
        section,
        title: title.map(str::to_string),
    };
    let good = [
        cite(3, Some("One total order")),
        cite(3, Some("Keys over a slab")),
        cite(4, None),
    ];
    assert!(unresolved(design, &good).is_empty());
    let bad = [
        cite(3, Some("One totally new order")),
        cite(4, Some("One total order")),
        cite(5, None),
    ];
    assert_eq!(unresolved(design, &bad).len(), 3);
}

#[test]
fn citations_are_read_across_comment_lines_and_chains() {
    let text = joined(
        "//! The timer (DESIGN.md §10, \"Where an event's\n//! cycles go\"), §11's \"not covered\",\n/// DESIGN §10 and §11; §12, in short",
    );
    let mut found = Vec::new();
    design_citations(Path::new("x.rs"), &text, &mut found);
    let got: Vec<_> = found.iter().map(|c| (c.section, c.title.clone())).collect();
    assert_eq!(
        got,
        [
            (10, Some("Where an event's cycles go".to_string())),
            (10, None),
            (11, None),
        ]
    );
    let mut titled = Vec::new();
    title_citations(Path::new("x.rs"), &text, &mut titled);
    assert_eq!(titled.len(), 1, "a phrase quote is no title citation");
}
