//! # ftshlint — a discipline-aware static analyzer for ftsh scripts
//!
//! The paper argues that the difference between a well-behaved grid
//! client and a destructive one is *discipline*: bounded retries,
//! exponential backoff with room to breathe, sensing the medium before
//! committing work, and transactional I/O so killed attempts leave no
//! debris. All of those properties are visible before a script ever
//! runs — this crate checks them statically: the structural rules on
//! the spanned AST, the retry envelope on the compiled bytecode.
//!
//! [`lint`] parses a script and produces a [`Report`]: structured
//! [`Diagnostic`]s (rule id, severity, byte span, message, suggestion),
//! a [`Discipline`] classification (Ethernet / Aloha / Fixed /
//! straight-line, after §5's three client personalities), and the
//! worst-case retry envelope of the whole script (derived by
//! [`check::envelope_report`] with the arithmetic in [`budget`]).
//!
//! ## Rules
//!
//! | id | severity | checks |
//! |----|----------|--------|
//! | `unbounded-try` | warning | a `try` with neither time nor attempt limit |
//! | `no-carrier-sense` | warning | a deadline-less retry loop that consults nothing before retrying |
//! | `dead-deadline` | warning | an inner `for` budget at/above the enclosing one, or zero |
//! | `retry-without-backoff-room` | warning | `every 0`, or budgets too small for any backoff delay |
//! | `non-transactional-io` | warning | file redirection inside a retry loop |
//! | `use-before-assign` | warning | `${v}` read on a path where `v` was never bound |
//! | `unused-capture` | info | `-> v` whose value no statement ever reads |
//! | `unreachable-code` | warning | statements after `failure`/`success` in a group |
//! | `single-alternative` | info | `forany`/`forall` over one value |
//! | `recursive-function` | warning | a call-graph cycle makes the retry envelope unbounded |
//! | `dynamic-dispatch-unbounded` | warning | computed `argv[0]` may call any defined function |
//! | `budget-exceeded` | error | worst-case envelope above `--max-budget` |
//!
//! Beyond per-script linting, [`check`] joins the [`keyflow`] key-effect
//! summaries of a whole *workflow* (a `DagSpec`, its jobs' scripts, and
//! a fault plan) and proves deadlocks and infeasible budgets before a
//! single simulation tick — see the `ftshcheck` binary.
//!
//! ## Annotations
//!
//! Scripts communicate intent through `# lint:` comments, anywhere in
//! the file:
//!
//! ```text
//! # lint: define shimdir        -- the harness injects ${shimdir}
//! # lint: allow unused-capture  -- captures are conformance observables
//! ```
//!
//! `allow` suppresses a rule for the whole file; `define` pre-binds
//! variable names for the dataflow rules. Suppressed findings are
//! counted in [`Report::suppressed`], never silently dropped.

#![warn(missing_docs)]

pub mod budget;
pub mod check;
pub mod keyflow;
mod rules;

use ftsh::{line_col, parse, ParseError, Script, Span};
use retry::Dur;
use std::fmt;
use std::fmt::Write as _;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or informational; the script behaves as written.
    Info,
    /// The script probably misbehaves under faults or wastes the grid.
    Warning,
    /// The script violates an explicit bound (e.g. `--max-budget`).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Static description of one rule, for `--rules` listings and docs.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable kebab-case identifier.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
    /// The paper section the rule is grounded in.
    pub paper: &'static str,
}

/// Every rule this analyzer knows, in documentation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "unbounded-try",
        severity: Severity::Warning,
        summary: "a `try` with neither a time nor an attempt limit may retry forever",
        paper: "§4",
    },
    RuleInfo {
        id: "no-carrier-sense",
        severity: Severity::Warning,
        summary: "a deadline-less retry loop that consults no condition before retrying",
        paper: "§5–6",
    },
    RuleInfo {
        id: "dead-deadline",
        severity: Severity::Warning,
        summary: "an inner time budget at or above the enclosing one can never fire",
        paper: "§4",
    },
    RuleInfo {
        id: "retry-without-backoff-room",
        severity: Severity::Warning,
        summary: "zero or unfittable retry intervals degenerate to the Fixed hammer",
        paper: "§5",
    },
    RuleInfo {
        id: "non-transactional-io",
        severity: Severity::Warning,
        summary: "file redirection inside a retry loop leaves partial output when killed",
        paper: "§3",
    },
    RuleInfo {
        id: "use-before-assign",
        severity: Severity::Warning,
        summary: "a variable read before any binding expands to the empty string",
        paper: "§3",
    },
    RuleInfo {
        id: "unused-capture",
        severity: Severity::Info,
        summary: "a `->` capture whose value nothing reads",
        paper: "§3",
    },
    RuleInfo {
        id: "unreachable-code",
        severity: Severity::Warning,
        summary: "statements after `failure`/`success` never run",
        paper: "§4",
    },
    RuleInfo {
        id: "single-alternative",
        severity: Severity::Info,
        summary: "`forany`/`forall` over one value adds no redundancy or parallelism",
        paper: "§4",
    },
    RuleInfo {
        id: "recursive-function",
        severity: Severity::Warning,
        summary: "a function on a call-graph cycle has no finite retry envelope",
        paper: "§4",
    },
    RuleInfo {
        id: "dynamic-dispatch-unbounded",
        severity: Severity::Warning,
        summary: "computed argv[0] in a script with functions may call anything",
        paper: "§4",
    },
    RuleInfo {
        id: "budget-exceeded",
        severity: Severity::Error,
        summary: "the worst-case retry envelope exceeds the configured bound",
        paper: "§4",
    },
    // Workflow rules (crate::check): findings about a whole
    // coordinated workload, not a single script.
    RuleInfo {
        id: "job-parse-error",
        severity: Severity::Error,
        summary: "a workflow job's script does not parse",
        paper: "§3",
    },
    RuleInfo {
        id: "job-never-completes",
        severity: Severity::Error,
        summary: "every path through a job's script ends in an unhandled `failure`",
        paper: "§4",
    },
    RuleInfo {
        id: "opaque-summary",
        severity: Severity::Info,
        summary: "computed command names or recursion made a key summary incomplete",
        paper: "§6",
    },
    RuleInfo {
        id: "undeclared-dependency",
        severity: Severity::Warning,
        summary: "a script fetches a produced key the declared plan does not list",
        paper: "§6",
    },
    RuleInfo {
        id: "dead-declared-edge",
        severity: Severity::Info,
        summary: "a declared input no script ever fetches or senses",
        paper: "§6",
    },
    RuleInfo {
        id: "missing-producer",
        severity: Severity::Error,
        summary: "a required key no job publishes and no one stages externally",
        paper: "§6",
    },
    RuleInfo {
        id: "unsatisfiable-barrier",
        severity: Severity::Error,
        summary: "a barrier waits on a peer the fault plan kills before it can publish",
        paper: "§6",
    },
    RuleInfo {
        id: "key-cycle",
        severity: Severity::Error,
        summary: "a runtime key-graph wait cycle invisible to the declared DAG",
        paper: "§6",
    },
    RuleInfo {
        id: "budget-infeasible",
        severity: Severity::Error,
        summary: "a fault blackout no configured retry budget can ride out",
        paper: "§4–6",
    },
];

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (see [`RULES`]).
    pub rule: &'static str,
    /// Severity of this occurrence.
    pub severity: Severity,
    /// Byte span of the offending construct in the source.
    pub span: Span,
    /// Human-readable description of what is wrong here.
    pub message: String,
    /// How to fix it, when the analyzer has a concrete idea.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Render rustc-style against the source, with a caret excerpt:
    ///
    /// ```text
    /// warning[unbounded-try]: this `try` has no time or attempt limit...
    ///  --> script.ftsh:3:1
    ///   3 | try
    ///     | ^^^
    ///   = suggestion: bound it: `try for <time>`, ...
    /// ```
    pub fn render(&self, file: &str, src: &str) -> String {
        let (line, col) = line_col(src, self.span.start);
        let mut out = format!(
            "{sev}[{rule}]: {msg}\n --> {file}:{line}:{col}",
            sev = self.severity,
            rule = self.rule,
            msg = self.message,
        );
        if self.span.is_known() {
            let text = src.lines().nth(line as usize - 1).unwrap_or("");
            let width = (self.span.end.saturating_sub(self.span.start) as usize)
                .min(text.len().saturating_sub(col as usize - 1))
                .max(1);
            let gutter = line.to_string();
            let pad = " ".repeat(gutter.len());
            let _ = write!(
                out,
                "\n  {gutter} | {text}\n  {pad} | {space}{carets}",
                space = " ".repeat(col as usize - 1),
                carets = "^".repeat(width),
            );
        }
        if let Some(s) = &self.suggestion {
            let _ = write!(out, "\n  = suggestion: {s}");
        }
        out
    }

    /// Render as one JSON object (JSON-lines friendly; no trailing
    /// newline). `line`/`col` are resolved against `src` for consumers
    /// that do not want to re-derive them from the byte span.
    pub fn to_json(&self, file: &str, src: &str) -> String {
        let (line, col) = line_col(src, self.span.start);
        format!(
            "{{\"file\":{file},\"rule\":{rule},\"severity\":{sev},\
             \"span\":{{\"start\":{start},\"end\":{end}}},\
             \"line\":{line},\"col\":{col},\"message\":{msg},\"suggestion\":{sugg}}}",
            file = json_str(file),
            rule = json_str(self.rule),
            sev = json_str(&self.severity.to_string()),
            start = self.span.start,
            end = self.span.end,
            msg = json_str(&self.message),
            sugg = match &self.suggestion {
                Some(s) => json_str(s),
                None => "null".to_string(),
            },
        )
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", simgrid::json_escape(s))
}

/// The retry personality a script exhibits, after the three clients of
/// §5. Classification is structural and ignores `# lint: allow`
/// suppressions: an annotated Aloha script is still Aloha.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// Bounded, backed-off retries (possibly with carrier sensing).
    Ethernet,
    /// Retries without sensing: unbounded or blind loops.
    Aloha,
    /// Zero-delay or no-room retries: the aggressive repeater.
    Fixed,
    /// No retry structure at all.
    StraightLine,
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Discipline::Ethernet => "Ethernet",
            Discipline::Aloha => "Aloha",
            Discipline::Fixed => "Fixed",
            Discipline::StraightLine => "straight-line",
        })
    }
}

/// Analyzer configuration.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Reject scripts whose worst-case retry envelope exceeds this.
    pub max_budget: Option<Dur>,
    /// Variable names bound by the environment before the script runs
    /// (merged with in-file `# lint: define` annotations).
    pub defines: Vec<String>,
    /// Rule ids suppressed for every file (merged with in-file
    /// `# lint: allow` annotations).
    pub allow: Vec<String>,
    /// The backoff policy the envelope analysis charges and the
    /// `retry-without-backoff-room` rule fits against (defaults to the
    /// paper's 1 s base / 1 h cap; `--backoff-base/--backoff-cap`
    /// select e.g. the live arena's 100 ms / 2 s).
    pub policy: retry::BackoffPolicy,
}

/// Everything the analyzer learned about one script.
#[derive(Clone, Debug)]
pub struct Report {
    /// Findings that survived suppression, in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many findings `# lint: allow` / `--allow` suppressed.
    pub suppressed: usize,
    /// Structural retry-discipline classification.
    pub discipline: Discipline,
    /// Worst-case retry envelope ([`Dur::MAX`] = unbounded, prints as
    /// `forever`).
    pub envelope: Dur,
}

impl Report {
    /// True when nothing (unsuppressed) was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// In-file `# lint:` annotations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Annotations {
    /// Rule ids from `# lint: allow <id>...` lines.
    pub allow: Vec<String>,
    /// Variable names from `# lint: define <name>...` lines.
    pub defines: Vec<String>,
}

/// Scan a script's comment lines for `# lint:` directives. The scan is
/// textual (a `# lint:` inside a quoted word would match too); that
/// looseness is harmless because directives only widen what is allowed.
pub fn annotations(src: &str) -> Annotations {
    let mut a = Annotations::default();
    for line in src.lines() {
        let Some(at) = line.find("# lint:") else {
            continue;
        };
        let rest = line[at + "# lint:".len()..].trim();
        let mut words = rest.split_whitespace();
        match words.next() {
            Some("allow") => a.allow.extend(words.map(str::to_string)),
            Some("define") => a.defines.extend(words.map(str::to_string)),
            _ => {}
        }
    }
    a
}

/// Lint already-parsed source. The `src` must be the exact text the
/// script was parsed from, so spans resolve.
pub fn lint_script(script: &Script, src: &str, opts: &Options) -> Report {
    let notes = annotations(src);
    let mut defines: Vec<String> = opts.defines.clone();
    defines.extend(notes.defines);

    let mut diags = Vec::new();
    let mut disc = rules::DisciplineWalker::new(&mut diags, &opts.policy);
    disc.block(&script.stmts);
    let (saw_try, saw_aloha, saw_fixed) = (disc.saw_try, disc.saw_aloha, disc.saw_fixed);

    let mut flow = rules::DataflowWalker::new(&mut diags, &defines, &script.stmts);
    flow.block(&script.stmts);

    let analysis = check::envelope_report(&ftsh::bytecode::compile_cached(script), &opts.policy);
    for (name, span) in &analysis.recursive {
        diags.push(Diagnostic {
            rule: "recursive-function",
            severity: Severity::Warning,
            span: *span,
            message: format!(
                "function `{name}` sits on a call-graph cycle: no finite unrolling \
                 bounds its retry envelope (charged as unbounded)"
            ),
            suggestion: Some(
                "replace the recursion with an explicit bounded loop, or wrap the \
                 entry call in `try for <time>` to restore a wall-clock bound"
                    .to_string(),
            ),
        });
    }
    for span in &analysis.dynamic {
        diags.push(Diagnostic {
            rule: "dynamic-dispatch-unbounded",
            severity: Severity::Warning,
            span: *span,
            message: "argv[0] is computed and could expand to a defined function \
                      name: the callee is unknown, so the call is charged an \
                      unbounded envelope"
                .to_string(),
            suggestion: Some(
                "invoke functions by literal name, or bound the call site with an \
                 enclosing `try for <time>`"
                    .to_string(),
            ),
        });
    }
    let envelope = analysis.envelope;
    if let Some(max) = opts.max_budget {
        if envelope > max {
            let span = script.stmts.span_of(0);
            let shown = if envelope == Dur::MAX {
                "unbounded".to_string()
            } else {
                envelope.to_string()
            };
            diags.push(Diagnostic {
                rule: "budget-exceeded",
                severity: Severity::Error,
                span,
                message: format!(
                    "worst-case retry envelope is {shown}, above the configured bound of {max}"
                ),
                suggestion: Some(
                    "tighten `try` time/attempt limits until the envelope fits the bound"
                        .to_string(),
                ),
            });
        }
    }

    let discipline = if saw_fixed {
        Discipline::Fixed
    } else if saw_aloha {
        Discipline::Aloha
    } else if saw_try {
        Discipline::Ethernet
    } else {
        Discipline::StraightLine
    };

    let mut allowed: Vec<&str> = notes.allow.iter().map(String::as_str).collect();
    allowed.extend(opts.allow.iter().map(String::as_str));
    let before = diags.len();
    diags.retain(|d| !allowed.contains(&d.rule));
    let suppressed = before - diags.len();
    diags.sort_by_key(|d| (d.span.start, d.span.end, d.rule));

    Report {
        diagnostics: diags,
        suppressed,
        discipline,
        envelope,
    }
}

/// Parse and lint one script source.
pub fn lint(src: &str, opts: &Options) -> Result<Report, ParseError> {
    let script = parse(src)?;
    Ok(lint_script(&script, src, opts))
}

/// A markdown report over a batch of linted scripts: the per-script
/// classification table §5 of the paper would ask for, then the
/// surviving findings. `entries` pairs each script's display name with
/// its source and report.
pub fn markdown_report(entries: &[(String, String, Report)]) -> String {
    let mut out = String::new();
    out.push_str("# ftsh static analysis\n\n");
    out.push_str(
        "Discipline is structural (suppressions do not reclassify): \
         **Fixed** retries with no backoff room, **Aloha** retries without \
         sensing, **Ethernet** retries bounded and backed off, \
         **straight-line** never retries. The envelope is the worst-case \
         wall-clock the retry structure itself can spend (backoff cap \
         included); `forever` means unbounded.\n\n",
    );
    out.push_str("| script | discipline | worst-case envelope | findings | suppressed |\n");
    out.push_str("|---|---|---|---:|---:|\n");
    for (name, _, r) in entries {
        let env = if r.envelope == Dur::MAX {
            "forever".to_string()
        } else {
            r.envelope.to_string()
        };
        let _ = writeln!(
            out,
            "| `{name}` | {} | {env} | {} | {} |",
            r.discipline,
            r.diagnostics.len(),
            r.suppressed,
        );
    }
    let mut any = false;
    for (name, src, r) in entries {
        if r.diagnostics.is_empty() {
            continue;
        }
        if !any {
            out.push_str("\n## Findings\n");
            any = true;
        }
        let _ = write!(out, "\n### `{name}`\n\n");
        for d in &r.diagnostics {
            let (line, col) = line_col(src, d.span.start);
            let _ = writeln!(
                out,
                "- **{}** `{}` at {line}:{col} — {}",
                d.severity, d.rule, d.message
            );
        }
    }
    if !any {
        out.push_str("\nNo findings outside suppressions.\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Report {
        lint(src, &Options::default()).expect("parses")
    }

    fn rules_of(r: &Report) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.rule).collect()
    }

    // -- discipline rules ---------------------------------------------

    #[test]
    fn unbounded_try_fires_and_is_spanned() {
        let src = "try\n  submit job\nend\n";
        let r = run(src);
        assert!(rules_of(&r).contains(&"unbounded-try"), "{r:?}");
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.rule == "unbounded-try")
            .unwrap();
        assert!(d.span.is_known());
        assert_eq!(&src[d.span.start as usize..d.span.end as usize], "try");
    }

    #[test]
    fn bounded_try_is_not_unbounded() {
        let r = run("try for 5 minutes\n  submit job\nend\n");
        assert!(!rules_of(&r).contains(&"unbounded-try"));
        let r = run("try 3 times\n  submit job\nend\n");
        assert!(!rules_of(&r).contains(&"unbounded-try"));
    }

    #[test]
    fn aloha_shape_lacks_carrier_sense() {
        let r = run("try\n  submit job\nend\n");
        assert!(rules_of(&r).contains(&"no-carrier-sense"));
        assert_eq!(r.discipline, Discipline::Aloha);
    }

    #[test]
    fn deadline_or_condition_counts_as_sensing() {
        // A time budget senses elapsed time.
        let r = run("try for 1 hour\n  submit job\nend\n");
        assert!(!rules_of(&r).contains(&"no-carrier-sense"));
        // An `if` probe inside the loop senses the medium.
        let src = "queue -> n\ntry 100 times\n  queue -> n\n  if ${n} .lt. 1000\n    submit job\n  else\n    failure\n  end\nend\n";
        let r = run(src);
        assert!(!rules_of(&r).contains(&"no-carrier-sense"), "{r:?}");
        assert_eq!(r.discipline, Discipline::Ethernet);
    }

    #[test]
    fn dead_deadline_on_nested_tries() {
        let src = "try for 5 minutes\n  try for 10 minutes\n    work\n  end\nend\n";
        let r = run(src);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.rule == "dead-deadline")
            .expect("fires");
        // The span points at the *inner* header.
        assert_eq!(
            &src[d.span.start as usize..d.span.end as usize],
            "try for 10 minutes"
        );
        // Inner below outer is fine.
        let r = run("try for 10 minutes\n  try for 5 minutes\n    work\n  end\nend\n");
        assert!(!rules_of(&r).contains(&"dead-deadline"));
        // Equal budgets are dead too (the outer kills first or ties).
        let r = run("try for 5 minutes\n  try for 5 minutes\n    work\n  end\nend\n");
        assert!(rules_of(&r).contains(&"dead-deadline"));
    }

    #[test]
    fn dead_deadline_respects_intervening_attempt_only_try() {
        // The attempt-only middle layer does not reset the outer clock.
        let src =
            "try for 5 minutes\n  try 3 times\n    try for 20 minutes\n      work\n    end\n  end\nend\n";
        let r = run(src);
        assert!(rules_of(&r).contains(&"dead-deadline"), "{r:?}");
    }

    #[test]
    fn zero_budget_is_dead() {
        let r = run("try for 0 seconds or 2 times\n  work\nend\n");
        assert!(rules_of(&r).contains(&"dead-deadline"));
    }

    #[test]
    fn every_zero_is_the_fixed_hammer() {
        let r = run("try 100 times every 0 seconds\n  hammer\nend\n");
        assert!(rules_of(&r).contains(&"retry-without-backoff-room"));
        assert_eq!(r.discipline, Discipline::Fixed);
        // A nonzero interval is a legitimate constant-backoff retry.
        let r = run("try for 10 seconds or 3 times every 10 ms\n  work\nend\n");
        assert!(!rules_of(&r).contains(&"retry-without-backoff-room"));
    }

    #[test]
    fn budgets_too_small_for_backoff() {
        // 1 s budget cannot fit the 1 s base delay: no retry ever runs.
        let r = run("try for 1 seconds\n  work\nend\n");
        assert!(rules_of(&r).contains(&"retry-without-backoff-room"));
        // ... unless the single attempt is explicit (deadline enforcer).
        let r = run("try for 300 ms or 1 times\n  work\nend\n");
        assert!(!rules_of(&r).contains(&"retry-without-backoff-room"));
        // A fixed interval wider than the whole budget can never fire.
        let r = run("try for 5 seconds or 9 times every 10 seconds\n  work\nend\n");
        assert!(rules_of(&r).contains(&"retry-without-backoff-room"));
    }

    #[test]
    fn backoff_room_is_judged_against_the_configured_policy() {
        let src = "try for 500 ms\n  work\nend\n";
        let r = run(src);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.rule == "retry-without-backoff-room")
            .expect("500 ms cannot fit the paper's 1 s base");
        assert_eq!(
            d.message,
            "a `for 500ms` budget cannot fit the 1 s base backoff delay: the loop \
             exhausts after one attempt"
        );
        assert_eq!(r.discipline, Discipline::Fixed);
        let arena = Options {
            policy: retry::BackoffPolicy::exponential(Dur::from_millis(100), Dur::from_secs(2)),
            ..Default::default()
        };
        let r = lint(src, &arena).unwrap();
        assert!(
            !rules_of(&r).contains(&"retry-without-backoff-room"),
            "{r:?}"
        );
        assert_eq!(r.discipline, Discipline::Ethernet);
        // The message names the configured base.
        let r = lint("try for 100 ms\n  work\nend\n", &arena).unwrap();
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.message.contains("the 0.1 s base")));
    }

    #[test]
    fn file_redirect_inside_retry_is_non_transactional() {
        let src = "try for 5 minutes\n  fetch url > out.dat\nend\n";
        let r = run(src);
        assert!(rules_of(&r).contains(&"non-transactional-io"), "{r:?}");
        // Variable captures are the transactional form.
        let r = run("try for 5 minutes\n  fetch url -> out\nend\nuse ${out}\n");
        assert!(!rules_of(&r).contains(&"non-transactional-io"));
        // Outside any retry loop a file redirect is ordinary shell.
        let r = run("fetch url > out.dat\n");
        assert!(!rules_of(&r).contains(&"non-transactional-io"));
    }

    // -- dataflow rules -----------------------------------------------

    #[test]
    fn use_before_assign_and_define_annotation() {
        let r = run("echo ${missing}\n");
        assert!(rules_of(&r).contains(&"use-before-assign"));
        let r = run("# lint: define missing\necho ${missing}\n");
        assert!(!rules_of(&r).contains(&"use-before-assign"));
        let r = run("missing=here\necho ${missing}\n");
        assert!(!rules_of(&r).contains(&"use-before-assign"));
    }

    #[test]
    fn forany_bindings_survive_forall_bindings_do_not() {
        let r = run("forany h in a b\n  probe ${h} -> got\nend\necho ${h} ${got}\n");
        assert!(!rules_of(&r).contains(&"use-before-assign"), "{r:?}");
        let r = run("forall w in a b\n  probe ${w} -> got\nend\necho ${got}\n");
        assert!(rules_of(&r).contains(&"use-before-assign"), "{r:?}");
    }

    #[test]
    fn function_positionals_and_outward_bindings() {
        let src = "function fetch\n  probe ${1} -> payload\nend\nfetch gamma\necho ${payload}\n";
        let r = run(src);
        assert!(!rules_of(&r).contains(&"use-before-assign"), "{r:?}");
    }

    #[test]
    fn if_branches_are_may_defined() {
        let src = "if ${0} .lt. 1\n  x=a\nelse\n  y=b\nend\necho ${x} ${y}\n";
        let r = lint(
            src,
            &Options {
                defines: vec!["0".into()],
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!rules_of(&r).contains(&"use-before-assign"), "{r:?}");
    }

    #[test]
    fn unused_capture_fires_and_appends_count_as_reads() {
        let src = "echo hi -> msg\n";
        let r = run(src);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.rule == "unused-capture")
            .expect("fires");
        assert_eq!(&src[d.span.start as usize..d.span.end as usize], "msg");
        // Reading it anywhere silences the rule.
        let r = run("echo hi -> msg\necho ${msg}\n");
        assert!(!rules_of(&r).contains(&"unused-capture"));
        // `->>` reads the value it extends; `-<` reads it outright.
        let r = run("echo one -> log\necho two ->> log\n");
        assert!(!rules_of(&r).contains(&"unused-capture"), "{r:?}");
        let r = run("echo hi -> msg\ncat -< msg\n");
        assert!(!rules_of(&r).contains(&"unused-capture"));
    }

    #[test]
    fn unreachable_after_failure_and_success() {
        let src = "failure\necho never\n";
        let r = run(src);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.rule == "unreachable-code")
            .expect("fires");
        assert_eq!(
            &src[d.span.start as usize..d.span.end as usize],
            "echo never"
        );
        let r = run("try for 5 seconds or 1 times\n  failure\ncatch\n  success\nend\necho fine\n");
        assert!(!rules_of(&r).contains(&"unreachable-code"));
        let r = run("success\necho never\n");
        assert!(rules_of(&r).contains(&"unreachable-code"));
    }

    #[test]
    fn single_alternative_loops() {
        let r = run("forany h in only\n  probe ${h}\nend\n");
        assert!(rules_of(&r).contains(&"single-alternative"));
        let r = run("forall h in only\n  probe ${h}\nend\n");
        assert!(rules_of(&r).contains(&"single-alternative"));
        let r = run("forany h in a b\n  probe ${h}\nend\n");
        assert!(!rules_of(&r).contains(&"single-alternative"));
    }

    // -- budget rule --------------------------------------------------

    #[test]
    fn max_budget_rejects_wide_envelopes() {
        let opts = Options {
            max_budget: Some(Dur::from_mins(10)),
            ..Default::default()
        };
        // try 10 times: envelope 1022 s > 600 s.
        let r = lint("try 10 times\n  work\nend\n", &opts).unwrap();
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.rule == "budget-exceeded")
            .expect("fires");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("1022s"), "{}", d.message);
        // try 5 times: 30 s fits.
        let r = lint("try 5 times\n  work\nend\n", &opts).unwrap();
        assert!(!rules_of(&r).contains(&"budget-exceeded"));
        // Unbounded scripts can never satisfy a bound.
        let r = lint("try\n  work\nend\n", &opts).unwrap();
        assert!(rules_of(&r).contains(&"budget-exceeded"));
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == "budget-exceeded" && d.message.contains("unbounded")));
    }

    #[test]
    fn recursive_function_is_flagged_as_unbounded() {
        let r = run("function f\n  f\nend\nf\n");
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.rule == "recursive-function")
            .expect("fires");
        assert_eq!(d.severity, Severity::Warning);
        // Mutual recursion through a second function is still a cycle.
        let r = run("function a\n  b\nend\nfunction b\n  a\nend\na\n");
        assert!(rules_of(&r).contains(&"recursive-function"), "{r:?}");
        // A straight call chain is not.
        let r = run("function leaf\n  echo hi\nend\nfunction top\n  leaf\nend\ntop\n");
        assert!(!rules_of(&r).contains(&"recursive-function"), "{r:?}");
    }

    #[test]
    fn dynamic_dispatch_fires_only_when_a_function_is_reachable() {
        // A bare computed argv[0] could expand to any defined name.
        let src = "# lint: define pick\nfunction beta\n  echo x\nend\n${pick} arg\n";
        let r = run(src);
        assert!(
            rules_of(&r).contains(&"dynamic-dispatch-unbounded"),
            "{r:?}"
        );
        // A mixed word whose literal shape can never spell a defined
        // function name is an external command, not dispatch.
        let src = "# lint: define shimdir\nfunction fetch\n  echo x\nend\n${shimdir}/tool a\n";
        let r = run(src);
        assert!(
            !rules_of(&r).contains(&"dynamic-dispatch-unbounded"),
            "{r:?}"
        );
        // ...unless the literal tail matches a defined name's tail.
        let src = "# lint: define shimdir\nfunction fetch\n  echo x\nend\n${shimdir}fetch a\n";
        let r = run(src);
        assert!(
            rules_of(&r).contains(&"dynamic-dispatch-unbounded"),
            "{r:?}"
        );
        // With no functions defined at all, a computed argv[0] is inert.
        let r = run("# lint: define pick\n${pick} arg\n");
        assert!(
            !rules_of(&r).contains(&"dynamic-dispatch-unbounded"),
            "{r:?}"
        );
    }

    // -- report machinery ---------------------------------------------

    #[test]
    fn allow_annotation_suppresses_but_counts() {
        let src = "# lint: allow unused-capture\necho hi -> msg\n";
        let r = run(src);
        assert!(!rules_of(&r).contains(&"unused-capture"));
        assert_eq!(r.suppressed, 1);
        // Classification ignores suppression.
        let src = "# lint: allow unbounded-try no-carrier-sense\ntry\n  x\nend\n";
        let r = run(src);
        assert!(r.is_clean(), "{r:?}");
        assert_eq!(r.suppressed, 2);
        assert_eq!(r.discipline, Discipline::Aloha);
    }

    #[test]
    fn classification_ladder() {
        assert_eq!(run("true\n").discipline, Discipline::StraightLine);
        assert_eq!(
            run("try for 1 hour\n  x\nend\n").discipline,
            Discipline::Ethernet
        );
        assert_eq!(run("try\n  x\nend\n").discipline, Discipline::Aloha);
        assert_eq!(
            run("try 5 times every 0 seconds\n  x\nend\n").discipline,
            Discipline::Fixed
        );
    }

    #[test]
    fn annotations_parse() {
        let a = annotations(
            "# lint: define shimdir host\nx=1\n# lint: allow unused-capture\n#lint: allow nope\n",
        );
        assert_eq!(a.defines, vec!["shimdir", "host"]);
        assert_eq!(a.allow, vec!["unused-capture"]);
    }

    #[test]
    fn json_output_escapes_and_locates() {
        let src = "echo hi -> msg\n";
        let r = run(src);
        let d = &r.diagnostics[0];
        let j = d.to_json("a \"b\".ftsh", src);
        assert!(j.contains("\"file\":\"a \\\"b\\\".ftsh\""), "{j}");
        assert!(j.contains("\"rule\":\"unused-capture\""), "{j}");
        assert!(j.contains("\"line\":1"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn human_output_has_caret_at_source_line() {
        let src = "good cmd\ntry\n  x\nend\n";
        let r = run(src);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.rule == "unbounded-try")
            .unwrap();
        let rendered = d.render("s.ftsh", src);
        assert!(rendered.contains("--> s.ftsh:2:1"), "{rendered}");
        assert!(rendered.contains("2 | try"), "{rendered}");
        assert!(rendered.contains("| ^^^"), "{rendered}");
    }

    #[test]
    fn every_diagnostic_span_resolves_to_its_line() {
        // Acceptance check: spans from a multi-finding script all point
        // at the expected source lines.
        let src = "echo hi -> msg\ntry\n  cp a b > log.txt\nend\necho ${ghost}\n";
        let r = run(src);
        assert!(!r.is_clean());
        for d in &r.diagnostics {
            assert!(d.span.is_known(), "{d:?}");
            let (line, _) = line_col(src, d.span.start);
            let text = src.lines().nth(line as usize - 1).unwrap();
            let frag = &src[d.span.start as usize..d.span.end as usize];
            assert!(
                text.contains(frag.lines().next().unwrap()),
                "span {frag:?} not on line {line}: {text:?}"
            );
        }
    }
}
