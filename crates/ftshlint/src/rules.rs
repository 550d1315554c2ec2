//! The lint rules: retry-discipline checks and dataflow checks.
//!
//! Both walkers run over the spanned AST that the parser now produces.
//! Every diagnostic carries the byte span of the offending construct —
//! the `try` header for discipline findings, the word or statement for
//! dataflow findings — so callers can render carets against the source.

use crate::{Diagnostic, Severity};
use ftsh::{Block, Redir, RedirTarget, Seg, Span, Stmt, Word};
use retry::{BackoffPolicy, Dur};
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------
// Discipline rules
// ---------------------------------------------------------------------

pub(crate) struct DisciplineWalker<'a> {
    pub diags: &'a mut Vec<Diagnostic>,
    /// The shortest first delay the configured policy draws (1 s under
    /// §4's schedule): a time budget no longer than this cannot fit
    /// even one retry.
    first_delay: Dur,
    /// Tightest enclosing `try for` budget, if any.
    outer_time: Option<Dur>,
    /// How many `try` bodies enclose the current statement.
    retry_depth: u32,
    /// True once any `try` is seen (used for classification).
    pub saw_try: bool,
    /// True once any blind unbounded retry is seen (Aloha shape).
    pub saw_aloha: bool,
    /// True once any zero-backoff retry is seen (Fixed shape).
    pub saw_fixed: bool,
}

impl<'a> DisciplineWalker<'a> {
    pub fn new(diags: &'a mut Vec<Diagnostic>, policy: &BackoffPolicy) -> DisciplineWalker<'a> {
        DisciplineWalker {
            diags,
            first_delay: policy.without_jitter().worst_total(1),
            outer_time: None,
            retry_depth: 0,
            saw_try: false,
            saw_aloha: false,
            saw_fixed: false,
        }
    }

    pub fn block(&mut self, b: &Block) {
        for (stmt, span) in b.iter_spanned() {
            self.stmt(stmt, span);
        }
    }

    fn stmt(&mut self, stmt: &Stmt, span: Span) {
        match stmt {
            Stmt::Try { spec, body, catch } => {
                self.saw_try = true;
                let at = if spec.span.is_known() {
                    spec.span
                } else {
                    span
                };
                self.try_header(spec, body, at);
                let saved = self.outer_time;
                self.outer_time = match (spec.time, saved) {
                    (Some(t), Some(o)) => Some(t.min(o)),
                    (Some(t), None) => Some(t),
                    (None, o) => o,
                };
                self.retry_depth += 1;
                self.block(body);
                self.retry_depth -= 1;
                // The catch runs after the body's budget is spent, under
                // the *enclosing* deadline only.
                self.outer_time = saved;
                if let Some(c) = catch {
                    self.block(c);
                }
            }
            Stmt::ForAny { values, body, .. } | Stmt::ForAll { values, body, .. } => {
                if values.len() == 1 {
                    let kw = if matches!(stmt, Stmt::ForAny { .. }) {
                        "forany"
                    } else {
                        "forall"
                    };
                    self.diags.push(Diagnostic {
                        rule: "single-alternative",
                        severity: Severity::Info,
                        span,
                        message: format!("`{kw}` over a single alternative adds no redundancy"),
                        suggestion: Some(
                            "list more alternatives, or inline the body as a plain group"
                                .to_string(),
                        ),
                    });
                }
                self.block(body);
            }
            Stmt::If { then, els, .. } => {
                self.block(then);
                if let Some(e) = els {
                    self.block(e);
                }
            }
            Stmt::Function { body, .. } => {
                // A function body runs under the caller's deadlines and
                // retry loops, which are unknown at the definition:
                // analyze it outside any retry context.
                let saved_time = self.outer_time.take();
                let saved_depth = std::mem::take(&mut self.retry_depth);
                self.block(body);
                self.outer_time = saved_time;
                self.retry_depth = saved_depth;
            }
            Stmt::Command(c) => self.command_io(c, span),
            Stmt::Assign { .. } | Stmt::Failure | Stmt::Success => {}
        }
    }

    fn try_header(&mut self, spec: &ftsh::TrySpec, body: &Block, at: Span) {
        if spec.time.is_none() && spec.attempts.is_none() {
            self.saw_aloha = true;
            self.diags.push(Diagnostic {
                rule: "unbounded-try",
                severity: Severity::Warning,
                span: at,
                message: "this `try` has no time or attempt limit and may retry forever"
                    .to_string(),
                suggestion: Some(
                    "bound it: `try for <time>`, `try <n> times`, or both".to_string(),
                ),
            });
        }
        if spec.time.is_none() && !senses_carrier(body) {
            self.saw_aloha = true;
            self.diags.push(Diagnostic {
                rule: "no-carrier-sense",
                severity: Severity::Warning,
                span: at,
                message: "retry loop resubmits blindly: no deadline and no condition \
                          consulted before retrying (the Aloha shape of §5)"
                    .to_string(),
                suggestion: Some(
                    "add `for <time>` so the loop senses elapsed time, or probe the \
                     medium with an `if` before committing work (§6)"
                        .to_string(),
                ),
            });
        }
        match spec.every {
            Some(e) if e == Dur::ZERO => {
                self.saw_fixed = true;
                self.diags.push(Diagnostic {
                    rule: "retry-without-backoff-room",
                    severity: Severity::Warning,
                    span: at,
                    message: "`every 0` retries with zero delay — the Fixed hammer of §5"
                        .to_string(),
                    suggestion: Some(
                        "drop `every` to get exponential backoff, or give it a nonzero \
                         interval"
                            .to_string(),
                    ),
                });
            }
            Some(e) => {
                if let Some(t) = spec.time {
                    if e >= t {
                        self.saw_fixed = true;
                        self.diags.push(Diagnostic {
                            rule: "retry-without-backoff-room",
                            severity: Severity::Warning,
                            span: at,
                            message: format!(
                                "the fixed `every {e}` interval does not fit inside the \
                                 `for {t}` budget: no retry can ever start"
                            ),
                            suggestion: Some(
                                "shrink the interval or grow the time budget".to_string(),
                            ),
                        });
                    }
                }
            }
            None => {
                if let Some(t) = spec.time {
                    if t <= self.first_delay && spec.attempts != Some(1) {
                        self.saw_fixed = true;
                        self.diags.push(Diagnostic {
                            rule: "retry-without-backoff-room",
                            severity: Severity::Warning,
                            span: at,
                            message: format!(
                                "a `for {t}` budget cannot fit the {} s base backoff \
                                 delay: the loop exhausts after one attempt",
                                self.first_delay.as_secs_f64()
                            ),
                            suggestion: Some(
                                "grow the budget past the base delay, or make the single \
                                 attempt explicit with `or 1 times`"
                                    .to_string(),
                            ),
                        });
                    }
                }
            }
        }
        if let (Some(t), Some(o)) = (spec.time, self.outer_time) {
            if t >= o {
                self.diags.push(Diagnostic {
                    rule: "dead-deadline",
                    severity: Severity::Warning,
                    span: at,
                    message: format!(
                        "inner deadline `for {t}` can never fire: an enclosing `try` \
                         already limits this region to {o}"
                    ),
                    suggestion: Some(
                        "shrink the inner deadline below the enclosing budget, or drop it"
                            .to_string(),
                    ),
                });
            }
        }
        if spec.time == Some(Dur::ZERO) {
            self.diags.push(Diagnostic {
                rule: "dead-deadline",
                severity: Severity::Warning,
                span: at,
                message: "a `for 0` budget expires before the first attempt begins".to_string(),
                suggestion: Some("give the try a positive time budget".to_string()),
            });
        }
    }

    fn command_io(&mut self, c: &ftsh::Command, span: Span) {
        if self.retry_depth == 0 {
            return;
        }
        for r in &c.redirs {
            if let Redir::Out {
                to: RedirTarget::File,
                append,
                target,
                ..
            } = r
            {
                let at = if target.span().is_known() {
                    target.span()
                } else {
                    span
                };
                let verb = if *append { "appends to" } else { "truncates" };
                self.diags.push(Diagnostic {
                    rule: "non-transactional-io",
                    severity: Severity::Warning,
                    span: at,
                    message: format!(
                        "retried command {verb} a file: killed attempts leave partial \
                         output behind (§3's I/O transactions exist to prevent this)"
                    ),
                    suggestion: Some(
                        "capture into a variable with `->` and write the file once, \
                         after the try succeeds"
                            .to_string(),
                    ),
                });
            }
        }
    }
}

/// True when a retried body consults anything before recommitting work:
/// an `if` anywhere inside it, or an inner `try for` whose own deadline
/// senses elapsed time.
fn senses_carrier(b: &Block) -> bool {
    b.iter().any(|s| match s {
        Stmt::If { .. } => true,
        Stmt::Try { spec, body, catch } => {
            spec.time.is_some()
                || senses_carrier(body)
                || catch.as_ref().is_some_and(senses_carrier)
        }
        Stmt::ForAny { body, .. } | Stmt::ForAll { body, .. } | Stmt::Function { body, .. } => {
            senses_carrier(body)
        }
        _ => false,
    })
}

// ---------------------------------------------------------------------
// Dataflow rules
// ---------------------------------------------------------------------

/// Collect every variable *use* in the script: `${name}` segments in
/// any word, `-<` variable sources, and `->>` append targets (an append
/// reads the value it extends).
fn collect_uses(stmts: &Block, uses: &mut HashSet<String>) {
    fn word(w: &Word, uses: &mut HashSet<String>) {
        for s in w.segs() {
            if let Seg::Var(v) = s {
                uses.insert(v.to_string());
            }
        }
    }
    for s in stmts {
        match s {
            Stmt::Command(c) => {
                for w in &c.words {
                    word(w, uses);
                }
                for r in &c.redirs {
                    match r {
                        Redir::Out {
                            to, append, target, ..
                        } => {
                            word(target, uses);
                            if *to == RedirTarget::Variable && *append {
                                if let Some(name) = target.as_lit() {
                                    uses.insert(name.to_string());
                                }
                            }
                        }
                        Redir::In { from, source } => {
                            word(source, uses);
                            if *from == RedirTarget::Variable {
                                if let Some(name) = source.as_lit() {
                                    uses.insert(name.to_string());
                                }
                            }
                        }
                    }
                }
            }
            Stmt::Assign { value, .. } => word(value, uses),
            Stmt::Try { body, catch, .. } => {
                collect_uses(body, uses);
                if let Some(c) = catch {
                    collect_uses(c, uses);
                }
            }
            Stmt::ForAny { values, body, .. } | Stmt::ForAll { values, body, .. } => {
                for v in values {
                    word(v, uses);
                }
                collect_uses(body, uses);
            }
            Stmt::If { cond, then, els } => {
                word(&cond.lhs, uses);
                word(&cond.rhs, uses);
                collect_uses(then, uses);
                if let Some(e) = els {
                    collect_uses(e, uses);
                }
            }
            Stmt::Function { body, .. } => collect_uses(body, uses),
            Stmt::Failure | Stmt::Success => {}
        }
    }
}

pub(crate) struct DataflowWalker<'a> {
    pub diags: &'a mut Vec<Diagnostic>,
    /// Variables that may be defined on some path so far.
    defined: HashSet<String>,
    /// Every `${name}` referenced anywhere in the script.
    all_uses: HashSet<String>,
    /// Function names seen (calls to them may bind outward).
    funcs: HashMap<String, HashSet<String>>,
    /// Set once a capture target is computed at runtime: every name may
    /// be defined after that, so use-before-assign goes quiet.
    dynamic_defs: bool,
    /// Names reported once already (one finding per name).
    reported_undef: HashSet<String>,
}

impl<'a> DataflowWalker<'a> {
    pub fn new(diags: &'a mut Vec<Diagnostic>, predefined: &[String], script: &Block) -> Self {
        let mut all_uses = HashSet::new();
        collect_uses(script, &mut all_uses);
        DataflowWalker {
            diags,
            defined: predefined.iter().cloned().collect(),
            all_uses,
            funcs: HashMap::new(),
            dynamic_defs: false,
            reported_undef: HashSet::new(),
        }
    }

    pub fn block(&mut self, b: &Block) {
        let mut reachable = true;
        for (stmt, span) in b.iter_spanned() {
            if !reachable {
                self.diags.push(Diagnostic {
                    rule: "unreachable-code",
                    severity: Severity::Warning,
                    span,
                    message: "statement is unreachable: the group already resolved with \
                              `failure`/`success` above"
                        .to_string(),
                    suggestion: Some("remove it, or move it before the throw".to_string()),
                });
                // One finding per block is enough.
                break;
            }
            self.stmt(stmt, span);
            if matches!(stmt, Stmt::Failure | Stmt::Success) {
                reachable = false;
            }
        }
    }

    fn use_word(&mut self, w: &Word) {
        if self.dynamic_defs {
            return;
        }
        for s in w.segs() {
            if let Seg::Var(v) = s {
                if !self.defined.contains(v.as_str()) && self.reported_undef.insert(v.to_string()) {
                    self.diags.push(Diagnostic {
                        rule: "use-before-assign",
                        severity: Severity::Warning,
                        span: w.span(),
                        message: format!(
                            "`${{{v}}}` is never assigned before this use and expands to \
                             the empty string"
                        ),
                        suggestion: Some(format!(
                            "assign `{v}=` or capture `-> {v}` first; if the harness \
                             injects it, declare `# lint: define {v}`"
                        )),
                    });
                }
            }
        }
    }

    /// A capture or assignment of `name`; flags it if nothing in the
    /// whole script ever reads it (captures only — assignments of
    /// unused constants are conventional).
    fn define(&mut self, name: &str) {
        self.defined.insert(name.to_string());
    }

    fn capture(&mut self, target: &Word, span: Span) {
        match target.as_lit() {
            Some(name) => {
                if !self.all_uses.contains(name) {
                    let at = if target.span().is_known() {
                        target.span()
                    } else {
                        span
                    };
                    self.diags.push(Diagnostic {
                        rule: "unused-capture",
                        severity: Severity::Info,
                        span: at,
                        message: format!(
                            "output captured into `{name}` is never read anywhere in the \
                             script"
                        ),
                        suggestion: Some(format!(
                            "drop the capture, or read `${{{name}}}` where the output \
                             matters"
                        )),
                    });
                }
                self.define(name);
            }
            None => self.dynamic_defs = true,
        }
    }

    fn stmt(&mut self, stmt: &Stmt, span: Span) {
        match stmt {
            Stmt::Command(c) => {
                for w in &c.words {
                    self.use_word(w);
                }
                // A call to a known function may bind that function's
                // captures outward (the body runs in the caller's env).
                if let Some(name) = c.words.first().and_then(|w| w.as_lit()) {
                    if let Some(binds) = self.funcs.get(name).cloned() {
                        self.defined.extend(binds);
                    }
                }
                for r in &c.redirs {
                    match r {
                        Redir::Out {
                            to, append, target, ..
                        } => {
                            self.use_word(target);
                            match to {
                                RedirTarget::Variable => {
                                    if *append {
                                        // Appending to a never-set
                                        // variable starts from empty —
                                        // legal, so only record the def.
                                        if let Some(n) = target.as_lit() {
                                            self.define(n);
                                        } else {
                                            self.dynamic_defs = true;
                                        }
                                    } else {
                                        self.capture(target, span);
                                    }
                                }
                                RedirTarget::File => {}
                            }
                        }
                        Redir::In { from, source } => {
                            self.use_word(source);
                            if *from == RedirTarget::Variable {
                                if let Some(n) = source.as_lit() {
                                    if !self.dynamic_defs
                                        && !self.defined.contains(n)
                                        && self.reported_undef.insert(n.to_string())
                                    {
                                        self.diags.push(Diagnostic {
                                            rule: "use-before-assign",
                                            severity: Severity::Warning,
                                            span: if source.span().is_known() {
                                                source.span()
                                            } else {
                                                span
                                            },
                                            message: format!(
                                                "`-< {n}` reads a variable that is never \
                                                 assigned before this point"
                                            ),
                                            suggestion: Some(format!(
                                                "assign or capture `{n}` first"
                                            )),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Stmt::Assign { var, value } => {
                self.use_word(value);
                self.define(var);
            }
            Stmt::Try { body, catch, .. } => {
                // May-defined union: the body ran if the try succeeded,
                // the catch ran if it exhausted.
                self.block(body);
                if let Some(c) = catch {
                    self.block(c);
                }
            }
            Stmt::ForAny { var, values, body } => {
                for v in values {
                    self.use_word(v);
                }
                // The winning alternative's bindings (including the loop
                // variable) survive the loop; keep the union.
                self.defined.insert(var.clone());
                self.block(body);
            }
            Stmt::ForAll { var, values, body } => {
                for v in values {
                    self.use_word(v);
                }
                // Branch-local envs are discarded at the join: bindings
                // made inside the body do NOT survive.
                let before = self.defined.clone();
                self.defined.insert(var.clone());
                self.block(body);
                self.defined = before;
            }
            Stmt::If { cond, then, els } => {
                self.use_word(&cond.lhs);
                self.use_word(&cond.rhs);
                self.block(then);
                if let Some(e) = els {
                    self.block(e);
                }
            }
            Stmt::Function { name, body } => {
                // Positional parameters are bound by the caller.
                let before = self.defined.clone();
                for p in ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "*"] {
                    self.defined.insert(p.to_string());
                }
                self.block(body);
                // Bindings the body makes belong to whichever env the
                // call runs in; remember them for call sites and keep
                // them may-defined from here on.
                let binds: HashSet<String> = self
                    .defined
                    .difference(&before)
                    .filter(|n| {
                        !matches!(
                            n.as_str(),
                            "0" | "1" | "2" | "3" | "4" | "5" | "6" | "7" | "8" | "9" | "*"
                        )
                    })
                    .cloned()
                    .collect();
                self.funcs.insert(name.clone(), binds.clone());
                self.defined = before;
                self.defined.extend(binds);
                self.define(name);
            }
            Stmt::Failure | Stmt::Success => {}
        }
    }
}
