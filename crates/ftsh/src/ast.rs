//! Abstract syntax of ftsh.
//!
//! A script is a *group*: a fail-fast sequence of statements. The
//! structural statements are exactly those §4 of the paper introduces —
//! `try`/`catch`, `forany`, `forall`, `if`, assignment, the `failure`
//! and `success` atoms — and the atom is an external command with
//! optional redirections (to files or, dash-prefixed, to shell
//! variables).

use crate::intern::Istr;
use retry::Dur;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A half-open byte range `[start, end)` into the source text a node
/// was parsed from.
///
/// Spans are *diagnostic metadata*: they never participate in AST
/// equality or hashing, so `parse(pretty(ast)) == ast` holds even
/// though the reprinted source has different offsets. Nodes built
/// programmatically (tests, generated scripts) carry the default
/// zero span, which [`Span::is_known`] reports as absent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first byte of the node.
    pub start: u32,
    /// Byte offset one past the last byte of the node.
    pub end: u32,
}

impl Span {
    /// A span from byte offsets.
    pub fn new(start: u32, end: u32) -> Span {
        Span { start, end }
    }

    /// A zero-length span at one offset (used for end-of-input
    /// diagnostics).
    pub fn point(at: u32) -> Span {
        Span { start: at, end: at }
    }

    /// True unless this is the default "no location" span.
    pub fn is_known(self) -> bool {
        self != Span::default()
    }

    /// The smallest span covering both `self` and `other`; a default
    /// span on either side yields the other.
    pub fn merge(self, other: Span) -> Span {
        if !self.is_known() {
            other
        } else if !other.is_known() {
            self
        } else {
            Span {
                start: self.start.min(other.start),
                end: self.end.max(other.end),
            }
        }
    }
}

/// One segment of a [`Word`]: literal text or a `${var}` substitution.
///
/// Segments hold interned strings ([`Istr`]): a fully-literal word
/// expands by cloning its segment's `Istr` — a refcount bump shared
/// with every other expansion of the same word, across the whole VM
/// population running the script.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Seg {
    /// Literal text.
    Lit(Istr),
    /// Substitution of the named variable at expansion time.
    Var(Istr),
}

/// A shell word: a run of literal and substitution segments that
/// expands to a single string at evaluation time.
///
/// Equality and hashing compare segments only — the source [`Span`] is
/// diagnostic metadata.
#[derive(Clone, Default)]
pub struct Word {
    segs: Segs,
    span: Span,
}

/// A word's segments. Most words are one literal or one substitution,
/// held inline; the rest (and the empty word) are a boxed slice.
#[derive(Clone)]
enum Segs {
    One(Seg),
    Many(Box<[Seg]>),
}

impl Default for Segs {
    fn default() -> Segs {
        Segs::Many(Box::default())
    }
}

impl PartialEq for Word {
    fn eq(&self, other: &Word) -> bool {
        self.segs() == other.segs()
    }
}

impl Eq for Word {}

impl std::hash::Hash for Word {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.segs().hash(state);
    }
}

impl Word {
    /// A word from raw segments (adjacent literals are merged).
    pub fn from_segs(segs: Vec<Seg>) -> Word {
        let mut merged: Vec<Seg> = Vec::with_capacity(segs.len());
        for s in segs {
            match (merged.last_mut(), s) {
                (Some(Seg::Lit(a)), Seg::Lit(b)) => {
                    let mut joined = String::with_capacity(a.len() + b.len());
                    joined.push_str(a);
                    joined.push_str(&b);
                    *a = Istr::from(joined);
                }
                (_, s) => merged.push(s),
            }
        }
        Word::from_merged(merged)
    }

    /// A word from segments with no two literals adjacent.
    pub(crate) fn from_merged(segs: impl IntoIterator<Item = Seg>) -> Word {
        let mut segs = segs.into_iter();
        let segs = match (segs.next(), segs.next()) {
            (None, _) => Segs::default(),
            (Some(one), None) => Segs::One(one),
            (Some(a), Some(b)) => Segs::Many([a, b].into_iter().chain(segs).collect()),
        };
        Word {
            segs,
            span: Span::default(),
        }
    }

    /// A purely literal word.
    pub fn lit(s: impl Into<Istr>) -> Word {
        let s = s.into();
        if s.is_empty() {
            Word::default()
        } else {
            Word::from_merged([Seg::Lit(s)])
        }
    }

    /// A single-variable word (`${name}`).
    pub fn var(name: impl Into<Istr>) -> Word {
        Word::from_merged([Seg::Var(name.into())])
    }

    /// The same word carrying a source span.
    pub fn with_span(mut self, span: Span) -> Word {
        self.span = span;
        self
    }

    /// Where this word sits in the source (default span when the word
    /// was built programmatically).
    pub fn span(&self) -> Span {
        self.span
    }

    /// The segments of this word.
    pub fn segs(&self) -> &[Seg] {
        match &self.segs {
            Segs::One(seg) => std::slice::from_ref(seg),
            Segs::Many(segs) => segs,
        }
    }

    /// If the word is a single literal, that literal.
    pub fn as_lit(&self) -> Option<&str> {
        match self.segs() {
            [Seg::Lit(s)] => Some(s.as_str()),
            [] => Some(""),
            _ => None,
        }
    }

    /// True if any segment is a substitution.
    pub fn has_vars(&self) -> bool {
        self.segs().iter().any(|s| matches!(s, Seg::Var(_)))
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w\"")?;
        for s in self.segs() {
            match s {
                Seg::Lit(l) => write!(f, "{l}")?,
                Seg::Var(v) => write!(f, "${{{v}}}")?,
            }
        }
        write!(f, "\"")
    }
}

/// Where redirected output goes / input comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedirTarget {
    /// A file in the filesystem (`>`, `>>`, `>&`, `<`).
    File,
    /// A shell variable held by the interpreter (`->`, `->>`, `->&`,
    /// `-<`) — the paper's I/O transaction mechanism.
    Variable,
}

/// A single redirection attached to a command.
#[derive(Clone, Debug, PartialEq)]
pub enum Redir {
    /// Redirect standard output (and error if `both`), truncating or
    /// appending, to a file or variable named by `target`.
    Out {
        /// File or variable destination.
        to: RedirTarget,
        /// Append rather than truncate.
        append: bool,
        /// Capture standard error too (`>&` forms).
        both: bool,
        /// Name of the file/variable (expanded at run time).
        target: Word,
    },
    /// Feed standard input from a file or variable.
    In {
        /// File or variable source.
        from: RedirTarget,
        /// Name of the file/variable (expanded at run time).
        source: Word,
    },
}

/// An external command: argv words plus redirections.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Command {
    /// Argument words, `argv[0]` first.
    pub words: Vec<Word>,
    /// Redirections, applied left to right.
    pub redirs: Vec<Redir>,
}

/// The limits of a `try`: time, attempts, both, or neither, plus an
/// optional fixed retry interval (`every`) overriding exponential
/// backoff.
///
/// Equality compares the limits only — `span` (covering the `try ...`
/// header in the source) is diagnostic metadata.
#[derive(Clone, Debug, Default)]
pub struct TrySpec {
    /// `for <n> <unit>` total time limit.
    pub time: Option<Dur>,
    /// `<n> times` attempt limit.
    pub attempts: Option<u32>,
    /// `every <n> <unit>`: constant delay instead of exponential
    /// backoff (extension documented in the ftsh cookbook).
    pub every: Option<Dur>,
    /// Source span of the `try` header line.
    pub span: Span,
}

impl PartialEq for TrySpec {
    fn eq(&self, other: &TrySpec) -> bool {
        self.time == other.time && self.attempts == other.attempts && self.every == other.every
    }
}

/// Comparison operators for `if` conditions. The dotted numeric forms
/// are the ones the paper's carrier-sense fragment uses
/// (`if ${n} .lt. 1000`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CondOp {
    /// `.lt.` numeric less-than.
    NumLt,
    /// `.le.` numeric less-or-equal.
    NumLe,
    /// `.gt.` numeric greater-than.
    NumGt,
    /// `.ge.` numeric greater-or-equal.
    NumGe,
    /// `.eq.` numeric equality.
    NumEq,
    /// `.ne.` numeric inequality.
    NumNe,
    /// `.eql.` string equality.
    StrEq,
    /// `.neql.` string inequality.
    StrNe,
}

impl CondOp {
    /// The source spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            CondOp::NumLt => ".lt.",
            CondOp::NumLe => ".le.",
            CondOp::NumGt => ".gt.",
            CondOp::NumGe => ".ge.",
            CondOp::NumEq => ".eq.",
            CondOp::NumNe => ".ne.",
            CondOp::StrEq => ".eql.",
            CondOp::StrNe => ".neql.",
        }
    }

    /// Whether the operator compares numbers (`.eql.` and `.neql.`
    /// compare text).
    pub fn is_numeric(self) -> bool {
        !matches!(self, CondOp::StrEq | CondOp::StrNe)
    }

    /// Parse a spelling.
    pub fn from_spelling(s: &str) -> Option<CondOp> {
        Some(match s {
            ".lt." => CondOp::NumLt,
            ".le." => CondOp::NumLe,
            ".gt." => CondOp::NumGt,
            ".ge." => CondOp::NumGe,
            ".eq." => CondOp::NumEq,
            ".ne." => CondOp::NumNe,
            ".eql." => CondOp::StrEq,
            ".neql." => CondOp::StrNe,
            _ => return None,
        })
    }
}

/// An `if` condition: `lhs OP rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct Cond {
    /// Left operand.
    pub lhs: Word,
    /// Comparison operator.
    pub op: CondOp,
    /// Right operand.
    pub rhs: Word,
}

/// A group of statements, shared by reference.
///
/// Every structured statement owns its sub-groups through `Block`, and
/// cloning one is a reference-count bump rather than a deep copy. That
/// is what lets a population of VMs execute one parsed script with O(1)
/// AST clones total, and lets the VM enter nested `try`/`forall` bodies
/// without duplicating them per attempt. Backed by `Arc`, so scripts
/// and VMs can cross threads.
#[derive(Clone, Default)]
pub struct Block {
    stmts: Arc<[Stmt]>,
    /// Per-statement source spans; either empty (programmatically
    /// built) or exactly as long as `stmts`. Never part of equality.
    spans: Arc<[Span]>,
}

impl Block {
    /// A group from its statements (no source spans).
    pub fn new(stmts: Vec<Stmt>) -> Block {
        Block {
            stmts: stmts.into(),
            spans: Arc::from([]),
        }
    }

    /// A group from statements plus the source span of each.
    ///
    /// # Panics
    /// Panics if the two vectors disagree in length.
    pub fn with_spans(stmts: Vec<Stmt>, spans: Vec<Span>) -> Block {
        assert_eq!(stmts.len(), spans.len(), "one span per statement");
        Block {
            stmts: stmts.into(),
            spans: spans.into(),
        }
    }

    /// The source span of statement `i` (default span when unknown).
    pub fn span_of(&self, i: usize) -> Span {
        self.spans.get(i).copied().unwrap_or_default()
    }

    /// Iterate statements together with their source spans.
    pub fn iter_spanned(&self) -> impl Iterator<Item = (&Stmt, Span)> {
        self.stmts
            .iter()
            .enumerate()
            .map(|(i, s)| (s, self.span_of(i)))
    }

    /// True when two blocks share one allocation (O(1), no deep
    /// comparison) — the regression-test hook for AST sharing.
    pub fn ptr_eq(a: &Block, b: &Block) -> bool {
        Arc::ptr_eq(&a.stmts, &b.stmts)
    }

    /// How many handles share this group's allocation.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.stmts)
    }

    /// The shared statement allocation itself. The bytecode compiler
    /// keys its program cache on this allocation's identity, so a
    /// population of VMs built from one parsed script compiles once.
    pub(crate) fn stmts_arc(&self) -> &Arc<[Stmt]> {
        &self.stmts
    }
}

impl Deref for Block {
    type Target = [Stmt];

    fn deref(&self) -> &[Stmt] {
        &self.stmts
    }
}

impl From<Vec<Stmt>> for Block {
    fn from(stmts: Vec<Stmt>) -> Block {
        Block::new(stmts)
    }
}

impl FromIterator<Stmt> for Block {
    fn from_iter<I: IntoIterator<Item = Stmt>>(iter: I) -> Block {
        Block {
            stmts: iter.into_iter().collect(),
            spans: Arc::from([]),
        }
    }
}

impl<'a> IntoIterator for &'a Block {
    type Item = &'a Stmt;
    type IntoIter = std::slice::Iter<'a, Stmt>;

    fn into_iter(self) -> Self::IntoIter {
        self.stmts.iter()
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        Arc::ptr_eq(&self.stmts, &other.stmts) || *self.stmts == *other.stmts
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.stmts, f)
    }
}

/// A statement. Groups are represented as [`Block`]s inside the
/// structured statements; the script itself is the outermost group.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// An external command (or a builtin the executor recognizes).
    Command(Command),
    /// `try [for d] [or n times] [every d] ... [catch ...] end`
    Try {
        /// Retry limits.
        spec: TrySpec,
        /// The retried group.
        body: Block,
        /// The handler group, if a `catch` clause is present.
        catch: Option<Block>,
    },
    /// `forany v in w1 w2 ... \n body \n end`
    ForAny {
        /// Loop variable bound to each alternative in turn.
        var: String,
        /// Alternative values (expanded at entry).
        values: Vec<Word>,
        /// Body attempted once per alternative until one succeeds.
        body: Block,
    },
    /// `forall v in w1 w2 ... \n body \n end` — parallel conjunction.
    ForAll {
        /// Loop variable bound per parallel branch.
        var: String,
        /// Branch values (expanded at entry).
        values: Vec<Word>,
        /// Body run once per value, concurrently.
        body: Block,
    },
    /// `if cond \n then-group [else \n else-group] end`
    If {
        /// The comparison.
        cond: Cond,
        /// Group when the condition holds.
        then: Block,
        /// Group when it does not.
        els: Option<Block>,
    },
    /// `name=value` — bind a shell variable.
    Assign {
        /// Variable name.
        var: String,
        /// Value word (expanded at run time).
        value: Word,
    },
    /// The `failure` atom: an untyped throw.
    Failure,
    /// The `success` atom: succeeds without doing anything.
    Success,
    /// `function name ... end` — define a callable procedure (from the
    /// ftsh cookbook, TR-1476). Invoking `name args...` runs the body
    /// with `${1}`…`${9}` bound to the arguments, `${0}` to the name,
    /// and `${*}` to all arguments joined by spaces; the body's result
    /// is the call's result.
    Function {
        /// Procedure name.
        name: String,
        /// The body group.
        body: Block,
    },
}

/// A parsed script: the outermost group. Cloning a script (or handing
/// it to a [`crate::Vm`]) shares the statement block rather than
/// copying it.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Script {
    /// Top-level statements.
    pub stmts: Block,
}

impl Script {
    /// Number of statements at top level.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// True when the script is empty.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_merges_adjacent_literals() {
        let w = Word::from_segs(vec![
            Seg::Lit("a".into()),
            Seg::Lit("b".into()),
            Seg::Var("x".into()),
            Seg::Lit("c".into()),
        ]);
        assert_eq!(
            w.segs(),
            &[
                Seg::Lit("ab".into()),
                Seg::Var("x".into()),
                Seg::Lit("c".into())
            ]
        );
    }

    #[test]
    fn word_as_lit() {
        assert_eq!(Word::lit("abc").as_lit(), Some("abc"));
        assert_eq!(Word::lit("").as_lit(), Some(""));
        assert_eq!(Word::var("x").as_lit(), None);
    }

    #[test]
    fn word_has_vars() {
        assert!(!Word::lit("abc").has_vars());
        assert!(Word::var("x").has_vars());
    }

    #[test]
    fn spans_do_not_affect_equality() {
        let a = Word::lit("abc");
        let b = Word::lit("abc").with_span(Span::new(3, 6));
        assert_eq!(a, b);
        let mut s1 = TrySpec::default();
        let mut s2 = TrySpec {
            span: Span::new(0, 9),
            ..TrySpec::default()
        };
        assert_eq!(s1, s2);
        s1.attempts = Some(3);
        s2.attempts = Some(3);
        assert_eq!(s1, s2);
        let b1 = Block::new(vec![Stmt::Success]);
        let b2 = Block::with_spans(vec![Stmt::Success], vec![Span::new(1, 8)]);
        assert_eq!(b1, b2);
        assert_eq!(b1.span_of(0), Span::default());
        assert_eq!(b2.span_of(0), Span::new(1, 8));
        assert_eq!(b2.span_of(7), Span::default());
    }

    #[test]
    fn span_merge_and_known() {
        assert!(!Span::default().is_known());
        assert!(Span::new(0, 1).is_known());
        assert_eq!(Span::new(2, 5).merge(Span::new(4, 9)), Span::new(2, 9));
        assert_eq!(Span::default().merge(Span::new(4, 9)), Span::new(4, 9));
        assert_eq!(Span::new(4, 9).merge(Span::default()), Span::new(4, 9));
        assert_eq!(Span::point(7), Span::new(7, 7));
    }

    #[test]
    fn condop_spellings_roundtrip() {
        for op in [
            CondOp::NumLt,
            CondOp::NumLe,
            CondOp::NumGt,
            CondOp::NumGe,
            CondOp::NumEq,
            CondOp::NumNe,
            CondOp::StrEq,
            CondOp::StrNe,
        ] {
            assert_eq!(CondOp::from_spelling(op.spelling()), Some(op));
        }
        assert_eq!(CondOp::from_spelling(".xx."), None);
    }
}
