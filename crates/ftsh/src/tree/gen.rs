//! The one seeded script generator the differential and round-trip
//! tests share.
//!
//! [`script`] turns a seed into a [`Script`]; the same seed always gives
//! the same script, so a failing case replays from one number. Every
//! script it emits is
//!
//! - *parser-canonical*: `parse(pretty(s)) == s`;
//! - *non-recursive*: `fa`'s body may call `fb`, `fb`'s calls nothing,
//!   and only code outside a function body calls through a variable
//!   (`${v} ...`), so no call reaches its own caller;
//! - *bounded*: a `try` has at most 4 attempts, or no attempt limit and
//!   a deadline of at most a minute (at most 6 attempts under a backoff
//!   that starts at 1 s and doubles), or no limit at all around a lone
//!   `success`; and loop, retry and call factors are clamped so that no
//!   statement runs more than 64 times in one run (through any one call
//!   site, in a function body), whatever its commands answer.
//!
//! Between them the scripts use every statement (functions defined
//! and redefined), every redirection form, every condition operator,
//! the positionals `${0}`–`${3}`, `${13}` and `${*}`, multi-segment and
//! quoted words, 12-argument commands, calls and top-level dispatch,
//! and `try` with a deadline, an attempt limit, both, `every`, or
//! neither.

use crate::ast::CondOp::{NumEq, NumGe, NumGt, NumLe, NumLt, NumNe, StrEq, StrNe};
use crate::ast::{
    Block, Command, Cond, CondOp, Redir, RedirTarget, Script, Seg, Stmt, TrySpec, Word,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use retry::Dur;

/// The most times one statement runs in one run of a script (through
/// any one call site, in a function body).
const REPS: u32 = 64;
/// The most attempts of a `try` with an attempt limit.
const MAX_ATTEMPTS: u32 = 4;
/// The most attempts a one-minute deadline admits when the waits
/// between them start at 1 s and double: 1 + 2 + 4 + 8 + 16 + 32
/// seconds exceed it.
const DEADLINE_ATTEMPTS: u32 = 6;

/// The functions a script may define, in call order: a body calls only
/// the names after its own. Beside each, how many times its body may
/// repeat one statement, which a call multiplies into its caller's
/// count.
const FUNCTIONS: [(&str, u32); 2] = [("fa", 16), ("fb", 4)];
/// External programs: no keyword, no function, and none that never
/// answers, so a script ends once every command is answered.
const PROGRAMS: &[&str] = &["wget", "fetch", "probe", "run0", "cut-f2", "x_y"];
/// Variables a script assigns, loops over, captures into and reads.
const NAMES: &[&str] = &["out", "n", "host", "v", "a_1"];
const LITS: &[&str] = &[
    "alpha", "b-2", "a/b.c", "h:80/f", "10", "0", "a,b+c@d", "a b",
];
const POSITIONALS: &[&str] = &["0", "1", "2", "3", "13", "*"];
/// What a variable must hold for `-< ${v}` to read a positional, or for
/// `${v} ...` to call a function.
const REACH: &[&str] = &["1", "2", "*", "fa", "fb"];
const OPS: [CondOp; 8] = [NumLt, NumLe, NumGt, NumGe, NumEq, NumNe, StrEq, StrNe];

/// The script `seed` names: the same one on every call.
pub fn script(seed: u64) -> Script {
    let mut g = Gen(StdRng::seed_from_u64(seed));
    let n = 1 + g.below(4);
    Script {
        stmts: (0..n).map(|_| g.stmt(3, None, 1)).collect(),
    }
}

struct Gen(StdRng);

/// Where a statement sits: outside any function (`None`), or in the
/// body of `FUNCTIONS[i]`.
type Scope = Option<usize>;

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.random_range(0..n)
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[self.below(pool.len())]
    }

    /// `want` repetitions of a statement that already runs `reps`
    /// times, clamped so its body stays within [`REPS`].
    fn factor(want: u32, reps: u32) -> u32 {
        want.min(REPS / reps).max(1)
    }

    /// A statement with up to `depth` levels of structure inside it,
    /// run at most `reps` times.
    fn stmt(&mut self, depth: u32, scope: Scope, reps: u32) -> Stmt {
        if depth == 0 || self.one_in(3) {
            return match self.below(10) {
                0..=5 => self.command(scope, reps),
                6 | 7 => Stmt::Assign {
                    var: self.pick(NAMES).into(),
                    value: self.word(),
                },
                8 => Stmt::Failure,
                _ => Stmt::Success,
            };
        }
        let depth = depth - 1;
        match self.below(10) {
            0..=2 => self.try_stmt(depth, scope, reps),
            3..=5 => {
                let var = self.pick(NAMES).to_string();
                let n = Gen::factor(1 + self.below(3) as u32, reps);
                let values = (0..n).map(|_| self.word()).collect();
                let body = self.block(depth, scope, reps * n);
                if self.one_in(2) {
                    Stmt::ForAny { var, values, body }
                } else {
                    Stmt::ForAll { var, values, body }
                }
            }
            6..=8 => Stmt::If {
                cond: self.cond(),
                then: self.block(depth, scope, reps),
                els: self.one_in(2).then(|| self.block(depth, scope, reps)),
            },
            // Functions are defined (and redefined) outside any body.
            _ if scope.is_none() => {
                let i = self.below(FUNCTIONS.len());
                let (name, weight) = FUNCTIONS[i];
                Stmt::Function {
                    name: name.into(),
                    body: self.block(depth.min(1), Some(i), REPS / weight),
                }
            }
            _ => self.try_stmt(depth, scope, reps),
        }
    }

    fn block(&mut self, depth: u32, scope: Scope, reps: u32) -> Block {
        let n = if self.one_in(8) { 0 } else { 1 + self.below(3) };
        (0..n).map(|_| self.stmt(depth, scope, reps)).collect()
    }

    fn try_stmt(&mut self, depth: u32, scope: Scope, reps: u32) -> Stmt {
        if self.one_in(8) {
            // No limit at all: only a body that cannot fail ends.
            return Stmt::Try {
                spec: TrySpec::default(),
                body: [Stmt::Success].into_iter().collect(),
                catch: None,
            };
        }
        let attempts = Gen::factor(1 + self.below(MAX_ATTEMPTS as usize) as u32, reps);
        let (spec, tries) = match self.below(7) {
            0 | 1 if REPS / reps >= DEADLINE_ATTEMPTS => {
                let time = match self.below(3) {
                    0 => Dur::from_micros(1 + self.below(999) as u64),
                    1 => Dur::from_millis(1 + self.below(4999) as u64),
                    _ => Dur::from_secs(1 + self.below(60) as u64),
                };
                (Gen::spec(Some(time), None, None), DEADLINE_ATTEMPTS)
            }
            2 | 3 => (Gen::spec(None, Some(attempts), None), attempts),
            4 => {
                let time = self.dur();
                (Gen::spec(Some(time), Some(attempts), None), attempts)
            }
            _ => {
                let time = self.one_in(2).then(|| self.dur());
                let every = self.dur();
                (Gen::spec(time, Some(attempts), Some(every)), attempts)
            }
        };
        Stmt::Try {
            spec,
            body: self.block(depth, scope, reps * tries),
            catch: self.one_in(2).then(|| self.block(depth, scope, reps)),
        }
    }

    fn spec(time: Option<Dur>, attempts: Option<u32>, every: Option<Dur>) -> TrySpec {
        TrySpec {
            time,
            attempts,
            every,
            ..TrySpec::default()
        }
    }

    /// A duration in any unit the printer spells.
    fn dur(&mut self) -> Dur {
        match self.below(5) {
            0 => Dur::from_micros(1 + self.below(999) as u64),
            1 => Dur::from_millis(1 + self.below(4999) as u64),
            2 => Dur::from_secs(1 + self.below(299) as u64),
            3 => Dur::from_mins(1 + self.below(89) as u64),
            _ => Dur::from_hours(1 + self.below(2) as u64),
        }
    }

    /// A comparison, mostly of numbers: a numeric operator fails on any
    /// other word, and a failed comparison ends most scripts before
    /// their first command.
    fn cond(&mut self) -> Cond {
        let operand = |g: &mut Gen| match g.below(4) {
            0 => g.word(),
            _ => Word::lit(g.pick(&["0", "3", "10"])),
        };
        Cond {
            lhs: operand(self),
            op: self.pick(&OPS),
            rhs: operand(self),
        }
    }

    fn word(&mut self) -> Word {
        match self.below(12) {
            0..=3 => Word::lit(self.pick(LITS)),
            4..=6 => Word::var(self.pick(NAMES)),
            7 | 8 => Word::var(self.pick(POSITIONALS)),
            9 => Word::lit(self.pick(REACH)),
            10 => Word::from_segs(vec![
                Seg::Lit(self.pick(LITS).into()),
                Seg::Var(self.pick(NAMES).into()),
            ]),
            _ => Word::from_segs(vec![
                Seg::Var(self.pick(NAMES).into()),
                Seg::Lit(self.pick(LITS).into()),
            ]),
        }
    }

    /// A command to an external program, to a function `scope` may call
    /// `reps` times, or — outside any body — through a variable; with 0
    /// to 3 or 12 arguments, and optionally an input and an output
    /// redirection.
    fn command(&mut self, scope: Scope, reps: u32) -> Stmt {
        let first = scope.map_or(0, |i| i + 1);
        let callees: Vec<&str> = FUNCTIONS[first..]
            .iter()
            .filter(|(_, weight)| reps * weight <= REPS)
            .map(|(name, _)| *name)
            .collect();
        let dispatch = scope.is_none() && reps * FUNCTIONS[0].1 <= REPS;
        let program = match self.below(8) {
            0 | 1 if !callees.is_empty() => Word::lit(self.pick(&callees)),
            2 if dispatch => Word::var(self.pick(NAMES)),
            _ => Word::lit(self.pick(PROGRAMS)),
        };
        let argc = if self.one_in(10) { 12 } else { self.below(4) };
        let words = std::iter::once(program)
            .chain((0..argc).map(|_| self.word()))
            .collect();
        let mut redirs = Vec::new();
        if self.one_in(3) {
            redirs.push(match self.below(4) {
                0 => Redir::In {
                    from: RedirTarget::File,
                    source: self.word(),
                },
                1 => Redir::In {
                    from: RedirTarget::Variable,
                    source: Word::lit(self.pick(REACH)),
                },
                _ => Redir::In {
                    from: RedirTarget::Variable,
                    source: self.word(),
                },
            });
        }
        if self.one_in(2) {
            let to_var = self.below(3) != 0;
            let append = self.one_in(3);
            redirs.push(Redir::Out {
                to: if to_var {
                    RedirTarget::Variable
                } else {
                    RedirTarget::File
                },
                append,
                // A file has no `>>&` spelling.
                both: (to_var || !append) && self.one_in(3),
                target: match self.below(6) {
                    _ if !to_var => self.word(),
                    0 => Word::var(self.pick(NAMES)),
                    1 => Word::lit(self.pick(&POSITIONALS[1..3])),
                    _ => Word::lit(self.pick(NAMES)),
                },
            });
        }
        Stmt::Command(Command { words, redirs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty;
    use std::collections::BTreeSet;

    /// The shapes `block` uses, each named by one token; `in_body`
    /// inside a function definition.
    fn shapes(block: &[Stmt], in_body: bool, out: &mut Vec<String>) {
        let words = |ws: &mut dyn Iterator<Item = &Word>, out: &mut Vec<String>| {
            for w in ws {
                if w.segs().len() > 1 {
                    out.push("multi-segment".into());
                }
                for seg in w.segs() {
                    match seg {
                        Seg::Var(v) if POSITIONALS.contains(&v.as_str()) => {
                            out.push(format!("${{{v}}}"));
                        }
                        Seg::Lit(l) if l.contains(' ') => out.push("spaced".into()),
                        _ => {}
                    }
                }
            }
        };
        let dash = |t: &RedirTarget| if *t == RedirTarget::Variable { "-" } else { "" };
        let nonempty = |flag: bool, s: &'static str| if flag { s } else { "" };
        for s in block {
            match s {
                Stmt::Command(c) => {
                    out.push(format!("args:{}", c.words.len() - 1));
                    out.push(match c.words[0].segs() {
                        [Seg::Var(_)] if in_body => "dispatch-in-body".into(),
                        [Seg::Var(_)] => "dispatch".into(),
                        [Seg::Lit(p)] if FUNCTIONS.iter().any(|f| f.0 == p.as_str()) => {
                            format!("call:{p}")
                        }
                        _ => "command".into(),
                    });
                    words(&mut c.words.iter(), out);
                    for r in &c.redirs {
                        let spelt = match r {
                            Redir::In { from, source } => {
                                words(&mut std::iter::once(source), out);
                                format!("{}<", dash(from))
                            }
                            Redir::Out {
                                to, append, both, ..
                            } => format!(
                                "{}>{}{}",
                                dash(to),
                                nonempty(*append, ">"),
                                nonempty(*both, "&")
                            ),
                        };
                        out.push(spelt);
                    }
                }
                Stmt::Assign { value, .. } => {
                    out.push("assign".into());
                    words(&mut std::iter::once(value), out);
                }
                Stmt::Failure => out.push("failure".into()),
                Stmt::Success => out.push("success".into()),
                Stmt::Try { spec, body, catch } => {
                    out.push(format!(
                        "try{}{}{}",
                        nonempty(spec.time.is_some(), ":for"),
                        nonempty(spec.attempts.is_some(), ":times"),
                        nonempty(spec.every.is_some(), ":every")
                    ));
                    shapes(body, in_body, out);
                    shapes(catch.as_deref().unwrap_or_default(), in_body, out);
                }
                Stmt::ForAny { values, body, .. } | Stmt::ForAll { values, body, .. } => {
                    let forany = matches!(s, Stmt::ForAny { .. });
                    out.push(if forany { "forany" } else { "forall" }.into());
                    words(&mut values.iter(), out);
                    shapes(body, in_body, out);
                }
                Stmt::If { cond, then, els } => {
                    out.push(cond.op.spelling().into());
                    words(&mut [&cond.lhs, &cond.rhs].into_iter(), out);
                    shapes(then, in_body, out);
                    shapes(els.as_deref().unwrap_or_default(), in_body, out);
                }
                Stmt::Function { name, body } => {
                    out.push(format!("function:{name}"));
                    shapes(body, true, out);
                }
            }
        }
    }

    #[test]
    fn a_fixed_seed_range_covers_every_shape_deterministically() {
        let mut seen = BTreeSet::new();
        for seed in 0..256 {
            let s = script(seed);
            assert_eq!(s, script(seed), "seed {seed}");
            assert_eq!(pretty(&s), pretty(&script(seed)), "seed {seed}");
            let mut used = Vec::new();
            shapes(&s.stmts, false, &mut used);
            for (f, _) in FUNCTIONS {
                let defs = used
                    .iter()
                    .filter(|u| **u == format!("function:{f}"))
                    .count();
                if defs > 1 {
                    seen.insert("redefinition".to_string());
                }
                if defs > 0 && used.contains(&format!("call:{f}")) {
                    seen.insert("call-defined".to_string());
                }
            }
            seen.extend(used);
        }
        let want = "command assign failure success forany forall function:fa function:fb \
            redefinition call-defined dispatch args:12 try try:for try:times try:for:times \
            try:times:every < -< > >> >& -> ->> ->& ->>& .lt. .le. .gt. .ge. .eq. .ne. .eql. \
            .neql. ${0} ${1} ${2} ${3} ${13} ${*} multi-segment spaced";
        let missing: Vec<_> = want
            .split_whitespace()
            .filter(|w| !seen.contains(*w))
            .collect();
        assert!(missing.is_empty(), "never generated: {missing:?}");
        assert!(!seen.contains("dispatch-in-body"), "a body dispatched");
    }
}
