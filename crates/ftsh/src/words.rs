//! Shell variables and word expansion.
//!
//! ftsh keeps variables in the interpreter itself (not the process
//! environment): they are the target of the `->` capture redirections,
//! the binding of `forany`/`forall` loop variables, and the operands of
//! `if` comparisons. Unset variables expand to the empty string, as in
//! the Bourne shell.
//!
//! Names and values are interned ([`Istr`]), which makes the two hot
//! expansion shapes allocation-free: a fully-literal word clones the
//! `Istr` stored in the AST, and a bare `${var}` word clones the value
//! stored in the environment. Only genuinely mixed words (literal text
//! around a substitution) build a fresh string.

use crate::ast::{Seg, Word};
use crate::intern::Istr;
use std::collections::HashMap;

/// A variable scope. Cloned for `forall` branches so that branch-local
/// mutations stay branch-local (branches are notionally separate
/// processes); the clone copies the table but shares every name and
/// value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Env {
    vars: HashMap<Istr, Istr>,
}

impl Env {
    /// An empty scope.
    pub fn new() -> Env {
        Env::default()
    }

    /// Look up a variable; unset variables read as `""`.
    pub fn get(&self, name: &str) -> &str {
        self.vars.get(name).map(Istr::as_str).unwrap_or("")
    }

    /// Look up a variable as its shared handle (`None` when unset).
    pub fn get_istr(&self, name: &str) -> Option<&Istr> {
        self.vars.get(name)
    }

    /// Whether the variable has been set.
    pub fn is_set(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }

    /// Bind a variable.
    pub fn set(&mut self, name: impl Into<Istr>, value: impl Into<Istr>) {
        self.vars.insert(name.into(), value.into());
    }

    /// Append to a variable (the `->>` capture form).
    pub fn append(&mut self, name: &str, value: &str) {
        match self.vars.get_mut(name) {
            Some(v) => {
                let mut joined = String::with_capacity(v.len() + value.len());
                joined.push_str(v);
                joined.push_str(value);
                *v = Istr::from(joined);
            }
            None => {
                self.vars.insert(Istr::from(name), Istr::from(value));
            }
        }
    }

    /// Remove a binding.
    pub fn unset(&mut self, name: &str) {
        self.vars.remove(name);
    }

    /// Number of bindings (for diagnostics).
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Iterate every binding (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&Istr, &Istr)> {
        self.vars.iter()
    }

    /// True when no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Snapshot the positional bindings (`0`–`99…`, `*`) for a
    /// function call.
    pub fn snapshot_positionals(&self) -> Vec<(Istr, Istr)> {
        self.vars
            .iter()
            .filter(|(k, _)| k.as_str() == "*" || k.chars().all(|c| c.is_ascii_digit()))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Remove every positional binding.
    pub fn clear_positionals(&mut self) {
        self.vars
            .retain(|k, _| k.as_str() != "*" && !k.chars().all(|c| c.is_ascii_digit()));
    }

    /// Expand a word against this scope. Literal words and bare
    /// `${var}` words are refcount bumps; only mixed words allocate.
    pub fn expand(&self, w: &Word) -> Istr {
        match w.segs() {
            [] => Istr::empty(),
            [Seg::Lit(s)] => s.clone(),
            [Seg::Var(v)] => self.get_istr(v).cloned().unwrap_or_default(),
            segs => {
                let mut out = String::new();
                for seg in segs {
                    match seg {
                        Seg::Lit(l) => out.push_str(l),
                        Seg::Var(v) => out.push_str(self.get(v)),
                    }
                }
                Istr::from(out)
            }
        }
    }

    /// Expand a slice of words.
    pub fn expand_all(&self, ws: &[Word]) -> Vec<Istr> {
        ws.iter().map(|w| self.expand(w)).collect()
    }
}

/// Trim *all* trailing newlines (including CRLF pairs) from captured
/// command output, as Bourne command substitution does. Interior
/// newlines are preserved.
pub fn trim_capture(s: &str) -> &str {
    s.trim_end_matches(['\n', '\r'])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_reads_empty() {
        let env = Env::new();
        assert_eq!(env.get("nope"), "");
        assert!(!env.is_set("nope"));
    }

    #[test]
    fn set_get_unset() {
        let mut env = Env::new();
        env.set("host", "xxx");
        assert_eq!(env.get("host"), "xxx");
        assert!(env.is_set("host"));
        env.unset("host");
        assert!(!env.is_set("host"));
    }

    #[test]
    fn append_creates_and_extends() {
        let mut env = Env::new();
        env.append("log", "a");
        env.append("log", "b");
        assert_eq!(env.get("log"), "ab");
    }

    #[test]
    fn expansion_mixes_segments() {
        let mut env = Env::new();
        env.set("server", "yyy");
        let w = Word::from_segs(vec![
            Seg::Lit("http://".into()),
            Seg::Var("server".into()),
            Seg::Lit("/file".into()),
        ]);
        assert_eq!(env.expand(&w), "http://yyy/file");
    }

    #[test]
    fn expansion_of_unset_is_empty() {
        let env = Env::new();
        assert_eq!(env.expand(&Word::var("missing")), "");
    }

    #[test]
    fn single_segment_expansions_share_storage() {
        let mut env = Env::new();
        env.set("n", "842");
        // Bare-variable expansion returns the stored handle itself.
        let stored = env.get_istr("n").cloned().unwrap();
        assert_eq!(env.expand(&Word::var("n")), stored);
        // Literal expansion returns the AST's handle.
        let w = Word::lit("condor_submit");
        assert_eq!(env.expand(&w), "condor_submit");
    }

    #[test]
    fn clone_isolates_scopes() {
        let mut parent = Env::new();
        parent.set("x", "1");
        let mut child = parent.clone();
        child.set("x", "2");
        child.set("y", "3");
        assert_eq!(parent.get("x"), "1");
        assert!(!parent.is_set("y"));
    }

    #[test]
    fn trim_capture_variants() {
        assert_eq!(trim_capture("1234\n"), "1234");
        assert_eq!(trim_capture("1234\r\n"), "1234");
        assert_eq!(trim_capture("1234"), "1234");
        assert_eq!(trim_capture("a\nb\n"), "a\nb");
        assert_eq!(trim_capture(""), "");
        // Bourne command substitution strips every trailing newline,
        // not just the last one.
        assert_eq!(trim_capture("1234\n\n\n"), "1234");
        assert_eq!(trim_capture("a\r\n\r\n"), "a");
        assert_eq!(trim_capture("a\nb\n\n"), "a\nb");
        assert_eq!(trim_capture("\n\n"), "");
        assert_eq!(trim_capture("abc\r"), "abc");
        assert_eq!(trim_capture("a\r\nb"), "a\r\nb");
    }
}
