//! Key-effect inference over compiled bytecode.
//!
//! The workflow checker (`crate::check`) needs to know, for each job
//! script, *which store keys it touches*: what it `publish`es/`put`s
//! (produces), what it `fetch`es/`get`s (consumes), and what it
//! `df`s/`probe`s (senses, the carrier). This module computes those
//! sets by abstract interpretation of the flat bytecode
//! ([`ftsh::bytecode::Prog`]), with a small constant-propagation
//! domain over words:
//!
//! * a slot holds either a bounded **set of candidate strings**
//!   (literals, `name=value` assignments, environment bindings,
//!   `forany`/`forall` loop values) or **⊤** (anything: the result of
//!   an output capture, or a set that outgrew the cap);
//! * a store key is the command's `argv[1..]` joined with single
//!   spaces — exactly what the coordination store indexes on;
//! * the walk is structural: `if` branches fork the state and rejoin
//!   at the recorded join point, `try`/`forany`/`forall` bodies are
//!   walked through the region bounds the enter ops carry, and static
//!   function calls are inlined with positional binding (recursion
//!   falls back to ⊤-opacity).
//!
//! Beyond may-sets the walk tracks a **must-consume** set: keys the
//! script *cannot complete without* fetching. Must-ness follows the
//! discipline of the control structure — see [`KeyEffects::requires`]
//! — and is deliberately an under-approximation, because the checker
//! uses it to prove deadlocks: every key we claim is required really
//! is, on every completing path. Each produce additionally records
//! the must-set at its program point ([`Produce::gated_on`]): keys
//! that must have been consumed *before* the produce can fire, which
//! is what turns a set of per-job summaries into a runtime key graph.

use ftsh::bytecode::{
    compile_cached, CmdTpl, FuncRef, Ip, Op, PosArg, Prog, RedirTpl, SegTpl, WordIx, WordTpl,
    NO_CATCH,
};
use ftsh::Script;
use retry::Dur;
use std::collections::{BTreeSet, HashMap};

/// Candidate-set cap: a set that would grow beyond this collapses to
/// [`AbsVal::Top`]. Keeps cartesian products of mixed words bounded.
const SET_CAP: usize = 16;

/// Inline-call depth cap (recursion is caught exactly by the entry
/// stack; this bounds deep non-recursive chains).
const CALL_DEPTH_CAP: usize = 32;

/// Abstract value of a slot or word: a bounded set of candidate
/// strings, or anything at all.
#[derive(Clone, Debug, PartialEq, Eq)]
enum AbsVal {
    /// One of these strings (≤ [`SET_CAP`] candidates).
    Set(BTreeSet<String>),
    /// Unknown: captured command output, or an overflowed set.
    Top,
}

impl AbsVal {
    fn lit(s: &str) -> AbsVal {
        AbsVal::Set(BTreeSet::from([s.to_string()]))
    }

    fn unset() -> AbsVal {
        AbsVal::lit("")
    }

    /// The single candidate, when there is exactly one.
    fn single(&self) -> Option<&str> {
        match self {
            AbsVal::Set(s) if s.len() == 1 => s.iter().next().map(String::as_str),
            _ => None,
        }
    }

    /// Least upper bound: union of candidates, ⊤ dominating.
    fn join(&self, other: &AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Top, _) | (_, AbsVal::Top) => AbsVal::Top,
            (AbsVal::Set(a), AbsVal::Set(b)) => {
                let u: BTreeSet<String> = a.union(b).cloned().collect();
                if u.len() > SET_CAP {
                    AbsVal::Top
                } else {
                    AbsVal::Set(u)
                }
            }
        }
    }
}

/// One abstract machine state: per-slot values plus the running
/// must-consume set.
#[derive(Clone)]
struct State {
    slots: Vec<AbsVal>,
    musts: BTreeSet<String>,
}

impl State {
    fn merge(mut states: Vec<State>) -> State {
        let mut acc = states.pop().expect("merge of at least one state");
        for st in states {
            for (a, b) in acc.slots.iter_mut().zip(&st.slots) {
                if a != b {
                    *a = a.join(b);
                }
            }
            acc.musts = acc.musts.intersection(&st.musts).cloned().collect();
        }
        acc
    }
}

/// One `publish`/`put` the script may perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Produce {
    /// The store key (argv\[1..\] joined with spaces).
    pub key: String,
    /// Keys that must already have been consumed on every path
    /// reaching this produce: the produce cannot fire until each of
    /// them was fetched. An under-approximation (possibly empty).
    pub gated_on: BTreeSet<String>,
    /// Wall-clock budget of the innermost timed `try` enclosing the
    /// produce — how long the script keeps retrying it — or `None`
    /// when no timed `try` encloses it (one shot, or untimed retries).
    pub retry_budget: Option<Dur>,
}

/// The key-effect summary of one script against one environment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyEffects {
    /// Keys the script may `publish`/`put`, with gating and budget.
    pub produces: Vec<Produce>,
    /// Keys the script may `fetch`/`get`.
    pub consumes: BTreeSet<String>,
    /// Keys the script may `df`/`probe`/`stat`/`sense` (carrier
    /// sensing; reads the directory, never blocks on the key).
    pub senses: BTreeSet<String>,
    /// Keys the script *must* consume to complete: on every statically
    /// completing path, each of these is fetched. Sound for proving
    /// deadlock (a required key nobody can produce stalls the script),
    /// and deliberately conservative — `try`/`catch` bodies,
    /// multi-value `forany` alternatives and unknown calls contribute
    /// nothing.
    pub requires: BTreeSet<String>,
    /// Whether any statically completing path exists at all. `false`
    /// means every path ends in an unhandled `failure` — the script
    /// can only ever fail.
    pub completes: bool,
    /// The summary is incomplete: the walk met a computed command
    /// name, an unresolvable key, a recursive or redefined function,
    /// or a call-depth blowup. May-sets are still lower bounds but the
    /// checker must not trust them as exhaustive.
    pub opaque: bool,
}

/// Infer the key effects of `script` under initial variable bindings
/// `env` (pairs of variable name and value; variables the script
/// never mentions are ignored). Compiles through the process-wide
/// bytecode cache, so summarizing a population of identical scripts
/// compiles once.
#[must_use]
pub fn key_effects(script: &Script, env: &[(&str, &str)]) -> KeyEffects {
    let prog = compile_cached(script);
    let mut func_entries: HashMap<u32, Vec<Ip>> = HashMap::new();
    for op in &prog.ops {
        if let Op::FuncDef { func, entry } = *op {
            func_entries.entry(func).or_default().push(entry);
        }
    }
    let mut st = State {
        slots: vec![AbsVal::unset(); prog.slots.names.len()],
        musts: BTreeSet::new(),
    };
    for (name, value) in env {
        if let Some(&slot) = prog.slots.by_name.get(*name) {
            st.slots[slot as usize] = AbsVal::lit(value);
        }
    }
    let mut w = Walker {
        prog: &prog,
        func_entries,
        effects: KeyEffects::default(),
        try_times: Vec::new(),
        call_stack: Vec::new(),
    };
    let end = prog.ops.len() as Ip;
    w.effects.completes = w.walk(0, end, &mut st, true);
    w.effects.requires = st.musts;
    w.effects.produces.dedup();
    w.effects
}

struct Walker<'p> {
    prog: &'p Prog,
    /// Function id → every `FuncDef` entry that binds it. Calls inline
    /// only through ids with exactly one binding; rebinding is rare
    /// and collapses to opacity.
    func_entries: HashMap<u32, Vec<Ip>>,
    effects: KeyEffects,
    /// Innermost-last stack of enclosing `try` time budgets.
    try_times: Vec<Option<Dur>>,
    /// Entry points of function bodies currently being inlined.
    call_stack: Vec<Ip>,
}

impl Walker<'_> {
    /// Walk the region `[ip, end)` structurally, mutating `st` along
    /// the completing path. Returns whether the region can complete
    /// successfully; `false` means every path through it fails.
    ///
    /// `must` is the must-context flag: only in a must context do
    /// consumed keys extend `st.musts` (and `forall` union its branch
    /// musts in).
    fn walk(&mut self, mut ip: Ip, end: Ip, st: &mut State, must: bool) -> bool {
        while ip < end {
            match self.prog.ops[ip as usize] {
                Op::Success | Op::TryAttempt | Op::FuncDef { .. } | Op::JmpIfFail(_) => ip += 1,
                // `failure` throws; its trailing jump lands on the
                // group's result op with `res = false`.
                Op::Failure => return false,
                // The only jumps a structural walk could meet are
                // fail-edges (the `if`-over-`else` jump is excluded by
                // the branch bounds): the path is a failure path.
                Op::Jmp(_) => return false,
                Op::Assign { slot, value } => {
                    st.slots[slot as usize] = self.eval(value, st);
                    ip += 1;
                }
                Op::EvalCond { cond, .. } => {
                    let tpl = &self.prog.conds[cond as usize];
                    let join = tpl.join;
                    let then_end = tpl.else_ip.map_or(join, |e| e - 1);
                    let mut completing = Vec::new();
                    let mut then_st = st.clone();
                    if self.walk(ip + 1, then_end, &mut then_st, must) {
                        completing.push(then_st);
                    }
                    if let Some(else_ip) = tpl.else_ip {
                        let mut else_st = st.clone();
                        if self.walk(else_ip, join, &mut else_st, must) {
                            completing.push(else_st);
                        }
                    } else {
                        // No else: the false outcome falls straight
                        // through to the join, state untouched.
                        completing.push(st.clone());
                    }
                    if completing.is_empty() {
                        return false;
                    }
                    *st = State::merge(completing);
                    ip = join;
                }
                Op::TryEnter {
                    tri,
                    catch_ip,
                    end_ip,
                } => {
                    self.try_times.push(self.prog.tries[tri as usize].time);
                    let completes = if catch_ip == NO_CATCH {
                        // No catch: the `try` completes iff (some
                        // attempt of) the body completes, so the body
                        // inherits must-ness — on the completing
                        // attempt its musts all happened.
                        self.walk(ip + 2, end_ip - 1, st, must)
                    } else {
                        // With a catch we cannot know which of the two
                        // groups completed, so neither may add musts.
                        let mut body_st = st.clone();
                        let body_ok = self.walk(ip + 2, catch_ip - 1, &mut body_st, false);
                        let mut catch_st = st.clone();
                        let catch_ok = self.walk(catch_ip, end_ip - 1, &mut catch_st, false);
                        let mut completing = Vec::new();
                        if body_ok {
                            completing.push(body_st);
                        }
                        if catch_ok {
                            completing.push(catch_st);
                        }
                        if completing.is_empty() {
                            false
                        } else {
                            *st = State::merge(completing);
                            true
                        }
                    };
                    self.try_times.pop();
                    if !completes {
                        return false;
                    }
                    ip = end_ip;
                }
                Op::ForAnyEnter { list, var, end_ip } => {
                    let values = self.list_values(list, st);
                    if values.is_empty() {
                        return false;
                    }
                    if let [value] = values.as_slice() {
                        // A single alternative is just the body: it
                        // must complete, so it keeps must-context.
                        st.slots[var as usize] = value.clone();
                        if !self.walk(ip + 1, end_ip - 1, st, must) {
                            return false;
                        }
                    } else {
                        // Any one alternative completing suffices —
                        // no single branch's consumes are required.
                        let mut completing = Vec::new();
                        for value in values {
                            let mut branch_st = st.clone();
                            branch_st.slots[var as usize] = value;
                            if self.walk(ip + 1, end_ip - 1, &mut branch_st, false) {
                                completing.push(branch_st);
                            }
                        }
                        if completing.is_empty() {
                            return false;
                        }
                        *st = State::merge(completing);
                    }
                    ip = end_ip;
                }
                Op::ForAllEnter { list, var, end_ip } => {
                    let values = self.list_values(list, st);
                    // Branches run as parallel tasks against a copy of
                    // the parent state; their variable writes do not
                    // merge back, and — because they are concurrent —
                    // one branch's musts must NOT gate another
                    // branch's produces. Walk each from the pre-loop
                    // state and union the musts only afterwards.
                    let base = st.clone();
                    let mut gained: BTreeSet<String> = BTreeSet::new();
                    for value in values {
                        let mut branch_st = base.clone();
                        branch_st.slots[var as usize] = value;
                        if !self.walk(ip + 1, end_ip - 1, &mut branch_st, must) {
                            return false;
                        }
                        gained.extend(branch_st.musts);
                    }
                    // `forall` completes only when every branch did,
                    // so every branch's musts hold at the join.
                    if must {
                        st.musts.extend(gained);
                    }
                    ip = end_ip;
                }
                Op::Cmd(cix) => {
                    if !self.command(cix, st, must) {
                        return false;
                    }
                    ip += 1;
                }
                // Open-ended regions (the root task, a function body)
                // end at their terminator; bounded regions never
                // include theirs.
                Op::TaskEnd | Op::Ret | Op::TryResult | Op::ForAnyResult => return true,
            }
        }
        true
    }

    /// Expand a `forany`/`forall` value list in `st`.
    fn list_values(&self, list: u32, st: &State) -> Vec<AbsVal> {
        self.prog.lists[list as usize]
            .iter()
            .map(|&w| self.eval(w, st))
            .collect()
    }

    /// One command: a store verb, an external no-op, or a function
    /// call to inline. Returns `false` only for calls whose bodies
    /// statically cannot complete.
    fn command(&mut self, cix: u32, st: &mut State, must: bool) -> bool {
        let cmd = &self.prog.cmds[cix as usize];
        match cmd.func {
            FuncRef::Dynamic if crate::check::could_dispatch_function(self.prog, cmd) => {
                // Computed callee whose expansions include a defined
                // function name: anything could run.
                self.effects.opaque = true;
                self.apply_redirs(cmd, st);
                return true;
            }
            FuncRef::Static(id) => {
                return match self.func_entries.get(&id).map(Vec::as_slice) {
                    Some(&[entry]) => self.call(entry, cix, st, must),
                    // Rebound (or never-defined) function name: give
                    // up on precision rather than guess which body.
                    _ => {
                        self.effects.opaque = true;
                        self.apply_redirs(cmd, st);
                        true
                    }
                };
            }
            // A computed argv[0] that provably cannot name a defined
            // function is an ordinary (possibly store-verb) command.
            FuncRef::None | FuncRef::Dynamic => {}
        }
        let argv0 = self.eval(cmd.argv[0], st);
        if let Some(verb) = argv0.single() {
            if let Some(kind) = VerbKind::of(verb) {
                match self.key_candidates(&cmd.argv[1..], st) {
                    None => self.effects.opaque = true,
                    Some(keys) => {
                        let sole = keys.len() == 1;
                        for key in keys {
                            match kind {
                                VerbKind::Produce => self.effects.produces.push(Produce {
                                    key,
                                    gated_on: st.musts.clone(),
                                    retry_budget: self.try_times.iter().rev().find_map(|t| *t),
                                }),
                                VerbKind::Consume => {
                                    // A multi-candidate key means "one
                                    // of these": none individually is
                                    // a must.
                                    if must && sole {
                                        st.musts.insert(key.clone());
                                    }
                                    self.effects.consumes.insert(key);
                                }
                                VerbKind::Sense => {
                                    self.effects.senses.insert(key);
                                }
                            }
                        }
                    }
                }
            }
        } else {
            // Computed command name: it could be any verb on any key.
            self.effects.opaque = true;
        }
        self.apply_redirs(cmd, st);
        true
    }

    /// Inline a static function call: bind positionals to the
    /// evaluated arguments, walk the out-of-line body to its `Ret`,
    /// restore the caller's positionals (named variables stay shared,
    /// as in the VM's dynamic scoping).
    fn call(&mut self, entry: Ip, cix: u32, st: &mut State, must: bool) -> bool {
        if self.call_stack.contains(&entry) || self.call_stack.len() >= CALL_DEPTH_CAP {
            self.effects.opaque = true;
            return true;
        }
        let cmd = &self.prog.cmds[cix as usize];
        let args: Vec<AbsVal> = cmd.argv.iter().map(|&w| self.eval(w, st)).collect();
        let positional = &*self.prog.slots.positional;
        let saved: Vec<(usize, AbsVal)> = positional
            .iter()
            .map(|&(s, _)| (s as usize, st.slots[s as usize].clone()))
            .collect();
        for &(s, which) in positional {
            st.slots[s as usize] = match which {
                PosArg::Star => join_with_spaces(&args[1..]),
                PosArg::Arg(k) => args.get(k).cloned().unwrap_or_else(AbsVal::unset),
                PosArg::Unbound => AbsVal::unset(),
            };
        }
        self.call_stack.push(entry);
        let end = self.prog.ops.len() as Ip;
        let ok = self.walk(entry, end, st, must);
        self.call_stack.pop();
        for (i, v) in saved {
            st.slots[i] = v;
        }
        let cmd = &self.prog.cmds[cix as usize];
        self.apply_redirs(cmd, st);
        ok
    }

    /// Havoc capture targets: `-> var` leaves `var` holding whatever
    /// the command printed.
    fn apply_redirs(&mut self, cmd: &CmdTpl, st: &mut State) {
        let mut havoc_all = false;
        let mut havoc: Vec<usize> = Vec::new();
        for r in &cmd.redirs {
            if let RedirTpl::Out {
                var: true, target, ..
            } = r
            {
                match self.eval(*target, st).single() {
                    Some(name) => match self.prog.slots.by_name.get(name) {
                        Some(&slot) => havoc.push(slot as usize),
                        // Capture into a name with no static slot
                        // (spilled at runtime): any later read of it
                        // routes by name, which we cannot see.
                        None => havoc_all = true,
                    },
                    None => havoc_all = true,
                }
            }
        }
        if havoc_all {
            self.effects.opaque = true;
            for v in &mut st.slots {
                *v = AbsVal::Top;
            }
        } else {
            for slot in havoc {
                st.slots[slot] = AbsVal::Top;
            }
        }
    }

    /// The store keys `argv[1..]` can denote: the cartesian product of
    /// the arguments' candidate sets, joined with single spaces.
    /// `None` when any argument is ⊤ or the product outgrows the cap.
    fn key_candidates(&self, argv: &[WordIx], st: &State) -> Option<Vec<String>> {
        let vals: Vec<AbsVal> = argv.iter().map(|&w| self.eval(w, st)).collect();
        match join_with_spaces(&vals) {
            AbsVal::Set(keys) => Some(keys.into_iter().collect()),
            AbsVal::Top => None,
        }
    }

    /// Evaluate a word template in `st`.
    fn eval(&self, word: WordIx, st: &State) -> AbsVal {
        match &self.prog.words[word as usize] {
            WordTpl::Empty => AbsVal::unset(),
            WordTpl::Lit(s) => AbsVal::lit(s.as_str()),
            WordTpl::Slot(slot) => st.slots[*slot as usize].clone(),
            WordTpl::Mixed(segs) => {
                let mut acc: Vec<String> = vec![String::new()];
                for seg in segs {
                    match seg {
                        SegTpl::Lit(lit) => {
                            for s in &mut acc {
                                s.push_str(lit.as_str());
                            }
                        }
                        SegTpl::Slot(slot) => match &st.slots[*slot as usize] {
                            AbsVal::Top => return AbsVal::Top,
                            AbsVal::Set(vals) => {
                                let mut next = Vec::with_capacity(acc.len() * vals.len());
                                for prefix in &acc {
                                    for v in vals {
                                        next.push(format!("{prefix}{v}"));
                                    }
                                }
                                if next.len() > SET_CAP {
                                    return AbsVal::Top;
                                }
                                acc = next;
                            }
                        },
                    }
                }
                AbsVal::Set(acc.into_iter().collect())
            }
        }
    }
}

/// Cartesian space-join of a sequence of abstract values (the key of
/// a multi-word verb, or `${*}`).
fn join_with_spaces(vals: &[AbsVal]) -> AbsVal {
    let mut acc: Vec<String> = vec![String::new()];
    for (i, v) in vals.iter().enumerate() {
        let AbsVal::Set(cands) = v else {
            return AbsVal::Top;
        };
        let mut next = Vec::with_capacity(acc.len() * cands.len());
        for prefix in &acc {
            for c in cands {
                if i == 0 {
                    next.push(c.clone());
                } else {
                    next.push(format!("{prefix} {c}"));
                }
            }
        }
        if next.len() > SET_CAP {
            return AbsVal::Top;
        }
        acc = next;
    }
    AbsVal::Set(acc.into_iter().collect())
}

/// What a store verb does to its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VerbKind {
    /// `publish`/`put`: the key lands in the store.
    Produce,
    /// `fetch`/`get`: blocks (retries) until the key is present.
    Consume,
    /// `df`/`probe`/`stat`/`sense`: reads the directory without
    /// committing to the key — carrier sensing.
    Sense,
}

impl VerbKind {
    fn of(verb: &str) -> Option<VerbKind> {
        match verb {
            "publish" | "put" => Some(VerbKind::Produce),
            "fetch" | "get" => Some(VerbKind::Consume),
            "df" | "probe" | "stat" | "sense" => Some(VerbKind::Sense),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsh::parse;

    fn effects(src: &str) -> KeyEffects {
        key_effects(&parse(src).unwrap(), &[])
    }

    fn keys(set: &BTreeSet<String>) -> Vec<&str> {
        set.iter().map(String::as_str).collect()
    }

    #[test]
    fn straight_line_verbs_land_in_the_right_sets() {
        let fx = effects("fetch raw\nrun extract\npublish band-a\n");
        assert_eq!(keys(&fx.consumes), ["raw"]);
        assert_eq!(fx.produces.len(), 1);
        assert_eq!(fx.produces[0].key, "band-a");
        assert_eq!(fx.produces[0].retry_budget, None);
        assert!(fx.completes && !fx.opaque);
        // The fetch is unconditional: it is required, and gates the
        // publish.
        assert_eq!(keys(&fx.requires), ["raw"]);
        assert_eq!(keys(&fx.produces[0].gated_on), ["raw"]);
    }

    #[test]
    fn ethernet_dag_job_shape_gates_publish_on_all_inputs() {
        // The exact shape dag_job_script_text generates for a
        // multi-input Ethernet job.
        let fx = effects(
            "try for 600 seconds\n\
               df merge -> n\n\
               if ${n} .lt. 3\n\
                 failure\n\
               else\n\
                 forall dep in band-a band-b band-c\n\
                   try for 60 seconds\n\
                     fetch ${dep}\n\
                   end\n\
                 end\n\
               end\n\
             end\n\
             run merge\n\
             try for 600 seconds\n\
               publish mosaic\n\
             end\n",
        );
        assert_eq!(keys(&fx.consumes), ["band-a", "band-b", "band-c"]);
        assert_eq!(keys(&fx.senses), ["merge"]);
        // The then-branch is `failure`: only the fetching else-branch
        // completes, so every input is a must and gates the publish.
        assert_eq!(keys(&fx.requires), ["band-a", "band-b", "band-c"]);
        assert_eq!(fx.produces.len(), 1);
        let p = &fx.produces[0];
        assert_eq!(p.key, "mosaic");
        assert_eq!(keys(&p.gated_on), ["band-a", "band-b", "band-c"]);
        assert_eq!(p.retry_budget, Some(Dur::from_secs(600)));
        assert!(fx.completes && !fx.opaque);
    }

    #[test]
    fn allreduce_round_keys_resolve_through_the_environment() {
        // allreduce_ethernet_text for 3 ranks, seen by rank r1.
        let src = "compute ${rank} ${round}\n\
                   publish ${rank} ${round}\n\
                   try for 600 seconds\n\
                     probe ${round} -> n\n\
                     if ${n} .lt. 3\n\
                       failure\n\
                     else\n\
                       forall peer in r0 r1 r2\n\
                         try for 60 seconds\n\
                           fetch ${peer} ${round}\n\
                         end\n\
                       end\n\
                     end\n\
                   end\n";
        let fx = key_effects(&parse(src).unwrap(), &[("rank", "r1"), ("round", "2")]);
        assert_eq!(fx.produces.len(), 1);
        assert_eq!(fx.produces[0].key, "r1 2");
        // publish precedes the barrier: it is not gated on the round's
        // fetches.
        assert!(fx.produces[0].gated_on.is_empty());
        assert_eq!(keys(&fx.consumes), ["r0 2", "r1 2", "r2 2"]);
        assert_eq!(keys(&fx.requires), ["r0 2", "r1 2", "r2 2"]);
        assert_eq!(keys(&fx.senses), ["2"]);
    }

    #[test]
    fn try_catch_disarms_musts() {
        let fx = effects(
            "try 2 times\n\
               fetch optional\n\
             catch\n\
               run fallback\n\
             end\n\
             publish out\n",
        );
        assert_eq!(keys(&fx.consumes), ["optional"]);
        // The catch can complete instead: the fetch is not required
        // and must not gate the publish.
        assert!(fx.requires.is_empty());
        assert!(fx.produces[0].gated_on.is_empty());
    }

    #[test]
    fn forany_alternatives_are_may_not_must() {
        let fx = effects(
            "forany src in east west\n\
               fetch ${src}\n\
             end\n\
             publish out\n",
        );
        assert_eq!(keys(&fx.consumes), ["east", "west"]);
        assert!(fx.requires.is_empty(), "either alternative suffices");
        assert!(fx.produces[0].gated_on.is_empty());
    }

    #[test]
    fn single_value_forany_is_a_must() {
        let fx = effects("forany src in east\n  fetch ${src}\nend\n");
        assert_eq!(keys(&fx.requires), ["east"]);
    }

    #[test]
    fn parallel_branches_do_not_gate_each_other() {
        let fx = effects(
            "forall side in left right\n\
               fetch ${side}-in\n\
               publish ${side}-out\n\
             end\n",
        );
        // Each branch's publish is gated on its own fetch only — the
        // branches are concurrent.
        for p in &fx.produces {
            let want = p.key.replace("-out", "-in");
            assert_eq!(keys(&p.gated_on), [want.as_str()], "produce {}", p.key);
        }
        // But the forall completing means both fetches happened.
        assert_eq!(keys(&fx.requires), ["left-in", "right-in"]);
    }

    #[test]
    fn never_completing_script_says_so() {
        let fx = effects("fetch a\nfailure\n");
        assert!(!fx.completes);
        assert_eq!(keys(&fx.consumes), ["a"]);
    }

    #[test]
    fn captures_make_keys_opaque_not_wrong() {
        let fx = effects("pick -> key\nfetch ${key}\n");
        assert!(fx.opaque, "a captured key cannot be resolved");
        assert!(fx.consumes.is_empty());
    }

    #[test]
    fn computed_command_name_is_opaque() {
        let fx = effects("verb=put\n${verb} somekey\n");
        // Constant propagation resolves the assignment, so this one is
        // actually precise…
        assert!(!fx.opaque);
        assert_eq!(fx.produces[0].key, "somekey");
        // …but a captured verb is not.
        let fx = effects("pick -> verb\n${verb} somekey\n");
        assert!(fx.opaque);
    }

    #[test]
    fn functions_inline_with_positional_binding() {
        let fx = effects(
            "function grab\n\
               try for 60 seconds\n\
                 fetch ${1}\n\
               end\n\
             end\n\
             grab alpha\n\
             grab beta\n\
             publish out\n",
        );
        assert_eq!(keys(&fx.consumes), ["alpha", "beta"]);
        assert_eq!(keys(&fx.requires), ["alpha", "beta"]);
        assert_eq!(keys(&fx.produces[0].gated_on), ["alpha", "beta"]);
        assert!(!fx.opaque);
    }

    #[test]
    fn recursion_collapses_to_opacity() {
        let fx = effects(
            "function spin\n\
               fetch k\n\
               spin\n\
             end\n\
             spin\n",
        );
        assert!(fx.opaque);
        // Effects seen before the cycle are still reported.
        assert_eq!(keys(&fx.consumes), ["k"]);
    }

    #[test]
    fn if_joins_slot_states() {
        let fx = effects(
            "k=a\n\
             if ${x} .eq. 1\n\
               k=b\n\
             end\n\
             fetch ${k}\n",
        );
        assert_eq!(keys(&fx.consumes), ["a", "b"]);
        // Two candidates: neither is individually required.
        assert!(fx.requires.is_empty());
    }
}
