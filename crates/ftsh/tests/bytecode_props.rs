//! Differential property test for the interpreter: random (bounded)
//! scripts are pretty-printed, reparsed, compiled, and then driven in
//! lockstep on the tree-walking oracle (`ftsh::tree`) and on `Vm` with
//! a scripted command oracle. At every tick the two machines must
//! produce the *identical* effect stream — same tokens, same argv,
//! same redirections, same cancels, same status and wake time — and at
//! the end the same outcome, the same final environment and the same
//! log summary. This is the mechanical form of DESIGN.md §12's
//! equivalence argument.
//!
//! The bytecode VM may first run part of a throwaway unit of the same
//! script and then [`Vm::restart`]: a restarted VM must be
//! indistinguishable from a fresh one, whether the throwaway unit
//! succeeded, failed, or was cut off with commands in flight and
//! `forall` branches open.

use ftsh::ast::{Command, Cond, CondOp, Redir, RedirTarget, Script, Stmt, TrySpec, Word};
use ftsh::tree::TreeVm;
use ftsh::vm::{CmdResult, Effect, Vm, VmStatus};
use ftsh::{parse, pretty, Env};
use proptest::prelude::*;
use retry::{Dur, Time};
use std::collections::BTreeMap;

/// Words that would change meaning under print → reparse when they
/// land in command or variable position.
const KEYWORDS: &[&str] = &[
    "try", "end", "catch", "forany", "forall", "if", "else", "in", "function", "failure",
    "success", "every", "times", "for", "or",
];

/// The functions generated scripts define, as the regex of names a
/// context may call. A body calls only names after its own and never
/// dispatches through a variable, so no script recurses (a recursion
/// without commands would spin inside one tick; the depth guard has its
/// own lockstep case).
const TOP_CALLEES: &str = "fa|fb";
const FA_CALLEES: &str = "fb";
const FB_CALLEES: &str = "";

fn ident(regex: &'static str) -> impl Strategy<Value = String> {
    regex.prop_filter("keyword", |s| {
        !KEYWORDS.contains(&s.as_str()) && s != "fa" && s != "fb"
    })
}

fn arb_word() -> impl Strategy<Value = Word> {
    prop_oneof![
        4 => ident("[a-z]{1,6}").prop_map(Word::lit),
        4 => ident("[a-z]{1,4}").prop_map(Word::var),
        // Positionals: the name, bound arguments, one past any call's
        // last, and the joined rest.
        2 => "0|1|2|3|13|\\*".prop_map(Word::var),
        // What a variable must hold for `-< ${v}` to name a positional
        // or for `${v} a b` to reach a function.
        1 => "1|2|\\*|fa|fb".prop_map(Word::lit),
    ]
}

/// A command — to an external program, to one of `callees`, or (at top
/// level) through a variable — with 0 to 3 or 12 arguments, an optional
/// `->`/`->>`/`->&` variable capture and an optional `-<` read of the
/// variable a word names at run time, so redirection lowering, the I/O
/// transaction paths and the call path get exercised.
fn arb_cmd(callees: &'static str) -> impl Strategy<Value = Stmt> {
    // Zero-weight arms are never drawn.
    let calls = 2 * u32::from(!callees.is_empty());
    let dispatch = u32::from(callees == TOP_CALLEES);
    let program = prop_oneof![
        3 => ident("[a-z]{1,6}").prop_map(Word::lit),
        calls => callees.prop_map(Word::lit),
        dispatch => ident("[a-z]{1,4}").prop_map(Word::var),
    ];
    (
        program,
        prop_oneof![
            9 => proptest::collection::vec(arb_word(), 0..4),
            1 => proptest::collection::vec(arb_word(), 12..13),
        ],
        proptest::option::of((ident("[a-z]{1,4}"), any::<bool>(), any::<bool>())),
        // The read's source is a name computed at run time; a literal
        // positional name reaches arguments the body never mentions.
        proptest::option::of(prop_oneof![
            2 => arb_word(),
            3 => "0|1|2|\\*".prop_map(Word::lit),
        ]),
    )
        .prop_map(|(p, mut args, capture, input)| {
            let mut words = vec![p];
            words.append(&mut args);
            let mut redirs: Vec<Redir> = input
                .map(|source| Redir::In {
                    from: RedirTarget::Variable,
                    source,
                })
                .into_iter()
                .collect();
            redirs.extend(capture.map(|(var, append, both)| Redir::Out {
                to: RedirTarget::Variable,
                append,
                both,
                target: Word::lit(var),
            }));
            Stmt::Command(Command { words, redirs })
        })
}

fn arb_assign() -> impl Strategy<Value = Stmt> {
    (ident("[a-z]{1,4}"), arb_word()).prop_map(|(var, value)| Stmt::Assign { var, value })
}

/// Statements whose `try` budgets are always bounded, so every script
/// terminates under any executor (mirrors `vm_fuzz`).
fn arb_stmt(depth: u32, callees: &'static str) -> BoxedStrategy<Stmt> {
    if depth == 0 {
        prop_oneof![
            5 => arb_cmd(callees),
            2 => arb_assign(),
            1 => Just(Stmt::Failure),
            1 => Just(Stmt::Success),
        ]
        .boxed()
    } else {
        let body = || proptest::collection::vec(arb_stmt(depth - 1, callees), 0..3);
        let try_s = (1u32..4, 0u64..20, body(), proptest::option::of(body())).prop_map(
            |(attempts, secs, b, c)| Stmt::Try {
                spec: TrySpec {
                    time: Some(Dur::from_secs(secs + 1)),
                    attempts: Some(attempts),
                    every: None,
                    ..TrySpec::default()
                },
                body: b.into(),
                catch: c.map(Into::into),
            },
        );
        let forany = (
            ident("[a-z]{1,3}"),
            proptest::collection::vec(arb_word(), 1..3),
            body(),
        )
            .prop_map(|(var, values, body)| Stmt::ForAny {
                var,
                values,
                body: body.into(),
            });
        let forall = (
            ident("[a-z]{1,3}"),
            proptest::collection::vec(arb_word(), 1..3),
            body(),
        )
            .prop_map(|(var, values, body)| Stmt::ForAll {
                var,
                values,
                body: body.into(),
            });
        let ifs = (arb_word(), arb_word(), body(), proptest::option::of(body())).prop_map(
            |(l, r, t, e)| Stmt::If {
                cond: Cond {
                    lhs: l,
                    op: CondOp::StrEq,
                    rhs: r,
                },
                then: t.into(),
                els: e.map(Into::into),
            },
        );
        // Functions are defined (and redefined) only at top level.
        let define = |name: &'static str, callees| {
            proptest::collection::vec(arb_stmt(depth - 1, callees), 0..3).prop_map(move |b| {
                Stmt::Function {
                    name: name.into(),
                    body: b.into(),
                }
            })
        };
        let funcs = u32::from(callees == TOP_CALLEES);
        prop_oneof![
            4 => arb_cmd(callees),
            2 => arb_assign(),
            2 => try_s,
            2 => forany,
            2 => forall,
            1 => ifs,
            1 => Just(Stmt::Failure),
            funcs => define("fa", FA_CALLEES),
            funcs => define("fb", FB_CALLEES),
        ]
        .boxed()
    }
}

/// Drive `vm` alone for at most `steps` ticks, completing its commands
/// in an order and with results drawn from `bits`. It stops right after
/// a tick, so a unit cut off mid-run has what that tick started still
/// in flight; a unit that ends is asked for its final environment, so
/// the VM caches one.
fn run_prefix(vm: &mut Vm, mut bits: u64, steps: u32) {
    let mut now = Time::ZERO;
    let mut pending: Vec<u64> = Vec::new();
    let mut wake = None;
    for _ in 0..steps {
        if !pending.is_empty() {
            let token = pending.remove(bits as usize % pending.len());
            let result = if bits & 1 == 1 {
                CmdResult::ok("warm\n")
            } else {
                CmdResult::fail()
            };
            bits = bits.rotate_right(3) ^ 0x5DEE_CE66;
            vm.complete(token, result);
        } else if let Some(w) = wake {
            now = now.max(w);
        }
        let tick = vm.tick(now);
        for e in tick.effects {
            match e {
                Effect::Start { token, .. } => pending.push(token),
                Effect::Cancel { token } => pending.retain(|&p| p != token),
            }
        }
        match tick.status {
            VmStatus::Done { .. } => {
                let _ = vm.env();
                return;
            }
            VmStatus::Running { next_wake } => wake = next_wake,
        }
    }
}

fn final_bindings(env: &Env) -> BTreeMap<String, String> {
    env.iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn bytecode_effect_stream_matches_tree_walker(
        stmts in proptest::collection::vec(arb_stmt(2, TOP_CALLEES), 1..5),
        seed in any::<u64>(),
        outcome_bits in any::<u64>(),
        order_bits in any::<u64>(),
        warmup in proptest::option::of((any::<u64>(), 0u32..12)),
    ) {
        let script = Script { stmts: stmts.into() };
        // Print → reparse first: the corpus on disk reaches the
        // compiler through the parser, so the property must too.
        let text = pretty(&script);
        let reparsed = match parse(&text) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError::fail(format!("pretty output must reparse: {e}\n{text}"))),
        };

        let mut tree = TreeVm::with_env_seed(&reparsed, Env::new(), seed);
        let mut byte = match warmup {
            None => Vm::with_seed(&reparsed, seed),
            Some((bits, steps)) => {
                let mut env = Env::new();
                env.set("warm", "up");
                let mut vm = Vm::with_env_seed(&reparsed, env, bits);
                run_prefix(&mut vm, bits, steps);
                vm.restart(Env::new(), seed);
                vm
            }
        };

        let mut flips = outcome_bits;
        let mut next_flip = || {
            let b = flips & 1 == 1;
            flips = flips.rotate_right(1) ^ 0x9E37_79B9;
            b
        };
        let mut order = order_bits;
        let mut next_ix = |len: usize| {
            let ix = (order as usize) % len;
            order = order.rotate_right(7) ^ 0x1234_5678;
            ix
        };

        let mut now = Time::ZERO;
        let mut pending: Vec<u64> = Vec::new();
        let mut done = false;
        for _ in 0..10_000u32 {
            let t = tree.tick(now);
            let b = byte.tick(now);
            prop_assert_eq!(
                &t.effects, &b.effects,
                "effect streams diverge at {:?}\n{}", now, &text
            );
            prop_assert_eq!(t.status, b.status, "status diverges at {:?}\n{}", now, &text);
            for e in t.effects {
                match e {
                    Effect::Start { token, .. } => pending.push(token),
                    Effect::Cancel { token } => pending.retain(|&p| p != token),
                }
            }
            match t.status {
                VmStatus::Done { success } => {
                    prop_assert_eq!(tree.outcome(), byte.outcome());
                    prop_assert_eq!(tree.outcome(), Some(success));
                    prop_assert_eq!(
                        final_bindings(tree.env()), final_bindings(byte.env()),
                        "final environments diverge\n{}", &text
                    );
                    prop_assert_eq!(
                        tree.log().summary(), byte.log().summary(),
                        "log summaries diverge\n{}", &text
                    );
                    done = true;
                    break;
                }
                VmStatus::Running { next_wake } => {
                    if pending.is_empty() {
                        let w = next_wake.expect("running with nothing to wait on");
                        now = now.max(w);
                    } else {
                        // Complete one pending command — same token,
                        // same result, on both machines, in an order
                        // scripted by the oracle bits.
                        let token = pending.remove(next_ix(pending.len()));
                        let result = if next_flip() {
                            CmdResult::ok("out\n")
                        } else {
                            CmdResult::fail()
                        };
                        tree.complete(token, result.clone());
                        byte.complete(token, result);
                    }
                }
            }
        }
        prop_assert!(done, "vm did not terminate\n{}", &text);
    }
}
