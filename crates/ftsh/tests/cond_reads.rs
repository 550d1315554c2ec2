//! A numeric condition reads its operands without the float parser
//! where it can: up to 15 ASCII digits are read as an integer, and a
//! literal operand is read once, when the script compiles. These tests
//! hold both shortcuts to what they replace, `str::parse::<f64>` on
//! the trimmed text: over a seeded sweep of operands, every numeric
//! operator gives the same verdict, or the same error.

use ftsh::ast::{Block, Command, Cond, CondOp, Stmt, Word};
use ftsh::cond::CondError;
use ftsh::{eval_cond_values, Env, Script, Vm, VmDriver};

const NUMERIC: [CondOp; 6] = [
    CondOp::NumLt,
    CondOp::NumLe,
    CondOp::NumGt,
    CondOp::NumGe,
    CondOp::NumEq,
    CondOp::NumNe,
];

/// The numeric operators as they were written before the shortcuts:
/// both sides trimmed and parsed as `f64`, the left first.
fn oracle(op: CondOp, lhs: &str, rhs: &str) -> Result<bool, CondError> {
    let num = |s: &str| {
        s.trim().parse::<f64>().map_err(|_| CondError {
            operand: s.to_string(),
        })
    };
    let (l, r) = (num(lhs)?, num(rhs)?);
    Ok(match op {
        CondOp::NumLt => l < r,
        CondOp::NumLe => l <= r,
        CondOp::NumGt => l > r,
        CondOp::NumGe => l >= r,
        CondOp::NumEq => l == r,
        CondOp::NumNe => l != r,
        CondOp::StrEq | CondOp::StrNe => unreachable!(),
    })
}

/// SplitMix64: a seeded stream, so a failure names its case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// One operand: 1–17 digits (leading zeros, the 15/16-digit edge),
/// around them signs, decimals, exponents and whitespace, or a
/// special: `inf`, `nan`, non-ASCII digits, the empty string, words.
fn operand(rng: &mut Rng) -> String {
    const SPECIAL: &[&str] = &[
        "",
        " ",
        "inf",
        "-inf",
        "+Infinity",
        "NaN",
        "nan",
        "INF",
        "٣",
        "１２",
        "1٣",
        "12a",
        "many",
        "0x10",
        "1_000",
        ".",
        "e5",
        "+",
        "-",
        "999999999999999",
        "1000000000000000",
        "9007199254740993",
        "00000000000000000",
    ];
    const SIGN: &[&str] = &["", "", "", "+", "-", "--", "+-"];
    const FRACTION: &[&str] = &["", "", "", ".", ".5", ".000", ".25"];
    const EXPONENT: &[&str] = &["", "", "", "e3", "E-2", "e", "e+400", "e-400"];
    const SPACE: &[&str] = &["", "", "", " ", "\t", "\n", "  ", "\u{a0}", "\u{3000}"];
    let body = if rng.below(5) == 0 {
        rng.pick(SPECIAL).to_string()
    } else {
        let digits = 1 + rng.below(17);
        let zeros = if rng.below(4) == 0 {
            rng.below(digits)
        } else {
            0
        };
        let mut s = String::new();
        s.push_str(rng.pick(SIGN));
        for i in 0..digits {
            let d = if i < zeros { 0 } else { rng.below(10) };
            s.push(char::from(b'0' + d as u8));
        }
        if rng.below(3) == 0 {
            s.push_str(rng.pick(FRACTION));
            s.push_str(rng.pick(EXPONENT));
        }
        s
    };
    format!("{}{body}{}", rng.pick(SPACE), rng.pick(SPACE))
}

#[test]
fn numeric_operators_read_operands_as_the_float_parser_does() {
    let mut rng = Rng(0x5eed);
    for case in 0..20_000 {
        let (l, r) = (operand(&mut rng), operand(&mut rng));
        for op in NUMERIC {
            assert_eq!(
                eval_cond_values(op, &l, &r),
                oracle(op, &l, &r),
                "case {case}: {l:?} {} {r:?}",
                op.spelling()
            );
        }
    }
}

/// `if <lhs> <op> <rhs>` running `yes` or `no`, as a script.
fn if_script(lhs: Word, op: CondOp, rhs: Word) -> Script {
    let run = |name: &str| {
        Block::new(vec![Stmt::Command(Command {
            words: vec![Word::lit(name)],
            redirs: Vec::new(),
        })])
    };
    Script {
        stmts: Block::new(vec![Stmt::If {
            cond: Cond { lhs, op, rhs },
            then: run("yes"),
            els: Some(run("no")),
        }]),
    }
}

#[test]
fn the_interpreter_reads_literal_and_expanded_operands_alike() {
    // Each side as a literal (read at compile time) and as a variable
    // (read at each evaluation): the command that runs, if any, is the
    // oracle's verdict.
    let mut rng = Rng(0xc0de);
    for case in 0..1_500 {
        let (l, r) = (operand(&mut rng), operand(&mut rng));
        let op = NUMERIC[rng.below(NUMERIC.len())];
        let want: &[&str] = match oracle(op, &l, &r) {
            Ok(true) => &["yes"],
            Ok(false) => &["no"],
            Err(_) => &[],
        };
        let mut env = Env::new();
        env.set("l", l.as_str());
        env.set("r", r.as_str());
        for (lhs, rhs) in [
            (Word::lit(l.as_str()), Word::lit(r.as_str())),
            (Word::lit(l.as_str()), Word::var("r")),
            (Word::var("l"), Word::lit(r.as_str())),
            (Word::var("l"), Word::var("r")),
        ] {
            let shape = format!("{lhs:?} {} {rhs:?}", op.spelling());
            let vm = Vm::with_env_seed(&if_script(lhs, op, rhs), env.clone(), 1);
            let mut ran = Vec::new();
            VmDriver::new(vm).run_to_completion(|spec| {
                ran.push(spec.program().to_string());
                Ok(String::new())
            });
            assert_eq!(ran, want, "case {case}: {shape} with l={l:?}, r={r:?}");
        }
    }
}
