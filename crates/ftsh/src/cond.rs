//! Evaluation of `if` comparisons.
//!
//! Numeric operators (`.lt.`, `.gt.`, …) read both operands as
//! numbers; a non-numeric operand makes the comparison itself *fail*
//! like any other command — the failure is untyped and can be caught by
//! an enclosing `try`, in keeping with the language's philosophy that
//! anything that can go wrong is an ordinary failure.

use crate::ast::{Cond, CondOp};
use crate::words::Env;

/// Why a comparison could not be evaluated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CondError {
    /// The operand text that failed to parse as a number.
    pub operand: String,
}

impl std::fmt::Display for CondError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not a number: '{}'", self.operand)
    }
}

impl std::error::Error for CondError {}

/// Evaluate a condition against an environment.
pub fn eval_cond(cond: &Cond, env: &Env) -> Result<bool, CondError> {
    let lhs = env.expand(&cond.lhs);
    let rhs = env.expand(&cond.rhs);
    eval_cond_values(cond.op, &lhs, &rhs)
}

/// Evaluate a comparison whose operands are already expanded.
/// [`eval_cond`] expands through [`Env`]; the interpreter expands
/// through its slot table — both funnel into this one definition of
/// the operators.
pub fn eval_cond_values(op: CondOp, lhs: &str, rhs: &str) -> Result<bool, CondError> {
    match op {
        CondOp::StrEq => Ok(lhs == rhs),
        CondOp::StrNe => Ok(lhs != rhs),
        numeric => Ok(compare(numeric, parse_num(lhs)?, parse_num(rhs)?)),
    }
}

/// [`eval_cond_values`] for a compiled condition: a side whose value
/// the compiler already read (`nums`, see
/// [`CondTpl::nums`](crate::bytecode::CondTpl::nums)) is not read
/// again. The left side is still read first.
pub(crate) fn eval_compiled(
    op: CondOp,
    nums: [Option<f64>; 2],
    lhs: &str,
    rhs: &str,
) -> Result<bool, CondError> {
    if !op.is_numeric() {
        return eval_cond_values(op, lhs, rhs);
    }
    let read = |num: Option<f64>, text| num.map_or_else(|| parse_num(text), Ok);
    Ok(compare(op, read(nums[0], lhs)?, read(nums[1], rhs)?))
}

/// Apply numeric operator `op` to two numbers already read.
fn compare(op: CondOp, l: f64, r: f64) -> bool {
    match op {
        CondOp::NumLt => l < r,
        CondOp::NumLe => l <= r,
        CondOp::NumGt => l > r,
        CondOp::NumGe => l >= r,
        CondOp::NumEq => l == r,
        CondOp::NumNe => l != r,
        CondOp::StrEq | CondOp::StrNe => unreachable!("not a numeric operator"),
    }
}

/// Read a numeric operand: `s`, trimmed, as an `f64`. Up to 15 ASCII
/// digits — what a world's count answer or a script's threshold is —
/// are read as an integer, which is exact in an `f64` and so equal to
/// what the float parser returns; anything else goes to the float
/// parser.
pub(crate) fn parse_num(s: &str) -> Result<f64, CondError> {
    let t = s.trim();
    if (1..=15).contains(&t.len()) && t.bytes().all(|b| b.is_ascii_digit()) {
        let n = t.bytes().fold(0u64, |n, b| n * 10 + u64::from(b - b'0'));
        return Ok(n as f64);
    }
    t.parse::<f64>().map_err(|_| CondError {
        operand: s.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Word;

    fn cond(l: &str, op: CondOp, r: &str) -> Cond {
        Cond {
            lhs: Word::lit(l),
            op,
            rhs: Word::lit(r),
        }
    }

    #[test]
    fn numeric_comparisons() {
        let env = Env::new();
        assert_eq!(
            eval_cond(&cond("999", CondOp::NumLt, "1000"), &env),
            Ok(true)
        );
        assert_eq!(
            eval_cond(&cond("1000", CondOp::NumLt, "1000"), &env),
            Ok(false)
        );
        assert_eq!(
            eval_cond(&cond("1000", CondOp::NumLe, "1000"), &env),
            Ok(true)
        );
        assert_eq!(eval_cond(&cond("2", CondOp::NumGt, "1"), &env), Ok(true));
        assert_eq!(eval_cond(&cond("1", CondOp::NumGe, "1"), &env), Ok(true));
        assert_eq!(eval_cond(&cond("3", CondOp::NumEq, "3.0"), &env), Ok(true));
        assert_eq!(eval_cond(&cond("3", CondOp::NumNe, "4"), &env), Ok(true));
    }

    #[test]
    fn string_comparisons() {
        let env = Env::new();
        assert_eq!(
            eval_cond(&cond("abc", CondOp::StrEq, "abc"), &env),
            Ok(true)
        );
        assert_eq!(
            eval_cond(&cond("abc", CondOp::StrNe, "abd"), &env),
            Ok(true)
        );
        // Strings that happen to be numbers compare as text under .eql.
        assert_eq!(eval_cond(&cond("3", CondOp::StrEq, "3.0"), &env), Ok(false));
    }

    #[test]
    fn variables_expand_before_comparing() {
        let mut env = Env::new();
        env.set("n", "842");
        let c = Cond {
            lhs: Word::var("n"),
            op: CondOp::NumLt,
            rhs: Word::lit("1000"),
        };
        assert_eq!(eval_cond(&c, &env), Ok(true));
    }

    #[test]
    fn whitespace_tolerated_in_numbers() {
        let env = Env::new();
        assert_eq!(eval_cond(&cond(" 5 ", CondOp::NumEq, "5"), &env), Ok(true));
    }

    #[test]
    fn non_numeric_operand_is_an_error() {
        let env = Env::new();
        let e = eval_cond(&cond("many", CondOp::NumLt, "1000"), &env);
        assert_eq!(
            e,
            Err(CondError {
                operand: "many".into()
            })
        );
        // Unset variable expands to "" which is not a number.
        let c = Cond {
            lhs: Word::var("unset"),
            op: CondOp::NumLt,
            rhs: Word::lit("1"),
        };
        assert!(eval_cond(&c, &env).is_err());
    }
}
