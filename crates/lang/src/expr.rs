//! Integer expressions inside directives.
//!
//! The paper's directives size blocks with expressions over problem
//! parameters: `DISTRIBUTE row(BLOCK( (n+NP-1)/NP ))`. Expressions are
//! parsed into [`Expr`] and evaluated against an environment binding the
//! free identifiers (`n`, `NP`, ...) at elaboration time.

use std::collections::BTreeMap;
use std::fmt;

/// An integer expression over named parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    Num(i64),
    Var(String),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    /// Integer (truncating) division, as Fortran's `/` on integers.
    Div(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
}

/// Evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    UnboundVariable(String),
    DivisionByZero,
    Negative(i64),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound parameter '{v}'"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::Negative(v) => write!(f, "expression evaluated to negative value {v}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Parameter bindings, case-insensitive on lookup (Fortran heritage:
/// `NP` and `np` are the same name in the paper's listings).
#[derive(Debug, Clone, Default)]
pub struct Env {
    vars: BTreeMap<String, i64>,
}

impl Env {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn bind(mut self, name: &str, value: i64) -> Self {
        self.vars.insert(name.to_ascii_lowercase(), value);
        self
    }

    pub fn set(&mut self, name: &str, value: i64) {
        self.vars.insert(name.to_ascii_lowercase(), value);
    }

    pub fn get(&self, name: &str) -> Option<i64> {
        self.vars.get(&name.to_ascii_lowercase()).copied()
    }
}

impl Expr {
    /// Evaluate against `env`.
    pub fn eval(&self, env: &Env) -> Result<i64, EvalError> {
        Ok(match self {
            Expr::Num(v) => *v,
            Expr::Var(name) => env
                .get(name)
                .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?,
            Expr::Add(a, b) => a.eval(env)? + b.eval(env)?,
            Expr::Sub(a, b) => a.eval(env)? - b.eval(env)?,
            Expr::Mul(a, b) => a.eval(env)? * b.eval(env)?,
            Expr::Div(a, b) => {
                let d = b.eval(env)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                a.eval(env)? / d
            }
            Expr::Neg(a) => -a.eval(env)?,
        })
    }

    /// Evaluate, requiring a non-negative result (extents, block sizes).
    pub fn eval_unsigned(&self, env: &Env) -> Result<usize, EvalError> {
        let v = self.eval(env)?;
        if v < 0 {
            Err(EvalError::Negative(v))
        } else {
            Ok(v as usize)
        }
    }

    /// Free variables referenced (lowercased), in order of appearance.
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Num(_) => {}
            Expr::Var(v) => {
                let lower = v.to_ascii_lowercase();
                if !out.contains(&lower) {
                    out.push(lower);
                }
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Neg(a) => a.collect_vars(out),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(v) => write!(f, "{v}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a}+{b})"),
            Expr::Sub(a, b) => write!(f, "({a}-{b})"),
            Expr::Mul(a, b) => write!(f, "({a}*{b})"),
            Expr::Div(a, b) => write!(f, "({a}/{b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: i64) -> Expr {
        Expr::Num(v)
    }
    fn var(s: &str) -> Expr {
        Expr::Var(s.into())
    }

    #[test]
    fn evaluates_paper_block_size() {
        // (n + NP - 1) / NP with n = 10, NP = 4 -> 3.
        let e = Expr::Div(
            Box::new(Expr::Sub(
                Box::new(Expr::Add(Box::new(var("n")), Box::new(var("NP")))),
                Box::new(n(1)),
            )),
            Box::new(var("NP")),
        );
        let env = Env::new().bind("n", 10).bind("np", 4);
        assert_eq!(e.eval(&env).unwrap(), 3);
    }

    #[test]
    fn case_insensitive_lookup() {
        let env = Env::new().bind("NP", 8);
        assert_eq!(var("np").eval(&env).unwrap(), 8);
        assert_eq!(var("Np").eval(&env).unwrap(), 8);
    }

    #[test]
    fn unbound_variable_error() {
        let err = var("ghost").eval(&Env::new()).unwrap_err();
        assert_eq!(err, EvalError::UnboundVariable("ghost".into()));
    }

    #[test]
    fn division_by_zero_detected() {
        let e = Expr::Div(Box::new(n(5)), Box::new(n(0)));
        assert_eq!(e.eval(&Env::new()).unwrap_err(), EvalError::DivisionByZero);
    }

    #[test]
    fn unsigned_rejects_negative() {
        let e = Expr::Sub(Box::new(n(1)), Box::new(n(5)));
        assert_eq!(
            e.eval_unsigned(&Env::new()).unwrap_err(),
            EvalError::Negative(-4)
        );
        assert_eq!(n(7).eval_unsigned(&Env::new()).unwrap(), 7);
    }

    #[test]
    fn negation_and_display() {
        let e = Expr::Neg(Box::new(Expr::Add(Box::new(n(2)), Box::new(var("k")))));
        assert_eq!(e.eval(&Env::new().bind("k", 3)).unwrap(), -5);
        assert_eq!(e.to_string(), "(-(2+k))");
    }

    #[test]
    fn free_vars_deduplicated_lowercase() {
        let e = Expr::Add(
            Box::new(var("NP")),
            Box::new(Expr::Mul(Box::new(var("np")), Box::new(var("n")))),
        );
        assert_eq!(e.free_vars(), vec!["np".to_string(), "n".to_string()]);
    }

    #[test]
    fn integer_division_truncates() {
        let e = Expr::Div(Box::new(n(7)), Box::new(n(2)));
        assert_eq!(e.eval(&Env::new()).unwrap(), 3);
    }
}
