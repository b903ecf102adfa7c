//! Solver error type.

use std::fmt;

/// Errors from solver setup or numerical breakdown.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The operator is not square.
    NotSquare { rows: usize, cols: usize },
    /// Right-hand side length does not match the operator.
    DimensionMismatch { expected: usize, got: usize },
    /// A required property fails (e.g. CG on a non-symmetric matrix).
    NotSymmetric,
    /// Division by a (near-)zero inner product: the iteration broke down
    /// (e.g. `p·Ap ≈ 0` in CG on an indefinite system, `rho ≈ 0` in
    /// BiCG/CGS).
    Breakdown { what: &'static str, value: f64 },
    /// A matrix factorisation failed (singular pivot in LU, negative
    /// pivot in Cholesky).
    SingularMatrix { pivot: usize, value: f64 },
    /// A non-finite value (NaN or infinity) appeared in the recurrence —
    /// overflow, or injected corruption that slipped past recovery.
    NonFinite { what: &'static str, value: f64 },
    /// The residual failed to drop by the required factor over a
    /// trailing window of iterations (see
    /// `StopCriterion::Stagnation`).
    Stagnation {
        iterations: usize,
        window: usize,
        residual_norm: f64,
    },
    /// Checkpoint/rollback recovery gave up: corruption kept being
    /// detected after the maximum number of rollbacks.
    RecoveryExhausted {
        rollbacks: usize,
        residual_norm: f64,
    },
    /// GMRES was asked for a restart length of 0; it needs at least 1.
    ZeroRestart,
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NotSquare { rows, cols } => {
                write!(f, "operator must be square, got {rows}x{cols}")
            }
            SolverError::DimensionMismatch { expected, got } => {
                write!(f, "rhs has length {got}, operator expects {expected}")
            }
            SolverError::NotSymmetric => write!(f, "CG requires a symmetric operator"),
            SolverError::Breakdown { what, value } => {
                write!(f, "iteration breakdown: {what} = {value:e}")
            }
            SolverError::SingularMatrix { pivot, value } => {
                write!(f, "singular matrix: pivot {pivot} = {value:e}")
            }
            SolverError::NonFinite { what, value } => {
                write!(f, "non-finite value in iteration: {what} = {value}")
            }
            SolverError::Stagnation {
                iterations,
                window,
                residual_norm,
            } => write!(
                f,
                "residual stagnated at {residual_norm:e} over a window of \
                 {window} iterations (after {iterations} iterations)"
            ),
            SolverError::RecoveryExhausted {
                rollbacks,
                residual_norm,
            } => write!(
                f,
                "recovery exhausted after {rollbacks} rollbacks \
                 (residual {residual_norm:e})"
            ),
            SolverError::ZeroRestart => {
                write!(f, "GMRES needs a restart length of at least 1")
            }
        }
    }
}

impl std::error::Error for SolverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(SolverError::NotSquare { rows: 3, cols: 4 }
            .to_string()
            .contains("3x4"));
        assert!(SolverError::Breakdown {
            what: "p.Ap",
            value: 0.0
        }
        .to_string()
        .contains("p.Ap"));
        assert!(SolverError::SingularMatrix {
            pivot: 2,
            value: 1e-300
        }
        .to_string()
        .contains("pivot 2"));
        assert!(SolverError::NonFinite {
            what: "residual norm",
            value: f64::NAN
        }
        .to_string()
        .contains("residual norm"));
        assert!(SolverError::Stagnation {
            iterations: 40,
            window: 20,
            residual_norm: 1e-3
        }
        .to_string()
        .contains("window of 20"));
        assert!(SolverError::RecoveryExhausted {
            rollbacks: 9,
            residual_norm: 1.0
        }
        .to_string()
        .contains("9 rollbacks"));
    }
}
