//! Restarted GMRES — the "longer recurrences" alternative.
//!
//! Section 2.1: "More complex algorithms such as GMRES make use of longer
//! recurrences (which require greater storage)." GMRES(m) builds an
//! m-dimensional Krylov basis with Arnoldi orthogonalisation (m + O(1)
//! stored n-vectors versus CG's four) and minimises the residual over it
//! via Givens rotations on the Hessenberg matrix. Implemented here so
//! the storage/robustness trade-off the paper alludes to is measurable.

use crate::cg::{dot, norm2};
use crate::error::SolverError;
use crate::operator::SerialOperator;
use crate::stopping::{SolveStats, StopCriterion};

/// Restarted GMRES(m).
///
/// `restart` is the Krylov dimension between restarts (the paper's
/// "longer recurrences": storage grows linearly with it); 0 is refused
/// with [`SolverError::ZeroRestart`].
pub fn gmres<A: SerialOperator + ?Sized>(
    a: &A,
    b: &[f64],
    restart: usize,
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(Vec<f64>, SolveStats), SolverError> {
    let n = a.dim();
    if b.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            got: b.len(),
        });
    }
    if restart == 0 {
        return Err(SolverError::ZeroRestart);
    }
    let m = restart.min(n);
    let mut stats = SolveStats::new();
    let b_norm = norm2(b);
    stats.dots += 1;

    let mut x = vec![0.0; n];
    loop {
        // r = b - A x.
        let ax = a.apply(&x);
        stats.matvecs += 1;
        let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, ai)| bi - ai).collect();
        let beta = norm2(&r);
        stats.dots += 1;
        stats.residual_norm = beta;
        if stop.satisfied(beta, b_norm) {
            stats.converged = true;
            return Ok((x, stats));
        }
        if stats.iterations >= max_iters {
            return Ok((x, stats));
        }

        // Arnoldi basis V and Hessenberg H (column-major, m+1 x m).
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        v.push(r.iter().map(|ri| ri / beta).collect());
        let mut h = vec![vec![0.0f64; m + 1]; m]; // h[j][i]
                                                  // Givens rotation parameters and the rotated rhs `g`.
        let mut cs = vec![0.0f64; m];
        let mut sn = vec![0.0f64; m];
        let mut g = vec![0.0f64; m + 1];
        g[0] = beta;

        let mut k_used = 0usize;
        for j in 0..m {
            if stats.iterations >= max_iters {
                break;
            }
            // w = A v_j, then modified Gram–Schmidt.
            let mut w = a.apply(&v[j]);
            stats.matvecs += 1;
            for (i, vi) in v.iter().enumerate() {
                let hij = dot(&w, vi);
                stats.dots += 1;
                h[j][i] = hij;
                for (wk, vk) in w.iter_mut().zip(vi.iter()) {
                    *wk -= hij * vk;
                }
                stats.axpys += 1;
            }
            let h_next = norm2(&w);
            stats.dots += 1;
            h[j][j + 1] = h_next;

            // Apply previous Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * h[j][i] + sn[i] * h[j][i + 1];
                h[j][i + 1] = -sn[i] * h[j][i] + cs[i] * h[j][i + 1];
                h[j][i] = t;
            }
            // New rotation to annihilate h[j][j+1].
            let (c, s) = {
                let (p, q) = (h[j][j], h[j][j + 1]);
                let d = (p * p + q * q).sqrt();
                if d == 0.0 {
                    (1.0, 0.0)
                } else {
                    (p / d, q / d)
                }
            };
            cs[j] = c;
            sn[j] = s;
            h[j][j] = c * h[j][j] + s * h[j][j + 1];
            h[j][j + 1] = 0.0;
            g[j + 1] = -s * g[j];
            g[j] *= c;

            stats.iterations += 1;
            k_used = j + 1;
            stats.residual_norm = g[j + 1].abs();
            let lucky_breakdown = h_next < 1e-14 * b_norm.max(1.0);
            if stop.satisfied(stats.residual_norm, b_norm) || lucky_breakdown {
                break;
            }
            v.push(w.iter().map(|wk| wk / h_next).collect());
        }

        // Solve the k x k upper-triangular system H y = g.
        let k = k_used;
        if k == 0 {
            return Ok((x, stats));
        }
        let mut y = vec![0.0f64; k];
        for i in (0..k).rev() {
            let mut s = g[i];
            for j in (i + 1)..k {
                s -= h[j][i] * y[j];
            }
            if h[i][i].abs() < f64::MIN_POSITIVE * 1e16 {
                return Err(SolverError::Breakdown {
                    what: "H(i,i)",
                    value: h[i][i],
                });
            }
            y[i] = s / h[i][i];
        }
        // x += V y.
        for (j, yj) in y.iter().enumerate() {
            for (xi, vij) in x.iter_mut().zip(v[j].iter()) {
                *xi += yj * vij;
            }
        }
        stats.axpys += k;

        if stop.satisfied(stats.residual_norm, b_norm) {
            // Recompute the true residual to confirm (restart loop top
            // would do it anyway; this avoids one extra cycle).
            let ax = a.apply(&x);
            stats.matvecs += 1;
            let true_res = b
                .iter()
                .zip(ax.iter())
                .map(|(bi, ai)| (bi - ai) * (bi - ai))
                .sum::<f64>()
                .sqrt();
            stats.residual_norm = true_res;
            if stop.satisfied(true_res, b_norm) {
                stats.converged = true;
                return Ok((x, stats));
            }
        }
    }
}

/// Stored n-vectors of GMRES(m): the basis (m+1) plus x, r, w — the
/// "greater storage" of the paper's remark, versus CG's 4.
pub fn gmres_storage_vectors(restart: usize) -> usize {
    restart + 1 + 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_sparse::{gen, CooMatrix, CsrMatrix};

    fn residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x).unwrap();
        let d: f64 = ax
            .iter()
            .zip(b.iter())
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        d / norm2(b).max(1e-300)
    }

    fn nonsymmetric(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.8).unwrap();
                coo.push(i + 1, i, -0.2).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn gmres_solves_spd() {
        let a = gen::poisson_2d(8, 8);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (x, stats) = gmres(&a, &b, 30, StopCriterion::RelativeResidual(1e-10), 2000).unwrap();
        assert!(stats.converged, "{stats:?}");
        assert!(residual(&a, &x, &b) < 1e-8);
    }

    #[test]
    fn gmres_solves_strongly_nonsymmetric() {
        // A strongly non-normal (but numerically tractable) upper
        // bidiagonal system: GMRES handles what makes CGS misbehave.
        let n = 30;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, 1.5).unwrap();
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let b = vec![1.0; n];
        let (x, stats) = gmres(&a, &b, n, StopCriterion::RelativeResidual(1e-8), 10 * n).unwrap();
        assert!(stats.converged, "{stats:?}");
        assert!(residual(&a, &x, &b) < 1e-6);
    }

    #[test]
    fn gmres_full_converges_within_n_iterations() {
        let a = nonsymmetric(30);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (_, stats) = gmres(&a, &b, 30, StopCriterion::RelativeResidual(1e-12), 60).unwrap();
        assert!(stats.converged);
        assert!(stats.iterations <= 30, "{}", stats.iterations);
    }

    #[test]
    fn restarting_trades_storage_for_iterations() {
        let a = gen::poisson_2d(10, 10);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-8);
        let (_, s_small) = gmres(&a, &b, 5, stop, 10_000).unwrap();
        let (_, s_large) = gmres(&a, &b, 50, stop, 10_000).unwrap();
        assert!(s_small.converged && s_large.converged);
        assert!(
            s_large.iterations <= s_small.iterations,
            "GMRES(50) {} vs GMRES(5) {}",
            s_large.iterations,
            s_small.iterations
        );
        // And the storage ledger shows why (the paper's remark).
        assert!(gmres_storage_vectors(50) > gmres_storage_vectors(5));
        assert_eq!(gmres_storage_vectors(5), 9);
    }

    #[test]
    fn gmres_dimension_check_and_zero_rhs() {
        let a = nonsymmetric(10);
        assert!(matches!(
            gmres(&a, &[1.0; 3], 5, StopCriterion::RelativeResidual(1e-8), 10),
            Err(SolverError::DimensionMismatch { .. })
        ));
        let (x, stats) =
            gmres(&a, &[0.0; 10], 5, StopCriterion::RelativeResidual(1e-8), 10).unwrap();
        assert!(stats.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    /// As the distributed driver: a typed error, not an `assert!`.
    #[test]
    fn gmres_with_a_zero_restart_is_a_typed_error() {
        let a = nonsymmetric(10);
        let out = gmres(&a, &[1.0; 10], 0, StopCriterion::RelativeResidual(1e-8), 10);
        assert!(matches!(out, Err(SolverError::ZeroRestart)), "{out:?}");
    }

    #[test]
    fn gmres_nonconvergence_reported() {
        let a = gen::poisson_2d(10, 10);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (_, stats) = gmres(&a, &b, 3, StopCriterion::RelativeResidual(1e-14), 4).unwrap();
        assert!(!stats.converged);
        assert!(stats.iterations <= 4 + 3);
    }
}
