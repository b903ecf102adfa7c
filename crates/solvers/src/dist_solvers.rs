//! BiCG, BiCGSTAB, CGS and GMRES, and the preconditioned-CG aliases.
//!
//! These run over [`DistVector`]s and a [`DistOperator`], so the
//! simulated machine is charged for everything the data layout induces —
//! including the layout-dependent cost of BiCG's `Aᵀ` products — and on
//! one processor they are the serial programs. Each is reached through
//! [`solve`]; every vector a recurrence needs is allocated before its
//! first iteration.

use crate::cg::check_breakdown;
use crate::error::SolverError;
use crate::krylov::{solve, Krylov, Run};
use crate::observer::{IterSample, NullObserver};
use crate::operator::DistOperator;
use crate::precond::{DistPreconditioner, JacobiPreconditioner};
use crate::stopping::{SolveStats, StopCriterion};
use hpf_core::DistVector;
use hpf_machine::{span, Machine};

/// BiCG. Section 2.1: it uses "two mutually orthogonal sequences of
/// residuals. This requires three extra vectors to be stored ... [and]
/// two matrix-vector multiply operations one of which uses the matrix
/// transpose Aᵀ, and therefore any storage distribution optimisations
/// made on the basis of row access vs. column access will be negated".
/// Both products of an iteration write into vectors the solve keeps.
pub(crate) fn bicg<A: DistOperator + ?Sized>(
    run: &mut Run<'_>,
    a: &A,
) -> Result<DistVector, SolverError> {
    let desc = a.descriptor();
    let mut x = DistVector::zeros(desc.clone());
    let mut r = run.b.clone();
    let mut r_hat = run.b.clone();
    let mut p = r.clone();
    let mut p_hat = r_hat.clone();

    run.measure_b();
    let mut rho = run.dot(&r_hat, &r);
    let res = run.dot(&r, &r).sqrt();
    if run.converged(res)? {
        return Ok(x);
    }

    let mut q = DistVector::zeros(desc.clone());
    let mut q_hat = DistVector::zeros(desc);
    let mut scratch = Vec::new();
    run.begin_iterations();
    for k in 0..run.max_iters {
        let _iter_span = span::enter_iter(k);
        check_breakdown("rho", rho)?;
        run.matvec(a, &p, &mut q, &mut scratch);
        {
            let _s = span::enter("matvec-transpose");
            a.apply_transpose_into(run.machine, &p_hat, &mut q_hat, &mut scratch);
        }
        run.stats.transpose_matvecs += 1;
        let pq = run.dot(&p_hat, &q);
        check_breakdown("p_hat.Ap", pq)?;
        let alpha = rho / pq;
        x.axpy(run.machine, alpha, &p);
        r.axpy(run.machine, -alpha, &q);
        r_hat.axpy(run.machine, -alpha, &q_hat);
        run.stats.axpys += 3;
        let res = run.dot(&r, &r).sqrt();
        let sample = run.end_iteration(res, alpha);
        if run.converged(res)? {
            run.obs.on_iteration(&sample);
            return Ok(x);
        }
        let rho_new = run.dot(&r_hat, &r);
        let beta = rho_new / rho;
        run.obs.on_iteration(&IterSample { beta, ..sample });
        rho = rho_new;
        p.aypx(run.machine, beta, &r);
        p_hat.aypx(run.machine, beta, &r_hat);
        run.stats.axpys += 2;
    }
    Ok(x)
}

/// BiCGSTAB (Section 2.1: two products, no `Aᵀ`, but "four inner
/// products, so will have a greater demand for an efficient intrinsic
/// for this than basic CG"): [`solve`] by [`Krylov::Bicgstab`],
/// unobserved.
pub fn bicgstab_distributed<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError> {
    let method = Krylov::Bicgstab;
    let s = solve(machine, a, b, method, stop, max_iters, &mut NullObserver)?;
    Ok((s.x, s.stats))
}

pub(crate) fn bicgstab<A: DistOperator + ?Sized>(
    run: &mut Run<'_>,
    a: &A,
) -> Result<DistVector, SolverError> {
    let desc = a.descriptor();
    let mut x = DistVector::zeros(desc.clone());
    let mut r = run.b.clone();
    let r_hat = run.b.clone();
    let mut p = r.clone();

    run.measure_b();
    let mut rho = run.dot(&r_hat, &r);
    let res = rho.sqrt().abs();
    if run.converged(res)? {
        return Ok(x);
    }

    let mut v = DistVector::zeros(desc.clone());
    let mut s = DistVector::zeros(desc.clone());
    let mut t = DistVector::zeros(desc);
    let mut scratch = Vec::new();
    run.begin_iterations();
    for k in 0..run.max_iters {
        let _iter_span = span::enter_iter(k);
        check_breakdown("rho", rho)?;
        run.matvec(a, &p, &mut v, &mut scratch);
        let rv = run.dot(&r_hat, &v);
        check_breakdown("r_hat.Ap", rv)?;
        let alpha = rho / rv;
        s.copy_from(&r);
        s.axpy(run.machine, -alpha, &v);
        run.stats.axpys += 1;
        let s_norm = run.dot(&s, &s).sqrt();
        if run.observe(s_norm)? {
            x.axpy(run.machine, alpha, &p);
            run.stats.axpys += 1;
            let sample = run.end_iteration(s_norm, alpha);
            run.obs.on_iteration(&sample);
            run.stats.converged = true;
            return Ok(x);
        }
        run.matvec(a, &s, &mut t, &mut scratch);
        let tt = run.dot(&t, &t);
        check_breakdown("t.t", tt)?;
        let omega = run.dot(&t, &s) / tt;
        check_breakdown("omega", omega)?;
        x.axpy(run.machine, alpha, &p);
        x.axpy(run.machine, omega, &s);
        r.copy_from(&s);
        r.axpy(run.machine, -omega, &t);
        run.stats.axpys += 3;
        let res = run.dot(&r, &r).sqrt();
        let sample = run.end_iteration(res, alpha);
        if run.converged(res)? {
            run.obs.on_iteration(&sample);
            return Ok(x);
        }
        let rho_new = run.dot(&r_hat, &r);
        let beta = (rho_new / rho) * (alpha / omega);
        run.obs.on_iteration(&IterSample { beta, ..sample });
        rho = rho_new;
        // p = r + beta (p - omega v)
        p.axpy(run.machine, -omega, &v);
        p.aypx(run.machine, beta, &r);
        run.stats.axpys += 2;
    }
    Ok(x)
}

/// CGS. Section 2.1: it "avoids using Aᵀ operations but also
/// requires additional vectors of storage over the basic CG ... [and] can
/// have some undesirable numerical properties such as actual divergence
/// or irregular rates of convergence" — which the residual monitor turns
/// into a typed error. `r̂ = b`, and the first iteration starts from
/// `u = p = r`. One sample an iteration, before the convergence test;
/// CGS has no `beta` until the next iteration, so it is `NaN`.
pub(crate) fn cgs<A: DistOperator + ?Sized>(
    run: &mut Run<'_>,
    a: &A,
) -> Result<DistVector, SolverError> {
    let desc = a.descriptor();
    let mut x = DistVector::zeros(desc.clone());
    let mut r = run.b.clone();
    let r_hat = run.b.clone();

    run.measure_b();
    // x = 0, so ‖r‖ is ‖b‖.
    if run.converged(run.b_norm)? {
        return Ok(x);
    }

    let [mut u, mut p, mut q, mut v, mut uq, mut auq] =
        std::array::from_fn(|_| DistVector::zeros(desc.clone()));
    let mut scratch = Vec::new();
    let mut rho = f64::NAN;
    run.begin_iterations();
    for k in 0..run.max_iters {
        let _iter_span = span::enter_iter(k);
        let rho_new = run.dot(&r_hat, &r);
        check_breakdown("rho", rho_new)?;
        u.copy_from(&r);
        if k == 0 {
            p.copy_from(&u);
        } else {
            // u = r + beta q;  p = u + beta (q + beta p)
            let beta = rho_new / rho;
            u.axpy(run.machine, beta, &q);
            p.aypx(run.machine, beta, &q);
            p.aypx(run.machine, beta, &u);
            run.stats.axpys += 3;
        }
        rho = rho_new;
        run.matvec(a, &p, &mut v, &mut scratch);
        let sigma = run.dot(&r_hat, &v);
        check_breakdown("r_hat.Ap", sigma)?;
        let alpha = rho / sigma;
        q.copy_from(&u);
        q.axpy(run.machine, -alpha, &v);
        run.stats.axpys += 1;
        uq.copy_from(&u);
        uq.axpy(run.machine, 1.0, &q);
        run.matvec(a, &uq, &mut auq, &mut scratch);
        x.axpy(run.machine, alpha, &uq);
        r.axpy(run.machine, -alpha, &auq);
        run.stats.axpys += 2;
        let res = run.dot(&r, &r).sqrt();
        let sample = run.end_iteration(res, alpha);
        run.obs.on_iteration(&sample);
        if run.converged(res)? {
            return Ok(x);
        }
    }
    Ok(x)
}

/// Jacobi-preconditioned CG. The preconditioner application
/// `z = D⁻¹ r` is an aligned element-wise operation — zero communication,
/// as the paper's alignment discipline guarantees.
pub fn pcg_jacobi_distributed<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError> {
    let m = JacobiPreconditioner::from_operator(a)?;
    pcg_preconditioned_distributed(machine, a, &m, b, stop, max_iters)
}

/// Distributed CG preconditioned by any [`DistPreconditioner`]:
/// [`solve`] by [`Krylov::Cg`] with `precond`, unobserved. The
/// preconditioner application runs under a `precondition` span so its
/// machine events (smoother compute, halo exchanges, level transfers)
/// are attributable in the trace.
pub fn pcg_preconditioned_distributed<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    m: &dyn DistPreconditioner,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError> {
    let method = Krylov::Cg {
        precond: Some(m),
        recovery: None,
    };
    let s = solve(machine, a, b, method, stop, max_iters, &mut NullObserver)?;
    Ok((s.x, s.stats))
}

/// Restarted GMRES(m).
///
/// The paper's "longer recurrences (which require greater storage)"
/// remark becomes concrete here: the Krylov basis is `m + 1` *distributed*
/// vectors, and every Arnoldi step performs `j + 1` inner products —
/// each a `t_startup·log N_P` merge on the simulated machine, so GMRES's
/// per-iteration communication grows with the basis where CG's is flat.
/// One sample per Arnoldi step carries the Givens residual estimate;
/// GMRES has no single alpha/beta, so those fields are `NaN`.
pub(crate) fn gmres<A: DistOperator + ?Sized>(
    run: &mut Run<'_>,
    a: &A,
    restart: usize,
) -> Result<DistVector, SolverError> {
    // No cycle gets further than `max_iters` steps, so neither does the
    // basis allocated below.
    let m = restart.min(a.dim()).min(run.max_iters);
    let desc = a.descriptor();
    run.measure_b();
    let mut x = DistVector::zeros(desc.clone());

    // The basis, the Hessenberg columns, the rotations and the product's
    // scratch are sized once; `v[j + 1]` is where step j's `w` is built.
    let mut v = vec![DistVector::zeros(desc.clone()); m + 1];
    let mut ax = DistVector::zeros(desc);
    let mut scratch = Vec::new();
    let mut h = vec![vec![0.0f64; m + 1]; m];
    let mut cs = vec![0.0f64; m];
    let mut sn = vec![0.0f64; m];
    let mut g = vec![0.0f64; m + 1];
    let mut y = vec![0.0f64; m];

    loop {
        // r = b - A x.
        let beta = run.true_residual(a, &x, &mut ax, &mut scratch, &mut v[0]);
        if run.converged(beta)? || run.stats.iterations >= run.max_iters {
            return Ok(x);
        }
        v[0].scale(run.machine, 1.0 / beta);
        g[0] = beta;

        run.begin_iterations();
        let mut k = 0usize;
        for j in 0..m {
            if run.stats.iterations >= run.max_iters {
                break;
            }
            let _iter_span = span::enter_iter(run.stats.iterations);
            let (basis, rest) = v.split_at_mut(j + 1);
            let w = &mut rest[0];
            run.matvec(a, &basis[j], w, &mut scratch);
            for (i, vi) in basis.iter().enumerate() {
                let hij = {
                    let _s = span::enter("dot");
                    run.dot(w, vi)
                };
                h[j][i] = hij;
                w.axpy(run.machine, -hij, vi);
                run.stats.axpys += 1;
            }
            let h_next = run.dot(w, w).sqrt();
            h[j][j + 1] = h_next;
            for i in 0..j {
                let t = cs[i] * h[j][i] + sn[i] * h[j][i + 1];
                h[j][i + 1] = -sn[i] * h[j][i] + cs[i] * h[j][i + 1];
                h[j][i] = t;
            }
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
            k = j + 1;
            let sample = run.end_iteration(g[j + 1].abs(), f64::NAN);
            run.obs.on_iteration(&sample);
            let lucky = h_next < 1e-14 * run.b_norm.max(1.0);
            if run.observe(sample.residual_norm)? || lucky {
                break;
            }
            w.scale(run.machine, 1.0 / h_next);
        }

        if k == 0 {
            return Ok(x);
        }
        for i in (0..k).rev() {
            let mut s = g[i];
            for j in (i + 1)..k {
                s -= h[j][i] * y[j];
            }
            check_breakdown("H(i,i)", h[i][i])?;
            y[i] = s / h[i][i];
        }
        for (vj, &yj) in v.iter().zip(&y[..k]) {
            x.axpy(run.machine, yj, vj);
            run.stats.axpys += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{ColwiseOperator, CscVariant};
    use hpf_core::{ColwiseCsc, DataArrayLayout, RowwiseCsr};
    use hpf_machine::{CostModel, Topology};
    use hpf_sparse::{gen, CooMatrix, CscMatrix, CsrMatrix};

    fn machine(np: usize) -> Machine {
        Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
    }

    fn nonsymmetric(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.5).unwrap();
                coo.push(i + 1, i, -0.5).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x).unwrap();
        let num: f64 = ax
            .iter()
            .zip(b.iter())
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        num / den.max(1e-300)
    }

    #[test]
    fn distributed_bicg_transpose_cost_depends_on_layout() {
        // §2.1: through the row layout A^T pays a vector merge; through
        // the column layout it's one allgather. Same numerics, different
        // simulated comm time.
        let a = nonsymmetric(128);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-8);
        let np = 8;

        let mut m_row = machine(np);
        let row_op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
        let bicg = |m: &mut Machine, op: &dyn DistOperator| {
            let s = solve(m, op, &b, Krylov::Bicg, stop, 2000, &mut NullObserver).unwrap();
            (s.x, s.stats)
        };
        let (xr, sr) = bicg(&mut m_row, &row_op);

        let mut m_col = machine(np);
        let col_op = ColwiseOperator {
            inner: ColwiseCsc::block(CscMatrix::from_csr(&a), np),
            variant: CscVariant::Temp2d,
        };
        let (xc, sc) = bicg(&mut m_col, &col_op);

        assert!(sr.converged && sc.converged);
        assert!(residual(&a, &xr.to_global(), &b) < 1e-7);
        assert!(residual(&a, &xc.to_global(), &b) < 1e-7);
        // Neither striping escapes: the forward product is cheap where
        // the transpose is dear and vice versa (this is the "negated
        // optimisations" claim — both layouts pay a merge somewhere).
        let t_row_fwd: f64 = m_row.trace().with_label("s1-bcast-p").map(|e| e.time).sum();
        let t_row_t: f64 = m_row
            .trace()
            .with_label("s1t-merge-q")
            .map(|e| e.time)
            .sum();
        assert!(t_row_t > t_row_fwd, "{t_row_t} vs {t_row_fwd}");
    }

    #[test]
    fn distributed_bicgstab_solves_without_transpose() {
        let a = nonsymmetric(80);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-9);
        let np = 4;
        let mut m = machine(np);
        let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
        let (x, stats) = bicgstab_distributed(&mut m, &op, &b, stop, 2000).unwrap();
        assert!(stats.converged);
        assert_eq!(stats.transpose_matvecs, 0);
        assert!(residual(&a, &x.to_global(), &b) < 1e-8);
        // Four-plus dot merges per iteration hit the machine.
        let reduces = m.trace().count(hpf_machine::EventKind::AllReduce);
        assert!(reduces >= 4 * stats.iterations);
    }

    #[test]
    fn distributed_jacobi_pcg_no_extra_comm_per_apply() {
        // Badly scaled SPD system.
        let base = gen::poisson_2d(8, 8);
        let n = base.n_rows();
        let mut coo = CooMatrix::new(n, n);
        let scale = |i: usize| 10f64.powi((i % 5) as i32 - 2);
        for i in 0..n {
            for (j, v) in base.row(i) {
                coo.push(i, j, v * scale(i) * scale(j)).unwrap();
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-8);
        let np = 4;

        let mut m_plain = machine(np);
        let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
        let (_, s_plain) = crate::cg_distributed(&mut m_plain, &op, &b, stop, 100 * n).unwrap();
        let mut m_pcg = machine(np);
        let (x, s_pcg) = pcg_jacobi_distributed(&mut m_pcg, &op, &b, stop, 100 * n).unwrap();
        assert!(s_pcg.converged);
        assert!(s_pcg.iterations < s_plain.iterations);
        assert!(residual(&a, &x.to_global(), &b) < 1e-7);
        // The Jacobi applications themselves moved zero words.
        let jacobi_words: usize = m_pcg
            .trace()
            .with_label("jacobi-apply")
            .map(|e| e.words)
            .sum();
        assert_eq!(jacobi_words, 0);
    }

    #[test]
    fn distributed_gmres_dot_merges_grow_with_basis() {
        // GMRES's per-iteration dot count grows with the basis position;
        // on the machine each is an allreduce merge. Compare merges per
        // iteration against distributed CG.
        let a = gen::poisson_2d(8, 8);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-8);
        let np = 4;
        let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);

        let mut m_cg = machine(np);
        let (_, s_cg) = crate::cg_distributed(&mut m_cg, &op, &b, stop, 2000).unwrap();
        let cg_merges_per_iter =
            m_cg.trace().count(hpf_machine::EventKind::AllReduce) as f64 / s_cg.iterations as f64;

        let mut m_gm = machine(np);
        let method = Krylov::Gmres { restart: 30 };
        let s_gm = solve(&mut m_gm, &op, &b, method, stop, 2000, &mut NullObserver)
            .unwrap()
            .stats;
        let gm_merges_per_iter =
            m_gm.trace().count(hpf_machine::EventKind::AllReduce) as f64 / s_gm.iterations as f64;

        assert!(s_cg.converged && s_gm.converged);
        assert!(
            gm_merges_per_iter > 2.0 * cg_merges_per_iter,
            "GMRES {gm_merges_per_iter} vs CG {cg_merges_per_iter} merges/iter"
        );
    }

    #[test]
    fn distributed_jacobi_rejects_zero_diagonal() {
        let coo = CooMatrix::from_triplets(
            4,
            4,
            vec![(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0), (3, 3, 1.0)],
        )
        .unwrap();
        let a = CsrMatrix::from_coo(&coo);
        let np = 2;
        let mut m = machine(np);
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        assert!(matches!(
            pcg_jacobi_distributed(
                &mut m,
                &op,
                &[1.0; 4],
                StopCriterion::RelativeResidual(1e-8),
                10
            ),
            Err(SolverError::SingularMatrix { .. })
        ));
    }
}
