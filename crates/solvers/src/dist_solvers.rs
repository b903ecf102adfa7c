//! Distributed variants of the non-symmetric solvers and Jacobi PCG.
//!
//! These run the same recurrences as their serial counterparts over
//! [`DistVector`]s and a [`DistOperator`], so the simulated machine is
//! charged for everything the data layout induces — including the
//! layout-dependent cost of BiCG's `Aᵀ` products (Section 2.1: "any
//! storage distribution optimisations made on the basis of row access
//! vs. column access will be negated with the use of BiCG").

use crate::cg::{check_breakdown, update_x_r_and_dot_rr};
use crate::error::SolverError;
use crate::observer::{IterObserver, IterSample, MachineMark, NullObserver};
use crate::operator::DistOperator;
use crate::precond::{DistPreconditioner, JacobiPreconditioner};
use crate::stopping::{ResidualMonitor, SolveStats, StopCriterion};
use hpf_core::DistVector;
use hpf_machine::{span, Machine};

/// Distributed BiCG.
pub fn bicg_distributed<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError> {
    bicg_distributed_with_observer(machine, a, b_global, stop, max_iters, &mut NullObserver)
}

/// [`bicg_distributed`] with per-iteration telemetry and span-tagged
/// machine events.
pub fn bicg_distributed_with_observer<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
    obs: &mut dyn IterObserver,
) -> Result<(DistVector, SolveStats), SolverError> {
    let _solve_span = span::enter("solve");
    let n = a.dim();
    if b_global.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            got: b_global.len(),
        });
    }
    let desc = a.descriptor();
    let mut stats = SolveStats::new();

    let b = DistVector::from_global(desc.clone(), b_global);
    let mut x = DistVector::zeros(desc.clone());
    let mut r = b.clone();
    let mut r_hat = b.clone();
    let mut p = r.clone();
    let mut p_hat = r_hat.clone();

    let b_norm = b.dot(machine, &b).sqrt();
    stats.dots += 1;
    let mut monitor = ResidualMonitor::new(stop);
    let mut rho = r_hat.dot(machine, &r);
    stats.dots += 1;
    stats.residual_norm = r.dot(machine, &r).sqrt();
    stats.dots += 1;
    if monitor.observe(stats.residual_norm, b_norm)? {
        stats.converged = true;
        return Ok((x, stats));
    }

    // q, q_hat and the products' scratch live as long as the solve.
    let mut q = DistVector::zeros(desc.clone());
    let mut q_hat = DistVector::zeros(desc);
    let mut scratch = Vec::new();
    let mut mark = MachineMark::take(machine);
    for k in 0..max_iters {
        let _iter_span = span::enter_iter(k);
        check_breakdown("rho", rho)?;
        {
            let _s = span::enter("matvec");
            a.apply_into(machine, &p, &mut q, &mut scratch);
        }
        stats.matvecs += 1;
        {
            let _s = span::enter("matvec-transpose");
            a.apply_transpose_into(machine, &p_hat, &mut q_hat, &mut scratch);
        }
        stats.transpose_matvecs += 1;
        let pq = p_hat.dot(machine, &q);
        stats.dots += 1;
        check_breakdown("p_hat.Ap", pq)?;
        let alpha = rho / pq;
        x.axpy(machine, alpha, &p);
        r.axpy(machine, -alpha, &q);
        r_hat.axpy(machine, -alpha, &q_hat);
        stats.axpys += 3;
        stats.iterations += 1;
        stats.residual_norm = r.dot(machine, &r).sqrt();
        stats.dots += 1;
        let (d_flops, d_words) = mark.delta(machine);
        let sim_time = machine.elapsed();
        let predicted_time = mark.predicted();
        let (it, rn) = (stats.iterations, stats.residual_norm);
        let sample = move |beta: f64| IterSample {
            iteration: it,
            residual_norm: rn,
            alpha,
            beta,
            flops: d_flops,
            comm_words: d_words,
            sim_time,
            predicted_time,
            rollbacks: 0,
        };
        if monitor.observe(stats.residual_norm, b_norm)? {
            obs.on_iteration(&sample(f64::NAN));
            stats.converged = true;
            return Ok((x, stats));
        }
        let rho_new = r_hat.dot(machine, &r);
        stats.dots += 1;
        let beta = rho_new / rho;
        obs.on_iteration(&sample(beta));
        rho = rho_new;
        p.aypx(machine, beta, &r);
        p_hat.aypx(machine, beta, &r_hat);
        stats.axpys += 2;
    }
    Ok((x, stats))
}

/// Distributed BiCGSTAB (no `Aᵀ`; four inner-product merges per
/// iteration — "a greater demand for an efficient intrinsic").
pub fn bicgstab_distributed<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError> {
    bicgstab_distributed_with_observer(machine, a, b_global, stop, max_iters, &mut NullObserver)
}

/// [`bicgstab_distributed`] with per-iteration telemetry and span-tagged
/// machine events.
pub fn bicgstab_distributed_with_observer<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
    obs: &mut dyn IterObserver,
) -> Result<(DistVector, SolveStats), SolverError> {
    let _solve_span = span::enter("solve");
    let n = a.dim();
    if b_global.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            got: b_global.len(),
        });
    }
    let desc = a.descriptor();
    let mut stats = SolveStats::new();

    let b = DistVector::from_global(desc.clone(), b_global);
    let mut x = DistVector::zeros(desc.clone());
    let mut r = b.clone();
    let r_hat = b.clone();
    let mut p = r.clone();

    let b_norm = b.dot(machine, &b).sqrt();
    stats.dots += 1;
    let mut monitor = ResidualMonitor::new(stop);
    let mut rho = r_hat.dot(machine, &r);
    stats.dots += 1;
    stats.residual_norm = rho.sqrt().abs();
    if monitor.observe(stats.residual_norm, b_norm)? {
        stats.converged = true;
        return Ok((x, stats));
    }

    let mut mark = MachineMark::take(machine);
    for k in 0..max_iters {
        let _iter_span = span::enter_iter(k);
        check_breakdown("rho", rho)?;
        let v = {
            let _s = span::enter("matvec");
            a.apply(machine, &p)
        };
        stats.matvecs += 1;
        let rv = r_hat.dot(machine, &v);
        stats.dots += 1;
        check_breakdown("r_hat.Ap", rv)?;
        let alpha = rho / rv;
        let mut s = r.clone();
        s.axpy(machine, -alpha, &v);
        stats.axpys += 1;
        let s_norm = s.dot(machine, &s).sqrt();
        stats.dots += 1;
        if monitor.observe(s_norm, b_norm)? {
            x.axpy(machine, alpha, &p);
            stats.axpys += 1;
            stats.iterations += 1;
            stats.residual_norm = s_norm;
            let (d_flops, d_words) = mark.delta(machine);
            obs.on_iteration(&IterSample {
                iteration: stats.iterations,
                residual_norm: s_norm,
                alpha,
                beta: f64::NAN,
                flops: d_flops,
                comm_words: d_words,
                sim_time: machine.elapsed(),
                predicted_time: mark.predicted(),
                rollbacks: 0,
            });
            stats.converged = true;
            return Ok((x, stats));
        }
        let t = {
            let _s = span::enter("matvec");
            a.apply(machine, &s)
        };
        stats.matvecs += 1;
        let tt = t.dot(machine, &t);
        stats.dots += 1;
        check_breakdown("t.t", tt)?;
        let omega = t.dot(machine, &s) / tt;
        stats.dots += 1;
        check_breakdown("omega", omega)?;
        x.axpy(machine, alpha, &p);
        x.axpy(machine, omega, &s);
        let mut r_new = s.clone();
        r_new.axpy(machine, -omega, &t);
        r = r_new;
        stats.axpys += 3;
        stats.iterations += 1;
        stats.residual_norm = r.dot(machine, &r).sqrt();
        stats.dots += 1;
        let (d_flops, d_words) = mark.delta(machine);
        let sim_time = machine.elapsed();
        let predicted_time = mark.predicted();
        let (it, rn) = (stats.iterations, stats.residual_norm);
        let sample = move |beta: f64| IterSample {
            iteration: it,
            residual_norm: rn,
            alpha,
            beta,
            flops: d_flops,
            comm_words: d_words,
            sim_time,
            predicted_time,
            rollbacks: 0,
        };
        if monitor.observe(stats.residual_norm, b_norm)? {
            obs.on_iteration(&sample(f64::NAN));
            stats.converged = true;
            return Ok((x, stats));
        }
        let rho_new = r_hat.dot(machine, &r);
        stats.dots += 1;
        let beta = (rho_new / rho) * (alpha / omega);
        obs.on_iteration(&sample(beta));
        rho = rho_new;
        // p = r + beta (p - omega v)
        p.axpy(machine, -omega, &v);
        p.aypx(machine, beta, &r);
        stats.axpys += 2;
    }
    Ok((x, stats))
}

/// Distributed Jacobi-preconditioned CG. The preconditioner application
/// `z = D⁻¹ r` is an aligned element-wise operation — zero communication,
/// as the paper's alignment discipline guarantees.
pub fn pcg_jacobi_distributed<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError> {
    pcg_jacobi_distributed_with_observer(machine, a, b_global, stop, max_iters, &mut NullObserver)
}

/// [`pcg_jacobi_distributed`] with per-iteration telemetry and
/// span-tagged machine events.
pub fn pcg_jacobi_distributed_with_observer<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
    obs: &mut dyn IterObserver,
) -> Result<(DistVector, SolveStats), SolverError> {
    let m = JacobiPreconditioner::from_operator(a)?;
    pcg_preconditioned_distributed_with_observer(machine, a, &m, b_global, stop, max_iters, obs)
}

/// Distributed CG preconditioned by any [`DistPreconditioner`] — the
/// entry point multigrid ([`hpf-mg`]'s V-cycle) and other structured
/// preconditioners plug into. The recurrence is the Figure 2 PCG loop;
/// the preconditioner application runs under a `precondition` span so
/// its machine events (smoother compute, halo exchanges, level
/// transfers) are attributable in the trace.
pub fn pcg_preconditioned_distributed<A, M>(
    machine: &mut Machine,
    a: &A,
    m: &M,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError>
where
    A: DistOperator + ?Sized,
    M: DistPreconditioner + ?Sized,
{
    pcg_preconditioned_distributed_with_observer(
        machine,
        a,
        m,
        b_global,
        stop,
        max_iters,
        &mut NullObserver,
    )
}

/// [`pcg_preconditioned_distributed`] with per-iteration telemetry and
/// span-tagged machine events.
pub fn pcg_preconditioned_distributed_with_observer<A, M>(
    machine: &mut Machine,
    a: &A,
    m: &M,
    b_global: &[f64],
    stop: StopCriterion,
    max_iters: usize,
    obs: &mut dyn IterObserver,
) -> Result<(DistVector, SolveStats), SolverError>
where
    A: DistOperator + ?Sized,
    M: DistPreconditioner + ?Sized,
{
    let _solve_span = span::enter("solve");
    let n = a.dim();
    if b_global.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            got: b_global.len(),
        });
    }
    let desc = a.descriptor();
    let mut stats = SolveStats::new();

    let b = DistVector::from_global(desc.clone(), b_global);
    let mut x = DistVector::zeros(desc.clone());
    let mut r = b.clone();
    let mut z = m.apply(machine, &r);
    let mut p = z.clone();
    let b_norm = b.dot(machine, &b).sqrt();
    stats.dots += 1;
    let mut monitor = ResidualMonitor::new(stop);
    let mut rho = r.dot(machine, &z);
    stats.dots += 1;
    stats.residual_norm = r.dot(machine, &r).sqrt();
    stats.dots += 1;
    if monitor.observe(stats.residual_norm, b_norm)? {
        stats.converged = true;
        return Ok((x, stats));
    }

    // q, z and the product's scratch live as long as the solve.
    let mut q = DistVector::zeros(desc);
    let mut scratch = Vec::new();
    let mut mark = MachineMark::take(machine);
    for k in 0..max_iters {
        let _iter_span = span::enter_iter(k);
        {
            let _s = span::enter("matvec");
            a.apply_into(machine, &p, &mut q, &mut scratch);
        }
        stats.matvecs += 1;
        let pq = {
            let _s = span::enter("dot");
            p.dot(machine, &q)
        };
        stats.dots += 1;
        check_breakdown("p.Ap", pq)?;
        let alpha = rho / pq;
        // x = x + alpha p, r = r - alpha q and r.r in one pass.
        let rr = update_x_r_and_dot_rr(machine, alpha, &mut x, &p, &mut r, &q);
        stats.axpys += 2;
        stats.iterations += 1;
        stats.residual_norm = rr.sqrt();
        stats.dots += 1;
        let (d_flops, d_words) = mark.delta(machine);
        let sim_time = machine.elapsed();
        let predicted_time = mark.predicted();
        let (it, rn) = (stats.iterations, stats.residual_norm);
        let sample = move |beta: f64| IterSample {
            iteration: it,
            residual_norm: rn,
            alpha,
            beta,
            flops: d_flops,
            comm_words: d_words,
            sim_time,
            predicted_time,
            rollbacks: 0,
        };
        if monitor.observe(stats.residual_norm, b_norm)? {
            obs.on_iteration(&sample(f64::NAN));
            stats.converged = true;
            return Ok((x, stats));
        }
        {
            let _s = span::enter("precondition");
            m.apply_into(machine, &r, &mut z);
        }
        let rho_new = r.dot(machine, &z);
        stats.dots += 1;
        check_breakdown("rho", rho)?;
        let beta = rho_new / rho;
        obs.on_iteration(&sample(beta));
        rho = rho_new;
        p.aypx(machine, beta, &z);
        stats.axpys += 1;
    }
    Ok((x, stats))
}

/// Distributed restarted GMRES(m) over any [`DistOperator`].
///
/// The paper's "longer recurrences (which require greater storage)"
/// remark becomes concrete here: the Krylov basis is `m + 1` *distributed*
/// vectors, and every Arnoldi step performs `j + 1` inner products —
/// each a `t_startup·log N_P` merge on the simulated machine, so GMRES's
/// per-iteration communication grows with the basis where CG's is flat.
pub fn gmres_distributed<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    restart: usize,
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError> {
    gmres_distributed_with_observer(
        machine,
        a,
        b_global,
        restart,
        stop,
        max_iters,
        &mut NullObserver,
    )
}

/// [`gmres_distributed`] with per-iteration telemetry. One sample per
/// Arnoldi step, carrying the Givens residual estimate; GMRES has no
/// single alpha/beta, so those fields are `NaN`.
pub fn gmres_distributed_with_observer<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    restart: usize,
    stop: StopCriterion,
    max_iters: usize,
    obs: &mut dyn IterObserver,
) -> Result<(DistVector, SolveStats), SolverError> {
    let _solve_span = span::enter("solve");
    let n = a.dim();
    if b_global.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            got: b_global.len(),
        });
    }
    assert!(restart >= 1, "GMRES needs a restart length of at least 1");
    let m = restart.min(n);
    let desc = a.descriptor();
    let mut stats = SolveStats::new();

    let b = DistVector::from_global(desc.clone(), b_global);
    let b_norm = b.dot(machine, &b).sqrt();
    stats.dots += 1;
    let mut monitor = ResidualMonitor::new(stop);
    let mut x = DistVector::zeros(desc.clone());

    loop {
        // r = b - A x.
        let ax = a.apply(machine, &x);
        stats.matvecs += 1;
        let mut r = b.clone();
        r.axpy(machine, -1.0, &ax);
        stats.axpys += 1;
        let beta = r.dot(machine, &r).sqrt();
        stats.dots += 1;
        stats.residual_norm = beta;
        if monitor.observe(beta, b_norm)? {
            stats.converged = true;
            return Ok((x, stats));
        }
        if stats.iterations >= max_iters {
            return Ok((x, stats));
        }

        let mut v: Vec<DistVector> = Vec::with_capacity(m + 1);
        let mut v0 = r.clone();
        v0.scale(machine, 1.0 / beta);
        v.push(v0);
        let mut h = vec![vec![0.0f64; m + 1]; m];
        let mut cs = vec![0.0f64; m];
        let mut sn = vec![0.0f64; m];
        let mut g = vec![0.0f64; m + 1];
        g[0] = beta;

        let mut mark = MachineMark::take(machine);
        let mut k_used = 0usize;
        for j in 0..m {
            if stats.iterations >= max_iters {
                break;
            }
            let _iter_span = span::enter_iter(stats.iterations);
            let mut w = {
                let _s = span::enter("matvec");
                a.apply(machine, &v[j])
            };
            stats.matvecs += 1;
            for (i, vi) in v.iter().enumerate() {
                let hij = {
                    let _s = span::enter("dot");
                    w.dot(machine, vi)
                };
                stats.dots += 1;
                h[j][i] = hij;
                w.axpy(machine, -hij, vi);
                stats.axpys += 1;
            }
            let h_next = w.dot(machine, &w).sqrt();
            stats.dots += 1;
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
            stats.iterations += 1;
            k_used = j + 1;
            stats.residual_norm = g[j + 1].abs();
            let (d_flops, d_words) = mark.delta(machine);
            obs.on_iteration(&IterSample {
                iteration: stats.iterations,
                residual_norm: stats.residual_norm,
                alpha: f64::NAN,
                beta: f64::NAN,
                flops: d_flops,
                comm_words: d_words,
                sim_time: machine.elapsed(),
                predicted_time: mark.predicted(),
                rollbacks: 0,
            });
            let lucky = h_next < 1e-14 * b_norm.max(1.0);
            if monitor.observe(stats.residual_norm, b_norm)? || lucky {
                break;
            }
            let mut vn = w;
            vn.scale(machine, 1.0 / h_next);
            v.push(vn);
        }

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
            check_breakdown("H(i,i)", h[i][i])?;
            y[i] = s / h[i][i];
        }
        for (j, &yj) in y.iter().enumerate() {
            x.axpy(machine, yj, &v[j]);
            stats.axpys += 1;
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
    fn distributed_bicg_matches_serial() {
        let a = nonsymmetric(60);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-8);
        let (x_serial, s_serial) = crate::bicg(&a, &b, stop, 2000).unwrap();

        let np = 4;
        let mut m = machine(np);
        let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
        let (x_dist, s_dist) = bicg_distributed(&mut m, &op, &b, stop, 2000).unwrap();
        assert!(s_dist.converged);
        assert_eq!(s_dist.iterations, s_serial.iterations);
        for (u, v) in x_dist.to_global().iter().zip(x_serial.iter()) {
            assert!((u - v).abs() < 1e-7);
        }
        assert_eq!(s_dist.transpose_matvecs, s_dist.matvecs);
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
        let (xr, sr) = bicg_distributed(&mut m_row, &row_op, &b, stop, 2000).unwrap();

        let mut m_col = machine(np);
        let col_op = ColwiseOperator {
            inner: ColwiseCsc::block(CscMatrix::from_csr(&a), np),
            variant: CscVariant::Temp2d,
        };
        let (xc, sc) = bicg_distributed(&mut m_col, &col_op, &b, stop, 2000).unwrap();

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
    fn distributed_gmres_matches_serial() {
        let a = nonsymmetric(48);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-8);
        let (x_serial, s_serial) = crate::gmres(&a, &b, 12, stop, 2000).unwrap();
        let np = 4;
        let mut m = machine(np);
        let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
        let (x_dist, s_dist) = gmres_distributed(&mut m, &op, &b, 12, stop, 2000).unwrap();
        assert!(s_serial.converged && s_dist.converged);
        assert_eq!(s_serial.iterations, s_dist.iterations);
        for (u, v) in x_dist.to_global().iter().zip(x_serial.iter()) {
            assert!((u - v).abs() < 1e-8);
        }
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
        let (_, s_gm) = gmres_distributed(&mut m_gm, &op, &b, 30, stop, 2000).unwrap();
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
