//! E1 (Figure 2 CG program), E11 (n_e convergence), E12 (solver family
//! structure), E14 (preconditioning).

use crate::table::{ratio, us, Table};
use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, EventKind, Machine, Topology};
use hpf_solvers::{
    cg, cg_distributed, solve, DistPreconditioner, JacobiPreconditioner, Krylov, NullObserver,
    SolveStats, SolverError, SsorPreconditioner, StopCriterion, BICGSTAB_PROFILE, BICG_PROFILE,
    CGS_PROFILE, CG_PROFILE,
};
use hpf_sparse::{gen, CooMatrix, CsrMatrix};

fn machine(np: usize) -> Machine {
    Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
}

/// `a` in the row layout of a one-processor solve.
pub(crate) fn on_one(a: &CsrMatrix) -> RowwiseCsr {
    RowwiseCsr::block(a.clone(), 1, DataArrayLayout::RowAligned)
}

/// `method` on one processor, nothing traced: the serial solve.
pub(crate) fn solve_on_one(
    op: &RowwiseCsr,
    b: &[f64],
    method: Krylov<'_>,
    stop: StopCriterion,
    max_iters: usize,
) -> Result<SolveStats, SolverError> {
    let mut m = machine(1);
    m.set_tracing(false);
    Ok(solve(&mut m, op, b, method, stop, max_iters, &mut NullObserver)?.stats)
}

/// E1 — the full Figure 2 HPF CG program on the simulated machine:
/// convergence, per-iteration operation counts, and the communication
/// events each HPF construct induced.
pub fn e01_cg_figure2(nx: usize, ny: usize, np: usize) -> Table {
    let mut t = Table::new(
        "E1",
        format!("Figure 2 HPF CG on {nx}x{ny} Poisson, NP = {np}"),
        &["quantity", "value"],
    );
    let a = gen::poisson_2d(nx, ny);
    let n = a.n_rows();
    let nnz = a.nnz();
    let (_, b) = gen::rhs_for_known_solution(&a);
    let mut m = machine(np);
    let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
    let (x, stats) = cg_distributed(
        &mut m,
        &op,
        &b,
        StopCriterion::RelativeResidual(1e-10),
        10 * n,
    )
    .expect("SPD system");

    t.row(vec!["n".into(), n.to_string()]);
    t.row(vec!["nnz".into(), nnz.to_string()]);
    t.row(vec!["converged".into(), stats.converged.to_string()]);
    t.row(vec!["iterations".into(), stats.iterations.to_string()]);
    t.row(vec![
        "residual".into(),
        format!("{:.3e}", stats.residual_norm),
    ]);
    t.row(vec!["matvecs".into(), stats.matvecs.to_string()]);
    t.row(vec!["dots".into(), stats.dots.to_string()]);
    t.row(vec!["saxpys".into(), stats.axpys.to_string()]);
    t.row(vec![
        "allgathers (matvec bcast)".into(),
        m.trace().count(EventKind::AllGather).to_string(),
    ]);
    t.row(vec![
        "allreduces (dot merges)".into(),
        m.trace().count(EventKind::AllReduce).to_string(),
    ]);
    t.row(vec!["simulated time (us)".into(), us(m.elapsed())]);
    t.row(vec![
        "comm fraction".into(),
        ratio(m.trace().comm_time() / m.elapsed()),
    ]);
    t.row(vec!["solution length".into(), x.len().to_string()]);
    t.note("per iteration: 1 matvec (1 allgather), 2 dots (2 allreduces), 3 saxpy-class updates — exactly Figure 2");
    t
}

/// E11 — Section 2: "the CG algorithm will generally converge ... in at
/// most n_e iterations, where n_e is the number of distinct eigenvalues."
pub fn e11_ne_convergence(n: usize) -> Table {
    let mut t = Table::new(
        "E11",
        format!("CG iterations vs distinct eigenvalue count, n = {n}"),
        &["n_e (distinct eigs)", "iterations", "within n_e?"],
    );
    let spectra: Vec<Vec<f64>> = vec![
        vec![3.0],
        vec![1.0, 10.0],
        vec![1.0, 4.0, 9.0],
        vec![1.0, 2.0, 4.0, 8.0],
        vec![2.0, 3.0, 5.0, 7.0, 11.0],
        vec![1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0],
    ];
    for eigs in spectra {
        let a = gen::distinct_eigenvalues(n, &eigs, 4 * n, 23);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (_, stats) =
            cg(&a, &b, StopCriterion::RelativeResidual(1e-9), 10 * n).expect("SPD by construction");
        t.row(vec![
            eigs.len().to_string(),
            stats.iterations.to_string(),
            (stats.iterations <= eigs.len()).to_string(),
        ]);
    }
    t.note("CG terminates in at most n_e iterations regardless of n");
    t
}

/// Mildly non-symmetric test matrix for the non-symmetric solvers.
fn nonsymmetric(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, -1.6).unwrap();
            coo.push(i + 1, i, -0.4).unwrap();
        }
        if i + 7 < n {
            coo.push(i, i + 7, 0.3).unwrap();
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// E12 — Section 2.1: the computational structure of the CG family.
/// Static profiles (storage vectors, ops/iteration) beside measured
/// counts from real solves; highlights BiCG's Aᵀ products, which negate
/// row-vs-column layout optimisations.
pub fn e12_solver_family(n: usize) -> Table {
    let mut t = Table::new(
        "E12",
        format!("CG family structure, n = {n}"),
        &[
            "method",
            "iters",
            "matvecs",
            "A^T matvecs",
            "dots",
            "storage vecs",
            "nonsym ok",
            "converged",
        ],
    );
    let stop = StopCriterion::RelativeResidual(1e-9);
    let spd = gen::poisson_2d((n as f64).sqrt() as usize, (n as f64).sqrt() as usize);
    let (_, b_spd) = gen::rhs_for_known_solution(&spd);
    let ns = nonsymmetric(n);
    let (_, b_ns) = gen::rhs_for_known_solution(&ns);

    let (_, s_cg) = cg(&spd, &b_spd, stop, 10 * n).unwrap();
    let ns = on_one(&ns);
    let solve_ns = |method| solve_on_one(&ns, &b_ns, method, stop, 10 * n);
    t.row(vec![
        "CG (SPD)".into(),
        s_cg.iterations.to_string(),
        s_cg.matvecs.to_string(),
        s_cg.transpose_matvecs.to_string(),
        s_cg.dots.to_string(),
        CG_PROFILE.storage_vectors.to_string(),
        CG_PROFILE.handles_nonsymmetric.to_string(),
        s_cg.converged.to_string(),
    ]);
    let s_bicg = solve_ns(Krylov::Bicg).unwrap();
    t.row(vec![
        "BiCG".into(),
        s_bicg.iterations.to_string(),
        s_bicg.matvecs.to_string(),
        s_bicg.transpose_matvecs.to_string(),
        s_bicg.dots.to_string(),
        BICG_PROFILE.storage_vectors.to_string(),
        BICG_PROFILE.handles_nonsymmetric.to_string(),
        s_bicg.converged.to_string(),
    ]);
    match solve_ns(Krylov::Cgs) {
        Ok(s_cgs) => {
            t.row(vec![
                "CGS".into(),
                s_cgs.iterations.to_string(),
                s_cgs.matvecs.to_string(),
                s_cgs.transpose_matvecs.to_string(),
                s_cgs.dots.to_string(),
                CGS_PROFILE.storage_vectors.to_string(),
                CGS_PROFILE.handles_nonsymmetric.to_string(),
                s_cgs.converged.to_string(),
            ]);
        }
        Err(e) => {
            t.row(vec![
                "CGS".into(),
                "-".into(),
                "-".into(),
                "0".into(),
                "-".into(),
                CGS_PROFILE.storage_vectors.to_string(),
                "true".into(),
                format!("breakdown: {e}"),
            ]);
        }
    }
    let s_bs = solve_ns(Krylov::Bicgstab).unwrap();
    t.row(vec![
        "BiCGSTAB".into(),
        s_bs.iterations.to_string(),
        s_bs.matvecs.to_string(),
        s_bs.transpose_matvecs.to_string(),
        s_bs.dots.to_string(),
        BICGSTAB_PROFILE.storage_vectors.to_string(),
        BICGSTAB_PROFILE.handles_nonsymmetric.to_string(),
        s_bs.converged.to_string(),
    ]);
    t.note("BiCG alone needs A^T: the row-access layout tuned for A is column-access for A^T (Section 2.1)");
    t.note(
        "BiCGSTAB avoids A^T but performs ~4 dots/iter: heavier demand on the DOT_PRODUCT merge",
    );
    t
}

/// E14 — preconditioned CG: iteration counts for identity / Jacobi /
/// SSOR on a badly-scaled Poisson system; the per-iteration
/// communication structure is unchanged (Jacobi is aligned element-wise).
pub fn e14_preconditioning(nx: usize, ny: usize) -> Table {
    let mut t = Table::new(
        "E14",
        format!("Preconditioned CG on badly scaled {nx}x{ny} Poisson"),
        &["preconditioner", "iterations", "converged", "vs plain"],
    );
    // Badly scaled SPD system.
    let base = gen::poisson_2d(nx, ny);
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

    let (_, s_plain) = cg(&a, &b, stop, 100 * n).unwrap();
    t.row(vec![
        "none".into(),
        s_plain.iterations.to_string(),
        s_plain.converged.to_string(),
        ratio(1.0),
    ]);
    let op = on_one(&a);
    let pcg = |m: &dyn DistPreconditioner| {
        let method = Krylov::Cg {
            precond: Some(m),
            recovery: None,
        };
        solve_on_one(&op, &b, method, stop, 100 * n).unwrap()
    };
    let s_jac = pcg(&JacobiPreconditioner::from_operator(&op).unwrap());
    t.row(vec![
        "Jacobi".into(),
        s_jac.iterations.to_string(),
        s_jac.converged.to_string(),
        ratio(s_jac.iterations as f64 / s_plain.iterations as f64),
    ]);
    let s_ssor = pcg(&SsorPreconditioner::new(&op).unwrap());
    t.row(vec![
        "SSOR(1.2)".into(),
        s_ssor.iterations.to_string(),
        s_ssor.converged.to_string(),
        ratio(s_ssor.iterations as f64 / s_plain.iterations as f64),
    ]);
    t.note("preconditioning cuts iterations; Jacobi is an aligned element-wise op (no extra communication)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e01_reports_figure2_structure() {
        let t = e01_cg_figure2(8, 8, 4);
        let get = |k: &str| -> String {
            t.rows
                .iter()
                .find(|r| r[0] == k)
                .unwrap_or_else(|| panic!("missing {k}"))[1]
                .clone()
        };
        assert_eq!(get("converged"), "true");
        let iters: usize = get("iterations").parse().unwrap();
        let gathers: usize = get("allgathers (matvec bcast)").parse().unwrap();
        assert_eq!(gathers, iters);
        let dots: usize = get("dots").parse().unwrap();
        let reduces: usize = get("allreduces (dot merges)").parse().unwrap();
        assert_eq!(reduces, dots);
    }

    #[test]
    fn e11_all_within_ne() {
        let t = e11_ne_convergence(24);
        assert!(t.rows.iter().all(|r| r[2] == "true"), "{t:?}");
    }

    #[test]
    fn e12_structure_claims_hold() {
        let t = e12_solver_family(64);
        let bicg_row = t.rows.iter().find(|r| r[0] == "BiCG").unwrap();
        assert_eq!(bicg_row[2], bicg_row[3], "BiCG: one A^T per A matvec");
        let cg_row = t.rows.iter().find(|r| r[0] == "CG (SPD)").unwrap();
        assert_eq!(cg_row[3], "0");
        let bs_row = t.rows.iter().find(|r| r[0] == "BiCGSTAB").unwrap();
        assert_eq!(bs_row[3], "0");
        assert_eq!(bs_row[7], "true");
    }

    #[test]
    fn e14_preconditioners_reduce_iterations() {
        let t = e14_preconditioning(8, 8);
        let plain: usize = t.rows[0][1].parse().unwrap();
        let jac: usize = t.rows[1][1].parse().unwrap();
        assert!(jac < plain);
        assert_eq!(t.rows[1][2], "true");
        assert_eq!(t.rows[2][2], "true");
    }
}
