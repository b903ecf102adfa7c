//! Solver shootout — the Section 2/2.1 solver family plus the dense
//! direct baseline, on both an SPD structural-analysis system and a
//! non-symmetric circuit-like system.
//!
//! ```text
//! cargo run --release --example solver_shootout
//! ```

use hpf::prelude::*;
use hpf::solvers::direct;
use hpf::sparse::{gen, CooMatrix};

fn rel_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
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

/// `method` on one processor: the serial program of the driver every
/// processor count runs.
fn solve_on_one(
    a: &CsrMatrix,
    b: &[f64],
    method: Krylov<'_>,
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(Vec<f64>, SolveStats), SolverError> {
    let mut machine = Machine::hypercube(1);
    machine.set_tracing(false);
    let op = RowwiseCsr::block(a.clone(), 1, DataArrayLayout::RowAligned);
    let s = solve(
        &mut machine,
        &op,
        b,
        method,
        stop,
        max_iters,
        &mut NullObserver,
    )?;
    Ok((s.x.to_global(), s.stats))
}

fn main() {
    let stop = StopCriterion::RelativeResidual(1e-9);

    // --- SPD: banded structural-analysis style system ---
    let n = 400;
    let a = gen::banded_spd(n, 6, 99);
    let (_, b) = gen::rhs_for_known_solution(&a);
    println!("SPD banded system: n = {n}, nnz = {}", a.nnz());
    println!("  method     iters  matvecs  A^T  dots  residual");
    let (x, s) = cg(&a, &b, stop, 10 * n).unwrap();
    println!(
        "  CG        {:6}  {:7}  {:3}  {:4}  {:.1e}",
        s.iterations,
        s.matvecs,
        s.transpose_matvecs,
        s.dots,
        rel_residual(&a, &x, &b)
    );
    assert!(s.converged);

    // Direct baseline (dense LU / Cholesky) for the same system.
    let dense = a.to_dense();
    let x_lu = direct::solve_lu(&dense, &b).unwrap();
    let x_ch = direct::solve_cholesky(&dense, &b).unwrap();
    println!(
        "  dense LU        -        -    -     -  {:.1e}   ({} flops vs CG's {})",
        rel_residual(&a, &x_lu, &b),
        direct::lu_flops(n),
        direct::cg_flops(n, a.nnz(), s.iterations),
    );
    println!(
        "  Cholesky        -        -    -     -  {:.1e}",
        rel_residual(&a, &x_ch, &b)
    );
    let cg_cheaper = direct::cg_flops(n, a.nnz(), s.iterations) < direct::lu_flops(n);
    println!(
        "  -> CG is {} for this sparse system (Section 1's argument)",
        if cg_cheaper { "cheaper" } else { "costlier" }
    );

    // --- non-symmetric: convection-like system ---
    let n2 = 300;
    let mut coo = CooMatrix::new(n2, n2);
    for i in 0..n2 {
        coo.push(i, i, 4.0).unwrap();
        if i + 1 < n2 {
            coo.push(i, i + 1, -1.7).unwrap(); // upwind bias
            coo.push(i + 1, i, -0.3).unwrap();
        }
        if i + 9 < n2 {
            coo.push(i, i + 9, 0.35).unwrap();
        }
    }
    let ns = CsrMatrix::from_coo(&coo);
    let (_, b2) = gen::rhs_for_known_solution(&ns);
    println!("\nnon-symmetric system: n = {n2}, nnz = {}", ns.nnz());
    println!("  method     iters  matvecs  A^T  dots  residual   converged");

    let (xb, sb) = solve_on_one(&ns, &b2, Krylov::Bicg, stop, 10 * n2).unwrap();
    println!(
        "  BiCG      {:6}  {:7}  {:3}  {:4}  {:.1e}   {}",
        sb.iterations,
        sb.matvecs,
        sb.transpose_matvecs,
        sb.dots,
        rel_residual(&ns, &xb, &b2),
        sb.converged
    );
    match solve_on_one(&ns, &b2, Krylov::Cgs, stop, 10 * n2) {
        Ok((xc, sc)) => println!(
            "  CGS       {:6}  {:7}  {:3}  {:4}  {:.1e}   {}",
            sc.iterations,
            sc.matvecs,
            sc.transpose_matvecs,
            sc.dots,
            rel_residual(&ns, &xc, &b2),
            sc.converged
        ),
        Err(e) => println!("  CGS       breakdown: {e} (the paper's warning about CGS)"),
    }
    let (xs, ss) = solve_on_one(&ns, &b2, Krylov::Bicgstab, stop, 10 * n2).unwrap();
    println!(
        "  BiCGSTAB  {:6}  {:7}  {:3}  {:4}  {:.1e}   {}",
        ss.iterations,
        ss.matvecs,
        ss.transpose_matvecs,
        ss.dots,
        rel_residual(&ns, &xs, &b2),
        ss.converged
    );
    assert!(sb.converged && ss.converged);
    println!("\nBiCG pays one A^T product per iteration — the access pattern that");
    println!("negates row-vs-column storage optimisations (Section 2.1); BiCGSTAB");
    println!("avoids A^T at the price of four inner products per iteration.");
}
