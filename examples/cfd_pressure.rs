//! CFD pressure-Poisson solve — the paper's Section 1 motivating
//! application class ("computational fluid dynamics generate[s] a matrix
//! that is sparse").
//!
//! Solves the pressure-correction system of a projection-method CFD step
//! on a 3-D grid (7-point stencil), comparing plain CG against Jacobi-
//! and SSOR-preconditioned CG, and sweeping the simulated machine size to
//! show where communication starts to dominate (the computation-to-
//! communication ratio argument of Section 1).
//!
//! ```text
//! cargo run --release --example cfd_pressure
//! ```

use hpf::prelude::*;
use hpf::sparse::gen;

fn main() {
    // 3-D pressure grid: 16 x 16 x 16 cells.
    let (nx, ny, nz) = (16, 16, 16);
    let a = gen::poisson_3d(nx, ny, nz);
    let n = a.n_rows();
    println!(
        "pressure system: {nx}x{ny}x{nz} grid, n = {n}, nnz = {}",
        a.nnz()
    );

    // A divergence field as the right-hand side (manufactured).
    let b: Vec<f64> = (0..n)
        .map(|i| {
            let x = (i % nz) as f64 / nz as f64;
            let y = ((i / nz) % ny) as f64 / ny as f64;
            (std::f64::consts::TAU * x).sin() * (std::f64::consts::PI * y).cos()
        })
        .collect();

    let stop = StopCriterion::RelativeResidual(1e-8);

    // --- preconditioner comparison on one processor ---
    println!("\npreconditioner comparison (one processor):");
    let op = RowwiseCsr::block(a.clone(), 1, DataArrayLayout::RowAligned);
    let jacobi = JacobiPreconditioner::from_operator(&op).unwrap();
    let ssor = SsorPreconditioner::new(&op).unwrap();
    // The last solve is SSOR's; its residual is checked below.
    let mut x_ssor = Vec::new();
    for precond in [None, Some(&jacobi as &dyn DistPreconditioner), Some(&ssor)] {
        let mut machine = Machine::hypercube(1);
        let method = Krylov::Cg {
            precond,
            recovery: None,
        };
        let s = solve(
            &mut machine,
            &op,
            &b,
            method,
            stop,
            10 * n,
            &mut NullObserver,
        )
        .unwrap();
        println!(
            "  {:7} {:4} iterations (converged: {})",
            format!("{}:", precond.map_or("none", |m| m.name())),
            s.stats.iterations,
            s.stats.converged
        );
        assert!(s.stats.converged);
        x_ssor = s.x.to_global();
    }

    // Residual check.
    let ax = a.matvec(&x_ssor).unwrap();
    let res: f64 = ax
        .iter()
        .zip(b.iter())
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    println!("  final relative residual: {:.2e}", res / bn);

    // --- distributed scaling sweep ---
    println!("\ndistributed CG scaling (simulated tight-MPP hypercube, Figure 2 layout):");
    println!("  NP   time_ms   comm%   speedup");
    let mut t1 = None;
    for np in [1usize, 2, 4, 8, 16, 32] {
        let mut machine = Machine::new(np, Topology::Hypercube, CostModel::tight_mpp());
        let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
        let (_, stats) = cg_distributed(&mut machine, &op, &b, stop, 10 * n).unwrap();
        assert!(stats.converged);
        let t = machine.elapsed();
        let base = *t1.get_or_insert(t);
        println!(
            "  {:3}  {:8.2}  {:5.1}  {:7.2}",
            np,
            t * 1e3,
            100.0 * machine.trace().comm_time() / t,
            base / t,
        );
    }
    println!("\ncommunication share grows with NP: the fixed t_startup*log(NP) merge");
    println!("and the allgather per matvec stop paying off once local work shrinks.");
}
