//! Irregular-mesh load balancing — Section 5.2.2 end to end.
//!
//! Builds a power-law "irregular grid" matrix ("some grid points may
//! have many neighbours, while others have very few"), declares it
//! through the proposed `SPARSE_MATRIX` directive, and compares plain
//! BLOCK row distribution against
//! `REDISTRIBUTE smA USING balanced-rows` (the paper's
//! `CG_BALANCED_PARTITIONER_1`) on a full CG
//! solve: nnz imbalance, redistribution traffic, and simulated time.
//!
//! ```text
//! cargo run --release --example irregular_mesh
//! ```

use hpf::core::ext::{SparseFormat, SparseMatrixDirective};
use hpf::partition::{connectivity_of, BalancedContiguous};
use hpf::prelude::*;
use hpf::sparse::{gen, stats};

fn main() {
    let n = 2048;
    let a = gen::power_law_spd(n, 160, 0.9, 77);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let rs = stats::row_stats(&a);
    println!(
        "irregular matrix: n = {n}, nnz = {}, row nnz min/mean/max = {}/{:.1}/{} (imbalance {:.2})",
        a.nnz(),
        rs.min,
        rs.mean,
        rs.max,
        rs.imbalance
    );

    let np = 16;
    let stop = StopCriterion::RelativeResidual(1e-8);

    // --- plain BLOCK rows (what HPF-1 offers) ---
    let mut m_block = Machine::hypercube(np);
    let op_block = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
    let flops = op_block.flops_per_proc();
    let imb_block =
        *flops.iter().max().unwrap() as f64 * np as f64 / flops.iter().sum::<usize>() as f64;
    let (_, s_block) = cg_distributed(&mut m_block, &op_block, &b, stop, 10 * n).unwrap();
    println!("\nBLOCK(rows) distribution:");
    println!("  nnz imbalance:  {imb_block:.2}");
    println!(
        "  CG: {} iterations, simulated {:.2} ms",
        s_block.iterations,
        m_block.elapsed() * 1e3
    );

    // --- the paper's extension: SPARSE_MATRIX + balanced partitioner ---
    let mut sm = SparseMatrixDirective::new(SparseFormat::Csr, a.row_ptr(), np);
    println!("\nSPARSE_MATRIX (CSR) :: smA(row, col, a)");
    println!("  initial ATOM:BLOCK imbalance: {:.2}", sm.imbalance());
    let mut m_bal = Machine::hypercube(np);
    let moved = sm.redistribute_using(&mut m_bal, &BalancedContiguous, &connectivity_of(&a));
    println!(
        "  REDISTRIBUTE smA USING balanced-rows (the paper's CG_BALANCED_PARTITIONER_1): moved {moved} words, imbalance -> {:.2}",
        sm.imbalance()
    );
    assert!(sm.trio_is_consistent(), "trio must stay co-located");

    // The directive's row cuts drive the distributed operator.
    let cuts = sm.assignment().atom_cuts().expect("contiguous");
    let op_bal = RowwiseCsr::with_row_cuts(a.clone(), np, cuts);
    let flops_b = op_bal.flops_per_proc();
    let imb_bal =
        *flops_b.iter().max().unwrap() as f64 * np as f64 / flops_b.iter().sum::<usize>() as f64;
    let (x, s_bal) = cg_distributed(&mut m_bal, &op_bal, &b, stop, 10 * n).unwrap();
    println!("  nnz imbalance:  {imb_bal:.2}");
    println!(
        "  CG: {} iterations, simulated {:.2} ms (incl. redistribution)",
        s_bal.iterations,
        m_bal.elapsed() * 1e3
    );

    assert!(s_block.converged && s_bal.converged);
    assert!(imb_bal < imb_block, "partitioner must improve balance");

    // Verify both give the same answer.
    let r = {
        let ax = a.matvec(&x.to_global()).unwrap();
        let num: f64 = ax
            .iter()
            .zip(b.iter())
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        num / den
    };
    println!("\nfinal relative residual: {r:.2e}");
    println!(
        "compute-phase speedup from balancing: {:.2}x (total incl. comm: {:.2}x)",
        m_block.trace().compute_time() / m_bal.trace().compute_time(),
        m_block.elapsed() / m_bal.elapsed(),
    );
    println!("communication is layout-independent here, so the win shows in the");
    println!("compute phase — exactly where Section 5.2.2 locates the imbalance.");
}
