//! E13 (HPF vs hand-coded message passing) and E15 (Figure 1 storage
//! representations).

use crate::table::{ratio, Table};
use hpf_core::spmd_baseline::{spmd_cg, spmd_matvec};
use hpf_core::{DataArrayLayout, DistVector, RowwiseCsr};
use hpf_dist::ArrayDescriptor;
use hpf_machine::Machine;
use hpf_solvers::{cg_distributed, StopCriterion};
use hpf_sparse::{gen, CooMatrix, CscMatrix, CsrMatrix, DenseMatrix};

/// E13 — Sections 1/6: HPF's promise is "additional code portability and
/// ease of maintenance by comparison with message-passing
/// implementations" at comparable communication. Compare the words the
/// HPF layouts induce (simulated machine counters) against a hand-coded
/// SPMD message-passing run (real threads, real messages) for the same
/// matvec and the same full CG solve.
pub fn e13_hpf_vs_spmd(n: usize, nnz_per_row: usize, np: usize) -> Table {
    let mut t = Table::new(
        "E13",
        format!("HPF vs hand-coded SPMD traffic, n = {n}, NP = {np}"),
        &[
            "operation",
            "implementation",
            "words_sent",
            "per-iteration words",
            "hpf/spmd",
        ],
    );
    let a = gen::random_spd(n, nnz_per_row, 31);
    let x = vec![1.0; n];

    // --- single matvec ---
    let mut m = Machine::hypercube(np);
    let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
    let p = DistVector::from_global(ArrayDescriptor::block(n, np), &x);
    op.matvec(&mut m, &p);
    let hpf_words = m.total_words_sent();
    let (_, run) = spmd_matvec(&a, &x, np);
    let spmd_words = run.total_words_sent();
    t.row(vec![
        "matvec".into(),
        "HPF (simulated)".into(),
        hpf_words.to_string(),
        "-".into(),
        ratio(hpf_words as f64 / spmd_words.max(1) as f64),
    ]);
    t.row(vec![
        "matvec".into(),
        "SPMD (real threads)".into(),
        spmd_words.to_string(),
        "-".into(),
        ratio(1.0),
    ]);

    // --- full CG ---
    let (_, b) = gen::rhs_for_known_solution(&a);
    let mut m2 = Machine::hypercube(np);
    let (_, stats) = cg_distributed(
        &mut m2,
        &op,
        &b,
        StopCriterion::RelativeResidual(1e-8),
        10 * n,
    )
    .unwrap();
    let hpf_cg_words = m2.total_words_sent();
    let (res, run2) = spmd_cg(&a, &b, 1e-8, 10 * n, np);
    let spmd_cg_words = run2.total_words_sent();
    t.row(vec![
        format!("CG ({} iters)", stats.iterations),
        "HPF (simulated)".into(),
        hpf_cg_words.to_string(),
        (hpf_cg_words / stats.iterations.max(1) as u64).to_string(),
        ratio(hpf_cg_words as f64 / spmd_cg_words.max(1) as f64),
    ]);
    t.row(vec![
        format!("CG ({} iters)", res.iterations),
        "SPMD (real threads)".into(),
        spmd_cg_words.to_string(),
        (spmd_cg_words / res.iterations.max(1) as u64).to_string(),
        ratio(1.0),
    ]);
    t.note("HPF induces the same communication volume (ratio ~1) while the source is the Figure 2 one-liner style");
    t.note("SPMD allgather sends each block to NP-1 peers; the simulated HPF allgather counts the same contributions");
    t
}

/// E15 — Figure 1: the CSC representation of the worked 6x6 example, and
/// round-trips through every storage scheme.
pub fn e15_storage_formats() -> Table {
    let mut t = Table::new(
        "E15",
        "Figure 1 sparse storage representations (6x6 example)".to_string(),
        &["check", "result"],
    );
    let d = DenseMatrix::from_rows(&[
        vec![11.0, 12.0, 0.0, 0.0, 15.0, 0.0],
        vec![21.0, 22.0, 0.0, 24.0, 0.0, 26.0],
        vec![31.0, 0.0, 33.0, 0.0, 0.0, 0.0],
        vec![0.0, 42.0, 0.0, 44.0, 0.0, 0.0],
        vec![51.0, 0.0, 0.0, 0.0, 55.0, 0.0],
        vec![0.0, 62.0, 0.0, 0.0, 0.0, 66.0],
    ])
    .unwrap();
    let csc = CscMatrix::from_dense(&d);
    let csr = CsrMatrix::from_dense(&d);
    let coo = CooMatrix::from_dense(&d);

    t.row(vec!["nnz".into(), csc.nnz().to_string()]);
    t.row(vec![
        "CSC a(nz) first column".into(),
        format!("{:?}", &csc.values()[..4]),
    ]);
    t.row(vec![
        "CSC row(nz) first column".into(),
        format!("{:?}", &csc.row_idx()[..4]),
    ]);
    t.row(vec!["CSC col(n+1)".into(), format!("{:?}", csc.col_ptr())]);
    t.row(vec![
        "dense->CSC->dense".into(),
        (csc.to_dense() == d).to_string(),
    ]);
    t.row(vec![
        "dense->CSR->dense".into(),
        (csr.to_dense() == d).to_string(),
    ]);
    t.row(vec![
        "CSR->CSC->CSR".into(),
        (CscMatrix::from_csr(&csr).to_csr() == csr).to_string(),
    ]);
    t.row(vec!["COO->dense".into(), (coo.to_dense() == d).to_string()]);
    let x: Vec<f64> = (1..=6).map(|i| i as f64).collect();
    let same = {
        let a = d.matvec(&x).unwrap();
        let b = csr.matvec(&x).unwrap();
        let c = csc.matvec(&x).unwrap();
        a.iter()
            .zip(b.iter())
            .zip(c.iter())
            .all(|((u, v), w)| (u - v).abs() < 1e-12 && (u - w).abs() < 1e-12)
    };
    t.row(vec![
        "matvec agrees across formats".into(),
        same.to_string(),
    ]);
    t.note("matches Figure 1: a stored column-by-column, row() holding row numbers, col() the column pointers");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_volumes_comparable() {
        let t = e13_hpf_vs_spmd(64, 4, 4);
        // matvec ratio within 2x either way (collective algorithms count
        // contributions differently but the volume class is the same).
        let r: f64 = t.rows[0][4].parse().unwrap();
        assert!(r > 0.3 && r < 3.0, "matvec ratio {r}");
        let rcg: f64 = t.rows[2][4].parse().unwrap();
        assert!(rcg > 0.3 && rcg < 3.0, "cg ratio {rcg}");
    }

    #[test]
    fn e15_all_checks_pass() {
        let t = e15_storage_formats();
        for row in t
            .rows
            .iter()
            .filter(|r| r[0].contains("->") || r[0].contains("agrees"))
        {
            assert_eq!(row[1], "true", "{} failed", row[0]);
        }
        assert_eq!(t.rows[0][1], "15");
    }
}
