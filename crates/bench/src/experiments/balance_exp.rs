//! E10 — irregular sparse block distributions and load-balancing
//! partitioners (Section 5.2.2).

use crate::table::{ratio, us, Table};
use hpf_core::{DistVector, RowwiseCsr};
use hpf_dist::atoms::{AtomAssignment, AtomSpec};
use hpf_dist::partition;
use hpf_dist::ArrayDescriptor;
use hpf_machine::Machine;
use hpf_sparse::{gen, stats as mstats, CsrMatrix};

/// Run a row-wise matvec with the given row cuts and report (imbalance,
/// compute time).
fn matvec_with_cuts(a: &CsrMatrix, np: usize, cuts: Vec<usize>) -> (f64, f64) {
    let n = a.n_rows();
    // p is aligned with the rows: same cut points.
    let p_desc = ArrayDescriptor::new(n, np, hpf_dist::DistSpec::IrregularCuts(cuts.clone()));
    let op = RowwiseCsr::with_row_cuts(a.clone(), np, cuts);
    let flops = op.flops_per_proc();
    // No flops at all read 1.0.
    let imb = hpf_machine::imbalance(flops.iter().map(|&f| f as f64)).unwrap_or(1.0);
    let p = DistVector::constant(p_desc, 1.0);
    let mut m = Machine::hypercube(np);
    let (_, _) = op.matvec(&mut m, &p);
    (imb, m.trace().compute_time())
}

/// E10 — on a power-law (irregular) matrix, compare three row
/// distributions: plain BLOCK (equal row counts), ATOM-uniform (same
/// thing expressed over atoms), and `CG_BALANCED_PARTITIONER_1` (equal
/// nnz). Report nnz imbalance and the modeled matvec compute time.
pub fn e10_load_balance(n: usize, max_row_nnz: usize, alpha: f64) -> Table {
    let mut t = Table::new(
        "E10",
        format!("Load balance on irregular (power-law) matrix, n = {n}, alpha = {alpha}"),
        &[
            "NP",
            "distribution",
            "nnz_imbalance",
            "matvec_compute_us",
            "vs_block",
        ],
    );
    let a = gen::power_law_spd(n, max_row_nnz, alpha, 19);
    let row_stats = mstats::row_stats(&a);
    t.note(format!(
        "matrix row nnz: min {}, max {}, mean {:.1} (imbalance {:.2})",
        row_stats.min, row_stats.max, row_stats.mean, row_stats.imbalance
    ));
    let weights: Vec<usize> = (0..n).map(|r| a.row_nnz(r)).collect();
    let atoms = AtomSpec::from_pointer_array(a.row_ptr());

    for np in [4usize, 8, 16] {
        // Plain BLOCK rows.
        let bs = n.div_ceil(np);
        let block_cuts: Vec<usize> = (0..=np).map(|p| (p * bs).min(n)).collect();
        let (b_imb, b_time) = matvec_with_cuts(&a, np, block_cuts);
        t.row(vec![
            np.to_string(),
            "BLOCK(rows)".into(),
            ratio(b_imb),
            us(b_time),
            ratio(1.0),
        ]);

        // ATOM:BLOCK over rows-as-atoms (equal atom counts — same cut
        // structure as BLOCK here, since atoms are rows).
        let asg = AtomAssignment::atom_block(&atoms, np);
        let atom_el_cuts = asg.element_cuts(&atoms).unwrap();
        // Convert element cuts back to row cuts via atom boundaries.
        let mut row_cuts = vec![0usize; np + 1];
        row_cuts[np] = n;
        for p in 1..np {
            // First atom whose start element >= cut.
            row_cuts[p] = a
                .row_ptr()
                .iter()
                .position(|&e| e >= atom_el_cuts[p])
                .unwrap_or(n)
                .min(n);
        }
        let (a_imb, a_time) = matvec_with_cuts(&a, np, row_cuts);
        t.row(vec![
            np.to_string(),
            "ATOM:BLOCK".into(),
            ratio(a_imb),
            us(a_time),
            ratio(a_time / b_time),
        ]);

        // Balanced partitioner.
        let bal_cuts = partition::balanced_contiguous(&weights, np).expect("np > 0");
        let (p_imb, p_time) = matvec_with_cuts(&a, np, bal_cuts);
        t.row(vec![
            np.to_string(),
            "CG_BALANCED_PARTITIONER_1".into(),
            ratio(p_imb),
            us(p_time),
            ratio(p_time / b_time),
        ]);
    }
    t.note(
        "the balanced partitioner drives nnz imbalance toward 1.0 and cuts the matvec compute time",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_partitioner_beats_block() {
        let t = e10_load_balance(400, 80, 0.9);
        for np in ["4", "8", "16"] {
            let block: f64 = t
                .rows
                .iter()
                .find(|r| r[0] == np && r[1] == "BLOCK(rows)")
                .unwrap()[2]
                .parse()
                .unwrap();
            let bal: f64 = t
                .rows
                .iter()
                .find(|r| r[0] == np && r[1] == "CG_BALANCED_PARTITIONER_1")
                .unwrap()[2]
                .parse()
                .unwrap();
            assert!(bal <= block, "np={np}: balanced {bal} vs block {block}");
            assert!(bal < 1.6, "balanced imbalance should approach 1, got {bal}");
        }
        // Compute time improves too.
        let speedups: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[1] == "CG_BALANCED_PARTITIONER_1")
            .map(|r| r[4].parse::<f64>().unwrap())
            .collect();
        assert!(speedups.iter().all(|&s| s <= 1.0));
    }
}
