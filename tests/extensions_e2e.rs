//! End-to-end tests of the paper's proposed extensions: a full CG solve
//! whose matvec runs through the PRIVATE/MERGE region, the SPARSE_MATRIX
//! trio directive driving a balanced solve, and atom distributions
//! feeding descriptors.

use hpf::core::ext::{MergeOp, OnProcessor, PrivateRegion, SparseFormat, SparseMatrixDirective};
use hpf::prelude::*;
use hpf::sparse::gen;

/// A CG solve where every matvec is computed by the PRIVATE-region CSC
/// kernel (the paper's proposed parallel form of Scenario 2).
#[test]
fn cg_with_private_merge_matvec_converges() {
    let a = gen::random_spd(100, 4, 6);
    let csc = CscMatrix::from_csr(&a);
    let (x_true, b) = gen::rhs_for_known_solution(&a);
    let np = 8;
    let mut machine = Machine::hypercube(np);

    // Hand-rolled CG using the private-region matvec.
    let n = a.n_rows();
    let mut x = vec![0.0; n];
    let mut r = b.clone();
    let mut p = b.clone();
    let dot = |u: &[f64], v: &[f64]| u.iter().zip(v.iter()).map(|(a, b)| a * b).sum::<f64>();
    let b_norm = dot(&b, &b).sqrt();
    let mut rho = dot(&r, &r);
    let mut iters = 0;
    while rho.sqrt() > 1e-10 * b_norm && iters < 10 * n {
        let (q, _) =
            PrivateRegion::csc_matvec(&mut machine, csc.col_ptr(), csc.row_idx(), csc.values(), &p);
        let alpha = rho / dot(&p, &q);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_new = dot(&r, &r);
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        iters += 1;
    }
    assert!(iters < 10 * n, "did not converge");
    for (u, v) in x.iter().zip(x_true.iter()) {
        assert!((u - v).abs() < 1e-6);
    }
    // The machine saw one private-merge allreduce per iteration.
    assert_eq!(machine.trace().with_label("private-merge").count(), iters);
}

#[test]
fn sparse_directive_balanced_solve_end_to_end() {
    let a = gen::power_law_spd(300, 60, 1.0, 13);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let np = 8;

    // Declare the trio, balance it, and derive row cuts for the solver.
    let mut sm = SparseMatrixDirective::new(SparseFormat::Csr, a.row_ptr(), np);
    let before = sm.imbalance();
    let mut machine = Machine::hypercube(np);
    let graph = hpf::partition::connectivity_of(&a);
    sm.redistribute_using(&mut machine, &hpf::partition::BalancedContiguous, &graph);
    assert!(sm.imbalance() <= before);
    assert!(sm.trio_is_consistent());

    // Atom cuts are row cuts (atoms are rows for CSR).
    let row_cuts = sm.assignment().atom_cuts().unwrap();
    let op = RowwiseCsr::with_row_cuts(a.clone(), np, row_cuts);
    let (x, stats) = cg_distributed(
        &mut machine,
        &op,
        &b,
        StopCriterion::RelativeResidual(1e-9),
        3000,
    )
    .unwrap();
    assert!(stats.converged);
    let ax = a.matvec(&x.to_global()).unwrap();
    let res: f64 = ax
        .iter()
        .zip(b.iter())
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(res / bn < 1e-8);
}

/// `REDISTRIBUTE smA USING balanced-rows` lays the trio out as the
/// paper's `CG_BALANCED_PARTITIONER_1` does (the bottleneck-minimal
/// contiguous cuts) and moves it as one atom-level exchange: `idx` + `a`
/// per element and the `ptr` entry per atom.
#[test]
fn balanced_rows_moves_the_trio_as_one_exchange() {
    use hpf::dist::partition::{assignment_from_cuts, balanced_contiguous};
    use hpf::partition::{BalancedContiguous, ConnectivityGraph};

    let e21 = gen::power_law_spd(1024, 128, 0.9, 23);
    let e2e = gen::power_law_spd(300, 60, 1.0, 13);
    let csc = CscMatrix::from_csr(&gen::power_law_spd(200, 60, 1.0, 8));
    let cases = [
        (SparseFormat::Csr, e21.row_ptr(), e21.col_idx(), 6_055),
        (SparseFormat::Csr, e2e.row_ptr(), e2e.col_idx(), 1_803),
        (SparseFormat::Csc, csc.col_ptr(), csc.row_idx(), 1_419),
    ];
    let np = 8;
    for (format, ptr, idx, words) in cases {
        let n = ptr.len() - 1;
        let mut sm = SparseMatrixDirective::new(format, ptr, np);
        let graph = ConnectivityGraph::from_pattern(n, ptr, idx);
        let mut machine = Machine::hypercube(np);
        let moved = sm.redistribute_using(&mut machine, &BalancedContiguous, &graph);

        let cuts = balanced_contiguous(&sm.atoms().weights(), np).unwrap();
        assert_eq!(sm.assignment(), &assignment_from_cuts(&cuts, n), "n = {n}");
        assert_eq!(moved, words, "n = {n}");
        assert_eq!(machine.total_words_sent(), words as u64);
        let moves: Vec<_> = machine
            .trace()
            .iter()
            .map(|e| e.label.to_string())
            .collect();
        assert_eq!(moves, ["REDISTRIBUTE USING balanced-rows"], "n = {n}");
        assert_eq!(
            machine.trace().count(hpf::machine::EventKind::Redistribute),
            1
        );
        assert!(sm.trio_is_consistent());
    }
}

#[test]
fn atom_assignment_to_descriptor_to_vector_roundtrip() {
    use hpf::dist::atoms::{AtomAssignment, AtomSpec};
    let a = gen::random_spd(80, 3, 17);
    let atoms = AtomSpec::from_pointer_array(a.row_ptr());
    let asg = AtomAssignment::atom_block(&atoms, 4);
    let spec = asg.to_dist_spec(&atoms).unwrap();
    let desc = ArrayDescriptor::new(a.nnz(), 4, spec);
    // Distribute the value array under the atom-aligned layout and check
    // every atom's elements are co-located.
    let v = DistVector::from_global(desc.clone(), a.values());
    for atom in 0..atoms.n_atoms() {
        let owners: Vec<usize> = atoms.atom_range(atom).map(|e| desc.owner(e)).collect();
        assert!(owners.windows(2).all(|w| w[0] == w[1]), "atom {atom} split");
    }
    assert_eq!(v.to_global(), a.values());
}

#[test]
fn on_processor_table_mapping_matches_partitioner() {
    use hpf::dist::partition;
    let weights: Vec<usize> = (0..50).map(|i| (i * 7) % 13 + 1).collect();
    let cuts = partition::balanced_contiguous(&weights, 4).expect("np > 0");
    let asg = partition::assignment_from_cuts(&cuts, weights.len());
    let mapping = OnProcessor::from_table(asg.atom_owner.clone(), 4);
    for (atom, &owner) in asg.atom_owner.iter().enumerate() {
        assert_eq!(mapping.processor_of(atom), owner);
    }
    // Loads under the mapping equal the partitioner's loads.
    let mut loads = vec![0usize; 4];
    for (atom, &w) in weights.iter().enumerate() {
        loads[mapping.processor_of(atom)] += w;
    }
    assert_eq!(loads, partition::loads(&weights, &asg.atom_owner, 4));
}

#[test]
fn merge_discard_region_leaves_machine_comm_free() {
    let mut machine = Machine::hypercube(4);
    let region = PrivateRegion::new(32, OnProcessor::block(64, 4), MergeOp::Discard);
    let (out, stats) = region.run(&mut machine, 64, |_| 1, |j, q| q[j % 32] += 1.0);
    assert!(out.iter().all(|&v| v == 0.0));
    assert_eq!(stats.merge_time, 0.0);
    assert_eq!(machine.trace().total_comm_words(), 0);
}
