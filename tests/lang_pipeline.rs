//! Integration: the directive front-end drives the whole stack — the
//! paper's own listings parse, elaborate against real problem sizes, and
//! the resulting layouts execute with the expected semantics and costs.

use hpf::lang::{elaborate, parse_program, Env, MergeSpec};
use hpf::prelude::*;
use hpf::sparse::gen;
use std::collections::BTreeMap;

fn extents_for(n: usize, nz: usize) -> BTreeMap<String, usize> {
    [
        ("p", n),
        ("q", n),
        ("r", n),
        ("x", n),
        ("b", n),
        ("row", n + 1),
        ("col", nz),
        ("a", nz),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

const FIGURE2: &str = "
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ DISTRIBUTE row(CYCLIC((n+NP-1)/np))
!HPF$ ALIGN a(:) WITH col(:)
!HPF$ DISTRIBUTE col(BLOCK)
";

#[test]
fn figure2_deck_to_converged_solve() {
    let a = gen::poisson_2d(10, 10);
    let n = a.n_rows();
    let nz = a.nnz();
    let (x_true, b) = gen::rhs_for_known_solution(&a);

    let ds = parse_program(FIGURE2).unwrap();
    let env = Env::new().bind("np", 4).bind("n", n as i64);
    let elab = elaborate(&ds, &env, &extents_for(n, nz)).unwrap();
    assert_eq!(elab.np, 4);

    // The deck's vector layout is BLOCK; drive the solver with it.
    let p_desc = elab.graph.descriptor("p").unwrap();
    assert_eq!(p_desc.spec(), &hpf::dist::DistSpec::Block);
    let mut m = Machine::hypercube(elab.np);
    let op = RowwiseCsr::block(a, elab.np, DataArrayLayout::RowAligned);
    let (x, stats) = cg_distributed(
        &mut m,
        &op,
        &b,
        StopCriterion::RelativeResidual(1e-10),
        10 * n,
    )
    .unwrap();
    assert!(stats.converged);
    for (u, v) in x.to_global().iter().zip(x_true.iter()) {
        assert!((u - v).abs() < 1e-6);
    }
}

#[test]
fn all_aligned_vectors_share_layout_after_redistribute() {
    let n = 64;
    let ds = parse_program(FIGURE2).unwrap();
    let env = Env::new().bind("np", 4).bind("n", n as i64);
    let mut elab = elaborate(&ds, &env, &extents_for(n, 300)).unwrap();
    // REDISTRIBUTE p(CYCLIC) moves the whole Figure 2 vector group.
    let moved = elab
        .graph
        .redistribute("p", hpf::dist::DistSpec::Cyclic)
        .unwrap();
    assert_eq!(moved, vec!["b", "p", "q", "r", "x"]);
    for v in ["q", "r", "x", "b"] {
        assert!(elab
            .graph
            .descriptor(v)
            .unwrap()
            .same_layout(&elab.graph.descriptor("p").unwrap()));
    }
    // The CSR trio is untouched.
    assert_eq!(
        elab.graph.descriptor("col").unwrap().spec(),
        &hpf::dist::DistSpec::Block
    );
}

#[test]
fn figure5_deck_drives_private_region() {
    // Parse Figure 5's directive and use its mapping + merge spec to run
    // an actual privatised CSC matvec.
    let src = "
!EXT$ ITERATION j ON PROCESSOR(j/np), &
!EXT$ PRIVATE(q(n)) WITH MERGE(+), &
!EXT$ NEW(pj, k), PRIVATE(q(n))
";
    let a = gen::random_spd(60, 4, 2);
    let csc = CscMatrix::from_csr(&a);
    let n = a.n_rows();
    let np = 4i64;

    let ds = parse_program(src).unwrap();
    let elab = elaborate(
        &ds,
        &Env::new().bind("np", np).bind("n", n as i64),
        &BTreeMap::new(),
    )
    .unwrap();
    let im = &elab.iteration_maps[0];
    assert_eq!(im.privatises("q"), Some(MergeSpec::Sum));

    // Build the OnProcessor mapping from the parsed expression.
    let base = Env::new()
        .bind("np", (n as i64) / np.max(1))
        .bind("n", n as i64);
    // Paper's f(j) = j/np maps blocks of size np... its intent is a block
    // map; sanity-check monotonicity and range.
    let first = im.processor_of(0, &base).unwrap();
    let last = im.processor_of(n - 1, &base).unwrap();
    assert!(first <= last);
    assert!(last < elab.np);

    // And the semantic payload: privatised accumulation equals serial.
    let x = vec![1.0; n];
    let want = csc.matvec(&x).unwrap();
    let mut m = Machine::hypercube(elab.np);
    let (got, _) = hpf::core::ext::PrivateRegion::csc_matvec(
        &mut m,
        csc.col_ptr(),
        csc.row_idx(),
        csc.values(),
        &x,
    );
    for (u, v) in got.iter().zip(want.iter()) {
        assert!((u - v).abs() < 1e-12);
    }
}

#[test]
fn section4_scenario_directives_parse_and_identify() {
    // The (BLOCK,*) and (*,BLOCK) alignment fragments of Section 4.
    let s1 = hpf::lang::parse_directive("ALIGN A(:, *) WITH p(:)").unwrap();
    let s2 = hpf::lang::parse_directive("ALIGN A(*, :) WITH p(:)").unwrap();
    assert!(matches!(
        s1,
        hpf::lang::Directive::Align {
            pattern: hpf::lang::AlignPattern::FirstDim,
            ..
        }
    ));
    assert!(matches!(
        s2,
        hpf::lang::Directive::Align {
            pattern: hpf::lang::AlignPattern::SecondDim,
            ..
        }
    ));
}

#[test]
fn sparse_directive_text_to_balanced_solve() {
    // Section 5.2.2's full extension block, end to end.
    let src = "
!HPF$ PROCESSORS :: PROCS(8)
!HPF$ DISTRIBUTE col(BLOCK)
!EXT$ INDIVISABLE row(ATOM:i) :: col(i:i+1)
!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
!EXT$ REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1
";
    let a = gen::power_law_spd(200, 50, 1.0, 3);
    let ds = parse_program(src).unwrap();
    let elab = elaborate(
        &ds,
        &Env::new(),
        &[
            ("col".to_string(), a.nnz()),
            ("row".to_string(), 201),
            ("a".to_string(), a.nnz()),
        ]
        .into_iter()
        .collect(),
    )
    .unwrap();
    assert_eq!(elab.sparse_matrices[0].name, "smA");
    assert_eq!(
        elab.partitioner_requests[0].partitioner,
        "CG_BALANCED_PARTITIONER_1"
    );

    // Honour the partitioner request against the runtime matrix.
    use hpf::core::ext::{SparseFormat, SparseMatrixDirective};
    let mut sm = SparseMatrixDirective::new(SparseFormat::Csr, a.row_ptr(), elab.np);
    let before = sm.imbalance();
    let mut m = Machine::hypercube(elab.np);
    let graph = hpf::partition::connectivity_of(&a);
    sm.redistribute_using(&mut m, &hpf::partition::BalancedContiguous, &graph);
    assert!(sm.imbalance() <= before);
    assert!(sm.trio_is_consistent());
}
