//! Which host kernel the pinned hierarchies run.
//!
//! `golden.rs` (digests recorded on `c58d041`) and
//! `alloc_steady_state.rs` hold the row-template product only if their
//! operators take it: the fine operator of every hierarchy does, as the
//! outer product of MG-PCG and as the level-0 residual, and so does
//! every coarser level with enough rows to repeat.

use hpf_mg::{GridDims, MgHierarchy};
use hpf_sparse::ProductForm;

fn is_templates(form: ProductForm) -> bool {
    matches!(form, ProductForm::Templates { .. })
}

/// `golden.rs`'s seven hierarchies (at one of its processor counts: the
/// form is read off the matrix, which the count does not change), then
/// `alloc_steady_state.rs`'s two.
#[test]
fn the_pinned_hierarchies_take_the_template_path() {
    let golden = [
        (GridDims::d2(15, 15), 2),
        (GridDims::d2(31, 31), 3),
        (GridDims::d2(31, 31), 4),
        (GridDims::d3(7, 7, 7), 2),
        (GridDims::d3(15, 15, 15), 3),
        (GridDims::d3(7, 7, 7), 3),
        (GridDims::d2(15, 7), 3),
    ];
    for (dims, levels) in golden {
        let h = MgHierarchy::build(dims, levels, 5).expect("grid supports the levels");
        assert!(is_templates(h.fine_operator().product_form()), "{dims}");
        assert_eq!(h.product_form(0), h.fine_operator().product_form());
    }
    for (dims, levels) in [(GridDims::d2(63, 63), 4), (GridDims::d3(15, 15, 15), 3)] {
        let h = MgHierarchy::build(dims, levels, 8).expect("grid supports the levels");
        // Every level a cycle forms a residual on: all but the coarsest.
        for level in 0..levels - 1 {
            assert!(is_templates(h.product_form(level)), "{dims} level {level}");
        }
    }
}

/// A level too small to repeat keeps the CSR kernel: the 3×3×3 Galerkin
/// operator has 27 rows, no two alike.
#[test]
fn a_level_without_repeating_rows_keeps_the_csr_kernel() {
    let h = MgHierarchy::build(GridDims::d3(7, 7, 7), 3, 4).expect("grid supports the levels");
    assert!(is_templates(h.product_form(0)));
    assert_eq!(h.product_form(1), ProductForm::Csr);
}
