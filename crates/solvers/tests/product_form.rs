//! Which host kernel the pinned systems run.
//!
//! `golden.rs` (digests recorded before PR 12's rework) and
//! `alloc_steady_state.rs` (0 allocations per iteration) say nothing
//! about the row-template product unless their operators take it. They
//! do: the form is fixed when the operator is built, from the matrix
//! alone, so it is the same under every fault plan those files install.

use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_sparse::{gen, ProductForm};

/// `golden.rs`'s system, `poisson_2d(9, 7)` at NP = 4, under each of its
/// three row layouts: 9 templates (corner, edge and interior rows), three
/// runs a grid line.
#[test]
fn the_golden_operators_take_the_template_path() {
    let a = gen::poisson_2d(9, 7);
    let operators = [
        RowwiseCsr::block(a.clone(), 4, DataArrayLayout::RowAligned),
        RowwiseCsr::block(a.clone(), 4, DataArrayLayout::ElementBlock),
        // Processor 1 owns nothing.
        RowwiseCsr::with_row_cuts(a.clone(), 4, vec![0, 20, 20, 45, 63]),
    ];
    for op in operators {
        assert_eq!(
            op.product_form(),
            ProductForm::Templates {
                templates: 9,
                runs: 27
            }
        );
    }
}

/// `alloc_steady_state.rs`'s system, `poisson_3d(12, 12, 12)` at NP = 8.
#[test]
fn the_allocation_gate_operator_takes_the_template_path() {
    let op = RowwiseCsr::block(gen::poisson_3d(12, 12, 12), 8, DataArrayLayout::RowAligned);
    assert_eq!(
        op.product_form(),
        ProductForm::Templates {
            templates: 27,
            runs: 432
        }
    );
}

/// The other side of the choice stays reachable through the same
/// constructor: a matrix with drawn values keeps the CSR kernel.
#[test]
fn an_operator_whose_rows_do_not_repeat_keeps_the_csr_kernel() {
    let op = RowwiseCsr::block(gen::banded_spd(63, 2, 5), 4, DataArrayLayout::RowAligned);
    assert_eq!(op.product_form(), ProductForm::Csr);
}
