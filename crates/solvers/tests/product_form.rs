//! Which host kernel the pinned systems run.
//!
//! `golden.rs` (digests recorded before PR 12's rework) and
//! `alloc_steady_state.rs` (0 allocations per iteration) say nothing
//! about the row-template product unless their operators take it. They
//! do: the form is fixed when the operator is built, from the matrix
//! alone, so it is the same under every fault plan those files install.
//! The same holds for the pattern form and the bands that take it.

use hpf_core::{ColwiseCsc, DataArrayLayout, RowwiseCsr};
use hpf_sparse::{gen, CscMatrix, ProductForm};

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
/// constructor: a matrix whose structure is drawn keeps the CSR kernel.
#[test]
fn an_operator_whose_rows_do_not_repeat_keeps_the_csr_kernel() {
    let op = RowwiseCsr::block(gen::random_spd(63, 4, 5), 4, DataArrayLayout::RowAligned);
    assert_eq!(op.product_form(), ProductForm::Csr);
}

/// A band whose values are all drawn repeats in its offsets alone and
/// takes the pattern form: its two rows cut short at each end and its
/// interior, five runs of one pattern each (`golden_np1.rs`'s bands run
/// it too).
#[test]
fn a_band_of_drawn_values_takes_the_pattern_path() {
    let op = RowwiseCsr::block(gen::banded_spd(63, 2, 5), 4, DataArrayLayout::RowAligned);
    assert_eq!(
        op.product_form(),
        ProductForm::Patterns {
            patterns: 5,
            runs: 5
        }
    );
}

/// The benchmark service pool's families, at its shapes: Poisson takes
/// the templates, the bands (half-bandwidth 3, seven patterns) the
/// pattern form, and the power-law structures and the never-seen random
/// ones the CSR kernel.
#[test]
fn the_service_pool_families_take_one_path_each() {
    let form = |a| RowwiseCsr::block(a, 4, DataArrayLayout::RowAligned).product_form();
    for i in 0..8 {
        let seed = 17 + i as u64;
        assert!(matches!(
            form(gen::poisson_2d(20 + 2 * i, 20 + 2 * i)),
            ProductForm::Templates { templates: 9, .. }
        ));
        assert_eq!(
            form(gen::banded_spd(512 + 64 * i, 3, seed)),
            ProductForm::Patterns {
                patterns: 7,
                runs: 7
            }
        );
        assert_eq!(
            form(gen::power_law_spd(400 + 50 * i, 10, 0.9, seed)),
            ProductForm::Csr
        );
        assert_eq!(form(gen::random_spd(384, 5, seed)), ProductForm::Csr);
    }
}

/// `golden_colwise.rs`'s layouts. At NP = 64, `poisson_2d(48, 48)` in
/// block columns is the benchmark's column-wise operator: its `Temp2d`
/// `SUM` runs as template sweeps whose chains break where the owner
/// changes, over the row-wise plan's nine templates, six of them split
/// by where a block ends. `poisson_2d(9, 7)` cut at 20 and 45 has too
/// few rows a run for the template form and runs the row loop — so the
/// file's digests hold both.
#[test]
fn the_golden_colwise_operators_take_one_path_each() {
    let cuts = ColwiseCsc::with_col_cuts(
        CscMatrix::from_csr(&gen::poisson_2d(9, 7)),
        4,
        vec![0, 20, 20, 45, 63],
    );
    let block = ColwiseCsc::block(CscMatrix::from_csr(&gen::poisson_2d(48, 48)), 64);
    assert_eq!(cuts.product_form(), ProductForm::Csr);
    assert_eq!(
        block.product_form(),
        ProductForm::Templates {
            templates: 15,
            runs: 288
        }
    );
}

/// `alloc_steady_state.rs`'s column-wise operators, `poisson_3d(12, 12,
/// 12)` at NP = 8. In block columns (216 each, eighteen grid lines) the
/// owner changes where grid lines do and the `SUM` takes the template
/// sweeps; cuts at 150, 400 (processor 2 empty), 700, … split the
/// 27 row shapes 73 ways, more than the template form keeps, so that
/// operator runs the row loop — and the gate holds both.
#[test]
fn the_allocation_gate_colwise_operators_take_both_paths() {
    let csc = CscMatrix::from_csr(&gen::poisson_3d(12, 12, 12));
    let cuts = vec![0, 150, 400, 400, 700, 1000, 1300, 1500, 1728];
    assert_eq!(
        ColwiseCsc::block(csc.clone(), 8).product_form(),
        ProductForm::Templates {
            templates: 57,
            runs: 432
        }
    );
    assert_eq!(
        ColwiseCsc::with_col_cuts(csc, 8, cuts).product_form(),
        ProductForm::Csr
    );
}
