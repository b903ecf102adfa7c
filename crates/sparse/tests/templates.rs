//! The row-template product against the CSR kernel, **to the bit**, and
//! the decision that selects it.
//!
//! `RowProduct` multiplies in whichever form it found its matrix to have;
//! either must write what `CsrMatrix::matvec_rows_into` writes for every
//! operand. CI runs this file in `--release` too: the vectorised passes
//! only exist there.

use hpf_sparse::{gen, CsrMatrix, ProductForm, RowProduct};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The bit patterns of `v`, with every NaN mapped to one pattern: which
/// operand's sign and payload an addition of two NaNs keeps is up to the
/// instruction the compiler picked, not to the algorithm.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
        .collect()
}

/// An operand of ordinary values with exact `0.0`, `-0.0`, `±inf` and
/// (when `with_nan`) NaN planted in it.
fn arb_operand(n: usize, with_nan: bool, rng: &mut StdRng) -> Vec<f64> {
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
    let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let planted = if with_nan { 5 } else { 4 };
    for &special in &specials[..planted] {
        if n > 0 && rng.gen_bool(0.7) {
            x[rng.gen_range(0..n)] = special;
        }
    }
    x
}

/// `RowProduct`, in whichever form it chose, into a dirty `out` against
/// the CSR kernel.
fn assert_product_exact(what: &str, a: &CsrMatrix, x: &[f64]) {
    let mut want = vec![f64::NAN; a.n_rows()];
    a.matvec_rows_into(0..a.n_rows(), x, &mut want);
    let product = RowProduct::new(a.clone());
    let mut out = vec![f64::INFINITY; a.n_rows()];
    product.matvec_into(x, &mut out);
    assert_eq!(bits(&out), bits(&want), "{what}: {:?}", product.form());
}

/// A matrix assembled from raw arrays the way a stencil code would: a few
/// row shapes — entries at signed offsets from the diagonal, **unsorted,
/// possibly repeated, possibly none**, with explicit zeros of both signs
/// among the coefficients — laid over runs of consecutive rows; entries
/// that leave the `n_rows × n_cols` matrix are dropped, which makes the
/// rows next to the boundary shapes of their own. `long_runs` asks for
/// runs of 4–24 rows, otherwise 1–6.
fn stencil_matrix(rng: &mut StdRng, n_rows: usize, long_runs: bool) -> CsrMatrix {
    const REACH: usize = 5;
    let n_cols = (n_rows + rng.gen_range(0..=6usize))
        .saturating_sub(3)
        .max(1);
    let shapes: Vec<Vec<(isize, f64)>> = (0..rng.gen_range(1..=6usize))
        .map(|_| {
            (0..rng.gen_range(0..=6usize))
                .map(|_| {
                    let coef = match rng.gen_range(0..8u32) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-4.0..4.0),
                    };
                    let offset = rng.gen_range(0..=2 * REACH) as isize - REACH as isize;
                    (offset, coef)
                })
                .collect()
        })
        .collect();
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    let mut row = 0;
    while row < n_rows {
        let shape = &shapes[rng.gen_range(0..shapes.len())];
        let len = if long_runs {
            rng.gen_range(4..=24usize)
        } else {
            rng.gen_range(1..=6usize)
        };
        for r in row..(row + len).min(n_rows) {
            for &(offset, coef) in shape {
                let c = r as isize + offset;
                if (0..n_cols as isize).contains(&c) {
                    col_idx.push(c as usize);
                    values.push(coef);
                }
            }
            row_ptr.push(col_idx.len());
        }
        row += len;
    }
    CsrMatrix::from_raw(n_rows, n_cols, row_ptr, col_idx, values).expect("valid by construction")
}

proptest! {
    /// Generated grid operators of every small extent (1 and 2 included:
    /// `poisson_2d(1, n)` is tridiagonal, `poisson_3d(2, 2, 2)` has no two
    /// rows alike) and Toeplitz tridiagonals, accepted or not, multiply to
    /// the CSR kernel's bits.
    #[test]
    fn generated_operators_multiply_to_the_csr_bits(
        nx in 1usize..=9,
        ny in 1usize..=9,
        nz in 1usize..=6,
        with_nan in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (what, a) in [
            (format!("poisson_2d({nx},{ny})"), gen::poisson_2d(nx, ny)),
            (format!("poisson_3d({nx},{ny},{nz})"), gen::poisson_3d(nx, ny, nz)),
            (format!("tridiagonal({})", nx * ny), gen::tridiagonal(nx * ny, 2.5, -0.75)),
            (format!("random_spd({})", 2 + nx * ny), gen::random_spd(2 + nx * ny, nz, seed)),
        ] {
            let x = arb_operand(a.n_cols(), with_nan, &mut rng);
            assert_product_exact(&format!("{what} seed={seed}"), &a, &x);
        }
    }

    /// Raw-array matrices whose rows repeat: unsorted and repeated
    /// columns, empty rows, explicit zeros, rectangular shapes, from no
    /// rows at all (smaller than any run) to a few hundred. With runs of at
    /// least four rows and 64 rows or more the matrix *must* be accepted —
    /// the rows within reach of the boundary, 13 at most, add a run each
    /// at worst — so the comparison cannot pass by running the CSR kernel
    /// twice.
    #[test]
    fn raw_stencil_matrices_multiply_to_the_csr_bits(
        n_rows in 0usize..=300,
        long_runs in any::<bool>(),
        with_nan in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = stencil_matrix(&mut rng, n_rows, long_runs);
        let what = format!("stencil {}x{} long={long_runs} seed={seed}", a.n_rows(), a.n_cols());
        if long_runs && n_rows >= 64 {
            let form = RowProduct::new(a.clone()).form();
            prop_assert!(matches!(form, ProductForm::Templates { .. }), "{}: {:?}", what, form);
        }
        for _ in 0..2 {
            let x = arb_operand(a.n_cols(), with_nan, &mut rng);
            assert_product_exact(&what, &a, &x);
        }
    }
}

/// The `0.0 +` the kernel must not drop: a row whose only product is
/// `-0.0` yields `+0.0`, as the CSR chain from `0.0` does — on a run long
/// enough for the vectorised pass and on one handled row by row.
#[test]
fn a_row_whose_only_product_is_negative_zero_yields_positive_zero() {
    for n in [2usize, 3, 8, 33] {
        let identity =
            CsrMatrix::from_raw(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n]).unwrap();
        let product = RowProduct::new(identity.clone());
        assert_eq!(
            product.form(),
            ProductForm::Templates {
                templates: 1,
                runs: 1
            }
        );
        let x = vec![-0.0; n];
        let mut out = vec![f64::NAN; n];
        product.matvec_into(&x, &mut out);
        let mut want = vec![f64::NAN; n];
        identity.matvec_rows_into(0..n, &x, &mut want);
        for i in 0..n {
            assert_eq!(want[i].to_bits(), 0.0f64.to_bits(), "CSR, n={n} row {i}");
            assert_eq!(
                out[i].to_bits(),
                0.0f64.to_bits(),
                "templates, n={n} row {i}"
            );
        }
    }
}

/// Templates longer than one pass resume the chain from `out`: a dense
/// Toeplitz band of 19 entries a row (three passes) against the CSR bits.
#[test]
fn templates_longer_than_one_pass_resume_the_chain() {
    let (n, reach) = (64usize, 9isize);
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for r in 0..n as isize {
        for d in -reach..=reach {
            if (0..n as isize).contains(&(r + d)) {
                col_idx.push((r + d) as usize);
                values.push(1.0 / (2.0 + d as f64));
            }
        }
        row_ptr.push(col_idx.len());
    }
    let a = CsrMatrix::from_raw(n, n, row_ptr, col_idx, values).unwrap();
    assert_eq!(
        RowProduct::new(a.clone()).form(),
        ProductForm::Templates {
            templates: 19,
            runs: 19
        }
    );
    let mut rng = StdRng::seed_from_u64(7);
    assert_product_exact("band of 19", &a, &arb_operand(n, true, &mut rng));
}

/// A band matrix of `n_rows x n_cols` with an entry at every offset of
/// `reach` that stays inside it: its first and last rows are short runs
/// of their own next to one long run of the full template.
fn band(n_rows: usize, n_cols: usize, reach: &[isize]) -> CsrMatrix {
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for r in 0..n_rows as isize {
        for &d in reach {
            if (0..n_cols as isize).contains(&(r + d)) {
                col_idx.push((r + d) as usize);
                values.push(1.5 + d as f64);
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw(n_rows, n_cols, row_ptr, col_idx, values).unwrap()
}

/// A sweep runs through the short runs *between* long runs of its
/// template and never past them: the rows before its first row and after
/// its last one are where the template would read outside `p` — row 0
/// and row `n - 1` of a band, the rows a rectangular shape cuts short —
/// and a sweep that took one in would slice out of bounds and panic.
#[test]
fn boundary_rows_a_neighbouring_template_would_read_outside_p_for_are_not_swept() {
    let mut rng = StdRng::seed_from_u64(23);
    let shapes = [
        ("tridiagonal", gen::tridiagonal(200, 2.0, -1.0)),
        ("poisson_2d(1,50)", gen::poisson_2d(1, 50)),
        ("poisson_2d(48,48)", gen::poisson_2d(48, 48)),
        ("poisson_3d(12,12,12)", gen::poisson_3d(12, 12, 12)),
        ("band 60x60, reach 3", band(60, 60, &[-3, -1, 0, 2, 3])),
        // Wider than tall: the last rows still reach right, the first
        // ones are cut short on the left.
        ("band 60x66", band(60, 66, &[-2, 0, 5])),
        // Taller than wide: rows past the last column lose entries one
        // offset at a time, then are empty — a long run of nothing.
        ("band 80x60", band(80, 60, &[-4, 0, 3])),
        ("band 80x60, one-sided", band(80, 60, &[1, 2])),
    ];
    for (what, a) in shapes {
        assert!(
            matches!(
                RowProduct::new(a.clone()).form(),
                ProductForm::Templates { .. }
            ),
            "{what} must take the template path"
        );
        assert_product_exact(what, &a, &arb_operand(a.n_cols(), true, &mut rng));
    }
}

/// Every row of `out` is written, whatever it held: the rows a sweep ran
/// over on its way (patched afterwards), the rows between sweeps, and the
/// rows of templates longer than one pass, whose later passes resume from
/// what the first pass — not the caller — left in `out`.
#[test]
fn a_dirty_out_is_fully_overwritten_patched_rows_included() {
    let mut rng = StdRng::seed_from_u64(5);
    let wide: Vec<isize> = (-9..=9).collect();
    for a in [
        gen::poisson_3d(12, 12, 12),
        gen::poisson_2d(32, 32),
        band(64, 64, &wide),
    ] {
        let product = RowProduct::new(a.clone());
        assert!(matches!(product.form(), ProductForm::Templates { .. }));
        let x: Vec<f64> = (0..a.n_cols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut want = vec![0.0; a.n_rows()];
        a.matvec_rows_into(0..a.n_rows(), &x, &mut want);
        for dirt in [f64::NAN, f64::INFINITY, -0.0, 1e300] {
            let mut out = vec![dirt; a.n_rows()];
            product.matvec_into(&x, &mut out);
            assert_eq!(bits(&out), bits(&want), "out filled with {dirt}");
        }
    }
}

/// The decision, pinned: grid operators and tridiagonals take the
/// template path, the generators whose values are drawn at random do
/// not, and whatever is accepted has at most 64 templates and runs of
/// two rows or more on average. (How the accepted runs are then walked —
/// sweeps and patches, counted for `poisson_3d(40³)`, `poisson_2d(48²)`
/// and a tridiagonal — is private to the crate and pinned beside it, in
/// `src/templates.rs`.)
#[test]
fn the_selection_accepts_what_repeats_and_nothing_else() {
    let accepted = [
        ("poisson_2d(9,7)", gen::poisson_2d(9, 7)),
        ("poisson_2d(32,32)", gen::poisson_2d(32, 32)),
        ("poisson_2d(48,48)", gen::poisson_2d(48, 48)),
        ("poisson_2d(1,50)", gen::poisson_2d(1, 50)),
        ("poisson_3d(12,12,12)", gen::poisson_3d(12, 12, 12)),
        ("poisson_3d(31,31,31)", gen::poisson_3d(31, 31, 31)),
        ("tridiagonal(16)", gen::tridiagonal(16, 4.0, -1.0)),
        ("tridiagonal(1000)", gen::tridiagonal(1000, 2.0, -1.0)),
    ];
    for (what, a) in accepted {
        let n = a.n_rows();
        match RowProduct::new(a).form() {
            ProductForm::Templates { templates, runs } => {
                assert!(templates <= 64, "{what}: {templates} templates");
                assert!(2 * runs <= n, "{what}: {runs} runs over {n} rows");
            }
            ProductForm::Csr => panic!("{what} must take the template path"),
        }
    }
    // The 27th template of 40^3 first appears after 1,600 rows; the early
    // exit must not have fired before it.
    assert_eq!(
        RowProduct::new(gen::poisson_3d(40, 40, 40)).form(),
        ProductForm::Templates {
            templates: 27,
            runs: 4800
        }
    );

    for seed in 0..8u64 {
        let rejected = [
            (
                "banded_spd",
                gen::banded_spd(512 + 64 * seed as usize, 3, seed),
            ),
            ("random_spd", gen::random_spd(384, 5, seed)),
            (
                "power_law_spd",
                gen::power_law_spd(400 + 50 * seed as usize, 10, 0.9, seed),
            ),
            (
                "block_irregular_mesh",
                gen::block_irregular_mesh(&[40, 7, 90, 13, 25], seed),
            ),
        ];
        for (what, a) in rejected {
            assert_eq!(
                RowProduct::new(a).form(),
                ProductForm::Csr,
                "{what} seed {seed}"
            );
        }
    }
    // Few distinct rows are not enough: rows that alternate make runs of
    // one, and grids narrower than two rows a run are turned away too.
    assert_eq!(
        RowProduct::new(gen::poisson_2d(40, 2)).form(),
        ProductForm::Csr
    );
    assert_eq!(
        RowProduct::new(gen::poisson_3d(3, 3, 3)).form(),
        ProductForm::Csr
    );
    assert_eq!(
        RowProduct::new(gen::tridiagonal(1, 2.0, -1.0)).form(),
        ProductForm::Csr
    );
}

/// An `Arc` handed over is kept, not copied.
#[test]
fn a_shared_matrix_stays_shared() {
    let a = Arc::new(gen::poisson_2d(8, 8));
    let product = RowProduct::new(Arc::clone(&a));
    assert!(std::ptr::eq(product.matrix(), Arc::as_ptr(&a)));
    assert_eq!(Arc::strong_count(&a), 2);
}
