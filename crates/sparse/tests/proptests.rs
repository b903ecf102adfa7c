//! Property-based tests over the sparse formats: any matrix representable
//! in one format round-trips through every other, and every format's
//! kernels agree with the dense reference.

use hpf_sparse::{
    gen, io, stats, CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, DiaMatrix, EllMatrix, SparseError,
};
use proptest::prelude::*;

/// Strategy: a small random sparse matrix as unique triplets.
fn arb_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..12, 1usize..12).prop_flat_map(|(r, c)| {
        let cell = (0..r, 0..c, -100.0f64..100.0);
        proptest::collection::vec(cell, 0..40).prop_map(move |mut v| {
            // Deduplicate coordinates (keep first occurrence).
            v.sort_by_key(|&(i, j, _)| (i, j));
            v.dedup_by_key(|&mut (i, j, _)| (i, j));
            (r, c, v)
        })
    })
}

proptest! {
    #[test]
    fn coo_dense_roundtrip((r, c, trips) in arb_matrix()) {
        let coo = CooMatrix::from_triplets(r, c, trips).unwrap();
        let dense = coo.to_dense();
        let back = CooMatrix::from_dense(&dense);
        prop_assert_eq!(back.to_dense(), dense);
    }

    #[test]
    fn csr_csc_dense_all_agree((r, c, trips) in arb_matrix()) {
        let coo = CooMatrix::from_triplets(r, c, trips).unwrap();
        let dense = coo.to_dense();
        let csr = CsrMatrix::from_coo(&coo);
        let csc = CscMatrix::from_coo(&coo);
        prop_assert_eq!(csr.to_dense(), dense.clone());
        prop_assert_eq!(csc.to_dense(), dense.clone());
        prop_assert_eq!(csc.to_csr().to_dense(), dense.clone());
        prop_assert_eq!(CscMatrix::from_csr(&csr).to_dense(), dense);
    }

    #[test]
    fn matvec_agrees_across_formats(((r, c, trips), seed) in (arb_matrix(), any::<u64>())) {
        let coo = CooMatrix::from_triplets(r, c, trips).unwrap();
        let dense = coo.to_dense();
        let csr = CsrMatrix::from_coo(&coo);
        let csc = CscMatrix::from_coo(&coo);
        // Deterministic pseudo-random x from the seed.
        let x: Vec<f64> = (0..c)
            .map(|i| ((seed.wrapping_add(i as u64 * 2654435761) % 1000) as f64 - 500.0) / 100.0)
            .collect();
        let want = dense.matvec(&x).unwrap();
        let got_csr = csr.matvec(&x).unwrap();
        let got_csc = csc.matvec(&x).unwrap();
        for i in 0..r {
            prop_assert!((want[i] - got_csr[i]).abs() < 1e-9);
            prop_assert!((want[i] - got_csc[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_matvec_agrees(((r, c, trips), seed) in (arb_matrix(), any::<u64>())) {
        let coo = CooMatrix::from_triplets(r, c, trips).unwrap();
        let dense = coo.to_dense();
        let csr = CsrMatrix::from_coo(&coo);
        let csc = CscMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..r)
            .map(|i| ((seed.wrapping_add(i as u64 * 97) % 512) as f64 - 256.0) / 64.0)
            .collect();
        let want = dense.matvec_transpose(&x).unwrap();
        let got_csr = csr.matvec_transpose(&x).unwrap();
        let got_csc = csc.matvec_transpose(&x).unwrap();
        for j in 0..c {
            prop_assert!((want[j] - got_csr[j]).abs() < 1e-9);
            prop_assert!((want[j] - got_csc[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn ell_and_dia_agree_with_dense(((r, c, trips), seed) in (arb_matrix(), any::<u64>())) {
        let coo = CooMatrix::from_triplets(r, c, trips).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let dense = coo.to_dense();
        let ell = EllMatrix::from_csr(&csr);
        let dia = DiaMatrix::from_csr(&csr);
        // Round-trips drop explicit zeros, so compare matvec semantics.
        let x: Vec<f64> = (0..c)
            .map(|i| ((seed.wrapping_add(i as u64 * 31) % 256) as f64 - 128.0) / 32.0)
            .collect();
        let want = dense.matvec(&x).unwrap();
        let got_ell = ell.matvec(&x).unwrap();
        let got_dia = dia.matvec(&x).unwrap();
        for i in 0..r {
            prop_assert!((want[i] - got_ell[i]).abs() < 1e-9);
            prop_assert!((want[i] - got_dia[i]).abs() < 1e-9);
        }
        // Structural invariants.
        prop_assert!(ell.padding_ratio() >= 0.0 && ell.padding_ratio() <= 1.0);
        prop_assert!(dia.fill_ratio() >= 0.0 && dia.fill_ratio() <= 1.0 + 1e-12);
    }

    #[test]
    fn transpose_twice_is_identity((r, c, trips) in arb_matrix()) {
        let coo = CooMatrix::from_triplets(r, c, trips).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        prop_assert_eq!(csr.transpose().transpose().to_dense(), csr.to_dense());
    }

    #[test]
    fn matrix_market_roundtrip((r, c, trips) in arb_matrix()) {
        let coo = CooMatrix::from_triplets(r, c, trips).unwrap();
        let text = io::write_matrix_market(&coo);
        let back = io::read_matrix_market(&text).unwrap();
        let (d1, d2) = (coo.to_dense(), back.to_dense());
        prop_assert_eq!(d1.n_rows(), d2.n_rows());
        prop_assert!(d1.max_abs_diff(&d2) < 1e-9);
    }

    #[test]
    fn matrix_market_roundtrip_exact_with_interior_noise(
        (r, c, trips) in arb_matrix(),
        stride in 1usize..4,
    ) {
        // Values must survive text round-trip bit-exactly (Rust float
        // formatting is shortest-round-trip), even with comment and
        // blank lines injected between arbitrary data lines.
        let coo = CooMatrix::from_triplets(r, c, trips).unwrap();
        let mut noisy = String::new();
        for (i, line) in io::write_matrix_market(&coo).lines().enumerate() {
            noisy.push_str(line);
            noisy.push('\n');
            if i >= 1 && i % stride == 0 {
                noisy.push_str("% interior comment\n\n  \n");
            }
        }
        let back = io::read_matrix_market(&noisy).unwrap();
        prop_assert_eq!(back.to_dense(), coo.to_dense());
    }

    #[test]
    fn matrix_market_out_of_range_index_errs_not_panics(
        n in 1usize..6,
        excess in 1usize..10,
        on_row in any::<bool>(),
    ) {
        let (r, c) = if on_row { (n + excess, 1) } else { (1, n + excess) };
        let text = format!(
            "%%MatrixMarket matrix coordinate real general\n{n} {n} 1\n{r} {c} 1.0\n"
        );
        prop_assert!(matches!(
            io::read_matrix_market(&text),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn nnz_conserved_across_formats((r, c, trips) in arb_matrix()) {
        // Filter exact zeros the generator may produce (they stay stored).
        let coo = CooMatrix::from_triplets(r, c, trips).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let csc = CscMatrix::from_coo(&coo);
        prop_assert_eq!(csr.nnz(), coo.nnz());
        prop_assert_eq!(csc.nnz(), coo.nnz());
    }

    #[test]
    fn generated_spd_matrices_are_symmetric(n in 2usize..40, nnz in 1usize..6, seed in any::<u64>()) {
        let a = gen::random_spd(n, nnz, seed);
        prop_assert!(a.is_symmetric(1e-12));
        // x' A x > 0 for a few random-ish x (diagonal dominance => SPD).
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 5) as f64 - 2.0).collect();
        let ax = a.matvec(&x).unwrap();
        let quad: f64 = x.iter().zip(ax.iter()).map(|(u, v)| u * v).sum();
        let norm: f64 = x.iter().map(|u| u * u).sum();
        if norm > 0.0 {
            prop_assert!(quad > 0.0, "quadratic form {quad} not positive");
        }
    }

    #[test]
    fn row_stats_bounds_hold(n in 2usize..60, nnz in 1usize..8, seed in any::<u64>()) {
        let a = gen::random_spd(n, nnz, seed);
        let s = stats::row_stats(&a);
        prop_assert!(s.min <= s.max);
        prop_assert!(s.mean >= s.min as f64 && s.mean <= s.max as f64);
        prop_assert!(s.imbalance >= 1.0 - 1e-12);
    }

    #[test]
    fn dense_transpose_involution(rows in 1usize..8, cols in 1usize..8, seed in any::<u64>()) {
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| ((seed.wrapping_add(i as u64) % 100) as f64) / 10.0)
            .collect();
        let d = DenseMatrix::from_row_major(rows, cols, data).unwrap();
        prop_assert_eq!(d.transpose().transpose(), d);
    }
}

/// The CSC arrays `(col_ptr, row_idx, values)` of `entries` as the COO
/// route builds them, written out: `sort_unstable` by (column, row), a
/// repeated coordinate summed into its first entry, an empty column
/// given the pointer before it. `CscMatrix::from_coo` has always been
/// this, and `CscMatrix::from_csr` and `CsrMatrix::transpose` were this
/// on the entries of a CSR matrix read row by row.
fn coo_route(n_cols: usize, mut entries: Vec<(usize, usize, f64)>) -> CompressedArrays {
    entries.sort_unstable_by_key(|&(r, c, _)| (c, r));
    let mut col_ptr = vec![0usize; n_cols + 1];
    let mut row_idx = Vec::with_capacity(entries.len());
    let mut values: Vec<f64> = Vec::with_capacity(entries.len());
    let mut prev: Option<(usize, usize)> = None;
    for (r, c, v) in entries {
        if prev == Some((c, r)) {
            *values.last_mut().unwrap() += v;
        } else {
            row_idx.push(r);
            values.push(v);
            col_ptr[c + 1] = row_idx.len();
            prev = Some((c, r));
        }
    }
    for j in 1..=n_cols {
        if col_ptr[j] < col_ptr[j - 1] {
            col_ptr[j] = col_ptr[j - 1];
        }
    }
    (
        col_ptr,
        row_idx,
        values.iter().map(|v| v.to_bits()).collect(),
    )
}

/// Pointer, index and value bits of one compressed matrix.
type CompressedArrays = (Vec<usize>, Vec<usize>, Vec<u64>);

fn csc_arrays(a: &CscMatrix) -> CompressedArrays {
    let bits = a.values().iter().map(|v| v.to_bits()).collect();
    (a.col_ptr().to_vec(), a.row_idx().to_vec(), bits)
}

fn csr_arrays(a: &CsrMatrix) -> CompressedArrays {
    let bits = a.values().iter().map(|v| v.to_bits()).collect();
    (a.row_ptr().to_vec(), a.col_idx().to_vec(), bits)
}

fn row_by_row(a: &CsrMatrix) -> Vec<(usize, usize, f64)> {
    (0..a.n_rows())
        .flat_map(|i| a.row(i).map(move |(c, v)| (i, c, v)))
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The CSC scatter as it was written over the three arrays: `out +=
/// A(:, cols) · p(cols)`.
fn scatter_reference(a: &CscMatrix, cols: std::ops::Range<usize>, p: &[f64], out: &mut [f64]) {
    let (col_ptr, row_idx, values) = (a.col_ptr(), a.row_idx(), a.values());
    let ends = &col_ptr[cols.start + 1..=cols.end];
    let mut lo = col_ptr[cols.start];
    for (&pj, &hi) in p[cols].iter().zip(ends) {
        if pj != 0.0 {
            for (&r, &a) in row_idx[lo..hi].iter().zip(&values[lo..hi]) {
                out[r] += a * pj;
            }
        }
        lo = hi;
    }
}

/// The CSC gather as it was written over the three arrays: `out = Aᵀ p`.
fn gather_reference(a: &CscMatrix, p: &[f64], out: &mut [f64]) {
    let (col_ptr, row_idx, values) = (a.col_ptr(), a.row_idx(), a.values());
    let mut lo = col_ptr[0];
    for (qj, &hi) in out.iter_mut().zip(&col_ptr[1..]) {
        let mut acc = 0.0;
        for (&a, &r) in values[lo..hi].iter().zip(&row_idx[lo..hi]) {
            acc += a * p[r];
        }
        *qj = acc;
        lo = hi;
    }
}

/// The CSR scatter as it was written: `out = Aᵀ p`.
fn csr_transpose_reference(a: &CsrMatrix, p: &[f64], out: &mut [f64]) {
    let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());
    out.fill(0.0);
    for (i, &pi) in p.iter().enumerate() {
        if pi == 0.0 {
            continue;
        }
        for k in row_ptr[i]..row_ptr[i + 1] {
            out[col_idx[k]] += values[k] * pi;
        }
    }
}

/// A vector of `n` with exact zeros of both signs among values of mixed
/// magnitude, so that skipped columns and rounding both show.
fn operand(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 7 {
                0 => 0.0,
                1 => -0.0,
                k => ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 10f64.powi(k as i32 - 3),
            }
        })
        .collect()
}

/// Every conversion and product of `coo`'s CSC and CSR forms against the
/// reference loops above, bit for bit.
fn check_against_reference(coo: &CooMatrix, seed: u64) {
    let (r, c) = (coo.n_rows(), coo.n_cols());
    let csr = CsrMatrix::from_coo(coo);
    let csc = CscMatrix::from_coo(coo);
    assert_eq!(csc_arrays(&csc), coo_route(c, coo.entries().to_vec()));
    let via_coo = coo_route(c, row_by_row(&csr));
    assert_eq!(csc_arrays(&CscMatrix::from_csr(&csr)), via_coo);
    assert_eq!(csr_arrays(&csr.transpose()), via_coo);
    // `to_csr` was a counting transpose: CSC's columns read as the rows
    // of `Aᵀ`, whose COO route sums nothing.
    let by_col = (0..c).flat_map(|j| csc.col(j).map(move |(i, v)| (j, i, v)));
    assert_eq!(csr_arrays(&csc.to_csr()), coo_route(r, by_col.collect()));
    assert_eq!(CscMatrix::from_csr(&csc.to_csr()), csc);

    let (p, x) = (operand(c, seed), operand(r, seed ^ 0x9e37));
    let mut want = vec![0.0; r];
    scatter_reference(&csc, 0..c, &p, &mut want);
    assert_eq!(bits(&csc.matvec(&p).unwrap()), bits(&want));
    let (lo, hi) = (
        (seed % (c as u64 + 1)) as usize,
        c - (seed >> 8) as usize % (c + 1),
    );
    let cols = lo.min(hi)..lo.max(hi);
    let mut got = operand(r, seed ^ 0x51);
    let mut want = got.clone();
    scatter_reference(&csc, cols.clone(), &p, &mut want);
    csc.matvec_cols_accumulate(cols, &p, &mut got);
    assert_eq!(bits(&got), bits(&want));
    let mut want = vec![f64::NAN; c];
    gather_reference(&csc, &x, &mut want);
    assert_eq!(bits(&csc.matvec_transpose(&x).unwrap()), bits(&want));
    let mut want = vec![f64::NAN; c];
    csr_transpose_reference(&csr, &x, &mut want);
    assert_eq!(bits(&csr.matvec_transpose(&x).unwrap()), bits(&want));
}

/// A random COO matrix that may repeat a coordinate (up to three times,
/// so the order of a sum shows), leave rows and columns empty, and be
/// any shape from 1x1 to 11x11.
fn arb_coo_with_repeats() -> impl Strategy<Value = CooMatrix> {
    (1usize..12, 1usize..12).prop_flat_map(|(r, c)| {
        let cell = (0..r, 0..c, -100.0f64..100.0, 1usize..4);
        proptest::collection::vec(cell, 0..40).prop_map(move |cells| {
            let mut coo = CooMatrix::new(r, c);
            for (i, j, v, times) in cells {
                for k in 0..times {
                    coo.push(i, j, v * 10f64.powi(3 * k as i32 - 3)).unwrap();
                }
            }
            coo
        })
    })
}

proptest! {
    #[test]
    fn csc_products_and_conversions_keep_the_coo_routes_bits(
        coo in arb_coo_with_repeats(),
        seed in any::<u64>(),
    ) {
        check_against_reference(&coo, seed);
    }

    #[test]
    fn csc_of_every_generator_family_keeps_the_coo_routes_bits(seed in any::<u64>()) {
        let families = [
            gen::poisson_2d(7, 5),
            gen::poisson_3d(4, 3, 5),
            gen::banded_spd(40, 3, seed),
            gen::random_spd(40, 4, seed),
            gen::power_law_spd(60, 12, 0.9, seed),
        ];
        for a in &families {
            let coo = CooMatrix::from_triplets(a.n_rows(), a.n_cols(), row_by_row(a)).unwrap();
            check_against_reference(&coo, seed);
        }
    }
}
