//! Synthetic matrix generators.
//!
//! The paper motivates CG with "computationally expensive scientific and
//! engineering applications, e.g. structural analysis, fluid dynamics,
//! aerodynamics, lattice gauge simulation, and circuit simulation"
//! (Section 1) and its extension proposals hinge on sparsity *structure*:
//! uniform nnz per row/column (Section 5.2.1) versus "a very irregular
//! grid model in which some grid points may have many neighbours, while
//! others have very few" (Section 5.2.2). These generators produce
//! exactly those families, plus a matrix with a prescribed number of
//! distinct eigenvalues for the Section 2 convergence claim
//! ("CG will generally converge ... in at most n_e iterations, where n_e
//! is the number of distinct eigenvalues").

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A square matrix assembled row by row in its final order: each row's
/// entries are pushed with their columns ascending, so the arrays are the
/// ones `CsrMatrix::from_coo` would sort the same entries into.
struct CsrRows {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrRows {
    fn with_capacity(n: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        CsrRows {
            row_ptr,
            col_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    fn push(&mut self, col: usize, value: f64) {
        self.col_idx.push(col);
        self.values.push(value);
    }

    fn end_row(&mut self) {
        self.row_ptr.push(self.col_idx.len());
    }

    fn finish(self, n: usize) -> CsrMatrix {
        CsrMatrix::from_raw(n, n, self.row_ptr, self.col_idx, self.values)
            .expect("stencil rows are in range by construction")
    }
}

/// 2-D Poisson problem (5-point stencil) on an `nx` x `ny` grid with
/// Dirichlet boundaries: the classic CFD/structural model problem.
/// Symmetric positive definite, n = nx*ny, ≤ 5 entries per row.
pub fn poisson_2d(nx: usize, ny: usize) -> CsrMatrix {
    assert!(nx > 0 && ny > 0);
    let n = nx * ny;
    let mut rows = CsrRows::with_capacity(n, n + 2 * ((nx - 1) * ny + nx * (ny - 1)));
    for i in 0..nx {
        for j in 0..ny {
            let me = i * ny + j;
            if i > 0 {
                rows.push(me - ny, -1.0);
            }
            if j > 0 {
                rows.push(me - 1, -1.0);
            }
            rows.push(me, 4.0);
            if j + 1 < ny {
                rows.push(me + 1, -1.0);
            }
            if i + 1 < nx {
                rows.push(me + ny, -1.0);
            }
            rows.end_row();
        }
    }
    rows.finish(n)
}

/// 3-D Poisson problem (7-point stencil) on an `nx` x `ny` x `nz` grid.
pub fn poisson_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    assert!(nx > 0 && ny > 0 && nz > 0);
    let n = nx * ny * nz;
    let plane = ny * nz;
    let couplings = (nx - 1) * plane + nx * (ny - 1) * nz + nx * ny * (nz - 1);
    let mut rows = CsrRows::with_capacity(n, n + 2 * couplings);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let me = (i * ny + j) * nz + k;
                if i > 0 {
                    rows.push(me - plane, -1.0);
                }
                if j > 0 {
                    rows.push(me - nz, -1.0);
                }
                if k > 0 {
                    rows.push(me - 1, -1.0);
                }
                rows.push(me, 6.0);
                if k + 1 < nz {
                    rows.push(me + 1, -1.0);
                }
                if j + 1 < ny {
                    rows.push(me + nz, -1.0);
                }
                if i + 1 < nx {
                    rows.push(me + plane, -1.0);
                }
                rows.end_row();
            }
        }
    }
    rows.finish(n)
}

/// Symmetric positive-definite banded matrix with given half-bandwidth:
/// structural-analysis style. Off-diagonal entries decay with distance,
/// the diagonal dominates.
pub fn banded_spd(n: usize, half_bandwidth: usize, seed: u64) -> CsrMatrix {
    assert!(n > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(n, n);
    let mut row_sums = vec![0.0f64; n];
    for i in 0..n {
        for d in 1..=half_bandwidth {
            if i + d < n {
                let v: f64 = -rng.gen_range(0.1..1.0) / d as f64;
                coo.push(i, i + d, v).unwrap();
                coo.push(i + d, i, v).unwrap();
                row_sums[i] += v.abs();
                row_sums[i + d] += v.abs();
            }
        }
    }
    for (i, s) in row_sums.iter().enumerate() {
        // Strict diagonal dominance => SPD for a symmetric matrix.
        coo.push(i, i, s + 1.0).unwrap();
    }
    CsrMatrix::from_coo(&coo)
}

/// Random symmetric diagonally dominant (hence SPD) matrix with roughly
/// `nnz_per_row` off-diagonal entries per row at uniform random columns —
/// the "arbitrarily sparse" matrix of the paper's Section 4.
pub fn random_spd(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    assert!(n > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    let mut row_sums = vec![0.0f64; n];
    for i in 0..n {
        for _ in 0..nnz_per_row {
            let j = rng.gen_range(0..n);
            if j == i {
                continue;
            }
            let v: f64 = -rng.gen_range(0.05..1.0);
            triplets.push((i, j, v));
            triplets.push((j, i, v));
            row_sums[i] += v.abs();
            row_sums[j] += v.abs();
        }
    }
    for (i, s) in row_sums.iter().enumerate() {
        triplets.push((i, i, s + 1.0));
    }
    let coo = CooMatrix::from_triplets_summing(n, n, triplets).unwrap();
    CsrMatrix::from_coo(&coo)
}

/// Irregular sparsity: row `i`'s off-diagonal count follows a power-law,
/// so a few "hub" rows are very dense and most are nearly empty —
/// Section 5.2.2's "some grid points may have many neighbours, while
/// others have very few". Symmetrised and made diagonally dominant so CG
/// still applies.
pub fn power_law_spd(n: usize, max_row_nnz: usize, alpha: f64, seed: u64) -> CsrMatrix {
    assert!(n > 1);
    assert!(alpha > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    let mut row_sums = vec![0.0f64; n];
    for i in 0..n {
        // Zipf-ish: rank-dependent degree, clamped to [1, max_row_nnz].
        let frac = ((i + 1) as f64).powf(-alpha);
        let degree = ((max_row_nnz as f64 * frac).ceil() as usize).clamp(1, max_row_nnz);
        for _ in 0..degree {
            let j = rng.gen_range(0..n);
            if j == i {
                continue;
            }
            let v: f64 = -rng.gen_range(0.05..0.5);
            triplets.push((i, j, v));
            triplets.push((j, i, v));
            row_sums[i] += v.abs();
            row_sums[j] += v.abs();
        }
    }
    for (i, s) in row_sums.iter().enumerate() {
        triplets.push((i, i, s + 1.0));
    }
    let coo = CooMatrix::from_triplets_summing(n, n, triplets).unwrap();
    CsrMatrix::from_coo(&coo)
}

/// Symmetric positive-definite matrix with *exactly* the given distinct
/// eigenvalues (each repeated to fill dimension `n`), constructed as
/// `G_k ... G_1 D G_1ᵀ ... G_kᵀ` with random Givens rotations — sparse
/// for a modest number of rotations, spectrum exactly preserved.
///
/// Used to reproduce the Section 2 claim that CG converges in at most
/// `n_e` iterations, `n_e` = number of distinct eigenvalues.
pub fn distinct_eigenvalues(
    n: usize,
    eigenvalues: &[f64],
    rotations: usize,
    seed: u64,
) -> CsrMatrix {
    assert!(n > 0);
    assert!(!eigenvalues.is_empty());
    assert!(
        eigenvalues.iter().all(|&e| e > 0.0),
        "eigenvalues must be positive for an SPD matrix"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Dense working storage: the construction is O(n * rotations), used
    // only at modest n for the convergence experiment.
    let mut a = crate::dense::DenseMatrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = eigenvalues[i % eigenvalues.len()];
    }
    for _ in 0..rotations {
        let i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n);
        while j == i {
            j = rng.gen_range(0..n);
        }
        let theta: f64 = rng.gen_range(0.0..std::f64::consts::PI);
        let (c, s) = (theta.cos(), theta.sin());
        // A <- G A Gᵀ with G the rotation in the (i, j) plane.
        for k in 0..n {
            let (aik, ajk) = (a[(i, k)], a[(j, k)]);
            a[(i, k)] = c * aik - s * ajk;
            a[(j, k)] = s * aik + c * ajk;
        }
        for k in 0..n {
            let (aki, akj) = (a[(k, i)], a[(k, j)]);
            a[(k, i)] = c * aki - s * akj;
            a[(k, j)] = s * aki + c * akj;
        }
    }
    // Clean up rounding asymmetry before converting.
    for i in 0..n {
        for j in (i + 1)..n {
            let m = 0.5 * (a[(i, j)] + a[(j, i)]);
            a[(i, j)] = m;
            a[(j, i)] = m;
        }
    }
    CsrMatrix::from_dense(&a)
}

/// Block-irregular "mesh" matrix: a set of tightly coupled regions
/// (dense-ish diagonal blocks of very different sizes) joined by a thin
/// chain of interface couplings — the multi-region grid structure of
/// Section 5.2.2 that "is identifiable to a human but not to a
/// compiler". SPD by diagonal dominance.
pub fn block_irregular_mesh(block_sizes: &[usize], seed: u64) -> CsrMatrix {
    assert!(!block_sizes.is_empty());
    assert!(
        block_sizes.iter().all(|&s| s > 0),
        "blocks must be non-empty"
    );
    let n: usize = block_sizes.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    let mut row_sums = vec![0.0f64; n];
    let mut base = 0usize;
    for &size in block_sizes {
        // Dense coupling within the region (upper triangle, mirrored).
        for i in 0..size {
            for j in (i + 1)..size {
                let v: f64 = -rng.gen_range(0.05..0.4);
                triplets.push((base + i, base + j, v));
                triplets.push((base + j, base + i, v));
                row_sums[base + i] += v.abs();
                row_sums[base + j] += v.abs();
            }
        }
        // One interface coupling to the next region.
        if base + size < n {
            let v = -0.5;
            triplets.push((base + size - 1, base + size, v));
            triplets.push((base + size, base + size - 1, v));
            row_sums[base + size - 1] += v.abs();
            row_sums[base + size] += v.abs();
        }
        base += size;
    }
    for (i, s) in row_sums.iter().enumerate() {
        triplets.push((i, i, s + 1.0));
    }
    let coo = CooMatrix::from_triplets_summing(n, n, triplets).unwrap();
    CsrMatrix::from_coo(&coo)
}

/// Symmetric tridiagonal Toeplitz matrix `tri(b, a, b)` (known spectrum:
/// `a + 2 b cos(k pi / (n+1))`).
pub fn tridiagonal(n: usize, diag: f64, off: f64) -> CsrMatrix {
    assert!(n > 0);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, diag).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, off).unwrap();
            coo.push(i + 1, i, off).unwrap();
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Right-hand side `b = A x_true` for a prescribed smooth solution, so
/// solver tests can verify against a known answer.
pub fn rhs_for_known_solution(a: &CsrMatrix) -> (Vec<f64>, Vec<f64>) {
    let n = a.n_cols();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 / n as f64).sin()).collect();
    let b = a.matvec(&x_true).expect("square system");
    (x_true, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The 5-point generator as it was: triplets in stencil order, sorted
    /// by `from_coo`. The oracle for the row-by-row assembly.
    fn poisson_2d_coo(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                let me = idx(i, j);
                coo.push(me, me, 4.0).unwrap();
                if i > 0 {
                    coo.push(me, idx(i - 1, j), -1.0).unwrap();
                }
                if i + 1 < nx {
                    coo.push(me, idx(i + 1, j), -1.0).unwrap();
                }
                if j > 0 {
                    coo.push(me, idx(i, j - 1), -1.0).unwrap();
                }
                if j + 1 < ny {
                    coo.push(me, idx(i, j + 1), -1.0).unwrap();
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// The 7-point generator as it was.
    fn poisson_3d_coo(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let n = nx * ny * nz;
        let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                for k in 0..nz {
                    let me = idx(i, j, k);
                    coo.push(me, me, 6.0).unwrap();
                    if i > 0 {
                        coo.push(me, idx(i - 1, j, k), -1.0).unwrap();
                    }
                    if i + 1 < nx {
                        coo.push(me, idx(i + 1, j, k), -1.0).unwrap();
                    }
                    if j > 0 {
                        coo.push(me, idx(i, j - 1, k), -1.0).unwrap();
                    }
                    if j + 1 < ny {
                        coo.push(me, idx(i, j + 1, k), -1.0).unwrap();
                    }
                    if k > 0 {
                        coo.push(me, idx(i, j, k - 1), -1.0).unwrap();
                    }
                    if k + 1 < nz {
                        coo.push(me, idx(i, j, k + 1), -1.0).unwrap();
                    }
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn assert_same_arrays(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
        assert_eq!(got.n_rows(), want.n_rows(), "{what}: rows");
        assert_eq!(got.n_cols(), want.n_cols(), "{what}: cols");
        assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
        assert_eq!(got.col_idx(), want.col_idx(), "{what}: col_idx");
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: values");
    }

    /// An extent of 1 half the time, so every axis meets the degenerate
    /// grid line, plane and point.
    fn extent() -> impl Strategy<Value = usize> {
        prop_oneof![Just(1usize), 1usize..=17]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The generators assemble straight into CSR and store the arrays
        /// the triplet assembly sorted into, to the bit.
        #[test]
        fn stencil_rows_are_the_sorted_triplets(nx in extent(), ny in extent(), nz in extent()) {
            assert_same_arrays(&poisson_2d(nx, ny), &poisson_2d_coo(nx, ny), &format!("2-D {nx}x{ny}"));
            assert_same_arrays(
                &poisson_3d(nx, ny, nz),
                &poisson_3d_coo(nx, ny, nz),
                &format!("3-D {nx}x{ny}x{nz}"),
            );
        }
    }

    #[test]
    fn poisson_2d_shape_and_symmetry() {
        let a = poisson_2d(4, 5);
        assert_eq!(a.n_rows(), 20);
        assert!(a.is_symmetric(0.0));
        // Interior point has 5 entries.
        assert_eq!(a.row_nnz(6), 5);
        // Corner has 3.
        assert_eq!(a.row_nnz(0), 3);
        assert_eq!(a.get(0, 0), 4.0);
    }

    #[test]
    fn poisson_3d_shape() {
        let a = poisson_3d(3, 3, 3);
        assert_eq!(a.n_rows(), 27);
        assert!(a.is_symmetric(0.0));
        // Centre point of the cube has 7 entries.
        let centre = (3 + 1) * 3 + 1;
        assert_eq!(a.row_nnz(centre), 7);
        assert_eq!(a.get(centre, centre), 6.0);
    }

    #[test]
    fn banded_is_spd_shaped() {
        let a = banded_spd(50, 3, 42);
        assert!(a.is_symmetric(1e-12));
        // Diagonal dominance.
        for i in 0..50 {
            let offsum: f64 = a
                .row(i)
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.get(i, i) > offsum, "row {i} not dominant");
        }
        // Band respected.
        for i in 0..50 {
            for (j, _) in a.row(i) {
                assert!(i.abs_diff(j) <= 3);
            }
        }
    }

    #[test]
    fn random_spd_is_symmetric_dominant() {
        let a = random_spd(64, 4, 7);
        assert!(a.is_symmetric(1e-12));
        for i in 0..64 {
            let offsum: f64 = a
                .row(i)
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.get(i, i) > offsum);
        }
    }

    #[test]
    fn power_law_is_irregular() {
        let a = power_law_spd(200, 60, 1.0, 3);
        assert!(a.is_symmetric(1e-12));
        let max_nnz = (0..200).map(|i| a.row_nnz(i)).max().unwrap();
        let min_nnz = (0..200).map(|i| a.row_nnz(i)).min().unwrap();
        // Hubs must be much denser than leaves.
        assert!(
            max_nnz >= 4 * min_nnz.max(1),
            "max {max_nnz} vs min {min_nnz}"
        );
    }

    #[test]
    fn distinct_eigenvalues_preserves_trace_and_symmetry() {
        let eigs = [1.0, 2.0, 5.0];
        let n = 12;
        let a = distinct_eigenvalues(n, &eigs, 30, 11);
        assert!(a.is_symmetric(1e-9));
        // Trace = sum of eigenvalues with multiplicity (n/3 copies each).
        let trace: f64 = a.diagonal().iter().sum();
        let want: f64 = (0..n).map(|i| eigs[i % 3]).sum();
        assert!((trace - want).abs() < 1e-8, "trace {trace} want {want}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn distinct_eigenvalues_rejects_nonpositive() {
        distinct_eigenvalues(4, &[1.0, -2.0], 3, 0);
    }

    #[test]
    fn tridiagonal_structure() {
        let a = tridiagonal(5, 2.0, -1.0);
        assert_eq!(a.nnz(), 13);
        assert_eq!(a.get(2, 2), 2.0);
        assert_eq!(a.get(2, 3), -1.0);
        assert_eq!(a.get(2, 4), 0.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn rhs_for_known_solution_consistent() {
        let a = poisson_2d(5, 5);
        let (x_true, b) = rhs_for_known_solution(&a);
        let ax = a.matvec(&x_true).unwrap();
        for (u, v) in ax.iter().zip(b.iter()) {
            assert_eq!(u, v);
        }
    }

    #[test]
    fn block_irregular_mesh_structure() {
        let a = block_irregular_mesh(&[20, 3, 3, 3], 5);
        assert_eq!(a.n_rows(), 29);
        assert!(a.is_symmetric(1e-12));
        // Diagonal dominance (SPD).
        for i in 0..29 {
            let offsum: f64 = a
                .row(i)
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.get(i, i) > offsum);
        }
        // The big region's rows are much denser than the small regions'.
        let dense_row_nnz = a.row_nnz(5);
        let sparse_row_nnz = a.row_nnz(25);
        assert!(
            dense_row_nnz > 3 * sparse_row_nnz,
            "{dense_row_nnz} vs {sparse_row_nnz}"
        );
        // Interface couples region boundaries.
        assert!(a.get(19, 20) != 0.0);
        assert_eq!(a.get(5, 25), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn block_irregular_mesh_rejects_empty_block() {
        block_irregular_mesh(&[3, 0, 2], 1);
    }

    #[test]
    fn power_law_is_strictly_diagonally_dominant() {
        let a = power_law_spd(128, 24, 0.8, 13);
        assert!(a.is_symmetric(1e-12));
        for i in 0..128 {
            let offsum: f64 = a
                .row(i)
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.get(i, i) > offsum, "row {i} not strictly dominant");
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(random_spd(32, 3, 9), random_spd(32, 3, 9));
        assert_ne!(random_spd(32, 3, 9), random_spd(32, 3, 10));
    }

    #[test]
    fn irregular_generators_are_deterministic_per_seed() {
        assert_eq!(power_law_spd(64, 12, 0.9, 7), power_law_spd(64, 12, 0.9, 7));
        assert_ne!(power_law_spd(64, 12, 0.9, 7), power_law_spd(64, 12, 0.9, 8));
        assert_eq!(
            block_irregular_mesh(&[10, 3, 3], 4),
            block_irregular_mesh(&[10, 3, 3], 4)
        );
        assert_ne!(
            block_irregular_mesh(&[10, 3, 3], 4),
            block_irregular_mesh(&[10, 3, 3], 5)
        );
    }
}
