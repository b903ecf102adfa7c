//! Geometric multigrid hierarchy over the Poisson generators.
//!
//! A hierarchy is a chain of level descriptors, finest first. Each level
//! holds the operator at that resolution, the `(BLOCK)` descriptor its
//! vectors live on, and the *precomputed* communication shapes the
//! V-cycle charges to the simulated machine: a per-processor halo
//! traffic matrix for the residual matvec, and per-processor transfer
//! traffic matrices for restriction and prolongation. Coarse operators
//! are the Galerkin products `A_{l+1} = Pᵀ A_l P` of bilinear /
//! trilinear interpolation `P`, so restriction `R = Pᵀ` (full weighting
//! scaled by `2^d`) makes every level exactly symmetric — the property
//! the outer CG needs from its preconditioner. The coarsest operator is
//! factored once by dense Cholesky at build time.
//!
//! Grid dims of the form `2^k − 1` per axis coarsen cleanly (every
//! coarse node coincides with a fine node); other sizes work but leave
//! the last fine plane interpolated one-sidedly.

use crate::smoother::SweepPlan;
use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_dist::ArrayDescriptor;
use hpf_sparse::{CooMatrix, CsrMatrix, ProductForm, RowProduct};
use std::collections::BTreeMap;
use std::fmt;

/// Interior-node grid extents; `nz == 1` means a 2-D (5-point) problem,
/// `nz > 1` a 3-D (7-point) one. The global index map matches the
/// Poisson generators: `(i·ny + j)·nz + k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDims {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl GridDims {
    /// A 2-D grid (5-point stencil).
    pub fn d2(nx: usize, ny: usize) -> Self {
        GridDims { nx, ny, nz: 1 }
    }

    /// A 3-D grid (7-point stencil).
    pub fn d3(nx: usize, ny: usize, nz: usize) -> Self {
        GridDims { nx, ny, nz }
    }

    /// Number of unknowns.
    pub fn n(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    pub fn is_3d(&self) -> bool {
        self.nz > 1
    }

    fn index(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.ny + j) * self.nz + k
    }

    /// The Poisson operator this grid discretises (5-point in 2-D,
    /// 7-point in 3-D) — the matrix [`MgHierarchy::build`] takes as its
    /// finest level.
    pub fn poisson(&self) -> hpf_sparse::CsrMatrix {
        if self.is_3d() {
            hpf_sparse::gen::poisson_3d(self.nx, self.ny, self.nz)
        } else {
            hpf_sparse::gen::poisson_2d(self.nx, self.ny)
        }
    }

    /// Whether a `levels`-deep hierarchy can be built over this grid
    /// (every level above the coarsest must coarsen again). Cheap —
    /// walks the dims only, no operators are formed.
    pub fn supports_levels(&self, levels: usize) -> bool {
        let mut dims = *self;
        for _ in 1..levels {
            match dims.coarsen() {
                Some(c) => dims = c,
                None => return false,
            }
        }
        levels >= 2
    }

    /// Standard vertex-centred coarsening: every active axis drops to
    /// `(d − 1) / 2` (coarse node `I` sits on fine node `2I + 1`).
    /// `None` when an axis of extent 2 cannot halve again, or the grid
    /// is already a single point.
    pub fn coarsen(&self) -> Option<GridDims> {
        if self.n() == 1 {
            return None;
        }
        let c = |d: usize| match d {
            1 => Some(1),
            2 => None,
            d => Some((d - 1) / 2),
        };
        Some(GridDims {
            nx: c(self.nx)?,
            ny: c(self.ny)?,
            nz: c(self.nz)?,
        })
    }
}

impl fmt::Display for GridDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_3d() {
            write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
        } else {
            write!(f, "{}x{}", self.nx, self.ny)
        }
    }
}

/// Why a hierarchy could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MgError {
    /// Fewer than two levels is not a hierarchy.
    BadLevels { levels: usize },
    /// A level's grid could not be coarsened again.
    TooCoarse { level: usize, dims: GridDims },
    /// The coarsest operator failed its Cholesky factorisation (cannot
    /// happen for Galerkin-coarsened Poisson; guards future operators).
    NotSpd { level: usize, pivot: usize },
    /// A row of a level operator does not list its columns in strictly
    /// ascending order, so its in-block couplings are not two runs.
    UnsortedRow { level: usize, row: usize },
    /// A row of a level operator stores no diagonal entry for the
    /// smoother to divide by.
    MissingDiagonal { level: usize, row: usize },
}

impl fmt::Display for MgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgError::BadLevels { levels } => {
                write!(f, "a multigrid hierarchy needs >= 2 levels, got {levels}")
            }
            MgError::TooCoarse { level, dims } => write!(
                f,
                "grid {dims} at level {level} is too coarse to halve again"
            ),
            MgError::NotSpd { level, pivot } => write!(
                f,
                "coarsest operator (level {level}) is not SPD at pivot {pivot}"
            ),
            MgError::UnsortedRow { level, row } => write!(
                f,
                "row {row} of the level-{level} operator does not list its columns in ascending order"
            ),
            MgError::MissingDiagonal { level, row } => write!(
                f,
                "row {row} of the level-{level} operator stores no diagonal entry"
            ),
        }
    }
}

impl std::error::Error for MgError {}

/// Inter-level transfer: the interpolation matrix and the communication
/// shapes its two directions induce under `(BLOCK)` ownership.
pub(crate) struct Transfer {
    /// `n_fine × n_coarse` bilinear / trilinear interpolation.
    pub p: CsrMatrix,
    /// `restrict_traffic[p][q]`: words processor `p` sends `q` so `q`
    /// can form its coarse entries of `rc = Pᵀ rr`.
    pub restrict_traffic: Vec<Vec<usize>>,
    /// `prolong_traffic[p][q]`: words `p` sends `q` so `q` can form its
    /// fine entries of `P zc`.
    pub prolong_traffic: Vec<Vec<usize>>,
    pub restrict_flops: Vec<usize>,
    pub prolong_flops: Vec<usize>,
}

/// One level of the hierarchy; its operator is [`MgHierarchy::matrix`].
pub(crate) struct Level {
    pub dims: GridDims,
    pub desc: ArrayDescriptor,
    /// Where block SymGS reads this level's operator.
    pub sweep: SweepPlan,
    /// Boundary-exchange traffic for one matvec at this level.
    pub halo: Vec<Vec<usize>>,
    pub smooth_flops: Vec<usize>,
    pub residual_flops: Vec<usize>,
    /// Transfer towards the next-coarser level; `None` on the coarsest.
    pub down: Option<Transfer>,
}

/// Dense Cholesky factor of the coarsest operator, solved serially at
/// the V-cycle's bottom.
pub(crate) struct DenseCholesky {
    n: usize,
    l: Vec<f64>, // row-major lower factor
}

impl DenseCholesky {
    fn factor(a: &CsrMatrix, level: usize) -> Result<Self, MgError> {
        let n = a.n_rows();
        let mut m = vec![0.0f64; n * n];
        for i in 0..n {
            for (j, v) in a.row(i) {
                m[i * n + j] = v;
            }
        }
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = m[i * n + j];
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(MgError::NotSpd { level, pivot: i });
                    }
                    l[i * n + i] = s.sqrt();
                } else {
                    l[i * n + j] = s / l[j * n + j];
                }
            }
        }
        Ok(DenseCholesky { n, l })
    }

    /// Solve `L Lᵀ x = b` into `x` (overwritten, need not be zeroed):
    /// the forward solve fills `x`, the backward solve finishes it in
    /// place.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert!(b.len() == n && x.len() == n, "coarse solve: vector lengths");
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[i * n + k] * x[k];
            }
            x[i] = s / self.l[i * n + i];
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in (i + 1)..n {
                s -= self.l[k * n + i] * x[k];
            }
            x[i] = s / self.l[i * n + i];
        }
    }

    /// Flops of one solve (two dense triangular sweeps).
    pub fn solve_flops(&self) -> usize {
        2 * self.n * self.n
    }
}

/// A built multigrid hierarchy: level operators, descriptors,
/// communication shapes, and the factored coarsest solve.
pub struct MgHierarchy {
    /// The finest operator, distributed for the outer CG; level 0 of
    /// the cycle reads the same stored matrix.
    fine: RowwiseCsr,
    /// Operators of levels `1..`, Galerkin products of the one above,
    /// each with the form its residual product runs in.
    coarser: Vec<RowProduct>,
    pub(crate) levels: Vec<Level>,
    pub(crate) coarse: DenseCholesky,
    /// Rows each processor holds of the coarsest level: the payloads of
    /// the gather to the root and the scatter back.
    pub(crate) coarse_lens: Vec<usize>,
    np: usize,
}

impl MgHierarchy {
    /// Build a `levels`-deep hierarchy over the Poisson problem on
    /// `dims`, distributed `(BLOCK)` across `np` processors.
    pub fn build(dims: GridDims, levels: usize, np: usize) -> Result<Self, MgError> {
        if levels < 2 {
            return Err(MgError::BadLevels { levels });
        }
        let mut mats = vec![dims.poisson()];
        let mut all_dims = vec![dims];
        let mut interps: Vec<CsrMatrix> = Vec::new();
        for l in 0..levels - 1 {
            let f = all_dims[l];
            let c = f
                .coarsen()
                .ok_or(MgError::TooCoarse { level: l, dims: f })?;
            let p = interpolation(f, c);
            let a_c = galerkin(&mats[l], &p);
            interps.push(p);
            mats.push(a_c);
            all_dims.push(c);
        }
        let coarse = DenseCholesky::factor(&mats[levels - 1], levels - 1)?;

        let descs: Vec<ArrayDescriptor> = mats
            .iter()
            .map(|a| ArrayDescriptor::block(a.n_rows(), np))
            .collect();
        let mut interps = interps.into_iter();
        let mut built: Vec<Level> = Vec::with_capacity(levels);
        for (l, a) in mats.iter().enumerate() {
            let desc = &descs[l];
            let down = interps.next().map(|p| transfer(p, desc, &descs[l + 1]));
            let (smooth_flops, residual_flops) = level_flops(a, desc);
            built.push(Level {
                dims: all_dims[l],
                desc: desc.clone(),
                sweep: SweepPlan::plan(a, desc, l)?,
                halo: halo_traffic(a, desc),
                smooth_flops,
                residual_flops,
                down,
            });
        }
        let coarse_lens = descs[levels - 1].local_lens();
        let fine = mats.remove(0);
        Ok(MgHierarchy {
            fine: RowwiseCsr::block(fine, np, DataArrayLayout::RowAligned),
            coarser: mats.into_iter().map(RowProduct::new).collect(),
            levels: built,
            coarse,
            coarse_lens,
            np,
        })
    }

    /// Number of levels (finest = 0).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    pub fn np(&self) -> usize {
        self.np
    }

    /// Grid extents at one level.
    pub fn level_dims(&self, level: usize) -> GridDims {
        self.levels[level].dims
    }

    /// The finest-level operator matrix.
    pub fn fine_matrix(&self) -> &CsrMatrix {
        self.fine.matrix()
    }

    /// The operator matrix of one level.
    pub(crate) fn matrix(&self, level: usize) -> &CsrMatrix {
        self.product(level).matrix()
    }

    /// One level's operator as its residual multiplies by it. Level 0 is
    /// the outer operator's own product: one matrix, one chosen form.
    pub(crate) fn product(&self, level: usize) -> &RowProduct {
        match level {
            0 => self.fine.row_product(),
            l => &self.coarser[l - 1],
        }
    }

    /// Which host kernel one level's residual product runs (level 0's is
    /// the outer operator's).
    pub fn product_form(&self, level: usize) -> ProductForm {
        self.product(level).form()
    }

    /// The rowwise `(BLOCK, *)` distributed operator over the finest
    /// level that MG-PCG solves with (`MgPreconditioner::pcg`), built once
    /// with the hierarchy.
    pub(crate) fn fine(&self) -> &RowwiseCsr {
        &self.fine
    }

    /// The finest level's distributed operator, ready for the `pcg_*`
    /// entry points; the copy shares the stored matrix.
    pub fn fine_operator(&self) -> RowwiseCsr {
        self.fine.clone()
    }

    /// Total stored nonzeros across all level operators.
    pub fn total_nnz(&self) -> usize {
        (0..self.depth()).map(|l| self.matrix(l).nnz()).sum()
    }
}

/// 1-D interpolation weights for fine node `i`: coincident coarse nodes
/// (fine position `2I + 1`) carry weight 1, in-between fine nodes
/// average their two coarse neighbours (a missing neighbour is the
/// homogeneous Dirichlet boundary).
fn weights_1d(i: usize, nf: usize, nc: usize) -> Vec<(usize, f64)> {
    if nf == 1 {
        return vec![(0, 1.0)];
    }
    if i % 2 == 1 {
        let ii = (i - 1) / 2;
        return if ii < nc { vec![(ii, 1.0)] } else { Vec::new() };
    }
    let mut w = Vec::with_capacity(2);
    let k = i / 2;
    if k >= 1 {
        w.push((k - 1, 0.5));
    }
    if k < nc {
        w.push((k, 0.5));
    }
    w
}

/// Bilinear (2-D) / trilinear (3-D) interpolation `P: coarse → fine` as
/// the tensor product of the 1-D weights.
fn interpolation(fine: GridDims, coarse: GridDims) -> CsrMatrix {
    let mut coo = CooMatrix::new(fine.n(), coarse.n());
    for i in 0..fine.nx {
        let wx = weights_1d(i, fine.nx, coarse.nx);
        for j in 0..fine.ny {
            let wy = weights_1d(j, fine.ny, coarse.ny);
            for k in 0..fine.nz {
                let wz = weights_1d(k, fine.nz, coarse.nz);
                let row = fine.index(i, j, k);
                for &(ix, vx) in &wx {
                    for &(jy, vy) in &wy {
                        for &(kz, vz) in &wz {
                            coo.push(row, coarse.index(ix, jy, kz), vx * vy * vz)
                                .expect("indices in range by construction");
                        }
                    }
                }
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Galerkin triple product `Pᵀ A P` (exact, deterministic: BTreeMap
/// accumulators keep summation order fixed).
fn galerkin(a: &CsrMatrix, p: &CsrMatrix) -> CsrMatrix {
    let nf = a.n_rows();
    let nc = p.n_cols();
    // B = A·P, one accumulator row at a time.
    let mut b: Vec<Vec<(usize, f64)>> = Vec::with_capacity(nf);
    for i in 0..nf {
        let mut acc: BTreeMap<usize, f64> = BTreeMap::new();
        for (j, aij) in a.row(i) {
            for (jj, pj) in p.row(j) {
                *acc.entry(jj).or_insert(0.0) += aij * pj;
            }
        }
        b.push(acc.into_iter().collect());
    }
    // C = Pᵀ·B.
    let mut c: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); nc];
    for i in 0..nf {
        for (ii, pi) in p.row(i) {
            for &(jj, v) in &b[i] {
                *c[ii].entry(jj).or_insert(0.0) += pi * v;
            }
        }
    }
    let mut coo = CooMatrix::new(nc, nc);
    for (i, row) in c.iter().enumerate() {
        for (&j, &v) in row {
            if v != 0.0 {
                coo.push(i, j, v).expect("indices in range");
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Rows processor `p` owns (empty when it owns none).
pub(crate) fn proc_rows(desc: &ArrayDescriptor, p: usize) -> std::ops::Range<usize> {
    desc.contiguous_range(p).unwrap_or(0..0)
}

/// Words each processor must send each other so every processor holds
/// the off-block vector entries its rows of `a` reference — the
/// boundary exchange one matvec at this level costs.
fn halo_traffic(a: &CsrMatrix, desc: &ArrayDescriptor) -> Vec<Vec<usize>> {
    let np = desc.np();
    let n = a.n_rows();
    let mut t = vec![vec![0usize; np]; np];
    for q in 0..np {
        let mut seen = vec![false; n];
        for i in proc_rows(desc, q) {
            for (j, _) in a.row(i) {
                let p = desc.owner(j);
                if p != q && !seen[j] {
                    seen[j] = true;
                    t[p][q] += 1;
                }
            }
        }
    }
    t
}

/// Per-processor flop counts for one SymGS sweep pair and one residual
/// evaluation at this level.
fn level_flops(a: &CsrMatrix, desc: &ArrayDescriptor) -> (Vec<usize>, Vec<usize>) {
    let np = desc.np();
    let mut smooth = vec![0usize; np];
    let mut residual = vec![0usize; np];
    for q in 0..np {
        let range = proc_rows(desc, q);
        let (lo, hi) = (range.start, range.end);
        for i in lo..hi {
            let mut in_block = 0usize;
            let mut row_nnz = 0usize;
            for (j, _) in a.row(i) {
                row_nnz += 1;
                if j >= lo && j < hi {
                    in_block += 1;
                }
            }
            // Forward + backward sweep over the block entries, plus the
            // diagonal divides and the D·y scaling.
            smooth[q] += 4 * in_block + 4;
            residual[q] += 2 * row_nnz + 1;
        }
    }
    (smooth, residual)
}

/// Communication shapes and flop counts for one interpolation matrix
/// under `(BLOCK)` ownership on both sides.
fn transfer(p: CsrMatrix, fdesc: &ArrayDescriptor, cdesc: &ArrayDescriptor) -> Transfer {
    let np = fdesc.np();
    let nf = p.n_rows();
    let mut restrict_traffic = vec![vec![0usize; np]; np];
    let mut prolong_traffic = vec![vec![0usize; np]; np];
    let mut restrict_flops = vec![0usize; np];
    let mut prolong_flops = vec![0usize; np];
    // Restriction rc = Pᵀ rr: the owner of coarse entry I consumes fine
    // entries i with P[i,I] ≠ 0; each off-processor fine entry moves
    // once per destination.
    for i in 0..nf {
        let pf = fdesc.owner(i);
        let mut dests: Vec<usize> = Vec::new();
        for (ii, _) in p.row(i) {
            let qc = cdesc.owner(ii);
            restrict_flops[qc] += 2;
            prolong_flops[pf] += 2;
            if qc != pf && !dests.contains(&qc) {
                dests.push(qc);
            }
        }
        for &q in &dests {
            restrict_traffic[pf][q] += 1;
        }
    }
    // Prolongation z += P zc: the owner of fine entry i consumes the
    // coarse entries its interpolation row references.
    for q in 0..np {
        let mut seen = vec![false; p.n_cols()];
        for i in proc_rows(fdesc, q) {
            for (ii, _) in p.row(i) {
                let pc = cdesc.owner(ii);
                if pc != q && !seen[ii] {
                    seen[ii] = true;
                    prolong_traffic[pc][q] += 1;
                }
            }
        }
    }
    Transfer {
        p,
        restrict_traffic,
        prolong_traffic,
        restrict_flops,
        prolong_flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarsening_halves_pow2_minus_1_dims_exactly() {
        let d = GridDims::d2(15, 15);
        assert_eq!(d.coarsen(), Some(GridDims::d2(7, 7)));
        assert_eq!(GridDims::d3(7, 7, 7).coarsen(), Some(GridDims::d3(3, 3, 3)));
        assert_eq!(GridDims::d2(2, 15).coarsen(), None);
        // The z = 1 axis of a 2-D problem stays inactive.
        assert_eq!(GridDims::d2(15, 15).coarsen().unwrap().nz, 1);
    }

    #[test]
    fn hierarchy_build_validates_inputs() {
        assert!(matches!(
            MgHierarchy::build(GridDims::d2(15, 15), 1, 4),
            Err(MgError::BadLevels { levels: 1 })
        ));
        assert!(matches!(
            MgHierarchy::build(GridDims::d2(7, 7), 4, 4),
            Err(MgError::TooCoarse { level: 2, .. })
        ));
        let h = MgHierarchy::build(GridDims::d2(15, 15), 3, 4).unwrap();
        assert_eq!(h.depth(), 3);
        assert_eq!(h.level_dims(2), GridDims::d2(3, 3));
        assert_eq!(h.fine_matrix().n_rows(), 225);
    }

    #[test]
    fn galerkin_coarse_operators_stay_symmetric_spd() {
        for (dims, levels) in [(GridDims::d2(15, 15), 3), (GridDims::d3(7, 7, 7), 2)] {
            let h = MgHierarchy::build(dims, levels, 4).unwrap();
            for l in 0..h.depth() {
                let a = h.matrix(l);
                assert!(a.is_symmetric(1e-12), "level {l} not symmetric");
                for (i, d) in a.diagonal().iter().enumerate() {
                    assert!(*d > 0.0, "level {l} diagonal {i} not positive");
                }
            }
        }
    }

    #[test]
    fn interpolation_rows_partition_unity_away_from_boundary() {
        // Interior fine nodes interpolate with weights summing to 1;
        // boundary-adjacent rows lose weight to the Dirichlet boundary.
        let f = GridDims::d2(7, 7);
        let c = f.coarsen().unwrap();
        let p = interpolation(f, c);
        let row = f.index(3, 3, 0); // coincident with coarse (1,1)
        let entries: Vec<_> = p.row(row).collect();
        assert_eq!(entries, vec![(c.index(1, 1, 0), 1.0)]);
        let mid = f.index(2, 3, 0); // between two coarse nodes in x
        let s: f64 = p.row(mid).map(|(_, v)| v).sum();
        assert!((s - 1.0).abs() < 1e-15);
    }

    #[test]
    fn halo_traffic_is_symmetric_for_symmetric_operators() {
        let h = MgHierarchy::build(GridDims::d2(15, 15), 2, 4).unwrap();
        let t = &h.levels[0].halo;
        for p in 0..4 {
            for q in 0..4 {
                assert_eq!(t[p][q], t[q][p], "halo asymmetric at ({p},{q})");
            }
            assert_eq!(t[p][p], 0);
        }
        // A (BLOCK) split of a 15x15 5-point grid exchanges whole
        // boundary rows between neighbours.
        assert!(t[0][1] > 0);
    }

    #[test]
    fn cholesky_solves_the_coarsest_operator() {
        let h = MgHierarchy::build(GridDims::d2(15, 15), 3, 4).unwrap();
        let a = h.matrix(2);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let mut x = vec![f64::NAN; n];
        h.coarse.solve_into(&b, &mut x);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-10);
        }
        assert_eq!(h.coarse.solve_flops(), 2 * n * n);
    }

    /// Every level's residual product — the 5-/7-point fine operators and
    /// their 9-/27-point Galerkin coarsenings, whose rows vary next to
    /// the boundary — gives the CSR kernel's bits whichever form it runs
    /// in, for operands holding zeros of both signs, infinities and NaN;
    /// and the levels the benchmark's cycles form residuals on do run in
    /// the template form.
    #[test]
    fn level_products_match_the_csr_kernel_to_the_bit() {
        let bits = |v: &[f64]| -> Vec<u64> {
            v.iter()
                .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
                .collect()
        };
        for (dims, levels) in [
            (GridDims::d2(31, 31), 4),
            (GridDims::d2(15, 7), 3),
            (GridDims::d3(15, 15, 15), 3),
            (GridDims::d3(9, 6, 11), 2),
        ] {
            let h = MgHierarchy::build(dims, levels, 4).unwrap();
            for l in 0..h.depth() {
                let a = h.matrix(l);
                let n = a.n_rows();
                let mut x: Vec<f64> = (0..n)
                    .map(|i| ((i * 37 % 101) as f64 - 50.0) / 7.0)
                    .collect();
                for (k, special) in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]
                    .into_iter()
                    .enumerate()
                {
                    for plant in [false, true] {
                        if plant {
                            x[(k * 131 + 5) % n] = special;
                        }
                        let mut want = vec![f64::NAN; n];
                        a.matvec_rows_into(0..n, &x, &mut want);
                        let mut got = vec![f64::NAN; n];
                        h.product(l).matvec_into(&x, &mut got);
                        assert_eq!(bits(&got), bits(&want), "{dims} level {l}");
                    }
                }
            }
        }
        let h = MgHierarchy::build(GridDims::d3(15, 15, 15), 3, 4).unwrap();
        for l in 0..2 {
            assert!(
                matches!(
                    h.product_form(l),
                    ProductForm::Templates { templates: 27, .. }
                ),
                "level {l}: {:?}",
                h.product_form(l)
            );
        }
    }
}
