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
//! factored once by dense Cholesky, inside its envelope, at build time.
//! Every matrix the build forms is assembled row by row in its final
//! CSR order.
//!
//! Grid dims of the form `2^k − 1` per axis coarsen cleanly (every
//! coarse node coincides with a fine node); other sizes work but leave
//! the last fine plane interpolated one-sidedly.

use crate::smoother::SweepPlan;
use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_dist::ArrayDescriptor;
use hpf_sparse::{CsrMatrix, ProductForm, RowProduct};
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
    /// Factor `a`'s lower triangle inside its envelope, in place. Row `i`
    /// starts at its first stored column `first[i]` (entries left of it
    /// are never computed and stay `+0.0`), and the chain for `L[i][j]`
    /// starts at `k = max(first[i], first[j])`. Each skipped term is a
    /// `+0.0` entry times a finite one, subtracted from a value that
    /// absorbs a signed zero unchanged — any value but a stored `-0.0`,
    /// whose chain runs from `k = 0` — so the factor, or the pivot that
    /// fails, is the full chain's to the bit (DESIGN §22). A NaN pivot
    /// fails like a non-positive one.
    fn factor(a: &CsrMatrix, level: usize) -> Result<Self, MgError> {
        let n = a.n_rows();
        let mut l = vec![0.0f64; n * n];
        let mut first: Vec<usize> = (0..n).collect();
        for i in 0..n {
            for (j, v) in a.row(i) {
                if j <= i {
                    l[i * n + j] = v;
                    first[i] = first[i].min(j);
                }
            }
        }
        for i in 0..n {
            for j in first[i]..=i {
                let mut s = l[i * n + j];
                let from = if s == 0.0 && s.is_sign_negative() {
                    0
                } else {
                    first[i].max(first[j])
                };
                for k in from..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if s.is_nan() || s <= 0.0 {
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
/// homogeneous Dirichlet boundary). At most two, ascending.
fn weights_1d(i: usize, nf: usize, nc: usize) -> impl Iterator<Item = (usize, f64)> + Clone {
    let pair = if nf == 1 {
        [Some((0, 1.0)), None]
    } else if i % 2 == 1 {
        let ii = (i - 1) / 2;
        [(ii < nc).then_some((ii, 1.0)), None]
    } else {
        let k = i / 2;
        [(k >= 1).then(|| (k - 1, 0.5)), (k < nc).then_some((k, 0.5))]
    };
    pair.into_iter().flatten()
}

/// Bilinear (2-D) / trilinear (3-D) interpolation `P: coarse → fine` as
/// the tensor product of the 1-D weights, written row by row: the loops
/// visit fine rows in index order and each row's coarse columns
/// ascending.
fn interpolation(fine: GridDims, coarse: GridDims) -> CsrMatrix {
    let count = |nf, nc| {
        (0..nf)
            .map(|i| weights_1d(i, nf, nc).count())
            .sum::<usize>()
    };
    let nnz = count(fine.nx, coarse.nx) * count(fine.ny, coarse.ny) * count(fine.nz, coarse.nz);
    let mut row_ptr = Vec::with_capacity(fine.n() + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for i in 0..fine.nx {
        let wx = weights_1d(i, fine.nx, coarse.nx);
        for j in 0..fine.ny {
            let wy = weights_1d(j, fine.ny, coarse.ny);
            for k in 0..fine.nz {
                let wz = weights_1d(k, fine.nz, coarse.nz);
                for (ix, vx) in wx.clone() {
                    for (jy, vy) in wy.clone() {
                        for (kz, vz) in wz.clone() {
                            col_idx.push(coarse.index(ix, jy, kz));
                            values.push(vx * vy * vz);
                        }
                    }
                }
                row_ptr.push(col_idx.len());
            }
        }
    }
    CsrMatrix::from_raw(fine.n(), coarse.n(), row_ptr, col_idx, values)
        .expect("coarse indices in range by construction")
}

/// Galerkin triple product `Pᵀ A P` as two row-by-row products:
/// `B = A·P`, then `C = Pᵀ·B` over a counting-sort transpose, with the
/// zeros of `C` dropped. Every entry receives its terms in a fixed order
/// (see [`gustavson`]), so the result is deterministic to the bit. `B`
/// is read only by the second product, which adds at most one term per
/// row of `B` to each entry of `C`, so `B`'s rows are left unsorted.
fn galerkin(a: &CsrMatrix, p: &CsrMatrix) -> CsrMatrix {
    let b = gustavson(a, p, false);
    gustavson(&transpose(p), &b, true)
}

/// `X·Y` one row at a time (Gustavson), through one dense accumulator, a
/// marker per column and the list of columns a row touched. Entry
/// `(i, c)` starts at `+0.0` and adds `x_ik·y_kc` in the order row `i`
/// of `X` lists `k`, then row `k` of `Y` lists `c`. A row is stored in
/// the order its columns were first touched, zeros kept; with `tidy`,
/// ascending and with its zeros dropped.
fn gustavson(x: &CsrMatrix, y: &CsrMatrix, tidy: bool) -> CsrMatrix {
    let (rows, cols) = (x.n_rows(), y.n_cols());
    // `acc` is back at +0.0 after every row; `touched[len]` is written for
    // every term and kept only for a column's first (no branch to miss).
    let mut acc = vec![0.0f64; cols];
    let mut mark = vec![usize::MAX; cols];
    let mut touched = vec![0usize; cols + 1];
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0);
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for i in 0..rows {
        let mut len = 0;
        for (k, xik) in x.row(i) {
            for (c, ykc) in y.row(k) {
                touched[len] = c;
                len += usize::from(mark[c] != i);
                mark[c] = i;
                acc[c] += xik * ykc;
            }
        }
        let row = &mut touched[..len];
        if tidy {
            row.sort_unstable();
        }
        for &c in row.iter() {
            if !tidy || acc[c] != 0.0 {
                col_idx.push(c);
                values.push(acc[c]);
            }
            acc[c] = 0.0;
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw(rows, cols, row_ptr, col_idx, values).expect("columns of Y are in range")
}

/// `Pᵀ` by a counting sort over `P`'s columns: row `I` lists the fine
/// rows that reference coarse node `I`, ascending, each in `P`'s order.
fn transpose(p: &CsrMatrix) -> CsrMatrix {
    let (nf, nc) = (p.n_rows(), p.n_cols());
    let mut row_ptr = vec![0usize; nc + 1];
    for &c in p.col_idx() {
        row_ptr[c + 1] += 1;
    }
    for c in 0..nc {
        row_ptr[c + 1] += row_ptr[c];
    }
    let mut next = row_ptr[..nc].to_vec();
    let mut col_idx = vec![0usize; p.nnz()];
    let mut values = vec![0.0f64; p.nnz()];
    for i in 0..nf {
        for (c, v) in p.row(i) {
            col_idx[next[c]] = i;
            values[next[c]] = v;
            next[c] += 1;
        }
    }
    CsrMatrix::from_raw(nc, nf, row_ptr, col_idx, values).expect("fine rows are in range")
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
    // once per destination. A trilinear row has at most 8 coarse entries,
    // so at most 8 destinations.
    for i in 0..nf {
        let pf = fdesc.owner(i);
        let mut dests = [0usize; 8];
        let mut n_dests = 0;
        for (ii, _) in p.row(i) {
            let qc = cdesc.owner(ii);
            restrict_flops[qc] += 2;
            prolong_flops[pf] += 2;
            if qc != pf && !dests[..n_dests].contains(&qc) {
                dests[n_dests] = qc;
                n_dests += 1;
                restrict_traffic[pf][qc] += 1;
            }
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
    use hpf_sparse::CooMatrix;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The 1-D weights as they were, one `Vec` a node.
    fn weights_1d_vec(i: usize, nf: usize, nc: usize) -> Vec<(usize, f64)> {
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

    /// The interpolation as it was: triplets sorted by `from_coo`.
    fn interpolation_coo(fine: GridDims, coarse: GridDims) -> CsrMatrix {
        let mut coo = CooMatrix::new(fine.n(), coarse.n());
        for i in 0..fine.nx {
            let wx = weights_1d_vec(i, fine.nx, coarse.nx);
            for j in 0..fine.ny {
                let wy = weights_1d_vec(j, fine.ny, coarse.ny);
                for k in 0..fine.nz {
                    let wz = weights_1d_vec(k, fine.nz, coarse.nz);
                    let row = fine.index(i, j, k);
                    for &(ix, vx) in &wx {
                        for &(jy, vy) in &wy {
                            for &(kz, vz) in &wz {
                                coo.push(row, coarse.index(ix, jy, kz), vx * vy * vz)
                                    .unwrap();
                            }
                        }
                    }
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// The Galerkin product as it was: `BTreeMap` accumulators, `C`
    /// scattered fine row by fine row.
    fn galerkin_btreemap(a: &CsrMatrix, p: &CsrMatrix) -> CsrMatrix {
        let nf = a.n_rows();
        let nc = p.n_cols();
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
                    coo.push(i, j, v).unwrap();
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// The dense Cholesky as it was: every chain from `k = 0` over a dense
    /// copy of `a` (with the NaN pivot refused, as `factor` refuses it).
    fn factor_full_chain(a: &CsrMatrix, level: usize) -> Result<DenseCholesky, MgError> {
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
                    if s.is_nan() || s <= 0.0 {
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

    fn assert_same_csr(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
        assert_eq!(
            (got.n_rows(), got.n_cols()),
            (want.n_rows(), want.n_cols()),
            "{what}: shape"
        );
        assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
        assert_eq!(got.col_idx(), want.col_idx(), "{what}: col_idx");
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: values");
    }

    fn assert_same_factor(a: &CsrMatrix, level: usize, what: &str) {
        match (DenseCholesky::factor(a, level), factor_full_chain(a, level)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.n, want.n, "{what}: order");
                let bits = |c: &DenseCholesky| c.l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{what}: factor");
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{what}"),
            (got, want) => panic!(
                "{what}: {:?} against the full chain's {:?}",
                got.err(),
                want.err()
            ),
        }
    }

    /// The largest coarse level of a grid with extents up to 17 (8³). The
    /// full chain costs n³/6, so larger levels — which no hierarchy the
    /// workspace builds factors — are held by their Galerkin product only.
    const FACTORED_UP_TO: usize = 512;

    /// Walks `dims` down to its coarsest grid, holding every interpolation
    /// and Galerkin product to the old assembly's arrays, and the coarsest
    /// operator of every depth `supports_levels` allows (up to
    /// `FACTORED_UP_TO` rows) to the full-chain factor, bit for bit.
    /// Returns the deepest depth reached.
    fn assert_hierarchy_matches_the_oracles(dims: GridDims) -> usize {
        let (mut f, mut a, mut depth) = (dims, dims.poisson(), 1);
        while let Some(c) = f.coarsen() {
            let what = format!("{dims}, {f} -> {c}");
            let p = interpolation(f, c);
            assert_same_csr(&p, &interpolation_coo(f, c), &format!("{what}: P"));
            let a_c = galerkin(&a, &p);
            assert_same_csr(&a_c, &galerkin_btreemap(&a, &p), &format!("{what}: PᵀAP"));
            depth += 1;
            assert!(dims.supports_levels(depth), "{what}");
            if a_c.n_rows() <= FACTORED_UP_TO {
                assert_same_factor(&a_c, depth - 1, &format!("{what}: Cholesky"));
            }
            (f, a) = (c, a_c);
        }
        assert!(!dims.supports_levels(depth + 1), "{dims}");
        depth
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every matrix the hierarchy builds, on 2-D and 3-D grids with
        /// extents 1–17 (most not of the form 2^k − 1, so their last plane
        /// interpolates one-sidedly), at every depth the grid allows.
        #[test]
        fn every_level_is_assembled_to_the_oracles_bits(
            three_d in any::<bool>(),
            nx in 1usize..=17,
            ny in 1usize..=17,
            nz in 1usize..=17,
        ) {
            let dims = if three_d { GridDims::d3(nx, ny, nz) } else { GridDims::d2(nx, ny) };
            assert_hierarchy_matches_the_oracles(dims);
        }

        /// Where summation order shows. Every sum on a Poisson level is
        /// exact (integer stencils, dyadic weights), so there the terms
        /// could come in any order without a bit moving. Here `A` and `P`
        /// hold arbitrary values, explicit `±0.0` among them, in rows that
        /// may be unsorted and may store a column twice.
        #[test]
        fn galerkin_adds_in_the_oracles_order_on_any_csr(
            nf in 1usize..40,
            nc in 1usize..20,
            a_rows in proptest::collection::vec(proptest::collection::vec((0usize..1000, entry()), 0..7), 40),
            p_rows in proptest::collection::vec(proptest::collection::vec((0usize..1000, entry()), 0..5), 40),
        ) {
            let a = csr(nf, &a_rows[..nf]);
            let p = csr(nc, &p_rows[..nf]);
            assert_same_csr(&galerkin(&a, &p), &galerkin_btreemap(&a, &p), "arbitrary A, P");
        }

        /// The envelope on lower triangles whose rows start anywhere, with
        /// explicit `±0.0` inside them, SPD or not: the same factor, or
        /// the same failing pivot, as the full chain.
        #[test]
        fn cholesky_envelope_matches_the_full_chain_on_any_envelope(
            n in 1usize..24,
            starts in proptest::collection::vec(0usize..1000, 24),
            stream in proptest::collection::vec(entry(), 300),
            weight in 0.0f64..2.0,
        ) {
            let mut next = stream.iter().copied().cycle();
            let rows: Vec<Vec<(usize, f64)>> = (0..n)
                .map(|i| {
                    let first = starts[i] % (i + 1);
                    let mut row: Vec<(usize, f64)> =
                        (first..i).map(|j| (j, next.next().unwrap())).collect();
                    let dominance = weight * (i - first + 1) as f64;
                    row.push((i, next.next().unwrap() + dominance));
                    row
                })
                .collect();
            assert_same_factor(&csr(n, &rows), 1, "arbitrary envelope");
        }
    }

    /// A value of a generated matrix: `+0.0`, `−0.0` or an arbitrary one.
    fn entry() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0f64), Just(-0.0f64), -1.0f64..1.0]
    }

    /// `rows.len() × n_cols` CSR holding `rows` as given (columns taken
    /// mod `n_cols`), in their order.
    fn csr(n_cols: usize, rows: &[Vec<(usize, f64)>]) -> CsrMatrix {
        let mut row_ptr = vec![0];
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for row in rows {
            for &(c, v) in row {
                col_idx.push(c % n_cols);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw(rows.len(), n_cols, row_ptr, col_idx, values).unwrap()
    }

    #[test]
    fn the_benchmark_and_test_grids_are_assembled_to_the_oracles_bits() {
        for (dims, depth) in [
            (GridDims::d3(31, 31, 31), 5),
            (GridDims::d3(15, 15, 15), 4),
            (GridDims::d3(9, 6, 11), 2),
            (GridDims::d2(31, 31), 5),
            (GridDims::d2(15, 7), 4),
        ] {
            assert_eq!(assert_hierarchy_matches_the_oracles(dims), depth, "{dims}");
        }
    }

    /// The symmetric matrix whose lower triangle is `entries`, every one
    /// stored (zeros included).
    fn symmetric_csr(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v).unwrap();
            if i != j {
                coo.push(j, i, v).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// A stored `+0.0` widens a row's envelope and changes nothing; a
    /// stored `-0.0` runs its chain from column 0, because the envelope's
    /// skipped term `+0.0 · L[1][0]` is `−0.0` here and `−0.0 − (−0.0)`
    /// is `+0.0`.
    #[test]
    fn cholesky_with_stored_signed_zeros_matches_the_full_chain() {
        let a = symmetric_csr(
            4,
            &[
                (0, 0, 4.0),
                (1, 0, -1.0),
                (1, 1, 4.0),
                (2, 1, -0.0),
                (2, 2, 4.0),
                (3, 0, 0.0),
                (3, 2, -1.0),
                (3, 3, 4.0),
            ],
        );
        assert_eq!(a.nnz(), 12, "both zeros are stored");
        assert_same_factor(&a, 1, "signed zeros");
        let c = DenseCholesky::factor(&a, 1).unwrap();
        assert_eq!(
            c.l[2 * 4 + 1].to_bits(),
            0.0f64.to_bits(),
            "L[2][1] is +0.0"
        );
    }

    #[test]
    fn cholesky_refuses_a_nan_pivot() {
        // A NaN on the diagonal is the pivot itself.
        let a = symmetric_csr(
            3,
            &[(0, 0, 4.0), (1, 1, f64::NAN), (2, 1, -1.0), (2, 2, 4.0)],
        );
        assert_eq!(
            DenseCholesky::factor(&a, 2).err(),
            Some(MgError::NotSpd { level: 2, pivot: 1 })
        );
        assert_same_factor(&a, 2, "NaN diagonal");
        // A NaN off the diagonal makes L[2][0] NaN, and its square reaches
        // the next pivot.
        let a = symmetric_csr(
            3,
            &[(0, 0, 4.0), (1, 1, 4.0), (2, 0, f64::NAN), (2, 2, 4.0)],
        );
        assert_eq!(
            DenseCholesky::factor(&a, 1).err(),
            Some(MgError::NotSpd { level: 1, pivot: 2 })
        );
        assert_same_factor(&a, 1, "NaN off the diagonal");
    }

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
