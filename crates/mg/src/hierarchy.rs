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
//! factored once by Cholesky at build time, inside its envelope, and kept
//! as that envelope. Every matrix the build forms is assembled row by
//! row in its final CSR order; the interpolation is read for the
//! Galerkin product and the transfer shapes, then dropped, and the cycle
//! applies it by its 1-D weights.
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

/// At most three `(index, weight)` pairs, ascending.
#[derive(Debug, Clone, Copy, Default)]
struct Pairs {
    len: usize,
    at: [(usize, f64); 3],
}

impl Pairs {
    fn push(&mut self, pair: (usize, f64)) {
        self.at[self.len] = pair;
        self.len += 1;
    }

    fn get(&self) -> &[(usize, f64)] {
        &self.at[..self.len]
    }
}

/// One axis of the interpolation's tensor product: the 1-D weights of
/// every fine index (`weights_1d`), and the same pairs seen from the
/// coarse side.
#[derive(Debug)]
struct Axis {
    /// Fine index → its at most two coarse neighbours.
    to_coarse: Vec<Pairs>,
    /// Coarse index → the at most three fine indices that name it.
    to_fine: Vec<Pairs>,
}

impl Axis {
    fn new(nf: usize, nc: usize) -> Self {
        let mut to_coarse = vec![Pairs::default(); nf];
        let mut to_fine = vec![Pairs::default(); nc];
        for i in 0..nf {
            for (c, w) in weights_1d(i, nf, nc) {
                to_coarse[i].push((c, w));
                to_fine[c].push((i, w));
            }
        }
        Axis { to_coarse, to_fine }
    }
}

/// Inter-level transfer: the interpolation `P` applied as the tensor
/// product of its 1-D weights, and the communication shapes its two
/// directions induce under `(BLOCK)` ownership.
///
/// `P`'s entry for fine row `(i, j, k)` and coarse column `(I, J, K)` is
/// `vx · vy · vz`, the product of the three axes' weights, and its row
/// lists the columns with `I` outermost. Both kernels form exactly those
/// values and add them in the order the stored matrix's kernels did, so
/// they return its bits (DESIGN §16).
pub(crate) struct Transfer {
    fine: GridDims,
    coarse: GridDims,
    x: Axis,
    y: Axis,
    z: Axis,
    /// `restrict_traffic[p][q]`: words processor `p` sends `q` so `q`
    /// can form its coarse entries of `rc = Pᵀ rr`.
    pub restrict_traffic: Vec<Vec<usize>>,
    /// `prolong_traffic[p][q]`: words `p` sends `q` so `q` can form its
    /// fine entries of `P zc`.
    pub prolong_traffic: Vec<Vec<usize>>,
    pub restrict_flops: Vec<usize>,
    pub prolong_flops: Vec<usize>,
}

impl Transfer {
    /// `rc = Pᵀ rr`, overwriting `rc`: coarse entry `(I, J, K)` is
    /// `0.0 + Σ (vx·vy)·vz · rr[f]` over the fine rows `f` that name it,
    /// ascending — the terms the scatter `rc[c] += P[f][c] · rr[f]` adds,
    /// in its order. The scatter skipped `rr[f] == 0`; every weight is
    /// finite and nonzero, so such a term is `±0.0`, and a sum that
    /// starts at `+0.0` is never `−0.0` for it to change.
    pub fn restrict_into(&self, rr: &[f64], rc: &mut [f64]) {
        assert!(
            rr.len() == self.fine.n() && rc.len() == self.coarse.n(),
            "restrict: vector lengths"
        );
        let mut lines = rc.chunks_exact_mut(self.coarse.nz);
        for px in &self.x.to_fine {
            for py in &self.y.to_fine {
                let (xy, m) = line_weights::<9>(px, py, self.fine);
                let line = lines.next().expect("a coarse line per (I, J)");
                let z = &self.z.to_fine;
                match m {
                    1 => apply_line::<1, false>(&xy, z, rr, line),
                    3 => apply_line::<3, false>(&xy, z, rr, line),
                    9 => apply_line::<9, false>(&xy, z, rr, line),
                    m => unreachable!("{m} fine lines"),
                }
            }
        }
    }

    /// `z += P zc`: fine entry `(i, j, k)` adds `0.0 + Σ (vx·vy)·vz ·
    /// zc[c]` over its row's columns ascending — the product
    /// `matvec_rows_into` formed into a buffer before the add, with the
    /// same two roundings.
    pub fn prolong_add(&self, zc: &[f64], z: &mut [f64]) {
        assert!(
            zc.len() == self.coarse.n() && z.len() == self.fine.n(),
            "prolong: vector lengths"
        );
        let mut lines = z.chunks_exact_mut(self.fine.nz);
        for px in &self.x.to_coarse {
            for py in &self.y.to_coarse {
                let (xy, m) = line_weights::<4>(px, py, self.coarse);
                let line = lines.next().expect("a fine line per (i, j)");
                let z = &self.z.to_coarse;
                match m {
                    0 => apply_line::<0, true>(&xy, z, zc, line),
                    1 => apply_line::<1, true>(&xy, z, zc, line),
                    2 => apply_line::<2, true>(&xy, z, zc, line),
                    4 => apply_line::<4, true>(&xy, z, zc, line),
                    m => unreachable!("{m} coarse lines"),
                }
            }
        }
    }
}

/// The lines of grid `other` that line `(px, py)` of the other grid
/// reads: `(first row, vx·vy)`, the x index outermost, and how many.
fn line_weights<const N: usize>(
    px: &Pairs,
    py: &Pairs,
    other: GridDims,
) -> ([(usize, f64); N], usize) {
    let mut xy = [(0, 0.0); N];
    let mut m = 0;
    for &(i, vx) in px.get() {
        for &(j, vy) in py.get() {
            xy[m] = ((i * other.ny + j) * other.nz, vx * vy);
            m += 1;
        }
    }
    (xy, m)
}

/// One line of a transfer: `out[k] = acc` (or `+= acc` when `ADD`) with
/// `acc = 0.0 + Σ (vx·vy)·vz · v[c]` over the first `M` lines of `xy`,
/// outermost, and the z-axis pairs of index `k`. No trip count is the
/// data's: `M` is a constant, and each count of z pairs has its own
/// unrolled body.
#[inline(always)]
fn apply_line<const M: usize, const ADD: bool>(
    xy: &[(usize, f64)],
    z: &[Pairs],
    v: &[f64],
    out: &mut [f64],
) {
    let xy: &[(usize, f64); M] = xy[..M].try_into().expect("M lines");
    for (out, pz) in out.iter_mut().zip(z) {
        let acc = match pz.len {
            1 => line_term::<M, 1>(xy, pz, v),
            2 => line_term::<M, 2>(xy, pz, v),
            3 => line_term::<M, 3>(xy, pz, v),
            _ => line_term::<M, 0>(xy, pz, v),
        };
        *out = if ADD { *out + acc } else { acc };
    }
}

/// `0.0 + Σ (vx·vy)·vz · v[start + k]` over the `M` lines, outermost,
/// and the first `Z` z pairs.
#[inline(always)]
fn line_term<const M: usize, const Z: usize>(xy: &[(usize, f64); M], pz: &Pairs, v: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &(start, vxy) in xy {
        for &(k, vz) in &pz.at[..Z] {
            acc += vxy * vz * v[start + k];
        }
    }
    acc
}

/// One level of the hierarchy; its operator is [`MgHierarchy::matrix`].
pub(crate) struct Level {
    pub dims: GridDims,
    pub desc: ArrayDescriptor,
    /// Where block SymGS reads this level's operator; `None` on the
    /// coarsest, which is solved directly and never swept.
    pub sweep: Option<SweepPlan>,
    /// Boundary-exchange traffic for one matvec at this level.
    pub halo: Vec<Vec<usize>>,
    pub smooth_flops: Vec<usize>,
    pub residual_flops: Vec<usize>,
    /// Transfer towards the next-coarser level; `None` on the coarsest.
    pub down: Option<Transfer>,
}

/// Cholesky factor `L` of the coarsest operator, stored as its envelope
/// and solved serially at the V-cycle's bottom.
pub(crate) struct DenseCholesky {
    /// Row `i`'s first stored column.
    first: Vec<usize>,
    /// Row `i` of `L`, `first[i]` through the diagonal, is
    /// `rows[row_at[i]..row_at[i + 1]]`.
    row_at: Vec<usize>,
    rows: Vec<f64>,
    /// Column `i` of `L` below the diagonal, down to the last row whose
    /// envelope reaches it, is `cols[col_at[i]..col_at[i + 1]]`.
    col_at: Vec<usize>,
    cols: Vec<f64>,
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
        let first: Vec<usize> = (0..n)
            .map(|i| a.row(i).fold(i, |f, (j, _)| f.min(j)))
            .collect();
        let mut row_at = vec![0; n + 1];
        for i in 0..n {
            row_at[i + 1] = row_at[i] + i + 1 - first[i];
        }
        let mut rows = vec![0.0f64; row_at[n]];
        for i in 0..n {
            for (j, v) in a.row(i) {
                if j <= i {
                    rows[row_at[i] + j - first[i]] = v;
                }
            }
        }
        // L[i][k], the unstored +0.0 left of row i's envelope included.
        let entry = |rows: &[f64], i: usize, k: usize| match k.checked_sub(first[i]) {
            Some(at) => rows[row_at[i] + at],
            None => 0.0,
        };
        for i in 0..n {
            let fi = first[i];
            for j in fi..=i {
                let fj = first[j];
                let from = fi.max(fj);
                let mut s = rows[row_at[i] + j - fi];
                if s == 0.0 && s.is_sign_negative() {
                    for k in 0..from {
                        s -= entry(&rows, i, k) * entry(&rows, j, k);
                    }
                }
                let li = &rows[row_at[i] + from - fi..row_at[i] + j - fi];
                let lj = &rows[row_at[j] + from - fj..row_at[j] + j - fj];
                for (lik, ljk) in li.iter().zip(lj) {
                    s -= lik * ljk;
                }
                rows[row_at[i] + j - fi] = if i == j {
                    if s.is_nan() || s <= 0.0 {
                        return Err(MgError::NotSpd { level, pivot: i });
                    }
                    s.sqrt()
                } else {
                    s / rows[row_at[j + 1] - 1]
                };
            }
        }
        // The last row whose envelope reaches column i, and the column
        // copy down to it, the +0.0 of rows that start right of i included.
        let mut last: Vec<usize> = (0..n).collect();
        for k in 0..n {
            last[first[k]..k].fill(k);
        }
        let mut col_at = vec![0; n + 1];
        for i in 0..n {
            col_at[i + 1] = col_at[i] + last[i] - i;
        }
        let mut cols = Vec::with_capacity(col_at[n]);
        for i in 0..n {
            cols.extend((i + 1..=last[i]).map(|k| entry(&rows, k, i)));
        }
        Ok(DenseCholesky {
            first,
            row_at,
            rows,
            col_at,
            cols,
        })
    }

    /// Solve `L Lᵀ x = b` into `x` (overwritten, need not be zeroed):
    /// the forward solve fills `x`, the backward solve finishes it in
    /// place, each inside the envelope. A skipped term is `+0.0 · x[k]`:
    /// `±0.0` while `x[k]` is finite, which changes a difference only if
    /// it is a signed zero, and a signed zero does not survive a nonzero
    /// term (`±0 − t = −t`). So a row runs its skipped terms, in the full
    /// chain's place, exactly when its chain ends at `±0.0` or a
    /// non-finite `x` has appeared, and returns the full chain's bits.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.first.len();
        assert!(b.len() == n && x.len() == n, "coarse solve: vector lengths");
        let mut non_finite = false;
        for i in 0..n {
            let f = self.first[i];
            let (d, row) = self.rows[self.row_at[i]..self.row_at[i + 1]]
                .split_last()
                .expect("a row holds its diagonal");
            let chain = |mut s: f64| {
                for (l, xk) in row.iter().zip(&x[f..i]) {
                    s -= l * xk;
                }
                s
            };
            let mut s = chain(b[i]);
            if s == 0.0 || non_finite {
                // The skipped terms come first: rerun the row from b[i].
                s = b[i];
                for xk in &x[..f] {
                    s -= 0.0 * xk;
                }
                s = chain(s);
            }
            x[i] = s / d;
            non_finite |= !x[i].is_finite();
        }
        for i in (0..n).rev() {
            let col = &self.cols[self.col_at[i]..self.col_at[i + 1]];
            let below = &x[i + 1..];
            let mut s = x[i];
            for (l, xk) in col.iter().zip(below) {
                s -= l * xk;
            }
            if s == 0.0 || non_finite {
                // The skipped terms come last: carry the chain on.
                for xk in &below[col.len()..] {
                    s -= 0.0 * xk;
                }
            }
            x[i] = s / self.rows[self.row_at[i + 1] - 1];
            non_finite |= !x[i].is_finite();
        }
    }

    /// Flops of one solve, as the machine is charged for it: two dense
    /// triangular sweeps.
    pub fn solve_flops(&self) -> usize {
        let n = self.first.len();
        2 * n * n
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
        let mut all_dims = vec![dims];
        for l in 0..levels - 1 {
            let f = all_dims[l];
            let c = f
                .coarsen()
                .ok_or(MgError::TooCoarse { level: l, dims: f })?;
            all_dims.push(c);
        }
        let descs: Vec<ArrayDescriptor> = all_dims
            .iter()
            .map(|d| ArrayDescriptor::block(d.n(), np))
            .collect();
        // Each interpolation is read for its transfer's shapes, then for
        // the Galerkin product, which drops it as soon as it has `Pᵀ`.
        let mut mats = vec![dims.poisson()];
        let mut transfers = Vec::with_capacity(levels - 1);
        for l in 0..levels - 1 {
            let (f, c) = ((all_dims[l], &descs[l]), (all_dims[l + 1], &descs[l + 1]));
            let p = interpolation(f.0, c.0);
            transfers.push(transfer(&p, f, c));
            let a_c = galerkin(&mats[l], p);
            mats.push(a_c);
        }
        let coarse = DenseCholesky::factor(&mats[levels - 1], levels - 1)?;

        let mut transfers = transfers.into_iter();
        let mut built: Vec<Level> = Vec::with_capacity(levels);
        for (l, a) in mats.iter().enumerate() {
            let desc = &descs[l];
            let down = transfers.next();
            let sweep = down
                .as_ref()
                .map(|_| SweepPlan::plan(a, desc, l))
                .transpose()?;
            let (smooth_flops, residual_flops) = level_flops(a, desc);
            built.push(Level {
                dims: all_dims[l],
                desc: desc.clone(),
                sweep,
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
/// `P` is dropped once `Pᵀ` exists: the second product, the build's
/// largest moment, runs without it.
fn galerkin(a: &CsrMatrix, p: CsrMatrix) -> CsrMatrix {
    let b = gustavson(a, &p, false);
    let pt = transpose(&p);
    drop(p);
    gustavson(&pt, &b, true)
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

/// The transfer from grid `fine` to grid `coarse`: communication shapes
/// and flop counts read off their interpolation matrix `p` under
/// `(BLOCK)` ownership on both sides, and `p` applied by its 1-D
/// weights, not kept.
fn transfer(
    p: &CsrMatrix,
    (fine, fdesc): (GridDims, &ArrayDescriptor),
    (coarse, cdesc): (GridDims, &ArrayDescriptor),
) -> Transfer {
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
        fine,
        coarse,
        x: Axis::new(fine.nx, coarse.nx),
        y: Axis::new(fine.ny, coarse.ny),
        z: Axis::new(fine.nz, coarse.nz),
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

    impl DenseCholesky {
        fn n(&self) -> usize {
            self.first.len()
        }

        /// `L` row-major, `+0.0` outside the envelope, from the rows.
        fn dense(&self) -> Vec<f64> {
            let n = self.n();
            let mut l = vec![0.0; n * n];
            for i in 0..n {
                let row = &self.rows[self.row_at[i]..self.row_at[i + 1]];
                l[i * n + self.first[i]..=i * n + i].copy_from_slice(row);
            }
            l
        }

        /// The same from the column copy and the diagonal.
        fn dense_by_columns(&self) -> Vec<f64> {
            let n = self.n();
            let mut l = vec![0.0; n * n];
            for i in 0..n {
                l[i * n + i] = self.rows[self.row_at[i + 1] - 1];
                let col = &self.cols[self.col_at[i]..self.col_at[i + 1]];
                for (k, &v) in (i + 1..).zip(col) {
                    l[k * n + i] = v;
                }
            }
            l
        }
    }

    /// The solve as it was: both triangular sweeps over every entry of a
    /// dense `L` (row-major, `n × n`).
    fn solve_full_chain(l: &[f64], b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= l[i * n + k] * x[k];
            }
            x[i] = s / l[i * n + i];
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in (i + 1)..n {
                s -= l[k * n + i] * x[k];
            }
            x[i] = s / l[i * n + i];
        }
        x
    }

    /// The dense Cholesky as it was: every chain from `k = 0` over a dense
    /// copy of `a` (with the NaN pivot refused, as `factor` refuses it);
    /// `L` row-major.
    fn factor_full_chain(a: &CsrMatrix, level: usize) -> Result<Vec<f64>, MgError> {
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
        Ok(l)
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
                let bits = |l: Vec<f64>| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let want = bits(want);
                assert_eq!(bits(got.dense()), want, "{what}: factor");
                assert_eq!(bits(got.dense_by_columns()), want, "{what}: columns");
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
            let a_c = galerkin(&a, p.clone());
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
            assert_same_csr(&galerkin(&a, p.clone()), &galerkin_btreemap(&a, &p), "arbitrary A, P");
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

        /// The envelope solve against both sweeps over the dense factor, on
        /// symmetric diagonally dominant envelopes whose rows start
        /// anywhere (`±0.0` stored inside them; a quarter of the rows at
        /// their diagonal, so that columns end early) and right-hand sides
        /// mostly of `±0.0`, with NaN, ±∞ and arbitrary values among them:
        /// where a skipped `+0.0 · x[k]` would flip a zero's sign, or meet
        /// a non-finite `x[k]`, the row must run it.
        #[test]
        fn envelope_solve_matches_the_full_chain(
            n in 1usize..24,
            starts in proptest::collection::vec(0usize..1000, 24),
            stream in proptest::collection::vec(entry(), 300),
            b in proptest::collection::vec(rhs_entry(), 24),
            finite in any::<bool>(),
        ) {
            let mut next = stream.iter().copied().cycle();
            let first = |i: usize| if starts[i] % 4 == 0 { i } else { starts[i] % (i + 1) };
            let mut rows: Vec<Vec<(usize, f64)>> = (0..n)
                .map(|i| (first(i)..i).map(|j| (j, next.next().unwrap())).collect())
                .collect();
            let mut dominance = vec![1.0; n];
            for (i, row) in rows.iter().enumerate() {
                for &(j, v) in row {
                    dominance[i] += v.abs();
                    dominance[j] += v.abs();
                }
            }
            for (i, (row, d)) in rows.iter_mut().zip(dominance).enumerate() {
                row.push((i, d));
            }
            // Half the cases keep every entry finite, so that the zero-end
            // rule is what decides, not an earlier NaN.
            let b: Vec<f64> = b[..n]
                .iter()
                .map(|&v| if finite && !v.is_finite() { -0.0 } else { v })
                .collect();
            let a = csr(n, &rows);
            let c = DenseCholesky::factor(&a, 1).expect("diagonally dominant");
            let want = solve_full_chain(&factor_full_chain(&a, 1).unwrap(), &b);
            let mut got = vec![f64::NAN; n];
            c.solve_into(&b, &mut got);
            let bits = |v: &[f64]| -> Vec<u64> {
                v.iter().map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits()).collect()
            };
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// Restriction and prolongation by the 1-D weights against the
        /// stored `P`'s scatter (`matvec_transpose_into`) and product
        /// (`matvec_rows_into`, then the add), on 2-D and 3-D grids with
        /// extents 1–17 — most not `2^k − 1`, so their last plane is
        /// one-sided — and inputs holding `±0.0`, NaN and ±∞.
        #[test]
        fn tensor_transfers_match_the_stored_interpolation(
            three_d in any::<bool>(),
            nx in 1usize..=17,
            ny in 1usize..=17,
            nz in 1usize..=17,
            seed in 0usize..1000,
            specials in proptest::collection::vec((0usize..10_000, 0usize..5), 0..12),
        ) {
            let fine = if three_d { GridDims::d3(nx, ny, nz) } else { GridDims::d2(nx, ny) };
            let Some(coarse) = fine.coarsen() else { continue };
            let p = interpolation(fine, coarse);
            let desc = |g: GridDims| ArrayDescriptor::block(g.n(), 2);
            let t = transfer(&p, (fine, &desc(fine)), (coarse, &desc(coarse)));
            let input = |n: usize| {
                let mut v: Vec<f64> = (0..n)
                    .map(|i| ((i * 7919 + seed * 104_729) % 2003) as f64 / 293.0 - 3.4)
                    .collect();
                for &(at, special) in &specials {
                    v[at % n] = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][special];
                }
                v
            };
            let bits = |v: &[f64]| -> Vec<u64> {
                v.iter().map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits()).collect()
            };

            let rr = input(fine.n());
            let mut want = vec![f64::NAN; coarse.n()];
            p.matvec_transpose_into(&rr, &mut want);
            let mut got = vec![f64::NAN; coarse.n()];
            t.restrict_into(&rr, &mut got);
            prop_assert_eq!(bits(&got), bits(&want));

            let zc = input(coarse.n());
            let z = input(fine.n());
            let mut dz = vec![f64::NAN; fine.n()];
            p.matvec_rows_into(0..fine.n(), &zc, &mut dz);
            let want: Vec<f64> = z.iter().zip(&dz).map(|(zi, di)| zi + di).collect();
            let mut got = z.clone();
            t.prolong_add(&zc, &mut got);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    /// A value of a generated matrix: `+0.0`, `−0.0` or an arbitrary one.
    fn entry() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0f64), Just(-0.0f64), -1.0f64..1.0]
    }

    /// A right-hand side entry, zeros of either sign most often.
    fn rhs_entry() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(-0.0f64),
            Just(-0.0f64),
            Just(-0.0f64),
            Just(0.0f64),
            Just(0.0f64),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            -1.0f64..1.0,
            -1.0f64..1.0,
        ]
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
            c.dense()[2 * 4 + 1].to_bits(),
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
