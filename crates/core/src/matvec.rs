//! Distributed sparse/dense matrix–vector multiplication — the paper's
//! Section 4 scenarios.
//!
//! * **Scenario 1** (Figure 3): row-wise `(BLOCK, *)` partitioning.
//!   Every processor owns a block of rows; the distributed vector `p`
//!   must be replicated with an all-to-all broadcast
//!   (`t_startup·log N_P + t_comm·n/N_P`), after which each row's dot
//!   product is local and the `FORALL` over rows is parallel. With CSR
//!   storage and the data arrays (`a`, `col`) block-distributed over
//!   `nz` *elements*, "a processor that is responsible from a specific
//!   row may not have all the actual data elements on that row.
//!   Therefore, additional communication is needed to bring in those
//!   missing elements" — [`DataArrayLayout::ElementBlock`] pays that
//!   cost; [`DataArrayLayout::RowAligned`] (the paper's proposed
//!   ATOM-aligned layout) does not.
//!
//! * **Scenario 2** (Figure 4): column-wise `(*, BLOCK)` partitioning
//!   with CSC storage. Element-wise products are local, but the
//!   many-to-one accumulation `q(row(k)) += a(k)*p(j)` serialises the
//!   loop. Two variants: the paper's serial code, and the
//!   "two-dimensional temporary local vectors + SUM intrinsic"
//!   workaround (parallel compute, `O(N_P · n)` extra storage, vector
//!   merge).

use crate::vector::DistVector;
use hpf_dist::{ArrayDescriptor, DistSpec};
use hpf_machine::Machine;
use hpf_sparse::{CscMatrix, CsrMatrix, DenseMatrix, ProductForm, RowProduct};
use std::sync::Arc;

/// How the CSR/CSC data arrays (`a` and its index array) are distributed
/// relative to the row/column ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataArrayLayout {
    /// Plain HPF `DISTRIBUTE a(BLOCK)` over the `nz` elements — cuts can
    /// land mid-row, forcing remote fetches of `a`/`col` pairs.
    ElementBlock,
    /// Data arrays aligned with the row (column) ownership — what the
    /// paper's `INDIVISABLE`/`ATOM:BLOCK` extension guarantees. No
    /// remote element fetches.
    RowAligned,
}

/// Statistics of one distributed matvec execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatvecStats {
    /// Words moved to replicate the `p` vector.
    pub broadcast_words: usize,
    /// Words of `a`/`col` fetched remotely (Scenario 1, ElementBlock).
    pub remote_data_words: usize,
    /// Temporary storage (words) beyond the operands.
    pub temp_storage_words: usize,
    /// Simulated time of the whole operation.
    pub time: f64,
}

// ---------------------------------------------------------------------
// Scenario 1: row-wise CSR
// ---------------------------------------------------------------------

/// Row-wise distributed CSR matrix (Scenario 1).
///
/// What one product costs the machine — flops per processor and, under
/// [`DataArrayLayout::ElementBlock`], the remote `a`/`col` traffic — is
/// fixed by the matrix and the layout, so it is worked out once here and
/// every product charges the stored figures. So is how the host forms
/// the product: the matrix is shared, not copied, and sits in a
/// [`RowProduct`] that has already chosen between the CSR kernel and the
/// row-template one. The machine is charged for the modelled CSR program
/// either way.
#[derive(Debug, Clone)]
pub struct RowwiseCsr {
    product: RowProduct,
    /// Ownership of rows (and, by alignment, of `q`): BLOCK by default,
    /// or irregular cuts from a partitioner.
    row_desc: ArrayDescriptor,
    flops: Vec<usize>,
    traffic: Vec<Vec<usize>>,
    remote_data_words: usize,
}

impl RowwiseCsr {
    fn new(matrix: Arc<CsrMatrix>, row_desc: ArrayDescriptor, layout: DataArrayLayout) -> Self {
        assert!(matrix.is_square(), "CG matrices are square");
        let row_ptr = matrix.row_ptr();
        let flops = (0..row_desc.np())
            .map(|p| {
                let nnz: usize = row_desc
                    .local_runs(p)
                    .map(|rows| row_ptr[rows.end] - row_ptr[rows.start])
                    .sum();
                2 * nnz
            })
            .collect();
        let traffic = remote_data_traffic(&matrix, &row_desc, layout);
        let remote_data_words = traffic.iter().flatten().sum();
        RowwiseCsr {
            product: RowProduct::new(matrix),
            row_desc,
            flops,
            traffic,
            remote_data_words,
        }
    }

    /// `ALIGN A(:,*) WITH p(:)` + `DISTRIBUTE p(BLOCK)`: block rows. The
    /// matrix is shared: hand over an `Arc` to avoid a copy.
    pub fn block(matrix: impl Into<Arc<CsrMatrix>>, np: usize, layout: DataArrayLayout) -> Self {
        let matrix = matrix.into();
        let n = matrix.n_rows();
        Self::new(matrix, ArrayDescriptor::block(n, np), layout)
    }

    /// Rows distributed by explicit cut points (e.g. from
    /// `CG_BALANCED_PARTITIONER_1`). Data arrays follow the rows
    /// (RowAligned), as the SPARSE_MATRIX trio binding requires.
    pub fn with_row_cuts(
        matrix: impl Into<Arc<CsrMatrix>>,
        np: usize,
        row_cuts: Vec<usize>,
    ) -> Self {
        let matrix = matrix.into();
        let n = matrix.n_rows();
        Self::new(
            matrix,
            ArrayDescriptor::new(n, np, DistSpec::IrregularCuts(row_cuts)),
            DataArrayLayout::RowAligned,
        )
    }

    pub fn matrix(&self) -> &CsrMatrix {
        self.product.matrix()
    }

    /// The shared matrix with the form its local products run in.
    pub fn row_product(&self) -> &RowProduct {
        &self.product
    }

    /// Which host kernel the products of this operator run: the CSR one,
    /// or the row-template one (and over how many templates and runs).
    pub fn product_form(&self) -> ProductForm {
        self.product.form()
    }

    pub fn row_descriptor(&self) -> &ArrayDescriptor {
        &self.row_desc
    }

    pub fn np(&self) -> usize {
        self.row_desc.np()
    }

    /// Flops each processor performs (2 per stored element of its rows).
    pub fn flops_per_proc(&self) -> &[usize] {
        &self.flops
    }

    /// The remote `a`/`col` traffic matrix under ElementBlock layout:
    /// `m[s][d]` = words processor `s` (owner of an nz block) must ship
    /// to `d` (owner of the enclosing row). Each missing element costs
    /// two words (`a(k)` and `col(k)`). All zero under RowAligned.
    pub fn remote_data_traffic(&self) -> &[Vec<usize>] {
        &self.traffic
    }

    /// `q = Aᵀ p` under the *row-wise* layout — the operation BiCG needs.
    ///
    /// Section 2.1: "BiCG does however require two matrix-vector multiply
    /// operations one of which uses the matrix transpose Aᵀ, and
    /// therefore any storage distribution optimisations made on the basis
    /// of row access vs. column access will be negated." Concretely: the
    /// rows this processor owns are *columns* of Aᵀ, so instead of the
    /// cheap allgather-then-local-dot of the forward product, every
    /// processor scatters partial results across the whole of `q` and a
    /// vector-length merge (plus `N_P·n` temporaries) is required —
    /// exactly the Scenario 2 structure.
    pub fn matvec_transpose(
        &self,
        machine: &mut Machine,
        p: &DistVector,
    ) -> (DistVector, MatvecStats) {
        let mut q = DistVector::zeros(self.row_desc.clone());
        let stats = self.matvec_transpose_into(machine, p, &mut q, &mut Vec::new());
        (q, stats)
    }

    /// [`RowwiseCsr::matvec_transpose`] into a `q` that already exists
    /// (laid out as the rows are; its old contents are overwritten).
    /// Allocates nothing once `scratch` has grown; only a cyclic `p` is
    /// gathered into it. The simulated program holds `N_P · n` temporary
    /// words and is charged for merging them; the host scatters straight
    /// into `q`'s storage.
    pub fn matvec_transpose_into(
        &self,
        machine: &mut Machine,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) -> MatvecStats {
        let n = self.matrix().n_rows();
        assert_eq!(p.len(), n, "operand length mismatch");
        assert_eq!(machine.np(), self.np(), "machine size mismatch");
        assert!(
            q.descriptor().same_layout(&self.row_desc),
            "result must be aligned with the rows"
        );
        let t0 = machine.elapsed();

        // Local phase: partial q over owned rows (parallel — each
        // processor reads only its own block of p).
        machine.compute_all(&self.flops, "s1t-local-partial");

        // Merge phase: vector-length sum of the NP partials.
        machine.allreduce(n, "s1t-merge-q");
        machine.compute_uniform(n, "s1t-merge-combine");

        let out = q
            .as_global_mut()
            .expect("row blocks in rank order are global order");
        self.matrix()
            .matvec_transpose_into(p.global_or_gathered(scratch), out);
        machine.corrupt_slice(out);

        MatvecStats {
            broadcast_words: 0,
            remote_data_words: 0,
            temp_storage_words: self.np() * n,
            time: machine.elapsed() - t0,
        }
    }

    /// Execute `q = A p` (Scenario 1). `p` must be aligned with the row
    /// distribution; the result `q` is too ("no communication is needed
    /// to rearrange the distribution of the results").
    pub fn matvec(&self, machine: &mut Machine, p: &DistVector) -> (DistVector, MatvecStats) {
        let mut q = DistVector::zeros(self.row_desc.clone());
        let stats = self.matvec_into(machine, p, &mut q, &mut Vec::new());
        (q, stats)
    }

    /// [`RowwiseCsr::matvec`] into a `q` that already exists (laid out as
    /// the rows are; its old contents are overwritten). Allocates nothing
    /// once `scratch` has grown: the replicated `p` of phase 1 is `p`'s
    /// own storage when that is in global order, and only a cyclic `p` is
    /// gathered — into `scratch`, which the caller keeps between products.
    pub fn matvec_into(
        &self,
        machine: &mut Machine,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) -> MatvecStats {
        assert_eq!(p.len(), self.matrix().n_cols(), "operand length mismatch");
        assert_eq!(machine.np(), self.np(), "machine size mismatch");
        assert!(
            q.descriptor().same_layout(&self.row_desc),
            "result must be aligned with the rows"
        );
        let t0 = machine.elapsed();

        // Phase 1: all-to-all broadcast of p.
        let p_global = p.allgather(machine, "s1-bcast-p", scratch);

        // Phase 2: remote a/col fetches (ElementBlock only).
        if self.remote_data_words > 0 {
            machine.exchange(&self.traffic, "s1-fetch-acol");
        }

        // Phase 3: local row dot-products (parallel FORALL over rows).
        machine.compute_all(&self.flops, "s1-local-matvec");

        // Real arithmetic, written where q lives: rows are contiguous
        // blocks in rank order, so q's storage is the global result, in
        // whichever form the product was found to have — the charge above
        // is the modelled program's, two flops a stored element. The
        // bulk result passes through the fault layer so an armed
        // corruption damages one element of q, as a flipped bit in a
        // local row-block product would.
        let out = q
            .as_global_mut()
            .expect("row blocks in rank order are global order");
        self.product.matvec_into(p_global, out);
        machine.corrupt_slice(out);

        MatvecStats {
            broadcast_words: p.len(),
            remote_data_words: self.remote_data_words,
            temp_storage_words: p.len(), // the replicated copy of p
            time: machine.elapsed() - t0,
        }
    }
}

/// See [`RowwiseCsr::remote_data_traffic`].
fn remote_data_traffic(
    matrix: &CsrMatrix,
    row_desc: &ArrayDescriptor,
    layout: DataArrayLayout,
) -> Vec<Vec<usize>> {
    let np = row_desc.np();
    let mut m = vec![vec![0usize; np]; np];
    let nz = matrix.nnz();
    if layout == DataArrayLayout::RowAligned || nz == 0 {
        return m;
    }
    let data_desc = ArrayDescriptor::block(nz, np);
    let row_ptr = matrix.row_ptr();
    for r in 0..matrix.n_rows() {
        let row_owner = row_desc.owner(r);
        for k in row_ptr[r]..row_ptr[r + 1] {
            let holder = data_desc.owner(k);
            if holder != row_owner {
                m[holder][row_owner] += 2; // a(k) + col(k)
            }
        }
    }
    m
}

// ---------------------------------------------------------------------
// Scenario 2: column-wise CSC
// ---------------------------------------------------------------------

/// Column-wise distributed CSC matrix (Scenario 2).
///
/// Like [`RowwiseCsr`], everything a product needs that the matrix and
/// the layout fix is worked out once here: the flops each processor is
/// charged, and the merge plan of the `Temp2d` product — per processor,
/// the rows its columns reach.
#[derive(Debug, Clone)]
pub struct ColwiseCsc {
    matrix: CscMatrix,
    col_desc: ArrayDescriptor,
    /// Flops per processor of one product, fixed at construction.
    flops: Vec<usize>,
    /// Processor `p`'s columns have entries in exactly the rows
    /// `touched[touched_ptr[p]..touched_ptr[p + 1]]`, ascending. A row is
    /// listed once per processor that reaches it, so the whole plan is
    /// never longer than `nnz`, whatever `np` is.
    touched: Vec<usize>,
    touched_ptr: Vec<usize>,
}

impl ColwiseCsc {
    fn new(matrix: CscMatrix, col_desc: ArrayDescriptor) -> Self {
        assert!(matrix.is_square());
        let np = col_desc.np();
        let col_ptr = matrix.col_ptr();
        let mut flops = Vec::with_capacity(np);
        let mut touched = Vec::new();
        let mut touched_ptr = Vec::with_capacity(np + 1);
        touched_ptr.push(0);
        // The last processor seen reaching each row.
        let mut reached_by = vec![usize::MAX; matrix.n_rows()];
        for p in 0..np {
            let mut nnz = 0;
            for cols in col_desc.local_runs(p) {
                let entries = col_ptr[cols.start]..col_ptr[cols.end];
                nnz += entries.len();
                for &r in &matrix.row_idx()[entries] {
                    if reached_by[r] != p {
                        reached_by[r] = p;
                        touched.push(r);
                    }
                }
            }
            flops.push(2 * nnz);
            touched[touched_ptr[p]..].sort_unstable();
            touched_ptr.push(touched.len());
        }
        ColwiseCsc {
            matrix,
            col_desc,
            flops,
            touched,
            touched_ptr,
        }
    }

    /// `ALIGN A(*,:) WITH p(:)` + `DISTRIBUTE p(BLOCK)`: block columns.
    pub fn block(matrix: CscMatrix, np: usize) -> Self {
        let n = matrix.n_cols();
        Self::new(matrix, ArrayDescriptor::block(n, np))
    }

    /// Columns distributed by explicit cut points.
    pub fn with_col_cuts(matrix: CscMatrix, np: usize, col_cuts: Vec<usize>) -> Self {
        let n = matrix.n_cols();
        Self::new(
            matrix,
            ArrayDescriptor::new(n, np, DistSpec::IrregularCuts(col_cuts)),
        )
    }

    pub fn matrix(&self) -> &CscMatrix {
        &self.matrix
    }

    pub fn col_descriptor(&self) -> &ArrayDescriptor {
        &self.col_desc
    }

    pub fn np(&self) -> usize {
        self.col_desc.np()
    }

    /// Flops per processor over its columns.
    pub fn flops_per_proc(&self) -> &[usize] {
        &self.flops
    }

    /// The rows processor `p`'s columns reach, ascending — the entries of
    /// its length-`n` partial that the `Temp2d` merge has to add.
    pub fn touched_rows(&self, p: usize) -> &[usize] {
        &self.touched[self.touched_ptr[p]..self.touched_ptr[p + 1]]
    }

    /// What every product requires of its operand and machine (the matrix
    /// is square, so either direction takes `n` words).
    fn check_operand(&self, machine: &Machine, p: &DistVector) {
        assert_eq!(p.len(), self.matrix.n_cols(), "operand length mismatch");
        assert_eq!(machine.np(), self.np(), "machine size mismatch");
        assert_eq!(
            p.descriptor().np(),
            self.np(),
            "operand processor-count mismatch"
        );
    }

    /// A forward product hands `q` back laid out as `p` is.
    fn check_forward(&self, machine: &Machine, p: &DistVector, q: &DistVector) {
        self.check_operand(machine, p);
        assert!(
            q.descriptor().same_layout(p.descriptor()),
            "result must be aligned with the operand"
        );
    }

    /// The paper's serial Scenario 2 code: element-wise multiplications
    /// need no communication for `p`, but the many-to-one accumulation
    /// into `q` creates inter-processor dependencies, so the loop runs
    /// serially; "the communication time for Scenario 2 is the same as
    /// the communication time for the global broadcast used in Scenario
    /// 1" (the partial results must reach the owners of `q`).
    pub fn matvec_serial(
        &self,
        machine: &mut Machine,
        p: &DistVector,
    ) -> (DistVector, MatvecStats) {
        let mut q = DistVector::zeros(p.descriptor().clone());
        let stats = self.matvec_serial_into(machine, p, &mut q, &mut Vec::new());
        (q, stats)
    }

    /// [`ColwiseCsc::matvec_serial`] into a `q` that already exists (laid
    /// out as `p` is; its old contents are overwritten). Allocates nothing
    /// once `scratch` has grown.
    pub fn matvec_serial_into(
        &self,
        machine: &mut Machine,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) -> MatvecStats {
        self.check_forward(machine, p, q);
        let t0 = machine.elapsed();

        // Result contributions cross processors: same volume as the
        // Scenario 1 broadcast.
        let words_each = p.len().div_ceil(self.np());
        machine.allgather(words_each, "s2-merge-q");

        // Serial compute: dependencies forbid parallel execution.
        let total_flops: usize = self.flops.iter().sum();
        machine.compute_serial(total_flops, "s2-serial-matvec");

        in_global_order(p, q, scratch, 0, |p_global, q_global, _| {
            q_global.fill(0.0);
            self.matrix
                .matvec_cols_accumulate(0..p_global.len(), p_global, q_global);
        });

        MatvecStats {
            broadcast_words: p.len(),
            remote_data_words: 0,
            temp_storage_words: 0,
            time: machine.elapsed() - t0,
        }
    }

    /// The "two-dimensional temporary array + SUM intrinsic" workaround:
    /// "we could simulate the same thing using two dimensional temporary
    /// local vectors in place of vector q in each processor. At the end
    /// of the outer loop we use the HPF SUM intrinsic to generate the
    /// final vector." Parallel compute; `N_P · n` temporary words; a
    /// vector-length reduction merge.
    pub fn matvec_temp2d(
        &self,
        machine: &mut Machine,
        p: &DistVector,
    ) -> (DistVector, MatvecStats) {
        let mut q = DistVector::zeros(p.descriptor().clone());
        let stats = self.matvec_temp2d_into(machine, p, &mut q, &mut Vec::new());
        (q, stats)
    }

    /// [`ColwiseCsc::matvec_temp2d`] into a `q` that already exists (laid
    /// out as `p` is; its old contents are overwritten). Allocates nothing
    /// once `scratch` has grown. The simulated program holds `N_P · n`
    /// temporary words and is charged for merging them; the host holds
    /// one length-`n` partial, in `scratch`, and adds only the entries a
    /// processor's columns reach.
    pub fn matvec_temp2d_into(
        &self,
        machine: &mut Machine,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) -> MatvecStats {
        self.check_forward(machine, p, q);
        let t0 = machine.elapsed();
        let n = self.matrix.n_rows();

        // Parallel local phase over columns (p is aligned: local reads).
        machine.compute_all(&self.flops, "s2-local-partial");

        in_global_order(p, q, scratch, n, |p_global, q_global, partial| {
            self.sum_partials(p_global, q_global, partial)
        });

        // SUM merge of NP vectors of length n.
        machine.allreduce(n, "s2-sum-merge");
        machine.compute_uniform(n, "s2-sum-combine");

        MatvecStats {
            broadcast_words: 0,
            remote_data_words: 0,
            temp_storage_words: self.np() * n,
            time: machine.elapsed() - t0,
        }
    }

    /// `q = SUM` over the processors, in rank order, of each one's
    /// length-`n` partial product over its own columns — bit for bit the
    /// sum the `N_P × n` temporary would give, at the cost of the
    /// nonzeros. One `partial` serves every processor: it is all `+0.0`
    /// between processors, a processor scatters its columns into it, and
    /// the merge adds and re-zeroes only the rows that processor reaches.
    /// The rows it skips hold `+0.0`, and `q`, built from `+0.0` by
    /// additions alone, is never `-0.0`, so adding them would change no
    /// bit of `q`.
    fn sum_partials(&self, p_global: &[f64], q_global: &mut [f64], partial: &mut [f64]) {
        q_global.fill(0.0);
        partial.fill(0.0);
        for proc in 0..self.np() {
            for cols in self.col_desc.local_runs(proc) {
                self.matrix.matvec_cols_accumulate(cols, p_global, partial);
            }
            for &r in self.touched_rows(proc) {
                q_global[r] += partial[r];
                partial[r] = 0.0;
            }
        }
    }

    /// `q = Aᵀ p` under the *column-wise* layout — the clean direction
    /// for CSC: each owned column of A is a row of Aᵀ, so after an
    /// allgather of `p` every q(j) is a local dot product and the loop is
    /// fully parallel (the exact mirror of
    /// [`RowwiseCsr::matvec_transpose`]'s penalty — which layout wins
    /// flips with the operator direction, the paper's §2.1 point).
    pub fn matvec_transpose_gather(
        &self,
        machine: &mut Machine,
        p: &DistVector,
    ) -> (DistVector, MatvecStats) {
        let mut q = DistVector::zeros(self.col_desc.clone());
        let stats = self.matvec_transpose_gather_into(machine, p, &mut q, &mut Vec::new());
        (q, stats)
    }

    /// [`ColwiseCsc::matvec_transpose_gather`] into a `q` that already
    /// exists (laid out as the columns are; its old contents are
    /// overwritten). Allocates nothing once `scratch` has grown; only a
    /// cyclic `p` is gathered into it.
    pub fn matvec_transpose_gather_into(
        &self,
        machine: &mut Machine,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) -> MatvecStats {
        let n = self.matrix.n_rows();
        self.check_operand(machine, p);
        assert!(
            q.descriptor().same_layout(&self.col_desc),
            "result must be aligned with the columns"
        );
        let t0 = machine.elapsed();
        let p_global = p.allgather(machine, "s2t-bcast-p", scratch);
        machine.compute_all(&self.flops, "s2t-local-dots");
        let out = q
            .as_global_mut()
            .expect("column blocks in rank order are global order");
        self.matrix.matvec_transpose_into(p_global, out);
        MatvecStats {
            broadcast_words: n,
            remote_data_words: 0,
            temp_storage_words: n,
            time: machine.elapsed() - t0,
        }
    }
}

/// Run `kernel(p, q, work)` with `p` and `q` as global-order arrays and
/// `work` a buffer of `work_len` words (contents unspecified), all without
/// allocating once `scratch` has grown. `q` is laid out as `p` is: when
/// that is global order the kernel reads and writes the vectors' own
/// storage and `scratch` is the work buffer alone; otherwise (the cyclic
/// layouts) `p` is gathered into `scratch`, the kernel writes a staged
/// `q` there, and that is dealt back out.
fn in_global_order(
    p: &DistVector,
    q: &mut DistVector,
    scratch: &mut Vec<f64>,
    work_len: usize,
    kernel: impl FnOnce(&[f64], &mut [f64], &mut [f64]),
) {
    let n = p.len();
    if let Some(q_global) = q.as_global_mut() {
        let p_global = p.as_global().expect("p is laid out as q is");
        scratch.resize(work_len, 0.0);
        kernel(p_global, q_global, scratch);
    } else {
        scratch.resize(work_len + 2 * n, 0.0);
        let (work, staged) = scratch.split_at_mut(work_len);
        let (p_global, q_global) = staged.split_at_mut(n);
        p.copy_to_global(p_global);
        kernel(p_global, q_global, work);
        q.copy_from_global(q_global);
    }
}

// ---------------------------------------------------------------------
// Dense scenarios (Figures 3 and 4)
// ---------------------------------------------------------------------

/// Figure 3: dense `A` distributed `(BLOCK, *)`, vectors `(BLOCK)`.
/// All-to-all broadcast of `p`, then fully parallel local rows.
pub fn dense_rowwise_matvec(
    machine: &mut Machine,
    a: &DenseMatrix,
    p: &DistVector,
) -> (DistVector, MatvecStats) {
    assert_eq!(a.n_cols(), p.len());
    let np = machine.np();
    let n = a.n_rows();
    let t0 = machine.elapsed();
    let mut gathered = Vec::new();
    let p_global = p.allgather(machine, "dense-s1-bcast-p", &mut gathered);
    let rows = ArrayDescriptor::block(n, np);
    let flops: Vec<usize> = (0..np)
        .map(|pr| 2 * a.n_cols() * rows.local_len(pr))
        .collect();
    machine.compute_all(&flops, "dense-s1-local");
    let q_global = a.matvec(p_global).expect("validated dims");
    let q = DistVector::from_global(rows, &q_global);
    let stats = MatvecStats {
        broadcast_words: p.len(),
        remote_data_words: 0,
        temp_storage_words: p.len(),
        time: machine.elapsed() - t0,
    };
    (q, stats)
}

/// Figure 4: dense `A` distributed `(*, BLOCK)`, vectors `(BLOCK)`.
/// Local element-wise products, but the accumulation dependency
/// serialises the loop (paper's serial code).
pub fn dense_colwise_matvec_serial(
    machine: &mut Machine,
    a: &DenseMatrix,
    p: &DistVector,
) -> (DistVector, MatvecStats) {
    assert_eq!(a.n_cols(), p.len());
    let n = a.n_rows();
    let np = machine.np();
    let t0 = machine.elapsed();
    let words_each = n.div_ceil(np);
    machine.allgather(words_each, "dense-s2-merge-q");
    machine.compute_serial(2 * n * a.n_cols(), "dense-s2-serial");
    let q_global = a
        .matvec(p.global_or_gathered(&mut Vec::new()))
        .expect("validated dims");
    let q = DistVector::from_global(p.descriptor().clone(), &q_global);
    let stats = MatvecStats {
        broadcast_words: n,
        remote_data_words: 0,
        temp_storage_words: 0,
        time: machine.elapsed() - t0,
    };
    (q, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{CostModel, EventKind, Topology};
    use hpf_sparse::gen;

    fn machine(np: usize) -> Machine {
        Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
    }

    fn test_vec(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37 + 11) % 17) as f64 / 4.0).collect()
    }

    #[test]
    fn scenario1_matches_serial() {
        let a = gen::random_spd(40, 4, 3);
        let np = 4;
        let mut m = machine(np);
        let x = test_vec(40);
        let want = a.matvec(&x).unwrap();
        let dm = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let p = DistVector::from_global(ArrayDescriptor::block(40, np), &x);
        let (q, stats) = dm.matvec(&mut m, &p);
        for (u, v) in q.to_global().iter().zip(want.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
        assert_eq!(stats.broadcast_words, 40);
        assert_eq!(stats.remote_data_words, 0);
        assert!(stats.time > 0.0);
    }

    #[test]
    fn scenario1_element_block_pays_fetches() {
        let a = gen::random_spd(60, 5, 7);
        let np = 4;
        let aligned = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
        let blocked = RowwiseCsr::block(a, np, DataArrayLayout::ElementBlock);
        assert_eq!(
            aligned
                .remote_data_traffic()
                .iter()
                .flatten()
                .sum::<usize>(),
            0
        );
        let fetched: usize = blocked.remote_data_traffic().iter().flatten().sum();
        assert!(fetched > 0, "element-block layout must fetch remote a/col");

        // And the fetch shows up as a Redistribute event + extra time.
        let x = test_vec(60);
        let p = DistVector::from_global(ArrayDescriptor::block(60, np), &x);
        let mut m1 = machine(np);
        let (_, s1) = aligned.matvec(&mut m1, &p);
        let mut m2 = machine(np);
        let (q2, s2) = blocked.matvec(&mut m2, &p);
        assert!(s2.remote_data_words > 0);
        assert!(s2.time > s1.time);
        assert_eq!(m2.trace().count(EventKind::Redistribute), 1);
        // Results identical regardless of layout.
        for (u, v) in q2
            .to_global()
            .iter()
            .zip(aligned.matrix().matvec(&x).unwrap().iter())
        {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn scenario2_serial_matches_and_synchronises() {
        let a = gen::random_spd(30, 3, 1);
        let csc = hpf_sparse::CscMatrix::from_csr(&a);
        let np = 4;
        let mut m = machine(np);
        let x = test_vec(30);
        let want = a.matvec(&x).unwrap();
        let dm = ColwiseCsc::block(csc, np);
        let p = DistVector::from_global(ArrayDescriptor::block(30, np), &x);
        let (q, stats) = dm.matvec_serial(&mut m, &p);
        for (u, v) in q.to_global().iter().zip(want.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
        assert_eq!(stats.temp_storage_words, 0);
    }

    #[test]
    fn scenario2_temp2d_matches_and_is_parallel() {
        let a = gen::random_spd(32, 3, 9);
        let csc = hpf_sparse::CscMatrix::from_csr(&a);
        let np = 4;
        let x = test_vec(32);
        let want = a.matvec(&x).unwrap();
        let dm = ColwiseCsc::block(csc, np);
        let p = DistVector::from_global(ArrayDescriptor::block(32, np), &x);

        // Isolate the compute term: the workaround's win is *parallel
        // compute*; at small n an expensive network would mask it.
        let mut ms = Machine::new(np, Topology::Hypercube, CostModel::zero_comm());
        let (_, s_serial) = dm.matvec_serial(&mut ms, &p);
        let mut mt = Machine::new(np, Topology::Hypercube, CostModel::zero_comm());
        let (q, s_temp) = dm.matvec_temp2d(&mut mt, &p);
        for (u, v) in q.to_global().iter().zip(want.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
        // The workaround buys parallel compute at NP*n extra storage.
        assert_eq!(s_temp.temp_storage_words, np * 32);
        assert!(
            s_temp.time < s_serial.time,
            "parallel {} vs serial {}",
            s_temp.time,
            s_serial.time
        );
    }

    /// A 4-processor column operator and an operand block-distributed
    /// over `operand_np` processors.
    fn colwise_with_operand_over(operand_np: usize) -> (ColwiseCsc, DistVector) {
        let csc = hpf_sparse::CscMatrix::from_csr(&gen::random_spd(32, 3, 9));
        let p = DistVector::from_global(ArrayDescriptor::block(32, operand_np), &test_vec(32));
        (ColwiseCsc::block(csc, 4), p)
    }

    #[test]
    #[should_panic(expected = "operand processor-count mismatch")]
    fn scenario2_temp2d_rejects_an_operand_over_another_processor_count() {
        let (dm, p) = colwise_with_operand_over(2);
        dm.matvec_temp2d(&mut machine(4), &p);
    }

    #[test]
    #[should_panic(expected = "operand processor-count mismatch")]
    fn scenario2_serial_rejects_an_operand_over_another_processor_count() {
        let (dm, p) = colwise_with_operand_over(8);
        dm.matvec_serial(&mut machine(4), &p);
    }

    #[test]
    #[should_panic(expected = "result must be aligned with the operand")]
    fn scenario2_forward_into_rejects_a_misaligned_result() {
        let (dm, p) = colwise_with_operand_over(4);
        let mut q = DistVector::zeros(ArrayDescriptor::cyclic(32, 4));
        dm.matvec_temp2d_into(&mut machine(4), &p, &mut q, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "result must be aligned with the columns")]
    fn scenario2_transpose_into_rejects_a_misaligned_result() {
        let (dm, p) = colwise_with_operand_over(4);
        let mut q = DistVector::zeros(ArrayDescriptor::cyclic(32, 4));
        dm.matvec_transpose_gather_into(&mut machine(4), &p, &mut q, &mut Vec::new());
    }

    #[test]
    fn dense_scenarios_match_reference() {
        let d = gen::poisson_2d(4, 4).to_dense();
        let np = 4;
        let x = test_vec(16);
        let want = d.matvec(&x).unwrap();
        let p = DistVector::from_global(ArrayDescriptor::block(16, np), &x);

        let mut m1 = machine(np);
        let (q1, _) = dense_rowwise_matvec(&mut m1, &d, &p);
        let mut m2 = machine(np);
        let (q2, _) = dense_colwise_matvec_serial(&mut m2, &d, &p);
        for i in 0..16 {
            assert!((q1.to_global()[i] - want[i]).abs() < 1e-12);
            assert!((q2.to_global()[i] - want[i]).abs() < 1e-12);
        }
        // Row-wise compute is parallel: faster than column-wise serial.
        assert!(m1.elapsed() < m2.elapsed());
    }

    #[test]
    fn scenario2_comm_equals_scenario1_comm() {
        // "it is not possible to reduce the communication time if the
        // matrix is partitioned into regular stripes either in a row-wise
        // or column-wise fashion."
        let a = gen::random_spd(64, 4, 5);
        let csc = hpf_sparse::CscMatrix::from_csr(&a);
        let np = 8;
        let x = test_vec(64);
        let p = DistVector::from_global(ArrayDescriptor::block(64, np), &x);

        let mut m1 = machine(np);
        let s1 = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        s1.matvec(&mut m1, &p);
        let mut m2 = machine(np);
        let s2 = ColwiseCsc::block(csc, np);
        s2.matvec_serial(&mut m2, &p);
        let comm1 = m1.trace().comm_time();
        let comm2 = m2.trace().comm_time();
        assert!((comm1 - comm2).abs() < 1e-12, "{comm1} vs {comm2}");
    }

    #[test]
    fn transpose_matvecs_match_reference_both_layouts() {
        let a = gen::random_spd(40, 4, 6);
        let csc = hpf_sparse::CscMatrix::from_csr(&a);
        let np = 4;
        let x = test_vec(40);
        let want = a.matvec_transpose(&x).unwrap();
        let p = DistVector::from_global(ArrayDescriptor::block(40, np), &x);

        let mut m1 = machine(np);
        let row_op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let (q1, s1) = row_op.matvec_transpose(&mut m1, &p);
        let mut m2 = machine(np);
        let col_op = ColwiseCsc::block(csc, np);
        let (q2, s2) = col_op.matvec_transpose_gather(&mut m2, &p);
        for i in 0..40 {
            assert!((q1.to_global()[i] - want[i]).abs() < 1e-12);
            assert!((q2.to_global()[i] - want[i]).abs() < 1e-12);
        }
        // The asymmetry (§2.1): row layout pays NP*n temporaries and a
        // vector merge for A^T; column layout does it with one allgather.
        assert_eq!(s1.temp_storage_words, np * 40);
        assert_eq!(s2.temp_storage_words, 40);
        assert_eq!(m2.trace().count(EventKind::AllGather), 1);
        assert_eq!(m1.trace().count(EventKind::AllReduce), 1);
    }

    #[test]
    fn transpose_direction_flips_which_layout_wins() {
        // Forward: rowwise (allgather) cheaper than colwise serial.
        // Transpose: colwise gather cheaper than rowwise merge.
        let a = gen::random_spd(256, 5, 8);
        let csc = hpf_sparse::CscMatrix::from_csr(&a);
        let np = 8;
        let x = test_vec(256);
        let p = DistVector::from_global(ArrayDescriptor::block(256, np), &x);
        let row_op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let col_op = ColwiseCsc::block(csc, np);

        let mut mf_row = machine(np);
        row_op.matvec(&mut mf_row, &p);
        let mut mt_row = machine(np);
        row_op.matvec_transpose(&mut mt_row, &p);
        // The transpose through the row layout costs strictly more
        // communication than the forward product.
        assert!(mt_row.trace().comm_time() > mf_row.trace().comm_time());

        let mut mt_col = machine(np);
        col_op.matvec_transpose_gather(&mut mt_col, &p);
        // ...while through the column layout A^T costs exactly the
        // forward rowwise price (one allgather).
        assert!((mt_col.trace().comm_time() - mf_row.trace().comm_time()).abs() < 1e-12);
    }

    #[test]
    fn balanced_row_cuts_reduce_imbalance() {
        let a = gen::power_law_spd(128, 40, 0.9, 4);
        let np = 4;
        let weights: Vec<usize> = (0..128).map(|r| a.row_nnz(r)).collect();
        let cuts = hpf_dist::partition::balanced_contiguous(&weights, np).unwrap();
        let balanced = RowwiseCsr::with_row_cuts(a.clone(), np, cuts);
        let blocked = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let fb = balanced.flops_per_proc();
        let fn_ = blocked.flops_per_proc();
        let imb = |v: &[usize]| {
            let max = *v.iter().max().unwrap() as f64;
            let mean = v.iter().sum::<usize>() as f64 / v.len() as f64;
            max / mean
        };
        assert!(imb(fb) <= imb(fn_), "{} vs {}", imb(fb), imb(fn_));
    }
}
