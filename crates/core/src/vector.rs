//! Distributed vectors and the HPF vector intrinsics.
//!
//! The paper's CG iteration needs exactly three vector-operation classes
//! (Section 2): SAXPY-class updates (`x = x + alpha*p`, `p = beta*p + r`),
//! inner products (`DOT_PRODUCT(r, r)`), and the matrix–vector multiply.
//! This module provides the first two over [`DistVector`]s:
//!
//! * SAXPY/SAYPX are HPF "parallel array assignments": with all operands
//!   aligned they run in `O(n/N_P)` with **zero** communication;
//! * `DOT_PRODUCT` does its element-wise multiplies locally and pays one
//!   scalar all-reduce merge — `t_startup * log N_P` on the hypercube.

use hpf_dist::ArrayDescriptor;
use hpf_machine::Machine;

/// A distributed 1-D array of `f64` with real per-processor local data.
///
/// ```
/// use hpf_core::DistVector;
/// use hpf_dist::ArrayDescriptor;
/// use hpf_machine::Machine;
///
/// let mut m = Machine::hypercube(4);
/// let d = ArrayDescriptor::block(8, 4);
/// let mut y = DistVector::constant(d.clone(), 1.0);
/// let x = DistVector::from_global(d, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
/// y.axpy(&mut m, 2.0, &x);                 // y = y + 2x: zero communication
/// assert_eq!(y.get(3), 7.0);
/// let s = y.dot(&mut m, &y);               // one t_s*log(NP) merge
/// assert!(s > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DistVector {
    desc: ArrayDescriptor,
    /// Every local part back to back, processor 0 first.
    data: Vec<f64>,
    /// Processor `p` holds `data[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<usize>,
    /// Processor-major order *is* global order (the contiguous layouts:
    /// `Block`, `BlockK`, `IrregularCuts`), so `data` is the global array.
    global_order: bool,
}

impl DistVector {
    /// A vector under `desc` with every element set to `value`.
    pub fn constant(desc: ArrayDescriptor, value: f64) -> Self {
        let mut offsets = Vec::with_capacity(desc.np() + 1);
        offsets.push(0);
        // Global order: the runs, processor by processor, count up from 0
        // and stop at n (which a replicated layout overshoots).
        let mut next = 0;
        let mut global_order = true;
        for p in 0..desc.np() {
            for run in desc.local_runs(p) {
                global_order &= run.is_empty() || run.start == next;
                next += run.len();
            }
            offsets.push(next);
        }
        global_order &= next == desc.len();
        DistVector {
            desc,
            data: vec![value; next],
            offsets,
            global_order,
        }
    }

    /// All-zero distributed vector.
    pub fn zeros(desc: ArrayDescriptor) -> Self {
        Self::constant(desc, 0.0)
    }

    /// Distribute a global vector according to `desc`.
    pub fn from_global(desc: ArrayDescriptor, global: &[f64]) -> Self {
        assert_eq!(desc.len(), global.len(), "descriptor/data length mismatch");
        let mut v = Self::zeros(desc);
        v.copy_from_global(global);
        v
    }

    pub fn descriptor(&self) -> &ArrayDescriptor {
        &self.desc
    }

    pub fn len(&self) -> usize {
        self.desc.len()
    }

    pub fn is_empty(&self) -> bool {
        self.desc.is_empty()
    }

    /// Local part of processor `p`.
    pub fn local(&self, p: usize) -> &[f64] {
        &self.data[self.offsets[p]..self.offsets[p + 1]]
    }

    /// Mutable local part of processor `p`.
    pub fn local_mut(&mut self, p: usize) -> &mut [f64] {
        &mut self.data[self.offsets[p]..self.offsets[p + 1]]
    }

    /// The whole vector in global order, when that is how it is stored
    /// (the contiguous layouts) — a replicated copy for free.
    pub(crate) fn as_global(&self) -> Option<&[f64]> {
        self.global_order.then_some(&self.data[..])
    }

    /// Mutable counterpart of `as_global`.
    pub(crate) fn as_global_mut(&mut self) -> Option<&mut [f64]> {
        self.global_order.then_some(&mut self.data[..])
    }

    /// Write the vector in global order into `out` (does not charge the
    /// machine). Contiguous layouts copy one slice per processor; only
    /// the cyclic ones walk their blocks.
    pub fn copy_to_global(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "global buffer length mismatch");
        for p in 0..self.desc.np() {
            let mut at = self.offsets[p];
            for run in self.desc.local_runs(p) {
                let len = run.len();
                out[run].copy_from_slice(&self.data[at..at + len]);
                at += len;
            }
        }
    }

    /// Overwrite the vector from a global array (the inverse of
    /// `copy_to_global`).
    pub fn copy_from_global(&mut self, global: &[f64]) {
        assert_eq!(global.len(), self.len(), "global buffer length mismatch");
        for p in 0..self.desc.np() {
            let mut at = self.offsets[p];
            for run in self.desc.local_runs(p) {
                let len = run.len();
                self.data[at..at + len].copy_from_slice(&global[run]);
                at += len;
            }
        }
    }

    /// Gather the vector back to a global array (test/inspection path;
    /// does not charge the machine).
    pub fn to_global(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.desc.len()];
        self.copy_to_global(&mut out);
        out
    }

    /// Read one global element (owner lookup; free, for tests).
    pub fn get(&self, i: usize) -> f64 {
        self.local(self.desc.owner(i))[self.desc.local_offset(i)]
    }

    fn assert_aligned(&self, other: &DistVector, op: &str) {
        assert!(
            self.desc.same_layout(other.descriptor()),
            "{op}: operands must be aligned (identical layouts); \
             realign with ALIGN/REDISTRIBUTE first"
        );
    }

    /// Charge an element-wise phase: `per_element` flops for every
    /// element a processor holds.
    fn charge_elementwise(&self, machine: &mut Machine, per_element: usize, label: &str) {
        let offsets = &self.offsets;
        machine.compute_each(|p| per_element * (offsets[p + 1] - offsets[p]), label);
    }

    // ------------------------------------------------------------------
    // HPF parallel array assignments (communication-free when aligned)
    // ------------------------------------------------------------------

    /// `self = self + alpha * x` — the SAXPY of the paper's
    /// `x = x + alpha*p` / `r = r - alpha*q` lines.
    pub fn axpy(&mut self, machine: &mut Machine, alpha: f64, x: &DistVector) {
        self.assert_aligned(x, "axpy");
        axpy_slices(&mut self.data, alpha, &x.data);
        self.charge_elementwise(machine, 2, "saxpy");
    }

    /// `self = beta * self + x` — the SAYPX of the paper's
    /// `p = beta*p + r` line.
    pub fn aypx(&mut self, machine: &mut Machine, beta: f64, x: &DistVector) {
        self.assert_aligned(x, "aypx");
        for (s, &v) in self.data.iter_mut().zip(&x.data) {
            *s = beta * *s + v;
        }
        self.charge_elementwise(machine, 2, "saypx");
    }

    /// `self = alpha * self`.
    pub fn scale(&mut self, machine: &mut Machine, alpha: f64) {
        for s in &mut self.data {
            *s *= alpha;
        }
        self.charge_elementwise(machine, 1, "scale");
    }

    /// Element-wise copy (aligned, communication-free).
    pub fn copy_from(&mut self, other: &DistVector) {
        self.assert_aligned(other, "copy");
        self.data.copy_from_slice(&other.data);
    }

    /// Set every element to `v` (HPF `q = 0.0` style array assignment).
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Element-wise combine with an arbitrary function (aligned).
    pub fn zip_apply(
        &mut self,
        machine: &mut Machine,
        other: &DistVector,
        flops_per_element: usize,
        label: &str,
        f: impl Fn(f64, f64) -> f64,
    ) {
        self.assert_aligned(other, "zip_apply");
        for (s, &v) in self.data.iter_mut().zip(&other.data) {
            *s = f(*s, v);
        }
        self.charge_elementwise(machine, flops_per_element, label);
    }

    // ------------------------------------------------------------------
    // Intrinsics with a merge phase
    // ------------------------------------------------------------------

    /// HPF `DOT_PRODUCT(self, other)`.
    ///
    /// "The element-wise multiplications in the inner-product operations
    /// can be performed locally without any communication overhead while
    /// the merge phase for adding up the partial results from processors
    /// involves communication overhead." — local phase `O(n/N_P)`, merge
    /// `t_startup * log N_P` on the hypercube.
    pub fn dot(&self, machine: &mut Machine, other: &DistVector) -> f64 {
        self.assert_aligned(other, "dot");
        // Deterministic merge order: one partial sum per processor, added
        // in processor rank order.
        let merged = merge_partials(&self.offsets, usize::MAX, CHAIN_START, |acc, at, len| {
            advance(acc, at, len, &self.data, &other.data, |a, b| a * b)
        });
        self.charge_elementwise(machine, 2, "dot-local");
        machine.allreduce(1, "dot-merge");
        // The merged scalar passes through the fault layer: an armed
        // corruption (bit flip, crash) lands here, exactly where a real
        // machine would deliver a damaged reduction result.
        machine.corrupt_scalar(merged)
    }

    /// HPF `SUM(self)` intrinsic: local sums + scalar merge.
    pub fn sum(&self, machine: &mut Machine) -> f64 {
        let total = merge_partials(&self.offsets, usize::MAX, 0.0, |acc, at, len| {
            advance(acc, at, len, &self.data, &self.data, |a, _| a)
        });
        self.charge_elementwise(machine, 1, "sum-local");
        machine.allreduce(1, "sum-merge");
        machine.corrupt_scalar(total)
    }

    /// The host arithmetic of CG's update fused with the reduction that
    /// reads its result: `x += alpha*p`, `r -= alpha*q`, and `r·r` of the
    /// updated `r` as [`DistVector::dot`] forms it (a chain per processor,
    /// merged in rank order) — the elements and the scalar that
    /// `x.axpy(alpha, p); r.axpy(-alpha, q); r.dot(r)` leave, bit for bit.
    /// It charges no machine and passes nothing through the fault layer:
    /// the caller owes the four operations' charges. All four vectors must
    /// be laid out alike.
    ///
    /// The update runs in pieces of at most [`UPDATE_CHUNK`] elements a
    /// processor — two plain element-wise loops — and the chains read each
    /// piece of `r` while it is still in the first-level cache.
    pub fn axpy_pair_then_dot(
        alpha: f64,
        x: &mut DistVector,
        p: &DistVector,
        r: &mut DistVector,
        q: &DistVector,
    ) -> f64 {
        for other in [&*x, &*r, q] {
            assert_eq!(p.offsets, other.offsets, "operands must be laid out alike");
        }
        let neg_alpha = -alpha;
        let (x, r) = (&mut x.data[..], &mut r.data[..]);
        merge_partials(&p.offsets, UPDATE_CHUNK, CHAIN_START, |acc, at, len| {
            for &from in at {
                let piece = from..from + len;
                axpy_slices(&mut x[piece.clone()], alpha, &p.data[piece.clone()]);
                axpy_slices(&mut r[piece.clone()], neg_alpha, &q.data[piece]);
            }
            advance(acc, at, len, r, r, |v, _| v * v)
        })
    }

    /// Euclidean norm via `DOT_PRODUCT` (plus one scalar sqrt).
    pub fn norm2(&self, machine: &mut Machine) -> f64 {
        self.dot(machine, self).sqrt()
    }

    /// Replicate the whole vector on every processor via an all-to-all
    /// broadcast (allgather) — the operation Scenario 1's matvec needs.
    /// Charges `t_startup*log NP + t_word*(NP-1)*n/NP` and returns the
    /// replicated global array: the vector's own storage when that is
    /// already in global order, else gathered into `scratch`.
    pub fn allgather<'a>(
        &'a self,
        machine: &mut Machine,
        label: &str,
        scratch: &'a mut Vec<f64>,
    ) -> &'a [f64] {
        let words_each = self.desc.len().div_ceil(self.desc.np().max(1));
        machine.allgather(words_each, label);
        self.global_or_gathered(scratch)
    }

    /// The vector in global order without charging the machine: borrowed
    /// when stored that way, else gathered into `scratch`.
    pub(crate) fn global_or_gathered<'a>(&'a self, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        match self.as_global() {
            Some(stored) => stored,
            None => {
                scratch.resize(self.len(), 0.0);
                self.copy_to_global(scratch);
                scratch
            }
        }
    }

    /// `!HPF$ REDISTRIBUTE` at the data level: move this vector to a new
    /// layout, performing the real element movement and charging the
    /// machine with the exact processor-to-processor traffic the change
    /// induces. "Whenever its distribution is changed, the others
    /// [aligned with it] are also automatically redistributed" — callers
    /// redistribute every member of an alignment group together.
    pub fn redistribute(&mut self, machine: &mut Machine, to: ArrayDescriptor, label: &str) {
        assert_eq!(self.desc.len(), to.len(), "redistribute length mismatch");
        assert_eq!(
            self.desc.np(),
            to.np(),
            "redistribute processor-count mismatch"
        );
        if self.desc.same_layout(&to) {
            self.desc = to;
            return;
        }
        hpf_dist::redistribute::redistribute(machine, &self.desc, &to, label);
        let local: Vec<Vec<f64>> = (0..self.desc.np())
            .map(|p| self.local(p).to_vec())
            .collect();
        let moved = hpf_dist::redistribute::permute_local_data(&self.desc, &to, &local);
        let mut out = Self::zeros(to);
        for (p, part) in moved.iter().enumerate() {
            out.local_mut(p).copy_from_slice(part);
        }
        *self = out;
    }
}

/// `y += alpha * x`, element by element.
fn axpy_slices(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (s, &v) in y.iter_mut().zip(x) {
        *s += alpha * v;
    }
}

// ----------------------------------------------------------------------
// The reduction chains
// ----------------------------------------------------------------------
//
// Section 4 forms a `DOT_PRODUCT` from one partial per processor, merged
// in rank order, and that order is what every recorded bit depends on: a
// processor's partial is a chain of dependent additions, left to right
// over its storage. One chain runs at the latency of an addition; N_P of
// them are independent, so the host advances up to `LOCKSTEP` of them
// together and changes no chain's order.

/// Where a processor's partial starts: the value `Iterator::sum::<f64>()`
/// folds from, so a processor that holds nothing contributes what `sum`
/// of nothing does (pinned to the toolchain's by a test).
const CHAIN_START: f64 = -0.0;

/// Processors whose chains advance together: eight accumulators and
/// their operands fit the sixteen vector registers of baseline x86-64.
const LOCKSTEP: usize = 8;

/// Elements a processor's `x` and `r` advance by between two visits of
/// the `r·r` chains: a group's eight pieces of `r` are 16 KB.
const UPDATE_CHUNK: usize = 256;

/// One partial per processor of the layout `offsets` describes, each from
/// [`CHAIN_START`] left to right over the processor's storage, added onto
/// `merged` in rank order.
///
/// Processors are taken in groups of 8, then 4, 2, 1 for what is left.
/// `step(acc, at, len)` must advance chain `acc[j]` over the `len`
/// elements stored from `at[j]`, for every `j`; it is asked to in pieces
/// of at most `chunk` elements a processor, first over the prefix the
/// group's processors have in common — all chains at once — then over
/// what each longer block has left, one chain at a time.
fn merge_partials(
    offsets: &[usize],
    chunk: usize,
    mut merged: f64,
    mut step: impl FnMut(&mut [f64], &[usize], usize),
) -> f64 {
    let np = offsets.len() - 1;
    let mut first = 0;
    while first < np {
        let width = LOCKSTEP.min(1 << (np - first).ilog2());
        let starts = &offsets[first..first + width];
        let ends = &offsets[first + 1..=first + width];
        let common = (starts.iter().zip(ends))
            .map(|(start, end)| end - start)
            .min()
            .expect("a group has a processor");
        let mut acc = [CHAIN_START; LOCKSTEP];
        let mut at = [0; LOCKSTEP];
        for from in (0..common).step_by(chunk) {
            for (at, start) in at.iter_mut().zip(starts) {
                *at = start + from;
            }
            step(&mut acc[..width], &at[..width], chunk.min(common - from));
        }
        for (acc, (start, &end)) in acc.iter_mut().zip(starts.iter().zip(ends)) {
            for from in (start + common..end).step_by(chunk) {
                step(std::slice::from_mut(acc), &[from], chunk.min(end - from));
            }
        }
        for partial in &acc[..width] {
            merged += partial;
        }
        first += width;
    }
    merged
}

/// Advance `acc.len()` chains (8, 4, 2 or 1) by `term(a[i], b[i])` over
/// the `len` elements from `at[j]`, chain `j` in its own order.
fn advance(
    acc: &mut [f64],
    at: &[usize],
    len: usize,
    a: &[f64],
    b: &[f64],
    term: impl Fn(f64, f64) -> f64,
) {
    fn pieces<'v, const W: usize>(v: &'v [f64], at: &[usize], len: usize) -> [&'v [f64]; W] {
        std::array::from_fn(|j| &v[at[j]..at[j] + len])
    }
    fn of_width<const W: usize>(
        acc: &mut [f64],
        at: &[usize],
        len: usize,
        a: &[f64],
        b: &[f64],
        term: impl Fn(f64, f64) -> f64,
    ) {
        let from = std::array::from_fn(|j| acc[j]);
        let to = chains::<W>(from, pieces(a, at, len), pieces(b, at, len), term);
        acc.copy_from_slice(&to);
    }
    match acc.len() {
        8 => of_width::<8>(acc, at, len, a, b, term),
        4 => of_width::<4>(acc, at, len, a, b, term),
        2 => of_width::<2>(acc, at, len, a, b, term),
        1 => of_width::<1>(acc, at, len, a, b, term),
        w => unreachable!("a group of {w} processors"),
    }
}

/// The chain kernel: `acc[j] += term(a[j][i], b[j][i])` for `i` left to
/// right, `W` independent chains a step. The accumulators are taken and
/// handed back by value and, with the loop over `j` unrolled, indexed by
/// constants only, so they live in registers: an accumulator array that a
/// run-time index ever reaches lives on the stack instead, and every step
/// of every chain then waits for a store to be forwarded. Out of line, so
/// the loop has an address of its own.
#[inline(never)]
fn chains<const W: usize>(
    mut acc: [f64; W],
    a: [&[f64]; W],
    b: [&[f64]; W],
    term: impl Fn(f64, f64) -> f64,
) -> [f64; W] {
    let len = a[0].len();
    let a: [&[f64]; W] = std::array::from_fn(|j| &a[j][..len]);
    let b: [&[f64]; W] = std::array::from_fn(|j| &b[j][..len]);
    for i in 0..len {
        for j in 0..W {
            acc[j] += term(a[j][i], b[j][i]);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_dist::DistSpec;
    use hpf_machine::{CostModel, EventKind, FaultPlan, Topology};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn machine(np: usize) -> Machine {
        Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
    }

    fn vec_of(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn roundtrip_block_and_cyclic() {
        let g = vec_of(10, |i| i as f64);
        for desc in [
            ArrayDescriptor::block(10, 4),
            ArrayDescriptor::cyclic(10, 4),
        ] {
            let v = DistVector::from_global(desc, &g);
            assert_eq!(v.to_global(), g);
            assert_eq!(v.get(7), 7.0);
        }
    }

    #[test]
    fn axpy_matches_serial_and_is_comm_free() {
        let mut m = machine(4);
        let d = ArrayDescriptor::block(100, 4);
        let mut y = DistVector::from_global(d.clone(), &vec_of(100, |i| i as f64));
        let x = DistVector::from_global(d, &vec_of(100, |i| 2.0 * i as f64));
        y.axpy(&mut m, 0.5, &x);
        assert_eq!(y.to_global(), vec_of(100, |i| 2.0 * i as f64));
        // Zero communication, only compute events.
        assert_eq!(m.trace().total_comm_words(), 0);
        assert_eq!(m.trace().count(EventKind::Compute), 1);
        assert_eq!(m.total_flops(), 200);
    }

    #[test]
    fn aypx_is_the_papers_saypx() {
        let mut m = machine(2);
        let d = ArrayDescriptor::block(6, 2);
        let mut p = DistVector::from_global(d.clone(), &vec_of(6, |i| i as f64));
        let r = DistVector::constant(d, 1.0);
        p.aypx(&mut m, 3.0, &r); // p = 3p + r
        assert_eq!(p.to_global(), vec_of(6, |i| 3.0 * i as f64 + 1.0));
    }

    #[test]
    fn dot_matches_serial_and_charges_merge() {
        let mut m = machine(8);
        let d = ArrayDescriptor::block(64, 8);
        let a = DistVector::from_global(d.clone(), &vec_of(64, |i| (i % 5) as f64));
        let b = DistVector::from_global(d, &vec_of(64, |i| (i % 3) as f64));
        let got = a.dot(&mut m, &b);
        let want: f64 = (0..64).map(|i| ((i % 5) * (i % 3)) as f64).sum();
        assert!((got - want).abs() < 1e-12);
        // Exactly one scalar all-reduce merge.
        assert_eq!(m.trace().count(EventKind::AllReduce), 1);
        let merge = m.trace().with_label("dot-merge").next().unwrap();
        // On a hypercube of 8 the merge pays 3 startups.
        let c = *m.cost_model();
        let expect = 3.0 * (c.t_startup + c.t_word + c.t_flop);
        assert!((merge.time - expect).abs() < 1e-12);
    }

    #[test]
    fn saxpy_time_scales_inversely_with_np() {
        // O(n/NP): doubling NP halves the simulated SAXPY phase time.
        let n = 1 << 12;
        let mut t = Vec::new();
        for np in [2usize, 4, 8] {
            let mut m = machine(np);
            let d = ArrayDescriptor::block(n, np);
            let mut y = DistVector::zeros(d.clone());
            let x = DistVector::constant(d, 1.0);
            y.axpy(&mut m, 1.0, &x);
            t.push(m.elapsed());
        }
        assert!((t[0] / t[1] - 2.0).abs() < 1e-9);
        assert!((t[1] / t[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_operands_rejected() {
        let mut m = machine(4);
        let mut y = DistVector::zeros(ArrayDescriptor::block(16, 4));
        let x = DistVector::zeros(ArrayDescriptor::cyclic(16, 4));
        y.axpy(&mut m, 1.0, &x);
    }

    #[test]
    fn sum_and_norm() {
        let mut m = machine(4);
        let d = ArrayDescriptor::cyclic(9, 4);
        let v = DistVector::from_global(d, &vec_of(9, |i| i as f64));
        assert_eq!(v.sum(&mut m), 36.0);
        let n = v.norm2(&mut m);
        let want: f64 = (0..9).map(|i| (i * i) as f64).sum::<f64>();
        assert!((n - want.sqrt()).abs() < 1e-12);
    }

    // ------------------------------------------------------------------
    // The reduction chains against one chain at a time, to the bit
    // ------------------------------------------------------------------

    /// `DOT_PRODUCT`'s scalar as it was formed before the chains advanced
    /// together: one processor's chain at a time, each an
    /// `Iterator::sum`, the partials summed in rank order. The oracle.
    fn dot_one_chain_at_a_time(a: &DistVector, b: &DistVector) -> f64 {
        (0..a.desc.np())
            .map(|p| -> f64 { a.local(p).iter().zip(b.local(p)).map(|(a, b)| a * b).sum() })
            .sum()
    }

    /// `SUM`'s scalar, the same way: its merge starts from `0.0`.
    fn sum_one_chain_at_a_time(a: &DistVector) -> f64 {
        let mut total = 0.0;
        for p in 0..a.desc.np() {
            total += a.local(p).iter().sum::<f64>();
        }
        total
    }

    /// Bit pattern with every NaN mapped to one: which operand's sign and
    /// payload an addition of two NaNs keeps is the instruction's choice.
    fn bits(v: f64) -> u64 {
        if v.is_nan() { f64::NAN } else { v }.to_bits()
    }

    fn all_bits(v: &DistVector) -> Vec<u64> {
        v.data.iter().map(|&x| bits(x)).collect()
    }

    /// Block, cyclic, or irregular cuts with empty and one-element
    /// processors planted among them.
    fn arb_layout(n: usize, np: usize, rng: &mut StdRng) -> ArrayDescriptor {
        match rng.gen_range(0..3u32) {
            0 => ArrayDescriptor::block(n, np),
            1 => ArrayDescriptor::cyclic(n, np),
            _ => {
                let mut cuts = vec![0];
                for proc in 1..np {
                    let last = cuts[proc - 1];
                    let step = match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => 1,
                        _ => rng.gen_range(0..=2 * n / np + 1),
                    };
                    cuts.push((last + step).min(n));
                }
                cuts.push(n);
                ArrayDescriptor::new(n, np, DistSpec::IrregularCuts(cuts))
            }
        }
    }

    /// Ordinary values with `±0.0`, `±inf` and NaN planted among them.
    fn arb_vector(desc: &ArrayDescriptor, rng: &mut StdRng) -> DistVector {
        let n = desc.len();
        let mut g: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        for special in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            if n > 0 && rng.gen_bool(0.3) {
                g[rng.gen_range(0..n)] = special;
            }
        }
        DistVector::from_global(desc.clone(), &g)
    }

    proptest! {
        #[test]
        fn dot_and_sum_keep_the_bits_of_one_chain_at_a_time(
            np in 1usize..=19,
            n in 0usize..=700,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let desc = arb_layout(n, np, &mut rng);
            let a = arb_vector(&desc, &mut rng);
            let b = arb_vector(&desc, &mut rng);
            let mut m = machine(np);
            prop_assert_eq!(bits(a.dot(&mut m, &b)), bits(dot_one_chain_at_a_time(&a, &b)));
            prop_assert_eq!(bits(a.dot(&mut m, &a)), bits(dot_one_chain_at_a_time(&a, &a)));
            prop_assert_eq!(bits(a.sum(&mut m)), bits(sum_one_chain_at_a_time(&a)));
        }

        /// Lengths past `UPDATE_CHUNK` a processor, so chains resume
        /// across pieces, in the common prefix and in the tails.
        #[test]
        fn the_fused_update_keeps_the_bits_of_two_axpys_and_a_dot(
            np in 1usize..=19,
            n in 0usize..=2500,
            alpha in -3.0f64..3.0,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let desc = arb_layout(n, np, &mut rng);
            let [mut x, p, mut r, q] = std::array::from_fn(|_| arb_vector(&desc, &mut rng));
            let (mut x_want, mut r_want) = (x.clone(), r.clone());
            let mut m = machine(np);
            x_want.axpy(&mut m, alpha, &p);
            r_want.axpy(&mut m, -alpha, &q);
            let rr_want = dot_one_chain_at_a_time(&r_want, &r_want);
            let rr = DistVector::axpy_pair_then_dot(alpha, &mut x, &p, &mut r, &q);
            prop_assert_eq!(all_bits(&x), all_bits(&x_want));
            prop_assert_eq!(all_bits(&r), all_bits(&r_want));
            prop_assert_eq!(bits(rr), bits(rr_want));
        }
    }

    /// A processor that holds nothing contributes what `Iterator::sum` of
    /// nothing is on this toolchain — read, not assumed.
    #[test]
    fn a_chain_starts_where_iterator_sum_does() {
        let empty_sum = std::iter::empty::<f64>().sum::<f64>();
        assert_eq!(CHAIN_START.to_bits(), empty_sum.to_bits());
        // All four processors empty: dot merges four such partials onto a
        // fifth, sum merges them onto +0.0.
        let v = DistVector::zeros(ArrayDescriptor::block(0, 4));
        let mut m = machine(4);
        assert_eq!(v.dot(&mut m, &v).to_bits(), empty_sum.to_bits());
        assert_eq!(v.sum(&mut m).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn an_armed_corruption_lands_on_the_merged_scalar() {
        let d = ArrayDescriptor::block(100, 8);
        let a = DistVector::from_global(d.clone(), &vec_of(100, |i| 0.5 + i as f64));
        let b = DistVector::from_global(d, &vec_of(100, |i| 1.0 / (1.0 + i as f64)));
        let clean = a.dot(&mut machine(8), &b);
        assert_eq!(clean.to_bits(), dot_one_chain_at_a_time(&a, &b).to_bits());
        // Operation 0 is the local phase, operation 1 the merge that arms
        // the flip; the merged scalar is the first value it meets.
        let mut m = machine(8);
        m.set_fault_plan(FaultPlan::new().with_bit_flip(1, 3, 52, 0));
        assert_eq!(a.dot(&mut m, &b).to_bits(), clean.to_bits() ^ (1 << 52));
        assert_eq!(m.faults_injected(), 1);
        // Consumed: the next reduction is clean again.
        assert_eq!(a.dot(&mut m, &b).to_bits(), clean.to_bits());
        let mut m = machine(8);
        m.set_fault_plan(FaultPlan::new().with_crash(1, 3));
        assert!(a.sum(&mut m).is_nan());
    }

    #[test]
    fn allgather_replicates_and_charges() {
        let mut m = machine(4);
        let d = ArrayDescriptor::block(32, 4);
        let v = DistVector::from_global(d, &vec_of(32, |i| i as f64));
        let want = vec_of(32, |i| i as f64);
        let mut scratch = Vec::new();
        assert_eq!(v.allgather(&mut m, "bcast-p", &mut scratch), want);
        // A block layout is its own replicated copy; a cyclic one gathers.
        assert!(scratch.is_empty());
        let c = DistVector::from_global(ArrayDescriptor::cyclic(32, 4), &want);
        let mut quiet = machine(4);
        assert_eq!(c.allgather(&mut quiet, "bcast-p", &mut scratch), want);
        assert_eq!(m.trace().count(EventKind::AllGather), 1);
        assert!(m.trace().with_label("bcast-p").next().unwrap().words == 32);
    }

    #[test]
    fn fill_and_copy() {
        let d = ArrayDescriptor::block(8, 2);
        let mut a = DistVector::constant(d.clone(), 7.0);
        a.fill(0.0);
        assert_eq!(a.to_global(), vec![0.0; 8]);
        let b = DistVector::constant(d, 3.0);
        a.copy_from(&b);
        assert_eq!(a.to_global(), vec![3.0; 8]);
    }

    #[test]
    fn redistribute_moves_data_and_charges_machine() {
        let mut m = machine(4);
        let g = vec_of(16, |i| i as f64 * 3.0);
        let mut v = DistVector::from_global(ArrayDescriptor::block(16, 4), &g);
        v.redistribute(&mut m, ArrayDescriptor::cyclic(16, 4), "block->cyclic");
        // Data preserved under the new layout.
        assert_eq!(v.to_global(), g);
        assert_eq!(v.descriptor().spec(), &hpf_dist::DistSpec::Cyclic);
        assert_eq!(v.local(0), &[0.0, 12.0, 24.0, 36.0]);
        // The machine saw the exchange.
        assert_eq!(m.trace().count(EventKind::Redistribute), 1);
        assert!(m.total_words_sent() > 0);
        // Aligned ops work under the new layout.
        let w = DistVector::from_global(ArrayDescriptor::cyclic(16, 4), &g);
        assert!((v.dot(&mut m, &w) - g.iter().map(|x| x * x).sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn redistribute_to_same_layout_is_free() {
        let mut m = machine(4);
        let mut v = DistVector::constant(ArrayDescriptor::block(12, 4), 2.0);
        v.redistribute(&mut m, ArrayDescriptor::block(12, 4), "noop");
        assert_eq!(m.trace().len(), 0);
        assert_eq!(m.total_words_sent(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn redistribute_length_checked() {
        let mut m = machine(2);
        let mut v = DistVector::zeros(ArrayDescriptor::block(8, 2));
        v.redistribute(&mut m, ArrayDescriptor::block(10, 2), "bad");
    }

    #[test]
    fn zip_apply_custom_op() {
        let mut m = machine(2);
        let d = ArrayDescriptor::block(4, 2);
        let mut a = DistVector::from_global(d.clone(), &[1.0, 2.0, 3.0, 4.0]);
        let b = DistVector::from_global(d, &[10.0, 20.0, 30.0, 40.0]);
        a.zip_apply(&mut m, &b, 1, "mul", |x, y| x * y);
        assert_eq!(a.to_global(), vec![10.0, 40.0, 90.0, 160.0]);
    }
}
