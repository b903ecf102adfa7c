//! Distributed Array Descriptors (DADs).
//!
//! The paper (Section 5.2.1): "Distributed array descriptors (DAD) for
//! the dynamically distributed arrays are generated at runtime. DADs
//! contain information about the portions of the arrays residing on each
//! processor. The compiler uses this hint to generate communication calls
//! and to distribute corresponding loop iterations."
//!
//! [`ArrayDescriptor`] answers the three questions every data-parallel
//! operation needs: who owns global index `i`, where does it live in the
//! owner's local storage, and which global indices does processor `p`
//! hold.

use crate::spec::DistSpec;

/// Descriptor of a 1-D array of global length `n` distributed over `np`
/// processors according to a [`DistSpec`].
///
/// ```
/// use hpf_dist::ArrayDescriptor;
///
/// // !HPF$ DISTRIBUTE p(BLOCK) over 4 processors, n = 10.
/// let d = ArrayDescriptor::block(10, 4);
/// assert_eq!(d.owner(7), 2);          // block size ceil(10/4) = 3
/// assert_eq!(d.local_offset(7), 1);   // second element of proc 2
/// assert_eq!(d.local_lens(), vec![3, 3, 3, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDescriptor {
    n: usize,
    np: usize,
    spec: DistSpec,
}

impl ArrayDescriptor {
    pub fn new(n: usize, np: usize, spec: DistSpec) -> Self {
        assert!(np > 0, "descriptor needs at least one processor");
        if let DistSpec::BlockK(k) = spec {
            assert!(k > 0, "BLOCK(k) needs k > 0");
            assert!(
                k * np >= n,
                "BLOCK({k}) over {np} processors cannot hold {n} elements"
            );
        }
        if let DistSpec::CyclicK(k) = spec {
            assert!(k > 0, "CYCLIC(k) needs k > 0");
        }
        if let DistSpec::IrregularCuts(ref cuts) = spec {
            assert_eq!(cuts.len(), np + 1, "cuts must have NP+1 entries");
            assert_eq!(cuts[0], 0, "first cut must be 0");
            assert_eq!(*cuts.last().unwrap(), n, "last cut must be n");
            assert!(
                cuts.windows(2).all(|w| w[0] <= w[1]),
                "cuts must be non-decreasing"
            );
        }
        ArrayDescriptor { n, np, spec }
    }

    /// `DISTRIBUTE a(BLOCK)` over `np` processors.
    pub fn block(n: usize, np: usize) -> Self {
        Self::new(n, np, DistSpec::Block)
    }

    /// `DISTRIBUTE a(CYCLIC)` over `np` processors.
    pub fn cyclic(n: usize, np: usize) -> Self {
        Self::new(n, np, DistSpec::Cyclic)
    }

    /// Replicated array (every processor holds all of it).
    pub fn replicated(n: usize, np: usize) -> Self {
        Self::new(n, np, DistSpec::Replicated)
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn np(&self) -> usize {
        self.np
    }

    pub fn spec(&self) -> &DistSpec {
        &self.spec
    }

    /// Effective block size for the block-family specs.
    fn block_size(&self) -> usize {
        match self.spec {
            DistSpec::Block => self.n.div_ceil(self.np).max(1),
            DistSpec::BlockK(k) => k,
            _ => unreachable!("block_size on non-block spec"),
        }
    }

    /// Owner processor of global index `i`.
    ///
    /// For `Replicated`, ownership is conventional (processor 0) — reads
    /// are local everywhere, writes go through the convention.
    pub fn owner(&self, i: usize) -> usize {
        assert!(i < self.n, "global index {i} out of range (n={})", self.n);
        match &self.spec {
            DistSpec::Block | DistSpec::BlockK(_) => (i / self.block_size()).min(self.np - 1),
            DistSpec::Cyclic => i % self.np,
            DistSpec::CyclicK(k) => (i / k) % self.np,
            DistSpec::Replicated => 0,
            DistSpec::IrregularCuts(cuts) => {
                // Binary search for the segment containing i.
                match cuts.binary_search(&i) {
                    Ok(pos) => {
                        // i is exactly a cut: it starts segment `pos`, but
                        // empty segments may follow; find the segment
                        // whose [start, end) contains i.
                        let mut p = pos.min(self.np - 1);
                        while p < self.np - 1 && cuts[p + 1] <= i {
                            p += 1;
                        }
                        p
                    }
                    Err(pos) => pos - 1,
                }
            }
        }
    }

    /// Number of elements processor `p` stores locally.
    pub fn local_len(&self, p: usize) -> usize {
        assert!(p < self.np, "processor {p} out of range");
        match &self.spec {
            DistSpec::Block | DistSpec::BlockK(_) => {
                let bs = self.block_size();
                let start = (p * bs).min(self.n);
                let end = ((p + 1) * bs).min(self.n);
                end - start
            }
            DistSpec::Cyclic => {
                let (q, r) = (self.n / self.np, self.n % self.np);
                q + usize::from(p < r)
            }
            DistSpec::CyclicK(k) => {
                // Count full + partial blocks owned by p.
                let blocks = self.n.div_ceil(*k);
                let mut cnt = 0usize;
                let mut b = p;
                while b < blocks {
                    let start = b * k;
                    let end = ((b + 1) * k).min(self.n);
                    cnt += end - start;
                    b += self.np;
                }
                cnt
            }
            DistSpec::Replicated => self.n,
            DistSpec::IrregularCuts(cuts) => cuts[p + 1] - cuts[p],
        }
    }

    /// Position of global index `i` in its owner's local storage.
    pub fn local_offset(&self, i: usize) -> usize {
        assert!(i < self.n);
        match &self.spec {
            DistSpec::Block | DistSpec::BlockK(_) => {
                let bs = self.block_size();
                let p = self.owner(i);
                i - p * bs
            }
            DistSpec::Cyclic => i / self.np,
            DistSpec::CyclicK(k) => {
                let block = i / k;
                let round = block / self.np;
                round * k + (i % k)
            }
            DistSpec::Replicated => i,
            DistSpec::IrregularCuts(cuts) => i - cuts[self.owner(i)],
        }
    }

    /// Global indices owned by processor `p`, in local-storage order.
    pub fn global_indices(&self, p: usize) -> Vec<usize> {
        self.local_runs(p).flatten().collect()
    }

    /// The maximal runs of consecutive global indices processor `p`
    /// holds, in local-storage order: one run for the contiguous layouts,
    /// one per owned block for the cyclic ones. Builds nothing.
    pub fn local_runs(&self, p: usize) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        assert!(p < self.np);
        let contiguous = self.contiguous_range(p);
        let k = match self.spec {
            DistSpec::CyclicK(k) => k,
            _ => 1,
        };
        // A contiguous layout is walked as the single "block" `p`.
        let blocks = match contiguous {
            Some(_) => p + 1,
            None => self.n.div_ceil(k),
        };
        (p..blocks)
            .step_by(self.np)
            .map(move |b| match &contiguous {
                Some(r) => r.clone(),
                None => b * k..((b + 1) * k).min(self.n),
            })
    }

    /// Contiguous global range `[start, end)` owned by `p`, if the layout
    /// is contiguous (block family / irregular cuts).
    pub fn contiguous_range(&self, p: usize) -> Option<std::ops::Range<usize>> {
        match &self.spec {
            DistSpec::Block | DistSpec::BlockK(_) => {
                let bs = self.block_size();
                Some((p * bs).min(self.n)..((p + 1) * bs).min(self.n))
            }
            DistSpec::IrregularCuts(cuts) => Some(cuts[p]..cuts[p + 1]),
            DistSpec::Replicated => Some(0..self.n),
            _ => None,
        }
    }

    /// Per-processor element counts.
    pub fn local_lens(&self) -> Vec<usize> {
        (0..self.np).map(|p| self.local_len(p)).collect()
    }

    /// Do two descriptors place every element identically? (Same owner
    /// for every global index — the "aligned" precondition for
    /// communication-free element-wise operations.)
    pub fn same_layout(&self, other: &ArrayDescriptor) -> bool {
        if self.n != other.n || self.np != other.np {
            return false;
        }
        if self.spec == other.spec {
            return true;
        }
        // Two layouts that tile `0..n` in rank order agree exactly when
        // every processor's range does (an empty range sits where its
        // predecessor ends, in either form). `Replicated` overlaps
        // instead of tiling, so it takes the walk.
        let tiles = |d: &ArrayDescriptor| {
            !matches!(d.spec, DistSpec::Replicated) && d.contiguous_range(0).is_some()
        };
        if tiles(self) && tiles(other) {
            return (0..self.np).all(|p| self.contiguous_range(p) == other.contiguous_range(p));
        }
        (0..self.n).all(|i| self.owner(i) == other.owner(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ownership_matches_hpf() {
        // n=10, np=4 -> bs=3: [0..3)->0, [3..6)->1, [6..9)->2, [9..10)->3.
        let d = ArrayDescriptor::block(10, 4);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(2), 0);
        assert_eq!(d.owner(3), 1);
        assert_eq!(d.owner(8), 2);
        assert_eq!(d.owner(9), 3);
        assert_eq!(d.local_lens(), vec![3, 3, 3, 1]);
    }

    #[test]
    fn paper_block_k_places_last_element_on_last_processor() {
        // The paper's BLOCK((n+NP-1)/NP) for row(n+1): with n=8, NP=4 the
        // row array has 9 elements, block size ceil(9/4)=3 ... the paper's
        // intent: the (n+1)th element lands on the last non-empty chunk.
        let n = 9;
        let d = ArrayDescriptor::new(n, 4, DistSpec::paper_block(n, 4));
        assert_eq!(d.owner(8), 2); // ceil(9/4)=3 -> [0..3)(p0) [3..6)(p1) [6..9)(p2)
        assert_eq!(d.local_len(3), 0);
    }

    #[test]
    fn cyclic_round_robin() {
        let d = ArrayDescriptor::cyclic(10, 3);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(1), 1);
        assert_eq!(d.owner(2), 2);
        assert_eq!(d.owner(3), 0);
        assert_eq!(d.local_lens(), vec![4, 3, 3]);
        assert_eq!(d.global_indices(0), vec![0, 3, 6, 9]);
        assert_eq!(d.local_offset(6), 2);
    }

    #[test]
    fn cyclic_k_blocks() {
        let d = ArrayDescriptor::new(12, 2, DistSpec::CyclicK(3));
        // Blocks: [0..3)->0, [3..6)->1, [6..9)->0, [9..12)->1.
        assert_eq!(d.owner(1), 0);
        assert_eq!(d.owner(4), 1);
        assert_eq!(d.owner(7), 0);
        assert_eq!(d.owner(10), 1);
        assert_eq!(d.global_indices(0), vec![0, 1, 2, 6, 7, 8]);
        assert_eq!(d.local_offset(7), 4);
        assert_eq!(d.local_len(0), 6);
    }

    #[test]
    fn replicated_everyone_has_all() {
        let d = ArrayDescriptor::replicated(5, 4);
        for p in 0..4 {
            assert_eq!(d.local_len(p), 5);
        }
        assert_eq!(d.owner(3), 0);
        assert_eq!(d.local_offset(3), 3);
    }

    #[test]
    fn irregular_cuts_ownership() {
        let d = ArrayDescriptor::new(10, 3, DistSpec::IrregularCuts(vec![0, 4, 4, 10]));
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(3), 0);
        assert_eq!(d.owner(4), 2); // segment 1 is empty
        assert_eq!(d.owner(9), 2);
        assert_eq!(d.local_lens(), vec![4, 0, 6]);
        assert_eq!(d.local_offset(5), 1);
    }

    #[test]
    fn local_global_inverse_for_all_specs() {
        let specs = vec![
            DistSpec::Block,
            DistSpec::BlockK(4),
            DistSpec::Cyclic,
            DistSpec::CyclicK(2),
            DistSpec::IrregularCuts(vec![0, 2, 7, 11]),
        ];
        for spec in specs {
            let d = ArrayDescriptor::new(11, 3, spec.clone());
            for p in 0..3 {
                for (local, &g) in d.global_indices(p).iter().enumerate() {
                    assert_eq!(d.owner(g), p, "{spec:?} owner of {g}");
                    assert_eq!(d.local_offset(g), local, "{spec:?} offset of {g}");
                }
            }
            let total: usize = d.local_lens().iter().sum();
            assert_eq!(total, 11, "{spec:?} covers all elements");
        }
    }

    #[test]
    fn same_layout_detects_equivalence() {
        let a = ArrayDescriptor::block(12, 4);
        let b = ArrayDescriptor::new(12, 4, DistSpec::BlockK(3));
        assert!(a.same_layout(&b)); // block size ceil(12/4)=3 == BLOCK(3)
        let c = ArrayDescriptor::cyclic(12, 4);
        assert!(!a.same_layout(&c));
        let cuts = ArrayDescriptor::new(12, 4, DistSpec::IrregularCuts(vec![0, 3, 6, 9, 12]));
        assert!(a.same_layout(&cuts));
    }

    #[test]
    fn same_layout_compares_ranges_not_forms() {
        let block = ArrayDescriptor::block(10, 4); // 0..3, 3..6, 6..9, 9..10
        let cuts = |c: Vec<usize>| ArrayDescriptor::new(10, 4, DistSpec::IrregularCuts(c));
        assert!(block.same_layout(&cuts(vec![0, 3, 6, 9, 10])));
        assert!(!block.same_layout(&cuts(vec![0, 3, 6, 8, 10])));
        let a = cuts(vec![0, 5, 5, 5, 10]);
        let b = cuts(vec![0, 5, 7, 7, 10]);
        assert!(!a.same_layout(&b));
        // A replicated array overlaps instead of tiling: owner walk.
        let rep = ArrayDescriptor::replicated(10, 2);
        let all_on_zero = ArrayDescriptor::new(10, 2, DistSpec::IrregularCuts(vec![0, 10, 10]));
        assert!(rep.same_layout(&all_on_zero));
    }

    #[test]
    fn local_runs_cover_global_indices_in_storage_order() {
        let d = ArrayDescriptor::new(11, 3, DistSpec::CyclicK(2));
        let runs: Vec<_> = d.local_runs(1).collect();
        assert_eq!(runs, vec![2..4, 8..10]);
        assert_eq!(d.global_indices(2), vec![4, 5, 10]);
        let b = ArrayDescriptor::block(10, 4);
        assert_eq!(b.local_runs(3).collect::<Vec<_>>(), vec![9..10]);
        let c = ArrayDescriptor::cyclic(5, 8); // n < NP
        assert_eq!(c.local_runs(6).count(), 0);
        assert_eq!(c.local_runs(4).collect::<Vec<_>>(), vec![4..5]);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn too_small_block_rejected() {
        ArrayDescriptor::new(100, 4, DistSpec::BlockK(10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_bounds_checked() {
        ArrayDescriptor::block(10, 2).owner(10);
    }

    #[test]
    fn empty_array_ok() {
        let d = ArrayDescriptor::block(0, 4);
        assert!(d.is_empty());
        assert_eq!(d.local_lens(), vec![0, 0, 0, 0]);
    }
}
