//! Interconnect topologies and their collective-operation timing.
//!
//! The paper's cost analysis (Section 4) is parameterised by the network:
//!
//! > "the communication or merge phase changes according to the network
//! > architecture type. For example on a hypercube architecture it is
//! > done in `t_startup * log N_P` time."
//!
//! Each [`Topology`] provides hop distances and the *number of message
//! start-ups* and *per-element traffic* of the classic collective
//! algorithms on that network, so that a [`CostModel`] can turn them into
//! simulated times.

use crate::cost::CostModel;

/// Supported interconnect topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Binary hypercube of dimension `ceil(log2 P)`. The paper's primary
    /// example network; collectives use recursive doubling.
    Hypercube,
    /// 2-D square-ish mesh (no wraparound).
    Mesh2D,
    /// Unidirectional ring.
    Ring,
    /// Fully connected crossbar (every pair one hop).
    FullyConnected,
    /// Bus / shared medium: all traffic serialises.
    Bus,
}

impl Topology {
    /// ceil(log2(p)), with `log2(1) == 0`.
    pub fn log2_ceil(p: usize) -> u32 {
        assert!(p > 0, "processor count must be positive");
        usize::BITS - (p - 1).leading_zeros()
    }

    /// Hop distance between processors `a` and `b` for a machine of `p`
    /// processors (used for point-to-point message timing).
    pub fn hops(&self, a: usize, b: usize, p: usize) -> usize {
        assert!(a < p && b < p, "rank out of range");
        if a == b {
            return 0;
        }
        match self {
            Topology::Hypercube => (a ^ b).count_ones() as usize,
            Topology::Mesh2D => {
                let side = (p as f64).sqrt().ceil() as usize;
                let (ax, ay) = (a % side, a / side);
                let (bx, by) = (b % side, b / side);
                ax.abs_diff(bx) + ay.abs_diff(by)
            }
            Topology::Ring => {
                // Unidirectional: must travel forward.
                (b + p - a) % p
            }
            Topology::FullyConnected | Topology::Bus => 1,
        }
    }

    /// Network diameter for `p` processors.
    pub fn diameter(&self, p: usize) -> usize {
        match self {
            Topology::Hypercube => Self::log2_ceil(p) as usize,
            Topology::Mesh2D => {
                let side = (p as f64).sqrt().ceil() as usize;
                2 * (side.saturating_sub(1))
            }
            Topology::Ring => p.saturating_sub(1),
            Topology::FullyConnected | Topology::Bus => usize::from(p > 1),
        }
    }

    /// Time for a one-to-all broadcast of `words` elements from one root
    /// to all `p` processors.
    ///
    /// Hypercube / fully connected use a binomial tree (`log P` rounds,
    /// the paper's "tree-like broadcasting mechanism"); the mesh uses
    /// `2(sqrt P - 1)` store-and-forward steps; the ring pipelines around
    /// `P - 1` links; the bus is a single serialised transmission heard by
    /// all.
    pub fn broadcast_time(&self, p: usize, words: usize, cost: &CostModel) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let w = words as f64;
        match self {
            Topology::Hypercube | Topology::FullyConnected => {
                let rounds = Self::log2_ceil(p) as f64;
                rounds * (cost.t_startup + cost.t_word * w)
            }
            Topology::Mesh2D => {
                let steps = self.diameter(p) as f64;
                steps * (cost.t_startup + cost.t_word * w)
            }
            Topology::Ring => (p as f64 - 1.0) * (cost.t_startup + cost.t_word * w),
            Topology::Bus => cost.t_startup + cost.t_word * w,
        }
    }

    /// Time for an all-to-all broadcast (allgather) in which every
    /// processor contributes `words_each` elements and ends holding all
    /// `p * words_each`.
    ///
    /// This is the operation Scenario 1 of the paper needs to replicate
    /// the distributed vector `p`: "all-to-all broadcast of messages
    /// containing n/N_P vector elements among N_P processors takes
    /// `t_startup * log N_P + t_comm * n/N_P` time" — the hypercube
    /// recursive-doubling bound, where the bandwidth term telescopes to
    /// the total received data `(p-1) * words_each ~ n`.
    pub fn allgather_time(&self, p: usize, words_each: usize, cost: &CostModel) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let w = words_each as f64;
        let pf = p as f64;
        match self {
            Topology::Hypercube | Topology::FullyConnected => {
                // Recursive doubling: log P start-ups; data doubles each
                // round, total transferred (p-1) * w.
                let rounds = Self::log2_ceil(p) as f64;
                rounds * cost.t_startup + cost.t_word * (pf - 1.0) * w
            }
            Topology::Mesh2D => {
                // Row allgather then column allgather.
                let side = (pf).sqrt().ceil();
                2.0 * (side - 1.0) * cost.t_startup + cost.t_word * (pf - 1.0) * w
            }
            Topology::Ring => (pf - 1.0) * (cost.t_startup + cost.t_word * w),
            Topology::Bus => pf * (cost.t_startup + cost.t_word * w),
        }
    }

    /// Time for a reduction (e.g. the merge phase of `DOT_PRODUCT`) of
    /// `words` elements to a single root, including the per-element
    /// combine flops.
    ///
    /// On the hypercube this is the paper's `t_startup * log N_P` merge
    /// term (plus bandwidth/compute terms that vanish for scalar dots).
    pub fn reduce_time(&self, p: usize, words: usize, cost: &CostModel) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let w = words as f64;
        let per_round = cost.t_startup + cost.t_word * w + cost.t_flop * w;
        match self {
            Topology::Hypercube | Topology::FullyConnected => Self::log2_ceil(p) as f64 * per_round,
            Topology::Mesh2D => self.diameter(p) as f64 * per_round,
            Topology::Ring => (p as f64 - 1.0) * per_round,
            Topology::Bus => (p as f64 - 1.0) * per_round,
        }
    }

    /// Time for an allreduce = reduce + broadcast (or butterfly on the
    /// hypercube, same asymptotic cost).
    pub fn allreduce_time(&self, p: usize, words: usize, cost: &CostModel) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        match self {
            // Butterfly allreduce: log P rounds, each exchanging + adding.
            Topology::Hypercube | Topology::FullyConnected => self.reduce_time(p, words, cost),
            _ => self.reduce_time(p, words, cost) + self.broadcast_time(p, words, cost),
        }
    }

    /// Time for a reduce-scatter: every processor contributes a vector of
    /// `p * words_each` elements; each ends with its own `words_each`
    /// block of the element-wise sum. The dual of the allgather — on the
    /// hypercube, recursive *halving*: `log P` start-ups, `(P-1)/P` of
    /// the vector transferred, plus the combine flops.
    pub fn reduce_scatter_time(&self, p: usize, words_each: usize, cost: &CostModel) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let w = words_each as f64;
        let pf = p as f64;
        let moved = (pf - 1.0) * w;
        match self {
            Topology::Hypercube | Topology::FullyConnected => {
                let rounds = Self::log2_ceil(p) as f64;
                rounds * cost.t_startup + (cost.t_word + cost.t_flop) * moved
            }
            Topology::Mesh2D => {
                let side = pf.sqrt().ceil();
                2.0 * (side - 1.0) * cost.t_startup + (cost.t_word + cost.t_flop) * moved
            }
            Topology::Ring => (pf - 1.0) * (cost.t_startup + (cost.t_word + cost.t_flop) * w),
            Topology::Bus => pf * (cost.t_startup + (cost.t_word + cost.t_flop) * w),
        }
    }

    /// Time for a personalised all-to-all (each processor sends a distinct
    /// `words_each` block to every other). Used by redistribution.
    pub fn alltoall_time(&self, p: usize, words_each: usize, cost: &CostModel) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let w = words_each as f64;
        let pf = p as f64;
        match self {
            Topology::Hypercube => {
                // Hypercube personalised exchange: log P rounds, each
                // moving p/2 * w words.
                let rounds = Self::log2_ceil(p) as f64;
                rounds * (cost.t_startup + cost.t_word * w * pf / 2.0)
            }
            Topology::FullyConnected => (pf - 1.0) * (cost.t_startup + cost.t_word * w),
            Topology::Mesh2D => {
                let side = pf.sqrt().ceil();
                2.0 * (side - 1.0) * cost.t_startup + cost.t_word * w * pf * side / 2.0
            }
            Topology::Ring => (pf - 1.0) * (cost.t_startup + cost.t_word * w * pf / 2.0),
            Topology::Bus => pf * (pf - 1.0) * (cost.t_startup + cost.t_word * w),
        }
    }

    /// Time to gather `total_words` elements, all blocks counted, from
    /// `p` processors to one root, or to scatter them from it: a
    /// binomial tree on every network — `log P` start-ups, bandwidth for
    /// the whole volume through the root's link.
    pub fn gather_time(&self, p: usize, total_words: usize, cost: &CostModel) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        Self::log2_ceil(p) as f64 * cost.t_startup + cost.t_word * total_words as f64
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Hypercube => "hypercube",
            Topology::Mesh2D => "mesh2d",
            Topology::Ring => "ring",
            Topology::FullyConnected => "fully-connected",
            Topology::Bus => "bus",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(Topology::log2_ceil(1), 0);
        assert_eq!(Topology::log2_ceil(2), 1);
        assert_eq!(Topology::log2_ceil(3), 2);
        assert_eq!(Topology::log2_ceil(4), 2);
        assert_eq!(Topology::log2_ceil(5), 3);
        assert_eq!(Topology::log2_ceil(8), 3);
        assert_eq!(Topology::log2_ceil(9), 4);
    }

    #[test]
    fn hypercube_hops_is_hamming_distance() {
        let t = Topology::Hypercube;
        assert_eq!(t.hops(0, 7, 8), 3);
        assert_eq!(t.hops(5, 5, 8), 0);
        assert_eq!(t.hops(0b101, 0b110, 8), 2);
    }

    #[test]
    fn mesh_hops_is_manhattan() {
        let t = Topology::Mesh2D;
        // 16 procs, side 4. 0=(0,0), 15=(3,3).
        assert_eq!(t.hops(0, 15, 16), 6);
        assert_eq!(t.hops(0, 3, 16), 3);
        assert_eq!(t.hops(0, 4, 16), 1);
    }

    #[test]
    fn ring_is_unidirectional() {
        let t = Topology::Ring;
        assert_eq!(t.hops(0, 1, 8), 1);
        assert_eq!(t.hops(1, 0, 8), 7);
    }

    #[test]
    fn broadcast_on_hypercube_is_logarithmic_in_startups() {
        let c = CostModel {
            t_startup: 1.0,
            t_word: 0.0,
            t_flop: 0.0,
        };
        let t = Topology::Hypercube;
        assert_eq!(t.broadcast_time(8, 100, &c), 3.0);
        assert_eq!(t.broadcast_time(16, 100, &c), 4.0);
        assert_eq!(t.broadcast_time(1, 100, &c), 0.0);
    }

    #[test]
    fn allgather_matches_paper_formula_on_hypercube() {
        // Paper: t_startup * log NP + t_comm * n/NP ... with the
        // bandwidth term actually telescoping to (NP-1) * n/NP ~ n.
        let c = CostModel {
            t_startup: 2.0,
            t_word: 0.5,
            t_flop: 0.0,
        };
        let p = 8;
        let each = 100;
        let t = Topology::Hypercube.allgather_time(p, each, &c);
        let expect = 3.0 * 2.0 + 0.5 * (7 * 100) as f64;
        assert!((t - expect).abs() < 1e-12);
    }

    #[test]
    fn reduce_merge_term_matches_paper_on_hypercube() {
        // Scalar dot-product merge: t_startup * log NP dominates.
        let c = CostModel {
            t_startup: 1.0,
            t_word: 0.0,
            t_flop: 0.0,
        };
        assert_eq!(Topology::Hypercube.reduce_time(32, 1, &c), 5.0);
    }

    #[test]
    fn ring_collectives_are_linear_in_p() {
        let c = CostModel {
            t_startup: 1.0,
            t_word: 0.0,
            t_flop: 0.0,
        };
        assert_eq!(Topology::Ring.broadcast_time(8, 1, &c), 7.0);
        assert_eq!(Topology::Ring.broadcast_time(16, 1, &c), 15.0);
    }

    #[test]
    fn single_processor_is_free() {
        let c = CostModel::mpp_1995();
        for t in [
            Topology::Hypercube,
            Topology::Mesh2D,
            Topology::Ring,
            Topology::FullyConnected,
            Topology::Bus,
        ] {
            assert_eq!(t.broadcast_time(1, 1000, &c), 0.0);
            assert_eq!(t.allgather_time(1, 1000, &c), 0.0);
            assert_eq!(t.reduce_time(1, 1000, &c), 0.0);
            assert_eq!(t.allreduce_time(1, 1000, &c), 0.0);
            assert_eq!(t.alltoall_time(1, 1000, &c), 0.0);
        }
    }

    #[test]
    fn hypercube_beats_ring_for_large_p() {
        let c = CostModel::mpp_1995();
        let hc = Topology::Hypercube.allreduce_time(64, 1, &c);
        let ring = Topology::Ring.allreduce_time(64, 1, &c);
        assert!(hc < ring);
    }

    #[test]
    fn diameters() {
        assert_eq!(Topology::Hypercube.diameter(8), 3);
        assert_eq!(Topology::Ring.diameter(8), 7);
        assert_eq!(Topology::Mesh2D.diameter(16), 6);
        assert_eq!(Topology::FullyConnected.diameter(8), 1);
        assert_eq!(Topology::FullyConnected.diameter(1), 0);
    }
}
