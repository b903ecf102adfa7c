//! Load-balancing sparse partitioners — the paper's
//! `REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1` extension.
//!
//! "It is possible to specify a load-balancing heuristic that is applied
//! to the A, row and col arrays to cluster the rows in a way that can be
//! distributed among the processors in an almost even-load fashion."
//! (Section 5.2.2)
//!
//! Two free-function partitioners are provided here:
//!
//! * [`balanced_contiguous`] — keeps atoms (columns/rows) in order and
//!   chooses cut points minimising the bottleneck load (exact, via binary
//!   search over the bottleneck + greedy feasibility check). Contiguity
//!   preserves the cheap `O(NP)` cut-points representation.
//! * [`greedy_lpt`] — Longest-Processing-Time bin packing; atoms may be
//!   scattered, achieving tighter balance at the price of a full
//!   atom→processor map (and lost locality).
//!
//! The [`Partitioner`] trait is the pluggable `USING <name>` hook: any
//! heuristic that maps `(AtomSpec, ConnectivityGraph, NP)` to an
//! [`AtomAssignment`] can sit behind `REDISTRIBUTE ... USING <name>`.
//! Communication-aware implementations (hypergraph-inspired, spectral)
//! live in the `hpf-partition` crate; this crate defines the contract so
//! `redistribute` can accept a `&dyn Partitioner` without a dependency
//! cycle.

use crate::atoms::{AtomAssignment, AtomSpec};
use crate::graph::{comm_volume, ConnectivityGraph};
use std::fmt;

/// Typed failure of a partitioning request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// `np == 0`: there is no processor to own anything.
    ZeroProcessors,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ZeroProcessors => {
                write!(f, "cannot partition onto zero processors")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// A pluggable sparse partitioner — the heuristic named by the paper's
/// proposed `REDISTRIBUTE smA USING <name>` directive.
///
/// Implementations receive the atom boundaries (row/column weights), the
/// sparsity connectivity graph over atoms, and the processor count, and
/// must return a total assignment of atoms to processors. The assignment
/// need not be contiguous; scattered layouts cost a full owner map (see
/// [`AtomAssignment::element_cuts`]) but can cut communication volume.
pub trait Partitioner {
    /// Stable lowercase identifier. It becomes the `<name>` in
    /// `REDISTRIBUTE ... USING <name>` trace labels and is part of the
    /// solver-service plan-cache key, so it must be unique per heuristic.
    fn name(&self) -> &'static str;

    /// Assign every atom to a processor `< np`. Implementations may
    /// panic on `np == 0` (the typed-error path is the free functions);
    /// callers reaching this from user input should validate first.
    fn partition(&self, spec: &AtomSpec, graph: &ConnectivityGraph, np: usize) -> AtomAssignment;

    /// Modeled communication volume (words per sparse matvec) of the
    /// layout this partitioner produces — the column-net connectivity
    /// metric `Σ_j (λ_j − 1)` priced later by `hpf-machine::predict`.
    fn modeled_comm_volume(&self, spec: &AtomSpec, graph: &ConnectivityGraph, np: usize) -> usize {
        comm_volume(graph, &self.partition(spec, graph, np))
    }
}

/// Per-processor loads for an owner assignment and weights.
pub fn loads(weights: &[usize], owners: &[usize], np: usize) -> Vec<usize> {
    assert_eq!(weights.len(), owners.len());
    let mut l = vec![0usize; np];
    for (&w, &p) in weights.iter().zip(owners.iter()) {
        l[p] += w;
    }
    l
}

/// [`hpf_machine::imbalance`] of a load vector (1.0 = perfect balance).
///
/// Degenerate inputs are defined, not errors: an empty or all-zero load
/// vector has nothing out of balance, so it reads 0.0 (there is no
/// overloaded processor to speak of, and callers gating on
/// `imbalance > threshold` must not fire on idle machines).
pub fn imbalance(loads: &[usize]) -> f64 {
    hpf_machine::imbalance(loads.iter().map(|&l| l as f64)).unwrap_or(0.0)
}

/// Can `weights` be split into `np` contiguous groups, each of total
/// weight at most `cap`?
fn feasible(weights: &[usize], np: usize, cap: usize) -> bool {
    if weights.iter().any(|&w| w > cap) {
        return false;
    }
    let mut groups = 1usize;
    let mut cur = 0usize;
    for &w in weights {
        if cur + w > cap {
            groups += 1;
            cur = w;
            if groups > np {
                return false;
            }
        } else {
            cur += w;
        }
    }
    true
}

/// Contiguous bottleneck-minimising partition of `weights` into `np`
/// ordered groups. Returns atom cut points of length `np + 1`
/// (`cuts[p]..cuts[p+1]` = atoms of processor `p`). This is
/// `CG_BALANCED_PARTITIONER_1`.
pub fn balanced_contiguous(weights: &[usize], np: usize) -> Result<Vec<usize>, PartitionError> {
    if np == 0 {
        return Err(PartitionError::ZeroProcessors);
    }
    let n = weights.len();
    if n == 0 {
        return Ok(vec![0; np + 1]);
    }
    // Binary search the minimal feasible bottleneck.
    let mut lo = *weights.iter().max().unwrap();
    let mut hi = weights.iter().sum::<usize>();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(weights, np, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let cap = lo;
    // Greedy assignment with that bottleneck, leaving later groups room.
    let mut cuts = Vec::with_capacity(np + 1);
    cuts.push(0usize);
    let mut cur = 0usize;
    let mut i = 0usize;
    for _ in 0..np - 1 {
        while i < n && cur + weights[i] <= cap {
            cur += weights[i];
            i += 1;
        }
        cuts.push(i);
        cur = 0;
    }
    cuts.push(n);
    Ok(cuts)
}

/// Turn atom cut points into an [`AtomAssignment`].
pub fn assignment_from_cuts(cuts: &[usize], n_atoms: usize) -> AtomAssignment {
    let np = cuts.len() - 1;
    let mut owner = vec![0usize; n_atoms];
    for p in 0..np {
        for a in cuts[p]..cuts[p + 1] {
            owner[a] = p;
        }
    }
    AtomAssignment::from_owners(owner, np)
}

/// Longest-Processing-Time greedy bin packing: sort atoms by weight
/// descending, place each on the least-loaded processor. Returns the
/// owner of each atom. 4/3-approximation of the optimal makespan.
pub fn greedy_lpt(weights: &[usize], np: usize) -> Result<Vec<usize>, PartitionError> {
    if np == 0 {
        return Err(PartitionError::ZeroProcessors);
    }
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    let mut load = vec![0usize; np];
    let mut owner = vec![0usize; weights.len()];
    for i in order {
        let p = (0..np).min_by_key(|&p| load[p]).unwrap();
        owner[i] = p;
        load[p] += weights[i];
    }
    Ok(owner)
}

/// Project an arbitrary (possibly scattered) atom assignment onto the
/// contiguous cut-point form the cheap `O(NP)` descriptors and the
/// rowwise distributed operator require. Returns *atom* cut points of
/// length `np + 1` (`cuts[p]..cuts[p+1]` = atoms of processor `p`); with
/// atoms = matrix rows these feed `RowwiseCsr::with_row_cuts` directly.
///
/// A contiguous assignment round-trips exactly. A scattered one keeps the
/// *load profile* of the original: target per-processor element loads are
/// taken from the assignment, processors are ordered by the mean index of
/// the atoms they own (so the cut order follows the partitioner's
/// geometry), and atoms are then dealt out in order to match the targets.
pub fn contiguous_projection(spec: &AtomSpec, asg: &AtomAssignment) -> Vec<usize> {
    assert_eq!(spec.n_atoms(), asg.n_atoms(), "spec/assignment mismatch");
    if let Some(cuts) = asg.atom_cuts() {
        return cuts;
    }
    let np = asg.np;
    let n = spec.n_atoms();
    // Order processors by the mean atom index they own.
    let mut centroid: Vec<(f64, usize)> = (0..np).map(|p| (f64::MAX, p)).collect();
    let mut sum = vec![0usize; np];
    let mut cnt = vec![0usize; np];
    for (a, &p) in asg.atom_owner.iter().enumerate() {
        sum[p] += a;
        cnt[p] += 1;
    }
    for p in 0..np {
        if cnt[p] > 0 {
            centroid[p].0 = sum[p] as f64 / cnt[p] as f64;
        }
    }
    centroid.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let loads = asg.loads(spec);
    let targets: Vec<usize> = centroid.iter().map(|&(_, p)| loads[p]).collect();

    let mut cuts = Vec::with_capacity(np + 1);
    cuts.push(0usize);
    let mut atom = 0usize;
    for (g, &target) in targets.iter().enumerate().take(np - 1) {
        let remaining_groups = np - 1 - g;
        let mut acc = 0usize;
        // Fill to the target but always leave one atom per later group
        // when enough atoms exist.
        while atom < n && acc < target && n - atom > remaining_groups {
            acc += spec.atom_size(atom);
            atom += 1;
        }
        cuts.push(atom);
    }
    cuts.push(n);
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_contiguous_uniform_weights() {
        let w = vec![1usize; 12];
        let cuts = balanced_contiguous(&w, 4).unwrap();
        assert_eq!(cuts, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn balanced_contiguous_skewed_weights() {
        // One huge atom: it must sit alone; the rest spread out.
        let w = vec![100, 1, 1, 1, 1, 1, 1];
        let cuts = balanced_contiguous(&w, 3).unwrap();
        let asg = assignment_from_cuts(&cuts, w.len());
        let l = loads(&w, &asg.atom_owner, 3);
        assert_eq!(*l.iter().max().unwrap(), 100);
        // All atoms covered exactly once.
        assert_eq!(l.iter().sum::<usize>(), 106);
    }

    #[test]
    fn balanced_contiguous_is_optimal_bottleneck() {
        let w = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let cuts = balanced_contiguous(&w, 3).unwrap();
        let asg = assignment_from_cuts(&cuts, w.len());
        let l = loads(&w, &asg.atom_owner, 3);
        let bottleneck = *l.iter().max().unwrap();
        // Exhaustive check: no contiguous 3-partition beats it.
        let n = w.len();
        let mut best = usize::MAX;
        for c1 in 0..=n {
            for c2 in c1..=n {
                let s1: usize = w[..c1].iter().sum();
                let s2: usize = w[c1..c2].iter().sum();
                let s3: usize = w[c2..].iter().sum();
                best = best.min(s1.max(s2).max(s3));
            }
        }
        assert_eq!(bottleneck, best);
    }

    #[test]
    fn feasible_respects_cap() {
        assert!(feasible(&[2, 2, 2], 3, 2));
        assert!(!feasible(&[3, 2, 2], 3, 2));
        assert!(feasible(&[1, 1, 1, 1], 2, 2));
        assert!(!feasible(&[1, 1, 1, 1], 2, 1));
    }

    #[test]
    fn greedy_lpt_balances_better_than_block() {
        // Power-law-ish weights.
        let w: Vec<usize> = (1..=32).map(|i| 256 / i).collect();
        let np = 4;
        let lpt_owner = greedy_lpt(&w, np).unwrap();
        let lpt_imb = imbalance(&loads(&w, &lpt_owner, np));
        // Plain contiguous equal-count blocks.
        let bs = w.len().div_ceil(np);
        let block_owner: Vec<usize> = (0..w.len()).map(|i| (i / bs).min(np - 1)).collect();
        let block_imb = imbalance(&loads(&w, &block_owner, np));
        assert!(
            lpt_imb < block_imb,
            "LPT {lpt_imb} should beat BLOCK {block_imb}"
        );
        assert!(lpt_imb < 1.4);
    }

    #[test]
    fn lpt_covers_every_atom_once() {
        let w = vec![5, 3, 8, 1, 9, 2];
        let owner = greedy_lpt(&w, 3).unwrap();
        assert_eq!(owner.len(), 6);
        assert!(owner.iter().all(|&p| p < 3));
        let l = loads(&w, &owner, 3);
        assert_eq!(l.iter().sum::<usize>(), 28);
    }

    #[test]
    fn cg_partitioner_over_atoms() {
        let spec = AtomSpec::from_pointer_array(&[0, 10, 11, 12, 22, 23, 24]);
        let cuts = balanced_contiguous(&spec.weights(), 3).unwrap();
        let asg = assignment_from_cuts(&cuts, spec.n_atoms());
        assert!(asg.is_contiguous());
        let imb = asg.imbalance(&spec);
        // Atom-count BLOCK would pair the two heavy atoms badly; the
        // balanced partitioner keeps bottleneck minimal (12 of 24 total).
        assert!(imb <= 1.51, "imbalance {imb}");
    }

    #[test]
    fn empty_weights() {
        let cuts = balanced_contiguous(&[], 3).unwrap();
        assert_eq!(cuts, vec![0, 0, 0, 0]);
    }

    #[test]
    fn imbalance_of_degenerate_loads_is_zero() {
        // Empty and all-zero load vectors are perfectly idle, not
        // "imbalanced": the auto-repartitioner gates on this value.
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0, 0]), 0.0);
        assert_eq!(imbalance(&[0]), 0.0);
        // Normal case unchanged.
        assert!((imbalance(&[2, 2]) - 1.0).abs() < 1e-12);
        assert!((imbalance(&[3, 1]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_processors_is_a_typed_error() {
        assert_eq!(
            balanced_contiguous(&[1, 2, 3], 0),
            Err(PartitionError::ZeroProcessors)
        );
        assert_eq!(
            greedy_lpt(&[1, 2, 3], 0),
            Err(PartitionError::ZeroProcessors)
        );
        let msg = PartitionError::ZeroProcessors.to_string();
        assert!(msg.contains("zero processors"));
    }

    #[test]
    fn single_processor_takes_all() {
        let w = vec![4, 5, 6];
        let cuts = balanced_contiguous(&w, 1).unwrap();
        assert_eq!(cuts, vec![0, 3]);
        let owner = greedy_lpt(&w, 1).unwrap();
        assert!(owner.iter().all(|&p| p == 0));
    }

    #[test]
    fn contiguous_projection_roundtrips_contiguous() {
        let spec = AtomSpec::from_pointer_array(&[0, 4, 8, 9, 11, 13, 15]);
        let asg = AtomAssignment::atom_block(&spec, 3);
        // atom_block over 6 atoms, 3 procs: 2 atoms each.
        assert_eq!(contiguous_projection(&spec, &asg), vec![0, 2, 4, 6]);
    }

    #[test]
    fn contiguous_projection_of_scattered_keeps_profile() {
        let spec = AtomSpec::uniform(8, 2);
        // Cyclic over 2 procs: each owns 8 elements (4 atoms).
        let asg = AtomAssignment::atom_cyclic(&spec, 2);
        let cuts = contiguous_projection(&spec, &asg);
        // Balanced halves: the projection preserves the 8/8 load split.
        assert_eq!(cuts, vec![0, 4, 8]);
        let projected = assignment_from_cuts(&cuts, 8);
        assert_eq!(projected.loads(&spec), asg.loads(&spec));
    }
}
