//! Property tests on the distribution layer: descriptors partition the
//! index space exactly, atom assignments never split atoms, and the
//! balanced partitioner dominates naive layouts.

use hpf_dist::atoms::{AtomAssignment, AtomSpec};
use hpf_dist::partition;
use hpf_dist::redistribute;
use hpf_dist::{ArrayDescriptor, DistSpec};
use proptest::prelude::*;

fn arb_spec(n: usize, np: usize) -> impl Strategy<Value = DistSpec> {
    let max_k = n.max(1);
    prop_oneof![
        Just(DistSpec::Block),
        (n.div_ceil(np).max(1)..=max_k).prop_map(DistSpec::BlockK),
        Just(DistSpec::Cyclic),
        (1usize..=max_k).prop_map(DistSpec::CyclicK),
        proptest::collection::vec(0..=n, np - 1).prop_map(move |mut mids| {
            mids.sort_unstable();
            let mut cuts = vec![0usize];
            cuts.extend(mids);
            cuts.push(n);
            DistSpec::IrregularCuts(cuts)
        }),
    ]
}

proptest! {
    /// Every global index is owned by exactly one processor and appears
    /// exactly once in its owner's local index list at the right offset.
    #[test]
    fn descriptor_partitions_index_space(
        n in 1usize..200,
        np in 1usize..9,
        seed in any::<u64>(),
    ) {
        let spec = {
            // Pick a spec deterministically from the seed to avoid nested
            // strategies over dependent values.
            let np = np.max(1);
            match seed % 5 {
                0 => DistSpec::Block,
                1 => DistSpec::BlockK(n.div_ceil(np).max(1) + (seed as usize % 3)),
                2 => DistSpec::Cyclic,
                3 => DistSpec::CyclicK(1 + (seed as usize % 7)),
                _ => {
                    let mut cuts: Vec<usize> =
                        (0..np - 1).map(|i| (seed as usize + i * 31) % (n + 1)).collect();
                    cuts.sort_unstable();
                    let mut full = vec![0usize];
                    full.extend(cuts);
                    full.push(n);
                    DistSpec::IrregularCuts(full)
                }
            }
        };
        let d = ArrayDescriptor::new(n, np, spec);
        let mut seen = vec![0usize; n];
        for p in 0..np {
            prop_assert_eq!(d.global_indices(p).len(), d.local_len(p));
            for (off, &g) in d.global_indices(p).iter().enumerate() {
                prop_assert_eq!(d.owner(g), p);
                prop_assert_eq!(d.local_offset(g), off);
                seen[g] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "each index owned exactly once");
    }

    /// Atom-based assignments never split an atom: all elements of an
    /// atom have the same owner.
    #[test]
    fn atom_assignments_never_split(
        sizes in proptest::collection::vec(0usize..12, 1..40),
        np in 1usize..7,
        cyclic in any::<bool>(),
    ) {
        let mut ptr = vec![0usize];
        for s in &sizes {
            ptr.push(ptr.last().unwrap() + s);
        }
        let spec = AtomSpec::from_pointer_array(&ptr);
        let asg = if cyclic {
            AtomAssignment::atom_cyclic(&spec, np)
        } else {
            AtomAssignment::atom_block(&spec, np)
        };
        // Elements of atom i all map to atom_owner[i]: by construction,
        // so check the element-cut encoding round-trips when contiguous.
        if let Some(cuts) = asg.element_cuts(&spec) {
            prop_assert_eq!(cuts.len(), np + 1);
            prop_assert_eq!(spec.atoms_split_by(&cuts), 0);
            // Cut-based ownership matches atom ownership.
            let d = ArrayDescriptor::new(spec.total_elements(), np, DistSpec::IrregularCuts(cuts));
            for a in 0..spec.n_atoms() {
                for e in spec.atom_range(a) {
                    prop_assert_eq!(d.owner(e), asg.atom_owner[a]);
                }
            }
        }
        // Loads sum to total elements either way.
        prop_assert_eq!(asg.loads(&spec).iter().sum::<usize>(), spec.total_elements());
    }

    /// The balanced contiguous partitioner covers all atoms in order and
    /// its bottleneck is never worse than equal-atom-count BLOCK.
    #[test]
    fn balanced_partitioner_dominates_block(
        weights in proptest::collection::vec(0usize..50, 1..60),
        np in 1usize..8,
    ) {
        let cuts = partition::balanced_contiguous(&weights, np).unwrap();
        prop_assert_eq!(cuts.len(), np + 1);
        prop_assert_eq!(cuts[0], 0);
        prop_assert_eq!(*cuts.last().unwrap(), weights.len());
        prop_assert!(cuts.windows(2).all(|w| w[0] <= w[1]));

        let asg = partition::assignment_from_cuts(&cuts, weights.len());
        let bal = partition::loads(&weights, &asg.atom_owner, np);
        let bal_max = *bal.iter().max().unwrap();

        let bs = weights.len().div_ceil(np);
        let block_owner: Vec<usize> =
            (0..weights.len()).map(|i| (i / bs).min(np - 1)).collect();
        let blk = partition::loads(&weights, &block_owner, np);
        let blk_max = *blk.iter().max().unwrap();

        prop_assert!(bal_max <= blk_max, "balanced {bal_max} vs block {blk_max}");
        prop_assert_eq!(bal.iter().sum::<usize>(), weights.iter().sum::<usize>());
    }

    /// LPT never exceeds (4/3 - 1/3m) * OPT; we check the weaker but
    /// absolute bound: max load <= sum/np + max weight.
    #[test]
    fn lpt_bound(
        weights in proptest::collection::vec(1usize..100, 1..50),
        np in 1usize..8,
    ) {
        let owner = partition::greedy_lpt(&weights, np).unwrap();
        let l = partition::loads(&weights, &owner, np);
        let max = *l.iter().max().unwrap();
        let bound = weights.iter().sum::<usize>() / np + weights.iter().max().unwrap();
        prop_assert!(max <= bound, "LPT load {max} exceeds bound {bound}");
    }

    /// Redistribution conserves data: permuting local data between any
    /// two layouts and back restores it, and the traffic matrix counts
    /// exactly the elements that change owner.
    #[test]
    fn redistribution_conserves_data(
        n in 1usize..120,
        np in 1usize..6,
        seed in any::<u64>(),
    ) {
        let from = match seed % 3 {
            0 => ArrayDescriptor::block(n, np),
            1 => ArrayDescriptor::cyclic(n, np),
            _ => ArrayDescriptor::new(n, np, DistSpec::CyclicK(1 + (seed as usize % 5))),
        };
        let to = match (seed / 3) % 3 {
            0 => ArrayDescriptor::cyclic(n, np),
            1 => ArrayDescriptor::block(n, np),
            _ => ArrayDescriptor::new(n, np, DistSpec::CyclicK(2 + (seed as usize % 4))),
        };
        let local: Vec<Vec<f64>> = (0..np)
            .map(|p| from.global_indices(p).iter().map(|&g| g as f64 + 0.5).collect())
            .collect();
        let moved = redistribute::permute_local_data(&from, &to, &local);
        for p in 0..np {
            for (off, &g) in to.global_indices(p).iter().enumerate() {
                prop_assert_eq!(moved[p][off], g as f64 + 0.5);
            }
        }
        let back = redistribute::permute_local_data(&to, &from, &moved);
        prop_assert_eq!(back, local);

        let words: usize = redistribute::traffic_matrix(&from, &to).iter().flatten().sum();
        let changed = (0..n).filter(|&i| from.owner(i) != to.owner(i)).count();
        prop_assert_eq!(words, changed);
    }
}

#[test]
fn arb_spec_strategy_is_wired() {
    // Smoke-test the unused-in-proptest helper so it stays correct.
    use proptest::strategy::{Strategy, ValueTree};
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::default();
    let tree = arb_spec(10, 3).new_tree(&mut runner).unwrap();
    let spec = tree.current();
    let d = ArrayDescriptor::new(10, 3, spec);
    assert_eq!(d.local_lens().iter().sum::<usize>(), 10);
}
