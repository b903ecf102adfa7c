//! `REDISTRIBUTE` — data movement between two layouts.
//!
//! "The REDISTRIBUTE directive indicates that the data is available for
//! use in the partitioning of the data arrays. The user is responsible
//! for putting the REDISTRIBUTE directive in the proper place to improve
//! the performance." (Section 5.2.1)
//!
//! Given the old and new [`ArrayDescriptor`]s, or for `REDISTRIBUTE ...
//! USING <partitioner>` the old and new [`AtomAssignment`]s, this module
//! computes the exact processor-to-processor traffic matrix and charges it
//! to the simulated [`Machine`] as an irregular exchange.

use crate::atoms::{AtomAssignment, AtomSpec};
use crate::descriptor::ArrayDescriptor;
use hpf_machine::Machine;

/// Words each processor must send to each other processor to move an
/// array from `from` to `to` layout. `matrix[s][d]` = elements owned by
/// `s` under `from` that `d` owns under `to`.
pub fn traffic_matrix(from: &ArrayDescriptor, to: &ArrayDescriptor) -> Vec<Vec<usize>> {
    assert_eq!(from.len(), to.len(), "redistribute length mismatch");
    assert_eq!(from.np(), to.np(), "redistribute processor-count mismatch");
    let np = from.np();
    let mut m = vec![vec![0usize; np]; np];
    for i in 0..from.len() {
        let s = from.owner(i);
        let d = to.owner(i);
        if s != d {
            m[s][d] += 1;
        }
    }
    m
}

/// Execute the redistribution on the simulated machine (charging the
/// modeled exchange cost) and return the simulated time.
pub fn redistribute(
    machine: &mut Machine,
    from: &ArrayDescriptor,
    to: &ArrayDescriptor,
    label: &str,
) -> f64 {
    assert_eq!(machine.np(), from.np(), "machine size mismatch");
    let m = traffic_matrix(from, to);
    machine.exchange(&m, label)
}

/// `REDISTRIBUTE ... USING <partitioner>` — charge the machine one
/// exchange for moving every atom whose owner differs between `from` and
/// `to`, and return the words moved. Each moved atom carries
/// `atom_size * words_per_element` words (e.g. 2 for a CSC/CSR trio's
/// `idx` + `values` arrays) plus `words_per_atom` fixed words (pointer
/// entry, per-row vector elements). The trace event is labeled
/// `REDISTRIBUTE USING <partitioner>` so observability tooling can
/// attribute solve segments to the partitioner that laid them out.
///
/// Traffic is computed at atom granularity, so scattered layouts on
/// either side need no contiguous descriptor.
pub fn redistribute_atoms(
    machine: &mut Machine,
    spec: &AtomSpec,
    from: &AtomAssignment,
    to: &AtomAssignment,
    partitioner: &str,
    words_per_element: usize,
    words_per_atom: usize,
) -> usize {
    assert_eq!(machine.np(), from.np, "machine size mismatch");
    let m = atom_traffic_matrix(spec, from, to, words_per_element, words_per_atom);
    machine.exchange(&m, &format!("REDISTRIBUTE USING {partitioner}"));
    m.iter().flatten().sum()
}

/// The traffic [`redistribute_atoms`] charges: `matrix[s][d]` = words of
/// the atoms `s` owns under `from` that `d` owns under `to`.
fn atom_traffic_matrix(
    spec: &AtomSpec,
    from: &AtomAssignment,
    to: &AtomAssignment,
    words_per_element: usize,
    words_per_atom: usize,
) -> Vec<Vec<usize>> {
    assert_eq!(from.n_atoms(), to.n_atoms(), "atom-count mismatch");
    assert_eq!(spec.n_atoms(), from.n_atoms(), "spec/assignment mismatch");
    assert_eq!(from.np, to.np, "processor-count mismatch");
    let np = from.np;
    let mut m = vec![vec![0usize; np]; np];
    for a in 0..spec.n_atoms() {
        let s = from.atom_owner[a];
        let d = to.atom_owner[a];
        if s != d {
            m[s][d] += spec.atom_size(a) * words_per_element + words_per_atom;
        }
    }
    m
}

/// Permute a globally-indexed data vector from one local layout to the
/// other: given per-processor local data under `from`, produce the
/// per-processor local data under `to`. (The simulator holds real data;
/// this performs the actual movement the traffic matrix models.)
pub fn permute_local_data(
    from: &ArrayDescriptor,
    to: &ArrayDescriptor,
    local: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    assert_eq!(from.np(), local.len());
    let np = from.np();
    let mut out: Vec<Vec<f64>> = (0..np).map(|p| vec![0.0; to.local_len(p)]).collect();
    for p in 0..np {
        for (off, &g) in from.global_indices(p).iter().enumerate() {
            let d = to.owner(g);
            out[d][to.local_offset(g)] = local[p][off];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DistSpec;
    use hpf_machine::{CostModel, Topology};

    fn total_words(from: &ArrayDescriptor, to: &ArrayDescriptor) -> usize {
        traffic_matrix(from, to).iter().flatten().sum()
    }

    #[test]
    fn block_to_same_block_is_free() {
        let d = ArrayDescriptor::block(16, 4);
        assert_eq!(total_words(&d, &d), 0);
    }

    #[test]
    fn block_to_cyclic_moves_most_elements() {
        let from = ArrayDescriptor::block(16, 4);
        let to = ArrayDescriptor::cyclic(16, 4);
        // Under block, p owns 4 consecutive; under cyclic only 1 of each 4
        // stays home.
        assert_eq!(total_words(&from, &to), 12);
    }

    #[test]
    fn traffic_matrix_rows_match_ownership() {
        let from = ArrayDescriptor::block(8, 2);
        let to = ArrayDescriptor::cyclic(8, 2);
        let m = traffic_matrix(&from, &to);
        // p0 owns 0..4 under block; odd ones (1,3) go to p1.
        assert_eq!(m[0][1], 2);
        assert_eq!(m[1][0], 2);
        assert_eq!(m[0][0], 0);
    }

    #[test]
    fn machine_charged_for_exchange() {
        let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        let from = ArrayDescriptor::block(64, 4);
        let to = ArrayDescriptor::cyclic(64, 4);
        let t = redistribute(&mut m, &from, &to, "block->cyclic");
        assert!(t > 0.0);
        assert!(m.total_words_sent() > 0);
        assert_eq!(m.trace().count(hpf_machine::EventKind::Redistribute), 1);
    }

    #[test]
    fn permute_moves_values_correctly() {
        let from = ArrayDescriptor::block(6, 2);
        let to = ArrayDescriptor::cyclic(6, 2);
        // Global data 10,11,12,13,14,15 laid out under `from`.
        let local = vec![vec![10.0, 11.0, 12.0], vec![13.0, 14.0, 15.0]];
        let out = permute_local_data(&from, &to, &local);
        // Cyclic: p0 owns 0,2,4 -> 10,12,14; p1 owns 1,3,5 -> 11,13,15.
        assert_eq!(out[0], vec![10.0, 12.0, 14.0]);
        assert_eq!(out[1], vec![11.0, 13.0, 15.0]);
    }

    #[test]
    fn permute_roundtrip_restores() {
        let a = ArrayDescriptor::block(10, 3);
        let b = ArrayDescriptor::new(10, 3, DistSpec::IrregularCuts(vec![0, 1, 9, 10]));
        let local: Vec<Vec<f64>> = (0..3)
            .map(|p| {
                a.global_indices(p)
                    .iter()
                    .map(|&g| g as f64 * 2.0)
                    .collect()
            })
            .collect();
        let moved = permute_local_data(&a, &b, &local);
        let back = permute_local_data(&b, &a, &moved);
        assert_eq!(back, local);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let a = ArrayDescriptor::block(10, 2);
        let b = ArrayDescriptor::block(12, 2);
        traffic_matrix(&a, &b);
    }

    #[test]
    fn atom_traffic_counts_moved_atoms_only() {
        let spec = AtomSpec::from_pointer_array(&[0, 4, 8, 9, 11]);
        let from = AtomAssignment::from_owners(vec![0, 0, 1, 1], 2);
        let to = AtomAssignment::from_owners(vec![0, 1, 1, 0], 2);
        // Atom 1 (4 elems) moves 0->1; atom 3 (2 elems) moves 1->0.
        let m = atom_traffic_matrix(&spec, &from, &to, 2, 1);
        assert_eq!(m[0][1], 4 * 2 + 1);
        assert_eq!(m[1][0], 2 * 2 + 1);
        assert_eq!(m[0][0] + m[1][1], 0);
        // Identity move is free.
        let stay = atom_traffic_matrix(&spec, &from, &from, 2, 1);
        assert!(stay.iter().flatten().all(|&w| w == 0));
    }

    #[test]
    fn redistribute_using_charges_machine_with_named_label() {
        let mut machine = Machine::new(2, Topology::Hypercube, CostModel::mpp_1995());
        let spec = AtomSpec::uniform(8, 3);
        let from = AtomAssignment::atom_block(&spec, 2);
        let to = AtomAssignment::atom_cyclic(&spec, 2);
        let words = redistribute_atoms(&mut machine, &spec, &from, &to, "to-cyclic", 1, 0);
        // Atoms 1, 3 move 0 -> 1 and atoms 4, 6 move 1 -> 0, 3 words each.
        assert_eq!(words, 12);
        assert_eq!(machine.total_words_sent(), 12);
        let trace = machine.trace();
        assert_eq!(trace.count(hpf_machine::EventKind::Redistribute), 1);
        let ev = &trace.events()[0];
        assert_eq!(ev.label, "REDISTRIBUTE USING to-cyclic");
    }
}
