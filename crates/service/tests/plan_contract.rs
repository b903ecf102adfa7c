//! What `SolvePlan::build_with` answers for the structures the
//! wall-clock benchmark sends, pinned as literals: the first member of
//! each of its three pool families under that family's partitioner, and
//! one of its never-seen `random_spd(384, 5, ·)` structures under
//! `nnz-bisect`, all at the benchmark's `NP = 8`. `row_cuts` decides the
//! operator a request runs on, `loads` / `imbalance` /
//! `redistribution_words` are what the plan reports. Recorded on
//! `e5be232`; making the build cheaper may not edit them.

use hpf_machine::Topology;
use hpf_service::SolvePlan;
use hpf_sparse::{gen, CsrMatrix};

const NP: usize = 8;

struct Pinned {
    row_cuts: [usize; NP + 1],
    loads: [usize; NP],
    imbalance_bits: u64,
    redistribution_words: usize,
}

fn check(name: &str, a: &CsrMatrix, partitioner: &str, want: Pinned) {
    let partitioner = hpf_partition::by_name(partitioner).expect("registered partitioner");
    let plan = SolvePlan::build_with(a, NP, Topology::Hypercube, partitioner.as_ref());
    let recomputed = format!(
        "Pinned {{\n    row_cuts: {:?},\n    loads: {:?},\n    imbalance_bits: 0x{:016x},\n    redistribution_words: {},\n}}",
        plan.row_cuts,
        plan.loads,
        plan.imbalance.to_bits(),
        plan.redistribution_words
    );
    assert!(
        plan.row_cuts == want.row_cuts
            && plan.loads == want.loads
            && plan.imbalance.to_bits() == want.imbalance_bits
            && plan.redistribution_words == want.redistribution_words,
        "{name}: the plan changed; recomputed:\n{recomputed}"
    );
    assert_eq!(plan.partitioner, partitioner.name(), "{name}");
    assert_eq!(plan.np, NP, "{name}");
    assert_eq!(plan.loads.iter().sum::<usize>(), a.nnz(), "{name}");
}

#[test]
fn banded_pool_member_under_balanced_rows() {
    check(
        "banded_spd(512, 3, 17)",
        &gen::banded_spd(512, 3, 17),
        "balanced-rows",
        Pinned {
            row_cuts: [0, 64, 128, 192, 256, 320, 384, 448, 512],
            loads: [442, 448, 448, 448, 448, 448, 448, 442],
            imbalance_bits: 0x3ff0_0dc2_a6d8_26fd,
            redistribution_words: 0,
        },
    );
}

#[test]
fn poisson_pool_member_under_balanced_rows() {
    check(
        "poisson_2d(20, 20)",
        &gen::poisson_2d(20, 20),
        "balanced-rows",
        Pinned {
            row_cuts: [0, 53, 102, 151, 200, 249, 298, 347, 400],
            loads: [240, 239, 241, 240, 240, 241, 239, 240],
            imbalance_bits: 0x3ff0_1111_1111_1111,
            redistribution_words: 128,
        },
    );
}

#[test]
fn power_law_pool_member_under_greedy_hypergraph() {
    check(
        "power_law_spd(400, 10, 0.9, 17)",
        &gen::power_law_spd(400, 10, 0.9, 17),
        "greedy-hypergraph",
        Pinned {
            row_cuts: [0, 47, 105, 156, 207, 256, 299, 349, 400],
            loads: [161, 159, 159, 157, 160, 146, 158, 150],
            imbalance_bits: 0x3ff0_7c84_b5dc_c63f,
            redistribution_words: 211,
        },
    );
}

#[test]
fn never_seen_structure_under_nnz_bisect() {
    check(
        "random_spd(384, 5, 17)",
        &gen::random_spd(384, 5, 17),
        "nnz-bisect",
        Pinned {
            row_cuts: [0, 47, 94, 142, 191, 239, 289, 337, 384],
            loads: [527, 515, 519, 525, 516, 524, 515, 519],
            imbalance_bits: 0x3ff0_3723_7237_2372,
            redistribution_words: 217,
        },
    );
}
