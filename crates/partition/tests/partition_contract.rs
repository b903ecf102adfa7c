//! The owner list every registered partitioner produces, pinned as
//! digests: four partitioners on six generator families of `hpf-sparse`
//! at `NP` 2, 6 and 8. A partitioner reads its atoms' weights and the
//! connectivity graph over them and nothing else, so whatever changes
//! how that graph is stored or built must leave every `atom_owner` here
//! as it was. The constants were recorded on `e5be232`; a mismatch
//! prints the recomputed table.

use hpf_dist::atoms::AtomSpec;
use hpf_partition::{all_partitioners, connectivity_of};
use hpf_sparse::{gen, CsrMatrix};

const NPS: [usize; 3] = [2, 6, 8];

fn families() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("poisson_2d(12, 9)", gen::poisson_2d(12, 9)),
        ("poisson_3d(5, 4, 6)", gen::poisson_3d(5, 4, 6)),
        ("banded_spd(150, 4, 3)", gen::banded_spd(150, 4, 3)),
        ("random_spd(200, 5, 7)", gen::random_spd(200, 5, 7)),
        (
            "power_law_spd(180, 14, 0.9, 5)",
            gen::power_law_spd(180, 14, 0.9, 5),
        ),
        (
            "block_irregular_mesh([9, 2, 17, 5, 1, 12], 4)",
            gen::block_irregular_mesh(&[9, 2, 17, 5, 1, 12], 4),
        ),
    ]
}

/// FNV-1a, 64 bit, over the owners as little-endian words.
fn digest(owners: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in owners {
        for b in (p as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (family, a) in families() {
        let spec = AtomSpec::from_pointer_array(a.row_ptr());
        let graph = connectivity_of(&a);
        for partitioner in all_partitioners() {
            for np in NPS {
                let asg = partitioner.partition(&spec, &graph, np);
                assert_eq!(asg.n_atoms(), a.n_rows());
                out.push((
                    format!("{family} {} np={np}", partitioner.name()),
                    digest(&asg.atom_owner),
                ));
            }
        }
    }
    out
}

#[test]
fn every_partitioner_matches_its_recorded_owners() {
    let cases = cases();
    let got: Vec<u64> = cases.iter().map(|c| c.1).collect();
    if got != GOLDEN {
        let mut table = String::new();
        for (i, (name, d)) in cases.iter().enumerate() {
            let mark = match GOLDEN.get(i) {
                Some(g) if g == d => "",
                _ => "  // MISMATCH",
            };
            table.push_str(&format!("    0x{d:016x}, // {name}{mark}\n"));
        }
        panic!("a partitioner's output changed; recomputed digests:\n{table}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[u64] = &[
    0x6540e6615eb3e145, // poisson_2d(12, 9) balanced-rows np=2
    0x40ff6ce5a5795365, // poisson_2d(12, 9) balanced-rows np=6
    0x31bb475107a6c745, // poisson_2d(12, 9) balanced-rows np=8
    0x6540e6615eb3e145, // poisson_2d(12, 9) nnz-bisect np=2
    0x389a8f65fb7ddb42, // poisson_2d(12, 9) nnz-bisect np=6
    0x31bb475107a6c745, // poisson_2d(12, 9) nnz-bisect np=8
    0xe4e137ba6976bd05, // poisson_2d(12, 9) greedy-hypergraph np=2
    0xb5d44a3068370324, // poisson_2d(12, 9) greedy-hypergraph np=6
    0xc62a143af8983564, // poisson_2d(12, 9) greedy-hypergraph np=8
    0xf308912848efe464, // poisson_2d(12, 9) spectral np=2
    0xf2c0b0a770509fe4, // poisson_2d(12, 9) spectral np=6
    0x8eee3e3942d985e0, // poisson_2d(12, 9) spectral np=8
    0x348e629ef5434e65, // poisson_3d(5, 4, 6) balanced-rows np=2
    0xca948467d9a84441, // poisson_3d(5, 4, 6) balanced-rows np=6
    0xbc163c80862206e5, // poisson_3d(5, 4, 6) balanced-rows np=8
    0x348e629ef5434e65, // poisson_3d(5, 4, 6) nnz-bisect np=2
    0xca948467d9a84441, // poisson_3d(5, 4, 6) nnz-bisect np=6
    0xbc163c80862206e5, // poisson_3d(5, 4, 6) nnz-bisect np=8
    0x9cbc1236dc02ffa4, // poisson_3d(5, 4, 6) greedy-hypergraph np=2
    0x579f40a989030163, // poisson_3d(5, 4, 6) greedy-hypergraph np=6
    0xbcef749319f3f8e7, // poisson_3d(5, 4, 6) greedy-hypergraph np=8
    0xebd89d026d3956a5, // poisson_3d(5, 4, 6) spectral np=2
    0x28bf49662e90e584, // poisson_3d(5, 4, 6) spectral np=6
    0x1e6555e71a0b2185, // poisson_3d(5, 4, 6) spectral np=8
    0xc4d221734c9ff824, // banded_spd(150, 4, 3) balanced-rows np=2
    0x2b778372adb6fee1, // banded_spd(150, 4, 3) balanced-rows np=6
    0x2fa2231f2b144c42, // banded_spd(150, 4, 3) balanced-rows np=8
    0xc4d221734c9ff824, // banded_spd(150, 4, 3) nnz-bisect np=2
    0x96de3215925b3f67, // banded_spd(150, 4, 3) nnz-bisect np=6
    0x9b98aeec9c0eee03, // banded_spd(150, 4, 3) nnz-bisect np=8
    0xda70b8e118441025, // banded_spd(150, 4, 3) greedy-hypergraph np=2
    0xc18900ad7d150cc4, // banded_spd(150, 4, 3) greedy-hypergraph np=6
    0x33afd1cc3e8cb845, // banded_spd(150, 4, 3) greedy-hypergraph np=8
    0xdf24947c784d8604, // banded_spd(150, 4, 3) spectral np=2
    0x745f26d083070f22, // banded_spd(150, 4, 3) spectral np=6
    0x1045688a5d802d63, // banded_spd(150, 4, 3) spectral np=8
    0xa15a851beab463c4, // random_spd(200, 5, 7) balanced-rows np=2
    0x05f14852ff8cf4e1, // random_spd(200, 5, 7) balanced-rows np=6
    0xde8ab2bb73ae06a1, // random_spd(200, 5, 7) balanced-rows np=8
    0xa15a851beab463c4, // random_spd(200, 5, 7) nnz-bisect np=2
    0x05f14852ff8cf4e1, // random_spd(200, 5, 7) nnz-bisect np=6
    0xde8ab2bb73ae06a1, // random_spd(200, 5, 7) nnz-bisect np=8
    0x8bf716129f8d74a4, // random_spd(200, 5, 7) greedy-hypergraph np=2
    0x51755fc86b4e0da4, // random_spd(200, 5, 7) greedy-hypergraph np=6
    0x9c877567a08d3d45, // random_spd(200, 5, 7) greedy-hypergraph np=8
    0xfbbce21158d0e144, // random_spd(200, 5, 7) spectral np=2
    0xd2d2eb67a136afc3, // random_spd(200, 5, 7) spectral np=6
    0xde4b2421b8968f23, // random_spd(200, 5, 7) spectral np=8
    0xff0f5a721f6183c5, // power_law_spd(180, 14, 0.9, 5) balanced-rows np=2
    0x3aecd2f65e4cbf87, // power_law_spd(180, 14, 0.9, 5) balanced-rows np=6
    0x44082954b36db3c7, // power_law_spd(180, 14, 0.9, 5) balanced-rows np=8
    0xff0f5a721f6183c5, // power_law_spd(180, 14, 0.9, 5) nnz-bisect np=2
    0xf368d1d7420fb126, // power_law_spd(180, 14, 0.9, 5) nnz-bisect np=6
    0x6ca04167609513e4, // power_law_spd(180, 14, 0.9, 5) nnz-bisect np=8
    0xa4444dbc9b301fa4, // power_law_spd(180, 14, 0.9, 5) greedy-hypergraph np=2
    0x9d9c610b1c89e340, // power_law_spd(180, 14, 0.9, 5) greedy-hypergraph np=6
    0xa8368272865246e6, // power_law_spd(180, 14, 0.9, 5) greedy-hypergraph np=8
    0x4857300f6f0253a5, // power_law_spd(180, 14, 0.9, 5) spectral np=2
    0x7656f17bc102f847, // power_law_spd(180, 14, 0.9, 5) spectral np=6
    0x51f8d86777cc8a44, // power_law_spd(180, 14, 0.9, 5) spectral np=8
    0xcc66b76667b75665, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) balanced-rows np=2
    0x6704bf81fa79f143, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) balanced-rows np=6
    0x6b4f473b7e8102e5, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) balanced-rows np=8
    0xcc66b76667b75665, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) nnz-bisect np=2
    0x6704bf81fa79f143, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) nnz-bisect np=6
    0x6b4f473b7e8102e5, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) nnz-bisect np=8
    0x1b1fb61e707a03e4, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) greedy-hypergraph np=2
    0xe2f3d1ef70e44be5, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) greedy-hypergraph np=6
    0x8e15eaf799ab8021, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) greedy-hypergraph np=8
    0xb368fea43face0a4, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) spectral np=2
    0xcb066089f0b8eca7, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) spectral np=6
    0x91f2985275f05481, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4) spectral np=8
];
