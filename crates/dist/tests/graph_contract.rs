//! What [`ConnectivityGraph`] promises its callers, pinned as digests.
//!
//! Every partitioner, `comm_volume` and `cut_edges` read the graph only
//! through `neighbors` / `degree` / `n_atoms` / `n_edges`, so those are
//! what is folded here: for each generator family of `hpf-sparse` and
//! for a seeded family of raw patterns (unsymmetric, duplicate columns,
//! explicit diagonals, empty rows, `n = 0` and `1`), every `neighbors(i)`
//! in order, the edge count, and both communication metrics under a
//! block and a cyclic assignment. The raw patterns are also held to the
//! definition itself (a nested-list construction kept here as the
//! reference). The constants were recorded on `e5be232`, while the graph
//! still stored one `Vec` per atom; a change of storage may not edit
//! them. A mismatch prints the recomputed table.

use hpf_dist::graph::{comm_volume, cut_edges, ConnectivityGraph};
use hpf_dist::AtomAssignment;
use hpf_sparse::{gen, CsrMatrix};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

/// FNV-1a, 64 bit, over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: usize) {
        for b in (v as u64).to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Everything a caller can read off `g`.
    fn graph(&mut self, g: &ConnectivityGraph) {
        let n = g.n_atoms();
        self.word(n);
        for i in 0..n {
            self.word(g.degree(i));
            for &j in g.neighbors(i) {
                self.word(j);
            }
        }
        self.word(g.n_edges());
        let block = AtomAssignment::from_owners((0..n).map(|i| i * 4 / n).collect(), 4);
        let cyclic = AtomAssignment::from_owners((0..n).map(|i| i % 3).collect(), 3);
        for asg in [&block, &cyclic] {
            self.word(comm_volume(g, asg));
            self.word(cut_edges(g, asg));
        }
    }
}

fn of_matrix(a: &CsrMatrix) -> ConnectivityGraph {
    ConnectivityGraph::from_pattern(a.n_rows(), a.row_ptr(), a.col_idx())
}

fn families() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("poisson_2d(12, 9)", gen::poisson_2d(12, 9)),
        ("poisson_3d(5, 4, 6)", gen::poisson_3d(5, 4, 6)),
        ("banded_spd(150, 4, 3)", gen::banded_spd(150, 4, 3)),
        ("random_spd(200, 5, 7)", gen::random_spd(200, 5, 7)),
        ("random_spd(384, 5, 11)", gen::random_spd(384, 5, 11)),
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

/// Rows of column indices, as drawn: unsorted, with repeats and
/// diagonals, some rows empty.
fn raw_rows() -> impl Strategy<Value = Vec<Vec<usize>>> {
    (0usize..24).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(0..n.max(1), 0..7usize), n)
    })
}

/// The definition: `i ~ j` iff the pattern holds `(i, j)` or `(j, i)`,
/// `i != j`; each list sorted, each neighbour once.
fn reference(rows: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); rows.len()];
    for (i, row) in rows.iter().enumerate() {
        for &j in row {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// One digest over 256 raw patterns, each first held to [`reference`]
/// and to the edge-list constructor.
fn raw_pattern_digest() -> u64 {
    let mut runner = TestRunner::deterministic_for("graph_contract::raw_patterns");
    let strategy = raw_rows();
    let mut d = Digest::new();
    let (mut empty, mut single) = (0, 0);
    for case in 0..256 {
        let rows = strategy.generate(runner.rng());
        let n = rows.len();
        empty += usize::from(n == 0);
        single += usize::from(n == 1);
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut pairs = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            col_idx.extend_from_slice(row);
            row_ptr.push(col_idx.len());
            pairs.extend(row.iter().map(|&j| (i, j)));
        }
        let g = ConnectivityGraph::from_pattern(n, &row_ptr, &col_idx);
        let want = reference(&rows);
        assert_eq!(g.n_atoms(), n, "case {case}");
        for (i, list) in want.iter().enumerate() {
            assert_eq!(g.neighbors(i), list.as_slice(), "case {case} atom {i}");
            assert_eq!(g.degree(i), list.len(), "case {case} atom {i}");
        }
        assert_eq!(
            g.n_edges(),
            want.iter().map(Vec::len).sum::<usize>() / 2,
            "case {case}"
        );
        // The two constructors agree, whatever order and multiplicity
        // the entries came in; one more edge tells two graphs apart.
        let from_edges = ConnectivityGraph::from_edges(n, &pairs);
        assert_eq!(g, from_edges, "case {case}");
        pairs.reverse();
        assert_eq!(g, ConnectivityGraph::from_edges(n, &pairs), "case {case}");
        if let Some(j) = (1..n).find(|j| !want[0].contains(j)) {
            pairs.push((j, 0));
            assert_ne!(g, ConnectivityGraph::from_edges(n, &pairs), "case {case}");
        }
        d.graph(&g);
    }
    assert!(empty > 0 && single > 0, "n = 0 and n = 1 both occur");
    d.0
}

fn cases() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = families()
        .into_iter()
        .map(|(name, a)| {
            let mut d = Digest::new();
            d.graph(&of_matrix(&a));
            (name.to_string(), d.0)
        })
        .collect();
    out.push(("256 raw patterns".to_string(), raw_pattern_digest()));
    out
}

#[test]
fn every_graph_matches_its_recorded_digest() {
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
        panic!("the connectivity graph changed; recomputed digests:\n{table}");
    }
}

#[test]
fn symmetric_generators_keep_their_off_diagonal_pattern() {
    // For a structurally symmetric matrix with sorted rows the graph is
    // the pattern minus its diagonal, row for row.
    for (name, a) in families() {
        let g = of_matrix(&a);
        for i in 0..a.n_rows() {
            let row = &a.col_idx()[a.row_ptr()[i]..a.row_ptr()[i + 1]];
            let off_diagonal: Vec<usize> = row.iter().copied().filter(|&j| j != i).collect();
            assert_eq!(g.neighbors(i), off_diagonal.as_slice(), "{name} row {i}");
        }
    }
}

#[test]
#[should_panic(expected = "pointer length mismatch")]
fn a_short_pointer_array_is_rejected() {
    ConnectivityGraph::from_pattern(3, &[0, 1, 2], &[0, 1]);
}

#[test]
#[should_panic(expected = "column index 7 out of range")]
fn a_column_beyond_the_atoms_is_rejected() {
    ConnectivityGraph::from_pattern(2, &[0, 1, 2], &[1, 7]);
}

#[rustfmt::skip]
const GOLDEN: &[u64] = &[
    0xb898557a55da726c, // poisson_2d(12, 9)
    0xb9a2db778daf695e, // poisson_3d(5, 4, 6)
    0x05936ad969087a7a, // banded_spd(150, 4, 3)
    0xb130287bae8f2a12, // random_spd(200, 5, 7)
    0xfa8a50906153eaa3, // random_spd(384, 5, 11)
    0x6acdfb64de7252f8, // power_law_spd(180, 14, 0.9, 5)
    0xf38905bd1db194b2, // block_irregular_mesh([9, 2, 17, 5, 1, 12], 4)
    0x8b08f57956b3ebb4, // 256 raw patterns
];
