//! Connectivity graph over atoms and the modeled communication metrics
//! partitioners optimise.
//!
//! For a rowwise-distributed sparse matvec `y = A·x`, processor `p` needs
//! `x_j` for every column `j` appearing in a row it owns. With atoms =
//! rows (and square, structurally symmetric `A`), that dependency is the
//! sparsity graph itself: atom `i` is adjacent to atom `j` iff `a_ij ≠ 0`
//! (`i ≠ j`). The hypergraph column-net model of Çatalyürek/Aykanat
//! prices the traffic exactly: `x_j` is owned by one processor and must
//! reach `λ_j − 1` others, where `λ_j` is the number of distinct owners
//! of net `j = {j} ∪ neighbours(j)`. [`comm_volume`] is `Σ_j (λ_j − 1)`
//! in words — the quantity `hpf-machine::predict` then prices in seconds.

use crate::atoms::AtomAssignment;

/// Undirected adjacency over atoms, built from a sparse pattern.
///
/// Stored flat, CSR-style: atom `i`'s neighbours are
/// `idx[ptr[i]..ptr[i + 1]]`, sorted, each once, no self-loop. Both
/// arrays are canonical for a given adjacency, so the derived equality
/// is equality of graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectivityGraph {
    ptr: Vec<usize>,
    idx: Vec<usize>,
}

impl ConnectivityGraph {
    /// Build from a CSR/CSC pattern with one atom per row: atoms `i` and
    /// `j` are adjacent iff the pattern has an entry `(i, j)` or `(j, i)`.
    /// The pattern need not be symmetric — adjacency is symmetrised.
    pub fn from_pattern(n_atoms: usize, row_ptr: &[usize], col_idx: &[usize]) -> Self {
        assert_eq!(row_ptr.len(), n_atoms + 1, "pointer length mismatch");
        Self::from_symmetric_pattern(n_atoms, row_ptr, col_idx).unwrap_or_else(|| {
            Self::from_pairs(n_atoms, |visit| {
                for i in 0..n_atoms {
                    for &j in &col_idx[row_ptr[i]..row_ptr[i + 1]] {
                        assert!(j < n_atoms, "column index {j} out of range");
                        visit(i, j);
                    }
                }
            })
        })
    }

    /// Build from an explicit undirected edge list.
    pub fn from_edges(n_atoms: usize, edges: &[(usize, usize)]) -> Self {
        Self::from_pairs(n_atoms, |visit| {
            for &(u, v) in edges {
                assert!(u < n_atoms && v < n_atoms, "edge endpoint out of range");
                visit(u, v);
            }
        })
    }

    /// A structurally symmetric pattern with strictly ascending rows —
    /// what every SPD matrix a solver is handed looks like — *is* its
    /// graph once the diagonal is dropped. `None` as soon as the pattern
    /// turns out to be anything else, out-of-range columns included.
    ///
    /// One pass decides it: rows are walked in order with one cursor per
    /// row, and entry `(i, j)`, `j > i`, must find row `j`'s cursor on
    /// `i`, which it then steps over. Row `i`'s entries below the
    /// diagonal are therefore exactly the ones its cursor has passed by
    /// the time the walk reaches it, in ascending order; one it has not
    /// passed has no mirror image.
    fn from_symmetric_pattern(
        n_atoms: usize,
        row_ptr: &[usize],
        col_idx: &[usize],
    ) -> Option<Self> {
        let mut cursor = row_ptr[..n_atoms].to_vec();
        let mut ptr = Vec::with_capacity(n_atoms + 1);
        let mut idx = Vec::with_capacity(col_idx.len());
        ptr.push(0);
        for i in 0..n_atoms {
            let end = row_ptr[i + 1];
            let mut upper = cursor[i];
            idx.extend_from_slice(&col_idx[row_ptr[i]..upper]);
            match col_idx[upper..end].first() {
                Some(&j) if j < i => return None,
                Some(&j) if j == i => upper += 1,
                _ => {}
            }
            let mut previous = i;
            for &j in &col_idx[upper..end] {
                if j <= previous || j >= n_atoms {
                    return None;
                }
                previous = j;
                let mirror = cursor[j];
                if mirror == row_ptr[j + 1] || col_idx[mirror] != i {
                    return None;
                }
                cursor[j] = mirror + 1;
            }
            idx.extend_from_slice(&col_idx[upper..end]);
            ptr.push(idx.len());
        }
        Some(ConnectivityGraph { ptr, idx })
    }

    /// The general case. `pairs` walks the same (checked) pairs each time
    /// it is called, in any order, repeats and self-pairs allowed; it is
    /// called twice, to size every atom's segment and then to fill it —
    /// two allocations whatever the atom count. Each segment is sorted
    /// where it lies and the distinct values are moved down over the
    /// gaps.
    fn from_pairs(n_atoms: usize, pairs: impl Fn(&mut dyn FnMut(usize, usize))) -> Self {
        let mut ptr = vec![0usize; n_atoms + 1];
        pairs(&mut |u, v| {
            if u != v {
                ptr[u + 1] += 1;
                ptr[v + 1] += 1;
            }
        });
        for i in 0..n_atoms {
            ptr[i + 1] += ptr[i];
        }
        let mut idx = vec![0usize; ptr[n_atoms]];
        // `ptr[i]` is atom `i`'s fill cursor during the second walk,
        // which leaves it at the end of the segment: the start of the
        // next one.
        pairs(&mut |u, v| {
            if u != v {
                idx[ptr[u]] = v;
                ptr[u] += 1;
                idx[ptr[v]] = u;
                ptr[v] += 1;
            }
        });
        let mut start = 0usize;
        let mut kept = 0usize;
        for segment in ptr.iter_mut().take(n_atoms) {
            let end = std::mem::replace(segment, kept);
            idx[start..end].sort_unstable();
            for k in start..end {
                if k == start || idx[k] != idx[k - 1] {
                    idx[kept] = idx[k];
                    kept += 1;
                }
            }
            start = end;
        }
        ptr[n_atoms] = kept;
        idx.truncate(kept);
        ConnectivityGraph { ptr, idx }
    }

    pub fn n_atoms(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Sorted neighbours of atom `i` (no self-loop).
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.idx[self.ptr[i]..self.ptr[i + 1]]
    }

    pub fn degree(&self, i: usize) -> usize {
        self.ptr[i + 1] - self.ptr[i]
    }

    /// Total undirected edge count.
    pub fn n_edges(&self) -> usize {
        self.idx.len() / 2
    }
}

/// Modeled sparse-matvec communication volume in words under the
/// column-net model: `Σ_j (λ_j − 1)` where `λ_j` is the number of
/// distinct processors owning atoms in `{j} ∪ neighbours(j)`. Zero iff
/// no processor ever needs a remote `x_j`.
pub fn comm_volume(graph: &ConnectivityGraph, asg: &AtomAssignment) -> usize {
    assert_eq!(graph.n_atoms(), asg.n_atoms(), "graph/assignment mismatch");
    let np = asg.np;
    // Per-processor "last seen in net j" stamps avoid a HashSet per net.
    let mut stamp = vec![usize::MAX; np];
    let mut volume = 0usize;
    for j in 0..graph.n_atoms() {
        let mut lambda = 0usize;
        let owner_j = asg.atom_owner[j];
        stamp[owner_j] = j;
        lambda += 1;
        for &i in graph.neighbors(j) {
            let p = asg.atom_owner[i];
            if stamp[p] != j {
                stamp[p] = j;
                lambda += 1;
            }
        }
        volume += lambda - 1;
    }
    volume
}

/// Undirected edges whose endpoints live on different processors — the
/// classic graph-cut metric (an upper-bound proxy for comm volume).
pub fn cut_edges(graph: &ConnectivityGraph, asg: &AtomAssignment) -> usize {
    assert_eq!(graph.n_atoms(), asg.n_atoms(), "graph/assignment mismatch");
    let mut cut = 0usize;
    for i in 0..graph.n_atoms() {
        for &j in graph.neighbors(i) {
            if j > i && asg.atom_owner[i] != asg.atom_owner[j] {
                cut += 1;
            }
        }
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::AtomSpec;

    /// 6-atom path graph from a tridiagonal pattern.
    fn path6() -> ConnectivityGraph {
        ConnectivityGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    }

    #[test]
    fn from_pattern_symmetrises_and_dedups() {
        // Pattern rows: 0 -> {0,1}, 1 -> {1}, 2 -> {0, 0}.
        let g = ConnectivityGraph::from_pattern(3, &[0, 2, 3, 5], &[0, 1, 1, 0, 0]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.n_edges(), 2);
    }

    #[test]
    fn the_symmetric_walk_and_the_general_build_agree() {
        // Tridiagonal with its diagonal, rows ascending: the one-pass walk.
        let row_ptr = [0, 2, 5, 8, 10];
        let col_idx = [0, 1, 0, 1, 2, 1, 2, 3, 2, 3];
        let walked = ConnectivityGraph::from_symmetric_pattern(4, &row_ptr, &col_idx)
            .expect("symmetric, ascending rows");
        assert_eq!(
            walked,
            ConnectivityGraph::from_pattern(4, &row_ptr, &col_idx)
        );
        assert_eq!(
            walked,
            ConnectivityGraph::from_edges(4, &[(2, 3), (0, 1), (1, 2)])
        );
        // Anything else is left to the general build, which symmetrises:
        // a missing mirror entry, a row out of order, a repeated column.
        let unsymmetric = ([0, 2, 4, 7, 9], [0, 1, 1, 2, 1, 2, 3, 2, 3]);
        let unsorted = (row_ptr, [1, 0, 0, 1, 2, 1, 2, 3, 2, 3]);
        let repeated = ([0, 3, 6, 9, 11], [0, 1, 1, 0, 1, 2, 1, 2, 3, 2, 3]);
        for (row_ptr, col_idx) in [
            (&unsymmetric.0, &unsymmetric.1[..]),
            (&unsorted.0, &unsorted.1[..]),
            (&repeated.0, &repeated.1[..]),
        ] {
            assert_eq!(
                ConnectivityGraph::from_symmetric_pattern(4, row_ptr, col_idx),
                None
            );
            assert_eq!(ConnectivityGraph::from_pattern(4, row_ptr, col_idx), walked);
        }
    }

    #[test]
    fn path_comm_volume_counts_boundary_nets() {
        let g = path6();
        let spec = AtomSpec::uniform(6, 1);
        // One processor: nothing is remote.
        let one = AtomAssignment::atom_block(&spec, 1);
        assert_eq!(comm_volume(&g, &one), 0);
        // Two contiguous halves: nets 2 and 3 straddle the cut -> λ=2 each.
        let two = AtomAssignment::atom_block(&spec, 2);
        assert_eq!(comm_volume(&g, &two), 2);
        assert_eq!(cut_edges(&g, &two), 1);
        // Cyclic over 2 procs: every net spans both owners.
        let cyc = AtomAssignment::atom_cyclic(&spec, 2);
        assert_eq!(comm_volume(&g, &cyc), 6);
        assert_eq!(cut_edges(&g, &cyc), 5);
    }

    #[test]
    fn volume_invariant_under_relabeling() {
        let g = ConnectivityGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]);
        let asg = AtomAssignment::from_owners(vec![0, 0, 1, 1, 1], 2);
        let v = comm_volume(&g, &asg);
        // Relabel atoms by permutation π = reverse.
        let perm: Vec<usize> = (0..5).rev().collect();
        let edges: Vec<(usize, usize)> = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]
            .iter()
            .map(|&(u, v)| (perm[u], perm[v]))
            .collect();
        let g2 = ConnectivityGraph::from_edges(5, &edges);
        let mut owner2 = vec![0usize; 5];
        for (a, &p) in asg.atom_owner.iter().enumerate() {
            owner2[perm[a]] = p;
        }
        let asg2 = AtomAssignment::from_owners(owner2, 2);
        assert_eq!(comm_volume(&g2, &asg2), v);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_rejected() {
        ConnectivityGraph::from_edges(2, &[(0, 5)]);
    }
}
