//! Indivisible entities ("atoms") — the paper's Section 5.2 extension.
//!
//! "An indivisable entity (atom) is a logical abstraction consisting of a
//! chunk of elements enclosed within two border elements, and it cannot
//! be divided among processors during the data distribution process. It
//! should completely belong to one single processor."
//!
//! ```fortran
//! !EXT$ INDIVISABLE row(ATOM:i) :: col(i:i+1)
//! !EXT$ REDISTRIBUTE row(ATOM: BLOCK)
//! ```
//!
//! For CSC storage the atoms of the `row`/`a` arrays are the columns: atom
//! `i` spans elements `col(i) .. col(i+1)`. [`AtomSpec`] captures exactly
//! that pointer-array encoding, and [`AtomAssignment`] maps whole atoms to
//! processors (`ATOM:BLOCK`, `ATOM:CYCLIC`, or a partitioner-supplied
//! owner list).

use crate::spec::DistSpec;

/// Atom boundaries over a data array of `total_elements()` elements:
/// atom `i` spans `boundaries[i] .. boundaries[i+1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomSpec {
    boundaries: Vec<usize>,
}

impl AtomSpec {
    /// Build from an HPF-style indirection (pointer) array — the
    /// `INDIVISABLE row(ATOM:i) :: col(i:i+1)` directive, where `col` is
    /// a CSC/CSR pointer array of length `n_atoms + 1`.
    pub fn from_pointer_array(ptr: &[usize]) -> Self {
        assert!(
            ptr.len() >= 2,
            "pointer array needs at least two entries (one atom)"
        );
        assert!(
            ptr.windows(2).all(|w| w[0] <= w[1]),
            "pointer array must be non-decreasing"
        );
        AtomSpec {
            boundaries: ptr.to_vec(),
        }
    }

    /// Uniform atoms of size `k` covering `n_atoms * k` elements.
    pub fn uniform(n_atoms: usize, k: usize) -> Self {
        assert!(n_atoms > 0 && k > 0);
        AtomSpec {
            boundaries: (0..=n_atoms).map(|i| i * k).collect(),
        }
    }

    pub fn n_atoms(&self) -> usize {
        self.boundaries.len() - 1
    }

    pub fn total_elements(&self) -> usize {
        *self.boundaries.last().unwrap()
    }

    /// Element span of atom `i`.
    pub fn atom_range(&self, i: usize) -> std::ops::Range<usize> {
        self.boundaries[i]..self.boundaries[i + 1]
    }

    /// Element count (weight) of atom `i`.
    pub fn atom_size(&self, i: usize) -> usize {
        self.boundaries[i + 1] - self.boundaries[i]
    }

    /// All atom weights.
    pub fn weights(&self) -> Vec<usize> {
        (0..self.n_atoms()).map(|i| self.atom_size(i)).collect()
    }

    /// Which atom contains element `e`?
    pub fn atom_of_element(&self, e: usize) -> usize {
        assert!(e < self.total_elements(), "element {e} out of range");
        match self.boundaries.binary_search(&e) {
            Ok(pos) => {
                // Element at a boundary: belongs to the first non-empty
                // atom starting there.
                let mut a = pos.min(self.n_atoms() - 1);
                while a < self.n_atoms() - 1 && self.boundaries[a + 1] <= e {
                    a += 1;
                }
                a
            }
            Err(pos) => pos - 1,
        }
    }

    /// How many atoms a plain element-wise partition (given as element
    /// cut points) would split across processor boundaries. Plain HPF
    /// `BLOCK` "divides the data array in an even fashion without paying
    /// attention to whether the division point is at the middle of a
    /// column or not" — this counts those torn columns.
    pub fn atoms_split_by(&self, element_cuts: &[usize]) -> usize {
        let mut split = 0usize;
        for &cut in &element_cuts[1..element_cuts.len() - 1] {
            if cut == 0 || cut >= self.total_elements() {
                continue;
            }
            // A cut strictly inside an atom tears it.
            if !self.boundaries.contains(&cut) {
                split += 1;
            }
        }
        split
    }
}

/// Assignment of whole atoms to processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomAssignment {
    /// `atom_owner[i]` = processor owning atom `i`.
    pub atom_owner: Vec<usize>,
    pub np: usize,
}

impl AtomAssignment {
    /// `REDISTRIBUTE row(ATOM: BLOCK)` — contiguous runs of
    /// `ceil(n_atoms/np)` atoms per processor. "This directive ensures
    /// that the elements of the row vector are distributed in a similar
    /// fashion to the regular HPF BLOCK distribution, yet the atoms
    /// instead of individual elements are used as the basis."
    pub fn atom_block(spec: &AtomSpec, np: usize) -> Self {
        assert!(np > 0);
        let n = spec.n_atoms();
        let bs = n.div_ceil(np).max(1);
        AtomAssignment {
            atom_owner: (0..n).map(|i| (i / bs).min(np - 1)).collect(),
            np,
        }
    }

    /// `REDISTRIBUTE row(ATOM: CYCLIC)` — round-robin atoms.
    pub fn atom_cyclic(spec: &AtomSpec, np: usize) -> Self {
        assert!(np > 0);
        AtomAssignment {
            atom_owner: (0..spec.n_atoms()).map(|i| i % np).collect(),
            np,
        }
    }

    /// From an explicit owner list (e.g. a load-balancing partitioner).
    pub fn from_owners(atom_owner: Vec<usize>, np: usize) -> Self {
        assert!(np > 0);
        assert!(atom_owner.iter().all(|&p| p < np), "owner out of range");
        AtomAssignment { atom_owner, np }
    }

    pub fn n_atoms(&self) -> usize {
        self.atom_owner.len()
    }

    /// Per-processor element loads under this assignment.
    pub fn loads(&self, spec: &AtomSpec) -> Vec<usize> {
        assert_eq!(spec.n_atoms(), self.n_atoms());
        let mut loads = vec![0usize; self.np];
        for (i, &p) in self.atom_owner.iter().enumerate() {
            loads[p] += spec.atom_size(i);
        }
        loads
    }

    /// Load imbalance, [`hpf_machine::imbalance`], of element loads (1.0
    /// = perfect). No elements at all read 1.0.
    pub fn imbalance(&self, spec: &AtomSpec) -> f64 {
        let loads = self.loads(spec).into_iter().map(|l| l as f64);
        hpf_machine::imbalance(loads).unwrap_or(1.0)
    }

    /// Is the assignment contiguous in atom order (each processor owns a
    /// run of consecutive atoms, processors in order)?
    pub fn is_contiguous(&self) -> bool {
        self.atom_owner.windows(2).all(|w| w[0] <= w[1])
    }

    /// For a contiguous assignment, the atom cut points (length np+1):
    /// processor `p` owns atoms `cuts[p]..cuts[p+1]`. "Since we still
    /// keep the continuity of the column (or row) elements, the compiler
    /// avoids generating a full distribution map of the size of the
    /// target arrays. A small array in the size of the number of
    /// processors keeps the cut-off points." `None` when scattered.
    pub fn atom_cuts(&self) -> Option<Vec<usize>> {
        if !self.is_contiguous() {
            return None;
        }
        let n = self.n_atoms();
        let mut cuts = Vec::with_capacity(self.np + 1);
        let mut atom = 0usize;
        for p in 0..self.np {
            cuts.push(atom);
            while atom < n && self.atom_owner[atom] == p {
                atom += 1;
            }
        }
        cuts.push(n);
        Some(cuts)
    }

    /// [`Self::atom_cuts`] in elements, usable as
    /// [`DistSpec::IrregularCuts`] for the underlying data array.
    pub fn element_cuts(&self, spec: &AtomSpec) -> Option<Vec<usize>> {
        assert_eq!(spec.n_atoms(), self.n_atoms(), "spec/assignment mismatch");
        let cuts = self.atom_cuts()?;
        Some(cuts.into_iter().map(|a| spec.boundaries[a]).collect())
    }

    /// Distribution spec for the underlying element array, if contiguous.
    pub fn to_dist_spec(&self, spec: &AtomSpec) -> Option<DistSpec> {
        self.element_cuts(spec).map(DistSpec::IrregularCuts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Atoms from the paper's Figure 1 CSC col pointer (6 columns).
    fn figure1_atoms() -> AtomSpec {
        AtomSpec::from_pointer_array(&[0, 4, 8, 9, 11, 13, 15])
    }

    #[test]
    fn atom_sizes_from_pointer() {
        let a = figure1_atoms();
        assert_eq!(a.n_atoms(), 6);
        assert_eq!(a.total_elements(), 15);
        assert_eq!(a.weights(), vec![4, 4, 1, 2, 2, 2]);
        assert_eq!(a.atom_range(2), 8..9);
    }

    #[test]
    fn atom_of_element_lookup() {
        let a = figure1_atoms();
        assert_eq!(a.atom_of_element(0), 0);
        assert_eq!(a.atom_of_element(3), 0);
        assert_eq!(a.atom_of_element(4), 1);
        assert_eq!(a.atom_of_element(8), 2);
        assert_eq!(a.atom_of_element(14), 5);
    }

    #[test]
    fn plain_block_splits_atoms() {
        let a = figure1_atoms();
        // Element BLOCK over 4 procs: bs = ceil(15/4) = 4 -> cuts 0,4,8,12,15.
        // Cuts at 4 and 8 are atom boundaries; 12 tears atom 4 (11..13).
        assert_eq!(a.atoms_split_by(&[0, 4, 8, 12, 15]), 1);
        // Worse cuts tear more.
        assert_eq!(a.atoms_split_by(&[0, 2, 6, 10, 15]), 3);
        // Atom-aligned cuts tear none.
        assert_eq!(a.atoms_split_by(&[0, 4, 9, 13, 15]), 0);
    }

    #[test]
    fn atom_block_assignment_contiguous() {
        let a = figure1_atoms();
        let asg = AtomAssignment::atom_block(&a, 3);
        assert_eq!(asg.atom_owner, vec![0, 0, 1, 1, 2, 2]);
        assert!(asg.is_contiguous());
        let cuts = asg.element_cuts(&a).unwrap();
        assert_eq!(cuts, vec![0, 8, 11, 15]);
        // No atom split by construction.
        assert_eq!(a.atoms_split_by(&cuts), 0);
    }

    #[test]
    fn atom_cyclic_assignment() {
        let a = figure1_atoms();
        let asg = AtomAssignment::atom_cyclic(&a, 2);
        assert_eq!(asg.atom_owner, vec![0, 1, 0, 1, 0, 1]);
        assert!(!asg.is_contiguous());
        assert!(asg.element_cuts(&a).is_none());
        assert_eq!(asg.loads(&a), vec![4 + 1 + 2, 4 + 2 + 2]);
    }

    #[test]
    fn atom_cuts_read_owner_runs() {
        let a = figure1_atoms();
        // Processors 2 and 3 own nothing: their runs are empty at the end.
        let asg = AtomAssignment::from_owners(vec![0, 0, 0, 1, 1, 1], 4);
        assert_eq!(asg.atom_cuts(), Some(vec![0, 3, 6, 6, 6]));
        assert_eq!(asg.element_cuts(&a), Some(vec![0, 9, 15, 15, 15]));
        // A leading processor that owns nothing starts where the next does.
        let asg = AtomAssignment::from_owners(vec![1, 1, 2, 2, 2, 2], 3);
        assert_eq!(asg.atom_cuts(), Some(vec![0, 0, 2, 6]));
        // Scattered owners have no cut points.
        assert_eq!(AtomAssignment::atom_cyclic(&a, 2).atom_cuts(), None);
        // Element cuts are the atom cuts read through the pointer array.
        let block = AtomAssignment::atom_block(&a, 3);
        let atom_cuts = block.atom_cuts().unwrap();
        let ptr = [0, 4, 8, 9, 11, 13, 15];
        let via_ptr: Vec<usize> = atom_cuts.iter().map(|&c| ptr[c]).collect();
        assert_eq!(block.element_cuts(&a), Some(via_ptr));
    }

    #[test]
    fn loads_and_imbalance() {
        let a = AtomSpec::uniform(8, 3);
        let asg = AtomAssignment::atom_block(&a, 4);
        assert_eq!(asg.loads(&a), vec![6, 6, 6, 6]);
        assert!((asg.imbalance(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_assignment_has_imbalance() {
        let a = AtomSpec::from_pointer_array(&[0, 10, 11, 12, 13]);
        let asg = AtomAssignment::atom_block(&a, 2);
        // bs = 2 atoms: p0 gets atoms {0,1} = 11 elements, p1 gets {2,3} = 2.
        assert_eq!(asg.loads(&a), vec![11, 2]);
        assert!(asg.imbalance(&a) > 1.5);
    }

    #[test]
    fn empty_atoms_allowed() {
        let a = AtomSpec::from_pointer_array(&[0, 0, 3, 3, 5]);
        assert_eq!(a.n_atoms(), 4);
        assert_eq!(a.weights(), vec![0, 3, 0, 2]);
        assert_eq!(a.atom_of_element(0), 1);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_pointer_rejected() {
        AtomSpec::from_pointer_array(&[0, 5, 3]);
    }

    #[test]
    fn dist_spec_conversion() {
        let a = figure1_atoms();
        let asg = AtomAssignment::atom_block(&a, 3);
        match asg.to_dist_spec(&a).unwrap() {
            DistSpec::IrregularCuts(c) => assert_eq!(c, vec![0, 8, 11, 15]),
            other => panic!("unexpected spec {other:?}"),
        }
    }
}
