//! The `SPARSE_MATRIX` directive (Section 5.2.2).
//!
//! ```fortran
//! !HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
//! ```
//!
//! "A sparse matrix definition puts a tight binding between the members
//! of this trio, whenever any one's distribution is changed, the other
//! two should be aligned accordingly. Furthermore, if an element of row
//! is to be accessed, most probably the elements it points to in col and
//! a will be also accessed, therefore compiler should generate code for
//! bringing them into memory if they are not local."
//!
//! [`SparseMatrixDirective`] binds the pointer/index/value trio of a
//! CSR or CSC matrix, derives consistent descriptors for all three
//! arrays from a single atom assignment, and co-redistributes them as one
//! exchange (the `REDISTRIBUTE smA USING <partitioner>` extension, whose
//! paper instance is `CG_BALANCED_PARTITIONER_1`).

use hpf_dist::atoms::{AtomAssignment, AtomSpec};
use hpf_dist::graph::ConnectivityGraph;
use hpf_dist::partition;
use hpf_dist::redistribute::redistribute_atoms;
use hpf_dist::{ArrayDescriptor, DistSpec, Partitioner};
use hpf_machine::Machine;

/// Which compressed scheme the trio uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseFormat {
    Csr,
    Csc,
}

/// The bound `smA(ptr, idx, a)` trio with consistent distributions.
#[derive(Debug, Clone)]
pub struct SparseMatrixDirective {
    pub format: SparseFormat,
    /// Atoms = rows (CSR) or columns (CSC), from the pointer array.
    atoms: AtomSpec,
    /// Current assignment of atoms to processors.
    assignment: AtomAssignment,
    np: usize,
}

/// Descriptors for the three arrays of the trio under the current
/// distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct TrioDescriptors {
    /// Pointer array (`row` for CSR, `col` for CSC): n+1 elements,
    /// distributed so each processor holds the pointers of its atoms.
    pub ptr: ArrayDescriptor,
    /// Index array (`col` for CSR, `row` for CSC): nz elements.
    pub idx: ArrayDescriptor,
    /// Value array `a`: nz elements, always aligned with `idx`.
    pub values: ArrayDescriptor,
}

impl SparseMatrixDirective {
    /// Declare the directive over a pointer array (length n+1). The
    /// initial distribution is `ATOM:BLOCK` — "these data structures are
    /// initially distributed using HPF's regular distribution
    /// primitives" then adjusted to atom boundaries.
    pub fn new(format: SparseFormat, ptr: &[usize], np: usize) -> Self {
        let atoms = AtomSpec::from_pointer_array(ptr);
        let assignment = AtomAssignment::atom_block(&atoms, np);
        SparseMatrixDirective {
            format,
            atoms,
            assignment,
            np,
        }
    }

    pub fn atoms(&self) -> &AtomSpec {
        &self.atoms
    }

    pub fn assignment(&self) -> &AtomAssignment {
        &self.assignment
    }

    /// Element loads (nnz per processor) under the current assignment.
    pub fn loads(&self) -> Vec<usize> {
        self.assignment.loads(&self.atoms)
    }

    /// Current imbalance.
    pub fn imbalance(&self) -> f64 {
        self.assignment.imbalance(&self.atoms)
    }

    /// Descriptors of the trio under the current (contiguous) assignment.
    /// Panics if the assignment is non-contiguous (cyclic atoms have no
    /// cut-point encoding).
    pub fn descriptors(&self) -> TrioDescriptors {
        let contiguous = "contiguous assignment required for cut-point descriptors";
        let mut atom_cuts = self.assignment.atom_cuts().expect(contiguous);
        let cuts = self.assignment.element_cuts(&self.atoms).expect(contiguous);
        let n_atoms = self.atoms.n_atoms();
        // Pointer array: atom i's pointer lives with atom i; the final
        // (n+1)th pointer goes to the last processor — the paper
        // explicitly sizes BLOCK "to ensure that the (n+1)'th element of
        // row is placed in the last processor".
        atom_cuts[self.np] = n_atoms + 1;
        let ptr = ArrayDescriptor::new(n_atoms + 1, self.np, DistSpec::IrregularCuts(atom_cuts));
        let idx = ArrayDescriptor::new(
            self.atoms.total_elements(),
            self.np,
            DistSpec::IrregularCuts(cuts),
        );
        let values = idx.clone();
        TrioDescriptors { ptr, idx, values }
    }

    /// `!EXT$ REDISTRIBUTE smA USING <partitioner>`: run the partitioner
    /// over the atom graph, move all three arrays together to the layout
    /// it produces, and return the words moved. "The compiler generates
    /// code for calling necessary partitioners to determine the new data
    /// distribution and arranging all dependent vectors accordingly."
    /// Scattered target layouts are lowered to contiguous cut points
    /// first (the trio's cut-point descriptors require contiguity),
    /// preserving the partitioner's per-processor load profile. Traffic
    /// is charged at atom granularity — `idx` + `a` per element plus the
    /// `ptr` entry per atom — as one `REDISTRIBUTE USING <name>` exchange.
    pub fn redistribute_using(
        &mut self,
        machine: &mut Machine,
        partitioner: &dyn Partitioner,
        graph: &ConnectivityGraph,
    ) -> usize {
        let target = partitioner.partition(&self.atoms, graph, self.np);
        let cuts = partition::contiguous_projection(&self.atoms, &target);
        let lowered = partition::assignment_from_cuts(&cuts, self.atoms.n_atoms());
        let from = std::mem::replace(&mut self.assignment, lowered);
        let to = &self.assignment;
        redistribute_atoms(machine, &self.atoms, &from, to, partitioner.name(), 2, 1)
    }

    /// Locality rule: accessing pointer element `i` implies the
    /// idx/value elements it points to are needed too. Returns those
    /// element ranges — "the compiler can exploit the locality rule by
    /// knowing the relation among the members of the trio."
    pub fn implied_elements(&self, atom: usize) -> std::ops::Range<usize> {
        self.atoms.atom_range(atom)
    }

    /// Check the invariant that idx/value elements of every atom are
    /// co-located with the atom's pointer entry.
    pub fn trio_is_consistent(&self) -> bool {
        let d = self.descriptors();
        (0..self.atoms.n_atoms()).all(|atom| {
            let p = d.ptr.owner(atom);
            self.implied_elements(atom)
                .all(|e| d.idx.owner(e) == p && d.values.owner(e) == p)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{CostModel, Topology};
    use hpf_sparse::{gen, CscMatrix};

    fn machine(np: usize) -> Machine {
        Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
    }

    #[test]
    fn trio_descriptors_are_consistent() {
        let a = gen::random_spd(32, 3, 5);
        let sm = SparseMatrixDirective::new(SparseFormat::Csr, a.row_ptr(), 4);
        assert!(sm.trio_is_consistent());
        let d = sm.descriptors();
        assert_eq!(d.ptr.len(), 33);
        assert_eq!(d.idx.len(), a.nnz());
        assert!(d.idx.same_layout(&d.values));
    }

    #[test]
    fn final_pointer_on_last_processor() {
        let a = gen::random_spd(16, 2, 1);
        let sm = SparseMatrixDirective::new(SparseFormat::Csr, a.row_ptr(), 4);
        let d = sm.descriptors();
        assert_eq!(d.ptr.owner(16), 3);
    }

    /// The paper's `CG_BALANCED_PARTITIONER_1`: contiguous cuts with the
    /// minimal bottleneck nnz load (`hpf-partition`'s `balanced-rows`).
    struct Balanced;
    impl Partitioner for Balanced {
        fn name(&self) -> &'static str {
            "balanced-rows"
        }
        fn partition(
            &self,
            spec: &AtomSpec,
            _graph: &ConnectivityGraph,
            np: usize,
        ) -> AtomAssignment {
            let cuts = partition::balanced_contiguous(&spec.weights(), np).unwrap();
            partition::assignment_from_cuts(&cuts, spec.n_atoms())
        }
    }

    #[test]
    fn balanced_redistribution_improves_imbalance() {
        let a = gen::power_law_spd(200, 60, 1.0, 8);
        let csc = CscMatrix::from_csr(&a);
        let mut sm = SparseMatrixDirective::new(SparseFormat::Csc, csc.col_ptr(), 8);
        let before = sm.imbalance();
        let mut m = machine(8);
        let graph = ConnectivityGraph::from_pattern(csc.n_cols(), csc.col_ptr(), csc.row_idx());
        let moved = sm.redistribute_using(&mut m, &Balanced, &graph);
        let after = sm.imbalance();
        assert!(after <= before, "imbalance {before} -> {after}");
        assert!(sm.trio_is_consistent());
        assert!(moved > 0, "irregular matrix should move data");
        // All three arrays moved together: one redistribute event.
        assert_eq!(m.trace().count(hpf_machine::EventKind::Redistribute), 1);
        assert_eq!(m.total_words_sent(), moved as u64);
    }

    #[test]
    fn loads_sum_to_nnz() {
        let a = gen::random_spd(50, 4, 2);
        let sm = SparseMatrixDirective::new(SparseFormat::Csr, a.row_ptr(), 4);
        assert_eq!(sm.loads().iter().sum::<usize>(), a.nnz());
    }

    #[test]
    fn redistribute_using_lowers_scattered_layouts_and_labels_the_event() {
        // A partitioner that deliberately produces a scattered layout:
        // the directive must lower it to contiguous cuts with the same
        // per-processor load profile and keep the trio consistent.
        struct Cyclic;
        impl Partitioner for Cyclic {
            fn name(&self) -> &'static str {
                "test-cyclic"
            }
            fn partition(
                &self,
                spec: &AtomSpec,
                _graph: &ConnectivityGraph,
                np: usize,
            ) -> AtomAssignment {
                AtomAssignment::atom_cyclic(spec, np)
            }
        }

        let a = gen::power_law_spd(120, 30, 1.0, 4);
        let mut sm = SparseMatrixDirective::new(SparseFormat::Csr, a.row_ptr(), 4);
        let graph = ConnectivityGraph::from_pattern(a.n_rows(), a.row_ptr(), a.col_idx());
        let mut m = machine(4);
        let moved = sm.redistribute_using(&mut m, &Cyclic, &graph);
        assert!(moved > 0);
        assert!(sm.assignment().is_contiguous(), "lowered to cuts");
        assert!(sm.trio_is_consistent());
        let trace = m.trace();
        assert_eq!(trace.count(hpf_machine::EventKind::Redistribute), 1);
        assert_eq!(trace.events()[0].label, "REDISTRIBUTE USING test-cyclic");
    }

    #[test]
    fn implied_elements_match_pointer() {
        let ptr = vec![0usize, 3, 3, 8];
        let sm = SparseMatrixDirective::new(SparseFormat::Csr, &ptr, 2);
        assert_eq!(sm.implied_elements(0), 0..3);
        assert_eq!(sm.implied_elements(1), 3..3);
        assert_eq!(sm.implied_elements(2), 3..8);
    }
}
