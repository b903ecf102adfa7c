//! The operator abstraction: a square linear operator applied on the
//! simulated HPF machine, in a data layout.

use hpf_core::{ColwiseCsc, DistVector, RowwiseCsr};
use hpf_machine::Machine;

/// A square linear operator applied on the simulated HPF machine,
/// charging the communication its data layout induces.
pub trait DistOperator {
    fn dim(&self) -> usize;
    /// `q = A p`, charging the machine.
    fn apply(&self, machine: &mut Machine, p: &DistVector) -> DistVector;
    /// `q = A p` into a `q` the solve keeps from one iteration to the
    /// next (overwritten; laid out as [`DistOperator::apply`]'s result
    /// would be — [`DistOperator::descriptor`] for every operand a solver
    /// builds).
    /// `scratch` is a buffer the solve owns and lends to every product —
    /// operators are shared and immutable, so whatever a product must
    /// build (a gathered copy of a cyclic `p`) lives there. Charges the
    /// machine exactly as [`DistOperator::apply`] does, which is also the
    /// default implementation; operators that can write in place
    /// override it and make `apply` the wrapper.
    fn apply_into(
        &self,
        machine: &mut Machine,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) {
        let _ = scratch;
        *q = self.apply(machine, p);
    }
    /// `q = Aᵀ p`, charging the machine — needed by distributed BiCG.
    /// Per the paper's §2.1, the cost of this direction is layout-
    /// dependent: cheap through a column layout, expensive through a row
    /// layout.
    fn apply_transpose(&self, machine: &mut Machine, p: &DistVector) -> DistVector;
    /// `q = Aᵀ p` into a `q` the solve keeps, as
    /// [`DistOperator::apply_into`] is to [`DistOperator::apply`].
    fn apply_transpose_into(
        &self,
        machine: &mut Machine,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) {
        let _ = scratch;
        *q = self.apply_transpose(machine, p);
    }
    /// The descriptor result vectors carry.
    fn descriptor(&self) -> hpf_dist::ArrayDescriptor;
    /// Main diagonal as a distributed vector (for Jacobi PCG).
    fn diagonal(&self) -> Vec<f64>;
}

impl DistOperator for RowwiseCsr {
    fn dim(&self) -> usize {
        self.matrix().n_rows()
    }
    fn apply(&self, machine: &mut Machine, p: &DistVector) -> DistVector {
        self.matvec(machine, p).0
    }
    fn apply_into(
        &self,
        machine: &mut Machine,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) {
        self.matvec_into(machine, p, q, scratch);
    }
    fn apply_transpose(&self, machine: &mut Machine, p: &DistVector) -> DistVector {
        self.matvec_transpose(machine, p).0
    }
    fn apply_transpose_into(
        &self,
        machine: &mut Machine,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) {
        self.matvec_transpose_into(machine, p, q, scratch);
    }
    fn descriptor(&self) -> hpf_dist::ArrayDescriptor {
        self.row_descriptor().clone()
    }
    fn diagonal(&self) -> Vec<f64> {
        self.matrix().diagonal()
    }
}

/// Which Scenario-2 matvec variant a [`ColwiseCsc`] operator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CscVariant {
    /// The paper's serial code (inter-iteration dependency).
    Serial,
    /// Temporary 2-D array + `SUM` intrinsic.
    Temp2d,
}

/// A Scenario-2 operator: column-wise CSC with a chosen variant.
#[derive(Debug, Clone)]
pub struct ColwiseOperator {
    pub inner: ColwiseCsc,
    pub variant: CscVariant,
}

impl DistOperator for ColwiseOperator {
    fn dim(&self) -> usize {
        self.inner.matrix().n_rows()
    }
    fn apply(&self, machine: &mut Machine, p: &DistVector) -> DistVector {
        let mut q = DistVector::zeros(p.descriptor().clone());
        self.apply_into(machine, p, &mut q, &mut Vec::new());
        q
    }
    fn apply_into(
        &self,
        machine: &mut Machine,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) {
        match self.variant {
            CscVariant::Serial => self.inner.matvec_serial_into(machine, p, q, scratch),
            CscVariant::Temp2d => self.inner.matvec_temp2d_into(machine, p, q, scratch),
        };
    }
    fn apply_transpose(&self, machine: &mut Machine, p: &DistVector) -> DistVector {
        self.inner.matvec_transpose_gather(machine, p).0
    }
    fn apply_transpose_into(
        &self,
        machine: &mut Machine,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) {
        self.inner
            .matvec_transpose_gather_into(machine, p, q, scratch);
    }
    fn descriptor(&self) -> hpf_dist::ArrayDescriptor {
        self.inner.col_descriptor().clone()
    }
    fn diagonal(&self) -> Vec<f64> {
        self.inner.matrix().diagonal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_core::DataArrayLayout;
    use hpf_machine::{CostModel, Topology};
    use hpf_sparse::{gen, CscMatrix};

    /// On one processor the operators are the serial products of the
    /// matrix they hold, CSR, CSC or dense.
    #[test]
    fn serial_operators_agree() {
        let csr = gen::random_spd(20, 3, 2);
        let csc = CscMatrix::from_csr(&csr);
        let dense = csr.to_dense();
        let x: Vec<f64> = (0..20).map(|i| (i as f64).cos()).collect();
        let row_op = RowwiseCsr::block(csr.clone(), 1, DataArrayLayout::RowAligned);
        let col_op = ColwiseOperator {
            inner: ColwiseCsc::block(csc.clone(), 1),
            variant: CscVariant::Serial,
        };
        let p = DistVector::from_global(row_op.descriptor(), &x);
        let mut m = Machine::new(1, Topology::Hypercube, CostModel::mpp_1995());
        let products = [
            row_op.apply(&mut m, &p).to_global(),
            col_op.apply(&mut m, &p).to_global(),
            csc.matvec(&x).unwrap(),
            dense.matvec(&x).unwrap(),
        ];
        let want = csr.matvec(&x).unwrap();
        for q in &products {
            for i in 0..20 {
                assert!((q[i] - want[i]).abs() < 1e-12);
            }
        }
        assert_eq!(row_op.diagonal(), col_op.diagonal());
        assert_eq!(
            row_op.diagonal(),
            (0..20).map(|i| dense[(i, i)]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dist_operators_agree_with_serial() {
        let csr = gen::random_spd(24, 3, 4);
        let ones = vec![1.0; 24];
        let want = csr.matvec(&ones).unwrap();
        let np = 4;
        let row_op = RowwiseCsr::block(csr.clone(), np, DataArrayLayout::RowAligned);
        let col_op = ColwiseOperator {
            inner: ColwiseCsc::block(CscMatrix::from_csr(&csr), np),
            variant: CscVariant::Temp2d,
        };
        let p = DistVector::constant(row_op.descriptor(), 1.0);
        let mut m1 = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let q1 = row_op.apply(&mut m1, &p);
        let mut m2 = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let q2 = col_op.apply(&mut m2, &p);
        for i in 0..24 {
            assert!((q1.to_global()[i] - want[i]).abs() < 1e-12);
            assert!((q2.to_global()[i] - want[i]).abs() < 1e-12);
        }
    }
}
