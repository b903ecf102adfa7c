//! Distributed preconditioner abstraction for the PCG family.
//!
//! The serial [`crate::pcg::Preconditioner`] applies `z = M⁻¹ r` to plain
//! slices; this trait is its machine-charged counterpart. An application
//! runs over [`DistVector`]s and charges the simulated machine for
//! whatever compute and communication the preconditioner's data layout
//! induces — zero words for an aligned Jacobi scaling, halo exchanges
//! and level transfers for a multigrid V-cycle (`hpf-mg`).
//! [`crate::Krylov::Cg`]'s `precond` accepts any implementation, plain or
//! under checkpoint/rollback protection, which is how the multigrid
//! crate plugs into the solver family without this crate knowing about
//! grids.
//!
//! CG requires `M` to be symmetric positive definite; implementations
//! must preserve that or the outer recurrence breaks down (surfacing as
//! [`SolverError::Breakdown`] on `rho`).

use crate::error::SolverError;
use crate::operator::DistOperator;
use hpf_core::DistVector;
use hpf_machine::Machine;

/// A symmetric positive-definite preconditioner applied on the simulated
/// machine: `z = M⁻¹ r`, charging the machine for the application.
pub trait DistPreconditioner {
    /// Apply `M⁻¹` to a residual, returning `z` on the same descriptor.
    fn apply(&self, machine: &mut Machine, r: &DistVector) -> DistVector;
    /// Apply `M⁻¹` into a `z` the solve keeps between iterations
    /// (overwritten). Defaults to [`DistPreconditioner::apply`];
    /// preconditioners that can write in place override it.
    fn apply_into(&self, machine: &mut Machine, r: &DistVector, z: &mut DistVector) {
        *z = self.apply(machine, r);
    }
    /// Short name for telemetry and report rows.
    fn name(&self) -> &'static str;
}

/// Jacobi (inverse-diagonal) preconditioner: an aligned element-wise
/// multiply, zero communication — the paper's alignment discipline
/// guarantees `D⁻¹ r` never leaves the owning processor.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: DistVector,
}

impl JacobiPreconditioner {
    /// Build from an operator's diagonal, rejecting numerically singular
    /// pivots the same way the serial Jacobi PCG does.
    pub fn from_operator<A: DistOperator + ?Sized>(a: &A) -> Result<Self, SolverError> {
        let diag = a.diagonal();
        if let Some((i, &d)) = diag
            .iter()
            .enumerate()
            .find(|(_, &d)| d.abs() < f64::MIN_POSITIVE * 1e16)
        {
            return Err(SolverError::SingularMatrix { pivot: i, value: d });
        }
        let inv_diag_global: Vec<f64> = diag.iter().map(|d| 1.0 / d).collect();
        Ok(JacobiPreconditioner {
            inv_diag: DistVector::from_global(a.descriptor().clone(), &inv_diag_global),
        })
    }
}

impl DistPreconditioner for JacobiPreconditioner {
    fn apply(&self, machine: &mut Machine, r: &DistVector) -> DistVector {
        let mut z = DistVector::zeros(r.descriptor().clone());
        self.apply_into(machine, r, &mut z);
        z
    }
    fn apply_into(&self, machine: &mut Machine, r: &DistVector, z: &mut DistVector) {
        z.copy_from(r);
        z.zip_apply(machine, &self.inv_diag, 1, "jacobi-apply", |ri, di| ri * di);
    }
    fn name(&self) -> &'static str {
        "jacobi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_core::{DataArrayLayout, RowwiseCsr};
    use hpf_machine::{CostModel, Topology};
    use hpf_sparse::{gen, CooMatrix, CsrMatrix};

    #[test]
    fn jacobi_preconditioner_scales_by_inverse_diagonal() {
        let a = gen::poisson_2d(4, 4);
        let np = 2;
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let m = JacobiPreconditioner::from_operator(&op).unwrap();
        assert_eq!(m.name(), "jacobi");
        let mut machine = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let r = DistVector::constant(op.descriptor(), 2.0);
        let z = m.apply(&mut machine, &r);
        for v in z.to_global() {
            assert!((v - 0.5).abs() < 1e-15); // diag of the 5-point stencil is 4
        }
        let words: usize = machine
            .trace()
            .with_label("jacobi-apply")
            .map(|e| e.words)
            .sum();
        assert_eq!(words, 0);
    }

    #[test]
    fn jacobi_preconditioner_rejects_zero_pivot() {
        let coo =
            CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let a = CsrMatrix::from_coo(&coo);
        let op = RowwiseCsr::block(a, 2, DataArrayLayout::RowAligned);
        assert!(matches!(
            JacobiPreconditioner::from_operator(&op),
            Err(SolverError::SingularMatrix { pivot: 1, .. })
        ));
    }
}
