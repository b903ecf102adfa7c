//! Preconditioners for the PCG family.
//!
//! A [`DistPreconditioner`] applies `z = M⁻¹ r` over [`DistVector`]s and
//! charges the machine for what its layout induces — zero words for an
//! aligned Jacobi scaling or an SSOR sweep over each processor's own
//! rows, halo exchanges and level transfers for a multigrid V-cycle
//! (`hpf-mg`, which plugs in through [`crate::Krylov::Cg`]'s `precond`).
//! Section 2.1: "A preconditioner for A can be added to any of the
//! algorithms described above and which will increase the speed of
//! convergence of the CG algorithm." `M` must be symmetric positive
//! definite, or the outer recurrence breaks down
//! ([`SolverError::Breakdown`] on `rho`).

use crate::error::SolverError;
use crate::operator::DistOperator;
use hpf_core::{DistVector, RowwiseCsr};
use hpf_machine::Machine;
use hpf_sparse::{CooMatrix, CsrMatrix};

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

/// `diag`, unless a pivot is numerically zero.
fn nonsingular(diag: Vec<f64>) -> Result<Vec<f64>, SolverError> {
    match diag.iter().position(|d| d.abs() < f64::MIN_POSITIVE * 1e16) {
        Some(pivot) => Err(SolverError::SingularMatrix {
            pivot,
            value: diag[pivot],
        }),
        None => Ok(diag),
    }
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
    /// pivots.
    pub fn from_operator<A: DistOperator + ?Sized>(a: &A) -> Result<Self, SolverError> {
        let inv_diag: Vec<f64> = nonsingular(a.diagonal())?.iter().map(|d| 1.0 / d).collect();
        Ok(JacobiPreconditioner {
            inv_diag: DistVector::from_global(a.descriptor(), &inv_diag),
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

/// SSOR's relaxation factor.
const OMEGA: f64 = 1.2;

/// Symmetric SOR, `M = ω/(2−ω) · (D/ω + L) (D/ω)⁻¹ (D/ω + Lᵀ)` for
/// `A = L + D + Lᵀ`, ω = 1.2: a forward then a backward triangular sweep
/// over each processor's diagonal block of `A`. That is exact SSOR on one
/// processor and block SSOR (block Jacobi between the processors) on
/// more; a sweep reads only its owner's rows and elements, so an
/// application moves no words.
#[derive(Debug, Clone)]
pub struct SsorPreconditioner {
    /// Each processor's rows of `A`, restricted to the columns it owns and
    /// without the diagonal, by local index.
    blocks: Vec<CsrMatrix>,
    /// `diag(A)`, laid out as the rows are.
    diag: DistVector,
}

impl SsorPreconditioner {
    /// Cut `a` into its processors' diagonal blocks, rejecting a
    /// non-square matrix and numerically singular pivots.
    pub fn new(a: &RowwiseCsr) -> Result<Self, SolverError> {
        let m = a.matrix();
        if !m.is_square() {
            return Err(SolverError::NotSquare {
                rows: m.n_rows(),
                cols: m.n_cols(),
            });
        }
        let desc = a.row_descriptor();
        let diag = DistVector::from_global(desc.clone(), &nonsingular(m.diagonal())?);
        let blocks = (0..desc.np())
            .map(|p| {
                let rows = desc.global_indices(p);
                let mut coo = CooMatrix::new(rows.len(), rows.len());
                for (l, &i) in rows.iter().enumerate() {
                    for (j, v) in m.row(i).filter(|&(j, _)| j != i && desc.owner(j) == p) {
                        coo.push(l, desc.local_offset(j), v)
                            .expect("an owned column is inside the block");
                    }
                }
                CsrMatrix::from_coo(&coo)
            })
            .collect();
        Ok(SsorPreconditioner { blocks, diag })
    }
}

/// `z = M⁻¹ r` over one processor's block, `y` kept in `z` between the
/// sweeps.
fn sweep(block: &CsrMatrix, diag: &[f64], r: &[f64], z: &mut [f64]) {
    // Forward: (D/ω + L) y = r.
    for l in 0..z.len() {
        let mut s = r[l];
        for (j, v) in block.row(l).filter(|&(j, _)| j < l) {
            s -= v * z[j];
        }
        z[l] = s * OMEGA / diag[l];
    }
    // y <- (D/ω) y.
    for (y, d) in z.iter_mut().zip(diag) {
        *y *= d / OMEGA;
    }
    // Backward: (D/ω + Lᵀ) z = y.
    for l in (0..z.len()).rev() {
        let mut s = z[l];
        for (j, v) in block.row(l).filter(|&(j, _)| j > l) {
            s -= v * z[j];
        }
        z[l] = s * OMEGA / diag[l];
    }
    // The factor ω/(2−ω) only scales M (CG is invariant to it); it keeps
    // M the textbook one.
    let scale = (2.0 - OMEGA) / OMEGA;
    z.iter_mut().for_each(|v| *v *= scale);
}

impl DistPreconditioner for SsorPreconditioner {
    fn apply(&self, machine: &mut Machine, r: &DistVector) -> DistVector {
        let mut z = DistVector::zeros(r.descriptor().clone());
        self.apply_into(machine, r, &mut z);
        z
    }
    fn apply_into(&self, machine: &mut Machine, r: &DistVector, z: &mut DistVector) {
        for v in [r, &*z] {
            assert!(
                v.descriptor().same_layout(self.diag.descriptor()),
                "ssor: operands must be aligned with the operator's rows"
            );
        }
        for (p, block) in self.blocks.iter().enumerate() {
            sweep(block, self.diag.local(p), r.local(p), z.local_mut(p));
        }
        // Two flops an off-diagonal entry, seven a row.
        let blocks = &self.blocks;
        machine.compute_each(
            |p| 2 * blocks[p].nnz() + 7 * blocks[p].n_rows(),
            "ssor-apply",
        );
    }
    fn name(&self) -> &'static str {
        "ssor"
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

    /// Block SSOR at NP = 4 sweeps each processor's own rows: no word
    /// moves, and CG still needs fewer iterations than without it.
    #[test]
    fn block_ssor_moves_no_words_and_still_cuts_iterations() {
        use crate::{solve, Krylov, NullObserver, StopCriterion};
        let a = gen::poisson_2d(16, 16);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let np = 4;
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let ssor = SsorPreconditioner::new(&op).unwrap();
        assert_eq!(ssor.name(), "ssor");
        let stop = StopCriterion::RelativeResidual(1e-8);
        let mut iterations = [0; 2];
        let mut machine = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        for (i, precond) in [None, Some(&ssor as &dyn DistPreconditioner)]
            .into_iter()
            .enumerate()
        {
            machine.reset();
            let method = Krylov::Cg {
                precond,
                recovery: None,
            };
            let s = solve(&mut machine, &op, &b, method, stop, 1000, &mut NullObserver).unwrap();
            assert!(s.stats.converged);
            iterations[i] = s.stats.iterations;
        }
        assert!(iterations[1] < iterations[0], "{iterations:?}");
        let applies = machine.trace().with_label("ssor-apply").count();
        let words: usize = machine
            .trace()
            .with_label("ssor-apply")
            .map(|e| e.words)
            .sum();
        assert_eq!((applies, words), (iterations[1], 0));
    }

    #[test]
    fn ssor_rejects_a_zero_pivot() {
        let coo =
            CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let op = RowwiseCsr::block(CsrMatrix::from_coo(&coo), 1, DataArrayLayout::RowAligned);
        assert!(matches!(
            SsorPreconditioner::new(&op),
            Err(SolverError::SingularMatrix { pivot: 1, .. })
        ));
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
