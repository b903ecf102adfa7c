//! # hpf-mg — distributed multigrid-preconditioned CG
//!
//! The HPCG-class workload on the simulated HPF machine: conjugate
//! gradients preconditioned by one geometric multigrid V-cycle per
//! iteration, the benchmark shape the GraphBLAS HPCG work uses where
//! the paper's study stopped at Jacobi PCG.
//!
//! The pieces, each priced on the machine:
//!
//! * [`MgHierarchy`] — 2–4 levels over the Poisson generators (5-point
//!   2-D / 7-point 3-D), Galerkin coarse operators `Pᵀ A P` of
//!   bilinear / trilinear interpolation, `(BLOCK)` descriptors per
//!   level, precomputed halo and transfer traffic matrices, and a
//!   Cholesky factor at the bottom stored as its envelope. Restriction
//!   and prolongation apply `P` by its 1-D weights.
//! * Block symmetric Gauss-Seidel smoothing — forward+backward sweeps
//!   over each processor's diagonal block (pure local compute), with
//!   cross-block couplings handled by the residual's priced boundary
//!   exchange. A per-level sweep plan packs each row's in-block lower
//!   and upper runs in the order the sweeps read them, stepping through
//!   the blocks in lock-step.
//! * [`MgPreconditioner`] — the V(1,1)-cycle as a
//!   [`DistPreconditioner`](hpf_solvers::DistPreconditioner), plugging
//!   into [`hpf_solvers::solve`] through [`MgPreconditioner::pcg`],
//!   plain or under checkpoint/rollback protection. Restriction and prolongation are
//!   typed `Redistribute` events between level descriptors; all events
//!   carry `vcycle/level=l/...` span paths. Every level vector lives in
//!   a workspace the preconditioner lends out, so an application
//!   allocates nothing.
//!
//! ```
//! use hpf_mg::{pcg_mg_distributed, GridDims, MgHierarchy, MgPreconditioner};
//! use hpf_machine::{CostModel, Machine, Topology};
//! use hpf_solvers::StopCriterion;
//! use hpf_sparse::gen;
//!
//! let h = MgHierarchy::build(GridDims::d2(15, 15), 3, 4).unwrap();
//! let (_, b) = gen::rhs_for_known_solution(h.fine_matrix());
//! let pre = MgPreconditioner::new(h);
//! let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
//! let (x, stats) =
//!     pcg_mg_distributed(&mut m, &pre, &b, StopCriterion::RelativeResidual(1e-8), 200).unwrap();
//! assert!(stats.converged);
//! assert_eq!(x.len(), 225);
//! ```

pub mod hierarchy;
mod smoother;
pub mod vcycle;

pub use hierarchy::{GridDims, MgError, MgHierarchy};
pub use vcycle::MgPreconditioner;

use hpf_core::DistVector;
use hpf_machine::Machine;
use hpf_solvers::{
    solve, NullObserver, RecoveryConfig, RecoveryStats, SolveStats, SolverError, StopCriterion,
};

/// Multigrid-preconditioned CG over the hierarchy's finest operator:
/// [`solve`] by [`MgPreconditioner::pcg`], unobserved.
pub fn pcg_mg_distributed(
    machine: &mut Machine,
    pre: &MgPreconditioner,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError> {
    let (op, method) = pre.pcg(None);
    let s = solve(machine, op, b, method, stop, max_iters, &mut NullObserver)?;
    Ok((s.x, s.stats))
}

/// Fault-tolerant multigrid-preconditioned CG (checkpoint/rollback).
pub fn pcg_mg_distributed_protected(
    machine: &mut Machine,
    pre: &MgPreconditioner,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
    config: RecoveryConfig,
) -> Result<(DistVector, SolveStats, RecoveryStats), SolverError> {
    let (op, method) = pre.pcg(Some(config));
    let s = solve(machine, op, b, method, stop, max_iters, &mut NullObserver)?;
    let rec = s.recovery.expect("a protected solve reports its recovery");
    Ok((s.x, s.stats, rec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{CostModel, FaultPlan, FaultRates, Topology};
    use hpf_solvers::{pcg_jacobi_distributed, RecordingObserver};
    use hpf_sparse::gen;
    use proptest::prelude::*;

    fn machine(np: usize) -> Machine {
        Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
    }

    #[test]
    fn mg_pcg_cuts_iterations_at_least_5x_vs_jacobi() {
        let np = 4;
        let h = MgHierarchy::build(GridDims::d2(31, 31), 3, np).unwrap();
        let (_, b) = gen::rhs_for_known_solution(h.fine_matrix());
        let op = h.fine_operator();
        let stop = StopCriterion::RelativeResidual(1e-8);

        let mut m_j = machine(np);
        let (_, s_j) = pcg_jacobi_distributed(&mut m_j, &op, &b, stop, 5000).unwrap();
        let pre = MgPreconditioner::new(h);
        let mut m_mg = machine(np);
        let (x, s_mg) = pcg_mg_distributed(&mut m_mg, &pre, &b, stop, 5000).unwrap();

        assert!(s_j.converged && s_mg.converged);
        assert!(
            5 * s_mg.iterations <= s_j.iterations,
            "MG {} vs Jacobi {} iterations",
            s_mg.iterations,
            s_j.iterations
        );
        // And the answer is right.
        let ax = pre
            .hierarchy()
            .fine_matrix()
            .matvec(&x.to_global())
            .unwrap();
        let rel: f64 = ax
            .iter()
            .zip(&b)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt()
            / b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rel < 1e-7);
    }

    #[test]
    fn protected_mg_pcg_survives_faults() {
        let np = 4;
        let h = MgHierarchy::build(GridDims::d2(15, 15), 3, np).unwrap();
        let (x_true, b) = gen::rhs_for_known_solution(h.fine_matrix());
        let pre = MgPreconditioner::new(h);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m = machine(np);
        m.set_fault_plan(FaultPlan::new().with_bit_flip(40, 1, 62, 3));
        let (x, s, rec) =
            pcg_mg_distributed_protected(&mut m, &pre, &b, stop, 500, RecoveryConfig::default())
                .unwrap();
        assert!(s.converged, "{s:?} {rec:?}");
        let err: f64 = x
            .to_global()
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-7 * x_true.len() as f64);
    }

    /// Satellite: two MG-PCG runs under the same `FaultPlan` seed
    /// produce byte-identical convergence CSVs.
    #[test]
    fn mg_pcg_convergence_csv_is_deterministic_under_seeded_faults() {
        let run = || {
            let np = 4;
            let h = MgHierarchy::build(GridDims::d2(15, 15), 2, np).unwrap();
            let (_, b) = gen::rhs_for_known_solution(h.fine_matrix());
            let pre = MgPreconditioner::new(h);
            let mut m = machine(np);
            m.set_fault_plan(FaultPlan::random(
                42,
                np,
                4000,
                FaultRates::transient(0.002),
            ));
            let mut obs = RecordingObserver::new();
            let (op, method) = pre.pcg(Some(RecoveryConfig::default()));
            let stop = StopCriterion::RelativeResidual(1e-9);
            let s = solve(&mut m, op, &b, method, stop, 500, &mut obs).unwrap();
            assert!(s.stats.converged);
            let mut csv = String::from("iteration,residual_norm,sim_time,rollbacks\n");
            for s in &obs.samples {
                csv.push_str(&format!(
                    "{},{:.17e},{:.17e},{}\n",
                    s.iteration, s.residual_norm, s.sim_time, s.rollbacks
                ));
            }
            csv
        };
        let (a, b) = (run(), run());
        assert!(a.lines().count() > 2);
        assert_eq!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn mg_pcg_works_in_3d() {
        let np = 8;
        let h = MgHierarchy::build(GridDims::d3(7, 7, 7), 2, np).unwrap();
        let (_, b) = gen::rhs_for_known_solution(h.fine_matrix());
        let op = h.fine_operator();
        let stop = StopCriterion::RelativeResidual(1e-8);
        let mut m_j = machine(np);
        let (_, s_j) = pcg_jacobi_distributed(&mut m_j, &op, &b, stop, 5000).unwrap();
        let pre = MgPreconditioner::new(h);
        let mut m = machine(np);
        let (_, s) = pcg_mg_distributed(&mut m, &pre, &b, stop, 5000).unwrap();
        assert!(s.converged);
        assert!(s.iterations < s_j.iterations);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Satellite: one V-cycle on a random SPD Poisson instance is a
        /// symmetric positive operator — probe with unit vectors eᵢ/eⱼ
        /// and compare the cross terms.
        #[test]
        fn vcycle_probe_symmetry(
            nx in 5usize..12,
            ny in 5usize..12,
            np in 1usize..6,
            seed in 0usize..1000,
        ) {
            use hpf_solvers::DistPreconditioner;
            let h = MgHierarchy::build(GridDims::d2(nx, ny), 2, np).unwrap();
            let n = h.fine_matrix().n_rows();
            let desc = h.levels[0].desc.clone();
            let pre = MgPreconditioner::new(h);
            let i = seed % n;
            let j = (seed * 7 + 3) % n;
            let mut m = machine(np);
            let mut ei = vec![0.0; n];
            ei[i] = 1.0;
            let bi = pre
                .apply(&mut m, &DistVector::from_global(desc.clone(), &ei))
                .to_global();
            let mut ej = vec![0.0; n];
            ej[j] = 1.0;
            let bj = pre
                .apply(&mut m, &DistVector::from_global(desc, &ej))
                .to_global();
            let scale = bi[j].abs().max(bj[i].abs()).max(1e-30);
            prop_assert!((bi[j] - bj[i]).abs() <= 1e-10 * scale);
            prop_assert!(bi[i] > 0.0);
        }
    }
}
