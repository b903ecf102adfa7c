//! The allocation gate for multigrid-preconditioned CG: once two
//! iterations have run, an MG-PCG iteration — product, reductions, updates and
//! one whole V-cycle — performs **zero** heap allocations when the
//! machine keeps no events ([`TraceLevel::Off`] or
//! [`TraceLevel::Summary`], no sink). The protected solve is held to the
//! same between its checkpoints, which copy `x`, `r` and `p` by design.
//! Same counting allocator and observer as the solvers' gate.

use hpf_machine::{CostModel, Machine, Topology, TraceLevel};
use hpf_mg::{GridDims, MgHierarchy, MgPreconditioner};
use hpf_solvers::{solve, RecoveryConfig, StopCriterion};
use hpf_sparse::gen;

#[path = "../../solvers/tests/counting/mod.rs"]
mod counting;
use counting::Tally;

const NP: usize = 8;
const MAX_ITERS: usize = 100;
const STOP: StopCriterion = StopCriterion::RelativeResidual(1e-13);

/// Run one solve at `level` and return the allocation tally at the end
/// of each iteration.
fn tally(pre: &MgPreconditioner, b: &[f64], level: TraceLevel, protected: bool) -> Vec<usize> {
    let mut m = Machine::new(NP, Topology::Hypercube, CostModel::mpp_1995());
    m.set_trace_level(level);
    let mut tally = Tally(Vec::with_capacity(MAX_ITERS));
    let (op, method) = pre.pcg(protected.then(RecoveryConfig::default));
    let stats = solve(&mut m, op, b, method, STOP, MAX_ITERS, &mut tally)
        .unwrap()
        .stats;
    assert!(stats.converged);
    if level == TraceLevel::Summary {
        assert!(m.trace().is_empty());
        assert!(m.digest().events > 100, "nothing was folded");
    }
    tally.0
}

#[test]
fn an_mg_pcg_iteration_allocates_nothing_when_no_event_is_kept() {
    // The protected solve saves a checkpoint every 8 iterations
    // (`CHECKPOINT_INTERVAL` in `hpf-solvers`' `recovery.rs`).
    let every = 8;
    // Six levels is as deep as 63² goes (down to one row), and deeper
    // than a span table of four levels covered.
    for (dims, levels) in [
        (GridDims::d2(63, 63), 4),
        (GridDims::d2(63, 63), 6),
        (GridDims::d3(15, 15, 15), 3),
    ] {
        let h = MgHierarchy::build(dims, levels, NP).unwrap();
        let (_, b) = gen::rhs_for_known_solution(h.fine_matrix());
        let pre = MgPreconditioner::new(h);
        for level in [TraceLevel::Off, TraceLevel::Summary] {
            for protected in [false, true] {
                let what = format!("{dims}, {levels} levels, {level:?}, protected={protected}");
                let t = tally(&pre, &b, level, protected);
                assert!(t.len() > every, "{what}: only {} iterations ran", t.len());
                // `t[k] - t[k - 1]` is what iteration `k + 1` allocated,
                // together with the checkpoint saved after iteration `k`.
                // Counted from the end of iteration 2, as the solvers'
                // gate does: the first direction update comes after the
                // first sample, and its label is new to a `Summary` digest.
                for k in 2..t.len() {
                    if protected && k % every == 0 {
                        continue;
                    }
                    assert_eq!(
                        t[k] - t[k - 1],
                        0,
                        "{what}: iteration {} allocated (tally per iteration: {t:?})",
                        k + 1
                    );
                }
            }
        }
    }
}
