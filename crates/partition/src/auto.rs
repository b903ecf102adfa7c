//! The oracle-driven auto-repartitioner.
//!
//! [`cg_auto_repartition`] watches a distributed CG solve in segments of
//! 4 iterations. After each segment it reads two signals off the machine
//! trace:
//!
//! * **measured load imbalance** — `max/mean` per-processor busy time of
//!   the segment's bulk-compute events (the same statistic
//!   `hpf-obs::analysis::load_imbalance` reports);
//! * **oracle drift** — `(measured − predicted) / predicted` over the
//!   segment, where predicted is `hpf-machine::predict`'s closed forms.
//!   Because the oracle predicts the *balanced* compute time, drift is
//!   dominated by exactly the load-imbalance penalty §5.2 of the paper
//!   reasons about.
//!
//! When either signal crosses its threshold (imbalance above 1.25, drift
//! above 0.5), at most once a solve, the driver charges a
//! `REDISTRIBUTE USING <name>` exchange on the machine (atom-granularity
//! traffic for the trio + solver vectors), rebuilds the distributed
//! operator under the new layout, notifies the observer via
//! [`IterObserver::on_repartition`], and continues the solve from the
//! current iterate by residual correction (`A·e = r`, `x ← x + e` — exact
//! for CG's Krylov restart semantics).

use crate::partitioners::connectivity_of;
use hpf_core::matvec::RowwiseCsr;
use hpf_dist::atoms::{AtomAssignment, AtomSpec};
use hpf_dist::partition::contiguous_projection;
use hpf_dist::redistribute::redistribute_using;
use hpf_dist::Partitioner;
use hpf_machine::predict::predicted_or_measured_total;
use hpf_machine::{Event, EventKind, Machine};
use hpf_solvers::{solve, IterObserver, Krylov, SolveStats, SolverError, StopCriterion};
use hpf_sparse::CsrMatrix;
use std::sync::Arc;

/// Iterations per observation segment.
const CHECK_EVERY: usize = 4;
/// Fire when measured per-processor busy-time imbalance (`max/mean`)
/// exceeds this.
const IMBALANCE_THRESHOLD: f64 = 1.25;
/// Fire when relative oracle drift over the segment exceeds this.
const DRIFT_THRESHOLD: f64 = 0.5;
/// Cap on `REDISTRIBUTE USING` events per solve.
const MAX_REPARTITIONS: usize = 1;

/// One `REDISTRIBUTE USING` fired by the policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RepartitionEvent {
    /// Cumulative iteration count when the move happened.
    pub at_iteration: usize,
    /// Partitioner that produced the new layout.
    pub partitioner: String,
    /// Words charged for moving the trio + solver vectors.
    pub words_moved: usize,
    /// Measured busy-time imbalance of the segment that triggered it.
    pub imbalance_before: f64,
    /// Measured busy-time imbalance of the first segment after the move
    /// (`NaN` if the solve converged before another segment completed).
    pub imbalance_after: f64,
}

/// Result of an auto-repartitioned solve.
#[derive(Debug, Clone)]
pub struct AutoRepartitionOutcome {
    /// Global solution vector.
    pub x: Vec<f64>,
    /// Aggregate statistics across all segments.
    pub stats: SolveStats,
    /// Every layout move, in order.
    pub repartitions: Vec<RepartitionEvent>,
    /// Measured busy-time imbalance per completed segment.
    pub segment_imbalances: Vec<f64>,
    /// Final atom assignment (the layout the solve finished on).
    pub assignment: AtomAssignment,
}

/// `max/mean` per-processor busy time over bulk-compute events in a
/// trace slice — `None` when no event carries per-processor durations.
pub fn segment_imbalance(events: &[Event]) -> Option<f64> {
    let mut busy: Vec<f64> = Vec::new();
    for e in events {
        if e.kind != EventKind::Compute || e.proc_times.is_empty() {
            continue;
        }
        if busy.len() < e.proc_times.len() {
            busy.resize(e.proc_times.len(), 0.0);
        }
        for (b, t) in busy.iter_mut().zip(e.proc_times.iter()) {
            *b += t;
        }
    }
    if busy.is_empty() {
        return None;
    }
    let max = busy.iter().cloned().fold(0.0f64, f64::max);
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    if mean <= 0.0 {
        Some(0.0)
    } else {
        Some(max / mean)
    }
}

/// Relative oracle drift `(measured − predicted) / predicted` over a
/// trace slice; 0.0 when the slice predicts to zero time.
pub fn segment_drift(events: &[Event], machine: &Machine) -> f64 {
    let measured: f64 = events.iter().map(|e| e.time).sum();
    let predicted = predicted_or_measured_total(events, machine.topology(), machine.cost_model());
    if predicted <= 0.0 {
        0.0
    } else {
        (measured - predicted) / predicted
    }
}

/// Distributed CG with mid-flight `REDISTRIBUTE USING <partitioner>`.
///
/// Starts from `initial` (atoms = rows of `matrix`, weights = nnz), runs
/// CG in segments of `CHECK_EVERY` (4) iterations, and moves the layout
/// between segments as the module docs describe. Scattered target
/// layouts are lowered to contiguous row cuts for the operator
/// (preserving the partitioner's load profile — see
/// [`contiguous_projection`]); the redistribution traffic itself is
/// charged at atom granularity.
#[allow(clippy::too_many_arguments)]
pub fn cg_auto_repartition(
    machine: &mut Machine,
    matrix: &CsrMatrix,
    b: &[f64],
    rel_tol: f64,
    max_iters: usize,
    initial: &AtomAssignment,
    partitioner: &dyn Partitioner,
    obs: &mut dyn IterObserver,
) -> Result<AutoRepartitionOutcome, SolverError> {
    let n = matrix.n_rows();
    if b.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            got: b.len(),
        });
    }
    let np = machine.np();
    assert_eq!(initial.np, np, "assignment/machine size mismatch");

    let spec = AtomSpec::from_pointer_array(matrix.row_ptr());
    let graph = connectivity_of(matrix);

    let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    let mut stats = SolveStats::new();
    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec();
    let mut r_norm = b_norm;
    let mut assignment = initial.clone();
    let mut repartitions: Vec<RepartitionEvent> = Vec::new();
    let mut segment_imbalances: Vec<f64> = Vec::new();
    // Index into `repartitions` of the event still waiting for its
    // "after" segment measurement.
    let mut pending_after: Option<usize> = None;

    if b_norm == 0.0 {
        stats.converged = true;
        stats.residual_norm = 0.0;
        return Ok(AutoRepartitionOutcome {
            x,
            stats,
            repartitions,
            segment_imbalances,
            assignment,
        });
    }
    let target_abs = rel_tol * b_norm;
    // One copy for the whole solve; each segment's operator shares it.
    let shared = Arc::new(matrix.clone());

    while stats.iterations < max_iters {
        let row_cuts = contiguous_projection(&spec, &assignment);
        let op = RowwiseCsr::with_row_cuts(Arc::clone(&shared), np, row_cuts);
        let segment_iters = CHECK_EVERY.min(max_iters - stats.iterations);
        let mark = machine.trace().len();

        // Residual-correction restart: solve A·e = r to the *global*
        // absolute target, so the segment's recurrence residual tracks
        // ‖b − A(x+e)‖ directly.
        let stop = StopCriterion::AbsoluteResidual(target_abs);
        let segment = solve(machine, &op, &r, Krylov::cg(), stop, segment_iters, obs)?;
        let (e, seg) = (segment.x.to_global(), segment.stats);
        for (xi, ei) in x.iter_mut().zip(e.iter()) {
            *xi += ei;
        }
        stats.iterations += seg.iterations;
        stats.matvecs += seg.matvecs;
        stats.dots += seg.dots;
        stats.axpys += seg.axpys;

        // True residual (serial recompute; not charged — it models the
        // host-side convergence check the driver owns).
        let ax = matrix.matvec(&x).expect("dimension verified above");
        for ((ri, bi), axi) in r.iter_mut().zip(b.iter()).zip(ax.iter()) {
            *ri = bi - axi;
        }
        r_norm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        stats.residual_norm = r_norm;

        let events = &machine.trace().events()[mark..];
        let imbalance = segment_imbalance(events).unwrap_or(0.0);
        let drift = segment_drift(events, machine);
        segment_imbalances.push(imbalance);
        if let Some(idx) = pending_after.take() {
            repartitions[idx].imbalance_after = imbalance;
        }

        if r_norm <= target_abs {
            stats.converged = true;
            break;
        }
        if seg.iterations == 0 {
            // Stagnated segment; avoid spinning forever.
            break;
        }

        let should_fire = repartitions.len() < MAX_REPARTITIONS
            && (imbalance > IMBALANCE_THRESHOLD || drift > DRIFT_THRESHOLD);
        if should_fire {
            // Trio (idx + values per element, ptr entry per atom) plus
            // the x and r vector elements riding along: 2 words/element
            // + 3 words/atom.
            let (next, words) =
                redistribute_using(machine, &spec, &graph, &assignment, partitioner, 2, 3);
            if next != assignment {
                obs.on_repartition(stats.iterations, partitioner.name());
                repartitions.push(RepartitionEvent {
                    at_iteration: stats.iterations,
                    partitioner: partitioner.name().to_string(),
                    words_moved: words,
                    imbalance_before: imbalance,
                    imbalance_after: f64::NAN,
                });
                pending_after = Some(repartitions.len() - 1);
                assignment = next;
            }
        }
    }
    stats.residual_norm = r_norm;
    Ok(AutoRepartitionOutcome {
        x,
        stats,
        repartitions,
        segment_imbalances,
        assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioners::{BalancedContiguous, NnzBisection};
    use hpf_machine::{CostModel, Topology};
    use hpf_solvers::RecordingObserver;
    use hpf_sparse::gen;

    fn block_matrix() -> CsrMatrix {
        // Very uneven dense blocks: equal-row-count layouts are badly
        // imbalanced in nnz (one 40-row dense block vs five 4-row ones).
        gen::block_irregular_mesh(&[40, 4, 4, 4, 4, 4], 9)
    }

    #[test]
    fn solves_to_tolerance_without_firing_on_balanced_layouts() {
        let a = gen::poisson_2d(8, 8);
        let n = a.n_rows();
        let b = vec![1.0; n];
        let spec = AtomSpec::from_pointer_array(a.row_ptr());
        let initial = BalancedContiguous.partition(&spec, &connectivity_of(&a), 4);
        let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        let mut obs = RecordingObserver::new();
        let out = cg_auto_repartition(&mut m, &a, &b, 1e-8, 500, &initial, &NnzBisection, &mut obs)
            .unwrap();
        assert!(out.stats.converged, "residual {}", out.stats.residual_norm);
        // Verify the actual solution.
        let ax = a.matvec(&out.x).unwrap();
        let err = ax
            .iter()
            .zip(b.iter())
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        assert!(err <= 1e-6, "‖Ax−b‖ = {err}");
        // Balanced from the start: the policy must not fire.
        assert!(out.repartitions.is_empty());
        assert!(obs.repartitions.is_empty());
    }

    #[test]
    fn fires_on_imbalanced_block_matrix_and_reduces_imbalance() {
        let a = block_matrix();
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let spec = AtomSpec::from_pointer_array(a.row_ptr());
        // Deliberately bad start: equal row counts ignore the huge block.
        let initial = AtomAssignment::atom_block(&spec, 4);
        let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        let mut obs = RecordingObserver::new();
        let out = cg_auto_repartition(
            &mut m,
            &a,
            &b,
            1e-10,
            400,
            &initial,
            &NnzBisection,
            &mut obs,
        )
        .unwrap();
        assert!(out.stats.converged);
        assert_eq!(
            out.repartitions.len(),
            MAX_REPARTITIONS,
            "policy should fire exactly once; segment imbalances {:?}",
            out.segment_imbalances
        );
        let ev = &out.repartitions[0];
        assert!(ev.words_moved > 0);
        assert!(ev.imbalance_before > IMBALANCE_THRESHOLD);
        assert!(
            ev.imbalance_after < ev.imbalance_before,
            "imbalance {} -> {}",
            ev.imbalance_before,
            ev.imbalance_after
        );
        // The machine carries the typed trace event.
        let redists: Vec<_> = m
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Redistribute)
            .collect();
        assert_eq!(redists.len(), 1);
        assert_eq!(redists[0].label, "REDISTRIBUTE USING nnz-bisect");
        // Observer heard about it at the same iteration.
        assert_eq!(obs.repartitions.len(), 1);
        assert_eq!(obs.repartitions[0].1, "nnz-bisect");
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let a = gen::poisson_2d(4, 4);
        let spec = AtomSpec::from_pointer_array(a.row_ptr());
        let initial = AtomAssignment::atom_block(&spec, 2);
        let mut m = Machine::new(2, Topology::Hypercube, CostModel::mpp_1995());
        let out = cg_auto_repartition(
            &mut m,
            &a,
            &vec![0.0; a.n_rows()],
            1e-8,
            10,
            &initial,
            &NnzBisection,
            &mut hpf_solvers::NullObserver,
        )
        .unwrap();
        assert!(out.stats.converged);
        assert_eq!(out.stats.iterations, 0);
        assert!(out.x.iter().all(|&v| v == 0.0));
    }
}
