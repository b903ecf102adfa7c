//! Closed-form cost prediction for traced events.
//!
//! The machine *charges* every operation with the analytic formulas from
//! the paper's Section 4 ([`Topology`] collectives over a [`CostModel`]),
//! and the trace records what was actually charged — including fault
//! penalties, straggler skew, and load imbalance, none of which the
//! formulas know about. [`predicted_time`] re-evaluates the clean closed
//! form for one event from the metadata stamped on it
//! ([`Event::payload_words`], [`Event::participants`], [`Event::hops`]),
//! so an observer can compare *predicted* against *measured* time and
//! attribute the drift. This module lives in `hpf-machine` because only
//! the machine knows its own recording conventions (e.g. that
//! reduce-scatter events land under [`EventKind::Reduce`] with an
//! aggregate-volume `words` of `w·p·(p-1)`).

use crate::cost::CostModel;
use crate::topology::Topology;
use crate::trace::{Event, EventKind};

/// The closed-form time the cost model predicts for `event`, or `None`
/// when no analytic prediction exists:
///
/// * [`EventKind::Redistribute`] — the exchange cost is data-dependent
///   (per-processor traffic matrices), not a closed form of one size;
/// * [`EventKind::Fault`] — injected penalties are drift by definition;
/// * data-moving events whose `payload_words` is 0 while `words` is not —
///   traces written before the metadata existed.
///
/// For parallel [`EventKind::Compute`] phases (non-empty `proc_times`)
/// the prediction is the *balanced* time `t_flop · flops / p`: measured
/// minus predicted is then exactly the load-imbalance penalty, the
/// quantity Section 5.2 of the paper reasons about. Serial compute
/// phases (empty `proc_times`) are predicted at their full `t_flop ·
/// flops`.
pub fn predicted_time(event: &Event, topology: Topology, cost: &CostModel) -> Option<f64> {
    let p = event.participants;
    let w = event.payload_words;
    match event.kind {
        EventKind::Compute => {
            let flops = event.flops as f64;
            if event.proc_times.is_empty() {
                Some(cost.t_flop * flops)
            } else {
                Some(cost.t_flop * flops / p.max(1) as f64)
            }
        }
        EventKind::Barrier => Some(topology.allreduce_time(p, 0, cost)),
        EventKind::Redistribute | EventKind::Fault => None,
        _ if event.words > 0 && w == 0 => None, // pre-metadata trace
        EventKind::Send => Some(cost.message(w, event.hops)),
        EventKind::Broadcast => Some(topology.broadcast_time(p, w, cost)),
        EventKind::AllGather => Some(topology.allgather_time(p, w, cost)),
        EventKind::AllReduce => Some(topology.allreduce_time(p, w, cost)),
        EventKind::AllToAll => Some(topology.alltoall_time(p, w, cost)),
        EventKind::Reduce => {
            // Reduce and reduce-scatter share a kind; the aggregate
            // volume separates them (w·(p-1) vs w·p·(p-1)).
            if event.words == w * p * p.saturating_sub(1) && p > 1 {
                Some(topology.reduce_scatter_time(p, w, cost))
            } else {
                Some(topology.reduce_time(p, w, cost))
            }
        }
        // The emitting site stamps `payload_words` with the *total* words
        // funnelled through the root, so unequal per-processor block
        // sizes (multigrid coarse levels) are priced from what moved.
        EventKind::Gather | EventKind::Scatter => Some(topology.gather_time(p, w, cost)),
    }
}

/// Closed-form simulated seconds for one rowwise-CG iteration on an
/// `np`-processor machine: the §4 pricing of the iteration's phases
/// *before any job runs*, usable by admission control at submit time.
///
/// The rowwise `(BLOCK, *)` iteration is: replicate the direction vector
/// (allgather of `n/np` per processor), the local matvec (`2·nnz/np`
/// flops balanced), two dot products (`2·n/np` flops each plus a
/// one-word allreduce merge), and three saxpys (`2·n/np` flops each).
/// This is deliberately the *ideal* price — no faults, no imbalance — so
/// admission errs toward accepting; the calibration layer above scales
/// it to observed wall time.
pub fn cg_iteration_seconds(
    n: usize,
    nnz: usize,
    np: usize,
    topology: Topology,
    cost: &CostModel,
) -> f64 {
    let np = np.max(1);
    let block = n.div_ceil(np);
    let gather = topology.allgather_time(np, block, cost);
    let matvec = cost.t_flop * (2 * nnz).div_ceil(np) as f64;
    let dots = 2.0 * (cost.t_flop * (2 * block) as f64 + topology.allreduce_time(np, 1, cost));
    let saxpys = 3.0 * cost.t_flop * (2 * block) as f64;
    gather + matvec + dots + saxpys
}

/// Sum of [`predicted_time`] over `events`, counting events with no
/// prediction at their *measured* time (so the total stays comparable to
/// the trace's measured total, and unpredictable events contribute zero
/// drift rather than phantom savings).
pub fn predicted_or_measured_total(events: &[Event], topology: Topology, cost: &CostModel) -> f64 {
    events
        .iter()
        .map(|e| predicted_time(e, topology, cost).unwrap_or(e.time))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::machine::Machine;

    fn drive(machine: &mut Machine) {
        machine.compute_all(&[250, 250, 250, 250], "balanced");
        machine.compute_serial(123, "serial");
        machine.send(0, 3, 40, "msg");
        machine.barrier("sync");
        machine.broadcast(1, 64, "bcast");
        machine.allgather(32, "ag");
        machine.reduce(0, 16, "red");
        machine.allreduce(8, "ared");
        machine.reduce_scatter(4, "rs");
        machine.alltoall(2, "a2a");
        machine.gather(0, 8, "gat");
        machine.scatter(0, 8, "sca");
        machine.group_collective(&[0, 1], EventKind::AllGather, 5, "row-ag");
        machine.group_collective(&[0, 2], EventKind::Reduce, 5, "col-rs");
        machine.group_collective(&[1, 3], EventKind::AllReduce, 3, "col-ar");
        machine.group_collective(&[0, 1, 2], EventKind::Broadcast, 7, "row-bc");
    }

    /// On a clean machine (no faults, no skew, balanced compute) the
    /// oracle's closed forms reproduce the recorded times exactly — this
    /// pins the per-kind recording conventions to the formulas.
    #[test]
    fn clean_machine_predictions_match_recorded_times_on_every_topology() {
        for topology in [
            Topology::Hypercube,
            Topology::Mesh2D,
            Topology::Ring,
            Topology::FullyConnected,
            Topology::Bus,
        ] {
            let mut m = Machine::new(4, topology, CostModel::mpp_1995());
            drive(&mut m);
            assert!(!m.trace().is_empty());
            for e in m.trace().events() {
                let predicted = predicted_time(e, topology, m.cost_model())
                    .unwrap_or_else(|| panic!("no prediction for {:?} '{}'", e.kind, e.label));
                assert!(
                    (predicted - e.time).abs() <= 1e-12 * e.time.max(1.0),
                    "{topology:?} {:?} '{}': predicted {predicted}, recorded {}",
                    e.kind,
                    e.label,
                    e.time
                );
            }
        }
    }

    #[test]
    fn imbalanced_compute_predicts_the_balanced_time() {
        let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        m.compute_all(&[1000, 0, 0, 0], "skewed");
        let e = &m.trace().events()[0];
        let predicted = predicted_time(e, Topology::Hypercube, m.cost_model()).unwrap();
        // Balanced prediction: 1000 flops / 4 procs; measured is the
        // slowest processor's full 1000.
        assert!((predicted - m.cost_model().flops(250)).abs() < 1e-15);
        assert!(e.time > predicted);
    }

    #[test]
    fn straggler_penalty_shows_up_as_drift_not_prediction() {
        let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        m.set_fault_plan(FaultPlan::new().with_straggler(0, 2, 8.0, 10));
        let mut clean = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        for machine in [&mut m, &mut clean] {
            machine.compute_uniform(100, "warm");
            machine.allreduce(1, "dot");
            machine.compute_uniform(500, "work"); // op 2: skewed on m
        }
        let skewed = m.trace().events().last().unwrap();
        let predicted = predicted_time(skewed, Topology::Hypercube, m.cost_model()).unwrap();
        let clean_t = clean.trace().events().last().unwrap().time;
        assert!(
            (predicted - clean_t).abs() < 1e-15,
            "prediction stays clean"
        );
        assert!(skewed.time > 4.0 * predicted, "straggler is pure drift");
    }

    #[test]
    fn faults_and_redistributes_have_no_prediction() {
        let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        m.set_fault_plan(FaultPlan::new().with_message_drop(0, 0));
        m.allreduce(1, "dot");
        let mat = vec![vec![0, 9, 0, 0], vec![0; 4], vec![0; 4], vec![0; 4]];
        m.exchange(&mat, "redist");
        let fault = m
            .trace()
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Fault)
            .unwrap();
        let redist = m
            .trace()
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Redistribute)
            .unwrap();
        assert!(predicted_time(fault, Topology::Hypercube, m.cost_model()).is_none());
        assert!(predicted_time(redist, Topology::Hypercube, m.cost_model()).is_none());
        // The lenient total counts both at their measured time.
        let total =
            predicted_or_measured_total(m.trace().events(), Topology::Hypercube, m.cost_model());
        assert!((total - m.trace().total_time()).abs() < 1e-12 * total);
    }

    /// The admission estimate is the same price the machine charges when
    /// the rowwise iteration's phases are driven by hand.
    #[test]
    fn cg_iteration_estimate_matches_a_driven_iteration() {
        let (np, n, nnz) = (8usize, 1024usize, 5 * 1024usize);
        let cost = CostModel::mpp_1995();
        let mut m = Machine::new(np, Topology::Hypercube, cost);
        let block = n.div_ceil(np);
        m.allgather(block, "replicate-p");
        m.compute_uniform((2 * nnz).div_ceil(np), "matvec");
        for _ in 0..2 {
            m.compute_uniform(2 * block, "dot-local");
            m.allreduce(1, "dot-merge");
        }
        for _ in 0..3 {
            m.compute_uniform(2 * block, "saxpy");
        }
        let driven = m.elapsed();
        let est = cg_iteration_seconds(n, nnz, np, Topology::Hypercube, &cost);
        assert!(
            (est - driven).abs() <= 1e-9 * driven,
            "estimate {est} vs driven {driven}"
        );
        assert!(cg_iteration_seconds(0, 0, 0, Topology::Hypercube, &cost) >= 0.0);
    }

    #[test]
    fn pre_metadata_events_are_not_predicted() {
        let mut e = Event {
            kind: EventKind::AllGather,
            participants: 8,
            words: 800,
            flops: 0,
            time: 1.0,
            start: 0.0,
            span: String::new(),
            label: "old".into(),
            proc_times: Vec::new(),
            payload_words: 0,
            hops: 0,
        };
        let c = CostModel::mpp_1995();
        assert!(predicted_time(&e, Topology::Hypercube, &c).is_none());
        e.payload_words = 100;
        assert!(predicted_time(&e, Topology::Hypercube, &c).is_some());
    }
}
