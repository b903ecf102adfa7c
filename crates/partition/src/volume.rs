//! Pricing modeled partition quality in oracle seconds.
//!
//! [`comm_volume`] counts words; this module turns those words into
//! simulated seconds using the same closed forms the §4 cost oracle
//! applies to real traced events (`hpf_machine::predict`): the volume is
//! presented as the per-processor payload of one synthetic all-gather —
//! exactly how the rowwise SpMV moves remote `x` entries every iteration.

use hpf_dist::atoms::{AtomAssignment, AtomSpec};
use hpf_dist::graph::{comm_volume, cut_edges, ConnectivityGraph};
use hpf_dist::Partitioner;
use hpf_machine::predict::predicted_time;
use hpf_machine::{CostModel, Event, EventKind, Topology};

/// Modeled quality of one partitioner's layout, priced by the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionAssessment {
    /// `USING <name>` identifier.
    pub partitioner: String,
    pub np: usize,
    /// Column-net comm volume `Σ_j (λ_j − 1)` in words per matvec.
    pub comm_volume_words: usize,
    /// Graph edges crossing processor boundaries.
    pub cut_edges: usize,
    /// `max/mean` element (nnz) load imbalance of the layout.
    pub load_imbalance: f64,
    /// The oracle's closed-form price of moving the volume once.
    pub modeled_seconds: f64,
}

impl PartitionAssessment {
    /// One-line JSON object (the bench records' dialect), the two
    /// floats in fixed notation.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        hpf_json::Obj::new(&mut out)
            .str("partitioner", &self.partitioner)
            .u64("np", self.np as u64)
            .u64("comm_volume_words", self.comm_volume_words as u64)
            .u64("cut_edges", self.cut_edges as u64)
            .f64_as(
                "load_imbalance",
                self.load_imbalance,
                format_args!("{:.6}", self.load_imbalance),
            )
            .f64_as(
                "modeled_seconds",
                self.modeled_seconds,
                format_args!("{:.9e}", self.modeled_seconds),
            );
        out
    }
}

/// Price `volume_words` of matvec traffic on an `np`-processor machine in
/// oracle seconds, via a synthetic [`EventKind::AllGather`] event fed to
/// [`predicted_time`] (volume split evenly across processors, the way the
/// rowwise operator gathers remote `x`).
pub fn modeled_seconds(
    volume_words: usize,
    np: usize,
    topology: Topology,
    cost: &CostModel,
) -> f64 {
    if volume_words == 0 || np <= 1 {
        return 0.0;
    }
    let payload = volume_words.div_ceil(np);
    let event = Event {
        kind: EventKind::AllGather,
        participants: np,
        words: volume_words,
        flops: 0,
        time: 0.0,
        start: 0.0,
        span: String::new(),
        label: "modeled-comm-volume".into(),
        proc_times: Vec::new(),
        payload_words: payload,
        hops: 0,
    };
    predicted_time(&event, topology, cost).unwrap_or(0.0)
}

/// Assess the layout `asg` (already produced by `partitioner_name`).
pub fn assess_assignment(
    partitioner_name: &str,
    spec: &AtomSpec,
    graph: &ConnectivityGraph,
    asg: &AtomAssignment,
    topology: Topology,
    cost: &CostModel,
) -> PartitionAssessment {
    let volume = comm_volume(graph, asg);
    PartitionAssessment {
        partitioner: partitioner_name.to_string(),
        np: asg.np,
        comm_volume_words: volume,
        cut_edges: cut_edges(graph, asg),
        load_imbalance: asg.imbalance(spec),
        modeled_seconds: modeled_seconds(volume, asg.np, topology, cost),
    }
}

/// Run `partitioner` and assess the layout it produces.
pub fn assess(
    partitioner: &dyn Partitioner,
    spec: &AtomSpec,
    graph: &ConnectivityGraph,
    np: usize,
    topology: Topology,
    cost: &CostModel,
) -> PartitionAssessment {
    let asg = partitioner.partition(spec, graph, np);
    assess_assignment(partitioner.name(), spec, graph, &asg, topology, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioners::{connectivity_of, BalancedContiguous};
    use hpf_sparse::gen;

    #[test]
    fn zero_volume_and_serial_machines_cost_nothing() {
        let cost = CostModel::mpp_1995();
        assert_eq!(modeled_seconds(0, 8, Topology::Hypercube, &cost), 0.0);
        assert_eq!(modeled_seconds(100, 1, Topology::Hypercube, &cost), 0.0);
    }

    #[test]
    fn seconds_grow_with_volume_and_match_the_oracle_form() {
        let cost = CostModel::mpp_1995();
        let small = modeled_seconds(64, 8, Topology::Hypercube, &cost);
        let large = modeled_seconds(64 * 1024, 8, Topology::Hypercube, &cost);
        assert!(small > 0.0);
        assert!(large > small);
        // Exactly the topology's allgather closed form.
        let direct = Topology::Hypercube.allgather_time(8, 64 * 1024 / 8, &cost);
        assert!((large - direct).abs() <= 1e-15 * direct.max(1.0));
    }

    #[test]
    fn assessment_is_json_renderable_and_consistent() {
        let a = gen::poisson_2d(8, 8);
        let spec = hpf_dist::AtomSpec::from_pointer_array(a.row_ptr());
        let graph = connectivity_of(&a);
        let report = assess(
            &BalancedContiguous,
            &spec,
            &graph,
            4,
            Topology::Hypercube,
            &CostModel::mpp_1995(),
        );
        assert_eq!(report.partitioner, "balanced-rows");
        assert_eq!(report.np, 4);
        assert!(report.comm_volume_words > 0);
        assert!(report.modeled_seconds > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"partitioner\":\"balanced-rows\""));
        assert!(json.contains("\"comm_volume_words\":"));
    }
}
