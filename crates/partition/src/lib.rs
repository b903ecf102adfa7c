//! # hpf-partition — pluggable sparse partitioners behind `REDISTRIBUTE USING`
//!
//! The paper proposes extending HPF's `REDISTRIBUTE` with a named
//! load-balancing heuristic:
//!
//! ```fortran
//! !EXT$ REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1
//! ```
//!
//! `hpf-dist` defines the [`Partitioner`] contract and the atom-level
//! redistribution machinery; this crate supplies the heuristics and the
//! policy layer:
//!
//! * [`partitioners`] — four deterministic, dependency-free
//!   implementations: `balanced-rows` (the paper's own), `nnz-bisect`,
//!   `greedy-hypergraph` (column-net volume minimisation), and
//!   `spectral` (power-iteration Fiedler bisection), plus the name
//!   registry ([`by_name`], [`all_partitioners`]).
//! * [`volume`] — modeled comm volume priced in oracle seconds through
//!   `hpf-machine::predict` ([`PartitionAssessment`]).
//! * [`auto`] — the auto-repartitioner: [`cg_auto_repartition`] watches
//!   measured load imbalance and oracle drift per solve segment and
//!   fires typed `REDISTRIBUTE USING <name>` events mid-solve.

pub mod auto;
pub mod partitioners;
pub mod volume;

pub use auto::{cg_auto_repartition, AutoRepartitionOutcome, RepartitionEvent};
pub use hpf_dist::{comm_volume, cut_edges, ConnectivityGraph, PartitionError, Partitioner};
pub use partitioners::{
    all_partitioners, by_name, connectivity_of, partitioner_names, BalancedContiguous,
    GreedyHypergraph, NnzBisection, SpectralBisection, DEFAULT_PARTITIONER,
};
pub use volume::{assess, assess_assignment, modeled_seconds, PartitionAssessment};
