//! Analytic communication/computation cost model.
//!
//! The paper evaluates HPF data layouts with the classic two-parameter
//! linear communication model of the era (Section 4):
//!
//! > "This all-to-all broadcast of messages containing n/N_P vector
//! > elements among N_P processors takes
//! > `t_startup * log N_P + t_comm * n/N_P` time ... Here `t_startup`
//! > is the start-up time, and `t_comm` is the transfer time per byte."
//!
//! [`CostModel`] carries those two parameters plus a per-flop cost so that
//! computation/communication ratios can be reported. All times are in
//! abstract "seconds" of simulated machine time; only ratios and shapes
//! matter for the reproduction.

/// Linear cost model: a message of `w` words costs
/// `t_startup + t_word * w`; a floating-point operation costs `t_flop`.
///
/// Words are 8-byte elements (one `f64`). The paper quotes `t_comm` per
/// byte; we fold the factor of 8 into [`CostModel::t_word`] so callers
/// think in elements, matching how the paper counts `n/N_P` *vector
/// elements*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Message start-up latency (`t_startup` in the paper).
    pub t_startup: f64,
    /// Per-element transfer time (`t_comm * 8` in the paper's notation).
    pub t_word: f64,
    /// Time per floating-point operation (multiply or add).
    pub t_flop: f64,
}

impl CostModel {
    /// A model typical of mid-1990s MPPs (e.g. an iPSC/Paragon-class
    /// machine): start-up latency vastly dominates per-word cost, and a
    /// flop is much cheaper than moving a word. These are the regimes in
    /// which the paper's trade-offs (owner-computes, minimising message
    /// counts) are interesting.
    pub fn mpp_1995() -> Self {
        CostModel {
            t_startup: 100e-6, // 100 microseconds per message
            t_word: 0.5e-6,    // ~16 MB/s for 8-byte words
            t_flop: 0.02e-6,   // ~50 Mflop/s per node
        }
    }

    /// A latency-dominated model (slow network, e.g. Ethernet cluster).
    pub fn lan_cluster() -> Self {
        CostModel {
            t_startup: 1000e-6,
            t_word: 8e-6,
            t_flop: 0.02e-6,
        }
    }

    /// A bandwidth-rich, low-latency model (tightly coupled MPP).
    pub fn tight_mpp() -> Self {
        CostModel {
            t_startup: 10e-6,
            t_word: 0.05e-6,
            t_flop: 0.01e-6,
        }
    }

    /// A free-communication model. Useful in tests to isolate the
    /// computation term of a formula.
    pub fn zero_comm() -> Self {
        CostModel {
            t_startup: 0.0,
            t_word: 0.0,
            t_flop: 0.02e-6,
        }
    }

    /// Cost of a single point-to-point message of `words` elements over
    /// `hops` network hops (store-and-forward per-hop latency model; with
    /// `hops == 1` this is the paper's `t_startup + t_comm * w`).
    pub fn message(&self, words: usize, hops: usize) -> f64 {
        let hops = hops.max(1) as f64;
        hops * self.t_startup + self.t_word * words as f64
    }

    /// Cost of `n` floating-point operations.
    pub fn flops(&self, n: usize) -> f64 {
        self.t_flop * n as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::mpp_1995()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_is_affine_in_words() {
        let m = CostModel::mpp_1995();
        let c0 = m.message(0, 1);
        let c1 = m.message(1000, 1);
        let c2 = m.message(2000, 1);
        assert!((c2 - c1) - (c1 - c0) < 1e-12);
        assert!((c0 - m.t_startup).abs() < 1e-15);
    }

    #[test]
    fn message_cost_scales_with_hops() {
        let m = CostModel::mpp_1995();
        assert!(m.message(10, 4) > m.message(10, 1));
        // Only the start-up term is per-hop.
        let diff = m.message(10, 4) - m.message(10, 1);
        assert!((diff - 3.0 * m.t_startup).abs() < 1e-12);
    }

    #[test]
    fn zero_hops_counts_as_one() {
        let m = CostModel::mpp_1995();
        assert_eq!(m.message(5, 0), m.message(5, 1));
    }

    #[test]
    fn flop_cost_linear() {
        let m = CostModel::default();
        assert!((m.flops(100) - 100.0 * m.t_flop).abs() < 1e-15);
        assert_eq!(m.flops(0), 0.0);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        // A LAN cluster has worse latency than a tight MPP.
        assert!(CostModel::lan_cluster().t_startup > CostModel::tight_mpp().t_startup);
        assert!(CostModel::zero_comm().t_startup == 0.0);
    }
}
