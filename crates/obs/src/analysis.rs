//! Trace analysis passes: critical path, load imbalance, and per-span
//! cost attribution.
//!
//! The machine model is loosely synchronous (the paper's execution
//! model): collectives synchronise all processors, and a compute phase
//! lasts as long as its slowest processor. The critical path of such a
//! program is therefore the *sequence of events itself*, each charged
//! at its slowest participant — the analyses here quantify where that
//! path spends its time and how much of the compute time is wasted
//! waiting for the most-loaded processor.

use hpf_machine::{EventKind, EventRef, Trace};

/// One aggregated contributor to the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanCost {
    /// Grouping key (a span path, or an event-kind name).
    pub key: String,
    /// Events aggregated under this key.
    pub count: usize,
    /// Seconds this key contributes to the critical path.
    pub seconds: f64,
    /// Words moved by these events.
    pub words: u64,
    /// Flops charged by these events (slowest-processor flops for
    /// compute events are not separable, so this is the total).
    pub flops: u64,
}

/// Critical-path decomposition of a trace.
#[derive(Debug, Clone, Default)]
pub struct CriticalPathReport {
    /// Length of the critical path in simulated seconds (equals the
    /// machine's elapsed time for a fully traced run).
    pub total_seconds: f64,
    /// Seconds spent in compute events (slowest processor per event).
    pub compute_seconds: f64,
    /// Seconds spent in communication and synchronisation events.
    pub comm_seconds: f64,
    /// Seconds attributable to injected faults (stragglers, recovery
    /// stalls); 0 in fault-free runs.
    pub fault_seconds: f64,
    /// Contributors grouped by span path, sorted by descending cost.
    pub by_span: Vec<SpanCost>,
}

impl CriticalPathReport {
    /// Fraction of the critical path spent communicating (0..=1);
    /// `None` for an empty trace.
    pub fn comm_fraction(&self) -> Option<f64> {
        (self.total_seconds > 0.0).then(|| self.comm_seconds / self.total_seconds)
    }
}

/// Extract the critical path and its per-span decomposition: every
/// event at its `time`, already the synchronised (slowest-participant)
/// duration the machine advanced its clocks by.
pub fn critical_path(trace: &Trace) -> CriticalPathReport {
    let rows = 0..trace.len();
    let mut report = CriticalPathReport {
        total_seconds: trace.window(rows.clone(), None, false).time,
        by_span: span_costs(trace),
        ..CriticalPathReport::default()
    };
    // Compute and faults apart, every other kind as one (`None`).
    let apart = |e: &EventRef<'_>| matches!(e.kind, EventKind::Compute | EventKind::Fault);
    for (kind, sums) in trace.window_by(rows, None, false, |e| Some(apart(e).then_some(e.kind))) {
        *match kind {
            Some(EventKind::Compute) => &mut report.compute_seconds,
            Some(_) => &mut report.fault_seconds,
            None => &mut report.comm_seconds,
        } = sums.time;
    }
    report
}

/// Per-span cost attribution (the critical path's `by_span`, exposed
/// directly for the `summary`/`csv` report views), by descending cost.
pub fn span_costs(trace: &Trace) -> Vec<SpanCost> {
    let spans = trace.window_by(0..trace.len(), None, false, |e| Some(e.span));
    let mut costs: Vec<SpanCost> = spans
        .into_iter()
        .map(|(span, sums)| SpanCost {
            key: span.to_string(),
            count: sums.events,
            seconds: sums.time,
            words: sums.words as u64,
            flops: sums.flops as u64,
        })
        .collect();
    // First-seen order, which the stable sort keeps among equal costs.
    costs.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
    costs
}

/// Per-processor compute load imbalance.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadImbalance {
    /// Total compute-busy seconds per processor.
    pub busy: Vec<f64>,
    /// `max(busy) / mean(busy)` — 1.0 is perfectly balanced; the excess
    /// over 1.0 is the fraction of compute capacity lost to waiting.
    pub ratio: f64,
}

/// Measure compute load imbalance from the trace's per-processor
/// compute durations. Returns `None` when the trace has no compute
/// events with per-processor timings (or all durations are zero), where
/// [`hpf_machine::imbalance`] has no load to compare.
pub fn load_imbalance(trace: &Trace) -> Option<LoadImbalance> {
    let busy = trace.window(0..trace.len(), None, true).busy;
    let ratio = hpf_machine::imbalance(busy.iter().copied())?;
    Some(LoadImbalance { busy, ratio })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{CostModel, Machine, Topology};

    fn machine(np: usize) -> Machine {
        let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        m.set_tracing(true);
        m
    }

    #[test]
    fn critical_path_matches_machine_elapsed_time() {
        let mut m = machine(4);
        {
            let _s = hpf_machine::span::enter("solve");
            {
                let _mv = hpf_machine::span::enter("matvec");
                m.compute_all(&[1000, 1000, 1000, 1000], "spmv");
            }
            {
                let _d = hpf_machine::span::enter("dot");
                m.allreduce(1, "dot");
            }
        }
        let report = critical_path(m.trace());
        assert!((report.total_seconds - m.elapsed()).abs() < 1e-12);
        assert!(report.compute_seconds > 0.0);
        assert!(report.comm_seconds > 0.0);
        assert_eq!(report.fault_seconds, 0.0);
        let f = report.comm_fraction().unwrap();
        assert!(f > 0.0 && f < 1.0);
        // by_span has both paths and is sorted by descending cost.
        let keys: Vec<&str> = report.by_span.iter().map(|c| c.key.as_str()).collect();
        assert!(keys.contains(&"solve/matvec"));
        assert!(keys.contains(&"solve/dot"));
        assert!(report
            .by_span
            .windows(2)
            .all(|w| w[0].seconds >= w[1].seconds));
    }

    #[test]
    fn load_imbalance_ratio_reflects_skew() {
        let mut m = machine(4);
        m.compute_all(&[100, 100, 100, 100], "even");
        let balanced = load_imbalance(m.trace()).unwrap();
        assert!((balanced.ratio - 1.0).abs() < 1e-12);

        let mut m = machine(4);
        m.compute_all(&[400, 100, 100, 100], "skewed");
        let skewed = load_imbalance(m.trace()).unwrap();
        // max = 400, mean = 175 → ratio ≈ 2.2857
        assert!((skewed.ratio - 400.0 / 175.0).abs() < 1e-12);
        assert_eq!(skewed.busy.len(), 4);
    }

    #[test]
    fn load_imbalance_is_none_without_compute_events() {
        let mut m = machine(2);
        m.allreduce(1, "dot");
        assert!(load_imbalance(m.trace()).is_none());
        let empty = machine(2);
        assert!(load_imbalance(empty.trace()).is_none());
    }

    #[test]
    fn span_costs_aggregate_counts_and_words() {
        let mut m = machine(2);
        {
            let _s = hpf_machine::span::enter("solve");
            m.allreduce(2, "dot");
            m.allreduce(2, "dot");
        }
        let costs = span_costs(m.trace());
        assert_eq!(costs.len(), 1);
        assert_eq!(costs[0].key, "solve");
        assert_eq!(costs[0].count, 2);
        assert!(costs[0].seconds > 0.0);
        assert!(costs[0].words > 0);
    }
}
