//! Per-processor timeline reconstruction.
//!
//! The machine stamps every [`Event`] with its synchronisation-point
//! `start` and its modelled duration; [`EventKind::Compute`] events
//! additionally carry per-processor durations (`proc_times`). From
//! those stamps this module rebuilds, per processor, the busy
//! intervals the cost model implies — the raw material for the
//! Perfetto exporter and the load-imbalance analysis.
//!
//! Attribution rules:
//! - `Compute` events produce one slice per processor, with that
//!   processor's own duration (this is where imbalance shows up).
//! - Collectives, barriers and redistributions are bulk-synchronous in
//!   the machine model: every participant is busy for the full
//!   modelled duration, so each gets an identical slice.
//! - `Send` is charged to every processor lane too — the trace does not
//!   record endpoints, and under the paper's loosely-synchronous model
//!   the partner processors are waiting anyway.
//! - Zero-duration events (e.g. instantaneous faults) produce
//!   zero-duration slices; exporters may render them as instants.

use hpf_machine::{Event, EventKind, Trace};

/// One busy interval on one processor lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    pub proc: usize,
    /// Event kind name (`"compute"`, `"allreduce"`, ...).
    pub kind: &'static str,
    /// Span path active when the event was recorded.
    pub span: String,
    /// Free-form label the recording site attached.
    pub label: String,
    /// Start time in simulated seconds.
    pub start: f64,
    /// Duration in simulated seconds (0 for instantaneous events).
    pub dur: f64,
    pub words: usize,
    pub flops: usize,
}

/// All slices of a trace, plus the processor count and total makespan.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    pub np: usize,
    pub slices: Vec<Slice>,
    /// Latest `start + dur` over all slices (simulated seconds).
    pub total_time: f64,
}

impl Timeline {
    /// Reconstruct per-processor busy intervals from a trace.
    pub fn from_trace(trace: &Trace) -> Timeline {
        let np = trace
            .events()
            .iter()
            .map(|e| e.participants)
            .max()
            .unwrap_or(0);
        let mut slices = Vec::new();
        for event in trace.events() {
            push_slices(&mut slices, event, np);
        }
        let total_time = slices
            .iter()
            .map(|s| s.start + s.dur)
            .fold(0.0f64, f64::max);
        Timeline {
            np,
            slices,
            total_time,
        }
    }
}

fn push_slices(out: &mut Vec<Slice>, event: &Event, np: usize) {
    let kind = event.kind.name();
    let mk = |proc: usize, dur: f64| Slice {
        proc,
        kind,
        span: event.span.clone(),
        label: event.label.clone(),
        start: event.start,
        dur,
        words: event.words,
        flops: event.flops,
    };
    if event.kind == EventKind::Compute && event.proc_times.len() == np && np > 0 {
        for (p, &dur) in event.proc_times.iter().enumerate() {
            out.push(mk(p, dur));
        }
    } else {
        for p in 0..np.max(1) {
            out.push(mk(p, event.time));
        }
    }
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
    fn compute_slices_expose_per_proc_imbalance() {
        let mut m = machine(4);
        m.compute_all(&[100, 400, 100, 100], "work");
        m.allreduce(1, "dot");
        let tl = Timeline::from_trace(m.trace());
        assert_eq!(tl.np, 4);
        let compute: Vec<&Slice> = tl.slices.iter().filter(|s| s.kind == "compute").collect();
        assert_eq!(compute.len(), 4);
        // The heavy processor's slice is 4x the others.
        let d1 = compute.iter().find(|s| s.proc == 1).unwrap().dur;
        let d0 = compute.iter().find(|s| s.proc == 0).unwrap().dur;
        assert!((d1 / d0 - 4.0).abs() < 1e-12);
        // The allreduce charges every lane identically, starting after
        // the slowest compute.
        let reduce: Vec<&Slice> = tl.slices.iter().filter(|s| s.kind == "allreduce").collect();
        assert_eq!(reduce.len(), 4);
        assert!(reduce.iter().all(|s| s.dur == reduce[0].dur));
        assert!(reduce[0].start >= d1);
        assert!(tl.total_time > 0.0);
    }

    #[test]
    fn empty_trace_yields_empty_timeline() {
        let m = machine(3);
        let tl = Timeline::from_trace(m.trace());
        assert_eq!(tl.np, 0);
        assert!(tl.slices.is_empty());
        assert_eq!(tl.total_time, 0.0);
    }
}
