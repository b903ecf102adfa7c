//! The black box's records: a machine's last events, summarised.
//!
//! The live bus (`hpf-obs`) samples: most jobs stream nothing, so when a
//! *sampled-out* job dies there is no machine-level evidence to autopsy.
//! The machine that ran the job closes that gap itself: told to
//! [`crate::Machine::keep_tail`], it keeps its last N events where it
//! writes them, whatever the sampling, and whoever ends the job reads
//! them there. This module is what a post-mortem keeps of such a tail:
//! each [`Event`] compressed to a [`BlackBoxRecord`] (the per-processor
//! times folded into an imbalance factor and the slowest processor), in
//! a [`BlackBoxTail`].

use crate::recorder::EventTail;
use crate::trace::{Event, EventKind};

/// Events a flight recorder asks a machine to keep by default. Enough to
/// cover the tail of a solve iteration plus the fault/recovery events
/// around it.
pub const DEFAULT_RING_CAPACITY: usize = 64;

/// One machine event as retained by the black box. A compressed clone of
/// [`Event`]: the per-processor time vector is summarised into an
/// imbalance factor and the slowest processor index at record time, so a
/// retained event costs two string clones and a handful of scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackBoxRecord {
    pub kind: EventKind,
    pub participants: usize,
    pub words: usize,
    pub flops: usize,
    /// Simulated duration of the event (max over participants).
    pub time: f64,
    /// Simulated clock at which the event began.
    pub start: f64,
    pub span: String,
    pub label: String,
    /// `max(proc_times) / mean(proc_times)` — 1.0 when the machine did
    /// not report per-processor times for this event.
    pub imbalance: f64,
    /// Index of the slowest participant when per-processor times were
    /// reported (straggler attribution evidence).
    pub slowest_proc: Option<usize>,
}

impl BlackBoxRecord {
    pub fn from_event(e: &Event) -> Self {
        let (imbalance, slowest_proc) = summarise_proc_times(&e.proc_times);
        BlackBoxRecord {
            kind: e.kind,
            participants: e.participants,
            words: e.words,
            flops: e.flops,
            time: e.time,
            start: e.start,
            span: e.span.clone(),
            label: e.label.clone(),
            imbalance,
            slowest_proc,
        }
    }
}

/// One pass over the per-processor times: `(max/mean, argmax)`.
fn summarise_proc_times(proc_times: &[f64]) -> (f64, Option<usize>) {
    if proc_times.is_empty() {
        return (1.0, None);
    }
    let (mut max, mut sum, mut slowest) = (f64::MIN, 0.0, 0);
    for (i, &t) in proc_times.iter().enumerate() {
        sum += t;
        if t > max {
            max = t;
            slowest = i;
        }
    }
    let mean = sum / proc_times.len() as f64;
    (if mean > 0.0 { max / mean } else { 1.0 }, Some(slowest))
}

/// The summarised tail of one job: what a post-mortem stores.
#[derive(Debug, Clone, Default)]
pub struct BlackBoxTail {
    pub trace_id: u64,
    /// Last events in record order (oldest first).
    pub events: Vec<BlackBoxRecord>,
    /// Events that were recorded for this trace but overwritten by the
    /// bounded ring before the dump.
    pub overwritten: u64,
}

impl BlackBoxTail {
    /// Summarise what `tail` holds of the job traced as `trace_id`.
    pub fn summarise(trace_id: u64, tail: &EventTail) -> Self {
        BlackBoxTail {
            trace_id,
            events: tail.iter().map(BlackBoxRecord::from_event).collect(),
            overwritten: tail.overwritten(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, TraceLevel};

    fn event(span: &str, label: &str, kind: EventKind) -> Event {
        Event {
            kind,
            participants: 4,
            words: 8,
            flops: 16,
            time: 0.5,
            start: 1.0,
            span: span.to_string(),
            label: label.to_string(),
            proc_times: Vec::new(),
            payload_words: 8,
            hops: 0,
        }
    }

    #[test]
    fn ring_keeps_only_the_last_n_events_and_counts_overwrites() {
        let mut m = Machine::hypercube(4);
        m.set_trace_level(TraceLevel::Summary);
        m.keep_tail(3);
        for i in 0..5 {
            m.barrier(&format!("op{i}"));
        }
        let tail = BlackBoxTail::summarise(7, m.tail());
        assert_eq!((tail.trace_id, tail.overwritten), (7, 2));
        let labels: Vec<&str> = tail.events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["op2", "op3", "op4"]);
        assert!(tail.events.iter().all(|e| e.kind == EventKind::Barrier));
    }

    #[test]
    fn proc_times_are_summarised_into_imbalance_and_slowest() {
        let mut e = event("trace=1/solve", "skewed", EventKind::Compute);
        e.proc_times = vec![1.0, 1.0, 4.0, 2.0];
        let rec = BlackBoxRecord::from_event(&e);
        assert!((rec.imbalance - 2.0).abs() < 1e-12);
        assert_eq!(rec.slowest_proc, Some(2));
        let rec = BlackBoxRecord::from_event(&event("t", "flat", EventKind::Compute));
        assert_eq!(rec.imbalance, 1.0);
        assert_eq!(rec.slowest_proc, None);
    }
}
