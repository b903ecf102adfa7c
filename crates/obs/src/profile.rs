//! Continuous span profiling: per-span-path self-time aggregation and
//! collapsed-stack (flamegraph) export.
//!
//! Every machine event is a *leaf* cost recorded at the thread's
//! current span path (`trace=…/job=…/solve/iter=12/matvec`), so summing
//! event times per path is exactly a self-time profile — no parent/child
//! subtraction needed. To make profiles aggregate across requests and
//! iterations, numeric span parameters are **normalized**: `iter=12` →
//! `iter=*`, `job=7` → `job=*`, `trace=00c0ffee` → `trace=*`. What
//! remains is the program *shape* — and its hottest paths, which the
//! top-k table ranks and the collapsed-stack export hands to any
//! flamegraph renderer (`frame;frame;frame <microseconds>` per line).
//!
//! The profiler feeds from either end of the pipeline: a post-hoc
//! [`hpf_machine::Trace`] (`trace-report --format flame`) or the live
//! bus (`trace-report --follow`), one event at a time.

use std::collections::HashMap;

/// Replace the value of numeric/hex `key=value` span segments with `*`
/// so paths aggregate across iterations, jobs, and requests.
pub fn normalize_path(span: &str) -> String {
    if span.is_empty() {
        return String::new();
    }
    span.split('/')
        .map(normalize_segment)
        .collect::<Vec<_>>()
        .join("/")
}

fn normalize_segment(seg: &str) -> String {
    if let Some((key, value)) = seg.split_once('=') {
        let numeric = !value.is_empty() && value.bytes().all(|b| b.is_ascii_hexdigit());
        if numeric {
            return format!("{key}=*");
        }
    }
    seg.to_string()
}

/// One aggregated hot-span entry.
#[derive(Debug, Clone, PartialEq)]
pub struct HotSpan {
    /// Normalized frames joined with `;` (collapsed-stack order:
    /// root first, leaf label last).
    pub stack: String,
    /// Total self time attributed to this stack, simulated seconds.
    pub self_s: f64,
    /// Number of events aggregated into it.
    pub events: u64,
}

/// Self-time aggregation by normalized span path + event label.
#[derive(Debug, Default)]
pub struct SpanProfile {
    stacks: HashMap<String, (f64, u64)>,
    total_s: f64,
}

impl SpanProfile {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one leaf cost: `span` is the raw (un-normalized) span
    /// path, `label` the event label (becomes the leaf frame), `time_s`
    /// the event's cost in simulated seconds.
    pub fn record(&mut self, span: &str, label: &str, time_s: f64) {
        let mut stack = normalize_path(span);
        if !label.is_empty() {
            if !stack.is_empty() {
                stack.push(';');
            }
            stack.push_str(label);
        }
        if stack.is_empty() {
            stack.push_str("(unattributed)");
        }
        let entry = self
            .stacks
            .entry(stack.replace('/', ";"))
            .or_insert((0.0, 0));
        entry.0 += time_s;
        entry.1 += 1;
        self.total_s += time_s;
    }

    /// Aggregate a whole post-hoc trace.
    pub fn from_trace(trace: &hpf_machine::Trace) -> Self {
        let mut p = SpanProfile::new();
        for e in trace.iter() {
            p.record(e.span, e.label, e.time);
        }
        p
    }

    /// Feed one live bus event (machine-origin events only; service
    /// lifecycle events carry no span cost).
    pub fn record_bus_event(&mut self, e: &crate::bus::BusEvent) {
        if e.origin == crate::bus::BusOrigin::Machine {
            self.record(&e.span, &e.label, e.time_s);
        }
    }

    /// Total self time across all stacks, simulated seconds.
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// Distinct aggregated stacks.
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// The `k` hottest stacks by self time (ties broken by stack name
    /// for determinism).
    pub fn top_k(&self, k: usize) -> Vec<HotSpan> {
        let mut all: Vec<HotSpan> = self
            .stacks
            .iter()
            .map(|(stack, &(self_s, events))| HotSpan {
                stack: stack.clone(),
                self_s,
                events,
            })
            .collect();
        all.sort_by(|a, b| {
            b.self_s
                .partial_cmp(&a.self_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.stack.cmp(&b.stack))
        });
        all.truncate(k);
        all
    }

    /// Collapsed-stack export: one `frames <value>` line per stack,
    /// value in integer microseconds (the unit flamegraph renderers
    /// expect), sorted by stack name for byte-stable output. Stacks
    /// rounding to 0 µs are kept at 1 so no recorded path vanishes.
    pub fn collapsed(&self) -> String {
        let mut lines: Vec<String> = self
            .stacks
            .iter()
            .map(|(stack, &(self_s, _))| {
                let us = (self_s * 1e6).round() as u64;
                format!("{} {}", stack, us.max(1))
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Human-readable top-k table (the `--follow` refresh and the
    /// `flame` format's summary footer).
    pub fn render_top(&self, k: usize) -> String {
        let mut out = String::from("hot spans (self time):\n");
        let top = self.top_k(k);
        if top.is_empty() {
            out.push_str("  (no events)\n");
            return out;
        }
        for h in &top {
            let pct = if self.total_s > 0.0 {
                100.0 * h.self_s / self.total_s
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:>10.1} us {:>5.1}% {:>8} ev  {}\n",
                h.self_s * 1e6,
                pct,
                h.events,
                h.stack
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_stars_numeric_parameters_only() {
        assert_eq!(
            normalize_path("trace=00c0ffee/job=7/solve/iter=12/matvec"),
            "trace=*/job=*/solve/iter=*/matvec"
        );
        assert_eq!(normalize_path("level=2/smooth"), "level=*/smooth");
        assert_eq!(normalize_path("mode=fast"), "mode=fast", "non-numeric kept");
        assert_eq!(normalize_path(""), "");
    }

    #[test]
    fn self_time_aggregates_across_iterations() {
        let mut p = SpanProfile::new();
        for i in 0..10 {
            p.record(&format!("solve/iter={i}/matvec"), "halo", 2e-3);
            p.record(&format!("solve/iter={i}/dot"), "dot-merge", 1e-3);
        }
        assert_eq!(p.len(), 2);
        let top = p.top_k(10);
        assert_eq!(top[0].stack, "solve;iter=*;matvec;halo");
        assert!((top[0].self_s - 2e-2).abs() < 1e-12);
        assert_eq!(top[0].events, 10);
        assert_eq!(top[1].stack, "solve;iter=*;dot;dot-merge");
        assert!((p.total_s() - 3e-2).abs() < 1e-12);
    }

    #[test]
    fn collapsed_output_is_flamegraph_shaped_and_stable() {
        let mut p = SpanProfile::new();
        p.record("solve/iter=3/matvec", "halo", 1.5e-3);
        p.record("solve/iter=4/matvec", "halo", 0.5e-3);
        p.record("solve/setup", "partition", 1e-4);
        let collapsed = p.collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(lines.len(), 2);
        // Sorted by stack, "<frames> <integer-us>" per line.
        assert_eq!(lines[0], "solve;iter=*;matvec;halo 2000");
        assert_eq!(lines[1], "solve;setup;partition 100");
        for line in lines {
            let (_, value) = line.rsplit_once(' ').unwrap();
            value.parse::<u64>().expect("integer sample value");
        }
        assert!(collapsed.ends_with('\n'));
    }

    #[test]
    fn zero_cost_paths_are_kept_at_one_microsecond() {
        let mut p = SpanProfile::new();
        p.record("solve/fault", "fault:stall", 0.0);
        assert_eq!(p.collapsed(), "solve;fault;fault:stall 1\n");
    }

    #[test]
    fn events_without_spans_fall_into_unattributed() {
        let mut p = SpanProfile::new();
        p.record("", "", 1e-3);
        assert_eq!(p.top_k(1)[0].stack, "(unattributed)");
        p.record("", "barrier", 1e-3);
        assert!(p.stacks.contains_key("barrier"));
    }

    #[test]
    fn from_trace_matches_manual_feed_and_finds_matvec_hot() {
        use hpf_machine::{span, Machine};
        let mut m = Machine::hypercube(4);
        {
            let _s = span::enter("solve");
            for i in 0..5 {
                let _it = span::enter(format!("iter={i}"));
                {
                    let _mv = span::enter("matvec");
                    m.compute_uniform(100_000, "local");
                }
                let _d = span::enter("dot");
                m.allreduce(1, "dot-merge");
            }
        }
        let p = SpanProfile::from_trace(m.trace());
        let top = p.top_k(1);
        assert!(
            top[0].stack.contains("matvec"),
            "matvec must dominate, got {}",
            top[0].stack
        );
        assert!(p.total_s() > 0.0);
    }

    #[test]
    fn render_top_shows_percentages() {
        let mut p = SpanProfile::new();
        p.record("a", "x", 3e-3);
        p.record("b", "y", 1e-3);
        let out = p.render_top(2);
        assert!(out.contains("75.0%"), "{out}");
        assert!(out.contains("a;x"), "{out}");
        assert!(SpanProfile::new().render_top(3).contains("(no events)"));
    }
}
