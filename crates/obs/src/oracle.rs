//! The cost oracle: predicted-vs-measured drift attribution.
//!
//! Walks a recorded [`Trace`], sorts every event into one of the
//! paper's analytic cost categories (Section 4 prices each CG building
//! block in closed form), evaluates the same [`CostModel`] formulas the
//! machine used — via [`hpf_machine::predicted_time`], with the actual
//! sizes, participant counts and hop distances recorded on the event —
//! and reports where the measured schedule drifted from the analytic
//! prediction.
//!
//! On a clean simulated machine drift is ~0 by construction; the oracle
//! earns its keep when something breaks that correspondence: stragglers
//! and fault penalties, load imbalance in `compute_all` (predictions
//! assume perfect balance, as the paper's formulas do), replays after
//! rollbacks, or a trace captured under one topology being priced under
//! another. Categories follow the paper's decomposition of CG:
//!
//! | category        | paper operation                                  |
//! |-----------------|--------------------------------------------------|
//! | `saxpy`         | §4.1 vector update `x + αp` (no communication)    |
//! | `dot-reduce`    | §4.2 inner product: local dots + `log P` combine  |
//! | `matvec-gather` | §4.3 row-block `(BLOCK,*)` matvec: allgather of p |
//! | `matvec-reduce` | §4.4 col-block `(*,BLOCK)` matvec: allreduce of q |
//! | `redistribute`  | §5 `REDISTRIBUTE` / alltoall data motion          |
//! | `mg-smooth`     | multigrid level work: SymGS sweeps, residual +    |
//! |                 | halo exchange, coarsest direct solve              |
//! | `mg-transfer`   | multigrid level transfers: restrict / prolong     |
//! |                 | motion and apply, coarse gather/scatter funnel    |
//! | `compute-bulk`  | other data-parallel compute (local matvec, ...)   |
//! | `compute-serial`| single-processor compute sections                 |
//! | `comm-other`    | remaining collectives and messages                |
//! | `overhead`      | fault penalties; no analytic prediction exists    |
//!
//! The two `mg-*` categories carve the HPCG-class workload out of the
//! generic buckets (labels stamped by `hpf-mg` start with `mg-`), so a
//! V-cycle's smoother cost and its transfer cost drift independently.
//! [`DriftReport::gflops_equivalent`] derives the HPCG-style figure of
//! merit — total recorded flops over total simulated seconds — from the
//! same cost model.

use crate::json::Obj;
use hpf_machine::{predicted_time, CostModel, Event, EventKind, Topology, Trace};

/// The analytic categories the oracle attributes events to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftCategory {
    Saxpy,
    DotReduce,
    MatvecGather,
    MatvecReduce,
    Redistribute,
    MgSmooth,
    MgTransfer,
    ComputeBulk,
    ComputeSerial,
    CommOther,
    Overhead,
}

impl DriftCategory {
    pub const ALL: [DriftCategory; 11] = [
        DriftCategory::Saxpy,
        DriftCategory::DotReduce,
        DriftCategory::MatvecGather,
        DriftCategory::MatvecReduce,
        DriftCategory::Redistribute,
        DriftCategory::MgSmooth,
        DriftCategory::MgTransfer,
        DriftCategory::ComputeBulk,
        DriftCategory::ComputeSerial,
        DriftCategory::CommOther,
        DriftCategory::Overhead,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            DriftCategory::Saxpy => "saxpy",
            DriftCategory::DotReduce => "dot-reduce",
            DriftCategory::MatvecGather => "matvec-gather",
            DriftCategory::MatvecReduce => "matvec-reduce",
            DriftCategory::Redistribute => "redistribute",
            DriftCategory::MgSmooth => "mg-smooth",
            DriftCategory::MgTransfer => "mg-transfer",
            DriftCategory::ComputeBulk => "compute-bulk",
            DriftCategory::ComputeSerial => "compute-serial",
            DriftCategory::CommOther => "comm-other",
            DriftCategory::Overhead => "overhead",
        }
    }
}

/// Sort one event into its analytic category. Classification uses the
/// event kind first, then the solver's own operation labels (the
/// `saxpy` / `dot-local` / `bcast-p` vocabulary the core crates stamp
/// on every operation), then payload size to split the two collective
/// roles an allreduce can play in CG: combining a scalar dot product
/// versus merging a distributed `q = A·p` in the `(*,BLOCK)` layout.
pub fn classify(event: &Event) -> DriftCategory {
    let label = event.label.as_str();
    // Multigrid labels (`mg-*`, stamped by hpf-mg) take precedence over
    // the kind rules, splitting the V-cycle into level work versus
    // level transfers regardless of the event's transport: a halo
    // Redistribute belongs to the smoother it feeds, a restrict-apply
    // Compute to the transfer it implements.
    if event.kind != EventKind::Fault {
        if let Some(op) = label.strip_prefix("mg-") {
            let level_work = op.starts_with("smooth")
                || op.starts_with("residual")
                || op.starts_with("halo")
                || op == "coarse-solve";
            return if level_work {
                DriftCategory::MgSmooth
            } else {
                DriftCategory::MgTransfer
            };
        }
    }
    match event.kind {
        EventKind::Fault => DriftCategory::Overhead,
        EventKind::Redistribute | EventKind::AllToAll => DriftCategory::Redistribute,
        EventKind::AllGather => DriftCategory::MatvecGather,
        EventKind::AllReduce => {
            if event.payload_words <= 2 {
                DriftCategory::DotReduce
            } else {
                DriftCategory::MatvecReduce
            }
        }
        EventKind::Compute => {
            if label.contains("saxpy") || label.contains("saypx") || label.contains("scale") {
                DriftCategory::Saxpy
            } else if label.contains("dot") || label.contains("sum-local") {
                DriftCategory::DotReduce
            } else if event.proc_times.is_empty() {
                DriftCategory::ComputeSerial
            } else {
                DriftCategory::ComputeBulk
            }
        }
        _ => DriftCategory::CommOther,
    }
}

/// Aggregated drift for one category.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryDrift {
    pub category: DriftCategory,
    /// Events attributed to this category.
    pub events: usize,
    /// Events that had a closed-form prediction (faults and
    /// redistributes never do; they count at measured time).
    pub predicted_events: usize,
    /// Sum of analytic predictions (unpredictable events contribute
    /// their measured time, so totals stay comparable).
    pub predicted_seconds: f64,
    /// Sum of measured (simulated) event times.
    pub measured_seconds: f64,
    /// Total words moved by this category's events.
    pub words: u64,
}

impl CategoryDrift {
    /// `(measured − predicted) / predicted`; `None` when the category
    /// predicted (essentially) zero time.
    pub fn rel_error(&self) -> Option<f64> {
        if self.predicted_seconds > f64::EPSILON {
            Some((self.measured_seconds - self.predicted_seconds) / self.predicted_seconds)
        } else {
            None
        }
    }
}

/// One event whose measured time strayed furthest from its prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstOffender {
    /// Index of the event in the trace.
    pub event: usize,
    pub kind: &'static str,
    pub span: String,
    pub label: String,
    pub category: DriftCategory,
    pub predicted_seconds: f64,
    pub measured_seconds: f64,
}

/// Cumulative predicted/measured pair at the end of one solver
/// iteration (events whose span path carries an `iter=K` segment).
#[derive(Debug, Clone, PartialEq)]
pub struct IterDrift {
    pub iteration: usize,
    pub predicted_seconds: f64,
    pub measured_seconds: f64,
}

/// The oracle's verdict on one trace: per-category drift, the worst
/// individual offenders, and a per-iteration series.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    pub topology: Topology,
    /// Categories in [`DriftCategory::ALL`] order, empty ones omitted.
    pub categories: Vec<CategoryDrift>,
    pub total_predicted_seconds: f64,
    pub total_measured_seconds: f64,
    /// Total floating-point operations recorded on the trace's compute
    /// events (communication moves words, not flops).
    pub total_flops: u64,
    /// Events with no closed-form prediction (counted at measured time).
    pub unpredicted_events: usize,
    /// Up to ten events with the largest absolute drift, sorted worst
    /// first.
    pub worst: Vec<WorstOffender>,
    /// Per-iteration drift, sorted by iteration number.
    pub iterations: Vec<IterDrift>,
}

impl DriftReport {
    /// Attribute and price every event of `trace` under `topology` /
    /// `cost`. Pass the same topology and cost model the machine ran
    /// with to measure simulator/model agreement, or different ones to
    /// ask "what does the model say this schedule *should* have cost
    /// elsewhere?".
    pub fn from_trace(trace: &Trace, topology: Topology, cost: &CostModel) -> DriftReport {
        let mut cats: Vec<CategoryDrift> = DriftCategory::ALL
            .iter()
            .map(|&category| CategoryDrift {
                category,
                events: 0,
                predicted_events: 0,
                predicted_seconds: 0.0,
                measured_seconds: 0.0,
                words: 0,
            })
            .collect();
        let mut worst: Vec<WorstOffender> = Vec::new();
        let mut iters: std::collections::BTreeMap<usize, IterDrift> =
            std::collections::BTreeMap::new();
        let mut unpredicted = 0usize;
        let mut total_flops = 0u64;
        for (i, event) in trace.events().iter().enumerate() {
            total_flops += event.flops as u64;
            let category = classify(event);
            let prediction = predicted_time(event, topology, cost);
            let predicted = prediction.unwrap_or(event.time);
            if prediction.is_none() {
                unpredicted += 1;
            }
            let slot = &mut cats[DriftCategory::ALL
                .iter()
                .position(|&c| c == category)
                .expect("category table covers the enum")];
            slot.events += 1;
            slot.predicted_events += usize::from(prediction.is_some());
            slot.predicted_seconds += predicted;
            slot.measured_seconds += event.time;
            slot.words += event.words as u64;
            if prediction.is_some() {
                worst.push(WorstOffender {
                    event: i,
                    kind: event.kind.name(),
                    span: event.span.clone(),
                    label: event.label.clone(),
                    category,
                    predicted_seconds: predicted,
                    measured_seconds: event.time,
                });
            }
            if let Some(k) = iteration_of(&event.span) {
                let entry = iters.entry(k).or_insert(IterDrift {
                    iteration: k,
                    predicted_seconds: 0.0,
                    measured_seconds: 0.0,
                });
                entry.predicted_seconds += predicted;
                entry.measured_seconds += event.time;
            }
        }
        worst.sort_by(|a, b| {
            let da = (a.measured_seconds - a.predicted_seconds).abs();
            let db = (b.measured_seconds - b.predicted_seconds).abs();
            db.partial_cmp(&da)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.event.cmp(&b.event))
        });
        worst.truncate(10);
        DriftReport {
            topology,
            total_predicted_seconds: cats.iter().map(|c| c.predicted_seconds).sum(),
            total_measured_seconds: cats.iter().map(|c| c.measured_seconds).sum(),
            total_flops,
            unpredicted_events: unpredicted,
            categories: cats.into_iter().filter(|c| c.events > 0).collect(),
            worst,
            iterations: iters.into_values().collect(),
        }
    }

    /// Overall `(measured − predicted) / predicted`.
    pub fn total_rel_error(&self) -> f64 {
        if self.total_predicted_seconds > f64::EPSILON {
            (self.total_measured_seconds - self.total_predicted_seconds)
                / self.total_predicted_seconds
        } else {
            0.0
        }
    }

    /// HPCG-style figure of merit: GFLOP/s-equivalent under the cost
    /// model — total recorded flops over total *simulated* seconds
    /// (the wall-clock the machine would have taken, not host time).
    /// `None` when the trace measured (essentially) zero time.
    pub fn gflops_equivalent(&self) -> Option<f64> {
        if self.total_measured_seconds > f64::EPSILON {
            Some(self.total_flops as f64 / self.total_measured_seconds / 1e9)
        } else {
            None
        }
    }

    /// Largest per-category |relative error| (categories that predicted
    /// zero time are skipped).
    pub fn max_abs_rel_error(&self) -> f64 {
        self.categories
            .iter()
            .filter_map(CategoryDrift::rel_error)
            .map(f64::abs)
            .fold(0.0, f64::max)
    }

    /// Render as a JSON object (strict RFC 8259; non-finite values
    /// become `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut o = Obj::new(&mut out);
        o.u64("schema_version", 1)
            .str("topology", self.topology.name())
            .f64("total_predicted_seconds", self.total_predicted_seconds)
            .f64("total_measured_seconds", self.total_measured_seconds)
            .f64("total_rel_error", self.total_rel_error())
            .f64("max_abs_rel_error", self.max_abs_rel_error())
            .u64("total_flops", self.total_flops)
            .f64(
                "gflops_equivalent",
                self.gflops_equivalent().unwrap_or(f64::NAN),
            )
            .u64("unpredicted_events", self.unpredicted_events as u64);
        {
            let mut cats = o.arr("categories");
            for c in &self.categories {
                cats.obj()
                    .str("category", c.category.name())
                    .u64("events", c.events as u64)
                    .u64("predicted_events", c.predicted_events as u64)
                    .f64("predicted_seconds", c.predicted_seconds)
                    .f64("measured_seconds", c.measured_seconds)
                    .u64("words", c.words)
                    .f64("rel_error", c.rel_error().unwrap_or(f64::NAN));
            }
        }
        {
            let mut worst = o.arr("worst");
            for w in &self.worst {
                worst
                    .obj()
                    .u64("event", w.event as u64)
                    .str("kind", w.kind)
                    .str("span", &w.span)
                    .str("label", &w.label)
                    .str("category", w.category.name())
                    .f64("predicted_seconds", w.predicted_seconds)
                    .f64("measured_seconds", w.measured_seconds);
            }
        }
        {
            let mut iters = o.arr("iterations");
            for it in &self.iterations {
                iters
                    .obj()
                    .u64("iteration", it.iteration as u64)
                    .f64("predicted_seconds", it.predicted_seconds)
                    .f64("measured_seconds", it.measured_seconds);
            }
        }
        drop(o);
        out
    }

    /// Human-readable drift table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cost-oracle drift report ({} topology)\n\
             {:<15} {:>7} {:>14} {:>14} {:>10} {:>12}\n",
            self.topology.name(),
            "category",
            "events",
            "predicted(s)",
            "measured(s)",
            "drift",
            "words"
        ));
        for c in &self.categories {
            out.push_str(&format!(
                "{:<15} {:>7} {:>14.6e} {:>14.6e} {:>10} {:>12}\n",
                c.category.name(),
                c.events,
                c.predicted_seconds,
                c.measured_seconds,
                c.rel_error()
                    .map_or("n/a".to_string(), |e| format!("{:+.2}%", e * 100.0)),
                c.words
            ));
        }
        out.push_str(&format!(
            "{:<15} {:>7} {:>14.6e} {:>14.6e} {:>10}\n",
            "total",
            self.categories.iter().map(|c| c.events).sum::<usize>(),
            self.total_predicted_seconds,
            self.total_measured_seconds,
            format!("{:+.2}%", self.total_rel_error() * 100.0)
        ));
        if let Some(g) = self.gflops_equivalent() {
            out.push_str(&format!(
                "figure of merit: {:.4} GFLOP/s-equivalent ({} flops in {:.6e} simulated s)\n",
                g, self.total_flops, self.total_measured_seconds
            ));
        }
        if self.unpredicted_events > 0 {
            out.push_str(&format!(
                "({} events had no closed-form prediction and count at measured time)\n",
                self.unpredicted_events
            ));
        }
        if let Some(w) = self.worst.first() {
            if (w.measured_seconds - w.predicted_seconds).abs() > 1e-15 {
                out.push_str(&format!(
                    "worst offender: event #{} {} [{}] predicted {:.6e}s measured {:.6e}s\n",
                    w.event, w.kind, w.span, w.predicted_seconds, w.measured_seconds
                ));
            }
        }
        out
    }
}

/// Extract the iteration number from a span path like
/// `solve/iter=3/matvec`.
fn iteration_of(span: &str) -> Option<usize> {
    span.split('/')
        .find_map(|seg| seg.strip_prefix("iter=").and_then(|k| k.parse().ok()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{FaultPlan, Machine};

    fn traced_machine() -> Machine {
        let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        m.set_tracing(true);
        m
    }

    #[test]
    fn clean_trace_has_zero_drift_in_every_category() {
        let mut m = traced_machine();
        {
            let _s = hpf_machine::span::enter("solve");
            for k in 1..=3 {
                let _it = hpf_machine::span::enter(format!("iter={k}"));
                m.compute_all(&[200, 200, 200, 200], "local-matvec");
                m.allgather(64, "bcast-p");
                m.compute_all(&[50, 50, 50, 50], "dot-local");
                m.allreduce(1, "dot-merge");
                m.compute_all(&[30, 30, 30, 30], "saxpy");
            }
        }
        let report = DriftReport::from_trace(m.trace(), Topology::Hypercube, m.cost_model());
        assert!(
            report.max_abs_rel_error() < 1e-9,
            "clean simulated trace must agree with the model: {}",
            report.render()
        );
        assert!((report.total_measured_seconds - m.elapsed()).abs() < 1e-12);
        assert_eq!(report.unpredicted_events, 0);
        assert_eq!(report.iterations.len(), 3);
        let names: Vec<&str> = report
            .categories
            .iter()
            .map(|c| c.category.name())
            .collect();
        assert!(names.contains(&"saxpy"));
        assert!(names.contains(&"dot-reduce"));
        assert!(names.contains(&"matvec-gather"));
        assert!(names.contains(&"compute-bulk"));
    }

    #[test]
    fn classification_separates_the_two_matvec_layouts() {
        let mut m = traced_machine();
        m.allgather(64, "s1-bcast-p"); // (BLOCK,*): gather p
        m.allreduce(256, "s2-sum-merge"); // (*,BLOCK): reduce q
        m.allreduce(1, "dot-merge"); // scalar dot
        let e = m.trace().events();
        assert_eq!(classify(&e[0]), DriftCategory::MatvecGather);
        assert_eq!(classify(&e[1]), DriftCategory::MatvecReduce);
        assert_eq!(classify(&e[2]), DriftCategory::DotReduce);
    }

    #[test]
    fn imbalance_and_faults_surface_as_drift_and_overhead() {
        let mut m = traced_machine();
        m.set_fault_plan(FaultPlan::new().with_straggler(1, 2, 5.0, 4));
        {
            let _s = hpf_machine::span::enter("solve");
            let _it = hpf_machine::span::enter("iter=1");
            m.compute_all(&[100, 100, 100, 700], "local-matvec"); // imbalanced
            m.allgather(32, "bcast-p"); // straggler hits this op
        }
        let report = DriftReport::from_trace(m.trace(), Topology::Hypercube, m.cost_model());
        // The imbalanced compute is predicted at the balanced time, so
        // compute-bulk shows positive drift.
        let bulk = report
            .categories
            .iter()
            .find(|c| c.category == DriftCategory::ComputeBulk)
            .unwrap();
        assert!(bulk.rel_error().unwrap() > 0.5, "{}", report.render());
        assert!(report.total_rel_error() > 0.0);
        // The worst offender list leads with a genuinely drifted event.
        let w = &report.worst[0];
        assert!(w.measured_seconds > w.predicted_seconds);
        // Fault penalty events (if any were recorded) land in overhead
        // with no prediction.
        for c in &report.categories {
            if c.category == DriftCategory::Overhead {
                assert_eq!(c.predicted_events, 0);
            }
        }
    }

    /// `mg-*` labels carve multigrid work out of the generic buckets:
    /// smoother-side events (compute *and* its halo Redistribute) land
    /// in `mg-smooth`, transfer-side events (restrict/prolong motion
    /// and apply, the coarse funnel) in `mg-transfer`, while non-mg
    /// events keep their old categories.
    #[test]
    fn mg_labels_split_into_smoother_and_transfer_categories() {
        let mut m = traced_machine();
        m.compute_all(&[40, 40, 40, 40], "mg-smooth");
        let traffic = vec![
            vec![0, 8, 0, 0],
            vec![8, 0, 8, 0],
            vec![0, 8, 0, 8],
            vec![0, 0, 8, 0],
        ];
        m.exchange(&traffic, "mg-halo");
        m.compute_all(&[60, 60, 60, 60], "mg-residual");
        m.exchange(&traffic, "mg-restrict");
        m.compute_all(&[20, 20, 20, 20], "mg-restrict-apply");
        m.exchange(&traffic, "mg-prolong");
        m.compute_all(&[20, 20, 20, 20], "mg-prolong-apply");
        m.gather_varying(0, &[3, 2, 2, 2], "mg-coarse-gather");
        m.compute_serial(50, "mg-coarse-solve");
        m.scatter_varying(0, &[3, 2, 2, 2], "mg-coarse-scatter");
        m.compute_all(&[30, 30, 30, 30], "saxpy");
        let e = m.trace().events();
        let cats: Vec<DriftCategory> = e.iter().map(classify).collect();
        use DriftCategory::{MgSmooth, MgTransfer, Saxpy};
        assert_eq!(
            cats,
            vec![
                MgSmooth, MgSmooth, MgSmooth, // smooth, halo, residual
                MgTransfer, MgTransfer, MgTransfer, MgTransfer, // restrict, prolong
                MgTransfer, MgSmooth, MgTransfer, // coarse gather/solve/scatter
                Saxpy,
            ]
        );
        // A clean simulated V-cycle-ish trace drifts ~0 in both new
        // categories (halo/transfer Redistributes count at measured).
        let report = DriftReport::from_trace(m.trace(), Topology::Hypercube, m.cost_model());
        for want in [MgSmooth, MgTransfer] {
            let c = report
                .categories
                .iter()
                .find(|c| c.category == want)
                .unwrap();
            assert!(c.events > 0);
            assert!(
                c.rel_error().unwrap().abs() < 1e-9,
                "{}: {}",
                want.name(),
                report.render()
            );
        }
        assert!(report.to_json().contains("\"mg-smooth\""));
        assert!(report.to_json().contains("\"mg-transfer\""));
    }

    /// The HPCG-style figure of merit divides recorded flops by
    /// simulated seconds and survives the empty-trace edge case.
    #[test]
    fn gflops_equivalent_comes_from_recorded_flops_and_simulated_time() {
        let mut m = traced_machine();
        m.compute_all(&[1000, 1000, 1000, 1000], "mg-smooth");
        m.allreduce(1, "dot-merge");
        let report = DriftReport::from_trace(m.trace(), Topology::Hypercube, m.cost_model());
        assert_eq!(report.total_flops, 4000);
        let g = report.gflops_equivalent().unwrap();
        assert!((g - 4000.0 / m.elapsed() / 1e9).abs() < 1e-12 * g);
        assert!(report.render().contains("GFLOP/s-equivalent"));
        assert!(report.to_json().contains("\"gflops_equivalent\":"));

        let empty = DriftReport::from_trace(
            traced_machine().trace(),
            Topology::Hypercube,
            &CostModel::mpp_1995(),
        );
        assert_eq!(empty.gflops_equivalent(), None);
        assert!(empty.to_json().contains("\"gflops_equivalent\":null"));
    }

    #[test]
    fn report_json_is_valid_and_names_every_section() {
        let mut m = traced_machine();
        {
            let _s = hpf_machine::span::enter("solve");
            let _it = hpf_machine::span::enter("iter=1");
            m.compute_all(&[10, 10, 10, 10], "saxpy");
            m.allreduce(1, "dot-merge");
        }
        let report = DriftReport::from_trace(m.trace(), Topology::Hypercube, m.cost_model());
        let json = report.to_json();
        crate::json::validate(&json).expect("drift JSON must be strict");
        for key in [
            "schema_version",
            "topology",
            "total_predicted_seconds",
            "total_measured_seconds",
            "total_rel_error",
            "max_abs_rel_error",
            "categories",
            "worst",
            "iterations",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"iteration\":1"));
    }

    #[test]
    fn empty_trace_yields_an_empty_but_valid_report() {
        let m = traced_machine();
        let report = DriftReport::from_trace(m.trace(), Topology::Hypercube, m.cost_model());
        assert!(report.categories.is_empty());
        assert!(report.worst.is_empty());
        assert!(report.iterations.is_empty());
        assert_eq!(report.total_rel_error(), 0.0);
        crate::json::validate(&report.to_json()).unwrap();
        assert!(report.render().contains("total"));
    }

    #[test]
    fn iteration_parsing_handles_nested_and_missing_segments() {
        assert_eq!(iteration_of("solve/iter=7/matvec/deep/nest"), Some(7));
        assert_eq!(iteration_of("solve/setup"), None);
        assert_eq!(iteration_of(""), None);
        assert_eq!(iteration_of("iter=2"), Some(2));
        assert_eq!(iteration_of("solve/iter=x/matvec"), None);
    }
}
