//! Per-iteration solver telemetry hooks.
//!
//! Every iterative solver in this crate can report one [`IterSample`] per
//! iteration through an [`IterObserver`] — residual norm, the CG scalars
//! alpha/beta, and the machine-charged flops, words and simulated time
//! attributable to that iteration. The protected
//! solvers additionally report rollback and restart events. The hook is
//! how the observability layer (`hpf-obs`) builds convergence histories
//! without the solvers knowing anything about exporters or file formats.
//!
//! Observers are deliberately `&mut dyn` trait objects: the solver inner
//! loops stay monomorphised over the operator only, and passing
//! [`NullObserver`] keeps an un-observed solve zero-cost in practice (one
//! virtual call per iteration on a no-op body).

/// Telemetry for one solver iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterSample {
    /// 1-based iteration number (matches `SolveStats::iterations` after
    /// the iteration completes).
    pub iteration: usize,
    /// Residual norm after this iteration (`||r||_2`, or the GMRES
    /// residual estimate).
    pub residual_norm: f64,
    /// Step length alpha for this iteration; `NaN` where the method has
    /// no single alpha (e.g. GMRES).
    pub alpha: f64,
    /// Direction-update scalar beta; `NaN` where not applicable.
    pub beta: f64,
    /// Flops charged to the machine *during* this iteration.
    pub flops: u64,
    /// Words sent into the network during this iteration.
    pub comm_words: u64,
    /// Simulated machine time at the *end* of this iteration —
    /// cumulative, so deltas between samples give per-iteration cost.
    pub sim_time: f64,
    /// What the analytic cost model *predicts* the machine time should
    /// be at the end of this iteration (cumulative, like
    /// [`IterSample::sim_time`]; events with no closed form — faults,
    /// redistributes — count at their measured time, so at zero drift
    /// this equals `sim_time`). 0 when tracing is disabled on the machine.
    pub predicted_time: f64,
    /// Rollbacks performed so far in a protected solve (0 elsewhere).
    pub rollbacks: usize,
}

impl IterSample {
    /// Network traffic for this iteration in bytes (f64 words).
    pub fn comm_bytes(&self) -> u64 {
        self.comm_words * 8
    }
}

/// Observer of solver progress. All methods have no-op defaults except
/// [`IterObserver::on_iteration`]; implement the fault-path hooks only if
/// you care about protected solves.
pub trait IterObserver {
    /// Called once at the end of every iteration.
    fn on_iteration(&mut self, sample: &IterSample);

    /// A protected solver rolled back to a checkpoint, or retook its
    /// start-up. `iteration` is the iteration count at that moment;
    /// `reason` is a stable tag (`"non-finite"`, `"divergence"`, `"start-up"`).
    fn on_rollback(&mut self, iteration: usize, reason: &str) {
        let _ = (iteration, reason);
    }

    /// A protected solver replaced the recurrence residual with the true
    /// residual `b - Ax` (on drift, a stalled watchdog, a failed verification).
    fn on_restart(&mut self, iteration: usize) {
        let _ = iteration;
    }

    /// An auto-repartitioning driver moved the data layout mid-solve
    /// (`REDISTRIBUTE ... USING <partitioner>`). `iteration` is the
    /// cumulative iteration count at the moment of the move.
    fn on_repartition(&mut self, iteration: usize, partitioner: &str) {
        let _ = (iteration, partitioner);
    }
}

/// The do-nothing observer: what an un-observed solve passes.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl IterObserver for NullObserver {
    fn on_iteration(&mut self, _sample: &IterSample) {}
}

/// An observer that records everything — the simplest useful
/// implementation, and the one tests assert against.
#[derive(Debug, Default, Clone)]
pub struct RecordingObserver {
    pub samples: Vec<IterSample>,
    /// `(iteration, reason)` pairs, in occurrence order.
    pub rollbacks: Vec<(usize, String)>,
    /// Iterations at which a restart-from-true-residual happened.
    pub restarts: Vec<usize>,
    /// `(iteration, partitioner name)` pairs for mid-solve
    /// `REDISTRIBUTE USING` moves, in occurrence order.
    pub repartitions: Vec<(usize, String)>,
}

impl RecordingObserver {
    pub fn new() -> Self {
        Self::default()
    }

    /// Residual norms in iteration order.
    pub fn residuals(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.residual_norm).collect()
    }
}

impl IterObserver for RecordingObserver {
    fn on_iteration(&mut self, sample: &IterSample) {
        self.samples.push(*sample);
    }

    fn on_rollback(&mut self, iteration: usize, reason: &str) {
        self.rollbacks.push((iteration, reason.to_string()));
    }

    fn on_restart(&mut self, iteration: usize) {
        self.restarts.push(iteration);
    }

    fn on_repartition(&mut self, iteration: usize, partitioner: &str) {
        self.repartitions.push((iteration, partitioner.to_string()));
    }
}

/// A bounded last-N observer: the solver-side arm of the flight
/// recorder. Where [`RecordingObserver`] keeps every sample (fine for
/// tests, unbounded for a service), this ring retains only the tail of
/// the residual series — enough for a post-mortem to detect divergence
/// (non-finite residuals), stagnation (a flat tail) and corruption jumps
/// without the solve's memory footprint growing with its length.
#[derive(Debug, Clone)]
pub struct TailObserver {
    capacity: usize,
    samples: std::collections::VecDeque<IterSample>,
    rollbacks: Vec<(usize, String)>,
    restarts: Vec<usize>,
    overwritten: u64,
}

impl TailObserver {
    pub fn new(capacity: usize) -> Self {
        TailObserver {
            capacity: capacity.max(1),
            samples: std::collections::VecDeque::new(),
            rollbacks: Vec::new(),
            restarts: Vec::new(),
            overwritten: 0,
        }
    }

    /// Retained samples, oldest first.
    pub fn tail(&self) -> Vec<IterSample> {
        self.samples.iter().cloned().collect()
    }

    /// `(iteration, reason)` rollback log (bounded by the same capacity).
    pub fn rollbacks(&self) -> &[(usize, String)] {
        &self.rollbacks
    }

    /// Iterations at which a restart-from-true-residual happened.
    pub fn restarts(&self) -> &[usize] {
        &self.restarts
    }

    /// Samples recorded but pushed out of the bounded ring.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    pub fn last(&self) -> Option<&IterSample> {
        self.samples.back()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty() && self.rollbacks.is_empty()
    }

    /// Reset for the next solve (keeps the capacity).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.rollbacks.clear();
        self.restarts.clear();
        self.overwritten = 0;
    }
}

impl IterObserver for TailObserver {
    fn on_iteration(&mut self, sample: &IterSample) {
        if self.samples.len() >= self.capacity {
            self.samples.pop_front();
            self.overwritten += 1;
        }
        self.samples.push_back(*sample);
    }

    fn on_rollback(&mut self, iteration: usize, reason: &str) {
        if self.rollbacks.len() < self.capacity {
            self.rollbacks.push((iteration, reason.to_string()));
        }
    }

    fn on_restart(&mut self, iteration: usize) {
        if self.restarts.len() < self.capacity {
            self.restarts.push(iteration);
        }
    }
}

/// Snapshot of machine counters used to attribute per-iteration deltas.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MachineMark {
    flops: u64,
    words: u64,
    /// Trace length at the mark — new events since it are what the cost
    /// oracle prices for [`MachineMark::predicted`].
    events: usize,
    /// Cumulative analytically predicted machine time (see
    /// [`IterSample::predicted_time`]).
    predicted: f64,
}

impl MachineMark {
    pub(crate) fn take(machine: &hpf_machine::Machine) -> Self {
        MachineMark {
            flops: machine.total_flops(),
            words: machine.total_words_sent(),
            events: machine.trace().len(),
            // Start the predicted clock at the machine's current elapsed
            // time, so cumulative predictions stay comparable to
            // `machine.elapsed()` even on a machine with pre-solve work.
            predicted: machine.elapsed(),
        }
    }

    /// Delta since this mark, advancing the mark to now (and pricing the
    /// events recorded in between with the machine's own cost model).
    pub(crate) fn delta(&mut self, machine: &hpf_machine::Machine) -> (u64, u64) {
        let flops = machine.total_flops();
        let words = machine.total_words_sent();
        let d = (
            flops.saturating_sub(self.flops),
            words.saturating_sub(self.words),
        );
        self.flops = flops;
        self.words = words;
        let trace = machine.trace();
        let price = Some((machine.topology(), machine.cost_model()));
        let window = trace.window(self.events..trace.len(), price, false);
        self.predicted += window.predicted;
        self.events = trace.len();
        d
    }

    /// Cumulative predicted machine time up to the last `delta` call.
    pub(crate) fn predicted(&self) -> f64 {
        self.predicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_observer_accumulates() {
        let mut obs = RecordingObserver::new();
        obs.on_iteration(&IterSample {
            iteration: 1,
            residual_norm: 0.5,
            alpha: 1.0,
            beta: 0.0,
            flops: 10,
            comm_words: 4,
            sim_time: 0.1,
            predicted_time: 0.1,
            rollbacks: 0,
        });
        obs.on_rollback(1, "non-finite");
        obs.on_restart(2);
        obs.on_repartition(3, "greedy-hypergraph");
        assert_eq!(obs.samples.len(), 1);
        assert_eq!(obs.samples[0].comm_bytes(), 32);
        assert_eq!(obs.rollbacks, vec![(1, "non-finite".to_string())]);
        assert_eq!(obs.restarts, vec![2]);
        assert_eq!(obs.repartitions, vec![(3, "greedy-hypergraph".to_string())]);
        assert_eq!(obs.residuals(), vec![0.5]);
    }

    fn sample(iteration: usize, residual: f64) -> IterSample {
        IterSample {
            iteration,
            residual_norm: residual,
            alpha: 1.0,
            beta: 0.0,
            flops: 0,
            comm_words: 0,
            sim_time: 0.0,
            predicted_time: 0.0,
            rollbacks: 0,
        }
    }

    #[test]
    fn tail_observer_keeps_only_the_last_n_samples() {
        let mut obs = TailObserver::new(3);
        for i in 1..=5 {
            obs.on_iteration(&sample(i, 1.0 / i as f64));
        }
        obs.on_rollback(4, "non-finite");
        obs.on_restart(5);
        let tail = obs.tail();
        assert_eq!(
            tail.iter().map(|s| s.iteration).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(obs.overwritten(), 2);
        assert_eq!(obs.last().unwrap().iteration, 5);
        assert_eq!(obs.rollbacks(), &[(4, "non-finite".to_string())]);
        assert_eq!(obs.restarts(), &[5]);
        assert!(!obs.is_empty());
        obs.clear();
        assert!(obs.is_empty());
        assert_eq!(obs.overwritten(), 0);
    }

    #[test]
    fn null_observer_is_a_no_op() {
        let mut obs = NullObserver;
        obs.on_iteration(&IterSample {
            iteration: 1,
            residual_norm: 1.0,
            alpha: f64::NAN,
            beta: f64::NAN,
            flops: 0,
            comm_words: 0,
            sim_time: 0.0,
            predicted_time: 0.0,
            rollbacks: 0,
        });
        obs.on_rollback(0, "x");
        obs.on_restart(0);
    }
}
