//! Deadline-aware admission control driven by the §4 cost oracle.
//!
//! A job carrying a deadline is only worth queuing if it can plausibly
//! finish inside it. At submit time the controller prices the job with
//! the closed-form per-iteration CG cost
//! ([`hpf_machine::cg_iteration_seconds`]) scaled by two continuously
//! calibrated factors learned from completed solves:
//!
//! * **iterations** — an EWMA of `iterations / √n` (CG's condition-number
//!   driven iteration count grows roughly with √κ, and for the banded
//!   test families κ grows with n), clamped to `[1, max_iters]`;
//! * **wall calibration** — an EWMA of `wall µs / simulated second`,
//!   mapping the oracle's simulated seconds onto this host's real time
//!   (plan-cache hits, operator build, and scheduling overhead included).
//!
//! The admission inequality is then
//!
//! ```text
//!   queue_ahead_µs / workers  +  predicted_self_µs  >  deadline_µs   ⇒ Shed
//! ```
//!
//! where `queue_ahead_µs` estimates how much admitted-but-unfinished
//! work will actually be served *before* this job. That estimate must
//! respect the intake's weighted-fair dequeue: a batch flood does
//! not delay an interactive job by the whole batch backlog, because the
//! interactive class keeps its `w_c / Σw` share of worker attention.
//! Backlog is therefore tracked per QoS class, and a class-`c` job's
//! queue-ahead is the smaller of its guaranteed-share drain time and
//! the FIFO bound:
//!
//! ```text
//!   queue_ahead_µs = min(backlog_c_µs · Σw / w_c,  Σ backlog_µs)
//! ```
//!
//! (Pricing the whole backlog against every class regardless of weight
//! over-sheds badly under sustained overload — the E27 hindsight audit
//! caught exactly that, as a shed-when-feasible rate near 80%.) The
//! weights `w` are the intake's 6 : 3 : 1 `QOS_WEIGHTS`. Until
//! `ADMISSION_MIN_SAMPLES` (8) completions have calibrated the factors,
//! everything is admitted (cold start must not shed), and jobs without
//! deadlines are never shed — they only contribute backlog.

use crate::request::{QosClass, ServiceConfig, SolveRequest, QOS_WEIGHTS, TOPOLOGY};
use hpf_machine::{cg_iteration_seconds, CostModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Completed solves observed before the controller trusts its wall-clock
/// calibration enough to shed (cold start admits everything): from then
/// on a job whose deadline the cost oracle predicts cannot be met given
/// the current backlog is rejected on arrival (typed
/// [`crate::ServiceError::Shed`]). A request without a deadline is never
/// shed.
const ADMISSION_MIN_SAMPLES: u64 = 8;

/// EWMA smoothing factor for both calibration series.
const ALPHA: f64 = 0.2;

/// Prior for `iterations / √n` before any observation (a safe
/// under-estimate keeps cold predictions optimistic — admission errs
/// toward accepting).
const ITERS_PER_SQRT_N_PRIOR: f64 = 2.0;

/// Verdict of [`AdmissionController::decide`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Queue the job; `predicted_us` is its backlog contribution (0
    /// until calibrated).
    Admit { predicted_us: u64 },
    /// Refuse on arrival: predicted completion exceeds the deadline.
    Shed {
        predicted: Duration,
        budget: Duration,
    },
}

/// Shared, lock-free admission state (atomics only; submit is on the
/// caller's thread and must stay cheap).
#[derive(Debug)]
pub struct AdmissionController {
    workers: u64,
    np: usize,
    cost: CostModel,
    /// Completed-solve observations so far.
    samples: AtomicU64,
    /// EWMA of wall µs per simulated second (f64 bits).
    calib_us_per_sim: AtomicU64,
    /// EWMA of `iterations / √n` (f64 bits).
    iters_per_sqrt_n: AtomicU64,
    /// Predicted µs of admitted-but-unfinished work, per QoS class.
    backlog_us: [AtomicU64; 3],
}

impl AdmissionController {
    pub fn new(config: &ServiceConfig) -> Self {
        AdmissionController {
            workers: config.workers.max(1) as u64,
            np: config.np,
            cost: CostModel::mpp_1995(),
            samples: AtomicU64::new(0),
            calib_us_per_sim: AtomicU64::new(0f64.to_bits()),
            iters_per_sqrt_n: AtomicU64::new(ITERS_PER_SQRT_N_PRIOR.to_bits()),
            backlog_us: Default::default(),
        }
    }

    /// Whether enough completions have been observed to trust the
    /// calibration (and therefore to shed).
    pub fn calibrated(&self) -> bool {
        self.samples.load(Ordering::Relaxed) >= ADMISSION_MIN_SAMPLES
    }

    /// Predicted wall µs for `request`'s own execution (queue excluded).
    pub fn predict_self_us(&self, request: &SolveRequest) -> u64 {
        let n = request.matrix.n_rows();
        let nnz = request.matrix.nnz();
        let per_iter = cg_iteration_seconds(n, nnz, self.np, TOPOLOGY, &self.cost);
        let est_iters = (load_f64(&self.iters_per_sqrt_n) * (n as f64).sqrt())
            .clamp(1.0, request.max_iters.max(1) as f64);
        let sim_seconds = per_iter * est_iters * request.rhs.len().max(1) as f64;
        let us = sim_seconds * load_f64(&self.calib_us_per_sim);
        if us.is_finite() && us > 0.0 {
            us as u64
        } else {
            0
        }
    }

    /// Predicted µs of already-admitted work served before a new job of
    /// `class`: the lesser of the class's guaranteed-share drain time
    /// (`backlog_c · Σw / w_c`) and the FIFO bound (total backlog),
    /// spread over the workers.
    pub fn queue_ahead_us(&self, class: QosClass) -> u64 {
        let own = self.backlog_us[class.index()].load(Ordering::Relaxed);
        let total: u64 = self
            .backlog_us
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        let weight_sum: u64 = QOS_WEIGHTS.iter().map(|&w| u64::from(w)).sum();
        let share_bound = own.saturating_mul(weight_sum) / u64::from(QOS_WEIGHTS[class.index()]);
        share_bound.min(total) / self.workers
    }

    /// The admission verdict for `request` given the current backlog.
    pub fn decide(&self, request: &SolveRequest) -> AdmissionDecision {
        if !self.calibrated() {
            return AdmissionDecision::Admit { predicted_us: 0 };
        }
        let self_us = self.predict_self_us(request);
        if let Some(budget) = request.deadline {
            let predicted_us = self.queue_ahead_us(request.qos).saturating_add(self_us);
            let budget_us = budget.as_micros().min(u64::MAX as u128) as u64;
            if predicted_us > budget_us {
                return AdmissionDecision::Shed {
                    predicted: Duration::from_micros(predicted_us),
                    budget,
                };
            }
        }
        AdmissionDecision::Admit {
            predicted_us: self_us,
        }
    }

    /// Account an admitted job's predicted cost into its class backlog.
    /// Must be balanced by exactly one [`AdmissionController::release`]
    /// (same class) when the job reaches a terminal response.
    pub fn admit(&self, class: QosClass, predicted_us: u64) {
        if predicted_us > 0 {
            self.backlog_us[class.index()].fetch_add(predicted_us, Ordering::Relaxed);
        }
    }

    /// Remove a terminal job's contribution from its class backlog.
    pub fn release(&self, class: QosClass, predicted_us: u64) {
        if predicted_us > 0 {
            // fetch_update to saturate at zero rather than wrapping.
            let _ = self.backlog_us[class.index()].fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |v| Some(v.saturating_sub(predicted_us)),
            );
        }
    }

    /// Feed one completed solve back into the calibration: `n` matrix
    /// rows, mean `iterations` per right-hand side, the attempt's
    /// simulated seconds, and the job's wall execution time. Callers
    /// should only report clean first-attempt successes — retries and
    /// fault-plan runs would teach the oracle the faults, not the costs.
    pub fn observe(&self, n: usize, iterations: f64, sim_seconds: f64, wall: Duration) {
        if sim_seconds <= 0.0 || n == 0 {
            return;
        }
        let wall_us = wall.as_micros().min(u64::MAX as u128) as f64;
        let calib = wall_us / sim_seconds;
        let iters_norm = (iterations / (n as f64).sqrt()).max(0.0);
        if !calib.is_finite() || !iters_norm.is_finite() {
            return;
        }
        let first = self.samples.fetch_add(1, Ordering::Relaxed) == 0;
        ewma_update(&self.calib_us_per_sim, calib, first);
        ewma_update(&self.iters_per_sqrt_n, iters_norm, first);
    }
}

fn load_f64(a: &AtomicU64) -> f64 {
    f64::from_bits(a.load(Ordering::Relaxed))
}

/// Racy-but-harmless EWMA update (metrics-grade accuracy: a lost update
/// under contention skews the estimate by one sample at most).
fn ewma_update(cell: &AtomicU64, sample: f64, first: bool) {
    let next = if first {
        sample
    } else {
        let old = f64::from_bits(cell.load(Ordering::Relaxed));
        (1.0 - ALPHA) * old + ALPHA * sample
    };
    cell.store(next.to_bits(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{QosClass, ServiceConfig};
    use hpf_sparse::gen;
    use std::sync::Arc;

    /// The predicted backlog in µs, all classes.
    fn backlog(c: &AdmissionController) -> u64 {
        c.backlog_us.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    fn controller() -> AdmissionController {
        AdmissionController::new(&ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
    }

    fn request(deadline: Option<Duration>) -> SolveRequest {
        let a = Arc::new(gen::banded_spd(64, 3, 9));
        let mut r = SolveRequest::new(a, vec![1.0; 64]).qos(QosClass::Interactive);
        r.deadline = deadline;
        r
    }

    /// Feed completions until calibrated: 1 simulated second ≙ 1000 µs
    /// wall, √n iterations.
    fn calibrate(c: &AdmissionController) {
        for _ in 0..ADMISSION_MIN_SAMPLES {
            assert!(!c.calibrated());
            c.observe(64, 8.0, 1.0, Duration::from_millis(1));
        }
        assert!(c.calibrated());
    }

    #[test]
    fn cold_start_admits_everything() {
        let c = controller();
        let verdict = c.decide(&request(Some(Duration::from_nanos(1))));
        assert_eq!(verdict, AdmissionDecision::Admit { predicted_us: 0 });
    }

    #[test]
    fn calibrated_controller_sheds_impossible_deadlines() {
        let c = controller();
        calibrate(&c);
        // Prediction is strictly positive once calibrated, so a 1 ns
        // budget must be shed, and an hour must be admitted.
        match c.decide(&request(Some(Duration::from_nanos(1)))) {
            AdmissionDecision::Shed { predicted, budget } => {
                assert!(predicted > budget);
                assert_eq!(budget, Duration::from_nanos(1));
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        match c.decide(&request(Some(Duration::from_secs(3600)))) {
            AdmissionDecision::Admit { predicted_us } => assert!(predicted_us > 0),
            other => panic!("expected Admit, got {other:?}"),
        }
    }

    #[test]
    fn jobs_without_deadlines_are_admitted_but_priced() {
        let c = controller();
        calibrate(&c);
        match c.decide(&request(None)) {
            AdmissionDecision::Admit { predicted_us } => assert!(predicted_us > 0),
            other => panic!("expected Admit, got {other:?}"),
        }
    }

    #[test]
    fn backlog_tightens_admission_and_release_relaxes_it() {
        let c = controller();
        calibrate(&c);
        let r = request(None);
        let self_us = c.predict_self_us(&r);
        assert!(self_us > 0);
        // A moderate deadline fits an empty queue...
        let budget = Duration::from_micros(2 * self_us);
        let mut req = request(Some(budget));
        req.deadline = Some(budget);
        assert!(matches!(c.decide(&req), AdmissionDecision::Admit { .. }));
        // ...but not a backlog worth many jobs per worker in the job's
        // own class.
        c.admit(QosClass::Interactive, self_us * 100);
        assert!(matches!(c.decide(&req), AdmissionDecision::Shed { .. }));
        c.release(QosClass::Interactive, self_us * 100);
        assert!(matches!(c.decide(&req), AdmissionDecision::Admit { .. }));
        // Release saturates instead of wrapping.
        c.release(QosClass::Interactive, u64::MAX);
        assert_eq!(backlog(&c), 0);
    }

    #[test]
    fn batch_flood_does_not_shed_interactive_jobs() {
        let c = controller();
        calibrate(&c);
        let self_us = c.predict_self_us(&request(None));
        let budget = Duration::from_micros(2 * self_us);
        // A huge batch backlog: FIFO pricing would predict hours of
        // queueing, but the interactive class keeps its weighted-fair
        // share, so its own empty backlog is what counts.
        c.admit(QosClass::Batch, self_us * 10_000);
        assert_eq!(c.queue_ahead_us(QosClass::Interactive), 0);
        assert!(matches!(
            c.decide(&request(Some(budget))),
            AdmissionDecision::Admit { .. }
        ));
        // The flooded class itself still sheds, and its share bound is
        // capped by the FIFO bound (it cannot wait longer than the
        // whole backlog drained at full rate).
        let batch_req = {
            let mut r = request(Some(budget));
            r.qos = QosClass::Batch;
            r
        };
        assert!(matches!(
            c.decide(&batch_req),
            AdmissionDecision::Shed { .. }
        ));
        assert!(c.queue_ahead_us(QosClass::Batch) <= backlog(&c));
    }

    #[test]
    fn prediction_scales_with_problem_size_and_rhs_count() {
        let c = controller();
        c.observe(64, 8.0, 1.0, Duration::from_millis(1));
        let small = c.predict_self_us(&request(None));
        let big_matrix = Arc::new(gen::banded_spd(512, 3, 9));
        let big = c.predict_self_us(&SolveRequest::new(big_matrix.clone(), vec![1.0; 512]));
        assert!(big > small, "bigger system must price higher");
        let multi = c.predict_self_us(&SolveRequest::with_rhs_set(
            big_matrix,
            vec![vec![1.0; 512]; 4],
        ));
        assert!(multi > 3 * big, "4 right-hand sides ≈ 4× one");
    }
}
