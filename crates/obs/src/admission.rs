//! Audit trail for the service's deadline-aware admission controller.
//!
//! The controller (`hpf_service::AdmissionController`) sheds a request
//! when its predicted completion time exceeds the deadline budget. That
//! prediction can be wrong in two directions, and only one of them is
//! observable from inside the service:
//!
//! - **shed too little** — an admitted job misses its deadline anyway;
//!   the service already counts that (`deadline_exceeded`).
//! - **shed too much** — a refused job *would* have finished in time.
//!   Nobody runs the refused job, so the service cannot know. This
//!   module reconstructs it in hindsight: a shed was *feasible* if its
//!   budget was at least the p99 wall latency of comparable jobs that
//!   did complete. The chaos-soak gate (E27) holds the resulting
//!   [`AdmissionAudit::shed_when_feasible_rate`] under a bound, so the
//!   controller is penalised for being trigger-happy, not just for
//!   being permissive.
//!
//! The audit is fed from the *outside* of the service (the load
//! harness records every shed's `predicted`/`budget` pair and every
//! completion's wall latency), keeping the `hpf-service` → `hpf-obs`
//! dependency direction intact.

use crate::json::Obj;
use hpf_service::QosClass;
use std::sync::Mutex;
use std::time::Duration;

/// One refused request: what the controller predicted, what the caller
/// was willing to wait.
#[derive(Debug, Clone, Copy)]
pub struct ShedSample {
    pub class: QosClass,
    pub predicted_us: u64,
    pub budget_us: u64,
}

#[derive(Default)]
struct Inner {
    sheds: Vec<ShedSample>,
    /// Completed-job wall latencies (µs), one bucket per QoS class.
    completed_us: [Vec<u64>; 3],
}

/// Thread-safe collector for shed decisions and completed-job
/// latencies; see the module docs for the hindsight-feasibility rule.
#[derive(Default)]
pub struct AdmissionAudit {
    inner: Mutex<Inner>,
}

impl AdmissionAudit {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a refusal (`ServiceError::Shed`) with the controller's
    /// stated prediction and the request's budget.
    pub fn record_shed(&self, class: QosClass, predicted: Duration, budget: Duration) {
        self.inner.lock().unwrap().sheds.push(ShedSample {
            class,
            predicted_us: predicted.as_micros() as u64,
            budget_us: budget.as_micros() as u64,
        });
    }

    /// Record the wall latency (submit → response) of a job that
    /// completed successfully.
    pub fn record_completed(&self, class: QosClass, wall: Duration) {
        self.inner.lock().unwrap().completed_us[class.index()].push(wall.as_micros() as u64);
    }

    /// Number of sheds recorded so far.
    pub fn sheds(&self) -> usize {
        self.inner.lock().unwrap().sheds.len()
    }

    /// Number of completed-latency samples recorded so far.
    pub fn completions(&self) -> usize {
        self.inner
            .lock()
            .unwrap()
            .completed_us
            .iter()
            .map(Vec::len)
            .sum()
    }

    /// The `q`-quantile (`0.0..=1.0`) of completed wall latencies for
    /// `class`, falling back to the pooled distribution when the class
    /// has no samples. `None` until any completion is recorded.
    pub fn completed_quantile_us(&self, class: QosClass, q: f64) -> Option<u64> {
        let inner = self.inner.lock().unwrap();
        let bucket = &inner.completed_us[class.index()];
        if !bucket.is_empty() {
            return Some(percentile_us(bucket, q));
        }
        let pooled: Vec<u64> = inner.completed_us.iter().flatten().copied().collect();
        if pooled.is_empty() {
            None
        } else {
            Some(percentile_us(&pooled, q))
        }
    }

    /// Fraction of sheds that were feasible in hindsight: the budget
    /// was at least the p99 completed wall latency of the shed's own
    /// class. `0.0` when nothing was shed, and also when nothing
    /// completed (no evidence that any budget was meetable).
    pub fn shed_when_feasible_rate(&self) -> f64 {
        let (sheds, p99s) = {
            let inner = self.inner.lock().unwrap();
            if inner.sheds.is_empty() {
                return 0.0;
            }
            let sheds = inner.sheds.clone();
            drop(inner);
            let p99s: [Option<u64>; 3] =
                std::array::from_fn(|i| self.completed_quantile_us(QosClass::ALL[i], 0.99));
            (sheds, p99s)
        };
        let feasible = sheds
            .iter()
            .filter(|s| matches!(p99s[s.class.index()], Some(p99) if s.budget_us >= p99))
            .count();
        feasible as f64 / sheds.len() as f64
    }

    /// One-object JSON summary for bench records and reports.
    pub fn to_json(&self) -> String {
        let rate = self.shed_when_feasible_rate();
        let inner = self.inner.lock().unwrap();
        let completions: usize = inner.completed_us.iter().map(Vec::len).sum();
        let mut out = String::new();
        {
            let mut o = Obj::new(&mut out);
            o.u64("sheds", inner.sheds.len() as u64)
                .u64("completions", completions as u64)
                .f64("shed_when_feasible_rate", rate);
            let mut classes = o.arr("classes");
            for c in QosClass::ALL {
                let bucket = &inner.completed_us[c.index()];
                let mut class = classes.obj();
                class
                    .str("class", c.name())
                    .u64("completed", bucket.len() as u64);
                if bucket.is_empty() {
                    class.null("p50_us").null("p99_us");
                } else {
                    class
                        .u64("p50_us", percentile_us(bucket, 0.50))
                        .u64("p99_us", percentile_us(bucket, 0.99));
                }
            }
        }
        out
    }
}

/// Nearest-rank percentile over raw microsecond samples; `q` clamped to
/// `0.0..=1.0`. Copies and sorts — audit-sized inputs, not hot-path.
pub fn percentile_us(samples: &[u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&s, 0.50), 50);
        assert_eq!(percentile_us(&s, 0.99), 99);
        assert_eq!(percentile_us(&s, 1.0), 100);
        assert_eq!(percentile_us(&s, 0.0), 1);
        assert_eq!(percentile_us(&[7], 0.99), 7);
    }

    #[test]
    fn feasible_rate_flags_budgets_above_the_completed_p99() {
        let audit = AdmissionAudit::new();
        // 100 interactive completions at 1..=100 ms → p99 = 99 ms.
        for ms in 1..=100u64 {
            audit.record_completed(QosClass::Interactive, Duration::from_millis(ms));
        }
        // Budget below p99: genuinely infeasible, not counted.
        audit.record_shed(
            QosClass::Interactive,
            Duration::from_millis(500),
            Duration::from_millis(50),
        );
        assert_eq!(audit.shed_when_feasible_rate(), 0.0);
        // Budget above p99: shed a job that typically would have made it.
        audit.record_shed(
            QosClass::Interactive,
            Duration::from_millis(500),
            Duration::from_millis(200),
        );
        assert_eq!(audit.shed_when_feasible_rate(), 0.5);
    }

    #[test]
    fn class_without_samples_falls_back_to_the_pool() {
        let audit = AdmissionAudit::new();
        for ms in [10u64, 20, 30] {
            audit.record_completed(QosClass::Batch, Duration::from_millis(ms));
        }
        // No interactive completions: the pooled p99 (30 ms) judges it.
        audit.record_shed(
            QosClass::Interactive,
            Duration::from_millis(100),
            Duration::from_millis(40),
        );
        assert_eq!(audit.shed_when_feasible_rate(), 1.0);
        assert_eq!(
            audit.completed_quantile_us(QosClass::Interactive, 0.99),
            Some(30_000)
        );
    }

    #[test]
    fn no_completions_means_no_feasibility_evidence() {
        let audit = AdmissionAudit::new();
        audit.record_shed(
            QosClass::Interactive,
            Duration::from_millis(1),
            Duration::from_secs(10),
        );
        assert_eq!(audit.shed_when_feasible_rate(), 0.0);
        assert_eq!(audit.completed_quantile_us(QosClass::Batch, 0.5), None);
    }

    #[test]
    fn json_summary_is_well_formed() {
        let audit = AdmissionAudit::new();
        audit.record_completed(QosClass::Interactive, Duration::from_millis(12));
        audit.record_shed(
            QosClass::BestEffort,
            Duration::from_millis(90),
            Duration::from_millis(5),
        );
        let json = audit.to_json();
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"sheds\":1"), "{json}");
        assert!(json.contains("\"completions\":1"), "{json}");
        assert!(json.contains("\"class\":\"interactive\""), "{json}");
    }
}
