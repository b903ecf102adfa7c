//! Retry, escalation, and circuit-breaking policies.
//!
//! Three layers of defence against failing solves:
//!
//! 1. **Retry with capped exponential backoff** — transient faults
//!    (injected corruption, stragglers) rarely strike twice; a re-run on
//!    a clean machine usually succeeds.
//! 2. **Escalation** — a numerical breakdown is not transient: CG on a
//!    near-indefinite system keeps breaking down no matter how often it
//!    is retried. Each retry therefore also steps down a chain of
//!    progressively more robust (and more expensive) methods:
//!    CG → BiCGSTAB → GMRES.
//! 3. **Circuit breaker** — a structure whose jobs keep failing even
//!    after escalation should stop consuming partitioner and worker
//!    time. After a threshold of consecutive failures the breaker opens
//!    for that [`Fingerprint`] and jobs are refused immediately with
//!    [`crate::ServiceError::CircuitOpen`]; after a cooldown one trial
//!    job is let through (half-open) and its outcome closes or re-opens
//!    the circuit.

use crate::fingerprint::Fingerprint;
use crate::lock;
use crate::request::SolverKind;
use hpf_solvers::SolverError;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Delay before retry `attempt` (1-based): `base * 2^(attempt-1)`,
/// capped at `cap`.
pub fn backoff_delay(base: Duration, cap: Duration, attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(20);
    base.saturating_mul(1u32 << shift).min(cap)
}

/// [`backoff_delay`] with deterministic jitter: the full exponential
/// delay is scaled by a factor in `[0.5, 1.0)` drawn from a splitmix64
/// hash of `(job_id, attempt)`. Jitter de-synchronises retry storms
/// (jobs that failed together stop retrying together), and seeding it
/// from the job id keeps every job's schedule reproducible — the same
/// job retries at the same instants in every run.
pub fn backoff_delay_jittered(
    base: Duration,
    cap: Duration,
    attempt: u32,
    job_id: u64,
) -> Duration {
    let full = backoff_delay(base, cap, attempt);
    let h = splitmix64(job_id ^ ((attempt as u64) << 32));
    // Top 53 bits → uniform in [0, 1), then map to [0.5, 1.0).
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    full.mul_f64(0.5 + 0.5 * unit)
}

/// splitmix64: tiny, high-quality 64-bit mixer (public-domain
/// constants). The workspace's one copy: retry jitter, trace ids
/// ([`crate::events::derive_trace_id`]), the bus's head sampling and the
/// experiments' request mixes all draw from it.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Whether a solver error class can plausibly be cured by a retry or an
/// escalation. Structural errors (dimension mismatch, non-square,
/// singular diagonal) fail the same way every time and are not retried.
pub fn is_retryable(e: &SolverError) -> bool {
    matches!(
        e,
        SolverError::Breakdown { .. }
            | SolverError::NonFinite { .. }
            | SolverError::Stagnation { .. }
            | SolverError::RecoveryExhausted { .. }
    )
}

/// Next, more robust method in the escalation chain; `None` when the
/// chain is exhausted.
pub fn escalate(kind: SolverKind) -> Option<SolverKind> {
    match kind {
        SolverKind::Cg | SolverKind::PcgJacobi | SolverKind::PcgMg { .. } | SolverKind::Bicg => {
            Some(SolverKind::Bicgstab)
        }
        SolverKind::Bicgstab => Some(SolverKind::Gmres { restart: 30 }),
        SolverKind::Gmres { .. } => None,
    }
}

/// Verdict from [`CircuitBreaker::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Circuit closed (or half-open trial): run the job.
    Allow,
    /// Circuit open: refuse without executing.
    Refuse,
}

#[derive(Debug, Default)]
struct BreakerEntry {
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// Per-fingerprint circuit breaker shared by the worker pool.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    entries: Mutex<HashMap<Fingerprint, BreakerEntry>>,
}

impl CircuitBreaker {
    /// `threshold` consecutive failures open the circuit for `cooldown`.
    /// A threshold of 0 disables the breaker entirely.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            threshold,
            cooldown,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// Decide whether a job keyed by `fp` may run now. An open circuit
    /// whose cooldown has elapsed admits one half-open trial (and
    /// re-arms the cooldown so concurrent workers don't all rush in).
    pub fn admit(&self, fp: Fingerprint) -> Admission {
        if self.threshold == 0 {
            return Admission::Allow;
        }
        let mut entries = lock(&self.entries);
        match entries.get_mut(&fp) {
            Some(e) => match e.opened_at {
                Some(t) if t.elapsed() < self.cooldown => Admission::Refuse,
                Some(_) => {
                    e.opened_at = Some(Instant::now());
                    Admission::Allow
                }
                None => Admission::Allow,
            },
            None => Admission::Allow,
        }
    }

    /// Record a successful solve: the circuit for `fp` closes fully.
    pub fn record_success(&self, fp: Fingerprint) {
        if self.threshold == 0 {
            return;
        }
        lock(&self.entries).remove(&fp);
    }

    /// Record a solver-class failure; opens the circuit once the
    /// consecutive-failure count reaches the threshold.
    pub fn record_failure(&self, fp: Fingerprint) {
        if self.threshold == 0 {
            return;
        }
        let mut entries = lock(&self.entries);
        let e = entries.entry(fp).or_default();
        e.consecutive_failures += 1;
        if e.consecutive_failures >= self.threshold {
            e.opened_at = Some(Instant::now());
        }
    }

    /// Number of fingerprints currently open.
    pub fn open_circuits(&self) -> usize {
        lock(&self.entries)
            .values()
            .filter(|e| matches!(e.opened_at, Some(t) if t.elapsed() < self.cooldown))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(seed: u64) -> Fingerprint {
        Fingerprint {
            n_rows: 8,
            n_cols: 8,
            nnz: 16,
            pattern_hash: seed,
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(5);
        assert_eq!(backoff_delay(base, cap, 1), Duration::from_millis(1));
        assert_eq!(backoff_delay(base, cap, 2), Duration::from_millis(2));
        assert_eq!(backoff_delay(base, cap, 3), Duration::from_millis(4));
        assert_eq!(backoff_delay(base, cap, 4), Duration::from_millis(5));
        assert_eq!(backoff_delay(base, cap, 30), Duration::from_millis(5));
    }

    /// The jittered schedule is a pure function of (job id, attempt):
    /// pin it exactly so an accidental change to the hash, the mapping,
    /// or the rounding shows up as a test diff, not a production
    /// thundering herd.
    #[test]
    fn jittered_backoff_schedule_is_pinned_for_a_fixed_seed() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(100);
        let schedule = |job_id: u64| -> Vec<u64> {
            (1..=5)
                .map(|a| backoff_delay_jittered(base, cap, a, job_id).as_nanos() as u64)
                .collect()
        };
        assert_eq!(
            schedule(42),
            vec![652_411, 1_138_688, 3_375_763, 6_290_018, 10_204_820]
        );
        assert_eq!(
            schedule(7),
            vec![577_752, 1_466_167, 3_164_491, 4_276_524, 14_852_410]
        );
        // Every delay stays within [full/2, full) of the unjittered curve.
        for job_id in [0u64, 1, 42, u64::MAX] {
            for attempt in 1..=8 {
                let full = backoff_delay(base, cap, attempt);
                let j = backoff_delay_jittered(base, cap, attempt, job_id);
                assert!(
                    j >= full / 2 && j < full,
                    "{job_id}/{attempt}: {j:?} vs {full:?}"
                );
            }
        }
    }

    #[test]
    fn escalation_chain_ends_at_gmres() {
        let mut kind = SolverKind::Cg;
        let mut chain = vec![kind];
        while let Some(next) = escalate(kind) {
            chain.push(next);
            kind = next;
        }
        assert_eq!(
            chain,
            vec![
                SolverKind::Cg,
                SolverKind::Bicgstab,
                SolverKind::Gmres { restart: 30 }
            ]
        );
        // MG-PCG sits ahead of the chain like the rest of the CG family:
        // a breakdown steps it down to BiCGSTAB.
        assert_eq!(
            escalate(SolverKind::PcgMg { levels: 3 }),
            Some(SolverKind::Bicgstab)
        );
    }

    #[test]
    fn retryable_classes() {
        assert!(is_retryable(&SolverError::Breakdown {
            what: "rho",
            value: 0.0
        }));
        assert!(is_retryable(&SolverError::NonFinite {
            what: "residual norm",
            value: f64::NAN
        }));
        assert!(!is_retryable(&SolverError::DimensionMismatch {
            expected: 4,
            got: 5
        }));
        assert!(!is_retryable(&SolverError::NotSymmetric));
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers() {
        let br = CircuitBreaker::new(3, Duration::from_millis(20));
        let f = fp(1);
        assert_eq!(br.admit(f), Admission::Allow);
        br.record_failure(f);
        br.record_failure(f);
        assert_eq!(br.admit(f), Admission::Allow, "below threshold");
        br.record_failure(f);
        assert_eq!(br.admit(f), Admission::Refuse, "threshold reached");
        assert_eq!(br.open_circuits(), 1);

        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(br.admit(f), Admission::Allow, "half-open trial");
        br.record_success(f);
        assert_eq!(br.admit(f), Admission::Allow, "closed after success");
        assert_eq!(br.open_circuits(), 0);
    }

    #[test]
    fn breaker_is_per_fingerprint() {
        let br = CircuitBreaker::new(1, Duration::from_secs(60));
        br.record_failure(fp(1));
        assert_eq!(br.admit(fp(1)), Admission::Refuse);
        assert_eq!(br.admit(fp(2)), Admission::Allow);
    }

    #[test]
    fn zero_threshold_disables_breaker() {
        let br = CircuitBreaker::new(0, Duration::from_secs(60));
        for _ in 0..10 {
            br.record_failure(fp(1));
        }
        assert_eq!(br.admit(fp(1)), Admission::Allow);
    }
}
