//! Worker supervision: kill the job a hung worker is stuck in.
//!
//! Rust offers no way to kill a thread from outside, so "kill" here is
//! cooperative: every machine operation a worker performs ticks a
//! heartbeat through the machine's progress hook, and the same hook
//! checks an abort flag. A *busy* worker (one with a current job) whose
//! heartbeat has not moved for [`crate::ServiceConfig::hang_timeout`]
//! gets its flag raised; at its next operation the hook unwinds with
//! [`SupervisorAbort`] (by `resume_unwind`: no panic hook runs), the
//! per-job `catch_unwind` answers the job with
//! [`crate::ServiceError::WorkerKilled`], and the worker goes on with
//! its next job on the same thread and machine — every attempt starts
//! from `Machine::reset()`, and the hook runs before an operation
//! changes any state. Kills feed the circuit breaker, so a structure
//! that reliably wedges workers stops being scheduled.
//!
//! A worker parked on the intake is *idle*, not hung, and never killed.
//! The flag is raised under the `current` lock of a busy worker only and
//! cleared with `current` when the job ends, so a kill never outlives
//! the job it was aimed at.

use crate::fingerprint::Fingerprint;
use crate::lock;
use crate::service::Core;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the supervisor polls: a tenth of `hang_timeout`, so a hang
/// is seen within 10% of the timeout, and no slower than every 20 ms, so
/// a long timeout still has its breaker ticks on time.
pub(crate) fn poll_interval(hang_timeout: Duration) -> Duration {
    (hang_timeout / 10).min(Duration::from_millis(20))
}

/// Typed unwind payload the progress hook throws when the supervisor has
/// flagged the job in hand for death. The worker's catch site downcasts
/// to this to distinguish a supervisor kill from an organic panic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SupervisorAbort;

/// Shared per-worker liveness state. The worker writes, the supervisor
/// reads and raises the flag.
#[derive(Debug, Default)]
pub(crate) struct WorkerState {
    /// Monotone progress counter, ticked once per simulated-machine op.
    heartbeat: AtomicU64,
    /// Raised by the supervisor; observed by the progress hook.
    abort: AtomicBool,
    /// The structure of the job being executed, if any (`None` ⇒ idle,
    /// exempt from hang detection).
    current: Mutex<Option<Fingerprint>>,
}

impl WorkerState {
    /// The worker starts a job on `fingerprint`'s structure.
    pub(crate) fn begin(&self, fingerprint: Fingerprint) {
        *lock(&self.current) = Some(fingerprint);
    }

    /// The job in hand ended, killed or not: the worker is idle, and a
    /// kill aimed at that job ends with it.
    pub(crate) fn end(&self) {
        let mut current = lock(&self.current);
        *current = None;
        self.abort.store(false, Ordering::SeqCst);
    }

    /// Flag the job in hand for death. The structure it runs on when this
    /// raised the flag; `None` when the worker is idle or the flag was
    /// already up.
    pub(crate) fn kill(&self) -> Option<Fingerprint> {
        let current = lock(&self.current);
        let fingerprint = (*current)?;
        (!self.abort.swap(true, Ordering::SeqCst)).then_some(fingerprint)
    }

    /// One machine operation of the job in hand: a heartbeat, and the
    /// unwind to the worker's catch site if the job has been killed.
    pub(crate) fn beat(&self) {
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
        if self.abort.load(Ordering::SeqCst) {
            std::panic::resume_unwind(Box::new(SupervisorAbort));
        }
    }
}

/// The supervision loop. Polls every [`poll_interval`] of
/// [`crate::ServiceConfig::hang_timeout`]; a busy worker whose heartbeat
/// has not advanced for `hang_timeout` has its job killed (abort flag
/// raised, one `supervisor_kills` tick, breaker failure recorded for the
/// wedged job's structure). Exits when `shutting_down` is raised.
pub(crate) fn supervisor_loop(
    workers: Vec<Arc<WorkerState>>,
    core: Arc<Core>,
    shutting_down: Arc<AtomicBool>,
) {
    let hang_timeout = core.config.hang_timeout;
    let poll = poll_interval(hang_timeout);
    // Each worker's heartbeat at the last poll, and since when a busy
    // worker's has not moved.
    let mut seen: Vec<(u64, Option<Instant>)> = vec![(0, None); workers.len()];
    while !shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(poll);
        let now = Instant::now();
        for (state, (last_beat, stale_since)) in workers.iter().zip(&mut seen) {
            let beat = state.heartbeat.load(Ordering::Relaxed);
            if beat != *last_beat {
                *last_beat = beat;
                *stale_since = None;
            }
            if lock(&state.current).is_none() {
                *stale_since = None;
                continue;
            }
            let since = *stale_since.get_or_insert(now);
            if now.duration_since(since) < hang_timeout {
                continue;
            }
            if let Some(fingerprint) = state.kill() {
                core.metrics
                    .supervisor_kills
                    .fetch_add(1, Ordering::Relaxed);
                // A hang is a failure of this structure's jobs as far as
                // the breaker is concerned: enough kills trip the circuit
                // and stop feeding it workers.
                core.breaker.record_failure(fingerprint);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn fp(seed: u64) -> Fingerprint {
        Fingerprint {
            n_rows: 8,
            n_cols: 8,
            nnz: 16,
            pattern_hash: seed,
        }
    }

    /// Whether one machine operation of the job in hand passes or is
    /// unwound as a kill.
    fn operation_passes(s: &WorkerState) -> bool {
        match catch_unwind(AssertUnwindSafe(|| s.beat())) {
            Ok(()) => true,
            Err(payload) => {
                assert!(payload.downcast_ref::<SupervisorAbort>().is_some());
                false
            }
        }
    }

    #[test]
    fn worker_state_defaults_are_idle_and_unaborted() {
        let s = WorkerState::default();
        assert_eq!(s.heartbeat.load(Ordering::Relaxed), 0);
        assert!(!s.abort.load(Ordering::Relaxed));
        assert_eq!(*lock(&s.current), None);
    }

    /// A kill lands on the job it was aimed at and on no other: refused
    /// while the worker is idle, raised once for a busy one, cleared with
    /// the job when it ends without another operation, and never seen
    /// by the next job.
    #[test]
    fn a_kill_is_scoped_to_its_job() {
        let s = WorkerState::default();
        assert_eq!(s.kill(), None, "an idle worker has no job to kill");
        assert!(!s.abort.load(Ordering::SeqCst));

        s.begin(fp(1));
        assert_eq!(s.kill(), Some(fp(1)));
        assert_eq!(s.kill(), None, "one kill per job");
        s.end();
        assert!(!s.abort.load(Ordering::SeqCst));
        assert_eq!(*lock(&s.current), None);

        s.begin(fp(2));
        assert!(operation_passes(&s), "the next job's first operation");
        assert_eq!(s.kill(), Some(fp(2)));
        assert!(!operation_passes(&s), "the killed job's next operation");
        s.end();
        s.begin(fp(2));
        assert!(operation_passes(&s));
        assert_eq!(s.heartbeat.load(Ordering::Relaxed), 3);
    }

    /// Every configuration in the repository polls where it did when the
    /// interval was set by hand: 10 ms beside a 100 ms timeout, 20 ms
    /// beside the 500 ms default and the hour a parked-worker test sets.
    #[test]
    fn the_poll_is_a_tenth_of_the_hang_timeout_and_at_most_20_ms() {
        let poll = |ms: u64| poll_interval(Duration::from_millis(ms));
        assert_eq!(poll(100), Duration::from_millis(10));
        assert_eq!(poll(500), Duration::from_millis(20));
        assert_eq!(poll(3_600_000), Duration::from_millis(20));
    }
}
