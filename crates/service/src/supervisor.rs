//! Worker supervision: detect hung or crashed worker threads, kill and
//! restart them.
//!
//! Rust offers no way to kill a thread from outside, so "kill" here is
//! cooperative: every machine operation a worker performs ticks a
//! heartbeat through the machine's progress hook, and the same hook
//! checks an abort flag. The supervisor polls the heartbeats; a worker
//! that is *busy* (has a current job) but whose heartbeat has not moved
//! for [`crate::ServiceConfig::hang_timeout`] gets its abort flag raised. The
//! hook then panics with the typed [`SupervisorAbort`] payload, the
//! per-job `catch_unwind` in the worker answers the job with
//! [`crate::ServiceError::WorkerKilled`], and the worker thread exits
//! instead of resuming the batch. The supervisor joins the corpse and
//! respawns a fresh worker on the same slot after a capped exponential
//! backoff; repeated kills feed the per-fingerprint circuit breaker so a
//! structure that reliably wedges workers stops being scheduled at all.
//!
//! A worker parked on the intake is *idle*, not hung — its heartbeat is
//! stale but `current` is `None`, and it is never killed.

use crate::fingerprint::Fingerprint;
use crate::lock;
use crate::retry::backoff_delay;
use crate::service::Core;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// First worker-restart backoff delay (doubles per consecutive restart
/// of the same slot) and its ceiling.
const RESTART_BACKOFF_BASE: Duration = Duration::from_millis(10);
const RESTART_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Typed panic payload the progress hook throws when the supervisor has
/// flagged this worker for death. The worker's catch site downcasts to
/// this to distinguish a supervisor kill from an organic panic.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorAbort;

/// What a worker is executing right now (supervisor's view).
#[derive(Debug, Clone, Copy)]
pub struct CurrentJob {
    pub job_id: u64,
    pub fingerprint: Fingerprint,
    pub since: Instant,
}

/// Shared per-worker liveness state. The worker writes, the supervisor
/// reads; a respawn gets a *fresh* state so a stale abort flag can never
/// kill the replacement on arrival.
#[derive(Debug, Default)]
pub struct WorkerState {
    /// Monotone progress counter, ticked once per simulated-machine op.
    pub heartbeat: AtomicU64,
    /// Raised by the supervisor; observed by the progress hook.
    pub abort: AtomicBool,
    /// The job being executed, if any (`None` ⇒ idle, exempt from
    /// hang detection).
    pub current: Mutex<Option<CurrentJob>>,
}

impl WorkerState {
    pub fn new() -> Arc<Self> {
        Arc::new(WorkerState::default())
    }
}

/// One slot in the worker pool, as tracked by the supervisor.
pub struct WorkerSlot {
    pub handle: Option<JoinHandle<()>>,
    pub state: Arc<WorkerState>,
    /// Consecutive restarts of this slot (drives the respawn backoff).
    pub restarts: u32,
    /// Heartbeat value at the last poll, plus when it was last seen
    /// moving — staleness is measured from there.
    last_seen_beat: u64,
    stale_since: Option<Instant>,
    /// When a pending respawn becomes due (backoff in progress).
    respawn_at: Option<Instant>,
}

impl WorkerSlot {
    pub fn new(handle: JoinHandle<()>, state: Arc<WorkerState>) -> Self {
        WorkerSlot {
            handle: Some(handle),
            state,
            restarts: 0,
            last_seen_beat: 0,
            stale_since: None,
            respawn_at: None,
        }
    }
}

/// Spawn worker `index` over `core`, reporting liveness into `state`.
pub(crate) fn spawn_worker(
    core: &Arc<Core>,
    index: usize,
    state: Arc<WorkerState>,
) -> JoinHandle<()> {
    let core = core.clone();
    std::thread::Builder::new()
        .name(format!("hpf-service-worker-{index}"))
        .spawn(move || crate::service::worker_loop(core, state))
        .expect("spawn worker")
}

/// The supervision loop. Polls every
/// [`crate::ServiceConfig::supervisor_poll`]:
///
/// * a busy slot whose heartbeat has not advanced for
///   [`crate::ServiceConfig::hang_timeout`] is killed (abort flag raised, one
///   `supervisor_kills` tick, breaker failure recorded for the wedged
///   job's structure);
/// * a finished thread (killed or organically dead) is joined and a
///   respawn scheduled after `backoff_delay(RESTART_BACKOFF_BASE,
///   RESTART_BACKOFF_CAP, restarts)`;
/// * due respawns get a fresh [`WorkerState`] and a `worker_restarts`
///   tick.
///
/// Exits when `shutting_down` is raised; remaining threads are joined by
/// the service's shutdown path, not here.
pub(crate) fn supervisor_loop(
    slots: Arc<Mutex<Vec<WorkerSlot>>>,
    core: Arc<Core>,
    shutting_down: Arc<AtomicBool>,
) {
    while !shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(core.config.supervisor_poll);
        let now = Instant::now();
        let mut slots = lock(&slots);
        for (i, slot) in slots.iter_mut().enumerate() {
            // 1. Hang detection on live, busy workers.
            let beat = slot.state.heartbeat.load(Ordering::Relaxed);
            if beat != slot.last_seen_beat {
                slot.last_seen_beat = beat;
                slot.stale_since = None;
            }
            let busy = *lock(&slot.state.current);
            match busy {
                Some(job) if slot.handle.is_some() => {
                    let stale_since = *slot.stale_since.get_or_insert(now);
                    if now.duration_since(stale_since) >= core.config.hang_timeout
                        && !slot.state.abort.swap(true, Ordering::SeqCst)
                    {
                        core.metrics
                            .supervisor_kills
                            .fetch_add(1, Ordering::Relaxed);
                        // A hang is a failure of this structure's jobs as
                        // far as the breaker is concerned: enough kills
                        // trip the circuit and stop feeding it workers.
                        core.breaker.record_failure(job.fingerprint);
                    }
                }
                _ => slot.stale_since = None,
            }
            // 2. Reap finished threads and schedule their replacement.
            if slot.handle.as_ref().is_some_and(|h| h.is_finished()) {
                if let Some(h) = slot.handle.take() {
                    let _ = h.join(); // panics were already caught inside
                }
                slot.restarts = slot.restarts.saturating_add(1);
                slot.respawn_at = Some(
                    now + backoff_delay(RESTART_BACKOFF_BASE, RESTART_BACKOFF_CAP, slot.restarts),
                );
            }
            // 3. Respawn once the backoff has elapsed.
            if slot.handle.is_none()
                && slot.respawn_at.is_some_and(|t| now >= t)
                && !shutting_down.load(Ordering::SeqCst)
            {
                slot.respawn_at = None;
                // Fresh state: the dead thread's abort flag and stale
                // heartbeat must not haunt the replacement.
                let state = WorkerState::new();
                slot.state = state.clone();
                slot.last_seen_beat = 0;
                slot.stale_since = None;
                slot.handle = Some(spawn_worker(&core, i, state));
                core.metrics.worker_restarts.fetch_add(1, Ordering::Relaxed);
                crate::events::emit(
                    &core.config.event_sink,
                    crate::ServiceEvent::WorkerRestarted { worker: i },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_state_defaults_are_idle_and_unaborted() {
        let s = WorkerState::new();
        assert_eq!(s.heartbeat.load(Ordering::Relaxed), 0);
        assert!(!s.abort.load(Ordering::Relaxed));
        assert!(lock(&s.current).is_none());
    }
}
