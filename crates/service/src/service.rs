//! The service facade: admission control → the intake (per-class bounded
//! queues behind one lock) → workers that pull.
//!
//! ```text
//!  submit() ──validate──► admission (deadline vs predicted cost) ⇒ Shed?
//!      │ fingerprint, batch key                    (caller's thread)
//!      ▼ lock: closed ⇒ Shutdown · class full ⇒ Busy · else push
//!  intake: [Interactive] [Batch] [BestEffort]   (queue_capacity each)
//!      │ notify_one, only if a worker is parked
//!      ▼ lock: weighted-fair pick (deficit round-robin, QOS_WEIGHTS)
//!  worker ── takes the head job and its same-key, same-class mates
//!      │  plan cache / partition, operator, solves
//!      │  progress hook: a hang kills the job in hand, not the worker
//!      ▼
//!  responder ──► JobHandle::wait()                 (caller's thread)
//! ```
//!
//! A request crosses two threads: the caller's and the worker's. There
//! is no dispatcher between them: a free worker takes the intake lock,
//! picks the next class by deficit round-robin (credits seeded from the
//! 6 : 3 : 1 `QOS_WEIGHTS`, so a flood of best-effort work cannot
//! starve interactive jobs), pops that class's head job and looks past
//! it for batch mates without reordering unrelated work. Batches thus
//! form when a worker is ready for one, with everything submitted by
//! then in view. A worker that finds nothing parks on the intake's
//! condition variable; `submit` pushes under the lock and wakes one
//! parked worker after releasing it, so a job pushed while a worker is
//! deciding to park is seen by that worker, and a busy pool costs the
//! submitter no wake-up at all. What the intake holds is exactly what
//! was accepted and not yet taken, so `queue_capacity` bounds each class
//! exactly and the queue-depth gauges read it. A worker watches its own
//! machine for a hang through the progress hook and kills the job it
//! hangs in; it goes on with its next job (see [`crate::worker`]).

use crate::admission::{AdmissionController, AdmissionDecision};
use crate::batch::{form_batch, Batch, Job};
use crate::lock;
use crate::metrics::{Counter, Metrics, MetricsSnapshot};
use crate::plan::PlanCache;
use crate::request::{ServiceConfig, SolveRequest, QOS_WEIGHTS};
use crate::response::{ServiceError, SolveResponse};
use crate::retry::CircuitBreaker;
use crate::worker::{Kept, Worker};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle to one accepted job; redeem it for the result.
#[derive(Debug)]
pub struct JobHandle {
    pub job_id: u64,
    rx: Receiver<Result<SolveResponse, ServiceError>>,
}

impl JobHandle {
    /// Block until the job finishes (or the service shuts down).
    pub fn wait(self) -> Result<SolveResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Shutdown))
    }

    /// Block up to `timeout`; `None` means still running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<SolveResponse, ServiceError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServiceError::Shutdown)),
        }
    }

    /// Non-blocking check; `None` means still running.
    pub fn poll(&self) -> Option<Result<SolveResponse, ServiceError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ServiceError::Shutdown)),
        }
    }
}

/// What is accepted and not yet taken by a worker, per QoS class, with
/// the state of the weighted-fair pick.
#[derive(Debug)]
struct Queues {
    pending: [VecDeque<Job>; 3],
    /// Deficit round-robin credits left to each class in this round.
    credits: [u32; 3],
    /// Workers waiting on [`Intake::work`].
    parked: usize,
    /// Shutdown has begun: nothing is accepted, nothing is left.
    closed: bool,
}

impl Queues {
    /// The next batch by deficit round-robin: the first class (in
    /// priority order) with work and credits wins; when every backlogged
    /// class is out of credits, all are replenished from
    /// [`QOS_WEIGHTS`]. `None` when nothing is pending.
    fn next_batch(&mut self, config: &ServiceConfig) -> Option<Batch> {
        let pending = &mut self.pending;
        let class = match (0..3).find(|&i| !pending[i].is_empty() && self.credits[i] > 0) {
            Some(i) => i,
            None => {
                self.credits = QOS_WEIGHTS;
                (0..3).find(|&i| !pending[i].is_empty())?
            }
        };
        self.credits[class] -= 1;
        let seed = pending[class].pop_front().expect("class has work");
        // Batch mates come only from the same class: co-executing a
        // best-effort job inside an interactive batch would let it jump
        // the weighted queue.
        Some(if config.batching_enabled {
            form_batch(seed, &mut pending[class])
        } else {
            Batch { jobs: vec![seed] }
        })
    }
}

/// The hand-off between submitters and workers: [`Queues`] behind one
/// lock, and the condition variable idle workers park on.
#[derive(Debug)]
pub(crate) struct Intake {
    queues: Mutex<Queues>,
    work: Condvar,
}

impl Intake {
    fn new() -> Self {
        Intake {
            queues: Mutex::new(Queues {
                pending: Default::default(),
                credits: QOS_WEIGHTS,
                parked: 0,
                closed: false,
            }),
            work: Condvar::new(),
        }
    }

    /// The next batch for a free worker, parking until there is one;
    /// `None` once the service has shut down.
    fn pull(&self, config: &ServiceConfig, metrics: &Metrics) -> Option<Batch> {
        let mut queues = lock(&self.queues);
        let batch = loop {
            if let Some(batch) = queues.next_batch(config) {
                break batch;
            }
            if queues.closed {
                return None;
            }
            queues.parked += 1;
            queues = self
                .work
                .wait(queues)
                .unwrap_or_else(PoisonError::into_inner);
            queues.parked -= 1;
        };
        drop(queues);
        let taken = batch.jobs.len() as u64;
        let class = batch.jobs[0].request.qos.index();
        metrics.dequeued(class, taken);
        Some(batch)
    }
}

/// Plans kept before one is evicted — also the horizon, in insertions,
/// over which the cache's eviction rule protects a reused plan
/// ([`PlanCache`]), which is what it was sized with.
const PLAN_CACHE_CAPACITY: usize = 32;

/// What the service's threads share — submitters and workers — and what
/// it takes to end a job ([`Core::finish`]).
pub(crate) struct Core {
    pub config: ServiceConfig,
    pub intake: Intake,
    pub cache: PlanCache,
    pub metrics: Arc<Metrics>,
    pub breaker: Arc<CircuitBreaker>,
    pub admission: AdmissionController,
}

impl Core {
    pub(crate) fn new(config: ServiceConfig) -> Arc<Self> {
        Arc::new(Core {
            intake: Intake::new(),
            cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            metrics: Arc::new(Metrics::new(config.queue_capacity)),
            breaker: Arc::new(CircuitBreaker::new(
                config.breaker_threshold,
                config.breaker_cooldown,
            )),
            admission: AdmissionController::new(&config),
            config,
        })
    }
}

/// A running solver service. Dropping it (or calling
/// [`SolverService::shutdown`]) stops intake, drains accepted work, and
/// joins every thread.
pub struct SolverService {
    core: Arc<Core>,
    next_id: AtomicU64,
    shutting_down: Arc<AtomicBool>,
    /// The worker threads, alive until shutdown joins them.
    workers: Vec<JoinHandle<()>>,
}

impl SolverService {
    /// Start the worker pool described by `config`.
    pub fn start(config: ServiceConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.np > 0, "machine size must be positive");
        let core = Core::new(config);
        let workers = (0..core.config.workers)
            .map(|i| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name(format!("hpf-service-worker-{i}"))
                    .spawn(move || worker_loop(core, i))
                    .expect("spawn worker")
            })
            .collect();
        SolverService {
            core,
            next_id: AtomicU64::new(1),
            shutting_down: Arc::new(AtomicBool::new(false)),
            workers,
        }
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.core.config
    }

    /// Validate and enqueue a request. Non-blocking: a class that already
    /// holds [`ServiceConfig::queue_capacity`] accepted jobs no worker
    /// has taken yet returns [`ServiceError::Busy`] immediately
    /// (backpressure), malformed requests fail up front, and — once the
    /// admission controller is calibrated — jobs whose deadline cannot be
    /// met are refused with a typed [`ServiceError::Shed`] rather than
    /// queued to die.
    pub fn submit(&self, request: SolveRequest) -> Result<JobHandle, ServiceError> {
        let (core, metrics) = (&*self.core, &*self.core.metrics);
        let partitioner = match validate(&request) {
            Ok(name) => name,
            Err(why) => {
                metrics.add(Counter::RejectedInvalid, 1);
                return Err(ServiceError::InvalidRequest(why));
            }
        };
        let mut request = request;
        // Stamp a deterministic non-zero trace id before any telemetry
        // fires, so the shed event and the worker's machine span carry
        // the same id. Callers may pre-assign their own via `.trace()`.
        let job_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if request.trace_id == 0 {
            request.trace_id = crate::events::derive_trace_id(job_id);
        }
        let predicted_us = match core.admission.decide(&request) {
            AdmissionDecision::Admit { predicted_us } => predicted_us,
            AdmissionDecision::Shed { predicted, budget } => {
                metrics.add(Counter::ShedTotal, 1);
                crate::events::emit(
                    &core.config.event_sink,
                    crate::ServiceEvent::Shed {
                        trace_id: request.trace_id,
                        class: request.qos,
                        predicted_us: predicted.as_micros() as u64,
                        budget_us: budget.as_micros() as u64,
                    },
                );
                return Err(ServiceError::Shed { predicted, budget });
            }
        };
        let (tx, rx) = sync_channel(1);
        let qos = request.qos;
        let class = qos.index();
        let trace_id = request.trace_id;
        let job = Job::new(job_id, request, partitioner, predicted_us, tx);

        let mut queues = lock(&core.intake.queues);
        if queues.closed {
            return Err(ServiceError::Shutdown);
        }
        if queues.pending[class].len() >= core.config.queue_capacity {
            drop(queues);
            metrics.add(Counter::RejectedBusy, 1);
            return Err(ServiceError::Busy {
                queue_capacity: core.config.queue_capacity,
            });
        }
        queues.pending[class].push_back(job);
        // Counted before the lock is released: a worker can take the job
        // the moment it is, and what it undoes must already be done.
        core.admission.admit(qos, predicted_us);
        metrics.add(Counter::Accepted, 1);
        metrics.queued(class, 1);
        let wake = queues.parked > 0;
        drop(queues);
        if wake {
            core.intake.work.notify_one();
        }
        crate::events::emit(
            &core.config.event_sink,
            crate::ServiceEvent::Admitted {
                trace_id,
                class: qos,
                predicted_us,
            },
        );
        Ok(JobHandle { job_id, rx })
    }

    /// Submit and block for the result.
    pub fn solve(&self, request: SolveRequest) -> Result<SolveResponse, ServiceError> {
        self.submit(request)?.wait()
    }

    /// Point-in-time counters (including the current queue-depth gauges
    /// and service uptime).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.metrics.snapshot()
    }

    /// Shared handle to the live counters, for external recorders that
    /// need to bump service metrics as events happen (e.g. the flight
    /// recorder counting post-mortem dumps by verdict).
    pub fn metrics_handle(&self) -> Arc<Metrics> {
        self.core.metrics.clone()
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.core.cache.len()
    }

    /// The deadline-aware admission controller (calibration state and
    /// predicted backlog are readable for reports and tests).
    pub fn admission(&self) -> &AdmissionController {
        &self.core.admission
    }

    /// Stop intake, answer every still-queued job with
    /// [`ServiceError::Shutdown`], join all threads. Jobs already taken
    /// by a worker run to completion.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        self.core.metrics.snapshot()
    }

    /// Number of structures whose circuit breaker is currently open.
    pub fn open_circuits(&self) -> usize {
        self.core.breaker.open_circuits()
    }

    /// Expose this service over HTTP at `addr` (`"127.0.0.1:0"` picks a
    /// free port, reported by [`crate::http::MetricsServer::addr`]):
    /// `GET /metrics` (Prometheus text), `GET /healthz` (JSON liveness:
    /// `ok` / `degraded` / `draining`, `503` once shutdown begins), and
    /// `GET /drift` (the latest published cost-oracle report). The
    /// listener runs on its own thread and outlives neither the returned
    /// handle nor the process.
    pub fn serve_http(&self, addr: &str) -> std::io::Result<crate::http::MetricsServer> {
        crate::http::spawn(
            addr,
            crate::http::HttpState {
                metrics: self.core.metrics.clone(),
                breaker: self.core.breaker.clone(),
                shutting_down: self.shutting_down.clone(),
            },
        )
    }

    fn shutdown_in_place(&mut self) {
        // Close the intake and take what it still holds in one critical
        // section: nothing is accepted afterwards and no worker finds
        // anything to take, so each of those jobs is refused here,
        // exactly once, outside the lock. Parked workers wake to a closed
        // intake and exit; busy ones finish their batch first.
        self.shutting_down.store(true, Ordering::SeqCst);
        let (core, metrics) = (&*self.core, &*self.core.metrics);
        let mut queues = lock(&core.intake.queues);
        queues.closed = true;
        let left: Vec<Job> = queues
            .pending
            .iter_mut()
            .flat_map(|q| q.drain(..))
            .collect();
        drop(queues);
        core.intake.work.notify_all();
        let mut kept = Kept::new(&core.config);
        for job in left {
            metrics.dequeued(job.request.qos.index(), 1);
            core.refuse(job, ServiceError::Shutdown, None, &mut kept);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Check `request`; the registry's name for its partitioner on success.
fn validate(request: &SolveRequest) -> Result<&'static str, String> {
    let a = &request.matrix;
    if !a.is_square() {
        return Err(format!(
            "matrix must be square, got {}x{}",
            a.n_rows(),
            a.n_cols()
        ));
    }
    if a.n_rows() == 0 {
        return Err("matrix is empty".into());
    }
    if request.rhs.is_empty() {
        return Err("no right-hand sides".into());
    }
    for (k, rhs) in request.rhs.iter().enumerate() {
        if rhs.len() != a.n_rows() {
            return Err(format!(
                "rhs {k} has length {}, matrix expects {}",
                rhs.len(),
                a.n_rows()
            ));
        }
    }
    if request.max_iters == 0 {
        return Err("max_iters must be positive".into());
    }
    if let crate::request::SolverKind::Gmres { restart: 0 } = request.solver {
        return Err("gmres needs a restart length of at least 1".into());
    }
    if let crate::request::SolverKind::PcgMg { levels } = request.solver {
        let dims = request
            .grid
            .ok_or("pcg-mg requires grid dims (SolveRequest::grid)")?;
        if dims.n() != a.n_rows() {
            return Err(format!(
                "grid {dims} has {} unknowns, matrix has {}",
                dims.n(),
                a.n_rows()
            ));
        }
        if !dims.supports_levels(levels) {
            return Err(format!(
                "grid {dims} cannot support a {levels}-level hierarchy"
            ));
        }
    }
    match hpf_partition::by_name(&request.partitioner) {
        Some(partitioner) => Ok(partitioner.name()),
        None => Err(format!(
            "unknown partitioner {:?}; registered: {}",
            request.partitioner,
            hpf_partition::partitioner_names().join(", ")
        )),
    }
}

/// Worker `index`: take batches from the intake and execute them until
/// the service shuts down. `execute_batch` already answers every job
/// exactly once (including on panics inside solves and hang kills); the
/// outer `catch_unwind` is a last resort for bugs in the bookkeeping
/// itself — the batch's handles then observe `Shutdown` when their
/// responders drop, and the worker keeps serving.
fn worker_loop(core: Arc<Core>, index: usize) {
    let mut worker = Worker::new(core.clone(), index);
    while let Some(batch) = core.intake.pull(&core.config, &core.metrics) {
        let _ = catch_unwind(AssertUnwindSafe(|| worker.execute_batch(batch)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QosClass;
    use hpf_sparse::gen;

    /// The body of the dispatcher thread's loop as it stood before
    /// workers pulled (`e5be232`), kept as the reference for the order
    /// in which buffered arrivals leave: pick a class by deficit
    /// round-robin, pop its head, gather its mates.
    fn dispatcher_pick(
        pending: &mut [VecDeque<Job>; 3],
        credits: &mut [u32; 3],
        config: &ServiceConfig,
    ) -> Batch {
        let class = match (0..3).find(|&i| !pending[i].is_empty() && credits[i] > 0) {
            Some(i) => i,
            None => {
                *credits = QOS_WEIGHTS;
                (0..3)
                    .find(|&i| !pending[i].is_empty())
                    .expect("some class has work")
            }
        };
        credits[class] -= 1;
        let seed = pending[class].pop_front().expect("class has work");
        if config.batching_enabled {
            form_batch(seed, &mut pending[class])
        } else {
            Batch { jobs: vec![seed] }
        }
    }

    /// Arrival `id` of a recorded sequence: one of three matrix
    /// instances (so some arrivals are batch mates) in one of the three
    /// classes, both drawn from a fixed xorshift stream.
    fn arrivals(matrices: &[Arc<hpf_sparse::CsrMatrix>; 3], n: u64) -> Vec<Job> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|id| {
                let a = &matrices[(next() % 3) as usize];
                let request = SolveRequest::new(a.clone(), vec![1.0; a.n_rows()])
                    .qos(QosClass::ALL[(next() % 3) as usize]);
                // Nobody waits on these jobs: the receiver is dropped.
                Job::accepted(id, request).0
            })
            .collect()
    }

    /// With the pool busy, arrivals wait in the intake and leave in the
    /// order the dispatcher thread would have forwarded them: same
    /// batches, same members, same sequence — with batching on and off,
    /// across several credit rounds and with arrivals landing between
    /// picks.
    #[test]
    fn parked_arrivals_leave_in_the_order_the_dispatcher_forwarded_them() {
        let matrices = [8, 9, 10].map(|n| Arc::new(gen::tridiagonal(n, 4.0, -1.0)));
        for batching_enabled in [true, false] {
            let config = ServiceConfig {
                batching_enabled,
                ..ServiceConfig::default()
            };
            let intake = Intake::new();
            let mut queues = lock(&intake.queues);
            let mut oracle_pending: [VecDeque<Job>; 3] = Default::default();
            let mut oracle_credits = QOS_WEIGHTS;
            // 60 arrivals up front, then two more after every pick.
            let mut theirs = arrivals(&matrices, 120).into_iter();
            let mut ours = arrivals(&matrices, 120).into_iter();
            let mut arrive = |n: usize, queues: &mut Queues, oracle: &mut [VecDeque<Job>; 3]| {
                for (job, twin) in ours.by_ref().zip(theirs.by_ref()).take(n) {
                    let class = job.request.qos.index();
                    queues.pending[class].push_back(job);
                    oracle[class].push_back(twin);
                }
            };
            arrive(60, &mut queues, &mut oracle_pending);
            let mut picks = 0;
            while let Some(batch) = queues.next_batch(&config) {
                let expected = dispatcher_pick(&mut oracle_pending, &mut oracle_credits, &config);
                let ids = |b: &Batch| b.jobs.iter().map(|j| j.id).collect::<Vec<_>>();
                assert_eq!(ids(&batch), ids(&expected), "pick {picks} of {config:?}");
                assert_eq!(queues.credits, oracle_credits, "pick {picks}");
                picks += 1;
                arrive(2, &mut queues, &mut oracle_pending);
            }
            assert!(oracle_pending.iter().all(VecDeque::is_empty));
            assert!(picks >= 30, "{picks} picks");
        }
    }
}
