//! Batch execution on the simulated machine, and the one way a job ends.
//!
//! A [`Worker`] takes a [`Batch`], resolves a plan (cache or fresh
//! partition), builds the distributed operator once, then runs every
//! job's right-hand sides on the machine it keeps for its lifetime.
//! Panic isolation lives here, at two scopes: a panic during setup
//! (plan/operator build) fails the whole batch with
//! [`ServiceError::WorkerPanic`], a panic during one job's solves fails
//! only that job. Either way every job is answered exactly once and the
//! worker thread survives.
//!
//! Robustness policies also live here: the batch is refused outright
//! when its structure's circuit breaker is open, each job's fault plan
//! (if any) is installed on the simulated machine for the first
//! attempt, and a retryable solver failure re-runs the job — with
//! backoff, on a clean machine, escalating CG → BiCGSTAB → GMRES.
//!
//! **Every job ends in [`Core::finish`]** — expired in queue, refused by
//! an open circuit, failed by a panicking set-up, solved or not, drained
//! at shutdown — so each is released, counted, completed and answered
//! the same way. **Evidence belongs to whoever produces it**: after
//! admission that is the one worker running the job, so with an
//! [`EvidenceHook`] installed it keeps its events where it writes them
//! (its machine's tail, and [`Kept`]) and `finish` lends them to the
//! hook as one [`JobEvidence`]. Without a hook it keeps none (DESIGN §13).

use crate::batch::{Batch, Job};
use crate::events::{
    self, EvidenceHook, JobEvidence, ResidualTail, ServiceEvent, ServiceEventSink, LIFECYCLE_TAIL,
};
use crate::lock;
use crate::plan::{CacheOutcome, SolvePlan};
use crate::request::{ServiceConfig, SolverKind, TOPOLOGY};
use crate::response::{PlanSource, ServiceError, SolveResponse};
use crate::retry::{backoff_delay_jittered, escalate, is_retryable, Admission};
use crate::service::Core;
use crate::supervisor::{CurrentJob, SupervisorAbort, WorkerState};
use hpf_core::RowwiseCsr;
use hpf_machine::{CostModel, EventTail, Machine, TraceLevel};
use hpf_solvers::{
    solve, DistPreconditioner, IterObserver, JacobiPreconditioner, Krylov, NullObserver,
    RecoveryStats, SolveStats, SolverError, StopCriterion, TailObserver,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iteration samples kept of a solve for [`JobEvidence::residual`].
const RESIDUAL_TAIL: usize = 48;

/// First-retry backoff delay (doubles per retry) and its ceiling.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// What the thread ending a job keeps of it for the evidence hook,
/// besides a machine's tail: reused from job to job, and left empty
/// when no hook is installed.
pub(crate) struct Kept {
    sink: Option<ServiceEventSink>,
    hook: Option<EvidenceHook>,
    lifecycle: Vec<ServiceEvent>,
    residual: ResidualTail,
}

impl Kept {
    pub(crate) fn new(config: &ServiceConfig) -> Self {
        Kept {
            sink: config.event_sink.clone(),
            hook: config.evidence_hook.clone(),
            lifecycle: Vec::new(),
            residual: ResidualTail {
                attempt: 0,
                solver: "",
                series: TailObserver::new(RESIDUAL_TAIL),
            },
        }
    }

    /// Start over for `job`, from its admission (the submitter emitted
    /// the original; this is the same event rebuilt from the job).
    fn begin(&mut self, job: &Job) {
        self.lifecycle.clear();
        self.residual.series.clear();
        self.keep(ServiceEvent::Admitted {
            trace_id: job.request.trace_id,
            class: job.request.qos,
            predicted_us: job.admission_us,
        });
    }

    fn keep(&mut self, event: ServiceEvent) {
        if self.hook.is_some() {
            if self.lifecycle.len() == LIFECYCLE_TAIL {
                self.lifecycle.remove(0);
            }
            self.lifecycle.push(event);
        }
    }

    /// Emit a lifecycle event of the job in hand, and keep it.
    fn emit(&mut self, event: ServiceEvent) {
        events::emit(&self.sink, event);
        self.keep(event);
    }
}

impl Core {
    /// End an admitted job: release its admission, move the gauges and
    /// counters, emit its one [`ServiceEvent::Completed`], lend its
    /// evidence to the hook, answer its handle. Taking the [`Job`] is
    /// what makes ending it twice impossible. `ran` is the solver that
    /// produced `result` (after escalation), `None` for a job refused
    /// before it reached one: only a job that ran counts for its
    /// structure's breaker and in the per-solver outcomes.
    pub(crate) fn finish(
        &self,
        job: Job,
        result: Result<SolveResponse, ServiceError>,
        ran: Option<SolverKind>,
        kept: &mut Kept,
        machine: &EventTail,
    ) {
        let metrics = &self.metrics;
        self.admission.release(job.request.qos, job.admission_us);
        metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        let latency = job.submitted.elapsed();
        if let Ok(response) = &result {
            let solved = response.solutions.len() as u64;
            metrics.completed.fetch_add(1, Ordering::Relaxed);
            metrics.rhs_solved.fetch_add(solved, Ordering::Relaxed);
            metrics.observe_latency(latency);
        } else {
            metrics.failed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(solver) = ran {
            let fingerprint = job.batch_key().fingerprint;
            match result {
                Ok(_) => self.breaker.record_success(fingerprint),
                Err(_) => self.breaker.record_failure(fingerprint),
            }
            metrics.record_solve_outcome(solver.name(), &job.request.scenario, result.is_ok());
        }
        // Exactly one `Completed` per answered handle: the SLO tracker's
        // unit of account for latency and error-budget burn, and (by its
        // outcome tag) what a flight recorder decides a dump on.
        kept.emit(ServiceEvent::Completed {
            trace_id: job.request.trace_id,
            class: job.request.qos,
            latency_us: latency.as_micros() as u64,
            ok: result.is_ok(),
            outcome: result.as_ref().map_or_else(ServiceError::outcome, |_| "ok"),
        });
        if let Some(hook) = &kept.hook {
            hook.call(&JobEvidence {
                lifecycle: &kept.lifecycle,
                machine,
                residual: (!kept.residual.series.is_empty()).then_some(&kept.residual),
            });
        }
        let _ = job.responder.send(result);
    }

    /// End `job` short of a solve: no machine event is its own.
    pub(crate) fn refuse(
        &self,
        job: Job,
        error: ServiceError,
        ran: Option<SolverKind>,
        kept: &mut Kept,
    ) {
        kept.begin(&job);
        self.finish(job, Err(error), ran, kept, &EventTail::default());
    }
}

/// One worker thread's own: the machine every solve of its lifetime runs
/// on (its size, topology and cost model are the service's), and what it
/// keeps of the job in hand.
pub(crate) struct Worker {
    core: Arc<Core>,
    state: Arc<WorkerState>,
    machine: Machine,
    kept: Kept,
}

impl Worker {
    /// A worker over `core` whose machine heartbeats into `state` once
    /// per simulated operation and observes the supervisor's kill order
    /// (the abort flag) at the same granularity: the hook panics with
    /// [`SupervisorAbort`], the per-job catch site answers
    /// [`ServiceError::WorkerKilled`], and the caller's loop exits.
    pub(crate) fn new(core: Arc<Core>, state: Arc<WorkerState>) -> Self {
        let config = &core.config;
        let mut machine = Machine::new(config.np, TOPOLOGY, CostModel::mpp_1995());
        // Nobody reads this machine's events after the solve: the
        // response carries the digest, live taps go through the sink and
        // the evidence hook reads the tail.
        machine.set_trace_level(TraceLevel::Summary);
        if let Some(sink) = &config.machine_sink {
            machine.set_event_sink(sink.clone());
        }
        if let Some(hook) = &config.evidence_hook {
            machine.keep_tail(hook.machine_tail);
        }
        let s = Arc::clone(&state);
        machine.set_progress_hook(hpf_machine::ProgressHook::new(move |_op| {
            s.heartbeat.fetch_add(1, Ordering::Relaxed);
            if s.abort.load(Ordering::SeqCst) {
                std::panic::panic_any(SupervisorAbort);
            }
        }));
        let kept = Kept::new(config);
        Worker {
            core,
            state,
            machine,
            kept,
        }
    }

    /// Fail every deadline-expired job in `batch` now, returning the
    /// live remainder. Expired jobs get a typed error instead of
    /// occupying a worker — the queue can shed load it can no longer
    /// serve in time.
    fn shed_expired(&mut self, batch: Batch) -> Batch {
        let now = Instant::now();
        let (expired, live): (Vec<_>, Vec<_>) = batch
            .jobs
            .into_iter()
            .partition(|j| j.deadline_expired(now));
        for job in expired {
            self.kept.begin(&job);
            self.core
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            self.kept.emit(ServiceEvent::DeadlineExpired {
                trace_id: job.request.trace_id,
                class: job.request.qos,
            });
            let waited = now.duration_since(job.submitted);
            let answer = Err(ServiceError::DeadlineExceeded { waited });
            let no_events = EventTail::default();
            self.core
                .finish(job, answer, None, &mut self.kept, &no_events);
        }
        Batch { jobs: live }
    }

    /// Execute a (same-key) batch end to end and answer each job exactly
    /// once.
    pub(crate) fn execute_batch(&mut self, batch: Batch) {
        let batch = self.shed_expired(batch);
        if batch.jobs.is_empty() {
            return;
        }
        let core = Arc::clone(&self.core);
        let (config, metrics) = (&core.config, &core.metrics);
        // Every job of a batch has the key of the first: it speaks for all.
        let key = batch.jobs[0].batch_key();
        let fingerprint = key.fingerprint;
        if core.breaker.admit(fingerprint) == Admission::Refuse {
            for job in batch.jobs {
                metrics.breaker_open.fetch_add(1, Ordering::Relaxed);
                let refused = ServiceError::CircuitOpen { fingerprint };
                core.refuse(job, refused, None, &mut self.kept);
            }
            return;
        }
        let started = Instant::now();
        let matrix = batch.jobs[0].request.matrix.clone();

        // Batch-wide setup: plan resolution (the service's only partitioner
        // call site) and one operator serving every job. The key holds the
        // registry's own name for the partitioner, resolved at submission.
        let partitioner =
            hpf_partition::by_name(key.partitioner).expect("a batch key holds a registry name");
        // Multigrid jobs cache their hierarchy alongside the plan, keyed on
        // depth (grid presence was validated at submission).
        let mg_req = match (key.solver, key.grid) {
            (SolverKind::PcgMg { levels }, Some(dims)) => Some((dims, levels)),
            _ => None,
        };
        let setup = catch_unwind(AssertUnwindSafe(|| {
            if config.plan_cache_enabled {
                // The cache keeps the operator with its matrix: a recurring
                // instance pays for neither the plan nor the operator.
                let (plan, op, outcome) = core.cache.get_or_build(
                    fingerprint,
                    &matrix,
                    config.np,
                    TOPOLOGY,
                    partitioner.as_ref(),
                    mg_req,
                );
                match outcome {
                    CacheOutcome::Hit => {
                        metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                        (plan, PlanSource::CacheHit, op)
                    }
                    CacheOutcome::Miss => {
                        metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                        metrics
                            .partitioner_invocations
                            .fetch_add(1, Ordering::Relaxed);
                        (plan, PlanSource::Built, op)
                    }
                }
            } else {
                metrics
                    .partitioner_invocations
                    .fetch_add(1, Ordering::Relaxed);
                let mut plan = SolvePlan::build_for(
                    fingerprint,
                    &matrix,
                    config.np,
                    TOPOLOGY,
                    partitioner.as_ref(),
                );
                if let Some((dims, levels)) = mg_req {
                    plan = plan.with_mg(dims, levels);
                }
                let op = Arc::new(plan.operator(Arc::clone(&matrix)));
                (Arc::new(plan), PlanSource::Built, op)
            }
        }));
        let (plan, source, op) = match setup {
            Ok(s) => s,
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                for job in batch.jobs {
                    // The plan build is part of running the job: it counts
                    // for the breaker and under the solver it asked for.
                    let ran = Some(job.request.solver);
                    let panicked = ServiceError::WorkerPanic(msg.clone());
                    core.refuse(job, panicked, ran, &mut self.kept);
                }
                return;
            }
        };

        let batched_with = batch.jobs.len() - 1;
        metrics.batches_executed.fetch_add(1, Ordering::Relaxed);
        if batched_with > 0 {
            metrics
                .batched_jobs
                .fetch_add(batch.jobs.len() as u64, Ordering::Relaxed);
        }

        for job in batch.jobs {
            // Tag every machine event this job induces with its request's
            // trace id and job id, so multi-job traces stay attributable and
            // a live consumer can join machine spans with service events:
            // "trace=00c0ffee/job=7/solve/iter=3/...".
            let _trace_span =
                hpf_machine::span::enter(format!("trace={:016x}", job.request.trace_id));
            let _job_span = hpf_machine::span::enter(format!("job={}", job.id));
            let job_started = Instant::now();
            *lock(&self.state.current) = Some(CurrentJob {
                job_id: job.id,
                fingerprint,
                since: job_started,
            });
            self.kept.begin(&job);
            self.machine.clear_tail();
            let (trace_id, class) = (job.request.trace_id, job.request.qos);
            let max_attempts = config.max_attempts.max(1);
            let mut kind = job.request.solver;
            let mut attempts = 0usize;
            let outcome = loop {
                attempts += 1;
                self.machine.reset();
                // The fault plan models a hostile environment for the first
                // attempt only; retries run on a clean machine. A stale
                // injector from a previous job is cleared too.
                match (&job.request.fault_plan, attempts) {
                    (Some(plan), 1) => self.machine.set_fault_plan(plan.clone()),
                    _ => self.machine.clear_fault_plan(),
                }
                // The residual series lives *outside* the catch site, so
                // a supervisor kill mid-attempt still leaves the
                // iterations recorded so far for the hook to read.
                let observed = self.kept.hook.is_some();
                self.kept.residual.attempt = attempts;
                self.kept.residual.solver = kind.name();
                let (machine, series) = (&mut self.machine, &mut self.kept.residual.series);
                let solved = catch_unwind(AssertUnwindSafe(|| {
                    let mut solutions = Vec::with_capacity(job.request.rhs.len());
                    let mut stats: Vec<SolveStats> = Vec::with_capacity(job.request.rhs.len());
                    let mut recovery: Option<RecoveryStats> = None;
                    for rhs in &job.request.rhs {
                        // One series per RHS: a failing solve breaks out,
                        // so the series kept is the failing system's.
                        series.clear();
                        let obs: &mut dyn IterObserver = if observed {
                            &mut *series
                        } else {
                            &mut NullObserver
                        };
                        let (x, s, rec) = run_solver(
                            kind,
                            machine,
                            &op,
                            plan.mg.as_deref(),
                            rhs,
                            job.request.stop,
                            job.request.max_iters,
                            config.recovery,
                            obs,
                        )?;
                        if let Some(rec) = rec {
                            let agg = recovery.get_or_insert_with(RecoveryStats::default);
                            agg.checkpoints += rec.checkpoints;
                            agg.rollbacks += rec.rollbacks;
                            agg.faults_detected += rec.faults_detected;
                            agg.residual_replacements += rec.residual_replacements;
                        }
                        solutions.push(x);
                        stats.push(s);
                    }
                    Ok::<_, SolverError>((solutions, stats, recovery))
                }));
                // Per-attempt: reset() rewinds the injector, clear removes it.
                metrics
                    .faults_injected
                    .fetch_add(self.machine.faults_injected() as u64, Ordering::Relaxed);
                match solved {
                    Ok(Ok((solutions, stats, recovery))) => {
                        if let Some(rec) = &recovery {
                            metrics
                                .faults_detected
                                .fetch_add(rec.faults_detected as u64, Ordering::Relaxed);
                            metrics
                                .rollbacks
                                .fetch_add(rec.rollbacks as u64, Ordering::Relaxed);
                            for _ in 0..rec.rollbacks {
                                self.kept.emit(ServiceEvent::Rollback { trace_id, class });
                            }
                        }
                        break Ok((solutions, stats, recovery));
                    }
                    Ok(Err(e)) => {
                        if attempts < max_attempts && is_retryable(&e) {
                            metrics.retries.fetch_add(1, Ordering::Relaxed);
                            self.kept.emit(ServiceEvent::Retry {
                                trace_id,
                                class,
                                attempt: attempts + 1,
                            });
                            if let Some(next) = escalate(kind) {
                                kind = next;
                                metrics.escalations.fetch_add(1, Ordering::Relaxed);
                            }
                            std::thread::sleep(backoff_delay_jittered(
                                BACKOFF_BASE,
                                BACKOFF_CAP,
                                attempts as u32,
                                job.id,
                            ));
                            continue;
                        }
                        break Err(ServiceError::Solver(e));
                    }
                    Err(payload) => {
                        if payload.as_ref().downcast_ref::<SupervisorAbort>().is_some() {
                            let after = job_started.elapsed();
                            self.kept.emit(ServiceEvent::WorkerKilled {
                                trace_id,
                                class,
                                after_us: after.as_micros() as u64,
                            });
                            break Err(ServiceError::WorkerKilled { after });
                        }
                        break Err(ServiceError::WorkerPanic(panic_message(payload.as_ref())));
                    }
                }
            };
            let result = outcome.map(|(solutions, stats, recovery)| {
                // Calibrate the admission oracle on clean first-attempt
                // successes only: retries and fault-plan runs would
                // teach it the faults, not the costs.
                if attempts == 1 && job.request.fault_plan.is_none() && !stats.is_empty() {
                    let mean_iters = stats.iter().map(|s| s.iterations).sum::<usize>() as f64
                        / stats.len() as f64;
                    core.admission.observe(
                        job.request.matrix.n_rows(),
                        mean_iters,
                        self.machine.elapsed(),
                        job_started.elapsed(),
                    );
                }
                let finished = Instant::now();
                SolveResponse {
                    job_id: job.id,
                    solutions,
                    stats,
                    fingerprint: plan.fingerprint,
                    plan_source: source,
                    plan_imbalance: plan.imbalance,
                    partitioner: plan.partitioner,
                    batched_with,
                    // The post-escalation solver that produced the
                    // outcome, not necessarily the one requested.
                    solver_used: kind,
                    attempts,
                    recovery,
                    trace: self.machine.digest().clone(),
                    wait_time: started.duration_since(job.submitted),
                    setup_time: job_started.duration_since(started),
                    solve_time: finished.duration_since(job_started),
                }
            });
            core.finish(job, result, Some(kind), &mut self.kept, self.machine.tail());
            *lock(&self.state.current) = None;
        }
    }
}

/// Best-effort rendering of a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Run one right-hand side: map the requested kind to an operator and a
/// [`Krylov`] method, and hand both to [`solve`]. CG-family solves are
/// checkpoint/rollback protected when a recovery config is set. `mg` is
/// the plan's cached V-cycle preconditioner; MG-PCG runs over the
/// hierarchy's own `(BLOCK)` fine operator (the level descriptors the
/// transfers price against), not the partitioned `op` the other methods
/// use.
#[allow(clippy::too_many_arguments)]
fn run_solver(
    kind: SolverKind,
    machine: &mut Machine,
    op: &RowwiseCsr,
    mg: Option<&hpf_mg::MgPreconditioner>,
    rhs: &[f64],
    stop: StopCriterion,
    max_iters: usize,
    recovery: Option<hpf_solvers::RecoveryConfig>,
    obs: &mut dyn IterObserver,
) -> Result<(Vec<f64>, SolveStats, Option<RecoveryStats>), SolverError> {
    let jacobi = match kind {
        SolverKind::PcgJacobi => Some(JacobiPreconditioner::from_operator(op)?),
        _ => None,
    };
    let precond = jacobi.as_ref().map(|m| m as &dyn DistPreconditioner);
    let (a, method) = match kind {
        SolverKind::Cg | SolverKind::PcgJacobi => (op, Krylov::Cg { precond, recovery }),
        SolverKind::PcgMg { .. } => mg
            .expect("validated: pcg-mg plans carry a hierarchy")
            .pcg(recovery),
        SolverKind::Bicg => (op, Krylov::Bicg),
        SolverKind::Bicgstab => (op, Krylov::Bicgstab),
        SolverKind::Gmres { restart } => (op, Krylov::Gmres { restart }),
    };
    let s = solve(machine, a, rhs, method, stop, max_iters, obs)?;
    Ok((s.x.to_global(), s.stats, s.recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::form_batch;
    use crate::request::SolveRequest;
    use hpf_sparse::gen;
    use std::collections::VecDeque;
    use std::sync::mpsc::Receiver;
    use std::time::Duration;

    fn make_job(
        id: u64,
        matrix: &Arc<hpf_sparse::CsrMatrix>,
        rhs: Vec<Vec<f64>>,
    ) -> (Job, Receiver<Result<SolveResponse, ServiceError>>) {
        Job::accepted(id, SolveRequest::with_rhs_set(matrix.clone(), rhs))
    }

    fn config(np: usize) -> ServiceConfig {
        ServiceConfig {
            np,
            breaker_threshold: 0,
            ..ServiceConfig::default()
        }
    }

    /// A worker over a service core of its own, as a worker thread
    /// would make it.
    fn worker(config: ServiceConfig) -> Worker {
        Worker::new(Core::new(config), WorkerState::new())
    }

    /// Hand `jobs` to `worker` as one batch, counted in flight as
    /// `submit` would have.
    fn execute(worker: &mut Worker, jobs: Vec<Job>) {
        let in_flight = &worker.core.metrics.in_flight;
        in_flight.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        worker.execute_batch(Batch { jobs });
    }

    #[test]
    fn batch_execution_answers_every_job_correctly() {
        let a = Arc::new(gen::banded_spd(48, 3, 9));
        let (b1, _x1) = gen::rhs_for_known_solution(&a);
        let (mut jobs, rxs): (Vec<_>, Vec<_>) =
            (0..3).map(|i| make_job(i, &a, vec![b1.clone()])).unzip();
        let seed = jobs.remove(0);
        let mut pending: VecDeque<Job> = jobs.into();
        let batch = form_batch(seed, &mut pending);
        assert_eq!(batch.jobs.len(), 3);

        let mut worker = worker(config(4));
        execute(&mut worker, batch.jobs);

        for rx in rxs {
            let resp = rx.recv().unwrap().unwrap();
            assert_eq!(resp.batched_with, 2);
            assert!(resp.stats[0].converged);
            let ax = a.matvec(&resp.solutions[0]).unwrap();
            let res: f64 = ax
                .iter()
                .zip(&b1)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt();
            let bn: f64 = b1.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(res <= 1e-6 * bn, "residual {res} vs ||b|| {bn}");
            assert!(resp.trace.events > 0);
            assert!(!resp.trace.by_label.is_empty());
        }
        let s = worker.core.metrics.snapshot();
        assert_eq!(s.completed, 3);
        assert_eq!(s.partitioner_invocations, 1);
        assert_eq!(s.batches_executed, 1);
        assert_eq!(s.batched_jobs, 3);
        assert_eq!(s.in_flight, 0);
    }

    #[test]
    fn expired_jobs_are_shed_with_a_typed_error() {
        let a = Arc::new(gen::tridiagonal(16, 4.0, -1.0));
        let (mut job, rx) = make_job(1, &a, vec![vec![1.0; 16]]);
        job.request.deadline = Some(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        let mut worker = worker(config(2));
        execute(&mut worker, vec![job]);
        match rx.recv().unwrap() {
            Err(ServiceError::DeadlineExceeded { waited }) => {
                assert!(waited >= Duration::from_nanos(1));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let s = worker.core.metrics.snapshot();
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.completed, 0);
        // No partitioning happened for a job that never ran.
        assert_eq!(s.partitioner_invocations, 0);
    }

    #[test]
    fn cache_disabled_partitions_every_batch() {
        let a = Arc::new(gen::banded_spd(32, 2, 4));
        let mut cfg = config(4);
        cfg.plan_cache_enabled = false;
        let mut worker = worker(cfg);
        for i in 0..3 {
            let (job, rx) = make_job(i, &a, vec![vec![1.0; 32]]);
            execute(&mut worker, vec![job]);
            assert!(rx.recv().unwrap().is_ok());
        }
        let s = worker.core.metrics.snapshot();
        assert_eq!(s.partitioner_invocations, 3);
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 0);
    }

    #[test]
    fn solver_failure_is_reported_not_panicked() {
        // CG on a non-symmetric matrix must surface a typed error.
        let coo = hpf_sparse::CooMatrix::from_triplets(
            3,
            3,
            vec![(0, 0, 2.0), (0, 1, 1.0), (1, 1, 2.0), (2, 2, 2.0)],
        )
        .unwrap();
        let a = Arc::new(hpf_sparse::CsrMatrix::from_coo(&coo));
        let (job, rx) = make_job(1, &a, vec![vec![1.0; 3]]);
        execute(&mut worker(config(2)), vec![job]);
        let out = rx.recv().unwrap();
        assert!(matches!(out, Err(ServiceError::Solver(_))) || out.is_ok());
    }

    /// The HPCG-class path end to end at the worker level: an MG-PCG
    /// job solves through the plan's cached hierarchy, the trace carries
    /// the V-cycle labels, and a second batch reuses the cached
    /// (depth-keyed) plan without re-partitioning.
    #[test]
    fn hpcg_jobs_run_mg_pcg_through_the_cached_hierarchy() {
        use hpf_mg::GridDims;
        let dims = GridDims::d2(15, 15);
        let mut worker = worker(config(4));
        for round in 0..2 {
            let mut request = SolveRequest::hpcg(dims, 3, vec![1.0; dims.n()]);
            request.stop = StopCriterion::RelativeResidual(1e-8);
            let (job, rx) = Job::accepted(round, request);
            execute(&mut worker, vec![job]);
            let resp = rx.recv().unwrap().unwrap();
            assert!(resp.stats[0].converged);
            assert_eq!(resp.solver_used.name(), "pcg-mg");
            let labels: Vec<&str> = resp
                .trace
                .by_label
                .iter()
                .map(|l| l.label.as_str())
                .collect();
            // Redistribute labels are split per level by
            // `summary_by_label` ("mg-restrict [level=0]", ...).
            for want in ["mg-smooth", "mg-halo", "mg-restrict", "mg-prolong"] {
                assert!(
                    labels.iter().any(|l| l.starts_with(want)),
                    "missing {want} in {labels:?}"
                );
            }
            assert!(
                labels.iter().any(|l| l.contains("[level=1]")),
                "no per-level split in {labels:?}"
            );
        }
        let s = worker.core.metrics.snapshot();
        assert_eq!(s.completed, 2);
        // One partition (and one hierarchy build) served both rounds.
        assert_eq!(s.partitioner_invocations, 1);
        assert_eq!(s.cache_hits, 1);
    }

    /// A plan build that panics fails its batch with a typed error and
    /// leaves the key's cache slot empty: the next request for the same
    /// key runs the build again instead of finding a poisoned entry.
    #[test]
    fn a_panicking_plan_build_is_answered_and_the_key_builds_next_time() {
        use hpf_mg::GridDims;
        let dims = GridDims::d2(15, 15);
        let mut worker = worker(config(4));
        // `submit` would reject a grid that cannot carry the hierarchy;
        // handed straight to the worker it panics inside `with_mg`. The
        // cache key is (structure, partitioner, depth), so the second,
        // well-formed job asks for the very same key.
        let grids = [GridDims::d2(3, 3), dims];
        let mut answers = Vec::new();
        for (id, grid) in grids.into_iter().enumerate() {
            let mut request = SolveRequest::hpcg(dims, 3, vec![1.0; dims.n()]);
            request.grid = Some(grid);
            let (job, rx) = Job::accepted(id as u64, request);
            execute(&mut worker, vec![job]);
            answers.push((rx.recv().unwrap(), worker.core.cache.len()));
        }
        assert!(
            matches!(&answers[0], (Err(ServiceError::WorkerPanic(msg)), 0) if msg.contains("mg hierarchy")),
            "{:?}",
            answers[0]
        );
        let (second, cached) = &answers[1];
        let second = second.as_ref().expect("the well-formed job solves");
        assert_eq!(second.plan_source, PlanSource::Built);
        assert_eq!(*cached, 1);
        let s = worker.core.metrics.snapshot();
        assert_eq!((s.failed, s.completed, s.in_flight), (1, 1, 0));
    }

    /// Without a hook a worker keeps nothing of a job; with one, what it
    /// hands over is the job in hand's alone, batch mates included.
    #[test]
    fn evidence_is_kept_for_a_hook_only_and_is_the_job_in_hand_alone() {
        use crate::events::EvidenceHook;
        use std::sync::Mutex;
        let a = Arc::new(gen::banded_spd(48, 3, 9));
        let (b, _x) = gen::rhs_for_known_solution(&a);
        let mut unobserved = worker(config(4));
        let (job, rx) = make_job(1, &a, vec![b.clone()]);
        execute(&mut unobserved, vec![job]);
        assert!(rx.recv().unwrap().is_ok());
        assert!(unobserved.machine.tail().is_empty());
        assert!(unobserved.kept.lifecycle.is_empty() && unobserved.kept.residual.series.is_empty());

        let handed: Arc<Mutex<Vec<String>>> = Arc::default();
        let evidence = handed.clone();
        let mut cfg = config(4);
        cfg.evidence_hook = Some(EvidenceHook::new(8, move |e| {
            let spans: Vec<&str> = e.machine.iter().map(|m| m.span.as_str()).collect();
            let job = spans[0].split('/').nth(1).unwrap();
            assert!(spans.iter().all(|s| s.split('/').nth(1) == Some(job)));
            let residual = e.residual.expect("a solve that iterated");
            assert_eq!((residual.attempt, residual.solver), (1, "cg"));
            let kinds: Vec<&str> = e.lifecycle.iter().map(ServiceEvent::kind).collect();
            assert_eq!(kinds, ["admitted", "completed"]);
            assert!(!residual.series.is_empty() && e.machine.overwritten() > 0);
            evidence
                .lock()
                .unwrap()
                .push(format!("{job}:{}", spans.len()));
        }));
        let mut observed = worker(cfg);
        let (jobs, rxs): (Vec<_>, Vec<_>) =
            (5..7).map(|id| make_job(id, &a, vec![b.clone()])).unzip();
        execute(&mut observed, jobs);
        assert!(rxs.iter().all(|rx| rx.recv().unwrap().is_ok()));
        assert_eq!(*handed.lock().unwrap(), ["job=5:8", "job=6:8"]);
    }

    /// A set-up panic ends each job of its batch the way every job ends:
    /// one `Completed`, one failed solve outcome, one evidence hand-over.
    #[test]
    fn a_panicking_plan_build_ends_each_job_of_the_batch_with_its_terminal_event() {
        use crate::events::{EvidenceHook, ServiceEventSink};
        use hpf_mg::GridDims;
        use std::sync::Mutex;
        let completed: Arc<Mutex<Vec<ServiceEvent>>> = Arc::default();
        // Lifecycle kinds, machine events, whether a residual series.
        type Handed = (Vec<&'static str>, usize, bool);
        let handed: Arc<Mutex<Vec<Handed>>> = Arc::default();
        let (events, evidence) = (completed.clone(), handed.clone());
        let mut cfg = config(4);
        cfg.event_sink = Some(ServiceEventSink::new(move |e| {
            events.lock().unwrap().push(*e);
        }));
        cfg.evidence_hook = Some(EvidenceHook::new(64, move |e| {
            let kinds = e.lifecycle.iter().map(ServiceEvent::kind).collect();
            let seen = (kinds, e.machine.len(), e.residual.is_some());
            evidence.lock().unwrap().push(seen);
        }));
        let mut worker = worker(cfg);
        let dims = GridDims::d2(15, 15);
        let mut request = SolveRequest::hpcg(dims, 3, vec![1.0; dims.n()]);
        request.grid = Some(GridDims::d2(3, 3));
        let (jobs, rxs): (Vec<_>, Vec<_>) = (0..3)
            .map(|id| Job::accepted(id, request.clone().trace(id + 1)))
            .unzip();
        execute(&mut worker, jobs);
        for rx in rxs {
            let answer = rx.recv().unwrap();
            assert!(
                matches!(&answer, Err(ServiceError::WorkerPanic(msg)) if msg.contains("mg hierarchy")),
                "{answer:?}"
            );
        }
        let completed = completed.lock().unwrap();
        for (event, trace_id) in completed.iter().zip(1..) {
            assert!(
                matches!(
                    *event,
                    ServiceEvent::Completed { trace_id: id, ok: false, outcome: "worker-panic", .. }
                    if id == trace_id
                ),
                "{event:?}"
            );
        }
        assert_eq!(completed.len(), 3);
        let quiet = (vec!["admitted", "completed"], 0, false);
        assert_eq!(*handed.lock().unwrap(), vec![quiet; 3]);
        let s = worker.core.metrics.snapshot();
        assert_eq!((s.failed, s.completed, s.in_flight), (3, 0, 0));
        let outcomes: Vec<_> = s
            .solve_outcomes
            .iter()
            .map(|o| {
                (
                    o.solver.as_str(),
                    o.scenario.as_str(),
                    o.completed,
                    o.failed,
                )
            })
            .collect();
        assert_eq!(outcomes, [("pcg-mg", "hpcg", 0, 3)]);
    }

    #[test]
    fn multi_rhs_job_returns_one_solution_per_rhs() {
        let a = Arc::new(gen::banded_spd(24, 2, 7));
        let rhs: Vec<Vec<f64>> = (0..4)
            .map(|k| (0..24).map(|i| ((i + k) % 5) as f64).collect())
            .collect();
        let (job, rx) = make_job(1, &a, rhs.clone());
        let mut worker = worker(config(4));
        execute(&mut worker, vec![job]);
        let resp = rx.recv().unwrap().unwrap();
        assert_eq!(resp.solutions.len(), 4);
        assert_eq!(resp.stats.len(), 4);
        for (x, b) in resp.solutions.iter().zip(&rhs) {
            let ax = a.matvec(x).unwrap();
            let res: f64 = ax
                .iter()
                .zip(b)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt();
            let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(res <= 1e-6 * bn.max(1.0), "residual {res}");
        }
        assert_eq!(worker.core.metrics.snapshot().rhs_solved, 4);
    }
}
