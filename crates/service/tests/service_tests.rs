//! End-to-end tests through a running [`SolverService`]: real threads,
//! real bounded queues, real plan cache.

use hpf_machine::Topology;
use hpf_service::{
    PlanSource, QosClass, ServiceConfig, ServiceError, SolvePlan, SolveRequest, SolverKind,
    SolverService,
};
use hpf_solvers::StopCriterion;
use hpf_sparse::gen;
use std::sync::Arc;
use std::time::Duration;

fn residual_ok(a: &hpf_sparse::CsrMatrix, x: &[f64], b: &[f64], tol: f64) -> bool {
    let ax = a.matvec(x).unwrap();
    let res: f64 = ax
        .iter()
        .zip(b)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    res <= tol * bn.max(1.0)
}

/// Acceptance criterion from the issue: at least 32 queued solves that
/// share one structure, with the plan cache on, run the partitioner
/// exactly once.
#[test]
fn thirty_three_same_structure_jobs_partition_exactly_once() {
    let service = SolverService::start(ServiceConfig {
        workers: 2,
        queue_capacity: 128,
        np: 8,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::power_law_spd(96, 12, 0.9, 21));
    let (b, _x) = gen::rhs_for_known_solution(&a);

    let handles: Vec<_> = (0..33)
        .map(|_| {
            service
                .submit(SolveRequest::new(a.clone(), b.clone()))
                .expect("queue sized to hold every job")
        })
        .collect();
    let mut built = 0usize;
    for h in handles {
        let resp = h.wait().unwrap();
        assert!(resp.stats[0].converged);
        assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6));
        if resp.plan_source == PlanSource::Built {
            built += 1;
        }
    }

    let m = service.shutdown();
    assert_eq!(m.accepted, 33);
    assert_eq!(m.completed, 33);
    assert_eq!(m.failed, 0);
    assert_eq!(m.in_flight, 0);
    // The heart of the subsystem: one partition served 33 solves.
    assert_eq!(
        m.partitioner_invocations, 1,
        "plan cache must reuse the partition"
    );
    assert_eq!(m.cache_misses, 1);
    assert!(built >= 1, "some batch must have built the plan");
    assert_eq!(m.rhs_solved, 33);
}

/// With the cache disabled every batch re-partitions; batching is also
/// off here so each job is its own batch.
#[test]
fn cache_off_partitions_per_job() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        plan_cache_enabled: false,
        batching_enabled: false,
        np: 4,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(40, 3, 5));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            service
                .submit(SolveRequest::new(a.clone(), b.clone()))
                .unwrap()
        })
        .collect();
    for h in handles {
        let resp = h.wait().unwrap();
        assert_eq!(resp.plan_source, PlanSource::Built);
        assert_eq!(resp.batched_with, 0);
    }
    let m = service.shutdown();
    assert_eq!(m.partitioner_invocations, 4);
    assert_eq!(m.cache_hits, 0);
}

/// A full bounded queue rejects with a typed `Busy` error instead of
/// blocking the submitter; already-accepted work still completes.
#[test]
fn full_queue_rejects_with_busy() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        batching_enabled: false,
        np: 4,
        ..ServiceConfig::default()
    });
    // Heavy enough that the single worker lags far behind the submit loop.
    let a = Arc::new(gen::power_law_spd(256, 16, 0.9, 3));
    let rhs: Vec<Vec<f64>> = (0..4)
        .map(|k| (0..256).map(|i| ((i * 7 + k) % 11) as f64).collect())
        .collect();

    let mut saw_busy = false;
    let mut handles = Vec::new();
    for _ in 0..200 {
        match service.submit(SolveRequest::with_rhs_set(a.clone(), rhs.clone())) {
            Ok(h) => handles.push(h),
            Err(ServiceError::Busy { queue_capacity }) => {
                assert_eq!(queue_capacity, 2);
                saw_busy = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        saw_busy,
        "a 2-slot queue must overflow under a 200-job burst"
    );
    for h in handles {
        assert!(h.wait().is_ok());
    }
    let m = service.shutdown();
    assert!(m.rejected_busy >= 1);
    assert_eq!(m.failed, 0);
    assert_eq!(m.in_flight, 0);
}

/// Acceptance criterion from the issue: a deadline-exceeded request
/// returns a typed error rather than hanging the pool — and the pool
/// keeps serving afterwards.
#[test]
fn deadline_exceeded_is_typed_and_pool_survives() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 4,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(32, 2, 8));
    let (b, _x) = gen::rhs_for_known_solution(&a);

    // A 1 ns deadline has always passed by the time a worker gets the
    // job, so the shed path triggers deterministically.
    let doomed = service
        .submit(SolveRequest::new(a.clone(), b.clone()).deadline(Duration::from_nanos(1)))
        .unwrap();
    match doomed.wait() {
        Err(ServiceError::DeadlineExceeded { waited }) => {
            assert!(waited >= Duration::from_nanos(1));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The pool is alive and the next job solves normally.
    let resp = service
        .solve(SolveRequest::new(a.clone(), b.clone()))
        .unwrap();
    assert!(resp.stats[0].converged);
    let m = service.shutdown();
    assert_eq!(m.deadline_exceeded, 1);
    assert_eq!(m.completed, 1);
    assert_eq!(m.in_flight, 0);
    // The doomed job never reached the partitioner or the solver.
    assert_eq!(m.rhs_solved, 1);
}

/// CI hook: the same structural fingerprint must always map to the same
/// plan, both via direct builds and through a running service.
#[test]
fn plan_cache_determinism_same_fingerprint_same_plan() {
    // Two matrices, identical structure, different values.
    let a1 = gen::power_law_spd(120, 18, 1.0, 13);
    let mut a2 = a1.clone();
    a2.scale(3.25);

    let p1 = SolvePlan::build(&a1, 8, Topology::Hypercube);
    let p2 = SolvePlan::build(&a2, 8, Topology::Hypercube);
    assert_eq!(p1.fingerprint, p2.fingerprint);
    assert_eq!(p1.row_cuts, p2.row_cuts);
    assert_eq!(p1.loads, p2.loads);
    assert_eq!(p1.imbalance.to_bits(), p2.imbalance.to_bits());
    assert_eq!(p1.trio_descriptors(), p2.trio_descriptors());

    // Through the service: two runs report the same fingerprint and the
    // same plan imbalance for structurally identical inputs.
    let run = |m: hpf_sparse::CsrMatrix| {
        let service = SolverService::start(ServiceConfig {
            workers: 1,
            np: 8,
            ..ServiceConfig::default()
        });
        let m = Arc::new(m);
        let (b, _x) = gen::rhs_for_known_solution(&m);
        let resp = service.solve(SolveRequest::new(m, b)).unwrap();
        (resp.fingerprint, resp.plan_imbalance.to_bits())
    };
    assert_eq!(run(a1), run(a2));
}

/// A solver-level failure is reported as a typed error for that job
/// only; the worker thread keeps serving.
#[test]
fn solver_failure_does_not_poison_the_pool() {
    // One attempt, so no retry escalates: the breakdown surfaces instead
    // of being healed by the fallback chain (which has its own test).
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 2,
        max_attempts: 1,
        ..ServiceConfig::default()
    });
    // CG breaks down deterministically on this indefinite system:
    // A = [[0,1],[1,0]], b = [1,0] gives p·Ap = 0 in the first step.
    let coo = hpf_sparse::CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
    let bad = Arc::new(hpf_sparse::CsrMatrix::from_coo(&coo));
    let out = service.solve(SolveRequest::new(bad, vec![1.0, 0.0]));
    assert!(matches!(out, Err(ServiceError::Solver(_))));

    let a = Arc::new(gen::tridiagonal(16, 4.0, -1.0));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    let resp = service.solve(SolveRequest::new(a, b)).unwrap();
    assert!(resp.stats[0].converged);
    let m = service.shutdown();
    assert_eq!(m.failed, 1);
    assert_eq!(m.completed, 1);
}

/// Malformed requests are rejected up front with a typed error and never
/// consume a queue slot.
/// `Gmres { restart: 0 }` used to pass validation and panic in the
/// worker, which the structure's circuit breaker counted as a failure.
#[test]
fn a_zero_gmres_restart_is_rejected_at_submission() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 2,
        breaker_threshold: 1,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::tridiagonal(8, 4.0, -1.0));
    let request =
        |restart| SolveRequest::new(a.clone(), vec![1.0; 8]).solver(SolverKind::Gmres { restart });
    match service.solve(request(0)) {
        Err(ServiceError::InvalidRequest(why)) => assert!(why.contains("restart"), "{why}"),
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    assert_eq!(service.open_circuits(), 0);
    // The same structure still solves: no failure was held against it.
    let ok = service.solve(request(4)).expect("gmres(4) solves");
    assert!(ok.stats[0].converged);
    let m = service.shutdown();
    assert_eq!((m.rejected_invalid, m.accepted, m.failed), (1, 1, 0));
}

#[test]
fn invalid_requests_fail_fast() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 2,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::tridiagonal(8, 4.0, -1.0));

    let wrong_len = service.submit(SolveRequest::new(a.clone(), vec![1.0; 5]));
    assert!(matches!(wrong_len, Err(ServiceError::InvalidRequest(_))));

    let no_rhs = service.submit(SolveRequest::with_rhs_set(a.clone(), Vec::new()));
    assert!(matches!(no_rhs, Err(ServiceError::InvalidRequest(_))));

    let zero_iters = service.submit(SolveRequest::new(a.clone(), vec![1.0; 8]).max_iters(0));
    assert!(matches!(zero_iters, Err(ServiceError::InvalidRequest(_))));

    let bad_partitioner =
        service.submit(SolveRequest::new(a.clone(), vec![1.0; 8]).partitioner("metis"));
    match bad_partitioner {
        Err(ServiceError::InvalidRequest(why)) => {
            assert!(why.contains("metis"), "{why}");
            assert!(why.contains("balanced-rows"), "{why}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }

    let m = service.shutdown();
    assert_eq!(m.rejected_invalid, 4);
    assert_eq!(m.accepted, 0);
}

/// Every registered partitioner solves end to end, and the response
/// reports the one that laid out the plan. Each (structure, partitioner)
/// pair builds its own cached plan.
#[test]
fn every_partitioner_solves_through_the_service() {
    let service = SolverService::start(ServiceConfig {
        workers: 2,
        np: 4,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::power_law_spd(80, 14, 0.9, 17));
    let (b, _x) = gen::rhs_for_known_solution(&a);

    for name in hpf_partition::partitioner_names() {
        let resp = service
            .solve(SolveRequest::new(a.clone(), b.clone()).partitioner(name))
            .unwrap();
        assert_eq!(resp.partitioner, name);
        assert!(resp.stats[0].converged, "{name}");
        assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6), "{name}");
    }

    assert_eq!(
        service.cached_plans(),
        hpf_partition::partitioner_names().len()
    );
    let m = service.shutdown();
    assert_eq!(m.partitioner_invocations, 4);
    assert_eq!(m.completed, 4);
}

/// Every configured solver kind works end to end on an SPD system.
#[test]
fn all_solver_kinds_run_through_the_service() {
    let service = SolverService::start(ServiceConfig {
        workers: 2,
        np: 4,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(40, 2, 17));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    for kind in [
        SolverKind::Cg,
        SolverKind::PcgJacobi,
        SolverKind::Bicg,
        SolverKind::Bicgstab,
        SolverKind::Gmres { restart: 20 },
    ] {
        let resp = service
            .solve(
                SolveRequest::new(a.clone(), b.clone())
                    .solver(kind)
                    .stop(StopCriterion::RelativeResidual(1e-8)),
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
        assert!(resp.stats[0].converged, "{} did not converge", kind.name());
        assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6));
        assert!(resp.trace.events > 0);
    }
    drop(service);
}

/// The HPCG-class scenario end to end: a `SolveRequest::hpcg` runs
/// MG-PCG over the service's cached hierarchy, the answer satisfies the
/// Poisson system, and the per-level V-cycle attribution survives into
/// the response's trace summary.
#[test]
fn hpcg_scenario_solves_end_to_end_with_per_level_spans() {
    let service = SolverService::start(ServiceConfig {
        workers: 2,
        np: 4,
        ..ServiceConfig::default()
    });
    let dims = hpf_mg::GridDims::d2(15, 15);
    let a = dims.poisson();
    let (_x, b) = gen::rhs_for_known_solution(&a);

    for _ in 0..2 {
        let req =
            SolveRequest::hpcg(dims, 3, b.clone()).stop(StopCriterion::RelativeResidual(1e-8));
        assert_eq!(req.scenario, "hpcg");
        let resp = service.solve(req).expect("hpcg request must be answered");
        assert!(resp.stats[0].converged);
        assert_eq!(resp.solver_used.name(), "pcg-mg");
        assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6));
        let labels: Vec<&str> = resp
            .trace
            .by_label
            .iter()
            .map(|l| l.label.as_str())
            .collect();
        assert!(
            labels.iter().any(|l| l.starts_with("mg-smooth")),
            "{labels:?}"
        );
        for level in [0, 1] {
            assert!(
                labels
                    .iter()
                    .any(|l| l.ends_with(&format!("[level={level}]"))),
                "no level-{level} attribution in {labels:?}"
            );
        }
    }

    // Second round hit the depth-keyed plan cache.
    let m = service.shutdown();
    assert_eq!(m.completed, 2);
    assert_eq!(m.partitioner_invocations, 1);

    // A pcg-mg request without grid dims is refused up front.
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 4,
        ..ServiceConfig::default()
    });
    let bad =
        SolveRequest::new(Arc::new(a.clone()), b.clone()).solver(SolverKind::PcgMg { levels: 3 });
    match service.solve(bad) {
        Err(ServiceError::InvalidRequest(why)) => assert!(why.contains("grid"), "{why}"),
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
}

/// CG breakdown on an indefinite system is healed by the escalation
/// chain: the job is answered (by GMRES, the chain's end) and the retry
/// and escalation counters record the path taken.
#[test]
fn breakdown_is_healed_by_escalation() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 2,
        ..ServiceConfig::default()
    });
    // p·Ap = 0 on the first CG step; BiCGSTAB also breaks down here, so
    // the chain must walk CG → BiCGSTAB → GMRES.
    let coo = hpf_sparse::CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
    let a = Arc::new(hpf_sparse::CsrMatrix::from_coo(&coo));
    let b = vec![1.0, 0.0];
    let resp = service
        .solve(SolveRequest::new(a.clone(), b.clone()))
        .expect("escalation must answer the job");
    assert!(resp.stats[0].converged);
    assert!(matches!(resp.solver_used, SolverKind::Gmres { .. }));
    assert!(resp.attempts >= 2);
    assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6));

    let m = service.shutdown();
    assert_eq!(m.completed, 1);
    assert_eq!(m.failed, 0);
    assert!(m.retries >= 1, "retries: {}", m.retries);
    assert!(m.escalations >= 1, "escalations: {}", m.escalations);
}

/// A structure that keeps failing trips its circuit breaker: further
/// jobs on the same fingerprint are refused with a typed error instead
/// of burning a worker.
#[test]
fn repeated_failures_open_the_circuit_breaker() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 2,
        max_attempts: 1,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(30),
        ..ServiceConfig::default()
    });
    let coo = hpf_sparse::CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
    let a = Arc::new(hpf_sparse::CsrMatrix::from_coo(&coo));
    let b = vec![1.0, 0.0];

    for _ in 0..2 {
        let out = service.solve(SolveRequest::new(a.clone(), b.clone()));
        assert!(matches!(out, Err(ServiceError::Solver(_))));
    }
    let refused = service.solve(SolveRequest::new(a.clone(), b.clone()));
    assert!(
        matches!(refused, Err(ServiceError::CircuitOpen { .. })),
        "third job must be refused: {refused:?}"
    );
    assert_eq!(service.open_circuits(), 1);

    // A different (healthy) structure is unaffected.
    let good = Arc::new(gen::tridiagonal(16, 4.0, -1.0));
    let (gb, _x) = gen::rhs_for_known_solution(&good);
    assert!(service.solve(SolveRequest::new(good, gb)).is_ok());

    let m = service.shutdown();
    assert_eq!(m.breaker_open, 1);
    assert_eq!(m.failed, 3);
    assert_eq!(m.completed, 1);
}

/// A request carrying a fault plan runs under injection on the first
/// attempt; the protected solver rides it out and the response reports
/// the recovery work.
#[test]
fn fault_plan_jobs_recover_and_report() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 4,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(64, 3, 9));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    let plan = hpf_machine::FaultPlan::new()
        .with_crash(25, 1)
        .with_message_drop(60, 2);
    let resp = service
        .solve(SolveRequest::new(a.clone(), b.clone()).fault_plan(plan))
        .expect("protected CG must survive the plan");
    assert!(resp.stats[0].converged);
    assert!(residual_ok(&a, &resp.solutions[0], &b, 1e-6));
    let rec = resp.recovery.expect("protected solver reports recovery");
    assert!(rec.checkpoints >= 1);
    assert!(rec.faults_detected >= 1);

    let m = service.shutdown();
    assert!(
        m.faults_injected >= 2,
        "faults_injected: {}",
        m.faults_injected
    );
    assert!(m.faults_detected >= 1);
    assert_eq!(m.completed, 1);
}

/// Shutdown answers still-queued jobs with a typed `Shutdown` error —
/// nobody hangs on a dropped responder — while jobs already executing
/// run to completion.
#[test]
fn shutdown_drains_queued_jobs_with_typed_errors() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        np: 4,
        batching_enabled: false,
        ..ServiceConfig::default()
    });
    // A deliberately slow head job: one structure, many right-hand
    // sides, tight tolerance.
    let slow_a = Arc::new(gen::poisson_2d(40, 40));
    let (sb, _x) = gen::rhs_for_known_solution(&slow_a);
    let slow = service
        .submit(SolveRequest::with_rhs_set(
            slow_a.clone(),
            vec![sb.clone(); 24],
        ))
        .unwrap();
    // Wait until the worker has actually picked the slow job up, so
    // "in-flight work finishes" is deterministic below.
    while service.metrics().batches_executed == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Distinct structures behind it, so each is its own batch.
    let queued: Vec<_> = (0..8)
        .map(|i| {
            let a = Arc::new(gen::banded_spd(32, 2, 100 + i));
            let (b, _x) = gen::rhs_for_known_solution(&a);
            service.submit(SolveRequest::new(a, b)).unwrap()
        })
        .collect();

    let metrics = service.shutdown();

    let slow_out = slow.wait();
    assert!(
        matches!(&slow_out, Ok(r) if r.stats.len() == 24),
        "the in-flight job finishes: {slow_out:?}"
    );
    let mut drained = 0usize;
    for h in queued {
        match h.wait() {
            Ok(r) => assert!(r.stats[0].converged),
            Err(ServiceError::Shutdown) => drained += 1,
            Err(e) => panic!("unexpected error during drain: {e}"),
        }
    }
    assert!(drained >= 1, "at least one queued job is drained");
    assert_eq!(metrics.completed + metrics.failed, 9);
    assert_eq!(metrics.in_flight, 0);
    assert_eq!(metrics.failed as usize, drained);
}

/// Tentpole acceptance: once the admission oracle has its eight
/// calibrating solves, a deadline no prediction can meet is refused at
/// `submit` with a typed `Shed` — before the job consumes a queue slot —
/// while feasible deadlines keep flowing. Before the eighth, a cold
/// oracle admits even that deadline.
#[test]
fn calibrated_admission_sheds_impossible_deadlines_at_submit() {
    const CALIBRATING_SOLVES: u64 = 8;
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 4,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(256, 3, 11));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    // Clean solves teach the oracle this structure's wall cost.
    for _ in 0..CALIBRATING_SOLVES {
        assert!(!service.admission().calibrated());
        let resp = service
            .solve(SolveRequest::new(a.clone(), b.clone()))
            .unwrap();
        assert!(resp.stats[0].converged);
    }
    assert!(service.admission().calibrated());

    // A 1 ns budget sits far below any calibrated prediction.
    let out =
        service.submit(SolveRequest::new(a.clone(), b.clone()).deadline(Duration::from_nanos(1)));
    match out {
        Err(ServiceError::Shed { predicted, budget }) => {
            assert_eq!(budget, Duration::from_nanos(1));
            assert!(predicted > budget, "{predicted:?} vs {budget:?}");
        }
        other => panic!("expected Shed, got {other:?}"),
    }

    // A generous deadline is still admitted and solved.
    let ok = service
        .solve(SolveRequest::new(a.clone(), b.clone()).deadline(Duration::from_secs(3600)))
        .unwrap();
    assert!(ok.stats[0].converged);

    let m = service.shutdown();
    assert_eq!(m.shed_total, 1);
    assert_eq!(m.accepted, CALIBRATING_SOLVES + 1);
    assert_eq!(m.completed, CALIBRATING_SOLVES + 1);
    assert_eq!(m.failed, 0);
}

/// A machine sink that parks the thread recording the first machine
/// event it sees — the one worker of a service, inside its first solve —
/// until the test lets go. Returns the sink, the channel that says the
/// worker is parked, and the one that releases it.
fn gate() -> (
    hpf_machine::EventSink,
    std::sync::mpsc::Receiver<()>,
    std::sync::mpsc::Sender<()>,
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let armed = AtomicBool::new(true);
    let release_rx = std::sync::Mutex::new(release_rx);
    let sink = hpf_machine::EventSink::new(move |_event| {
        if armed.swap(false, Ordering::SeqCst) {
            parked_tx.send(()).expect("the test waits for this");
            release_rx.lock().unwrap().recv().expect("the test lets go");
        }
    });
    (sink, parked_rx, release_tx)
}

/// Tentpole acceptance: with the single worker pinned, best-effort work
/// submitted *first* still runs *after* the interactive work that
/// arrived later — weighted-fair dequeue, not arrival order.
///
/// Nothing here is left to how long a solve takes. The worker is pinned
/// by a gate the test holds: the machine sink parks the worker thread at
/// the blocker's first machine event and lets go once the contest is
/// queued. The order read is the order in which the one worker finished
/// the jobs (`ServiceEvent::Completed`, emitted on the worker thread),
/// not the order in which waiting threads happened to wake.
#[test]
fn interactive_jobs_overtake_best_effort_under_load() {
    use hpf_service::{ServiceEvent, ServiceEventSink};
    use std::sync::Mutex;

    let (gate, parked_rx, release_tx) = gate();
    let finished = Arc::new(Mutex::new(Vec::<QosClass>::new()));
    let record = {
        let finished = finished.clone();
        ServiceEventSink::new(move |event| {
            if let ServiceEvent::Completed { class, ok, .. } = event {
                assert!(ok, "every job here solves");
                finished.lock().unwrap().push(*class);
            }
        })
    };
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        np: 4,
        batching_enabled: false,
        // The parked worker sends no heartbeats; it is not hung.
        hang_timeout: Duration::from_secs(3600),
        machine_sink: Some(gate),
        event_sink: Some(record),
        ..ServiceConfig::default()
    });
    let submit = |a: hpf_sparse::CsrMatrix, qos: QosClass| {
        let (b, _x) = gen::rhs_for_known_solution(&a);
        service
            .submit(SolveRequest::new(Arc::new(a), b).qos(qos))
            .unwrap()
    };
    let mut handles = vec![submit(gen::poisson_2d(32, 32), QosClass::Batch)];
    parked_rx.recv().expect("the blocker reaches the worker");
    // Nobody stands between `submit` and the parked worker: whatever is
    // submitted now waits in the intake until the worker comes back for
    // it, and is picked by weight then. Best-effort first.
    for i in 0..3 {
        handles.push(submit(
            gen::power_law_spd(256, 16, 0.9, 50 + i),
            QosClass::BestEffort,
        ));
    }
    for i in 0..3 {
        handles.push(submit(
            gen::banded_spd(48, 2, 300 + i),
            QosClass::Interactive,
        ));
    }
    let waiting = service.metrics();
    assert_eq!(waiting.queue_depth, 6);
    assert_eq!(waiting.class_queue_depth, [3, 0, 3]);
    release_tx.send(()).expect("the worker is parked on this");

    for h in handles {
        assert!(h.wait().is_ok());
    }
    let m = service.shutdown();
    assert_eq!(m.completed, 7);
    assert_eq!(m.queue_depth, 0);
    use QosClass::{Batch, BestEffort, Interactive};
    assert_eq!(
        *finished.lock().unwrap(),
        [
            Batch,       // the blocker
            Interactive, // the contest: interactive drains before best-effort
            Interactive,
            Interactive,
            BestEffort,
            BestEffort,
            BestEffort,
        ]
    );
}

/// Tentpole acceptance: a worker hung mid-solve (wall-clock stall fault,
/// no heartbeats) is killed by the supervisor — the job is answered with
/// a typed `WorkerKilled`, the worker is respawned, and the pool keeps
/// serving.
#[test]
fn hung_worker_is_killed_and_respawned() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 4,
        hang_timeout: Duration::from_millis(100),
        supervisor_poll: Duration::from_millis(10),
        breaker_threshold: 10,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(64, 3, 7));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    // A 600 ms stall on processor 0, six times the hang timeout:
    // heartbeats stop, the supervisor flags the worker, and the next
    // machine operation observes the abort.
    let plan = hpf_machine::FaultPlan::new().with_stall(30, 0, 600);
    let doomed = service
        .submit(SolveRequest::new(a.clone(), b.clone()).fault_plan(plan))
        .unwrap();
    match doomed.wait() {
        Err(ServiceError::WorkerKilled { after }) => {
            assert!(after >= Duration::from_millis(100), "{after:?}");
        }
        other => panic!("expected WorkerKilled, got {other:?}"),
    }

    // The respawned worker answers the next job.
    let resp = service
        .solve(SolveRequest::new(a.clone(), b.clone()))
        .unwrap();
    assert!(resp.stats[0].converged);

    let m = service.shutdown();
    assert!(m.supervisor_kills >= 1, "kills: {}", m.supervisor_kills);
    assert!(m.worker_restarts >= 1, "restarts: {}", m.worker_restarts);
    assert_eq!(m.completed, 1);
    assert_eq!(m.failed, 1);
    assert_eq!(m.in_flight, 0);
}

/// `queue_capacity` is a bound, not a hint: with the one worker pinned,
/// a class takes exactly that many jobs and refuses the next, another
/// class is not affected, and the gauges read what was accepted.
#[test]
fn a_class_accepts_exactly_queue_capacity_jobs() {
    const CAPACITY: usize = 4;
    let (gate, parked_rx, release_tx) = gate();
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        queue_capacity: CAPACITY,
        np: 4,
        // The parked worker sends no heartbeats; it is not hung.
        hang_timeout: Duration::from_secs(3600),
        machine_sink: Some(gate),
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(32, 2, 5));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    let submit = |qos| service.submit(SolveRequest::new(a.clone(), b.clone()).qos(qos));
    let mut handles = vec![submit(QosClass::Batch).unwrap()];
    parked_rx.recv().expect("the first job reaches the worker");
    assert_eq!(service.metrics().queue_depth, 0, "taken, not queued");

    for _ in 0..CAPACITY {
        handles.push(submit(QosClass::Batch).expect("within the bound"));
    }
    for _ in 0..2 {
        match submit(QosClass::Batch) {
            Err(ServiceError::Busy { queue_capacity }) => assert_eq!(queue_capacity, CAPACITY),
            other => panic!("expected Busy, got {other:?}"),
        }
    }
    handles.push(submit(QosClass::Interactive).expect("another class has room"));
    let m = service.metrics();
    assert_eq!(m.queue_depth, CAPACITY + 1);
    assert_eq!(m.class_queue_depth, [1, CAPACITY as u64, 0]);
    assert_eq!((m.accepted, m.rejected_busy), (CAPACITY as u64 + 2, 2));
    assert_eq!(m.in_flight, CAPACITY as u64 + 2);

    release_tx.send(()).expect("the worker is parked on this");
    for h in handles {
        assert!(h.wait().expect("accepted jobs solve").stats[0].converged);
    }
    // Room again once the worker has taken what was queued.
    assert!(submit(QosClass::Batch).unwrap().wait().is_ok());
    let m = service.shutdown();
    assert_eq!((m.queue_depth, m.in_flight, m.failed), (0, 0, 0));
    assert_eq!(m.completed, CAPACITY as u64 + 3);
}

/// No wake-up is lost between a submitter that pushes and a worker that
/// is deciding to park: four closed-loop submitters (each waits for its
/// answer before sending the next request, so the pool runs dry and
/// parks over and over) against one, two and four workers. A lost
/// wake-up leaves a job in the intake with every worker asleep; it shows
/// here as a handle that is not answered in time.
#[test]
fn no_wake_up_is_lost_between_submitters_and_parking_workers() {
    const SUBMITTERS: usize = 4;
    const REQUESTS: usize = 250;
    for workers in [1, 2, 4] {
        let service = SolverService::start(ServiceConfig {
            workers,
            queue_capacity: SUBMITTERS,
            np: 2,
            ..ServiceConfig::default()
        });
        std::thread::scope(|scope| {
            for t in 0..SUBMITTERS {
                let service = &service;
                scope.spawn(move || {
                    let a = Arc::new(gen::tridiagonal(12 + t, 4.0, -1.0));
                    let (b, _x) = gen::rhs_for_known_solution(&a);
                    for i in 0..REQUESTS {
                        let qos = QosClass::ALL[(t + i) % 3];
                        let handle = service
                            .submit(SolveRequest::new(a.clone(), b.clone()).qos(qos))
                            .expect("one request a submitter fits any class");
                        let answer = handle
                            .wait_timeout(Duration::from_secs(60))
                            .unwrap_or_else(|| panic!("{workers} workers: request {i} of submitter {t} was never answered"));
                        assert!(answer.expect("solves").stats[0].converged);
                    }
                });
            }
        });
        let m = service.shutdown();
        assert_eq!(m.completed, (SUBMITTERS * REQUESTS) as u64, "{workers}");
        assert_eq!((m.in_flight, m.queue_depth, m.rejected_busy), (0, 0, 0));
    }
}

/// What a response says about where its time went adds up: the wait,
/// the batch's setup and the job's own solves are consecutive, and end
/// before the `Completed` event is emitted, which is before the caller
/// has its answer. A 200-request mixed stream: recurring structures
/// under three partitioners, a tenth never seen before, bursts of 8.
#[test]
fn wait_setup_and_solve_account_for_a_requests_latency() {
    use hpf_service::{ServiceEvent, ServiceEventSink};
    use std::collections::HashMap;
    use std::time::Instant;

    let completed = Arc::new(std::sync::Mutex::new(HashMap::<u64, u64>::new()));
    let record = {
        let completed = completed.clone();
        ServiceEventSink::new(move |event| {
            if let ServiceEvent::Completed {
                trace_id,
                latency_us,
                ..
            } = event
            {
                completed.lock().unwrap().insert(*trace_id, *latency_us);
            }
        })
    };
    let service = SolverService::start(ServiceConfig {
        workers: 2,
        np: 8,
        event_sink: Some(record),
        ..ServiceConfig::default()
    });
    let pool: Vec<(Arc<hpf_sparse::CsrMatrix>, &str)> = vec![
        (Arc::new(gen::banded_spd(128, 3, 1)), "balanced-rows"),
        (Arc::new(gen::poisson_2d(12, 12)), "balanced-rows"),
        (
            Arc::new(gen::power_law_spd(160, 10, 0.9, 2)),
            "greedy-hypergraph",
        ),
        (Arc::new(gen::random_spd(96, 4, 3)), "nnz-bisect"),
    ];
    let mut built = 0;
    let mut trace = 0u64;
    for burst in 0..25u64 {
        let mut in_flight = Vec::new();
        for k in 0..8u64 {
            trace += 1;
            let (a, partitioner) = if trace.is_multiple_of(10) {
                (Arc::new(gen::random_spd(96, 4, 100 + trace)), "nnz-bisect")
            } else {
                pool[((burst * 5 + k * 3) % 4) as usize].clone()
            };
            let (b, _x) = gen::rhs_for_known_solution(&a);
            let request = SolveRequest::new(a, b)
                .partitioner(partitioner)
                .qos(QosClass::ALL[(k % 3) as usize])
                .trace(trace);
            let t0 = Instant::now();
            in_flight.push((trace, t0, service.submit(request).unwrap()));
        }
        for (trace, t0, handle) in in_flight {
            let resp = handle.wait().expect("solves");
            let latency = t0.elapsed();
            let parts = resp.wait_time + resp.setup_time + resp.solve_time;
            assert!(parts <= latency, "{trace}: {parts:?} of {latency:?}");
            let emitted_us = completed.lock().unwrap()[&trace];
            assert!(parts.as_micros() as u64 <= emitted_us, "{trace}");
            assert!(emitted_us <= latency.as_micros() as u64, "{trace}");
            built += usize::from(resp.plan_source == PlanSource::Built);
        }
    }
    assert!(built >= 4 + 20, "{built} plans built");
    service.shutdown();

    // The setup of a job that built its plan covers the build: a
    // partitioner run that takes a while, against the fastest of three
    // direct builds of the same plan.
    let slow = Arc::new(gen::power_law_spd(600, 10, 0.9, 7));
    let (b, _x) = gen::rhs_for_known_solution(&slow);
    let partitioner = hpf_partition::by_name("greedy-hypergraph").unwrap();
    let floor = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let plan = SolvePlan::build_with(&slow, 8, Topology::Hypercube, partitioner.as_ref());
            assert_eq!(plan.np, 8);
            t0.elapsed()
        })
        .min()
        .unwrap();
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 8,
        ..ServiceConfig::default()
    });
    let request = SolveRequest::new(slow, b).partitioner("greedy-hypergraph");
    let first = service.solve(request.clone()).unwrap();
    let second = service.solve(request).unwrap();
    assert_eq!(first.plan_source, PlanSource::Built);
    assert_eq!(second.plan_source, PlanSource::CacheHit);
    assert!(
        first.setup_time >= floor / 2,
        "setup {:?} does not cover a build of {floor:?}",
        first.setup_time
    );
    assert!(second.setup_time < first.setup_time);
}

/// One structure, two sets of values, alternating through one service:
/// the plan is shared, the operator is not. Every answer solves *its
/// own* matrix, to the bits a service that has seen nothing else gives.
#[test]
fn alternating_values_on_one_structure_each_get_their_own_operator() {
    let a = Arc::new(gen::power_law_spd(96, 12, 0.9, 21));
    let mut half = (*a).clone();
    half.scale(0.5);
    let half = Arc::new(half);
    let (b, _x) = gen::rhs_for_known_solution(&a);
    let request = |m: &Arc<hpf_sparse::CsrMatrix>| {
        SolveRequest::new(m.clone(), b.clone()).stop(StopCriterion::RelativeResidual(1e-10))
    };
    let fresh = |m: &Arc<hpf_sparse::CsrMatrix>| {
        let service = SolverService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        service.solve(request(m)).unwrap().solutions.remove(0)
    };
    let expected = [fresh(&a), fresh(&half)];
    assert_ne!(expected[0], expected[1]);

    let service = SolverService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let matrices = [&a, &half];
    // Two at a time, so that both instances are in flight together, and
    // one by one, so that each finds the other's operator kept.
    let mut answers = Vec::new();
    for round in 0..5 {
        let pair: Vec<_> = (0..2)
            .map(|k| {
                (
                    (round + k) % 2,
                    service.submit(request(matrices[(round + k) % 2])).unwrap(),
                )
            })
            .collect();
        answers.extend(
            pair.into_iter()
                .map(|(which, h)| (which, h.wait().unwrap())),
        );
        for k in 0..2 {
            let which = (round + k) % 2;
            answers.push((which, service.solve(request(matrices[which])).unwrap()));
        }
    }
    assert_eq!(answers.len(), 20);
    for (i, (which, resp)) in answers.iter().enumerate() {
        assert!(
            residual_ok(matrices[*which], &resp.solutions[0], &b, 1e-8),
            "answer {i} does not solve its own matrix"
        );
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&resp.solutions[0]),
            bits(&expected[*which]),
            "answer {i}"
        );
    }
    let m = service.shutdown();
    assert_eq!((m.completed, m.partitioner_invocations), (20, 1));
}

/// Satellite property: `shutdown` racing a full queue yields exactly
/// one terminal response per accepted job. `wait` consuming the
/// one-shot responder makes "at most once" structural; what this
/// exercises is "at least once" — nothing hangs, nothing is dropped —
/// plus a balanced completed/failed ledger, across class mixes,
/// deadlines, and batching on/off.
#[test]
fn shutdown_with_full_queue_answers_every_accepted_job_exactly_once() {
    for round in 0..3u64 {
        let service = SolverService::start(ServiceConfig {
            workers: 2,
            queue_capacity: 4,
            np: 4,
            batching_enabled: round % 2 == 0,
            ..ServiceConfig::default()
        });
        let mats: Vec<Arc<hpf_sparse::CsrMatrix>> = (0..3)
            .map(|s| Arc::new(gen::power_law_spd(160, 12, 0.9, 40 + round * 3 + s)))
            .collect();
        let mut state = round.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut handles = Vec::new();
        let mut overflowed = 0u64;
        for _ in 0..60 {
            let a = &mats[(next() % 3) as usize];
            let (b, _x) = gen::rhs_for_known_solution(a);
            let mut req = SolveRequest::new(a.clone(), b).qos(QosClass::ALL[(next() % 3) as usize]);
            if next() % 4 == 0 {
                // Some deadlines are generous, some already hopeless.
                req = req.deadline(if next() % 2 == 0 {
                    Duration::from_secs(600)
                } else {
                    Duration::from_nanos(1)
                });
            }
            match service.submit(req) {
                Ok(h) => handles.push(h),
                Err(ServiceError::Busy { .. }) => overflowed += 1,
                // Once calibrated, the hopeless deadlines are refused
                // up front; they get no handle and owe no response.
                Err(ServiceError::Shed { .. }) => {}
                Err(e) => panic!("round {round}: unexpected submit error: {e}"),
            }
        }
        assert!(overflowed >= 1, "round {round}: the queue never filled");
        let accepted = handles.len() as u64;

        // Shut down while the class queues are still loaded.
        let m = service.shutdown();

        let mut terminal = 0u64;
        for h in handles {
            match h.wait() {
                Ok(resp) => {
                    assert!(resp.stats.iter().all(|s| s.converged));
                    terminal += 1;
                }
                Err(ServiceError::Shutdown) | Err(ServiceError::DeadlineExceeded { .. }) => {
                    terminal += 1;
                }
                Err(e) => panic!("round {round}: unexpected terminal error: {e}"),
            }
        }
        assert_eq!(terminal, accepted, "round {round}");
        assert_eq!(m.accepted, accepted, "round {round}");
        assert_eq!(m.completed + m.failed, accepted, "round {round}");
        assert_eq!(m.in_flight, 0, "round {round}");
    }
}

/// The fixed requests whose `SolveResponse.trace` is pinned: protected CG
/// (the service default) clean, the same under a seeded crash the
/// protected solver rolls back from, and a 3-level multigrid solve
/// (whose `Redistribute` rows split per level).
fn pinned_requests() -> Vec<(&'static str, SolveRequest)> {
    let a = Arc::new(gen::power_law_spd(96, 12, 0.9, 21));
    let (b, _) = gen::rhs_for_known_solution(&a);
    let dims = hpf_mg::GridDims::d2(15, 15);
    vec![
        ("cg-clean", SolveRequest::new(a.clone(), b.clone())),
        (
            "cg-crash",
            SolveRequest::new(a, b).fault_plan(hpf_machine::FaultPlan::new().with_crash(25, 3)),
        ),
        (
            "pcg-mg",
            SolveRequest::hpcg(dims, 3, vec![1.0; dims.n()])
                .stop(StopCriterion::RelativeResidual(1e-8)),
        ),
    ]
}

/// One line per field of a response's trace summary, floats as the hex
/// of their bits.
fn render_trace(name: &str, resp: &hpf_service::SolveResponse) -> String {
    let t = &resp.trace;
    let mut out = format!(
        "[{name}] events={} total={:016x} comm={:016x} compute={:016x} words={}\n",
        t.events,
        t.total_time.to_bits(),
        t.comm_time.to_bits(),
        t.compute_time.to_bits(),
        t.total_comm_words
    );
    for row in &t.by_label {
        out.push_str(&format!(
            "  {} | count={} words={} flops={} time={:016x}\n",
            row.label,
            row.count,
            row.words,
            row.flops,
            row.time.to_bits()
        ));
    }
    out
}

/// `SolveResponse.trace` is built from the worker machine's running
/// digest; before that it was computed from the full event trace after
/// the solve. `fixtures/response_trace.txt` is this function's output on
/// commit `6e44fe0`, the last one that kept the trace.
fn pinned_traces() -> String {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 8,
        ..ServiceConfig::default()
    });
    let mut out = String::new();
    for (name, request) in pinned_requests() {
        let resp = service.solve(request).expect("pinned request solves");
        assert_eq!(resp.attempts, 1, "{name}");
        out.push_str(&render_trace(name, &resp));
    }
    service.shutdown();
    out
}

#[test]
fn response_trace_is_what_the_full_trace_summarised_to() {
    let expected = include_str!("fixtures/response_trace.txt");
    let got = pinned_traces();
    assert!(got == expected, "recomputed:\n{got}\nexpected:\n{expected}");
}
