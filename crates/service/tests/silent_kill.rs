//! A supervisor kill is an expected, typed end of a job, not a panic: it
//! reaches the worker's catch site without running the process's panic
//! hook, so it prints no "panicked at" line and captures no backtrace.
//!
//! The panic hook is process-wide, so this test has a binary of its own.

use hpf_service::{ServiceConfig, ServiceError, SolveRequest, SolverService};
use hpf_sparse::gen;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Panic-hook calls made on a service worker thread.
static WORKER_HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn a_supervisor_kill_runs_no_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let thread = std::thread::current();
        if thread
            .name()
            .is_some_and(|name| name.starts_with("hpf-service-worker-"))
        {
            WORKER_HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
        }
        default_hook(info);
    }));

    let service = SolverService::start(ServiceConfig {
        workers: 1,
        np: 4,
        hang_timeout: Duration::from_millis(100),
        breaker_threshold: 10,
        ..ServiceConfig::default()
    });
    let a = Arc::new(gen::banded_spd(64, 3, 7));
    let (b, _x) = gen::rhs_for_known_solution(&a);
    // A 600 ms stall on processor 0, six times the hang timeout.
    let plan = hpf_machine::FaultPlan::new().with_stall(30, 0, 600);
    let stalled = service
        .submit(SolveRequest::new(a.clone(), b.clone()).fault_plan(plan))
        .unwrap();
    match stalled.wait() {
        Err(ServiceError::WorkerKilled { .. }) => {}
        other => panic!("expected WorkerKilled, got {other:?}"),
    }
    // The worker that was handed the kill answers the next job.
    assert!(service.solve(SolveRequest::new(a, b)).is_ok());
    let m = service.shutdown();
    assert_eq!(m.supervisor_kills, 1);

    assert_eq!(
        WORKER_HOOK_CALLS.load(Ordering::SeqCst),
        0,
        "a supervisor kill went through the panic hook"
    );
}
