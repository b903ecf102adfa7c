//! Demo: run the solver service against a mixed workload.
//!
//! Submits a burst of solves over three matrix structures (so the plan
//! cache sees repeats), mixes solver kinds and multi-RHS jobs, trips a
//! deadline on purpose, and finishes by printing the JSON metrics
//! snapshot. Used by CI as the service smoke test:
//!
//! ```sh
//! cargo run -p hpf-service --example serve
//! ```

use hpf_service::{ServiceConfig, ServiceError, SolveRequest, SolverKind, SolverService};
use hpf_sparse::gen;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        np: 8,
        ..ServiceConfig::default()
    };
    println!(
        "serving on a simulated {}-processor {:?} machine ({} workers, queue {})",
        config.np,
        hpf_service::request::TOPOLOGY,
        config.workers,
        config.queue_capacity
    );
    let service = SolverService::start(config);

    // Three structures; the banded one is submitted 16x to exercise the
    // plan cache and batcher.
    let banded = Arc::new(gen::banded_spd(96, 3, 7));
    let power = Arc::new(gen::power_law_spd(128, 16, 0.9, 11));
    let grid = Arc::new(gen::poisson_2d(12, 12));

    let mut handles = Vec::new();
    let (b_banded, _) = gen::rhs_for_known_solution(&banded);
    for _ in 0..16 {
        handles.push(
            service
                .submit(SolveRequest::new(banded.clone(), b_banded.clone()))
                .expect("queue has room"),
        );
    }
    let (b_power, _) = gen::rhs_for_known_solution(&power);
    handles.push(
        service
            .submit(SolveRequest::new(power.clone(), b_power).solver(SolverKind::PcgJacobi))
            .expect("queue has room"),
    );
    let rhs_set: Vec<Vec<f64>> = (0..3)
        .map(|k| (0..144).map(|i| ((i + 13 * k) % 9) as f64).collect())
        .collect();
    handles.push(
        service
            .submit(SolveRequest::with_rhs_set(grid.clone(), rhs_set).solver(SolverKind::Bicgstab))
            .expect("queue has room"),
    );

    // A deadline that has already passed: the service sheds it with a
    // typed error instead of wasting a worker on it.
    let doomed = service
        .submit(
            SolveRequest::new(banded.clone(), b_banded.clone()).deadline(Duration::from_nanos(1)),
        )
        .expect("queue has room");

    for h in handles {
        match h.wait() {
            Ok(resp) => println!(
                "job {:>2}: {} rhs, {:>3} iters, plan {:?} (imbalance {:.3}), \
                 batched with {}, {} trace events, sim time {:.2e}",
                resp.job_id,
                resp.solutions.len(),
                resp.stats[0].iterations,
                resp.plan_source,
                resp.plan_imbalance,
                resp.batched_with,
                resp.trace.events,
                resp.trace.total_time,
            ),
            Err(e) => println!("job failed: {e}"),
        }
    }
    match doomed.wait() {
        Err(ServiceError::DeadlineExceeded { waited }) => {
            println!("doomed job correctly shed after {waited:?} in queue");
        }
        other => println!("doomed job unexpectedly returned {other:?}"),
    }

    let snapshot = service.shutdown();
    assert_eq!(snapshot.in_flight, 0, "service drained before shutdown");
    println!("\nmetrics: {}", snapshot.to_json());
}
