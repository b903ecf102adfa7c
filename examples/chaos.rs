//! Chaos drill: deterministic fault injection against the CG stack, at
//! every layer.
//!
//! 1. **Machine** — a seeded [`FaultPlan`] flips reduction bits, drops
//!    messages, slows a processor, and crashes one node, all keyed to
//!    the machine's op counter so the run replays identically.
//! 2. **Solver** — plain CG is corrupted by the plan; protected CG
//!    detects, rolls back to a checkpoint, and still converges.
//! 3. **Service** — a breakdown-prone job is healed by the retry /
//!    escalation chain, and the metrics counters record the whole story.
//!
//! The protected solve runs under full telemetry, and the run's
//! observability artifacts (event trace JSONL, convergence CSV, service
//! metrics JSON) land in `$HPF_OBS_DIR` (default `target/obs`) for
//! `trace-report` to analyse.
//!
//! ```text
//! cargo run --release --example chaos
//! cargo run --release -p hpf-bench --bin trace-report -- \
//!     --trace target/obs/trace.jsonl --metrics target/obs/metrics.json \
//!     --format summary --format perfetto --format prom
//! ```

use hpf::machine::{EventKind, FaultPlan, FaultRates};
use hpf::prelude::*;
use hpf::sparse::gen;
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let np = 4;
    let a = gen::banded_spd(256, 3, 11);
    let n = a.n_rows();
    let (_x_true, b) = gen::rhs_for_known_solution(&a);
    let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
    let stop = StopCriterion::RelativeResidual(1e-9);
    println!("system: n = {n}, nnz = {}, NP = {np}\n", a.nnz());

    // --- 1. a seeded fault plan: pure data, perfectly replayable -----
    let plan = FaultPlan::random(42, np, 200, FaultRates::default()).with_crash(30, 2);
    println!(
        "fault plan (seed 42 + crash): {} faults scheduled",
        plan.len()
    );
    for f in plan.faults().iter().take(6) {
        println!("  op {:>3}  proc {}  {}", f.op, f.proc, f.kind.name());
    }
    if plan.len() > 6 {
        println!("  ... and {} more", plan.len() - 6);
    }

    // --- 2. plain CG vs protected CG under the same plan -------------
    let mut m = Machine::hypercube(np);
    m.set_fault_plan(plan.clone());
    match cg_distributed(&mut m, &op, &b, stop, 50 * n) {
        Ok((_, s)) if s.converged => println!("\nplain CG: converged (got lucky this seed)"),
        Ok((_, s)) => println!(
            "\nplain CG: stalled at residual {:.3e} without converging",
            s.residual_norm
        ),
        Err(e) => println!("\nplain CG: failed — {e}"),
    }

    let mut m = Machine::hypercube(np);
    m.set_tracing(true);
    m.set_fault_plan(plan.clone());
    let config = RecoveryConfig {
        max_rollbacks: 4 * plan.len().max(4),
    };
    let mut log = RecordingObserver::new();
    let method = Krylov::Cg {
        precond: None,
        recovery: Some(config),
    };
    let solved = solve(&mut m, &op, &b, method, stop, 50 * n, &mut log)
        .expect("protected CG must ride out the plan");
    let (x, stats) = (solved.x, solved.stats);
    let rec = solved
        .recovery
        .expect("a protected solve reports its recovery");
    assert!(stats.converged, "protected CG must converge");
    assert!(
        log.samples.len() >= stats.iterations,
        "telemetry must cover every iteration (replays included)"
    );
    println!(
        "protected CG: converged in {} iterations, residual {:.3e}",
        stats.iterations, stats.residual_norm
    );
    println!(
        "  injected {} faults ({} in trace), detected {}, rollbacks {}, \
         checkpoints {}, residual replacements {}",
        m.faults_injected(),
        m.trace().count(EventKind::Fault),
        rec.faults_detected,
        rec.rollbacks,
        rec.checkpoints,
        rec.residual_replacements,
    );
    let ax = a.matvec(&x.to_global()).unwrap();
    let res: f64 = ax
        .iter()
        .zip(&b)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    println!("  true relative residual: {:.3e}", res / bn);
    assert!(res / bn < 1e-8, "recovered solution must be genuine");

    // --- 3. the service heals a breakdown via escalation -------------
    let service = SolverService::start(ServiceConfig {
        workers: 2,
        np,
        ..ServiceConfig::default()
    });

    // An indefinite system CG cannot solve (p·Ap = 0 on step one).
    let coo = hpf::sparse::CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
    let hostile = Arc::new(hpf::sparse::CsrMatrix::from_coo(&coo));
    let resp = service
        .solve(SolveRequest::new(hostile, vec![1.0, 0.0]))
        .expect("escalation chain must answer the job");
    println!(
        "\nservice: CG breakdown healed by {} after {} attempts",
        resp.solver_used.name(),
        resp.attempts
    );

    // A faulty-but-SPD job: the protected solver absorbs the plan.
    let chaos_job = SolveRequest::new(Arc::new(a.clone()), b.clone()).fault_plan(
        FaultPlan::new()
            .with_crash(25, 1)
            .with_bit_flip(70, 2, 61, 3),
    );
    let resp = service.solve(chaos_job).expect("protected solve succeeds");
    let rec = resp.recovery.expect("recovery stats reported");
    println!(
        "service: fault-plan job recovered (detected {}, rollbacks {})",
        rec.faults_detected, rec.rollbacks
    );

    let metrics = service.shutdown();
    println!("\nservice metrics: {}", metrics.to_json());
    assert!(metrics.retries >= 1);
    assert!(metrics.escalations >= 1);
    assert!(metrics.faults_injected >= 1);

    // --- 4. leave the observability artifacts behind -----------------
    let dir = std::env::var("HPF_OBS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/obs"));
    std::fs::create_dir_all(&dir).expect("create obs dir");
    let rollback_marks = log.rollbacks.len();
    let samples = log.samples.len();
    std::fs::write(dir.join("trace.jsonl"), m.trace().to_jsonl()).expect("write trace");
    std::fs::write(
        dir.join("convergence.csv"),
        hpf::obs::telemetry::to_csv(&log.samples),
    )
    .expect("write convergence");
    std::fs::write(dir.join("metrics.json"), metrics.to_json()).expect("write metrics");
    println!(
        "\nobservability: {} events, {samples} iteration samples, {rollback_marks} rollback marks",
        m.trace().len()
    );
    println!(
        "  wrote {0}/trace.jsonl, {0}/convergence.csv, {0}/metrics.json",
        dir.display()
    );
    println!(
        "  inspect with: trace-report --trace {}/trace.jsonl --format summary",
        dir.display()
    );
    println!("\nchaos drill complete: every fault detected, every job answered.");
}
