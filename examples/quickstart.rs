//! Quickstart: the paper's Figure 2 CG program, end to end.
//!
//! Builds a 2-D Poisson system, distributes it row-wise over a simulated
//! 8-processor hypercube (`!HPF$ DISTRIBUTE p(BLOCK)` + `ALIGN`), runs
//! distributed CG, and prints the solve statistics plus the
//! communication the HPF layout induced.
//!
//! Set `HPF_OBS_DIR` to also write the run's observability artifacts
//! (event trace JSONL + convergence CSV) for `trace-report`:
//!
//! ```text
//! cargo run --release --example quickstart
//! HPF_OBS_DIR=target/obs-quickstart cargo run --release --example quickstart
//! ```

use hpf::prelude::*;
use hpf::sparse::gen;

fn main() {
    // The application matrix: 32x32 grid Poisson problem (n = 1024).
    let a = gen::poisson_2d(32, 32);
    let n = a.n_rows();
    let (x_true, b) = gen::rhs_for_known_solution(&a);
    println!("system: n = {}, nnz = {}", n, a.nnz());

    // PROCESSORS PROCS(8); hypercube network, mid-90s MPP cost model.
    let np = 8;
    let mut machine = Machine::hypercube(np);
    machine.set_tracing(true);

    // ALIGN A(:,*) WITH p(:); DISTRIBUTE p(BLOCK)  — Scenario 1 layout.
    let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);

    let mut log = ConvergenceLog::new();
    let stop = StopCriterion::RelativeResidual(1e-10);
    let Solution { x, stats, .. } =
        solve(&mut machine, &op, &b, Krylov::cg(), stop, 10 * n, &mut log)
            .expect("SPD system must not break down");

    println!("converged:     {}", stats.converged);
    println!("iterations:    {}", stats.iterations);
    println!("residual:      {:.3e}", stats.residual_norm);
    println!(
        "ops:           {} matvecs, {} dots, {} saxpys",
        stats.matvecs, stats.dots, stats.axpys
    );

    // Verify against the known solution.
    let err = x
        .to_global()
        .iter()
        .zip(x_true.iter())
        .map(|(u, v)| (u - v).abs())
        .fold(0.0f64, f64::max);
    println!("max |x - x*|:  {err:.3e}");
    assert!(err < 1e-6, "solution must match the manufactured truth");

    // What the HPF program cost on the simulated machine.
    println!("\nsimulated machine ({} procs, hypercube):", np);
    println!("  elapsed:        {:.2} ms", machine.elapsed() * 1e3);
    println!(
        "  comm fraction:  {:.1}%",
        100.0 * machine.trace().comm_time() / machine.elapsed()
    );
    println!(
        "  events: {} allgathers (matvec broadcasts), {} allreduces (dot merges)",
        machine.trace().count(hpf::machine::EventKind::AllGather),
        machine.trace().count(hpf::machine::EventKind::AllReduce),
    );
    println!("  total flops:    {}", machine.total_flops());
    println!("  words sent:     {}", machine.total_words_sent());

    // Per-iteration telemetry came along for free.
    assert_eq!(log.samples.len(), stats.iterations);
    let first = &log.samples[0];
    let last = log.samples.last().unwrap();
    println!(
        "\ntelemetry: {} samples, residual {:.3e} -> {:.3e}, \
         {} comm bytes/iter (iter 1)",
        log.samples.len(),
        first.residual_norm,
        last.residual_norm,
        first.comm_bytes()
    );

    // Drop the artifacts for trace-report when asked to.
    if let Ok(dir) = std::env::var("HPF_OBS_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create obs dir");
        std::fs::write(dir.join("trace.jsonl"), machine.trace().to_jsonl()).expect("write trace");
        std::fs::write(dir.join("convergence.csv"), log.to_csv()).expect("write convergence");
        println!(
            "wrote {0}/trace.jsonl and {0}/convergence.csv",
            dir.display()
        );
    }
}
