//! Chaos-soak entry point: `cargo run --release -p hpf-bench --example
//! soak -- [REQUESTS]`.
//!
//! Drives the E27 open-loop mixed-QoS load (faults on) against a live
//! `SolverService` and prints the per-class table. The run asserts the
//! robustness bands itself (zero lost jobs, interactive p99, justified
//! sheds) and records `BENCH_27.json` under `HPF_BENCH_DIR`, so a
//! non-zero exit means a band or the regression gate was breached.
//!
//! The acceptance soak is `REQUESTS = 100000`; the default (also used
//! by the CI smoke) comes from `HPF_SOAK_REQUESTS`, else 5000.

use hpf_bench::experiments::{soak_exp, Knobs};

fn main() {
    let knobs = Knobs::from_env();
    let requests = std::env::args()
        .nth(1)
        .map(|v| v.parse().expect("REQUESTS must be a positive integer"))
        .unwrap_or(knobs.soak_requests);
    let table = soak_exp::e27_with_gate(requests, &knobs.gate(27));
    println!("{}", table.render());
}
