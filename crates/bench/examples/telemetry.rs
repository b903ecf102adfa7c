//! Telemetry-pipeline entry point: `cargo run --release -p hpf-bench
//! --example telemetry -- [REQUESTS]`.
//!
//! Drives the E29 live-telemetry soak: a closed-loop overhead trial
//! (bus off vs on), then a chaos soak streamed through the event bus
//! into the SLO tracker and span profiler, with a scripted overload
//! that must walk the interactive alert through pending -> firing ->
//! resolved. The run asserts the bus's cost rules (bus-on time per
//! request no worse than the committed baseline's, at most 1.5 us per
//! published event), the alert lifecycle timing, and that matvec tops
//! the span profile, and records `BENCH_29.json` under
//! `HPF_BENCH_DIR`, so a non-zero exit means a rule or the regression
//! gate was breached.
//!
//! The acceptance run is `REQUESTS = 600` (the default); CI smoke may
//! shrink it via `HPF_E29_REQUESTS`.

use hpf_bench::experiments::{telemetry_exp, Knobs};

fn main() {
    let knobs = Knobs::from_env();
    let requests = std::env::args()
        .nth(1)
        .map(|v| v.parse().expect("REQUESTS must be a positive integer"))
        .unwrap_or(knobs.e29_requests);
    let table = telemetry_exp::e29_with_gate(requests, &knobs.gate(29));
    println!("{}", table.render());
}
