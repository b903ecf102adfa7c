//! Flight-recorder entry point: `cargo run --release -p hpf-bench
//! --example rca -- [REQUESTS]`.
//!
//! Drives the E30 flight-recorder sweep: a clean closed-loop overhead
//! trial (recorder off vs on), then a seeded chaos sweep (stall /
//! crash / bit-flip storm, retries disabled) whose terminal bad
//! outcomes must each produce exactly one post-mortem whose top-ranked
//! root cause names the injected fault class on >= 90% of jobs. The
//! run asserts the recorder's cost rules (recorder-on time per request
//! no worse than the committed baseline's, at most 150 ns per ringed
//! event), attribution accuracy, and dump exactness, writes
//! `e30_postmortems.json` / `e30_postmortem.json` / `e30_trace.jsonl`
//! next to `BENCH_30.json` under `HPF_BENCH_DIR`, so a non-zero exit
//! means a rule or the regression gate was breached.
//!
//! The acceptance run is `REQUESTS = 600` (the default); CI smoke may
//! shrink it via `HPF_E30_REQUESTS`.

use hpf_bench::experiments::{rca_exp, Knobs};

fn main() {
    let knobs = Knobs::from_env();
    let requests = std::env::args()
        .nth(1)
        .map(|v| v.parse().expect("REQUESTS must be a positive integer"))
        .unwrap_or(knobs.e30_requests);
    let table = rca_exp::e30_with_gate(requests, &knobs.gate(30));
    println!("{}", table.render());
}
