//! # hpf-bench — experiment harness
//!
//! Regenerates every figure and quantitative in-text claim of the paper
//! as a text [`table::Table`] (see DESIGN.md's experiment index E1–E30).
//! Run the report binary:
//!
//! ```text
//! cargo run -p hpf-bench --bin report --release -- e4 e6  # a subset
//! ```
//!
//! E25–E30 are gated against `BENCH_25–30.json` in `HPF_BENCH_DIR` and
//! rewrite them. It defaults to the working directory, which at the
//! repository root holds the committed records: point it at a scratch
//! copy unless a run is meant to re-record them ([`experiments::Knobs`]).

pub mod experiments;
pub mod table;

pub use table::Table;
