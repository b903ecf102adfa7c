//! One module per experiment family; every public function returns a
//! [`crate::table::Table`] reproducing a figure or in-text claim of the
//! paper (see DESIGN.md's experiment index).

pub mod balance_exp;
pub mod comparison_exp;
pub mod drift_exp;
pub mod extended_exp;
pub mod extensions_exp;
pub mod fault_exp;
pub mod matvec_exp;
pub mod mg_exp;
pub mod obs_exp;
pub mod partition_exp;
pub mod rca_exp;
pub mod service_exp;
pub mod soak_exp;
pub mod solvers_exp;
pub mod telemetry_exp;
pub mod vector_ops;

mod harness;

use crate::table::Table;
use hpf_obs::RegressionGate;
use std::path::PathBuf;

/// Every decision the environment makes about a run, read once, by
/// [`Knobs::from_env`]: [`run_all`] and [`run_one`] hand it to each
/// experiment they run, and `crates/bench/examples` read it too. An
/// `eNN_with_gate` is given its gate and directories, so no experiment
/// reads the environment, and tests, which pass their own, cannot see
/// one another's.
pub struct Knobs {
    /// `HPF_BENCH_DIR`, else `.` (the repository root under `cargo run`):
    /// every gate's `BENCH_<n>.json` and `bench-history.jsonl`, and the
    /// artifacts of E29 and E30.
    pub bench_dir: PathBuf,
    /// `HPF_OBS_DIR`: one artifact per sweep point of E25, E26 and E28.
    pub obs_dir: Option<PathBuf>,
    /// `HPF_E28_SMOKE=1`: E28 sweeps the 2-D family at NP = 4 only.
    pub e28_smoke: bool,
    /// `HPF_SOAK_REQUESTS`, else the CI smoke's 5000 (acceptance: 100000).
    pub soak_requests: usize,
    /// `HPF_E29_REQUESTS` and `HPF_E30_REQUESTS`, else 600 each: the
    /// closed-loop requests of an overhead rep (full scale at >= 300).
    pub e29_requests: usize,
    pub e30_requests: usize,
}

impl Knobs {
    pub fn from_env() -> Knobs {
        let var = |name: &str| std::env::var(name).ok();
        let count = |name: &str, default| var(name).and_then(|v| v.parse().ok()).unwrap_or(default);
        Knobs {
            bench_dir: var("HPF_BENCH_DIR").unwrap_or_else(|| ".".into()).into(),
            obs_dir: var("HPF_OBS_DIR").map(PathBuf::from),
            e28_smoke: var("HPF_E28_SMOKE").is_some_and(|v| v == "1"),
            soak_requests: count("HPF_SOAK_REQUESTS", 5_000),
            e29_requests: count("HPF_E29_REQUESTS", 600),
            e30_requests: count("HPF_E30_REQUESTS", 600),
        }
    }

    /// E`bench`'s regression gate in [`Knobs::bench_dir`]. A series may
    /// grow 10% on the simulated clock (E25, E26, E28); 50% for E27's
    /// rates under a wall-clock-paced load; 150% for E29's hysteresis
    /// delays and E30's wall-clock ratio and supervisor-timed chaos
    /// series, measured on whatever hardware runs them.
    pub fn gate(&self, bench: u32) -> RegressionGate {
        let tolerance = match bench {
            27 => 50.0,
            29 | 30 => 150.0,
            _ => 10.0,
        };
        RegressionGate::new(&self.bench_dir).with_tolerance(tolerance)
    }
}

/// One row of the experiment index: `E<number>`, the word `report`
/// also accepts for it, and the run at its default (report-sized)
/// parameters.
pub struct Experiment {
    pub number: u32,
    pub alias: Option<&'static str>,
    pub run: fn(&Knobs) -> Table,
}

const fn exp(number: u32, alias: Option<&'static str>, run: fn(&Knobs) -> Table) -> Experiment {
    Experiment { number, alias, run }
}

/// Every experiment, in index order: what [`run_all`] runs, what
/// [`run_one`] resolves ids against, and what `report` names in its
/// usage message.
pub static REGISTRY: [Experiment; 30] = [
    exp(1, None, |_| solvers_exp::e01_cg_figure2(16, 16, 8)),
    exp(2, None, |_| vector_ops::e02_saxpy_scaling(1 << 16)),
    exp(3, None, |_| vector_ops::e03_dot_merge(1 << 14)),
    exp(4, None, |_| matvec_exp::e04_scenario1(1024, 6)),
    exp(5, None, |_| matvec_exp::e05_scenario2(1024, 6)),
    exp(6, None, |_| extensions_exp::e06_private_merge(1024, 6)),
    exp(7, None, |_| extensions_exp::e07_bernstein(128)),
    exp(8, None, |_| extensions_exp::e08_inspector(1024, 100)),
    exp(9, None, |_| extensions_exp::e09_atom_distribution(512, 6)),
    exp(10, None, |_| balance_exp::e10_load_balance(1024, 128, 0.9)),
    exp(11, None, |_| solvers_exp::e11_ne_convergence(32)),
    exp(12, None, |_| solvers_exp::e12_solver_family(144)),
    exp(13, None, |_| comparison_exp::e13_hpf_vs_spmd(256, 5, 8)),
    exp(14, None, |_| solvers_exp::e14_preconditioning(10, 10)),
    exp(15, None, |_| comparison_exp::e15_storage_formats()),
    exp(16, None, |_| extended_exp::e16_checkerboard(1024)),
    exp(17, None, |_| extended_exp::e17_transpose_asymmetry(512, 8)),
    exp(18, None, |_| extended_exp::e18_cost_sensitivity(48, 48)),
    exp(19, None, |_| extended_exp::e19_gmres_and_cgs(10)),
    exp(20, None, |_| extended_exp::e20_condition_bound()),
    exp(21, None, |_| {
        extended_exp::e21_redistribute_amortisation(1024, 128, 8)
    }),
    exp(22, None, |_| {
        service_exp::e22_service_throughput(256, 40, 8)
    }),
    exp(23, None, |_| fault_exp::e23_fault_sweep(96, 4, 5)),
    exp(24, None, |_| {
        obs_exp::e24_observability_overhead(10_000, 8, 3)
    }),
    exp(25, None, |k| {
        drift_exp::e25_with_gate(1024, 8, &k.gate(25), k.obs_dir.as_deref())
    }),
    exp(26, None, |k| {
        partition_exp::e26_with_gate(512, &k.gate(26), k.obs_dir.as_deref())
    }),
    exp(27, Some("soak"), |k| {
        soak_exp::e27_with_gate(k.soak_requests, &k.gate(27))
    }),
    exp(28, Some("hpcg"), |k| {
        mg_exp::e28_with_gate(k.e28_smoke, &k.gate(28), k.obs_dir.as_deref())
    }),
    exp(29, Some("telemetry"), |k| {
        telemetry_exp::e29_with_gate(k.e29_requests, &k.gate(29))
    }),
    exp(30, Some("rca"), |k| {
        rca_exp::e30_with_gate(k.e30_requests, &k.gate(30))
    }),
];

/// The experiment a lowercase id names: `"e1"`, `"e01"`, `"1"` ...
/// `"e30"`, or an alias (`"soak"` for the E27 chaos soak, `"hpcg"` for
/// the E28 MG sweep, `"telemetry"` for the E29 pipeline, `"rca"` for the
/// E30 flight-recorder sweep).
pub fn resolve(id: &str) -> Option<&'static Experiment> {
    let norm = id.trim_start_matches('e').trim_start_matches('0');
    REGISTRY
        .iter()
        .find(|e| e.alias == Some(norm) || e.number.to_string() == norm)
}

/// Run every experiment, in index order.
pub fn run_all() -> Vec<Table> {
    let knobs = Knobs::from_env();
    REGISTRY.iter().map(|e| (e.run)(&knobs)).collect()
}

/// Run the experiment [`resolve`] finds for `id`.
pub fn run_one(id: &str) -> Option<Table> {
    resolve(id).map(|e| (e.run)(&Knobs::from_env()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolution only: every experiment has its own test, and running
    /// them here would run each a second time, gated in the working
    /// directory.
    #[test]
    fn run_one_resolves_ids() {
        let number = |id: &str| resolve(id).map(|e| e.number);
        for (i, e) in REGISTRY.iter().enumerate() {
            assert_eq!(e.number as usize, i + 1);
            assert_eq!(number(&format!("e{}", e.number)), Some(e.number));
            assert_eq!(number(&format!("e{:02}", e.number)), Some(e.number));
            assert_eq!(number(&e.number.to_string()), Some(e.number));
        }
        let aliases = [("soak", 27), ("hpcg", 28), ("telemetry", 29), ("rca", 30)];
        for (alias, n) in aliases {
            assert_eq!(number(alias), Some(n));
        }
        for unknown in ["e31", "e0", "e", "", "nope", "+1", "e1x"] {
            assert_eq!(number(unknown), None, "{unknown:?}");
        }
    }
}
