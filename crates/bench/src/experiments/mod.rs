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

use crate::table::Table;
use hpf_obs::RegressionGate;

/// What a tap (E29's event bus, E30's flight recorder) costs a clean
/// closed-loop workload, from the best wall time of alternating reps
/// with the tap off and on, stated with both denominators: wall time
/// per request on either side, and the difference spread over the
/// events the tap handled. The on/off ratio is kept for the record; it
/// stopped being the rule when the off side stopped building events.
pub(crate) struct TapCost {
    pub best_off_s: f64,
    pub best_on_s: f64,
    pub events: u64,
    pub on_us_per_request: f64,
    pub off_us_per_request: f64,
    pub ns_per_event: f64,
    pub ratio: f64,
}

impl TapCost {
    /// Reps a side: nine at full scale, because the rules judge a
    /// difference of two minima, which needs each side to have met the
    /// host at its fastest, and on a shared host single reps of
    /// unchanged code spread ±10%; three at smoke scale.
    pub fn reps(full_scale: bool) -> usize {
        if full_scale {
            9
        } else {
            3
        }
    }

    pub fn new(best_off_s: f64, best_on_s: f64, requests: usize, events: u64) -> Self {
        TapCost {
            best_off_s,
            best_on_s,
            events,
            on_us_per_request: 1e6 * best_on_s / requests as f64,
            off_us_per_request: 1e6 * best_off_s / requests as f64,
            ns_per_event: 1e9 * (best_on_s - best_off_s) / events.max(1) as f64,
            ratio: best_on_s / best_off_s.max(1e-9),
        }
    }

    pub fn overhead_pct(&self) -> f64 {
        100.0 * (self.ratio - 1.0)
    }

    /// The full-scale rules: tap-on time per request no worse than the
    /// committed baseline's `on_series` (beyond the 25% that best-of-9
    /// wall times spread on a shared host), and at most `budget_ns` per
    /// event.
    pub fn assert_within(
        &self,
        what: &str,
        gate: &RegressionGate,
        bench: u32,
        on_series: &str,
        budget_ns: f64,
    ) {
        let committed = gate
            .baseline(bench)
            .unwrap_or_else(|e| panic!("E{bench} baseline: {e}"))
            .and_then(|b| b.get(on_series));
        if let Some(committed) = committed {
            assert!(
                self.on_us_per_request <= committed * 1.25,
                "{what}-on time per request {:.0} us is worse than the committed \
                 baseline's {committed:.0} us",
                self.on_us_per_request
            );
        }
        assert!(
            self.ns_per_event <= budget_ns,
            "the {what} costs {:.0} ns per event, over the {budget_ns} ns budget \
             (off {:.3}s, on {:.3}s, {} events)",
            self.ns_per_event,
            self.best_off_s,
            self.best_on_s,
            self.events
        );
    }
}

/// One row of the experiment index: `E<number>`, the word `report`
/// also accepts for it, and the run at its default (report-sized)
/// parameters.
pub struct Experiment {
    pub number: u32,
    pub alias: Option<&'static str>,
    pub run: fn() -> Table,
}

const fn exp(number: u32, alias: Option<&'static str>, run: fn() -> Table) -> Experiment {
    Experiment { number, alias, run }
}

/// Every experiment, in index order: what [`run_all`] runs, what
/// [`run_one`] resolves ids against, and what `report` names in its
/// usage message.
pub static REGISTRY: [Experiment; 30] = [
    exp(1, None, || solvers_exp::e01_cg_figure2(16, 16, 8)),
    exp(2, None, || vector_ops::e02_saxpy_scaling(1 << 16)),
    exp(3, None, || vector_ops::e03_dot_merge(1 << 14)),
    exp(4, None, || matvec_exp::e04_scenario1(1024, 6)),
    exp(5, None, || matvec_exp::e05_scenario2(1024, 6)),
    exp(6, None, || extensions_exp::e06_private_merge(1024, 6)),
    exp(7, None, || extensions_exp::e07_bernstein(128)),
    exp(8, None, || extensions_exp::e08_inspector(1024, 100)),
    exp(9, None, || extensions_exp::e09_atom_distribution(512, 6)),
    exp(10, None, || balance_exp::e10_load_balance(1024, 128, 0.9)),
    exp(11, None, || solvers_exp::e11_ne_convergence(32)),
    exp(12, None, || solvers_exp::e12_solver_family(144)),
    exp(13, None, || comparison_exp::e13_hpf_vs_spmd(256, 5, 8)),
    exp(14, None, || solvers_exp::e14_preconditioning(10, 10)),
    exp(15, None, comparison_exp::e15_storage_formats),
    exp(16, None, || extended_exp::e16_checkerboard(1024)),
    exp(17, None, || extended_exp::e17_transpose_asymmetry(512, 8)),
    exp(18, None, || extended_exp::e18_cost_sensitivity(48, 48)),
    exp(19, None, || extended_exp::e19_gmres_and_cgs(10)),
    exp(20, None, extended_exp::e20_condition_bound),
    exp(21, None, || {
        extended_exp::e21_redistribute_amortisation(1024, 128, 8)
    }),
    exp(22, None, || service_exp::e22_service_throughput(256, 40, 8)),
    exp(23, None, || fault_exp::e23_fault_sweep(96, 4, 5)),
    exp(24, None, || {
        obs_exp::e24_observability_overhead(10_000, 8, 3)
    }),
    exp(25, None, || drift_exp::e25_drift_oracle(1024, 8)),
    exp(26, None, || partition_exp::e26_partitioners(512)),
    exp(27, Some("soak"), || {
        soak_exp::e27_chaos_soak(soak_exp::default_requests())
    }),
    exp(28, Some("hpcg"), mg_exp::e28_hpcg),
    exp(29, Some("telemetry"), || {
        telemetry_exp::e29_telemetry(telemetry_exp::default_requests())
    }),
    exp(30, Some("rca"), || {
        rca_exp::e30_rca(rca_exp::default_requests())
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
    REGISTRY.iter().map(|e| (e.run)()).collect()
}

/// Run the experiment [`resolve`] finds for `id`.
pub fn run_one(id: &str) -> Option<Table> {
    resolve(id).map(|e| (e.run)())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolution only: every experiment has its own test, and running
    /// them here would set process-wide variables under sibling tests.
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
