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

/// Run every experiment at its default (report-sized) parameters, in
/// index order.
pub fn run_all() -> Vec<Table> {
    vec![
        solvers_exp::e01_cg_figure2(16, 16, 8),
        vector_ops::e02_saxpy_scaling(1 << 16),
        vector_ops::e03_dot_merge(1 << 14),
        matvec_exp::e04_scenario1(1024, 6),
        matvec_exp::e05_scenario2(1024, 6),
        extensions_exp::e06_private_merge(1024, 6),
        extensions_exp::e07_bernstein(128),
        extensions_exp::e08_inspector(1024, 100),
        extensions_exp::e09_atom_distribution(512, 6),
        balance_exp::e10_load_balance(1024, 128, 0.9),
        solvers_exp::e11_ne_convergence(32),
        solvers_exp::e12_solver_family(144),
        comparison_exp::e13_hpf_vs_spmd(256, 5, 8),
        solvers_exp::e14_preconditioning(10, 10),
        comparison_exp::e15_storage_formats(),
        extended_exp::e16_checkerboard(1024),
        extended_exp::e17_transpose_asymmetry(512, 8),
        extended_exp::e18_cost_sensitivity(48, 48),
        extended_exp::e19_gmres_and_cgs(10),
        extended_exp::e20_condition_bound(),
        extended_exp::e21_redistribute_amortisation(1024, 128, 8),
        service_exp::e22_service_throughput(256, 40, 8),
        fault_exp::e23_fault_sweep(96, 4, 5),
        obs_exp::e24_observability_overhead(10_000, 8, 3),
        drift_exp::e25_drift_oracle(1024, 8),
        partition_exp::e26_partitioners(512),
        soak_exp::e27_chaos_soak(soak_exp::default_requests()),
        mg_exp::e28_hpcg(),
        telemetry_exp::e29_telemetry(telemetry_exp::default_requests()),
        rca_exp::e30_rca(rca_exp::default_requests()),
    ]
}

/// Run one experiment by its lowercase id (`"e1"`, `"e01"`, ... `"e30"`);
/// `"soak"` is an alias for the E27 chaos soak, `"telemetry"` for the
/// E29 pipeline, and `"rca"` for the E30 flight-recorder sweep.
pub fn run_one(id: &str) -> Option<Table> {
    let norm = id.trim_start_matches('e').trim_start_matches('0');
    Some(match norm {
        "1" => solvers_exp::e01_cg_figure2(16, 16, 8),
        "2" => vector_ops::e02_saxpy_scaling(1 << 16),
        "3" => vector_ops::e03_dot_merge(1 << 14),
        "4" => matvec_exp::e04_scenario1(1024, 6),
        "5" => matvec_exp::e05_scenario2(1024, 6),
        "6" => extensions_exp::e06_private_merge(1024, 6),
        "7" => extensions_exp::e07_bernstein(128),
        "8" => extensions_exp::e08_inspector(1024, 100),
        "9" => extensions_exp::e09_atom_distribution(512, 6),
        "10" => balance_exp::e10_load_balance(1024, 128, 0.9),
        "11" => solvers_exp::e11_ne_convergence(32),
        "12" => solvers_exp::e12_solver_family(144),
        "13" => comparison_exp::e13_hpf_vs_spmd(256, 5, 8),
        "14" => solvers_exp::e14_preconditioning(10, 10),
        "15" => comparison_exp::e15_storage_formats(),
        "16" => extended_exp::e16_checkerboard(1024),
        "17" => extended_exp::e17_transpose_asymmetry(512, 8),
        "18" => extended_exp::e18_cost_sensitivity(48, 48),
        "19" => extended_exp::e19_gmres_and_cgs(10),
        "20" => extended_exp::e20_condition_bound(),
        "21" => extended_exp::e21_redistribute_amortisation(1024, 128, 8),
        "22" => service_exp::e22_service_throughput(256, 40, 8),
        "23" => fault_exp::e23_fault_sweep(96, 4, 5),
        "24" => obs_exp::e24_observability_overhead(10_000, 8, 3),
        "25" => drift_exp::e25_drift_oracle(1024, 8),
        "26" => partition_exp::e26_partitioners(512),
        "27" | "soak" => soak_exp::e27_chaos_soak(soak_exp::default_requests()),
        "28" | "hpcg" => mg_exp::e28_hpcg(),
        "29" | "telemetry" => telemetry_exp::e29_telemetry(telemetry_exp::default_requests()),
        "30" | "rca" => rca_exp::e30_rca(rca_exp::default_requests()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_resolves_ids() {
        // E25/E26's regression gates write BENCH_<n>.json into
        // HPF_BENCH_DIR (default "."); keep test artifacts out of the
        // source tree.
        let scratch = std::env::temp_dir().join(format!("hpf-run-one-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        std::env::set_var("HPF_BENCH_DIR", &scratch);
        assert!(run_one("e1").is_some());
        assert!(run_one("e01").is_some());
        assert!(run_one("15").is_some());
        assert!(run_one("e16").is_some());
        assert!(run_one("e19").is_some());
        assert!(run_one("e20").is_some());
        assert!(run_one("e21").is_some());
        assert!(run_one("e22").is_some());
        assert!(run_one("e23").is_some());
        assert!(run_one("e24").is_some());
        assert!(run_one("e25").is_some());
        assert!(run_one("e26").is_some());
        // E27 is the chaos soak; keep the in-test run small.
        std::env::set_var("HPF_SOAK_REQUESTS", "600");
        assert!(run_one("e27").is_some());
        assert!(run_one("soak").is_some());
        // E28 is the HPCG-class MG sweep; keep the in-test run small.
        std::env::set_var("HPF_E28_SMOKE", "1");
        assert!(run_one("e28").is_some());
        assert!(run_one("hpcg").is_some());
        std::env::remove_var("HPF_E28_SMOKE");
        // E29 is the telemetry soak; keep the in-test run smoke-sized.
        std::env::set_var("HPF_E29_REQUESTS", "120");
        assert!(run_one("e29").is_some());
        assert!(run_one("telemetry").is_some());
        std::env::remove_var("HPF_E29_REQUESTS");
        // E30 is the flight-recorder sweep; keep the in-test run
        // smoke-sized.
        std::env::set_var("HPF_E30_REQUESTS", "120");
        assert!(run_one("e30").is_some());
        assert!(run_one("rca").is_some());
        std::env::remove_var("HPF_E30_REQUESTS");
        assert!(run_one("e31").is_none());
        assert!(run_one("nope").is_none());
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
