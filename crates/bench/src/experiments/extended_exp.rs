//! E16–E19: ablations and extension experiments beyond the paper's
//! figures — the 2-D checkerboard layout, the Aᵀ layout asymmetry, cost-
//! model sensitivity, and the GMRES storage/robustness trade (all
//! flagged in DESIGN.md as design-choice ablations).

use super::solvers_exp::{on_one, solve_on_one};
use crate::table::{ratio, us, Table};
use hpf_core::{Checkerboard, ColwiseCsc, DataArrayLayout, DistVector, ProcGrid2D, RowwiseCsr};
use hpf_dist::ArrayDescriptor;
use hpf_machine::{CostModel, Machine, Topology};
use hpf_solvers::{
    cg_distributed, gmres_storage_vectors, nonmonotonicity, residual_history, solve,
    ColwiseOperator, CscVariant, DistOperator, Krylov, NullObserver, StopCriterion,
};
use hpf_sparse::{gen, CooMatrix, CscMatrix, CsrMatrix, DenseMatrix};

/// E16 — the 2-D `(BLOCK, BLOCK)` checkerboard vs 1-D striping. The
/// paper proves 1-D row/column stripings cost the same; the classical
/// fix it stops short of is 2-D partitioning. Sweep P and compare the
/// communication critical path of one dense matvec.
pub fn e16_checkerboard(n: usize) -> Table {
    let mut t = Table::new(
        "E16",
        format!("2-D (BLOCK,BLOCK) vs 1-D (BLOCK,*) dense matvec comm, n = {n}"),
        &["P", "layout", "comm_us", "2d/1d"],
    );
    let comm_only = CostModel {
        t_flop: 0.0,
        ..CostModel::mpp_1995()
    };
    let d = DenseMatrix::zeros(n, n);
    for np in [4usize, 16, 64] {
        let x = vec![0.0; n];
        let p = DistVector::from_global(ArrayDescriptor::block(n, np), &x);

        let mut m1 = Machine::new(np, Topology::Hypercube, comm_only);
        hpf_core::matvec::dense_rowwise_matvec(&mut m1, &d, &p);
        let c1 = m1.elapsed();

        let grid = ProcGrid2D::square(np).unwrap();
        let cb = Checkerboard::new(d.clone(), grid);
        let mut m2 = Machine::new(np, Topology::Hypercube, comm_only);
        cb.matvec(&mut m2, &p);
        let c2 = m2.elapsed();

        t.row(vec![
            np.to_string(),
            "1-D (BLOCK,*)".into(),
            us(c1),
            ratio(1.0),
        ]);
        t.row(vec![
            np.to_string(),
            "2-D checkerboard".into(),
            us(c2),
            ratio(c2 / c1),
        ]);
    }
    t.note("the checkerboard's advantage grows with P: 2 log sqrt(P) start-ups and O(n/sqrt(P)) words vs log P + O(n)");
    t
}

fn nonsymmetric(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, -1.5).unwrap();
            coo.push(i + 1, i, -0.5).unwrap();
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// E17 — the Aᵀ layout asymmetry behind Section 2.1's BiCG remark:
/// forward and transpose matvec communication through the row-wise and
/// column-wise layouts, plus full distributed BiCG on both.
pub fn e17_transpose_asymmetry(n: usize, np: usize) -> Table {
    let mut t = Table::new(
        "E17",
        format!("A vs A^T communication by layout (BiCG's burden), n = {n}, NP = {np}"),
        &["operation", "layout", "comm_us", "temp_words"],
    );
    let a = nonsymmetric(n);
    let csc = CscMatrix::from_csr(&a);
    let x = vec![1.0; n];
    let p = DistVector::from_global(ArrayDescriptor::block(n, np), &x);
    let row_op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
    let col_op = ColwiseCsc::block(csc.clone(), np);

    let mk = || Machine::hypercube(np);

    let mut m = mk();
    let (_, s) = row_op.matvec(&mut m, &p);
    t.row(vec![
        "A p".into(),
        "row-wise".into(),
        us(m.trace().comm_time()),
        s.temp_storage_words.to_string(),
    ]);
    let mut m = mk();
    let (_, s) = row_op.matvec_transpose(&mut m, &p);
    t.row(vec![
        "A^T p".into(),
        "row-wise".into(),
        us(m.trace().comm_time()),
        s.temp_storage_words.to_string(),
    ]);
    let mut m = mk();
    let (_, s) = col_op.matvec_temp2d(&mut m, &p);
    t.row(vec![
        "A p".into(),
        "column-wise".into(),
        us(m.trace().comm_time()),
        s.temp_storage_words.to_string(),
    ]);
    let mut m = mk();
    let (_, s) = col_op.matvec_transpose_gather(&mut m, &p);
    t.row(vec![
        "A^T p".into(),
        "column-wise".into(),
        us(m.trace().comm_time()),
        s.temp_storage_words.to_string(),
    ]);

    // Full BiCG (needs both directions every iteration): neither layout
    // escapes the expensive direction.
    let (_, b) = gen::rhs_for_known_solution(&a);
    let stop = StopCriterion::RelativeResidual(1e-8);
    let bicg = |m: &mut Machine, op: &dyn DistOperator| {
        solve(m, op, &b, Krylov::Bicg, stop, 10 * n, &mut NullObserver)
            .unwrap()
            .stats
    };
    let mut m_row = mk();
    let s_row = bicg(&mut m_row, &row_op);
    t.row(vec![
        format!("BiCG ({} iters)", s_row.iterations),
        "row-wise".into(),
        us(m_row.trace().comm_time()),
        "-".into(),
    ]);
    let col_full = ColwiseOperator {
        inner: col_op,
        variant: CscVariant::Temp2d,
    };
    let mut m_col = mk();
    let s_col = bicg(&mut m_col, &col_full);
    t.row(vec![
        format!("BiCG ({} iters)", s_col.iterations),
        "column-wise".into(),
        us(m_col.trace().comm_time()),
        "-".into(),
    ]);
    t.note("each layout is cheap in one direction and pays a vector merge in the other;");
    t.note(
        "BiCG needs both per iteration — 'storage distribution optimisations ... negated' (S2.1)",
    );
    t
}

/// E18 — cost-model sensitivity: where the scaling knee of distributed
/// CG sits as the network gets slower (the HPCC-platform dependence the
/// paper's O() analysis abstracts over).
pub fn e18_cost_sensitivity(nx: usize, ny: usize) -> Table {
    let mut t = Table::new(
        "E18",
        format!("Distributed CG scaling knee vs machine cost model ({nx}x{ny} Poisson)"),
        &["model", "NP", "time_ms", "speedup", "comm%"],
    );
    let a = gen::poisson_2d(nx, ny);
    let n = a.n_rows();
    let (_, b) = gen::rhs_for_known_solution(&a);
    let stop = StopCriterion::RelativeResidual(1e-8);
    for (model, name) in [
        (CostModel::tight_mpp(), "tight-mpp"),
        (CostModel::mpp_1995(), "mpp-1995"),
        (CostModel::lan_cluster(), "lan-cluster"),
    ] {
        let mut t1 = None;
        for np in [1usize, 4, 16, 64] {
            let mut m = Machine::new(np, Topology::Hypercube, model);
            let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
            let (_, stats) = cg_distributed(&mut m, &op, &b, stop, 10 * n).unwrap();
            assert!(stats.converged);
            let time = m.elapsed();
            let base = *t1.get_or_insert(time);
            t.row(vec![
                name.into(),
                np.to_string(),
                format!("{:.2}", time * 1e3),
                ratio(base / time),
                format!("{:.0}", 100.0 * m.trace().comm_time() / time),
            ]);
        }
    }
    t.note("the slower the network, the earlier speedup saturates (and reverses): the t_startup*logNP merges dominate");
    t
}

/// E19 — the "longer recurrences" ledger: GMRES(m) storage vs iteration
/// count, and CGS's irregular convergence quantified (both Section 2.1
/// remarks).
pub fn e19_gmres_and_cgs(n_grid: usize) -> Table {
    let mut t = Table::new(
        "E19",
        format!(
            "GMRES restart ledger + CGS irregularity ({n_grid}x{n_grid} Poisson / shifted system)"
        ),
        &[
            "solver",
            "iterations",
            "storage n-vectors",
            "non-monotone steps %",
        ],
    );
    let a = gen::poisson_2d(n_grid, n_grid);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let stop = StopCriterion::RelativeResidual(1e-8);
    let op = on_one(&a);
    for m in [5usize, 10, 20, 40] {
        let stats = solve_on_one(&op, &b, Krylov::Gmres { restart: m }, stop, 100_000).unwrap();
        t.row(vec![
            format!("GMRES({m})"),
            stats.iterations.to_string(),
            gmres_storage_vectors(m).to_string(),
            "-".into(),
        ]);
    }
    // Convergence-shape comparison on a non-normal system.
    let n = 60;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, -1.4).unwrap();
            coo.push(i + 1, i, -0.6).unwrap();
        }
        if i + 4 < n {
            coo.push(i, i + 4, 0.5).unwrap();
        }
    }
    let ns = CsrMatrix::from_coo(&coo);
    let (_, b_ns) = gen::rhs_for_known_solution(&ns);
    // CG's monotone reference on the SPD system, then the non-symmetric
    // methods on the shifted system.
    let h_cg = residual_history(Krylov::cg(), &a, &b, 60).unwrap();
    t.row(vec![
        "CG on SPD (history)".into(),
        (h_cg.len() - 1).to_string(),
        "4".into(),
        format!("{:.0}", 100.0 * nonmonotonicity(&h_cg)),
    ]);
    for (name, method) in [("CGS", Krylov::Cgs), ("BiCGSTAB", Krylov::Bicgstab)] {
        let h = residual_history(method, &ns, &b_ns, 60).unwrap();
        t.row(vec![
            format!("{name} on nonsym (history)"),
            (h.len() - 1).to_string(),
            "8".into(),
            format!("{:.0}", 100.0 * nonmonotonicity(&h)),
        ]);
    }
    t.note("larger restarts: fewer iterations, linearly more storage — 'longer recurrences require greater storage'");
    t.note("CGS shows the paper's 'irregular rates of convergence'; BiCGSTAB smooths them");
    t
}

/// E20 — the quantitative version of Section 2's convergence remark
/// ("eigenvalues vary widely in magnitude → a large number of
/// iterations"): estimated condition number, the classical
/// `2((√κ−1)/(√κ+1))^k` bound's predicted iterations, and measured CG
/// iterations, as the Poisson grid grows (κ ~ h⁻²).
pub fn e20_condition_bound() -> Table {
    use hpf_solvers::{cg, cg_iterations_for, estimate_spd_spectrum};
    let mut t = Table::new(
        "E20",
        "CG iterations vs condition number (Poisson grids)".to_string(),
        &[
            "grid",
            "n",
            "kappa",
            "bound iters",
            "measured iters",
            "within bound",
        ],
    );
    let eps = 1e-8;
    for g in [6usize, 10, 16, 24] {
        let a = gen::poisson_2d(g, g);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let sp = estimate_spd_spectrum(&a, 1e-10, 200_000).expect("SPD");
        let predicted = cg_iterations_for(sp.condition, eps);
        let (_, stats) = cg(&a, &b, StopCriterion::RelativeResidual(eps), 100_000).unwrap();
        t.row(vec![
            format!("{g}x{g}"),
            (g * g).to_string(),
            format!("{:.1}", sp.condition),
            predicted.to_string(),
            stats.iterations.to_string(),
            // 2x slack: energy-norm bound vs 2-norm stopping rule.
            (stats.iterations <= 2 * predicted).to_string(),
        ]);
    }
    t.note("kappa grows ~h^-2 with refinement; measured iterations track sqrt(kappa), inside the classical bound");
    t
}

/// E21 — when does `REDISTRIBUTE` pay? Section 5.2.1: "The user is
/// responsible for putting the REDISTRIBUTE directive in the proper
/// place to improve the performance." On an irregular matrix, the
/// balanced layout costs a one-time data movement but saves compute
/// every iteration; this experiment measures the break-even iteration
/// count.
pub fn e21_redistribute_amortisation(n: usize, max_row_nnz: usize, np: usize) -> Table {
    use hpf_core::ext::{SparseFormat, SparseMatrixDirective};
    use hpf_partition::{connectivity_of, BalancedContiguous};

    // A compute-capable machine: on a latency-bound network the matvec is
    // communication-dominated and no layout change can pay (the dual
    // lesson — also reported in the notes).
    let model = CostModel::tight_mpp();

    let mut t = Table::new(
        "E21",
        format!(
            "REDISTRIBUTE amortisation on irregular matrix, n = {n}, NP = {np} (tight-MPP model)"
        ),
        &["quantity", "BLOCK (stay)", "balanced (redistribute)"],
    );
    let a = gen::power_law_spd(n, max_row_nnz, 0.9, 23);

    // Per-iteration matvec time under each layout.
    let per_iter = |op: &RowwiseCsr| -> f64 {
        let p = DistVector::constant(
            hpf_dist::ArrayDescriptor::new(n, np, op.row_descriptor().spec().clone()),
            1.0,
        );
        let mut m = Machine::new(np, Topology::Hypercube, model);
        op.matvec(&mut m, &p);
        m.elapsed()
    };

    let block_op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
    let t_block = per_iter(&block_op);

    // One-time redistribution cost: the smA trio plus the five aligned
    // vectors of Figure 2; the balanced operator runs on the trio's cuts.
    let mut m_move = Machine::new(np, Topology::Hypercube, model);
    let mut sm = SparseMatrixDirective::new(SparseFormat::Csr, a.row_ptr(), np);
    sm.redistribute_using(&mut m_move, &BalancedContiguous, &connectivity_of(&a));
    let cuts = sm.assignment().atom_cuts().expect("contiguous");
    let bal_op = RowwiseCsr::with_row_cuts(a.clone(), np, cuts);
    let t_bal = per_iter(&bal_op);
    let from = hpf_dist::ArrayDescriptor::block(n, np);
    for name in ["p", "q", "r", "x", "b"] {
        let mut v = DistVector::constant(from.clone(), 1.0);
        let to = bal_op.row_descriptor().clone();
        v.redistribute(&mut m_move, to, name);
    }
    let move_cost = m_move.elapsed();

    let saving = (t_block - t_bal).max(0.0);
    let break_even = if saving > 0.0 {
        (move_cost / saving).ceil() as usize
    } else {
        usize::MAX
    };

    t.row(vec!["matvec time/iter (us)".into(), us(t_block), us(t_bal)]);
    t.row(vec![
        "one-time move cost (us)".into(),
        us(0.0),
        us(move_cost),
    ]);
    t.row(vec!["saving/iter (us)".into(), "-".into(), us(saving)]);
    t.row(vec![
        "break-even iterations".into(),
        "-".into(),
        if break_even == usize::MAX {
            "never".into()
        } else {
            break_even.to_string()
        },
    ]);
    // For context: how many iterations a real CG solve on this system
    // takes (so the reader sees the redistribution easily amortises).
    let (_, b) = gen::rhs_for_known_solution(&a);
    let (_, stats) = cg_distributed(
        &mut Machine::new(np, Topology::Hypercube, model),
        &bal_op,
        &b,
        StopCriterion::RelativeResidual(1e-8),
        10 * n,
    )
    .expect("SPD");
    t.row(vec![
        "CG iterations to 1e-8".into(),
        "-".into(),
        stats.iterations.to_string(),
    ]);
    t.note("on a compute-capable machine the one-time REDISTRIBUTE pays before CG converges — before the solve loop is 'the proper place'");
    t.note("on a latency-bound network (mpp-1995/lan) the matvec is comm-dominated and no layout change can pay: the directive's placement is machine-dependent");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e21_break_even_before_convergence() {
        let t = e21_redistribute_amortisation(1024, 128, 8);
        let get = |q: &str, col: usize| -> String {
            t.rows.iter().find(|r| r[0] == q).unwrap()[col].clone()
        };
        let break_even: usize = get("break-even iterations", 2).parse().unwrap();
        let cg_iters: usize = get("CG iterations to 1e-8", 2).parse().unwrap();
        assert!(
            break_even < cg_iters,
            "break-even {break_even} must precede convergence at {cg_iters}"
        );
    }

    #[test]
    fn e20_measured_within_bound() {
        let t = e20_condition_bound();
        assert!(t.rows.iter().all(|r| r[5] == "true"), "{t:?}");
        // kappa increases with grid size.
        let kappas: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(kappas.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn e16_checkerboard_wins_at_64() {
        let t = e16_checkerboard(1024);
        let r64: f64 = t
            .rows
            .iter()
            .find(|r| r[0] == "64" && r[1].contains("2-D"))
            .unwrap()[3]
            .parse()
            .unwrap();
        assert!(r64 < 1.0, "2-D should win at P=64, ratio {r64}");
    }

    #[test]
    fn e17_transpose_expensive_on_row_layout() {
        let t = e17_transpose_asymmetry(256, 8);
        let get = |op: &str, layout: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == op && r[1] == layout)
                .unwrap()[2]
                .parse()
                .unwrap()
        };
        assert!(get("A^T p", "row-wise") > get("A p", "row-wise"));
        assert!(get("A p", "column-wise") > get("A^T p", "column-wise"));
    }

    #[test]
    fn e18_slower_networks_saturate_earlier() {
        let t = e18_cost_sensitivity(12, 12);
        let speedup = |model: &str, np: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == model && r[1] == np).unwrap()[3]
                .parse()
                .unwrap()
        };
        assert!(speedup("tight-mpp", "16") > speedup("lan-cluster", "16"));
    }

    #[test]
    fn e19_restart_monotone_in_storage() {
        let t = e19_gmres_and_cgs(8);
        let gm: Vec<(usize, usize)> = t
            .rows
            .iter()
            .filter(|r| r[0].starts_with("GMRES"))
            .map(|r| (r[1].parse().unwrap(), r[2].parse().unwrap()))
            .collect();
        // Iterations non-increasing as storage grows.
        for w in gm.windows(2) {
            assert!(w[1].0 <= w[0].0, "{gm:?}");
            assert!(w[1].1 > w[0].1);
        }
        // CGS row exists with nonzero irregularity.
        let cgs_row = t.rows.iter().find(|r| r[0].contains("CGS")).unwrap();
        let cg_row = t.rows.iter().find(|r| r[0].contains("CG on SPD")).unwrap();
        let cg_pct: f64 = cg_row[3].parse().unwrap();
        assert!(
            cg_pct < 10.0,
            "CG on SPD must be (near-)monotone: {cg_pct}%"
        );
        let pct: f64 = cgs_row[3].parse().unwrap();
        assert!(pct > 0.0);
    }
}
