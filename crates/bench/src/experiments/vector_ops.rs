//! E2 (SAXPY scaling) and E3 (inner-product merge cost).

use crate::table::{ratio, us, Table};
use hpf_core::DistVector;
use hpf_dist::ArrayDescriptor;
use hpf_machine::{CostModel, Machine, Topology};

/// E2 — Section 4: "Using N_P processors, SAXPY operations can be
/// performed in O(n/N_P) time on any architecture", with zero
/// communication. Sweep NP at fixed n and report modeled time,
/// speedup, and communication words.
pub fn e02_saxpy_scaling(n: usize) -> Table {
    let mut t = Table::new(
        "E2",
        format!("SAXPY O(n/NP) scaling, n = {n}"),
        &["NP", "time_us", "speedup", "comm_words", "flops/proc"],
    );
    let mut t1 = None;
    for np in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut m = Machine::hypercube(np);
        let d = ArrayDescriptor::block(n, np);
        let mut y = DistVector::zeros(d.clone());
        let x = DistVector::constant(d, 1.0);
        y.axpy(&mut m, 2.0, &x);
        let time = m.elapsed();
        let t_base = *t1.get_or_insert(time);
        t.row(vec![
            np.to_string(),
            us(time),
            ratio(t_base / time),
            m.trace().total_comm_words().to_string(),
            (2 * n.div_ceil(np)).to_string(),
        ]);
    }
    t.note("speedup ~= NP and comm_words = 0 at every NP: SAXPY is embarrassingly parallel under alignment");
    t
}

/// E3 — Section 4: the inner product's local phase is O(n/NP) while the
/// merge "on a hypercube architecture ... is done in t_startup·log N_P
/// time". Sweep NP on three topologies, reporting the measured merge
/// time against the analytic formula.
pub fn e03_dot_merge(n: usize) -> Table {
    let mut t = Table::new(
        "E3",
        format!("DOT_PRODUCT merge phase vs t_startup*log(NP), n = {n}"),
        &[
            "NP",
            "topology",
            "local_us",
            "merge_us",
            "ts*logNP_us",
            "merge/formula",
        ],
    );
    let cost = CostModel::mpp_1995();
    for np in [2usize, 4, 8, 16, 32, 64] {
        for topo in [Topology::Hypercube, Topology::Mesh2D, Topology::Ring] {
            let mut m = Machine::new(np, topo, cost);
            let d = ArrayDescriptor::block(n, np);
            let a = DistVector::constant(d.clone(), 1.0);
            let b = DistVector::constant(d, 2.0);
            let _ = a.dot(&mut m, &b);
            let local: f64 = m.trace().with_label("dot-local").map(|e| e.time).sum();
            let merge: f64 = m.trace().with_label("dot-merge").map(|e| e.time).sum();
            let formula = cost.t_startup * Topology::log2_ceil(np) as f64;
            t.row(vec![
                np.to_string(),
                topo.name().to_string(),
                us(local),
                us(merge),
                us(formula),
                ratio(merge / formula),
            ]);
        }
    }
    t.note("hypercube merge/formula ~= 1.00 (the paper's t_startup*logNP bound); ring grows linearly in NP");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e02_shows_linear_speedup_and_no_comm() {
        let t = e02_saxpy_scaling(1 << 14);
        assert_eq!(t.rows.len(), 7);
        // Every row has zero communication.
        assert!(t.rows.iter().all(|r| r[3] == "0"));
        // Speedup at NP=16 (row index 4) close to 16.
        let s: f64 = t.rows[4][2].parse().unwrap();
        assert!((s - 16.0).abs() < 0.01, "speedup {s}");
    }

    #[test]
    fn e03_hypercube_matches_formula() {
        let t = e03_dot_merge(1 << 12);
        for row in t.rows.iter().filter(|r| r[1] == "hypercube") {
            let q: f64 = row[5].parse().unwrap();
            // Merge includes tiny t_word/t_flop terms: ratio within 2%.
            assert!((q - 1.0).abs() < 0.02, "ratio {q}");
        }
        // Ring merge is much slower than hypercube at NP=64.
        let hc: f64 = t
            .rows
            .iter()
            .find(|r| r[0] == "64" && r[1] == "hypercube")
            .unwrap()[3]
            .parse()
            .unwrap();
        let ring: f64 = t
            .rows
            .iter()
            .find(|r| r[0] == "64" && r[1] == "ring")
            .unwrap()[3]
            .parse()
            .unwrap();
        assert!(ring > 5.0 * hc);
    }
}
