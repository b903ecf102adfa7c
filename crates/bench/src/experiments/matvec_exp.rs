//! E4 (Scenario 1: row-wise) and E5 (Scenario 2: column-wise).

use crate::table::{ratio, us, Table};
use hpf_core::{ColwiseCsc, DataArrayLayout, DistVector, RowwiseCsr};
use hpf_dist::ArrayDescriptor;
use hpf_machine::{CostModel, Machine, Topology};
use hpf_sparse::{gen, CscMatrix};

fn machine(np: usize) -> Machine {
    Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
}

/// E4 — Figure 3 / Scenario 1: row-wise `(BLOCK,*)` CSR matvec. The
/// all-to-all broadcast costs `t_s·log NP + t_c·(NP-1)·n/NP`; with the
/// data arrays naively element-block distributed, extra remote `a`/`col`
/// fetches appear ("additional communication is needed to bring in those
/// missing elements").
pub fn e04_scenario1(n: usize, nnz_per_row: usize) -> Table {
    let mut t = Table::new(
        "E4",
        format!("Scenario 1 row-wise CSR matvec, n = {n}"),
        &[
            "NP",
            "layout",
            "bcast_words",
            "fetch_words",
            "comm_us",
            "compute_us",
            "total_us",
        ],
    );
    let a = gen::random_spd(n, nnz_per_row, 42);
    for np in [2usize, 4, 8, 16] {
        for (layout, name) in [
            (DataArrayLayout::RowAligned, "row-aligned"),
            (DataArrayLayout::ElementBlock, "element-block"),
        ] {
            let op = RowwiseCsr::block(a.clone(), np, layout);
            let p = DistVector::constant(ArrayDescriptor::block(n, np), 1.0);
            let mut m = machine(np);
            let (_, stats) = op.matvec(&mut m, &p);
            t.row(vec![
                np.to_string(),
                name.to_string(),
                stats.broadcast_words.to_string(),
                stats.remote_data_words.to_string(),
                us(m.trace().comm_time()),
                us(m.trace().compute_time()),
                us(m.elapsed()),
            ]);
        }
    }
    t.note("row-aligned layout (the ATOM extension's guarantee) eliminates all fetch_words");
    t.note("FORALL over rows is parallel: compute_us shrinks ~1/NP");
    t
}

/// E5 — Figure 4 / Scenario 2: column-wise `(*,BLOCK)` CSC matvec. The
/// many-to-one accumulation serialises the loop; the temp-2D + SUM
/// workaround restores parallel compute at `NP·n` extra words. Scenario
/// 2's communication equals Scenario 1's ("it is not possible to reduce
/// the communication time ... either in a row-wise or column-wise
/// fashion").
pub fn e05_scenario2(n: usize, nnz_per_row: usize) -> Table {
    let mut t = Table::new(
        "E5",
        format!("Scenario 2 column-wise CSC matvec, n = {n}"),
        &[
            "NP",
            "variant",
            "comm_us",
            "compute_us",
            "total_us",
            "temp_words",
            "vs_scenario1_comm",
        ],
    );
    let a = gen::random_spd(n, nnz_per_row, 42);
    let csc = CscMatrix::from_csr(&a);
    for np in [2usize, 4, 8, 16] {
        let p = DistVector::constant(ArrayDescriptor::block(n, np), 1.0);

        // Scenario 1 comm reference.
        let mut m1 = machine(np);
        let op1 = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
        op1.matvec(&mut m1, &p);
        let s1_comm = m1.trace().comm_time();

        let op = ColwiseCsc::block(csc.clone(), np);
        for variant in ["serial", "temp2d"] {
            let mut m = machine(np);
            let (_, stats) = match variant {
                "serial" => op.matvec_serial(&mut m, &p),
                _ => op.matvec_temp2d(&mut m, &p),
            };
            t.row(vec![
                np.to_string(),
                variant.to_string(),
                us(m.trace().comm_time()),
                us(m.trace().compute_time()),
                us(m.elapsed()),
                stats.temp_storage_words.to_string(),
                ratio(m.trace().comm_time() / s1_comm),
            ]);
        }
    }
    t.note(
        "serial variant: compute_us does NOT shrink with NP (the dependency Section 5.1 attacks)",
    );
    t.note("serial vs_scenario1_comm = 1.00: column-wise striping cannot reduce communication");
    t.note(
        "temp2d restores parallel compute but the simulated program allocates NP*n temporary words",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e04_row_aligned_has_zero_fetches() {
        let t = e04_scenario1(256, 5);
        for row in t.rows.iter().filter(|r| r[1] == "row-aligned") {
            assert_eq!(row[3], "0");
        }
        // element-block rows fetch something at np >= 2.
        assert!(t
            .rows
            .iter()
            .filter(|r| r[1] == "element-block")
            .all(|r| r[3].parse::<usize>().unwrap() > 0));
    }

    #[test]
    fn e04_compute_shrinks_with_np() {
        let t = e04_scenario1(512, 4);
        let get = |np: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == np && r[1] == "row-aligned")
                .unwrap()[5]
                .parse()
                .unwrap()
        };
        assert!(get("16") < get("2") / 4.0);
    }

    #[test]
    fn e05_serial_compute_flat_and_comm_matches_s1() {
        let t = e05_scenario2(256, 4);
        let serial: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[1] == "serial").collect();
        let c2: f64 = serial[0][3].parse().unwrap();
        let c16: f64 = serial[3][3].parse().unwrap();
        assert!(
            (c2 - c16).abs() / c2 < 0.01,
            "serial compute must not scale"
        );
        for r in &serial {
            let q: f64 = r[6].parse().unwrap();
            assert!((q - 1.0).abs() < 0.01, "comm ratio {q}");
        }
        // temp2d temp storage grows with np.
        let temp: Vec<usize> = t
            .rows
            .iter()
            .filter(|r| r[1] == "temp2d")
            .map(|r| r[5].parse().unwrap())
            .collect();
        assert!(temp.windows(2).all(|w| w[1] > w[0]));
    }
}
