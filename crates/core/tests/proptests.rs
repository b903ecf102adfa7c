//! Property tests over the HPF runtime: distributed operations compute
//! exactly what their serial counterparts compute, for arbitrary
//! matrices, vectors, processor counts and (where applicable) layouts —
//! and FORALL/Bernstein semantics hold on arbitrary access patterns.

use hpf_core::ext::PrivateRegion;
use hpf_core::forall::{bernstein_check, forall_assign, IterationAccess};
use hpf_core::{ColwiseCsc, DataArrayLayout, DistVector, RowwiseCsr};
use hpf_dist::{ArrayDescriptor, DistSpec};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_sparse::{gen, CooMatrix, CscMatrix, CsrMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn machine(np: usize) -> Machine {
    Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
}

/// A random square sparse matrix with unique coordinates.
fn arb_square(n_max: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..n_max).prop_flat_map(|n| {
        let cell = (0..n, 0..n, -10.0f64..10.0);
        proptest::collection::vec(cell, 0..60).prop_map(move |mut v| {
            v.sort_by_key(|&(i, j, _)| (i, j));
            v.dedup_by_key(|&mut (i, j, _)| (i, j));
            (n, v)
        })
    })
}

fn arb_layout(n: usize, np: usize, seed: u64) -> ArrayDescriptor {
    match seed % 3 {
        0 => ArrayDescriptor::block(n, np),
        1 => ArrayDescriptor::cyclic(n, np),
        _ => ArrayDescriptor::new(n, np, DistSpec::CyclicK(1 + (seed as usize % 4))),
    }
}

/// The `Temp2d` product as the paper's workaround spells it and as
/// `matvec_temp2d` ran it before it had a merge plan: every processor
/// zero-fills a whole length-`n` partial, scatters its columns into it,
/// and all `n` entries are SUMmed into `q` in rank order — `N_P·n`
/// element operations. The oracle for the product that merges only the
/// rows a processor reaches.
fn temp2d_reference(op: &ColwiseCsc, p_global: &[f64]) -> Vec<f64> {
    let n = op.matrix().n_rows();
    let mut q = vec![0.0; n];
    let mut partial = vec![0.0; n];
    for proc in 0..op.np() {
        partial.fill(0.0);
        for j in op.col_descriptor().local_runs(proc).flatten() {
            let pj = p_global[j];
            if pj == 0.0 {
                continue;
            }
            for (r, v) in op.matrix().col(j) {
                partial[r] += v * pj;
            }
        }
        for (qi, &v) in q.iter_mut().zip(&partial) {
            *qi += v;
        }
    }
    q
}

/// One small matrix from each generator family, sized by `seed`.
fn matrix_families(seed: u64) -> Vec<(&'static str, CsrMatrix)> {
    let s = seed as usize;
    vec![
        ("poisson_2d", gen::poisson_2d(2 + s % 7, 2 + (s / 7) % 6)),
        (
            "poisson_3d",
            gen::poisson_3d(2 + s % 3, 2 + (s / 3) % 3, 2 + (s / 9) % 3),
        ),
        ("banded_spd", gen::banded_spd(3 + s % 58, 1 + s % 5, seed)),
        ("random_spd", gen::random_spd(3 + s % 61, 1 + s % 6, seed)),
        (
            "power_law_spd",
            gen::power_law_spd(4 + s % 60, 3 + s % 20, 0.9, seed),
        ),
    ]
}

/// `np + 1` non-decreasing cut points over `0..=n`; repeated points (and
/// any `np > n`) leave processors without a column.
fn arb_cuts(n: usize, np: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut cuts: Vec<usize> = (1..np).map(|_| rng.gen_range(0..=n)).collect();
    cuts.push(0);
    cuts.push(n);
    cuts.sort_unstable();
    cuts
}

/// An operand of ordinary values with exact `0.0`, `-0.0`, `±inf` and
/// (when `with_nan`) NaN planted in it.
fn arb_operand(n: usize, with_nan: bool, rng: &mut StdRng) -> Vec<f64> {
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
    let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let planted = if with_nan { 5 } else { 4 };
    for &special in &specials[..planted] {
        if rng.gen_bool(0.7) {
            x[rng.gen_range(0..n)] = special;
        }
    }
    x
}

/// The bit patterns of `v`, with every NaN mapped to one pattern: which
/// operand's sign and payload an addition of two NaNs keeps is up to the
/// instruction the compiler picked, not to the algorithm.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
        .collect()
}

/// Every column-wise product on `op` with operand `x` laid out as
/// `desc`, against its serial definition **to the bit**, through the
/// allocating wrapper and through the `_into` form with a dirty `q` and a
/// dirty, shared `scratch`; both forms must charge the machine alike.
fn assert_colwise_products_exact(what: &str, op: &ColwiseCsc, desc: ArrayDescriptor, x: &[f64]) {
    let np = op.np();
    let p = DistVector::from_global(desc.clone(), x);
    let mut scratch = vec![f64::NAN; 7];
    let dirty = || DistVector::constant(desc.clone(), f64::NAN);

    let want = bits(&temp2d_reference(op, x));
    let (mut m1, mut m2) = (machine(np), machine(np));
    let (q, stats) = op.matvec_temp2d(&mut m1, &p);
    let mut q_into = dirty();
    let stats_into = op.matvec_temp2d_into(&mut m2, &p, &mut q_into, &mut scratch);
    assert_eq!(bits(&q.to_global()), want, "{what}: temp2d");
    assert_eq!(bits(&q_into.to_global()), want, "{what}: temp2d_into");
    assert_eq!(stats, stats_into, "{what}: temp2d stats");
    assert_eq!(stats.temp_storage_words, np * x.len());
    assert!(q.descriptor().same_layout(&desc));

    let want = bits(&op.matrix().matvec(x).unwrap());
    let (q, stats) = op.matvec_serial(&mut m1, &p);
    let stats_into = op.matvec_serial_into(&mut m2, &p, &mut q_into, &mut scratch);
    assert_eq!(bits(&q.to_global()), want, "{what}: serial");
    assert_eq!(bits(&q_into.to_global()), want, "{what}: serial_into");
    assert_eq!(stats.time.to_bits(), stats_into.time.to_bits());

    let want = bits(&op.matrix().matvec_transpose(x).unwrap());
    let (q, stats) = op.matvec_transpose_gather(&mut m1, &p);
    let mut qt_into = DistVector::constant(op.col_descriptor().clone(), f64::NAN);
    let stats_into = op.matvec_transpose_gather_into(&mut m2, &p, &mut qt_into, &mut scratch);
    assert_eq!(bits(&q.to_global()), want, "{what}: transpose");
    assert_eq!(bits(&qt_into.to_global()), want, "{what}: transpose_into");
    assert_eq!(stats.time.to_bits(), stats_into.time.to_bits());

    assert_eq!(m1.trace().to_jsonl(), m2.trace().to_jsonl(), "{what}");
    assert_eq!(m1.elapsed().to_bits(), m2.elapsed().to_bits(), "{what}");
}

/// The merge plan lists, per processor, exactly the rows its columns
/// reach, ascending; so it is never longer than `nnz`, however many
/// processors there are.
fn assert_plan_is_the_reached_rows(what: &str, op: &ColwiseCsc) {
    let mut total = 0;
    for proc in 0..op.np() {
        let mut reached: Vec<usize> = op
            .col_descriptor()
            .local_runs(proc)
            .flatten()
            .flat_map(|j| op.matrix().col(j).map(|(r, _)| r))
            .collect();
        reached.sort_unstable();
        reached.dedup();
        assert_eq!(op.touched_rows(proc), reached, "{what}: processor {proc}");
        total += reached.len();
    }
    assert!(total <= op.matrix().nnz(), "{what}: {total} rows planned");
}

/// What keeps the host cost of a `Temp2d` product from growing with
/// `N_P`: on the benchmark's matrix the plan is no longer than `nnz` from
/// one processor to more processors than columns.
#[test]
fn temp2d_plan_is_bounded_by_nnz_at_any_np() {
    let a = CscMatrix::from_csr(&gen::poisson_2d(48, 48));
    let (n, nnz) = (a.n_cols(), a.nnz());
    for np in [1, 8, 64, 512, n, 5000] {
        let op = ColwiseCsc::block(a.clone(), np);
        assert_plan_is_the_reached_rows(&format!("poisson_2d(48,48) np={np}"), &op);
        let planned: usize = (0..np).map(|p| op.touched_rows(p).len()).sum();
        assert!(planned >= n && planned <= nnz, "np={np}: {planned}");
    }
    // One processor reaches every row once; one column a processor
    // reaches each stored entry once.
    let planned = |np| -> usize {
        let op = ColwiseCsc::block(a.clone(), np);
        (0..np).map(|p| op.touched_rows(p).len()).sum()
    };
    assert_eq!(planned(1), n);
    assert_eq!(planned(n), nnz);
}

proptest! {
    /// The column-wise products on every generator family equal their
    /// definitions bit for bit (`to_bits`, so NaN compares with NaN): `Temp2d`
    /// against the `N_P·n` reference loop, `Serial` and the transpose
    /// against the serial CSC kernels — for 1 to 70 processors (more
    /// than there are columns included), block columns and irregular cuts
    /// that leave processors empty, operands aligned with the columns,
    /// block, cyclic and cyclic(3), holding exact zeros of both signs,
    /// infinities and NaN.
    #[test]
    fn colwise_products_match_their_definitions_to_the_bit(
        np in 1usize..=70,
        cut_columns in any::<bool>(),
        with_nan in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (family, a) in matrix_families(seed % 1_000_003) {
            let n = a.n_rows();
            let csc = CscMatrix::from_csr(&a);
            let op = if cut_columns {
                ColwiseCsc::with_col_cuts(csc, np, arb_cuts(n, np, &mut rng))
            } else {
                ColwiseCsc::block(csc, np)
            };
            let x = arb_operand(n, with_nan, &mut rng);
            let what = format!("{family} n={n} np={np} cuts={cut_columns} seed={seed}");
            assert_plan_is_the_reached_rows(&what, &op);
            for desc in [
                op.col_descriptor().clone(),
                ArrayDescriptor::block(n, np),
                ArrayDescriptor::cyclic(n, np),
                ArrayDescriptor::new(n, np, DistSpec::CyclicK(3)),
            ] {
                assert_colwise_products_exact(&what, &op, desc, &x);
            }
        }
    }

    /// SAXPY / AYPX / dot on any layout equal their serial versions.
    #[test]
    fn vector_ops_match_serial(
        n in 1usize..150,
        np in 1usize..9,
        seed in any::<u64>(),
        alpha in -4.0f64..4.0,
    ) {
        let desc = arb_layout(n, np, seed);
        let xs: Vec<f64> = (0..n).map(|i| ((i * 31 + 7) % 13) as f64 - 6.0).collect();
        let ys: Vec<f64> = (0..n).map(|i| ((i * 17 + 3) % 11) as f64 - 5.0).collect();

        let mut m = machine(np);
        let mut y = DistVector::from_global(desc.clone(), &ys);
        let x = DistVector::from_global(desc.clone(), &xs);
        y.axpy(&mut m, alpha, &x);
        let want: Vec<f64> = ys.iter().zip(xs.iter()).map(|(yi, xi)| yi + alpha * xi).collect();
        prop_assert_eq!(y.to_global(), want);

        let mut p = DistVector::from_global(desc.clone(), &ys);
        p.aypx(&mut m, alpha, &x);
        let want2: Vec<f64> = ys.iter().zip(xs.iter()).map(|(yi, xi)| alpha * yi + xi).collect();
        for (u, v) in p.to_global().iter().zip(want2.iter()) {
            prop_assert!((u - v).abs() < 1e-12);
        }

        let got = x.dot(&mut m, &DistVector::from_global(desc, &ys));
        let want3: f64 = xs.iter().zip(ys.iter()).map(|(a, b)| a * b).sum();
        prop_assert!((got - want3).abs() < 1e-9 * want3.abs().max(1.0));
    }

    /// Scenario 1 and Scenario 2 matvecs (all variants) equal the dense
    /// reference for any matrix and processor count.
    #[test]
    fn distributed_matvecs_match_reference(
        (n, trips) in arb_square(16),
        np in 1usize..7,
        layout_elem in any::<bool>(),
    ) {
        let coo = CooMatrix::from_triplets(n, n, trips).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let csc = CscMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 9) as f64 - 4.0).collect();
        let want = csr.matvec(&x).unwrap();
        let p = DistVector::from_global(ArrayDescriptor::block(n, np), &x);

        let layout = if layout_elem {
            DataArrayLayout::ElementBlock
        } else {
            DataArrayLayout::RowAligned
        };
        let mut m = machine(np);
        let row_op = RowwiseCsr::block(csr.clone(), np, layout);
        let (q1, _) = row_op.matvec(&mut m, &p);
        for (u, v) in q1.to_global().iter().zip(want.iter()) {
            prop_assert!((u - v).abs() < 1e-10);
        }

        let col_op = ColwiseCsc::block(csc, np);
        let mut m2 = machine(np);
        let (q2, _) = col_op.matvec_serial(&mut m2, &p);
        let mut m3 = machine(np);
        let (q3, _) = col_op.matvec_temp2d(&mut m3, &p);
        for i in 0..n {
            prop_assert!((q2.to_global()[i] - want[i]).abs() < 1e-10);
            prop_assert!((q3.to_global()[i] - want[i]).abs() < 1e-10);
        }

        // Transpose direction.
        let want_t = csr.matvec_transpose(&x).unwrap();
        let mut m4 = machine(np);
        let (qt, _) = row_op.matvec_transpose(&mut m4, &p);
        for (u, v) in qt.to_global().iter().zip(want_t.iter()) {
            prop_assert!((u - v).abs() < 1e-10);
        }
    }

    /// The PRIVATE/MERGE CSC matvec equals the serial kernel for any
    /// matrix and any processor count.
    #[test]
    fn private_merge_matches_serial(
        (n, trips) in arb_square(20),
        np in 1usize..9,
    ) {
        let coo = CooMatrix::from_triplets(n, n, trips).unwrap();
        let csc = CscMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let want = csc.matvec(&x).unwrap();
        let mut m = machine(np);
        let (got, stats) =
            PrivateRegion::csc_matvec(&mut m, csc.col_ptr(), csc.row_idx(), csc.values(), &x);
        // The private region sizes q by the max row index present.
        for (i, w) in want.iter().enumerate() {
            let g = got.get(i).copied().unwrap_or(0.0);
            prop_assert!((g - w).abs() < 1e-10, "row {i}: {g} vs {w}");
        }
        prop_assert_eq!(stats.private_storage_words, np * got.len());
    }

    /// FORALL either fully applies or leaves the target untouched, and
    /// accepts exactly the injective index maps.
    #[test]
    fn forall_all_or_nothing(
        n in 1usize..40,
        offsets in proptest::collection::vec(0usize..40, 1..40),
    ) {
        let count = offsets.len().min(n);
        let lhs: Vec<usize> = offsets.iter().take(count).map(|&o| o % n).collect();
        let mut target = vec![-1.0f64; n];
        let before = target.clone();
        let injective = {
            let mut seen = vec![false; n];
            lhs.iter().all(|&l| {
                if seen[l] {
                    false
                } else {
                    seen[l] = true;
                    true
                }
            })
        };
        let result = forall_assign(&mut target, count, |k| lhs[k], |k| k as f64);
        prop_assert_eq!(result.is_ok(), injective);
        if result.is_err() {
            prop_assert_eq!(target, before);
        } else {
            for (k, &l) in lhs.iter().enumerate() {
                prop_assert_eq!(target[l], k as f64);
            }
        }
    }

    /// Bernstein's checker accepts iff all write sets are disjoint and
    /// no iteration reads another's writes.
    #[test]
    fn bernstein_matches_brute_force(
        writes in proptest::collection::vec(proptest::collection::vec(0usize..12, 0..3), 1..8),
        reads in proptest::collection::vec(proptest::collection::vec(0usize..12, 0..3), 1..8),
    ) {
        let k = writes.len().min(reads.len());
        let iters: Vec<IterationAccess> = (0..k)
            .map(|i| IterationAccess {
                reads: reads[i].clone(),
                writes: writes[i].clone(),
            })
            .collect();
        let got = bernstein_check(&iters).is_ok();
        // Brute force.
        let mut ok = true;
        'outer: for i in 0..k {
            for j in 0..k {
                if i == j {
                    continue;
                }
                for &w in &iters[i].writes {
                    if iters[j].writes.contains(&w) || iters[j].reads.contains(&w) {
                        ok = false;
                        break 'outer;
                    }
                }
            }
        }
        prop_assert_eq!(got, ok);
    }

    /// Machine time for the same program is independent of tracing, and
    /// numerics are independent of the cost model.
    #[test]
    fn cost_model_never_affects_numerics(
        (n, trips) in arb_square(12),
        np in 1usize..5,
    ) {
        let coo = CooMatrix::from_triplets(n, n, trips).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let p = DistVector::from_global(ArrayDescriptor::block(n, np), &x);
        let op = RowwiseCsr::block(csr, np, DataArrayLayout::RowAligned);
        let mut m1 = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let mut m2 = Machine::new(np, Topology::Ring, CostModel::lan_cluster());
        let (q1, _) = op.matvec(&mut m1, &p);
        let (q2, _) = op.matvec(&mut m2, &p);
        prop_assert_eq!(q1.to_global(), q2.to_global());
    }
}
