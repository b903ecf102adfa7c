//! Golden digests of every single-processor solve the experiments,
//! examples and tests run: E11, E12, E14, E19 and E20, the
//! `solver_shootout` and `cfd_pressure` examples, the integration tests,
//! the differential and property tests (one fixed draw each) and the
//! solver unit tests, plus the residual histories and spectrum estimates
//! built on them. An entry folds the solution bits (or the history, or
//! the estimate), every [`SolveStats`] field but `dots`, the `Debug` of
//! an error, and — where an [`IterObserver`] is passed — the iteration,
//! residual, alpha and beta of every sample, in order. `dots` is the
//! second column, on its own, so an entry whose only change is the count
//! of inner products says so. Only [`run`] and the imports may change
//! with the solver API. A mismatch prints the whole recomputed table.

use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_machine::{Machine, TraceLevel};
use hpf_solvers::{
    estimate_spd_spectrum, power_method, residual_history, solve, DistPreconditioner, IterObserver,
    IterSample, JacobiPreconditioner, Krylov, NullObserver, SolveStats, SolverError,
    SsorPreconditioner, StopCriterion,
};
use hpf_sparse::{gen, CooMatrix, CsrMatrix};

#[derive(Clone, Copy)]
enum Method {
    Cg,
    PcgJacobi,
    /// SSOR with ω = 1.2, E14's.
    PcgSsor,
    Bicg,
    Bicgstab,
    Cgs,
    Gmres(usize),
}

#[derive(Clone, Copy)]
enum Call {
    Solve(Method, StopCriterion, usize),
    /// `residual_history` for this many iterations.
    History(Method, usize),
    /// `estimate_spd_spectrum(tol, max_iters)`.
    Spectrum(f64, usize),
    /// `power_method(tol, max_iters)`.
    Power(f64, usize),
}

/// What a call left: the numbers to fold (a solution, a history, an
/// estimate) and a solve's stats.
type Outcome = Result<(Vec<f64>, Option<SolveStats>), SolverError>;

fn run(call: Call, a: &CsrMatrix, b: &[f64], obs: Option<&mut dyn IterObserver>) -> Outcome {
    let mut null = NullObserver;
    let obs = obs.unwrap_or(&mut null);
    let krylov = |method| match method {
        Method::Cg | Method::PcgJacobi | Method::PcgSsor => Krylov::cg(),
        Method::Bicg => Krylov::Bicg,
        Method::Bicgstab => Krylov::Bicgstab,
        Method::Cgs => Krylov::Cgs,
        Method::Gmres(restart) => Krylov::Gmres { restart },
    };
    match call {
        Call::Solve(method, stop, max_iters) => {
            let op = RowwiseCsr::block(a.clone(), 1, DataArrayLayout::RowAligned);
            let (jacobi, ssor);
            let precond: &dyn DistPreconditioner = match method {
                Method::PcgJacobi => {
                    jacobi = JacobiPreconditioner::from_operator(&op)?;
                    &jacobi
                }
                Method::PcgSsor => {
                    ssor = SsorPreconditioner::new(&op)?;
                    &ssor
                }
                other => {
                    let mut machine = Machine::hypercube(1);
                    machine.set_trace_level(TraceLevel::Off);
                    let s = solve(&mut machine, &op, b, krylov(other), stop, max_iters, obs)?;
                    return Ok((s.x.to_global(), Some(s.stats)));
                }
            };
            let method = Krylov::Cg {
                precond: Some(precond),
                recovery: None,
            };
            let mut machine = Machine::hypercube(1);
            machine.set_trace_level(TraceLevel::Off);
            let s = solve(&mut machine, &op, b, method, stop, max_iters, obs)?;
            Ok((s.x.to_global(), Some(s.stats)))
        }
        Call::History(method, iters) => {
            residual_history(krylov(method), a, b, iters).map(|h| (h, None))
        }
        Call::Spectrum(tol, max_iters) => estimate_spd_spectrum(a, tol, max_iters)
            .map(|s| (vec![s.lambda_max, s.lambda_min, s.condition], None)),
        Call::Power(tol, max_iters) => power_method(a, tol, max_iters)
            .map(|e| (vec![e.value, e.iterations as f64, e.residual], None)),
    }
}

/// FNV-1a, 64 bit.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64s(&mut self, v: &[f64]) {
        for x in v {
            self.u64(x.to_bits());
        }
    }
}

/// Folds the samples a solve reports, in order: the fields a solve
/// without a machine reports too.
struct Stream(Digest);

impl IterObserver for Stream {
    fn on_iteration(&mut self, s: &IterSample) {
        self.0.bytes(b"i");
        self.0.u64(s.iteration as u64);
        self.0.f64s(&[s.residual_norm, s.alpha, s.beta]);
    }
}

struct Case {
    name: String,
    a: CsrMatrix,
    b: Vec<f64>,
    call: Call,
    observed: bool,
}

/// `n × n` with `value` on every diagonal `offset` (above the main one
/// when positive).
fn diagonals(n: usize, bands: &[(isize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n as isize {
        for &(offset, value) in bands {
            let j = i + offset;
            if (0..n as isize).contains(&j) {
                coo.push(i as usize, j as usize, value).unwrap();
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// E14's badly scaled Poisson system.
fn badly_scaled(nx: usize, ny: usize) -> CsrMatrix {
    let base = gen::poisson_2d(nx, ny);
    let n = base.n_rows();
    let mut coo = CooMatrix::new(n, n);
    let scale = |i: usize| 10f64.powi((i % 5) as i32 - 2);
    for i in 0..n {
        for (j, v) in base.row(i) {
            coo.push(i, j, v * scale(i) * scale(j)).unwrap();
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// `cfd_pressure`'s manufactured divergence field.
fn divergence(nx: usize, ny: usize, nz: usize) -> Vec<f64> {
    (0..nx * ny * nz)
        .map(|i| {
            let x = (i % nz) as f64 / nz as f64;
            let y = ((i / nz) % ny) as f64 / ny as f64;
            (std::f64::consts::TAU * x).sin() * (std::f64::consts::PI * y).cos()
        })
        .collect()
}

fn rhs(a: &CsrMatrix) -> Vec<f64> {
    gen::rhs_for_known_solution(a).1
}

fn cases() -> Vec<Case> {
    use Call::{History, Power, Solve, Spectrum};
    use Method::*;
    use StopCriterion::{AbsoluteResidual, RelativeResidual};
    let mut out = Vec::new();
    let mut add = |name: String, a: &CsrMatrix, b: Vec<f64>, call: Call| {
        out.push(Case {
            name,
            a: a.clone(),
            b,
            call,
            observed: false,
        });
    };

    // E11 (report n = 32, test n = 24) and the serial CG test's spectra.
    let spectra: [&[f64]; 6] = [
        &[3.0],
        &[1.0, 10.0],
        &[1.0, 4.0, 9.0],
        &[1.0, 2.0, 4.0, 8.0],
        &[2.0, 3.0, 5.0, 7.0, 11.0],
        &[1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0],
    ];
    for n in [32, 24] {
        for eigs in spectra {
            let a = gen::distinct_eigenvalues(n, eigs, 4 * n, 23);
            let call = Solve(Cg, RelativeResidual(1e-9), 10 * n);
            add(format!("e11 n={n} n_e={}", eigs.len()), &a, rhs(&a), call);
        }
    }
    for (eigs, n) in [
        (&[1.0, 10.0][..], 16),
        (&[1.0, 4.0, 9.0], 18),
        (&[2.0, 3.0, 5.0, 7.0, 11.0], 20),
    ] {
        let a = gen::distinct_eigenvalues(n, eigs, 4 * n, 7);
        let call = Solve(Cg, RelativeResidual(1e-9), 200);
        add(format!("cg n_e={} n={n}", eigs.len()), &a, rhs(&a), call);
    }

    // E12 (report n = 144, test n = 64).
    for n in [144usize, 64] {
        let g = (n as f64).sqrt() as usize;
        let spd = gen::poisson_2d(g, g);
        let ns = diagonals(n, &[(0, 4.0), (1, -1.6), (-1, -0.4), (7, 0.3)]);
        let stop = RelativeResidual(1e-9);
        add(
            format!("e12 n={n} cg"),
            &spd,
            rhs(&spd),
            Solve(Cg, stop, 10 * n),
        );
        for (mname, method) in [("bicg", Bicg), ("cgs", Cgs), ("bicgstab", Bicgstab)] {
            let call = Solve(method, stop, 10 * n);
            add(format!("e12 n={n} {mname}"), &ns, rhs(&ns), call);
        }
    }

    // E14 (report 10x10, test 8x8).
    for g in [10usize, 8] {
        let a = badly_scaled(g, g);
        let max_iters = 100 * g * g;
        for (mname, method) in [("cg", Cg), ("pcg-jacobi", PcgJacobi), ("pcg-ssor", PcgSsor)] {
            let call = Solve(method, RelativeResidual(1e-8), max_iters);
            add(format!("e14 {g}x{g} {mname}"), &a, rhs(&a), call);
        }
    }

    // E19 (report 10x10, test 8x8): restarts, then the histories.
    let ns60 = diagonals(60, &[(0, 2.0), (1, -1.4), (-1, -0.6), (4, 0.5)]);
    for g in [10usize, 8] {
        let a = gen::poisson_2d(g, g);
        for m in [5usize, 10, 20, 40] {
            let call = Solve(Gmres(m), RelativeResidual(1e-8), 100_000);
            add(format!("e19 {g}x{g} gmres({m})"), &a, rhs(&a), call);
        }
        add(
            format!("e19 {g}x{g} cg history"),
            &a,
            rhs(&a),
            History(Cg, 60),
        );
    }
    add(
        "e19 cgs history".into(),
        &ns60,
        rhs(&ns60),
        History(Cgs, 60),
    );
    add(
        "e19 bicgstab history".into(),
        &ns60,
        rhs(&ns60),
        History(Bicgstab, 60),
    );

    // E20.
    for g in [6usize, 10, 16, 24] {
        let a = gen::poisson_2d(g, g);
        add(
            format!("e20 {g}x{g} spectrum"),
            &a,
            Vec::new(),
            Spectrum(1e-10, 200_000),
        );
        let call = Solve(Cg, RelativeResidual(1e-8), 100_000);
        add(format!("e20 {g}x{g} cg"), &a, rhs(&a), call);
    }

    // The examples.
    let banded = gen::banded_spd(400, 6, 99);
    let call = Solve(Cg, RelativeResidual(1e-9), 4000);
    add("shootout cg".into(), &banded, rhs(&banded), call);
    let ns300 = diagonals(300, &[(0, 4.0), (1, -1.7), (-1, -0.3), (9, 0.35)]);
    for (mname, method) in [("bicg", Bicg), ("cgs", Cgs), ("bicgstab", Bicgstab)] {
        let call = Solve(method, RelativeResidual(1e-9), 3000);
        add(format!("shootout {mname}"), &ns300, rhs(&ns300), call);
    }
    let cfd = gen::poisson_3d(16, 16, 16);
    for (mname, method) in [("cg", Cg), ("pcg-jacobi", PcgJacobi), ("pcg-ssor", PcgSsor)] {
        let call = Solve(method, RelativeResidual(1e-8), 40_960);
        add(format!("cfd {mname}"), &cfd, divergence(16, 16, 16), call);
    }

    // The integration tests.
    let p44 = gen::poisson_2d(4, 4);
    for (mname, method) in [("cg", Cg), ("bicg", Bicg), ("bicgstab", Bicgstab)] {
        let call = Solve(method, RelativeResidual(1e-8), 10);
        add(
            format!("wrong-length rhs {mname}"),
            &p44,
            vec![1.0; 3],
            call,
        );
    }
    let indefinite = CsrMatrix::from_coo(
        &CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, -1.0)]).unwrap(),
    );
    let call = Solve(Cg, RelativeResidual(1e-10), 100);
    add("indefinite cg".into(), &indefinite, vec![1.0; 2], call);
    let p16 = gen::poisson_2d(16, 16);
    let call = Solve(Cg, RelativeResidual(1e-15), 2);
    add("two iterations cg".into(), &p16, rhs(&p16), call);
    let bidiag24 = diagonals(24, &[(0, 1.0), (1, 3.0)]);
    let call = Solve(Cgs, RelativeResidual(1e-12), 30);
    add(
        "bidiagonal(24, 3) cgs".into(),
        &bidiag24,
        vec![1.0; 24],
        call,
    );
    let market = gen::random_spd(60, 3, 21);
    let call = Solve(Cg, RelativeResidual(1e-10), 1000);
    add("matrix market cg".into(), &market, rhs(&market), call);

    // The differential table: its SPD and non-symmetric systems.
    let p88 = gen::poisson_2d(8, 8);
    let ns60_15 = diagonals(60, &[(0, 4.0), (1, -1.5), (-1, -0.5)]);
    let krylov = [
        ("cg", Cg),
        ("pcg-jacobi", PcgJacobi),
        ("bicg", Bicg),
        ("bicgstab", Bicgstab),
        ("gmres(12)", Gmres(12)),
    ];
    for (mname, method) in krylov {
        let call = Solve(method, RelativeResidual(1e-9), 2000);
        add(format!("krylov spd {mname}"), &p88, rhs(&p88), call);
        if !matches!(method, Cg | PcgJacobi) {
            add(
                format!("krylov nonsym {mname}"),
                &ns60_15,
                rhs(&ns60_15),
                call,
            );
        }
    }

    // One fixed draw of each property.
    let a = gen::random_spd(24, 3, 7);
    let call = Solve(Cg, RelativeResidual(1e-10), 1200);
    add("prop random_spd cg".into(), &a, rhs(&a), call);
    let a = gen::random_spd(20, 2, 5);
    let call = Solve(PcgJacobi, RelativeResidual(1e-9), 1000);
    add("prop random_spd pcg-jacobi".into(), &a, rhs(&a), call);
    let a = gen::banded_spd(30, 2, 3);
    for (mname, method, max_iters) in [
        ("bicg", Bicg, 1500),
        ("bicgstab", Bicgstab, 1500),
        ("cgs", Cgs, 1500),
        ("gmres(20)", Gmres(20), 3000),
    ] {
        let call = Solve(method, RelativeResidual(1e-9), max_iters);
        add(format!("prop banded_spd {mname}"), &a, rhs(&a), call);
    }
    let a = gen::banded_spd(20, 2, 9);
    add(
        "prop banded_spd cg history".into(),
        &a,
        rhs(&a),
        History(Cg, 40),
    );
    let a = gen::random_spd(12, 3, 1);
    let call = Solve(Cg, AbsoluteResidual(0.0), 5);
    add("prop impossible tolerance cg".into(), &a, rhs(&a), call);

    // The solver unit tests.
    let a = gen::poisson_2d(10, 10);
    let call = Solve(Cg, RelativeResidual(1e-10), 1000);
    add("unit poisson 10x10 cg".into(), &a, rhs(&a), call);
    for (gname, a) in [
        ("banded_spd(80,4,1)", gen::banded_spd(80, 4, 1)),
        ("random_spd(80,5,2)", gen::random_spd(80, 5, 2)),
    ] {
        let call = Solve(Cg, RelativeResidual(1e-10), 2000);
        add(format!("unit {gname} cg"), &a, rhs(&a), call);
    }
    let call = Solve(Cg, RelativeResidual(1e-8), 10);
    add("unit zero rhs cg".into(), &p44, vec![0.0; 16], call);
    let a = gen::poisson_2d(12, 12);
    let call = Solve(Cg, RelativeResidual(1e-14), 3);
    add("unit three iterations cg".into(), &a, rhs(&a), call);
    let a = gen::poisson_2d(16, 16);
    for (mname, method) in [("cg", Cg), ("pcg-ssor", PcgSsor)] {
        let call = Solve(method, RelativeResidual(1e-8), 5000);
        add(format!("unit poisson 16x16 {mname}"), &a, rhs(&a), call);
    }
    for (mname, method) in [("cgs", Cgs), ("bicgstab", Bicgstab), ("bicg", Bicg)] {
        let call = Solve(method, RelativeResidual(1e-10), 500);
        add(format!("unit poisson 8x8 {mname}"), &p88, rhs(&p88), call);
    }
    let call = Solve(Gmres(30), RelativeResidual(1e-10), 2000);
    add("unit poisson 8x8 gmres(30)".into(), &p88, rhs(&p88), call);
    let a = gen::poisson_2d(6, 6);
    let call = Solve(Cgs, RelativeResidual(1e-10), 500);
    add("unit poisson 6x6 cgs".into(), &a, rhs(&a), call);
    let a = diagonals(40, &[(0, 5.0), (1, -1.2), (-1, -0.8)]);
    let call = Solve(Cgs, RelativeResidual(1e-10), 500);
    add("unit nonsym 40 cgs".into(), &a, rhs(&a), call);
    let bidiag30 = diagonals(30, &[(0, 1.0), (1, 2.5)]);
    let call = Solve(Cgs, RelativeResidual(1e-12), 40);
    add(
        "bidiagonal(30, 2.5) cgs".into(),
        &bidiag30,
        vec![1.0; 30],
        call,
    );
    let far5 = |n| diagonals(n, &[(0, 4.0), (1, -1.7), (-1, -0.3), (5, 0.4)]);
    for n in [60usize, 40] {
        let a = far5(n);
        let call = Solve(Bicgstab, RelativeResidual(1e-10), 1000);
        add(format!("unit nonsym {n} bicgstab"), &a, rhs(&a), call);
    }
    let call = Solve(Bicgstab, RelativeResidual(1e-10), 5);
    add(
        "unit zero rhs bicgstab".into(),
        &far5(10),
        vec![0.0; 10],
        call,
    );
    for n in [50usize, 30] {
        let a = diagonals(n, &[(0, 4.0), (1, -1.5), (-1, -0.5)]);
        let call = Solve(Bicg, RelativeResidual(1e-10), 500);
        add(format!("unit nonsym {n} bicg"), &a, rhs(&a), call);
    }
    let a = diagonals(30, &[(0, 1.0), (1, 1.5)]);
    let call = Solve(Gmres(30), RelativeResidual(1e-8), 300);
    add(
        "bidiagonal(30, 1.5) gmres(30)".into(),
        &a,
        vec![1.0; 30],
        call,
    );
    let ns30 = diagonals(30, &[(0, 4.0), (1, -1.8), (-1, -0.2)]);
    let call = Solve(Gmres(30), RelativeResidual(1e-12), 60);
    add("unit nonsym 30 gmres(30)".into(), &ns30, rhs(&ns30), call);
    let a = gen::poisson_2d(10, 10);
    for m in [5usize, 50] {
        let call = Solve(Gmres(m), RelativeResidual(1e-8), 10_000);
        add(format!("unit poisson 10x10 gmres({m})"), &a, rhs(&a), call);
    }
    let call = Solve(Gmres(3), RelativeResidual(1e-14), 4);
    add("unit four steps gmres(3)".into(), &a, rhs(&a), call);
    let ns10 = diagonals(10, &[(0, 4.0), (1, -1.8), (-1, -0.2)]);
    let call = Solve(Gmres(5), RelativeResidual(1e-8), 10);
    add("unit zero rhs gmres(5)".into(), &ns10, vec![0.0; 10], call);
    add(
        "unit poisson 8x8 cg history".into(),
        &p88,
        rhs(&p88),
        History(Cg, 200),
    );
    let a = gen::distinct_eigenvalues(8, &[1.0, 3.0, 7.0], 0, 0);
    add(
        "unit power diagonal".into(),
        &a,
        Vec::new(),
        Power(1e-12, 1000),
    );
    let a = gen::tridiagonal(40, 2.0, -1.0);
    let call = Spectrum(1e-12, 200_000);
    add("unit tridiagonal spectrum".into(), &a, Vec::new(), call);
    let a = gen::poisson_2d(12, 12);
    let call = Spectrum(1e-10, 100_000);
    add("unit poisson 12x12 spectrum".into(), &a, Vec::new(), call);
    let call = Solve(Cg, RelativeResidual(1e-9), 10_000);
    add("unit poisson 12x12 cg".into(), &a, rhs(&a), call);

    // What an observer is told.
    for (mname, method) in [("cg", Cg), ("pcg-jacobi", PcgJacobi), ("pcg-ssor", PcgSsor)] {
        out.push(Case {
            name: format!("observed poisson 8x8 {mname}"),
            a: p88.clone(),
            b: rhs(&p88),
            call: Solve(method, RelativeResidual(1e-10), 1000),
            observed: true,
        });
    }
    out
}

/// The digest of one case, and the `dots` its solve counted (0 where
/// there is no solve or it failed).
fn digest(case: &Case) -> (u64, usize) {
    let mut stream = Stream(Digest::new());
    let obs = case
        .observed
        .then_some(&mut stream as &mut dyn IterObserver);
    let outcome = run(case.call, &case.a, &case.b, obs);
    let mut d = Digest::new();
    let dots = match outcome {
        Ok((values, stats)) => {
            d.f64s(&values);
            stats.map_or(0, |s| {
                d.u64(s.iterations as u64);
                d.bytes(&[u8::from(s.converged)]);
                d.f64s(&[s.residual_norm]);
                d.u64(s.matvecs as u64);
                d.u64(s.transpose_matvecs as u64);
                d.u64(s.axpys as u64);
                s.dots
            })
        }
        Err(e) => {
            d.bytes(format!("{e:?}").as_bytes());
            0
        }
    };
    d.u64(stream.0 .0);
    (d.0, dots)
}

#[test]
fn every_single_processor_solve_matches_its_recorded_digest() {
    let cases = cases();
    let got: Vec<(u64, usize)> = cases.iter().map(digest).collect();
    if got != GOLDEN {
        let mut table = String::new();
        for (i, (case, (d, dots))) in cases.iter().zip(&got).enumerate() {
            let mark = match GOLDEN.get(i) {
                Some(g) if *g == (*d, *dots) => "",
                _ => "  // MISMATCH",
            };
            table.push_str(&format!(
                "    (0x{d:016x}, {dots}), // {}{mark}\n",
                case.name
            ));
        }
        panic!("single-processor behaviour changed; recomputed digests:\n{table}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[(u64, usize)] = &[
    (0x6385d00a66349549, 4), // e11 n=32 n_e=1
    (0x1cd54fec0428985d, 6), // e11 n=32 n_e=2
    (0x7c5ecfc6a991f926, 8), // e11 n=32 n_e=3
    (0x1d6da08e434fbe8f, 10), // e11 n=32 n_e=4
    (0x0c6084c2d57627cb, 12), // e11 n=32 n_e=5
    (0x2bd7caa2d87ac337, 18), // e11 n=32 n_e=8
    (0x70ff21dffbbb6308, 4), // e11 n=24 n_e=1
    (0x2bbe31a9dc0abc57, 6), // e11 n=24 n_e=2
    (0x6ad33cd06f60affa, 8), // e11 n=24 n_e=3
    (0x676b3a9f452d79c9, 10), // e11 n=24 n_e=4
    (0x32b9df5a70ebbfb1, 12), // e11 n=24 n_e=5
    (0x2750d660cf9ae3c9, 18), // e11 n=24 n_e=8
    (0x5a37a38ecffd2764, 6), // cg n_e=2 n=16
    (0xe40117ea6a5a93e0, 8), // cg n_e=3 n=18
    (0xe3a34c8692ca8738, 12), // cg n_e=5 n=20
    (0x73137cbe617bb329, 82), // e12 n=144 cg
    (0x65df7c5bb0c9d97a, 122), // e12 n=144 bicg  [re-recorded: dots +1]
    (0x8c2c3f27fdc095fd, 43), // e12 n=144 cgs
    (0x7b1aec748bc1402c, 79), // e12 n=144 bicgstab  [re-recorded: iterations +0, max |dx| dx]
    (0x5cf6248cfcc0b74d, 54), // e12 n=64 cg
    (0xb6581a3483c01ec3, 89), // e12 n=64 bicg  [re-recorded: dots +1]
    (0x61ee608a206caa9d, 55), // e12 n=64 cgs
    (0xc1a6c00996bf05da, 94), // e12 n=64 bicgstab  [re-recorded: iterations +0, max |dx| dx]
    (0x1b95434d16c21d81, 366), // e14 10x10 cg
    (0xe658fffb66648d84, 95), // e14 10x10 pcg-jacobi  [re-recorded: dots +1]
    (0x8874bdb573932024, 41), // e14 10x10 pcg-ssor  [re-recorded: dots +1]
    (0x6f7c7b351f7a94f8, 58), // e14 8x8 cg
    (0x36c07e4a191fb98f, 74), // e14 8x8 pcg-jacobi  [re-recorded: dots +1]
    (0xc6679346bafc33bd, 35), // e14 8x8 pcg-ssor  [re-recorded: dots +1]
    (0xa7502971217b993c, 404), // e19 10x10 gmres(5)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0xe9b0bd62bd8a2df8, 453), // e19 10x10 gmres(10)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0xca7d979cb0d6ce3c, 467), // e19 10x10 gmres(20)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0x0ca346ac4dc7df2c, 530), // e19 10x10 gmres(40)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0xfc6a7869e61b3f7d, 0), // e19 10x10 cg history
    (0xfa46a6804e177dd9, 264), // e19 8x8 gmres(5)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0xc1cfc70bb5e1d70d, 321), // e19 8x8 gmres(10)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0x0fe5cc86c1fd6a6e, 269), // e19 8x8 gmres(20)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0xf548f0d3c7ecb942, 353), // e19 8x8 gmres(40)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0xba31d41d3a21ffc7, 0), // e19 8x8 cg history
    (0xb6f7398df9588cb4, 0), // e19 cgs history
    (0x4f2dfbee664d2da7, 0), // e19 bicgstab history
    (0x04fe4c355820a989, 0), // e20 6x6 spectrum
    (0x9fc3310e44f8dfba, 36), // e20 6x6 cg
    (0xfa8c3bf6be506845, 0), // e20 10x10 spectrum
    (0xf5242efc94bba9b4, 64), // e20 10x10 cg
    (0x478a998737cb286c, 0), // e20 16x16 spectrum
    (0xb9ecee4aabed2555, 100), // e20 16x16 cg
    (0x7a6b5aabb3b408ff, 0), // e20 24x24 spectrum
    (0x86ea77e6d773b0b1, 148), // e20 24x24 cg
    (0xdfd122a90d0d88ef, 38), // shootout cg
    (0xf4a900099bd17d78, 158), // shootout bicg  [re-recorded: dots +1]
    (0xe790c2dd2fe0f45b, 49), // shootout cgs
    (0xcc66368ee9e9086d, 91), // shootout bicgstab  [re-recorded: iterations +0, max |dx| dx]
    (0xe706a33e54e0d378, 118), // cfd cg
    (0x3011ab5db01d489e, 176), // cfd pcg-jacobi  [re-recorded: dots +1]
    (0x67dbef716da710dc, 68), // cfd pcg-ssor  [re-recorded: dots +1]
    (0x11976c541cb9b300, 0), // wrong-length rhs cg
    (0x11976c541cb9b300, 0), // wrong-length rhs bicg
    (0x11976c541cb9b300, 0), // wrong-length rhs bicgstab
    (0x2d0278cd37ba2bbf, 0), // indefinite cg
    (0xe81c224c2f651ef4, 6), // two iterations cg
    (0xb746ca525a1e8da9, 91), // bidiagonal(24, 3) cgs
    (0xc39fab5557d1141e, 50), // matrix market cg
    (0x5cf6248cfcc0b74d, 54), // krylov spd cg
    (0x5cf6248cfcc0b74d, 80), // krylov spd pcg-jacobi  [re-recorded: dots +1]
    (0x83f9bcd8bd6df512, 80), // krylov spd bicg  [re-recorded: dots +1]
    (0xb6ca560781ab8a11, 74), // krylov nonsym bicg  [re-recorded: dots +1]
    (0xd7bd0f88f6f24d08, 112), // krylov spd bicgstab  [re-recorded: iterations +0, max |dx| dx]
    (0x800bceb9c3a0ea6c, 70), // krylov nonsym bicgstab  [re-recorded: iterations +0, max |dx| dx]
    (0x1dc170b5b478485d, 366), // krylov spd gmres(12)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0x123aa8e77eb0c9f1, 159), // krylov nonsym gmres(12)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0x910cca3657014238, 40), // prop random_spd cg
    (0x6eee484971a4bc1d, 53), // prop random_spd pcg-jacobi  [re-recorded: dots +1]
    (0xa65c7dca7f5a00d8, 53), // prop banded_spd bicg  [re-recorded: dots +1]
    (0x37d2e822bea51d24, 64), // prop banded_spd bicgstab  [re-recorded: iterations +0, max |dx| dx]
    (0x346377a49732a5df, 31), // prop banded_spd cgs
    (0x9ae9decd89e5ea38, 173), // prop banded_spd gmres(20)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0x4c75e8f844262bdb, 0), // prop banded_spd cg history
    (0xa3b7cdd8eccf5c0d, 12), // prop impossible tolerance cg
    (0x4091847705b7473f, 72), // unit poisson 10x10 cg
    (0x43838f5ff3178be8, 44), // unit banded_spd(80,4,1) cg
    (0x6f2022e0ff123786, 48), // unit random_spd(80,5,2) cg
    (0xbb5c598020175f65, 2), // unit zero rhs cg
    (0xeb01ded33de984bd, 8), // unit three iterations cg
    (0xb9ecee4aabed2555, 100), // unit poisson 16x16 cg
    (0xc81f60d66b18d0ff, 59), // unit poisson 16x16 pcg-ssor  [re-recorded: dots +1]
    (0x3e645523945f92a4, 70), // unit poisson 8x8 cgs
    (0xd87d90c0a5d2aa0c, 124), // unit poisson 8x8 bicgstab  [re-recorded: iterations +0, max |dx| dx]
    (0xee1cee87ab768831, 86), // unit poisson 8x8 bicg  [re-recorded: dots +1]
    (0x7adaab5ac477c3d5, 437), // unit poisson 8x8 gmres(30)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0xbbdaa797155d777b, 49), // unit poisson 6x6 cgs
    (0x1d137ffc74b7ae16, 31), // unit nonsym 40 cgs
    (0x01ebfb928aac9597, 0), // bidiagonal(30, 2.5) cgs
    (0x5747a6d0f829fe34, 118), // unit nonsym 60 bicgstab  [re-recorded: iterations +0, max |dx| dx]
    (0x72b83d5fa96e117b, 103), // unit nonsym 40 bicgstab  [re-recorded: iterations +0, max |dx| dx]
    (0x44d1ba0138129fa5, 2), // unit zero rhs bicgstab
    (0x8001cd917b6a9306, 113), // unit nonsym 50 bicg  [re-recorded: dots +1]
    (0x53fc4cbf35531dbe, 83), // unit nonsym 30 bicg  [re-recorded: dots +1]
    (0x480b5393828a6598, 498), // bidiagonal(30, 1.5) gmres(30)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0x0016468b742b957a, 498), // unit nonsym 30 gmres(30)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0xa7502971217b993c, 404), // unit poisson 10x10 gmres(5)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0x0ca346ac4dc7df2c, 530), // unit poisson 10x10 gmres(50)  [re-recorded: iterations +0, max |dx| dx, dots +1]
    (0x66882b0fa791cd26, 15), // unit four steps gmres(3)  [re-recorded: iterations +0, max |dx| dx]
    (0xa904d2f996869865, 2), // unit zero rhs gmres(5)  [re-recorded: iterations +0, max |dx| dx]
    (0x095c080947d98093, 0), // unit poisson 8x8 cg history
    (0x21cda1529436a552, 0), // unit power diagonal
    (0x5700fd69affed5e8, 0), // unit tridiagonal spectrum
    (0x211d91a7aa6ff010, 0), // unit poisson 12x12 spectrum
    (0x73137cbe617bb329, 82), // unit poisson 12x12 cg
    (0xad8d4732fe4bd6af, 58), // observed poisson 8x8 cg
    (0x29f65cdff2cbe136, 86), // observed poisson 8x8 pcg-jacobi  [re-recorded: dots +1]
    (0xa168aedb4f4e98b6, 44), // observed poisson 8x8 pcg-ssor  [re-recorded: dots +1]
];
