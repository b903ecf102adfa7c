//! Golden digests of every distributed Krylov method and its observer
//! stream.
//!
//! `golden.rs` reaches cg, pcg-jacobi, bicgstab and the two protected
//! variants and hashes what the machine saw. This file adds what it
//! leaves open — BiCG, GMRES at two restart lengths, a non-symmetric
//! system, and what an [`IterObserver`] is told — over a row-block
//! layout, row cuts that leave a processor empty, and the column-wise
//! `Temp2d` layout, clean and under `golden.rs`'s six seeded fault
//! plans. A digest folds `Trace::to_jsonl()`, the clocks and counters,
//! the outcome's `Debug`, the solution bits, and every observer call in
//! the order it was made (each `IterSample` field by bits, each
//! `on_rollback` / `on_restart`). The constants were recorded on
//! `fa8f125`, the commit before the 22 entry points became one driver;
//! only [`run`] and the imports may change with the solver API. A mismatch prints the
//! whole recomputed table.

use hpf_core::{ColwiseCsc, DataArrayLayout, DistVector, RowwiseCsr};
use hpf_machine::{CostModel, FaultPlan, FaultRates, Machine, Topology};
use hpf_solvers::{
    solve, ColwiseOperator, CscVariant, DistOperator, DistPreconditioner, IterObserver, IterSample,
    JacobiPreconditioner, Krylov, RecoveryConfig, StopCriterion,
};
use hpf_sparse::{gen, CooMatrix, CscMatrix, CsrMatrix};

const NP: usize = 4;
const N: usize = 63;
const MAX_ITERS: usize = 400;
const STOP: StopCriterion = StopCriterion::RelativeResidual(1e-9);

#[derive(Clone, Copy)]
enum Method {
    Cg,
    PcgJacobi,
    Bicg,
    Bicgstab,
    Gmres(usize),
    CgProtected,
    PcgJacobiProtected,
    Cgs,
}

const METHODS: [(&str, Method); 8] = [
    ("cg", Method::Cg),
    ("pcg-jacobi", Method::PcgJacobi),
    ("bicg", Method::Bicg),
    ("bicgstab", Method::Bicgstab),
    ("gmres(5)", Method::Gmres(5)),
    ("gmres(20)", Method::Gmres(20)),
    ("cg-protected", Method::CgProtected),
    ("pcg-jacobi-protected", Method::PcgJacobiProtected),
];

/// Methods that joined the driver after the constants above were
/// recorded: their rows follow every row of [`METHODS`].
const JOINED: [(&str, Method); 1] = [("cgs", Method::Cgs)];

/// One solve: the solution (if any) and the `Debug` of what came back —
/// `SolveStats`, `(SolveStats, RecoveryStats)` for the protected
/// methods, or the error.
fn run(
    method: Method,
    m: &mut Machine,
    a: &dyn DistOperator,
    b: &[f64],
    obs: &mut dyn IterObserver,
) -> (Option<DistVector>, String) {
    let jacobi = match method {
        Method::PcgJacobi | Method::PcgJacobiProtected => {
            match JacobiPreconditioner::from_operator(a) {
                Ok(m) => Some(m),
                Err(e) => return (None, format!("{e:?}")),
            }
        }
        _ => None,
    };
    let precond = jacobi.as_ref().map(|m| m as &dyn DistPreconditioner);
    let krylov = match method {
        Method::Cg | Method::PcgJacobi => Krylov::Cg {
            precond,
            recovery: None,
        },
        Method::CgProtected | Method::PcgJacobiProtected => Krylov::Cg {
            precond,
            recovery: Some(RecoveryConfig::default()),
        },
        Method::Bicg => Krylov::Bicg,
        Method::Bicgstab => Krylov::Bicgstab,
        Method::Gmres(restart) => Krylov::Gmres { restart },
        Method::Cgs => Krylov::Cgs,
    };
    let solved = solve(m, a, b, krylov, STOP, MAX_ITERS, obs);
    match solved {
        Ok(s) => match s.recovery {
            Some(rec) => (Some(s.x), format!("{:?}", (s.stats, rec))),
            None => (Some(s.x), format!("{:?}", s.stats)),
        },
        Err(e) => (None, format!("{e:?}")),
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
    fn machine(&mut self, m: &Machine) {
        self.bytes(m.trace().to_jsonl().as_bytes());
        self.u64(m.elapsed().to_bits());
        self.u64(m.total_flops());
        self.u64(m.total_words_sent());
        self.u64(m.total_messages());
        self.f64s(m.clocks());
    }
}

/// Folds every observer call, in the order the solver made it.
struct Stream(Digest);

impl IterObserver for Stream {
    fn on_iteration(&mut self, s: &IterSample) {
        self.0.bytes(b"i");
        self.0.u64(s.iteration as u64);
        self.0.f64s(&[s.residual_norm, s.alpha, s.beta]);
        self.0.u64(s.flops);
        self.0.u64(s.comm_words);
        self.0.f64s(&[s.sim_time, s.predicted_time]);
        self.0.u64(s.rollbacks as u64);
    }
    fn on_rollback(&mut self, iteration: usize, reason: &str) {
        self.0.bytes(b"b");
        self.0.u64(iteration as u64);
        self.0.bytes(reason.as_bytes());
    }
    fn on_restart(&mut self, iteration: usize) {
        self.0.bytes(b"r");
        self.0.u64(iteration as u64);
    }
}

/// `golden.rs`'s SPD system: 63 unknowns, the last block short.
fn spd() -> CsrMatrix {
    gen::poisson_2d(9, 7)
}

/// The non-symmetric tridiagonal of `dist_solvers.rs`'s tests, same size.
fn nonsymmetric() -> CsrMatrix {
    let mut coo = CooMatrix::new(N, N);
    for i in 0..N {
        coo.push(i, i, 4.0).unwrap();
        if i + 1 < N {
            coo.push(i, i + 1, -1.5).unwrap();
            coo.push(i + 1, i, -0.5).unwrap();
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn layouts(a: &CsrMatrix) -> Vec<(&'static str, Box<dyn DistOperator>)> {
    vec![
        (
            "block/row-aligned",
            Box::new(RowwiseCsr::block(
                a.clone(),
                NP,
                DataArrayLayout::RowAligned,
            )),
        ),
        (
            // Processor 1 owns nothing.
            "cuts/row-aligned",
            Box::new(RowwiseCsr::with_row_cuts(
                a.clone(),
                NP,
                vec![0, 20, 20, 45, 63],
            )),
        ),
        (
            "colwise-temp2d",
            Box::new(ColwiseOperator {
                inner: ColwiseCsc::block(CscMatrix::from_csr(a), NP),
                variant: CscVariant::Temp2d,
            }),
        ),
    ]
}

fn plans() -> Vec<(String, Option<FaultPlan>)> {
    let rates = |bit_flip, crash| FaultRates {
        bit_flip,
        message_drop: 0.0,
        straggler: 0.0,
        crash,
    };
    let mut out = vec![("clean".to_string(), None)];
    for seed in [11u64, 12, 13] {
        let plan = FaultPlan::random(seed, NP, 400, rates(0.012, 0.0));
        out.push((format!("bitflip-{seed}"), Some(plan)));
    }
    for seed in [21u64, 22, 23] {
        let plan = FaultPlan::random(seed, NP, 400, rates(0.0, 0.012));
        out.push((format!("crash-{seed}"), Some(plan)));
    }
    out
}

fn solve_digest(method: Method, op: &dyn DistOperator, b: &[f64], plan: &Option<FaultPlan>) -> u64 {
    let mut m = Machine::new(NP, Topology::Hypercube, CostModel::mpp_1995());
    if let Some(p) = plan {
        m.set_fault_plan(p.clone());
    }
    let mut stream = Stream(Digest::new());
    let (x, outcome) = run(method, &mut m, op, b, &mut stream);
    let mut d = Digest::new();
    d.machine(&m);
    d.bytes(outcome.as_bytes());
    if let Some(x) = x {
        d.f64s(&x.to_global());
        for p in 0..NP {
            d.f64s(x.local(p));
        }
    }
    d.u64(stream.0 .0);
    d.0
}

/// Every method on the SPD system, then the methods that do not need
/// symmetry on the non-symmetric one.
fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let systems = [("spd", spd(), false), ("nonsym", nonsymmetric(), true)];
    for (sysname, a, general_only) in systems {
        let (_, b) = gen::rhs_for_known_solution(&a);
        let ops = layouts(&a);
        for (mname, method) in METHODS {
            let general = matches!(method, Method::Bicg | Method::Bicgstab | Method::Gmres(_));
            if general_only && !general {
                continue;
            }
            for (lname, op) in &ops {
                for (pname, plan) in plans() {
                    out.push((
                        format!("{sysname} {mname} {lname} {pname}"),
                        solve_digest(method, op.as_ref(), &b, &plan),
                    ));
                }
            }
        }
    }
    // Then every method in [`JOINED`], on both systems.
    for (sysname, a) in [("spd", spd()), ("nonsym", nonsymmetric())] {
        let (_, b) = gen::rhs_for_known_solution(&a);
        let ops = layouts(&a);
        for (mname, method) in JOINED {
            for (lname, op) in &ops {
                for (pname, plan) in plans() {
                    out.push((
                        format!("{sysname} {mname} {lname} {pname}"),
                        solve_digest(method, op.as_ref(), &b, &plan),
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn every_method_matches_its_recorded_digest() {
    let cases = cases();
    let got: Vec<u64> = cases.iter().map(|c| c.1).collect();
    if got != GOLDEN {
        let mut table = String::new();
        for (i, (name, d)) in cases.iter().enumerate() {
            let mark = match GOLDEN.get(i) {
                Some(g) if g == d => "",
                _ => "  // MISMATCH",
            };
            table.push_str(&format!("    0x{d:016x}, // {name}{mark}\n"));
        }
        panic!("simulated behaviour changed; recomputed digests:\n{table}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[u64] = &[
    0xa1433f0624ee8ef4, // spd cg block/row-aligned clean
    0x918ee857c1036791, // spd cg block/row-aligned bitflip-11
    0x4d8c38403848f219, // spd cg block/row-aligned bitflip-12
    0xe4fcc1f9c1fb8487, // spd cg block/row-aligned bitflip-13
    0x25f6e67f92ce21c3, // spd cg block/row-aligned crash-21
    0x33a9dcf992d03ba0, // spd cg block/row-aligned crash-22
    0x7bd9a566c76f7b60, // spd cg block/row-aligned crash-23
    0x9b384cc5df74db48, // spd cg cuts/row-aligned clean
    0xde43ccceb289e80b, // spd cg cuts/row-aligned bitflip-11
    0xcd134878cdd8db4c, // spd cg cuts/row-aligned bitflip-12
    0x97e0041d29b7ee21, // spd cg cuts/row-aligned bitflip-13
    0x0d872b959488d7d8, // spd cg cuts/row-aligned crash-21
    0x302e0423bfac696d, // spd cg cuts/row-aligned crash-22
    0x4b5a9cbdc854b5ea, // spd cg cuts/row-aligned crash-23
    0x3dfad602569bad59, // spd cg colwise-temp2d clean
    0x4defd1b3429c1349, // spd cg colwise-temp2d bitflip-11
    0x3f6bb9a9da9c957e, // spd cg colwise-temp2d bitflip-12
    0xb15376d8e03d7461, // spd cg colwise-temp2d bitflip-13
    0xc7c6cf07fbd38d02, // spd cg colwise-temp2d crash-21
    0x358aa336f97e58ba, // spd cg colwise-temp2d crash-22
    0x6261777009bcc7b9, // spd cg colwise-temp2d crash-23
    0x3fb0401dd45a2293, // spd pcg-jacobi block/row-aligned clean
    0x0edba12ad17034af, // spd pcg-jacobi block/row-aligned bitflip-11
    0x8d4b13281e14c46f, // spd pcg-jacobi block/row-aligned bitflip-12
    0x3f369f7130561d23, // spd pcg-jacobi block/row-aligned bitflip-13
    0x87736001abc48a61, // spd pcg-jacobi block/row-aligned crash-21
    0xc00563408f066a85, // spd pcg-jacobi block/row-aligned crash-22
    0xe34bc211b157a178, // spd pcg-jacobi block/row-aligned crash-23
    0xda9186cf80590b45, // spd pcg-jacobi cuts/row-aligned clean
    0x89fce33b86fcc4d6, // spd pcg-jacobi cuts/row-aligned bitflip-11
    0xcdd37204e50e4bef, // spd pcg-jacobi cuts/row-aligned bitflip-12
    0xee583c474a6846c0, // spd pcg-jacobi cuts/row-aligned bitflip-13
    0xcf522513d67da031, // spd pcg-jacobi cuts/row-aligned crash-21
    0x1688c5e7542d56d2, // spd pcg-jacobi cuts/row-aligned crash-22
    0x33429618222dacb9, // spd pcg-jacobi cuts/row-aligned crash-23
    0x838df7f770514a22, // spd pcg-jacobi colwise-temp2d clean
    0x0a86fca3c74ffcdb, // spd pcg-jacobi colwise-temp2d bitflip-11
    0xf48c1d8eb03e30cd, // spd pcg-jacobi colwise-temp2d bitflip-12
    0x13ddf1d209bd6d15, // spd pcg-jacobi colwise-temp2d bitflip-13
    0x4b4e20aff9480d6a, // spd pcg-jacobi colwise-temp2d crash-21
    0xff80696c6bb178b7, // spd pcg-jacobi colwise-temp2d crash-22
    0x59d98b8eef2041cc, // spd pcg-jacobi colwise-temp2d crash-23
    0x122acc397aa5e322, // spd bicg block/row-aligned clean
    0x6528905de8e06d5f, // spd bicg block/row-aligned bitflip-11
    0x78736cbdfba75554, // spd bicg block/row-aligned bitflip-12
    0x68b391a4bbc837d0, // spd bicg block/row-aligned bitflip-13
    0x5487af1954c9c3dd, // spd bicg block/row-aligned crash-21
    0x21f42f2b2b8cd316, // spd bicg block/row-aligned crash-22
    0x937f10a9ae8586cc, // spd bicg block/row-aligned crash-23
    0x7071ec9694e1c01a, // spd bicg cuts/row-aligned clean
    0x73cdf650110435b7, // spd bicg cuts/row-aligned bitflip-11
    0x131a9e2a5469a754, // spd bicg cuts/row-aligned bitflip-12
    0x8bbd7895658a353b, // spd bicg cuts/row-aligned bitflip-13
    0x6486fc512cb9746a, // spd bicg cuts/row-aligned crash-21
    0x6ba73927a8061271, // spd bicg cuts/row-aligned crash-22
    0xc41bff79ef5af013, // spd bicg cuts/row-aligned crash-23
    0x1bcf5985644d8314, // spd bicg colwise-temp2d clean
    0x6e2442605708803c, // spd bicg colwise-temp2d bitflip-11
    0x19fca87328268b9b, // spd bicg colwise-temp2d bitflip-12
    0x629b458f5f0b27b7, // spd bicg colwise-temp2d bitflip-13
    0x7b0042a4549d90d3, // spd bicg colwise-temp2d crash-21
    0xef7ff1fa3563dca6, // spd bicg colwise-temp2d crash-22
    0xb38f665b5ddbf923, // spd bicg colwise-temp2d crash-23
    0x2af1917e7144336c, // spd bicgstab block/row-aligned clean
    0xad4123c6f09d65f7, // spd bicgstab block/row-aligned bitflip-11
    0xccba0da8958c87bd, // spd bicgstab block/row-aligned bitflip-12
    0x7adcb06a23af8f7e, // spd bicgstab block/row-aligned bitflip-13
    0x7c7ff827352be8c1, // spd bicgstab block/row-aligned crash-21
    0xb02017e6d85c9cb7, // spd bicgstab block/row-aligned crash-22
    0x109f7037f80c0404, // spd bicgstab block/row-aligned crash-23
    0x7fff0214fd6e5a23, // spd bicgstab cuts/row-aligned clean
    0xa9efc62c629c1a1d, // spd bicgstab cuts/row-aligned bitflip-11
    0x1998e136ea22f91e, // spd bicgstab cuts/row-aligned bitflip-12
    0x9c7fb5a04ebe02d8, // spd bicgstab cuts/row-aligned bitflip-13
    0x4e3056fbd34c6fab, // spd bicgstab cuts/row-aligned crash-21
    0x0ad8a9e6f871fdb6, // spd bicgstab cuts/row-aligned crash-22
    0x1ab01b607e2010db, // spd bicgstab cuts/row-aligned crash-23
    0x9223640b4912ff7b, // spd bicgstab colwise-temp2d clean
    0xc8077f3ac537e461, // spd bicgstab colwise-temp2d bitflip-11
    0x71c77090fae411fa, // spd bicgstab colwise-temp2d bitflip-12
    0x3acb8900f7629e02, // spd bicgstab colwise-temp2d bitflip-13
    0xe39fdef49f8a7d4b, // spd bicgstab colwise-temp2d crash-21
    0xc3c70f0db116ed2f, // spd bicgstab colwise-temp2d crash-22
    0x0cacaa2e0ef35fd1, // spd bicgstab colwise-temp2d crash-23
    0x8754a122f42523fd, // spd gmres(5) block/row-aligned clean
    0x0e146ea8c2f33d18, // spd gmres(5) block/row-aligned bitflip-11
    0x3d100f72348be533, // spd gmres(5) block/row-aligned bitflip-12
    0xfaa1c75394edaa73, // spd gmres(5) block/row-aligned bitflip-13
    0x70dd5b5e724fb418, // spd gmres(5) block/row-aligned crash-21
    0xce4ce877dd77967e, // spd gmres(5) block/row-aligned crash-22
    0x4f47d2b6c1727ef3, // spd gmres(5) block/row-aligned crash-23
    0x3bb46d2f83bd3b64, // spd gmres(5) cuts/row-aligned clean
    0x94f5912967cc3a57, // spd gmres(5) cuts/row-aligned bitflip-11
    0x17e7ecc1ea162e2a, // spd gmres(5) cuts/row-aligned bitflip-12
    0xd00302f8cafaab09, // spd gmres(5) cuts/row-aligned bitflip-13
    0xe4cafd793e7045d6, // spd gmres(5) cuts/row-aligned crash-21
    0x8b13cbdcaa9c2608, // spd gmres(5) cuts/row-aligned crash-22
    0x03c9a611144ac606, // spd gmres(5) cuts/row-aligned crash-23
    0x42f246df91fbf969, // spd gmres(5) colwise-temp2d clean
    0x08f5423b2c42369e, // spd gmres(5) colwise-temp2d bitflip-11
    0x560b15ed307706c1, // spd gmres(5) colwise-temp2d bitflip-12
    0xd30db09062bfbd45, // spd gmres(5) colwise-temp2d bitflip-13
    0x9d8ea9451d887343, // spd gmres(5) colwise-temp2d crash-21
    0x82ff11f49c422cec, // spd gmres(5) colwise-temp2d crash-22
    0xadd60408774a027f, // spd gmres(5) colwise-temp2d crash-23
    0x803d25fd3e6632c9, // spd gmres(20) block/row-aligned clean
    0x4097599f401e9f94, // spd gmres(20) block/row-aligned bitflip-11
    0xe5cb061c2c7882f4, // spd gmres(20) block/row-aligned bitflip-12
    0x870996b8908564fd, // spd gmres(20) block/row-aligned bitflip-13
    0x70dd5b5e724fb418, // spd gmres(20) block/row-aligned crash-21
    0xce4ce877dd77967e, // spd gmres(20) block/row-aligned crash-22
    0x4f47d2b6c1727ef3, // spd gmres(20) block/row-aligned crash-23
    0x52fb55ef014d717b, // spd gmres(20) cuts/row-aligned clean
    0xab4209b694e00597, // spd gmres(20) cuts/row-aligned bitflip-11
    0x57ccf2e898970c43, // spd gmres(20) cuts/row-aligned bitflip-12
    0x789eb1705ca6127a, // spd gmres(20) cuts/row-aligned bitflip-13
    0xe4cafd793e7045d6, // spd gmres(20) cuts/row-aligned crash-21
    0x8b13cbdcaa9c2608, // spd gmres(20) cuts/row-aligned crash-22
    0x03c9a611144ac606, // spd gmres(20) cuts/row-aligned crash-23
    0x807894e4b974cffe, // spd gmres(20) colwise-temp2d clean
    0x86882850d3054a17, // spd gmres(20) colwise-temp2d bitflip-11
    0xdcbcf9fa5a95208b, // spd gmres(20) colwise-temp2d bitflip-12
    0x92fec2eb8ac55678, // spd gmres(20) colwise-temp2d bitflip-13
    0x9d8ea9451d887343, // spd gmres(20) colwise-temp2d crash-21
    0x82ff11f49c422cec, // spd gmres(20) colwise-temp2d crash-22
    0xadd60408774a027f, // spd gmres(20) colwise-temp2d crash-23
    0x505a2e654eeac4e0, // spd cg-protected block/row-aligned clean
    0xba1132ec04e523e3, // spd cg-protected block/row-aligned bitflip-11
    0xc255132b9ca25d80, // spd cg-protected block/row-aligned bitflip-12
    0x6ad16dd9a3b295ce, // spd cg-protected block/row-aligned bitflip-13
    0x8e4155978b3753c9, // spd cg-protected block/row-aligned crash-21
    0xcb098a679a6b5538, // spd cg-protected block/row-aligned crash-22
    0xf351fd1dd5505b67, // spd cg-protected block/row-aligned crash-23
    0x2d96861052f66e9a, // spd cg-protected cuts/row-aligned clean
    0xef23d571c646c4c6, // spd cg-protected cuts/row-aligned bitflip-11
    0xb06700b777162f8a, // spd cg-protected cuts/row-aligned bitflip-12
    0x3e158b96d617c035, // spd cg-protected cuts/row-aligned bitflip-13
    0x82948c3a8600f173, // spd cg-protected cuts/row-aligned crash-21
    0x9d3991c6703f925b, // spd cg-protected cuts/row-aligned crash-22
    0xbcea487a81d84500, // spd cg-protected cuts/row-aligned crash-23
    0x6d7885680d2f6536, // spd cg-protected colwise-temp2d clean
    0xf4d1a484693858a1, // spd cg-protected colwise-temp2d bitflip-11
    0x3ae31c670837e184, // spd cg-protected colwise-temp2d bitflip-12
    0xcb0ae0e8fb562b2f, // spd cg-protected colwise-temp2d bitflip-13
    0x12a77eedd0220b22, // spd cg-protected colwise-temp2d crash-21
    0x77f41d5424354ebc, // spd cg-protected colwise-temp2d crash-22
    0x5e076896684074fd, // spd cg-protected colwise-temp2d crash-23
    0xdd9770f293c2c7e6, // spd pcg-jacobi-protected block/row-aligned clean
    0xc60fde246206b62d, // spd pcg-jacobi-protected block/row-aligned bitflip-11
    0x2c6f9350f31a0227, // spd pcg-jacobi-protected block/row-aligned bitflip-12
    0x4009ccdd145a63ea, // spd pcg-jacobi-protected block/row-aligned bitflip-13
    0x6b3e6e53ffc84277, // spd pcg-jacobi-protected block/row-aligned crash-21
    0xd4573bc4f83a3ba2, // spd pcg-jacobi-protected block/row-aligned crash-22
    0xa2cc52037caf1872, // spd pcg-jacobi-protected block/row-aligned crash-23
    0xdf18a1c6b7bc6595, // spd pcg-jacobi-protected cuts/row-aligned clean
    0xf73353e088b6aac9, // spd pcg-jacobi-protected cuts/row-aligned bitflip-11
    0x5a195f5eed94199f, // spd pcg-jacobi-protected cuts/row-aligned bitflip-12
    0x1f02850b10f2dc2b, // spd pcg-jacobi-protected cuts/row-aligned bitflip-13
    0xf29795336645c1bf, // spd pcg-jacobi-protected cuts/row-aligned crash-21
    0x4f15b4e938711806, // spd pcg-jacobi-protected cuts/row-aligned crash-22
    0x2cbda4317a5eb066, // spd pcg-jacobi-protected cuts/row-aligned crash-23
    0xbde2cba9d8f51d5c, // spd pcg-jacobi-protected colwise-temp2d clean
    0x8513322e8e7eb7cd, // spd pcg-jacobi-protected colwise-temp2d bitflip-11
    0x7578fdac013128b5, // spd pcg-jacobi-protected colwise-temp2d bitflip-12
    0x0e9d01d52efe2cb8, // spd pcg-jacobi-protected colwise-temp2d bitflip-13
    0xa4581344216fdf27, // spd pcg-jacobi-protected colwise-temp2d crash-21
    0xd3df7bc942baa05d, // spd pcg-jacobi-protected colwise-temp2d crash-22
    0x0048d2c8cb086db8, // spd pcg-jacobi-protected colwise-temp2d crash-23
    0xd02f6a54d02f5b2f, // nonsym bicg block/row-aligned clean
    0xa75302acbbe36a44, // nonsym bicg block/row-aligned bitflip-11
    0x9b9712d635da15c2, // nonsym bicg block/row-aligned bitflip-12
    0x25f85bf70e6eaf2e, // nonsym bicg block/row-aligned bitflip-13
    0x0f0d431463415f8d, // nonsym bicg block/row-aligned crash-21
    0x1150dc4aa567e9cc, // nonsym bicg block/row-aligned crash-22
    0xab4ec28756984c75, // nonsym bicg block/row-aligned crash-23
    0x7a55b09a990a496b, // nonsym bicg cuts/row-aligned clean
    0x223c538a448bfdaf, // nonsym bicg cuts/row-aligned bitflip-11
    0xa62059cb05d0a6c7, // nonsym bicg cuts/row-aligned bitflip-12
    0xd45b6d50cacf5c4c, // nonsym bicg cuts/row-aligned bitflip-13
    0xa9e3096c0866be6b, // nonsym bicg cuts/row-aligned crash-21
    0xb5d9177d82792866, // nonsym bicg cuts/row-aligned crash-22
    0xf0b03587f8bc6080, // nonsym bicg cuts/row-aligned crash-23
    0x09e28c7afbc2b2bd, // nonsym bicg colwise-temp2d clean
    0x5543a764e9d20812, // nonsym bicg colwise-temp2d bitflip-11
    0x9a4b788c187128e2, // nonsym bicg colwise-temp2d bitflip-12
    0x8e20d9a35331342f, // nonsym bicg colwise-temp2d bitflip-13
    0x39a6cfd7dd0ce330, // nonsym bicg colwise-temp2d crash-21
    0x2e882f6a700dbbb1, // nonsym bicg colwise-temp2d crash-22
    0x64872065d44606ca, // nonsym bicg colwise-temp2d crash-23
    0x313f4e0b0b593592, // nonsym bicgstab block/row-aligned clean
    0xf86c5b75ef6d52ad, // nonsym bicgstab block/row-aligned bitflip-11
    0x968f5f58ac2f4a3a, // nonsym bicgstab block/row-aligned bitflip-12
    0xd028f7aa8616a149, // nonsym bicgstab block/row-aligned bitflip-13
    0x28a18fd46f364859, // nonsym bicgstab block/row-aligned crash-21
    0x00999ed687255711, // nonsym bicgstab block/row-aligned crash-22
    0x35d05efe46f6ed9d, // nonsym bicgstab block/row-aligned crash-23
    0x9a4af5159cdcee4a, // nonsym bicgstab cuts/row-aligned clean
    0x65222990c609c0b7, // nonsym bicgstab cuts/row-aligned bitflip-11
    0x39ff5ec5980b70fd, // nonsym bicgstab cuts/row-aligned bitflip-12
    0xc1ea214763a2133f, // nonsym bicgstab cuts/row-aligned bitflip-13
    0x77bf35087d968455, // nonsym bicgstab cuts/row-aligned crash-21
    0x1981e7f556cbad7a, // nonsym bicgstab cuts/row-aligned crash-22
    0x3d1772a6fbe1c616, // nonsym bicgstab cuts/row-aligned crash-23
    0xaa5bf73a8c695918, // nonsym bicgstab colwise-temp2d clean
    0xf9ab493324b6f3c0, // nonsym bicgstab colwise-temp2d bitflip-11
    0xef06fc41f9fe3b71, // nonsym bicgstab colwise-temp2d bitflip-12
    0x304e772f9acae863, // nonsym bicgstab colwise-temp2d bitflip-13
    0x2028e315eac213f5, // nonsym bicgstab colwise-temp2d crash-21
    0x808d14a9a1530eff, // nonsym bicgstab colwise-temp2d crash-22
    0x2536dd9e8e5053ae, // nonsym bicgstab colwise-temp2d crash-23
    0xb5d062fbd0370ab6, // nonsym gmres(5) block/row-aligned clean
    0x6c9efc57ea1de397, // nonsym gmres(5) block/row-aligned bitflip-11
    0x409eb1a55c71a4f9, // nonsym gmres(5) block/row-aligned bitflip-12
    0x0cd163003072f2ad, // nonsym gmres(5) block/row-aligned bitflip-13
    0xce4b87cc5d726f93, // nonsym gmres(5) block/row-aligned crash-21
    0xb11db86040038567, // nonsym gmres(5) block/row-aligned crash-22
    0x9fb9177c43003521, // nonsym gmres(5) block/row-aligned crash-23
    0x307de8769ecaec6a, // nonsym gmres(5) cuts/row-aligned clean
    0x8524d3d0b9c833da, // nonsym gmres(5) cuts/row-aligned bitflip-11
    0x2a796fafd89c1d2e, // nonsym gmres(5) cuts/row-aligned bitflip-12
    0xded7ee02af3bb4f3, // nonsym gmres(5) cuts/row-aligned bitflip-13
    0x7cd878cc6b3b63e5, // nonsym gmres(5) cuts/row-aligned crash-21
    0x8e2a2d62541ee3e5, // nonsym gmres(5) cuts/row-aligned crash-22
    0x6d0136c4382238b9, // nonsym gmres(5) cuts/row-aligned crash-23
    0x7e8dbc7ad05488ae, // nonsym gmres(5) colwise-temp2d clean
    0x7e94bf8ba520800c, // nonsym gmres(5) colwise-temp2d bitflip-11
    0x082c3629d5fe98c0, // nonsym gmres(5) colwise-temp2d bitflip-12
    0x9bc18149df848b4c, // nonsym gmres(5) colwise-temp2d bitflip-13
    0x87c2ede3ad50b15b, // nonsym gmres(5) colwise-temp2d crash-21
    0xc82e01425eb1fbda, // nonsym gmres(5) colwise-temp2d crash-22
    0x6df3326c98344373, // nonsym gmres(5) colwise-temp2d crash-23
    0x63bed9123fdfa91f, // nonsym gmres(20) block/row-aligned clean
    0xc9074d5776f9f072, // nonsym gmres(20) block/row-aligned bitflip-11
    0x920710def20632c9, // nonsym gmres(20) block/row-aligned bitflip-12
    0x7b4df04927c6788a, // nonsym gmres(20) block/row-aligned bitflip-13
    0xce4b87cc5d726f93, // nonsym gmres(20) block/row-aligned crash-21
    0xb11db86040038567, // nonsym gmres(20) block/row-aligned crash-22
    0x9fb9177c43003521, // nonsym gmres(20) block/row-aligned crash-23
    0x85471f3b2af61e6e, // nonsym gmres(20) cuts/row-aligned clean
    0x2f8f502f98a27c33, // nonsym gmres(20) cuts/row-aligned bitflip-11
    0x7b965f129a614e95, // nonsym gmres(20) cuts/row-aligned bitflip-12
    0x4d36442199bf3642, // nonsym gmres(20) cuts/row-aligned bitflip-13
    0x7cd878cc6b3b63e5, // nonsym gmres(20) cuts/row-aligned crash-21
    0x8e2a2d62541ee3e5, // nonsym gmres(20) cuts/row-aligned crash-22
    0x6d0136c4382238b9, // nonsym gmres(20) cuts/row-aligned crash-23
    0xd7fb72283543ead6, // nonsym gmres(20) colwise-temp2d clean
    0x3d8899e06fb9cf6b, // nonsym gmres(20) colwise-temp2d bitflip-11
    0x4cd2090b1be17a4d, // nonsym gmres(20) colwise-temp2d bitflip-12
    0x2f6721e96c31203b, // nonsym gmres(20) colwise-temp2d bitflip-13
    0x87c2ede3ad50b15b, // nonsym gmres(20) colwise-temp2d crash-21
    0xc82e01425eb1fbda, // nonsym gmres(20) colwise-temp2d crash-22
    0x6df3326c98344373, // nonsym gmres(20) colwise-temp2d crash-23
    0x79959fa1d1e689d1, // spd cgs block/row-aligned clean
    0xc71518122f9608e1, // spd cgs block/row-aligned bitflip-11
    0x08a9e826da2e977a, // spd cgs block/row-aligned bitflip-12
    0xdfbe9e3d89de3db7, // spd cgs block/row-aligned bitflip-13
    0x4e6dd67bfe9042fc, // spd cgs block/row-aligned crash-21
    0x56a460b3eed7d2d7, // spd cgs block/row-aligned crash-22
    0x2602fbb728af8ab9, // spd cgs block/row-aligned crash-23
    0x2fb6bae65e1caf69, // spd cgs cuts/row-aligned clean
    0xc52bb2ffb40a6b06, // spd cgs cuts/row-aligned bitflip-11
    0x90d4306b204c2248, // spd cgs cuts/row-aligned bitflip-12
    0x76a48e352e835102, // spd cgs cuts/row-aligned bitflip-13
    0x5074a913b41d11e6, // spd cgs cuts/row-aligned crash-21
    0x835fddb25e641abc, // spd cgs cuts/row-aligned crash-22
    0x608a8e178057471f, // spd cgs cuts/row-aligned crash-23
    0x3ef9139affdc519d, // spd cgs colwise-temp2d clean
    0x976af3ef3e9f39dd, // spd cgs colwise-temp2d bitflip-11
    0x7a88ee871f9eccc9, // spd cgs colwise-temp2d bitflip-12
    0x3d3473b564beeac0, // spd cgs colwise-temp2d bitflip-13
    0x270cc969cf4494f5, // spd cgs colwise-temp2d crash-21
    0x1d2c12b11bcb0d61, // spd cgs colwise-temp2d crash-22
    0x9e3f1710b53c3673, // spd cgs colwise-temp2d crash-23
    0x128cab905d4dbfd5, // nonsym cgs block/row-aligned clean
    0x77c60dd0e466eeb2, // nonsym cgs block/row-aligned bitflip-11
    0x77412d478704eb40, // nonsym cgs block/row-aligned bitflip-12
    0x23e9ded2f7ede730, // nonsym cgs block/row-aligned bitflip-13
    0x86459eac6ab14153, // nonsym cgs block/row-aligned crash-21
    0x4a8806eb7b1301bc, // nonsym cgs block/row-aligned crash-22
    0x79b27ac7534e7250, // nonsym cgs block/row-aligned crash-23
    0xab2575d33e4091cc, // nonsym cgs cuts/row-aligned clean
    0x2c38a10bbdd87a99, // nonsym cgs cuts/row-aligned bitflip-11
    0x21c140c2a7f7c02f, // nonsym cgs cuts/row-aligned bitflip-12
    0xf5410bed27f9e5a2, // nonsym cgs cuts/row-aligned bitflip-13
    0x437b5341ade0316d, // nonsym cgs cuts/row-aligned crash-21
    0x27ee747923e97dcc, // nonsym cgs cuts/row-aligned crash-22
    0xd88f9a841574685f, // nonsym cgs cuts/row-aligned crash-23
    0x5ec909caafe6ba32, // nonsym cgs colwise-temp2d clean
    0x4cb8d781a8de7ea2, // nonsym cgs colwise-temp2d bitflip-11
    0x2d3e1e399b729272, // nonsym cgs colwise-temp2d bitflip-12
    0xfeb0a51c91286a18, // nonsym cgs colwise-temp2d bitflip-13
    0x5ee2261ec55a7e41, // nonsym cgs colwise-temp2d crash-21
    0x91e0a03ca81b393c, // nonsym cgs colwise-temp2d crash-22
    0x2a5c57c935a2223b, // nonsym cgs colwise-temp2d crash-23
];
