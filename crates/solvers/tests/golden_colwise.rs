//! Golden digests of the column-wise `(*,BLOCK)` layout where
//! `golden.rs` does not reach: irregular column cuts with a processor
//! that owns nothing, and NP = 64 on `poisson_2d(48, 48)` (the size the
//! wall-clock benchmark runs), for both Scenario 2 variants, clean and
//! under seeded bit-flip and crash plans. Same digest as `golden.rs`
//! (`Trace::to_jsonl()`, clocks, counters, outcome, solution bits); the
//! constants were recorded on `86e125c`, the commit before the `Temp2d`
//! product stopped walking `N_P·n` entries. A mismatch prints the whole
//! recomputed table.

use hpf_core::{ColwiseCsc, DistVector};
use hpf_dist::{ArrayDescriptor, DistSpec};
use hpf_machine::{CostModel, FaultPlan, FaultRates, Machine, Topology};
use hpf_solvers::{
    cg_distributed, cg_distributed_protected, ColwiseOperator, CscVariant, DistOperator,
    RecoveryConfig, StopCriterion,
};
use hpf_sparse::{gen, CscMatrix, CsrMatrix};

const STOP: StopCriterion = StopCriterion::RelativeResidual(1e-9);
const VARIANTS: [(&str, CscVariant); 2] = [
    ("serial", CscVariant::Serial),
    ("temp2d", CscVariant::Temp2d),
];

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
    fn vector(&mut self, v: &DistVector) {
        self.f64s(&v.to_global());
        for p in 0..v.descriptor().np() {
            self.f64s(v.local(p));
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

/// A column layout with its right-hand side and processor count.
struct Layout {
    name: &'static str,
    np: usize,
    b: Vec<f64>,
    csc: ColwiseCsc,
}

fn layouts() -> Vec<Layout> {
    let layout = |name, np, a: CsrMatrix, csc: fn(CscMatrix, usize) -> ColwiseCsc| {
        let (_, b) = gen::rhs_for_known_solution(&a);
        let csc = csc(CscMatrix::from_csr(&a), np);
        Layout { name, np, b, csc }
    };
    vec![
        // 63 unknowns over 4 processors; processor 1 owns no column.
        layout("cuts-np4", 4, gen::poisson_2d(9, 7), |m, np| {
            ColwiseCsc::with_col_cuts(m, np, vec![0, 20, 20, 45, 63])
        }),
        layout("block-np64", 64, gen::poisson_2d(48, 48), ColwiseCsc::block),
    ]
}

fn plans(np: usize) -> Vec<(String, Option<FaultPlan>)> {
    let rates = |bit_flip, crash| FaultRates {
        bit_flip,
        message_drop: 0.0,
        straggler: 0.0,
        crash,
    };
    let mut out = vec![("clean".to_string(), None)];
    for seed in [11u64, 12, 13] {
        let plan = FaultPlan::random(seed, np, 400, rates(0.012, 0.0));
        out.push((format!("bitflip-{seed}"), Some(plan)));
    }
    for seed in [21u64, 22, 23] {
        let plan = FaultPlan::random(seed, np, 400, rates(0.0, 0.012));
        out.push((format!("crash-{seed}"), Some(plan)));
    }
    out
}

fn machine(np: usize, plan: &Option<FaultPlan>) -> Machine {
    let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
    if let Some(p) = plan {
        m.set_fault_plan(p.clone());
    }
    m
}

type Solve = fn(&mut Machine, &dyn DistOperator, &[f64]) -> (Option<DistVector>, String);

const SOLVERS: [(&str, Solve); 2] = [
    ("cg", |m, a, b| match cg_distributed(m, a, b, STOP, 400) {
        Ok((x, s)) => (Some(x), format!("{s:?}")),
        Err(e) => (None, format!("{e:?}")),
    }),
    ("cg-protected", |m, a, b| {
        match cg_distributed_protected(m, a, b, STOP, 400, RecoveryConfig::default()) {
            Ok((x, s, r)) => (Some(x), format!("{:?}", (s, r))),
            Err(e) => (None, format!("{e:?}")),
        }
    }),
];

fn solve_cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for layout in layouts() {
        for (vname, variant) in VARIANTS {
            let op = ColwiseOperator {
                inner: layout.csc.clone(),
                variant,
            };
            for (sname, solve) in SOLVERS {
                for (pname, plan) in plans(layout.np) {
                    let mut m = machine(layout.np, &plan);
                    let (x, outcome) = solve(&mut m, &op, &layout.b);
                    let mut d = Digest::new();
                    d.machine(&m);
                    d.bytes(outcome.as_bytes());
                    if let Some(x) = x {
                        d.vector(&x);
                    }
                    out.push((format!("{sname} {} {vname} {pname}", layout.name), d.0));
                }
            }
        }
    }
    out
}

/// The three products on one machine, operands in every vector layout
/// (the columns' own descriptor, cyclic and cyclic(3)), with a
/// corruption armed before the first product.
fn product_cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for layout in layouts() {
        let (n, np) = (layout.b.len(), layout.np);
        let operands = [
            ("cols", layout.csc.col_descriptor().clone()),
            ("cyclic", ArrayDescriptor::cyclic(n, np)),
            ("cyclic3", ArrayDescriptor::new(n, np, DistSpec::CyclicK(3))),
        ];
        let armed = [
            ("clean", None),
            (
                "flip",
                Some(FaultPlan::new().with_bit_flip(0, 1, 51, 1_000_003)),
            ),
            ("crash", Some(FaultPlan::new().with_crash(1, 2))),
        ];
        for (dname, desc) in &operands {
            let p = DistVector::from_global(desc.clone(), &layout.b);
            for (fname, plan) in &armed {
                let mut m = machine(np, plan);
                let (q1, s1) = layout.csc.matvec_serial(&mut m, &p);
                let (q2, s2) = layout.csc.matvec_temp2d(&mut m, &p);
                let (q3, s3) = layout.csc.matvec_transpose_gather(&mut m, &p);
                let mut d = Digest::new();
                d.machine(&m);
                d.bytes(format!("{s1:?}{s2:?}{s3:?}").as_bytes());
                for q in [&q1, &q2, &q3] {
                    d.vector(q);
                }
                out.push((format!("matvec {} p={dname} {fname}", layout.name), d.0));
            }
        }
    }
    out
}

fn check(cases: Vec<(String, u64)>, golden: &[u64]) {
    let got: Vec<u64> = cases.iter().map(|c| c.1).collect();
    if got != golden {
        let mut table = String::new();
        for (i, (name, d)) in cases.iter().enumerate() {
            let mark = match golden.get(i) {
                Some(g) if g == d => "",
                _ => "  // MISMATCH",
            };
            table.push_str(&format!("    0x{d:016x}, // {name}{mark}\n"));
        }
        panic!("simulated behaviour changed; recomputed digests:\n{table}");
    }
}

#[test]
fn colwise_solves_match_the_recorded_digests() {
    check(solve_cases(), SOLVE_GOLDEN);
}

#[test]
fn colwise_products_match_the_recorded_digests() {
    check(product_cases(), PRODUCT_GOLDEN);
}

#[rustfmt::skip]
const SOLVE_GOLDEN: &[u64] = &[
    0x2e2e76d7605040aa, // cg cuts-np4 serial clean
    0xd10537761a13e34d, // cg cuts-np4 serial bitflip-11
    0x1591a06e8262bdee, // cg cuts-np4 serial bitflip-12
    0xd73b865f6f19757b, // cg cuts-np4 serial bitflip-13
    0x3b39e1f500a8fde7, // cg cuts-np4 serial crash-21
    0xa72f552f921a774a, // cg cuts-np4 serial crash-22
    0xe1269feb3e94aa2c, // cg cuts-np4 serial crash-23
    0xe53c9f54fe597ab7, // cg-protected cuts-np4 serial clean
    0x293c2dde6da11605, // cg-protected cuts-np4 serial bitflip-11
    0x186b6347be5da865, // cg-protected cuts-np4 serial bitflip-12
    0xa53b5c5c10c9d255, // cg-protected cuts-np4 serial bitflip-13
    0xa54d916a367f6ea1, // cg-protected cuts-np4 serial crash-21
    0xf7c1b4564c59f0bc, // cg-protected cuts-np4 serial crash-22
    0x2b4f411ac4da37ce, // cg-protected cuts-np4 serial crash-23
    0x90c70cda8233da72, // cg cuts-np4 temp2d clean
    0x8d18277f48df9ddf, // cg cuts-np4 temp2d bitflip-11
    0x4c368c0f4bf9c77d, // cg cuts-np4 temp2d bitflip-12
    0x26a6d4328e857222, // cg cuts-np4 temp2d bitflip-13
    0x12e541d6e29d1944, // cg cuts-np4 temp2d crash-21
    0xeeb1817da7a8b2bf, // cg cuts-np4 temp2d crash-22
    0x6f71459e81c58c03, // cg cuts-np4 temp2d crash-23
    0x480a203c6093912d, // cg-protected cuts-np4 temp2d clean
    0xdc023cb94d94011d, // cg-protected cuts-np4 temp2d bitflip-11
    0x47f779a440066f35, // cg-protected cuts-np4 temp2d bitflip-12
    0xf576db910d1b4d8f, // cg-protected cuts-np4 temp2d bitflip-13
    0x9fb7b6b0f7afe477, // cg-protected cuts-np4 temp2d crash-21
    0xa437a49ae1aaead4, // cg-protected cuts-np4 temp2d crash-22
    0xaf3cea38ded1144c, // cg-protected cuts-np4 temp2d crash-23
    0xf40fd80dc4b4fd71, // cg block-np64 serial clean
    0x1f0d131008c530cc, // cg block-np64 serial bitflip-11
    0x7a0ef5b81b3ee4ae, // cg block-np64 serial bitflip-12
    0xc3e24d2620a593bc, // cg block-np64 serial bitflip-13
    0xf0a0deef0319ae22, // cg block-np64 serial crash-21
    0x5d4d85ce493ce15b, // cg block-np64 serial crash-22
    0xd898354c3a9f3f61, // cg block-np64 serial crash-23
    0xf58ef1f78356f19b, // cg-protected block-np64 serial clean
    0xb540cc963447768b, // cg-protected block-np64 serial bitflip-11
    0x5e9c1fd0930f14d3, // cg-protected block-np64 serial bitflip-12
    0x7f5092c8dfd0b7ec, // cg-protected block-np64 serial bitflip-13
    0x6cddc2a79057961b, // cg-protected block-np64 serial crash-21
    0x240a9edb3761ff34, // cg-protected block-np64 serial crash-22
    0x89e99aea49f9067f, // cg-protected block-np64 serial crash-23
    0x8aedf9b9353c797d, // cg block-np64 temp2d clean
    0xe34aa1d2b9711f90, // cg block-np64 temp2d bitflip-11
    0x4878a088044564d6, // cg block-np64 temp2d bitflip-12
    0x19a65dc312cc812f, // cg block-np64 temp2d bitflip-13
    0x70e552bba5235eee, // cg block-np64 temp2d crash-21
    0x5e002da56c82cfaa, // cg block-np64 temp2d crash-22
    0x15af70ff01ff913e, // cg block-np64 temp2d crash-23
    0x89ae75240f953876, // cg-protected block-np64 temp2d clean
    0x69e5cec1b67693c5, // cg-protected block-np64 temp2d bitflip-11
    0xea1b51b3a090ea67, // cg-protected block-np64 temp2d bitflip-12
    0x1033d8ab3cfbfc30, // cg-protected block-np64 temp2d bitflip-13
    0x9d7db4986c988470, // cg-protected block-np64 temp2d crash-21
    0xad3fa78250b2f5fd, // cg-protected block-np64 temp2d crash-22
    0x34d2a9c1dc141100, // cg-protected block-np64 temp2d crash-23
];

#[rustfmt::skip]
const PRODUCT_GOLDEN: &[u64] = &[
    0xbfc8e2143544d7fa, // matvec cuts-np4 p=cols clean
    0x24c459ea9d1cce9f, // matvec cuts-np4 p=cols flip
    0x6f266f4cfe1c657f, // matvec cuts-np4 p=cols crash
    0xd315df3d18e86346, // matvec cuts-np4 p=cyclic clean
    0xa5571cc6536675db, // matvec cuts-np4 p=cyclic flip
    0x2e32aa4e1319bc3b, // matvec cuts-np4 p=cyclic crash
    0x52c705c5456c56b6, // matvec cuts-np4 p=cyclic3 clean
    0x1ce0162e82e373b3, // matvec cuts-np4 p=cyclic3 flip
    0xe842ebc8b2778613, // matvec cuts-np4 p=cyclic3 crash
    0xeadd407e074233a9, // matvec block-np64 p=cols clean
    0x45e7a01462838ec6, // matvec block-np64 p=cols flip
    0x674ac675e7259567, // matvec block-np64 p=cols crash
    0x8ff2cdd7c363a809, // matvec block-np64 p=cyclic clean
    0x1241e2e4bf8e2cfe, // matvec block-np64 p=cyclic flip
    0x71c303e573b9cdb7, // matvec block-np64 p=cyclic crash
    0x16325317679b3ea9, // matvec block-np64 p=cyclic3 clean
    0x95d7f02926084226, // matvec block-np64 p=cyclic3 flip
    0xd4801f2784e906e7, // matvec block-np64 p=cyclic3 crash
];
