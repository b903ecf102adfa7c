//! Golden digests of simulated behaviour.
//!
//! Everything the simulated machine reports is a contract: event order,
//! labels, span paths, clocks, counters and the solution bits. Each case
//! below hashes `Trace::to_jsonl()` plus the outcome of one solve (or
//! one product) and compares against a constant recorded on the commit
//! *before* the storage/kernels were reworked (PR 12), with and without
//! seeded fault plans. A mismatch prints the whole recomputed table.

use hpf_core::{ColwiseCsc, DataArrayLayout, DistVector, RowwiseCsr};
use hpf_dist::ArrayDescriptor;
use hpf_machine::{CostModel, FaultPlan, FaultRates, Machine, Topology};
use hpf_solvers::{
    bicgstab_distributed, cg_distributed, cg_distributed_protected, pcg_jacobi_distributed,
    pcg_jacobi_distributed_protected, ColwiseOperator, CscVariant, DistOperator, RecoveryConfig,
    StopCriterion,
};
use hpf_sparse::{gen, CscMatrix, CsrMatrix};

const NP: usize = 4;
const STOP: StopCriterion = StopCriterion::RelativeResidual(1e-9);

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

fn system() -> (CsrMatrix, Vec<f64>) {
    // 63 unknowns over 4 processors: the last block is short.
    let a = gen::poisson_2d(9, 7);
    let (_, b) = gen::rhs_for_known_solution(&a);
    (a, b)
}

/// Every (row layout, data-array layout) pair the constructors allow.
/// There is no constructor for cyclic rows; cyclic *operands* are covered
/// by the product cases below.
fn row_operators(a: &CsrMatrix) -> Vec<(&'static str, RowwiseCsr)> {
    vec![
        (
            "block/row-aligned",
            RowwiseCsr::block(a.clone(), NP, DataArrayLayout::RowAligned),
        ),
        (
            "block/element-block",
            RowwiseCsr::block(a.clone(), NP, DataArrayLayout::ElementBlock),
        ),
        (
            // Processor 1 owns nothing.
            "cuts/row-aligned",
            RowwiseCsr::with_row_cuts(a.clone(), NP, vec![0, 20, 20, 45, 63]),
        ),
    ]
}

fn plans() -> Vec<(String, Option<FaultPlan>)> {
    let flips = FaultRates {
        bit_flip: 0.012,
        message_drop: 0.0,
        straggler: 0.0,
        crash: 0.0,
    };
    let crashes = FaultRates {
        bit_flip: 0.0,
        message_drop: 0.0,
        straggler: 0.0,
        crash: 0.012,
    };
    let mut out = vec![("clean".to_string(), None)];
    for seed in [11u64, 12, 13] {
        out.push((
            format!("bitflip-{seed}"),
            Some(FaultPlan::random(seed, NP, 400, flips)),
        ));
    }
    for seed in [21u64, 22, 23] {
        out.push((
            format!("crash-{seed}"),
            Some(FaultPlan::random(seed, NP, 400, crashes)),
        ));
    }
    out
}

fn machine(plan: &Option<FaultPlan>) -> Machine {
    let mut m = Machine::new(NP, Topology::Hypercube, CostModel::mpp_1995());
    if let Some(p) = plan {
        m.set_fault_plan(p.clone());
    }
    m
}

type Solve = fn(&mut Machine, &dyn DistOperator, &[f64]) -> (Option<DistVector>, String);

fn solvers() -> Vec<(&'static str, Solve)> {
    fn outcome<S: std::fmt::Debug, E: std::fmt::Debug>(
        r: Result<(DistVector, S), E>,
    ) -> (Option<DistVector>, String) {
        match r {
            Ok((x, s)) => (Some(x), format!("{s:?}")),
            Err(e) => (None, format!("{e:?}")),
        }
    }
    vec![
        ("cg", |m, a, b| outcome(cg_distributed(m, a, b, STOP, 400))),
        ("pcg-jacobi", |m, a, b| {
            outcome(pcg_jacobi_distributed(m, a, b, STOP, 400))
        }),
        ("bicgstab", |m, a, b| {
            outcome(bicgstab_distributed(m, a, b, STOP, 400))
        }),
        ("pcg-jacobi-protected", |m, a, b| {
            outcome(
                pcg_jacobi_distributed_protected(m, a, b, STOP, 400, RecoveryConfig::default())
                    .map(|(x, s, r)| (x, (s, r))),
            )
        }),
        ("cg-protected", |m, a, b| {
            outcome(
                cg_distributed_protected(m, a, b, STOP, 400, RecoveryConfig::default())
                    .map(|(x, s, r)| (x, (s, r))),
            )
        }),
    ]
}

fn solve_digest(solve: Solve, op: &dyn DistOperator, b: &[f64], plan: &Option<FaultPlan>) -> u64 {
    let mut m = machine(plan);
    let (x, outcome) = solve(&mut m, op, b);
    let mut d = Digest::new();
    d.machine(&m);
    d.bytes(outcome.as_bytes());
    if let Some(x) = x {
        d.f64s(&x.to_global());
        for p in 0..NP {
            d.f64s(x.local(p));
        }
    }
    d.0
}

/// All solve cases, in a fixed order, with their names.
fn solve_cases() -> Vec<(String, u64)> {
    let (a, b) = system();
    let mut out = Vec::new();
    for (sname, solve) in solvers() {
        for (lname, op) in row_operators(&a) {
            for (pname, plan) in plans() {
                out.push((
                    format!("{sname} {lname} {pname}"),
                    solve_digest(solve, &op, &b, &plan),
                ));
            }
        }
    }
    // Scenario 2 operators share the vector storage and the cost caches.
    for (vname, variant) in [
        ("serial", CscVariant::Serial),
        ("temp2d", CscVariant::Temp2d),
    ] {
        let op = ColwiseOperator {
            inner: ColwiseCsc::block(CscMatrix::from_csr(&a), NP),
            variant,
        };
        for (sname, solve) in solvers() {
            for (pname, plan) in plans().into_iter().take(2) {
                out.push((
                    format!("{sname} colwise-{vname} {pname}"),
                    solve_digest(solve, &op, &b, &plan),
                ));
            }
        }
    }
    out
}

/// Single products with operands in every vector layout (the solvers
/// only ever build operands on the operator's own descriptor), with a
/// corruption armed before the product.
fn product_cases() -> Vec<(String, u64)> {
    let (a, b) = system();
    let n = b.len();
    let operands = [
        ("block", ArrayDescriptor::block(n, NP)),
        ("cyclic", ArrayDescriptor::cyclic(n, NP)),
        (
            "cyclic3",
            ArrayDescriptor::new(n, NP, hpf_dist::DistSpec::CyclicK(3)),
        ),
        (
            "cuts",
            ArrayDescriptor::new(
                n,
                NP,
                hpf_dist::DistSpec::IrregularCuts(vec![0, 0, 30, 31, 63]),
            ),
        ),
    ];
    let armed = [
        ("clean", None),
        (
            "flip",
            Some(FaultPlan::new().with_bit_flip(0, 1, 51, 1_000_003)),
        ),
        ("crash", Some(FaultPlan::new().with_crash(1, 2))),
    ];
    let mut out = Vec::new();
    for (dname, desc) in &operands {
        let p = DistVector::from_global(desc.clone(), &b);
        for (fname, plan) in &armed {
            for (lname, op) in row_operators(&a) {
                let mut m = machine(plan);
                let (q, stats) = op.matvec(&mut m, &p);
                let (qt, stats_t) = op.matvec_transpose(&mut m, &p);
                let mut d = Digest::new();
                d.machine(&m);
                d.bytes(format!("{stats:?}{stats_t:?}").as_bytes());
                d.f64s(&q.to_global());
                d.f64s(&qt.to_global());
                out.push((format!("matvec {lname} p={dname} {fname}"), d.0));
            }
            let csc = ColwiseCsc::block(CscMatrix::from_csr(&a), NP);
            let mut m = machine(plan);
            let (q1, s1) = csc.matvec_serial(&mut m, &p);
            let (q2, s2) = csc.matvec_temp2d(&mut m, &p);
            let (q3, s3) = csc.matvec_transpose_gather(&mut m, &p);
            let mut d = Digest::new();
            d.machine(&m);
            d.bytes(format!("{s1:?}{s2:?}{s3:?}").as_bytes());
            for q in [&q1, &q2, &q3] {
                d.f64s(&q.to_global());
                for pr in 0..NP {
                    d.f64s(q.local(pr));
                }
            }
            out.push((format!("matvec colwise p={dname} {fname}"), d.0));
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
fn solves_match_the_recorded_digests() {
    check(solve_cases(), SOLVE_GOLDEN);
}

#[test]
fn products_match_the_recorded_digests() {
    check(product_cases(), PRODUCT_GOLDEN);
}

#[rustfmt::skip]
const SOLVE_GOLDEN: &[u64] = &[
    0x26512dd3e2928093, // cg block/row-aligned clean
    0x9b5c7d317cdd603b, // cg block/row-aligned bitflip-11
    0xaf56bb0f281d1082, // cg block/row-aligned bitflip-12
    0x64f3ac491c52984a, // cg block/row-aligned bitflip-13
    0xb953d6575f5e9e20, // cg block/row-aligned crash-21
    0x99e9149d3a10035b, // cg block/row-aligned crash-22
    0xdd5b2c0ff4f2e664, // cg block/row-aligned crash-23
    0x7dd5c937de6ec16f, // cg block/element-block clean
    0x19a962ccda72f212, // cg block/element-block bitflip-11
    0x8d3b7b143f2001bf, // cg block/element-block bitflip-12
    0x546e970c417d2811, // cg block/element-block bitflip-13
    0x0688d0e565ecfabd, // cg block/element-block crash-21
    0xf0363461c43747dd, // cg block/element-block crash-22
    0xf88e27e005adc2e8, // cg block/element-block crash-23
    0xa61c339242a525bd, // cg cuts/row-aligned clean
    0x4f5ef22e2ab3287f, // cg cuts/row-aligned bitflip-11
    0xb7bf2e5c8990acfc, // cg cuts/row-aligned bitflip-12
    0x5bf953c8d797c991, // cg cuts/row-aligned bitflip-13
    0x285f2f638e18f93b, // cg cuts/row-aligned crash-21
    0x7dbf3f8c415f2bd6, // cg cuts/row-aligned crash-22
    0x08b1293e5c7dd041, // cg cuts/row-aligned crash-23
    0x5ca745108fbb587d, // pcg-jacobi block/row-aligned clean
    0x4f4f1aa1b5ed6ef3, // pcg-jacobi block/row-aligned bitflip-11
    0x9497226e974c4b0e, // pcg-jacobi block/row-aligned bitflip-12
    0xe3bc269106443a1a, // pcg-jacobi block/row-aligned bitflip-13
    0x8734810e42863a2b, // pcg-jacobi block/row-aligned crash-21
    0xbe129dd332f9ddd5, // pcg-jacobi block/row-aligned crash-22
    0x3c808184769d0131, // pcg-jacobi block/row-aligned crash-23
    0x6961de967fa68de3, // pcg-jacobi block/element-block clean
    0x062bd19a29e4478b, // pcg-jacobi block/element-block bitflip-11
    0x5055c08561ef4e95, // pcg-jacobi block/element-block bitflip-12
    0xf16406795355c675, // pcg-jacobi block/element-block bitflip-13
    0x0ca308101b6ce1d4, // pcg-jacobi block/element-block crash-21
    0xbb0a0d3d4341a80c, // pcg-jacobi block/element-block crash-22
    0x9a313044237b1b3c, // pcg-jacobi block/element-block crash-23
    0x9dfc2784ae579031, // pcg-jacobi cuts/row-aligned clean
    0x4b0f51b106603577, // pcg-jacobi cuts/row-aligned bitflip-11
    0x2252f9f41e7020e7, // pcg-jacobi cuts/row-aligned bitflip-12
    0x6101802fdaf47b4b, // pcg-jacobi cuts/row-aligned bitflip-13
    0xb56c17b197ebb4db, // pcg-jacobi cuts/row-aligned crash-21
    0x416ff5bdd7ef793f, // pcg-jacobi cuts/row-aligned crash-22
    0x8bf7f82062625ef0, // pcg-jacobi cuts/row-aligned crash-23
    0xdf37bc84f814c07e, // bicgstab block/row-aligned clean
    0x18c1d7cfc977a820, // bicgstab block/row-aligned bitflip-11
    0xe0e6c3574a245237, // bicgstab block/row-aligned bitflip-12
    0x7da8603da6f97167, // bicgstab block/row-aligned bitflip-13
    0x2ff002449bdb4fcc, // bicgstab block/row-aligned crash-21
    0x48f8701edb17e460, // bicgstab block/row-aligned crash-22
    0x07d70b01a7d26bdd, // bicgstab block/row-aligned crash-23
    0xd5f4ccc357f64978, // bicgstab block/element-block clean
    0x9653822f8fdb650a, // bicgstab block/element-block bitflip-11
    0xd3054a6dc447c2bd, // bicgstab block/element-block bitflip-12
    0xa1567aaa63eb6646, // bicgstab block/element-block bitflip-13
    0x62077418987565d7, // bicgstab block/element-block crash-21
    0xfdbf636166629055, // bicgstab block/element-block crash-22
    0x8e6ced2beb976b50, // bicgstab block/element-block crash-23
    0xb931a500f4d9a15a, // bicgstab cuts/row-aligned clean
    0x1197875997830d78, // bicgstab cuts/row-aligned bitflip-11
    0x51a92e07cc51f7ec, // bicgstab cuts/row-aligned bitflip-12
    0x5946e643ac7767cf, // bicgstab cuts/row-aligned bitflip-13
    0x69e476c08edef65c, // bicgstab cuts/row-aligned crash-21
    0x387699d662b0636f, // bicgstab cuts/row-aligned crash-22
    0x1c825b17a4a10d8a, // bicgstab cuts/row-aligned crash-23
    0x41674a4c99e42242, // pcg-jacobi-protected block/row-aligned clean
    0xd39090f6654d8bed, // pcg-jacobi-protected block/row-aligned bitflip-11
    0x35d862b6ddf036da, // pcg-jacobi-protected block/row-aligned bitflip-12
    0xd68d6bd4271ad38e, // pcg-jacobi-protected block/row-aligned bitflip-13
    0xeb671d84194c6625, // pcg-jacobi-protected block/row-aligned crash-21
    0x8ddf6b2adf065b0b, // pcg-jacobi-protected block/row-aligned crash-22
    0xe4a6e46a2d672598, // pcg-jacobi-protected block/row-aligned crash-23
    0x319c7cfe2e844d8b, // pcg-jacobi-protected block/element-block clean
    0x7c6e9f37254fafea, // pcg-jacobi-protected block/element-block bitflip-11
    0x42d30300a72019c2, // pcg-jacobi-protected block/element-block bitflip-12
    0xdafd0773f1958de0, // pcg-jacobi-protected block/element-block bitflip-13
    0x9fa5debcf7ba8e1c, // pcg-jacobi-protected block/element-block crash-21
    0x0faa3c077d309558, // pcg-jacobi-protected block/element-block crash-22
    0xd62e052d745e6248, // pcg-jacobi-protected block/element-block crash-23
    0x745e1a88592353ca, // pcg-jacobi-protected cuts/row-aligned clean
    0xa405df35dbfc124c, // pcg-jacobi-protected cuts/row-aligned bitflip-11
    0xcacc054179b9187d, // pcg-jacobi-protected cuts/row-aligned bitflip-12
    0xe73df299c9bc8b74, // pcg-jacobi-protected cuts/row-aligned bitflip-13
    0x94cd143fba53ae1d, // pcg-jacobi-protected cuts/row-aligned crash-21
    0x34c52e22ed269134, // pcg-jacobi-protected cuts/row-aligned crash-22
    0xc091e5fa6c6f6ef7, // pcg-jacobi-protected cuts/row-aligned crash-23
    0xd89542432bf3be84, // cg-protected block/row-aligned clean
    0xe58cf666de981673, // cg-protected block/row-aligned bitflip-11
    0x544de20e8bd25196, // cg-protected block/row-aligned bitflip-12
    0x6381665c027a960f, // cg-protected block/row-aligned bitflip-13
    0x50468f068a296db5, // cg-protected block/row-aligned crash-21
    0x6dc3e0863115b46c, // cg-protected block/row-aligned crash-22
    0x11464ac55677abdd, // cg-protected block/row-aligned crash-23
    0x8d5162cccbd226dc, // cg-protected block/element-block clean
    0x38fd21c49bb2e718, // cg-protected block/element-block bitflip-11
    0x1b77403af6cb18e3, // cg-protected block/element-block bitflip-12
    0x68e8eb2be121e92a, // cg-protected block/element-block bitflip-13
    0x058b209cb7bba410, // cg-protected block/element-block crash-21
    0x4b5eb7be3607dfa4, // cg-protected block/element-block crash-22
    0xbc1e801d6dfeff38, // cg-protected block/element-block crash-23
    0x7a4d0270a982823e, // cg-protected cuts/row-aligned clean
    0x05082343de94603b, // cg-protected cuts/row-aligned bitflip-11
    0xffc07bc1752aff22, // cg-protected cuts/row-aligned bitflip-12
    0x90f72a38dc23ac22, // cg-protected cuts/row-aligned bitflip-13
    0x139afcb9e750b595, // cg-protected cuts/row-aligned crash-21
    0x22dd254d309d0ca1, // cg-protected cuts/row-aligned crash-22
    0xaa3ba61a9d6a4d77, // cg-protected cuts/row-aligned crash-23
    0x18c7b0365b694db2, // cg colwise-serial clean
    0x3da940b9ddbebea2, // cg colwise-serial bitflip-11
    0xaa7db0ca22e23e9e, // pcg-jacobi colwise-serial clean
    0xa1a7a84e609054aa, // pcg-jacobi colwise-serial bitflip-11
    0x83f25550e2c79eea, // bicgstab colwise-serial clean
    0xbfb0202e0c5b1416, // bicgstab colwise-serial bitflip-11
    0x9d6c9f053d418c2c, // pcg-jacobi-protected colwise-serial clean
    0xb0a972a2bf415737, // pcg-jacobi-protected colwise-serial bitflip-11
    0x91d244dd93e5443a, // cg-protected colwise-serial clean
    0x645472bb71c9a8e0, // cg-protected colwise-serial bitflip-11
    0xe82b076680cad771, // cg colwise-temp2d clean
    0x5174fb46b57112a9, // cg colwise-temp2d bitflip-11
    0x77896a9094712566, // pcg-jacobi colwise-temp2d clean
    0xd0e22a4d4c60e809, // pcg-jacobi colwise-temp2d bitflip-11
    0x841b00494bbe9a50, // bicgstab colwise-temp2d clean
    0x175ed9c65dba4cd4, // bicgstab colwise-temp2d bitflip-11
    0x2205467bca6b846c, // pcg-jacobi-protected colwise-temp2d clean
    0x7f0e7befb07e8de7, // pcg-jacobi-protected colwise-temp2d bitflip-11
    0xc23fed62fd32ed2b, // cg-protected colwise-temp2d clean
    0x62df02cf291086d1, // cg-protected colwise-temp2d bitflip-11
];

#[rustfmt::skip]
const PRODUCT_GOLDEN: &[u64] = &[
    0xd6864ebf40d2648f, // matvec block/row-aligned p=block clean
    0x840c67477fc684e3, // matvec block/element-block p=block clean
    0x4e80732e990114ca, // matvec cuts/row-aligned p=block clean
    0x42c46e3289ccbcc9, // matvec colwise p=block clean
    0x3724168d935dbc18, // matvec block/row-aligned p=block flip
    0x0aece6ad411d8e7c, // matvec block/element-block p=block flip
    0xb11f57588cd8577d, // matvec cuts/row-aligned p=block flip
    0xb46f3b692ed53336, // matvec colwise p=block flip
    0x2b3bf86dc7730df0, // matvec block/row-aligned p=block crash
    0x162de89bc3131043, // matvec block/element-block p=block crash
    0x58c2c8784c741d57, // matvec cuts/row-aligned p=block crash
    0x1f21ed6a22031108, // matvec colwise p=block crash
    0xd6864ebf40d2648f, // matvec block/row-aligned p=cyclic clean
    0x840c67477fc684e3, // matvec block/element-block p=cyclic clean
    0x4e80732e990114ca, // matvec cuts/row-aligned p=cyclic clean
    0xf1c978d90059aacd, // matvec colwise p=cyclic clean
    0x3724168d935dbc18, // matvec block/row-aligned p=cyclic flip
    0x0aece6ad411d8e7c, // matvec block/element-block p=cyclic flip
    0xb11f57588cd8577d, // matvec cuts/row-aligned p=cyclic flip
    0xdf52f484568b26aa, // matvec colwise p=cyclic flip
    0x2b3bf86dc7730df0, // matvec block/row-aligned p=cyclic crash
    0x162de89bc3131043, // matvec block/element-block p=cyclic crash
    0x58c2c8784c741d57, // matvec cuts/row-aligned p=cyclic crash
    0xd6b1a731e4db2034, // matvec colwise p=cyclic crash
    0xd6864ebf40d2648f, // matvec block/row-aligned p=cyclic3 clean
    0x840c67477fc684e3, // matvec block/element-block p=cyclic3 clean
    0x4e80732e990114ca, // matvec cuts/row-aligned p=cyclic3 clean
    0x4eb3747b0e88ae7d, // matvec colwise p=cyclic3 clean
    0x3724168d935dbc18, // matvec block/row-aligned p=cyclic3 flip
    0x0aece6ad411d8e7c, // matvec block/element-block p=cyclic3 flip
    0xb11f57588cd8577d, // matvec cuts/row-aligned p=cyclic3 flip
    0x65f050e6370cbd02, // matvec colwise p=cyclic3 flip
    0x2b3bf86dc7730df0, // matvec block/row-aligned p=cyclic3 crash
    0x162de89bc3131043, // matvec block/element-block p=cyclic3 crash
    0x58c2c8784c741d57, // matvec cuts/row-aligned p=cyclic3 crash
    0x8436009001d8c424, // matvec colwise p=cyclic3 crash
    0xd6864ebf40d2648f, // matvec block/row-aligned p=cuts clean
    0x840c67477fc684e3, // matvec block/element-block p=cuts clean
    0x4e80732e990114ca, // matvec cuts/row-aligned p=cuts clean
    0x42c46e3289ccbcc9, // matvec colwise p=cuts clean
    0x3724168d935dbc18, // matvec block/row-aligned p=cuts flip
    0x0aece6ad411d8e7c, // matvec block/element-block p=cuts flip
    0xb11f57588cd8577d, // matvec cuts/row-aligned p=cuts flip
    0xb46f3b692ed53336, // matvec colwise p=cuts flip
    0x2b3bf86dc7730df0, // matvec block/row-aligned p=cuts crash
    0x162de89bc3131043, // matvec block/element-block p=cuts crash
    0x58c2c8784c741d57, // matvec cuts/row-aligned p=cuts crash
    0x1f21ed6a22031108, // matvec colwise p=cuts crash
];
