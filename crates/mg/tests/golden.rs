//! Golden digests of what an MG-PCG solve reports.
//!
//! The V-cycle's kernels may be rewritten; what the simulated machine
//! saw may not change: event order, labels, span paths, clocks, counters,
//! the iteration count and the solution bits. Each case hashes
//! `Trace::to_jsonl()` plus the outcome of one solve at
//! `TraceLevel::Full` and compares against a constant recorded on the
//! commit *before* the cycle was reworked (`c58d041`), for 2-D and 3-D
//! hierarchies of 2–4 levels over 1–8 processors (uneven blocks, and
//! coarsest levels with fewer rows than processors, so some blocks are
//! empty), plain and protected under seeded fault plans. The same solve
//! at `TraceLevel::Summary` must fold to the digest of the `Full` trace.
//! A mismatch prints the whole recomputed table.

use hpf_machine::{CostModel, Digest, FaultPlan, FaultRates, Machine, Topology, TraceLevel};
use hpf_mg::{
    pcg_mg_distributed, pcg_mg_distributed_protected, GridDims, MgHierarchy, MgPreconditioner,
};
use hpf_solvers::{RecoveryConfig, StopCriterion};
use hpf_sparse::gen;

const STOP: StopCriterion = StopCriterion::RelativeResidual(1e-9);
const MAX_ITERS: usize = 300;
const NPS: [usize; 5] = [1, 3, 4, 5, 8];

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
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

/// `(name, grid, levels)`. The last two coarsen down to 1 and 3 rows:
/// fewer than every processor count above 1 and 3.
fn hierarchies() -> Vec<(&'static str, GridDims, usize)> {
    vec![
        ("2d 15x15 L2", GridDims::d2(15, 15), 2),
        ("2d 31x31 L3", GridDims::d2(31, 31), 3),
        ("2d 31x31 L4", GridDims::d2(31, 31), 4),
        ("3d 7x7x7 L2", GridDims::d3(7, 7, 7), 2),
        ("3d 15x15x15 L3", GridDims::d3(15, 15, 15), 3),
        ("3d 7x7x7 L3", GridDims::d3(7, 7, 7), 3),
        ("2d 15x7 L3", GridDims::d2(15, 7), 3),
    ]
}

#[derive(Clone, Copy)]
enum Run {
    Plain,
    /// One planted bit flip, large enough to force a rollback.
    ProtectedFlip,
    /// `FaultPlan::random` with transient rates.
    ProtectedRandom,
}

const RUNS: [(&str, Run); 3] = [
    ("plain", Run::Plain),
    ("protected flip", Run::ProtectedFlip),
    ("protected random", Run::ProtectedRandom),
];

fn machine(np: usize, run: Run, level: TraceLevel) -> Machine {
    let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
    m.set_trace_level(level);
    match run {
        Run::Plain => {}
        Run::ProtectedFlip => {
            m.set_fault_plan(FaultPlan::new().with_bit_flip(40, 1 % np, 62, 3));
        }
        Run::ProtectedRandom => m.set_fault_plan(FaultPlan::random(
            42 + np as u64,
            np,
            4000,
            FaultRates::transient(0.002),
        )),
    }
    m
}

/// One solve; returns the outcome text (stats, or the error), the
/// solution's local parts in processor order, and the rollback count.
fn solve(
    m: &mut Machine,
    pre: &MgPreconditioner,
    b: &[f64],
    run: Run,
) -> (String, Vec<f64>, usize) {
    let np = m.np();
    let locals = |x: &hpf_core::DistVector| -> Vec<f64> {
        let mut out = x.to_global();
        for p in 0..np {
            out.extend_from_slice(x.local(p));
        }
        out
    };
    match run {
        Run::Plain => match pcg_mg_distributed(m, pre, b, STOP, MAX_ITERS) {
            Ok((x, s)) => (format!("{s:?}"), locals(&x), 0),
            Err(e) => (format!("{e:?}"), Vec::new(), 0),
        },
        Run::ProtectedFlip | Run::ProtectedRandom => {
            match pcg_mg_distributed_protected(
                m,
                pre,
                b,
                STOP,
                MAX_ITERS,
                RecoveryConfig::default(),
            ) {
                Ok((x, s, r)) => (format!("{s:?}{r:?}"), locals(&x), r.rollbacks),
                Err(e) => (format!("{e:?}"), Vec::new(), 0),
            }
        }
    }
}

/// `Digest` with floats as bits.
fn digest_bits(d: &Digest) -> impl PartialEq + std::fmt::Debug {
    (
        d.events,
        d.total_time.to_bits(),
        d.comm_time.to_bits(),
        d.compute_time.to_bits(),
        d.total_comm_words,
        d.by_label
            .iter()
            .map(|r| (r.label.clone(), r.count, r.words, r.flops, r.time.to_bits()))
            .collect::<Vec<_>>(),
    )
}

/// All cases in a fixed order with their names, and the rollbacks seen.
fn cases() -> (Vec<(String, u64)>, usize) {
    let mut out = Vec::new();
    let mut rollbacks = 0;
    for (hname, dims, levels) in hierarchies() {
        for np in NPS {
            let h = MgHierarchy::build(dims, levels, np).expect("grid supports the levels");
            let (_, b) = gen::rhs_for_known_solution(h.fine_matrix());
            let pre = MgPreconditioner::new(h);
            for (rname, run) in RUNS {
                let what = format!("{hname} np={np} {rname}");
                let mut full = machine(np, run, TraceLevel::Full);
                let (outcome, x, rolled) = solve(&mut full, &pre, &b, run);
                rollbacks += rolled;
                let mut d = Fnv::new();
                d.bytes(full.trace().to_jsonl().as_bytes());
                d.u64(full.elapsed().to_bits());
                d.u64(full.total_flops());
                d.u64(full.total_words_sent());
                d.u64(full.total_messages());
                d.f64s(full.clocks());
                d.bytes(outcome.as_bytes());
                d.f64s(&x);

                // The same solve, folded instead of stored.
                let mut summary = machine(np, run, TraceLevel::Summary);
                let (outcome_s, x_s, _) = solve(&mut summary, &pre, &b, run);
                assert_eq!(outcome_s, outcome, "{what}: Summary outcome");
                assert!(
                    x_s.iter()
                        .map(|v| v.to_bits())
                        .eq(x.iter().map(|v| v.to_bits())),
                    "{what}: Summary solution bits"
                );
                assert!(summary.trace().is_empty(), "{what}");
                assert_eq!(
                    digest_bits(summary.digest()),
                    digest_bits(&Digest::from_trace(full.trace())),
                    "{what}: Summary digest against the digest of the Full trace"
                );
                out.push((what, d.0));
            }
        }
    }
    (out, rollbacks)
}

#[test]
fn mg_pcg_solves_match_the_recorded_digests() {
    let (cases, rollbacks) = cases();
    assert!(rollbacks > 0, "no case exercised a rollback");
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
    0x532e3130a452dcb7, // 2d 15x15 L2 np=1 plain
    0x313e4bb12602890c, // 2d 15x15 L2 np=1 protected flip
    0xb3eb369a5ce02a6b, // 2d 15x15 L2 np=1 protected random
    0x869c19b6b231187b, // 2d 15x15 L2 np=3 plain
    0x7bfa95fa904fdbd0, // 2d 15x15 L2 np=3 protected flip
    0xc5bda23faf1c1097, // 2d 15x15 L2 np=3 protected random
    0x2777818c2daa96bd, // 2d 15x15 L2 np=4 plain
    0x9c4c8190fd547fde, // 2d 15x15 L2 np=4 protected flip
    0xa9a8ea0574680369, // 2d 15x15 L2 np=4 protected random
    0x033c2f4e54201abb, // 2d 15x15 L2 np=5 plain
    0x3edb472414837538, // 2d 15x15 L2 np=5 protected flip
    0xa105ccf827974ecd, // 2d 15x15 L2 np=5 protected random
    0xe5426009cb0fb5d5, // 2d 15x15 L2 np=8 plain
    0xa1de59c110c380e2, // 2d 15x15 L2 np=8 protected flip
    0xefbf35eb75f9fd53, // 2d 15x15 L2 np=8 protected random
    0x24a82df38d96b8bc, // 2d 31x31 L3 np=1 plain
    0xd48d0dec023bd4b3, // 2d 31x31 L3 np=1 protected flip
    0xecb0e8c05c3e44db, // 2d 31x31 L3 np=1 protected random
    0xb8748e8151f03630, // 2d 31x31 L3 np=3 plain
    0x1f6b3cbdd1057d7e, // 2d 31x31 L3 np=3 protected flip
    0x85c5cdb708fc37a8, // 2d 31x31 L3 np=3 protected random
    0x8ff8333aa6eb0e0a, // 2d 31x31 L3 np=4 plain
    0x35f44ea732a6803b, // 2d 31x31 L3 np=4 protected flip
    0xc0cadd0308eb4d9b, // 2d 31x31 L3 np=4 protected random
    0xf57e3d7cbddf5328, // 2d 31x31 L3 np=5 plain
    0xf5358af72718d262, // 2d 31x31 L3 np=5 protected flip
    0x31927b59c400c04f, // 2d 31x31 L3 np=5 protected random
    0xdcf9214c406a6bda, // 2d 31x31 L3 np=8 plain
    0xbea61ca2508b6c96, // 2d 31x31 L3 np=8 protected flip
    0x3e67e752392b9b03, // 2d 31x31 L3 np=8 protected random
    0x657320c43e708f23, // 2d 31x31 L4 np=1 plain
    0xe996c7cf23a0309f, // 2d 31x31 L4 np=1 protected flip
    0x5728710109f61329, // 2d 31x31 L4 np=1 protected random
    0x20c115f8de2032da, // 2d 31x31 L4 np=3 plain
    0x0633e4ae29b55195, // 2d 31x31 L4 np=3 protected flip
    0x108b1e32462536c6, // 2d 31x31 L4 np=3 protected random
    0xf61a0b32d58ca8be, // 2d 31x31 L4 np=4 plain
    0x6d30097fc604a919, // 2d 31x31 L4 np=4 protected flip
    0x928afcd155b237bb, // 2d 31x31 L4 np=4 protected random
    0xa73de3d323c26d3e, // 2d 31x31 L4 np=5 plain
    0x8669c8151a759cf9, // 2d 31x31 L4 np=5 protected flip
    0xe131f270eabf1192, // 2d 31x31 L4 np=5 protected random
    0x683eca5710d048a9, // 2d 31x31 L4 np=8 plain
    0x4f8d70e3f9b6e97f, // 2d 31x31 L4 np=8 protected flip
    0xac7a5a60c4cf2b07, // 2d 31x31 L4 np=8 protected random
    0xef1fee94b8ebc116, // 3d 7x7x7 L2 np=1 plain
    0xc675057431729091, // 3d 7x7x7 L2 np=1 protected flip
    0xe17ad073e6e58dd2, // 3d 7x7x7 L2 np=1 protected random
    0x27d2ce030788f2ee, // 3d 7x7x7 L2 np=3 plain
    0x48457746844aed3c, // 3d 7x7x7 L2 np=3 protected flip
    0x7000559a6813857b, // 3d 7x7x7 L2 np=3 protected random
    0xbc1c5dcc47c582f5, // 3d 7x7x7 L2 np=4 plain
    0x886c5b4ca6ee11cb, // 3d 7x7x7 L2 np=4 protected flip
    0x7347e5ff8e6e6fe7, // 3d 7x7x7 L2 np=4 protected random
    0x53bd9ff27343428e, // 3d 7x7x7 L2 np=5 plain
    0xc3fd49c9ef25df50, // 3d 7x7x7 L2 np=5 protected flip
    0x53fe0695f5456919, // 3d 7x7x7 L2 np=5 protected random
    0xe435c29c7d5b12f5, // 3d 7x7x7 L2 np=8 plain
    0x81a1bca94931ab9e, // 3d 7x7x7 L2 np=8 protected flip
    0x70d7ab594d928d9a, // 3d 7x7x7 L2 np=8 protected random
    0x99a23642cf20c4cd, // 3d 15x15x15 L3 np=1 plain
    0xe39e7ba12d0053c0, // 3d 15x15x15 L3 np=1 protected flip
    0x5413a642c05df45e, // 3d 15x15x15 L3 np=1 protected random
    0x65d4c247420eee7d, // 3d 15x15x15 L3 np=3 plain
    0xf3cca900d3883e51, // 3d 15x15x15 L3 np=3 protected flip
    0xa16c0cb54a57915c, // 3d 15x15x15 L3 np=3 protected random
    0x20e04e1bcdbccd69, // 3d 15x15x15 L3 np=4 plain
    0x3dc93013b5adf252, // 3d 15x15x15 L3 np=4 protected flip
    0xaa282e572c5891f7, // 3d 15x15x15 L3 np=4 protected random
    0x5cbb7ae938bf8d58, // 3d 15x15x15 L3 np=5 plain
    0x61fa64eeb3d817f3, // 3d 15x15x15 L3 np=5 protected flip
    0x571beac6a06ed5f4, // 3d 15x15x15 L3 np=5 protected random
    0x5372053dbceb0f3f, // 3d 15x15x15 L3 np=8 plain
    0x83eb6684a6140320, // 3d 15x15x15 L3 np=8 protected flip
    0x358621732d1fb297, // 3d 15x15x15 L3 np=8 protected random
    0xebcf0bd009ad994e, // 3d 7x7x7 L3 np=1 plain
    0x3be67184de0a5a27, // 3d 7x7x7 L3 np=1 protected flip
    0xcf0a5d8d50d10278, // 3d 7x7x7 L3 np=1 protected random
    0xd725b661ad317643, // 3d 7x7x7 L3 np=3 plain
    0x231abf2b55d1a215, // 3d 7x7x7 L3 np=3 protected flip
    0x4c6c0f6c3b5953e3, // 3d 7x7x7 L3 np=3 protected random
    0xb60ac1d7a19f291c, // 3d 7x7x7 L3 np=4 plain
    0xf465357421790ab7, // 3d 7x7x7 L3 np=4 protected flip
    0xe081d62109142e29, // 3d 7x7x7 L3 np=4 protected random
    0x64f18fecd98ebabb, // 3d 7x7x7 L3 np=5 plain
    0x17d2f2b782b64e49, // 3d 7x7x7 L3 np=5 protected flip
    0x959da28a9a89e8fb, // 3d 7x7x7 L3 np=5 protected random
    0x916732e5b2d7a8c4, // 3d 7x7x7 L3 np=8 plain
    0xfbc71fcf1510677d, // 3d 7x7x7 L3 np=8 protected flip
    0x18dbdc9521179fd8, // 3d 7x7x7 L3 np=8 protected random
    0x421e9b36871d9eb8, // 2d 15x7 L3 np=1 plain
    0x652ed79ba05b0711, // 2d 15x7 L3 np=1 protected flip
    0x77e323ddcbc3b47a, // 2d 15x7 L3 np=1 protected random
    0xab730bd191e53ef2, // 2d 15x7 L3 np=3 plain
    0x7a68b86793f38fe9, // 2d 15x7 L3 np=3 protected flip
    0xcc25fae5aef464cc, // 2d 15x7 L3 np=3 protected random
    0x6c1cb7d8286aa0c3, // 2d 15x7 L3 np=4 plain
    0xb161eb1045dfaa09, // 2d 15x7 L3 np=4 protected flip
    0x3073f1b3c99b19b4, // 2d 15x7 L3 np=4 protected random
    0x15c7c21082b8348e, // 2d 15x7 L3 np=5 plain
    0xa1c25980ffa39327, // 2d 15x7 L3 np=5 protected flip
    0xeb4f941c4d1a877b, // 2d 15x7 L3 np=5 protected random
    0xbad92e6bf3a77186, // 2d 15x7 L3 np=8 plain
    0x89a5dcff4a6e8e1f, // 2d 15x7 L3 np=8 protected flip
    0xb7a830853620e062, // 2d 15x7 L3 np=8 protected random
];
