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
    0xa4b2fa1b5b8abdc7, // 2d 15x15 L2 np=1 protected flip
    0xd9b409a94d7eddf2, // 2d 15x15 L2 np=1 protected random
    0x869c19b6b231187b, // 2d 15x15 L2 np=3 plain
    0xc9089221a6d7a961, // 2d 15x15 L2 np=3 protected flip
    0x2af68aaec89249b3, // 2d 15x15 L2 np=3 protected random
    0x2777818c2daa96bd, // 2d 15x15 L2 np=4 plain
    0x01360ae952c97b62, // 2d 15x15 L2 np=4 protected flip
    0x54d2fed2b6dbea75, // 2d 15x15 L2 np=4 protected random
    0x033c2f4e54201abb, // 2d 15x15 L2 np=5 plain
    0x6c8b07d50c4cf2e5, // 2d 15x15 L2 np=5 protected flip
    0x4222c30f47a536f2, // 2d 15x15 L2 np=5 protected random
    0xe5426009cb0fb5d5, // 2d 15x15 L2 np=8 plain
    0xf5ce514293fad62b, // 2d 15x15 L2 np=8 protected flip
    0xc69fde065ee5d21b, // 2d 15x15 L2 np=8 protected random
    0x24a82df38d96b8bc, // 2d 31x31 L3 np=1 plain
    0x398a6b38c9e72499, // 2d 31x31 L3 np=1 protected flip
    0xeb468074198dabe6, // 2d 31x31 L3 np=1 protected random
    0xb8748e8151f03630, // 2d 31x31 L3 np=3 plain
    0x01a4d3882d47cbe7, // 2d 31x31 L3 np=3 protected flip
    0xd145e01e7c88bac8, // 2d 31x31 L3 np=3 protected random
    0x8ff8333aa6eb0e0a, // 2d 31x31 L3 np=4 plain
    0x8abdfcaf12241134, // 2d 31x31 L3 np=4 protected flip
    0xe7a388868294551c, // 2d 31x31 L3 np=4 protected random
    0xf57e3d7cbddf5328, // 2d 31x31 L3 np=5 plain
    0x4ea7e0133a1ef9ea, // 2d 31x31 L3 np=5 protected flip
    0x281053dd81a03b93, // 2d 31x31 L3 np=5 protected random
    0xdcf9214c406a6bda, // 2d 31x31 L3 np=8 plain
    0xf8d53775d833e297, // 2d 31x31 L3 np=8 protected flip
    0x8e5751cd8d826538, // 2d 31x31 L3 np=8 protected random
    0x657320c43e708f23, // 2d 31x31 L4 np=1 plain
    0x2184eb7359c014b6, // 2d 31x31 L4 np=1 protected flip
    0x157287b6279a8646, // 2d 31x31 L4 np=1 protected random
    0x20c115f8de2032da, // 2d 31x31 L4 np=3 plain
    0xae4f86cb36ac5aa1, // 2d 31x31 L4 np=3 protected flip
    0x34488fb3155612ca, // 2d 31x31 L4 np=3 protected random
    0xf61a0b32d58ca8be, // 2d 31x31 L4 np=4 plain
    0x0da6c1ca1fb5b89b, // 2d 31x31 L4 np=4 protected flip
    0x5ff0116b72e26ccd, // 2d 31x31 L4 np=4 protected random
    0xa73de3d323c26d3e, // 2d 31x31 L4 np=5 plain
    0xbe4448cd5e481add, // 2d 31x31 L4 np=5 protected flip
    0x012fb5ccfd476cab, // 2d 31x31 L4 np=5 protected random
    0x683eca5710d048a9, // 2d 31x31 L4 np=8 plain
    0xc205644014ee0eae, // 2d 31x31 L4 np=8 protected flip
    0x613cea01a38b5295, // 2d 31x31 L4 np=8 protected random
    0xef1fee94b8ebc116, // 3d 7x7x7 L2 np=1 plain
    0xca69545f03b7d294, // 3d 7x7x7 L2 np=1 protected flip
    0x6ff1ae95f2859e8f, // 3d 7x7x7 L2 np=1 protected random
    0x27d2ce030788f2ee, // 3d 7x7x7 L2 np=3 plain
    0xc0e56b5da1003471, // 3d 7x7x7 L2 np=3 protected flip
    0x9f212106d0623fb8, // 3d 7x7x7 L2 np=3 protected random
    0xbc1c5dcc47c582f5, // 3d 7x7x7 L2 np=4 plain
    0x38b7909121ee6b14, // 3d 7x7x7 L2 np=4 protected flip
    0x07746bf0d0787091, // 3d 7x7x7 L2 np=4 protected random
    0x53bd9ff27343428e, // 3d 7x7x7 L2 np=5 plain
    0xa8309334eacdc411, // 3d 7x7x7 L2 np=5 protected flip
    0xc11277e3fe855007, // 3d 7x7x7 L2 np=5 protected random
    0xe435c29c7d5b12f5, // 3d 7x7x7 L2 np=8 plain
    0x62acf1e7d204ca99, // 3d 7x7x7 L2 np=8 protected flip
    0x35b18b37f76fdaeb, // 3d 7x7x7 L2 np=8 protected random
    0x99a23642cf20c4cd, // 3d 15x15x15 L3 np=1 plain
    0x60249d95b3184375, // 3d 15x15x15 L3 np=1 protected flip
    0xe3a2f15b8382b896, // 3d 15x15x15 L3 np=1 protected random
    0x65d4c247420eee7d, // 3d 15x15x15 L3 np=3 plain
    0xb464e4d3fd511fb8, // 3d 15x15x15 L3 np=3 protected flip
    0x85cb492449f0798a, // 3d 15x15x15 L3 np=3 protected random
    0x20e04e1bcdbccd69, // 3d 15x15x15 L3 np=4 plain
    0x89cde9bef2f3f5e7, // 3d 15x15x15 L3 np=4 protected flip
    0x5ab701670b425080, // 3d 15x15x15 L3 np=4 protected random
    0x5cbb7ae938bf8d58, // 3d 15x15x15 L3 np=5 plain
    0x60a3be84b01fd19b, // 3d 15x15x15 L3 np=5 protected flip
    0x6c109dec18e037c8, // 3d 15x15x15 L3 np=5 protected random
    0x5372053dbceb0f3f, // 3d 15x15x15 L3 np=8 plain
    0xbee441b1b286f0e0, // 3d 15x15x15 L3 np=8 protected flip
    0xc0785266ef1c40bd, // 3d 15x15x15 L3 np=8 protected random
    0xebcf0bd009ad994e, // 3d 7x7x7 L3 np=1 plain
    0x3138d314652326d2, // 3d 7x7x7 L3 np=1 protected flip
    0x0339d038499d393f, // 3d 7x7x7 L3 np=1 protected random
    0xd725b661ad317643, // 3d 7x7x7 L3 np=3 plain
    0xfc37ebb2b0daeab0, // 3d 7x7x7 L3 np=3 protected flip
    0x8125eb6d902664b4, // 3d 7x7x7 L3 np=3 protected random
    0xb60ac1d7a19f291c, // 3d 7x7x7 L3 np=4 plain
    0xa507041adfce45b4, // 3d 7x7x7 L3 np=4 protected flip
    0xb2fb732d87d4ea3a, // 3d 7x7x7 L3 np=4 protected random
    0x64f18fecd98ebabb, // 3d 7x7x7 L3 np=5 plain
    0x7073ccd24e6d15af, // 3d 7x7x7 L3 np=5 protected flip
    0x8d3d4e3c5f7c4388, // 3d 7x7x7 L3 np=5 protected random
    0x916732e5b2d7a8c4, // 3d 7x7x7 L3 np=8 plain
    0x36d0bd8d9210886a, // 3d 7x7x7 L3 np=8 protected flip
    0x038fc3d863edae16, // 3d 7x7x7 L3 np=8 protected random
    0x421e9b36871d9eb8, // 2d 15x7 L3 np=1 plain
    0xdee4d7849edb70d7, // 2d 15x7 L3 np=1 protected flip
    0x1b97ce9b711fd009, // 2d 15x7 L3 np=1 protected random
    0xab730bd191e53ef2, // 2d 15x7 L3 np=3 plain
    0x43e8bcd40acaf815, // 2d 15x7 L3 np=3 protected flip
    0x3dad9849a37d6f39, // 2d 15x7 L3 np=3 protected random
    0x6c1cb7d8286aa0c3, // 2d 15x7 L3 np=4 plain
    0x65183a6c3f61a049, // 2d 15x7 L3 np=4 protected flip
    0x89ee8df225e5567c, // 2d 15x7 L3 np=4 protected random
    0x15c7c21082b8348e, // 2d 15x7 L3 np=5 plain
    0x401bf17ac807fb3e, // 2d 15x7 L3 np=5 protected flip
    0xed8c671d4e50e359, // 2d 15x7 L3 np=5 protected random
    0xbad92e6bf3a77186, // 2d 15x7 L3 np=8 plain
    0x98932745b88b8e7e, // 2d 15x7 L3 np=8 protected flip
    0x92957f2f52c6b8b9, // 2d 15x7 L3 np=8 protected random
];
