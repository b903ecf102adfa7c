//! The three [`TraceLevel`]s record one run three ways and must agree:
//! the digest a machine keeps at `Summary` equals, field for field and
//! bit for bit, the digest of the trace the same run leaves at `Full`;
//! clocks, counters, fault activity and solver results are identical at
//! all three levels. Checked for CG, Jacobi-PCG, protected CG and 3-level
//! multigrid PCG, clean and under seeded bit-flip and crash plans, and
//! for a retry on the same machine after an escalation.

use hpf::core::{DataArrayLayout, RowwiseCsr};
use hpf::machine::{CostModel, Digest, FaultPlan, FaultRates, Machine, Topology, TraceLevel};
use hpf::mg::{pcg_mg_distributed, GridDims, MgHierarchy, MgPreconditioner};
use hpf::solvers::{
    bicgstab_distributed, cg_distributed, cg_distributed_protected, pcg_jacobi_distributed,
    RecoveryConfig, StopCriterion,
};
use hpf::sparse::gen;
use proptest::prelude::*;

const NP: usize = 4;
const STOP: StopCriterion = StopCriterion::RelativeResidual(1e-9);
const LEVELS: [TraceLevel; 3] = [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Full];

fn machine(level: TraceLevel) -> Machine {
    let mut m = Machine::new(NP, Topology::Hypercube, CostModel::mpp_1995());
    m.set_trace_level(level);
    m
}

/// Everything about a finished run that must not depend on the level.
/// Floats are kept as bits; a solver's outcome as its `Debug` text plus
/// the solution's bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: String,
    solution: Vec<u64>,
    clocks: Vec<u64>,
    flops: u64,
    words: u64,
    messages: u64,
    ops: usize,
    faults: usize,
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn outcome(m: &Machine, result: String, solution: Vec<f64>) -> Outcome {
    Outcome {
        result,
        solution: bits(&solution),
        clocks: bits(m.clocks()),
        flops: m.total_flops(),
        words: m.total_words_sent(),
        messages: m.total_messages(),
        ops: m.op_index(),
        faults: m.faults_injected(),
    }
}

/// `Digest` compared with floats as bits (`PartialEq` on `f64` would let
/// `0.0 == -0.0` through and make `NaN` unequal to itself).
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

/// Run `run` on a fresh machine at each level and check the three
/// against each other. `run` prepares the machine (fault plan, earlier
/// attempts) and returns what the solver returned. Returns the number of
/// faults the run injected.
fn assert_levels_agree(what: &str, run: impl Fn(&mut Machine) -> (String, Vec<f64>)) -> usize {
    let [off, summary, full] = LEVELS.map(|level| {
        let mut m = machine(level);
        let (result, solution) = run(&mut m);
        let outcome = outcome(&m, result, solution);
        (m, outcome)
    });
    assert_eq!(off.1, full.1, "{what}: Off and Full runs differ");
    assert_eq!(summary.1, full.1, "{what}: Summary and Full runs differ");
    assert_eq!(
        off.0.elapsed().to_bits(),
        full.0.elapsed().to_bits(),
        "{what}"
    );
    assert_eq!(
        summary.0.elapsed().to_bits(),
        full.0.elapsed().to_bits(),
        "{what}"
    );

    let trace = full.0.trace();
    assert!(!trace.is_empty(), "{what}: the Full run kept no events");
    assert!(off.0.trace().is_empty() && summary.0.trace().is_empty());
    assert_eq!(
        off.0.digest(),
        &Digest::default(),
        "{what}: Off folds nothing"
    );
    assert_eq!(
        full.0.digest(),
        &Digest::default(),
        "{what}: Full folds nothing"
    );

    let live = summary.0.digest();
    let stored = Digest::from_trace(trace);
    assert_eq!(
        digest_bits(live),
        digest_bits(&stored),
        "{what}: Summary digest against the digest of the Full trace"
    );
    // The trace's own accessors state the same totals.
    assert_eq!(live.events, trace.len());
    assert_eq!(live.total_time.to_bits(), trace.total_time().to_bits());
    assert_eq!(live.comm_time.to_bits(), trace.comm_time().to_bits());
    assert_eq!(live.compute_time.to_bits(), trace.compute_time().to_bits());
    assert_eq!(live.total_comm_words, trace.total_comm_words());
    assert_eq!(live.by_label, trace.summary_by_label());

    let (mut summary, _) = summary;
    summary.reset();
    assert_eq!(summary.digest(), &Digest::default(), "{what}: reset clears");
    assert_eq!(summary.trace_level(), TraceLevel::Summary);
    full.1.faults
}

fn rendered<T: std::fmt::Debug, E: std::fmt::Debug>(r: &Result<T, E>) -> String {
    match r {
        Ok(stats) => format!("{stats:?}"),
        Err(e) => format!("Err({e:?})"),
    }
}

#[derive(Debug, Clone, Copy)]
enum Solver {
    Cg,
    PcgJacobi,
    ProtectedCg,
}

fn solve(solver: Solver, m: &mut Machine, op: &RowwiseCsr, b: &[f64]) -> (String, Vec<f64>) {
    let max_iters = 20 * b.len();
    match solver {
        Solver::Cg => {
            let r = cg_distributed(m, op, b, STOP, max_iters);
            let x = r.as_ref().map_or(Vec::new(), |(x, _)| x.to_global());
            (rendered(&r.map(|(_, stats)| stats)), x)
        }
        Solver::PcgJacobi => {
            let r = pcg_jacobi_distributed(m, op, b, STOP, max_iters);
            let x = r.as_ref().map_or(Vec::new(), |(x, _)| x.to_global());
            (rendered(&r.map(|(_, stats)| stats)), x)
        }
        Solver::ProtectedCg => {
            let r = cg_distributed_protected(m, op, b, STOP, max_iters, RecoveryConfig::default());
            let x = r.as_ref().map_or(Vec::new(), |(x, _, _)| x.to_global());
            (
                rendered(&r.map(|(_, stats, recovery)| (stats, recovery))),
                x,
            )
        }
    }
}

/// Clean, a seeded bit-flip plan, a seeded crash plan.
fn plans(seed: u64) -> [Option<FaultPlan>; 3] {
    let rates = |bit_flip, crash| FaultRates {
        bit_flip,
        message_drop: 0.0,
        straggler: 0.0,
        crash,
    };
    [
        None,
        Some(FaultPlan::random(seed, NP, 200, rates(0.02, 0.0))),
        Some(FaultPlan::random(seed, NP, 200, rates(0.0, 0.01))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn summary_digest_equals_the_digest_of_the_full_trace(
        n in 24usize..72,
        bw in 1usize..4,
        mat_seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let a = gen::banded_spd(n, bw, mat_seed);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let op = RowwiseCsr::block(a, NP, DataArrayLayout::RowAligned);
        for solver in [Solver::Cg, Solver::PcgJacobi, Solver::ProtectedCg] {
            for (which, plan) in plans(plan_seed).into_iter().enumerate() {
                assert_levels_agree(&format!("{solver:?}, plan {which}"), |m| {
                    if let Some(plan) = &plan {
                        m.set_fault_plan(plan.clone());
                    }
                    solve(solver, m, &op, &b)
                });
            }
        }
    }

    /// What the service worker does after a retryable failure: reset the
    /// machine, drop the fault plan, run the next solver of the chain.
    /// Only the retry is in the digest, as only the retry is in the trace.
    #[test]
    fn a_retry_after_escalation_is_digested_alone(
        n in 24usize..72,
        mat_seed in any::<u64>(),
        crash_op in 10usize..60,
        crash_proc in 0usize..NP,
    ) {
        let a = gen::banded_spd(n, 2, mat_seed);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let op = RowwiseCsr::block(a, NP, DataArrayLayout::RowAligned);
        assert_levels_agree("cg under a crash, then bicgstab clean", |m| {
            m.set_fault_plan(FaultPlan::new().with_crash(crash_op, crash_proc));
            let first = cg_distributed(m, &op, &b, STOP, 20 * n);
            assert!(first.is_err(), "a lost contribution must fail plain CG");
            m.reset();
            m.clear_fault_plan();
            let r = bicgstab_distributed(m, &op, &b, STOP, 20 * n);
            let x = r.as_ref().map_or(Vec::new(), |(x, _)| x.to_global());
            (rendered(&r.map(|(_, stats)| stats)), x)
        });
    }
}

/// Multigrid is where `Redistribute` rows split per level
/// (`mg-restrict [level=1]`): the live fold reads the level off the span
/// stack, the stored one parses it out of the event's span path.
#[test]
fn multigrid_levels_split_the_same_way_live_and_stored() {
    let dims = GridDims::d2(15, 15);
    let pre = MgPreconditioner::new(MgHierarchy::build(dims, 3, NP).expect("3 levels on 15x15"));
    let b = vec![1.0; dims.n()];
    for (which, plan) in plans(0x5eed).into_iter().enumerate() {
        let faults = assert_levels_agree(&format!("pcg_mg, plan {which}"), |m| {
            if let Some(plan) = &plan {
                m.set_fault_plan(plan.clone());
            }
            let r = pcg_mg_distributed(m, &pre, &b, STOP, 200);
            let x = r.as_ref().map_or(Vec::new(), |(x, _)| x.to_global());
            (rendered(&r.map(|(_, stats)| stats)), x)
        });
        assert_eq!(faults > 0, plan.is_some(), "plan {which} injected {faults}");
    }
    let mut m = machine(TraceLevel::Summary);
    pcg_mg_distributed(&mut m, &pre, &b, STOP, 200).expect("clean multigrid solve");
    let labels: Vec<&str> = m
        .digest()
        .by_label
        .iter()
        .map(|r| r.label.as_str())
        .collect();
    for level in 0..2 {
        let row = format!("mg-restrict [level={level}]");
        assert!(labels.contains(&row.as_str()), "no {row:?} in {labels:?}");
    }
}
