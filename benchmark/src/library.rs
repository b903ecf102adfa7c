//! The three library workloads: a caller who wants a distributed solve
//! to relative residual 1e-8. One rep is the unit that is timed; its
//! outputs are checked after the clock has stopped.

use crate::host::{Readings, Reference};
use crate::spans::{sums_by_trace, SpanBuf, Sum, TimedOperator, TimedPreconditioner};
use crate::util::{
    machine, median, percentile, rel_residual, secs, seeded_rhs, Rng, RESIDUAL_LIMIT,
};
use crate::{probes, wants_another_setup, Ledger, Timed};
use hpf::core::{ColwiseCsc, DataArrayLayout, DistVector, RowwiseCsr};
use hpf::machine::{EventSink, Machine};
use hpf::mg::{
    pcg_mg_distributed, pcg_mg_distributed_protected, GridDims, MgHierarchy, MgPreconditioner,
};
use hpf::solvers::{
    cg, cg_distributed, cg_distributed_protected, pcg_preconditioned_distributed, ColwiseOperator,
    CscVariant, DistOperator, RecoveryConfig, SolveStats, SolverError, StopCriterion,
};
use hpf::sparse::{gen, CscMatrix, CsrMatrix};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const STOP: StopCriterion = StopCriterion::RelativeResidual(1e-8);
const MAX_ITERS: usize = 5_000;

type Solved = Result<(DistVector, SolveStats), SolverError>;

/// What one rep did: the timed wall, and what was read from the machine
/// and checked once the clock had stopped.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub wall_s: f64,
    pub solves: usize,
    /// `Machine::elapsed()` summed over the rep's solves: the §4 clock.
    pub sim_s: f64,
    pub iters: usize,
    pub converged: bool,
    /// Largest `‖b − A x‖/‖b‖` over the rep's solves.
    pub residual: f64,
    /// Events a counting sink saw, or machine operations where no sink is installed.
    pub events: u64,
    pub flops: u64,
    pub words: u64,
    pub messages: u64,
    pub imbalance: f64,
}

impl Rep {
    fn new(wall_s: f64) -> Self {
        Rep {
            wall_s,
            converged: true,
            ..Rep::default()
        }
    }

    /// Fold in one finished solve; `events` overrides the operation count.
    fn absorb(
        &mut self,
        machine: &Machine,
        solved: Solved,
        a: &CsrMatrix,
        b: &[f64],
        events: Option<u64>,
    ) {
        self.solves += 1;
        self.sim_s += machine.elapsed();
        self.events += events.unwrap_or(machine.op_index() as u64);
        self.flops += machine.total_flops();
        self.words += machine.total_words_sent();
        self.messages += machine.total_messages();
        self.imbalance = self.imbalance.max(machine.imbalance());
        match solved {
            Ok((x, stats)) => {
                self.iters += stats.iterations;
                self.converged &= stats.converged;
                self.residual = self.residual.max(rel_residual(a, &x.to_global(), b));
            }
            Err(_) => {
                self.converged = false;
                self.residual = f64::INFINITY;
            }
        }
    }
}

/// A library workload after set-up.
pub trait Library {
    /// Run one rep; with `spans` the calls into each layer are recorded.
    fn rep(&self, spans: Option<&SpanBuf>) -> Rep;
    /// One plain or protected solve by the workload's method with tracing
    /// off, for the caller to time (the protected-over-plain side run).
    fn side_solve(&self, protected: bool);
    /// Matrix, right-hand side and machine size for the stand-alone probes.
    fn problem(&self) -> (&CsrMatrix, &[f64], usize);
}

/// A workload with its set-up measurements.
pub struct Built {
    pub case: Box<dyn Library>,
    pub gen_s: f64,
    /// `MgHierarchy::build` wall and `total_nnz`, where there is a hierarchy.
    pub mg: Option<(f64, usize)>,
}

pub fn is_library(workload: &str) -> bool {
    matches!(
        workload,
        "cg_poisson3d" | "cg_layouts_np64" | "mg_poisson3d"
    )
}

/// Generators, operator or hierarchy build. `quick` is the tenth-size smoke.
pub fn build(workload: &str, seed: u64, quick: bool) -> Built {
    let mut rng = Rng::new(seed);
    match workload {
        "cg_poisson3d" => {
            let side = if quick { 16 } else { 40 };
            let t0 = Instant::now();
            let a = gen::poisson_3d(side, side, side);
            let gen_s = secs(t0);
            let b = seeded_rhs(&a, &mut rng);
            Built {
                case: Box::new(CgPoisson3d {
                    op: RowwiseCsr::block(a, 8, DataArrayLayout::RowAligned),
                    b,
                    solves: 1,
                }),
                gen_s,
                mg: None,
            }
        }
        "cg_layouts_np64" => {
            let side = if quick { 16 } else { 48 };
            let t0 = Instant::now();
            let a = gen::poisson_2d(side, side);
            let gen_s = secs(t0);
            let b = seeded_rhs(&a, &mut rng);
            let col = ColwiseOperator {
                inner: ColwiseCsc::block(CscMatrix::from_csr(&a), 64),
                variant: CscVariant::Temp2d,
            };
            Built {
                case: Box::new(CgLayouts {
                    row: RowwiseCsr::block(a, 64, DataArrayLayout::RowAligned),
                    col,
                    b,
                    pairs: 2,
                }),
                gen_s,
                mg: None,
            }
        }
        "mg_poisson3d" => {
            let (dims, levels) = if quick {
                (GridDims::d3(15, 15, 15), 3)
            } else {
                (GridDims::d3(31, 31, 31), 3)
            };
            let t0 = Instant::now();
            let h = MgHierarchy::build(dims, levels, 8).expect("grid supports the levels");
            let build_s = secs(t0);
            let total_nnz = h.total_nnz();
            let b = seeded_rhs(h.fine_matrix(), &mut rng);
            Built {
                case: Box::new(MgPoisson3d {
                    pre: MgPreconditioner::new(h),
                    b,
                    solves: 2,
                }),
                // The hierarchy generates its own fine matrix inside `build`.
                gen_s: build_s,
                mg: Some((build_s, total_nnz)),
            }
        }
        other => panic!("not a library workload: {other}"),
    }
}

/// `cg_distributed`, under a `solve` span with one span per product when traced.
fn cg_solve<A: DistOperator>(
    m: &mut Machine,
    op: &A,
    b: &[f64],
    spans: Option<&SpanBuf>,
    product_span: &'static str,
) -> Solved {
    let b = black_box(b);
    black_box(match spans {
        None => cg_distributed(m, op, b, STOP, MAX_ITERS),
        Some(s) => s.record("solve", || {
            let timed = TimedOperator {
                inner: op,
                spans: s,
                name: product_span,
            };
            cg_distributed(m, &timed, b, STOP, MAX_ITERS)
        }),
    })
}

/// One plain or protected CG solve with tracing off.
fn cg_side_solve(op: &RowwiseCsr, b: &[f64], np: usize, protected: bool) {
    let mut m = machine(np, false);
    if protected {
        black_box(
            cg_distributed_protected(&mut m, op, b, STOP, MAX_ITERS, RecoveryConfig::default())
                .map(|r| r.1),
        )
        .expect("protected side solve");
    } else {
        black_box(cg_distributed(&mut m, op, b, STOP, MAX_ITERS).map(|r| r.1))
            .expect("plain side solve");
    }
}

/// `cg_distributed` on 3-D Poisson, row-wise CSR, NP = 8, tracing off;
/// one rep is `solves` solves.
struct CgPoisson3d {
    op: RowwiseCsr,
    b: Vec<f64>,
    solves: usize,
}

impl Library for CgPoisson3d {
    fn rep(&self, spans: Option<&SpanBuf>) -> Rep {
        let t0 = Instant::now();
        let mut solves = Vec::with_capacity(self.solves);
        for _ in 0..self.solves {
            let mut m = machine(8, false);
            let solved = cg_solve(&mut m, &self.op, &self.b, spans, "core.matvec");
            solves.push((m, solved));
        }
        let mut rep = Rep::new(secs(t0));
        for (m, solved) in solves {
            rep.absorb(&m, solved, self.op.matrix(), &self.b, None);
        }
        rep
    }

    fn side_solve(&self, protected: bool) {
        cg_side_solve(&self.op, &self.b, 8, protected)
    }

    fn problem(&self) -> (&CsrMatrix, &[f64], usize) {
        (self.op.matrix(), &self.b, 8)
    }
}

/// Pairs of a row-wise `(BLOCK,*)` CSR solve and a column-wise
/// `(*,BLOCK)` CSC `Temp2d` solve at NP = 64, tracing on, with a counting
/// event sink. One rep is `pairs` pairs: short enough that a neighbour's
/// burst, which comes about once a second, falls into few of them and the
/// 95th percentile of the rep times belongs to the program.
struct CgLayouts {
    row: RowwiseCsr,
    col: ColwiseOperator,
    b: Vec<f64>,
    pairs: usize,
}

fn counting_machine(np: usize) -> (Machine, Arc<AtomicU64>) {
    let mut m = machine(np, true);
    let count = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&count);
    m.set_event_sink(EventSink::new(move |_event| {
        seen.fetch_add(1, Ordering::Relaxed);
    }));
    (m, count)
}

impl Library for CgLayouts {
    fn rep(&self, spans: Option<&SpanBuf>) -> Rep {
        let t0 = Instant::now();
        let mut solves = Vec::with_capacity(2 * self.pairs);
        for _ in 0..self.pairs {
            let (mut m, seen) = counting_machine(64);
            let by_rows = cg_solve(&mut m, &self.row, &self.b, spans, "core.matvec");
            solves.push((m, seen, by_rows));
            let (mut m, seen) = counting_machine(64);
            let by_cols = cg_solve(&mut m, &self.col, &self.b, spans, "core.colwise_matvec");
            solves.push((m, seen, by_cols));
        }
        let mut rep = Rep::new(secs(t0));
        for (m, seen, solved) in solves {
            let events = Some(seen.load(Ordering::Relaxed));
            rep.absorb(&m, solved, self.row.matrix(), &self.b, events);
        }
        rep
    }

    fn side_solve(&self, protected: bool) {
        cg_side_solve(&self.row, &self.b, 64, protected)
    }

    fn problem(&self) -> (&CsrMatrix, &[f64], usize) {
        (self.row.matrix(), &self.b, 64)
    }
}

/// `pcg_mg_distributed` on a 3-D grid, NP = 8, tracing off; one rep is
/// `solves` solves.
struct MgPoisson3d {
    pre: MgPreconditioner,
    b: Vec<f64>,
    solves: usize,
}

impl Library for MgPoisson3d {
    fn rep(&self, spans: Option<&SpanBuf>) -> Rep {
        let t0 = Instant::now();
        let b = black_box(self.b.as_slice());
        let mut solves = Vec::with_capacity(self.solves);
        for _ in 0..self.solves {
            let mut m = machine(8, false);
            let solved = black_box(match spans {
                None => pcg_mg_distributed(&mut m, &self.pre, b, STOP, MAX_ITERS),
                // What `pcg_mg_distributed` does, with both boundaries wrapped.
                Some(s) => s.record("solve", || {
                    let fine = self.pre.hierarchy().fine_operator();
                    let op = TimedOperator {
                        inner: &fine,
                        spans: s,
                        name: "core.matvec",
                    };
                    let pre = TimedPreconditioner {
                        inner: &self.pre,
                        spans: s,
                        name: "mg.vcycle",
                    };
                    pcg_preconditioned_distributed(&mut m, &op, &pre, b, STOP, MAX_ITERS)
                }),
            });
            solves.push((m, solved));
        }
        let mut rep = Rep::new(secs(t0));
        for (m, solved) in solves {
            let fine = self.pre.hierarchy().fine_matrix();
            rep.absorb(&m, solved, fine, &self.b, None);
        }
        rep
    }

    fn side_solve(&self, protected: bool) {
        let mut m = machine(8, false);
        if protected {
            let cfg = RecoveryConfig::default();
            black_box(
                pcg_mg_distributed_protected(&mut m, &self.pre, &self.b, STOP, MAX_ITERS, cfg)
                    .map(|r| r.1),
            )
            .expect("protected side solve");
        } else {
            black_box(pcg_mg_distributed(&mut m, &self.pre, &self.b, STOP, MAX_ITERS).map(|r| r.1))
                .expect("plain side solve");
        }
    }

    fn problem(&self) -> (&CsrMatrix, &[f64], usize) {
        (self.pre.hierarchy().fine_matrix(), &self.b, 8)
    }
}

/// True when the rep's solves converged, passed the residual check and
/// repeated the first rep's iteration count and simulated clock exactly.
fn rep_is_correct(rep: &Rep, first: &Rep) -> bool {
    rep.converged
        && rep.residual <= RESIDUAL_LIMIT
        && rep.iters == first.iters
        && rep.sim_s.to_bits() == first.sim_s.to_bits()
}

/// Generators, build and one warm-up rep — everything before the first
/// timed rep — done several times (`wants_another_setup`); returns the
/// last with each set-up's wall at the reference machine's speed.
/// Both passes set up this way, so they measure with the allocator in
/// one state: a solve that allocates megabytes per product runs 40%
/// slower in a process that has not yet freed a large block, because
/// glibc then trims the heap and faults the pages in again.
fn set_up(workload: &str, seed: u64, quick: bool, host: &mut Reference) -> (Built, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut built = None;
    let mut before = host.slowdown();
    while wants_another_setup(&setup_s) {
        // One problem resident at a time, so peak RSS is that of one set-up.
        drop(built.take());
        let t0 = Instant::now();
        let b = build(workload, seed, quick);
        b.case.rep(None); // warm-up
        let wall = secs(t0);
        let after = host.slowdown();
        setup_s.push(wall / (0.5 * (before + after)));
        before = after;
        built = Some(b);
    }
    (built.expect("at least one set-up"), setup_s)
}

/// The timed pass: reps for `seconds` with spans off, a reading of the
/// host-speed reference between every two.
pub fn timed(workload: &str, seed: u64, seconds: f64, quick: bool) -> Timed {
    let mut host = Reference::new();
    let (built, setup_s) = set_up(workload, seed, quick, &mut host);
    let case = built.case;
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut readings = Readings(vec![host.slowdown()]);
    while reps.len() < 3 || secs(t0) < seconds {
        reps.push(case.rep(None));
        readings.0.push(host.slowdown());
    }
    println!("# {workload}: {}", readings.summary());
    let raw_ms: Vec<f64> = reps.iter().map(|r| r.wall_s * 1e3).collect();
    println!(
        "# {workload}: as the clock read them, a rep took median {:.3} ms, p95 {:.3} ms",
        median(&raw_ms),
        percentile(&raw_ms, 0.95)
    );
    let walls_ms: Vec<f64> = (0..reps.len())
        .map(|i| raw_ms[i] / readings.around(i))
        .collect();
    let is_correct = |r: &Rep| rep_is_correct(r, &reps[0]);
    let correct = reps.iter().filter(|r| is_correct(r)).count();
    let p50 = median(&walls_ms);
    Timed {
        setup_s,
        solve_wall_ms: p50,
        request_p50_ms: p50,
        request_p95_ms: percentile(&walls_ms, 0.95),
        throughput_rps: correct as f64 / (walls_ms.iter().sum::<f64>() / 1e3),
        attempted: reps.len() as u64,
        failed: (reps.len() - correct) as u64,
    }
}

/// The traced pass: plain and recorded reps interleaved for half of
/// `seconds`, the side runs, then the stand-alone probes. Returns
/// `(attempted, failed)`.
pub fn traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    quick: bool,
    probe_budget: Option<f64>,
    spans: &SpanBuf,
    ledger: &mut Ledger,
) -> (u64, u64) {
    let mut host = Reference::new();
    let Built { case, gen_s, mg } = set_up(workload, seed, quick, &mut host).0;
    ledger.insert("sparse.gen_s", gen_s);

    let t0 = Instant::now();
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    let mut readings = vec![host.slowdown()];
    while recorded.len() < 2 || secs(t0) < seconds * 0.5 {
        plain.push(case.rep(None));
        spans.set_trace(recorded.len() as u64);
        recorded.push(case.rep(Some(spans)));
        readings.push(host.slowdown());
    }
    ledger.insert("host.slowdown", median(&readings));
    let first = plain[0].clone();
    let all = || plain.iter().chain(&recorded);
    let failed = all().filter(|r| !rep_is_correct(r, &first)).count();
    let wall_ms = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s * 1e3).collect::<Vec<_>>());
    let plain_ms = wall_ms(&plain);

    let traces = sums_by_trace(&spans.spans());
    let column = |name: &str, pick: fn(&Sum) -> f64| -> f64 {
        let per_rep: Vec<f64> = traces
            .values()
            .map(|by_name| by_name.get(name).map_or(0.0, pick))
            .collect();
        median(&per_rep)
    };
    let calls = |name: &str| traces[&0].get(name).map_or(0, |s| s.calls);
    let solve_ms = column("solve", |s| s.ms);
    let self_ms = column("solve", |s| s.self_ms);
    let matvec_ms = column("core.matvec", |s| s.ms);
    let colwise_ms = column("core.colwise_matvec", |s| s.ms);
    let vcycle_ms = column("mg.vcycle", |s| s.ms);

    ledger.insert("sim_solve_s", first.sim_s);
    ledger.insert("trace_overhead_ratio", wall_ms(&recorded) / plain_ms);
    ledger.insert(
        "trace_reconcile_ratio",
        (self_ms + matvec_ms + colwise_ms + vcycle_ms) / solve_ms,
    );
    ledger.insert("trace.reps", recorded.len() as f64);
    ledger.insert("core.matvec_ms", matvec_ms);
    ledger.insert("core.matvec_calls", calls("core.matvec") as f64);
    if calls("core.colwise_matvec") > 0 {
        ledger.insert("core.colwise_matvec_ms", colwise_ms);
    }
    ledger.insert("solvers.self_ms", self_ms);
    ledger.insert("solvers.iters", first.iters as f64);
    ledger.insert(
        "solvers.final_rel_residual",
        all().map(|r| r.residual).fold(0.0, f64::max),
    );
    ledger.insert("machine.events_per_solve", first.events as f64);
    ledger.insert("machine.flops", first.flops as f64);
    ledger.insert("machine.words_sent", first.words as f64);
    ledger.insert("machine.messages", first.messages as f64);
    ledger.insert("machine.imbalance", first.imbalance);
    if let Some((build_s, total_nnz)) = mg {
        ledger.insert("mg.build_s", build_s);
        ledger.insert("mg.vcycle_ms", vcycle_ms);
        ledger.insert("mg.vcycle_share", vcycle_ms / solve_ms);
        ledger.insert("mg.iters", first.iters as f64);
        ledger.insert("mg.total_nnz", total_nnz as f64);
    }

    // Side runs: the serial baseline and protected against plain.
    let (a, b, np) = case.problem();
    let t0 = Instant::now();
    black_box(cg(a, black_box(b), STOP, MAX_ITERS)).expect("serial baseline");
    let serial_s = secs(t0);
    ledger.insert("solvers.serial_cg_ms", serial_s * 1e3);
    ledger.insert(
        "solvers.dist_over_serial_ratio",
        plain_ms / 1e3 / first.solves as f64 / serial_s,
    );
    // Best of two each, alternated: interference only ever adds time.
    let side = |protected: bool| {
        let t0 = Instant::now();
        case.side_solve(protected);
        secs(t0)
    };
    let (plain_a, protected_a, plain_b, protected_b) =
        (side(false), side(true), side(false), side(true));
    ledger.insert(
        "solvers.protected_over_plain_ratio",
        protected_a.min(protected_b) / plain_a.min(plain_b),
    );

    if let Some(budget) = probe_budget {
        probes::run(a, b, np, seed, budget, ledger);
    }
    (all().count() as u64, failed as u64)
}
