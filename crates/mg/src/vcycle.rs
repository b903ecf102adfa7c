//! The V-cycle preconditioner: one multigrid cycle per CG iteration.
//!
//! `apply_into` runs one V(1,1) cycle — on the way down pre-smooth,
//! form the residual and restrict it; solve exactly at the bottom; on
//! the way up prolong the correction, form the residual again and
//! post-smooth — charging the machine at every step: smoother and
//! residual compute as per-processor [`Machine::compute_all`] phases,
//! boundary exchange and level transfers as typed `Redistribute` events
//! ([`Machine::exchange`]), and the coarsest solve as a gather /
//! serial-Cholesky / scatter sequence, so unequal coarse block sizes
//! exercise the varying-payload gather pricing. Every event lands under
//! a `vcycle/level=l/{smooth,residual,restrict,prolong,coarse}` span
//! path; level spans are entered per *phase* (never nested across
//! levels), so `span::level_of` always reads the level the work
//! actually ran on.
//!
//! The cycle is symmetric — SymGS pre- and post-smoothing are adjoint,
//! restriction is exactly `Pᵀ`, coarse operators are Galerkin — so the
//! induced operator `B ≈ A⁻¹` is symmetric positive definite and CG's
//! convergence theory applies unchanged.
//!
//! Every vector a cycle touches lives in a `CycleWorkspace` sized at
//! first use, and every kernel writes into it, so an application
//! allocates nothing. The preconditioner is shared (`&self`, and as an
//! `Arc` between the service's workers), so idle workspaces wait in a
//! free list behind a mutex that is held to pop one and to push it back
//! — never while a cycle runs, which also means a cycle that panics
//! cannot poison it; it merely drops the workspace it had checked out.

use crate::hierarchy::{Level, MgHierarchy};
use crate::smoother::SweepPlan;
use hpf_core::{DistVector, RowwiseCsr};
use hpf_machine::{span, Machine};
use hpf_solvers::{DistPreconditioner, Krylov, RecoveryConfig};
use std::sync::Mutex;

/// The vectors one level of a cycle works in, in global order. A swept
/// level's `y`, `z` and `dz` hold one slot past its rows, the slot the
/// sweep's padding reads; the coarsest level, solved directly, has only
/// its `r` and `z`, and its `y`, `rr` and `dz` are empty.
struct LevelWorkspace {
    /// What this level is asked to solve for: the residual restricted
    /// from above (on level 0, the cycle's input).
    r: Vec<f64>,
    /// This level's correction.
    z: Vec<f64>,
    /// The smoother's forward-sweep intermediate.
    y: Vec<f64>,
    /// `r − A z`.
    rr: Vec<f64>,
    /// The post-smoothing correction.
    dz: Vec<f64>,
}

/// Every vector of one cycle, finest level first.
struct CycleWorkspace {
    levels: Vec<LevelWorkspace>,
}

impl CycleWorkspace {
    fn new(h: &MgHierarchy) -> Self {
        let level = |l: &Level| {
            let n = l.desc.len();
            let swept = l.sweep.is_some();
            let zeros = |len: usize| if swept { vec![0.0; len] } else { Vec::new() };
            LevelWorkspace {
                r: vec![0.0; n],
                z: vec![0.0; n + usize::from(swept)],
                y: zeros(n + 1),
                rr: zeros(n),
                dz: zeros(n + 1),
            }
        };
        CycleWorkspace {
            levels: h.levels.iter().map(level).collect(),
        }
    }
}

/// The span segment of each level, for every depth a grid can reach (an
/// extent halves at every level, so a `usize` one allows 64), from a
/// static table so that entering one builds no `String`.
const LEVEL_SPANS: [&str; 64] = [
    "level=0", "level=1", "level=2", "level=3", "level=4", "level=5", "level=6", "level=7",
    "level=8", "level=9", "level=10", "level=11", "level=12", "level=13", "level=14", "level=15",
    "level=16", "level=17", "level=18", "level=19", "level=20", "level=21", "level=22", "level=23",
    "level=24", "level=25", "level=26", "level=27", "level=28", "level=29", "level=30", "level=31",
    "level=32", "level=33", "level=34", "level=35", "level=36", "level=37", "level=38", "level=39",
    "level=40", "level=41", "level=42", "level=43", "level=44", "level=45", "level=46", "level=47",
    "level=48", "level=49", "level=50", "level=51", "level=52", "level=53", "level=54", "level=55",
    "level=56", "level=57", "level=58", "level=59", "level=60", "level=61", "level=62", "level=63",
];

/// A [`DistPreconditioner`] applying one V(1,1)-cycle of the owned
/// hierarchy per call.
pub struct MgPreconditioner {
    h: MgHierarchy,
    /// Workspaces no application is using right now.
    idle: Mutex<Vec<CycleWorkspace>>,
}

impl MgPreconditioner {
    pub fn new(h: MgHierarchy) -> Self {
        MgPreconditioner {
            h,
            idle: Mutex::new(Vec::new()),
        }
    }

    pub fn hierarchy(&self) -> &MgHierarchy {
        &self.h
    }

    /// MG-PCG as [`hpf_solvers::solve`] takes it: the hierarchy's own
    /// `(BLOCK)` fine operator (the level descriptors the transfers
    /// price against) and CG preconditioned by this V-cycle, protected
    /// when `recovery` is set.
    pub fn pcg(&self, recovery: Option<RecoveryConfig>) -> (&RowwiseCsr, Krylov<'_>) {
        let method = Krylov::Cg {
            precond: Some(self),
            recovery,
        };
        (self.h.fine(), method)
    }

    /// `rr = r − A z` at one level, charging the boundary exchange and
    /// the matvec compute of the modelled CSR program; the host forms
    /// `A z` in the form the level's rows were found to have.
    fn residual(&self, machine: &mut Machine, level: usize, w: &mut LevelWorkspace) {
        let lvl = &self.h.levels[level];
        let _s = span::enter("residual");
        machine.exchange(&lvl.halo, "mg-halo");
        machine.compute_all(&lvl.residual_flops, "mg-residual");
        let n = w.r.len();
        self.h.product(level).matvec_into(&w.z[..n], &mut w.rr);
        for (rri, ri) in w.rr.iter_mut().zip(&w.r) {
            *rri = ri - *rri;
        }
    }

    /// `z ≈ M⁻¹ r` at one level by block SymGS.
    fn smooth(
        machine: &mut Machine,
        lvl: &Level,
        sweep: &SweepPlan,
        r: &[f64],
        y: &mut [f64],
        z: &mut [f64],
    ) {
        let _s = span::enter("smooth");
        machine.compute_all(&lvl.smooth_flops, "mg-smooth");
        sweep.symgs_into(r, y, z);
    }

    /// Exact solve at the bottom: funnel the coarse residual to the
    /// root, back-substitute through the prebuilt Cholesky factor, fan
    /// the correction back out.
    fn coarse_solve(&self, machine: &mut Machine, level: usize, w: &mut LevelWorkspace) {
        let _lv = span::enter(LEVEL_SPANS[level]);
        let _s = span::enter("coarse");
        let lens = &self.h.coarse_lens;
        machine.gather_varying(0, lens, "mg-coarse-gather");
        machine.compute_serial(self.h.coarse.solve_flops(), "mg-coarse-solve");
        self.h.coarse.solve_into(&w.r, &mut w.z);
        machine.scatter_varying(0, lens, "mg-coarse-scatter");
    }

    /// One cycle from `level` down and back: `ws` holds this level's
    /// workspace and those below it; `ws[0].r` in, `ws[0].z` out.
    fn cycle(&self, machine: &mut Machine, level: usize, ws: &mut [LevelWorkspace]) {
        let (w, below) = ws.split_first_mut().expect("a workspace per level");
        let lvl = &self.h.levels[level];
        let (Some(sweep), Some(t)) = (&lvl.sweep, &lvl.down) else {
            return self.coarse_solve(machine, level, w);
        };
        let n = w.r.len();
        {
            let _lv = span::enter(LEVEL_SPANS[level]);
            Self::smooth(machine, lvl, sweep, &w.r, &mut w.y, &mut w.z);
            self.residual(machine, level, w);
            let _s = span::enter("restrict");
            machine.exchange(&t.restrict_traffic, "mg-restrict");
            machine.compute_all(&t.restrict_flops, "mg-restrict-apply");
            t.restrict_into(&w.rr, &mut below[0].r);
        }
        self.cycle(machine, level + 1, below);
        let _lv = span::enter(LEVEL_SPANS[level]);
        {
            let _s = span::enter("prolong");
            machine.exchange(&t.prolong_traffic, "mg-prolong");
            machine.compute_all(&t.prolong_flops, "mg-prolong-apply");
            let nc = below[0].r.len();
            t.prolong_add(&below[0].z[..nc], &mut w.z[..n]);
        }
        self.residual(machine, level, w);
        Self::smooth(machine, lvl, sweep, &w.rr, &mut w.y, &mut w.dz);
        for (zi, di) in w.z[..n].iter_mut().zip(&w.dz) {
            *zi += di;
        }
    }
}

impl std::fmt::Debug for MgPreconditioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MgPreconditioner")
            .field("depth", &self.h.depth())
            .field("fine", &self.h.level_dims(0))
            .field("np", &self.h.np())
            .finish()
    }
}

impl DistPreconditioner for MgPreconditioner {
    fn apply(&self, machine: &mut Machine, r: &DistVector) -> DistVector {
        let mut z = DistVector::zeros(self.h.levels[0].desc.clone());
        self.apply_into(machine, r, &mut z);
        z
    }

    fn apply_into(&self, machine: &mut Machine, r: &DistVector, z: &mut DistVector) {
        let _v = span::enter("vcycle");
        let idle = self.idle.lock().expect("no cycle runs under it").pop();
        let mut ws = idle.unwrap_or_else(|| CycleWorkspace::new(&self.h));
        r.copy_to_global(&mut ws.levels[0].r);
        self.cycle(machine, 0, &mut ws.levels);
        z.copy_from_global(&ws.levels[0].z[..r.len()]);
        self.idle.lock().expect("no cycle runs under it").push(ws);
    }

    fn name(&self) -> &'static str {
        "mg-vcycle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::GridDims;
    use hpf_machine::{CostModel, EventKind, Topology};

    fn machine(np: usize) -> Machine {
        Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
    }

    fn vcycle_matrix(dims: GridDims, levels: usize, np: usize) -> Vec<Vec<f64>> {
        let h = MgHierarchy::build(dims, levels, np).unwrap();
        let n = h.fine_matrix().n_rows();
        let desc = h.levels[0].desc.clone();
        let pre = MgPreconditioner::new(h);
        let mut m = machine(np);
        let mut cols = Vec::with_capacity(n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let r = DistVector::from_global(desc.clone(), &e);
            cols.push(pre.apply(&mut m, &r).to_global());
        }
        cols
    }

    /// The V-cycle operator B is symmetric: eᵢᵀ B eⱼ == eⱼᵀ B eᵢ, and
    /// positive on the diagonal — the contract CG relies on.
    #[test]
    fn vcycle_operator_is_symmetric_positive() {
        let b = vcycle_matrix(GridDims::d2(9, 9), 3, 4);
        let n = b.len();
        for i in 0..n {
            assert!(b[i][i] > 0.0, "B[{i}][{i}] = {} not positive", b[i][i]);
            for j in (i + 1)..n {
                let diff = (b[j][i] - b[i][j]).abs();
                let scale = b[j][i].abs().max(b[i][j].abs()).max(1e-30);
                assert!(diff <= 1e-10 * scale, "B asymmetric at ({i},{j}): {diff}");
            }
        }
    }

    /// One V-cycle is a strong approximate inverse: applying it to A x
    /// for a smooth x recovers most of x (error contraction well below
    /// 1, where a Jacobi application leaves O(1) error).
    #[test]
    fn vcycle_contracts_the_error() {
        let h = MgHierarchy::build(GridDims::d2(15, 15), 3, 4).unwrap();
        let a = h.fine_matrix().clone();
        let n = a.n_rows();
        let desc = h.levels[0].desc.clone();
        let pre = MgPreconditioner::new(h);
        let x: Vec<f64> = (0..n).map(|i| ((i % 17) as f64 * 0.21).sin()).collect();
        let b = a.matvec(&x).unwrap();
        let mut m = machine(4);
        let z = pre
            .apply(&mut m, &DistVector::from_global(desc, &b))
            .to_global();
        let err: f64 = z
            .iter()
            .zip(&x)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            err < 0.2 * norm,
            "one V-cycle left {:.1}% of the error",
            100.0 * err / norm
        );
    }

    /// Every machine event of an application lands under a
    /// `vcycle/level=l/...` span, levels are never nested, and the
    /// typed event kinds appear where the design says they should.
    #[test]
    fn vcycle_events_carry_per_level_spans() {
        let h = MgHierarchy::build(GridDims::d2(9, 9), 3, 4).unwrap();
        let desc = h.levels[0].desc.clone();
        let pre = MgPreconditioner::new(h);
        let mut m = machine(4);
        let r = DistVector::constant(desc, 1.0);
        pre.apply(&mut m, &r);
        assert!(!m.trace().is_empty());
        for e in m.trace().events() {
            assert!(e.span.starts_with("vcycle/level="), "span {}", e.span);
            assert_eq!(
                e.span.matches("level=").count(),
                1,
                "nested level spans in {}",
                e.span
            );
        }
        let levels_seen: std::collections::BTreeSet<usize> = m
            .trace()
            .events()
            .iter()
            .filter_map(|e| span::level_of(&e.span))
            .collect();
        assert_eq!(levels_seen.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        // Transfers and halos are typed Redistribute events; the coarse
        // solve funnels through gather/scatter.
        for label in ["mg-halo", "mg-restrict", "mg-prolong"] {
            assert!(
                m.trace()
                    .with_label(label)
                    .all(|e| e.kind == EventKind::Redistribute),
                "{label} should be Redistribute"
            );
            assert!(m.trace().with_label(label).count() > 0);
        }
        assert_eq!(m.trace().count(EventKind::Gather), 1);
        assert_eq!(m.trace().count(EventKind::Scatter), 1);
    }

    /// Every depth a grid can be built to has a static span segment, so
    /// no cycle formats one: an extent halves at every level, and
    /// `usize::MAX` halves 63 times before it is one point.
    #[test]
    fn every_reachable_depth_has_a_static_span_segment() {
        let deepest = GridDims::d2(usize::MAX, 1);
        assert!(deepest.supports_levels(LEVEL_SPANS.len()));
        assert!(!deepest.supports_levels(LEVEL_SPANS.len() + 1));
        for (level, segment) in LEVEL_SPANS.iter().enumerate() {
            assert_eq!(span::level_of(segment), Some(level));
        }
    }

    /// Two applications on the same inputs produce identical events and
    /// identical numbers — the determinism the convergence-CSV test at
    /// the solver level builds on.
    #[test]
    fn vcycle_application_is_deterministic() {
        let run = || {
            let h = MgHierarchy::build(GridDims::d3(7, 7, 7), 2, 4).unwrap();
            let desc = h.levels[0].desc.clone();
            let pre = MgPreconditioner::new(h);
            let mut m = machine(4);
            let n = desc.len();
            let r: Vec<f64> = (0..n).map(|i| ((i * 31 % 101) as f64) / 101.0).collect();
            let z = pre
                .apply(&mut m, &DistVector::from_global(desc, &r))
                .to_global();
            (z, m.trace().to_jsonl())
        };
        let (z1, t1) = run();
        let (z2, t2) = run();
        assert_eq!(t1, t2);
        assert!(z1.iter().zip(&z2).all(|(a, b)| a == b));
    }

    fn bits(v: &DistVector) -> Vec<u64> {
        v.to_global().iter().map(|x| x.to_bits()).collect()
    }

    /// A residual-like input, different for every `(thread, cycle)`.
    fn input(pre: &MgPreconditioner, thread: usize, cycle: usize) -> DistVector {
        let desc = pre.h.levels[0].desc.clone();
        let r: Vec<f64> = (0..desc.len())
            .map(|i| ((i * 31 + thread * 57 + cycle * 13) % 101) as f64 / 101.0 - 0.5)
            .collect();
        DistVector::from_global(desc, &r)
    }

    fn idle_workspaces(pre: &MgPreconditioner) -> usize {
        pre.idle.lock().unwrap().len()
    }

    /// `apply` is `apply_into` on a fresh vector; a `z` full of garbage
    /// and a workspace dirtied by another input change nothing.
    #[test]
    fn apply_and_apply_into_agree_bit_for_bit() {
        let np = 5;
        let h = MgHierarchy::build(GridDims::d2(15, 7), 3, np).unwrap();
        let pre = MgPreconditioner::new(h);
        let mut m = machine(np);
        let r = input(&pre, 0, 0);
        let fresh = pre.apply(&mut m, &r);
        pre.apply(&mut m, &input(&pre, 1, 1));
        let mut z = DistVector::constant(r.descriptor().clone(), f64::NAN);
        pre.apply_into(&mut m, &r, &mut z);
        assert_eq!(bits(&z), bits(&fresh));
        assert_eq!(idle_workspaces(&pre), 1);
    }

    /// Two workers sharing one preconditioner, as the service's do: 50
    /// cycles each, released together cycle by cycle so applications
    /// overlap, give the bits of the same cycles run alone, and leave at
    /// most one workspace per worker behind.
    #[test]
    fn concurrent_applications_match_the_serial_ones() {
        const CYCLES: usize = 50;
        let np = 4;
        let h = MgHierarchy::build(GridDims::d3(7, 7, 7), 3, np).unwrap();
        let pre = std::sync::Arc::new(MgPreconditioner::new(h));
        let run = |thread: usize, before_each: &dyn Fn()| -> Vec<Vec<u64>> {
            let mut m = machine(np);
            let mut z = DistVector::zeros(pre.h.levels[0].desc.clone());
            (0..CYCLES)
                .map(|cycle| {
                    before_each();
                    pre.apply_into(&mut m, &input(&pre, thread, cycle), &mut z);
                    bits(&z)
                })
                .collect()
        };
        let serial = [run(0, &|| {}), run(1, &|| {})];
        assert_eq!(idle_workspaces(&pre), 1);

        let barrier = std::sync::Barrier::new(2);
        let concurrent = std::thread::scope(|scope| {
            let workers = [0, 1].map(|thread| {
                let (run, barrier) = (&run, &barrier);
                scope.spawn(move || {
                    run(thread, &|| {
                        barrier.wait();
                    })
                })
            });
            workers.map(|w| w.join().expect("worker panicked"))
        });
        assert!(concurrent == serial, "a concurrent cycle differs");
        let idle = idle_workspaces(&pre);
        assert!((1..=2).contains(&idle), "{idle} idle workspaces");
    }

    /// A cycle that panics half way — on a machine with the wrong
    /// processor count, caught by the first charge, or on an input of the
    /// wrong length — drops the workspace it had checked out and leaves
    /// the free list's lock unpoisoned.
    #[test]
    fn a_panicking_application_leaves_later_ones_working() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let np = 4;
        let h = MgHierarchy::build(GridDims::d2(15, 15), 2, np).unwrap();
        let pre = MgPreconditioner::new(h);
        let r = input(&pre, 0, 0);
        let mut m = machine(np);
        let want = bits(&pre.apply(&mut m, &r));
        assert_eq!(idle_workspaces(&pre), 1);

        let mut wrong_machine = machine(np + 1);
        let mid_cycle = catch_unwind(AssertUnwindSafe(|| pre.apply(&mut wrong_machine, &r)));
        assert!(mid_cycle.is_err());
        assert_eq!(
            idle_workspaces(&pre),
            0,
            "the checked-out workspace is gone"
        );

        let short = DistVector::zeros(hpf_dist::ArrayDescriptor::block(r.len() - 1, np));
        let refused = catch_unwind(AssertUnwindSafe(|| pre.apply(&mut m, &short)));
        assert!(refused.is_err());

        assert_eq!(bits(&pre.apply(&mut m, &r)), want);
        assert_eq!(idle_workspaces(&pre), 1);
    }
}
