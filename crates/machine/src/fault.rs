//! Deterministic fault injection for the simulated machine.
//!
//! Long CG runs on real distributed-memory machines see transient value
//! corruption, lost messages, slow ("straggler") processors, and outright
//! node crashes. This module models all four as a *plan*: a sorted list of
//! faults keyed to the machine's global operation counter, so a given
//! seed reproduces exactly the same fault sequence on every run — the
//! property the recovery tests and the E23 fault sweep rely on.
//!
//! The machine consults a [`FaultInjector`] at the start of every public
//! operation (compute phase, collective, message). Faults take effect in
//! two ways:
//!
//! * **Timing faults** (message drop, straggler, crash restart) charge
//!   extra simulated time directly inside the machine.
//! * **Value faults** (bit flip, crash losing an in-flight contribution)
//!   *arm* a pending corruption which the next value-producing layer —
//!   `DistVector::dot` or the sparse matvec — drains through
//!   [`crate::Machine::corrupt_scalar`] / [`crate::Machine::corrupt_slice`].
//!
//! Every fault that fires is recorded as a typed
//! [`crate::EventKind::Fault`] event in the trace, so traces double as a
//! fault log (and the determinism test can compare them byte for byte).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Extra start-ups charged when a dropped message is detected and
/// retransmitted (timeout + resend).
pub const DROP_RETRANSMIT_STARTUPS: f64 = 8.0;

/// Start-ups charged machine-wide when a crashed processor is restarted
/// and rejoins the computation (fail-stop + immediate restart model).
pub const CRASH_RESTART_STARTUPS: f64 = 256.0;

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Transient value corruption: flip `bit` (0..=63) of the IEEE-754
    /// representation of the next reduction or matvec result; for bulk
    /// results, `target` selects the corrupted element (mod length).
    BitFlip { bit: u8, target: usize },
    /// A message is lost and must be retransmitted after a timeout;
    /// costs [`DROP_RETRANSMIT_STARTUPS`] extra start-ups.
    MessageDrop,
    /// Processor `proc` runs slow: its compute time is multiplied by
    /// `factor` for the next `ops` machine operations.
    Straggler { factor: f64, ops: usize },
    /// Fail-stop crash with immediate restart: the processor's in-flight
    /// contribution is lost (the next drained value becomes NaN) and the
    /// whole machine stalls for [`CRASH_RESTART_STARTUPS`] start-ups
    /// while it rejoins.
    Crash,
    /// The *host thread* servicing the machine freezes for `millis` of
    /// wall-clock time (simulated clocks do not advance). Models a hung
    /// worker — a deadlocked lock, an OS-level stall — rather than slow
    /// simulated compute, so supervision tests and the chaos soak can
    /// exercise hang detection deterministically.
    Stall { millis: u64 },
}

impl FaultKind {
    /// Stable lowercase tag used in trace labels.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::BitFlip { .. } => "bitflip",
            FaultKind::MessageDrop => "drop",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::Crash => "crash",
            FaultKind::Stall { .. } => "stall",
        }
    }
}

/// One planned fault: `kind` strikes processor `proc` when the machine's
/// operation counter reaches `op`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    pub op: usize,
    pub proc: usize,
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, sorted by operation index.
///
/// Build one explicitly with the `with_*` builders, or derive one from a
/// seed with [`FaultPlan::random`]; either way the plan is pure data and
/// two machines given equal plans inject identical faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a bit-flip corruption at operation `op` on processor `proc`.
    pub fn with_bit_flip(self, op: usize, proc: usize, bit: u8, target: usize) -> Self {
        assert!(bit < 64, "f64 has 64 bits");
        self.with(op, proc, FaultKind::BitFlip { bit, target })
    }

    /// Add a dropped-message fault at operation `op` on processor `proc`.
    pub fn with_message_drop(self, op: usize, proc: usize) -> Self {
        self.with(op, proc, FaultKind::MessageDrop)
    }

    /// Slow processor `proc` down by `factor` for `ops` operations
    /// starting at operation `op`.
    pub fn with_straggler(self, op: usize, proc: usize, factor: f64, ops: usize) -> Self {
        assert!(factor >= 1.0, "a straggler is slower, not faster");
        self.with(op, proc, FaultKind::Straggler { factor, ops })
    }

    /// Crash (and restart) processor `proc` at operation `op`.
    pub fn with_crash(self, op: usize, proc: usize) -> Self {
        self.with(op, proc, FaultKind::Crash)
    }

    /// Freeze the host thread for `millis` wall-clock milliseconds at
    /// operation `op` (a hung-worker fault; never drawn by
    /// [`FaultPlan::random`], only planted explicitly).
    pub fn with_stall(self, op: usize, proc: usize, millis: u64) -> Self {
        self.with(op, proc, FaultKind::Stall { millis })
    }

    /// The plan with `kind` striking `proc` at `op`, kept in `op` order.
    fn with(mut self, op: usize, proc: usize, kind: FaultKind) -> Self {
        self.faults.push(Fault { op, proc, kind });
        self.faults.sort_by_key(|f| f.op);
        self
    }

    /// Draw a random plan from a seed: over the first `horizon_ops`
    /// machine operations on an `np`-processor machine, each fault class
    /// fires with the per-operation probability given in `rates`.
    /// Identical `(seed, np, horizon_ops, rates)` always produce an
    /// identical plan.
    pub fn random(seed: u64, np: usize, horizon_ops: usize, rates: FaultRates) -> Self {
        assert!(np > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for op in 0..horizon_ops {
            if rates.bit_flip > 0.0 && rng.gen_bool(rates.bit_flip) {
                let proc = rng.gen_range(0..np);
                // Bias toward high mantissa / exponent bits so the
                // corruption is large enough to matter.
                let bit = rng.gen_range(40u8..63);
                let target = rng.gen_range(0..usize::MAX);
                plan = plan.with_bit_flip(op, proc, bit, target);
            }
            if rates.message_drop > 0.0 && rng.gen_bool(rates.message_drop) {
                plan = plan.with_message_drop(op, rng.gen_range(0..np));
            }
            if rates.straggler > 0.0 && rng.gen_bool(rates.straggler) {
                let proc = rng.gen_range(0..np);
                let factor = rng.gen_range(2.0f64..8.0);
                let ops = rng.gen_range(4usize..32);
                plan = plan.with_straggler(op, proc, factor, ops);
            }
            if rates.crash > 0.0 && rng.gen_bool(rates.crash) {
                plan = plan.with_crash(op, rng.gen_range(0..np));
            }
        }
        plan
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn len(&self) -> usize {
        self.faults.len()
    }

    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }
}

/// Per-operation fault probabilities for [`FaultPlan::random`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    pub bit_flip: f64,
    pub message_drop: f64,
    pub straggler: f64,
    pub crash: f64,
}

impl FaultRates {
    /// A mix of transient corruption and timing faults, no crashes.
    pub fn transient(rate: f64) -> Self {
        FaultRates {
            bit_flip: rate,
            message_drop: rate / 2.0,
            straggler: rate / 4.0,
            crash: 0.0,
        }
    }
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            bit_flip: 0.01,
            message_drop: 0.005,
            straggler: 0.002,
            crash: 0.0005,
        }
    }
}

/// A value corruption armed by the injector and drained by the next
/// value-producing operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PendingCorruption {
    /// Flip one bit of the value (element `target % len` for slices).
    Flip { bit: u8, target: usize },
    /// The contribution was lost entirely (crash): poison with NaN.
    Lost { target: usize },
}

impl PendingCorruption {
    pub(crate) fn apply_scalar(self, v: f64) -> f64 {
        match self {
            PendingCorruption::Flip { bit, .. } => f64::from_bits(v.to_bits() ^ (1u64 << bit)),
            PendingCorruption::Lost { .. } => f64::NAN,
        }
    }

    pub(crate) fn target(&self) -> usize {
        match self {
            PendingCorruption::Flip { target, .. } | PendingCorruption::Lost { target } => *target,
        }
    }
}

/// Walks a [`FaultPlan`] against the machine's operation counter.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    cursor: usize,
    injected: usize,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            cursor: 0,
            injected: 0,
        }
    }

    /// Faults scheduled at or before `op` that have not fired yet.
    /// (`<=` rather than `==` so a plan survives workloads whose op
    /// counter skips past a scheduled index.)
    pub(crate) fn due(&mut self, op: usize) -> Vec<Fault> {
        let mut fired = Vec::new();
        while self.cursor < self.plan.faults.len() && self.plan.faults[self.cursor].op <= op {
            fired.push(self.plan.faults[self.cursor]);
            self.cursor += 1;
        }
        self.injected += fired.len();
        fired
    }

    pub(crate) fn injected(&self) -> usize {
        self.injected
    }

    /// Rewind to the start of the plan (used by `Machine::reset` so a
    /// reset machine replays the same schedule from scratch).
    pub(crate) fn rewind(&mut self) {
        self.cursor = 0;
        self.injected = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_sorted_by_op() {
        let p = FaultPlan::new()
            .with_crash(50, 1)
            .with_bit_flip(10, 0, 52, 3)
            .with_message_drop(30, 2);
        let ops: Vec<usize> = p.faults().iter().map(|f| f.op).collect();
        assert_eq!(ops, vec![10, 30, 50]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let rates = FaultRates::default();
        let a = FaultPlan::random(42, 8, 500, rates);
        let b = FaultPlan::random(42, 8, 500, rates);
        let c = FaultPlan::random(43, 8, 500, rates);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should give different plans");
        assert!(!a.is_empty(), "default rates over 500 ops should fire");
    }

    #[test]
    fn injector_fires_each_fault_once_in_order() {
        let p = FaultPlan::new()
            .with_bit_flip(2, 0, 52, 0)
            .with_message_drop(2, 1)
            .with_crash(5, 0);
        let mut inj = FaultInjector::new(p);
        assert!(inj.due(0).is_empty());
        assert!(inj.due(1).is_empty());
        let at2 = inj.due(2);
        assert_eq!(at2.len(), 2);
        assert!(inj.due(3).is_empty());
        // Op counter may skip past the scheduled index; the fault still
        // fires at the next consulted op.
        let late = inj.due(9);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].kind, FaultKind::Crash);
        assert_eq!(inj.injected(), 3);
        assert!(inj.due(100).is_empty());
    }

    #[test]
    fn bit_flip_perturbs_value_and_lost_poisons() {
        let flip = PendingCorruption::Flip { bit: 52, target: 0 };
        let v = 1.0f64;
        let w = flip.apply_scalar(v);
        assert_ne!(v, w);
        assert!(w.is_finite());
        // Flipping the same bit twice restores the value.
        assert_eq!(flip.apply_scalar(w), v);

        let lost = PendingCorruption::Lost { target: 7 };
        assert!(lost.apply_scalar(3.25).is_nan());
        assert_eq!(lost.target(), 7);
    }

    #[test]
    fn transient_rates_exclude_crashes() {
        let r = FaultRates::transient(0.02);
        assert_eq!(r.crash, 0.0);
        let p = FaultPlan::random(7, 4, 300, r);
        assert!(p.faults().iter().all(|f| f.kind != FaultKind::Crash));
    }
}
