//! The simulated multicomputer.
//!
//! A [`Machine`] models `NP` distributed-memory processors connected by a
//! [`Topology`], with per-processor clocks and an analytic [`CostModel`].
//! Higher layers (distributed arrays, HPF operations, solvers) perform
//! the *real* arithmetic on locally owned data and charge the machine for
//! the computation and communication that the HPF layout induces. The
//! machine in turn maintains:
//!
//! * a per-processor local clock (so load imbalance is visible),
//! * machine-wide flop/word/message totals, and
//! * an event [`Trace`] usable by tests and benchmark reports.
//!
//! Collective operations synchronise the clocks (every participant waits
//! for the slowest), exactly as the merge/broadcast phases do in the
//! paper's Section 4 analysis. The machine keeps the largest clock as it
//! moves them, so an operation that is the same on every processor costs
//! the host O(1) accounting, as it costs the model one price.

use crate::cost::CostModel;
use crate::fault::{
    Fault, FaultInjector, FaultKind, FaultPlan, PendingCorruption, CRASH_RESTART_STARTUPS,
    DROP_RETRANSMIT_STARTUPS,
};
use crate::recorder::Recorder;
use crate::topology::Topology;
use crate::trace::{Digest, EventKind, Trace};

pub use crate::recorder::{EventRef, EventSink, EventTail, TraceLevel};

/// A simulated NP-processor distributed-memory machine.
///
/// ```
/// use hpf_machine::{Machine, EventKind};
///
/// let mut m = Machine::hypercube(8);
/// // An owner-computes phase followed by a scalar merge (a dot product).
/// m.compute_uniform(1_000, "dot-local");
/// m.allreduce(1, "dot-merge");
/// assert_eq!(m.trace().count(EventKind::AllReduce), 1);
/// assert!(m.elapsed() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    np: usize,
    topology: Topology,
    cost: CostModel,
    clocks: Vec<f64>,
    /// [`Machine::elapsed`]: the largest clock, 0 on an idle machine.
    max: f64,
    /// Every clock holds `max`, to the bit (false: not known).
    synced: bool,
    /// Flops executed, words sent and messages originated, all processors.
    flops: u64,
    words_sent: u64,
    messages: u64,
    /// What is kept of each operation: trace, digest, tail, sink.
    recorder: Recorder,
    /// What [`Machine::compute_each`] last advanced each clock by, for
    /// the recorder to copy from: empty until the recorder is watching.
    proc_times: Vec<f64>,
    /// Global operation counter: advances once per public machine
    /// operation; fault plans key off it.
    op_index: usize,
    injector: Option<FaultInjector>,
    /// Armed value corruption, drained by the next `corrupt_*` call.
    pending: Option<PendingCorruption>,
    /// Per-processor straggler state (compute-time multiplier).
    skew: Vec<Skew>,
    /// Per-operation cancellation callback (see [`ProgressHook`]).
    hook: Option<ProgressHook>,
}

/// Callback fired once at the start of every public machine operation,
/// with the operation index about to execute.
///
/// This is where a service worker watches for a hang: its hook reads the
/// wall clock every few operations and, when two readings are further
/// apart than the service's hang timeout, unwinds with a typed payload
/// the worker catches, ending the job in hand. The hook runs on the hot
/// path, so implementations should be a mask test on most operations.
#[derive(Clone)]
pub struct ProgressHook(pub std::sync::Arc<dyn Fn(usize) + Send + Sync>);

impl ProgressHook {
    pub fn new(f: impl Fn(usize) + Send + Sync + 'static) -> Self {
        ProgressHook(std::sync::Arc::new(f))
    }
}

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// Straggler slowdown applied to one processor's compute phases: none
/// while no operations remain (the default).
#[derive(Debug, Clone, Copy, Default)]
struct Skew {
    factor: f64,
    remaining: usize,
}

impl Machine {
    /// Create a machine of `np` processors (the paper's `N_P`, the
    /// `PROCESSORS PROCS(NP)` directive).
    pub fn new(np: usize, topology: Topology, cost: CostModel) -> Self {
        assert!(np > 0, "a machine needs at least one processor");
        Machine {
            np,
            topology,
            cost,
            clocks: vec![0.0; np],
            max: 0.0,
            synced: true,
            flops: 0,
            words_sent: 0,
            messages: 0,
            recorder: Recorder::default(),
            proc_times: Vec::new(),
            op_index: 0,
            injector: None,
            pending: None,
            skew: vec![Skew::default(); np],
            hook: None,
        }
    }

    /// A hypercube machine with the default mid-90s MPP cost model.
    pub fn hypercube(np: usize) -> Self {
        Self::new(np, Topology::Hypercube, CostModel::default())
    }

    pub fn np(&self) -> usize {
        self.np
    }

    pub fn topology(&self) -> Topology {
        self.topology
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// [`Machine::set_trace_level`] with `Full` for `true` and `Off` for
    /// `false` (counters and clocks run either way).
    pub fn set_tracing(&mut self, on: bool) {
        self.set_trace_level(if on {
            TraceLevel::Full
        } else {
            TraceLevel::Off
        });
    }

    /// Choose what the machine keeps from here on (a new machine keeps
    /// everything). What was kept so far stays until [`Machine::reset`].
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.recorder.level = level;
    }

    pub fn trace_level(&self) -> TraceLevel {
        self.recorder.level
    }

    /// The simulated elapsed wall-clock time: the slowest processor.
    pub fn elapsed(&self) -> f64 {
        self.max
    }

    /// Per-processor clocks (for imbalance inspection).
    pub fn clocks(&self) -> &[f64] {
        &self.clocks
    }

    /// Load imbalance factor of the processor clocks, [`crate::imbalance`]
    /// (1.0 = perfectly balanced). An idle machine reads 1.0.
    pub fn imbalance(&self) -> f64 {
        crate::imbalance(self.clocks.iter().copied()).unwrap_or(1.0)
    }

    pub fn total_flops(&self) -> u64 {
        self.flops
    }

    pub fn total_words_sent(&self) -> u64 {
        self.words_sent
    }

    pub fn total_messages(&self) -> u64 {
        self.messages
    }

    pub fn trace(&self) -> &Trace {
        &self.recorder.trace
    }

    /// The running aggregate of the operations performed at
    /// [`TraceLevel::Summary`] since the last [`Machine::reset`] — equal
    /// to [`Digest::from_trace`] of the trace `Full` would have kept.
    pub fn digest(&self) -> &Digest {
        &self.recorder.digest
    }

    /// Reset clocks, counters, trace and fault state (the machine keeps
    /// its shape; an installed fault plan rewinds to its start, so a
    /// reset machine replays the identical fault schedule).
    pub fn reset(&mut self) {
        self.set_all(0.0);
        (self.flops, self.words_sent, self.messages) = (0, 0, 0);
        self.recorder.trace.clear();
        self.recorder.digest.clear();
        self.op_index = 0;
        self.pending = None;
        self.skew.fill(Skew::default());
        if let Some(inj) = &mut self.injector {
            inj.rewind();
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Install a deterministic fault plan. The plan's operation indices
    /// are relative to this moment: the operation counter restarts at 0.
    /// Replaces any previous plan and clears armed corruption/skew.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.clear_fault_plan();
        self.injector = Some(FaultInjector::new(plan));
        self.op_index = 0;
    }

    /// Remove the fault plan along with any armed corruption or
    /// straggler skew. Subsequent operations run fault-free.
    pub fn clear_fault_plan(&mut self) {
        self.injector = None;
        self.pending = None;
        self.skew.fill(Skew::default());
    }

    /// Install a per-operation progress hook (a cancellation point).
    /// Survives [`Machine::reset`]; replaced by the next call.
    pub fn set_progress_hook(&mut self, hook: ProgressHook) {
        self.hook = Some(hook);
    }

    /// Install a live event sink, fired with every recorded event even
    /// when tracing is off, and below [`TraceLevel::Full`] lent the tail's
    /// slot it was written to (a tail of one, unless one was kept).
    /// Survives [`Machine::reset`]; replaced by the next call.
    pub fn set_event_sink(&mut self, sink: EventSink) {
        if self.recorder.tail.slots.is_empty() {
            self.recorder.tail = EventTail::with_capacity(1);
        }
        self.recorder.sink = Some(sink);
    }

    /// Keep the last `capacity` events (two at least: one slot is what a
    /// sink is lent) in [`Machine::tail`] from here on, below
    /// [`TraceLevel::Full`] (at `Full` the trace has them all). The tail
    /// outlives [`Machine::reset`], so it spans the attempts of one job;
    /// [`Machine::clear_tail`] starts the next.
    pub fn keep_tail(&mut self, capacity: usize) {
        self.recorder.tail = EventTail::with_capacity(capacity.max(2));
    }

    pub fn tail(&self) -> &EventTail {
        &self.recorder.tail
    }

    /// Forget the events in the tail; its slots and buffers stay.
    pub fn clear_tail(&mut self) {
        self.recorder.tail.clear();
    }

    /// Number of faults injected since the plan was installed (or the
    /// machine last reset).
    pub fn faults_injected(&self) -> usize {
        self.injector.as_ref().map_or(0, |i| i.injected())
    }

    /// The global operation counter (one tick per public machine
    /// operation; fault plans are keyed to it).
    pub fn op_index(&self) -> usize {
        self.op_index
    }

    /// Pass a freshly produced scalar (a reduction result, e.g. a dot
    /// product) through the fault layer: identity unless a value
    /// corruption is armed, in which case the corruption is consumed.
    pub fn corrupt_scalar(&mut self, v: f64) -> f64 {
        match self.pending.take() {
            Some(c) => c.apply_scalar(v),
            None => v,
        }
    }

    /// Pass a freshly produced bulk result (a matvec output) through the
    /// fault layer: corrupts at most one element, consuming the armed
    /// corruption.
    pub fn corrupt_slice(&mut self, values: &mut [f64]) {
        if let Some(c) = self.pending.take() {
            if values.is_empty() {
                // Nothing to corrupt here; stay armed for the next
                // value-producing operation.
                self.pending = Some(c);
                return;
            }
            let i = c.target() % values.len();
            values[i] = c.apply_scalar(values[i]);
        }
    }

    /// Advance the operation counter and fire any faults due at this
    /// operation. Near-zero cost when no plan is installed.
    fn begin_op(&mut self) {
        let op = self.op_index;
        self.op_index += 1;
        if let Some(h) = &self.hook {
            // May panic (cooperative cancellation) — the panic unwinds
            // out of the machine operation into the worker's catch site.
            (h.0)(op);
        }
        let Some(injector) = &mut self.injector else {
            return;
        };
        let due = injector.due(op);
        for s in &mut self.skew {
            s.remaining = s.remaining.saturating_sub(1);
        }
        for f in due {
            self.apply_fault(op, f);
        }
    }

    fn apply_fault(&mut self, op: usize, f: Fault) {
        let proc = f.proc % self.np;
        let start = self.elapsed();
        let (penalty, label) = match f.kind {
            FaultKind::BitFlip { bit, target } => {
                self.pending = Some(PendingCorruption::Flip { bit, target });
                (0.0, format!("fault:bitflip:p{proc}:op{op}:bit{bit}"))
            }
            FaultKind::MessageDrop => {
                // Timeout + retransmit: everyone in the collective waits.
                let t = DROP_RETRANSMIT_STARTUPS * self.cost.t_startup;
                self.clocks.iter_mut().for_each(|c| *c += t);
                self.moved_to(self.max, self.max + t);
                (t, format!("fault:drop:p{proc}:op{op}"))
            }
            FaultKind::Straggler { factor, ops } => {
                self.skew[proc] = Skew {
                    factor,
                    remaining: ops,
                };
                (0.0, format!("fault:straggler:p{proc}:op{op}:x{factor}"))
            }
            FaultKind::Crash => {
                // Fail-stop with immediate restart: the in-flight
                // contribution is lost and the machine stalls while the
                // processor rejoins.
                self.pending = Some(PendingCorruption::Lost { target: proc });
                let t = CRASH_RESTART_STARTUPS * self.cost.t_startup;
                self.set_all(self.max + t);
                (t, format!("fault:crash:p{proc}:op{op}"))
            }
            FaultKind::Stall { millis } => {
                // Wall-clock hang: the host thread freezes, the simulated
                // clocks stand still. It runs after this operation's hook,
                // so the hook's next clock reading sees the whole gap.
                std::thread::sleep(std::time::Duration::from_millis(millis));
                (0.0, format!("fault:stall:p{proc}:op{op}:ms{millis}"))
            }
        };
        self.recorder.record(EventRef::new(
            EventKind::Fault,
            self.np,
            penalty,
            start,
            &label,
        ));
    }

    fn skew_factor(&self, p: usize) -> f64 {
        if self.skew[p].remaining > 0 {
            self.skew[p].factor
        } else {
            1.0
        }
    }

    /// Set every clock to `at`.
    fn set_all(&mut self, at: f64) {
        self.clocks.fill(at);
        self.max = 0.0f64.max(at);
        self.synced = self.max.to_bits() == at.to_bits();
    }

    /// Keep `max` after clocks moved, none past `to` and one from `from`
    /// to `to`: when `to >= from` none fell, so the largest is `max` or
    /// `to`. A clock that fell (or a NaN) has `max` read again.
    fn moved_to(&mut self, from: f64, to: f64) {
        self.max = if to >= from {
            self.max.max(to)
        } else {
            self.clocks.iter().cloned().fold(0.0, f64::max)
        };
        self.synced = false;
    }

    /// The paper's §4 sentence, once: all `N_P` processors wait for the
    /// slowest, then spend `time` together. Every machine-wide operation
    /// prices itself, counts its own traffic and ends here; the event
    /// begins at the synchronisation point and every participant is busy
    /// for the full `time`: every clock ends at `max + time`.
    fn charge_all(
        &mut self,
        kind: EventKind,
        words: usize,
        payload_words: usize,
        flops: usize,
        time: f64,
        label: &str,
    ) -> f64 {
        let start = self.max;
        self.set_all(start + time);
        self.recorder.record(EventRef {
            words,
            payload_words,
            flops,
            ..EventRef::new(kind, self.np, time, start, label)
        });
        time
    }

    fn one_per_processor(&self, len: usize, what: &str) {
        assert_eq!(len, self.np, "one {what} per processor");
    }

    /// `senders` processors each sent `words` elements in `messages`
    /// messages.
    fn count_each(&mut self, senders: usize, words: usize, messages: usize) {
        self.words_sent += (senders * words) as u64;
        self.messages += (senders * messages) as u64;
    }

    // ------------------------------------------------------------------
    // Computation
    // ------------------------------------------------------------------

    /// Charge `flops` of local computation to processor `p` (advances only
    /// that processor's clock; no trace event — use [`Machine::compute_all`]
    /// for traced bulk phases).
    pub fn compute(&mut self, p: usize, flops: usize) {
        self.begin_op();
        self.flops += flops as u64;
        let from = self.clocks[p];
        self.clocks[p] += self.cost.flops(flops) * self.skew_factor(p);
        self.moved_to(from, self.clocks[p]);
    }

    /// Charge a bulk owner-computes phase: `flops_per_proc[p]` flops on
    /// each processor simultaneously. The phase's simulated time is the
    /// *maximum* per-processor time — this is where load imbalance from a
    /// bad sparse distribution shows up (Section 5.2).
    pub fn compute_all(&mut self, flops_per_proc: &[usize], label: &str) -> f64 {
        self.one_per_processor(flops_per_proc.len(), "flop count");
        self.compute_each(|p| flops_per_proc[p], label)
    }

    /// [`Machine::compute_all`] with the flop count of processor `p`
    /// given by `flops_of(p)`, for callers that can compute the counts
    /// without building a vector of them.
    pub fn compute_each(&mut self, flops_of: impl Fn(usize) -> usize, label: &str) -> f64 {
        self.begin_op();
        // The phase begins at the earliest participant's clock; together
        // with `proc_times` that places each processor's slice on the
        // reconstructed timeline.
        let mut start = f64::INFINITY;
        let mut max = 0.0f64;
        // The products the clocks advance by are stored only where an
        // event could be made of them: one predictable branch. Only a
        // fault plan skews a processor, so only under one is a time
        // multiplied by its factor.
        let watching = self.recorder.is_watching();
        let skewed = self.injector.is_some();
        if watching {
            self.proc_times.resize(self.np, 0.0);
        }
        let mut max_t: f64 = 0.0;
        let mut total = 0usize;
        // Whether every processor took the same time, to the bit (so
        // `-0.0` beside `0.0`, or two NaNs, are two times).
        let mut same = true;
        for p in 0..self.np {
            let f = flops_of(p);
            let mut t = self.cost.flops(f);
            if skewed {
                t *= self.skew_factor(p);
            }
            start = start.min(self.clocks[p]);
            self.clocks[p] += t;
            max = max.max(self.clocks[p]);
            max_t = max_t.max(t);
            total += f;
            if watching {
                self.proc_times[p] = t;
                same &= t.to_bits() == self.proc_times[0].to_bits();
            }
        }
        (self.max, self.synced) = (max, false);
        self.flops += total as u64;
        self.recorder.record(EventRef {
            flops: total,
            proc_times: &self.proc_times,
            uniform: watching && same && self.proc_times[0].to_bits() == max_t.to_bits(),
            ..EventRef::new(EventKind::Compute, self.np, max_t, start, label)
        });
        max_t
    }

    /// Charge a uniform compute phase of `flops_each` on every processor.
    /// On synchronised clocks with no fault plan (whose `begin_op` moves
    /// no clock), and a time that is its own `0.0.max(t)`, every clock
    /// ends at one value: one `fill`, one uniform row. Otherwise it is
    /// [`Machine::compute_each`].
    pub fn compute_uniform(&mut self, flops_each: usize, label: &str) -> f64 {
        let t = self.cost.flops(flops_each);
        if !self.synced || self.injector.is_some() || t.to_bits() != 0.0f64.max(t).to_bits() {
            return self.compute_each(|_| flops_each, label);
        }
        self.begin_op();
        let (start, total) = (self.max, flops_each * self.np);
        self.set_all(start + t);
        self.flops += total as u64;
        self.recorder.record(EventRef {
            flops: total,
            uniform: true,
            ..EventRef::new(EventKind::Compute, self.np, t, start, label)
        });
        t
    }

    /// Charge a *serial* compute phase: the work cannot be parallelised
    /// (e.g. the paper's Scenario 2 CSC loop, whose inter-iteration
    /// dependency means "the matrix-vector operation can not be performed
    /// in parallel"). Every processor waits for the single serial thread:
    /// all clocks advance by the full `flops` time.
    pub fn compute_serial(&mut self, flops: usize, label: &str) -> f64 {
        self.begin_op();
        let t = self.cost.flops(flops) * self.skew_factor(0);
        self.flops += flops as u64;
        self.charge_all(EventKind::Compute, 0, 0, flops, t, label)
    }

    // ------------------------------------------------------------------
    // Communication
    // ------------------------------------------------------------------

    /// Point-to-point message of `words` elements from `from` to `to`.
    /// Receiver waits for the sender (message-passing semantics).
    pub fn send(&mut self, from: usize, to: usize, words: usize, label: &str) -> f64 {
        if from == to {
            return 0.0;
        }
        self.begin_op();
        let hops = self.topology.hops(from, to, self.np);
        let t = self.cost.message(words, hops);
        self.words_sent += words as u64;
        self.messages += 1;
        let start = self.clocks[from];
        let arrive = start + t;
        self.clocks[to] = self.clocks[to].max(arrive);
        self.clocks[from] = arrive; // blocking send
        self.moved_to(start, arrive);
        self.recorder.record(EventRef {
            words,
            payload_words: words,
            hops,
            ..EventRef::new(EventKind::Send, self.np, t, start, label)
        });
        t
    }

    /// Barrier: synchronise all clocks plus a small allreduce-style cost.
    pub fn barrier(&mut self, label: &str) -> f64 {
        self.begin_op();
        let t = self.topology.allreduce_time(self.np, 0, &self.cost);
        self.charge_all(EventKind::Barrier, 0, 0, 0, t, label)
    }

    /// One-to-all broadcast of `words` elements from `root`.
    pub fn broadcast(&mut self, root: usize, words: usize, label: &str) -> f64 {
        assert!(root < self.np);
        self.begin_op();
        let t = self.topology.broadcast_time(self.np, words, &self.cost);
        self.words_sent += words as u64;
        self.messages += Topology::log2_ceil(self.np) as u64;
        self.charge_all(EventKind::Broadcast, words, words, 0, t, label)
    }

    /// All-to-all broadcast (allgather): every processor contributes
    /// `words_each` and ends holding all of them. This is the replication
    /// of the distributed vector `p` in Scenario 1 of the paper.
    pub fn allgather(&mut self, words_each: usize, label: &str) -> f64 {
        self.begin_op();
        let t = self
            .topology
            .allgather_time(self.np, words_each, &self.cost);
        // Recursive doubling forwards (NP-1)*words_each per processor in
        // total (data doubles each round) — the same volume a hand-coded
        // send-to-every-peer allgather moves.
        let rounds = Topology::log2_ceil(self.np) as usize;
        self.count_each(self.np, words_each * self.np.saturating_sub(1), rounds);
        let words = words_each * self.np;
        self.charge_all(EventKind::AllGather, words, words_each, 0, t, label)
    }

    /// Reduce `words` elements to `root` (combining with flops included in
    /// the topology cost).
    pub fn reduce(&mut self, root: usize, words: usize, label: &str) -> f64 {
        assert!(root < self.np);
        self.begin_op();
        let t = self.topology.reduce_time(self.np, words, &self.cost);
        self.count_each(self.np - 1, words, 1);
        let moved = words * (self.np - 1);
        self.charge_all(EventKind::Reduce, moved, words, 0, t, label)
    }

    /// All-reduce of `words` elements: the merge phase of `DOT_PRODUCT`
    /// followed by replication of the scalar — on a hypercube this is the
    /// paper's `t_startup * log N_P` term.
    pub fn allreduce(&mut self, words: usize, label: &str) -> f64 {
        self.begin_op();
        let t = self.topology.allreduce_time(self.np, words, &self.cost);
        // Butterfly: every processor exchanges `words` in each of the
        // log NP rounds.
        let rounds = Topology::log2_ceil(self.np) as usize;
        self.count_each(self.np, words * rounds, rounds);
        let moved = words * self.np.saturating_sub(1);
        self.charge_all(EventKind::AllReduce, moved, words, 0, t, label)
    }

    /// Reduce-scatter: every processor contributes `np * words_each`
    /// elements; each ends with its own `words_each` block of the sum.
    /// The dual of [`Machine::allgather`] — together they form the
    /// communication-optimal allreduce, and the row phase of the 2-D
    /// `(BLOCK, BLOCK)` matvec.
    pub fn reduce_scatter(&mut self, words_each: usize, label: &str) -> f64 {
        self.begin_op();
        let t = self
            .topology
            .reduce_scatter_time(self.np, words_each, &self.cost);
        let rounds = Topology::log2_ceil(self.np) as usize;
        self.count_each(self.np, words_each * self.np.saturating_sub(1), rounds);
        let moved = words_each * self.np * self.np.saturating_sub(1);
        self.charge_all(EventKind::Reduce, moved, words_each, 0, t, label)
    }

    /// Run a collective over a *subset* of processors (a row or column of
    /// a processor grid): costs are computed as if on a machine of
    /// `group_size` processors, and only the group members' clocks
    /// advance (after synchronising among themselves).
    pub fn group_collective(
        &mut self,
        members: &[usize],
        kind: EventKind,
        words_each: usize,
        label: &str,
    ) -> f64 {
        let g = members.len();
        if g <= 1 {
            return 0.0;
        }
        self.begin_op();
        let t = match kind {
            EventKind::AllGather => self.topology.allgather_time(g, words_each, &self.cost),
            EventKind::AllReduce => self.topology.allreduce_time(g, words_each, &self.cost),
            EventKind::Reduce => self.topology.reduce_scatter_time(g, words_each, &self.cost),
            EventKind::Broadcast => self.topology.broadcast_time(g, words_each, &self.cost),
            other => panic!("group_collective: unsupported kind {other:?}"),
        };
        self.count_each(g, words_each * (g - 1), Topology::log2_ceil(g) as usize);
        // Group-internal barrier: members advance to the group max.
        let max = members
            .iter()
            .map(|&p| self.clocks[p])
            .fold(0.0f64, f64::max);
        for &p in members {
            self.clocks[p] = max + t;
        }
        self.moved_to(max, max + t);
        // Stamped with the *group* size: the cost formulas above were
        // evaluated for `g` processors, and the oracle re-evaluates them
        // from `participants`.
        self.recorder.record(EventRef {
            words: words_each * g * (g - 1),
            payload_words: words_each,
            ..EventRef::new(kind, g, t, max, label)
        });
        t
    }

    /// Personalised all-to-all exchange of `words_each` per pair (used by
    /// REDISTRIBUTE).
    pub fn alltoall(&mut self, words_each: usize, label: &str) -> f64 {
        self.begin_op();
        let t = self.topology.alltoall_time(self.np, words_each, &self.cost);
        self.count_each(self.np, words_each * (self.np - 1), self.np - 1);
        let moved = words_each * self.np * self.np.saturating_sub(1);
        self.charge_all(EventKind::AllToAll, moved, words_each, 0, t, label)
    }

    /// Irregular many-to-many exchange: `matrix[s][d]` words from `s` to
    /// `d`. Cost: every processor pays a start-up per distinct partner
    /// plus bandwidth for the maximum of its send and receive volumes;
    /// phase time is the max over processors. Used for atom/balanced
    /// redistributions where traffic is data-dependent.
    pub fn exchange(&mut self, matrix: &[Vec<usize>], label: &str) -> f64 {
        let np = self.np;
        assert!(
            matrix.len() == np && matrix.iter().all(|row| row.len() == np),
            "exchange: one row per processor, one count per processor in each"
        );
        self.begin_op();
        let (mut max_t, mut total_words) = (0.0f64, 0usize);
        for p in 0..np {
            // Row `p` is what `p` sends, column `p` what it receives.
            let (mut sends, mut sent, mut recvs, mut recvd) = (0, 0, 0, 0);
            for q in (0..np).filter(|&q| q != p) {
                let (out, into) = (matrix[p][q], matrix[q][p]);
                (sends, sent) = (sends + usize::from(out > 0), sent + out);
                (recvs, recvd) = (recvs + usize::from(into > 0), recvd + into);
            }
            let t = (sends.max(recvs)) as f64 * self.cost.t_startup
                + self.cost.t_word * sent.max(recvd) as f64;
            total_words += sent;
            self.messages += sends as u64;
            max_t = max_t.max(t);
        }
        self.words_sent += total_words as u64;
        self.charge_all(EventKind::Redistribute, total_words, 0, 0, max_t, label)
    }

    /// Gather to `root`, or scatter from it, the `words_of(p)` elements
    /// of every other processor `p` ([`Topology::gather_time`]). A
    /// block's sender — its owner in a gather, the root in a scatter —
    /// counts its words and one message if it is not empty. The event's
    /// `payload_words` is the *total* that moved, so the cost oracle
    /// re-prices what moved rather than a uniform per-processor count.
    fn through_root(
        &mut self,
        kind: EventKind,
        root: usize,
        words_of: impl Fn(usize) -> usize,
        label: &str,
    ) -> f64 {
        assert!(root < self.np);
        self.begin_op();
        let blocks = (0..self.np).filter(|&p| p != root).map(words_of);
        let (total, sent) = blocks.fold((0, 0), |(total, sent), words| {
            (total + words, sent + usize::from(words > 0))
        });
        self.count_each(1, total, sent);
        let t = self.topology.gather_time(self.np, total, &self.cost);
        self.charge_all(kind, total, total, 0, t, label)
    }

    /// Gather `words_each` elements from every processor to `root`.
    pub fn gather(&mut self, root: usize, words_each: usize, label: &str) -> f64 {
        self.through_root(EventKind::Gather, root, |_| words_each, label)
    }

    /// Gather `words_per_proc[p]` elements from each processor `p` to
    /// `root` (multigrid coarse levels own unequal — often zero — block
    /// sizes): log P start-ups, bandwidth for the total volume funnelled
    /// into the root.
    pub fn gather_varying(&mut self, root: usize, words_per_proc: &[usize], label: &str) -> f64 {
        self.one_per_processor(words_per_proc.len(), "word count");
        self.through_root(EventKind::Gather, root, |p| words_per_proc[p], label)
    }

    /// Scatter `words_each` elements from `root` to every processor.
    pub fn scatter(&mut self, root: usize, words_each: usize, label: &str) -> f64 {
        self.through_root(EventKind::Scatter, root, |_| words_each, label)
    }

    /// Scatter `words_per_proc[p]` elements from `root` to each
    /// processor `p` — the inverse of [`Machine::gather_varying`], with
    /// the same total-volume `payload_words` convention.
    pub fn scatter_varying(&mut self, root: usize, words_per_proc: &[usize], label: &str) -> f64 {
        self.one_per_processor(words_per_proc.len(), "word count");
        self.through_root(EventKind::Scatter, root, |p| words_per_proc[p], label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(t_startup: f64, t_word: f64, t_flop: f64) -> CostModel {
        CostModel {
            t_startup,
            t_word,
            t_flop,
        }
    }

    fn unit_cost() -> CostModel {
        cost(1.0, 0.0, 1.0)
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Machine::new(0, Topology::Hypercube, CostModel::default());
    }

    #[test]
    fn compute_advances_only_one_clock() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        m.compute(2, 10);
        assert_eq!(m.clocks()[2], 10.0);
        assert_eq!(m.clocks()[0], 0.0);
        assert_eq!(m.elapsed(), 10.0);
        assert_eq!(m.total_flops(), 10);
    }

    #[test]
    fn compute_all_time_is_max_over_processors() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        let t = m.compute_all(&[10, 20, 5, 1], "phase");
        assert_eq!(t, 20.0);
        assert_eq!(m.elapsed(), 20.0);
        assert_eq!(m.total_flops(), 36);
        assert_eq!(m.trace().count(EventKind::Compute), 1);
    }

    #[test]
    fn imbalance_reflects_skew() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        m.compute_all(&[100, 0, 0, 0], "skewed");
        // max = 100, mean = 25 -> imbalance 4.
        assert!((m.imbalance() - 4.0).abs() < 1e-12);

        let mut b = Machine::new(4, Topology::Hypercube, unit_cost());
        b.compute_all(&[25, 25, 25, 25], "balanced");
        assert!((b.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn allreduce_synchronises_clocks() {
        let mut m = Machine::new(8, Topology::Hypercube, unit_cost());
        m.compute(3, 42);
        m.allreduce(1, "dot-merge");
        // log2(8) = 3 rounds of t_startup (+ t_flop per word per round).
        let expect = 42.0 + 3.0 * (1.0 + 1.0);
        for &c in m.clocks() {
            assert!((c - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn dot_merge_cost_is_logarithmic() {
        let c = cost(1.0, 0.0, 0.0);
        let mut m4 = Machine::new(4, Topology::Hypercube, c);
        let mut m16 = Machine::new(16, Topology::Hypercube, c);
        assert_eq!(m4.allreduce(1, "d"), 2.0);
        assert_eq!(m16.allreduce(1, "d"), 4.0);
    }

    #[test]
    fn send_blocks_receiver() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        m.compute(0, 5);
        m.send(0, 1, 10, "msg");
        // proc1 waits until proc0's send arrives: 5 + 1 hop * t_startup.
        assert!(m.clocks()[1] >= 6.0 - 1e-12);
        assert_eq!(m.total_messages(), 1);
    }

    #[test]
    fn send_to_self_is_free() {
        let mut m = Machine::new(2, Topology::Hypercube, unit_cost());
        assert_eq!(m.send(1, 1, 100, "self"), 0.0);
        assert_eq!(m.total_messages(), 0);
    }

    #[test]
    fn exchange_costs_max_over_processors() {
        let mut m = Machine::new(2, Topology::Hypercube, unit_cost());
        // proc0 sends 100 words to proc1; nothing back.
        let mat = vec![vec![0, 100], vec![0, 0]];
        let t = m.exchange(&mat, "redist");
        assert_eq!(t, 1.0); // one start-up, zero t_word
        assert_eq!(m.total_words_sent(), 100);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Machine::hypercube(4);
        m.compute_uniform(100, "work");
        m.allgather(10, "ag");
        assert!(m.elapsed() > 0.0);
        m.reset();
        assert_eq!(m.elapsed(), 0.0);
        assert_eq!(m.total_flops(), 0);
        assert!(m.trace().is_empty());
    }

    #[test]
    fn tracing_can_be_disabled() {
        let mut m = Machine::hypercube(4);
        m.set_tracing(false);
        m.allgather(10, "ag");
        assert!(m.trace().is_empty());
        assert!(m.elapsed() > 0.0); // clocks still advance
    }

    #[test]
    fn summary_level_keeps_a_digest_and_no_events() {
        let run = |level: TraceLevel| {
            let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
            m.set_trace_level(level);
            let _v = crate::span::enter("vcycle");
            let _l = crate::span::enter("level=1");
            m.compute_all(&[5, 10, 5, 5], "smooth");
            m.exchange(&vec![vec![1; 4]; 4], "halo");
            m.allreduce(1, "dot-merge");
            m.compute_uniform(3, "smooth");
            m
        };
        let full = run(TraceLevel::Full);
        let summary = run(TraceLevel::Summary);
        assert_eq!(summary.trace_level(), TraceLevel::Summary);
        assert!(summary.trace().is_empty());
        assert_eq!(summary.digest(), &Digest::from_trace(full.trace()));
        let labels: Vec<&str> = summary
            .digest()
            .by_label
            .iter()
            .map(|row| row.label.as_str())
            .collect();
        assert_eq!(labels, ["smooth", "halo [level=1]", "dot-merge"]);
        assert_eq!(summary.digest().events, 4);
        assert_eq!(summary.clocks(), full.clocks());
        // Only `Summary` folds; `Off` and `Full` leave the digest alone.
        assert_eq!(full.digest(), &Digest::default());
        assert_eq!(run(TraceLevel::Off).digest(), &Digest::default());
        let mut summary = summary;
        summary.reset();
        assert_eq!(summary.digest(), &Digest::default());
    }

    #[test]
    fn set_tracing_names_two_of_the_levels() {
        let mut m = Machine::hypercube(2);
        assert_eq!(m.trace_level(), TraceLevel::Full);
        m.set_tracing(false);
        assert_eq!(m.trace_level(), TraceLevel::Off);
        m.set_trace_level(TraceLevel::Summary);
        m.set_tracing(true);
        assert_eq!(m.trace_level(), TraceLevel::Full);
    }

    #[test]
    fn a_sink_sees_the_same_events_at_every_level() {
        use std::sync::{Arc, Mutex};
        let run = |level: TraceLevel| {
            let seen: Arc<Mutex<Vec<String>>> = Arc::default();
            let tap = seen.clone();
            let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
            m.set_trace_level(level);
            m.set_event_sink(EventSink::new(move |e| {
                tap.lock().unwrap().push(format!("{:?}", e.to_event()));
            }));
            let _s = crate::span::enter("solve");
            m.compute_all(&[5, 10, 5, 5], "local-matvec");
            m.send(0, 3, 7, "msg");
            {
                let _i = crate::span::enter_iter(12);
                m.allgather(2, "bcast-p");
            }
            m.compute_serial(4, "serial");
            let seen = seen.lock().unwrap().clone();
            seen
        };
        let at_full = run(TraceLevel::Full);
        assert_eq!(at_full.len(), 4);
        assert!(at_full[0].contains("proc_times: [5.0, 10.0, 5.0, 5.0]"));
        assert!(at_full[1].contains("proc_times: []") && at_full[1].contains("hops: 2"));
        assert!(at_full[2].contains("span: \"solve/iter=12\""));
        assert_eq!(run(TraceLevel::Summary), at_full);
        assert_eq!(run(TraceLevel::Off), at_full);
    }

    #[test]
    fn the_tail_keeps_the_last_events_across_resets_until_cleared() {
        let labels =
            |m: &Machine| -> Vec<String> { m.tail().iter().map(|e| e.label.to_string()).collect() };
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        m.set_trace_level(TraceLevel::Summary);
        m.keep_tail(3);
        assert!(m.tail().is_empty());
        m.barrier("a");
        m.compute_all(&[1, 2, 3, 4], "b");
        assert_eq!(labels(&m), ["a", "b"]);
        assert_eq!((m.tail().len(), m.tail().overwritten()), (2, 0));
        // A job's next attempt resets the machine: the tail spans both.
        m.reset();
        for label in ["c", "d", "e"] {
            m.allreduce(1, label);
        }
        assert_eq!(labels(&m), ["c", "d", "e"]);
        assert_eq!((m.tail().len(), m.tail().overwritten()), (3, 2));
        m.send(0, 1, 5, "f");
        assert_eq!(labels(&m), ["d", "e", "f"]);
        assert!(m.tail().iter().all(|e| e.proc_times.is_empty()));
        // The next job starts from nothing, in the slots it was left.
        m.clear_tail();
        assert_eq!((m.tail().len(), m.tail().overwritten()), (0, 0));
        m.compute_all(&[1, 2, 3, 4], "g");
        assert_eq!(labels(&m), ["g"]);
        assert_eq!(m.tail().iter().next().unwrap().proc_times.len(), 4);
        // At `Full` the trace has every event and the tail is left alone.
        m.set_trace_level(TraceLevel::Full);
        m.barrier("h");
        assert_eq!(labels(&m), ["g"]);
        let by_hand = EventTail::from(m.trace().events());
        assert_eq!((by_hand.len(), by_hand.overwritten()), (1, 0));
        assert_eq!(by_hand.iter().next().unwrap().label, "h");
        assert!(EventTail::default().iter().next().is_none());
    }

    #[test]
    fn a_tail_past_its_inline_room_reads_back_the_full_traces_last_rows() {
        // Every field of an event, its floats as bits.
        let bits = |e: &EventRef<'_>| {
            let times: Vec<u64> = e.proc_times.iter().map(|t| t.to_bits()).collect();
            let (time, start) = (e.time.to_bits(), e.start.to_bits());
            let counts = (e.participants, e.words, e.flops, e.payload_words, e.hops);
            format!(
                "{:?} {counts:?} {time:x} {start:x} {:?} {:?} {times:?} {}",
                e.kind, e.span, e.label, e.uniform
            )
        };
        // At NP = 64 a compute phase's times do not fit in a slot, nor do
        // these labels; the span paths are longer still.
        let drive = |m: &mut Machine| {
            m.reset();
            m.set_fault_plan(FaultPlan::new().with_straggler(100, 63, 3.0, 20));
            let _job = crate::span::enter("trace=00000000c0ffee00/job=123456");
            let _solve = crate::span::enter("solve");
            for k in 0..30 {
                let _iter = crate::span::enter_iter(k);
                let _deep =
                    ["vcycle", "level=2", "smooth", "coarse-correction"].map(crate::span::enter);
                m.compute_each(|p| 100 + p * (k % 3), "mg-smooth-a-longer-label");
                m.compute_uniform(7, "dot-local");
                m.allreduce(1, "fault:stall:p63:op123456:ms2000");
                m.send(3, 60, 5, "msg");
                if k % 4 == 0 {
                    m.compute_each(|p| p % 8, "eight");
                }
            }
        };
        let machine = |level| {
            let mut m = Machine::new(64, Topology::Hypercube, unit_cost());
            m.set_trace_level(level);
            m.keep_tail(64);
            m
        };
        let mut full = machine(TraceLevel::Full);
        drive(&mut full);
        let rows: Vec<String> = full.trace().iter().map(|e| bits(&e)).collect();
        assert!(rows.len() > 128, "{} events", rows.len());
        let last = &rows[rows.len() - 64..];
        assert!(last
            .iter()
            .any(|e| e.contains("\"mg-smooth-a-longer-label\" [")));
        assert!(last
            .iter()
            .any(|e| e.contains("\"fault:straggler:p63:op100:x3\"")));
        let mut summary = machine(TraceLevel::Summary);
        for round in 0..2 {
            // A job's tail is cleared: the next fills the slots it left.
            summary.clear_tail();
            drive(&mut summary);
            let kept: Vec<String> = summary.tail().iter().map(|e| bits(&e)).collect();
            assert_eq!(kept, last, "round {round}");
            assert_eq!(summary.tail().overwritten() as usize, rows.len() - 64);
        }
        let times = |e: EventRef<'_>| (e.proc_times.len(), e.uniform);
        let shapes: Vec<_> = summary.tail().iter().map(times).collect();
        for shape in [(64, false), (0, true), (0, false)] {
            assert!(shapes.contains(&shape), "no event with times {shape:?}");
        }
        // By hand, from the decoded trace, every event comes back.
        let by_hand = EventTail::from(full.trace().events());
        let all: Vec<String> = by_hand.iter().map(|e| bits(&e)).collect();
        let decoded: Vec<String> = full
            .trace()
            .events()
            .iter()
            .map(|e| bits(&e.into()))
            .collect();
        assert_eq!(all, decoded);
    }

    #[test]
    fn a_sink_is_lent_the_tail_slot_holding_what_full_would_store() {
        use std::sync::{Arc, Mutex};
        type Seen = Vec<(String, String, Vec<f64>)>;
        let copy =
            |e: &EventRef<'_>| (e.span.to_string(), e.label.to_string(), e.times().collect());
        let run = |level: TraceLevel, tail: usize, sampled: bool| -> (Seen, Machine) {
            let seen: Arc<Mutex<Seen>> = Arc::default();
            let tap = seen.clone();
            let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
            m.set_trace_level(level);
            if tail > 0 {
                m.keep_tail(tail);
            }
            let sink = EventSink::new(move |e| tap.lock().unwrap().push(copy(e)));
            m.set_event_sink(if sampled {
                sink.with_filter(|_, kind| kind == EventKind::AllGather)
            } else {
                sink
            });
            let _s = crate::span::enter("solve");
            m.compute_all(&[5, 10, 5, 5], "local-matvec");
            m.send(0, 3, 7, "msg");
            {
                let _i = crate::span::enter_iter(12);
                m.allgather(2, "bcast-p");
            }
            m.compute_serial(4, "serial");
            let seen = seen.lock().unwrap().clone();
            (seen, m)
        };
        let (at_full, full) = run(TraceLevel::Full, 0, false);
        let stored: Seen = full.trace().iter().map(|e| copy(&e)).collect();
        assert_eq!(stored.len(), 4);
        assert_eq!(at_full, stored);
        // A sampling sink is shown what it asked for at `Full` too.
        assert_eq!(run(TraceLevel::Full, 0, true).0, stored[2..3]);
        for level in [TraceLevel::Off, TraceLevel::Summary] {
            for tail in [0, 2, 64] {
                let (lent, m) = run(level, tail, false);
                assert_eq!(lent, stored, "{level:?}, tail {tail}");
                // The tail holds the same events, whoever else saw them.
                let kept: Seen = m.tail().iter().map(|e| copy(&e)).collect();
                let expected = &stored[stored.len() - tail.clamp(1, 4)..];
                assert_eq!(kept, expected, "{level:?}, tail {tail}");
                // A sampling sink is shown what it asked for, no more; a
                // kept tail keeps every event all the same.
                let (lent, m) = run(level, tail, true);
                assert_eq!(lent, stored[2..3], "{level:?}, tail {tail}");
                assert_eq!(m.tail().len(), if tail == 0 { 1 } else { tail.min(4) });
            }
        }
    }

    #[test]
    fn single_proc_collectives_free() {
        let mut m = Machine::hypercube(1);
        assert_eq!(m.allgather(100, "x"), 0.0);
        assert_eq!(m.allreduce(100, "x"), 0.0);
        assert_eq!(m.broadcast(0, 100, "x"), 0.0);
        assert_eq!(m.reduce_scatter(100, "x"), 0.0);
    }

    #[test]
    fn reduce_scatter_is_dual_of_allgather() {
        // Same start-up count, same bandwidth term (plus combine flops).
        let c = cost(1.0, 0.5, 0.0);
        let mut m1 = Machine::new(8, Topology::Hypercube, c);
        let t_ag = m1.allgather(100, "ag");
        let mut m2 = Machine::new(8, Topology::Hypercube, c);
        let t_rs = m2.reduce_scatter(100, "rs");
        assert!((t_ag - t_rs).abs() < 1e-12);
    }

    #[test]
    fn group_collective_only_advances_members() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        m.group_collective(&[0, 2], EventKind::AllGather, 10, "row-ag");
        assert!(m.clocks()[0] > 0.0);
        assert!(m.clocks()[2] > 0.0);
        assert_eq!(m.clocks()[1], 0.0);
        assert_eq!(m.clocks()[3], 0.0);
    }

    #[test]
    fn group_collective_costs_group_size_not_machine_size() {
        let c = cost(1.0, 0.0, 0.0);
        let mut m = Machine::new(16, Topology::Hypercube, c);
        // A 4-member group pays log2(4) = 2 start-ups, not log2(16) = 4.
        let t = m.group_collective(&[0, 1, 2, 3], EventKind::AllGather, 1, "g");
        assert_eq!(t, 2.0);
        let mut whole = Machine::new(16, Topology::Hypercube, c);
        assert_eq!(whole.allgather(1, "w"), 4.0);
    }

    #[test]
    fn group_collective_single_member_free() {
        let mut m = Machine::hypercube(4);
        assert_eq!(m.group_collective(&[2], EventKind::AllReduce, 5, "g"), 0.0);
    }

    #[test]
    fn gather_and_scatter_costs_and_events() {
        let mut m = Machine::new(8, Topology::Hypercube, unit_cost());
        let tg = m.gather(0, 10, "gather-x");
        // log2(8) = 3 start-ups (t_word = 0 in unit_cost).
        assert_eq!(tg, 3.0);
        assert_eq!(m.trace().count(EventKind::Gather), 1);
        // Non-root processors each sent their block.
        assert_eq!((m.total_messages(), m.total_words_sent()), (7, 70));

        let ts = m.scatter(0, 10, "scatter-x");
        assert_eq!(ts, 3.0);
        assert_eq!(m.trace().count(EventKind::Scatter), 1);
        // Root sent 7 messages of 10 words.
        assert_eq!((m.total_messages(), m.total_words_sent()), (14, 140));
    }

    #[test]
    fn varying_gather_scatter_price_the_actual_volume() {
        let c = cost(1.0, 0.5, 0.0);
        let mut m = Machine::new(4, Topology::Hypercube, c);
        // Coarse level: only procs 0 and 1 own elements; 0 is root.
        let tg = m.gather_varying(0, &[6, 4, 0, 0], "mg-coarse-gather");
        // log2(4)=2 start-ups + 4 words (root's own 6 move nothing).
        assert_eq!(tg, 2.0 + 0.5 * 4.0);
        let ev = m.trace().iter().last().unwrap();
        assert_eq!(ev.kind, EventKind::Gather);
        assert_eq!(ev.words, 4);
        assert_eq!(ev.payload_words, 4, "payload is the total transferred");
        assert_eq!(m.total_messages(), 1, "only proc 1 sent");

        let ts = m.scatter_varying(0, &[6, 4, 0, 0], "mg-coarse-scatter");
        assert_eq!(ts, 2.0 + 0.5 * 4.0);
        let ev = m.trace().iter().last().unwrap();
        assert_eq!(ev.payload_words, 4);
        // Root sent proc 1 its 4 words.
        assert_eq!((m.total_messages(), m.total_words_sent()), (2, 8));
    }

    #[test]
    fn uniform_gather_payload_is_total_volume() {
        let mut m = Machine::new(8, Topology::Hypercube, unit_cost());
        m.gather(0, 10, "g");
        let ev = m.trace().iter().last().unwrap();
        assert_eq!(ev.payload_words, 70, "(np-1) * words_each");
        assert_eq!(ev.words, 70);
    }

    #[test]
    fn gather_scatter_free_on_single_proc() {
        let mut m = Machine::hypercube(1);
        assert_eq!(m.gather(0, 100, "g"), 0.0);
        assert_eq!(m.scatter(0, 100, "s"), 0.0);
    }

    #[test]
    fn bit_flip_arms_and_corrupts_next_scalar() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        m.set_fault_plan(FaultPlan::new().with_bit_flip(1, 0, 52, 0));
        m.compute_uniform(10, "w"); // op 0: nothing due
        assert_eq!(m.corrupt_scalar(1.0), 1.0);
        m.allreduce(1, "dot-merge"); // op 1: arms the corruption
        let v = m.corrupt_scalar(1.0);
        assert_ne!(v, 1.0);
        assert!(v.is_finite());
        // The corruption is consumed: the next drain is the identity.
        assert_eq!(m.corrupt_scalar(1.0), 1.0);
        assert_eq!(m.trace().count(EventKind::Fault), 1);
        assert_eq!(m.faults_injected(), 1);
    }

    #[test]
    fn corrupt_slice_perturbs_exactly_one_element() {
        let mut m = Machine::new(2, Topology::Hypercube, unit_cost());
        m.set_fault_plan(FaultPlan::new().with_bit_flip(0, 0, 50, 5));
        m.compute_uniform(1, "w"); // fires
        let mut v = vec![1.0; 4];
        m.corrupt_slice(&mut v);
        let changed = v.iter().filter(|&&x| x != 1.0).count();
        assert_eq!(changed, 1);
        assert_ne!(v[5 % 4], 1.0);
    }

    #[test]
    fn straggler_skews_compute_times() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        m.set_fault_plan(FaultPlan::new().with_straggler(0, 1, 4.0, 10));
        m.compute_uniform(10, "w");
        assert_eq!(m.clocks()[0], 10.0);
        assert_eq!(m.clocks()[1], 40.0);
        assert!(m.imbalance() > 1.0);
    }

    #[test]
    fn straggler_window_expires() {
        let mut m = Machine::new(2, Topology::Hypercube, unit_cost());
        m.set_fault_plan(FaultPlan::new().with_straggler(0, 0, 10.0, 2));
        m.compute_uniform(1, "a"); // op 0: skewed (10x)
        m.compute_uniform(1, "b"); // op 1: skewed
        let before = m.clocks()[0];
        m.compute_uniform(1, "c"); // op 2: window expired
        assert_eq!(m.clocks()[0] - before, 1.0);
    }

    #[test]
    fn message_drop_charges_retransmit_time() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        m.set_fault_plan(FaultPlan::new().with_message_drop(0, 2));
        let mut clean = Machine::new(4, Topology::Hypercube, unit_cost());
        m.allgather(1, "ag");
        clean.allgather(1, "ag");
        let penalty = crate::fault::DROP_RETRANSMIT_STARTUPS * 1.0;
        assert!((m.elapsed() - (clean.elapsed() + penalty)).abs() < 1e-12);
    }

    #[test]
    fn crash_poisons_value_and_stalls_machine() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        m.set_fault_plan(FaultPlan::new().with_crash(0, 3));
        m.allreduce(1, "dot-merge");
        assert!(m.elapsed() >= crate::fault::CRASH_RESTART_STARTUPS);
        assert!(m.corrupt_scalar(2.0).is_nan());
        assert_eq!(m.trace().count(EventKind::Fault), 1);
    }

    #[test]
    fn reset_rewinds_the_fault_plan() {
        let mut m = Machine::new(2, Topology::Hypercube, unit_cost());
        m.set_fault_plan(FaultPlan::new().with_bit_flip(0, 0, 52, 0));
        m.compute_uniform(1, "w");
        assert_eq!(m.faults_injected(), 1);
        m.reset();
        assert_eq!(m.faults_injected(), 0);
        m.compute_uniform(1, "w");
        assert_eq!(m.faults_injected(), 1, "reset replays the plan");
    }

    #[test]
    fn clear_fault_plan_disarms_everything() {
        let mut m = Machine::new(2, Topology::Hypercube, unit_cost());
        m.set_fault_plan(FaultPlan::new().with_bit_flip(0, 0, 52, 0).with_crash(1, 1));
        m.compute_uniform(1, "w"); // arms the bit flip
        m.clear_fault_plan();
        assert_eq!(m.corrupt_scalar(1.0), 1.0);
        m.compute_uniform(1, "w"); // crash no longer scheduled
        assert_eq!(m.trace().count(EventKind::Fault), 1);
    }

    #[test]
    fn identical_seed_and_plan_give_byte_identical_traces() {
        let run = || {
            let mut m = Machine::new(8, Topology::Hypercube, unit_cost());
            m.set_fault_plan(FaultPlan::random(
                9,
                8,
                64,
                crate::fault::FaultRates::transient(0.2),
            ));
            for i in 0..32 {
                m.compute_uniform(100 + i, "work");
                m.allreduce(1, "merge");
            }
            let _ = m.corrupt_scalar(1.0);
            m.trace().to_jsonl()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.contains("\"kind\":\"fault\""), "plan should have fired");
    }

    #[test]
    fn events_are_stamped_with_span_and_start() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        {
            let _solve = crate::span::enter("solve");
            let _iter = crate::span::enter("iter=0");
            m.compute_all(&[5, 10, 5, 5], "local-matvec");
            m.allreduce(1, "dot-merge");
        }
        m.barrier("outside");
        let evs = m.trace().events();
        assert_eq!(evs[0].span, "solve/iter=0");
        assert_eq!(evs[0].start, 0.0);
        assert_eq!(evs[0].proc_times, vec![5.0, 10.0, 5.0, 5.0]);
        assert_eq!(evs[1].span, "solve/iter=0");
        // The allreduce begins at the synchronisation point: the slowest
        // processor's clock after the compute phase.
        assert!((evs[1].start - 10.0).abs() < 1e-12);
        assert_eq!(evs[2].span, "", "span popped before the barrier");
        assert!(evs[2].start >= evs[1].start + evs[1].time - 1e-12);
    }

    #[test]
    fn send_start_is_sender_clock() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        m.compute(2, 7);
        m.send(2, 0, 3, "msg");
        let ev = &m.trace().events()[0];
        assert_eq!(ev.kind, EventKind::Send);
        assert!((ev.start - 7.0).abs() < 1e-12);
    }

    #[test]
    fn progress_hook_fires_once_per_operation_and_survives_reset() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let beats = Arc::new(AtomicUsize::new(0));
        let b = beats.clone();
        let mut m = Machine::hypercube(4);
        m.set_progress_hook(ProgressHook::new(move |_| {
            b.fetch_add(1, Ordering::Relaxed);
        }));
        m.compute_uniform(1, "a");
        m.allreduce(1, "b");
        m.allgather(1, "c");
        assert_eq!(beats.load(Ordering::Relaxed), 3);
        m.reset();
        m.barrier("d");
        assert_eq!(beats.load(Ordering::Relaxed), 4, "hook survives reset");
    }

    #[test]
    fn event_sink_streams_events_even_with_tracing_off() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<(EventKind, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let tap = seen.clone();
        let mut m = Machine::hypercube(4);
        m.set_tracing(false);
        m.set_event_sink(EventSink::new(move |e| {
            tap.lock().unwrap().push((e.kind, e.span.to_string()));
        }));
        let _g = crate::span::enter("solve");
        m.compute_uniform(8, "local");
        m.allreduce(1, "merge");
        drop(_g);
        assert_eq!(m.trace().len(), 0, "tracing stays off");
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2, "sink sees every recorded event");
        assert!(seen.iter().all(|(_, span)| span == "solve"));
        assert_eq!(seen[1].0, EventKind::AllReduce);
    }

    #[test]
    fn event_sink_clears_and_coexists_with_tracing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let counter = |n: &Arc<AtomicUsize>| {
            let tap = n.clone();
            EventSink::new(move |_| {
                tap.fetch_add(1, Ordering::Relaxed);
            })
        };
        let (first, second) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let mut m = Machine::hypercube(2);
        m.set_event_sink(counter(&first));
        m.compute_uniform(1, "a");
        assert_eq!(first.load(Ordering::Relaxed), 1);
        assert_eq!(m.trace().len(), 1, "trace still records alongside sink");
        m.set_event_sink(counter(&second));
        m.compute_uniform(1, "b");
        assert_eq!(
            first.load(Ordering::Relaxed),
            1,
            "a replaced sink stays silent"
        );
        assert_eq!(second.load(Ordering::Relaxed), 1);
        assert_eq!(m.trace().len(), 2);
    }

    #[test]
    fn progress_hook_panic_unwinds_out_of_machine_ops() {
        let mut m = Machine::hypercube(2);
        m.set_progress_hook(ProgressHook::new(|op| {
            if op >= 2 {
                panic!("cancelled");
            }
        }));
        m.compute_uniform(1, "a");
        m.compute_uniform(1, "b");
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.compute_uniform(1, "c")));
        assert!(r.is_err(), "hook panic cancels the operation");
    }

    #[test]
    fn stall_fault_freezes_wall_clock_not_simulated_time() {
        let mut m = Machine::new(2, Topology::Hypercube, unit_cost());
        m.set_fault_plan(FaultPlan::new().with_stall(0, 0, 30));
        let wall = std::time::Instant::now();
        m.compute_uniform(1, "w");
        assert!(wall.elapsed() >= std::time::Duration::from_millis(25));
        assert_eq!(m.elapsed(), 1.0, "stall charges no simulated time");
        assert_eq!(m.trace().count(EventKind::Fault), 1);
    }

    #[test]
    fn compute_serial_synchronises_all_clocks() {
        let mut m = Machine::new(4, Topology::Hypercube, unit_cost());
        m.compute(1, 5); // proc 1 ahead
        m.compute_serial(10, "serial-phase");
        // Everyone waits for the serial phase: clocks all at 5 + 10.
        for &c in m.clocks() {
            assert_eq!(c, 15.0);
        }
        // Flops counted once, not NP times.
        assert_eq!(m.total_flops(), 15);
    }
}
