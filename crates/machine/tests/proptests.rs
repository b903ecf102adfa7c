//! Property tests on the simulated machine: cost-model monotonicity,
//! collective algebra, conservation in exchanges, what is kept of a run
//! agreeing at every trace level, sink and tail, and the machine's O(1)
//! accounting agreeing with a reference that walks every clock.

use hpf_machine::fault::{CRASH_RESTART_STARTUPS, DROP_RETRANSMIT_STARTUPS};
use hpf_machine::{
    predicted_time, span, CostModel, Digest, Event, EventKind, EventSink, Fault, FaultKind,
    FaultPlan, FaultRates, Machine, Topology, TraceLevel,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::Hypercube),
        Just(Topology::Mesh2D),
        Just(Topology::Ring),
        Just(Topology::FullyConnected),
        Just(Topology::Bus),
    ]
}

fn arb_cost() -> impl Strategy<Value = CostModel> {
    (0.0f64..1e-3, 0.0f64..1e-5, 0.0f64..1e-6).prop_map(|(s, w, f)| CostModel {
        t_startup: s,
        t_word: w,
        t_flop: f,
    })
}

proptest! {
    /// Collective times are non-negative and monotone in message size.
    #[test]
    fn collective_times_monotone_in_words(
        topo in arb_topology(),
        cost in arb_cost(),
        p in 1usize..128,
        w1 in 0usize..10_000,
        extra in 0usize..10_000,
    ) {
        let w2 = w1 + extra;
        let pairs = [
            (topo.broadcast_time(p, w1, &cost), topo.broadcast_time(p, w2, &cost)),
            (topo.allgather_time(p, w1, &cost), topo.allgather_time(p, w2, &cost)),
            (topo.reduce_time(p, w1, &cost), topo.reduce_time(p, w2, &cost)),
            (topo.allreduce_time(p, w1, &cost), topo.allreduce_time(p, w2, &cost)),
            (topo.alltoall_time(p, w1, &cost), topo.alltoall_time(p, w2, &cost)),
            (topo.reduce_scatter_time(p, w1, &cost), topo.reduce_scatter_time(p, w2, &cost)),
        ];
        for (a, b) in pairs {
            prop_assert!(a >= 0.0 && b >= 0.0);
            prop_assert!(b >= a - 1e-15, "larger messages can't be cheaper: {a} vs {b}");
        }
    }

    /// Hop counts are bounded by the diameter and zero exactly on self.
    #[test]
    fn hops_bounded_by_diameter(
        topo in arb_topology(),
        p in 1usize..64,
        a in 0usize..64,
        b in 0usize..64,
    ) {
        let (a, b) = (a % p, b % p);
        let h = topo.hops(a, b, p);
        prop_assert_eq!(h == 0, a == b);
        prop_assert!(h <= topo.diameter(p).max(1), "hops {h} beyond diameter");
    }

    /// The machine's elapsed clock never decreases through any sequence
    /// of operations, and total flops equal the sum charged.
    #[test]
    fn machine_clock_monotone(
        ops in proptest::collection::vec((0usize..4, 0usize..500), 1..20),
        np in 1usize..9,
    ) {
        let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let mut last = 0.0f64;
        let mut flops_charged = 0u64;
        for (kind, amount) in ops {
            match kind {
                0 => {
                    m.compute(amount % np, amount);
                    flops_charged += amount as u64;
                }
                1 => {
                    m.allgather(amount, "ag");
                }
                2 => {
                    m.allreduce(amount % 64, "ar");
                }
                _ => {
                    m.broadcast(amount % np, amount, "bc");
                }
            }
            let now = m.elapsed();
            prop_assert!(now >= last - 1e-15, "clock went backwards");
            last = now;
        }
        prop_assert_eq!(m.total_flops(), flops_charged);
    }

    /// Exchange cost is zero iff the traffic matrix is all-zero
    /// (off-diagonal), and words-sent equals the matrix total.
    #[test]
    fn exchange_conserves_words(
        np in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mut matrix = vec![vec![0usize; np]; np];
        let mut total = 0usize;
        for s in 0..np {
            for d in 0..np {
                if s != d {
                    let w = ((seed >> ((s * np + d) % 48)) & 0xF) as usize;
                    matrix[s][d] = w;
                    total += w;
                }
            }
        }
        let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let t = m.exchange(&matrix, "x");
        prop_assert_eq!(m.total_words_sent() as usize, total);
        prop_assert_eq!(t == 0.0, total == 0);
    }

    /// Hypercube collectives never cost more than ring collectives for
    /// the same operation (the paper's choice of network).
    #[test]
    fn hypercube_dominates_ring(
        cost in arb_cost(),
        p in 2usize..128,
        w in 0usize..4096,
    ) {
        let hc = Topology::Hypercube;
        let ring = Topology::Ring;
        prop_assert!(hc.broadcast_time(p, w, &cost) <= ring.broadcast_time(p, w, &cost) + 1e-15);
        prop_assert!(hc.allreduce_time(p, w, &cost) <= ring.allreduce_time(p, w, &cost) + 1e-15);
        prop_assert!(hc.allgather_time(p, w, &cost) <= ring.allgather_time(p, w, &cost) + 1e-15);
    }

    /// Reset really clears the machine.
    #[test]
    fn reset_is_complete(np in 1usize..10, w in 1usize..100) {
        let mut m = Machine::new(np, Topology::Mesh2D, CostModel::lan_cluster());
        m.allgather(w, "ag");
        m.compute_uniform(w, "c");
        m.reset();
        prop_assert_eq!(m.elapsed(), 0.0);
        prop_assert_eq!(m.total_flops(), 0);
        prop_assert_eq!(m.total_words_sent(), 0);
        prop_assert!(m.trace().is_empty());
    }
}

/// One generated operation: which, two size arguments, bits to derive
/// unequal blocks from, and the request it runs under.
type Step = (usize, usize, usize, u64, u64);

/// `np` block sizes out of `bits`, about a third of them empty.
fn blocks(np: usize, bits: u64) -> Vec<usize> {
    (0..np)
        .map(|p| (bits.rotate_left(5 * p as u32) & 0xF) as usize)
        .map(|w| if w < 5 { 0 } else { w })
        .collect()
}

/// The `traffic` matrix operation 12 exchanges, row `s` what `s` sends.
fn traffic(np: usize, bits: u64) -> Vec<Vec<usize>> {
    (0..np).map(|s| blocks(np, bits ^ s as u64)).collect()
}

/// The members of operation 17's group: the processors `bits` marks.
fn members(np: usize, bits: u64) -> Vec<usize> {
    (0..np).filter(|p| bits >> p & 1 == 1).collect()
}

const GROUP_KINDS: [EventKind; 4] = [
    EventKind::AllGather,
    EventKind::AllReduce,
    EventKind::Reduce,
    EventKind::Broadcast,
];

/// Every public operation of the machine, by number; with `as_each`,
/// `compute_uniform(b)` is run as `compute_each(|_| b)` under its label.
fn drive(m: &mut Machine, (op, a, b, bits, trace): Step, as_each: bool) {
    let np = m.np();
    let _request = span::enter(format!("trace={trace:016x}"));
    let _level = span::enter(format!("level={}", a % 3));
    match op % 18 {
        0 => m.compute(a % np, b),
        1 => drop(m.compute_all(&blocks(np, bits), "compute-all")),
        2 if as_each => drop(m.compute_each(|_| b, "compute-uniform")),
        2 => drop(m.compute_uniform(b, "compute-uniform")),
        3 => drop(m.compute_serial(b, "compute-serial")),
        4 => drop(m.send(a % np, b % np, b, "send")),
        5 => drop(m.barrier("barrier")),
        6 => drop(m.broadcast(a % np, b, "broadcast")),
        7 => drop(m.allgather(b, "allgather")),
        8 => drop(m.reduce(a % np, b, "reduce")),
        9 => drop(m.allreduce(b, "allreduce")),
        10 => drop(m.reduce_scatter(b, "reduce-scatter")),
        11 => drop(m.alltoall(b, "alltoall")),
        12 => drop(m.exchange(&traffic(np, bits), "exchange")),
        13 => drop(m.gather(a % np, b % 7, "gather")),
        14 => drop(m.gather_varying(a % np, &blocks(np, bits), "gather-varying")),
        15 => drop(m.scatter(a % np, b % 7, "scatter")),
        16 => drop(m.scatter_varying(a % np, &blocks(np, bits), "scatter-varying")),
        _ => drop(m.group_collective(&members(np, bits), GROUP_KINDS[a % 4], b, "group")),
    }
}

/// What a sink is installed, if any, and how long a tail is kept.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Watch {
    Nothing,
    Sink,
    /// A sink whose pre-filter keeps every other trace id.
    FilteredSink,
    Tail,
    TailAndSink,
}

const WATCHES: [Watch; 5] = [
    Watch::Nothing,
    Watch::Sink,
    Watch::FilteredSink,
    Watch::Tail,
    Watch::TailAndSink,
];
const LEVELS: [TraceLevel; 3] = [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Full];
const TAIL: usize = 8;

/// The machine-wide flop, word and message counts.
fn totals(m: &Machine) -> (u64, u64, u64) {
    (m.total_flops(), m.total_words_sent(), m.total_messages())
}

/// Every field of an event, as text.
fn text(e: &Event) -> String {
    format!("{e:?}")
}

fn kept_by_filter(trace_id: u64) -> bool {
    trace_id.is_multiple_of(2)
}

/// A plan of crashes, drops, stragglers and bit flips over `ops`
/// operations.
fn plan(seed: u64, np: usize, ops: usize) -> FaultPlan {
    let rates = FaultRates {
        crash: 0.05,
        ..FaultRates::transient(0.2)
    };
    FaultPlan::random(seed, np, ops, rates)
}

/// Run `steps` on a fresh machine; hand back it and what its sink saw.
fn run(
    np: usize,
    topology: Topology,
    faults: Option<u64>,
    steps: &[Step],
    (level, watch, as_each): (TraceLevel, Watch, bool),
) -> (Machine, Vec<String>) {
    let mut m = Machine::new(np, topology, CostModel::mpp_1995());
    m.set_trace_level(level);
    if let Some(seed) = faults {
        m.set_fault_plan(plan(seed, np, steps.len()));
    }
    if matches!(watch, Watch::Tail | Watch::TailAndSink) {
        m.keep_tail(TAIL);
    }
    let seen: Arc<Mutex<Vec<String>>> = Arc::default();
    if matches!(
        watch,
        Watch::Sink | Watch::FilteredSink | Watch::TailAndSink
    ) {
        let tap = Arc::clone(&seen);
        let sink = EventSink::new(move |e| tap.lock().unwrap().push(text(&e.to_event())));
        m.set_event_sink(if watch == Watch::FilteredSink {
            sink.with_filter(|trace_id, _| kept_by_filter(trace_id))
        } else {
            sink
        });
    }
    for &step in steps {
        drive(&mut m, step, as_each);
    }
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    (m, seen)
}

proptest! {
    /// Whatever is kept of a run, and wherever it is written, the run is
    /// the same run and every keeper holds the same events — and the same
    /// again with every `compute_uniform(f)` run as `compute_each(|_| f)`,
    /// the fallback it takes on clocks that differ or under a plan.
    #[test]
    fn every_level_sink_and_tail_keeps_the_same_run(
        np in 1usize..7,
        topology in arb_topology(),
        faults in (0u64..3, any::<u64>()),
        steps in proptest::collection::vec(
            (0usize..18, 0usize..64, 0usize..200, any::<u64>(), 0u64..4),
            1..40,
        ),
    ) {
        let faults = (faults.0 == 0).then_some(faults.1);
        let run = |how| run(np, topology, faults, &steps, how);
        let (reference, _) = run((TraceLevel::Full, Watch::Nothing, false));
        let jsonl = reference.trace().to_jsonl();
        let events: Vec<String> = reference.trace().events().iter().map(text).collect();
        let filtered: Vec<String> = reference
            .trace()
            .events()
            .iter()
            .filter(|e| kept_by_filter(span::trace_of(&e.span).unwrap_or(0)))
            .map(text)
            .collect();
        let bits = |clocks: &[f64]| clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for level in LEVELS {
            for watch in WATCHES {
                for as_each in [false, true] {
                    let (m, seen) = run((level, watch, as_each));
                    let at = format!("{level:?}, {watch:?}, as_each {as_each}");
                    prop_assert_eq!(bits(m.clocks()), bits(reference.clocks()), "{}", at);
                    prop_assert_eq!(totals(&m), totals(&reference), "{}", at);
                    prop_assert_eq!(m.faults_injected(), reference.faults_injected());
                    match level {
                        TraceLevel::Full => {
                            let kept: Vec<String> = m.trace().events().iter().map(text).collect();
                            prop_assert_eq!(&kept, &events, "{}", at);
                            prop_assert_eq!(&m.trace().to_jsonl(), &jsonl, "{}", at);
                            prop_assert!(m.tail().is_empty(), "{}", at);
                        }
                        TraceLevel::Summary => {
                            prop_assert_eq!(m.digest(), &Digest::from_trace(reference.trace()));
                            prop_assert!(m.trace().is_empty());
                        }
                        TraceLevel::Off => prop_assert_eq!(m.digest(), &Digest::default()),
                    }
                    // A sink sees every event, or exactly the ones its
                    // filter asked for: the same ones at `Full` as below it.
                    match watch {
                        Watch::Nothing | Watch::Tail => prop_assert!(seen.is_empty()),
                        Watch::Sink | Watch::TailAndSink => prop_assert_eq!(&seen, &events, "{}", at),
                        Watch::FilteredSink => prop_assert_eq!(&seen, &filtered, "{}", at),
                    }
                    if level != TraceLevel::Full && matches!(watch, Watch::Tail | Watch::TailAndSink) {
                        let tail: Vec<String> = m.tail().iter().map(|e| text(&e.to_event())).collect();
                        let last = &events[events.len().saturating_sub(TAIL)..];
                        prop_assert_eq!(&tail[..], last, "{}", at);
                        prop_assert_eq!(m.tail().overwritten() as usize, events.len() - last.len());
                    }
                }
            }
        }
    }

    /// The oracle prices a gather or scatter with the function the
    /// machine charged it with: equal to the bit, empty and unequal
    /// blocks included.
    #[test]
    fn gathers_and_scatters_are_predicted_at_the_charged_time(
        topology in arb_topology(),
        cost in arb_cost(),
        np in 1usize..33,
        root in 0usize..33,
        words_each in 0usize..500,
        bits in any::<u64>(),
    ) {
        let root = root % np;
        let varying = blocks(np, bits);
        let mut m = Machine::new(np, topology, cost);
        let charged = [
            m.gather(root, words_each, "gather"),
            m.scatter(root, words_each, "scatter"),
            m.gather_varying(root, &varying, "gather-varying"),
            m.scatter_varying(root, &varying, "scatter-varying"),
        ];
        prop_assert_eq!(m.trace().len(), 4);
        for (event, charged) in m.trace().iter().zip(charged) {
            prop_assert_eq!(event.time, charged);
            prop_assert_eq!(predicted_time(&event, topology, &cost), Some(charged), "{}", event.label);
        }
        let moved: usize = (0..np).filter(|&p| p != root).map(|p| varying[p]).sum();
        prop_assert_eq!(m.trace().events()[0].payload_words, words_each * (np - 1));
        prop_assert_eq!(m.trace().events()[3].payload_words, moved);
    }
}

/// The machine as it kept its accounting before it tracked one maximum:
/// every clock walked and every processor's counters summed, priced by
/// the same public formulas. Fault penalties and straggler factors are
/// replayed from the plan.
struct Reference {
    np: usize,
    topology: Topology,
    cost: CostModel,
    clocks: Vec<f64>,
    /// Flops, words sent and messages of each processor.
    stats: Vec<[u64; 3]>,
    plan: Option<Vec<Fault>>,
    /// The next fault of `plan` and the next operation's index.
    cursor: usize,
    op: usize,
    /// Each processor's straggler factor and the operations it has left.
    skew: Vec<(f64, usize)>,
}

impl Reference {
    fn new(np: usize, topology: Topology, cost: CostModel, plan: Option<&FaultPlan>) -> Self {
        Reference {
            np,
            topology,
            cost,
            clocks: vec![0.0; np],
            stats: vec![[0; 3]; np],
            plan: plan.map(|p| p.faults().to_vec()),
            cursor: 0,
            op: 0,
            skew: vec![(1.0, 0); np],
        }
    }

    fn reset(&mut self) {
        *self = Reference {
            plan: self.plan.take(),
            ..Reference::new(self.np, self.topology, self.cost, None)
        };
    }

    fn elapsed(&self) -> f64 {
        self.clocks.iter().cloned().fold(0.0, f64::max)
    }

    fn imbalance(&self) -> f64 {
        let mean = self.clocks.iter().sum::<f64>() / self.np as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.elapsed() / mean
        }
    }

    fn totals(&self) -> (u64, u64, u64) {
        let sum = |i: usize| self.stats.iter().map(|s| s[i]).sum();
        (sum(0), sum(1), sum(2))
    }

    fn count(&mut self, p: usize, words: usize, messages: usize) {
        self.stats[p][1] += words as u64;
        self.stats[p][2] += messages as u64;
    }

    fn factor(&self, p: usize) -> f64 {
        if self.skew[p].1 > 0 {
            self.skew[p].0
        } else {
            1.0
        }
    }

    fn synchronise(&mut self) -> f64 {
        let max = self.elapsed();
        self.clocks.iter_mut().for_each(|c| *c = max);
        max
    }

    fn charge_all(&mut self, time: f64) {
        self.synchronise();
        self.clocks.iter_mut().for_each(|c| *c += time);
    }

    fn begin_op(&mut self) {
        let op = self.op;
        self.op += 1;
        let Some(plan) = &self.plan else { return };
        let mut due = Vec::new();
        while self.cursor < plan.len() && plan[self.cursor].op <= op {
            due.push(plan[self.cursor]);
            self.cursor += 1;
        }
        for s in &mut self.skew {
            s.1 = s.1.saturating_sub(1);
        }
        for f in due {
            let proc = f.proc % self.np;
            match f.kind {
                FaultKind::MessageDrop => {
                    let t = DROP_RETRANSMIT_STARTUPS * self.cost.t_startup;
                    self.clocks.iter_mut().for_each(|c| *c += t);
                }
                FaultKind::Straggler { factor, ops } => self.skew[proc] = (factor, ops),
                FaultKind::Crash => self.charge_all(CRASH_RESTART_STARTUPS * self.cost.t_startup),
                FaultKind::BitFlip { .. } | FaultKind::Stall { .. } => {}
            }
        }
    }

    fn compute_each(&mut self, flops_of: impl Fn(usize) -> usize) {
        self.begin_op();
        for p in 0..self.np {
            let f = flops_of(p);
            self.stats[p][0] += f as u64;
            self.clocks[p] += self.cost.flops(f) * self.factor(p);
        }
    }

    fn through_root(&mut self, gather: bool, root: usize, words_of: impl Fn(usize) -> usize) {
        self.begin_op();
        let mut total = 0;
        for p in (0..self.np).filter(|&p| p != root) {
            let words = words_of(p);
            if words > 0 {
                self.count(if gather { p } else { root }, words, 1);
                total += words;
            }
        }
        self.charge_all(self.topology.gather_time(self.np, total, &self.cost));
    }

    /// [`drive`]'s operation `step`, on the reference.
    fn step(&mut self, (op, a, b, bits, _): Step) {
        let (np, topology, cost) = (self.np, self.topology, self.cost);
        let rounds = Topology::log2_ceil(np) as usize;
        match op % 18 {
            0 => {
                self.begin_op();
                let p = a % np;
                self.stats[p][0] += b as u64;
                self.clocks[p] += cost.flops(b) * self.factor(p);
            }
            1 => self.compute_each(|p| blocks(np, bits)[p]),
            2 => self.compute_each(|_| b),
            3 => {
                self.begin_op();
                self.stats[0][0] += b as u64;
                self.charge_all(cost.flops(b) * self.factor(0));
            }
            4 => {
                let (from, to) = (a % np, b % np);
                if from != to {
                    self.begin_op();
                    let t = cost.message(b, topology.hops(from, to, np));
                    self.count(from, b, 1);
                    let arrive = self.clocks[from] + t;
                    self.clocks[to] = self.clocks[to].max(arrive);
                    self.clocks[from] = arrive;
                }
            }
            5 => {
                self.begin_op();
                self.charge_all(topology.allreduce_time(np, 0, &cost));
            }
            6 => {
                self.begin_op();
                self.count(a % np, b, rounds);
                self.charge_all(topology.broadcast_time(np, b, &cost));
            }
            7 | 10 => {
                self.begin_op();
                (0..np).for_each(|p| self.count(p, b * (np - 1), rounds));
                self.charge_all(if op % 18 == 7 {
                    topology.allgather_time(np, b, &cost)
                } else {
                    topology.reduce_scatter_time(np, b, &cost)
                });
            }
            8 => {
                self.begin_op();
                (0..np)
                    .filter(|&p| p != a % np)
                    .for_each(|p| self.count(p, b, 1));
                self.charge_all(topology.reduce_time(np, b, &cost));
            }
            9 => {
                self.begin_op();
                (0..np).for_each(|p| self.count(p, b * rounds, rounds));
                self.charge_all(topology.allreduce_time(np, b, &cost));
            }
            11 => {
                self.begin_op();
                (0..np).for_each(|p| self.count(p, b * (np - 1), np - 1));
                self.charge_all(topology.alltoall_time(np, b, &cost));
            }
            12 => {
                let matrix = traffic(np, bits);
                self.begin_op();
                let mut max_t: f64 = 0.0;
                for p in 0..np {
                    let others = || (0..np).filter(move |&q| q != p);
                    let sends = others().filter(|&d| matrix[p][d] > 0).count();
                    let sent: usize = others().map(|d| matrix[p][d]).sum();
                    let recvd: usize = others().map(|s| matrix[s][p]).sum();
                    let recvs = others().filter(|&s| matrix[s][p] > 0).count();
                    let t = sends.max(recvs) as f64 * cost.t_startup
                        + cost.t_word * sent.max(recvd) as f64;
                    self.count(p, sent, sends);
                    max_t = max_t.max(t);
                }
                self.charge_all(max_t);
            }
            13 => self.through_root(true, a % np, |_| b % 7),
            14 => self.through_root(true, a % np, |p| blocks(np, bits)[p]),
            15 => self.through_root(false, a % np, |_| b % 7),
            16 => self.through_root(false, a % np, |p| blocks(np, bits)[p]),
            _ => {
                let members = members(np, bits);
                let g = members.len();
                if g <= 1 {
                    return;
                }
                self.begin_op();
                let t = match GROUP_KINDS[a % 4] {
                    EventKind::AllGather => topology.allgather_time(g, b, &cost),
                    EventKind::AllReduce => topology.allreduce_time(g, b, &cost),
                    EventKind::Reduce => topology.reduce_scatter_time(g, b, &cost),
                    _ => topology.broadcast_time(g, b, &cost),
                };
                let max = members.iter().map(|&p| self.clocks[p]).fold(0.0, f64::max);
                for &p in &members {
                    self.clocks[p] = max + t;
                    self.count(p, b * (g - 1), Topology::log2_ceil(g) as usize);
                }
            }
        }
    }
}

proptest! {
    /// The machine's tracked maximum, its synchronised-clock shortcuts and
    /// its running totals leave what walking every clock and summing
    /// every processor's counters leaves: clocks, `elapsed` and
    /// `imbalance` to the bit and equal totals, after every operation of
    /// every kind, with faults on and off and resets mid-run, at
    /// NP = 64 too. (Operation 18 is a reset.)
    #[test]
    fn o1_accounting_matches_walking_every_clock(
        np in prop_oneof![1usize..7, Just(64usize)],
        topology in arb_topology(),
        cost in arb_cost(),
        faults in (0u64..2, any::<u64>()),
        level in 0usize..3,
        steps in proptest::collection::vec(
            (0usize..19, 0usize..64, 0usize..200, any::<u64>(), 0u64..4),
            1..60,
        ),
    ) {
        let plan = (faults.0 == 0).then(|| plan(faults.1, np, steps.len()));
        let mut m = Machine::new(np, topology, cost);
        m.set_trace_level(LEVELS[level]);
        if let Some(plan) = &plan {
            m.set_fault_plan(plan.clone());
        }
        let mut reference = Reference::new(np, topology, cost, plan.as_ref());
        let bits = |clocks: &[f64]| clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for (i, &step) in steps.iter().enumerate() {
            if step.0 == 18 {
                m.reset();
                reference.reset();
            } else {
                drive(&mut m, step, false);
                reference.step(step);
            }
            let at = format!("step {i}: {step:?}");
            prop_assert_eq!(bits(m.clocks()), bits(&reference.clocks), "{}", at);
            prop_assert_eq!(m.elapsed().to_bits(), reference.elapsed().to_bits(), "{}", at);
            prop_assert_eq!(m.imbalance().to_bits(), reference.imbalance().to_bits(), "{}", at);
            prop_assert_eq!(totals(&m), reference.totals(), "{}", at);
        }
    }
}

/// Times a trace must keep apart: both zeros, NaNs with two payloads and
/// both signs, both infinities, and two plain values.
const PLANTED: [f64; 8] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::from_bits(0xfff8_0000_0000_0001),
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
    2.5e-7,
];

/// Every field of an event, floats as their bits.
type Bits = (
    &'static str,
    usize,
    usize,
    usize,
    u64,
    u64,
    String,
    String,
    Vec<u64>,
    usize,
    usize,
);

fn bits_of(e: &Event) -> Bits {
    (
        e.kind.name(),
        e.participants,
        e.words,
        e.flops,
        e.time.to_bits(),
        e.start.to_bits(),
        e.span.clone(),
        e.label.clone(),
        e.proc_times.iter().map(|t| t.to_bits()).collect(),
        e.payload_words,
        e.hops,
    )
}

/// `to_jsonl` of a trace read back re-encodes to the same bytes.
fn reencodes(trace: &hpf_machine::Trace) -> bool {
    let text = trace.to_jsonl();
    hpf_machine::Trace::from_jsonl(&text).unwrap().to_jsonl() == text
}

/// The event `(shape, bits, participants)` describes after `previous`
/// (every field is drawn from `bits`): times uniform (every entry
/// `time`), the previous vector again, the previous vector with each
/// zero's sign flipped (equal as numbers, not as bits), drawn entry by
/// entry, or none.
fn planted(shape: usize, bits: u64, participants: usize, previous: &[f64]) -> Event {
    let pick = |shift: usize| PLANTED[(bits >> shift) as usize % PLANTED.len()];
    let time = pick(0);
    let proc_times = match shape {
        0 => vec![time; participants],
        1 if !previous.is_empty() => previous.to_vec(),
        2 if !previous.is_empty() => previous
            .iter()
            .map(|&t| if t == 0.0 { -t } else { t })
            .collect(),
        1..=3 => (0..participants).map(|p| pick(3 + 3 * p)).collect(),
        _ => Vec::new(),
    };
    Event {
        kind: EventKind::ALL[(bits >> 40) as usize % EventKind::ALL.len()],
        participants,
        words: (bits >> 8) as usize,
        flops: (bits >> 20) as usize & 0xffff,
        time,
        start: pick(50),
        span: [
            "",
            "solve/iter=3/matvec",
            "trace=0a/solve",
            "a \"quoted\"\nspan",
        ][(bits >> 62) as usize]
            .to_string(),
        label: ["dot-merge", "", "local-matvec", "bcast-p"][(bits >> 58) as usize & 3].to_string(),
        proc_times,
        payload_words: (bits >> 30) as usize & 0xff,
        hops: ((bits >> 56) & 3) as usize,
    }
}

proptest! {
    /// A trace gives back what it was given, bit for bit, whether its
    /// per-processor times were uniform, a repeat of the previous vector
    /// or new, zeros of either sign, NaNs or infinities — through
    /// `Trace::record` and through the recorder — and its JSON Lines read
    /// back write the same bytes.
    #[test]
    fn a_trace_round_trips_every_time_bit_for_bit(
        planted_events in proptest::collection::vec((0usize..5, any::<u64>(), 1usize..6), 1..24),
        flops in proptest::collection::vec((0usize..3, any::<u64>()), 1..16),
        t_flop in 0usize..8,
        np in 1usize..6,
    ) {
        let mut trace = hpf_machine::Trace::new();
        let mut given = Vec::new();
        let mut previous: Vec<f64> = Vec::new();
        for &(shape, bits, participants) in &planted_events {
            let event = planted(shape, bits, participants, &previous);
            if !event.proc_times.is_empty() {
                previous = event.proc_times.clone();
            }
            given.push(bits_of(&event));
            trace.record(event);
        }
        let decoded: Vec<Bits> = trace.events().iter().map(bits_of).collect();
        prop_assert_eq!(decoded, given);
        prop_assert!(reencodes(&trace));

        // Through the recorder: the tail below `Full` is filled field by
        // field from what the machine charged; the trace must decode to it.
        let cost = CostModel { t_flop: PLANTED[t_flop], ..CostModel::mpp_1995() };
        let run = |level| {
            let mut m = Machine::new(np, Topology::Hypercube, cost);
            m.set_trace_level(level);
            m.keep_tail(2 * flops.len());
            let _s = span::enter("solve");
            let mut last = vec![0; np];
            for (k, &(shape, bits)) in flops.iter().enumerate() {
                let _i = span::enter_iter(k);
                match shape {
                    0 => last = vec![(bits % 4) as usize; np],
                    1 => {}
                    _ => last = blocks(np, bits),
                }
                m.compute_all(&last, "local");
                m.allreduce(1, "dot-merge");
            }
            m
        };
        let (full, reference) = (run(TraceLevel::Full), run(TraceLevel::Off));
        let charged: Vec<Bits> = reference.tail().iter().map(|e| bits_of(&e.to_event())).collect();
        let kept: Vec<Bits> = full.trace().events().iter().map(bits_of).collect();
        prop_assert_eq!(kept, charged);
        prop_assert!(reencodes(full.trace()));
    }
}

/// A row holds a participant or hop count in 32 bits: a JSON Lines trace
/// with a wider one is refused as a parse error naming its line, one
/// that fits reads back to the same bytes, and `Trace::record` asserts it.
/// A short row is refused before any row is read, not by an index out
/// of bounds.
#[test]
#[should_panic(expected = "one row per processor")]
fn exchange_checks_every_row_before_reading_one() {
    let mut m = Machine::new(3, Topology::Hypercube, CostModel::mpp_1995());
    m.exchange(&[vec![0, 1, 1], vec![1, 0, 1], vec![1]], "short-last-row");
}

#[test]
fn a_trace_refuses_counts_wider_than_32_bits() {
    let line = |participants: u64, hops: u64| {
        let fields = r#""words":1,"flops":0,"time":1,"start":0,"span":"","label":"m""#;
        format!("{{\"kind\":\"send\",\"participants\":{participants},{fields},\"hops\":{hops}}}\n")
    };
    let most = u64::from(u32::MAX);
    for (fits, wide, key) in [
        (line(most, 1), line(most + 1, 1), "participants"),
        (line(2, most), line(2, most + 1), "hops"),
    ] {
        let trace = hpf_machine::Trace::from_jsonl(&fits).unwrap();
        assert_eq!(trace.to_jsonl(), fits);
        let err = hpf_machine::Trace::from_jsonl(&(fits + &wide)).unwrap_err();
        assert_eq!(err.line, 2, "{key}");
        assert!(err.why.contains(key), "{key}: {}", err.why);
    }
    let mut wide = hpf_machine::Trace::from_jsonl(&line(2, 1))
        .unwrap()
        .events()[0]
        .clone();
    wide.participants = 1 << 32;
    let recorded = std::panic::catch_unwind(move || hpf_machine::Trace::new().record(wide));
    assert!(recorded.is_err());
}

/// Two machines recording in turn on one thread, under different span
/// stacks, and a machine carried from one new thread to another, keep
/// each the trace it would keep alone: the id a trace caches for the
/// current span path belongs to that trace and that thread.
#[test]
fn a_trace_keeps_its_own_span_paths_beside_another_and_across_threads() {
    const STEPS: usize = 12;
    fn step(m: &mut Machine, who: &'static str, k: usize) {
        let _s = span::enter(who);
        let _i = span::enter_iter(k);
        m.compute_uniform(k + 1, "local");
        {
            let _d = span::enter("dot");
            m.allreduce(1, "dot-merge");
        }
        if who == "b" {
            // One more path than "a" a step, so the two tables differ.
            let _x = span::enter("extra");
            m.barrier("sync");
        }
        m.barrier("sync");
    }
    let machine = || Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
    let solo = |who| {
        let mut m = machine();
        for k in 0..STEPS {
            step(&mut m, who, k);
            let _k = span::enter_iter(k);
            m.barrier("sync");
        }
        m.trace().to_jsonl()
    };
    let (a, b) = (solo("a"), solo("b"));
    assert_ne!(a, b);
    let interleaved = move || {
        let (mut ma, mut mb) = (machine(), machine());
        for k in 0..STEPS {
            step(&mut ma, "a", k);
            step(&mut mb, "b", k);
            // Both record in one state of the stack.
            let _k = span::enter_iter(k);
            ma.barrier("sync");
            mb.barrier("sync");
        }
        (ma.trace().to_jsonl(), mb.trace().to_jsonl())
    };
    assert_eq!(interleaved(), (a.clone(), b.clone()));
    assert_eq!(
        std::thread::spawn(interleaved).join().unwrap(),
        (a.clone(), b)
    );
    // A machine carried from one new thread to another records its last
    // event on the first and its next on the second with either stack in
    // the same state of its history, under different paths.
    let stamp = |m: &mut Machine, who: &'static str| {
        let _s = span::enter(who);
        m.barrier("sync");
    };
    let mut alone = machine();
    stamp(&mut alone, "first");
    stamp(&mut alone, "second");
    let mut carried = machine();
    for who in ["first", "second"] {
        carried = std::thread::spawn(move || {
            stamp(&mut carried, who);
            carried
        })
        .join()
        .unwrap();
    }
    assert_eq!(carried.trace().to_jsonl(), alone.trace().to_jsonl());
}
