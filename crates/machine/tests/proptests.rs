//! Property tests on the simulated machine: cost-model monotonicity,
//! collective algebra, conservation in exchanges, and what is kept of a
//! run agreeing at every trace level, sink and tail.

use hpf_machine::{
    predicted_time, span, CostModel, Digest, Event, EventKind, EventSink, FaultPlan, FaultRates,
    Machine, Topology, TraceLevel,
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

/// Every public operation of the machine, by number.
fn drive(m: &mut Machine, (op, a, b, bits, trace): Step) {
    let np = m.np();
    let _request = span::enter(format!("trace={trace:016x}"));
    let _level = span::enter(format!("level={}", a % 3));
    match op % 18 {
        0 => m.compute(a % np, b),
        1 => drop(m.compute_all(&blocks(np, bits), "compute-all")),
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
        12 => {
            let matrix: Vec<_> = (0..np).map(|s| blocks(np, bits ^ s as u64)).collect();
            m.exchange(&matrix, "exchange");
        }
        13 => drop(m.gather(a % np, b % 7, "gather")),
        14 => drop(m.gather_varying(a % np, &blocks(np, bits), "gather-varying")),
        15 => drop(m.scatter(a % np, b % 7, "scatter")),
        16 => drop(m.scatter_varying(a % np, &blocks(np, bits), "scatter-varying")),
        _ => {
            let members: Vec<usize> = (0..np).filter(|p| bits >> p & 1 == 1).collect();
            let kind = [
                EventKind::AllGather,
                EventKind::AllReduce,
                EventKind::Reduce,
                EventKind::Broadcast,
            ][a % 4];
            m.group_collective(&members, kind, b, "group");
        }
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

/// Every field of an event, as text (what a sink copies of a lent one).
fn text(e: &Event) -> String {
    format!("{e:?}")
}

fn kept_by_filter(trace_id: u64) -> bool {
    trace_id.is_multiple_of(2)
}

/// Run `steps` on a fresh machine; hand back it and what its sink saw.
fn run(
    np: usize,
    topology: Topology,
    faults: Option<u64>,
    steps: &[Step],
    level: TraceLevel,
    watch: Watch,
) -> (Machine, Vec<String>) {
    let mut m = Machine::new(np, topology, CostModel::mpp_1995());
    m.set_trace_level(level);
    if let Some(seed) = faults {
        let rates = FaultRates {
            crash: 0.05,
            ..FaultRates::transient(0.2)
        };
        m.set_fault_plan(FaultPlan::random(seed, np, steps.len(), rates));
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
        let sink = EventSink::new(move |e| tap.lock().unwrap().push(text(e)));
        m.set_event_sink(if watch == Watch::FilteredSink {
            sink.with_filter(|trace_id, _| kept_by_filter(trace_id))
        } else {
            sink
        });
    }
    for &step in steps {
        drive(&mut m, step);
    }
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    (m, seen)
}

proptest! {
    /// Whatever is kept of a run, and wherever it is written, the run is
    /// the same run and every keeper holds the same events.
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
        let run = |level, watch| run(np, topology, faults, &steps, level, watch);
        let (reference, _) = run(TraceLevel::Full, Watch::Nothing);
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
                let (m, seen) = run(level, watch);
                let at = format!("{level:?}, {watch:?}");
                prop_assert_eq!(bits(m.clocks()), bits(reference.clocks()), "{}", at);
                for p in 0..np {
                    let (mine, theirs) = (m.stats(p), reference.stats(p));
                    prop_assert_eq!(
                        (mine.flops, mine.words_sent, mine.messages),
                        (theirs.flops, theirs.words_sent, theirs.messages),
                        "{}", at
                    );
                }
                prop_assert_eq!(m.faults_injected(), reference.faults_injected());
                match level {
                    TraceLevel::Full => {
                        let kept: Vec<String> = m.trace().events().iter().map(text).collect();
                        prop_assert_eq!(&kept, &events, "{}", at);
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
                    let tail: Vec<String> = m.tail().iter().map(text).collect();
                    let last = &events[events.len().saturating_sub(TAIL)..];
                    prop_assert_eq!(&tail[..], last, "{}", at);
                    prop_assert_eq!(m.tail().overwritten() as usize, events.len() - last.len());
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
        for (event, charged) in m.trace().events().iter().zip(charged) {
            prop_assert_eq!(event.time, charged);
            prop_assert_eq!(predicted_time(event, topology, &cost), Some(charged), "{}", event.label);
        }
        let moved: usize = (0..np).filter(|&p| p != root).map(|p| varying[p]).sum();
        prop_assert_eq!(m.trace().events()[0].payload_words, words_each * (np - 1));
        prop_assert_eq!(m.trace().events()[3].payload_words, moved);
    }
}
