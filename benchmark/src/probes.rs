//! Stand-alone probes of single layers: tight loops around one public
//! function each, on the workload's own problem where the layer depends
//! on it. They run in every traced pass.

use crate::service::partition_probe_matrix;
use crate::util::{machine, median, secs};
use crate::Ledger;
use hpf::core::DistVector;
use hpf::dist::{ArrayDescriptor, AtomSpec};
use hpf::lang::{elaborate, parse_program, Env};
use hpf::machine::{EventSink, Machine};
use hpf::obs::{BusEvent, BusOrigin, EventBus, SamplingPolicy};
use hpf::partition::{by_name, comm_volume, connectivity_of};
use hpf::sparse::{CscMatrix, CsrMatrix};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds per call of `f`. A sample is a batch of calls long
/// enough (about 0.1 ms) for the clock to resolve; at least five samples
/// are taken, and more until `budget_s` has passed.
fn per_call_s(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let batch = (1e-4 / secs(t0).max(1e-9)).ceil().clamp(1.0, 1e5) as usize;
    let mut samples = Vec::new();
    while samples.len() < 5 || secs(t0) < budget_s {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(secs(t) / batch as f64);
    }
    median(&samples)
}

/// The paper's Figure 2 deck.
const FIGURE2: &str = "
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ DISTRIBUTE row(CYCLIC((n+NP-1)/np))
!HPF$ ALIGN a(:) WITH col(:)
!HPF$ DISTRIBUTE col(BLOCK)
";

/// Sizes of this machine's data caches as the kernel reports them.
pub fn cache_sizes() -> String {
    let mut found = Vec::new();
    for index in 0..6 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
        let (level, kind, size) = (read("level"), read("type"), read("size"));
        if !size.is_empty() && kind.trim() != "Instruction" {
            found.push(format!("L{} {}", level.trim(), size.trim()));
        }
    }
    if found.is_empty() {
        "unknown".to_string()
    } else {
        found.join(", ")
    }
}

/// Run every probe; each gets about a tenth of `budget_s`.
pub fn run(a: &CsrMatrix, x: &[f64], np: usize, seed: u64, budget_s: f64, ledger: &mut Ledger) {
    let slice = budget_s / 10.0;
    sparse(a, x, slice, ledger);
    vectors(x, np, slice, ledger);
    machine_ops(slice, ledger);
    partitioners(seed, slice, ledger);
    observability(slice, ledger);

    let extents: BTreeMap<String, usize> = [
        ("p", 1000),
        ("q", 1000),
        ("r", 1000),
        ("x", 1000),
        ("b", 1000),
    ]
    .into_iter()
    .chain([("row", 1001), ("col", 5000), ("a", 5000)])
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let env = Env::new().bind("np", 4).bind("n", 1000);
    let t = per_call_s(slice / 4.0, || {
        let deck = parse_program(black_box(FIGURE2)).expect("Figure 2 parses");
        black_box(elaborate(&deck, &env, &extents).expect("Figure 2 elaborates"));
    });
    ledger.insert("lang.parse_elaborate_us", t * 1e6);
}

/// CSR and CSC products against an in-process triad at the same footprint.
fn sparse(a: &CsrMatrix, x: &[f64], slice: f64, ledger: &mut Ledger) {
    let (n, nnz) = (a.n_rows(), a.nnz());
    let csr_s = per_call_s(slice, || {
        black_box(black_box(a).matvec(black_box(x)).expect("square"));
    });
    // Computed bytes: values and column indices once, row pointers, and
    // the three vectors; cache misses on x are not counted.
    let bytes = 16 * nnz + 8 * (3 * n + 1);
    let len = bytes / 24;
    let (b, c) = (vec![1.0f64; len], vec![2.0f64; len]);
    let mut out = vec![0.0f64; len];
    let triad_s = per_call_s(slice, || {
        let s = black_box(3.0);
        for ((o, &bi), &ci) in out.iter_mut().zip(black_box(&b)).zip(black_box(&c)) {
            *o = bi + s * ci;
        }
        black_box(&mut out);
    });
    let csr_gbps = bytes as f64 / csr_s / 1e9;
    let triad_gbps = (24 * len) as f64 / triad_s / 1e9;
    ledger.insert("sparse.csr_matvec_ms", csr_s * 1e3);
    ledger.insert("sparse.csr_matvec_gbps", csr_gbps);
    ledger.insert("sparse.triad_gbps", triad_gbps);
    ledger.insert("sparse.csr_matvec_roofline_frac", csr_gbps / triad_gbps);

    let csc = CscMatrix::from_csr(a);
    let csc_s = per_call_s(slice, || {
        black_box(black_box(&csc).matvec(black_box(x)).expect("square"));
    });
    ledger.insert("sparse.csc_matvec_ms", csc_s * 1e3);
    println!(
        "# sparse probe: n {n}, nnz {nnz}, computed footprint {:.1} MB; caches {} (the triad is cache-resident when the footprint is below the last level)",
        bytes as f64 / 1e6,
        cache_sizes()
    );
}

/// `DistVector::dot` and `axpy` at workload size, tracing off.
fn vectors(x: &[f64], np: usize, slice: f64, ledger: &mut Ledger) {
    let desc = ArrayDescriptor::block(x.len(), np);
    let u = DistVector::from_global(desc.clone(), x);
    let mut v = DistVector::from_global(desc, x);
    let mut m = machine(np, false);
    let dot_s = per_call_s(slice, || {
        black_box(black_box(&u).dot(&mut m, black_box(&v)));
    });
    let axpy_s = per_call_s(slice, || {
        v.axpy(&mut m, black_box(1e-9), black_box(&u));
    });
    ledger.insert("core.dot_us", dot_s * 1e6);
    ledger.insert("core.axpy_us", axpy_s * 1e6);
}

const OPS_PER_BATCH: usize = 2_000;

/// `allreduce(1)` + `compute_all` on `m`, `OPS_PER_BATCH` operations.
fn machine_batch(m: &mut Machine, flops: &[usize]) {
    for _ in 0..OPS_PER_BATCH / 2 {
        black_box(m.allreduce(1, "dot-merge"));
        black_box(m.compute_all(black_box(flops), "local"));
    }
}

/// Host nanoseconds per simulated operation at NP = 64 in the three
/// recording modes, and the cost of writing a trace out.
fn machine_ops(slice: f64, ledger: &mut Ledger) {
    let flops = vec![100usize; 64];
    let modes = [
        ("machine.ns_per_op_off", false, false),
        ("machine.ns_per_op_sink", false, true),
        ("machine.ns_per_op_traced", true, false),
    ];
    for (name, tracing, sink) in modes {
        let mut m = machine(64, tracing);
        if sink {
            m.set_event_sink(EventSink::new(|event| {
                black_box(event);
            }));
        }
        let mut samples = Vec::new();
        let t0 = Instant::now();
        while samples.len() < 5 || secs(t0) < slice {
            let t = Instant::now();
            machine_batch(&mut m, &flops);
            samples.push(secs(t));
            m.reset();
        }
        ledger.insert(name, median(&samples) / OPS_PER_BATCH as f64 * 1e9);
    }

    let mut m = machine(64, true);
    machine_batch(&mut m, &flops);
    let kevents = m.trace().len() as f64 / 1e3;
    let t = per_call_s(slice / 2.0, || {
        black_box(black_box(m.trace()).to_jsonl());
    });
    ledger.insert("obs.trace_jsonl_us_per_kevent", t * 1e6 / kevents);
}

/// Each registered partitioner on a pool-shaped power-law matrix at NP = 8.
fn partitioners(seed: u64, slice: f64, ledger: &mut Ledger) {
    let a = partition_probe_matrix(seed);
    let spec = AtomSpec::from_pointer_array(a.row_ptr());
    let graph = connectivity_of(&a);
    let cases = [
        ("balanced-rows", "partition.balanced_rows_ms"),
        ("nnz-bisect", "partition.nnz_bisect_ms"),
        ("greedy-hypergraph", "partition.greedy_hypergraph_ms"),
        ("spectral", "partition.spectral_ms"),
    ];
    for (name, metric) in cases {
        let p = by_name(name).expect("registered partitioner");
        let t = per_call_s(slice / 2.0, || {
            black_box(p.partition(black_box(&spec), black_box(&graph), 8));
        });
        ledger.insert(metric, t * 1e3);
    }
    let greedy = by_name("greedy-hypergraph").expect("registered partitioner");
    let layout = greedy.partition(&spec, &graph, 8);
    ledger.insert(
        "partition.volume_words",
        comm_volume(&graph, &layout) as f64,
    );
}

/// `EventBus::publish` with every event kept, drained between batches.
fn observability(slice: f64, ledger: &mut Ledger) {
    const BATCH: usize = 4_096;
    let bus = EventBus::new(1 << 14, SamplingPolicy::keep_all());
    let t = per_call_s(slice, || {
        for i in 0..BATCH {
            bus.publish(
                BusEvent {
                    seq: 0,
                    wall_s: 0.0,
                    origin: BusOrigin::Machine,
                    kind: "Compute".to_string(),
                    trace_id: i as u64,
                    class: String::new(),
                    span: "trace=0/job=0/solve/iter=0/matvec".to_string(),
                    label: "s1-local-matvec".to_string(),
                    time_s: 1e-6,
                    latency_us: 0,
                    ok: true,
                    outcome: String::new(),
                },
                false,
            );
        }
        black_box(bus.drain());
    });
    assert_eq!(bus.stats().dropped, 0, "the probe's ring overflowed");
    ledger.insert("obs.bus_publish_ns", t / BATCH as f64 * 1e9);
}
