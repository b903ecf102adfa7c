//! The benchmark's contract in one place: workloads, metrics, units,
//! directions and bounds. `BENCHMARK.json` is `--manifest` printed from
//! these tables, and `--list` prints them for a reader.

/// How long one run measures unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cg_poisson3d",
        why: "cg_distributed on poisson_3d(40^3), NP=8, tracing off, one solve a rep: arithmetic and per-matvec copies dominate, so hpf-sparse/hpf-core do the work and hpf-machine almost none",
    },
    Workload {
        name: "cg_layouts_np64",
        why: "poisson_2d(48^2) at NP=64, tracing on, counting sink; two pairs of a row-wise CSR solve and a column-wise CSC solve a rep: simulator bookkeeping dominates, kernel speed is irrelevant",
    },
    Workload {
        name: "mg_poisson3d",
        why: "pcg_mg_distributed on a 31^3 grid, 3 levels, NP=8, two solves a rep: the V-cycle in hpf-mg does most of the work; hierarchy build lands in setup_s",
    },
    Workload {
        name: "service_mixed",
        why: "closed loop, bursts of 8 through hpf-service: 90% from a pool of 24 structures, 10% plan-cache misses; solves are sub-millisecond, so admit/queue/plan/respond is most of the latency; taps off",
    },
    Workload {
        name: "service_observed",
        why: "the service_mixed stream with every tap installed (event bus at rate 0.1, flight recorder, drained each burst): the cost of observability, which service_mixed bypasses",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: the share of the parent's median by which the metric
    /// may get worse. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// Per-layer: the value repeats bit for bit on one seed.
    pub exact: bool,
    pub meaning: &'static str,
}

const fn gate(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    meaning: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        meaning,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        meaning,
    }
}

const fn exact(name: &'static str, unit: &'static str, meaning: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
        meaning,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; taken with the benchmark's spans off.
/// Every time is stated at the speed of the reference machine (`host.rs`):
/// the clock's reading divided by the host's slowdown next to it.
pub const END_TO_END: [Metric; 6] = [
    gate("solve_wall_ms", "ms", Lower, 0.25,
        "median wall time of one rep of complete solves to relative residual 1e-8 (service: the response's solve_time), at reference speed"),
    gate("request_p50_ms", "ms", Lower, 0.25,
        "median latency of one operation as its caller sees it (service: submit call to return of that handle's wait; library: the rep), at reference speed"),
    gate("request_p95_ms", "ms", Lower, 0.25, "the same, 95th percentile"),
    gate("throughput_rps", "1/s", Higher, 0.25,
        "operations completed and checked correct per second of timed work, at reference speed"),
    gate("setup_s", "s", Lower, 0.25,
        "everything before the first timed operation: generators, operator or hierarchy build, service start, warm-up (median of three to nine set-ups), at reference speed"),
    gate("peak_rss_mb", "MB", Lower, 0.25, "VmHWM of the workload's process at exit"),
];

/// Single layers, measured from outside in the traced pass.
pub const PER_LAYER: [Metric; 67] = [
    exact("sim_solve_s", "sim_s", "Machine::elapsed() summed over one rep's solves: the paper's section-4 clock; host-time work must leave it bit-identical"),
    exact("failed_share", "ratio", "operations failed, refused, non-converged, inexact or failing the residual check / operations attempted"),
    layer("trace_overhead_ratio", "ratio", Lower, "median traced rep (or request) wall / the same untraced, interleaved"),
    layer("trace_reconcile_ratio", "ratio", Lower, "sum of the layer parts / the span they should add up to (solve span; request latency); 1 within 5%"),
    // hpf-sparse
    layer("sparse.csr_matvec_ms", "ms", Lower, "stand-alone CsrMatrix::matvec on the workload's matrix"),
    layer("sparse.csr_matvec_gbps", "GB/s", Higher, "computed bytes 16*nnz + 8*(3n+1) over that time"),
    layer("sparse.triad_gbps", "GB/s", Higher, "in-process triad a = b + s*c at the same footprint (24 B per element)"),
    layer("sparse.csr_matvec_roofline_frac", "ratio", Higher, "csr_matvec_gbps / triad_gbps"),
    layer("sparse.csc_matvec_ms", "ms", Lower, "stand-alone CscMatrix::matvec on the workload's matrix"),
    layer("sparse.gen_s", "s", Lower, "generator wall for the workload's matrices"),
    // hpf-core
    layer("core.matvec_ms", "ms", Lower, "row-wise distributed products of one rep, summed (TimedOperator spans)"),
    exact("core.matvec_calls", "count", "row-wise products per rep"),
    layer("core.matvec_overhead_ratio", "ratio", Lower, "core.matvec_ms per call / sparse.csr_matvec_ms"),
    layer("core.colwise_matvec_ms", "ms", Lower, "column-wise CSC Temp2d products of one rep, summed"),
    layer("core.dot_us", "us", Lower, "stand-alone DistVector::dot at workload size"),
    layer("core.axpy_us", "us", Lower, "stand-alone DistVector::axpy at workload size"),
    // hpf-machine
    layer("machine.ns_per_op_off", "ns", Lower, "allreduce(1) + compute_all on an NP=64 machine, tracing off, no sink"),
    layer("machine.ns_per_op_sink", "ns", Lower, "the same with a counting sink, tracing off"),
    layer("machine.ns_per_op_traced", "ns", Lower, "the same with tracing on"),
    exact("machine.events_per_solve", "count", "events the counting sink saw per rep, or machine operations where none is installed"),
    exact("machine.flops", "count", "Machine::total_flops per rep"),
    exact("machine.words_sent", "count", "Machine::total_words_sent per rep"),
    exact("machine.messages", "count", "Machine::total_messages per rep"),
    exact("machine.imbalance", "ratio", "largest Machine::imbalance over the rep's solves"),
    // hpf-solvers
    exact("solvers.iters", "count", "iterations per rep"),
    layer("solvers.self_ms", "ms", Lower, "solve span minus operator and preconditioner spans: the Krylov recurrence"),
    layer("solvers.serial_cg_ms", "ms", Lower, "plain single-threaded cg on the same problem"),
    layer("solvers.dist_over_serial_ratio", "ratio", Lower, "untraced wall per solve / solvers.serial_cg_ms"),
    layer("solvers.protected_over_plain_ratio", "ratio", Lower, "protected solve wall / plain solve wall, tracing off"),
    layer("solvers.final_rel_residual", "ratio", Lower, "largest recomputed relative residual over the pass"),
    // hpf-mg
    layer("mg.build_s", "s", Lower, "MgHierarchy::build wall"),
    layer("mg.vcycle_ms", "ms", Lower, "V-cycle applications of one rep, summed (TimedPreconditioner spans)"),
    layer("mg.vcycle_share", "ratio", Lower, "mg.vcycle_ms / the solve span"),
    exact("mg.iters", "count", "MG-PCG iterations per rep"),
    exact("mg.total_nnz", "count", "MgHierarchy::total_nnz"),
    // hpf-partition
    layer("partition.balanced_rows_ms", "ms", Lower, "balanced-rows on a pool power-law matrix at NP=8"),
    layer("partition.nnz_bisect_ms", "ms", Lower, "nnz-bisect on the same matrix"),
    layer("partition.greedy_hypergraph_ms", "ms", Lower, "greedy-hypergraph on the same matrix"),
    layer("partition.spectral_ms", "ms", Lower, "spectral on the same matrix"),
    exact("partition.volume_words", "count", "communication volume of the greedy-hypergraph layout, words per matvec"),
    // hpf-service
    layer("service.submit_us_p50", "us", Lower, "span around submit"),
    layer("service.wait_ms_p50", "ms", Lower, "SolveResponse.wait_time: queued before execution"),
    layer("service.solve_ms_p50", "ms", Lower, "SolveResponse.solve_time"),
    layer("service.overhead_ms_p50", "ms", Lower, "latency - wait - solve: admit, dispatch, plan, batch mates, respond"),
    layer("service.request_p99_ms", "ms", Lower, "request latency, 99th percentile"),
    layer("service.plan_hit_ratio", "ratio", Higher, "responses served from the plan cache / responses"),
    layer("service.latency_hit_ms_p50", "ms", Lower, "median latency of plan-cache hits"),
    layer("service.latency_built_ms_p50", "ms", Lower, "median latency of requests whose plan was built"),
    layer("service.batched_share", "ratio", Higher, "responses that shared a batch / responses"),
    layer("service.retry_share", "ratio", Lower, "responses that needed more than one attempt / responses"),
    layer("service.refused", "count", Lower, "submits refused (Busy, Shed, CircuitOpen)"),
    layer("service.interactive_p95_ms", "ms", Lower, "latency p95 of the Interactive class"),
    layer("service.besteffort_p95_ms", "ms", Lower, "latency p95 of the BestEffort class"),
    layer("service.direct_ratio", "ratio", Lower, "request_p50_ms / median wall of the same mix solved by direct library calls"),
    // hpf-obs
    layer("obs.overhead_ratio", "ratio", Lower, "throughput_rps of service_mixed / service_observed, both in this pass"),
    layer("obs.bus_published", "count", Higher, "BusStats.published over the observed stream"),
    layer("obs.bus_dropped", "count", Lower, "BusStats.dropped"),
    layer("obs.bus_sampled_out", "count", Higher, "BusStats.sampled_out"),
    layer("obs.postmortems", "count", Lower, "FlightRecorder::dumps"),
    layer("obs.bus_publish_ns", "ns", Lower, "stand-alone EventBus::publish, keep-all, drained"),
    layer("obs.prom_render_us", "us", Lower, "render_prometheus of a service metrics snapshot"),
    layer("obs.trace_jsonl_us_per_kevent", "us", Lower, "Trace::to_jsonl per thousand events"),
    // hpf-lang
    layer("lang.parse_elaborate_us", "us", Lower, "parse_program + elaborate on the Figure 2 deck"),
    // the traced pass itself
    layer("trace.spans", "count", Lower, "spans written to benchmark/out/<workload>.spans.jsonl"),
    layer("trace.reps", "count", Higher, "traced reps or requests behind the span-derived numbers"),
    layer("trace.filled", "count", Lower, "metrics of layers this workload does not touch, taken from the quick pass of one that does"),
    layer("host.slowdown", "ratio", Lower, "median reading of the host-speed reference during the pass: how many times slower than the reference machine the host ran while the per-layer times, which are the clock's own, were taken"),
];

fn json_metric(m: &Metric) -> String {
    let mut s = format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        m.name,
        m.unit,
        m.better.name()
    );
    if let Some(b) = m.bound {
        s.push_str(&format!(", \"bound\": {b}"));
    }
    s.push('}');
    s
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        list(WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect()),
        list(END_TO_END.iter().map(json_metric).collect()),
        list(PER_LAYER.iter().map(json_metric).collect()),
    )
}

/// `--list`: every metric with unit, direction and bound, every workload with its reason.
pub fn print_list() {
    println!("workloads (closed loop; one process each):");
    for w in &WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (spans off; gated):");
    for m in &END_TO_END {
        println!(
            "  {:<34} {:<6} {:<6} bound {:>4.0}%  {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.meaning
        );
    }
    println!(
        "\nper-layer metrics (traced pass; no bound; `exact` repeats bit for bit on one seed):"
    );
    for m in &PER_LAYER {
        println!(
            "  {:<34} {:<6} {:<6} {:<5}  {}",
            m.name,
            m.unit,
            m.better.name(),
            if m.exact { "exact" } else { "" },
            m.meaning
        );
    }
}
