//! `trace-report` — turn saved observability artifacts into exports
//! and human-readable analysis.
//!
//! ```text
//! trace-report --trace trace.jsonl --format summary
//! trace-report --trace trace.jsonl --format perfetto --format prom \
//!              --metrics metrics.json --out target/obs
//! trace-report --trace trace.jsonl --format drift --topology hypercube
//! trace-report bench-diff BENCH_prev.json BENCH_cur.json --max-regression 10
//! ```
//!
//! Inputs:
//! - `--trace FILE`    machine event trace in JSONL (`Trace::to_jsonl`)
//! - `--metrics FILE`  service metrics JSON (`MetricsSnapshot::to_json`)
//!
//! Formats (repeatable; default `summary`):
//! - `perfetto`   Chrome/Perfetto trace-event JSON (needs `--trace`)
//! - `prom`       Prometheus text exposition (needs `--metrics`)
//! - `csv`        per-span cost attribution CSV (needs `--trace`)
//! - `summary`    critical path, load imbalance, top spans (needs `--trace`)
//! - `drift`      cost-oracle predicted-vs-measured table (needs `--trace`)
//! - `drift-json` the same report as strict JSON (what `/drift` serves)
//! - `partition`  per-partitioner comm accounting: the trace is split at
//!   every `REDISTRIBUTE USING <name>` event and each segment's measured
//!   comm volume/time is set against the oracle's modeled time
//!   (needs `--trace`; exits non-zero on a trace with no redistribute
//!   events — there is nothing to account)
//! - `mg`         per-multigrid-level accounting: events are grouped by
//!   the `level=L` segment of their span path and each level's time,
//!   comm volume, and busy-time imbalance are tabulated (needs
//!   `--trace`; exits non-zero on a trace with no level spans)
//! - `flame`      collapsed-stack self-time profile (`frame;frame;leaf
//!   <microseconds>` per line — feed it to any flamegraph renderer);
//!   span parameters are normalized (`iter=12` → `iter=*`) so the
//!   profile aggregates across iterations and requests (needs `--trace`)
//!
//! Post-mortem mode: `--postmortem FILE` reads a flight-recorder dump
//! (`Postmortem::to_json`, what `/postmortems/<trace>` serves) and
//! renders it with:
//! - `postmortem`  the full autopsy: trigger, ranked causes with
//!   confidence, retained-evidence counts, narrative
//! - `explain`     just the one-paragraph narrative
//!
//! Both refuse (exit 1) any input without the `hpf-postmortem/1` schema
//! marker — pointing them at a clean trace or a metrics file is an
//! error, not an empty report.
//!
//! Live mode: `--follow FILE` tails a bus JSONL file (what
//! `EventBus::drain` + `BusEvent::to_jsonl` append during a run),
//! feeding the span profiler and the SLO tracker as lines land. It
//! re-renders the hot-span table on each batch of new events, prints
//! every alert transition, and exits once the file has been idle for
//! `--idle-ms` (default 2000; `--interval-ms` sets the poll period).
//! Partial trailing lines (a writer mid-append) are left for the next
//! poll. A file that *shrinks* between polls (log rotation or
//! truncation) is re-read from the start instead of being silently
//! ignored. Exits non-zero when no bus event was ever seen.
//!
//! The oracle formats price the trace under `--topology` (default
//! `hypercube`) and `--cost` (default `mpp-1995`; also `lan-cluster`,
//! `tight-mpp`, `zero-comm`).
//!
//! The `bench-diff` subcommand renders two `BENCH_<n>.json` records as
//! a regression table and exits non-zero when any shared series
//! regressed by more than `--max-regression` percent (default 10).
//!
//! Without `--out DIR` every export goes to stdout in the order
//! requested; with it, each lands in its own file and the path is
//! printed. `--quiet` suppresses stdout payloads (for CI, where only
//! the exit status and written files matter). Exit status is non-zero
//! on unreadable input, a failed validation, or a bench regression.

use hpf_machine::{level_of, CostModel, EventKind, EventRef, Topology, Trace};
use hpf_obs::{
    critical_path, load_imbalance, render_diff, span_costs, BenchRecord, DriftReport, Timeline,
};
use std::path::PathBuf;

struct Args {
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    postmortem: Option<PathBuf>,
    formats: Vec<String>,
    out: Option<PathBuf>,
    topology: Topology,
    cost: CostModel,
    quiet: bool,
    follow: Option<PathBuf>,
    interval_ms: u64,
    idle_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: trace-report [--trace FILE] [--metrics FILE] [--postmortem FILE] \
         [--format perfetto|prom|csv|summary|drift|drift-json|partition|mg|flame|\
         postmortem|explain]... \
         [--topology NAME] [--cost PRESET] [--out DIR] [--quiet]\n\
         \x20      trace-report --follow BUS.jsonl [--interval-ms N] [--idle-ms N] [--quiet]\n\
         \x20      trace-report bench-diff PREV.json CUR.json \
         [--max-regression PCT] [--quiet]\n\
         \x20      trace-report --version"
    );
    std::process::exit(2);
}

fn parse_topology(name: &str) -> Topology {
    match name {
        "hypercube" => Topology::Hypercube,
        "mesh2d" => Topology::Mesh2D,
        "ring" => Topology::Ring,
        "fully-connected" => Topology::FullyConnected,
        "bus" => Topology::Bus,
        other => fail(&format!(
            "unknown topology {other:?} (try hypercube, mesh2d, ring, fully-connected, bus)"
        )),
    }
}

fn parse_cost(name: &str) -> CostModel {
    match name {
        "mpp-1995" => CostModel::mpp_1995(),
        "lan-cluster" => CostModel::lan_cluster(),
        "tight-mpp" => CostModel::tight_mpp(),
        "zero-comm" => CostModel::zero_comm(),
        other => fail(&format!(
            "unknown cost preset {other:?} (try mpp-1995, lan-cluster, tight-mpp, zero-comm)"
        )),
    }
}

fn parse_args(raw: Vec<String>) -> Args {
    let mut args = Args {
        trace: None,
        metrics: None,
        postmortem: None,
        formats: Vec::new(),
        out: None,
        topology: Topology::Hypercube,
        cost: CostModel::mpp_1995(),
        quiet: false,
        follow: None,
        interval_ms: 500,
        idle_ms: 2000,
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        let parse_ms = |name: &str, v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("bad {name} {v:?} (want milliseconds)")))
        };
        match flag.as_str() {
            "--trace" => args.trace = Some(PathBuf::from(value("--trace"))),
            "--metrics" => args.metrics = Some(PathBuf::from(value("--metrics"))),
            "--postmortem" => args.postmortem = Some(PathBuf::from(value("--postmortem"))),
            "--format" => args.formats.push(value("--format")),
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--topology" => args.topology = parse_topology(&value("--topology")),
            "--cost" => args.cost = parse_cost(&value("--cost")),
            "--follow" => args.follow = Some(PathBuf::from(value("--follow"))),
            "--interval-ms" => args.interval_ms = parse_ms("--interval-ms", value("--interval-ms")),
            "--idle-ms" => args.idle_ms = parse_ms("--idle-ms", value("--idle-ms")),
            "--quiet" | "-q" => args.quiet = true,
            "--version" | "-V" => {
                println!("trace-report {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if args.formats.is_empty() {
        args.formats.push("summary".to_string());
    }
    args
}

fn fail(why: &str) -> ! {
    eprintln!("trace-report: {why}");
    std::process::exit(1);
}

fn load_trace(args: &Args) -> Trace {
    let path = args
        .trace
        .as_ref()
        .unwrap_or_else(|| fail("this format needs --trace FILE"));
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let trace = Trace::from_jsonl(&text)
        .unwrap_or_else(|e| fail(&format!("cannot parse {}: {e}", path.display())));
    if trace.is_empty() {
        fail(&format!("{} contains no events", path.display()));
    }
    trace
}

fn render_summary(trace: &Trace) -> String {
    let report = critical_path(trace);
    let mut out = String::new();
    out.push_str(&format!(
        "critical path: {:.6e} s (compute {:.1}%, comm {:.1}%, fault {:.1}%) over {} events\n",
        report.total_seconds,
        100.0 * report.compute_seconds / report.total_seconds.max(f64::MIN_POSITIVE),
        100.0 * report.comm_seconds / report.total_seconds.max(f64::MIN_POSITIVE),
        100.0 * report.fault_seconds / report.total_seconds.max(f64::MIN_POSITIVE),
        trace.len(),
    ));
    match load_imbalance(trace) {
        Some(li) => out.push_str(&format!(
            "load imbalance: {:.3} (max/mean compute time over {} processors)\n",
            li.ratio,
            li.busy.len()
        )),
        None => out.push_str("load imbalance: n/a (no per-processor compute timings)\n"),
    }
    out.push_str("top spans by critical-path seconds:\n");
    for cost in report.by_span.iter().take(10) {
        let key = if cost.key.is_empty() {
            "(no span)"
        } else {
            &cost.key
        };
        out.push_str(&format!(
            "  {:<40} {:>12.6e} s  x{:<6} {:>10} words {:>12} flops\n",
            key, cost.seconds, cost.count, cost.words, cost.flops
        ));
    }
    out
}

fn render_csv(trace: &Trace) -> String {
    let mut out = String::from("span,count,seconds,words,flops\n");
    for c in span_costs(trace) {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            c.key, c.count, c.seconds, c.words, c.flops
        ));
    }
    out
}

/// A trace that cannot support the requested analysis. Typed (rather
/// than a bare `fail`) so tests can assert the exact refusal and so the
/// message always carries the event count that was inspected.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ReportError {
    /// `--format partition` on a trace with no redistribute events:
    /// there are no layout switches or typed data motion to account.
    NoRedistributeEvents { events: usize },
    /// `--format mg` on a trace where no event's span carries a
    /// `level=L` segment: nothing was executed inside a V-cycle.
    NoLevelSpans { events: usize },
    /// `--format postmortem|explain` on input that is not a
    /// flight-recorder dump (a clean trace, a metrics file, garbage):
    /// refuse rather than render an empty autopsy.
    NotAPostmortem { why: String },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::NoRedistributeEvents { events } => write!(
                f,
                "partition report needs redistribute events; none among the {events} traced"
            ),
            ReportError::NoLevelSpans { events } => write!(
                f,
                "mg report needs level= span segments; none among the {events} traced"
            ),
            ReportError::NotAPostmortem { why } => {
                write!(f, "input is not a flight-recorder post-mortem: {why}")
            }
        }
    }
}

/// Parse a flight-recorder dump, refusing anything without the schema
/// marker (the typed path behind `--format postmortem|explain`).
fn parse_postmortem(text: &str) -> Result<hpf_obs::PostmortemSummary, ReportError> {
    hpf_obs::postmortem_summary_from_json(text).map_err(|why| ReportError::NotAPostmortem { why })
}

fn load_postmortem(args: &Args) -> hpf_obs::PostmortemSummary {
    let path = args
        .postmortem
        .as_ref()
        .unwrap_or_else(|| fail("this format needs --postmortem FILE"));
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    parse_postmortem(&text).unwrap_or_else(|e| fail(&e.to_string()))
}

fn render_postmortem(pm: &hpf_obs::PostmortemSummary) -> String {
    let mut out = format!("post-mortem {} (class {})\n", pm.trace, pm.class);
    out.push_str(&format!(
        "trigger: {}   outcome: {}\n",
        pm.trigger, pm.outcome
    ));
    out.push_str(&format!(
        "evidence retained: {} machine event(s) ({} overwritten), {} service event(s), {} \
         residual sample(s)\n",
        pm.machine_events, pm.machine_overwritten, pm.service_events, pm.residual_samples
    ));
    out.push_str("ranked causes:\n");
    for (i, (verdict, confidence)) in pm.causes.iter().enumerate() {
        out.push_str(&format!(
            "  {}. {:<22} confidence {:.2}\n",
            i + 1,
            verdict,
            confidence
        ));
    }
    out.push_str("narrative:\n");
    out.push_str(&format!("  {}\n", pm.narrative));
    out
}

/// Label prefix every partitioner-driven redistribution carries (see
/// `hpf_dist::redistribute::redistribute_atoms`, its one writer).
const REDISTRIBUTE_USING: &str = "REDISTRIBUTE USING ";

/// One contiguous run of trace rows executed under a single
/// partitioner's layout, delimited by `REDISTRIBUTE USING <name>`
/// events. The opening redistribution itself is accounted separately as
/// the segment's switch cost.
struct PartitionSegment {
    partitioner: String,
    switch_words: usize,
    switch_seconds: f64,
    rows: std::ops::Range<usize>,
}

fn partition_segments(trace: &Trace) -> Vec<PartitionSegment> {
    let mut segments = vec![PartitionSegment {
        partitioner: "(initial)".to_string(),
        switch_words: 0,
        switch_seconds: 0.0,
        rows: 0..0,
    }];
    for (at, e) in trace.iter().enumerate() {
        if e.kind == EventKind::Redistribute && e.label.starts_with(REDISTRIBUTE_USING) {
            segments.push(PartitionSegment {
                partitioner: e.label[REDISTRIBUTE_USING.len()..].to_string(),
                switch_words: e.words,
                switch_seconds: e.time,
                rows: at + 1..at + 1,
            });
        } else if let Some(seg) = segments.last_mut() {
            seg.rows.end = at + 1;
        }
    }
    // A trace that opens with a redistribution has no pre-layout work.
    if segments.len() > 1 && segments[0].rows.is_empty() {
        segments.remove(0);
    }
    segments
}

fn render_partition(
    trace: &Trace,
    topology: Topology,
    cost: &CostModel,
) -> Result<String, ReportError> {
    if !trace.iter().any(|e| e.kind == EventKind::Redistribute) {
        return Err(ReportError::NoRedistributeEvents {
            events: trace.len(),
        });
    }
    let segments = partition_segments(trace);
    let mut out = format!(
        "partition report: {} segment(s) over {} events, priced on {:?}\n",
        segments.len(),
        trace.len(),
        topology,
    );
    out.push_str(&format!(
        "{:<24} {:>7} {:>12} {:>14} {:>14} {:>9} {:>12} {:>12}\n",
        "partitioner",
        "events",
        "comm-words",
        "measured-s",
        "modeled-s",
        "drift%",
        "switch-words",
        "switch-s"
    ));
    for seg in &segments {
        // The segment's communication rows, measured and modeled.
        let is_comm = |e: &EventRef<'_>| (e.kind != EventKind::Compute).then_some(());
        let mut comm = trace.window_by(seg.rows.clone(), Some((topology, cost)), false, is_comm);
        let comm = comm.pop().map(|(_, sums)| sums).unwrap_or_default();
        let (comm_words, measured, modeled) = (comm.words, comm.time, comm.predicted);
        let drift = if modeled > 0.0 {
            100.0 * (measured - modeled) / modeled
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<24} {:>7} {:>12} {:>14.6e} {:>14.6e} {:>+9.1} {:>12} {:>12.6e}\n",
            seg.partitioner,
            seg.rows.len(),
            comm_words,
            measured,
            modeled,
            drift,
            seg.switch_words,
            seg.switch_seconds,
        ));
    }
    let switch_words: usize = segments.iter().map(|s| s.switch_words).sum();
    let switch_seconds: f64 = segments.iter().map(|s| s.switch_seconds).sum();
    out.push_str(&format!(
        "total redistribution cost: {switch_words} words, {switch_seconds:.6e} s across {} switch(es)\n",
        segments.iter().filter(|s| s.switch_words > 0).count(),
    ));
    Ok(out)
}

/// Per-multigrid-level accounting: every event whose span path carries
/// a `level=L` segment is attributed to that level; per-level busy
/// times come from the compute events' per-processor timings.
fn render_mg(trace: &Trace) -> Result<String, ReportError> {
    let mut levels = trace.window_by(0..trace.len(), None, true, |e| level_of(e.span));
    levels.sort_by_key(|&(level, _)| level);
    let outside = trace.len() - levels.iter().map(|(_, sums)| sums.events).sum::<usize>();
    if levels.is_empty() {
        return Err(ReportError::NoLevelSpans {
            events: trace.len(),
        });
    }
    let mut out = format!(
        "multigrid report: {} level(s) over {} events ({} outside level spans)\n",
        levels.len(),
        trace.len(),
        outside,
    );
    out.push_str(&format!(
        "{:<6} {:>7} {:>14} {:>12} {:>14} {:>10}\n",
        "level", "events", "seconds", "comm-words", "comm-s", "imbalance"
    ));
    for (level, sums) in &levels {
        // A level with no busy time reads 1.0.
        let imbalance = hpf_machine::imbalance(sums.busy.iter().copied()).unwrap_or(1.0);
        out.push_str(&format!(
            "{:<6} {:>7} {:>14.6e} {:>12} {:>14.6e} {:>10.3}\n",
            level, sums.events, sums.time, sums.comm_words, sums.comm_time, imbalance,
        ));
    }
    Ok(out)
}

fn load_bench(path: &str) -> BenchRecord {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    BenchRecord::from_json(text.trim())
        .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
}

/// `trace-report bench-diff PREV CUR [--max-regression PCT] [--quiet]`.
fn bench_diff(raw: Vec<String>) -> ! {
    let mut files = Vec::new();
    let mut max_pct = 10.0;
    let mut quiet = false;
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-regression" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--max-regression needs a value");
                    usage()
                });
                max_pct = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --max-regression {v:?}")));
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if files.len() != 2 {
        eprintln!("bench-diff needs exactly two BENCH_<n>.json files");
        usage()
    }
    let prev = load_bench(&files[0]);
    let cur = load_bench(&files[1]);
    let (table, regressed) = render_diff(&prev, &cur, max_pct);
    if !quiet {
        print!("{table}");
    }
    if regressed {
        eprintln!("trace-report: bench-diff found regressions beyond {max_pct}%");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Consume every complete line in `text` past `processed`, feeding the
/// profiler and SLO tracker; a partial trailing line (writer mid-append)
/// is left for the next poll. Returns how many events landed.
fn follow_consume(
    text: &str,
    processed: &mut usize,
    profile: &mut hpf_obs::SpanProfile,
    slo: &mut hpf_obs::SloTracker,
    latest_wall: &mut f64,
    malformed: &mut u64,
) -> u64 {
    if text.len() < *processed {
        // The file shrank between polls: it was rotated or truncated by
        // the writer. Everything in it is new — re-read from the start.
        *processed = 0;
    }
    let unseen = &text[*processed..];
    let Some(last_nl) = unseen.rfind('\n') else {
        return 0;
    };
    let mut landed = 0u64;
    for line in unseen[..=last_nl].lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match hpf_obs::BusEvent::from_jsonl(line) {
            Ok(e) => {
                *latest_wall = latest_wall.max(e.wall_s);
                slo.observe_bus_event(&e);
                profile.record_bus_event(&e);
                landed += 1;
            }
            Err(_) => *malformed += 1,
        }
    }
    *processed += last_nl + 1;
    landed
}

/// `--follow FILE`: tail a live bus JSONL file until it goes idle.
fn follow(path: &std::path::Path, args: &Args) -> ! {
    let interval = std::time::Duration::from_millis(args.interval_ms.max(1));
    let idle = std::time::Duration::from_millis(args.idle_ms.max(1));
    let mut profile = hpf_obs::SpanProfile::new();
    let mut slo = hpf_obs::SloTracker::soak_defaults();
    let mut processed = 0usize;
    let mut seen = 0u64;
    let mut malformed = 0u64;
    let mut latest_wall = 0.0f64;
    let mut last_new = std::time::Instant::now();
    loop {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let landed = follow_consume(
            &text,
            &mut processed,
            &mut profile,
            &mut slo,
            &mut latest_wall,
            &mut malformed,
        );
        if landed > 0 {
            seen += landed;
            last_new = std::time::Instant::now();
            for t in slo.evaluate(latest_wall) {
                println!(
                    "alert[{}] {} -> {} at {:.1}s (burn slow {:.2} fast {:.2})",
                    t.class.name(),
                    t.from.name(),
                    t.to.name(),
                    t.at_s,
                    t.slow_burn,
                    t.fast_burn,
                );
            }
            if !args.quiet {
                println!("-- {seen} event(s), bus clock {latest_wall:.1}s --");
                print!("{}", profile.render_top(10));
            }
        } else if last_new.elapsed() >= idle {
            break;
        }
        std::thread::sleep(interval);
    }
    if seen == 0 {
        fail(&format!(
            "follow saw no bus events in {} before going idle",
            path.display()
        ));
    }
    println!(
        "followed {} event(s) ({malformed} malformed line(s)), {} alert transition(s)",
        seen,
        slo.log().len()
    );
    print!("{}", profile.render_top(10));
    std::process::exit(0);
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("bench-diff") {
        raw.remove(0);
        bench_diff(raw);
    }
    let args = parse_args(raw);
    if let Some(path) = args.follow.clone() {
        follow(&path, &args);
    }
    for format in &args.formats {
        let (content, filename) = match format.as_str() {
            "perfetto" => {
                let trace = load_trace(&args);
                let doc = hpf_obs::trace_events_json(&Timeline::from_trace(&trace))
                    .unwrap_or_else(|e| fail(&format!("perfetto export failed: {e}")));
                hpf_obs::json::validate(&doc)
                    .unwrap_or_else(|e| fail(&format!("perfetto export invalid: {e}")));
                (doc, "trace.perfetto.json")
            }
            "prom" => {
                let path = args
                    .metrics
                    .as_ref()
                    .unwrap_or_else(|| fail("prom needs --metrics FILE"));
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
                let snap = hpf_service::MetricsSnapshot::from_json(&text)
                    .unwrap_or_else(|e| fail(&format!("cannot parse {}: {e}", path.display())));
                (snap.to_prometheus(), "metrics.prom")
            }
            "csv" => (render_csv(&load_trace(&args)), "spans.csv"),
            "summary" => (render_summary(&load_trace(&args)), "summary.txt"),
            "drift" => {
                let trace = load_trace(&args);
                let report = DriftReport::from_trace(&trace, args.topology, &args.cost);
                (report.render(), "drift.txt")
            }
            "partition" => {
                let trace = load_trace(&args);
                let report = render_partition(&trace, args.topology, &args.cost)
                    .unwrap_or_else(|e| fail(&e.to_string()));
                (report, "partition.txt")
            }
            "mg" => {
                let trace = load_trace(&args);
                let report = render_mg(&trace).unwrap_or_else(|e| fail(&e.to_string()));
                (report, "mg.txt")
            }
            "drift-json" => {
                let trace = load_trace(&args);
                let report = DriftReport::from_trace(&trace, args.topology, &args.cost);
                let json = report.to_json();
                hpf_obs::json::validate(&json)
                    .unwrap_or_else(|e| fail(&format!("drift export invalid: {e}")));
                (json, "drift.json")
            }
            "postmortem" => (render_postmortem(&load_postmortem(&args)), "postmortem.txt"),
            "explain" => {
                let pm = load_postmortem(&args);
                (format!("{}\n", pm.narrative), "explain.txt")
            }
            "flame" => {
                let trace = load_trace(&args);
                let profile = hpf_obs::SpanProfile::from_trace(&trace);
                if !args.quiet {
                    eprint!("{}", profile.render_top(10));
                }
                (profile.collapsed(), "flame.txt")
            }
            other => fail(&format!("unknown format {other:?}")),
        };
        if content.is_empty() {
            fail(&format!("{format} export is empty"));
        }
        match &args.out {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", dir.display())));
                let path = dir.join(filename);
                std::fs::write(&path, content)
                    .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
                if !args.quiet {
                    println!("{}", path.display());
                }
            }
            None if args.quiet => {}
            None => print!("{content}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::Machine;

    fn traced_machine() -> Machine {
        let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        m.set_tracing(true);
        m
    }

    #[test]
    fn partition_report_segments_at_redistribute_using_labels() {
        let mut m = traced_machine();
        m.allreduce(8, "dot-merge");
        m.compute_uniform(100, "axpy");
        let traffic = vec![
            vec![0, 5, 0, 0],
            vec![0, 0, 3, 0],
            vec![0, 0, 0, 2],
            vec![1, 0, 0, 0],
        ];
        m.exchange(&traffic, "REDISTRIBUTE USING greedy-hypergraph");
        m.allreduce(8, "dot-merge");
        let report = render_partition(m.trace(), Topology::Hypercube, &CostModel::mpp_1995())
            .expect("trace has redistribute events");
        assert!(report.contains("2 segment(s)"), "{report}");
        assert!(report.contains("(initial)"), "{report}");
        assert!(report.contains("greedy-hypergraph"), "{report}");
        assert!(report.contains("across 1 switch(es)"), "{report}");

        let segs = partition_segments(m.trace());
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].partitioner, "(initial)");
        assert_eq!(segs[0].rows, 0..2);
        assert_eq!(segs[1].partitioner, "greedy-hypergraph");
        assert_eq!(segs[1].switch_words, 11);
        assert_eq!(segs[1].rows, 3..4);
    }

    #[test]
    fn leading_redistribute_has_no_initial_segment() {
        let mut m = traced_machine();
        let traffic = vec![vec![0; 4], vec![0; 4], vec![2, 0, 0, 0], vec![0; 4]];
        m.exchange(&traffic, "REDISTRIBUTE USING spectral");
        m.compute_uniform(10, "axpy");
        let segs = partition_segments(m.trace());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].partitioner, "spectral");
    }

    #[test]
    fn unlabeled_redistributes_stay_inside_their_segment() {
        let mut m = traced_machine();
        let traffic = vec![vec![0; 4], vec![4, 0, 0, 0], vec![0; 4], vec![0; 4]];
        m.exchange(&traffic, "halo-exchange");
        let segs = partition_segments(m.trace());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].partitioner, "(initial)");
        assert_eq!(segs[0].rows, 0..1);
    }

    #[test]
    fn partition_report_refuses_traces_without_redistributes() {
        let mut m = traced_machine();
        m.allreduce(8, "dot-merge");
        m.compute_uniform(100, "axpy");
        let err = render_partition(m.trace(), Topology::Hypercube, &CostModel::mpp_1995())
            .expect_err("no redistribute events in this trace");
        assert_eq!(err, ReportError::NoRedistributeEvents { events: 2 });
        assert!(err.to_string().contains("redistribute"), "{err}");
    }

    #[test]
    fn mg_report_groups_time_volume_and_imbalance_by_level() {
        use hpf_machine::span;
        let mut m = traced_machine();
        m.compute_uniform(50, "setup"); // outside any level span
        let traffic = vec![vec![0; 4], vec![3, 0, 0, 0], vec![0; 4], vec![0; 4]];
        {
            let _v = span::enter("vcycle");
            {
                let _l = span::enter("level=0");
                m.compute_all(&[100, 200, 100, 100], "mg-smooth");
                m.exchange(&traffic, "mg-halo");
            }
            {
                let _l = span::enter("level=1");
                m.compute_uniform(40, "mg-smooth");
            }
        }
        let report = render_mg(m.trace()).expect("trace has level spans");
        assert!(
            report.contains("2 level(s) over 4 events (1 outside level spans)"),
            "{report}"
        );
        // Level 0 carries the halo words; level 1 carries none.
        let l0 = report.lines().find(|l| l.starts_with("0 ")).unwrap();
        assert!(l0.contains(" 3 "), "{l0}");
        // The skewed compute_all shows up as busy-time imbalance > 1.
        let imbalance: f64 = l0.split_whitespace().last().unwrap().parse().unwrap();
        assert!(imbalance > 1.0, "{l0}");
    }

    #[test]
    fn mg_report_refuses_traces_without_level_spans() {
        let mut m = traced_machine();
        m.compute_uniform(10, "axpy");
        let err = render_mg(m.trace()).expect_err("no level spans");
        assert_eq!(err, ReportError::NoLevelSpans { events: 1 });
        assert!(err.to_string().contains("level="), "{err}");
    }

    #[test]
    fn follow_consume_leaves_partial_trailing_lines_for_next_poll() {
        use hpf_machine::span;
        let bus = hpf_obs::EventBus::new(64, hpf_obs::SamplingPolicy::keep_all());
        let mut m = traced_machine();
        m.set_event_sink(bus.machine_sink());
        {
            let _t = span::enter("trace=00000000000000ab");
            let _s = span::enter("solve");
            let _mv = span::enter("matvec");
            m.compute_uniform(1000, "local");
            m.allreduce(4, "dot-merge");
        }
        let mut text = String::new();
        for e in bus.drain() {
            text.push_str(&e.to_jsonl());
            text.push('\n');
        }
        // Chop the final newline: the last line is "mid-append".
        text.pop();
        let mut profile = hpf_obs::SpanProfile::new();
        let mut slo = hpf_obs::SloTracker::soak_defaults();
        let (mut processed, mut wall, mut malformed) = (0usize, 0.0f64, 0u64);
        let landed = follow_consume(
            &text,
            &mut processed,
            &mut profile,
            &mut slo,
            &mut wall,
            &mut malformed,
        );
        assert_eq!(landed, 1, "only the newline-terminated line lands");
        // The writer finishes the line; the next poll picks it up.
        text.push('\n');
        let landed = follow_consume(
            &text,
            &mut processed,
            &mut profile,
            &mut slo,
            &mut wall,
            &mut malformed,
        );
        assert_eq!(landed, 1);
        assert_eq!(processed, text.len());
        assert_eq!(malformed, 0);
        assert!(profile.top_k(1)[0].stack.contains("matvec"), "span kept");
    }

    #[test]
    fn follow_consume_survives_log_rotation() {
        use hpf_machine::span;
        let drain_text = |bus: &hpf_obs::EventBus| {
            let mut text = String::new();
            for e in bus.drain() {
                text.push_str(&e.to_jsonl());
                text.push('\n');
            }
            text
        };
        let bus = hpf_obs::EventBus::new(64, hpf_obs::SamplingPolicy::keep_all());
        let mut m = traced_machine();
        m.set_event_sink(bus.machine_sink());
        {
            let _t = span::enter("trace=00000000000000ab");
            let _s = span::enter("solve");
            m.allreduce(4, "dot-merge");
            m.allreduce(4, "dot-merge");
            m.allreduce(4, "dot-merge");
        }
        let first = drain_text(&bus);
        {
            let _t = span::enter("trace=00000000000000cd");
            let _s = span::enter("solve");
            m.allreduce(4, "dot-merge");
        }
        // The rotated file is SHORTER than what was already consumed.
        let rotated = drain_text(&bus);
        assert!(rotated.len() < first.len());

        let mut profile = hpf_obs::SpanProfile::new();
        let mut slo = hpf_obs::SloTracker::soak_defaults();
        let (mut processed, mut wall, mut malformed) = (0usize, 0.0f64, 0u64);
        let landed = follow_consume(
            &first,
            &mut processed,
            &mut profile,
            &mut slo,
            &mut wall,
            &mut malformed,
        );
        assert_eq!(landed, 3);
        assert_eq!(processed, first.len());
        // Next poll sees the rotated (smaller) file: consumption must
        // restart at offset 0 instead of waiting for the file to grow
        // past the stale offset.
        let landed = follow_consume(
            &rotated,
            &mut processed,
            &mut profile,
            &mut slo,
            &mut wall,
            &mut malformed,
        );
        assert_eq!(landed, 1, "post-rotation events land");
        assert_eq!(processed, rotated.len());
        assert_eq!(malformed, 0);
    }

    #[test]
    fn postmortem_formats_render_dumps_and_refuse_everything_else() {
        use hpf_obs::{FlightRecorder, FlightRecorderConfig};
        use hpf_service::{JobEvidence, QosClass, ServiceEvent};
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        fr.record(&JobEvidence {
            machine: &hpf_machine::EventTail::default(),
            residual: None,
            lifecycle: &[ServiceEvent::Completed {
                trace_id: 0xbeef,
                class: QosClass::Batch,
                latency_us: 777,
                ok: false,
                outcome: "recovery-exhausted",
            }],
        });
        let doc = fr.postmortems()[0].to_json();
        let pm = parse_postmortem(&doc).expect("real dump parses");
        let rendered = render_postmortem(&pm);
        assert!(
            rendered.contains("post-mortem 000000000000beef"),
            "{rendered}"
        );
        assert!(
            rendered.contains("trigger: recovery-exhausted"),
            "{rendered}"
        );
        assert!(rendered.contains("ranked causes:"), "{rendered}");
        assert!(rendered.contains(&pm.narrative), "{rendered}");

        // A clean machine trace is NOT a post-mortem: typed refusal.
        let mut m = traced_machine();
        m.allreduce(8, "dot-merge");
        let clean = m.trace().to_jsonl();
        let err = parse_postmortem(clean.lines().next().unwrap()).expect_err("clean trace");
        assert!(matches!(err, ReportError::NotAPostmortem { .. }));
        assert!(err.to_string().contains("hpf-postmortem/1"), "{err}");
        assert!(parse_postmortem("not json").is_err());
    }

    #[test]
    fn flame_profile_of_a_trace_is_collapsed_stack_shaped() {
        use hpf_machine::span;
        let mut m = traced_machine();
        {
            let _s = span::enter("solve");
            for i in 0..3 {
                let _it = span::enter(format!("iter={i}"));
                let _mv = span::enter("matvec");
                m.compute_uniform(10_000, "local");
            }
        }
        let profile = hpf_obs::SpanProfile::from_trace(m.trace());
        let collapsed = profile.collapsed();
        for line in collapsed.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("frames <value>");
            assert!(!stack.is_empty());
            value.parse::<u64>().expect("integer microseconds");
        }
        assert!(
            collapsed.contains("solve;iter=*;matvec;local"),
            "{collapsed}"
        );
    }

    /// The full MG-PCG pipeline end to end: solve traced, export the
    /// per-level report, see every hierarchy level and the coarse work.
    #[test]
    fn mg_report_renders_a_real_mg_pcg_trace() {
        use hpf_mg::{pcg_mg_distributed, GridDims, MgHierarchy, MgPreconditioner};
        use hpf_solvers::StopCriterion;
        let h = MgHierarchy::build(GridDims::d2(15, 15), 3, 4).unwrap();
        let (_, b) = hpf_sparse::gen::rhs_for_known_solution(h.fine_matrix());
        let pre = MgPreconditioner::new(h);
        let mut m = traced_machine();
        let (_, s) =
            pcg_mg_distributed(&mut m, &pre, &b, StopCriterion::RelativeResidual(1e-8), 200)
                .unwrap();
        assert!(s.converged);
        let report = render_mg(m.trace()).expect("MG trace has level spans");
        assert!(report.contains("3 level(s)"), "{report}");
        for level in ["0 ", "1 ", "2 "] {
            assert!(report.lines().any(|l| l.starts_with(level)), "{report}");
        }
    }

    /// Every reader of a load-imbalance ratio, given an empty set, an
    /// all-zero set and a one-processor set: each keeps its own reading of
    /// "no load to compare" (1.0, 0.0 or none), pinned here as a table.
    #[test]
    fn each_imbalance_reading_of_an_idle_set_is_pinned() {
        use hpf_dist::atoms::{AtomAssignment, AtomSpec};
        use hpf_dist::partition::imbalance;
        use hpf_machine::{Event, EventKind};
        let idle = |np: usize| Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let mut one = idle(1);
        one.compute_uniform(10, "w");
        // `load_imbalance` of a traced run of `work` on `np` processors.
        let traced = |np: usize, work: &dyn Fn(&mut Machine) -> f64| {
            let mut m = idle(np);
            m.set_tracing(true);
            work(&mut m);
            let li = hpf_obs::load_imbalance(m.trace());
            format!("{:?}", li.map(|li| (li.ratio, li.busy.len())))
        };
        // The `mg` table's imbalance column of levels 0 (all-zero busy
        // time), 1 (no busy time) and 2 (one processor).
        let mut levels = Trace::new();
        for (span, kind, proc_times) in [
            ("mg/level=0", EventKind::Compute, vec![0.0, 0.0]),
            ("mg/level=1", EventKind::AllReduce, vec![]),
            ("mg/level=2", EventKind::Compute, vec![3.0]),
        ] {
            let time = proc_times.iter().cloned().fold(0.0, f64::max);
            let (participants, span) = (proc_times.len().max(2), span.to_string());
            let event = Event {
                kind,
                participants,
                time,
                span,
                proc_times,
                ..Event::default()
            };
            levels.record(event);
        }
        let mg = render_mg(&levels).unwrap();
        let mg = |level: &str| {
            let row = mg.lines().find(|r| r.starts_with(level)).unwrap();
            row.split_whitespace().last().unwrap().to_string()
        };
        // An auto-repartitioned solve on a machine whose flops are free:
        // every segment's busy time is zero.
        let a = hpf_sparse::gen::poisson_2d(6, 6);
        let spec = AtomSpec::from_pointer_array(a.row_ptr());
        let free = CostModel {
            t_flop: 0.0,
            ..CostModel::mpp_1995()
        };
        let mut m = Machine::new(2, Topology::Hypercube, free);
        let (b, start) = (vec![1.0; a.n_rows()], AtomAssignment::atom_block(&spec, 2));
        let (to, obs) = (&hpf_partition::NnzBisection, &mut hpf_solvers::NullObserver);
        let auto = hpf_partition::cg_auto_repartition(&mut m, &a, &b, 1e-8, 8, &start, to, obs);
        let zero = AtomSpec::from_pointer_array(&[0, 0, 0]);
        let atoms = |spec: &AtomSpec, np| AtomAssignment::atom_block(spec, np).imbalance(spec);
        let table = [
            ("Machine, idle", idle(4).imbalance().to_string(), "1"),
            ("Machine, one idle", idle(1).imbalance().to_string(), "1"),
            ("Machine, one", one.imbalance().to_string(), "1"),
            ("partition, empty", imbalance(&[]).to_string(), "0"),
            ("partition, zeros", imbalance(&[0, 0]).to_string(), "0"),
            ("partition, one", imbalance(&[5]).to_string(), "1"),
            ("atoms, zeros", atoms(&zero, 2).to_string(), "1"),
            ("atoms, one", atoms(&spec, 1).to_string(), "1"),
            ("load_imbalance, empty", traced(2, &|_| 0.0), "None"),
            (
                "load_imbalance, no compute",
                traced(2, &|m| m.allreduce(1, "d")),
                "None",
            ),
            (
                "load_imbalance, zeros",
                traced(2, &|m| m.compute_uniform(0, "w")),
                "None",
            ),
            (
                "load_imbalance, one",
                traced(1, &|m| m.compute_uniform(9, "w")),
                "Some((1.0, 1))",
            ),
            ("mg, zeros", mg("0 "), "1.000"),
            ("mg, empty", mg("1 "), "1.000"),
            ("mg, one", mg("2 "), "1.000"),
            (
                "auto, zeros",
                format!("{:?}", auto.unwrap().segment_imbalances),
                "[0.0, 0.0]",
            ),
        ];
        let moved: Vec<String> = table
            .iter()
            .filter(|(_, now, read)| now != read)
            .map(|(case, now, read)| format!("{case}: read {read}, now {now}"))
            .collect();
        assert!(moved.is_empty(), "{}", moved.join("\n"));
    }

    /// FNV-1a over the bytes, the digest `wire_formats.rs` pins with.
    fn fnv(text: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in text.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Every text output `trace-report` renders from a trace, pinned by
    /// length and digest: `summary`, `csv`, `partition` and `flame` of a
    /// row-wise CG solve, a `REDISTRIBUTE USING` switch and a column-wise
    /// CG solve on one machine, and `mg` of an MG-PCG solve. A mismatch
    /// prints the recomputed document.
    #[test]
    fn text_outputs_of_traced_solves_are_pinned() {
        use hpf_core::{ColwiseCsc, DataArrayLayout, RowwiseCsr};
        use hpf_mg::{pcg_mg_distributed, GridDims, MgHierarchy, MgPreconditioner};
        use hpf_solvers::StopCriterion;
        use hpf_solvers::{solve, ColwiseOperator, CscVariant, Krylov, NullObserver};
        use hpf_sparse::{gen, CscMatrix};
        let stop = StopCriterion::RelativeResidual(1e-8);
        let a = gen::poisson_2d(10, 10);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let rows = RowwiseCsr::block(a.clone(), 4, DataArrayLayout::RowAligned);
        let cols = ColwiseOperator {
            inner: ColwiseCsc::block(CscMatrix::from_csr(&a), 4),
            variant: CscVariant::Temp2d,
        };
        let mut m = traced_machine();
        let solved = solve(
            &mut m,
            &rows,
            &b,
            Krylov::cg(),
            stop,
            200,
            &mut NullObserver,
        );
        assert!(solved.unwrap().stats.converged);
        let traffic = vec![
            vec![0, 25, 0, 0],
            vec![0, 0, 25, 0],
            vec![0, 0, 0, 25],
            vec![25, 0, 0, 0],
        ];
        m.exchange(&traffic, "REDISTRIBUTE USING column-blocks");
        let solved = solve(
            &mut m,
            &cols,
            &b,
            Krylov::cg(),
            stop,
            200,
            &mut NullObserver,
        );
        assert!(solved.unwrap().stats.converged);
        let (cost, topology) = (CostModel::mpp_1995(), Topology::Hypercube);
        let partition = render_partition(m.trace(), topology, &cost).unwrap();

        let h = MgHierarchy::build(GridDims::d2(15, 15), 3, 4).unwrap();
        let (_, b) = gen::rhs_for_known_solution(h.fine_matrix());
        let pre = MgPreconditioner::new(h);
        let mut mg = traced_machine();
        let (_, s) = pcg_mg_distributed(&mut mg, &pre, &b, stop, 200).unwrap();
        assert!(s.converged);

        let flame = hpf_obs::SpanProfile::from_trace(m.trace()).collapsed();
        let outputs = [
            (
                "summary",
                render_summary(m.trace()),
                1214,
                0x570b8a46dfd3df04,
            ),
            ("csv", render_csv(m.trace()), 4500, 0xd3c9f3b39a104442),
            ("partition", partition, 476, 0xdf1ed7926360024d),
            (
                "mg",
                render_mg(mg.trace()).unwrap(),
                346,
                0x570bba4285ee8798,
            ),
            ("flame", flame, 399, 0x6c823b408deda9df),
        ];
        let moved: Vec<String> = outputs
            .iter()
            .filter(|(_, doc, len, digest)| doc.len() != *len || fnv(doc) != *digest)
            .map(|(what, doc, len, digest)| {
                let now = format!("({}, {:#018x})", doc.len(), fnv(doc));
                format!("{what}: recorded ({len}, {digest:#018x}), now {now}:\n{doc}")
            })
            .collect();
        assert!(moved.is_empty(), "{}", moved.join("\n"));
    }
}
