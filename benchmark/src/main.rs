//! Wall-clock benchmark of the hpf workspace, measured from outside:
//! every number is taken by timing calls into public functions.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! pass of one workload and prints one JSON object as its last line.
//! `--all` runs every workload, each pass in its own child process.

mod host;
mod library;
mod probes;
mod service;
mod spans;
mod spec;
mod util;

use spans::SpanBuf;
use spec::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use util::{median, peak_rss_mb};

/// Metric name → value.
pub type Ledger = BTreeMap<&'static str, f64>;

/// A run sets up at least three times, and on (nine times at most)
/// until two seconds of set-up have passed; `setup_s` is the median. A
/// set-up of a tenth of a second is mostly thread starts and first
/// touches, and three of those do not make a steady median.
pub fn wants_another_setup(setup_s: &[f64]) -> bool {
    let n = setup_s.len();
    n < 3 || (n < 9 && setup_s.iter().sum::<f64>() < 2.0)
}

/// What the timed pass of any workload reports.
pub struct Timed {
    pub setup_s: Vec<f64>,
    pub solve_wall_ms: f64,
    pub request_p50_ms: f64,
    pub request_p95_ms: f64,
    pub throughput_rps: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// One pass of one workload, as printed on the last line.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Ledger,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

fn is_observed(workload: &str) -> bool {
    workload == "service_observed"
}

/// The end-to-end pass: the benchmark's spans are off.
fn timed_pass(workload: &str, seed: u64, seconds: f64, quick: bool) -> RunResult {
    let t = if library::is_library(workload) {
        library::timed(workload, seed, seconds, quick)
    } else {
        service::timed(is_observed(workload), seed, seconds, quick)
    };
    println!(
        "# {workload}: {} operations timed, set-ups {:?} s",
        t.attempted, t.setup_s
    );
    let metrics = Ledger::from([
        ("solve_wall_ms", t.solve_wall_ms),
        ("request_p50_ms", t.request_p50_ms),
        ("request_p95_ms", t.request_p95_ms),
        ("throughput_rps", t.throughput_rps),
        ("setup_s", median(&t.setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    RunResult {
        attempted: t.attempted,
        failed: t.failed,
        metrics,
    }
}

/// Workloads whose quick traced pass supplies the metrics of layers
/// another workload does not touch, in the order they are asked.
const FILL_SOURCES: [&str; 3] = ["mg_poisson3d", "cg_layouts_np64", "service_observed"];

/// The per-layer pass. `top` is the workload the user asked for: it runs
/// the probes, is filled from other workloads' quick passes, and writes
/// its spans out.
fn traced_pass(workload: &str, seed: u64, seconds: f64, quick: bool, top: bool) -> RunResult {
    let spans = SpanBuf::new();
    let mut ledger = Ledger::new();
    let probe_budget = top.then_some(if quick { 0.3 } else { 1.5 });
    let (mut attempted, mut failed) = if library::is_library(workload) {
        library::traced(
            workload,
            seed,
            seconds,
            quick,
            probe_budget,
            &spans,
            &mut ledger,
        )
    } else {
        let observed = is_observed(workload);
        service::traced(
            observed,
            seed,
            seconds,
            quick,
            probe_budget,
            &spans,
            &mut ledger,
        )
    };
    if !top {
        return RunResult {
            attempted,
            failed,
            metrics: ledger,
        };
    }

    let mut filled = 0usize;
    for source in FILL_SOURCES {
        if source == workload || PER_LAYER.iter().all(|m| ledger.contains_key(m.name)) {
            continue;
        }
        let other = traced_pass(source, seed, 1.0, true, false);
        attempted += other.attempted;
        failed += other.failed;
        for (name, value) in other.metrics {
            if !ledger.contains_key(name) {
                println!(
                    "# {name} is not touched by {workload}: taken from the quick pass of {source}"
                );
                ledger.insert(name, value);
                filled += 1;
            }
        }
    }
    ledger.insert(
        "core.matvec_overhead_ratio",
        ledger["core.matvec_ms"] / ledger["core.matvec_calls"] / ledger["sparse.csr_matvec_ms"],
    );
    ledger.insert("failed_share", failed as f64 / attempted as f64);
    ledger.insert("trace.filled", filled as f64);
    ledger.insert("trace.spans", spans.len() as f64);
    let path = spans::spans_path(workload);
    match spans.write_jsonl(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            failed += 1;
        }
    }
    RunResult {
        attempted,
        failed,
        metrics: ledger,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e308".to_string()
    }
}

/// Print every metric by name with its unit, then the JSON object the
/// driver reads as the last line of standard output.
fn print_result(workload: &str, defs: &[Metric], result: &RunResult, quick: bool) {
    if quick {
        println!("# {workload}: --quick checks the wiring at a tenth of the size; its numbers are not measurements and are not tabulated");
    }
    let mut json = Vec::with_capacity(defs.len());
    for m in defs {
        let value = *result
            .metrics
            .get(m.name)
            .unwrap_or_else(|| panic!("{workload} did not measure {}", m.name));
        if !quick {
            if value != 0.0 && value.abs() < 1e-3 {
                println!("{workload:<18} {:<34} {value:>16.3e} {}", m.name, m.unit);
            } else {
                println!("{workload:<18} {:<34} {value:>16.6} {}", m.name, m.unit);
            }
        }
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(value),
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted,
        result.failed,
        json.join(", ")
    );
}

/// Read back the last line a child printed.
fn parse_result(stdout: &str) -> Option<RunResult> {
    let line = stdout.lines().last()?;
    let field = |key: &str| -> Option<&str> {
        let rest = line.split(&format!("\"{key}\": ")).nth(1)?;
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let mut metrics = Ledger::new();
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(v) = field(&format!("{}\": {{\"value", def.name)) {
            metrics.insert(def.name, v.parse().ok()?);
        }
    }
    let result = RunResult {
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    };
    (field("correct")? == result.correct().to_string()).then_some(result)
}

struct Args {
    workload: Option<String>,
    all: bool,
    list: bool,
    manifest: bool,
    quick: bool,
    aa: Option<usize>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

impl Args {
    /// How long a pass measures: `--seconds`, else `RUN_SECONDS`, or one second for `--quick`.
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 1.0 } else { RUN_SECONDS as f64 })
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        list: false,
        manifest: false,
        quick: false,
        aa: None,
        seed: 1,
        seconds: None,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--all" => args.all = true,
            "--list" => args.list = true,
            "--manifest" => args.manifest = true,
            "--quick" => args.quick = true,
            "--workload" => {
                let name = value("a workload name")?;
                if spec::workload(&name).is_none() {
                    return Err(format!("unknown workload {name}; see --list"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => {
                args.aa = Some(
                    value("a run count")?
                        .parse()
                        .map_err(|e| format!("--aa: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Run one pass of one workload in a child process of its own, so that
/// `peak_rss_mb` is that workload's alone; passes its output through.
fn child(workload: &str, args: &Args, trace: bool) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().expect("child process starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    parse_result(&stdout).filter(|r| out.status.success() && r.correct())
}

/// `--all`: every workload, one at a time, timed pass then traced pass.
fn run_all(args: &Args) -> bool {
    let mut ok = true;
    let mut summary = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let result = child(w.name, args, trace);
            let pass = if trace { "traced" } else { "timed" };
            summary.push(format!(
                "{:<18} {pass:<7} {}",
                w.name,
                match &result {
                    Some(r) => format!(
                        "ok ({} operations checked, {} metrics)",
                        r.attempted,
                        r.metrics.len()
                    ),
                    None => "FAILED".to_string(),
                }
            ));
            ok &= result.is_some();
        }
    }
    println!(
        "\nsummary (seed {}, {} s per pass):",
        args.seed,
        args.seconds()
    );
    for line in summary {
        println!("  {line}");
    }
    if args.quick {
        println!(
            "  --quick is a wiring check at a tenth of the size: its numbers are not measurements"
        );
    }
    ok
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1, 2, 3].map(|k| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    })
}

/// `--aa N`: the whole set twice on one commit, runs interleaved. Fails
/// when two medians of an end-to-end metric differ by more than its
/// bound, or an exact metric differs at all.
fn run_aa(args: &Args, n: usize) -> bool {
    let mut ok = true;
    for w in &WORKLOADS {
        let mut timed: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..n.max(2) {
            for set in &mut timed {
                match child(w.name, args, false) {
                    Some(r) => set.push(r),
                    None => return false,
                }
            }
        }
        let (Some(a), Some(b)) = (child(w.name, args, true), child(w.name, args, true)) else {
            return false;
        };
        println!("\nA/A {}:", w.name);
        for m in &END_TO_END {
            let column =
                |set: &Vec<RunResult>| set.iter().map(|r| r.metrics[m.name]).collect::<Vec<_>>();
            let (qa, qb) = (quartiles(&column(&timed[0])), quartiles(&column(&timed[1])));
            let diff = (qb[1] - qa[1]).abs() / qa[1];
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let verdict = if diff > bound { "DIFFERS" } else { "agrees" };
            ok &= diff <= bound;
            println!(
                "  {:<16} A {:>12.4} [{:.4}, {:.4}]  B {:>12.4} [{:.4}, {:.4}] {}  diff {:.2}% of bound {:.0}%: {verdict}",
                m.name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], m.unit, diff * 100.0, bound * 100.0
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (va, vb) = (a.metrics[m.name], b.metrics[m.name]);
            if va.to_bits() != vb.to_bits() {
                println!("  {:<26} exact metric DIFFERS: {va} against {vb}", m.name);
                ok = false;
            }
        }
    }
    println!("\nA/A {}", if ok { "passed" } else { "FAILED" });
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.list {
        spec::print_list();
        true
    } else if args.manifest {
        print!("{}", spec::manifest());
        true
    } else if let Some(n) = args.aa {
        run_aa(&args, n)
    } else if args.all {
        run_all(&args)
    } else if let Some(workload) = &args.workload {
        let result = if args.trace {
            traced_pass(workload, args.seed, args.seconds(), args.quick, true)
        } else {
            timed_pass(workload, args.seed, args.seconds(), args.quick)
        };
        let defs: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
        print_result(workload, defs, &result, args.quick);
        result.correct()
    } else {
        eprintln!("give --workload <name>, --all, --aa <n>, --list or --manifest");
        return ExitCode::from(2);
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
