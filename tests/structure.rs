//! The design's structure rules, one test each: read from the tree at the
//! root and matched by hand (std only), so breaking one fails `cargo test`.

use std::fs;
use std::path::Path;

/// Line caps on `crates/{machine,obs}/src` and `crates/solvers/src`.
const MACHINE_OBS_LINES: usize = 6_544;
const SOLVERS_LINES: usize = 2_579;
/// And on `crates/{sparse,mg}/src`.
const SPARSE_MG_LINES: usize = 4_256;
/// And on `crates/bench/src`.
const BENCH_LINES: usize = 4_717;
/// And on `crates/service/src`.
const SERVICE_LINES: usize = 3_781;
/// And on `crates/{core,dist}/src`.
const CORE_DIST_LINES: usize = 3_713;

/// Every Rust source and manifest of the workspace and its stand-ins.
const SOURCES: &str = "crates/**/*.rs,Cargo.toml compat/**/*.rs,Cargo.toml Cargo.toml";
const TREE: &str = "crates src tests examples";

/// `(path, text)` of every file under each space-separated entry of `spec`
/// (a directory, a file, or `dir/**/*.rs,Cargo.toml`: just those), sorted.
fn files(spec: &str) -> Vec<(String, String)> {
    fn walk(rel: String, glob: &str, out: &mut Vec<(String, String)>) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(&rel);
        // This file names every pattern it forbids, so no walk reads it.
        let named = |g: &str| rel.ends_with(g.trim_start_matches('*'));
        let wanted = glob.split(',').any(named) && rel != "tests/structure.rs";
        if path.is_dir() {
            for entry in fs::read_dir(&path).expect("readable directory") {
                let name = entry.expect("directory entry").file_name();
                walk(format!("{rel}/{}", name.to_string_lossy()), glob, out);
            }
        } else if path.is_file() && wanted {
            let bytes = fs::read(&path).expect("readable file");
            out.push((rel, String::from_utf8_lossy(&bytes).into_owned()));
        }
    }
    let mut out = Vec::new();
    for entry in spec.split(' ') {
        let (dir, glob) = entry.split_once("/**/").unwrap_or((entry, "*"));
        walk(dir.to_string(), glob, &mut out);
    }
    out.sort();
    out
}

/// The same files, each cut after its first `#[cfg(test)]` line.
fn nontest(mut files: Vec<(String, String)>) -> Vec<(String, String)> {
    for (_, t) in &mut files {
        let tests = format!("\n{t}").find("\n#[cfg(test)]");
        t.truncate(tests.map_or(t.len(), |at| at + "#[cfg(test)]".len()));
    }
    files
}

/// The files under the `spec` directories hold at most `cap` lines of
/// [`nontest`] text, so that moving tests out of a file cannot meet it.
fn cap(spec: &str, cap: usize) {
    let cut = nontest(files(spec));
    let lines: usize = cut.iter().map(|f| f.1.lines().count()).sum();
    let dirs = spec.replace(' ', " + ");
    assert!(lines <= cap, "{dirs}: {lines} non-test lines, over {cap}");
}

/// `path:line: text` of every line of `files` that `hit` accepts.
fn grep(files: &[(String, String)], hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    for (path, text) in files {
        for (i, line) in text.lines().enumerate().filter(|(_, l)| hit(l)) {
            out.push(format!("{path}:{}: {line}", i + 1));
        }
    }
    out
}

/// A line test for the part of `grep -E` the rules use: alternatives
/// split on `|`, each a literal (`\.`, `\(` and `\)` escaped) with
/// `^`/`$` anchors and `\b` word boundaries allowed at either end.
fn matcher(pattern: &str) -> impl Fn(&str) -> bool {
    let alts = pattern.split('|').map(|alt| {
        let (start, end) = (alt.starts_with('^'), alt.ends_with('$'));
        let alt = alt.trim_start_matches('^').trim_end_matches('$');
        let (lead, trail) = (alt.starts_with(r"\b"), alt.ends_with(r"\b"));
        let lit = alt.trim_start_matches(r"\b").trim_end_matches(r"\b");
        (start, end, lead, trail, lit.replace('\\', ""))
    });
    let alts: Vec<_> = alts.collect();
    let word = |c: Option<&u8>| c.is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
    move |line: &str| {
        let b = line.as_bytes();
        alts.iter().any(|(start, end, lead, trail, lit)| {
            line.match_indices(lit.as_str()).any(|(i, _)| {
                let j = i + lit.len();
                (!start || i == 0)
                    && (!end || j == b.len())
                    && (!lead || word(b[..i].last()) != word(lit.as_bytes().first()))
                    && (!trail || word(b.get(j)) != word(lit.as_bytes().last()))
            })
        })
    }
}

/// What a field declaration gives after `name: `, matched as
/// `^ *(pub(\(crate\))? )?[a-z_]+: `.
fn field_type(line: &str) -> Option<&str> {
    let s = line.trim_start_matches(' ');
    let s = s.strip_prefix("pub(crate) ").unwrap_or(s);
    let s = s.strip_prefix("pub ").unwrap_or(s);
    let rest = s.trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '_');
    rest.strip_prefix(": ").filter(|_| rest.len() < s.len())
}

/// Lines from each that matches `start` through the next that matches
/// `end`, as awk's `/start/,/end/` prints them.
fn ranges<'a>(text: &'a str, start: &str, end: &str) -> Vec<&'a str> {
    let (start, end, mut on) = (matcher(start), matcher(end), false);
    let keep = |l: &&str| {
        on |= start(l);
        let kept = on;
        on &= !end(l);
        kept
    };
    text.lines().filter(keep).collect()
}

/// Every line that matches `pattern` in the files `spec` names.
fn hits(spec: &str, pattern: &str) -> Vec<String> {
    grep(&files(spec), matcher(pattern))
}

fn forbid(hits: Vec<String>, message: &str) {
    assert!(hits.is_empty(), "{}\n{message}", hits.join("\n"));
}

#[test]
fn no_dispatcher_thread_no_channel_library() {
    let message = "workers pull from the intake; there is no dispatcher thread";
    forbid(hits("crates", "hpf-service-dispatcher"), message);
    let message = "std::sync::mpsc and Mutex + Condvar are what the workspace uses";
    forbid(hits(SOURCES, "crossbeam"), message);
}

#[test]
fn one_way_a_job_ends_evidence_read_where_it_is_written() {
    let sends = hits("crates/service/src", r"responder\.send");
    let (n, found) = (sends.len(), sends.join("\n"));
    let message = format!("every job is answered by Core::finish: one responder.send, found {n}");
    assert!(n == 1, "{found}\n{message}");
    let retyped = r"\bBlackBoxRecord\b|\bBlackBoxTail\b|\bSolverTail\b|\bServiceRec\b|\bConvergenceLog\b|\bTraceSummary\b";
    let message = "a post-mortem keeps the Event, ServiceEvent and ResidualTail it was handed; samples are a RecordingObserver's";
    let blackbox = files("crates/machine/src/blackbox.rs");
    assert!(blackbox.is_empty(), "{message}");
    forbid(hits(TREE, retyped), message);
    let message = "evidence reaches the recorder through ServiceConfig::evidence_hook only";
    let taps = "SolverTapSink|TraceIdHasher|fn fanout";
    forbid(hits("crates", taps), message);
    let message = "the flight recorder keeps no per-trace state";
    forbid(hits("crates/obs/src/rca.rs", "HashMap<u64"), message);
    let message = "std::sync::Mutex through each crate's lock() is what the workspace uses";
    forbid(hits(SOURCES, "parking_lot"), message);
}

#[test]
fn one_charge_body_one_recording_path_a_queue_with_no_unsafe() {
    let mut srcs = files("crates src");
    srcs.retain(|(p, _)| p.starts_with("src/") || p.split('/').nth(2) == Some("src"));
    let word = matcher(r"\bunsafe\b");
    let code = |l: &str| word(l) && !l.trim_start().starts_with("//");
    let message = "no unsafe outside test files: the bus queue is std's";
    forbid(grep(&srcs, code), message);
    let recording = r"fn record_at\b|fn wants_event\b|fn proc_times_buffer\b|fn fold_and_emit\b";
    let message = "an operation is recorded by Recorder::record, as one Op";
    forbid(hits("crates/machine/src", recording), message);
    let message = "hpf-machine has no real-thread exec layer: nothing called it";
    assert!(files("crates/machine/src/exec.rs").is_empty(), "{message}");
    let mut walks = hits("crates/machine/src", "Vec<ProcStats>");
    let machine = &nontest(files("crates/machine/src/machine.rs"))[0].1;
    let bodies = ranges(machine, r"fn elapsed\(|fn synchronise\(", "^    }$");
    let fold = matcher(r"self\.clocks\.iter\(\)|fold\(");
    walks.extend(bodies.into_iter().filter(|l| fold(l)).map(String::from));
    let message = "the machine keeps its largest clock and running totals: no per-processor counters, no fold in elapsed/synchronise";
    forbid(walks, message);
    cap("crates/machine/src crates/obs/src", MACHINE_OBS_LINES);
    let recovery = &files("crates/solvers/src/recovery.rs")[0].1;
    let body = ranges(recovery, "^pub struct RecoveryConfig", "^}");
    let fields = body.iter().filter(|l| l.starts_with("    pub ")).count();
    let message = format!("RecoveryConfig declares {fields} pub fields, not 1 (max_rollbacks)");
    assert!(fields == 1, "{message}");
    let message = "the repartition policy is auto.rs's constants, not a type";
    forbid(hits(TREE, r"\bRepartitionPolicy\b"), message);
    let knobs = r"\bmax_batch\b|\bqos_weights\b|\bescalation_enabled\b|\badmission_min_samples\b|\bsupervision_enabled\b|config\.topology\b|cfg\.topology\b";
    let message = "batch size, QoS weights, escalation, admission warm-up, supervision and topology are service constants";
    forbid(hits(TREE, knobs), message);
}

#[test]
fn one_plan_build_one_publish_no_poll_knob_retries_that_do_not_sleep() {
    let message = "a retry runs at once on the worker's own clean machine: nothing to wait for";
    let sleeps = hits("crates/service/src/worker.rs", "thread::sleep");
    forbid(sleeps, message);
    let poll = "supervisor_poll|backoff_delay_jittered";
    let message = "hangs are seen by the worker's progress hook, with no poll to set; retries have no backoff";
    forbid(hits("crates src examples", poll), message);
    let message = "MetricsServer::publish(path, json) is the one way a document is served";
    forbid(hits("crates/service/src/http.rs", "fn publish_"), message);
    let service = nontest(files("crates/service/src"));
    let builds = grep(&service, matcher(r"SolvePlan::build_for\("));
    let message = "the service builds a plan at one SolvePlan::build_for call, cache on or off";
    assert!(builds.len() <= 1, "{}\n{message}", builds.join("\n"));
    let request = &files("crates/service/src/request.rs")[0].1;
    let body = ranges(request, "^pub struct ServiceConfig", "^}");
    let fields = body.iter().filter(|l| l.starts_with("    pub ")).count();
    let message = format!("ServiceConfig declares {fields} pub fields, not 13");
    assert!(fields == 13, "{message}");
}

#[test]
fn a_kill_ends_the_job_not_the_worker() {
    let service = "crates/service/src";
    let respawn =
        r"WorkerSlot|schedule_respawn|RESTART_BACKOFF|fn backoff_delay|is_finished\(\)|panic_any";
    let message = "no worker thread ends before shutdown: nothing to reap, respawn or back off from; a kill unwinds with resume_unwind";
    forbid(hits(service, respawn), message);
    let message = "the service spawns its workers once, in SolverService::start";
    forbid(hits(service, r"spawn_worker\("), message);
    let supervisor = "supervisor_loop|poll_interval|WorkerState|hpf-service-supervisor|heartbeat";
    let message = "a worker's progress hook detects its own hang: no supervisor thread, no shared worker state";
    forbid(hits(service, supervisor), message);
}

#[test]
fn a_full_trace_stores_rows() {
    let trace = nontest(files("crates/machine/src/trace.rs"));
    let events = |l: &str| field_type(l).is_some_and(|t| t.contains("Vec<Event>"));
    let cache = grep(&trace, |l| l.contains("OnceLock") || events(l));
    let message = "trace.rs stores rows: no decode cache, no Vec<Event> field";
    forbid(cache, message);
    let recorder = nontest(files("crates/machine/src/recorder.rs"));
    let event = |l: &str| field_type(l).is_some_and(|t| t.starts_with("Event,"));
    let write_to = matcher(r"fn write_to\b");
    let scratch = grep(&recorder, |l| write_to(l) || event(l));
    let message = "a sink is shown the row the recorder stored, not a scratch Event";
    forbid(scratch, message);
    let readers = "crates/obs/src/**/*.rs crates/bench/src/**/*.rs crates/partition/src/**/*.rs";
    let decodes = grep(&nontest(files(readers)), |l| l.contains(".events()"));
    let message = "a library reader walks Trace::iter; Trace::events decodes for tests";
    forbid(decodes, message);
}

#[test]
fn the_tail_is_a_ring_of_slots() {
    let recorder = &nontest(files("crates/machine/src/recorder.rs"))[0].1;
    let tail = ranges(recorder, "^pub struct EventTail", "^}");
    let trace = |l: &&str| field_type(l).is_some_and(|t| t.contains("Trace"));
    let field = |l: &str| format!("crates/machine/src/recorder.rs: EventTail: {}", l.trim());
    let mut rows: Vec<String> = tail.into_iter().filter(trace).map(field).collect();
    rows.extend(hits("crates/machine/src/recorder.rs", r"fn next_rows\b"));
    let message = "the tail writes one slot an event: no Trace in EventTail, no fn next_rows";
    forbid(rows, message);
}

#[test]
fn one_load_imbalance_ratio() {
    let mut srcs = nontest(files("crates"));
    srcs.retain(|(p, _)| p.ends_with(".rs") && p.split('/').nth(2) == Some("src"));
    let ratio = matcher(r"/ mean\b");
    let code = |l: &str| ratio(l.split("//").next().unwrap_or(l));
    let mut copies = grep(&srcs, code);
    for home in [
        "crates/machine/src/trace.rs:",
        "crates/sparse/src/stats.rs:",
    ] {
        if let Some(at) = copies.iter().position(|c| c.starts_with(home)) {
            copies.remove(at);
        }
    }
    let message = "max / mean is hpf_machine::imbalance, each caller stating what it reads where that is None; hpf-sparse's NnzStats, below hpf-machine, keeps the one other copy";
    forbid(copies, message);
}

#[test]
fn one_redistribute_using_path() {
    let mut srcs = nontest(files("crates"));
    srcs.retain(|(p, _)| p.ends_with(".rs") && p.split('/').nth(2) == Some("src"));
    let copies = matcher(r"fn redistribute_balanced\b|cg_balanced_partitioner_1");
    let message = "REDISTRIBUTE ... USING is SparseMatrixDirective::redistribute_using with a Partitioner; balanced-rows is the paper's CG_BALANCED_PARTITIONER_1";
    forbid(grep(&srcs, copies), message);
    let mut moves = grep(
        &srcs,
        matcher(r#"atom_traffic_matrix\(|"REDISTRIBUTE USING {"#),
    );
    moves.retain(|l| !l.starts_with("crates/dist/src/redistribute.rs:"));
    let message = "a move between two atom assignments is priced and labelled by hpf_dist::redistribute::redistribute_atoms alone";
    forbid(moves, message);
    let runs = grep(&srcs, |l| l.contains("owner[") && l.contains("] == p"));
    let home = runs
        .iter()
        .all(|r| r.starts_with("crates/dist/src/atoms.rs:"));
    let message = format!("{} owner-run loops; an assignment's cut points are read once, by AtomAssignment::atom_cuts", runs.len());
    assert!(runs.len() == 1 && home, "{}\n{message}", runs.join("\n"));
    cap("crates/core/src crates/dist/src", CORE_DIST_LINES);
}

#[test]
fn one_program_for_every_processor_count() {
    let copies =
        r"SerialOperator|trait Preconditioner|IdentityPrec|JacobiPrec\b|SsorPrec\b|enum Method\b";
    let message = "every solve runs through hpf_solvers::solve; NP = 1 is the serial program";
    forbid(hits("crates/solvers/src", copies), message);
    let fns = hits("crates/solvers/src", r"^pub fn \b").len();
    let message = format!("hpf-solvers declares {fns} top-level pub fns, over 20");
    assert!(fns <= 20, "{message}");
    cap("crates/solvers/src", SOLVERS_LINES);
}

#[test]
fn one_cg_body() {
    let statements = r"run\.matvec|\.aypx\(|update_x_r_and_dot_rr|while run\.stats";
    let body = hits("crates/solvers/src/recovery.rs", statements).len();
    let message = format!("recovery.rs runs {body} CG loop statements");
    assert!(body == 0, "{message}; protection is hooks on cg::figure2");
    let solvers = nontest(files("crates/solvers/src"));
    let update = "update_x_r_and_dot_rr";
    let call = |l: &str| !l.contains(&format!("fn {update}")) && l.contains(&format!("{update}("));
    let calls = grep(&solvers, call).len();
    let message = format!("{update} has {calls} callers outside tests, not 1 (cg::figure2)");
    assert!(calls == 1, "{message}");
}

#[test]
fn the_hierarchy_is_built_in_csr() {
    let built = nontest(files("crates/mg/src/hierarchy.rs"));
    let maps = grep(&built, matcher("BTreeMap|CooMatrix"));
    let message = "hierarchy.rs assembles in CSR: no BTreeMap or CooMatrix before its tests";
    forbid(maps, message);
    let gen = &files("crates/sparse/src/gen.rs")[0].1;
    for f in ["poisson_2d", "poisson_3d"] {
        let body = ranges(gen, &format!(r"^pub fn {f}\("), "^}").concat();
        let message = format!("gen::{f} pushes its rows in order; it does not sort triplets");
        assert!(!body.is_empty() && !body.contains("from_coo"), "{message}");
    }
    let message = "vcycle.rs transfers through Transfer::{restrict_into, prolong_add}";
    let products = "matvec_transpose_into|matvec_rows_into";
    forbid(hits("crates/mg/src/vcycle.rs", products), message);
    let hierarchy = &files("crates/mg/src/hierarchy.rs")[0].1;
    let transfer = ranges(hierarchy, r"^pub\(crate\) struct Transfer {", "^}").concat();
    let csr = transfer.is_empty() || transfer.contains("CsrMatrix");
    assert!(!csr, "a Transfer holds per-axis weights, not a CsrMatrix");
}

#[test]
fn one_row_loop_per_sweep_direction() {
    let smoother = nontest(files("crates/mg/src/smoother.rs"));
    let code = |l: &str| !l.trim_start().starts_with("//");
    for (direction, write) in [("forward", r"y\[i\] = "), ("backward", r"z\[i\] = ")] {
        let written = matcher(write);
        let bodies = grep(&smoother, |l| code(l) && written(l));
        let message = format!(
            "smoother.rs has {} {direction} row-loop bodies, not 1: one loop a direction, generic over where a coefficient comes from",
            bodies.len()
        );
        assert!(bodies.len() == 1, "{}\n{message}", bodies.join("\n"));
    }
}

#[test]
fn a_csc_matrix_is_the_csr_of_its_transpose() {
    let csc = nontest(files("crates/sparse/src/csc.rs"));
    let (looped, sorted) = (matcher(r"\bfor\b"), matcher("sort_unstable"));
    let code = |l: &str| !l.trim_start().starts_with("//");
    let loops = grep(&csc, |l| {
        code(l) && (looped(l) && l.contains(" in ") || sorted(l))
    });
    let message = "csc.rs runs no loop and no sort of its own: each method is CsrMatrix's on Aᵀ";
    forbid(loops, message);
    let body = ranges(&csc[0].1, "^pub struct CscMatrix", "^}");
    let fields: Vec<&str> = body.into_iter().filter_map(field_type).collect();
    let message = format!("CscMatrix declares the fields {fields:?}, not one CsrMatrix (Aᵀ)");
    assert!(fields == ["CsrMatrix,"], "{message}");
    let message =
        "one counting transpose in the workspace: the Galerkin Pᵀ is CsrMatrix::transpose";
    forbid(hits("crates/mg/src", r"fn transpose\("), message);
    cap("crates/sparse/src crates/mg/src", SPARSE_MG_LINES);
}

#[test]
fn the_temp2d_sum_is_read_row_by_row() {
    let matvec = "crates/core/src/matvec.rs";
    let text = &files(matvec)[0].1;
    let body = ranges(text, r"pub fn matvec_temp2d_into\(", "^    }$");
    let scatter = matcher("matvec_cols_accumulate|sum_partials|touched");
    let partial = body.is_empty() || body.iter().any(|l| scatter(l));
    let message = "matvec_temp2d_into runs the grouped row product, not a scatter into a partial";
    assert!(!partial, "{message}");
    let plan = "fn sum_partials|touched_ptr|touched_rows";
    let message = "the Temp2d merge plan is gone: the SUM's chains break where the owner changes";
    forbid(hits(matvec, plan), message);
}

#[test]
fn the_environment_is_read_in_one_place() {
    let message = "no test sets the environment: a process-wide variable races the tests beside it";
    forbid(hits(TREE, r"set_var\(|remove_var\("), message);
    let reads = hits(
        "crates/bench/src/experiments",
        "env::var|set_var|remove_var",
    );
    let knobs = &files("crates/bench/src/experiments/mod.rs")[0].1;
    let helper = ranges(knobs, r"fn from_env\(", "^    }$");
    let read = matcher("env::var");
    let inside = helper.into_iter().filter(|l| read(l)).count();
    let (n, found) = (reads.len(), reads.join("\n"));
    let message = format!(
        "the experiments read the environment in Knobs::from_env only: {inside} of {n} reads there"
    );
    assert!(inside > 0 && inside == n, "{found}\n{message}");
    cap("crates/bench/src", BENCH_LINES);
}

#[test]
fn one_json_codec() {
    let grammar = r"fn json_escape\b|fn json_f64\b|fn escape\b|fn unescape\b|fn unquote\b|fn scalar\b|fn section\b|fn quoted\b|fn split_top_level_pairs\b|struct Scanner";
    let found = hits("crates/**/*.rs", grammar);
    let leaf = |h: &String| h.starts_with("crates/json/src/lib.rs:");
    let leaf = found.len() == 2 && found.iter().all(leaf);
    let message = "one escaper and one number formatter, both in crates/json/src/lib.rs";
    assert!(leaf, "{}\n{message}", found.join("\n"));
    let (serde, derived) = (matcher(r"\bserde\b"), matcher("Serialize|Deserialize"));
    let args = |r: &str| derived(r.split(')').next().unwrap_or(r));
    let derive = |l: &str| serde(l) || l.split("derive(").skip(1).any(args);
    let derives = grep(&files("crates src compat Cargo.toml"), derive);
    let message = "serialization is hand-written against hpf-json; no derive";
    forbid(derives, message);
}

/// Each line of `text` with the lines rustfmt wrapped off it (those that
/// start with `.`) joined back on, and the number of its first line.
fn chains(text: &str) -> Vec<(usize, String)> {
    let mut chains: Vec<(usize, String)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match chains.last_mut() {
            Some((_, chain)) if line.trim_start().starts_with('.') => chain.push_str(line.trim()),
            _ => chains.push((i + 1, line.to_string())),
        }
    }
    chains
}

/// A field declaration's name, `pub ` aside.
fn field_name(line: &str) -> &str {
    let field = line.trim_start().trim_start_matches("pub ");
    field.split(':').next().unwrap_or("")
}

#[test]
fn a_counter_is_named_once() {
    let path = "crates/service/src/metrics.rs";
    let metrics = &nontest(files(path))[0].1;
    let table = ranges(metrics, "^table! {", "^}").concat();
    let quoted = table.split('"').skip(1).step_by(2);
    let names: Vec<&str> = quoted.filter(|s| !s.contains(' ')).collect();
    let message = "metrics.rs declares its counters in one `table!` row list";
    assert!(!names.is_empty(), "{message}");
    let times = |n: &&str| metrics.matches(&format!("\"{n}\"")).count();
    let twice = names.iter().filter(|n| times(n) > 1);
    let mut found: Vec<String> = twice
        .map(|n| format!("{path}: \"{n}\" quoted more than once"))
        .collect();
    let body = ranges(metrics, "^pub struct Metrics {", "^}");
    let named = |l: &&str| field_type(l).is_some() && names.contains(&field_name(l));
    let fields = body.into_iter().filter(named);
    found.extend(fields.map(|l| format!("{path}: Metrics: {}", l.trim())));
    let atomic = |rest: &str| {
        let rest = rest.trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '_');
        let rest = rest
            .strip_prefix('[')
            .and_then(|r| r.split_once(']'))
            .map_or(rest, |x| x.1);
        [".fetch_", ".load(", ".store("]
            .iter()
            .any(|op| rest.starts_with(op))
    };
    let mut service = files("crates/service/src");
    service.retain(|(file, _)| file != path);
    for (file, text) in service {
        for (at, chain) in chains(&text) {
            if chain.split("metrics.").skip(1).any(atomic) {
                found.push(format!("{file}:{at}: {}", chain.trim()));
            }
        }
    }
    let message = "a counter is one row of metrics.rs's table: its JSON key and exposition name are quoted once, no Metrics field bears its name, and the service moves it through Metrics::add/sub, not a named AtomicU64";
    forbid(found, message);
    cap("crates/service/src", SERVICE_LINES);
}
