//! Flight recorder + automated root-cause attribution for bad solves.
//!
//! The live bus (`hpf-obs::bus`) *samples*: most jobs stream nothing, so
//! when a sampled-out job dies there is no evidence left to autopsy. The
//! [`FlightRecorder`] closes that gap without keeping anything itself:
//! whoever produces a job's evidence owns it (DESIGN §13). After
//! admission that is the one worker running the job, which — once
//! [`FlightRecorder::install`] has set the service's evidence hook —
//! keeps three bounded tails of **every** job in hand, whatever the
//! sampling: the last N simulated-machine events (fault labels included)
//! in its machine's own ring, the job's lifecycle events in order, and
//! the residual series of the last solve attempt.
//!
//! The thread that answers the job lends them to [`FlightRecorder::record`]
//! as one borrowed [`JobEvidence`]. When the job terminated *badly*
//! (supervisor kill, recovery exhaustion, divergence, stagnation,
//! numerical breakdown, deadline expiry of an admitted job, a worker
//! panic) — or when an SLO alert transitions to Firing — the recorder
//! correlates the tails into a ranked [`RootCause`] list with confidence
//! scores and a narrative, and stores the result as a [`Postmortem`]
//! JSON document. Of a job that finished fine it notes the outcome and
//! copies nothing: there is no per-request state to discard, leak or
//! merge. A job is answered once, so its evidence arrives once; a bounded
//! dedupe set guards trace ids a caller assigned twice.

use crate::json::Obj;
use crate::slo::{AlertState, AlertTransition};
use hpf_machine::Event;
use hpf_service::{EvidenceHook, JobEvidence, ResidualTail, ServiceEvent};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Schema marker stamped into every post-mortem document; the CLI
/// refuses to `--format postmortem|explain` anything without it.
pub const POSTMORTEM_SCHEMA: &str = "hpf-postmortem/1";

/// What the attribution engine concluded. `name()` strings are the
/// public vocabulary (metrics labels, JSON, E30 match criterion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// An injected/observed `fault:bitflip` machine event.
    FaultBitflip,
    /// An injected/observed `fault:drop` machine event.
    FaultDrop,
    /// An injected/observed `fault:crash` machine event.
    FaultCrash,
    /// An injected/observed `fault:stall` machine event.
    FaultStall,
    /// An injected/observed `fault:straggler` machine event.
    FaultStraggler,
    /// Straggling processor inferred from per-event imbalance, with no
    /// fault label in evidence.
    Straggler,
    /// Residual series went non-finite or grew without bound.
    Divergence,
    /// Residual series flatlined short of the stop criterion.
    Stagnation,
    /// Admission admitted (or priced) a job whose deadline then expired
    /// in queue — the cost oracle's promise was wrong in hindsight.
    AdmissionMispricing,
    /// Systemic pressure: refusals/expiries dominate the bad outcomes.
    Overload,
    /// Krylov breakdown, singular operator, or a corrupted recurrence.
    NumericalBreakdown,
    /// Nothing retained explains the outcome.
    Unknown,
}

impl Verdict {
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::FaultBitflip => "fault-bitflip",
            Verdict::FaultDrop => "fault-drop",
            Verdict::FaultCrash => "fault-crash",
            Verdict::FaultStall => "fault-stall",
            Verdict::FaultStraggler => "fault-straggler",
            Verdict::Straggler => "straggler",
            Verdict::Divergence => "divergence",
            Verdict::Stagnation => "stagnation",
            Verdict::AdmissionMispricing => "admission-mispricing",
            Verdict::Overload => "overload",
            Verdict::NumericalBreakdown => "numerical-breakdown",
            Verdict::Unknown => "unknown",
        }
    }

    fn from_fault_kind(kind: &str) -> Verdict {
        match kind {
            "bitflip" => Verdict::FaultBitflip,
            "drop" => Verdict::FaultDrop,
            "crash" => Verdict::FaultCrash,
            "stall" => Verdict::FaultStall,
            "straggler" => Verdict::FaultStraggler,
            _ => Verdict::Unknown,
        }
    }
}

/// Which terminal condition opened the dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Supervisor declared the worker hung and killed it.
    WorkerKilled,
    /// Protected solver burned through its rollback budget.
    RecoveryExhausted,
    /// Solve failed with a non-finite residual.
    Divergence,
    /// Solve failed the stagnation check.
    Stagnation,
    /// An *admitted* (priced-as-feasible) job's deadline expired in
    /// queue — the shed the admission controller promised would not
    /// happen.
    DeadlineShed,
    /// Some other typed solve failure (breakdown, singular operator,
    /// worker panic).
    Failure,
    /// A burn-rate alert transitioned to Firing (class-level dump).
    SloFiring,
}

impl Trigger {
    pub fn name(&self) -> &'static str {
        match self {
            Trigger::WorkerKilled => "worker-killed",
            Trigger::RecoveryExhausted => "recovery-exhausted",
            Trigger::Divergence => "divergence",
            Trigger::Stagnation => "stagnation",
            Trigger::DeadlineShed => "deadline-shed",
            Trigger::Failure => "failure",
            Trigger::SloFiring => "slo-firing",
        }
    }

    /// Map a terminal `Completed` outcome tag to a dump trigger. `None`
    /// means the outcome is not a flight-recorder matter: success, or a
    /// refusal that is the service behaving correctly (`busy`,
    /// `circuit-open`, `shed`, `invalid-request`, `shutdown`).
    pub fn from_outcome(outcome: &str) -> Option<Trigger> {
        match outcome {
            "worker-killed" => Some(Trigger::WorkerKilled),
            "recovery-exhausted" => Some(Trigger::RecoveryExhausted),
            "non-finite" => Some(Trigger::Divergence),
            "stagnation" => Some(Trigger::Stagnation),
            "deadline" => Some(Trigger::DeadlineShed),
            "breakdown" | "singular" | "invalid-operator" | "worker-panic" => {
                Some(Trigger::Failure)
            }
            _ => None,
        }
    }
}

/// One ranked hypothesis about why the job ended badly.
#[derive(Debug, Clone)]
pub struct RootCause {
    pub verdict: Verdict,
    /// Heuristic confidence in `[0, 1]`; causes are ranked by it.
    pub confidence: f64,
    /// Human-readable evidence lines backing the verdict.
    pub evidence: Vec<String>,
}

/// A complete post-mortem document for one bad outcome.
#[derive(Debug, Clone)]
pub struct Postmortem {
    /// Document key: the 16-hex-digit trace id, or `slo-<class>-<n>`
    /// for class-level alert dumps.
    pub key: String,
    pub trace_id: u64,
    pub trigger: Trigger,
    pub class: String,
    /// Terminal outcome tag ([`hpf_service::ServiceError::outcome`]).
    pub outcome: String,
    pub latency_us: u64,
    /// Monotone dump sequence number within this recorder.
    pub seq: u64,
    /// Ranked causes, most confident first. Never empty.
    pub causes: Vec<RootCause>,
    pub narrative: String,
    /// The job's last machine events, oldest first.
    pub machine_tail: Vec<Event>,
    pub machine_overwritten: u64,
    /// The job's lifecycle events, oldest first.
    pub service_tail: Vec<ServiceEvent>,
    /// The last attempt's residual series.
    pub residual_tail: Option<ResidualTail>,
}

impl Postmortem {
    /// The highest-confidence verdict (the metrics label).
    pub fn top_verdict(&self) -> Verdict {
        self.causes
            .first()
            .map(|c| c.verdict)
            .unwrap_or(Verdict::Unknown)
    }

    /// Confidence of the top-ranked cause (0 when there is none).
    fn top_confidence(&self) -> f64 {
        self.causes.first().map_or(0.0, |c| c.confidence)
    }

    /// Render the full document as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let mut o = Obj::new(&mut out);
        let residual = self.residual_tail.as_ref();
        o.str("schema", POSTMORTEM_SCHEMA)
            .str("trace", &self.key)
            .str("trigger", self.trigger.name())
            .str("class", &self.class)
            .str("outcome", &self.outcome)
            .u64("latency_us", self.latency_us)
            .u64("seq", self.seq)
            .str("top_verdict", self.top_verdict().name())
            .f64("top_confidence", self.top_confidence())
            .u64("machine_events", self.machine_tail.len() as u64)
            .u64("machine_overwritten", self.machine_overwritten)
            .u64("service_events", self.service_tail.len() as u64)
            .u64(
                "residual_samples",
                residual.map_or(0, |t| t.series.tail().len()) as u64,
            );
        {
            let mut causes = o.arr("causes");
            for c in &self.causes {
                let mut cause = causes.obj();
                cause
                    .str("verdict", c.verdict.name())
                    .f64("confidence", c.confidence);
                let mut evidence = cause.arr("evidence");
                for line in &c.evidence {
                    evidence.str(line);
                }
            }
        }
        o.str("narrative", &self.narrative);
        {
            let mut tail = o.arr("machine_tail");
            for e in &self.machine_tail {
                let (imbalance, slowest_proc) = proc_summary(&e.proc_times);
                let mut rec = tail.obj();
                rec.str("kind", &format!("{:?}", e.kind))
                    .str("span", &e.span)
                    .str("label", &e.label)
                    .u64("participants", e.participants as u64)
                    .u64("words", e.words as u64)
                    .u64("flops", e.flops as u64)
                    .f64("start_s", e.start)
                    .f64("time_s", e.time)
                    .f64("imbalance", imbalance);
                if let Some(p) = slowest_proc {
                    rec.u64("slowest_proc", p as u64);
                }
            }
        }
        {
            let mut tail = o.arr("service_tail");
            for e in &self.service_tail {
                tail.obj().str("kind", e.kind()).str("detail", &detail(e));
            }
        }
        match residual {
            None => {
                o.null("residual_tail");
            }
            Some(t) => {
                let mut tail = o.obj("residual_tail");
                tail.str("solver", t.solver)
                    .u64("attempt", t.attempt as u64)
                    .u64("overwritten", t.series.overwritten());
                {
                    let mut rollbacks = tail.arr("rollbacks");
                    for (iteration, reason) in t.series.rollbacks() {
                        rollbacks
                            .obj()
                            .u64("iteration", *iteration as u64)
                            .str("reason", reason);
                    }
                }
                {
                    let mut restarts = tail.arr("restarts");
                    for &r in t.series.restarts() {
                        restarts.u64(r as u64);
                    }
                }
                let mut samples = tail.arr("samples");
                for s in &t.series.tail() {
                    samples
                        .obj()
                        .u64("iteration", s.iteration as u64)
                        .f64("residual", s.residual_norm)
                        .f64("sim_time_s", s.sim_time);
                }
            }
        }
        drop(o);
        out
    }
}

/// The cheap, parse-once view of a post-mortem document that
/// `trace-report` renders (`--format postmortem|explain`).
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemSummary {
    pub trace: String,
    pub trigger: String,
    pub class: String,
    pub outcome: String,
    pub top_verdict: String,
    pub top_confidence: f64,
    pub narrative: String,
    pub machine_events: u64,
    pub machine_overwritten: u64,
    pub service_events: u64,
    pub residual_samples: u64,
    /// Every `(verdict, confidence)` pair in rank order.
    pub causes: Vec<(String, f64)>,
}

/// Parse the summary fields back out of a [`Postmortem::to_json`]
/// document. Refuses (typed error) anything without the
/// [`POSTMORTEM_SCHEMA`] marker — this is the CLI's guard against being
/// pointed at an event log or metrics snapshot.
pub fn summary_from_json(text: &str) -> Result<PostmortemSummary, String> {
    let doc = crate::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if doc.get("schema").and_then(|v| v.as_str()) != Some(POSTMORTEM_SCHEMA) {
        return Err(format!(
            "not a post-mortem document (missing \"schema\":\"{POSTMORTEM_SCHEMA}\" marker)"
        ));
    }
    let text_of = |key: &str| doc.str_of(key).map(str::to_string);
    let causes = doc.items_of("causes")?.iter();
    Ok(PostmortemSummary {
        trace: text_of("trace")?,
        trigger: text_of("trigger")?,
        class: text_of("class")?,
        outcome: text_of("outcome")?,
        top_verdict: text_of("top_verdict")?,
        top_confidence: doc.f64_of("top_confidence")?,
        narrative: text_of("narrative")?,
        machine_events: doc.u64_of("machine_events")?,
        machine_overwritten: doc.u64_of("machine_overwritten")?,
        service_events: doc.u64_of("service_events")?,
        residual_samples: doc.u64_of("residual_samples")?,
        causes: causes
            .map(|c| Ok((c.str_of("verdict")?.to_string(), c.f64_of("confidence")?)))
            .collect::<Result<_, String>>()?,
    })
}

/// What [`FlightRecorder::new`] takes. It has nothing to set: the ring
/// and the store are `RING_CAPACITY` and `MAX_POSTMORTEMS`, beside it.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorderConfig {}

/// Machine events each worker keeps of the job in hand: the tail of a
/// solve iteration plus the fault and recovery events around it.
const RING_CAPACITY: usize = 64;

/// Post-mortem documents kept before the oldest is dropped.
const MAX_POSTMORTEMS: usize = 64;

/// Terminal outcomes remembered per class for class-level (SLO-firing)
/// attribution.
const RECENT_OUTCOMES: usize = 512;

/// Trace ids remembered by the exactly-one-dump dedupe guard.
const DEDUPE_CAPACITY: usize = 8192;

#[derive(Default)]
struct Inner {
    dumped: HashSet<u64>,
    dumped_order: VecDeque<u64>,
    postmortems: VecDeque<Arc<Postmortem>>,
    recent_outcomes: VecDeque<(&'static str, &'static str)>,
    seq: u64,
    slo_dumps: u64,
}

type DumpCallback = Arc<dyn Fn(&Postmortem) + Send + Sync>;

/// The post-mortem writer and store. Construct once, wire into a
/// [`hpf_service::ServiceConfig`] via [`Self::install`], and read dumps
/// back through [`Self::postmortems`] / [`Self::index_json`].
pub struct FlightRecorder {
    inner: Mutex<Inner>,
    on_dump: Mutex<Option<DumpCallback>>,
    /// Machine events the jobs handed over had recorded (overhead audits).
    machine_events: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder").finish_non_exhaustive()
    }
}

impl FlightRecorder {
    pub fn new(_: FlightRecorderConfig) -> Arc<Self> {
        Arc::new(FlightRecorder {
            inner: Mutex::new(Inner::default()),
            on_dump: Mutex::new(None),
            machine_events: AtomicU64::new(0),
        })
    }

    /// The recorder's state. A panic under this lock (an attribution bug)
    /// fails the one job being recorded; the deques it guards are valid
    /// at every step, so the jobs after it take the lock as it is.
    fn state(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Callback fired (outside the recorder lock) with every finished
    /// dump — the hook that bumps
    /// `hpf_service_postmortems_total{verdict=...}` and publishes the
    /// document to `/postmortems/<trace>`.
    pub fn set_on_dump(&self, f: impl Fn(&Postmortem) + Send + Sync + 'static) {
        *self.on_dump.lock().unwrap() = Some(Arc::new(f));
    }

    /// Make this recorder `cfg`'s evidence hook: the one thing it needs
    /// of a service. Every answered job's evidence then comes to
    /// [`Self::record`]; sinks already in `cfg` (the live bus) are left
    /// as they are.
    pub fn install(self: &Arc<Self>, cfg: &mut hpf_service::ServiceConfig) {
        let recorder = Arc::clone(self);
        cfg.evidence_hook = Some(EvidenceHook::new(RING_CAPACITY, move |e| {
            recorder.record(e)
        }));
    }

    /// Take note of one answered job, and write its post-mortem if its
    /// outcome asks for one. Nothing of the evidence is kept otherwise.
    pub fn record(&self, evidence: &JobEvidence<'_>) {
        let Some(&ServiceEvent::Completed {
            trace_id,
            class,
            latency_us,
            outcome,
            ..
        }) = evidence.lifecycle.last()
        else {
            return; // not the evidence of an answered job
        };
        let seen = evidence.machine.len() as u64 + evidence.machine.overwritten();
        self.machine_events.fetch_add(seen, Ordering::Relaxed);
        let mut inner = self.state();
        inner.recent_outcomes.push_back((class.name(), outcome));
        if inner.recent_outcomes.len() > RECENT_OUTCOMES {
            inner.recent_outcomes.pop_front();
        }
        let Some(trigger) = Trigger::from_outcome(outcome) else {
            return; // a clean completion or a correct refusal
        };
        if !inner.dumped.insert(trace_id) {
            return; // the second job a caller gave this id to
        }
        inner.dumped_order.push_back(trace_id);
        if inner.dumped_order.len() > DEDUPE_CAPACITY {
            let oldest = inner.dumped_order.pop_front().expect("not empty");
            inner.dumped.remove(&oldest);
        }
        let machine_tail: Vec<Event> = evidence.machine.iter().map(|e| e.to_event()).collect();
        let predicted = evidence.lifecycle.iter().find_map(|e| match *e {
            ServiceEvent::Admitted { predicted_us, .. } => Some(predicted_us),
            _ => None,
        });
        let causes = attribute(
            trigger,
            outcome,
            latency_us,
            predicted,
            &machine_tail,
            evidence.lifecycle,
            evidence.residual,
        );
        let pm = Postmortem {
            key: format!("{trace_id:016x}"),
            trace_id,
            trigger,
            class: class.name().to_string(),
            outcome: outcome.to_string(),
            latency_us,
            seq: 0,
            causes,
            narrative: String::new(),
            machine_tail,
            machine_overwritten: evidence.machine.overwritten(),
            service_tail: evidence.lifecycle.to_vec(),
            residual_tail: evidence.residual.cloned(),
        };
        self.dump(inner, pm);
    }

    /// Number, narrate, store and announce one post-mortem.
    fn dump(&self, mut inner: MutexGuard<'_, Inner>, mut pm: Postmortem) {
        inner.seq += 1;
        pm.seq = inner.seq;
        pm.narrative = narrative(&pm);
        let pm = Arc::new(pm);
        inner.postmortems.push_back(Arc::clone(&pm));
        if inner.postmortems.len() > MAX_POSTMORTEMS {
            inner.postmortems.pop_front();
        }
        drop(inner);
        let on_dump = self.on_dump.lock().unwrap().clone();
        if let Some(on_dump) = on_dump {
            on_dump(&pm);
        }
    }

    /// Trace ids the recorder holds anything under: those of its per-job
    /// dumps (the dedupe guard's). A job that did not dump leaves none.
    pub fn retained_traces(&self) -> usize {
        self.state().dumped.len()
    }

    /// Machine events the jobs handed over so far had recorded.
    pub fn machine_events(&self) -> u64 {
        self.machine_events.load(Ordering::Relaxed)
    }

    /// Feed one SLO alert transition; a transition *to* Firing produces
    /// a class-level post-mortem keyed `slo-<class>-<n>`. Its verdict
    /// follows the class's most frequent recent bad outcome; outcomes
    /// counted equally often go to the one seen first in the window, so
    /// the same history always writes the same document.
    pub fn on_transition(&self, t: &AlertTransition) {
        if t.to != AlertState::Firing {
            return;
        }
        let mut inner = self.state();
        inner.slo_dumps += 1;
        let nth = inner.slo_dumps;
        let class = t.class.name();
        let (mut counts, mut bad) = (Vec::<(&str, usize)>::new(), 0);
        for &(_, o) in inner
            .recent_outcomes
            .iter()
            .filter(|(c, o)| *c == class && *o != "ok")
        {
            bad += 1;
            match counts.iter_mut().find(|(seen, _)| *seen == o) {
                Some((_, n)) => *n += 1,
                None => counts.push((o, 1)),
            }
        }
        let dominant = counts
            .into_iter()
            .reduce(|best, next| if next.1 > best.1 { next } else { best });
        let verdict = match dominant.map(|(o, _)| o) {
            Some("recovery-exhausted" | "non-finite" | "breakdown" | "singular" | "stagnation") => {
                Verdict::NumericalBreakdown
            }
            Some(_) => Verdict::Overload,
            None => Verdict::Unknown,
        };
        let burn = format!(
            "burn rates at transition: slow {:.2}x, fast {:.2}x over threshold",
            t.slow_burn, t.fast_burn
        );
        let outcomes = match dominant {
            Some((o, n)) => format!(
                "dominant bad outcome for class {class}: \"{o}\" ({n} of {bad} recent bad \
                 terminals)"
            ),
            None => format!("no recent bad terminal outcomes retained for {class}"),
        };
        let causes = vec![RootCause {
            verdict,
            confidence: if dominant.is_some() { 0.7 } else { 0.3 },
            evidence: vec![burn, outcomes],
        }];
        let pm = Postmortem {
            key: format!("slo-{class}-{nth}"),
            trace_id: 0,
            trigger: Trigger::SloFiring,
            class: class.to_string(),
            outcome: "slo-firing".to_string(),
            latency_us: 0,
            seq: 0,
            causes,
            narrative: String::new(),
            machine_tail: Vec::new(),
            machine_overwritten: 0,
            service_tail: Vec::new(),
            residual_tail: None,
        };
        self.dump(inner, pm);
    }

    /// Dumps written since creation (per-job and SLO together).
    pub fn dumps(&self) -> u64 {
        self.state().seq
    }

    /// Retained post-mortems, oldest first.
    pub fn postmortems(&self) -> Vec<Arc<Postmortem>> {
        self.state().postmortems.iter().cloned().collect()
    }

    /// Look a document up by its key (`<16-hex trace>` or `slo-...`).
    pub fn get(&self, key: &str) -> Option<Arc<Postmortem>> {
        let inner = self.state();
        inner.postmortems.iter().find(|p| p.key == key).cloned()
    }

    /// The `/postmortems` index document.
    pub fn index_json(&self) -> String {
        let inner = self.state();
        let mut out = String::new();
        {
            let mut doc = Obj::new(&mut out);
            let mut index = doc.arr("postmortems");
            for p in &inner.postmortems {
                index
                    .obj()
                    .str("trace", &p.key)
                    .str("trigger", p.trigger.name())
                    .str("class", &p.class)
                    .str("outcome", &p.outcome)
                    .str("verdict", p.top_verdict().name())
                    .f64("confidence", p.top_confidence());
            }
        }
        out
    }
}

/// The `detail` string of a lifecycle event in a post-mortem document.
fn detail(e: &ServiceEvent) -> String {
    match *e {
        ServiceEvent::Admitted { predicted_us, .. } => format!("predicted_us={predicted_us}"),
        ServiceEvent::Shed {
            predicted_us,
            budget_us,
            ..
        } => format!("predicted_us={predicted_us} budget_us={budget_us}"),
        ServiceEvent::DeadlineExpired { .. } => String::new(),
        ServiceEvent::WorkerKilled { after_us, .. } => format!("after_us={after_us}"),
        ServiceEvent::WorkerRestarted { worker } => format!("worker={worker}"),
        ServiceEvent::Rollback { .. } => String::new(),
        ServiceEvent::Retry { attempt, .. } => format!("attempt={attempt}"),
        ServiceEvent::Completed {
            latency_us,
            outcome,
            ..
        } => format!("latency_us={latency_us} outcome={outcome}"),
    }
}

/// An event's per-processor times summarised: [`hpf_machine::imbalance`]
/// (1.0 for none, or only zeros) and the slowest processor.
fn proc_summary(t: &[f64]) -> (f64, Option<usize>) {
    let imbalance = hpf_machine::imbalance(t.iter().copied()).unwrap_or(1.0);
    (
        imbalance,
        (0..t.len()).reduce(|a, b| if t[b] > t[a] { b } else { a }),
    )
}

/// Relative residual drop below which the tail counts as flat.
const STAGNATION_IMPROVEMENT: f64 = 0.05;
/// Per-event imbalance above which a straggler is inferred.
const STRAGGLER_IMBALANCE: f64 = 2.0;
/// Consecutive-sample residual jump treated as a corruption signature.
const JUMP_FACTOR: f64 = 1e3;

/// Correlate the retained tails into ranked causes. Pure function —
/// unit-testable without a recorder.
fn attribute(
    trigger: Trigger,
    outcome: &str,
    latency_us: u64,
    predicted_us: Option<u64>,
    machine: &[Event],
    service: &[ServiceEvent],
    solver: Option<&ResidualTail>,
) -> Vec<RootCause> {
    let mut causes: Vec<RootCause> = Vec::new();
    let rollbacks = solver.map_or(0, |t| t.series.rollbacks().len())
        + service.iter().filter(|e| e.kind() == "rollback").count();
    let retries = service.iter().filter(|e| e.kind() == "retry").count();

    // 1. Direct evidence: fault-labelled machine events.
    let mut fault_kinds: Vec<(&str, usize, &Event)> = Vec::new();
    for rec in machine {
        let Some(rest) = rec.label.strip_prefix("fault:") else {
            continue;
        };
        let kind = rest.split(':').next().unwrap_or("");
        match fault_kinds.iter_mut().find(|(k, ..)| *k == kind) {
            Some((_, n, _)) => *n += 1,
            None => fault_kinds.push((kind, 1, rec)),
        }
    }
    for (kind, count, first) in &fault_kinds {
        let corroboration = (rollbacks + retries).min(3) as f64;
        let mut evidence = vec![format!(
            "{count} fault-labelled machine event(s) of kind \"{kind}\"; first: \"{}\" in span \
             \"{}\"",
            first.label, first.span
        )];
        if rollbacks + retries > 0 {
            evidence.push(format!(
                "corroborated by {rollbacks} rollback(s) and {retries} retry attempt(s)"
            ));
        }
        causes.push(RootCause {
            verdict: Verdict::from_fault_kind(kind),
            confidence: (0.9 + 0.03 * corroboration).min(0.98),
            evidence,
        });
    }

    // 2. Inferred straggler: heavy per-event imbalance without a label.
    if !fault_kinds.iter().any(|(k, ..)| *k == "straggler") {
        if let Some((worst, imbalance, slowest)) = machine
            .iter()
            .filter_map(|e| match proc_summary(&e.proc_times) {
                (imbalance, Some(p)) if imbalance > STRAGGLER_IMBALANCE => Some((e, imbalance, p)),
                _ => None,
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
        {
            causes.push(RootCause {
                verdict: Verdict::Straggler,
                confidence: (0.5 + 0.1 * imbalance).min(0.85),
                evidence: vec![format!(
                    "event \"{}\" in span \"{}\" ran {imbalance:.1}x slower on proc {slowest} than \
                     the mean",
                    worst.label, worst.span,
                )],
            });
        }
    }

    // 3. Residual-series anomalies from the last attempt's tail.
    if let Some(tail) = solver {
        let samples = tail.series.tail();
        let last = samples.last();
        let non_finite = last.is_some_and(|s| !s.residual_norm.is_finite());
        let jump = samples.windows(2).find(|w| {
            w[0].residual_norm.is_finite()
                && w[0].residual_norm > 0.0
                && (!w[1].residual_norm.is_finite()
                    || w[1].residual_norm / w[0].residual_norm > JUMP_FACTOR)
        });
        if let Some(w) = jump {
            let line = format!(
                "residual jumped {} -> {} at iteration {} (attempt {}, {})",
                fmt_res(w[0].residual_norm),
                fmt_res(w[1].residual_norm),
                w[1].iteration,
                tail.attempt,
                tail.solver
            );
            match causes
                .iter_mut()
                .max_by(|a, b| a.confidence.total_cmp(&b.confidence))
            {
                // A transient fault already in evidence: the jump
                // corroborates it rather than competing with it.
                Some(top) if top.confidence >= 0.5 => {
                    top.evidence.push(line);
                    top.confidence = (top.confidence + 0.02).min(0.99);
                }
                _ => causes.push(RootCause {
                    verdict: Verdict::NumericalBreakdown,
                    confidence: 0.6,
                    evidence: vec![line],
                }),
            }
        }
        if non_finite {
            causes.push(RootCause {
                verdict: Verdict::Divergence,
                confidence: 0.85,
                evidence: vec![format!(
                    "residual non-finite at iteration {} (attempt {}, {})",
                    last.map(|s| s.iteration).unwrap_or(0),
                    tail.attempt,
                    tail.solver
                )],
            });
        } else if samples.len() >= 8
            && matches!(trigger, Trigger::Stagnation | Trigger::RecoveryExhausted)
        {
            let window = &samples[samples.len() - 8..];
            let first = window[0].residual_norm;
            let lastr = window[7].residual_norm;
            if first.is_finite() && first > 0.0 && (first - lastr) / first < STAGNATION_IMPROVEMENT
            {
                causes.push(RootCause {
                    verdict: Verdict::Stagnation,
                    confidence: 0.8,
                    evidence: vec![format!(
                        "residual flat over last 8 iterations ({} -> {}), stop criterion unmet",
                        fmt_res(first),
                        fmt_res(lastr)
                    )],
                });
            }
        }
        for (iter, reason) in tail.series.rollbacks() {
            if let Some(top) = causes.first_mut() {
                top.evidence.push(format!(
                    "protected solver rolled back at iteration {iter} ({reason})"
                ));
            }
        }
    }

    // 4. Trigger-specific service-plane verdicts.
    match trigger {
        Trigger::DeadlineShed => {
            let mut evidence = vec![format!(
                "admitted job's deadline expired in queue after {latency_us} us"
            )];
            if let Some(p) = predicted_us {
                evidence.push(format!(
                    "admission predicted {p} us at the door; actual wait was {latency_us} us \
                     ({}x)",
                    if p > 0 { latency_us / p.max(1) } else { 0 }
                ));
            }
            causes.push(RootCause {
                verdict: Verdict::AdmissionMispricing,
                confidence: 0.8,
                evidence,
            });
            causes.push(RootCause {
                verdict: Verdict::Overload,
                confidence: 0.6,
                evidence: vec![
                    "queue wait, not solve time, consumed the deadline budget".to_string()
                ],
            });
        }
        Trigger::Failure => {
            causes.push(RootCause {
                verdict: Verdict::NumericalBreakdown,
                confidence: 0.75,
                evidence: vec![format!("solver reported terminal outcome \"{outcome}\"")],
            });
        }
        Trigger::WorkerKilled if causes.is_empty() => {
            causes.push(RootCause {
                verdict: Verdict::Unknown,
                confidence: 0.4,
                evidence: vec![format!(
                    "worker killed after {latency_us} us with no fault event retained"
                )],
            });
        }
        _ => {}
    }

    if causes.is_empty() {
        causes.push(RootCause {
            verdict: Verdict::Unknown,
            confidence: 0.25,
            evidence: vec!["no machine, service, or residual evidence retained".to_string()],
        });
    }
    causes.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
    causes.dedup_by(|b, a| {
        if a.verdict == b.verdict {
            let ev = std::mem::take(&mut b.evidence);
            a.evidence.extend(ev);
            true
        } else {
            false
        }
    });
    causes
}

fn fmt_res(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3e}")
    } else {
        format!("{v}")
    }
}

/// Build the human-readable narrative from a finished attribution.
fn narrative(pm: &Postmortem) -> String {
    let mut out = String::new();
    if pm.trigger == Trigger::SloFiring {
        out.push_str(&format!(
            "SLO alert for class {} transitioned to Firing (dump {}).",
            pm.class, pm.key
        ));
    } else {
        out.push_str(&format!(
            "Job {} ({}) terminated with outcome \"{}\" after {} us (trigger: {}).",
            pm.key,
            pm.class,
            pm.outcome,
            pm.latency_us,
            pm.trigger.name()
        ));
        out.push_str(&format!(
            " Black box retained {} machine event(s) ({} overwritten), {} service event(s), {} \
             residual sample(s).",
            pm.machine_tail.len(),
            pm.machine_overwritten,
            pm.service_tail.len(),
            pm.residual_tail
                .as_ref()
                .map_or(0, |t| t.series.tail().len())
        ));
    }
    if let Some(top) = pm.causes.first() {
        out.push_str(&format!(
            " Top cause: {} (confidence {:.2})",
            top.verdict.name(),
            top.confidence
        ));
        if let Some(first) = top.evidence.first() {
            out.push_str(&format!(" — {first}"));
        }
        out.push('.');
    }
    if pm.causes.len() > 1 {
        let also: Vec<String> = pm.causes[1..]
            .iter()
            .map(|c| format!("{} ({:.2})", c.verdict.name(), c.confidence))
            .collect();
        out.push_str(&format!(" Also considered: {}.", also.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{Event, EventKind, EventTail};
    use hpf_service::{QosClass, ResidualTail};
    use hpf_solvers::{IterObserver, IterSample, TailObserver};

    fn machine_event(trace_id: u64, label: &str, proc_times: Vec<f64>) -> Event {
        Event {
            kind: EventKind::AllReduce,
            participants: 4,
            words: 8,
            flops: 16,
            time: 1e-4,
            start: 0.5,
            span: format!("trace={trace_id:016x}/solve/iter=3/dot"),
            label: label.to_string(),
            proc_times,
            payload_words: 8,
            hops: 0,
        }
    }

    fn sample(iteration: usize, residual: f64) -> IterSample {
        IterSample {
            iteration,
            residual_norm: residual,
            alpha: 1.0,
            beta: 0.5,
            flops: 100,
            comm_words: 10,
            sim_time: iteration as f64 * 1e-3,
            predicted_time: 0.0,
            rollbacks: 0,
        }
    }

    fn completed(trace_id: u64, ok: bool, outcome: &'static str) -> ServiceEvent {
        ServiceEvent::Completed {
            trace_id,
            class: QosClass::Interactive,
            latency_us: 1234,
            ok,
            outcome,
        }
    }

    fn firing() -> AlertTransition {
        AlertTransition {
            class: QosClass::Interactive,
            at_s: 3.0,
            from: AlertState::Pending,
            to: AlertState::Firing,
            slow_burn: 4.0,
            fast_burn: 9.0,
        }
    }

    /// The first attempt's residual series, as a CG worker keeps it.
    fn residual(samples: impl IntoIterator<Item = IterSample>) -> ResidualTail {
        let mut series = TailObserver::new(48);
        for s in samples {
            series.on_iteration(&s);
        }
        ResidualTail {
            attempt: 1,
            solver: "cg",
            series,
        }
    }

    /// Hand `fr` the evidence of one answered job, as the thread
    /// answering it would.
    fn hand_over(
        fr: &FlightRecorder,
        machine: Vec<Event>,
        lifecycle: &[ServiceEvent],
        residual: Option<ResidualTail>,
    ) {
        fr.record(&JobEvidence {
            lifecycle,
            machine: &EventTail::from(machine),
            residual: residual.as_ref(),
        });
    }

    #[test]
    fn injected_stall_dominates_attribution_and_doc_is_valid_json() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        let class = QosClass::Interactive;
        hand_over(
            &fr,
            vec![
                machine_event(0xab, "dot-merge", Vec::new()),
                machine_event(0xab, "fault:stall:p2:op17:ms400", Vec::new()),
            ],
            &[
                ServiceEvent::Admitted {
                    trace_id: 0xab,
                    class,
                    predicted_us: 120,
                },
                ServiceEvent::WorkerKilled {
                    trace_id: 0xab,
                    class,
                    after_us: 900,
                },
                completed(0xab, false, "worker-killed"),
            ],
            None,
        );
        let pms = fr.postmortems();
        assert_eq!(pms.len(), 1);
        let pm = &pms[0];
        assert_eq!(pm.key, format!("{:016x}", 0xab));
        assert_eq!(pm.trigger, Trigger::WorkerKilled);
        assert_eq!(pm.top_verdict(), Verdict::FaultStall);
        assert!(pm.causes[0].confidence >= 0.9);
        assert_eq!(pm.machine_tail.len(), 2);
        let kinds: Vec<&str> = pm.service_tail.iter().map(ServiceEvent::kind).collect();
        assert_eq!(kinds, ["admitted", "worker-killed", "completed"]);
        assert!(pm.narrative.contains("fault-stall"));
        let doc = pm.to_json();
        crate::json::validate(&doc).expect("postmortem json");
        let summary = summary_from_json(&doc).expect("summary");
        assert_eq!(summary.top_verdict, "fault-stall");
        assert_eq!(summary.trigger, "worker-killed");
        assert_eq!(summary.machine_events, 2);
        assert_eq!(summary.causes[0].0, "fault-stall");
        assert_eq!(summary.narrative, pm.narrative);
    }

    #[test]
    fn clean_completion_discards_every_tail_and_writes_nothing() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        hand_over(
            &fr,
            vec![machine_event(7, "dot-merge", Vec::new())],
            &[completed(7, true, "ok")],
            None,
        );
        assert_eq!(fr.postmortems().len(), 0);
        assert_eq!(fr.dumps(), 0);
        assert_eq!(fr.retained_traces(), 0, "nothing kept of a clean job");
        assert_eq!(fr.machine_events(), 1, "its events were counted");
        assert_eq!(fr.index_json(), "{\"postmortems\":[]}");
        // Evidence that does not end in a `Completed` is nobody's answer.
        hand_over(&fr, Vec::new(), &[], None);
        assert_eq!((fr.dumps(), fr.retained_traces()), (0, 0));
    }

    #[test]
    fn exactly_one_dump_per_trace_even_on_replayed_terminal_events() {
        use std::sync::atomic::AtomicUsize;
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        let fired = Arc::new(AtomicUsize::new(0));
        let count = fired.clone();
        fr.set_on_dump(move |pm| {
            assert!(!pm.narrative.is_empty());
            count.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..2 {
            hand_over(
                &fr,
                Vec::new(),
                &[completed(9, false, "recovery-exhausted")],
                None,
            );
        }
        assert_eq!(fr.dumps(), 1);
        assert_eq!(fr.postmortems().len(), 1);
        assert_eq!(fr.retained_traces(), 1);
        assert_eq!(fired.load(Ordering::Relaxed), 1, "on_dump fired once");
    }

    #[test]
    fn divergence_is_read_from_the_residual_tail() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        let series = [sample(1, 1e-2), sample(2, 1e-3), sample(3, f64::NAN)];
        let outcome = completed(5, false, "non-finite");
        hand_over(&fr, Vec::new(), &[outcome], Some(residual(series)));
        let pms = fr.postmortems();
        assert_eq!(pms[0].top_verdict(), Verdict::Divergence);
        assert!(pms[0].narrative.contains("divergence"));
        assert_eq!(
            pms[0].residual_tail.as_ref().unwrap().series.tail().len(),
            3
        );
        crate::json::validate(&pms[0].to_json()).expect("json with NaN residual");
    }

    #[test]
    fn stagnation_needs_a_flat_tail() {
        let tail = residual((0..10).map(|i| sample(i, 1e-3)));
        let causes = attribute(
            Trigger::Stagnation,
            "stagnation",
            10,
            None,
            &[],
            &[],
            Some(&tail),
        );
        assert_eq!(causes[0].verdict, Verdict::Stagnation);
    }

    #[test]
    fn proc_times_are_summarised_into_imbalance_and_slowest() {
        let (imbalance, slowest) = proc_summary(&[1.0, 1.0, 4.0, 2.0]);
        assert!((imbalance - 2.0).abs() < 1e-12);
        assert_eq!(slowest, Some(2));
        assert_eq!(proc_summary(&[]), (1.0, None));
    }

    #[test]
    fn slo_verdict_on_a_tie_does_not_depend_on_the_recorder() {
        let docs: HashSet<String> = (0..64)
            .map(|_| {
                let fr = FlightRecorder::new(FlightRecorderConfig::default());
                for (id, outcome) in [(1, "recovery-exhausted"), (2, "deadline")] {
                    hand_over(&fr, Vec::new(), &[completed(id, false, outcome)], None);
                }
                fr.on_transition(&firing());
                fr.get("slo-interactive-1").expect("slo dump").to_json()
            })
            .collect();
        assert_eq!(docs.len(), 1, "{docs:?}");
        let top = summary_from_json(docs.iter().next().unwrap())
            .unwrap()
            .top_verdict;
        assert_eq!(top, "numerical-breakdown", "the outcome seen first");
    }

    #[test]
    fn deadline_expiry_of_an_admitted_job_is_mispricing_over_overload() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        let class = QosClass::Interactive;
        hand_over(
            &fr,
            Vec::new(),
            &[
                ServiceEvent::Admitted {
                    trace_id: 11,
                    class,
                    predicted_us: 50,
                },
                ServiceEvent::DeadlineExpired {
                    trace_id: 11,
                    class,
                },
                completed(11, false, "deadline"),
            ],
            None,
        );
        let pm = &fr.postmortems()[0];
        assert_eq!(pm.trigger, Trigger::DeadlineShed);
        assert_eq!(pm.top_verdict(), Verdict::AdmissionMispricing);
        assert!(pm.causes.iter().any(|c| c.verdict == Verdict::Overload));
        assert!(pm.causes[0]
            .evidence
            .iter()
            .any(|e| e.contains("predicted 50 us")));
    }

    #[test]
    fn refusals_and_successes_do_not_dump() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        for outcome in [
            "ok",
            "busy",
            "circuit-open",
            "shed",
            "invalid-request",
            "shutdown",
        ] {
            let event = completed(outcome.as_ptr() as u64, true, outcome);
            hand_over(&fr, Vec::new(), &[event], None);
        }
        assert_eq!(fr.dumps(), 0);
        assert_eq!(fr.retained_traces(), 0);
    }

    #[test]
    fn every_bad_outcome_dumps_under_its_trigger() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        let bad = [
            ("worker-killed", Trigger::WorkerKilled),
            ("recovery-exhausted", Trigger::RecoveryExhausted),
            ("non-finite", Trigger::Divergence),
            ("stagnation", Trigger::Stagnation),
            ("deadline", Trigger::DeadlineShed),
            ("breakdown", Trigger::Failure),
            ("singular", Trigger::Failure),
            ("invalid-operator", Trigger::Failure),
            // Answered without a `Completed` until every job ended in
            // one place: a set-up panic could not dump.
            ("worker-panic", Trigger::Failure),
        ];
        for (id, (outcome, _)) in (1..).zip(bad) {
            hand_over(&fr, Vec::new(), &[completed(id, false, outcome)], None);
        }
        let triggers: Vec<Trigger> = fr.postmortems().iter().map(|pm| pm.trigger).collect();
        assert_eq!(triggers, bad.map(|(_, trigger)| trigger));
        assert_eq!(fr.dumps(), bad.len() as u64);
    }

    #[test]
    fn slo_firing_produces_a_class_level_dump() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        hand_over(
            &fr,
            Vec::new(),
            &[completed(21, false, "worker-killed")],
            None,
        );
        fr.on_transition(&firing());
        // Pending and Resolved transitions are not dump triggers.
        fr.on_transition(&AlertTransition {
            class: QosClass::Interactive,
            at_s: 9.0,
            from: AlertState::Firing,
            to: AlertState::Resolved,
            slow_burn: 0.1,
            fast_burn: 0.1,
        });
        let pms = fr.postmortems();
        assert_eq!(pms.len(), 2, "one job dump + one slo dump");
        let slo = fr
            .get("slo-interactive-1")
            .expect("slo dump keyed by class");
        assert_eq!(slo.trigger, Trigger::SloFiring);
        crate::json::validate(&slo.to_json()).expect("slo dump json");
        let index = fr.index_json();
        crate::json::validate(&index).expect("index json");
        assert!(index.contains("slo-interactive-1"));
    }

    #[test]
    fn summary_refuses_documents_without_the_schema_marker() {
        let err = summary_from_json("{\"alerts\":[]}").unwrap_err();
        assert!(
            err.contains("hpf-postmortem/1"),
            "error names the marker: {err}"
        );
        assert!(summary_from_json("not json at all").is_err());
    }

    #[test]
    fn inferred_straggler_from_imbalance_without_fault_labels() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        hand_over(
            &fr,
            vec![machine_event(41, "dot-merge", vec![1.0, 1.0, 6.0, 1.0])],
            &[completed(41, false, "worker-killed")],
            None,
        );
        let pm = &fr.postmortems()[0];
        assert_eq!(pm.top_verdict(), Verdict::Straggler);
        assert!(pm.causes[0].evidence[0].contains("proc 2"));
    }
}
