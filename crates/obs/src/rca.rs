//! Flight recorder + automated root-cause attribution for bad solves.
//!
//! The live bus (`hpf-obs::bus`) *samples*: most jobs stream nothing, so
//! when a sampled-out job dies there is no evidence left to autopsy. The
//! [`FlightRecorder`] closes that gap by retaining three cheap, bounded
//! tails for **every** in-flight job regardless of sampling:
//!
//! - the machine-side black box ([`hpf_machine::BlackBox`]) — the last N
//!   simulated-machine events per trace, fault labels included;
//! - a service-event tail — admission verdict, rollbacks, retries,
//!   kills, in arrival order;
//! - the residual-series tail of the last solve attempt, flushed by the
//!   worker through [`hpf_service::SolverTapSink`].
//!
//! When a job terminates *badly* (supervisor kill, recovery exhaustion,
//! divergence, stagnation, numerical breakdown, deadline expiry of an
//! admitted job) — or when an SLO alert transitions to Firing — the
//! recorder correlates the three tails into a ranked [`RootCause`] list
//! with confidence scores and a human-readable narrative, and stores the
//! result as a [`Postmortem`] JSON document. Jobs that finish fine have
//! their tails discarded; nothing is written.
//!
//! Exactly-one-dump is a contract: the terminal `Completed` event is the
//! only per-job dump trigger, and a bounded dedupe set guards replays.

use crate::json::Obj;
use crate::slo::{AlertState, AlertTransition};
use hpf_machine::{BlackBox, BlackBoxRecord, BlackBoxTail, EventSink};
use hpf_service::{ServiceEvent, ServiceEventSink, SolverTail, SolverTapSink};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

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

/// One retained service lifecycle event (flattened for the dump).
#[derive(Debug, Clone)]
pub struct ServiceRec {
    pub kind: &'static str,
    pub detail: String,
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
    pub machine_tail: Vec<BlackBoxRecord>,
    pub machine_overwritten: u64,
    pub service_tail: Vec<ServiceRec>,
    pub residual_tail: Option<SolverTail>,
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
                residual.map_or(0, |t| t.samples.len()) as u64,
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
            for r in &self.machine_tail {
                let mut rec = tail.obj();
                rec.str("kind", &format!("{:?}", r.kind))
                    .str("span", &r.span)
                    .str("label", &r.label)
                    .u64("participants", r.participants as u64)
                    .u64("words", r.words as u64)
                    .u64("flops", r.flops as u64)
                    .f64("start_s", r.start)
                    .f64("time_s", r.time)
                    .f64("imbalance", r.imbalance);
                if let Some(p) = r.slowest_proc {
                    rec.u64("slowest_proc", p as u64);
                }
            }
        }
        {
            let mut tail = o.arr("service_tail");
            for r in &self.service_tail {
                tail.obj().str("kind", r.kind).str("detail", &r.detail);
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
                    .u64("overwritten", t.overwritten);
                {
                    let mut rollbacks = tail.arr("rollbacks");
                    for (iteration, reason) in &t.rollbacks {
                        rollbacks
                            .obj()
                            .u64("iteration", *iteration as u64)
                            .str("reason", reason);
                    }
                }
                {
                    let mut restarts = tail.arr("restarts");
                    for &r in &t.restarts {
                        restarts.u64(r as u64);
                    }
                }
                let mut samples = tail.arr("samples");
                for s in &t.samples {
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

/// Flight-recorder sizing knobs.
#[derive(Debug, Clone)]
pub struct FlightRecorderConfig {
    /// Machine events retained per trace by the black box.
    pub ring_capacity: usize,
    /// Service lifecycle events retained per trace.
    pub service_tail_capacity: usize,
    /// Post-mortem documents kept before the oldest is dropped.
    pub max_postmortems: usize,
}

impl Default for FlightRecorderConfig {
    fn default() -> Self {
        FlightRecorderConfig {
            ring_capacity: hpf_machine::blackbox::DEFAULT_RING_CAPACITY,
            service_tail_capacity: 32,
            max_postmortems: 64,
        }
    }
}

/// Terminal outcomes remembered per class for class-level (SLO-firing)
/// attribution.
const RECENT_OUTCOMES: usize = 512;

/// Trace ids remembered by the exactly-one-dump dedupe guard.
const DEDUPE_CAPACITY: usize = 8192;

#[derive(Default)]
struct Inner {
    service_tails: HashMap<u64, VecDeque<ServiceRec>>,
    solver_tails: HashMap<u64, SolverTail>,
    /// Last admission prediction per trace (mispricing evidence).
    predicted_us: HashMap<u64, u64>,
    dumped: HashSet<u64>,
    dumped_order: VecDeque<u64>,
    postmortems: VecDeque<Arc<Postmortem>>,
    recent_outcomes: VecDeque<(&'static str, &'static str)>,
    seq: u64,
    slo_dumps: u64,
}

type DumpCallback = Arc<dyn Fn(&Postmortem) + Send + Sync>;

/// The per-job flight recorder and post-mortem store. Construct once,
/// wire into a [`hpf_service::ServiceConfig`] via [`Self::install`] (or
/// the individual `*_sink` methods), and read dumps back through
/// [`Self::postmortems`] / [`Self::index_json`].
pub struct FlightRecorder {
    blackbox: Arc<BlackBox>,
    config: FlightRecorderConfig,
    inner: Mutex<Inner>,
    on_dump: Mutex<Option<DumpCallback>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    pub fn new(config: FlightRecorderConfig) -> Arc<Self> {
        Arc::new(FlightRecorder {
            blackbox: Arc::new(BlackBox::new(config.ring_capacity)),
            config,
            inner: Mutex::new(Inner::default()),
            on_dump: Mutex::new(None),
        })
    }

    /// The shared black box (overhead audits read its counters).
    pub fn blackbox(&self) -> &Arc<BlackBox> {
        &self.blackbox
    }

    /// Callback fired (outside the recorder lock) with every finished
    /// dump — the hook that bumps
    /// `hpf_service_postmortems_total{verdict=...}` and publishes the
    /// document to `/postmortems/<trace>`.
    pub fn set_on_dump(&self, f: impl Fn(&Postmortem) + Send + Sync + 'static) {
        *self.on_dump.lock().unwrap() = Some(Arc::new(f));
    }

    /// Machine-side tap: the black box as an [`EventSink`]. Fan this out
    /// with the live bus's sink ([`EventSink::fanout`]) when both run.
    pub fn machine_sink(self: &Arc<Self>) -> EventSink {
        self.blackbox.sink()
    }

    /// Service-side tap. Records the per-trace lifecycle tail, decides
    /// dumps on terminal events, then forwards to `forward` (the live
    /// bus adapter) if given.
    pub fn service_sink(self: &Arc<Self>, forward: Option<ServiceEventSink>) -> ServiceEventSink {
        let fr = Arc::clone(self);
        ServiceEventSink::new(move |e| {
            fr.observe(e);
            if let Some(f) = &forward {
                f.emit(e);
            }
        })
    }

    /// Worker tap receiving the bounded residual tail of each finished
    /// solve attempt; the last flush per trace is kept as evidence.
    pub fn solver_tap(self: &Arc<Self>) -> SolverTapSink {
        let fr = Arc::clone(self);
        SolverTapSink::new(move |tail| {
            if tail.trace_id == 0 {
                return;
            }
            let mut inner = fr.inner.lock().unwrap();
            inner.solver_tails.insert(tail.trace_id, tail.clone());
        })
    }

    /// Wire every tap into `cfg`, fanning out with any sinks already
    /// installed (the live bus keeps streaming; the recorder rides the
    /// same chokepoints).
    pub fn install(self: &Arc<Self>, cfg: &mut hpf_service::ServiceConfig) {
        cfg.machine_sink = Some(match cfg.machine_sink.take() {
            Some(existing) => EventSink::fanout(vec![existing, self.machine_sink()]),
            None => self.machine_sink(),
        });
        cfg.event_sink = Some(self.service_sink(cfg.event_sink.take()));
        cfg.solver_tap = Some(self.solver_tap());
    }

    /// Feed one SLO alert transition; a transition *to* Firing produces
    /// a class-level post-mortem keyed `slo-<class>-<n>`.
    pub fn on_transition(&self, t: &AlertTransition) {
        if t.to != AlertState::Firing {
            return;
        }
        let pm = {
            let mut inner = self.inner.lock().unwrap();
            inner.seq += 1;
            inner.slo_dumps += 1;
            let (seq, nth) = (inner.seq, inner.slo_dumps);
            let class = t.class.name();
            let bad: Vec<&'static str> = inner
                .recent_outcomes
                .iter()
                .filter(|(c, o)| *c == class && *o != "ok")
                .map(|(_, o)| *o)
                .collect();
            let mut counts: HashMap<&'static str, usize> = HashMap::new();
            for o in &bad {
                *counts.entry(o).or_default() += 1;
            }
            let dominant = counts
                .iter()
                .max_by_key(|(_, n)| **n)
                .map(|(o, n)| (*o, *n));
            let verdict = match dominant.map(|(o, _)| o) {
                Some("shed") | Some("busy") | Some("deadline") | Some("circuit-open") => {
                    Verdict::Overload
                }
                Some("recovery-exhausted")
                | Some("non-finite")
                | Some("breakdown")
                | Some("singular")
                | Some("stagnation") => Verdict::NumericalBreakdown,
                Some(_) => Verdict::Overload,
                None => Verdict::Unknown,
            };
            let mut evidence = vec![format!(
                "burn rates at transition: slow {:.2}x, fast {:.2}x over threshold",
                t.slow_burn, t.fast_burn
            )];
            if let Some((o, n)) = dominant {
                evidence.push(format!(
                    "dominant bad outcome for class {class}: \"{o}\" ({n} of {} recent bad \
                     terminals)",
                    bad.len()
                ));
            } else {
                evidence.push(format!(
                    "no recent bad terminal outcomes retained for {class}"
                ));
            }
            let causes = vec![RootCause {
                verdict,
                confidence: if dominant.is_some() { 0.7 } else { 0.3 },
                evidence,
            }];
            let mut pm = Postmortem {
                key: format!("slo-{class}-{nth}"),
                trace_id: 0,
                trigger: Trigger::SloFiring,
                class: class.to_string(),
                outcome: "slo-firing".to_string(),
                latency_us: 0,
                seq,
                causes,
                narrative: String::new(),
                machine_tail: Vec::new(),
                machine_overwritten: 0,
                service_tail: Vec::new(),
                residual_tail: None,
            };
            pm.narrative = narrative(&pm);
            let pm = Arc::new(pm);
            inner.postmortems.push_back(Arc::clone(&pm));
            while inner.postmortems.len() > self.config.max_postmortems {
                inner.postmortems.pop_front();
            }
            pm
        };
        self.fire_on_dump(&pm);
    }

    /// Dumps written since creation (per-job and SLO together).
    pub fn dumps(&self) -> u64 {
        self.inner.lock().unwrap().seq
    }

    /// Retained post-mortems, oldest first.
    pub fn postmortems(&self) -> Vec<Arc<Postmortem>> {
        self.inner
            .lock()
            .unwrap()
            .postmortems
            .iter()
            .cloned()
            .collect()
    }

    /// Look a document up by its key (`<16-hex trace>` or `slo-...`).
    pub fn get(&self, key: &str) -> Option<Arc<Postmortem>> {
        self.inner
            .lock()
            .unwrap()
            .postmortems
            .iter()
            .find(|p| p.key == key)
            .cloned()
    }

    /// The `/postmortems` index document.
    pub fn index_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
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

    fn fire_on_dump(&self, pm: &Postmortem) {
        let cb = self.on_dump.lock().unwrap().clone();
        if let Some(cb) = cb {
            cb(pm);
        }
    }

    fn observe(self: &Arc<Self>, e: &ServiceEvent) {
        let trace_id = e.trace_id();
        if trace_id == 0 {
            return; // worker-slot respawns are not tied to one request
        }
        let rec = service_rec(e);
        let mut inner = self.inner.lock().unwrap();
        let tail = inner.service_tails.entry(trace_id).or_default();
        if tail.len() >= self.config.service_tail_capacity {
            tail.pop_front();
        }
        tail.push_back(rec);
        if let ServiceEvent::Admitted { predicted_us, .. } = *e {
            inner.predicted_us.insert(trace_id, predicted_us);
        }
        let ServiceEvent::Completed {
            class,
            latency_us,
            outcome,
            ..
        } = *e
        else {
            return;
        };
        inner.recent_outcomes.push_back((class.name(), outcome));
        while inner.recent_outcomes.len() > RECENT_OUTCOMES {
            inner.recent_outcomes.pop_front();
        }
        let Some(trigger) = Trigger::from_outcome(outcome) else {
            // Clean completion or a correct refusal: release every tail.
            inner.service_tails.remove(&trace_id);
            inner.solver_tails.remove(&trace_id);
            inner.predicted_us.remove(&trace_id);
            drop(inner);
            self.blackbox.discard(trace_id);
            return;
        };
        if inner.dumped.contains(&trace_id) {
            return; // exactly-one-dump guard
        }
        inner.dumped.insert(trace_id);
        inner.dumped_order.push_back(trace_id);
        while inner.dumped_order.len() > DEDUPE_CAPACITY {
            if let Some(old) = inner.dumped_order.pop_front() {
                inner.dumped.remove(&old);
            }
        }
        let service_tail: Vec<ServiceRec> = inner
            .service_tails
            .remove(&trace_id)
            .map(|t| t.into_iter().collect())
            .unwrap_or_default();
        let residual_tail = inner.solver_tails.remove(&trace_id);
        let predicted = inner.predicted_us.remove(&trace_id);
        inner.seq += 1;
        let seq = inner.seq;
        drop(inner);
        // Machine events for this job were emitted synchronously on the
        // worker thread that is now delivering Completed, so the ring is
        // final: take it (removing) and attribute.
        let machine = self.blackbox.take(trace_id).unwrap_or(BlackBoxTail {
            trace_id,
            ..BlackBoxTail::default()
        });
        let causes = attribute(
            trigger,
            outcome,
            latency_us,
            predicted,
            &machine,
            &service_tail,
            residual_tail.as_ref(),
        );
        let mut pm = Postmortem {
            key: format!("{trace_id:016x}"),
            trace_id,
            trigger,
            class: class.name().to_string(),
            outcome: outcome.to_string(),
            latency_us,
            seq,
            causes,
            narrative: String::new(),
            machine_tail: machine.events,
            machine_overwritten: machine.overwritten,
            service_tail,
            residual_tail,
        };
        pm.narrative = narrative(&pm);
        let pm = Arc::new(pm);
        {
            let mut inner = self.inner.lock().unwrap();
            inner.postmortems.push_back(Arc::clone(&pm));
            while inner.postmortems.len() > self.config.max_postmortems {
                inner.postmortems.pop_front();
            }
        }
        self.fire_on_dump(&pm);
    }
}

fn service_rec(e: &ServiceEvent) -> ServiceRec {
    let detail = match *e {
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
    };
    ServiceRec {
        kind: e.kind(),
        detail,
    }
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
    machine: &BlackBoxTail,
    service: &[ServiceRec],
    solver: Option<&SolverTail>,
) -> Vec<RootCause> {
    let mut causes: Vec<RootCause> = Vec::new();
    let rollbacks = solver.map_or(0, |t| t.rollbacks.len())
        + service.iter().filter(|r| r.kind == "rollback").count();
    let retries = service.iter().filter(|r| r.kind == "retry").count();

    // 1. Direct evidence: fault-labelled machine events.
    let mut fault_kinds: Vec<(&str, usize, &BlackBoxRecord)> = Vec::new();
    for rec in &machine.events {
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
        if let Some(worst) = machine
            .events
            .iter()
            .filter(|r| r.imbalance > STRAGGLER_IMBALANCE)
            .max_by(|a, b| a.imbalance.total_cmp(&b.imbalance))
        {
            causes.push(RootCause {
                verdict: Verdict::Straggler,
                confidence: (0.5 + 0.1 * worst.imbalance).min(0.85),
                evidence: vec![format!(
                    "event \"{}\" in span \"{}\" ran {:.1}x slower on proc {} than the mean",
                    worst.label,
                    worst.span,
                    worst.imbalance,
                    worst
                        .slowest_proc
                        .map(|p| p.to_string())
                        .unwrap_or_else(|| "?".to_string())
                )],
            });
        }
    }

    // 3. Residual-series anomalies from the last attempt's tail.
    if let Some(tail) = solver {
        let samples = &tail.samples;
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
        for (iter, reason) in &tail.rollbacks {
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
            pm.residual_tail.as_ref().map_or(0, |t| t.samples.len())
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
    use hpf_machine::{Event, EventKind};
    use hpf_service::QosClass;
    use hpf_solvers::IterSample;

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

    #[test]
    fn injected_stall_dominates_attribution_and_doc_is_valid_json() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        let msink = fr.machine_sink();
        let ssink = fr.service_sink(None);
        msink.emit(&machine_event(0xab, "dot-merge", Vec::new()));
        msink.emit(&machine_event(
            0xab,
            "fault:stall:p2:op17:ms400",
            Vec::new(),
        ));
        ssink.emit(&ServiceEvent::Admitted {
            trace_id: 0xab,
            class: QosClass::Interactive,
            predicted_us: 120,
        });
        ssink.emit(&ServiceEvent::WorkerKilled {
            trace_id: 0xab,
            class: QosClass::Interactive,
            after_us: 900,
        });
        ssink.emit(&completed(0xab, false, "worker-killed"));
        let pms = fr.postmortems();
        assert_eq!(pms.len(), 1);
        let pm = &pms[0];
        assert_eq!(pm.key, format!("{:016x}", 0xab));
        assert_eq!(pm.trigger, Trigger::WorkerKilled);
        assert_eq!(pm.top_verdict(), Verdict::FaultStall);
        assert!(pm.causes[0].confidence >= 0.9);
        assert_eq!(pm.machine_tail.len(), 2);
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
        let msink = fr.machine_sink();
        let ssink = fr.service_sink(None);
        msink.emit(&machine_event(7, "dot-merge", Vec::new()));
        ssink.emit(&completed(7, true, "ok"));
        assert_eq!(fr.postmortems().len(), 0);
        assert_eq!(fr.dumps(), 0);
        assert_eq!(fr.blackbox().traces(), 0, "ring released");
        assert_eq!(fr.index_json(), "{\"postmortems\":[]}");
    }

    #[test]
    fn exactly_one_dump_per_trace_even_on_replayed_terminal_events() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        let ssink = fr.service_sink(None);
        ssink.emit(&completed(9, false, "recovery-exhausted"));
        ssink.emit(&completed(9, false, "recovery-exhausted"));
        assert_eq!(fr.dumps(), 1);
        assert_eq!(fr.postmortems().len(), 1);
    }

    #[test]
    fn divergence_is_read_from_the_residual_tail() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        let tap = fr.solver_tap();
        tap.emit(&SolverTail {
            trace_id: 5,
            attempt: 1,
            solver: "cg",
            samples: vec![sample(1, 1e-2), sample(2, 1e-3), sample(3, f64::NAN)],
            rollbacks: Vec::new(),
            restarts: Vec::new(),
            overwritten: 0,
        });
        fr.service_sink(None)
            .emit(&completed(5, false, "non-finite"));
        let pms = fr.postmortems();
        assert_eq!(pms[0].top_verdict(), Verdict::Divergence);
        assert!(pms[0].narrative.contains("divergence"));
        crate::json::validate(&pms[0].to_json()).expect("json with NaN residual");
    }

    #[test]
    fn stagnation_needs_a_flat_tail() {
        let flat: Vec<IterSample> = (0..10).map(|i| sample(i, 1e-3)).collect();
        let tail = SolverTail {
            trace_id: 6,
            attempt: 1,
            solver: "cg",
            samples: flat,
            rollbacks: Vec::new(),
            restarts: Vec::new(),
            overwritten: 0,
        };
        let causes = attribute(
            Trigger::Stagnation,
            "stagnation",
            10,
            None,
            &BlackBoxTail::default(),
            &[],
            Some(&tail),
        );
        assert_eq!(causes[0].verdict, Verdict::Stagnation);
    }

    #[test]
    fn deadline_expiry_of_an_admitted_job_is_mispricing_over_overload() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        let ssink = fr.service_sink(None);
        ssink.emit(&ServiceEvent::Admitted {
            trace_id: 11,
            class: QosClass::Interactive,
            predicted_us: 50,
        });
        ssink.emit(&ServiceEvent::DeadlineExpired {
            trace_id: 11,
            class: QosClass::Interactive,
        });
        ssink.emit(&completed(11, false, "deadline"));
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
        let ssink = fr.service_sink(None);
        for outcome in [
            "ok",
            "busy",
            "circuit-open",
            "shed",
            "invalid-request",
            "shutdown",
        ] {
            ssink.emit(&completed(outcome.as_ptr() as u64, true, outcome));
        }
        assert_eq!(fr.dumps(), 0);
    }

    #[test]
    fn slo_firing_produces_a_class_level_dump() {
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        let ssink = fr.service_sink(None);
        ssink.emit(&completed(21, false, "worker-killed"));
        fr.on_transition(&AlertTransition {
            class: QosClass::Interactive,
            at_s: 3.0,
            from: AlertState::Pending,
            to: AlertState::Firing,
            slow_burn: 4.0,
            fast_burn: 9.0,
        });
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
    fn solver_tap_and_forwarding_sink_compose() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        let forwarded = Arc::new(AtomicUsize::new(0));
        let f2 = forwarded.clone();
        let ssink = fr.service_sink(Some(ServiceEventSink::new(move |_| {
            f2.fetch_add(1, Ordering::Relaxed);
        })));
        let dumps = Arc::new(AtomicUsize::new(0));
        let d2 = dumps.clone();
        fr.set_on_dump(move |pm| {
            assert!(!pm.narrative.is_empty());
            d2.fetch_add(1, Ordering::Relaxed);
        });
        ssink.emit(&completed(31, false, "non-finite"));
        assert_eq!(
            forwarded.load(Ordering::Relaxed),
            1,
            "events still forwarded"
        );
        assert_eq!(dumps.load(Ordering::Relaxed), 1, "on_dump fired");
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
        fr.machine_sink()
            .emit(&machine_event(41, "dot-merge", vec![1.0, 1.0, 6.0, 1.0]));
        fr.service_sink(None)
            .emit(&completed(41, false, "worker-killed"));
        let pm = &fr.postmortems()[0];
        assert_eq!(pm.top_verdict(), Verdict::Straggler);
        assert!(pm.causes[0].evidence[0].contains("proc 2"));
    }
}
