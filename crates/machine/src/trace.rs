//! Event trace of simulated machine activity.
//!
//! Every communication or bulk-compute operation performed through a
//! [`crate::machine::Machine`] is appended to a trace, so tests and
//! benchmark reports can assert *which* collectives an HPF layout induced
//! and how much traffic each moved — the quantities the paper reasons
//! about in Section 4.

use crate::cost::CostModel;
use crate::recorder::EventRef;
use crate::topology::Topology;
use hpf_json::Obj;
use std::ops::Range;

/// The kind of a traced event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Point-to-point message.
    Send,
    /// One-to-all broadcast.
    Broadcast,
    /// All-to-all broadcast (allgather).
    AllGather,
    /// Reduction to a root.
    Reduce,
    /// All-reduce (reduction + replication of the result).
    AllReduce,
    /// Personalised all-to-all exchange.
    AllToAll,
    /// Scatter from a root.
    Scatter,
    /// Gather to a root.
    Gather,
    /// Bulk local computation (flops across processors).
    #[default]
    Compute,
    /// Data redistribution between two layouts.
    Redistribute,
    /// Synchronisation barrier.
    Barrier,
    /// An injected fault (bit flip, message drop, straggler, crash).
    Fault,
}

impl EventKind {
    /// Every kind, in declaration order (used by exporters and tests).
    pub const ALL: [EventKind; 12] = [
        EventKind::Send,
        EventKind::Broadcast,
        EventKind::AllGather,
        EventKind::Reduce,
        EventKind::AllReduce,
        EventKind::AllToAll,
        EventKind::Scatter,
        EventKind::Gather,
        EventKind::Compute,
        EventKind::Redistribute,
        EventKind::Barrier,
        EventKind::Fault,
    ];

    /// Stable lowercase name, used by the JSONL export.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Send => "send",
            EventKind::Broadcast => "broadcast",
            EventKind::AllGather => "allgather",
            EventKind::Reduce => "reduce",
            EventKind::AllReduce => "allreduce",
            EventKind::AllToAll => "alltoall",
            EventKind::Scatter => "scatter",
            EventKind::Gather => "gather",
            EventKind::Compute => "compute",
            EventKind::Redistribute => "redistribute",
            EventKind::Barrier => "barrier",
            EventKind::Fault => "fault",
        }
    }

    /// Inverse of [`EventKind::name`], used by the JSONL import.
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One traced event.
#[derive(Debug, Clone, Default)]
pub struct Event {
    pub kind: EventKind,
    /// Number of processors participating.
    pub participants: usize,
    /// Total elements moved over the network (0 for pure compute).
    pub words: usize,
    /// Total flops executed (0 for pure communication).
    pub flops: usize,
    /// Simulated elapsed time added by this event (max over participants).
    pub time: f64,
    /// Simulated clock at which the event began — for collectives this is
    /// the synchronisation point all participants reached first; together
    /// with [`Event::time`] it places the event on a timeline.
    pub start: f64,
    /// Span path active when the event was recorded
    /// (`solve/iter=12/matvec`, see [`crate::span`]); empty when no span
    /// was entered.
    pub span: String,
    /// Free-form label ("dot-merge", "matvec-bcast", ...).
    pub label: String,
    /// Per-processor durations for phases where processors finish at
    /// different times (bulk compute). Empty means every participant was
    /// busy for the full [`Event::time`]. When present, its length is the
    /// participant count and `time == max(proc_times)`.
    pub proc_times: Vec<f64>,
    /// The *formula argument* of the operation — the per-unit message
    /// size `w` that the analytic cost formulas take (`words_each` for
    /// allgather / reduce-scatter / alltoall / group collectives,
    /// `words` for send / broadcast / reduce / allreduce, and the
    /// *total* transferred volume for gather / scatter, stamped at the
    /// emitting site so unequal per-processor counts price correctly).
    /// [`Event::words`] records the aggregate network volume instead, so
    /// the two differ by a kind-specific multiplier; `payload_words` is
    /// what a cost oracle feeds back into the closed forms. 0 for pure
    /// compute, barriers, faults, and traces that predate this field.
    pub payload_words: usize,
    /// Network distance between the endpoints of a point-to-point
    /// message (`Send` only; 0 for collectives, whose routing is part of
    /// the topology formula).
    pub hops: usize,
}

/// Append-only event log with summary accessors: one compact row an
/// operation (DESIGN §15), read as borrowed [`EventRef`]s through
/// [`Trace::iter`].
#[derive(Debug, Default, Clone)]
pub struct Trace {
    rows: Vec<Row>,
    strings: Strings,
    /// `(start, len)` in `times` of each stored vector.
    ranges: Vec<(usize, usize)>,
    times: Vec<f64>,
    /// See [`crate::span::path_id`].
    span_cache: Option<(crate::span::PathKey, u32)>,
}

/// One stored operation: a row of a [`Trace`], the fixed part of a slot
/// of a [`crate::EventTail`]. Each store numbers `span`, `label` and
/// `times` its own way.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Row {
    kind: EventKind,
    time: f64,
    start: f64,
    words: usize,
    flops: usize,
    payload_words: usize,
    participants: u32,
    hops: u32,
    pub(crate) span: u32,
    pub(crate) label: u32,
    /// In a trace, [`NO_TIMES`], [`UNIFORM`], or an index into
    /// `Trace::ranges`.
    pub(crate) times: u32,
}

const _: () = assert!(std::mem::size_of::<Row>() <= 64);
const NO_TIMES: u32 = u32::MAX;
pub(crate) const UNIFORM: u32 = u32::MAX - 1;

impl Row {
    /// Panics on a participant or hop count wider than 32 bits.
    pub(crate) fn new(op: &EventRef<'_>, span: u32, label: u32, times: u32) -> Row {
        Row {
            kind: op.kind,
            time: op.time,
            start: op.start,
            words: op.words,
            flops: op.flops,
            payload_words: op.payload_words,
            participants: u32::try_from(op.participants).expect("a 32-bit count"),
            hops: u32::try_from(op.hops).expect("a 32-bit count"),
            span,
            label,
            times,
        }
    }

    /// The event the row stores, under these texts and times.
    pub(crate) fn view<'a>(&self, span: &'a str, label: &'a str, times: &'a [f64]) -> EventRef<'a> {
        EventRef {
            kind: self.kind,
            participants: self.participants as usize,
            words: self.words,
            flops: self.flops,
            time: self.time,
            start: self.start,
            span,
            label,
            proc_times: times,
            uniform: self.times == UNIFORM,
            payload_words: self.payload_words,
            hops: self.hops as usize,
        }
    }
}

/// The topology and cost model a trace's rows are priced under, if any.
pub type Price<'a> = Option<(Topology, &'a CostModel)>;

/// What a set of a trace's rows adds up to, in record order from `0.0`:
/// the one fold behind [`Trace::window`] and [`Trace::window_by`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sums {
    pub events: usize,
    pub time: f64,
    /// Time and words of every kind but `Compute`.
    pub comm_time: f64,
    pub comm_words: usize,
    /// Time of the `Compute` rows.
    pub compute_time: f64,
    pub words: usize,
    pub flops: usize,
    /// Under a cost model, each row at [`crate::predicted_time`], or at
    /// its measured time where no closed form prices it (`unpriced`).
    pub predicted: f64,
    pub unpriced: usize,
    /// When asked for, each compute phase's per-processor times added
    /// up (grown to fit); empty otherwise, so nothing is allocated.
    pub busy: Vec<f64>,
}

impl Sums {
    fn add(&mut self, op: &EventRef<'_>, price: Price<'_>, busy: bool) {
        self.events += 1;
        self.time += op.time;
        self.words += op.words;
        self.flops += op.flops;
        if op.kind != EventKind::Compute {
            self.comm_time += op.time;
            self.comm_words += op.words;
        } else {
            self.compute_time += op.time;
            if busy {
                let times = op.times();
                self.busy.resize(self.busy.len().max(times.len()), 0.0);
                self.busy.iter_mut().zip(times).for_each(|(b, t)| *b += t);
            }
        }
        if let Some((topology, cost)) = price {
            let predicted = crate::predicted_time(op, topology, cost);
            self.unpriced += usize::from(predicted.is_none());
            self.predicted += predicted.unwrap_or(op.time);
        }
    }
}

/// The load-imbalance ratio `max / mean` of per-processor loads (1.0 is
/// perfect balance), or `None` for an empty or all-zero set, where there
/// is no load to compare: each caller states what it reads there.
pub fn imbalance(loads: impl IntoIterator<Item = f64>) -> Option<f64> {
    let add = |(max, sum, n): (f64, f64, usize), load: f64| (max.max(load), sum + load, n + 1);
    let (max, sum, n) = loads.into_iter().fold((0.0, 0.0, 0), add);
    let mean = sum / n as f64;
    (mean > 0.0).then(|| max / mean)
}

impl Trace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Panics on a participant or hop count wider than 32 bits.
    pub fn record(&mut self, ev: Event) {
        let span = match self.rows.last() {
            Some(last) if self.strings.get(last.span) == ev.span => last.span,
            _ => self.strings.push(&ev.span),
        };
        let mut op = EventRef::from(&ev);
        let time = ev.time.to_bits();
        op.uniform = !ev.proc_times.is_empty()
            && ev.proc_times.len() == ev.participants
            && ev.proc_times.iter().all(|t| t.to_bits() == time);
        self.push(span, &op);
    }

    /// Store an operation under the calling thread's span path.
    pub(crate) fn keep(&mut self, op: &EventRef<'_>) {
        let strings = &mut self.strings;
        let span = crate::span::path_id(&mut self.span_cache, |path| strings.push(path));
        self.push(span, op);
    }

    fn push(&mut self, span: u32, op: &EventRef<'_>) {
        let times = match (op.uniform, op.proc_times.is_empty()) {
            (true, _) => UNIFORM,
            (false, true) => NO_TIMES,
            (false, false) => self.store_times(op.proc_times),
        };
        let label = self.strings.label(op.label);
        self.rows.push(Row::new(op, span, label, times));
    }

    /// The range holding `times`: the last one again if it holds the same
    /// bits.
    fn store_times(&mut self, times: &[f64]) -> u32 {
        let repeats = self.ranges.last().is_some_and(|&(start, len)| {
            let last = self.times[start..start + len].iter().map(|t| t.to_bits());
            last.eq(times.iter().map(|t| t.to_bits()))
        });
        if !repeats {
            self.ranges.push((self.times.len(), times.len()));
            self.times.extend_from_slice(times);
        }
        u32::try_from(self.ranges.len() - 1)
            .ok()
            .filter(|&at| at < UNIFORM)
            .expect("fewer per-processor vectors in one trace than u32 ids")
    }

    /// The event row `at` stores. Panics when `at` is past the end.
    pub fn row(&self, at: usize) -> EventRef<'_> {
        let row = &self.rows[at];
        let proc_times = match row.times {
            NO_TIMES | UNIFORM => &[][..],
            i => {
                let (start, len) = self.ranges[i as usize];
                &self.times[start..start + len]
            }
        };
        let (span, label) = (self.strings.get(row.span), self.strings.get(row.label));
        row.view(span, label, proc_times)
    }

    /// The events, in record order.
    pub fn iter(&self) -> impl Iterator<Item = EventRef<'_>> {
        (0..self.rows.len()).map(|at| self.row(at))
    }

    /// The events as owned [`Event`]s, decoded on each call: for tests
    /// and evidence built by hand; a reader walks [`Trace::iter`].
    pub fn events(&self) -> Vec<Event> {
        self.iter().map(|e| e.to_event()).collect()
    }

    /// Forget every event; the tables keep their capacity.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.strings.clear();
        self.ranges.clear();
        self.times.clear();
        self.span_cache = None;
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Count of events of a given kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.rows.iter().filter(|e| e.kind == kind).count()
    }

    /// Total words moved by all communication events.
    pub fn total_comm_words(&self) -> usize {
        self.window(0..self.len(), None, false).comm_words
    }

    /// Total simulated time of all events (communication + compute).
    pub fn total_time(&self) -> f64 {
        self.window(0..self.len(), None, false).time
    }

    /// Total simulated communication time.
    pub fn comm_time(&self) -> f64 {
        self.window(0..self.len(), None, false).comm_time
    }

    /// Total simulated computation time.
    pub fn compute_time(&self) -> f64 {
        self.window(0..self.len(), None, false).compute_time
    }

    /// Events carrying a given label.
    pub fn with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = EventRef<'a>> + 'a {
        self.iter().filter(move |e| e.label == label)
    }

    /// The [`Sums`] of the rows in `rows`, priced under `price` if given,
    /// with per-processor busy time if `busy`. Nothing decodes.
    pub fn window(&self, rows: Range<usize>, price: Price<'_>, busy: bool) -> Sums {
        let mut sums = Sums::default();
        for at in rows {
            sums.add(&self.row(at), price, busy);
        }
        sums
    }

    /// [`Trace::window`] apart per key: each row of `rows` is added to
    /// the sums of the key `key` gives it, and left out where that is
    /// `None`. Keys come in the order their first rows appear.
    pub fn window_by<'a, K: Copy + Eq + std::hash::Hash>(
        &'a self,
        rows: Range<usize>,
        price: Price<'_>,
        busy: bool,
        mut key: impl FnMut(&EventRef<'a>) -> Option<K>,
    ) -> Vec<(K, Sums)> {
        let (mut groups, mut at) = (Vec::new(), std::collections::HashMap::new());
        for op in rows.map(|at| self.row(at)) {
            let Some(k) = key(&op) else { continue };
            let group = *at.entry(k).or_insert_with(|| {
                groups.push((k, Sums::default()));
                groups.len() - 1
            });
            groups[group].1.add(&op, price, busy);
        }
        groups
    }

    /// Aggregate the trace per label, in first-appearance order. This is
    /// the per-operation breakdown a solve produces ("dot-merge" cost vs
    /// "matvec-bcast" cost, ...), compact enough to ship in a response:
    /// the rows of [`Digest::from_trace`], by [`Digest`]'s aggregation
    /// rules.
    pub fn summary_by_label(&self) -> Vec<LabelSummary> {
        Digest::from_trace(self).by_label
    }

    /// Export as JSON Lines: one object per event, in record order — a
    /// stable, diffable external format, written through the workspace's
    /// one codec ([`hpf_json`]). `proc_times` is emitted only when
    /// per-processor durations were recorded. [`Trace::from_jsonl`] is
    /// the exact inverse.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.iter() {
            let mut o = Obj::new(&mut out);
            o.str("kind", e.kind.name())
                .u64("participants", e.participants as u64)
                .u64("words", e.words as u64)
                .u64("flops", e.flops as u64)
                .f64("time", e.time)
                .f64("start", e.start)
                .str("span", e.span)
                .str("label", e.label);
            if e.uniform || !e.proc_times.is_empty() {
                let mut times = o.arr("proc_times");
                for t in e.times() {
                    times.f64(t);
                }
            }
            // Emitted only when set, so pre-oracle traces (and their
            // byte-exact fixtures) keep the original line format.
            if e.payload_words != 0 {
                o.u64("payload_words", e.payload_words as u64);
            }
            if e.hops != 0 {
                o.u64("hops", e.hops as u64);
            }
            drop(o);
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL export back into a trace — the inverse of
    /// [`Trace::to_jsonl`], so traces survive a file round-trip into the
    /// `trace-report` tooling. Blank lines are skipped; any malformed
    /// line is a typed error naming its (1-based) line number.
    pub fn from_jsonl(text: &str) -> Result<Trace, TraceParseError> {
        let mut trace = Trace::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let ev =
                parse_event_line(line).map_err(|why| TraceParseError { line: idx + 1, why })?;
            trace.record(ev);
        }
        Ok(trace)
    }
}

/// The span paths and labels a trace's rows name, end to end in one
/// buffer; a label is looked for among the last [`LABELS`] stored.
#[derive(Debug, Default, Clone)]
struct Strings {
    text: String,
    /// Where string `i` ends in `text` (it starts where `i − 1` ends).
    ends: Vec<usize>,
    /// The last labels stored, newest first.
    labels: Vec<u32>,
}

/// How many labels a trace looks among before storing one again: more
/// than an iteration of any solver in the workspace uses.
const LABELS: usize = 32;

impl Strings {
    fn get(&self, id: u32) -> &str {
        let id = id as usize;
        &self.text[id.checked_sub(1).map_or(0, |i| self.ends[i])..self.ends[id]]
    }

    fn push(&mut self, s: &str) -> u32 {
        self.text.push_str(s);
        self.ends.push(self.text.len());
        u32::try_from(self.ends.len() - 1).expect("fewer strings in one trace than u32 ids")
    }

    fn label(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.labels.iter().find(|&&id| self.get(id) == label) {
            return id;
        }
        let id = self.push(label);
        self.labels.truncate(LABELS - 1);
        self.labels.insert(0, id);
        id
    }

    fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
        self.labels.clear();
    }
}

/// A malformed line in a JSONL trace import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    pub why: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.why)
    }
}

impl std::error::Error for TraceParseError {}

/// Parse one `to_jsonl` line. The schema is closed: an unknown key is an
/// error, `kind` is required, everything else defaults to zero/empty.
/// Non-finite times were written as `null` and read back as NaN.
fn parse_event_line(line: &str) -> Result<Event, String> {
    let doc = hpf_json::parse(line)?;
    let mut kind = None;
    let mut ev = Event::default();
    for (key, v) in doc.members().ok_or("expected a JSON object")? {
        let bad = || format!("bad value for '{key}'");
        let count = || v.as_u64().map(|n| n as usize).ok_or_else(bad);
        // A row holds 32 bits of each; the machine never counts more.
        let narrow = || {
            v.as_u64()
                .filter(|&n| n <= u32::MAX.into())
                .map(|n| n as usize)
                .ok_or_else(bad)
        };
        match key.as_ref() {
            "kind" => {
                let name = v.as_str().ok_or_else(bad)?;
                kind = Some(EventKind::from_name(name).ok_or(format!("unknown kind '{name}'"))?);
            }
            "participants" => ev.participants = narrow()?,
            "words" => ev.words = count()?,
            "flops" => ev.flops = count()?,
            "time" => ev.time = v.as_f64().ok_or_else(bad)?,
            "start" => ev.start = v.as_f64().ok_or_else(bad)?,
            "span" => ev.span = v.as_str().ok_or_else(bad)?.to_string(),
            "label" => ev.label = v.as_str().ok_or_else(bad)?.to_string(),
            "proc_times" => {
                let times = v.items().ok_or_else(bad)?.iter();
                ev.proc_times = times
                    .map(|t| t.as_f64().ok_or_else(bad))
                    .collect::<Result<_, _>>()?;
            }
            "payload_words" => ev.payload_words = count()?,
            "hops" => ev.hops = narrow()?,
            other => return Err(format!("unexpected key '{other}'")),
        }
    }
    ev.kind = kind.ok_or("missing 'kind'")?;
    Ok(ev)
}

/// Per-label aggregate over a trace (see [`Trace::summary_by_label`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabelSummary {
    pub label: String,
    /// Number of events with this label.
    pub count: usize,
    /// Total words moved.
    pub words: usize,
    /// Total flops executed.
    pub flops: usize,
    /// Total simulated time.
    pub time: f64,
}

/// Totals plus the per-label breakdown of a run: what a
/// [`crate::Machine`] keeps at [`crate::TraceLevel::Summary`] instead of
/// events, and what [`Digest::from_trace`] computes from a stored trace.
/// Both fold one operation at a time in record order, through one
/// function, so the two are equal field for field, bit for bit.
///
/// # Aggregation rules
///
/// *Every* event kind participates — data-moving collectives,
/// `Compute` phases, and also `Barrier` and `Fault` events (a fault's
/// retransmit/restart penalty is real simulated time and must not
/// vanish from per-label totals). Per label a row accumulates the
/// event count, the total words moved, the total flops executed,
/// and the total simulated time; rows appear in the order the run
/// first saw their label. Events with distinct span paths but the
/// same label aggregate together, with one exception:
/// `Redistribute` events recorded under a `level=L` span segment
/// (multigrid restriction/prolongation between hierarchy levels)
/// keep one row *per level*, keyed `label [level=L]`, so a V-cycle's
/// per-level transfer costs stay readable instead of collapsing
/// into a single row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Digest {
    /// Number of events folded in.
    pub events: usize,
    /// Total simulated time (communication + compute).
    pub total_time: f64,
    /// Simulated communication time (every kind but `Compute`).
    pub comm_time: f64,
    /// Simulated computation time.
    pub compute_time: f64,
    /// Words moved over the simulated network.
    pub total_comm_words: usize,
    /// Aggregates per event label ("dot-merge", "bcast-p", ...), in the
    /// order the run first saw them.
    pub by_label: Vec<LabelSummary>,
}

impl Digest {
    /// The digest of a stored trace.
    pub fn from_trace(trace: &Trace) -> Digest {
        let mut digest = Digest::default();
        for e in trace.iter() {
            digest.fold(&e, || crate::span::level_of(e.span));
        }
        digest
    }

    /// Fold one operation in, by [`Digest`]'s aggregation rules. `level`
    /// reports the `level=L` segment of the span the operation ran under
    /// (see [`crate::span::level_of`]); only `Redistribute` events ask.
    ///
    /// A row that exists is found by comparing text in place; a `String`
    /// is built only when a new row appears.
    pub(crate) fn fold(&mut self, op: &EventRef<'_>, level: impl FnOnce() -> Option<usize>) {
        let (kind, words, flops, time, label) = (op.kind, op.words, op.flops, op.time, op.label);
        self.events += 1;
        self.total_time += time;
        if kind == EventKind::Compute {
            self.compute_time += time;
        } else {
            self.comm_time += time;
            self.total_comm_words += words;
        }
        let level = (kind == EventKind::Redistribute).then(level).flatten();
        let row = match self
            .by_label
            .iter()
            .position(|row| row_is(&row.label, label, level))
        {
            Some(i) => i,
            None => {
                let label = match level {
                    Some(l) => format!("{label} [level={l}]"),
                    None => label.to_string(),
                };
                self.by_label.push(LabelSummary {
                    label,
                    ..LabelSummary::default()
                });
                self.by_label.len() - 1
            }
        };
        let row = &mut self.by_label[row];
        (row.count, row.words, row.flops) = (row.count + 1, row.words + words, row.flops + flops);
        row.time += time;
    }

    /// Forget everything folded so far (row storage is kept).
    pub fn clear(&mut self) {
        let mut by_label = std::mem::take(&mut self.by_label);
        by_label.clear();
        *self = Digest {
            by_label,
            ..Digest::default()
        };
    }
}

/// Is `row` the row of `label` at `level`, i.e. does it read `label`, or
/// `label [level=L]`? Compared in place, nothing built.
fn row_is(row: &str, label: &str, level: Option<usize>) -> bool {
    let Some(level) = level else {
        return row == label;
    };
    let digits = row
        .strip_prefix(label)
        .and_then(|rest| rest.strip_prefix(" [level="))
        .and_then(|rest| rest.strip_suffix(']'));
    let Some(digits) = digits else {
        return false;
    };
    // `digits` must be exactly how `level` prints: compare from the
    // least significant digit, and run out of both together.
    let mut left = level;
    let mut digits = digits.bytes().rev();
    loop {
        if digits.next() != Some(b'0' + (left % 10) as u8) {
            return false;
        }
        left /= 10;
        if left == 0 {
            return digits.next().is_none();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, words: usize, flops: usize, time: f64, label: &str) -> Event {
        let mut e = Event::default();
        (e.kind, e.participants, e.words, e.flops, e.time) = (kind, 4, words, flops, time);
        e.label.push_str(label);
        e
    }

    #[test]
    fn counts_and_sums() {
        let mut t = Trace::new();
        t.record(ev(EventKind::AllGather, 100, 0, 1.0, "bcast-p"));
        t.record(ev(EventKind::AllReduce, 1, 0, 0.5, "dot-merge"));
        t.record(ev(EventKind::Compute, 0, 2000, 2.0, "local-matvec"));
        assert_eq!(t.len(), 3);
        assert_eq!(t.count(EventKind::AllGather), 1);
        let gathers = t.window_by(0..t.len(), None, false, |e| {
            (e.kind == EventKind::AllGather).then_some(())
        });
        assert_eq!(gathers[0].1.words, 100);
        assert_eq!(t.total_comm_words(), 101);
        assert!((t.total_time() - 3.5).abs() < 1e-12);
        assert!((t.comm_time() - 1.5).abs() < 1e-12);
        assert!((t.compute_time() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_window_sums_its_rows_and_apart_per_key_in_first_seen_order() {
        let mut t = Trace::new();
        let mut skewed = ev(EventKind::Compute, 0, 30, 3.0, "local");
        skewed.proc_times = vec![1.0, 3.0];
        t.record(ev(EventKind::AllReduce, 2, 0, 0.5, "dot-merge"));
        t.record(skewed);
        t.record(ev(EventKind::AllGather, 8, 0, 0.25, "bcast-p"));
        let all = t.window(0..t.len(), None, true);
        assert_eq!(
            (all.events, all.words, all.flops, all.comm_words),
            (3, 10, 30, 10)
        );
        assert_eq!((all.time, all.comm_time, all.predicted), (3.75, 0.75, 0.0));
        assert_eq!(all.busy, vec![1.0, 3.0]);
        assert!(t.window(1..3, None, false).busy.is_empty());
        let by_kind = t.window_by(0..t.len(), None, false, |e| {
            (e.kind != EventKind::Compute).then_some(e.label)
        });
        let keys: Vec<(&str, usize)> = by_kind.iter().map(|(k, s)| (*k, s.events)).collect();
        assert_eq!(keys, [("dot-merge", 1), ("bcast-p", 1)]);
    }

    #[test]
    fn label_filter() {
        let mut t = Trace::new();
        t.record(ev(EventKind::AllReduce, 1, 0, 0.5, "dot-merge"));
        t.record(ev(EventKind::AllReduce, 1, 0, 0.5, "dot-merge"));
        t.record(ev(EventKind::AllGather, 8, 0, 0.7, "bcast-p"));
        assert_eq!(t.with_label("dot-merge").count(), 2);
        assert_eq!(t.with_label("bcast-p").count(), 1);
        assert_eq!(t.with_label("nope").count(), 0);
    }

    #[test]
    fn summary_by_label_aggregates_in_first_seen_order() {
        let mut t = Trace::new();
        t.record(ev(EventKind::AllReduce, 1, 0, 0.5, "dot-merge"));
        t.record(ev(EventKind::Compute, 0, 2000, 2.0, "local-matvec"));
        t.record(ev(EventKind::AllReduce, 1, 0, 0.25, "dot-merge"));
        let s = t.summary_by_label();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].label, "dot-merge");
        assert_eq!(s[0].count, 2);
        assert_eq!(s[0].words, 2);
        assert!((s[0].time - 0.75).abs() < 1e-12);
        assert_eq!(s[1].label, "local-matvec");
        assert_eq!(s[1].flops, 2000);
    }

    #[test]
    fn jsonl_is_one_valid_object_per_event() {
        let mut t = Trace::new();
        t.record(ev(EventKind::AllGather, 100, 0, 1.5, "bcast-p"));
        t.record(ev(EventKind::Compute, 0, 64, 2.0, "he said \"go\"\n"));
        let out = t.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"kind\":\"allgather\",\"participants\":4,\"words\":100,\
             \"flops\":0,\"time\":1.5,\"start\":0,\"span\":\"\",\
             \"label\":\"bcast-p\"}"
        );
        // Quotes and newline in the label are escaped, keeping each
        // record on one line.
        assert!(lines[1].contains("\\\"go\\\""));
        assert!(lines[1].contains("\\n"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn every_kind_has_a_name() {
        for k in EventKind::ALL {
            assert!(!k.name().is_empty());
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
    }

    #[test]
    fn summary_includes_fault_and_barrier_events() {
        let mut t = Trace::new();
        t.record(ev(EventKind::AllReduce, 1, 0, 0.5, "dot-merge"));
        t.record(ev(EventKind::Barrier, 0, 0, 0.2, "sync"));
        t.record(ev(EventKind::Fault, 3, 0, 1.1, "fault-retransmit"));
        t.record(ev(EventKind::Fault, 0, 0, 0.9, "fault-retransmit"));
        let s = t.summary_by_label();
        assert_eq!(s.len(), 3, "barrier and fault labels must appear");
        assert_eq!(s[1].label, "sync");
        assert_eq!(s[1].count, 1);
        assert!((s[1].time - 0.2).abs() < 1e-12);
        assert_eq!(s[2].label, "fault-retransmit");
        assert_eq!(s[2].count, 2);
        assert_eq!(s[2].words, 3);
        assert!((s[2].time - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_by_label_keeps_redistribute_rows_per_level() {
        let mut t = Trace::new();
        let mut fine = ev(EventKind::Redistribute, 100, 0, 1.0, "mg-restrict");
        fine.span = "solve/iter=0/vcycle/level=0/restrict".into();
        let mut coarse = ev(EventKind::Redistribute, 25, 0, 0.5, "mg-restrict");
        coarse.span = "solve/iter=0/vcycle/level=1/restrict".into();
        let mut fine2 = fine.clone();
        fine2.span = "solve/iter=1/vcycle/level=0/restrict".into();
        // A redistribute with no level segment keeps its bare label.
        let plain = ev(EventKind::Redistribute, 7, 0, 0.1, "mg-restrict");
        // A *compute* event under a level span is NOT split: only
        // redistributes get the per-level treatment.
        let mut smooth = ev(EventKind::Compute, 0, 50, 0.2, "mg-smooth");
        smooth.span = "solve/iter=0/vcycle/level=1/smooth".into();
        t.record(fine);
        t.record(coarse);
        t.record(fine2);
        t.record(plain);
        t.record(smooth);
        let s = t.summary_by_label();
        let labels: Vec<&str> = s.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "mg-restrict [level=0]",
                "mg-restrict [level=1]",
                "mg-restrict",
                "mg-smooth"
            ]
        );
        assert_eq!(s[0].count, 2, "both iterations' level-0 rows merge");
        assert_eq!(s[0].words, 200);
        assert_eq!(s[1].words, 25);
        assert_eq!(s[2].words, 7);
    }

    #[test]
    fn digest_totals_are_the_traces() {
        let mut t = Trace::new();
        t.record(ev(EventKind::AllGather, 100, 0, 1.0, "bcast-p"));
        t.record(ev(EventKind::Compute, 7, 2000, 2.0, "local-matvec"));
        t.record(ev(EventKind::Fault, 3, 0, 0.25, "fault:drop:p1:op3"));
        let d = Digest::from_trace(&t);
        assert_eq!(d.events, 3);
        assert_eq!(d.total_time, t.total_time());
        assert_eq!(d.comm_time, t.comm_time());
        assert_eq!(d.compute_time, t.compute_time());
        // A compute event's words are not network traffic.
        assert_eq!(d.total_comm_words, 103);
        assert_eq!(d.total_comm_words, t.total_comm_words());
        assert_eq!(d.by_label, t.summary_by_label());
        let mut cleared = d.clone();
        cleared.clear();
        assert_eq!(cleared, Digest::default());
    }

    #[test]
    fn rows_are_matched_as_the_text_they_print() {
        assert!(row_is("dot-merge", "dot-merge", None));
        assert!(!row_is("dot-merge", "dot", None));
        assert!(!row_is("dot", "dot-merge", None));
        assert!(row_is("mg-halo [level=0]", "mg-halo", Some(0)));
        assert!(row_is("mg-halo [level=12]", "mg-halo", Some(12)));
        assert!(!row_is("mg-halo [level=12]", "mg-halo", Some(2)));
        assert!(!row_is("mg-halo [level=2]", "mg-halo", Some(12)));
        assert!(!row_is("mg-halo [level=02]", "mg-halo", Some(2)));
        assert!(!row_is("mg-halo [level=]", "mg-halo", Some(0)));
        assert!(!row_is("mg-halo [level=1]", "mg-halo", None));
        assert!(!row_is("mg-halo", "mg-halo", Some(1)));
        assert!(!row_is("mg-halo [level=1] ", "mg-halo", Some(1)));
        // The row is its text, whichever way it came about.
        assert!(row_is("x [level=1]", "x [level=1]", None));
        assert!(row_is("x [level=1]", "x", Some(1)));
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let mut t = Trace::new();
        for (i, k) in EventKind::ALL.into_iter().enumerate() {
            let mut e = ev(k, i * 3, i * 7, 0.25 * i as f64, &format!("label-{i}"));
            e.start = 1.5 * i as f64;
            e.span = format!("solve/iter={i}/{}", k.name());
            if k == EventKind::Compute {
                e.proc_times = vec![0.1, 0.2, 0.3, 0.25 * i as f64];
            }
            e.payload_words = i * 3;
            if k == EventKind::Send {
                e.hops = 2;
            }
            t.record(e);
        }
        let text = t.to_jsonl();
        let back = Trace::from_jsonl(&text).expect("round-trip parse");
        assert_eq!(back.len(), t.len());
        // Every field, floats to the bit (their `Debug` form round-trips).
        for (orig, parsed) in t.events().iter().zip(back.events()) {
            assert_eq!(format!("{parsed:?}"), format!("{orig:?}"));
        }
        // Re-serialising the parsed trace reproduces the bytes exactly.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn jsonl_parse_escapes_and_blank_lines() {
        let mut t = Trace::new();
        t.record(ev(EventKind::Compute, 0, 64, 2.0, "he said \"go\"\n"));
        let text = format!("\n{}\n", t.to_jsonl());
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.events()[0].label, "he said \"go\"\n");
    }

    #[test]
    fn jsonl_parse_reports_line_numbers() {
        let mut t = Trace::new();
        t.record(ev(EventKind::Barrier, 0, 0, 0.1, "ok"));
        let text = format!("{}{}", t.to_jsonl(), "{\"kind\":\"warp\"}\n");
        let err = Trace::from_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.why.contains("unknown kind"), "got: {}", err.why);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn clear_resets() {
        let mut t = Trace::new();
        t.record(ev(EventKind::Barrier, 0, 0, 0.1, "b"));
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.total_time(), 0.0);
    }
}
