//! Event trace of simulated machine activity.
//!
//! Every communication or bulk-compute operation performed through a
//! [`crate::machine::Machine`] is appended to a trace, so tests and
//! benchmark reports can assert *which* collectives an HPF layout induced
//! and how much traffic each moved — the quantities the paper reasons
//! about in Section 4.

use hpf_json::Obj;

/// The kind of a traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone)]
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

impl Event {
    /// An event with nothing in it: what a slot of the machine's tail, or
    /// a new entry of its trace, holds before the recorder fills it.
    pub(crate) fn blank() -> Event {
        Event {
            kind: EventKind::Compute,
            participants: 0,
            words: 0,
            flops: 0,
            time: 0.0,
            start: 0.0,
            span: String::new(),
            label: String::new(),
            proc_times: Vec::new(),
            payload_words: 0,
            hops: 0,
        }
    }
}

/// Append-only event log with summary accessors.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, ev: Event) {
        self.events.push(ev);
    }

    /// A new last entry for the recorder to fill in where it sits.
    pub(crate) fn next_slot(&mut self) -> &mut Event {
        self.events.push(Event::blank());
        self.events.last_mut().expect("just pushed")
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn clear(&mut self) {
        self.events.clear();
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of events of a given kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Total words moved by events of a given kind.
    pub fn words(&self, kind: EventKind) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.words)
            .sum()
    }

    /// Total words moved by all communication events.
    pub fn total_comm_words(&self) -> usize {
        self.events
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::Compute))
            .map(|e| e.words)
            .sum()
    }

    /// Total simulated time of all events (communication + compute).
    pub fn total_time(&self) -> f64 {
        self.events.iter().map(|e| e.time).sum()
    }

    /// Total simulated communication time.
    pub fn comm_time(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::Compute))
            .map(|e| e.time)
            .sum()
    }

    /// Total simulated computation time.
    pub fn compute_time(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Compute))
            .map(|e| e.time)
            .sum()
    }

    /// Events carrying a given label.
    pub fn with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.label == label)
    }

    /// Aggregate the trace per label, in first-appearance order. This is
    /// the per-operation breakdown a solve produces ("dot-merge" cost vs
    /// "matvec-bcast" cost, ...), compact enough to ship in a response:
    /// the rows of [`Digest::from_trace`], whose [`Digest::fold`] states
    /// the aggregation rules.
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
        for e in &self.events {
            let mut o = Obj::new(&mut out);
            o.str("kind", e.kind.name())
                .u64("participants", e.participants as u64)
                .u64("words", e.words as u64)
                .u64("flops", e.flops as u64)
                .f64("time", e.time)
                .f64("start", e.start)
                .str("span", &e.span)
                .str("label", &e.label);
            if !e.proc_times.is_empty() {
                let mut times = o.arr("proc_times");
                for &t in &e.proc_times {
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
    let mut ev = Event::blank();
    for (key, v) in doc.members().ok_or("expected a JSON object")? {
        let bad = || format!("bad value for '{key}'");
        let count = || v.as_u64().map(|n| n as usize).ok_or_else(bad);
        match key.as_ref() {
            "kind" => {
                let name = v.as_str().ok_or_else(bad)?;
                kind = Some(EventKind::from_name(name).ok_or(format!("unknown kind '{name}'"))?);
            }
            "participants" => ev.participants = count()?,
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
            "hops" => ev.hops = count()?,
            other => return Err(format!("unexpected key '{other}'")),
        }
    }
    ev.kind = kind.ok_or("missing 'kind'")?;
    Ok(ev)
}

/// Per-label aggregate over a trace (see [`Trace::summary_by_label`]).
#[derive(Debug, Clone, PartialEq)]
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

impl LabelSummary {
    fn empty(label: String) -> Self {
        LabelSummary {
            label,
            count: 0,
            words: 0,
            flops: 0,
            time: 0.0,
        }
    }

    fn add(&mut self, words: usize, flops: usize, time: f64) {
        self.count += 1;
        self.words += words;
        self.flops += flops;
        self.time += time;
    }
}

/// Totals plus the per-label breakdown of a run: what a
/// [`crate::Machine`] keeps at [`crate::TraceLevel::Summary`] instead of
/// events, and what [`Digest::from_trace`] computes from a stored trace.
/// Both go through [`Digest::fold`], one operation at a time in record
/// order, so the two are equal field for field, bit for bit.
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
        for e in trace.events() {
            digest.fold(e.kind, e.words, e.flops, e.time, &e.label, || {
                crate::span::level_of(&e.span)
            });
        }
        digest
    }

    /// Fold one operation in. `level` reports the `level=L` segment of
    /// the span the operation ran under (see [`crate::span::level_of`]);
    /// it is only asked for `Redistribute` events.
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
    ///
    /// A row that exists is found by comparing text in place; a `String`
    /// is built only when a new row appears.
    pub fn fold(
        &mut self,
        kind: EventKind,
        words: usize,
        flops: usize,
        time: f64,
        label: &str,
        level: impl FnOnce() -> Option<usize>,
    ) {
        self.events += 1;
        self.total_time += time;
        if kind == EventKind::Compute {
            self.compute_time += time;
        } else {
            self.comm_time += time;
            self.total_comm_words += words;
        }
        let level = if kind == EventKind::Redistribute {
            level()
        } else {
            None
        };
        let row = match self
            .by_label
            .iter()
            .position(|row| row_is(&row.label, label, level))
        {
            Some(i) => i,
            None => {
                self.by_label.push(LabelSummary::empty(match level {
                    Some(l) => format!("{label} [level={l}]"),
                    None => label.to_string(),
                }));
                self.by_label.len() - 1
            }
        };
        self.by_label[row].add(words, flops, time);
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
        Event {
            kind,
            participants: 4,
            words,
            flops,
            time,
            start: 0.0,
            span: String::new(),
            label: label.to_string(),
            proc_times: Vec::new(),
            payload_words: 0,
            hops: 0,
        }
    }

    #[test]
    fn counts_and_sums() {
        let mut t = Trace::new();
        t.record(ev(EventKind::AllGather, 100, 0, 1.0, "bcast-p"));
        t.record(ev(EventKind::AllReduce, 1, 0, 0.5, "dot-merge"));
        t.record(ev(EventKind::Compute, 0, 2000, 2.0, "local-matvec"));
        assert_eq!(t.len(), 3);
        assert_eq!(t.count(EventKind::AllGather), 1);
        assert_eq!(t.words(EventKind::AllGather), 100);
        assert_eq!(t.total_comm_words(), 101);
        assert!((t.total_time() - 3.5).abs() < 1e-12);
        assert!((t.comm_time() - 1.5).abs() < 1e-12);
        assert!((t.compute_time() - 2.0).abs() < 1e-12);
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
        for k in [
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
        ] {
            assert!(!k.name().is_empty());
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
        for (orig, parsed) in t.events().iter().zip(back.events()) {
            assert_eq!(parsed.kind.name(), orig.kind.name());
            assert_eq!(parsed.participants, orig.participants);
            assert_eq!(parsed.words, orig.words);
            assert_eq!(parsed.flops, orig.flops);
            assert!((parsed.time - orig.time).abs() < 1e-12);
            assert!((parsed.start - orig.start).abs() < 1e-12);
            assert_eq!(parsed.span, orig.span);
            assert_eq!(parsed.label, orig.label);
            assert_eq!(parsed.proc_times.len(), orig.proc_times.len());
            assert_eq!(parsed.payload_words, orig.payload_words);
            assert_eq!(parsed.hops, orig.hops);
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
