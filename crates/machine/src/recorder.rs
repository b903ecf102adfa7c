//! What a [`crate::Machine`] keeps of what it does: it charges an
//! operation (clocks, counters) and hands it, as one [`EventRef`], to its
//! [`Recorder`], whose [`Recorder::record`] is the one way anything is
//! kept — digest, trace, tail, sink.

use crate::trace::{Digest, Event, EventKind, Row, Trace, UNIFORM};

/// How much a [`crate::Machine`] keeps of what it does. Clocks and
/// counters advance identically at every level, and an installed
/// [`EventSink`] sees the same events at every level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// Keep nothing.
    Off,
    /// Keep no events; fold each operation into a running [`Digest`]
    /// ([`crate::Machine::digest`]) — what a caller that only wants
    /// totals and the per-label breakdown should ask for.
    Summary,
    /// Keep every operation in the [`Trace`]: what a new machine does.
    #[default]
    Full,
}

/// Callback fired with every event the machine records, *as it happens*,
/// independent of the [`TraceLevel`].
///
/// A sink is handed a borrowed [`EventRef`] for the duration of the
/// call: at [`TraceLevel::Full`] the view of the trace row just stored,
/// below it the view of the [`EventTail`]'s newest slot.
///
/// This is the live-telemetry tap: where [`crate::ProgressHook`] is a
/// heartbeat (an opaque operation counter), the sink sees the whole
/// event — kind, span path, cost — so an external bus can stream
/// sampled events out mid-solve instead of waiting for the trace dump at
/// completion. The sink runs on the recording path; implementations
/// should decide quickly (a hash test and a queue push, no I/O).
///
/// A sink may additionally carry a *pre-filter* ([`EventSink::with_filter`]):
/// a `(trace_id, kind) -> keep?` predicate the machine consults once per
/// operation, at every level, *before* anything is stored for the
/// sink. That is what makes per-job head sampling cheap — a sampled-out
/// job's operations cost one thread-local read and a hash each — and
/// why a sink's body need not sample again.
#[derive(Clone)]
pub struct EventSink {
    emit: std::sync::Arc<dyn Fn(&EventRef<'_>) + Send + Sync>,
    filter: Option<std::sync::Arc<dyn Fn(u64, EventKind) -> bool + Send + Sync>>,
}

impl EventSink {
    pub fn new(f: impl Fn(&EventRef<'_>) + Send + Sync + 'static) -> Self {
        EventSink {
            emit: std::sync::Arc::new(f),
            filter: None,
        }
    }

    /// Attach the head-sampling pre-filter: the sink is handed only the
    /// events it returns `true` for, at every [`TraceLevel`].
    pub fn with_filter(
        mut self,
        f: impl Fn(u64, EventKind) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.filter = Some(std::sync::Arc::new(f));
        self
    }

    /// Would the sink keep an event of `kind` for the calling thread's
    /// current trace id? No filter means yes.
    pub fn wants(&self, kind: EventKind) -> bool {
        match &self.filter {
            None => true,
            Some(f) => f(crate::span::current_trace().unwrap_or(0), kind),
        }
    }
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventSink(..)")
    }
}

/// The last events a [`crate::Machine`] recorded below
/// [`TraceLevel::Full`], in a ring of slots written in turn, oldest
/// first: a write is a few stores and two short copies into one slot,
/// with no search and no interning. A machine with a sink has a tail of
/// one, the slot its sink is shown below `Full`;
/// [`crate::Machine::keep_tail`] gives it more, and then every event is
/// kept whatever a sink's pre-filter says.
#[derive(Debug, Clone, Default)]
pub struct EventTail {
    pub(crate) slots: Vec<Slot>,
    /// Per slot, a label and a times vector too long for it, reused.
    spills: Vec<(Vec<u8>, Vec<f64>)>,
    /// Span paths, written in turn like the slots but only when the
    /// calling thread's span stack has moved since the last one: a slot
    /// names its path here, and a path is overwritten only after every
    /// slot that names it.
    paths: Vec<String>,
    /// The newest of `paths`, and the span stack state it was read in.
    path: usize,
    span_cache: Option<(crate::span::PathKey, u32)>,
    /// The slot written next.
    at: usize,
    /// Events written since the tail was last cleared.
    written: u64,
}

/// One event of an [`EventTail`]: its row, naming its path in the tail's
/// `paths`, and how much of the arrays here its label and times fill, or
/// [`SPILLED`] (or, for the times, [`UNIFORM`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Slot {
    row: Row,
    label: [u8; 16],
    times: [f64; 8],
}

/// A slot's label or times are in its spill buffer.
const SPILLED: u32 = u32::MAX;

/// `from` in `inline` if it fits, else in `spill`: its length or [`SPILLED`].
fn stash<T: Copy>(from: &[T], inline: &mut [T], spill: &mut Vec<T>) -> u32 {
    if let Some(to) = inline.get_mut(..from.len()) {
        to.copy_from_slice(from);
        return from.len() as u32;
    }
    spill.clear();
    spill.extend_from_slice(from);
    SPILLED
}

impl EventTail {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        EventTail {
            slots: vec![Slot::default(); capacity],
            spills: vec![Default::default(); capacity],
            paths: vec![String::new(); capacity],
            ..EventTail::default()
        }
    }

    /// Store `op` in the oldest slot, under the span path `span`, or the
    /// calling thread's when that is `None`; return the slot.
    fn write(&mut self, op: &EventRef<'_>, span: Option<&str>) -> usize {
        let (paths, newest) = (&mut self.paths, &mut self.path);
        let mut next_path = |path: &str| {
            let next = *newest + 1;
            *newest = if next < paths.len() { next } else { 0 };
            paths[*newest].clear();
            paths[*newest].push_str(path);
            *newest as u32
        };
        let path = match span {
            Some(span) => next_path(span),
            None => crate::span::path_id(&mut self.span_cache, next_path),
        };
        let at = self.at;
        self.at = if at + 1 < self.slots.len() { at + 1 } else { 0 };
        self.written += 1;
        let (slot, (text, times)) = (&mut self.slots[at], &mut self.spills[at]);
        let label = stash(op.label.as_bytes(), &mut slot.label, text);
        let times = match op.uniform {
            true => UNIFORM,
            false => stash(op.proc_times, &mut slot.times, times),
        };
        slot.row = Row::new(op, path, label, times);
        at
    }

    /// The event slot `at` holds.
    fn slot(&self, at: usize) -> EventRef<'_> {
        let (slot, (text, times)) = (&self.slots[at], &self.spills[at]);
        let row = &slot.row;
        let label = match row.label {
            SPILLED => text,
            len => &slot.label[..len as usize],
        };
        let times = match row.times {
            SPILLED => times,
            UNIFORM => &[][..],
            len => &slot.times[..len as usize],
        };
        let label = std::str::from_utf8(label).expect("a label stored whole");
        row.view(&self.paths[row.span as usize], label, times)
    }

    /// Forget the events held; the slots and buffers stay, and the next
    /// events are written where the last cleared tail's were.
    pub(crate) fn clear(&mut self) {
        (self.at, self.written, self.path, self.span_cache) = (0, 0, 0, None);
    }

    pub fn len(&self) -> usize {
        self.slots.len().min(self.written as usize)
    }

    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    /// Events written since the tail was last cleared and overwritten
    /// since.
    pub fn overwritten(&self) -> u64 {
        self.written - self.len() as u64
    }

    /// The events held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = EventRef<'_>> {
        let (len, capacity) = (self.len(), self.slots.len());
        let oldest = if len < capacity { 0 } else { self.at };
        (0..len).map(move |i| self.slot((oldest + i) % capacity))
    }
}

/// A full tail of exactly these events, oldest first: evidence put
/// together by hand, where no machine ran.
impl From<Vec<Event>> for EventTail {
    fn from(events: Vec<Event>) -> Self {
        let mut tail = EventTail::with_capacity(events.len());
        for e in &events {
            tail.write(&EventRef::from(e), Some(&e.span));
        }
        tail
    }
}

/// One machine operation, borrowed: what an operation hands
/// [`Recorder::record`], what a sink is shown, and what [`Trace::iter`]
/// yields of each stored row. [`Event`] is its owned form.
///
/// The per-processor times are [`EventRef::times`]: with `uniform`, one
/// per participant, each the bits of `time`, whether `proc_times` holds
/// them or not; otherwise `proc_times`, empty meaning none.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventRef<'a> {
    pub kind: EventKind,
    pub participants: usize,
    pub words: usize,
    pub flops: usize,
    pub time: f64,
    pub start: f64,
    /// The span path; empty on the way into the recorder, which stores
    /// the calling thread's.
    pub span: &'a str,
    pub label: &'a str,
    pub proc_times: &'a [f64],
    pub uniform: bool,
    pub payload_words: usize,
    pub hops: usize,
}

impl<'a> EventRef<'a> {
    /// An operation that moves and computes nothing: what every
    /// operation states, the rest filled in by struct update.
    pub fn new(
        kind: EventKind,
        participants: usize,
        time: f64,
        start: f64,
        label: &'a str,
    ) -> Self {
        EventRef {
            kind,
            participants,
            time,
            start,
            label,
            ..EventRef::default()
        }
    }

    /// The per-processor times, as [`Event::proc_times`] lists them.
    pub fn times(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        let (time, times) = (self.time, self.proc_times);
        let copies = self.uniform && times.is_empty();
        let len = if copies {
            self.participants
        } else {
            times.len()
        };
        (0..len).map(move |p| if copies { time } else { times[p] })
    }

    /// The owned event.
    pub fn to_event(&self) -> Event {
        Event {
            kind: self.kind,
            participants: self.participants,
            words: self.words,
            flops: self.flops,
            time: self.time,
            start: self.start,
            span: self.span.to_string(),
            label: self.label.to_string(),
            proc_times: self.times().collect(),
            payload_words: self.payload_words,
            hops: self.hops,
        }
    }
}

impl<'a> From<&'a Event> for EventRef<'a> {
    fn from(e: &'a Event) -> Self {
        EventRef {
            kind: e.kind,
            participants: e.participants,
            words: e.words,
            flops: e.flops,
            time: e.time,
            start: e.start,
            span: &e.span,
            label: &e.label,
            proc_times: &e.proc_times,
            uniform: false,
            payload_words: e.payload_words,
            hops: e.hops,
        }
    }
}

/// The keeping half of a [`crate::Machine`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Recorder {
    pub(crate) level: TraceLevel,
    pub(crate) trace: Trace,
    /// Running aggregate, kept at [`TraceLevel::Summary`].
    pub(crate) digest: Digest,
    /// Where a wanted event is written below [`TraceLevel::Full`]: one
    /// slot once there is a sink, the one it is shown; more once
    /// [`crate::Machine::keep_tail`] asked for them.
    pub(crate) tail: EventTail,
    /// Live event tap, independent of `level`.
    pub(crate) sink: Option<EventSink>,
}

impl Recorder {
    /// Can anything of an operation be kept? False on a machine nobody
    /// is looking at, where recording an operation costs this test.
    #[inline]
    pub(crate) fn is_watching(&self) -> bool {
        self.level != TraceLevel::Off || self.sink.is_some() || self.tail.slots.len() > 1
    }

    /// The one way an operation is recorded. The work is kept out of
    /// line so that the operations' own loops stay small.
    #[inline]
    pub(crate) fn record(&mut self, op: EventRef<'_>) {
        if self.is_watching() {
            self.keep(op);
        }
    }

    /// At `Summary`, fold the operation into the digest. Ask the sink's
    /// pre-filter once; store the operation as a row of the trace at
    /// `Full`, in the tail below it for a wanting sink or a kept tail,
    /// and show a wanting sink what was stored.
    #[inline(never)]
    fn keep(&mut self, op: EventRef<'_>) {
        if self.level == TraceLevel::Summary {
            self.digest.fold(&op, crate::span::current_level);
        }
        let sink = self.sink.as_ref().filter(|sink| sink.wants(op.kind));
        if self.level == TraceLevel::Full {
            self.trace.keep(&op);
            if let Some(sink) = sink {
                (sink.emit)(&self.trace.row(self.trace.len() - 1));
            }
        } else if sink.is_some() || self.tail.slots.len() > 1 {
            let at = self.tail.write(&op, None);
            if let Some(sink) = sink {
                (sink.emit)(&self.tail.slot(at));
            }
        }
    }
}
