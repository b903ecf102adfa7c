//! What a [`crate::Machine`] keeps of what it does: it charges an
//! operation (clocks, counters) and hands it, as one [`Op`], to its
//! [`Recorder`], whose [`Recorder::record`] is the one way anything is
//! kept — digest, trace, tail, sink.

use crate::trace::{Digest, Event, EventKind, Trace};

/// How much a [`crate::Machine`] keeps of what it does. Clocks and
/// counters advance identically at every level, and an installed
/// [`EventSink`] sees the same events at every level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLevel {
    /// Keep nothing.
    Off,
    /// Keep no events; fold each operation into a running [`Digest`]
    /// ([`crate::Machine::digest`]) — what a caller that only wants
    /// totals and the per-label breakdown should ask for.
    Summary,
    /// Keep every operation in the [`Trace`].
    Full,
}

/// Callback fired with every event the machine records, *as it happens*,
/// independent of the [`TraceLevel`].
///
/// The event a sink is handed is lent — a scratch event at
/// [`TraceLevel::Full`], a slot of the [`EventTail`] below it — and refilled
/// by a later operation: **a sink must copy what it keeps**.
///
/// This is the live-telemetry tap: where [`crate::ProgressHook`] is a
/// heartbeat (an opaque operation counter), the sink sees the full
/// [`Event`] — kind, span path, cost — so an external bus can stream
/// sampled events out mid-solve instead of waiting for the trace dump at
/// completion. The sink runs on the recording path; implementations
/// should decide quickly (a hash test and a queue push, no I/O).
///
/// A sink may additionally carry a *pre-filter* ([`EventSink::with_filter`]):
/// a `(trace_id, kind) -> keep?` predicate the machine consults once per
/// operation, at every level, *before* anything is filled in for the
/// sink. That is what makes per-job head sampling cheap — a sampled-out
/// job's operations cost one thread-local read and a hash each — and
/// why a sink's body need not sample again.
#[derive(Clone)]
pub struct EventSink {
    emit: std::sync::Arc<dyn Fn(&Event) + Send + Sync>,
    filter: Option<std::sync::Arc<dyn Fn(u64, EventKind) -> bool + Send + Sync>>,
}

impl EventSink {
    pub fn new(f: impl Fn(&Event) + Send + Sync + 'static) -> Self {
        EventSink {
            emit: std::sync::Arc::new(f),
            filter: None,
        }
    }

    /// Attach the head-sampling pre-filter: the sink is lent only the
    /// events it returns `true` for, at every [`TraceLevel`].
    pub fn with_filter(
        mut self,
        f: impl Fn(u64, EventKind) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.filter = Some(std::sync::Arc::new(f));
        self
    }

    /// Offer a built event to the sink.
    pub fn emit(&self, event: &Event) {
        (self.emit)(event);
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

/// The last events a [`crate::Machine`] filled in below
/// [`TraceLevel::Full`]: a ring of slots refilled where they sit, so a
/// slot keeps the capacity its `span`, `label` and `proc_times` have
/// grown to and a warm ring takes an event without allocating. Every
/// machine has one slot, the event it lends its sink below `Full`;
/// [`crate::Machine::keep_tail`] gives it more, and then every event is
/// kept whatever a sink's pre-filter says.
#[derive(Debug, Clone, Default)]
pub struct EventTail {
    slots: Vec<Event>,
    /// The slot the next event is written to: the oldest once full.
    next: usize,
    /// Events written since the tail was last cleared.
    written: u64,
}

impl EventTail {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        EventTail {
            slots: vec![Event::blank(); capacity],
            ..EventTail::default()
        }
    }

    /// The slot the next event goes to, counted as written.
    fn claim_slot(&mut self) -> &mut Event {
        let at = self.next;
        self.next = if at + 1 == self.slots.len() {
            0
        } else {
            at + 1
        };
        self.written += 1;
        &mut self.slots[at]
    }

    /// Forget the events held; the slots keep their buffers.
    pub(crate) fn clear(&mut self) {
        (self.next, self.written) = (0, 0);
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
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        // Until the ring wraps `next` is its length: nothing is older.
        let (newer, older) = self.slots[..self.len()].split_at(self.next);
        older.iter().chain(newer)
    }
}

/// A full tail of exactly these events, oldest first: evidence put
/// together by hand, where no machine ran.
impl From<Vec<Event>> for EventTail {
    fn from(slots: Vec<Event>) -> Self {
        EventTail {
            written: slots.len() as u64,
            next: 0,
            slots,
        }
    }
}

/// One machine operation as its [`Event`] describes it (`payload` is
/// [`Event::payload_words`]), borrowed. `uniform`: one time per
/// participant, each the bits of `time`, whether `proc_times` holds them
/// or not; otherwise empty `proc_times` means none.
pub(crate) struct Op<'a> {
    pub(crate) kind: EventKind,
    pub(crate) participants: usize,
    pub(crate) words: usize,
    pub(crate) payload: usize,
    pub(crate) hops: usize,
    pub(crate) flops: usize,
    pub(crate) time: f64,
    pub(crate) start: f64,
    pub(crate) label: &'a str,
    pub(crate) proc_times: &'a [f64],
    pub(crate) uniform: bool,
}

impl<'a> Op<'a> {
    /// An operation that moves and computes nothing: what every
    /// operation states, the rest filled in by struct update.
    pub(crate) fn new(
        kind: EventKind,
        participants: usize,
        time: f64,
        start: f64,
        label: &'a str,
    ) -> Self {
        Op {
            kind,
            participants,
            words: 0,
            payload: 0,
            hops: 0,
            flops: 0,
            time,
            start,
            label,
            proc_times: &[],
            uniform: false,
        }
    }

    /// The per-processor times, as [`Event::proc_times`] lists them.
    pub(crate) fn times(&self) -> impl Iterator<Item = f64> + '_ {
        let copies = self.participants * usize::from(self.uniform && self.proc_times.is_empty());
        std::iter::repeat_n(self.time, copies).chain(self.proc_times.iter().copied())
    }

    /// Fill `event` in where it sits, all but its span path.
    pub(crate) fn write_to(&self, event: &mut Event) {
        event.kind = self.kind;
        event.participants = self.participants;
        event.words = self.words;
        event.flops = self.flops;
        event.time = self.time;
        event.start = self.start;
        event.label.clear();
        event.label.push_str(self.label);
        event.proc_times.clear();
        event.proc_times.extend(self.times());
        event.payload_words = self.payload;
        event.hops = self.hops;
    }
}

impl<'a> From<&'a Event> for Op<'a> {
    fn from(e: &'a Event) -> Self {
        Op {
            kind: e.kind,
            participants: e.participants,
            words: e.words,
            payload: e.payload_words,
            hops: e.hops,
            flops: e.flops,
            time: e.time,
            start: e.start,
            label: &e.label,
            proc_times: &e.proc_times,
            uniform: false,
        }
    }
}

/// The keeping half of a [`crate::Machine`].
#[derive(Debug, Clone)]
pub(crate) struct Recorder {
    pub(crate) level: TraceLevel,
    pub(crate) trace: Trace,
    /// Running aggregate, kept at [`TraceLevel::Summary`].
    pub(crate) digest: Digest,
    /// Where a wanted event is written below [`TraceLevel::Full`]: one
    /// slot by default, the event lent to the sink; more once
    /// [`crate::Machine::keep_tail`] asked for them.
    pub(crate) tail: EventTail,
    /// Live event tap, independent of `level`.
    pub(crate) sink: Option<EventSink>,
    /// What the sink is lent at [`TraceLevel::Full`], refilled in place.
    lent: Event,
}

impl Recorder {
    /// A recorder that keeps everything, as a new machine does.
    pub(crate) fn new() -> Self {
        Recorder {
            level: TraceLevel::Full,
            trace: Trace::new(),
            digest: Digest::default(),
            tail: EventTail::with_capacity(1),
            sink: None,
            lent: Event::blank(),
        }
    }

    /// Can anything of an operation be kept? False on a machine nobody
    /// is looking at, where recording an operation costs this test.
    #[inline]
    pub(crate) fn is_watching(&self) -> bool {
        self.level != TraceLevel::Off || self.sink.is_some() || self.tail.slots.len() > 1
    }

    /// The one way an operation is recorded. The work is kept out of
    /// line so that the operations' own loops stay small.
    #[inline]
    pub(crate) fn record(&mut self, op: Op<'_>) {
        if self.is_watching() {
            self.keep(op);
        }
    }

    /// At `Summary`, fold the operation into the digest; at `Full`, store
    /// it in the trace. Ask the sink's pre-filter once, and fill in for a
    /// wanting sink (or a kept tail below `Full`) the event it is lent.
    #[inline(never)]
    fn keep(&mut self, op: Op<'_>) {
        if self.level == TraceLevel::Summary {
            self.digest.fold(&op, crate::span::current_level);
        }
        let sink = self.sink.as_ref().filter(|sink| sink.wants(op.kind));
        let event = if self.level == TraceLevel::Full {
            self.trace.keep(&op);
            match sink {
                Some(_) => &mut self.lent,
                None => return,
            }
        } else if sink.is_some() || self.tail.slots.len() > 1 {
            self.tail.claim_slot()
        } else {
            return;
        };
        op.write_to(event);
        crate::span::write_current_path(&mut event.span);
        if let Some(sink) = sink {
            sink.emit(event);
        }
    }
}
