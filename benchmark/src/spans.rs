//! The traced pass: an in-memory span buffer, wrappers that record one
//! span per call across a layer boundary without touching library code,
//! self-time, and the JSONL writer.

use hpf::core::DistVector;
use hpf::dist::ArrayDescriptor;
use hpf::machine::Machine;
use hpf::solvers::{DistOperator, DistPreconditioner};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One recorded interval. `parent` is the index of the span that was
/// open when this one began; spans of one rep or request share `trace`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span buffer of one thread. Spans are kept in memory and written out
/// when the benchmark ends.
pub struct SpanBuf {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
    trace: Cell<u64>,
}

impl SpanBuf {
    pub fn new() -> Self {
        SpanBuf {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
            trace: Cell::new(0),
        }
    }

    /// Nanoseconds since this buffer was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans recorded from now on carry this trace id.
    pub fn set_trace(&self, trace: u64) {
        self.trace.set(trace);
    }

    /// Time `f` as a span named `name`, a child of the span open now.
    pub fn record<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.open.get();
        // Reserved before the call so that child spans can name it.
        let index = self.push(name, 0, 0, parent);
        self.open.set(Some(index));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.open.set(parent);
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start_ns;
        spans[index].end_ns = end_ns;
        out
    }

    /// Add a span whose interval is already known (one that is not a
    /// single call, or a duration the program reports); returns its index.
    pub fn push(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace: self.trace.get(),
        });
        spans.len() - 1
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let self_ns = self_times_ns(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trace, self_ns[i]
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus what its child spans cover.
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Totals of the spans of one name within one trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum {
    pub ms: f64,
    pub self_ms: f64,
    pub calls: u64,
}

/// For every trace id, the totals of its spans by name.
pub fn sums_by_trace(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, Sum>> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<u64, BTreeMap<&'static str, Sum>> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let sum = out.entry(s.trace).or_default().entry(s.name).or_default();
        sum.ms += s.ms();
        sum.self_ms += own_ns as f64 / 1e6;
        sum.calls += 1;
    }
    out
}

/// Where a workload's spans go: `benchmark/out/<workload>.spans.jsonl`.
pub fn spans_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.jsonl"))
}

/// Delegates to a real operator and records one span per product.
pub struct TimedOperator<'a, A: DistOperator + ?Sized> {
    pub inner: &'a A,
    pub spans: &'a SpanBuf,
    pub name: &'static str,
}

impl<A: DistOperator + ?Sized> DistOperator for TimedOperator<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply(&self, machine: &mut Machine, p: &DistVector) -> DistVector {
        self.spans
            .record(self.name, || self.inner.apply(machine, p))
    }
    fn apply_transpose(&self, machine: &mut Machine, p: &DistVector) -> DistVector {
        self.spans
            .record(self.name, || self.inner.apply_transpose(machine, p))
    }
    fn descriptor(&self) -> ArrayDescriptor {
        self.inner.descriptor()
    }
    fn diagonal(&self) -> Vec<f64> {
        self.inner.diagonal()
    }
}

/// Delegates to a real preconditioner and records one span per application.
pub struct TimedPreconditioner<'a, M: DistPreconditioner + ?Sized> {
    pub inner: &'a M,
    pub spans: &'a SpanBuf,
    pub name: &'static str,
}

impl<M: DistPreconditioner + ?Sized> DistPreconditioner for TimedPreconditioner<'_, M> {
    fn apply(&self, machine: &mut Machine, r: &DistVector) -> DistVector {
        self.spans
            .record(self.name, || self.inner.apply(machine, r))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
