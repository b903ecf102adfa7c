//! Thread-local span stack — hierarchical context for traced events.
//!
//! Observability needs to know *why* the machine performed an operation,
//! not just what it cost: the same `dot-merge` allreduce means something
//! different inside iteration 3 of a solve than inside convergence
//! verification after a fault. Spans provide that context. A caller
//! enters a scope ([`enter`] or [`Span::enter`]), every event the
//! [`crate::Machine`] records while the guard lives is stamped with the
//! current span *path* (segments joined by `/`, e.g.
//! `solve/iter=12/matvec`), and the scope pops when the guard drops.
//!
//! The stack is thread-local, so concurrent solves on worker threads
//! (the `hpf-service` pool) each carry their own paths with zero
//! synchronisation. The fast path — no spans entered — is a single
//! thread-local borrow returning an empty string. Entering a span with a
//! literal name, or an iteration span ([`enter_iter`]), allocates
//! nothing: text is only built when a path is asked for.
//!
//! ```
//! use hpf_machine::span;
//!
//! assert_eq!(span::current_path(), "");
//! let _solve = span::enter("solve");
//! {
//!     let _iter = span::enter("iter=12");
//!     let _mv = span::enter("matvec");
//!     assert_eq!(span::current_path(), "solve/iter=12/matvec");
//! }
//! assert_eq!(span::current_path(), "solve");
//! ```

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt::Write;

/// One entry of the stack. Iteration spans keep their number and are
/// formatted (`iter=<k>`) only where a path is built.
#[derive(Debug)]
enum Segment {
    Text(Cow<'static, str>),
    Iter(usize),
}

thread_local! {
    static STACK: RefCell<Vec<Segment>> = const { RefCell::new(Vec::new()) };
}

fn push(segment: Segment) -> ScopeGuard {
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(segment);
        s.len()
    });
    ScopeGuard { depth }
}

/// A named span segment, ready to be entered. Mostly useful when a span
/// is constructed in one place and entered in another; for the common
/// case use the free function [`enter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    segment: Cow<'static, str>,
}

impl Span {
    /// Create a span with one path segment. Slashes are replaced by `:`
    /// so a segment can never fake extra path levels.
    pub fn new(segment: impl Into<Cow<'static, str>>) -> Self {
        let mut segment = segment.into();
        if segment.contains('/') {
            segment = Cow::Owned(segment.replace('/', ":"));
        }
        Span { segment }
    }

    pub fn segment(&self) -> &str {
        &self.segment
    }

    /// Push this span onto the current thread's stack; it pops when the
    /// returned guard drops.
    pub fn enter(self) -> ScopeGuard {
        push(Segment::Text(self.segment))
    }
}

/// RAII guard for an entered span: pops its segment (and, defensively,
/// anything entered after it that leaked) on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    /// Stack depth *including* this span's segment.
    depth: usize,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.truncate(self.depth.saturating_sub(1));
        });
    }
}

/// Enter a span scope: `let _g = span::enter("solve");`.
pub fn enter(segment: impl Into<Cow<'static, str>>) -> ScopeGuard {
    Span::new(segment).enter()
}

/// Enter the span of solver iteration `k`; its path segment reads
/// `iter=<k>`, exactly as `enter(format!("iter={k}"))` would.
pub fn enter_iter(k: usize) -> ScopeGuard {
    push(Segment::Iter(k))
}

/// The current span path — segments joined with `/`, empty when no span
/// is active. This is the string stamped on every traced [`crate::Event`].
pub fn current_path() -> String {
    STACK.with(|s| {
        let stack = s.borrow();
        // Exact size up front, as `join` had: one allocation, no slack
        // kept alive in a stored trace.
        let len: usize = stack
            .iter()
            .map(|seg| match seg {
                Segment::Text(t) => t.len() + 1,
                Segment::Iter(k) => "iter=".len() + decimal_digits(*k) + 1,
            })
            .sum();
        let mut path = String::with_capacity(len.saturating_sub(1));
        for (i, seg) in stack.iter().enumerate() {
            if i > 0 {
                path.push('/');
            }
            match seg {
                Segment::Text(t) => path.push_str(t),
                Segment::Iter(k) => write!(path, "iter={k}").expect("writing to a String"),
            }
        }
        path
    })
}

fn decimal_digits(k: usize) -> usize {
    k.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Number of active spans on this thread.
pub fn depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

/// The trace id on the *current* thread's span stack — the first
/// `trace=<hex>` segment, scanned in place without building the joined
/// path. The streaming tap consults this before constructing an event,
/// so head-sampled-out jobs pay no allocation per machine operation.
pub fn current_trace() -> Option<u64> {
    STACK.with(|s| {
        s.borrow().iter().find_map(|seg| match seg {
            Segment::Text(t) => u64::from_str_radix(t.strip_prefix("trace=")?, 16).ok(),
            Segment::Iter(_) => None,
        })
    })
}

/// The multigrid level of a span path: the numeric suffix of its first
/// `level=L` segment (`solve/iter=3/vcycle/level=2/smooth` → `Some(2)`).
/// `None` when no such segment exists or the suffix is not a number.
pub fn level_of(span: &str) -> Option<usize> {
    span.split('/')
        .find_map(|seg| seg.strip_prefix("level=")?.parse().ok())
}

/// The trace id of a span path: the hex suffix of its first
/// `trace=<hex>` segment (`trace=00c0ffee/solve/matvec` →
/// `Some(0x00c0ffee)`). `None` when no such segment exists or the
/// suffix is not hex. The service stamps this segment on the worker
/// thread so every event a solve records carries the request's id.
pub fn trace_of(span: &str) -> Option<u64> {
    span.split('/')
        .find_map(|seg| u64::from_str_radix(seg.strip_prefix("trace=")?, 16).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stack_yields_empty_path() {
        assert_eq!(current_path(), "");
        assert_eq!(depth(), 0);
    }

    #[test]
    fn nesting_builds_slash_separated_paths() {
        let _a = enter("solve");
        assert_eq!(current_path(), "solve");
        {
            let _b = enter("iter=3");
            let _c = enter("matvec");
            assert_eq!(current_path(), "solve/iter=3/matvec");
            assert_eq!(depth(), 3);
        }
        assert_eq!(current_path(), "solve");
    }

    #[test]
    fn iteration_spans_read_like_formatted_ones() {
        let _a = enter("solve");
        let by_number = {
            let _i = enter_iter(12);
            let _m = enter("matvec");
            current_path()
        };
        let by_text = {
            let _i = enter(format!("iter={}", 12));
            let _m = enter("matvec");
            current_path()
        };
        assert_eq!(by_number, "solve/iter=12/matvec");
        assert_eq!(by_number, by_text);
        let _i = enter_iter(3);
        assert_eq!(current_trace(), None);
        for k in [0, 9, 10, 99, 100, 12_345] {
            let _k = enter_iter(k);
            assert!(current_path().ends_with(&format!("/iter=3/iter={k}")));
        }
    }

    #[test]
    fn guard_drop_restores_depth_even_out_of_order() {
        let a = enter("outer");
        let b = enter("inner");
        // Dropping the outer guard first truncates past the inner one.
        drop(a);
        assert_eq!(current_path(), "");
        drop(b);
        assert_eq!(current_path(), "");
    }

    #[test]
    fn segments_cannot_inject_separators() {
        let s = Span::new("a/b");
        assert_eq!(s.segment(), "a:b");
    }

    #[test]
    fn trace_of_parses_first_hex_trace_segment() {
        assert_eq!(trace_of("trace=00c0ffee/solve/matvec"), Some(0x00c0_ffee));
        assert_eq!(trace_of("job=3/trace=ff/iter=1"), Some(0xff));
        assert_eq!(trace_of("solve/iter=3/matvec"), None);
        assert_eq!(trace_of("trace=not-hex/solve"), None);
        assert_eq!(trace_of(""), None);
    }

    #[test]
    fn current_trace_reads_the_live_stack_without_joining() {
        assert_eq!(current_trace(), None);
        let _t = enter("trace=00c0ffee");
        let _s = enter("solve");
        assert_eq!(current_trace(), Some(0x00c0_ffee));
        assert_eq!(trace_of(&current_path()), current_trace());
    }

    #[test]
    fn spans_are_thread_local() {
        let _main = enter("main-thread");
        std::thread::spawn(|| {
            assert_eq!(current_path(), "");
            let _w = enter("worker");
            assert_eq!(current_path(), "worker");
        })
        .join()
        .unwrap();
        assert_eq!(current_path(), "main-thread");
    }
}
