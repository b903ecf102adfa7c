//! Thread-local span stack — hierarchical context for traced events.
//!
//! Observability needs to know *why* the machine performed an operation,
//! not just what it cost: the same `dot-merge` allreduce means something
//! different inside iteration 3 of a solve than inside convergence
//! verification after a fault. Spans provide that context. A caller
//! enters a scope ([`enter`]), every event the [`crate::Machine`]
//! records while the guard lives is stamped with the current span *path*
//! (segments joined by `/`, e.g. `solve/iter=12/matvec`), and the scope
//! pops when the guard drops.
//!
//! The stack is thread-local, so concurrent solves on worker threads
//! (the `hpf-service` pool) each carry their own paths with zero
//! synchronisation. It is kept *as* the joined path: entering a span
//! appends its segment to one per-thread buffer and leaving truncates
//! it, so neither allocates once the buffer has grown to the deepest
//! path, and asking for the path ([`current_path`]) is one copy, however
//! deep the stack.
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
use std::thread::ThreadId;

/// The active spans of one thread.
#[derive(Debug)]
struct Stack {
    /// The segments joined by `/`.
    path: String,
    /// Length `path` had before each segment (and its separator) was
    /// appended: where to truncate to when that span is left.
    starts: Vec<usize>,
    /// [`trace_of`] `path`, with the depth of the segment it was read
    /// from: parsed when that segment is entered, so that a sampling
    /// pre-filter asking once per machine operation reads a field.
    trace: Option<(usize, u64)>,
    /// This thread, once [`path_id`] asked, and entries plus exits so far.
    thread: Option<ThreadId>,
    version: u64,
}

thread_local! {
    static STACK: RefCell<Stack> = const {
        RefCell::new(Stack {
            path: String::new(),
            starts: Vec::new(),
            trace: None,
            thread: None,
            version: 0,
        })
    };
}

/// A state of one thread's span stack (see [`path_id`]).
pub(crate) type PathKey = (ThreadId, u64);

/// Append one segment, written by `write`, to the thread's path.
fn push(write: impl FnOnce(&mut String)) -> ScopeGuard {
    let depth = STACK.with(|s| {
        let stack = &mut *s.borrow_mut();
        stack.version += 1;
        stack.starts.push(stack.path.len());
        if stack.starts.len() > 1 {
            stack.path.push('/');
        }
        let segment_at = stack.path.len();
        write(&mut stack.path);
        let depth = stack.starts.len();
        if stack.trace.is_none() {
            stack.trace = trace_of(&stack.path[segment_at..]).map(|id| (depth, id));
        }
        depth
    });
    ScopeGuard { depth }
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
            let stack = &mut *s.borrow_mut();
            // Already popped when a guard entered earlier dropped first.
            if let Some(&start) = stack.starts.get(self.depth - 1) {
                stack.version += 1;
                stack.starts.truncate(self.depth - 1);
                stack.path.truncate(start);
                if stack.trace.is_some_and(|(depth, _)| depth >= self.depth) {
                    stack.trace = None;
                }
            }
        });
    }
}

/// Enter a span scope: `let _g = span::enter("solve");`; it pops when
/// the returned guard drops. Slashes are replaced by `:`, so a segment
/// can never fake extra path levels.
pub fn enter(segment: impl Into<Cow<'static, str>>) -> ScopeGuard {
    let segment = segment.into();
    match segment.contains('/') {
        true => push(|path| path.push_str(&segment.replace('/', ":"))),
        false => push(|path| path.push_str(&segment)),
    }
}

/// Enter the span of solver iteration `k`; its path segment reads
/// `iter=<k>`, exactly as `enter(format!("iter={k}"))` would, without
/// the temporary `String`.
pub fn enter_iter(k: usize) -> ScopeGuard {
    push(|path| write!(path, "iter={k}").expect("writing to a String"))
}

/// The current span path — segments joined with `/`, empty when no span
/// is active. This is the string stamped on every traced [`crate::Event`].
pub fn current_path() -> String {
    STACK.with(|s| s.borrow().path.clone())
}

/// The id `intern` gives the current path, asked only when this thread's
/// stack has moved since `cache` was filled, or `cache` is another's.
pub(crate) fn path_id(cache: &mut Option<(PathKey, u32)>, intern: impl FnOnce(&str) -> u32) -> u32 {
    STACK.with(|s| {
        let stack = &mut *s.borrow_mut();
        let thread = *stack
            .thread
            .get_or_insert_with(|| std::thread::current().id());
        let key = (thread, stack.version);
        match *cache {
            Some((cached, id)) if cached == key => id,
            _ => cache.insert((key, intern(&stack.path))).1,
        }
    })
}

/// Number of active spans on this thread.
pub fn depth() -> usize {
    STACK.with(|s| s.borrow().starts.len())
}

/// [`trace_of`] the *current* thread's span path. The streaming tap
/// consults this before filling in an event, so a head-sampled-out job
/// pays a field read and a hash per machine operation, not a parse.
pub fn current_trace() -> Option<u64> {
    STACK.with(|s| s.borrow().trace.map(|(_, id)| id))
}

/// [`level_of`] the *current* thread's span path, read where it sits.
pub fn current_level() -> Option<usize> {
    STACK.with(|s| level_of(&s.borrow().path))
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
        let _s = enter("a/b");
        assert_eq!((current_path().as_str(), depth()), ("a:b", 1));
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
    fn current_trace_follows_entering_and_leaving() {
        let _junk = enter("trace=not-hex");
        assert_eq!(current_trace(), None);
        {
            let _a = enter("trace=0a");
            let _b = enter("trace=0b");
            assert_eq!(current_trace(), Some(0x0a), "the first that parses");
            assert_eq!(current_trace(), trace_of(&current_path()));
        }
        assert_eq!(current_trace(), None, "left with its span");
        let outer = enter("trace=0c");
        let inner = enter("solve");
        assert_eq!(current_trace(), Some(0x0c));
        // Out of order: dropping the outer guard pops the inner span too.
        drop(outer);
        assert_eq!(current_trace(), None);
        drop(inner);
        let _again = enter("trace=0d");
        assert_eq!(current_trace(), Some(0x0d));
    }

    #[test]
    fn in_place_readers_agree_with_the_joined_path() {
        assert_eq!(current_level(), None);
        let _v = enter("vcycle");
        let _bad = enter("level=fine");
        assert_eq!(current_level(), level_of(&current_path()));
        let _i = enter_iter(7);
        let _l = enter("level=2");
        let _inner = enter("level=3");
        assert_eq!(current_path(), "vcycle/level=fine/iter=7/level=2/level=3");
        assert_eq!(current_level(), Some(2));
        assert_eq!(current_level(), level_of(&current_path()));
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
