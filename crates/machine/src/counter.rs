//! A counter several threads bump once per machine operation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes of a [`StripedCounter`].
const STRIPES: usize = 16;

/// One cache line per counter stripe.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe(AtomicU64);

/// A monotonic event counter for paths that several worker threads hit
/// once per machine operation. A single shared counter would ping-pong
/// its cache line between cores on every event, costing more than the
/// work being counted; this one is striped across padded cache lines
/// and each thread bumps its own stripe (assigned round-robin on first
/// use).
#[derive(Debug, Default)]
pub struct StripedCounter {
    stripes: [Stripe; STRIPES],
}

impl StripedCounter {
    pub fn add(&self, n: u64) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
        }
        self.stripes[STRIPE.with(|s| *s)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}
