//! The host-speed reference. The machines this benchmark runs on are a
//! few cores of a shared host whose speed moves by a third or more for
//! minutes at a time, whatever the program under test does. So next to
//! every timed operation the benchmark times a fixed piece of its own
//! work — a plain CSR product over small arrays it builds itself, sharing
//! no code with the library — and states every gated time at the speed of a
//! reference machine that does one multiply-add of that loop per
//! nanosecond. A change to the library cannot move the reference; a slow
//! phase of the host moves both and cancels.

use crate::util::{median, secs};
use std::hint::black_box;
use std::time::Instant;

/// What the reference machine needs for one nonzero of the plain loop.
const NOMINAL_NS_PER_NONZERO: f64 = 1.0;

/// Products per reading: a reading takes about three milliseconds.
const PASSES: usize = 256;

/// The reference work: `y = A x` for a banded matrix of 2,304 rows and
/// five diagonals in CSR arrays, 0.2 MB. Cache-resident on purpose: a
/// loop that streams from the shared last-level cache follows that
/// cache's own phases by 30% where `cg_poisson3d` follows them by 10% and
/// `mg_poisson3d` not at all, and a reference that moves more than the
/// program adds spread.
pub struct Reference {
    row_ptr: Vec<usize>,
    col: Vec<u32>,
    val: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let n = 2_304usize;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let (mut col, mut val) = (Vec::new(), Vec::new());
        row_ptr.push(0);
        for i in 0..n as isize {
            for d in [-48isize, -1, 0, 1, 48] {
                if (0..n as isize).contains(&(i + d)) {
                    col.push((i + d) as u32);
                    val.push(if d == 0 { 4.0 } else { -1.0 });
                }
            }
            row_ptr.push(col.len());
        }
        Reference {
            row_ptr,
            col,
            val,
            x: (0..n).map(|i| 1.0 + (i % 7) as f64).collect(),
            y: vec![0.0; n],
        }
    }

    /// One reading: how many times slower than the reference machine this
    /// host is right now.
    pub fn slowdown(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..PASSES {
            product(
                black_box(&self.row_ptr),
                black_box(&self.col),
                black_box(&self.val),
                black_box(&self.x),
                black_box(&mut self.y),
            );
        }
        secs(t0) / (NOMINAL_NS_PER_NONZERO * 1e-9 * (PASSES * self.col.len()) as f64)
    }
}

/// `y = A x`, the plain loop. Never inlined, and its loops start on a
/// 64-byte boundary, so that the machine code of the reference and where
/// it falls in a cache line do not change with what is compiled and
/// linked around it: the same loop at another offset ran 9% slower.
#[inline(never)]
fn product(row_ptr: &[usize], col: &[u32], val: &[f64], x: &[f64], y: &mut [f64]) {
    // SAFETY: an assembler directive that pads with no-ops; it touches nothing.
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    unsafe {
        std::arch::asm!(".p2align 6", options(nomem, nostack, preserves_flags));
    }
    for (i, y) in y.iter_mut().enumerate() {
        let mut s = 0.0;
        for k in row_ptr[i]..row_ptr[i + 1] {
            s += val[k] * x[col[k] as usize];
        }
        *y = s;
    }
}

/// The reference read on every core at once, for the workloads whose
/// threads the kernel spreads over all of them: a neighbour slows one
/// core of the host and not the next, and a reading on the generator's
/// core alone says too much or too little.
pub struct AllCores(Vec<Reference>);

impl AllCores {
    /// A reference for each core (eight at most).
    pub fn new() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        AllCores((0..cores).map(|_| Reference::new()).collect())
    }

    /// One reading: the slowdown of the cores taken together, each read at
    /// the same time by a thread of its own that asks to stay on that
    /// core. Worker threads share one queue, so what the cores get done
    /// together is the sum of their speeds: the reading is the harmonic
    /// mean of the cores' slowdowns.
    pub fn slowdown(&mut self) -> f64 {
        let per_core: Vec<f64> = std::thread::scope(|scope| {
            let readers: Vec<_> = self
                .0
                .iter_mut()
                .enumerate()
                .map(|(core, reference)| {
                    scope.spawn(move || {
                        stay_on(core);
                        reference.slowdown()
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("a reference reader panicked"))
                .collect()
        });
        per_core.len() as f64 / per_core.iter().map(|s| 1.0 / s).sum::<f64>()
    }
}

/// Ask the kernel to run the calling thread on `core` only. Where that
/// is refused the thread runs wherever it is put, and the reading is
/// still a reading.
fn stay_on(core: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mask = [1u64 << (core % 64)];
    // SAFETY: the mask outlives the call, its size is given, and pid 0 is the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Readings taken around a sequence of timed operations: operation `i`
/// ran between reading `i` and reading `i + 1`.
pub struct Readings(pub Vec<f64>);

impl Readings {
    /// The host's slowdown while operation `i` ran: the median of the four
    /// readings nearest to it (two before, two after, fewer at the ends),
    /// so that one reading a neighbour's time slice fell into does not
    /// move the operation it stands next to.
    pub fn around(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(1);
        let hi = (i + 3).min(self.0.len());
        median(&self.0[lo..hi])
    }

    /// Lowest, median and highest reading, for the run's report.
    pub fn summary(&self) -> String {
        let min = self.0.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.0.iter().copied().fold(0.0, f64::max);
        format!(
            "host slowdown against the reference machine: median {:.3}, lowest {:.3}, highest {:.3} over {} readings",
            median(&self.0),
            min,
            max,
            self.0.len()
        )
    }
}
