//! Small helpers the whole benchmark shares: the seeded generator,
//! order statistics, the plain residual check and the process's
//! peak resident set.

use hpf::machine::{CostModel, Machine, Topology};
use hpf::sparse::CsrMatrix;
use std::time::Instant;

/// splitmix64: every stream and matrix seed of a run is drawn from the
/// `--seed` argument through this generator, so the library receives
/// only generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Percentile by linear interpolation between order statistics
/// (`q` in `[0, 1]`); sorts a copy.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Seconds since `t0` as `f64`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// `‖b − A x‖ / ‖b‖` with a plain loop over the CSR arrays: the
/// benchmark's own check, sharing no code with the kernels it times.
pub fn rel_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());
    if x.len() != a.n_cols() || b.len() != a.n_rows() {
        return f64::INFINITY;
    }
    let mut rr = 0.0;
    let mut bb = 0.0;
    for i in 0..a.n_rows() {
        let mut ax = 0.0;
        for k in row_ptr[i]..row_ptr[i + 1] {
            ax += values[k] * x[col_idx[k]];
        }
        let r = b[i] - ax;
        rr += r * r;
        bb += b[i] * b[i];
    }
    let rel = (rr / bb.max(f64::MIN_POSITIVE)).sqrt();
    if rel.is_finite() {
        rel
    } else {
        f64::INFINITY
    }
}

/// The largest residual the benchmark accepts from a solve asked for 1e-8.
pub const RESIDUAL_LIMIT: f64 = 1e-7;

/// `b = A x` for the smooth `x_i = c (1 + sin(i/n))` with a seeded
/// scale `c` in `[0.5, 1.5)`: each seed solves another system, and CG,
/// which is invariant under scaling, does the same work on all of them.
/// (A seeded phase moved the iteration count by a few per cent and with
/// it the allocator's high-water mark by 14%, which would show up as
/// run-to-run spread that no commit caused.)
pub fn seeded_rhs(a: &CsrMatrix, rng: &mut Rng) -> Vec<f64> {
    let n = a.n_cols();
    let scale = 0.5 + rng.unit();
    let x: Vec<f64> = (0..n)
        .map(|i| scale * (1.0 + (i as f64 / n as f64).sin()))
        .collect();
    a.matvec(&x).expect("square system")
}

/// The simulated multicomputer every workload uses: a hypercube with the
/// mid-90s MPP cost model. `Machine::new` starts with tracing on.
pub fn machine(np: usize, tracing: bool) -> Machine {
    let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
    m.set_tracing(tracing);
    m
}

/// `VmHWM` of this process in MB (Linux); 0 when `/proc` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
