//! Structural fingerprints of sparse matrices.
//!
//! A fingerprint captures exactly what the partitioner consumes — the
//! shape and the nonzero *pattern* (`row_ptr` + `col_idx`), not the
//! values. Two matrices with equal fingerprints induce identical atom
//! weights and therefore identical `CG_BALANCED_PARTITIONER_1` output,
//! which is what makes a cached [`crate::plan::SolvePlan`] reusable.

use hpf_sparse::CsrMatrix;

/// Structural identity of a CSR matrix: dimensions, nonzero count, and a
/// 64-bit hash of the pattern arrays. The hash is an in-process key (plan
/// cache, batch key, circuit breaker); its value is not a stable format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    pub n_rows: usize,
    pub n_cols: usize,
    pub nnz: usize,
    pub pattern_hash: u64,
}

impl Fingerprint {
    /// Fingerprint a matrix. `O(nnz)`, about a cycle a nonzero; the
    /// service computes it once per request, in `submit`.
    pub fn of(matrix: &CsrMatrix) -> Self {
        let mut h = PatternHasher::new();
        h.write_words(matrix.row_ptr());
        // Domain separator so (row_ptr, col_idx) pairs that happen to
        // concatenate identically still hash apart.
        h.write_usize(usize::MAX);
        h.write_words(matrix.col_idx());
        Fingerprint {
            n_rows: matrix.n_rows(),
            n_cols: matrix.n_cols(),
            nnz: matrix.nnz(),
            pattern_hash: h.finish(),
        }
    }

    /// Short hex rendering for logs and reports.
    pub fn short(&self) -> String {
        format!(
            "{}x{}/{}nz#{:08x}",
            self.n_rows, self.n_cols, self.nnz, self.pattern_hash as u32
        )
    }
}

/// One multiply-and-shift round per word, word `k` of the stream going
/// to lane `k mod 4`; the lanes are folded through the same round at the
/// end, the word count last. A round is a bijection of the state for a
/// fixed word and of the word for a fixed state, so two patterns that
/// differ in a single entry never collide; the shift brings the
/// well-mixed high half of the product down into the bits the next word
/// lands on. One lane is one dependent multiply chain — a word every
/// five cycles or so; four of them keep the multiplier busy.
struct PatternHasher {
    lanes: [u64; 4],
    words: usize,
}

fn round(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 32)
}

impl PatternHasher {
    fn new() -> Self {
        // Distinct lane seeds: a word must not hash alike in two lanes.
        PatternHasher {
            lanes: [
                0xcbf2_9ce4_8422_2325,
                0x8422_2325_cbf2_9ce4,
                0x9ce4_8422_2325_cbf2,
                0x2325_cbf2_9ce4_8422,
            ],
            words: 0,
        }
    }

    fn write_usize(&mut self, v: usize) {
        let lane = &mut self.lanes[self.words % 4];
        *lane = round(*lane, v as u64);
        self.words += 1;
    }

    /// `write_usize` of every word in order, four lanes a step once the
    /// stream is at a multiple of four.
    fn write_words(&mut self, words: &[usize]) {
        let head = words.len().min(self.words.wrapping_neg() % 4);
        let (head, rest) = words.split_at(head);
        head.iter().for_each(|&w| self.write_usize(w));
        let mut quads = rest.chunks_exact(4);
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for q in &mut quads {
            a = round(a, q[0] as u64);
            b = round(b, q[1] as u64);
            c = round(c, q[2] as u64);
            d = round(d, q[3] as u64);
        }
        self.lanes = [a, b, c, d];
        self.words += rest.len() - quads.remainder().len();
        quads.remainder().iter().for_each(|&w| self.write_usize(w));
    }

    fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        round(round(round(round(a, b), c), d), self.words as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_sparse::gen;

    #[test]
    fn values_do_not_affect_the_fingerprint() {
        let a = gen::banded_spd(40, 3, 1);
        let mut b = a.clone();
        b.scale(3.25);
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
    }

    #[test]
    fn pattern_changes_the_fingerprint() {
        let a = gen::banded_spd(40, 3, 1);
        let c = gen::banded_spd(40, 5, 1);
        let d = gen::power_law_spd(40, 12, 0.9, 7);
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&c));
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&d));
    }

    #[test]
    fn dimensions_participate() {
        let a = gen::tridiagonal(30, 4.0, -1.0);
        let b = gen::tridiagonal(31, 4.0, -1.0);
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&b));
        assert_eq!(
            Fingerprint::of(&a),
            Fingerprint::of(&gen::tridiagonal(30, 9.0, -2.0))
        );
    }

    fn from_parts(n: usize, row_ptr: Vec<usize>, col_idx: Vec<usize>) -> CsrMatrix {
        let values = vec![1.0; col_idx.len()];
        CsrMatrix::from_raw(n, n, row_ptr, col_idx, values).expect("well-formed pattern")
    }

    #[test]
    fn one_moved_entry_changes_the_hash() {
        let base = from_parts(4, vec![0, 2, 4, 6, 8], vec![0, 1, 1, 2, 2, 3, 0, 3]);
        // One nonzero moved within its row: same shape, same count.
        let moved = from_parts(4, vec![0, 2, 4, 6, 8], vec![0, 1, 1, 3, 2, 3, 0, 3]);
        // One `row_ptr` entry changed: a nonzero handed from row 1 to row 2.
        let shifted = from_parts(4, vec![0, 2, 3, 6, 8], vec![0, 1, 1, 2, 2, 3, 0, 3]);
        let hashes = [&base, &moved, &shifted].map(|m| {
            let f = Fingerprint::of(m);
            assert_eq!((f.n_rows, f.n_cols, f.nnz), (4, 4, 8));
            f.pattern_hash
        });
        assert_ne!(hashes[0], hashes[1]);
        assert_ne!(hashes[0], hashes[2]);
        assert_ne!(hashes[1], hashes[2]);
    }

    #[test]
    fn the_two_arrays_are_hashed_apart() {
        // Feeding the hasher by hand: the same words split differently
        // between `row_ptr` and `col_idx` must not hash alike, which is
        // what the separator between the two arrays is for.
        let hash = |row_ptr: &[usize], col_idx: &[usize]| {
            let mut h = PatternHasher::new();
            row_ptr.iter().for_each(|&p| h.write_usize(p));
            h.write_usize(usize::MAX);
            col_idx.iter().for_each(|&c| h.write_usize(c));
            h.finish()
        };
        assert_ne!(hash(&[0, 1, 2], &[0, 1]), hash(&[0, 1], &[2, 0, 1]));
        assert_ne!(hash(&[0, 1, 2], &[0, 1]), hash(&[0, 1, 2, 0], &[1]));
        assert_ne!(hash(&[0, 1], &[0, 1]), hash(&[0, 1], &[1, 0]));
        assert_ne!(hash(&[], &[0]), hash(&[0], &[]));
    }

    #[test]
    fn a_slice_hashes_as_its_words_one_by_one() {
        let words: Vec<usize> = (0..37).map(|i| i * i + 3).collect();
        for offset in 0..5 {
            for len in [0, 1, 3, 4, 5, 8, 11, 37] {
                let mut by_word = PatternHasher::new();
                let mut by_slice = PatternHasher::new();
                for &w in &words[..offset] {
                    by_word.write_usize(w);
                    by_slice.write_usize(w);
                }
                words[..len].iter().for_each(|&w| by_word.write_usize(w));
                by_slice.write_words(&words[..len]);
                assert_eq!(by_word.finish(), by_slice.finish(), "{offset}+{len}");
                assert_eq!(by_word.lanes, by_slice.lanes, "{offset}+{len}");
            }
        }
    }

    /// Words that differ by a lane: the same values one position on,
    /// a run with its zeros counted, two lanes swapped.
    #[test]
    fn position_in_the_stream_participates() {
        let hash = |words: &[usize]| {
            let mut h = PatternHasher::new();
            h.write_words(words);
            h.finish()
        };
        assert_ne!(hash(&[7, 0, 0, 0]), hash(&[0, 7, 0, 0]));
        assert_ne!(hash(&[1, 2, 3, 4]), hash(&[2, 1, 3, 4]));
        assert_ne!(hash(&[0, 0, 0]), hash(&[0, 0, 0, 0]));
        assert_ne!(hash(&[]), hash(&[0]));
        assert_ne!(hash(&[5, 6, 7, 8, 9]), hash(&[9, 6, 7, 8, 5]));
    }

    /// The structures of the wall-clock benchmark's service stream: its
    /// 24 pooled shapes and a thousand of its never-seen
    /// `random_spd(384, 5, seed)` structures, all told apart.
    #[test]
    fn benchmark_structures_are_collision_free() {
        let mut structures: Vec<CsrMatrix> = Vec::new();
        for i in 0..8 {
            structures.push(gen::banded_spd(512 + 64 * i, 3, i as u64));
            structures.push(gen::poisson_2d(20 + 2 * i, 20 + 2 * i));
            structures.push(gen::power_law_spd(400 + 50 * i, 10, 0.9, i as u64));
        }
        for seed in 0..1000 {
            structures.push(gen::random_spd(384, 5, seed));
        }
        let mut seen = std::collections::HashMap::new();
        for (i, m) in structures.iter().enumerate() {
            let f = Fingerprint::of(m);
            if let Some(j) = seen.insert(f.pattern_hash, i) {
                let other: &CsrMatrix = &structures[j];
                assert!(
                    m.row_ptr() == other.row_ptr() && m.col_idx() == other.col_idx(),
                    "structures {j} and {i} differ but hash alike ({:016x})",
                    f.pattern_hash
                );
            }
        }
        assert!(seen.len() > 1000, "{} distinct hashes", seen.len());
    }

    #[test]
    fn short_rendering_mentions_shape() {
        let a = gen::tridiagonal(5, 4.0, -1.0);
        let s = Fingerprint::of(&a).short();
        assert!(s.starts_with("5x5/"));
    }
}
