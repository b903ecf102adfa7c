//! Solve plans and the structural plan cache.
//!
//! A [`SolvePlan`] is everything partitioning produces that can be
//! reused across solves on structurally identical matrices: the
//! `CG_BALANCED_PARTITIONER_1` atom assignment, the row cut-points that
//! rebuild the distributed operator without re-partitioning, and the
//! `smA(ptr, idx, a)` trio directive whose descriptors pin all three
//! arrays to the same processors (the paper's locality rule).

use crate::fingerprint::Fingerprint;
use crate::lock;
use crate::response::PlanSource;
use hpf_core::ext::sparse_directive::{SparseFormat, SparseMatrixDirective, TrioDescriptors};
use hpf_core::RowwiseCsr;
use hpf_dist::{ConnectivityGraph, Partitioner};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_mg::{GridDims, MgHierarchy, MgPreconditioner};
use hpf_sparse::CsrMatrix;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Reusable result of partitioning one matrix structure for `np`
/// processors.
#[derive(Debug, Clone)]
pub struct SolvePlan {
    /// Structure this plan was derived from.
    pub fingerprint: Fingerprint,
    /// `USING <name>` identifier of the partitioner that laid the
    /// structure out — part of the cache key: the same fingerprint under
    /// a different partitioner is a different plan.
    pub partitioner: &'static str,
    /// Machine size the plan targets.
    pub np: usize,
    /// Row cut-points (length `np + 1`): processor `p` owns rows
    /// `row_cuts[p] .. row_cuts[p + 1]`. Feeding these to
    /// `RowwiseCsr::with_row_cuts` rebuilds the operator with no
    /// partitioner call.
    pub row_cuts: Vec<usize>,
    /// The balanced trio directive (atoms = rows, weights = nnz).
    pub directive: SparseMatrixDirective,
    /// nnz per processor under the plan.
    pub loads: Vec<usize>,
    /// max/mean nnz load (1.0 = perfect balance).
    pub imbalance: f64,
    /// Simulated words moved by the `REDISTRIBUTE ... USING` that
    /// produced the balanced layout.
    pub redistribution_words: usize,
    /// Hierarchy depth this plan's multigrid preconditioner was built
    /// for; 0 for non-multigrid plans. Part of the cache key: the same
    /// structure at a different depth is a different plan.
    pub mg_levels: usize,
    /// Prebuilt V-cycle preconditioner (Galerkin coarse operators,
    /// traffic matrices, Cholesky factor) — the expensive, reusable
    /// part of an HPCG-class job, cached exactly like partitioning.
    pub mg: Option<Arc<MgPreconditioner>>,
}

impl SolvePlan {
    /// Partition `matrix`'s structure for `np` processors with any
    /// registered partitioner, for callers that hold no fingerprint of
    /// it yet.
    pub fn build_with(
        matrix: &CsrMatrix,
        np: usize,
        topology: Topology,
        partitioner: &dyn Partitioner,
    ) -> SolvePlan {
        Self::build_for(
            Fingerprint::of(matrix),
            matrix,
            np,
            topology,
            partitioner,
            None,
        )
    }

    /// [`SolvePlan::build_with`] for a matrix whose `fingerprint` the
    /// caller already computed (the service hashes a request's structure
    /// once, in `submit`), with the `levels`-deep multigrid hierarchy
    /// over `grid` that `mg = Some((grid, levels))` asks for. This is the
    /// single partitioner call site in the service, with the plan cache
    /// on or off; everything else reuses plans.
    pub fn build_for(
        fingerprint: Fingerprint,
        matrix: &CsrMatrix,
        np: usize,
        topology: Topology,
        partitioner: &dyn Partitioner,
        mg: Option<(GridDims, usize)>,
    ) -> SolvePlan {
        let n = matrix.n_rows();
        // `!EXT$ INDIVISABLE row(ATOM:i) :: col(i:i+1)` — rows are the
        // atoms, weighted by their nonzeros — then
        // `!EXT$ REDISTRIBUTE smA USING <partitioner>`.
        let mut directive = SparseMatrixDirective::new(SparseFormat::Csr, matrix.row_ptr(), np);
        let graph = ConnectivityGraph::from_pattern(n, matrix.row_ptr(), matrix.col_idx());
        let mut scratch = Machine::new(np, topology, CostModel::mpp_1995());
        let redistribution_words = directive.redistribute_using(&mut scratch, partitioner, &graph);
        debug_assert!(directive.trio_is_consistent());

        // Contiguous atom assignment → row cut-points.
        let row_cuts = directive.assignment().atom_cuts().expect("lowered to cuts");

        // Validation upstream guarantees the hierarchy builds; a failure
        // here panics into the worker's set-up catch site.
        let mg_levels = mg.map_or(0, |(_, levels)| levels);
        let mg = mg.map(|(dims, levels)| {
            let h = MgHierarchy::build(dims, levels, np)
                .unwrap_or_else(|e| panic!("mg hierarchy {dims}/{levels} levels: {e}"));
            Arc::new(MgPreconditioner::new(h))
        });
        let loads = directive.loads();
        let imbalance = directive.imbalance();
        SolvePlan {
            fingerprint,
            partitioner: partitioner.name(),
            np,
            row_cuts,
            directive,
            loads,
            imbalance,
            redistribution_words,
            mg_levels,
            mg,
        }
    }

    /// The row-wise operator over `matrix` under this plan's cut-points:
    /// no partitioner call, the matrix shared. What it costs is the cost
    /// vectors and the product-form detection pass.
    pub fn operator(&self, matrix: Arc<CsrMatrix>) -> RowwiseCsr {
        RowwiseCsr::with_row_cuts(matrix, self.np, self.row_cuts.clone())
    }

    /// Descriptors of the `(ptr, idx, a)` trio under this plan.
    pub fn trio_descriptors(&self) -> TrioDescriptors {
        self.directive.descriptors()
    }
}

/// Cache key: the same structure laid out by two different partitioners
/// — or carrying multigrid hierarchies of two different depths — yields
/// distinct plans. The second component is [`Partitioner::name`], the
/// third [`SolvePlan::mg_levels`] (0 for non-multigrid plans).
pub type PlanKey = (Fingerprint, &'static str, usize);

/// Where the plan of one key lives. Filled at most once, by whichever
/// lookup gets there first; a build that panics leaves it empty for the
/// next lookup to fill.
type Slot = Arc<OnceLock<Arc<SolvePlan>>>;

#[derive(Debug)]
struct Entry {
    slot: Slot,
    /// [`Slots::clock`] at the latest lookup of this key.
    last_used: u64,
    /// [`Slots::insertions`] at the latest lookup of this key.
    insertions_seen: u64,
    /// Looked up again after the lookup that inserted it.
    reused: bool,
    /// The operator over the matrix instance this key was last looked up
    /// with, from the second lookup on: a key seen once may never come
    /// back, and its matrix is not held for it.
    operator: Option<Arc<RowwiseCsr>>,
}

#[derive(Debug, Default)]
struct Slots {
    by_key: HashMap<PlanKey, Entry>,
    /// Counts lookups; orders entries by recency.
    clock: u64,
    /// Counts keys inserted; what a reused entry's protection runs on.
    insertions: u64,
}

/// What a lookup takes from its key's entry while it holds the lock.
struct Found {
    slot: Slot,
    /// The entry was there before this lookup.
    reused: bool,
    operator: Option<Arc<RowwiseCsr>>,
}

/// Bounded map from [`PlanKey`] (structural fingerprint + partitioner
/// name + hierarchy depth) to [`SolvePlan`], shared by the workers.
///
/// * **Reuse-aware eviction, the capacity its only horizon.** An entry
///   looked up again after the lookup that inserted it is *reused*, and
///   a reused entry is *protected* while fewer than `capacity` keys have
///   been inserted since its last lookup. The victim is the least
///   recently used unprotected entry, else the least recently used
///   entry. Never-seen structures therefore evict each other, a
///   recurring one outlives `capacity` inserts between two of its
///   lookups, and one that stopped recurring is ordinary again
///   `capacity` inserts later.
/// * **Built outside the lock.** The one mutex is held to find, insert
///   or touch a key's entry, never across a partitioner run or an
///   operator build: a lookup of one key is not delayed by the build of
///   another.
/// * **Built once per key.** Concurrent lookups of a key that is being
///   built wait on its slot and share the result.
/// * **The operator is kept with its matrix.** A reused entry holds the
///   [`RowwiseCsr`] of the matrix *instance* it was last looked up with;
///   a lookup with that very `Arc` shares it, any other instance of the
///   structure (same pattern, possibly other values) builds its own and
///   takes the place.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    slots: Mutex<Slots>,
}

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be positive");
        PlanCache {
            capacity,
            slots: Mutex::new(Slots::default()),
        }
    }

    /// Number of plans cached (slots whose build has finished).
    pub fn len(&self) -> usize {
        let slots = lock(&self.slots);
        slots
            .by_key
            .values()
            .filter(|entry| entry.slot.get().is_some())
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry of `key`, marked most recently used; inserted (evicting
    /// by the rule above at capacity) if the key is new.
    fn find(&self, key: PlanKey) -> Found {
        let mut slots = lock(&self.slots);
        slots.clock += 1;
        let (now, insertions) = (slots.clock, slots.insertions);
        if let Some(entry) = slots.by_key.get_mut(&key) {
            entry.last_used = now;
            entry.insertions_seen = insertions;
            entry.reused = true;
            return Found {
                slot: entry.slot.clone(),
                reused: true,
                operator: entry.operator.clone(),
            };
        }
        if slots.by_key.len() >= self.capacity {
            let horizon = self.capacity as u64;
            let victim = slots
                .by_key
                .iter()
                .min_by_key(|(_, entry)| {
                    let protected = entry.reused && insertions - entry.insertions_seen < horizon;
                    (protected, entry.last_used)
                })
                .map(|(key, _)| *key);
            if let Some(victim) = victim {
                // A build in flight on the evicted slot still completes
                // for the lookups holding it; its plan is just not kept.
                slots.by_key.remove(&victim);
            }
        }
        slots.insertions += 1;
        let slot = Slot::default();
        slots.by_key.insert(
            key,
            Entry {
                slot: slot.clone(),
                last_used: now,
                insertions_seen: insertions + 1,
                reused: false,
                operator: None,
            },
        );
        Found {
            slot,
            reused: false,
            operator: None,
        }
    }

    /// Look up the plan of `key`, building it with `build` (the
    /// [`SolvePlan::build_for`] of `matrix` the key names) and caching it
    /// on a miss, and the row-wise operator over `matrix` under that plan.
    /// Returns the plan, the operator and where the plan came from:
    /// [`PlanSource::Built`] if this call ran the partitioner,
    /// [`PlanSource::CacheHit`] if the plan existed or another thread was
    /// building it and this call waited for that build.
    pub fn get_or_build(
        &self,
        key: PlanKey,
        matrix: &Arc<CsrMatrix>,
        build: impl FnOnce() -> SolvePlan,
    ) -> (Arc<SolvePlan>, Arc<RowwiseCsr>, PlanSource) {
        let found = self.find(key);
        let mut source = PlanSource::CacheHit;
        let plan = found.slot.get_or_init(|| {
            source = PlanSource::Built;
            Arc::new(build())
        });
        // Pointer identity is value identity here, as in the batch key:
        // the kept operator's own `Arc` keeps its matrix's address from
        // being handed to another one.
        let kept = found
            .operator
            .filter(|op| std::ptr::eq(op.matrix(), &**matrix));
        let operator = kept.unwrap_or_else(|| {
            let built = Arc::new(plan.operator(Arc::clone(matrix)));
            if found.reused {
                let mut slots = lock(&self.slots);
                // Only into the entry the plan came from: the key may
                // have been evicted and inserted anew since.
                if let Some(entry) = slots.by_key.get_mut(&key) {
                    if Arc::ptr_eq(&entry.slot, &found.slot) {
                        entry.operator = Some(Arc::clone(&built));
                    }
                }
            }
            built
        });
        (plan.clone(), operator, source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_dist::{AtomAssignment, AtomSpec};
    use hpf_partition::BalancedContiguous;
    use hpf_sparse::gen;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    const NP: usize = 4;

    /// A lookup as the worker makes it.
    fn lookup_mg(
        cache: &PlanCache,
        a: &Arc<CsrMatrix>,
        partitioner: &dyn Partitioner,
        mg: Option<(GridDims, usize)>,
    ) -> (Arc<SolvePlan>, Arc<RowwiseCsr>, PlanSource) {
        let fingerprint = Fingerprint::of(a);
        let key = (fingerprint, partitioner.name(), mg.map_or(0, |(_, l)| l));
        cache.get_or_build(key, a, || {
            SolvePlan::build_for(fingerprint, a, NP, Topology::Hypercube, partitioner, mg)
        })
    }

    fn lookup_shared(
        cache: &PlanCache,
        a: &Arc<CsrMatrix>,
        partitioner: &dyn Partitioner,
    ) -> (Arc<SolvePlan>, Arc<RowwiseCsr>, PlanSource) {
        lookup_mg(cache, a, partitioner, None)
    }

    /// A lookup with an instance of `a` nobody else holds.
    fn lookup(
        cache: &PlanCache,
        a: &CsrMatrix,
        partitioner: &dyn Partitioner,
        mg: Option<(GridDims, usize)>,
    ) -> (Arc<SolvePlan>, PlanSource) {
        let (plan, _, outcome) = lookup_mg(cache, &Arc::new(a.clone()), partitioner, mg);
        (plan, outcome)
    }

    /// The eviction policy seen on its own: lookups of made-up keys, a
    /// miss filling its slot with `plan` as a finished build would.
    struct Policy {
        cache: PlanCache,
        plan: Arc<SolvePlan>,
    }

    impl Policy {
        fn new(capacity: usize) -> Self {
            let tiny = gen::tridiagonal(4, 4.0, -1.0);
            Policy {
                cache: PlanCache::new(capacity),
                plan: Arc::new(SolvePlan::build_with(
                    &tiny,
                    2,
                    Topology::Hypercube,
                    &BalancedContiguous,
                )),
            }
        }

        fn key(k: u64) -> PlanKey {
            let structure = Fingerprint {
                n_rows: 1,
                n_cols: 1,
                nnz: 1,
                pattern_hash: k,
            };
            (structure, "made-up", 0)
        }

        /// One lookup of key `k`; whether it hit.
        fn touch(&self, k: u64) -> bool {
            let found = self.cache.find(Self::key(k));
            let hit = found.slot.get().is_some();
            found.slot.get_or_init(|| self.plan.clone());
            hit
        }

        /// Whether `k` is cached, without looking it up.
        fn holds(&self, k: u64) -> bool {
            lock(&self.cache.slots).by_key.contains_key(&Self::key(k))
        }
    }

    /// xorshift64*, the stream the policy tests draw from.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
        }
    }

    /// `balanced-rows` with a hook run at the start of every partition
    /// call (given the number of calls before it), so a test can count
    /// partitioner runs, park one mid-build, or make one panic.
    struct Hooked<F: Fn(usize)> {
        calls: AtomicUsize,
        hook: F,
    }

    impl<F: Fn(usize)> Hooked<F> {
        fn new(hook: F) -> Self {
            Hooked {
                calls: AtomicUsize::new(0),
                hook,
            }
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::SeqCst)
        }
    }

    impl<F: Fn(usize)> Partitioner for Hooked<F> {
        fn name(&self) -> &'static str {
            "hooked"
        }

        fn partition(
            &self,
            spec: &AtomSpec,
            graph: &ConnectivityGraph,
            np: usize,
        ) -> AtomAssignment {
            (self.hook)(self.calls.fetch_add(1, Ordering::SeqCst));
            BalancedContiguous.partition(spec, graph, np)
        }
    }

    #[test]
    fn plan_is_deterministic_for_a_fingerprint() {
        let a = gen::power_law_spd(96, 14, 0.9, 3);
        let mut b = a.clone();
        b.scale(0.5); // same structure, different values
        let p1 = SolvePlan::build_with(&a, 8, Topology::Hypercube, &BalancedContiguous);
        let p2 = SolvePlan::build_with(&b, 8, Topology::Hypercube, &BalancedContiguous);
        assert_eq!(p1.fingerprint, p2.fingerprint);
        assert_eq!(p1.row_cuts, p2.row_cuts);
        assert_eq!(p1.loads, p2.loads);
        assert_eq!(p1.trio_descriptors(), p2.trio_descriptors());
    }

    #[test]
    fn row_cuts_are_monotone_and_cover_all_rows() {
        let a = gen::power_law_spd(64, 10, 0.8, 11);
        let plan = SolvePlan::build_with(&a, 6, Topology::Hypercube, &BalancedContiguous);
        assert_eq!(plan.row_cuts.len(), 7);
        assert_eq!(plan.row_cuts[0], 0);
        assert_eq!(*plan.row_cuts.last().unwrap(), 64);
        assert!(plan.row_cuts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plan.loads.iter().sum::<usize>(), a.nnz());
    }

    #[test]
    fn balanced_plan_beats_naive_block_on_irregular_structure() {
        let a = gen::power_law_spd(128, 24, 1.0, 5);
        let plan = SolvePlan::build_with(&a, 8, Topology::Hypercube, &BalancedContiguous);
        // Naive equal-row-count cuts.
        let bs = 128usize.div_ceil(8);
        let naive: Vec<usize> = (0..=8).map(|p| (p * bs).min(128)).collect();
        let naive_loads: Vec<usize> = naive
            .windows(2)
            .map(|w| a.row_ptr()[w[1]] - a.row_ptr()[w[0]])
            .collect();
        let max = *naive_loads.iter().max().unwrap() as f64;
        let mean = a.nnz() as f64 / 8.0;
        let naive_imb = max / mean;
        assert!(
            plan.imbalance <= naive_imb + 1e-12,
            "partitioned {} vs naive {}",
            plan.imbalance,
            naive_imb
        );
    }

    #[test]
    fn cache_hits_after_a_build() {
        let a = gen::banded_spd(48, 4, 2);
        let cache = PlanCache::new(4);
        assert!(cache.is_empty());
        let counting = Hooked::new(|_| {});
        let (p1, o1) = lookup(&cache, &a, &counting, None);
        let (p2, o2) = lookup(&cache, &a, &counting, None);
        assert_eq!(o1, PlanSource::Built);
        assert_eq!(o2, PlanSource::CacheHit);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(counting.calls(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_keys_include_the_partitioner() {
        let a = gen::power_law_spd(80, 16, 0.9, 6);
        let cache = PlanCache::new(4);
        let (p1, o1) = lookup(&cache, &a, &BalancedContiguous, None);
        let (p2, o2) = lookup(&cache, &a, &hpf_partition::GreedyHypergraph, None);
        // Same structure, different partitioner: both are misses and
        // both plans live in the cache side by side.
        assert_eq!(o1, PlanSource::Built);
        assert_eq!(o2, PlanSource::Built);
        assert_eq!(cache.len(), 2);
        assert_eq!(p1.fingerprint, p2.fingerprint);
        assert_eq!(p1.partitioner, "balanced-rows");
        assert_eq!(p2.partitioner, "greedy-hypergraph");
        for partitioner in [
            &BalancedContiguous as &dyn Partitioner,
            &hpf_partition::GreedyHypergraph,
        ] {
            assert_eq!(
                lookup(&cache, &a, partitioner, None).1,
                PlanSource::CacheHit
            );
        }
        let (_, o3) = lookup(&cache, &a, &hpf_partition::SpectralBisection, None);
        assert_eq!(o3, PlanSource::Built);
    }

    /// The ISSUE's HPCG plumbing: the cache key includes the hierarchy
    /// depth, so one Poisson structure requested at two depths keeps two
    /// plans — each carrying its own prebuilt V-cycle preconditioner —
    /// while a repeat at either depth is a pure hit.
    #[test]
    fn cache_keys_include_the_hierarchy_depth() {
        let dims = GridDims::d2(15, 15);
        let a = dims.poisson();
        let cache = PlanCache::new(4);
        let (p2, o2) = lookup(&cache, &a, &BalancedContiguous, Some((dims, 2)));
        let (p3, o3) = lookup(&cache, &a, &BalancedContiguous, Some((dims, 3)));
        let (_, o2b) = lookup(&cache, &a, &BalancedContiguous, Some((dims, 2)));
        assert_eq!(
            (o2, o3, o2b),
            (PlanSource::Built, PlanSource::Built, PlanSource::CacheHit)
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(p2.fingerprint, p3.fingerprint);
        assert_eq!(p2.mg_levels, 2);
        assert_eq!(p3.mg_levels, 3);
        assert_eq!(p2.mg.as_ref().unwrap().hierarchy().depth(), 2);
        assert_eq!(p3.mg.as_ref().unwrap().hierarchy().depth(), 3);
        // A plain (non-mg) plan on the same structure is a third entry.
        let (p0, o0) = lookup(&cache, &a, &BalancedContiguous, None);
        assert_eq!(o0, PlanSource::Built);
        assert!(p0.mg.is_none());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn a_touched_plan_survives_capacity_later_inserts() {
        const CAPACITY: usize = 3;
        let cache = PlanCache::new(CAPACITY);
        let pooled = gen::tridiagonal(10, 4.0, -1.0);
        assert_eq!(
            lookup(&cache, &pooled, &BalancedContiguous, None).1,
            PlanSource::Built
        );
        // Twice the capacity in one-off structures, the pooled one asked
        // for in between: oldest-inserted eviction would have dropped it
        // after the third.
        for n in 0..2 * CAPACITY {
            let one_off = gen::tridiagonal(20 + n, 4.0, -1.0);
            assert_eq!(
                lookup(&cache, &one_off, &BalancedContiguous, None).1,
                PlanSource::Built
            );
            assert_eq!(
                lookup(&cache, &pooled, &BalancedContiguous, None).1,
                PlanSource::CacheHit,
                "evicted after {} one-off inserts",
                n + 1
            );
            assert!(cache.len() <= CAPACITY);
        }
        // What is evicted is the least recently used one-off.
        let first_one_off = gen::tridiagonal(20, 4.0, -1.0);
        assert_eq!(
            lookup(&cache, &first_one_off, &BalancedContiguous, None).1,
            PlanSource::Built
        );
    }

    #[test]
    fn two_lookups_of_a_missing_key_run_the_partitioner_once() {
        let a = gen::banded_spd(64, 3, 5);
        let cache = PlanCache::new(4);
        let (started_tx, started_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel::<()>();
        let resume_rx = std::sync::Mutex::new(resume_rx);
        // Every partitioner run parks until the test lets it go.
        let parked = Hooked::new(move |_| {
            started_tx.send(()).unwrap();
            resume_rx.lock().unwrap().recv().unwrap();
        });
        let (second_tx, second_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let first = scope.spawn(|| lookup(&cache, &a, &parked, None));
            started_rx.recv().unwrap();
            // The first build is parked inside the partitioner; the key's
            // slot exists and is empty. A second lookup of the key starts.
            let second = scope.spawn(|| {
                second_tx.send(()).unwrap();
                lookup(&cache, &a, &parked, None)
            });
            second_rx.recv().unwrap();
            assert_eq!(cache.len(), 0, "nothing is cached until the build ends");
            resume_tx.send(()).unwrap();
            let (p1, o1) = first.join().unwrap();
            // Were the second lookup to run the partitioner too, it would
            // park: let it go so a failure reads as a count, not a hang.
            let _ = resume_tx.send(());
            let (p2, o2) = second.join().unwrap();
            assert_eq!((o1, o2), (PlanSource::Built, PlanSource::CacheHit));
            assert!(Arc::ptr_eq(&p1, &p2));
        });
        assert_eq!(parked.calls(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_lookup_is_not_delayed_by_the_build_of_another_key() {
        let slow = gen::banded_spd(64, 3, 5);
        let quick = gen::tridiagonal(12, 4.0, -1.0);
        let cache = PlanCache::new(4);
        let (started_tx, started_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel::<()>();
        let resume_rx = std::sync::Mutex::new(resume_rx);
        let parked = Hooked::new(move |_| {
            started_tx.send(()).unwrap();
            resume_rx.lock().unwrap().recv().unwrap();
        });
        let (answer_tx, answer_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let building = scope.spawn(|| lookup(&cache, &slow, &parked, None));
            started_rx.recv().unwrap();
            // `slow`'s build is parked. Lookups of another key, a miss and
            // then a hit, must return while it is.
            let other = scope.spawn(|| {
                let miss = lookup(&cache, &quick, &BalancedContiguous, None).1;
                let hit = lookup(&cache, &quick, &BalancedContiguous, None).1;
                answer_tx.send((miss, hit)).unwrap();
            });
            let answer = answer_rx.recv_timeout(Duration::from_secs(20));
            resume_tx.send(()).unwrap();
            other.join().unwrap();
            building.join().unwrap();
            assert_eq!(
                answer.expect("the other key's lookups waited for the parked build"),
                (PlanSource::Built, PlanSource::CacheHit)
            );
        });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_panicking_build_leaves_the_key_to_the_next_lookup() {
        let a = gen::banded_spd(40, 2, 3);
        let cache = PlanCache::new(4);
        let flaky = Hooked::new(|calls_before| {
            if calls_before == 0 {
                panic!("partitioner bug");
            }
        });
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lookup(&cache, &a, &flaky, None)
        }));
        assert!(first.is_err());
        assert_eq!(cache.len(), 0);
        let (_, retried) = lookup(&cache, &a, &flaky, None);
        assert_eq!(retried, PlanSource::Built, "the retry builds");
        assert_eq!(lookup(&cache, &a, &flaky, None).1, PlanSource::CacheHit);
        assert_eq!(flaky.calls(), 2);
        assert_eq!(cache.len(), 1);
    }
    /// The wall-clock benchmark's stream: 24 recurring keys, every tenth
    /// lookup a never-seen one, capacity 32. After its warm-up (25
    /// bursts of 8) the recurring keys must be what the cache holds: nine
    /// lookups in ten can hit, and all but a handful do. Evicting by
    /// recency alone reads 0.865 here: a recurring key untouched for
    /// eight inserts is gone.
    #[test]
    fn one_offs_do_not_flush_the_recurring_keys() {
        const POOL: u64 = 24;
        const LOOKUPS: u64 = 4_000;
        let policy = Policy::new(32);
        let mut draws = Draws(0x9e37_79b9_7f4a_7c15);
        let mut hits = 0u64;
        for i in 0..200 + LOOKUPS {
            let k = if i % 10 == 9 {
                POOL + i
            } else {
                draws.below(POOL)
            };
            let hit = policy.touch(k);
            if i >= 200 {
                hits += u64::from(hit);
            }
        }
        assert!((0..POOL).all(|k| policy.holds(k)));
        assert!(policy.cache.len() <= 32);
        let ratio = hits as f64 / LOOKUPS as f64;
        assert!(ratio >= 0.895, "hit ratio {ratio}");
    }

    /// Between two lookups of a reused key `capacity` inserts cannot
    /// evict it; the insert after those does, ahead of entries used since.
    #[test]
    fn a_reused_key_is_protected_for_capacity_inserts_and_no_longer() {
        const CAPACITY: u64 = 8;
        let policy = Policy::new(CAPACITY as usize);
        assert!(!policy.touch(0));
        // Fill up, so that every insert from here on evicts something.
        for k in 1..CAPACITY {
            assert!(!policy.touch(k));
        }
        assert!(policy.touch(0), "the second lookup: reused from now on");
        for n in 1..=CAPACITY {
            assert!(!policy.touch(100 + n));
            assert!(policy.holds(0), "evicted by insert {n} of {CAPACITY}");
        }
        assert!(!policy.touch(200));
        assert!(!policy.holds(0), "protected beyond its horizon");
        // The one-offs that came after it are all younger, and stayed.
        assert!((2..=CAPACITY).all(|n| policy.holds(100 + n)));
    }

    /// The working set changes: 24 reused keys retire for good, 24 new
    /// ones arrive in rotation — the order that recency alone serves
    /// worst — with the usual tenth of never-seen keys. Within four
    /// capacities of lookups the new set is what the cache holds. (A
    /// reuse mark that never expires fails here: the retired keys keep
    /// 24 of the 32 places and the rotation never fits in the rest.)
    #[test]
    fn a_retired_working_set_ages_out() {
        const POOL: u64 = 24;
        const CAPACITY: u64 = 32;
        let policy = Policy::new(CAPACITY as usize);
        let mut draws = Draws(7);
        for i in 0..1_000 {
            policy.touch(if i % 10 == 9 {
                10_000 + i
            } else {
                draws.below(POOL)
            });
        }
        assert!((0..POOL).all(|k| policy.holds(k)));
        let mut next = 0;
        for i in 0..4 * CAPACITY {
            if i % 10 == 9 {
                policy.touch(20_000 + i);
            } else {
                policy.touch(1_000 + next % POOL);
                next += 1;
            }
        }
        for k in 0..POOL {
            assert!(policy.touch(1_000 + k), "new key {k} is not cached");
        }
        assert!(!(0..POOL).any(|k| policy.holds(k)), "a retired key stayed");
    }

    #[test]
    fn the_smallest_caches_still_insert_hit_and_evict() {
        let one = Policy::new(1);
        assert!(!one.touch(1));
        assert!(one.touch(1));
        assert!(!one.touch(2), "a reused entry is no obstacle to an insert");
        assert!(!one.holds(1) && one.holds(2));
        assert!(one.touch(2));

        let two = Policy::new(2);
        assert!(!two.touch(1));
        assert!(two.touch(1));
        assert!(!two.touch(2));
        assert!(!two.touch(3), "the one-off goes, the reused key stays");
        assert!(two.holds(1) && !two.holds(2) && two.holds(3));
        assert!(two.touch(3));
        // Both reused and protected: the least recently used one goes.
        assert!(!two.touch(4));
        assert!(!two.holds(1) && two.holds(3) && two.holds(4));
        assert_eq!(two.cache.len(), 2);
    }

    #[test]
    fn the_operator_is_kept_with_its_matrix_from_the_second_lookup() {
        let cache = PlanCache::new(4);
        // A structure seen once: its matrix is not held for it.
        let one_off = Arc::new(gen::banded_spd(40, 2, 3));
        let watch = Arc::downgrade(&one_off);
        let (_, op, outcome) = lookup_shared(&cache, &one_off, &BalancedContiguous);
        assert_eq!(outcome, PlanSource::Built);
        assert!(std::ptr::eq(op.matrix(), &*one_off));
        drop((op, one_off));
        assert!(watch.upgrade().is_none(), "the inserting lookup kept it");

        // A recurring instance: built on the second lookup, shared after.
        let a = Arc::new(gen::banded_spd(48, 4, 2));
        let (plan, first, _) = lookup_shared(&cache, &a, &BalancedContiguous);
        let (_, second, hit) = lookup_shared(&cache, &a, &BalancedContiguous);
        let (_, third, _) = lookup_shared(&cache, &a, &BalancedContiguous);
        assert_eq!(hit, PlanSource::CacheHit);
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&second, &third));
        assert!(std::ptr::eq(third.matrix(), &*a));
        assert_eq!(third.row_descriptor(), first.row_descriptor());
        assert_eq!(third.np(), plan.np);

        // Same structure, other values: its own operator, which takes
        // the place; the first instance builds anew when it comes back.
        let mut scaled = (*a).clone();
        scaled.scale(0.5);
        let b = Arc::new(scaled);
        let (plan_b, over_b, hit) = lookup_shared(&cache, &b, &BalancedContiguous);
        assert_eq!(hit, PlanSource::CacheHit);
        assert!(Arc::ptr_eq(&plan, &plan_b));
        assert!(std::ptr::eq(over_b.matrix(), &*b));
        let (_, again_b, _) = lookup_shared(&cache, &b, &BalancedContiguous);
        assert!(Arc::ptr_eq(&over_b, &again_b));
        let (_, again_a, _) = lookup_shared(&cache, &a, &BalancedContiguous);
        assert!(std::ptr::eq(again_a.matrix(), &*a));
        assert!(!Arc::ptr_eq(&again_a, &third));
    }

    #[test]
    fn racing_lookups_with_two_instances_each_get_their_own_operator() {
        let a = Arc::new(gen::banded_spd(64, 3, 5));
        let mut scaled = (*a).clone();
        scaled.scale(2.0);
        let b = Arc::new(scaled);
        let cache = PlanCache::new(4);
        let (started_tx, started_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel::<()>();
        let resume_rx = std::sync::Mutex::new(resume_rx);
        // The first partitioner run parks until the test lets it go.
        let parked = Hooked::new(move |calls_before| {
            if calls_before == 0 {
                started_tx.send(()).unwrap();
                resume_rx.lock().unwrap().recv().unwrap();
            }
        });
        let (second_tx, second_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let first = scope.spawn(|| lookup_shared(&cache, &a, &parked));
            started_rx.recv().unwrap();
            // `a`'s lookup is parked mid-build; `b`'s finds the key's
            // entry and waits for the same plan.
            let second = scope.spawn(|| {
                second_tx.send(()).unwrap();
                lookup_shared(&cache, &b, &parked)
            });
            second_rx.recv().unwrap();
            resume_tx.send(()).unwrap();
            let (plan_a, over_a, _) = first.join().unwrap();
            let (plan_b, over_b, _) = second.join().unwrap();
            assert!(Arc::ptr_eq(&plan_a, &plan_b));
            assert!(std::ptr::eq(over_a.matrix(), &*a));
            assert!(std::ptr::eq(over_b.matrix(), &*b));
        });
        assert_eq!(parked.calls(), 1);

        // Both instances looked up at once, over and over, the key by
        // now reused: whichever operator is kept, nobody is handed the
        // other instance's.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for mine in [&a, &b] {
                let (cache, barrier, parked) = (&cache, &barrier, &parked);
                scope.spawn(move || {
                    for _ in 0..200 {
                        barrier.wait();
                        let (_, op, outcome) = lookup_shared(cache, mine, parked);
                        assert_eq!(outcome, PlanSource::CacheHit);
                        assert!(std::ptr::eq(op.matrix(), &**mine));
                    }
                });
            }
        });
        assert_eq!(parked.calls(), 1);
    }
}
