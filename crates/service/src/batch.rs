//! Jobs, batch keys, and the batch-forming rule.
//!
//! Batching merges queued jobs that can share one execution: same matrix
//! instance (so values, not just structure, are identical), same solver,
//! same stopping rule. The group runs as a single multi-RHS execution:
//! one plan lookup, one distributed-operator build, then each job's
//! right-hand sides in turn.

use crate::fingerprint::Fingerprint;
use crate::request::{SolveRequest, SolverKind};
use crate::response::{ServiceError, SolveResponse};
use hpf_solvers::StopCriterion;
use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::Instant;

/// The one-shot channel a job is answered on; the other end is the
/// submitter's [`crate::JobHandle`].
pub type Responder = SyncSender<Result<SolveResponse, ServiceError>>;

/// An accepted request travelling through the service.
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    pub request: SolveRequest,
    pub submitted: Instant,
    /// The admission controller's predicted cost (µs) accounted into its
    /// backlog when this job was admitted; released at every terminal
    /// path. Zero before calibration.
    pub admission_us: u64,
    /// Delivers exactly one result back to the submitter's handle.
    pub responder: Responder,
    key: BatchKey,
}

impl Job {
    /// An accepted `request` on its way in: its structure is hashed and
    /// its batch key fixed here, once, and its clock starts.
    /// `partitioner` is the registry's own name for
    /// `request.partitioner`, resolved by the caller.
    pub fn new(
        id: u64,
        request: SolveRequest,
        partitioner: &'static str,
        admission_us: u64,
        responder: Responder,
    ) -> Job {
        let key = BatchKey {
            matrix_ptr: Arc::as_ptr(&request.matrix) as usize,
            fingerprint: Fingerprint::of(&request.matrix),
            solver: request.solver,
            stop: StopBits::of(request.stop),
            max_iters: request.max_iters,
            partitioner,
            grid: request.grid,
        };
        Job {
            id,
            request,
            submitted: Instant::now(),
            admission_us,
            responder,
            key,
        }
    }

    /// `request` as `submit` would hand it to a worker, for this crate's
    /// tests, with the end its answer arrives on.
    #[cfg(test)]
    pub(crate) fn accepted(
        id: u64,
        request: SolveRequest,
    ) -> (
        Job,
        std::sync::mpsc::Receiver<Result<SolveResponse, ServiceError>>,
    ) {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let partitioner = hpf_partition::by_name(&request.partitioner)
            .expect("registered partitioner")
            .name();
        (Job::new(id, request, partitioner, 0, tx), rx)
    }

    /// Whether the job's deadline (if any) has already passed.
    pub fn deadline_expired(&self, now: Instant) -> bool {
        match self.request.deadline {
            Some(d) => now.duration_since(self.submitted) > d,
            None => false,
        }
    }

    /// Key under which jobs may share one execution. The matrix pointer
    /// (not just the structural fingerprint) is part of the key: two
    /// matrices can share a pattern yet differ in values, and only the
    /// *plan* is safe to share then — not the built operator. The
    /// partitioner name is part of the key too: jobs laid out by
    /// different partitioners use different operators.
    pub fn batch_key(&self) -> BatchKey {
        self.key
    }
}

/// Tolerances compared bit-exactly so the key is hashable/Eq.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopBits {
    kind: u8,
    tol_bits: u64,
    window: usize,
}

impl StopBits {
    fn of(stop: StopCriterion) -> Self {
        match stop {
            StopCriterion::RelativeResidual(t) => StopBits {
                kind: 0,
                tol_bits: t.to_bits(),
                window: 0,
            },
            StopCriterion::AbsoluteResidual(t) => StopBits {
                kind: 1,
                tol_bits: t.to_bits(),
                window: 0,
            },
            StopCriterion::Stagnation { window, min_drop } => StopBits {
                kind: 2,
                tol_bits: min_drop.to_bits(),
                window,
            },
        }
    }
}

/// Everything that must match for two jobs to be co-executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchKey {
    pub matrix_ptr: usize,
    pub fingerprint: Fingerprint,
    pub solver: SolverKind,
    pub stop: StopBits,
    pub max_iters: usize,
    /// Canonical registry name of the requested partitioner.
    pub partitioner: &'static str,
    /// Grid dims for multigrid jobs (`None` otherwise): two jobs with
    /// different grids need different hierarchies even on one matrix.
    pub grid: Option<hpf_mg::GridDims>,
}

/// A group of jobs sharing one [`BatchKey`], executed together.
#[derive(Debug)]
pub struct Batch {
    pub jobs: Vec<Job>,
}

/// Most jobs merged into one batch.
pub(crate) const MAX_BATCH: usize = 16;

/// Pull every job matching `seed`'s key out of `pending` (front to
/// back), up to `MAX_BATCH` (16) jobs total including the seed. Non-matching
/// jobs stay queued in order. Pure queue surgery, so the policy is
/// testable without threads.
pub fn form_batch(seed: Job, pending: &mut VecDeque<Job>) -> Batch {
    let key = seed.batch_key();
    let mut jobs = vec![seed];
    let mut i = 0;
    while i < pending.len() && jobs.len() < MAX_BATCH {
        if pending[i].batch_key() == key {
            // Preserves relative order of the remaining jobs.
            let j = pending.remove(i).expect("index checked");
            jobs.push(j);
        } else {
            i += 1;
        }
    }
    Batch { jobs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_sparse::gen;
    use std::time::Duration;

    fn job_of(id: u64, request: SolveRequest) -> Job {
        // The receiving end is dropped: these tests never respond.
        Job::accepted(id, request).0
    }

    fn request(matrix: &Arc<hpf_sparse::CsrMatrix>) -> SolveRequest {
        SolveRequest::new(matrix.clone(), vec![1.0; matrix.n_rows()])
    }

    fn job(id: u64, matrix: &Arc<hpf_sparse::CsrMatrix>) -> Job {
        job_of(id, request(matrix))
    }

    #[test]
    fn same_matrix_jobs_merge_others_stay() {
        let a = Arc::new(gen::tridiagonal(12, 4.0, -1.0));
        let b = Arc::new(gen::tridiagonal(12, 4.0, -1.0)); // equal structure, distinct Arc
        let mut pending: VecDeque<Job> = [job(2, &a), job(3, &b), job(4, &a), job(5, &a)].into();
        let batch = form_batch(job(1, &a), &mut pending);
        let ids: Vec<u64> = batch.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 2, 4, 5]);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, 3);
    }

    #[test]
    fn batch_respects_max_batch() {
        let a = Arc::new(gen::tridiagonal(8, 4.0, -1.0));
        let mut pending: VecDeque<Job> = (2..22).map(|i| job(i, &a)).collect();
        let batch = form_batch(job(1, &a), &mut pending);
        assert_eq!(batch.jobs.len(), MAX_BATCH);
        assert_eq!(pending.len(), 21 - MAX_BATCH);
        assert_eq!(
            pending[0].id,
            MAX_BATCH as u64 + 1,
            "the rest stay in order"
        );
    }

    #[test]
    fn differing_solver_or_stop_splits_batches() {
        let a = Arc::new(gen::tridiagonal(8, 4.0, -1.0));
        let other = job_of(2, request(&a).solver(SolverKind::Bicgstab));
        let tighter = job_of(3, request(&a).stop(StopCriterion::RelativeResidual(1e-12)));
        let mut pending: VecDeque<Job> = [other, tighter, job(4, &a)].into();
        let batch = form_batch(job(1, &a), &mut pending);
        let ids: Vec<u64> = batch.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 4]);
        assert_eq!(pending.len(), 2);
    }

    #[test]
    fn differing_partitioner_splits_batches() {
        let a = Arc::new(gen::tridiagonal(8, 4.0, -1.0));
        let other = job_of(2, request(&a).partitioner("greedy-hypergraph"));
        let mut pending: VecDeque<Job> = [other, job(3, &a)].into();
        let batch = form_batch(job(1, &a), &mut pending);
        let ids: Vec<u64> = batch.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, 2);
    }

    #[test]
    fn the_key_is_fixed_when_the_job_is_made() {
        let a = Arc::new(gen::tridiagonal(8, 4.0, -1.0));
        let j = job_of(1, request(&a).partitioner("nnz-bisect").max_iters(9));
        let key = j.batch_key();
        assert_eq!(key.matrix_ptr, Arc::as_ptr(&a) as usize);
        assert_eq!(key.fingerprint, Fingerprint::of(&a));
        assert_eq!((key.partitioner, key.max_iters), ("nnz-bisect", 9));
        assert_eq!(key, j.batch_key());
    }

    #[test]
    fn deadline_expiry_is_relative_to_submission() {
        let a = Arc::new(gen::tridiagonal(8, 4.0, -1.0));
        let mut j = job(1, &a);
        assert!(!j.deadline_expired(Instant::now()));
        j.request.deadline = Some(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(1));
        assert!(j.deadline_expired(Instant::now()));
    }
}
