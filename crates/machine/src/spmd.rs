//! A real message-passing SPMD substrate.
//!
//! The paper contrasts HPF programs with hand-coded message-passing SPMD
//! implementations ("If we used the message-passing SPMD model, then each
//! processor would have a private copy of the vector q ... and a merge
//! operation would be employed at the end"). To make that comparison
//! concrete this module provides a miniature MPI-like world: `NP` ranks
//! running as real OS threads, exchanging typed messages over channels
//! (`std::sync::mpsc`, one receiver per rank), with per-rank traffic
//! counters that can be compared against the simulated HPF machine's
//! counters.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

/// Lock the traffic counters, taking a poisoned lock as it is: the one
/// critical section behind it adds to two counters, and a rank that
/// panics there fails the whole run anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A tagged message between ranks.
struct Msg {
    src: usize,
    tag: u32,
    payload: Vec<f64>,
}

/// Per-rank traffic statistics: what [`crate::Machine::total_messages`]
/// and [`crate::Machine::total_words_sent`] sum over the processors.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpmdStats {
    /// Messages sent by this rank.
    pub messages: u64,
    /// `f64` elements sent by this rank.
    pub words_sent: u64,
}

/// The communicator handed to each rank's node program.
pub struct Comm {
    rank: usize,
    np: usize,
    senders: Vec<Sender<Msg>>,
    receiver: Receiver<Msg>,
    /// Out-of-order messages parked until a matching recv.
    parked: VecDeque<Msg>,
    barrier: Arc<Barrier>,
    stats: Arc<Mutex<Vec<SpmdStats>>>,
}

impl Comm {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn np(&self) -> usize {
        self.np
    }

    /// Send `data` to rank `to` with message tag `tag`.
    pub fn send(&self, to: usize, tag: u32, data: &[f64]) {
        assert!(to < self.np, "destination rank out of range");
        assert_ne!(to, self.rank, "self-sends are not modelled");
        {
            let mut stats = lock(&self.stats);
            stats[self.rank].messages += 1;
            stats[self.rank].words_sent += data.len() as u64;
        }
        self.senders[to]
            .send(Msg {
                src: self.rank,
                tag,
                payload: data.to_vec(),
            })
            .expect("receiver hung up");
    }

    /// Blocking selective receive of a message from `from` with tag `tag`.
    pub fn recv(&mut self, from: usize, tag: u32) -> Vec<f64> {
        // First check messages that arrived earlier but did not match.
        if let Some(pos) = self
            .parked
            .iter()
            .position(|m| m.src == from && m.tag == tag)
        {
            let msg = self.parked.remove(pos).unwrap();
            return msg.payload;
        }
        loop {
            let msg = self.receiver.recv().expect("all senders hung up");
            if msg.src == from && msg.tag == tag {
                return msg.payload;
            }
            self.parked.push_back(msg);
        }
    }

    /// Synchronise all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Sum-allreduce of a scalar via a binomial tree to rank 0 and a
    /// broadcast back — the "merge phase" of a distributed dot product.
    pub fn allreduce_sum(&mut self, x: f64) -> f64 {
        let v = self.reduce_sum_vec(&[x]);
        self.bcast_from0(v)[0]
    }

    /// Element-wise sum-reduction of a vector to rank 0 (other ranks get
    /// an empty vec). This is the explicit merge of private `q` copies in
    /// the paper's SPMD comparison.
    pub fn reduce_sum_vec(&mut self, data: &[f64]) -> Vec<f64> {
        let mut acc = data.to_vec();
        let np = self.np;
        let rank = self.rank;
        // Binomial tree: in round d, ranks with bit d set send to
        // rank - 2^d, then retire.
        let mut d = 1usize;
        while d < np {
            if rank & d != 0 {
                self.send(rank - d, TAG_REDUCE + d as u32, &acc);
                return Vec::new();
            } else if rank + d < np {
                let other = self.recv(rank + d, TAG_REDUCE + d as u32);
                for (a, b) in acc.iter_mut().zip(other.iter()) {
                    *a += b;
                }
            }
            d <<= 1;
        }
        acc
    }

    /// Broadcast `data` (significant on rank 0) to all ranks.
    pub fn bcast_from0(&mut self, data: Vec<f64>) -> Vec<f64> {
        let np = self.np;
        let rank = self.rank;
        let mut acc = data;
        // Binomial tree mirror of reduce: highest round first.
        let mut d = 1usize;
        while d < np {
            d <<= 1;
        }
        d >>= 1;
        while d >= 1 {
            if rank & (d - 1) == 0 {
                // Active at this round.
                if rank & d != 0 {
                    acc = self.recv(rank - d, TAG_BCAST + d as u32);
                } else if rank + d < np {
                    self.send(rank + d, TAG_BCAST + d as u32, &acc);
                }
            }
            if d == 1 {
                break;
            }
            d >>= 1;
        }
        acc
    }

    /// Allgather: each rank contributes `data`; all ranks receive the
    /// concatenation in rank order. Implemented as an all-to-all of the
    /// local block — the paper's "all-to-all broadcast of the local
    /// vector elements" in Scenario 1.
    pub fn allgather(&mut self, data: &[f64]) -> Vec<Vec<f64>> {
        let np = self.np;
        let rank = self.rank;
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); np];
        out[rank] = data.to_vec();
        for other in 0..np {
            if other == rank {
                continue;
            }
            self.send(other, TAG_ALLGATHER, data);
        }
        for _ in 0..np - 1 {
            // Selective receive in arbitrary arrival order.
            let msg = self.recv_any(TAG_ALLGATHER);
            out[msg.0] = msg.1;
        }
        out
    }

    /// Receive any message with the given tag, returning `(src, data)`.
    fn recv_any(&mut self, tag: u32) -> (usize, Vec<f64>) {
        if let Some(pos) = self.parked.iter().position(|m| m.tag == tag) {
            let msg = self.parked.remove(pos).unwrap();
            return (msg.src, msg.payload);
        }
        loop {
            let msg = self.receiver.recv().expect("all senders hung up");
            if msg.tag == tag {
                return (msg.src, msg.payload);
            }
            self.parked.push_back(msg);
        }
    }
}

const TAG_REDUCE: u32 = 1 << 16;
const TAG_BCAST: u32 = 2 << 16;
const TAG_ALLGATHER: u32 = 3 << 16;

/// The SPMD world: spawns `np` ranks as scoped threads and runs the node
/// program on each.
pub struct SpmdWorld;

/// Result of an SPMD run: per-rank return values plus traffic statistics.
pub struct SpmdRun<R> {
    pub results: Vec<R>,
    pub stats: Vec<SpmdStats>,
}

impl<R> SpmdRun<R> {
    pub fn total_messages(&self) -> u64 {
        self.stats.iter().map(|s| s.messages).sum()
    }

    pub fn total_words_sent(&self) -> u64 {
        self.stats.iter().map(|s| s.words_sent).sum()
    }
}

impl SpmdWorld {
    /// Launch `np` ranks, each running `node(comm)`, and collect results
    /// in rank order.
    pub fn run<R: Send, F: Fn(Comm) -> R + Sync>(np: usize, node: F) -> SpmdRun<R> {
        assert!(np > 0);
        let stats = Arc::new(Mutex::new(vec![SpmdStats::default(); np]));
        let barrier = Arc::new(Barrier::new(np));

        let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(np);
        let mut receivers: Vec<Option<Receiver<Msg>>> = Vec::with_capacity(np);
        for _ in 0..np {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(Some(rx));
        }

        let comms: Vec<Comm> = (0..np)
            .map(|rank| Comm {
                rank,
                np,
                senders: senders.clone(),
                receiver: receivers[rank].take().unwrap(),
                parked: VecDeque::new(),
                barrier: barrier.clone(),
                stats: stats.clone(),
            })
            .collect();
        drop(senders);

        let results = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let node = &node;
                    s.spawn(move || node(comm))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("SPMD rank panicked"))
                .collect::<Vec<_>>()
        });

        let stats = lock(&stats).clone();
        SpmdRun { results, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_delivery() {
        let run = SpmdWorld::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[3.0, 4.0]);
                Vec::new()
            } else {
                comm.recv(0, 7)
            }
        });
        assert_eq!(run.results[1], vec![3.0, 4.0]);
        assert_eq!(run.total_messages(), 1);
        assert_eq!(run.total_words_sent(), 2);
    }

    #[test]
    fn selective_receive_reorders() {
        // Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
        let run = SpmdWorld::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 2, &[2.0]);
                comm.send(1, 1, &[1.0]);
                vec![]
            } else {
                let a = comm.recv(0, 1);
                let b = comm.recv(0, 2);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(run.results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn allreduce_sums_over_all_ranks() {
        for np in [1, 2, 3, 4, 7, 8] {
            let run = SpmdWorld::run(np, |mut comm| comm.allreduce_sum((comm.rank() + 1) as f64));
            let expect = (np * (np + 1) / 2) as f64;
            for r in &run.results {
                assert_eq!(*r, expect, "np={np}");
            }
        }
    }

    #[test]
    fn reduce_sum_vec_merges_private_copies() {
        // Each rank holds a private q; merged q = elementwise sum.
        let run = SpmdWorld::run(4, |mut comm| {
            let q_private = vec![comm.rank() as f64; 3];
            comm.reduce_sum_vec(&q_private)
        });
        assert_eq!(run.results[0], vec![6.0, 6.0, 6.0]);
        assert!(run.results[1].is_empty());
    }

    #[test]
    fn bcast_from0_replicates() {
        for np in [1, 2, 5, 8] {
            let run = SpmdWorld::run(np, |mut comm| {
                let data = if comm.rank() == 0 {
                    vec![9.0, 8.0]
                } else {
                    Vec::new()
                };
                comm.bcast_from0(data)
            });
            for r in &run.results {
                assert_eq!(*r, vec![9.0, 8.0], "np={np}");
            }
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let run = SpmdWorld::run(4, |mut comm| {
            let local = vec![comm.rank() as f64 * 10.0];
            comm.allgather(&local)
        });
        for r in &run.results {
            let flat: Vec<f64> = r.iter().flatten().cloned().collect();
            assert_eq!(flat, vec![0.0, 10.0, 20.0, 30.0]);
        }
    }

    #[test]
    fn barrier_does_not_deadlock() {
        let run = SpmdWorld::run(8, |comm| {
            comm.barrier();
            comm.rank()
        });
        assert_eq!(run.results, (0..8).collect::<Vec<_>>());
    }
}
