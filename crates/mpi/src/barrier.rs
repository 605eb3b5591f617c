//! `MPI_Barrier` algorithm variants.
//!
//! These mirror the algorithms of Open MPI's `coll/tuned` module that
//! the paper evaluates in Figs. 7–8: linear, double ring, recursive
//! doubling, bruck (dissemination) and (binomial) tree. Their exit-time
//! *imbalance* characteristics differ wildly, which is exactly the
//! paper's point about barrier-based benchmarking.

use hcs_sim::{RankCtx, Schedule};

use crate::Comm;

/// Which barrier algorithm to run (Open MPI `coll_tuned_barrier_algorithm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierAlgorithm {
    /// Fan-in to rank 0, then individual releases (Open MPI "linear").
    Linear,
    /// A token circles the ring twice ("double ring") — O(p) latency and
    /// by far the largest exit imbalance.
    DoubleRing,
    /// Pairwise exchange over hypercube dimensions ("recursive doubling").
    RecursiveDoubling,
    /// Dissemination barrier ("bruck").
    Bruck,
    /// Binomial-tree fan-in + fan-out ("tree").
    Tree,
}

impl BarrierAlgorithm {
    /// All variants, in the order used by the paper's Fig. 8.
    pub const ALL: [BarrierAlgorithm; 5] = [
        BarrierAlgorithm::Bruck,
        BarrierAlgorithm::DoubleRing,
        BarrierAlgorithm::RecursiveDoubling,
        BarrierAlgorithm::Tree,
        BarrierAlgorithm::Linear,
    ];

    /// Stable label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            BarrierAlgorithm::Linear => "linear",
            BarrierAlgorithm::DoubleRing => "double ring",
            BarrierAlgorithm::RecursiveDoubling => "rec. doubling",
            BarrierAlgorithm::Bruck => "bruck",
            BarrierAlgorithm::Tree => "tree",
        }
    }
}

impl BarrierAlgorithm {
    /// How many of a node's ranks send inter-node messages concurrently
    /// while this barrier runs (drives the statistical NIC-contention
    /// term): dissemination-style algorithms keep every rank sending
    /// each round, whereas the tree fan-in/fan-out and the sequential
    /// ring have at most one inter-node sender per node at a time.
    fn nic_concurrency(&self, node_peers: usize) -> usize {
        match self {
            BarrierAlgorithm::Bruck
            | BarrierAlgorithm::RecursiveDoubling
            | BarrierAlgorithm::Linear => node_peers,
            BarrierAlgorithm::Tree | BarrierAlgorithm::DoubleRing => 1,
        }
    }
}

impl Comm {
    /// Blocks until every member has entered (the `MPI_Barrier`
    /// analogue), using the selected algorithm.
    pub fn barrier(&mut self, ctx: &mut RankCtx, alg: BarrierAlgorithm) {
        if self.size() <= 1 {
            return;
        }
        let (r, p) = (self.rank(), self.size());
        let s = &mut self.sched;
        s.start(&[], None);
        match alg {
            BarrierAlgorithm::Linear => linear(s, r, p),
            BarrierAlgorithm::DoubleRing => double_ring(s, r, p),
            BarrierAlgorithm::RecursiveDoubling => recursive_doubling(s, r, p),
            BarrierAlgorithm::Bruck => bruck(s, r, p),
            BarrierAlgorithm::Tree => tree(s, r, p),
        }
        self.run_sched(ctx, alg.nic_concurrency(self.node_peers));
    }
}

// Every barrier step moves an empty token.

fn linear(s: &mut Schedule, r: usize, p: usize) {
    if r == 0 {
        for src in 1..p {
            s.recv_drop(src);
        }
        for dst in 1..p {
            s.send(dst);
        }
    } else {
        s.send(0);
        s.recv_drop(0);
    }
}

fn double_ring(s: &mut Schedule, r: usize, p: usize) {
    let left = (r + p - 1) % p;
    let right = (r + 1) % p;
    if r == 0 {
        // Pass 1: prove everyone entered.
        s.send(right);
        s.recv_drop(left);
        // Pass 2: release everyone.
        s.send(right);
        s.recv_drop(left);
    } else {
        s.recv_drop(left);
        s.send(right);
        s.recv_drop(left);
        s.send(right);
    }
}

fn recursive_doubling(s: &mut Schedule, r: usize, p: usize) {
    let mut m = 1usize;
    while m * 2 <= p {
        m *= 2;
    }
    if r >= m {
        // Extra ranks fold into their low partner, then await release.
        s.send(r - m);
        s.recv_drop(r - m);
        return;
    }
    if r < p - m {
        s.recv_drop(r + m);
    }
    let mut mask = 1usize;
    while mask < m {
        s.send(r ^ mask);
        s.recv_drop(r ^ mask);
        mask <<= 1;
    }
    if r < p - m {
        s.send(r + m);
    }
}

fn bruck(s: &mut Schedule, r: usize, p: usize) {
    let mut dist = 1usize;
    while dist < p {
        s.send((r + dist) % p);
        s.recv_drop((r + p - dist) % p);
        dist <<= 1;
    }
}

fn tree(s: &mut Schedule, r: usize, p: usize) {
    // Binomial fan-in.
    let mut mask = 1usize;
    while mask < p {
        if r & mask != 0 {
            s.send(r - mask);
            break;
        }
        if r + mask < p {
            s.recv_drop(r + mask);
        }
        mask <<= 1;
    }
    // Binomial fan-out (release), mirroring the fan-in.
    if r != 0 {
        s.recv_drop(r - mask);
    }
    mask >>= 1;
    while mask > 0 {
        if r & mask == 0 && r + mask < p {
            s.send(r + mask);
        }
        mask >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_sim::machines::testbed;

    /// Correctness harness: no rank may exit a barrier before the last
    /// rank entered it. Rank `p-1` enters late; everyone's exit time
    /// must be at or after its entry.
    fn assert_barrier_synchronizes(alg: BarrierAlgorithm, nodes: usize, cores: usize, seed: u64) {
        let cluster = testbed(nodes, cores).cluster(seed);
        let late_entry = 3e-3;
        let times = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            if ctx.rank() == comm.size() - 1 {
                ctx.compute(hcs_sim::secs(late_entry));
            }
            comm.barrier(ctx, alg);
            ctx.now().seconds()
        });
        for (r, &t) in times.iter().enumerate() {
            assert!(
                t >= late_entry,
                "{alg:?}: rank {r} exited at {t:.6} before the last entry {late_entry}"
            );
        }
    }

    #[test]
    fn all_barriers_synchronize() {
        for alg in BarrierAlgorithm::ALL {
            // Power-of-two and non-power-of-two sizes, multi-node.
            assert_barrier_synchronizes(alg, 2, 4, 10);
            assert_barrier_synchronizes(alg, 3, 3, 11);
            assert_barrier_synchronizes(alg, 1, 2, 12);
            assert_barrier_synchronizes(alg, 5, 1, 13);
        }
    }

    #[test]
    fn single_rank_barrier_is_noop() {
        let cluster = testbed(1, 1).cluster(1);
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let before = ctx.now();
            comm.barrier(ctx, BarrierAlgorithm::Bruck);
            assert_eq!(ctx.now(), before);
        });
    }

    #[test]
    fn back_to_back_barriers_do_not_cross_talk() {
        let cluster = testbed(2, 2).cluster(2);
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            for alg in BarrierAlgorithm::ALL {
                comm.barrier(ctx, alg);
            }
            for _ in 0..20 {
                comm.barrier(ctx, BarrierAlgorithm::Tree);
            }
        });
    }

    #[test]
    fn double_ring_exit_spread_exceeds_tree() {
        // The qualitative claim behind Fig. 8: a sequential-token barrier
        // spreads exits far more than a tree barrier.
        let cluster = testbed(8, 4).cluster(3);
        let spread = |alg: BarrierAlgorithm| {
            let times = cluster.run(|ctx| {
                let mut comm = Comm::world(ctx);
                comm.barrier(ctx, alg);
                ctx.now().seconds()
            });
            let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            max - min
        };
        let ring = spread(BarrierAlgorithm::DoubleRing);
        let tree = spread(BarrierAlgorithm::Tree);
        assert!(
            ring > 3.0 * tree,
            "double-ring spread {ring:.2e} vs tree {tree:.2e}"
        );
    }

    #[test]
    fn barrier_counts_match_complexity() {
        // Bruck: ceil(log2 p) messages per rank; double ring: 2 per rank.
        let cluster = testbed(4, 4).cluster(4);
        let counts = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            comm.barrier(ctx, BarrierAlgorithm::Bruck);
            let after_bruck = ctx.counters().sent_msgs;
            comm.barrier(ctx, BarrierAlgorithm::DoubleRing);
            (after_bruck, ctx.counters().sent_msgs - after_bruck)
        });
        for (bruck, ring) in counts {
            assert_eq!(bruck, 4, "log2(16) rounds");
            assert_eq!(ring, 2);
        }
    }
}
