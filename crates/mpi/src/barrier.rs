//! `MPI_Barrier` algorithm variants.
//!
//! These mirror the algorithms of Open MPI's `coll/tuned` module that
//! the paper evaluates in Figs. 7–8: linear, double ring, recursive
//! doubling, bruck (dissemination) and (binomial) tree. Their exit-time
//! *imbalance* characteristics differ wildly, which is exactly the
//! paper's point about barrier-based benchmarking.

use hcs_sim::RankCtx;

use crate::{Comm, RawTag};

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
        let tag = self.next_coll_tag();
        let comm = self.clone();
        ctx.set_active_peers(alg.nic_concurrency(self.node_peers()));
        match alg {
            BarrierAlgorithm::Linear => linear(&comm, ctx, tag),
            BarrierAlgorithm::DoubleRing => double_ring(&comm, ctx, tag),
            BarrierAlgorithm::RecursiveDoubling => recursive_doubling(&comm, ctx, tag),
            BarrierAlgorithm::Bruck => bruck(&comm, ctx, tag),
            BarrierAlgorithm::Tree => tree(&comm, ctx, tag),
        }
        ctx.set_active_peers(1);
    }
}

const EMPTY: &[u8] = &[];

fn linear(comm: &Comm, ctx: &mut RankCtx, tag: RawTag) {
    let (r, p) = (comm.rank(), comm.size());
    if r == 0 {
        for src in 1..p {
            let _ = ctx.recv(comm.global_rank(src), tag);
        }
        for dst in 1..p {
            ctx.send(comm.global_rank(dst), tag, EMPTY);
        }
    } else {
        ctx.send(comm.global_rank(0), tag, EMPTY);
        let _ = ctx.recv(comm.global_rank(0), tag);
    }
}

fn double_ring(comm: &Comm, ctx: &mut RankCtx, tag: RawTag) {
    let (r, p) = (comm.rank(), comm.size());
    let left = comm.global_rank((r + p - 1) % p);
    let right = comm.global_rank((r + 1) % p);
    if r == 0 {
        // Pass 1: prove everyone entered.
        ctx.send(right, tag, EMPTY);
        let _ = ctx.recv(left, tag);
        // Pass 2: release everyone.
        ctx.send(right, tag, EMPTY);
        let _ = ctx.recv(left, tag);
    } else {
        let _ = ctx.recv(left, tag);
        ctx.send(right, tag, EMPTY);
        let _ = ctx.recv(left, tag);
        ctx.send(right, tag, EMPTY);
    }
}

fn recursive_doubling(comm: &Comm, ctx: &mut RankCtx, tag: RawTag) {
    let (r, p) = (comm.rank(), comm.size());
    let mut m = 1usize;
    while m * 2 <= p {
        m *= 2;
    }
    if r >= m {
        // Extra ranks fold into their low partner, then await release.
        ctx.send(comm.global_rank(r - m), tag, EMPTY);
        let _ = ctx.recv(comm.global_rank(r - m), tag);
        return;
    }
    if r < p - m {
        let _ = ctx.recv(comm.global_rank(r + m), tag);
    }
    let mut mask = 1usize;
    while mask < m {
        let partner = comm.global_rank(r ^ mask);
        ctx.send(partner, tag, EMPTY);
        let _ = ctx.recv(partner, tag);
        mask <<= 1;
    }
    if r < p - m {
        ctx.send(comm.global_rank(r + m), tag, EMPTY);
    }
}

fn bruck(comm: &Comm, ctx: &mut RankCtx, tag: RawTag) {
    let (r, p) = (comm.rank(), comm.size());
    let mut dist = 1usize;
    while dist < p {
        let dst = comm.global_rank((r + dist) % p);
        let src = comm.global_rank((r + p - dist) % p);
        ctx.send(dst, tag, EMPTY);
        let _ = ctx.recv(src, tag);
        dist <<= 1;
    }
}

fn tree(comm: &Comm, ctx: &mut RankCtx, tag: RawTag) {
    let (r, p) = (comm.rank(), comm.size());
    // Binomial fan-in.
    let mut mask = 1usize;
    while mask < p {
        if r & mask != 0 {
            ctx.send(comm.global_rank(r - mask), tag, EMPTY);
            break;
        }
        if r + mask < p {
            let _ = ctx.recv(comm.global_rank(r + mask), tag);
        }
        mask <<= 1;
    }
    // Binomial fan-out (release), mirroring the fan-in.
    if r != 0 {
        let _ = ctx.recv(comm.global_rank(r - mask), tag);
    }
    mask >>= 1;
    while mask > 0 {
        if r & mask == 0 && r + mask < p {
            ctx.send(comm.global_rank(r + mask), tag, EMPTY);
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
