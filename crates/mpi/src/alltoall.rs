//! `MPI_Alltoall` — one of the two collectives the paper's introduction
//! singles out as a tuning target for small payloads (8 B – 1 KiB).
//!
//! Two classic algorithms:
//! - **Bruck**: `⌈log₂ p⌉` rounds of bulk exchanges — latency-optimal
//!   for small messages (what tuned MPI libraries select there),
//! - **Pairwise**: `p − 1` rounds of single exchanges with partner
//!   `rank ^ step` (power of two) or ring offsets — bandwidth-friendly
//!   for large messages.

use hcs_sim::RankCtx;

use crate::{Comm, RawTag};

/// Which `MPI_Alltoall` algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AlltoallAlgorithm {
    /// Bruck's log-round algorithm (small messages).
    #[default]
    Bruck,
    /// Pairwise exchange, `p - 1` rounds.
    Pairwise,
}

impl AlltoallAlgorithm {
    /// Stable label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            AlltoallAlgorithm::Bruck => "bruck",
            AlltoallAlgorithm::Pairwise => "pairwise",
        }
    }
}

impl Comm {
    /// All-to-all personalized exchange: `blocks[d]` goes to rank `d`;
    /// the result's entry `s` is the block rank `s` addressed to us.
    /// All blocks must have the same length on all ranks (MPI semantics).
    pub fn alltoall(
        &mut self,
        ctx: &mut RankCtx,
        blocks: &[Vec<u8>],
        alg: AlltoallAlgorithm,
    ) -> Vec<Vec<u8>> {
        let p = self.size();
        assert_eq!(blocks.len(), p, "alltoall needs one block per member");
        let block_len = blocks.first().map_or(0, Vec::len);
        assert!(
            blocks.iter().all(|b| b.len() == block_len),
            "alltoall blocks must have equal length"
        );
        if p == 1 {
            return vec![blocks[0].clone()];
        }
        let tag = self.next_coll_tag();
        self.with_contention(ctx, |comm, ctx| match alg {
            AlltoallAlgorithm::Bruck => bruck(comm, ctx, tag, blocks, block_len),
            AlltoallAlgorithm::Pairwise => pairwise(comm, ctx, tag, blocks),
        })
    }
}

/// Bruck alltoall. Data for destination `d` starts local; in round `k`
/// every rank ships all blocks whose relative destination has bit `k`
/// set to rank `r + 2^k`, then receives the matching set from `r - 2^k`.
fn bruck(
    comm: &Comm,
    ctx: &mut RankCtx,
    tag: RawTag,
    blocks: &[Vec<u8>],
    block_len: usize,
) -> Vec<Vec<u8>> {
    let p = comm.size();
    let r = comm.rank();
    // Phase 1: local rotation — slot i holds the block for (r + i) % p.
    let mut slots: Vec<Vec<u8>> = (0..p).map(|i| blocks[(r + i) % p].clone()).collect();

    // Phase 2: log rounds. Slot indices with bit k set travel 2^k ranks
    // forward.
    let mut dist = 1usize;
    while dist < p {
        let dst = comm.global_rank((r + dist) % p);
        let src = comm.global_rank((r + p - dist) % p);
        // Pack all travelling slots (ascending index).
        let travelling: Vec<usize> = (0..p).filter(|i| i & dist != 0).collect();
        let mut packed = Vec::with_capacity(travelling.len() * (block_len + 4));
        for &i in &travelling {
            packed.extend_from_slice(&(slots[i].len() as u32).to_le_bytes());
            packed.extend_from_slice(&slots[i]);
        }
        ctx.send(dst, tag, &packed);
        let incoming = ctx.recv(src, tag);
        let mut off = 0usize;
        for &i in &travelling {
            let len =
                u32::from_le_bytes(incoming[off..off + 4].try_into().expect("truncated")) as usize;
            off += 4;
            slots[i] = incoming[off..off + len].to_vec();
            off += len;
        }
        dist <<= 1;
    }

    // Phase 3: inverse rotation — after the rounds, slot i holds the
    // block *from* rank (r - i) % p.
    (0..p)
        .map(|s| std::mem::take(&mut slots[(r + p - s) % p]))
        .collect()
}

fn pairwise(comm: &Comm, ctx: &mut RankCtx, tag: RawTag, blocks: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let p = comm.size();
    let r = comm.rank();
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); p];
    out[r] = blocks[r].clone();
    for step in 1..p {
        // Ring-offset pairing works for any p (power-of-two p could use
        // XOR pairing; offsets keep it general).
        let send_to = (r + step) % p;
        let recv_from = (r + p - step) % p;
        ctx.send(comm.global_rank(send_to), tag, &blocks[send_to]);
        out[recv_from] = ctx.recv(comm.global_rank(recv_from), tag).into_vec();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_sim::machines::testbed;

    fn check(alg: AlltoallAlgorithm, nodes: usize, cores: usize, seed: u64) {
        let cluster = testbed(nodes, cores).cluster(seed);
        let p = nodes * cores;
        let res = cluster.run(move |ctx| {
            let mut comm = Comm::world(ctx);
            // Block for destination d from source s = [s, d, s+d].
            let blocks: Vec<Vec<u8>> = (0..p)
                .map(|d| vec![comm.rank() as u8, d as u8, (comm.rank() + d) as u8])
                .collect();
            comm.alltoall(ctx, &blocks, alg)
        });
        for (me, got) in res.iter().enumerate() {
            assert_eq!(got.len(), p);
            for (s, block) in got.iter().enumerate() {
                assert_eq!(
                    block,
                    &vec![s as u8, me as u8, (s + me) as u8],
                    "{alg:?} p={p}: rank {me} block from {s}"
                );
            }
        }
    }

    #[test]
    fn bruck_correct_various_sizes() {
        check(AlltoallAlgorithm::Bruck, 2, 2, 1); // power of two
        check(AlltoallAlgorithm::Bruck, 3, 2, 2); // 6 ranks
        check(AlltoallAlgorithm::Bruck, 7, 1, 3); // odd
        check(AlltoallAlgorithm::Bruck, 1, 2, 4); // two ranks
    }

    #[test]
    fn pairwise_correct_various_sizes() {
        check(AlltoallAlgorithm::Pairwise, 2, 2, 5);
        check(AlltoallAlgorithm::Pairwise, 3, 2, 6);
        check(AlltoallAlgorithm::Pairwise, 5, 1, 7);
    }

    #[test]
    fn singleton_alltoall() {
        let cluster = testbed(1, 1).cluster(8);
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let out = comm.alltoall(ctx, &[vec![1, 2, 3]], AlltoallAlgorithm::Bruck);
            assert_eq!(out, vec![vec![1, 2, 3]]);
        });
    }

    #[test]
    fn bruck_uses_fewer_rounds_than_pairwise() {
        let cluster = testbed(8, 1).cluster(9);
        let counts = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let blocks: Vec<Vec<u8>> = (0..comm.size()).map(|_| vec![0u8; 4]).collect();
            let _ = comm.alltoall(ctx, &blocks, AlltoallAlgorithm::Bruck);
            let after_bruck = ctx.counters().sent_msgs;
            let _ = comm.alltoall(ctx, &blocks, AlltoallAlgorithm::Pairwise);
            (after_bruck, ctx.counters().sent_msgs - after_bruck)
        });
        for (bruck, pairwise) in counts {
            assert_eq!(bruck, 3, "log2(8) rounds");
            assert_eq!(pairwise, 7, "p-1 rounds");
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn unequal_blocks_panic() {
        let cluster = testbed(1, 2).cluster(10);
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let blocks = vec![vec![1u8], vec![1u8, 2]];
            let _ = comm.alltoall(ctx, &blocks, AlltoallAlgorithm::Bruck);
        });
    }
}
