//! `MPI_Comm_split` and topology-aware convenience splits.
//!
//! Like real MPI, splitting is a *collective with real communication*
//! (an allgather of `(color, key)`), so it costs wall-clock time — the
//! paper deliberately includes communicator creation in the measured
//! synchronization duration of the hierarchical schemes (§IV-E), and so
//! do we.

use hcs_sim::RankCtx;

use crate::gather::fixed_records;
use crate::{Comm, CTX_MAX};

/// Number of child-context slots per communicator (context ids form a
/// base-8 path down the split tree).
const CTX_FANOUT: u32 = 8;

/// Bytes of one member's record of a split's allgather.
const RECORD: usize = 17;

/// One member's `(color_present, color, key)` record of a split's
/// allgather.
fn record(color: Option<u64>, key: u64) -> [u8; RECORD] {
    let mut rec = [0u8; RECORD];
    rec[0] = color.is_some() as u8;
    rec[1..9].copy_from_slice(&color.unwrap_or(0).to_le_bytes());
    rec[9..17].copy_from_slice(&key.to_le_bytes());
    rec
}

/// Every member's color (`None` for `MPI_UNDEFINED`) and key, in member
/// order, read in place from the allgather's packed buffer.
fn records(
    packed: &[u8],
    n: usize,
) -> impl DoubleEndedIterator<Item = (Option<u64>, u64)> + ExactSizeIterator + '_ {
    fixed_records(packed, n, RECORD).map(|rec| {
        let word = |at: usize| {
            u64::from_le_bytes(rec[at..at + 8].try_into().expect("17-byte split record"))
        };
        ((rec[0] != 0).then(|| word(1)), word(9))
    })
}

impl Comm {
    /// Splits this communicator: members passing the same `Some(color)`
    /// form a new communicator, ordered by `(key, old rank)`; members
    /// passing `None` (MPI's `MPI_UNDEFINED`) get `None` back.
    ///
    /// All members must call this (collective).
    pub fn split(&mut self, ctx: &mut RankCtx, color: Option<u64>, key: u64) -> Option<Comm> {
        let child_ctx = self.next_child_ctx();
        self.allgather_in_place(ctx, &record(color, key));
        // A member without a color gets no communicator.
        color?;
        let all = self.sched.data();
        let mine = || {
            records(all, self.size())
                .enumerate()
                .filter(|(_, (c, _))| *c == color)
        };
        // Counted first, so the list is one allocation of its final size.
        let mut members: Vec<(u64, usize)> = Vec::with_capacity(mine().count());
        members.extend(mine().map(|(old_rank, (_, k))| (k, old_rank)));
        members.sort_unstable();
        let globals = members
            .iter()
            .map(|&(_, old)| self.global_rank(old))
            .collect();
        Some(Comm::from_members(ctx, globals, child_ctx))
    }

    /// The context id of the next child communicator: every member
    /// agrees on it before communicating.
    fn next_child_ctx(&mut self) -> u32 {
        self.split_count += 1;
        let child_ctx = self.ctx_id * CTX_FANOUT + self.split_count;
        assert!(
            child_ctx <= CTX_MAX && self.split_count < CTX_FANOUT,
            "communicator split tree exhausted the context-id space"
        );
        child_ctx
    }

    /// `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`: one communicator per
    /// compute node, containing this communicator's members on that node.
    pub fn split_shared_node(&mut self, ctx: &mut RankCtx) -> Comm {
        let node = ctx.topology().node_of(ctx.rank()) as u64;
        self.split(ctx, Some(node), self.rank() as u64)
            .expect("every rank has a node color")
    }

    /// One communicator per socket (for the H3HCA bottom level).
    pub fn split_socket(&mut self, ctx: &mut RankCtx) -> Comm {
        let socket = ctx.topology().socket_of(ctx.rank()) as u64;
        self.split(ctx, Some(socket), self.rank() as u64)
            .expect("every rank has a socket color")
    }

    /// The "leaders" communicator: the lowest-ranked member of each
    /// `group` (as computed by `group_of`) joins; everyone else gets
    /// `None`. Used for the inter-node and inter-socket levels of the
    /// hierarchical schemes.
    ///
    /// Each member computes only its own group: the split's allgather
    /// carries it as the record's color, and the members read the
    /// leaders off the records. The records are as large as those of
    /// [`Comm::split`] with a leader's color, so the messages, and the
    /// virtual time they take, are the same.
    pub fn split_leaders(
        &mut self,
        ctx: &mut RankCtx,
        group_of: impl Fn(&RankCtx, usize) -> u64,
    ) -> Option<Comm> {
        let my_group = group_of(ctx, ctx.rank());
        let child_ctx = self.next_child_ctx();
        let me = self.rank();
        self.allgather_in_place(ctx, &record(Some(my_group), me as u64));
        let all = self.sched.data();
        let groups =
            || records(all, self.size()).map(|(g, _)| g.expect("every member names its group"));
        // Am I the lowest comm rank of my group? (Searched downward: a
        // group's members are usually adjacent.)
        if groups().take(me).rev().any(|g| g == my_group) {
            return None;
        }
        // The leaders: each group's first member, in comm rank order.
        let mut seen: Vec<u64> = Vec::new();
        let mut leaders = Vec::new();
        for (r, g) in groups().enumerate() {
            if let Err(at) = seen.binary_search(&g) {
                seen.insert(at, g);
                leaders.push(self.global_rank(r));
            }
        }
        Some(Comm::from_members(ctx, leaders.into(), child_ctx))
    }

    /// Leaders-of-nodes communicator (inter-node level of H2HCA).
    pub fn split_node_leaders(&mut self, ctx: &mut RankCtx) -> Option<Comm> {
        self.split_leaders(ctx, |c, global| c.topology().node_of(global) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_sim::machines::{jupiter, testbed};

    #[test]
    fn split_partitions_by_color() {
        let cluster = testbed(1, 6).cluster(1);
        let res = cluster.run(|ctx| {
            let mut world = Comm::world(ctx);
            let color = (ctx.rank() % 2) as u64;
            let sub = world.split(ctx, Some(color), 0).unwrap();
            (sub.size(), sub.rank(), sub.members().to_vec())
        });
        assert_eq!(res[0].2, vec![0, 2, 4]);
        assert_eq!(res[1].2, vec![1, 3, 5]);
        assert_eq!(res[4].1, 2, "rank 4 is third member of the even comm");
        assert!(res.iter().all(|(size, ..)| *size == 3));
    }

    #[test]
    fn split_key_reorders() {
        let cluster = testbed(1, 4).cluster(2);
        let res = cluster.run(|ctx| {
            let mut world = Comm::world(ctx);
            // Reverse order via the key.
            let key = (10 - ctx.rank()) as u64;
            let sub = world.split(ctx, Some(0), key).unwrap();
            sub.rank()
        });
        assert_eq!(res, vec![3, 2, 1, 0]);
    }

    #[test]
    fn undefined_color_yields_none() {
        let cluster = testbed(1, 4).cluster(3);
        let res = cluster.run(|ctx| {
            let mut world = Comm::world(ctx);
            let color = if ctx.rank() < 2 { Some(7u64) } else { None };
            world.split(ctx, color, 0).map(|c| c.size())
        });
        assert_eq!(res, vec![Some(2), Some(2), None, None]);
    }

    #[test]
    fn shared_node_split_matches_topology() {
        let cluster = testbed(3, 4).cluster(4);
        let res = cluster.run(|ctx| {
            let mut world = Comm::world(ctx);
            let node_comm = world.split_shared_node(ctx);
            (node_comm.size(), node_comm.members().to_vec())
        });
        for (rank, (size, members)) in res.iter().enumerate() {
            let node = rank / 4;
            assert_eq!(*size, 4);
            assert_eq!(members, &(node * 4..(node + 1) * 4).collect::<Vec<_>>());
        }
    }

    #[test]
    fn node_leaders_split() {
        let cluster = testbed(3, 4).cluster(5);
        let res = cluster.run(|ctx| {
            let mut world = Comm::world(ctx);
            world.split_node_leaders(ctx).map(|c| c.members().to_vec())
        });
        for (rank, members) in res.iter().enumerate() {
            if rank % 4 == 0 {
                assert_eq!(members.as_deref(), Some(&[0usize, 4, 8][..]));
            } else {
                assert!(members.is_none());
            }
        }
    }

    #[test]
    fn socket_split_on_dual_socket_machine() {
        let cluster = jupiter().with_shape(2, 2, 2).cluster(6);
        let res = cluster.run(|ctx| {
            let mut world = Comm::world(ctx);
            let sock = world.split_socket(ctx);
            sock.members().to_vec()
        });
        assert_eq!(res[0], vec![0, 1]);
        assert_eq!(res[2], vec![2, 3]);
        assert_eq!(res[5], vec![4, 5]);
        assert_eq!(res[7], vec![6, 7]);
    }

    #[test]
    fn nested_splits_use_distinct_contexts() {
        let cluster = testbed(2, 2).cluster(7);
        cluster.run(|ctx| {
            let mut world = Comm::world(ctx);
            let mut node = world.split_shared_node(ctx);
            let pair = node.split(ctx, Some(0), 0).unwrap();
            assert_ne!(world.ctx_id, node.ctx_id);
            assert_ne!(node.ctx_id, pair.ctx_id);
            // Collectives on all three must coexist.
            let mut world2 = world.clone();
            let s = world2.allreduce_f64(ctx, 1.0, crate::ReduceOp::F64Sum);
            assert_eq!(s, 4.0);
        });
    }
}
