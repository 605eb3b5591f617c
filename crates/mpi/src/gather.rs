//! `MPI_Gather`, `MPI_Scatter` and `allgather`.
//!
//! Linear (rooted) implementations: the paper's algorithms use scatter
//! once per synchronization (HCA2's model distribution) and gather and
//! allgather for communicator creation. The allgather is a gather at
//! member 0 plus a bcast of the packed records, so every member reads
//! all `p` records: `O(p²)` host work over the members, and on a large
//! world communicator the dominant cost of a split (two H2HCA splits
//! were ≈ 93 % of an 8,192-rank sync while each member still copied the
//! records out). The packed buffer is therefore shared by reference
//! (`Comm::allgather_in_place`), and `split` reads its records in place
//! instead of copying them per member.

use hcs_sim::msg::Payload;
use hcs_sim::RankCtx;

use crate::Comm;

impl Comm {
    /// Gathers every member's `data` at `root`; returns `Some(vec)` (in
    /// communicator rank order) at the root and `None` elsewhere.
    pub fn gather(&mut self, ctx: &mut RankCtx, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let at_root = self.gather_in_place(ctx, root, data);
        let parts = self.sched.parts_mut();
        at_root.then(|| {
            let mut out: Vec<Vec<u8>> = parts.iter().map(|p| p.to_vec()).collect();
            out[root] = data.to_vec();
            out
        })
    }

    /// [`Comm::gather`], leaving the contributions where they lie: in
    /// this member's schedule's parts at the root (whose own part is
    /// empty). Returns whether this member is the root.
    fn gather_in_place(&mut self, ctx: &mut RankCtx, root: usize, data: &[u8]) -> bool {
        let p = self.size();
        assert!(root < p, "gather root {root} out of range");
        let at_root = self.my_pos == root;
        let s = &mut self.sched;
        s.start(data, None);
        if at_root {
            s.parts_mut().resize(p, Payload::empty());
            for r in (0..p).filter(|&r| r != root) {
                s.recv_part(r, r);
            }
        } else {
            s.send(root);
        }
        // Linear gather: every rank posts its message at once — full
        // per-node NIC concurrency.
        self.run_sched(ctx, self.node_peers);
        at_root
    }

    /// Scatters one buffer per member from `root` (which must pass
    /// `Some(chunks)` with exactly `size` entries); returns this member's
    /// chunk. This is the `MPI_Scatter` HCA2 uses to distribute the
    /// per-rank clock models.
    pub fn scatter(
        &mut self,
        ctx: &mut RankCtx,
        root: usize,
        chunks: Option<&[Vec<u8>]>,
    ) -> Vec<u8> {
        let p = self.size();
        assert!(root < p, "scatter root {root} out of range");
        let at_root = self.my_pos == root;
        let s = &mut self.sched;
        if at_root {
            let chunks = chunks.expect("scatter root must supply chunks");
            assert_eq!(chunks.len(), p, "scatter needs one chunk per member");
            s.start(&chunks[root], None);
            let parts = chunks.iter().map(|c| Payload::from_slice(c));
            s.parts_mut().extend(parts);
            for r in (0..p).filter(|&r| r != root) {
                s.send_part(r, r);
            }
        } else {
            s.start(&[], None);
            s.recv_replace(root);
        }
        // Linear scatter: only the root sends (sequentially) — no
        // concurrent senders per node.
        self.run_sched(ctx, 1);
        self.sched.data().to_vec()
    }

    /// Every member contributes `data`; every member receives all
    /// contributions in communicator rank order (gather at 0 + bcast of
    /// the length-prefixed concatenation).
    pub fn allgather(&mut self, ctx: &mut RankCtx, data: &[u8]) -> Vec<Vec<u8>> {
        self.allgather_in_place(ctx, data);
        records(self.sched.data(), self.size())
            .map(<[u8]>::to_vec)
            .collect()
    }

    /// [`Comm::allgather`], leaving the length-prefixed concatenation
    /// where it lies: in this member's schedule, shared with every
    /// member. Read it with [`records`] or [`fixed_records`].
    pub(crate) fn allgather_in_place(&mut self, ctx: &mut RankCtx, data: &[u8]) {
        let mut packed = Vec::new();
        if self.gather_in_place(ctx, 0, data) {
            let parts = self.sched.parts_mut();
            let len = parts.iter().map(|p| PREFIX + p.len()).sum::<usize>() + data.len();
            packed.reserve_exact(len);
            for (i, part) in parts.iter().enumerate() {
                let part = if i == 0 { data } else { part };
                packed.extend_from_slice(&len_prefix(part.len()));
                packed.extend_from_slice(part);
            }
        }
        self.bcast_in_place(ctx, 0, &packed);
    }
}

/// Bytes of the length prefix before each record of an allgather's
/// packed buffer.
const PREFIX: usize = 4;

fn len_prefix(len: usize) -> [u8; PREFIX] {
    u32::try_from(len)
        .expect("an allgather record fits in 32 bits")
        .to_le_bytes()
}

/// The `n` records of an allgather's length-prefixed concatenation, in
/// member order.
///
/// # Panics
/// Panics (as the iteration reaches it) on a truncated buffer, and at
/// the end on trailing bytes.
fn records(packed: &[u8], n: usize) -> impl Iterator<Item = &[u8]> {
    let mut off = 0usize;
    (0..n).map(move |i| {
        let len = u32::from_le_bytes(
            packed[off..off + PREFIX]
                .try_into()
                .expect("truncated allgather"),
        ) as usize;
        let rec = &packed[off + PREFIX..off + PREFIX + len];
        off += PREFIX + len;
        if i + 1 == n {
            assert_eq!(off, packed.len(), "trailing bytes in allgather payload");
        }
        rec
    })
}

/// The `n` records of an allgather whose every contribution was `len`
/// bytes, in member order, read at a fixed stride (so from either end).
///
/// # Panics
/// Panics if the buffer is not `n` records' length (and, in debug
/// builds, if a record is not `len` bytes).
pub(crate) fn fixed_records(
    packed: &[u8],
    n: usize,
    len: usize,
) -> impl DoubleEndedIterator<Item = &[u8]> + ExactSizeIterator {
    assert_eq!(
        packed.len(),
        n * (PREFIX + len),
        "an allgather of {len}-byte records"
    );
    packed.chunks_exact(PREFIX + len).map(move |rec| {
        // Every member reads all `n` records, so the per-record check is
        // a debug one; the length check above holds in release.
        debug_assert_eq!(
            rec[..PREFIX],
            len_prefix(len),
            "an allgather of {len}-byte records"
        );
        &rec[PREFIX..]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_sim::machines::testbed;

    #[test]
    fn gather_collects_in_rank_order() {
        let cluster = testbed(2, 2).cluster(1);
        let res = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            comm.gather(ctx, 1, &[comm.rank() as u8 * 10])
        });
        assert!(res[0].is_none() && res[2].is_none() && res[3].is_none());
        let at_root = res[1].as_ref().unwrap();
        assert_eq!(at_root, &vec![vec![0], vec![10], vec![20], vec![30]]);
    }

    #[test]
    fn scatter_distributes_chunks() {
        let cluster = testbed(2, 2).cluster(2);
        let res = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let chunks: Option<Vec<Vec<u8>>> = if comm.rank() == 0 {
                Some(
                    (0..comm.size())
                        .map(|r| vec![r as u8, r as u8 + 1])
                        .collect(),
                )
            } else {
                None
            };
            comm.scatter(ctx, 0, chunks.as_deref())
        });
        for (r, chunk) in res.iter().enumerate() {
            assert_eq!(chunk, &vec![r as u8, r as u8 + 1]);
        }
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let cluster = testbed(3, 1).cluster(3);
        let res = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            // Variable-length contributions.
            let mine = vec![comm.rank() as u8; comm.rank() + 1];
            comm.allgather(ctx, &mine)
        });
        for per_rank in &res {
            assert_eq!(per_rank, &vec![vec![0u8; 1], vec![1u8; 2], vec![2u8; 3]]);
        }
    }

    #[test]
    fn allgather_with_empty_contributions() {
        let cluster = testbed(1, 3).cluster(4);
        let res = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let mine: Vec<u8> = if comm.rank() == 1 { vec![9] } else { vec![] };
            comm.allgather(ctx, &mine)
        });
        assert_eq!(res[0], vec![vec![], vec![9], vec![]]);
    }

    #[test]
    #[should_panic(expected = "one chunk per member")]
    fn scatter_wrong_chunk_count_panics() {
        let cluster = testbed(1, 2).cluster(5);
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let chunks = if comm.rank() == 0 {
                Some(vec![vec![1u8]])
            } else {
                None
            };
            comm.scatter(ctx, 0, chunks.as_deref());
        });
    }
}
