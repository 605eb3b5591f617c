//! `MPI_Gather`, `MPI_Scatter` and `allgather`.
//!
//! Linear (rooted) implementations: the paper's algorithms use scatter
//! exactly once per synchronization (HCA2's model distribution) and
//! gather/allgather only for communicator creation, so their asymptotic
//! cost is irrelevant next to the ping-pong phases; linear variants keep
//! the code obviously correct. Payload sizes are tiny (tens of bytes).

use hcs_sim::RankCtx;

use crate::steps::Steps;
use crate::Comm;

impl Comm {
    /// Gathers every member's `data` at `root`; returns `Some(vec)` (in
    /// communicator rank order) at the root and `None` elsewhere.
    pub fn gather(&mut self, ctx: &mut RankCtx, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        assert!(root < self.size(), "gather root {root} out of range");
        let mut steps = Steps::new(data.to_vec(), self.size());
        let at_root = self.rank() == root;
        if at_root {
            steps.parts = vec![Vec::new(); self.size()];
            for r in (0..self.size()).filter(|&r| r != root) {
                steps.recv_part(r, r);
            }
        } else {
            steps.send(root);
        }
        // Linear gather: every rank posts its message at once — full
        // per-node NIC concurrency.
        let steps = self.with_contention(ctx, |comm, ctx| comm.run_steps(ctx, steps));
        at_root.then(|| {
            let mut out = steps.parts;
            out[root] = steps.buf;
            out
        })
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
        assert!(root < self.size(), "scatter root {root} out of range");
        let mut steps = Steps::new(Vec::new(), self.size());
        if self.rank() == root {
            let chunks = chunks.expect("scatter root must supply chunks");
            assert_eq!(
                chunks.len(),
                self.size(),
                "scatter needs one chunk per member"
            );
            steps.buf = chunks[root].clone();
            steps.parts = chunks.to_vec();
            for r in (0..self.size()).filter(|&r| r != root) {
                steps.send_part(r, r);
            }
        } else {
            steps.recv_replace(root);
        }
        // Linear scatter: only the root sends (sequentially) — no
        // concurrent senders per node.
        self.run_steps(ctx, steps).buf
    }

    /// Every member contributes `data`; every member receives all
    /// contributions in communicator rank order (gather at 0 + bcast of
    /// the length-prefixed concatenation).
    pub fn allgather(&mut self, ctx: &mut RankCtx, data: &[u8]) -> Vec<Vec<u8>> {
        let gathered = self.gather(ctx, 0, data);
        let packed = match gathered {
            Some(parts) => {
                let mut buf = Vec::new();
                for p in &parts {
                    buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
                    buf.extend_from_slice(p);
                }
                buf
            }
            None => Vec::new(),
        };
        let packed = self.bcast(ctx, 0, &packed);
        unpack(&packed, self.size())
    }
}

fn unpack(buf: &[u8], n: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(n);
    let mut off = 0usize;
    for _ in 0..n {
        let len =
            u32::from_le_bytes(buf[off..off + 4].try_into().expect("truncated allgather")) as usize;
        off += 4;
        out.push(buf[off..off + len].to_vec());
        off += len;
    }
    assert_eq!(off, buf.len(), "trailing bytes in allgather payload");
    out
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
