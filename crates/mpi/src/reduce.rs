//! `MPI_Allreduce` over byte payloads, with three algorithm variants.
//!
//! The reduction operators are element-wise over the payload, so all
//! algorithms (including the chunked ring) are exact. The benchmark
//! harness uses [`ReduceOp::ByteMax`] because it is valid at *any*
//! message size — the paper's Figs. 7 and 9 sweep sizes from 4 B up.

use hcs_sim::{Fold, RankCtx, Schedule, Wire};

use crate::Comm;

/// Element-wise reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Byte-wise maximum (any payload size).
    ByteMax,
    /// Sum of little-endian `f64` elements (size must be a multiple of 8).
    F64Sum,
    /// Minimum of `f64` elements.
    F64Min,
    /// Maximum of `f64` elements.
    F64Max,
    /// Logical OR of `f64` elements (0.0 = false, anything else = true).
    F64LOr,
}

impl ReduceOp {
    /// Element alignment in bytes (payloads and ring chunk boundaries
    /// must be multiples of this).
    pub fn alignment(&self) -> usize {
        match self {
            ReduceOp::ByteMax => 1,
            _ => 8,
        }
    }

    /// Reduces `other` into `acc`, element-wise.
    ///
    /// # Panics
    /// Panics on length mismatch or misaligned payloads.
    #[inline]
    pub fn fold(&self, acc: &mut [u8], other: &[u8]) {
        assert_eq!(acc.len(), other.len(), "allreduce payload length mismatch");
        match self {
            ReduceOp::ByteMax => {
                for (a, &b) in acc.iter_mut().zip(other) {
                    if b > *a {
                        *a = b;
                    }
                }
            }
            _ => {
                assert_eq!(
                    acc.len() % 8,
                    0,
                    "f64 reduce needs 8-byte-multiple payloads"
                );
                for i in (0..acc.len()).step_by(8) {
                    let x = f64::from_le_bytes(acc[i..i + 8].try_into().expect("8-byte f64 lane"));
                    let y =
                        f64::from_le_bytes(other[i..i + 8].try_into().expect("8-byte f64 lane"));
                    let z = match self {
                        ReduceOp::F64Sum => x + y,
                        ReduceOp::F64Min => x.min(y),
                        ReduceOp::F64Max => x.max(y),
                        ReduceOp::F64LOr => {
                            if x != 0.0 || y != 0.0 {
                                1.0
                            } else {
                                0.0
                            }
                        }
                        ReduceOp::ByteMax => unreachable!(),
                    };
                    acc[i..i + 8].copy_from_slice(&z.to_le_bytes());
                }
            }
        }
    }

    /// [`ReduceOp::fold`] of this operator as a plain function, for a
    /// collective's schedule.
    fn folder(self) -> Fold {
        match self {
            ReduceOp::ByteMax => |acc, other| ReduceOp::ByteMax.fold(acc, other),
            ReduceOp::F64Sum => |acc, other| ReduceOp::F64Sum.fold(acc, other),
            ReduceOp::F64Min => |acc, other| ReduceOp::F64Min.fold(acc, other),
            ReduceOp::F64Max => |acc, other| ReduceOp::F64Max.fold(acc, other),
            ReduceOp::F64LOr => |acc, other| ReduceOp::F64LOr.fold(acc, other),
        }
    }
}

/// Which `MPI_Allreduce` algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllreduceAlgorithm {
    /// Pairwise exchange over hypercube dimensions (latency-optimal for
    /// small messages; Open MPI's small-message default).
    #[default]
    RecursiveDoubling,
    /// Binomial reduce to rank 0 followed by binomial broadcast.
    ReduceBcast,
    /// Chunked ring (reduce-scatter + allgather) — bandwidth-optimal for
    /// large payloads, provided for the ablation benches.
    Ring,
}

impl Comm {
    /// Allreduce with the default (recursive-doubling) algorithm.
    pub fn allreduce(&mut self, ctx: &mut RankCtx, data: &[u8], op: ReduceOp) -> Vec<u8> {
        self.allreduce_alg(ctx, data, op, AllreduceAlgorithm::RecursiveDoubling)
    }

    /// Allreduce of a single `f64` (the paper's Round-Time scheme
    /// allreduces its `invalid` / `out_of_time` flags this way).
    pub fn allreduce_f64(&mut self, ctx: &mut RankCtx, x: f64, op: ReduceOp) -> f64 {
        let alg = AllreduceAlgorithm::RecursiveDoubling;
        f64::from_wire(self.allreduce_in_place(ctx, x.to_wire().as_ref(), op, alg))
    }

    /// Allreduce with an explicit algorithm choice.
    pub fn allreduce_alg(
        &mut self,
        ctx: &mut RankCtx,
        data: &[u8],
        op: ReduceOp,
        alg: AllreduceAlgorithm,
    ) -> Vec<u8> {
        self.allreduce_in_place(ctx, data, op, alg).to_vec()
    }

    /// [`Comm::allreduce_alg`], returning the result where it lies: in
    /// this member's schedule.
    fn allreduce_in_place(
        &mut self,
        ctx: &mut RankCtx,
        data: &[u8],
        op: ReduceOp,
        alg: AllreduceAlgorithm,
    ) -> &[u8] {
        assert_eq!(
            data.len() % op.alignment(),
            0,
            "payload not aligned for {op:?}"
        );
        let (r, p) = (self.rank(), self.size());
        let s = &mut self.sched;
        s.start(data, Some(op.folder()));
        if p > 1 {
            match alg {
                AllreduceAlgorithm::RecursiveDoubling => recursive_doubling(s, r, p),
                AllreduceAlgorithm::ReduceBcast => reduce_bcast(s, r, p),
                AllreduceAlgorithm::Ring => ring(s, r, p, op),
            }
            self.run_sched(ctx, self.node_peers);
        }
        self.sched.data()
    }

    /// Rooted reduction (`MPI_Reduce`): binomial fan-in to `root`.
    /// Returns `Some(result)` at the root, `None` elsewhere.
    pub fn reduce(
        &mut self,
        ctx: &mut RankCtx,
        root: usize,
        data: &[u8],
        op: ReduceOp,
    ) -> Option<Vec<u8>> {
        assert!(root < self.size(), "reduce root {root} out of range");
        assert_eq!(
            data.len() % op.alignment(),
            0,
            "payload not aligned for {op:?}"
        );
        if self.size() <= 1 {
            return Some(data.to_vec());
        }
        // Virtual ranks place the root at 0 for the binomial fan-in.
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        let unvirt = |v: usize| (v + root) % p;
        let s = &mut self.sched;
        s.start(data, Some(op.folder()));
        let mut mask = 1usize;
        let mut sent = false;
        while mask < p && !sent {
            if vr & mask != 0 {
                s.send(unvirt(vr - mask));
                sent = true;
            } else if vr + mask < p {
                s.recv_fold(unvirt(vr + mask));
            }
            mask <<= 1;
        }
        self.run_sched(ctx, self.node_peers);
        (!sent).then(|| self.sched.data().to_vec())
    }
}

/// Recursive doubling over the largest power of two `m <= p`; the
/// `p - m` extra ranks fold into a low partner first and get the result
/// from it last.
fn recursive_doubling(s: &mut Schedule, r: usize, p: usize) {
    let mut m = 1usize;
    while m * 2 <= p {
        m *= 2;
    }
    if r >= m {
        // Fold into the low partner, then receive the final result.
        s.send(r - m);
        s.recv_replace(r - m);
        return;
    }
    if r < p - m {
        s.recv_fold(r + m);
    }
    let mut mask = 1usize;
    while mask < m {
        s.send(r ^ mask);
        s.recv_fold(r ^ mask);
        mask <<= 1;
    }
    if r < p - m {
        s.send(r + m);
    }
}

/// Binomial reduce to rank 0, then binomial broadcast of the result.
fn reduce_bcast(s: &mut Schedule, r: usize, p: usize) {
    // Binomial fan-in reduction to rank 0.
    let mut mask = 1usize;
    while mask < p {
        if r & mask != 0 {
            s.send(r - mask);
            break;
        }
        if r + mask < p {
            s.recv_fold(r + mask);
        }
        mask <<= 1;
    }
    // Binomial fan-out of the result.
    if r != 0 {
        s.recv_replace(r - mask);
    }
    mask >>= 1;
    while mask > 0 {
        if r & mask == 0 && r + mask < p {
            s.send(r + mask);
        }
        mask >>= 1;
    }
}

/// Chunked ring: reduce-scatter, then allgather of the reduced chunks.
fn ring(s: &mut Schedule, r: usize, p: usize, op: ReduceOp) {
    let align = op.alignment();
    let elems = s.data().len() / align;
    if elems == 0 {
        // Nothing to chunk; degenerate to recursive doubling semantics
        // via a simple reduce+bcast on the empty payload.
        return reduce_bcast(s, r, p);
    }
    // Chunk boundaries in bytes, aligned to the element size.
    let bounds: Vec<(usize, usize)> = (0..p)
        .map(|i| {
            let lo = (elems * i / p) * align;
            let hi = (elems * (i + 1) / p) * align;
            (lo, hi)
        })
        .collect();
    let right = (r + 1) % p;
    let left = (r + p - 1) % p;

    // Reduce-scatter: after step s, rank r holds the full reduction of
    // chunk (r + 1 + s) ... converging so that chunk (r+1) mod p is
    // complete at rank r after p-1 steps.
    for step in 0..p - 1 {
        s.send_range(right, bounds[(r + p - step) % p]);
        s.recv_fold_range(left, bounds[(r + p - step - 1) % p]);
    }
    // Allgather: circulate the completed chunks.
    for step in 0..p - 1 {
        s.send_range(right, bounds[(r + 1 + p - step) % p]);
        s.recv_copy_range(left, bounds[(r + p - step) % p]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_sim::machines::testbed;

    fn check_sum(alg: AllreduceAlgorithm, nodes: usize, cores: usize, seed: u64) {
        let cluster = testbed(nodes, cores).cluster(seed);
        let p = nodes * cores;
        let res = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            // Three f64 elements, rank-dependent.
            let vals = [comm.rank() as f64, 1.0, -(comm.rank() as f64)];
            let mut payload = Vec::new();
            for v in vals {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            comm.allreduce_alg(ctx, &payload, ReduceOp::F64Sum, alg)
        });
        let expect_first: f64 = (0..p).map(|r| r as f64).sum();
        for (r, out) in res.iter().enumerate() {
            let a = f64::from_le_bytes(out[0..8].try_into().unwrap());
            let b = f64::from_le_bytes(out[8..16].try_into().unwrap());
            let c = f64::from_le_bytes(out[16..24].try_into().unwrap());
            assert!(
                (a - expect_first).abs() < 1e-9,
                "{alg:?} rank {r}: {a} vs {expect_first}"
            );
            assert!((b - p as f64).abs() < 1e-9);
            assert!((c + expect_first).abs() < 1e-9);
        }
    }

    #[test]
    fn all_algorithms_sum_correctly() {
        for alg in [
            AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::ReduceBcast,
            AllreduceAlgorithm::Ring,
        ] {
            check_sum(alg, 2, 2, 1); // power of two
            check_sum(alg, 3, 2, 2); // even, not power of two
            check_sum(alg, 7, 1, 3); // odd
            check_sum(alg, 1, 2, 4); // two ranks
        }
    }

    #[test]
    fn byte_max_any_size() {
        for size in [1usize, 4, 5, 16, 33] {
            let cluster = testbed(2, 2).cluster(10 + size as u64);
            let res = cluster.run(move |ctx| {
                let mut comm = Comm::world(ctx);
                let payload = vec![comm.rank() as u8 * 3; size];
                comm.allreduce(ctx, &payload, ReduceOp::ByteMax)
            });
            for out in res {
                assert_eq!(out, vec![9u8; size]);
            }
        }
    }

    #[test]
    fn min_max_lor() {
        let cluster = testbed(2, 2).cluster(20);
        let res = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let r = comm.rank() as f64;
            let mn = comm.allreduce_f64(ctx, r, ReduceOp::F64Min);
            let mx = comm.allreduce_f64(ctx, r, ReduceOp::F64Max);
            let or = comm.allreduce_f64(
                ctx,
                if comm.rank() == 2 { 1.0 } else { 0.0 },
                ReduceOp::F64LOr,
            );
            let or0 = comm.allreduce_f64(ctx, 0.0, ReduceOp::F64LOr);
            (mn, mx, or, or0)
        });
        for (mn, mx, or, or0) in res {
            assert_eq!(mn, 0.0);
            assert_eq!(mx, 3.0);
            assert_eq!(or, 1.0);
            assert_eq!(or0, 0.0);
        }
    }

    #[test]
    fn ring_handles_fewer_elements_than_ranks() {
        // 1 f64 over 6 ranks: some chunks are empty.
        let cluster = testbed(3, 2).cluster(21);
        let res = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let payload = (comm.rank() as f64).to_le_bytes();
            let out = comm.allreduce_alg(ctx, &payload, ReduceOp::F64Sum, AllreduceAlgorithm::Ring);
            f64::from_le_bytes(out.try_into().unwrap())
        });
        for v in res {
            assert_eq!(v, 15.0);
        }
    }

    #[test]
    fn singleton_allreduce_is_identity() {
        let cluster = testbed(1, 1).cluster(22);
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            assert_eq!(comm.allreduce_f64(ctx, 4.5, ReduceOp::F64Sum), 4.5);
        });
    }

    #[test]
    fn rooted_reduce_from_any_root() {
        let cluster = testbed(3, 2).cluster(30);
        for root in [0usize, 1, 5] {
            let res = cluster.run(move |ctx| {
                let mut comm = Comm::world(ctx);
                let payload = (comm.rank() as f64 + 1.0).to_le_bytes();
                comm.reduce(ctx, root, &payload, ReduceOp::F64Sum)
                    .map(|v| f64::from_le_bytes(v.try_into().unwrap()))
            });
            for (r, v) in res.iter().enumerate() {
                if r == root {
                    assert_eq!(v.unwrap(), 21.0, "sum 1..=6 at root {root}");
                } else {
                    assert!(v.is_none(), "rank {r} must get None");
                }
            }
        }
    }

    #[test]
    fn singleton_reduce() {
        let cluster = testbed(1, 1).cluster(41);
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let x = 4.25f64.to_le_bytes();
            assert_eq!(
                comm.reduce(ctx, 0, &x, ReduceOp::F64Sum).unwrap(),
                x.to_vec()
            );
        });
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_f64_payload_panics() {
        let cluster = testbed(1, 2).cluster(23);
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let _ = comm.allreduce(ctx, &[1, 2, 3], ReduceOp::F64Sum);
        });
    }
}
