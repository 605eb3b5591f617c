//! Binomial-tree `MPI_Bcast`.

use hcs_sim::{RankCtx, Schedule, Wire};

use crate::Comm;

impl Comm {
    /// Broadcasts `data` from `root` to every member over a binomial
    /// tree; returns the received copy (the root gets its input back).
    ///
    /// Unlike MPI, receivers need not know the payload size in advance —
    /// the engine delivers whole messages.
    pub fn bcast(&mut self, ctx: &mut RankCtx, root: usize, data: &[u8]) -> Vec<u8> {
        self.bcast_in_place(ctx, root, data).to_vec()
    }

    /// Broadcasts one `f64` from `root` (used by the Round-Time scheme
    /// to distribute start timestamps).
    pub fn bcast_f64(&mut self, ctx: &mut RankCtx, root: usize, x: f64) -> f64 {
        f64::from_wire(self.bcast_in_place(ctx, root, x.to_wire().as_ref()))
    }

    /// [`Comm::bcast`], returning the received copy where it lies: in
    /// this member's schedule, shared with every member that received
    /// the same payload (the root gets its input back).
    pub(crate) fn bcast_in_place(&mut self, ctx: &mut RankCtx, root: usize, data: &[u8]) -> &[u8] {
        assert!(root < self.size(), "bcast root {root} out of range");
        let (r, p) = (self.rank(), self.size());
        self.sched.start(data, None);
        if p > 1 {
            binomial_bcast(&mut self.sched, r, p, root);
            // Binomial tree: at most one rank per node is crossing the
            // NIC at a time, so no contention term applies.
            self.run_sched(ctx, 1);
        }
        self.sched.data()
    }

    /// Broadcasts a clock reading from `root`. As with
    /// [`Comm::send_t`], the frame travels by convention: every
    /// member interprets the value in the root's asserted global frame.
    pub fn bcast_time(
        &mut self,
        ctx: &mut RankCtx,
        root: usize,
        time: crate::GlobalTime,
    ) -> crate::GlobalTime {
        crate::GlobalTime::from_raw_seconds(self.bcast_f64(ctx, root, time.raw_seconds()))
    }
}

/// Binomial tree rooted at `root`: receive from the parent at the
/// lowest set bit of the virtual rank, then forward to the children at
/// every lower bit.
fn binomial_bcast(s: &mut Schedule, r: usize, p: usize, root: usize) {
    // Virtual ranks put the root at 0: `(r - root) mod p`, and back,
    // each by one conditional subtraction (`r`, `v`, `root` < `p`).
    let vr = if r >= root { r - root } else { r + p - root };
    let unvirt = |v: usize| {
        if v + root >= p {
            v + root - p
        } else {
            v + root
        }
    };

    // Climb until the bit where we receive from our parent.
    let mut mask = 1usize;
    if vr == 0 {
        while mask < p {
            mask <<= 1;
        }
    } else {
        while vr & mask == 0 {
            mask <<= 1;
        }
        s.recv_replace(unvirt(vr - mask));
    }
    // Forward to children at all lower bits.
    mask >>= 1;
    while mask > 0 {
        if vr & mask == 0 && vr + mask < p {
            s.send(unvirt(vr + mask));
        }
        mask >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_sim::machines::testbed;

    #[test]
    fn bcast_delivers_from_any_root() {
        let cluster = testbed(2, 3).cluster(1);
        for root in [0usize, 1, 3, 5] {
            let vals = cluster.run(|ctx| {
                let mut comm = Comm::world(ctx);
                let data = if comm.rank() == root {
                    vec![7u8, 8, 9]
                } else {
                    vec![]
                };
                comm.bcast(ctx, root, &data)
            });
            for (r, v) in vals.iter().enumerate() {
                assert_eq!(v, &[7u8, 8, 9], "root {root}, rank {r}");
            }
        }
    }

    #[test]
    fn bcast_f64_roundtrips() {
        let cluster = testbed(1, 4).cluster(2);
        let vals = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            comm.bcast_f64(ctx, 2, if comm.rank() == 2 { 1.25e-3 } else { f64::NAN })
        });
        assert!(vals.iter().all(|&v| v == 1.25e-3));
    }

    #[test]
    fn bcast_message_count_is_p_minus_1() {
        let cluster = testbed(2, 4).cluster(3);
        let counts = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            comm.bcast(ctx, 0, &[1]);
            ctx.counters().sent_msgs
        });
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn bcast_non_power_of_two() {
        let cluster = testbed(3, 2).cluster(4);
        let vals = cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let msg = (0..=5u8).collect::<Vec<_>>();
            let data = if comm.rank() == 4 { msg } else { vec![] };
            comm.bcast(ctx, 4, &data)
        });
        for v in vals {
            assert_eq!(v, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn singleton_bcast_is_identity() {
        let cluster = testbed(1, 1).cluster(5);
        cluster.run(|ctx| {
            let mut comm = Comm::world(ctx);
            assert_eq!(comm.bcast(ctx, 0, &[42]), vec![42]);
        });
    }
}
