#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hcs-mpi — an MPI-like communication layer over `hcs-sim`
//!
//! Provides what the paper's algorithms need from MPI:
//!
//! - [`Comm`] — communicators with rank translation, collective-safe tag
//!   management and `MPI_Comm_split`-style splitting (including
//!   `MPI_COMM_TYPE_SHARED` node splits),
//! - point-to-point `send` / `ssend` / `recv` on the typed user tags of
//!   [`tags`] (see [`Tag`]),
//! - `MPI_Barrier` with the five algorithm variants of Open MPI's tuned
//!   module that the paper studies ([`BarrierAlgorithm`]),
//! - binomial `MPI_Bcast`, linear `MPI_Scatter` / `MPI_Gather`,
//!   `allgather`,
//! - `MPI_Allreduce` with three algorithms ([`AllreduceAlgorithm`]) over
//!   byte payloads ([`ReduceOp`]).
//!
//! ## Collective-call discipline
//!
//! As in MPI, collectives (and `split`) must be called by *all* members
//! of a communicator, in the same order. Tags are managed internally: a
//! per-communicator context id plus a per-call sequence number keep
//! concurrent communicators and back-to-back collectives from matching
//! each other's messages.
//!
//! ## One definition per collective
//!
//! Every collective records this member's ops into a
//! [`hcs_sim::Schedule`] and hands it to [`RankCtx::collective`], which
//! walks all members' schedules in one rendezvous, or on messages in a
//! fault or timeout run. No collective has message code of its own:
//! the only raw sends and receives here are `Comm`'s point-to-point
//! wrappers.

mod barrier;
mod bcast;
mod gather;
mod reduce;
mod split;
mod tag;

pub use barrier::BarrierAlgorithm;
pub use reduce::{AllreduceAlgorithm, ReduceOp};
pub use tag::{tags, Bytes, Tag};

use hcs_clock::GlobalTime;
use hcs_sim::msg::Payload;
use hcs_sim::{Group, Rank, RankCtx, Schedule, Wire};
use tag::{RawTag, COLL_BIT};

/// Bit position where the context id starts inside a tag.
const CTX_SHIFT: u32 = 17;
/// Maximum context id (14 bits; bit 31 is the engine's ACK bit).
const CTX_MAX: u32 = (1 << 14) - 1;

/// A group of ranks with a private tag space — the `MPI_Comm` analogue.
///
/// Each participating rank holds its own `Comm` value; the *communicator*
/// is the collection of these values, which stay consistent as long as
/// the collective-call discipline is respected.
#[derive(Debug, Clone)]
pub struct Comm {
    /// The members' global engine ranks, in communicator rank order.
    group: Group,
    /// This rank's position in `group`.
    my_pos: usize,
    /// Context id: disambiguates tags of different communicators.
    ctx_id: u32,
    /// Per-collective sequence number (wraps at 2^16, which is safe
    /// because collectives fully drain their messages).
    seq: u32,
    /// Number of `split` calls performed on this handle.
    split_count: u32,
    /// Members of this communicator placed on this rank's node
    /// (including itself) — declared as NIC contention peers during
    /// collectives.
    node_peers: usize,
    /// This member's schedule of the last collective, kept so the next
    /// one reuses its capacity; its working buffer holds that
    /// collective's result.
    sched: Schedule,
}

impl Comm {
    /// The communicator containing every rank (the `MPI_COMM_WORLD`
    /// analogue).
    pub fn world(ctx: &RankCtx) -> Self {
        let node_peers = ctx.topology().cores_per_node().min(ctx.size());
        Self {
            group: ctx.world_group(),
            my_pos: ctx.rank(),
            ctx_id: 0,
            seq: 0,
            split_count: 0,
            node_peers,
            sched: Schedule::new(),
        }
    }

    fn from_members(ctx: &RankCtx, members: std::sync::Arc<[Rank]>, ctx_id: u32) -> Self {
        let me = ctx.rank();
        let my_pos = members
            .iter()
            .position(|&r| r == me)
            .expect("constructing a Comm this rank is not a member of");
        let my_node = ctx.topology().node_of(me);
        let node_peers = members
            .iter()
            .filter(|&&r| ctx.topology().node_of(r) == my_node)
            .count();
        Self {
            group: Group::new(members),
            my_pos,
            ctx_id,
            seq: 0,
            split_count: 0,
            node_peers,
            sched: Schedule::new(),
        }
    }

    /// This rank's rank *within this communicator*.
    pub fn rank(&self) -> usize {
        self.my_pos
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Translates a communicator rank to the global engine rank.
    pub fn global_rank(&self, comm_rank: usize) -> Rank {
        self.group.ranks()[comm_rank]
    }

    /// The members' global ranks, in communicator order.
    pub fn members(&self) -> &[Rank] {
        self.group.ranks()
    }

    /// Number of communicator members on this rank's node.
    pub fn node_peers(&self) -> usize {
        self.node_peers
    }

    /// The wire tag of a user tag on this communicator.
    fn user_tag<T>(&self, tag: Tag<T>) -> RawTag {
        self.ctx_id << CTX_SHIFT | tag.raw
    }

    /// Reserves a fresh internal tag for one collective operation.
    /// All members call this in lockstep, so the values agree.
    fn next_coll_tag(&mut self) -> RawTag {
        let t = self.ctx_id << CTX_SHIFT | COLL_BIT | (self.seq & 0xFFFF);
        self.seq = self.seq.wrapping_add(1);
        t
    }

    /// Eager send of raw bytes to a communicator rank (the `MPI_Send`
    /// analogue for small messages).
    pub fn send(&self, ctx: &mut RankCtx, dst: usize, tag: Tag<Bytes>, payload: &[u8]) {
        ctx.send(self.global_rank(dst), self.user_tag(tag), payload);
    }

    /// Synchronous send (`MPI_Ssend`) of raw bytes: completes once the
    /// receiver has matched the message.
    pub fn ssend(&self, ctx: &mut RankCtx, dst: usize, tag: Tag<Bytes>, payload: &[u8]) {
        ctx.ssend(self.global_rank(dst), self.user_tag(tag), payload);
    }

    /// Blocking receive of raw bytes from a communicator rank.
    pub fn recv(&self, ctx: &mut RankCtx, src: usize, tag: Tag<Bytes>) -> Payload {
        ctx.recv(self.global_rank(src), self.user_tag(tag))
    }

    /// Sends a value of the tag's payload type over the [`Wire`]
    /// encoding. A clock reading's frame travels by convention: sender
    /// and receiver agree on which clock's asserted global frame it is
    /// in (exactly as real MPI codes agree on timestamp units).
    pub fn send_t<T: Wire>(&self, ctx: &mut RankCtx, dst: usize, tag: Tag<T>, x: T) {
        ctx.send(
            self.global_rank(dst),
            self.user_tag(tag),
            x.to_wire().as_ref(),
        );
    }

    /// Synchronous-sends a value of the tag's payload type.
    pub fn ssend_t<T: Wire>(&self, ctx: &mut RankCtx, dst: usize, tag: Tag<T>, x: T) {
        ctx.ssend(
            self.global_rank(dst),
            self.user_tag(tag),
            x.to_wire().as_ref(),
        );
    }

    /// Receives a value of the tag's payload type.
    pub fn recv_t<T: Wire>(&self, ctx: &mut RankCtx, src: usize, tag: Tag<T>) -> T {
        T::from_wire(ctx.recv(self.global_rank(src), self.user_tag(tag)).as_ref())
    }

    /// Walks this member's schedule in `self.sched`, built by one
    /// collective's algorithm, on a fresh internal tag, with `peers`
    /// members of this node declared as NIC-contention peers;
    /// `self.sched` then holds the result.
    fn run_sched(&mut self, ctx: &mut RankCtx, peers: usize) {
        let tag = self.next_coll_tag();
        let sched = std::mem::take(&mut self.sched);
        ctx.set_active_peers(peers);
        self.sched = ctx.collective(&self.group, self.my_pos, tag, sched);
        ctx.set_active_peers(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_sim::machines::testbed;

    #[test]
    fn world_has_everyone() {
        let c = testbed(2, 3).cluster(1);
        c.run(|ctx| {
            let comm = Comm::world(ctx);
            assert_eq!(comm.size(), 6);
            assert_eq!(comm.rank(), ctx.rank());
            assert_eq!(comm.global_rank(4), 4);
            assert_eq!(comm.node_peers(), 3);
        });
    }

    #[test]
    fn p2p_roundtrip_via_comm() {
        let c = testbed(1, 2).cluster(2);
        c.run(|ctx| {
            let comm = Comm::world(ctx);
            if comm.rank() == 0 {
                comm.send_t(ctx, 1, tags::RTT, 1.5);
                assert_eq!(comm.recv_t(ctx, 1, tags::REPORT), 2.5);
            } else {
                let v = comm.recv_t(ctx, 0, tags::RTT);
                comm.send_t(ctx, 0, tags::REPORT, v + 1.0);
            }
        });
    }

    #[test]
    fn coll_tags_advance_in_lockstep() {
        let c = testbed(1, 2).cluster(3);
        c.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let t1 = comm.next_coll_tag();
            let t2 = comm.next_coll_tag();
            assert_ne!(t1, t2);
            assert!(t1 & COLL_BIT != 0);
        });
    }

    #[test]
    fn user_and_collective_tags_never_collide() {
        let c = testbed(1, 2).cluster(4);
        c.run(|ctx| {
            let mut comm = Comm::world(ctx);
            let coll = comm.next_coll_tag();
            for user in [comm.user_tag(tags::PING), comm.user_tag(tags::HALO_R)] {
                assert_ne!(coll & COLL_BIT, user & COLL_BIT);
            }
        });
    }
}
