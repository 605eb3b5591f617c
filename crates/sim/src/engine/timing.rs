//! The timing law of one message: what a send costs its sender and
//! when the message arrives, and what a receive does to the receiver's
//! clock. Both executors of a message step apply it — `RankCtx`'s
//! message path (`post`, `post_ack`, `recv_impl`) and the collective
//! evaluator of `rendezvous` — so the two agree bit for bit.
//!
//! The law touches exactly the fields of [`Timing`]. A rank that hands
//! a collective to a rendezvous moves that struct into the slot and
//! takes it back afterwards: the state is moved, never shared.

#![forbid(unsafe_code)]

use std::sync::Arc;

use hcs_obs::{ObsSpec, Recorder};

use super::ctx::TrafficCounters;
use super::net::DstClamp;
use crate::net::NetworkModel;
use crate::rngx::{self, label, Pcg64};
use crate::timebase::Span;
use crate::topology::{Level, Topology};
use crate::{Rank, SimTime, Tag};

/// What the law reads but never changes: the run's models, shared by
/// every rank.
#[derive(Clone)]
pub(super) struct Law {
    pub(super) topology: Arc<Topology>,
    pub(super) network: Arc<NetworkModel>,
    pub(super) master_seed: u64,
    pub(super) obs_spec: ObsSpec,
}

/// Whether a message carries data or acknowledges a synchronous send.
/// An ack is neither counted as sent nor recorded as an edge; its
/// receive is counted but not recorded.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Leg {
    Data,
    Ack,
}

/// How a send leaves the FIFO clamp, as decided by
/// [`Delivery::route`].
pub(super) enum Route {
    /// Through the per-channel clamp (every benign message).
    Clamped,
    /// Past it, `extra` later than the sampled latency: a fault-
    /// reordered message, which leaves the channel watermark untouched.
    Overtaking(Span),
}

/// Where a send goes once [`Timing::send`] has timed it: the message
/// path's inboxes behind its fault interpreter, or a collective
/// evaluator's inboxes.
pub(super) trait Delivery {
    /// May rewrite the sampled latency and route the message past the
    /// clamp. Called after the unchanged sampling, so a benign executor
    /// that keeps this default leaves the timeline as it is.
    fn route(&mut self, _t: &mut Timing, _lat: &mut Span) -> Route {
        Route::Clamped
    }

    /// Hands the message over; it arrives at `arrival`.
    fn deliver(self, t: &mut Timing, arrival: SimTime);
}

/// A rank's message-jitter stream and the standard normal deviate of
/// its next message's jitter, drawn as soon as the previous message's
/// draws are done. The stream's order is unchanged; the Box–Muller draw
/// just leaves the send's dependency chain (a receive waits on the
/// arrival time it feeds).
struct NetStream {
    rng: Pcg64,
    next_z: f64,
}

impl NetStream {
    fn new(law: &Law, me: Rank) -> Self {
        let mut rng = rngx::stream_rng(law.master_seed, label::rank_net(me));
        let next_z = rngx::normal(&mut rng);
        Self { rng, next_z }
    }
}

/// The per-rank state the timing law changes.
pub(super) struct Timing {
    pub(super) now: SimTime,
    /// Per-rank message-jitter stream, materialized on first send: most
    /// ranks of a large run never send, and first use derives the exact
    /// same seeded stream construction would have.
    net: Option<NetStream>,
    /// FIFO clamp: last arrival time scheduled to each destination.
    last_arrival_to: DstClamp,
    pub(super) counters: TrafficCounters,
    /// How many ranks of this node are communicating concurrently with
    /// this one (declared by collective implementations); drives the
    /// statistical NIC-contention term.
    pub(super) active_peers: usize,
    /// The per-rank recorder (`Recorder::Off` when disabled — the hot
    /// paths then skip event emission with a single
    /// enum-discriminant check).
    pub(super) obs: Recorder,
}

impl Timing {
    pub(super) fn new(obs: Recorder) -> Self {
        Timing {
            now: SimTime::ZERO,
            net: None,
            last_arrival_to: DstClamp::new(),
            counters: TrafficCounters::default(),
            active_peers: 1,
            obs,
        }
    }

    /// What a rank holds while its timing state sits in a rendezvous
    /// slot: nothing reads it before the state comes back.
    pub(super) fn vacant() -> Self {
        Self::new(Recorder::Off)
    }

    /// Heap bytes held by this rank's FIFO clamp.
    #[cfg(test)]
    pub(super) fn clamp_heap_bytes(&self) -> usize {
        self.last_arrival_to.heap_bytes()
    }

    /// Records an instant annotation at the current virtual time.
    pub(super) fn note(&mut self, name: &str) {
        let secs = self.now.seconds();
        if let Some(rec) = self.obs.get_mut() {
            rec.note(secs, name);
        }
    }

    /// The send law for a message of `bytes` from `me` to `dst` under
    /// `tag`: charges the send overhead, samples the level's latency
    /// and the NIC-contention term from `me`'s stream, lets `via` route
    /// it, applies the FIFO clamp and hands it to `via` with its
    /// arrival time; a data leg is then counted and recorded as a
    /// `Send` edge.
    ///
    /// Always inlined, like [`Timing::recv`]: the message path pays no
    /// call for sharing the law with the evaluator.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn send(
        &mut self,
        law: &Law,
        me: Rank,
        dst: Rank,
        tag: Tag,
        bytes: usize,
        leg: Leg,
        mut via: impl Delivery,
    ) {
        assert_ne!(dst, me, "self-sends are not modeled");
        self.now += law.network.send_overhead_s;
        let level = law.topology.level(me, dst);
        let net = self.net.get_or_insert_with(|| NetStream::new(law, me));
        let mut lat =
            law.network
                .sample_latency_after(net.next_z, &mut net.rng, level, me, dst, bytes);
        lat += contention_delay(law, self.active_peers, level, &mut net.rng);
        net.next_z = rngx::normal(&mut net.rng);
        let arrival = match via.route(self, &mut lat) {
            Route::Clamped => self.last_arrival_to.clamp_and_update(dst, self.now + lat),
            Route::Overtaking(extra) => self.now + lat + extra,
        };
        via.deliver(self, arrival);
        if leg == Leg::Data {
            self.counters.sent_msgs += 1;
            self.counters.sent_bytes += bytes as u64;
            if level == Level::InterNode {
                self.counters.sent_inter_node += 1;
            }
            if law.obs_spec.records_edges() {
                if let Some(rec) = self.obs.get_mut() {
                    rec.send(self.now.seconds(), dst as u32, tag, bytes as u32);
                }
            }
        }
    }

    /// The receive law for a matched message from `src` under `tag`
    /// that arrives at `arrival`: waits for it if it lies ahead, charges
    /// the receive overhead and counts it; a data leg is recorded as a
    /// `Recv` edge.
    #[inline(always)]
    pub(super) fn recv(
        &mut self,
        law: &Law,
        src: Rank,
        tag: Tag,
        arrival: SimTime,
        bytes: usize,
        leg: Leg,
    ) {
        if arrival > self.now {
            self.now = arrival;
        }
        self.now += law.network.recv_overhead_s;
        self.counters.recv_msgs += 1;
        if leg == Leg::Data && law.obs_spec.records_edges() {
            if let Some(rec) = self.obs.get_mut() {
                rec.recv(self.now.seconds(), src as u32, tag, bytes as u32);
            }
        }
    }
}

/// Statistical NIC queueing delay for inter-node messages while
/// multiple node peers (`active_peers` in all) are communicating
/// (LogGP-style gap model).
fn contention_delay(law: &Law, active_peers: usize, level: Level, rng: &mut Pcg64) -> Span {
    let gap = law.network.nic_gap_s;
    if level != Level::InterNode || active_peers <= 1 || gap <= Span::ZERO {
        return Span::ZERO;
    }
    gap * rng.range(0.0, (active_peers - 1) as f64)
}
