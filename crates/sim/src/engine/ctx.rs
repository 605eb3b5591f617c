//! [`RankCtx`]: what a rank body sees — its virtual clock, the
//! send/receive paths (fault interpretation, matching, deadline
//! receives) and the observability hooks.

#![forbid(unsafe_code)]

use std::sync::Arc;

use hcs_obs::{ClockReadings, ObsSpec, RankRecorder};

use super::net::RunNet;
use super::outcome::{RecvTimeout, TimeoutReason};
use super::rendezvous::{Group, Member};
#[cfg(doc)]
use super::run::Cluster;
use super::schedule::{Op, Schedule};
use super::timing::{Delivery, Law, Leg, Route, Timing};
use crate::fault::{FaultDecision, FaultPlan, FaultState, FaultVerdict};
use crate::msg::{Envelope, Payload, ACK_BIT};
use crate::net::NetworkModel;
use crate::rngx::{self, label, Pcg64};
use crate::timebase::Span;
use crate::topology::Topology;
use crate::wire::Wire;
use crate::{ClockSpec, Rank, SimTime, Tag};

/// Per-message / per-byte traffic counters, useful for asserting
/// algorithmic complexity (e.g. HCA3's `O(log p)` rounds vs JK's `O(p)`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Messages posted by this rank.
    pub sent_msgs: u64,
    /// Payload bytes posted by this rank.
    pub sent_bytes: u64,
    /// Messages matched by receives on this rank.
    pub recv_msgs: u64,
    /// Subset of `sent_msgs` that crossed the interconnect (inter-node).
    pub sent_inter_node: u64,
}

/// The per-rank execution context: virtual clock and network access.
/// Handed to the rank closure by [`Cluster::run`].
pub struct RankCtx {
    rank: Rank,
    size: usize,
    /// The run's models, which the timing law reads.
    law: Law,
    /// What the timing law changes: virtual time, the network stream,
    /// the FIFO clamp, counters, contention peers and the recorder.
    timing: Timing,
    clock: Arc<ClockSpec>,
    net: Arc<RunNet>,
    /// Fault-injection state (`None` on the benign fast path: zero
    /// loads, zero draws, timelines bit-identical to pre-fault builds).
    faults: Option<FaultState>,
    /// Reorder hold-back: a fault-reordered envelope is withheld here
    /// and released only after the *next* post to the same destination
    /// (or at any blocking point / body end), so it genuinely overtakes
    /// in delivery order. Driven purely by sender program order —
    /// deterministic.
    reorder_hold: Vec<(Rank, Envelope)>,
    /// Per-receive timeout policy: when set, every plain [`RankCtx::recv`]
    /// behaves as `recv_deadline(now + span)` and unwinds with
    /// [`RecvTimeout`] on failure (see [`RankCtx::set_recv_timeout`]).
    recv_timeout: Option<Span>,
    /// OS-noise process state: spec, dedicated RNG, cumulative compute
    /// time and the (cumulative-compute) instant of the next preemption.
    noise: Option<crate::noise::NoiseSpec>,
    /// `Some` exactly when OS-noise preemptions are enabled (rate > 0);
    /// the stream is never touched otherwise.
    noise_rng: Option<Pcg64>,
    cum_compute: f64,
    next_noise_at: f64,
    /// Monotonic per-rank counter for deriving fresh deterministic RNG
    /// stream labels (e.g. one noise stream per clock instance).
    label_counter: u64,
}

impl RankCtx {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        rank: Rank,
        topology: Arc<Topology>,
        network: Arc<NetworkModel>,
        clock: Arc<ClockSpec>,
        noise: Option<crate::noise::NoiseSpec>,
        fault_plan: &Arc<FaultPlan>,
        master_seed: u64,
        obs_spec: ObsSpec,
        net: Arc<RunNet>,
    ) -> Self {
        let size = topology.total_cores();
        let (noise_rng, next_noise_at) = match noise {
            Some(n) if n.rate_hz > 0.0 => {
                let mut rng = rngx::stream_rng(master_seed, label::rank_workload(rank) ^ 0x9E15E);
                let at = rngx::exponential(&mut rng, 1.0 / n.rate_hz);
                (Some(rng), at)
            }
            _ => (None, f64::INFINITY),
        };
        Self {
            rank,
            size,
            law: Law {
                topology,
                network,
                master_seed,
                obs_spec,
            },
            timing: Timing::new(obs_spec.recorder(rank as u32)),
            clock,
            net,
            faults: FaultState::new(fault_plan, master_seed, rank),
            reorder_hold: Vec::new(),
            recv_timeout: None,
            noise,
            noise_rng,
            cum_compute: 0.0,
            next_noise_at,
            label_counter: 0,
        }
    }

    /// Takes this rank's recorder out at body end (`None` when
    /// observability is off).
    pub(super) fn take_recorder(&mut self) -> Option<RankRecorder> {
        self.timing.obs.take()
    }

    /// Heap bytes held by this rank's FIFO clamp.
    #[cfg(test)]
    pub(crate) fn clamp_heap_bytes(&self) -> usize {
        self.timing.clamp_heap_bytes()
    }

    /// Heap bytes held by this rank's inbox.
    #[cfg(test)]
    pub(crate) fn inbox_heap_bytes(&self) -> usize {
        self.net.inbox_heap_bytes(self.rank)
    }

    /// Declares that `n` ranks of this node (including this one) are
    /// communicating concurrently. Collective implementations set this
    /// to the node-local participant count on entry and reset it to 1 on
    /// exit; inter-node messages then pay a statistical NIC queueing
    /// delay of `nic_gap_s · U(0, n-1)`.
    pub fn set_active_peers(&mut self, n: usize) {
        self.timing.active_peers = n.max(1);
    }

    /// Currently declared concurrent communicator count (see
    /// [`RankCtx::set_active_peers`]).
    pub fn active_peers(&self) -> usize {
        self.timing.active_peers
    }

    /// Returns a fresh label, unique within this rank and deterministic
    /// across runs (it depends only on program order). Combined with the
    /// rank id it lets consumers derive independent RNG streams.
    pub fn fresh_label(&mut self) -> u64 {
        self.label_counter += 1;
        self.label_counter
    }

    /// This rank's index.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Total number of ranks in the simulation.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Every rank of the run, `0..size` in order: one list per run,
    /// built when the first rank asks and shared by all of them, so a
    /// world communicator costs a reference count instead of a
    /// `size`-element list per rank.
    pub fn world_ranks(&self) -> Arc<[Rank]> {
        self.net.world_ranks()
    }

    /// The [`Group`] of every rank of the run, over
    /// [`RankCtx::world_ranks`].
    pub fn world_group(&self) -> Group {
        Group::world(self.net.world_ranks())
    }

    /// Current virtual *true* time of this rank, in seconds.
    ///
    /// Algorithms under test must not consult this directly — they only
    /// see (drifting) clocks built by `hcs-clock`. It is the oracle used
    /// by tests and accuracy evaluation.
    pub fn now(&self) -> SimTime {
        self.timing.now
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.law.topology
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.law.network
    }

    /// The oscillator parameters of this machine.
    pub fn clock_spec(&self) -> &ClockSpec {
        &self.clock
    }

    /// The master seed of this run (clock objects derive their parameter
    /// and noise streams from it).
    pub fn master_seed(&self) -> u64 {
        self.law.master_seed
    }

    /// Traffic counters of this rank.
    pub fn counters(&self) -> TrafficCounters {
        self.timing.counters
    }

    /// Whether observability recording is enabled for this rank. Guard
    /// any event-argument construction (name formatting, clock reads)
    /// behind this so the disabled path stays allocation-free — or use
    /// the [`crate::obs_span!`] macro, which does it for you.
    #[inline]
    pub fn obs_on(&self) -> bool {
        self.timing.obs.is_on()
    }

    /// Opens a named span (records an `Enter` event at the current
    /// virtual time). No-op when observability is off. Pair with
    /// [`RankCtx::obs_exit`]; spans nest (a per-rank stack tracks the
    /// open names for the flame report).
    pub fn obs_enter(&mut self, name: &str) {
        self.obs_enter_read(name, 0, ClockReadings::NONE);
    }

    /// Like [`RankCtx::obs_enter`] with a sequence number (e.g. a round
    /// or repetition index) attached to the `Enter` event.
    pub fn obs_enter_seq(&mut self, name: &str, seq: u32) {
        self.obs_enter_read(name, seq, ClockReadings::NONE);
    }

    /// Like [`RankCtx::obs_enter_seq`], additionally attaching clock
    /// readings the caller *already has* (algorithms must never take
    /// extra clock reads just to trace — reads charge virtual time).
    pub fn obs_enter_read(&mut self, name: &str, seq: u32, reads: ClockReadings) {
        let secs = self.timing.now.seconds();
        if let Some(rec) = self.timing.obs.get_mut() {
            rec.enter(secs, name, seq, reads);
        }
    }

    /// Closes the innermost open span (records an `Exit` event). No-op
    /// when observability is off; an exit with no open span is counted
    /// but otherwise harmless.
    pub fn obs_exit(&mut self) {
        self.obs_exit_read(ClockReadings::NONE);
    }

    /// Like [`RankCtx::obs_exit`], attaching clock readings the caller
    /// already has.
    pub fn obs_exit_read(&mut self, reads: ClockReadings) {
        let secs = self.timing.now.seconds();
        if let Some(rec) = self.timing.obs.get_mut() {
            rec.exit(secs, reads);
        }
    }

    /// Records an instant annotation (e.g. `"round_time.invalid"`).
    /// No-op when observability is off.
    pub fn obs_note(&mut self, name: &str) {
        self.timing.note(name);
    }

    /// Records a named counter sample. No-op when observability is off.
    pub fn obs_counter(&mut self, name: &str, value: f64) {
        let secs = self.timing.now.seconds();
        if let Some(rec) = self.timing.obs.get_mut() {
            rec.counter(secs, name, value);
        }
    }

    /// Spends `dt` of local computation.
    ///
    /// # Panics
    /// Panics if `dt` is negative or not finite.
    pub fn compute(&mut self, dt: Span) {
        assert!(
            dt.is_finite() && dt >= Span::ZERO,
            "compute(dt) needs finite dt >= 0, got {dt} s"
        );
        let begin = self.timing.now;
        self.timing.now += dt;
        if let Some(n) = self.noise {
            // Poisson preemptions over cumulative compute time, each
            // stealing an exponential slice of wall time.
            self.cum_compute += dt.seconds();
            while self.cum_compute >= self.next_noise_at {
                let rng = self
                    .noise_rng
                    .as_mut()
                    .expect("a finite next_noise_at implies an initialized noise stream");
                self.timing.now +=
                    Span::from_secs(rngx::exponential(rng, n.mean_preempt_s.seconds()));
                self.next_noise_at += rngx::exponential(rng, 1.0 / n.rate_hz);
            }
        }
        if self.law.obs_spec.records_edges() {
            let dur = self.timing.now - begin;
            if let Some(rec) = self.timing.obs.get_mut() {
                rec.compute(begin.seconds(), dur.seconds());
            }
        }
    }

    /// Fast-forwards this rank to `t` (no-op if `t` is in the past).
    /// Used by the clock layer to implement cheap busy-waiting.
    pub fn jump_to(&mut self, t: SimTime) {
        if t > self.timing.now {
            self.timing.now = t;
        }
    }

    /// Posts an eager (buffered) send of `payload` to `dst` under `tag`.
    /// Returns immediately after charging the send overhead.
    ///
    /// Payloads up to [`crate::msg::INLINE_PAYLOAD`] bytes travel inline
    /// in the envelope — no heap allocation anywhere on this path.
    ///
    /// # Panics
    /// Panics on self-sends, out-of-range destinations and reserved tags.
    pub fn send(&mut self, dst: Rank, tag: Tag, payload: &[u8]) {
        self.post(dst, tag, Payload::from_slice(payload), false);
    }

    /// Synchronous send (`MPI_Ssend` semantics): completes only once the
    /// receiver has matched the message; modeled as a rendezvous with an
    /// acknowledgement travelling back over the same network level.
    /// Under [`RankCtx::set_recv_timeout`] the ack wait times out like
    /// any receive (a dropped data message never gets acked).
    pub fn ssend(&mut self, dst: Rank, tag: Tag, payload: &[u8]) {
        self.post(dst, tag, Payload::from_slice(payload), true);
        // Wait for the ack; its arrival time carries the completion time.
        let deadline = self.recv_timeout.map(|s| self.timing.now + s);
        match self.pull_match_deadline(dst, tag | ACK_BIT, deadline) {
            Ok(env) => self
                .timing
                .recv(&self.law, dst, env.tag, env.arrival, 0, Leg::Ack),
            Err((at, reason)) => {
                std::panic::panic_any(self.recv_timeout_err(dst, tag | ACK_BIT, at, reason))
            }
        }
    }

    fn post(&mut self, dst: Rank, tag: Tag, payload: Payload, needs_ack: bool) {
        assert!(
            dst < self.size,
            "send to out-of-range rank {dst} (size {})",
            self.size
        );
        assert_eq!(tag & ACK_BIT, 0, "tag {tag:#x} uses the reserved ACK bit");
        let bytes = payload.len();
        let post = Post {
            me: self.rank,
            dst,
            tag,
            payload,
            needs_ack,
            leg: Leg::Data,
            faults: &mut self.faults,
            net: &self.net,
            reorder_hold: &mut self.reorder_hold,
            decision: FaultDecision::CLEAN,
        };
        self.timing
            .send(&self.law, self.rank, dst, tag, bytes, Leg::Data, post);
    }

    /// Delivers every held (fault-reordered) envelope directly to its
    /// destination's inbox, in hold order. Called at every blocking
    /// point and at body end — a rank never parks or finishes holding
    /// undelivered messages, which keeps both the drain pass's and the
    /// deadline receives' "nothing in flight" reasoning valid.
    pub(crate) fn flush_reorder_holds(&mut self) {
        for (dst, env) in self.reorder_hold.drain(..) {
            self.net.send(dst, env);
        }
    }

    /// Blocking receive of a message from `src` with `tag`. Advances this
    /// rank's virtual time to the message arrival (if in the future) plus
    /// the receive overhead, then returns the payload.
    ///
    /// Under fault injection a lost message (or, with
    /// [`RankCtx::set_recv_timeout`], a timed-out one) unwinds with a
    /// [`RecvTimeout`]; use [`Cluster::run_outcome`] to observe that as a
    /// per-rank outcome instead of a run-level panic.
    pub fn recv(&mut self, src: Rank, tag: Tag) -> Payload {
        let deadline = self.recv_timeout.map(|s| self.timing.now + s);
        match self.recv_impl(src, tag, deadline) {
            Ok(p) => p,
            Err(t) => std::panic::panic_any(t),
        }
    }

    /// Blocking receive that gives up at virtual time `deadline`: if no
    /// matching message with `arrival <= deadline` can ever be matched
    /// — it was dropped, arrives too late, the sender finished without
    /// sending, or the wait is part of a fault-induced cycle — the
    /// receive resolves as `Err(RecvTimeout)` with this rank's clock at
    /// the deadline, instead of hanging. A matching message that merely
    /// arrives *after* the deadline stays buffered for a later receive.
    ///
    /// This is the primitive that lets synchronization rounds degrade
    /// into an invalid round under message loss rather than a hang; the
    /// resolution time is pure virtual time, so timed-out runs replay
    /// byte-identically.
    pub fn recv_deadline(
        &mut self,
        src: Rank,
        tag: Tag,
        deadline: SimTime,
    ) -> Result<Payload, RecvTimeout> {
        self.recv_impl(src, tag, Some(deadline))
    }

    /// [`RankCtx::recv_deadline`] with a deadline of `now + within`.
    pub fn recv_within(
        &mut self,
        src: Rank,
        tag: Tag,
        within: Span,
    ) -> Result<Payload, RecvTimeout> {
        self.recv_deadline(src, tag, self.timing.now + within)
    }

    /// Installs (or clears) a per-receive timeout policy: while set,
    /// every plain [`RankCtx::recv`] / [`RankCtx::ssend`] behaves as a
    /// deadline receive with deadline `now + timeout`, unwinding with
    /// [`RecvTimeout`] on failure. Pair with [`Cluster::run_outcome`] to
    /// turn those unwinds into per-rank outcomes.
    pub fn set_recv_timeout(&mut self, timeout: Option<Span>) {
        self.recv_timeout = timeout;
    }

    /// The currently installed receive-timeout policy.
    pub fn recv_timeout(&self) -> Option<Span> {
        self.recv_timeout
    }

    fn recv_impl(
        &mut self,
        src: Rank,
        tag: Tag,
        deadline: Option<SimTime>,
    ) -> Result<Payload, RecvTimeout> {
        assert!(src < self.size, "recv from out-of-range rank {src}");
        assert_ne!(src, self.rank, "self-receives are not modeled");
        let env = match self.pull_match_deadline(src, tag, deadline) {
            Ok(env) => env,
            Err((at, reason)) => return Err(self.recv_timeout_err(src, tag, at, reason)),
        };
        self.timing.recv(
            &self.law,
            env.src,
            tag,
            env.arrival,
            env.payload.len(),
            Leg::Data,
        );
        if env.needs_ack {
            // Rendezvous: release the synchronous sender. The ack is a
            // zero-byte message on the same level.
            self.post_ack(env.src, env.tag | ACK_BIT);
        }
        Ok(env.payload)
    }

    /// Walks member `me`'s schedule of a collective among `group` under
    /// `tag` and returns it finished: its working buffer then holds this
    /// member's result.
    ///
    /// With an empty fault plan the members meet in one rendezvous,
    /// where the last to enter walks every member's schedule with the
    /// message path's timing law (module docs of `rendezvous`); if any
    /// member has a receive-timeout policy, and in every run with a
    /// fault plan, each member walks its schedule on messages. Virtual
    /// time, counters, recorded events and results are identical either
    /// way.
    ///
    /// # Panics
    /// Panics if `group` does not hold this rank at index `me`.
    pub fn collective(
        &mut self,
        group: &Group,
        me: usize,
        tag: Tag,
        mut sched: Schedule,
    ) -> Schedule {
        assert_eq!(
            group.ranks()[me],
            self.rank,
            "collective member {me} is not this rank"
        );
        if group.len() > 1 && self.faults.is_none() {
            // Move this rank's timing state and schedule into the slot,
            // and take them back evaluated, or to walk on messages.
            let timing = std::mem::replace(&mut self.timing, Timing::vacant());
            let timed = self.recv_timeout.is_some();
            let member = Member { timing, sched };
            let (back, on_messages) = self
                .net
                .rendezvous(&self.law, group, me, tag, timed, member);
            (self.timing, sched) = (back.timing, back.sched);
            if !on_messages {
                return sched;
            }
        }
        for k in 0..sched.ops().len() {
            match sched.ops()[k] {
                Op::Send(to, src) => {
                    let payload = sched.payload(src);
                    self.post(group.ranks()[to as usize], tag, payload, false);
                }
                Op::Recv(from, sink) => {
                    let got = self.recv(group.ranks()[from as usize], tag);
                    sched.absorb(sink, got);
                }
            }
        }
        sched
    }

    /// Sends a typed value over the [`Wire`] encoding.
    pub fn send_t<T: Wire>(&mut self, dst: Rank, tag: Tag, x: T) {
        self.send(dst, tag, x.to_wire().as_ref());
    }

    /// Synchronous-send of a typed value (see [`RankCtx::ssend`]).
    pub fn ssend_t<T: Wire>(&mut self, dst: Rank, tag: Tag, x: T) {
        self.ssend(dst, tag, x.to_wire().as_ref());
    }

    /// Blocking receive of a typed value over the [`Wire`] encoding.
    ///
    /// # Panics
    /// Panics if the received payload length does not match `T`'s wire
    /// form (sender/receiver schema mismatch).
    pub fn recv_t<T: Wire>(&mut self, src: Rank, tag: Tag) -> T {
        T::from_wire(self.recv(src, tag).as_ref())
    }

    fn post_ack(&mut self, dst: Rank, ack_tag: Tag) {
        let post = Post {
            me: self.rank,
            dst,
            tag: ack_tag,
            payload: Payload::empty(),
            needs_ack: false,
            leg: Leg::Ack,
            faults: &mut self.faults,
            net: &self.net,
            reorder_hold: &mut self.reorder_hold,
            decision: FaultDecision::CLEAN,
        };
        self.timing
            .send(&self.law, self.rank, dst, ack_tag, 0, Leg::Ack, post);
    }

    /// Resolves a receive as a timeout: jumps this rank's clock to the
    /// resolution instant (never backward), records the obs instant and
    /// builds the [`RecvTimeout`] record. Purely virtual-time state, so
    /// timed-out timelines replay byte-identically.
    fn recv_timeout_err(
        &mut self,
        src: Rank,
        tag: Tag,
        at: SimTime,
        reason: TimeoutReason,
    ) -> RecvTimeout {
        self.jump_to(at);
        self.obs_note("recv/timeout");
        RecvTimeout {
            rank: self.rank,
            src,
            tag,
            at: self.timing.now,
            reason,
        }
    }

    /// The match of a receive of `tag` from `src`, or the instant and
    /// reason of the timeout it resolved as ([`RunNet::match_or_park`]).
    /// The caller builds the [`RecvTimeout`]: moving the envelope
    /// through one more enum on its way cost a strict ping-pong ≈ 8 %
    /// per message, in store-forwarding stalls of the copies.
    fn pull_match_deadline(
        &mut self,
        src: Rank,
        tag: Tag,
        deadline: Option<SimTime>,
    ) -> Result<Envelope, (SimTime, TimeoutReason)> {
        // A receive may block; everything this rank has held back must
        // be in its peers' inboxes first, or two ranks could deadlock
        // on messages neither has delivered.
        self.flush_reorder_holds();
        self.net
            .match_or_park(self.rank, src, tag, deadline, self.timing.now)
    }
}

/// The message path's delivery of one post: the fault plan's verdict at
/// the delivery boundary, then the destination's inbox (or the reorder
/// hold).
struct Post<'a> {
    me: Rank,
    dst: Rank,
    tag: Tag,
    payload: Payload,
    needs_ack: bool,
    leg: Leg,
    faults: &'a mut Option<FaultState>,
    net: &'a RunNet,
    reorder_hold: &'a mut Vec<(Rank, Envelope)>,
    /// The plan's verdict, taken in `route` ([`FaultDecision::CLEAN`]
    /// on the benign fast path: zero draws).
    decision: FaultDecision,
}

impl Delivery for Post<'_> {
    #[inline(always)]
    fn route(&mut self, t: &mut Timing, lat: &mut Span) -> Route {
        if let Some(fs) = self.faults {
            self.decision = fs.decide(self.me, self.dst, t.now);
        }
        if self.decision.scale != 1.0 {
            *lat = *lat * self.decision.scale;
            t.note("fault/latency");
        }
        match self.decision.verdict {
            FaultVerdict::Deliver => Route::Clamped,
            FaultVerdict::Drop(note) => {
                t.note(note);
                Route::Clamped
            }
            FaultVerdict::Reorder(extra) => {
                t.note("fault/reorder");
                match self.leg {
                    // Reordered messages bypass the FIFO clamp entirely
                    // (that *is* the fault) and leave the channel
                    // watermark untouched.
                    Leg::Data => Route::Overtaking(extra),
                    // There is one ack per rendezvous, so a reorder
                    // verdict degrades to its extra delay under the
                    // normal clamp.
                    Leg::Ack => {
                        *lat += extra;
                        Route::Clamped
                    }
                }
            }
        }
    }

    #[inline(always)]
    fn deliver(self, t: &mut Timing, arrival: SimTime) {
        let mut dropped = matches!(self.decision.verdict, FaultVerdict::Drop(_));
        // Receiver inside a crash blackout at the arrival instant: the
        // message is lost on delivery (tombstoned like a drop).
        if !dropped {
            if let Some(fs) = &self.faults {
                if fs.plan().crashed_at(self.dst, arrival) {
                    dropped = true;
                    t.note("fault/crash");
                }
            }
        }
        let dup = match self.decision.duplicate {
            Some(extra) if !dropped => Some((extra, self.payload.clone())),
            _ => None,
        };
        let env = Envelope {
            src: self.me,
            tag: self.tag,
            send_time: t.now,
            arrival,
            needs_ack: self.needs_ack && !dropped,
            dropped,
            payload: if dropped {
                Payload::empty()
            } else {
                self.payload
            },
        };
        if self.leg == Leg::Ack {
            // Acks cross the same faulty links as data, but duplication
            // is ignored and no held message waits on them.
            self.net.send(self.dst, env);
            return;
        }
        // Delivered at once, so delivery order matches post order; the
        // arrival time was fixed by the law. A send may race with the
        // receiver having already returned from its closure; that's
        // fine, the message is simply dropped at the end of the run.
        let reordered = matches!(self.decision.verdict, FaultVerdict::Reorder(_)) && !dropped;
        if reordered {
            // Held back past the *next* post to this destination (or
            // any blocking point / body end) — true overtaking, driven
            // purely by sender program order.
            self.reorder_hold.push((self.dst, env));
        } else {
            self.net.send(self.dst, env);
            // This post is the "next message" any held envelope to the
            // same destination was waiting to be overtaken by.
            release_holds_for(self.reorder_hold, self.net, self.dst);
        }
        if let Some((extra, payload)) = dup {
            t.note("fault/duplicate");
            let dup = Envelope {
                src: self.me,
                tag: self.tag,
                send_time: t.now,
                arrival: arrival + extra,
                needs_ack: false,
                dropped: false,
                payload,
            };
            // The copy trails its primary wherever that went; it is not
            // a posted message (counters untouched, no watermark).
            if reordered {
                self.reorder_hold.push((self.dst, dup));
            } else {
                self.net.send(self.dst, dup);
            }
        }
    }
}

/// Delivers every held (fault-reordered) envelope for `dst` *behind*
/// the message just delivered there, in hold order.
fn release_holds_for(hold: &mut Vec<(Rank, Envelope)>, net: &RunNet, dst: Rank) {
    if hold.is_empty() {
        return;
    }
    let mut i = 0;
    while i < hold.len() {
        let (held_dst, _) = &hold[i];
        if *held_dst == dst {
            let (_, env) = hold.remove(i);
            net.send(dst, env);
        } else {
            i += 1;
        }
    }
}
