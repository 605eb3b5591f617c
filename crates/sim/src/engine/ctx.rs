//! [`RankCtx`]: what a rank body sees — its virtual clock, the
//! send/receive paths (fault interpretation, matching, deadline
//! receives) and the observability hooks.

use std::collections::VecDeque;
use std::sync::Arc;

use hcs_obs::{ClockReadings, ObsSpec, Recorder};

use super::net::{BatchWait, DstClamp, RunNet, POISON_TAG};
use super::outcome::{RecvTimeout, TimeoutReason};
#[cfg(doc)]
use super::run::Cluster;
use crate::fault::{FaultDecision, FaultPlan, FaultState, FaultVerdict};
use crate::msg::{Envelope, Payload, PendingBuf, ACK_BIT};
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

/// The per-rank execution context: virtual clock, mailbox and network
/// access. Handed to the rank closure by [`Cluster::run`].
pub struct RankCtx {
    rank: Rank,
    size: usize,
    now: SimTime,
    topology: Arc<Topology>,
    network: Arc<NetworkModel>,
    clock: Arc<ClockSpec>,
    master_seed: u64,
    /// Per-rank message-jitter stream, materialized on first send: most
    /// ranks of a large run never send, and first use derives the exact
    /// same seeded stream construction would have.
    net_rng: Option<Pcg64>,
    net: Arc<RunNet>,
    /// Out-of-order buffer: messages pulled from the mailbox that did
    /// not match the receive in progress, bucketed by source rank so a
    /// match never scans other senders' messages (see [`PendingBuf`]).
    pending: PendingBuf,
    /// Receiver-local delivery ring: [`RunNet::recv_batch`] swaps the
    /// whole mailbox in here under one lock acquisition, and the
    /// matching loop consumes it lock-free in delivery order.
    ring: VecDeque<Envelope>,
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
    /// FIFO clamp: last arrival time scheduled to each destination.
    last_arrival_to: DstClamp,
    counters: TrafficCounters,
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
    /// How many ranks of this node are communicating concurrently with
    /// this one (declared by collective implementations); drives the
    /// statistical NIC-contention term.
    active_peers: usize,
    /// Observability: what to record, and the per-rank recorder itself
    /// (`Recorder::Off` when disabled — the hot paths then skip event
    /// emission with a single enum-discriminant check).
    obs_spec: ObsSpec,
    pub(super) obs: Recorder,
}

/// Materializes [`RankCtx::net_rng`] on first use. A free function
/// (rather than a method) so call sites keep field-disjoint borrows of
/// `self.network` and `self.net_rng`.
#[inline]
fn lazy_net_rng(slot: &mut Option<Pcg64>, master_seed: u64, rank: Rank) -> &mut Pcg64 {
    slot.get_or_insert_with(|| rngx::stream_rng(master_seed, label::rank_net(rank)))
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
        let obs = obs_spec.recorder(rank as u32);
        Self {
            rank,
            size,
            now: SimTime::ZERO,
            topology,
            network,
            clock,
            master_seed,
            net_rng: None,
            net,
            pending: PendingBuf::default(),
            ring: VecDeque::new(),
            faults: FaultState::new(fault_plan, master_seed, rank),
            reorder_hold: Vec::new(),
            recv_timeout: None,
            last_arrival_to: DstClamp::new(),
            counters: TrafficCounters::default(),
            noise,
            noise_rng,
            cum_compute: 0.0,
            next_noise_at,
            label_counter: 0,
            active_peers: 1,
            obs_spec,
            obs,
        }
    }

    /// Heap bytes held by this rank's FIFO clamp.
    #[cfg(test)]
    pub(crate) fn clamp_heap_bytes(&self) -> usize {
        self.last_arrival_to.heap_bytes()
    }

    /// Heap bytes held by this rank's out-of-order pending buffer.
    #[cfg(test)]
    pub(crate) fn pending_heap_bytes(&self) -> usize {
        self.pending.heap_bytes()
    }

    /// How many of the run's mailboxes are single-owner (`Events`) arms.
    #[cfg(test)]
    pub(crate) fn owned_mailboxes(&self) -> usize {
        self.net.owned_mailboxes()
    }

    /// Declares that `n` ranks of this node (including this one) are
    /// communicating concurrently. Collective implementations set this
    /// to the node-local participant count on entry and reset it to 1 on
    /// exit; inter-node messages then pay a statistical NIC queueing
    /// delay of `nic_gap_s · U(0, n-1)`.
    pub fn set_active_peers(&mut self, n: usize) {
        self.active_peers = n.max(1);
    }

    /// Currently declared concurrent communicator count (see
    /// [`RankCtx::set_active_peers`]).
    pub fn active_peers(&self) -> usize {
        self.active_peers
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

    /// Current virtual *true* time of this rank, in seconds.
    ///
    /// Algorithms under test must not consult this directly — they only
    /// see (drifting) clocks built by `hcs-clock`. It is the oracle used
    /// by tests and accuracy evaluation.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// The oscillator parameters of this machine.
    pub fn clock_spec(&self) -> &ClockSpec {
        &self.clock
    }

    /// The master seed of this run (clock objects derive their parameter
    /// and noise streams from it).
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Traffic counters of this rank.
    pub fn counters(&self) -> TrafficCounters {
        self.counters
    }

    /// Whether observability recording is enabled for this rank. Guard
    /// any event-argument construction (name formatting, clock reads)
    /// behind this so the disabled path stays allocation-free — or use
    /// the [`crate::obs_span!`] macro, which does it for you.
    #[inline]
    pub fn obs_on(&self) -> bool {
        self.obs.is_on()
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
        let secs = self.now.seconds();
        if let Some(rec) = self.obs.get_mut() {
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
        let secs = self.now.seconds();
        if let Some(rec) = self.obs.get_mut() {
            rec.exit(secs, reads);
        }
    }

    /// Records an instant annotation (e.g. `"round_time.invalid"`).
    /// No-op when observability is off.
    pub fn obs_note(&mut self, name: &str) {
        let secs = self.now.seconds();
        if let Some(rec) = self.obs.get_mut() {
            rec.note(secs, name);
        }
    }

    /// Records a named counter sample. No-op when observability is off.
    pub fn obs_counter(&mut self, name: &str, value: f64) {
        let secs = self.now.seconds();
        if let Some(rec) = self.obs.get_mut() {
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
        let begin = self.now;
        self.now += dt;
        if let Some(n) = self.noise {
            // Poisson preemptions over cumulative compute time, each
            // stealing an exponential slice of wall time.
            self.cum_compute += dt.seconds();
            while self.cum_compute >= self.next_noise_at {
                let rng = self
                    .noise_rng
                    .as_mut()
                    .expect("a finite next_noise_at implies an initialized noise stream");
                self.now += Span::from_secs(rngx::exponential(rng, n.mean_preempt_s.seconds()));
                self.next_noise_at += rngx::exponential(rng, 1.0 / n.rate_hz);
            }
        }
        if self.obs_spec.records_edges() {
            let dur = self.now - begin;
            if let Some(rec) = self.obs.get_mut() {
                rec.compute(begin.seconds(), dur.seconds());
            }
        }
    }

    /// Fast-forwards this rank to `t` (no-op if `t` is in the past).
    /// Used by the clock layer to implement cheap busy-waiting.
    pub fn jump_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
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
        self.post(dst, tag, payload, false);
    }

    /// Synchronous send (`MPI_Ssend` semantics): completes only once the
    /// receiver has matched the message; modeled as a rendezvous with an
    /// acknowledgement travelling back over the same network level.
    /// Under [`RankCtx::set_recv_timeout`] the ack wait times out like
    /// any receive (a dropped data message never gets acked).
    pub fn ssend(&mut self, dst: Rank, tag: Tag, payload: &[u8]) {
        self.post(dst, tag, payload, true);
        // Wait for the ack; its arrival time carries the completion time.
        let deadline = self.recv_timeout.map(|s| self.now + s);
        match self.pull_match_deadline(dst, tag | ACK_BIT, deadline) {
            Ok(env) => self.absorb_arrival(&env),
            Err(t) => std::panic::panic_any(t),
        }
    }

    /// Evaluates the fault plan for a message to `dst` posted now
    /// ([`FaultDecision::CLEAN`] on the benign fast path).
    #[inline]
    fn fault_decision(&mut self, dst: Rank) -> FaultDecision {
        match &mut self.faults {
            Some(fs) => fs.decide(self.rank, dst, self.now),
            None => FaultDecision::CLEAN,
        }
    }

    fn post(&mut self, dst: Rank, tag: Tag, payload: &[u8], needs_ack: bool) {
        assert!(
            dst < self.size,
            "send to out-of-range rank {dst} (size {})",
            self.size
        );
        assert_ne!(dst, self.rank, "self-sends are not modeled");
        assert_eq!(tag & ACK_BIT, 0, "tag {tag:#x} uses the reserved ACK bit");
        self.now += self.network.send_overhead_s;
        let level = self.topology.level(self.rank, dst);
        let mut lat = self.network.sample_latency(
            lazy_net_rng(&mut self.net_rng, self.master_seed, self.rank),
            level,
            self.rank,
            dst,
            payload.len(),
        );
        lat += self.contention_delay(level);
        // Fault interpretation happens at this delivery boundary, after
        // the unchanged latency/contention sampling, so an empty plan
        // leaves the timeline bit-identical (see `fault` module docs).
        let decision = self.fault_decision(dst);
        if decision.scale != 1.0 {
            lat = lat * decision.scale;
            self.obs_note("fault/latency");
        }
        let mut dropped = false;
        let mut reorder_extra = None;
        match decision.verdict {
            FaultVerdict::Deliver => {}
            FaultVerdict::Drop(note) => {
                dropped = true;
                self.obs_note(note);
            }
            FaultVerdict::Reorder(extra) => {
                reorder_extra = Some(extra);
                self.obs_note("fault/reorder");
            }
        }
        // Reordered messages bypass the FIFO clamp entirely (that *is*
        // the fault) and leave the channel watermark untouched.
        let arrival = match reorder_extra {
            Some(extra) => self.now + lat + extra,
            None => self.last_arrival_to.clamp_and_update(dst, self.now + lat),
        };
        // Receiver inside a crash blackout at the arrival instant: the
        // message is lost on delivery (tombstoned like a drop).
        if !dropped {
            if let Some(fs) = &self.faults {
                if fs.plan().crashed_at(dst, arrival) {
                    dropped = true;
                    self.obs_note("fault/crash");
                }
            }
        }
        let reordered = reorder_extra.is_some() && !dropped;
        self.counters.sent_msgs += 1;
        self.counters.sent_bytes += payload.len() as u64;
        if level == crate::topology::Level::InterNode {
            self.counters.sent_inter_node += 1;
        }
        let env = Envelope {
            src: self.rank,
            tag,
            send_time: self.now,
            arrival,
            needs_ack: needs_ack && !dropped,
            dropped,
            payload: if dropped {
                Payload::empty()
            } else {
                Payload::from_slice(payload)
            },
        };
        // Delivered at once, so delivery order matches post order; the
        // arrival time was fixed above. A send may race with the
        // receiver having already returned from its closure; that's
        // fine, the message is simply dropped at the end of the run.
        if reordered {
            // Held back past the *next* post to this destination (or
            // any blocking point / body end) — true overtaking, driven
            // purely by sender program order.
            self.reorder_hold.push((dst, env));
        } else {
            self.net.send(dst, env);
            // This post is the "next message" any held envelope to the
            // same destination was waiting to be overtaken by.
            self.release_holds_for(dst);
        }
        if let (Some(extra), false) = (decision.duplicate, dropped) {
            self.obs_note("fault/duplicate");
            let dup = Envelope {
                src: self.rank,
                tag,
                send_time: self.now,
                arrival: arrival + extra,
                needs_ack: false,
                dropped: false,
                payload: Payload::from_slice(payload),
            };
            // The copy trails its primary wherever that went; it is not
            // a posted message (counters untouched, no watermark).
            if reordered {
                self.reorder_hold.push((dst, dup));
            } else {
                self.net.send(dst, dup);
            }
        }
        if self.obs_spec.records_edges() {
            if let Some(rec) = self.obs.get_mut() {
                rec.send(self.now.seconds(), dst as u32, tag, payload.len() as u32);
            }
        }
    }

    /// Delivers every held (fault-reordered) envelope for `dst`
    /// *behind* the message just delivered there, in hold order.
    fn release_holds_for(&mut self, dst: Rank) {
        if self.reorder_hold.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.reorder_hold.len() {
            let (held_dst, _) = &self.reorder_hold[i];
            if *held_dst == dst {
                let (_, env) = self.reorder_hold.remove(i);
                self.net.send(dst, env);
            } else {
                i += 1;
            }
        }
    }

    /// Delivers every held (fault-reordered) envelope directly to its
    /// destination mailbox, in hold order. Called at every blocking
    /// point and at body end — a rank never parks or finishes holding
    /// undelivered messages, which keeps both the deadlock detector's
    /// and the deadline receives' "nothing in flight" reasoning valid.
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
        let deadline = self.recv_timeout.map(|s| self.now + s);
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
        self.recv_deadline(src, tag, self.now + within)
    }

    /// Installs (or clears) a per-receive timeout policy: while set,
    /// every plain [`RankCtx::recv`] / [`RankCtx::ssend`] behaves as a
    /// deadline receive with deadline `now + timeout`, unwinding with
    /// [`RecvTimeout`] on failure. Pair with [`Cluster::run_outcome`] to
    /// turn those unwinds into per-rank outcomes.
    pub fn set_recv_timeout(&mut self, timeout: Option<Span>) {
        if timeout.is_some() {
            self.net.enable_done_wakeups();
        }
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
        let env = self.pull_match_deadline(src, tag, deadline)?;
        self.absorb_arrival(&env);
        if self.obs_spec.records_edges() {
            if let Some(rec) = self.obs.get_mut() {
                rec.recv(
                    self.now.seconds(),
                    env.src as u32,
                    tag,
                    env.payload.len() as u32,
                );
            }
        }
        if env.needs_ack {
            // Rendezvous: release the synchronous sender. The ack is a
            // zero-byte message on the same level.
            self.post_ack(env.src, env.tag | ACK_BIT);
        }
        Ok(env.payload)
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

    /// Statistical NIC queueing delay for inter-node messages while
    /// multiple node peers are communicating (LogGP-style gap model).
    fn contention_delay(&mut self, level: crate::topology::Level) -> Span {
        let gap = self.network.nic_gap_s;
        if level != crate::topology::Level::InterNode || self.active_peers <= 1 || gap <= Span::ZERO
        {
            return Span::ZERO;
        }
        let rng = lazy_net_rng(&mut self.net_rng, self.master_seed, self.rank);
        gap * rng.range(0.0, (self.active_peers - 1) as f64)
    }

    fn post_ack(&mut self, dst: Rank, ack_tag: Tag) {
        self.now += self.network.send_overhead_s;
        let level = self.topology.level(self.rank, dst);
        let mut lat = self.network.sample_latency(
            lazy_net_rng(&mut self.net_rng, self.master_seed, self.rank),
            level,
            self.rank,
            dst,
            0,
        );
        lat += self.contention_delay(level);
        // Acks cross the same faulty links as data. There is one ack per
        // rendezvous, so a reorder verdict degrades to its extra delay
        // under the normal FIFO clamp, and duplication is ignored.
        let decision = self.fault_decision(dst);
        if decision.scale != 1.0 {
            lat = lat * decision.scale;
            self.obs_note("fault/latency");
        }
        let mut dropped = false;
        match decision.verdict {
            FaultVerdict::Deliver => {}
            FaultVerdict::Drop(note) => {
                dropped = true;
                self.obs_note(note);
            }
            FaultVerdict::Reorder(extra) => {
                lat += extra;
                self.obs_note("fault/reorder");
            }
        }
        let arrival = self.last_arrival_to.clamp_and_update(dst, self.now + lat);
        if !dropped {
            if let Some(fs) = &self.faults {
                if fs.plan().crashed_at(dst, arrival) {
                    dropped = true;
                    self.obs_note("fault/crash");
                }
            }
        }
        let env = Envelope {
            src: self.rank,
            tag: ack_tag,
            send_time: self.now,
            arrival,
            needs_ack: false,
            dropped,
            payload: Payload::empty(),
        };
        self.net.send(dst, env);
    }

    fn absorb_arrival(&mut self, env: &Envelope) {
        if env.arrival > self.now {
            self.now = env.arrival;
        }
        self.now += self.network.recv_overhead_s;
        self.counters.recv_msgs += 1;
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
            at: self.now,
            reason,
        }
    }

    fn pull_match_deadline(
        &mut self,
        src: Rank,
        tag: Tag,
        deadline: Option<SimTime>,
    ) -> Result<Envelope, RecvTimeout> {
        // A receive may block; everything this rank has held back must
        // be in its peers' mailboxes first, or two ranks could deadlock
        // on messages neither has delivered.
        self.flush_reorder_holds();
        if deadline.is_some() {
            // Arm completion wakeups so a parked deadline wait observes
            // its sender finishing (Dekker handshake with `rank_done`).
            self.net.enable_done_wakeups();
        }
        // Buffered match first. Peek the metadata before consuming: a
        // tombstone is consumed (it proves loss), but a *late* live
        // message stays buffered for a later receive.
        if let Some((arrival, dropped)) = self.pending.meta(src, tag) {
            if dropped {
                let env = self.pending.take(src, tag).expect("peeked envelope");
                let at = deadline.unwrap_or(env.arrival);
                return Err(self.recv_timeout_err(src, tag, at, TimeoutReason::MessageLost));
            }
            match deadline {
                Some(dl) if arrival > dl => {
                    return Err(self.recv_timeout_err(src, tag, dl, TimeoutReason::DeadlinePassed));
                }
                _ => {
                    return Ok(self.pending.take(src, tag).expect("peeked envelope"));
                }
            }
        }
        loop {
            // Drain the receiver-local ring first: these envelopes were
            // already taken out of the mailbox in one batch, and the
            // wait edge was cleared (under the mailbox lock) when that
            // batch was drained.
            while let Some(env) = self.ring.pop_front() {
                if env.tag == POISON_TAG {
                    panic!(
                        "rank {}: peer rank {} panicked while this rank was receiving (src {src}, tag {tag})",
                        self.rank, env.src
                    );
                }
                if env.src == src && env.tag == tag {
                    if env.dropped {
                        let at = deadline.unwrap_or(env.arrival);
                        return Err(self.recv_timeout_err(
                            src,
                            tag,
                            at,
                            TimeoutReason::MessageLost,
                        ));
                    }
                    if let Some(dl) = deadline {
                        if env.arrival > dl {
                            // Late, not lost: keep it for a later receive.
                            self.pending.push(env);
                            return Err(self.recv_timeout_err(
                                src,
                                tag,
                                dl,
                                TimeoutReason::DeadlinePassed,
                            ));
                        }
                    }
                    return Ok(env);
                }
                self.pending.push(env);
            }
            // Ring exhausted — this receive is (still) logically
            // blocked on (src, tag). Publish the wait edge before
            // touching the mailbox: it is cleared when a batch is
            // drained, so "edge registered" always implies this rank
            // holds no envelope in hand — the invariant the deadlock
            // detector's probes rely on. The generation bump on
            // re-registration is what lets the detector prove that a
            // confirmed cycle's edges all coexisted.
            let wait_gen = self
                .net
                .waits
                .begin_wait(self.rank, src, tag, deadline.is_some());
            match self.net.recv_batch(
                self.rank,
                src,
                deadline.map(|_| wait_gen),
                self.now,
                &mut self.ring,
            ) {
                BatchWait::Got => {}
                BatchWait::PeersGone => {
                    if let Some(dl) = deadline {
                        // Every peer (so in particular `src`) finished:
                        // same resolution as SenderDone, so which of the
                        // two host-side checks fires first is invisible.
                        return Err(self.recv_timeout_err(
                            src,
                            tag,
                            dl,
                            TimeoutReason::SenderFinished,
                        ));
                    }
                    panic!(
                        "rank {}: all peers gone while receiving (src {src}, tag {tag})",
                        self.rank
                    );
                }
                BatchWait::SenderDone => {
                    let dl = deadline.expect("SenderDone only on deadline receives");
                    return Err(self.recv_timeout_err(src, tag, dl, TimeoutReason::SenderFinished));
                }
                BatchWait::DeadlineFired => {
                    let dl = deadline.expect("DeadlineFired only on deadline receives");
                    return Err(self.recv_timeout_err(src, tag, dl, TimeoutReason::WaitCycle));
                }
            }
        }
    }
}
