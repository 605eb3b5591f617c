//! The virtual-time execution engine.
//!
//! [`Cluster::run`] executes one closure per simulated rank and hands
//! each a [`RankCtx`]. Virtual time is *per rank*: it only moves when
//! the rank computes ([`RankCtx::compute`]), reads a clock (the clock
//! layer charges read cost), or receives a message whose arrival lies
//! in its future. Message arrival times are fixed at send time from the
//! *sender's* deterministic RNG stream, so the simulated timeline does
//! not depend on host scheduling — runs are bit-reproducible.
//!
//! Rank bodies run as stackful continuations on a virtual-time event
//! queue ([`EngineMode::Events`], the default): a blocked receive parks
//! the continuation, never an OS thread. [`EngineMode::Threads`] is the
//! reference implementation the differential tests compare against: one
//! freshly spawned scoped OS thread per rank, parking on the mailbox
//! condvar.
//!
//! The small-message send path performs **zero heap allocations per
//! message**: payloads up to [`crate::msg::INLINE_PAYLOAD`] bytes are
//! stored inline in the envelope, mailboxes are reusable ring buffers,
//! and the per-send FIFO clamp is a flat per-destination table instead
//! of a hash map.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use hcs_obs::{ClockReadings, ObsSpec, RankRecorder, Recorder, TraceLog};

use crate::cont::{self, RANK_STACK_BYTES};
use crate::events::{self, EventSched};
use crate::fault::{FaultDecision, FaultPlan, FaultState, FaultVerdict};
use crate::lockutil::{lock_ignore_poison, OrderedMutex};
use crate::msg::{Envelope, Payload, PendingBuf, ACK_BIT};
use crate::net::NetworkModel;
use crate::rngx::{self, label, Pcg64};
use crate::timebase::Span;
use crate::topology::Topology;
use crate::waitgraph::WaitGraph;
use crate::wire::Wire;
use crate::{ClockSpec, Rank, SimTime, Tag};

/// Minimal spacing enforced between consecutive arrivals on the same
/// (src → dst) channel, to model MPI's non-overtaking guarantee.
const FIFO_EPS: Span = Span::from_secs(1e-12);

/// Tag of the poison message broadcast by a panicking rank so that
/// peers blocked in receives fail fast instead of deadlocking.
const POISON_TAG: Tag = u32::MAX;

/// Above this cluster size the per-destination FIFO clamp switches from
/// a direct-indexed table (`8 B × p` per rank — O(p²) cluster-wide) to
/// an association list over the O(log p) partners a rank actually
/// messages.
const DIRECT_CLAMP_MAX_RANKS: usize = 4096;

/// How many consecutive same-destination sends a rank stages locally
/// before flushing them to the destination mailbox in one lock
/// acquisition. Staged messages are also flushed whenever the sender
/// switches destination, blocks, or its body ends, so batching only
/// coalesces back-to-back traffic that was already in flight together.
const STAGE_MAX: usize = 32;

/// One rank's incoming-message queue: a reusable ring buffer under a
/// mutex, with a condvar for blocking receives. Unlike a linked-list
/// channel, pushing a message allocates nothing once the buffer has
/// reached its high-water capacity.
///
/// Aligned to two cache lines so adjacent ranks' mailboxes in the
/// `RunNet::boxes` vector never false-share a line between one rank's
/// consumer loads and its neighbour's producer stores.
#[repr(align(128))]
struct Mailbox {
    q: OrderedMutex<VecDeque<Envelope>>, // lock-order: engine.mailbox level=10
    cv: Condvar,                         // lock-order: engine.mailbox
}

/// Per-run communication state shared by all rank contexts: one mailbox
/// per rank plus a live-rank count used to detect "everyone else
/// finished" instead of relying on channel disconnection.
struct RunNet {
    boxes: Vec<Mailbox>,
    alive: AtomicUsize,
    /// Per-rank "this rank's closure returned (or aborted)" flags. A
    /// finished rank can never send again — its body flushed every
    /// staged message *before* the flag was set — so "mailbox empty +
    /// sender done + no buffered match" is deterministic proof that a
    /// deadline receive can only resolve as a timeout.
    done: Vec<AtomicBool>,
    /// Whether `rank_done` must notify *every* mailbox (not just when
    /// the run collapses to one live rank): armed when the fault plan is
    /// non-empty or any rank registers a deadline receive, so parked
    /// deadline waiters observe sender completion. Benign runs keep the
    /// legacy single notify-all.
    wake_done: AtomicBool,
    /// Wait-for-graph deadlock detector; `None` when opted out via
    /// [`ClusterBuilder::deadlock_detection`].
    waits: Option<WaitGraph>,
    /// Event scheduler of this run, set (once, before any rank starts)
    /// only in [`EngineMode::Events`]. Every notification path pairs
    /// its condvar notify with a continuation wake through this handle;
    /// in thread mode the single relaxed-free `get()` is the only cost.
    events: OnceLock<Arc<EventSched>>,
}

/// Outcome of one [`RunNet::recv_batch`] park/drain cycle.
enum BatchWait {
    /// The mailbox had (or received) envelopes; they are in the ring.
    Got,
    /// Every other rank finished and nothing is queued.
    PeersGone,
    /// The awaited sender finished without a matching send (deadline
    /// receives only).
    SenderDone,
    /// A confirmed wait cycle fired this deadline wait (see
    /// [`WaitGraph::fire_deadline_members`]).
    DeadlineFired,
}

impl RunNet {
    fn new(size: usize, detect_deadlocks: bool, wake_on_done: bool) -> Self {
        Self {
            boxes: (0..size)
                .map(|_| Mailbox {
                    q: OrderedMutex::new("engine.mailbox", 10, VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            alive: AtomicUsize::new(size),
            done: (0..size).map(|_| AtomicBool::new(false)).collect(),
            wake_done: AtomicBool::new(wake_on_done),
            waits: detect_deadlocks.then(|| WaitGraph::new(size)),
            events: OnceLock::new(),
        }
    }

    /// Requeues `rank`'s continuation if it is parked (no-op in thread
    /// mode). Callers pair this with their condvar notify; taking the
    /// scheduler lock (level 15) inside a held mailbox lock (level 10)
    /// is a legal nesting, and the scheduler never acquires a mailbox,
    /// so the edge is one-directional.
    #[inline]
    fn wake_events(&self, rank: Rank) {
        if let Some(sched) = self.events.get() {
            sched.wake(rank);
        }
    }

    /// Arms per-rank completion wakeups (idempotent). Called the first
    /// time any rank registers a deadline receive; SeqCst pairs with the
    /// `done`-flag handshake in [`RunNet::rank_done`] (Dekker-style: a
    /// deadline waiter stores this flag before checking `done[src]`, a
    /// finishing rank stores `done` before loading this flag — at least
    /// one side always observes the other, so the wakeup is never lost).
    fn enable_done_wakeups(&self) {
        if !self.wake_done.load(Ordering::SeqCst) {
            self.wake_done.store(true, Ordering::SeqCst);
        }
    }

    /// Registers the wait edge of one logical receive (no-op when
    /// detection is off). Returns the wait's registration generation
    /// (0 when detection is off).
    #[inline]
    fn begin_wait(&self, me: Rank, src: Rank, tag: Tag, deadline: bool) -> u64 {
        match &self.waits {
            Some(wg) => wg.begin_wait(me, src, tag, deadline),
            None => 0,
        }
    }

    /// Clears the wait edge once the receive matched.
    #[inline]
    fn end_wait(&self, me: Rank) {
        if let Some(wg) = &self.waits {
            wg.end_wait(me);
        }
    }

    /// Runs cycle detection from `me`'s wait edge; called each time a
    /// rank is about to park on its mailbox condvar. A candidate cycle
    /// is confirmed by probing every member under its mailbox lock —
    /// the edge must still be registered and the mailbox empty. Edges
    /// are cleared under that same lock when an envelope is popped, so
    /// a passing probe means the member is genuinely parked; the
    /// double verification walk inside [`WaitGraph::confirm`] then
    /// proves all probed edges coexisted (see `waitgraph` module
    /// docs). The caller must hold no mailbox lock.
    fn detect_deadlock(&self, me: Rank) {
        let Some(wg) = &self.waits else { return };
        let Some(anchor) = wg.find_candidate(me) else {
            return;
        };
        let confirmed = wg.confirm(anchor, |e| {
            let q = self.boxes[e.waiter].q.acquire();
            let still_blocked = wg.waiting_on(e.waiter) == Some((e.src, e.tag));
            still_blocked && q.is_empty()
        });
        if let Some(cycle) = confirmed {
            // A confirmed cycle with deadline members is not a bug: it
            // is message loss showing up as mutual waits. Fire every
            // deadline member (each resolves as a timeout at its own
            // deadline) and wake them under their mailbox locks so the
            // wakeup cannot be lost. The cycle is frozen, so which rank
            // runs this is host-dependent but the fired set — and hence
            // the virtual timeline — is not. A cycle with *zero*
            // deadline members keeps the exact legacy diagnosis.
            if wg.fire_deadline_members(&cycle) > 0 {
                for e in cycle.iter().filter(|e| e.deadline) {
                    {
                        let _guard = self.boxes[e.waiter].q.acquire();
                        self.boxes[e.waiter].cv.notify_all();
                    }
                    self.wake_events(e.waiter);
                }
                return;
            }
            panic!(
                "deadlock detected: {} (diagnosed by rank {me}; benches can opt out via ClusterBuilder::deadlock_detection(false))",
                WaitGraph::describe(&cycle)
            );
        }
    }

    #[inline]
    fn send(&self, dst: Rank, env: Envelope) {
        let mb = &self.boxes[dst];
        let mut q = mb.q.acquire();
        q.push_back(env);
        drop(q);
        mb.cv.notify_one();
        self.wake_events(dst);
    }

    /// Delivers a sender's staged batch to `dst` in one lock
    /// acquisition and one wakeup. The staging buffer is drained in
    /// push order, so per-`(src, dst)` FIFO delivery order is exactly
    /// what a sequence of [`RunNet::send`] calls would have produced.
    fn send_batch(&self, dst: Rank, stage: &mut Vec<Envelope>) {
        let mb = &self.boxes[dst];
        let mut q = mb.q.acquire();
        q.extend(stage.drain(..));
        drop(q);
        mb.cv.notify_one();
        self.wake_events(dst);
    }

    /// Blocking receive of *everything* queued: drains the whole
    /// mailbox into the receiver-local `ring` under one lock
    /// acquisition and returns [`BatchWait::Got`]. Returns
    /// [`BatchWait::PeersGone`] when every other rank has finished and
    /// nothing is queued, so no message can ever arrive. Deadline
    /// receives (`deadline = true`, with `wait_gen` from `begin_wait`)
    /// observe two additional resolutions — the awaited sender finished
    /// ([`BatchWait::SenderDone`]) or a confirmed wait cycle fired this
    /// wait ([`BatchWait::DeadlineFired`]); both checks are gated on
    /// `deadline` so plain receives keep the legacy behavior exactly.
    ///
    /// An empty mailbox parks the rank — its continuation under the
    /// events engine, its OS thread on the mailbox condvar under the
    /// reference engine — after one cycle-detection probe. The wait
    /// edge published by the caller stays registered while parked,
    /// which is what lets *other* ranks' probes see a cycle through it.
    ///
    /// The batching is host-side only: whether messages are found one
    /// per lock or many per lock changes nothing about virtual time
    /// (arrivals were fixed at send time).
    fn recv_batch(
        &self,
        me: Rank,
        src: Rank,
        wait_gen: u64,
        deadline: bool,
        now: SimTime,
        ring: &mut VecDeque<Envelope>,
    ) -> BatchWait {
        let mb = &self.boxes[me];
        let mut q = mb.q.acquire();
        // Whether this park attempt already ran cycle detection. Reset
        // on every real wakeup, so each park is preceded by exactly one
        // probe — as before — without the probe window losing wakeups.
        let mut probed = false;
        loop {
            if !q.is_empty() {
                ring.extend(q.drain(..));
                // Clear the wait edge while still holding the mailbox
                // lock: confirmation probes take this same lock, so a
                // probe can never observe "edge registered + queue
                // empty" while the just-drained (possibly matching)
                // envelopes are in this rank's hand. The caller
                // re-registers when its ring runs dry without a match.
                self.end_wait(me);
                return BatchWait::Got;
            }
            if deadline {
                // Fired-cycle check FIRST: every member of a confirmed
                // cycle is stamped before any member is notified, while
                // `alive` and `done[src]` only change after a fired
                // peer resumed and *finished its body*. Consulting
                // those first would let host timing pick between
                // WaitCycle and SenderFinished for the same simulated
                // state.
                if let Some(wg) = &self.waits {
                    if wg.deadline_fired(me, wait_gen) {
                        self.end_wait(me);
                        return BatchWait::DeadlineFired;
                    }
                }
            }
            if self.alive.load(Ordering::Acquire) <= 1 {
                return BatchWait::PeersGone;
            }
            if deadline {
                // SeqCst: the `done` store / `wake_done` load handshake
                // in `rank_done` (see `enable_done_wakeups`) guarantees
                // we either see the flag here or get the notify below.
                // Sound because the sender's body flushed every staged
                // message before setting `done`: seeing the flag with an
                // empty queue (held lock) proves no match is coming.
                if self.done[src].load(Ordering::SeqCst) {
                    self.end_wait(me);
                    return BatchWait::SenderDone;
                }
            }
            if self.waits.is_some() && !probed {
                // About to park: check whether this wait closes a
                // cycle. Detection probes other mailboxes, so release
                // our own lock first (probes take one lock at a time —
                // no ordering deadlock). Then loop back instead of
                // parking directly: a fire / completion / last-rank
                // notification delivered while we held no lock and were
                // not yet parked would be lost for good, so every
                // resolution must be re-checked under the re-acquired
                // lock (`probed` keeps this from looping).
                drop(q);
                self.detect_deadlock(me);
                q = mb.q.acquire();
                probed = true;
                continue;
            }
            if self.events.get().is_some() {
                // Events mode: park the *continuation*, not the OS
                // thread. Release the mailbox lock, then yield back to
                // the event executor keyed on this rank's current
                // virtual time. A notification arriving between the
                // release and the executor publishing the parked slot
                // is latched as `wake_pending` and converted into an
                // immediate requeue (see [`EventSched::wake`]), so no
                // wakeup is lost — the same guarantee the condvar gives
                // the reference engine. On resume, re-acquire and re-check
                // every resolution, exactly like a condvar wakeup.
                drop(q);
                cont::suspend_current(events::time_key(now.seconds()));
                q = mb.q.acquire();
                probed = false;
                continue;
            }
            q = q.wait(&mb.cv);
            probed = false;
        }
    }

    /// Marks one rank as finished. When only one rank remains — or when
    /// completion wakeups are armed (fault injection / deadline
    /// receives) — every mailbox is notified (under its lock, to avoid
    /// lost wakeups) so a blocked receiver can observe that its peer is
    /// gone. The `done` store uses SeqCst to close the Dekker handshake
    /// with [`RunNet::enable_done_wakeups`].
    fn rank_done(&self, rank: Rank) {
        self.done[rank].store(true, Ordering::SeqCst);
        let last_pair = self.alive.fetch_sub(1, Ordering::AcqRel) == 2;
        if last_pair || self.wake_done.load(Ordering::SeqCst) {
            for (dst, mb) in self.boxes.iter().enumerate() {
                // A done rank's body has returned — it can never be
                // blocked in a receive again, so its notification would
                // be pure overhead. Skipping it turns the common
                // "everyone finishes about together" case from p
                // lock+notify cycles into p flag loads plus a handful
                // of real notifications. (`done` is only ever set
                // *after* a rank's last receive, so a skipped rank
                // provably has no waiter to lose.)
                if dst == rank || self.done[dst].load(Ordering::SeqCst) {
                    continue;
                }
                {
                    let _guard = mb.q.acquire();
                    mb.cv.notify_all();
                }
                self.wake_events(dst);
            }
        }
    }

    /// Unblocks peers waiting for messages from a panicking rank (or
    /// anyone): poisons every mailbox so their receives fail fast
    /// instead of deadlocking the run.
    fn poison_from(&self, src: Rank) {
        for dst in 0..self.boxes.len() {
            if dst != src {
                self.send(
                    dst,
                    Envelope {
                        src,
                        tag: POISON_TAG,
                        send_time: SimTime::ZERO,
                        arrival: SimTime::ZERO,
                        needs_ack: false,
                        dropped: false,
                        payload: Payload::empty(),
                    },
                );
            }
        }
    }
}

/// One rank's output slot: interior-mutable without a lock. Sound
/// because every slot has exactly one writer (rank r's body, which runs
/// exactly once) and the run's caller reads only after the engine's
/// completion barrier — there is never a concurrent reader or a second
/// writer to exclude, so a mutex would buy nothing but p lock rounds
/// per run.
struct OutSlot<T>(std::cell::UnsafeCell<Option<T>>);

// SAFETY: see the type docs — disjoint single-writer slots, with every
// read ordered strictly after the writers by the engine's completion
// barrier (scope join / `events::drive`).
unsafe impl<T: Send> Sync for OutSlot<T> {}

impl<T> OutSlot<T> {
    fn new() -> Self {
        OutSlot(std::cell::UnsafeCell::new(None))
    }

    /// Stores the value.
    ///
    /// # Safety
    /// The caller must be the slot's unique writer, and all reads must
    /// be ordered after this call by a synchronization barrier.
    // SAFETY: uniqueness and ordering are the caller's contract (above).
    unsafe fn put(&self, v: T) {
        // SAFETY: uniqueness and ordering are the caller's contract.
        unsafe { *self.0.get() = Some(v) }; // xtask-allow: clockdomain (slot cell, not a time newtype)
    }

    fn into_inner(self) -> Option<T> {
        self.0.into_inner() // xtask-allow: clockdomain (slot cell, not a time newtype)
    }
}

/// Why a receive timed out (see [`RecvTimeout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutReason {
    /// A matching message exists but arrives after the deadline.
    DeadlinePassed,
    /// The matching message was dropped by the fault plan (the receiver
    /// consumed its tombstone).
    MessageLost,
    /// The awaited sender's closure finished (or it crashed) without a
    /// matching send ever being posted.
    SenderFinished,
    /// This wait was a member of a confirmed wait-for cycle containing
    /// deadline receives — message loss manifesting as mutual waits.
    WaitCycle,
}

impl std::fmt::Display for TimeoutReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TimeoutReason::DeadlinePassed => "deadline passed",
            TimeoutReason::MessageLost => "message lost",
            TimeoutReason::SenderFinished => "sender finished",
            TimeoutReason::WaitCycle => "wait cycle",
        })
    }
}

/// A deadline receive that could not complete. Returned by
/// [`RankCtx::recv_deadline`]; also the unwind payload of a plain
/// [`RankCtx::recv`] under [`RankCtx::set_recv_timeout`], which
/// [`Cluster::run_outcome`] catches into [`RankOutcome::TimedOut`].
///
/// `at` is the virtual time at which the timeout resolved (the deadline
/// for late/lost messages; the current time when the sender was already
/// gone). All fields are simulation state, so a timed-out run is exactly
/// as reproducible as a completed one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecvTimeout {
    /// The receiving rank.
    pub rank: Rank,
    /// The awaited source rank.
    pub src: Rank,
    /// The awaited tag.
    pub tag: Tag,
    /// Virtual time at which the timeout resolved.
    pub at: SimTime,
    /// Why the receive could not complete.
    pub reason: TimeoutReason,
}

impl std::fmt::Display for RecvTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} receive (src {}, tag {}) timed out at t={:.9}s: {}",
            self.rank,
            self.src,
            self.tag,
            self.at.seconds(),
            self.reason
        )
    }
}

/// A timed-out receive unwinds with [`RecvTimeout`] as its panic
/// payload and is always caught by `run_outcome_inner`, so the default
/// panic hook's "thread panicked" message plus backtrace is pure noise
/// for it. Wrap the hook (once per process) to swallow exactly that
/// payload type; every other panic still reports normally.
fn silence_recv_timeout_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<RecvTimeout>() {
                prev(info);
            }
        }));
    });
}

/// Per-rank result of a fault-tolerant run (see
/// [`Cluster::run_outcome`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RankOutcome<R> {
    /// The rank's closure ran to completion.
    Completed(R),
    /// The rank abandoned its body at a timed-out receive.
    TimedOut(RecvTimeout),
}

impl<R> RankOutcome<R> {
    /// Whether this rank completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, RankOutcome::Completed(_))
    }

    /// The completion value, if any.
    pub fn completed(&self) -> Option<&R> {
        match self {
            RankOutcome::Completed(r) => Some(r),
            RankOutcome::TimedOut(_) => None,
        }
    }

    /// The timeout record, if any.
    pub fn timed_out(&self) -> Option<&RecvTimeout> {
        match self {
            RankOutcome::Completed(_) => None,
            RankOutcome::TimedOut(t) => Some(t),
        }
    }
}

/// Result of [`Cluster::run_outcome`]: one [`RankOutcome`] per rank, in
/// rank order. Unlike [`Cluster::run`], injected faults degrade into
/// per-rank timeouts here instead of a run-level panic.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome<R> {
    /// Per-rank outcomes, indexed by rank.
    pub ranks: Vec<RankOutcome<R>>,
}

impl<R> RunOutcome<R> {
    /// Number of ranks that completed.
    pub fn completed_count(&self) -> usize {
        self.ranks.iter().filter(|r| r.is_completed()).count()
    }

    /// Number of ranks that timed out.
    pub fn timed_out_count(&self) -> usize {
        self.ranks.len() - self.completed_count()
    }

    /// Whether every rank completed.
    pub fn all_completed(&self) -> bool {
        self.timed_out_count() == 0
    }
}

/// The complete simulated environment of a cluster: latency model, OS
/// noise and fault plan, grouped so experiment drivers can pass "the
/// world" as one value. [`ClusterBuilder::env`] consumes it;
/// [`ClusterBuilder::network`], [`ClusterBuilder::noise`] and
/// [`ClusterBuilder::faults`] remain as per-field sugar.
#[derive(Debug, Clone)]
pub struct EnvSpec {
    /// The network latency model (required).
    pub network: NetworkModel,
    /// OS-noise injection; `None` for a quiet machine.
    pub noise: Option<crate::noise::NoiseSpec>,
    /// Seeded fault plan; empty for a benign run.
    pub faults: FaultPlan,
}

impl EnvSpec {
    /// A benign environment: the given network, no noise, no faults.
    pub fn new(network: NetworkModel) -> Self {
        Self {
            network,
            noise: None,
            faults: FaultPlan::new(),
        }
    }

    /// Adds OS-noise injection.
    #[must_use]
    pub fn noise(mut self, noise: crate::noise::NoiseSpec) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Adds a fault plan.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Per-destination FIFO clamp table (last scheduled arrival per dst).
/// Direct-indexed at bench scale; an association list at Titan scale,
/// where `p` slots per rank would cost O(p²) memory cluster-wide while
/// the algorithms under study only message O(log p) partners.
enum DstClamp {
    /// Direct-indexed table, materialized on first use: at p=2048 the
    /// table is 16 KiB per rank (32 MiB per run), which dominated run
    /// setup for benchmarks where most ranks message O(1) partners.
    /// Allocating lazily keeps the common "this rank never sends"
    /// and "run torn down before first send" paths allocation-free.
    Direct {
        size: usize,
        table: Vec<SimTime>,
    },
    Sparse(Vec<(Rank, SimTime)>),
}

impl DstClamp {
    fn new(size: usize) -> Self {
        if size <= DIRECT_CLAMP_MAX_RANKS {
            DstClamp::Direct {
                size,
                table: Vec::new(),
            }
        } else {
            DstClamp::Sparse(Vec::new())
        }
    }

    /// Applies the non-overtaking clamp for `dst` and records the
    /// resulting arrival as the channel's new high-water mark.
    #[inline]
    fn clamp_and_update(&mut self, dst: Rank, arrival: SimTime) -> SimTime {
        match self {
            DstClamp::Direct { size, table } => {
                if table.is_empty() {
                    table.resize(*size, SimTime::NEG_INFINITY);
                }
                let last = &mut table[dst];
                let a = if arrival <= *last {
                    *last + FIFO_EPS
                } else {
                    arrival
                };
                *last = a;
                a
            }
            DstClamp::Sparse(list) => {
                if let Some((_, last)) = list.iter_mut().find(|(r, _)| *r == dst) {
                    let a = if arrival <= *last {
                        *last + FIFO_EPS
                    } else {
                        arrival
                    };
                    *last = a;
                    a
                } else {
                    list.push((dst, arrival));
                    arrival
                }
            }
        }
    }
}

/// How a run's rank bodies are executed on the host. Host-side only:
/// both modes produce bit-identical virtual timelines, CSV rows and
/// traces for the same cluster and seed (enforced by the differential
/// oracle in `tests/engine_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// The reference implementation: one scoped OS thread per rank,
    /// spawned for the run and joined at its end, parking on the
    /// mailbox condvar. Kept as the differential oracle for
    /// [`EngineMode::Events`]; practical up to a few thousand ranks.
    Threads,
    /// The engine (default): ranks are stackful continuations driven
    /// by a virtual-time event queue on a small worker pool; a blocked
    /// `recv` parks the continuation instead of an OS thread. Scales to
    /// p≥131072.
    Events,
}

impl EngineMode {
    /// Resolves the `HCS_ENGINE` setting: unset or empty selects the
    /// default ([`EngineMode::Events`]); otherwise exactly `events` or
    /// `threads`, ASCII case-insensitive.
    ///
    /// # Panics
    /// Panics on any other value, so a typo never selects an engine
    /// silently.
    fn from_env_value(value: Option<&str>) -> EngineMode {
        match value {
            None | Some("") => EngineMode::Events,
            Some(v) if v.eq_ignore_ascii_case("events") => EngineMode::Events,
            Some(v) if v.eq_ignore_ascii_case("threads") => EngineMode::Threads,
            Some(v) => panic!("HCS_ENGINE={v:?} is not an engine: expected `events` or `threads`"),
        }
    }
}

/// A simulated cluster: topology, network model, clock parameters and a
/// master seed. Cheap to clone. Built via [`Cluster::builder`].
#[derive(Debug, Clone)]
pub struct Cluster {
    topology: Arc<Topology>,
    network: Arc<NetworkModel>,
    clock: Arc<ClockSpec>,
    noise: Option<crate::noise::NoiseSpec>,
    faults: Arc<FaultPlan>,
    seed: u64,
    detect_deadlocks: bool,
    obs: ObsSpec,
    engine: Option<EngineMode>,
}

/// Builder for [`Cluster`] — the single construction surface.
///
/// Topology, network model and clock spec are required; everything else
/// has a default (seed 0, no OS noise, deadlock detection on,
/// observability off):
///
/// ```
/// # use hcs_sim::{machines, Cluster};
/// # let parts = machines::testbed(2, 2);
/// let cluster = Cluster::builder()
///     .topology(parts.topology.clone())
///     .network(parts.network.clone())
///     .clock(parts.clock.clone())
///     .seed(42)
///     .build();
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    topology: Option<Arc<Topology>>,
    network: Option<Arc<NetworkModel>>,
    clock: Option<Arc<ClockSpec>>,
    noise: Option<crate::noise::NoiseSpec>,
    faults: Arc<FaultPlan>,
    seed: u64,
    detect_deadlocks: bool,
    obs: ObsSpec,
    engine: Option<EngineMode>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self {
            topology: None,
            network: None,
            clock: None,
            noise: None,
            faults: Arc::new(FaultPlan::new()),
            seed: 0,
            detect_deadlocks: true,
            obs: ObsSpec::off(),
            engine: None,
        }
    }
}

impl ClusterBuilder {
    /// An empty builder (same as [`Cluster::builder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cluster shape (required).
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(Arc::new(topology));
        self
    }

    /// Sets the network latency model (required). Sugar for the
    /// `network` field of [`ClusterBuilder::env`].
    #[must_use]
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = Some(Arc::new(network));
        self
    }

    /// Sets the oscillator parameters (required).
    #[must_use]
    pub fn clock(mut self, clock: ClockSpec) -> Self {
        self.clock = Some(Arc::new(clock));
        self
    }

    /// Enables OS-noise injection (see [`crate::noise::NoiseSpec`]).
    /// Sugar for the `noise` field of [`ClusterBuilder::env`].
    #[must_use]
    pub fn noise(mut self, noise: crate::noise::NoiseSpec) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Installs a seeded fault plan (see [`crate::fault::FaultPlan`]).
    /// Sugar for the `faults` field of [`ClusterBuilder::env`]. An empty
    /// plan (the default) leaves every timeline bit-identical to a
    /// cluster built without one.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Arc::new(faults);
        self
    }

    /// Sets the whole simulated environment — network, noise and fault
    /// plan — from one [`EnvSpec`]. This is the consolidated surface;
    /// [`ClusterBuilder::network`] / [`ClusterBuilder::noise`] /
    /// [`ClusterBuilder::faults`] set the same fields individually.
    #[must_use]
    pub fn env(mut self, env: EnvSpec) -> Self {
        self.network = Some(Arc::new(env.network));
        self.noise = env.noise;
        self.faults = Arc::new(env.faults);
        self
    }

    /// Sets the master seed (default 0). Every random quantity in a run
    /// — latency jitter, clock parameters, OS noise, fault draws —
    /// derives from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the wait-for-graph deadlock detector
    /// (default: enabled). When on, a cyclic set of blocking receives
    /// panics with the full rank/tag cycle diagnosis instead of hanging
    /// the run forever; detection is purely host-side and does not
    /// perturb the simulated timeline. Benches that want the absolute
    /// minimum per-receive overhead can opt out — a deadlocked run then
    /// hangs, exactly as before.
    #[must_use]
    pub fn deadlock_detection(mut self, on: bool) -> Self {
        self.detect_deadlocks = on;
        self
    }

    /// Configures observability recording (default: off). When enabled,
    /// each rank records events per [`ObsSpec`] into its own buffer;
    /// [`Cluster::run_observed`] returns them merged in rank order.
    /// Recording is purely host-side: the simulated timeline is
    /// bit-identical with observability on or off.
    #[must_use]
    pub fn observability(mut self, spec: ObsSpec) -> Self {
        self.obs = spec;
        self
    }

    /// Pins the execution engine (see [`EngineMode`]). When not set,
    /// runs consult the `HCS_ENGINE` environment variable at run time
    /// (`events` / `threads`, default events), so whole test suites
    /// can be re-executed under the reference engine without code
    /// changes. Engine choice is host-side only — the virtual timeline
    /// is bit-identical either way.
    #[must_use]
    pub fn engine(mut self, mode: EngineMode) -> Self {
        self.engine = Some(mode);
        self
    }

    /// Builds the [`Cluster`].
    ///
    /// # Panics
    /// Panics if topology, network or clock was not set.
    pub fn build(self) -> Cluster {
        Cluster {
            topology: self
                .topology
                .expect("ClusterBuilder: missing .topology(..) — the cluster shape is required"),
            network: self
                .network
                .expect("ClusterBuilder: missing .network(..) — the latency model is required"),
            clock: self
                .clock
                .expect("ClusterBuilder: missing .clock(..) — the oscillator spec is required"),
            noise: self.noise,
            faults: self.faults,
            seed: self.seed,
            detect_deadlocks: self.detect_deadlocks,
            obs: self.obs,
            engine: self.engine,
        }
    }
}

impl Cluster {
    /// Starts building a cluster (see [`ClusterBuilder`]).
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// A builder pre-populated with this cluster's configuration — the
    /// way to derive variants (different seed, observability on, ...)
    /// without re-assembling the parts. Used by the experiment drivers
    /// for repeated "mpiruns" seed sweeps.
    #[must_use]
    pub fn to_builder(&self) -> ClusterBuilder {
        ClusterBuilder {
            topology: Some(Arc::clone(&self.topology)),
            network: Some(Arc::clone(&self.network)),
            clock: Some(Arc::clone(&self.clock)),
            noise: self.noise,
            faults: Arc::clone(&self.faults),
            seed: self.seed,
            detect_deadlocks: self.detect_deadlocks,
            obs: self.obs,
            engine: self.engine,
        }
    }

    /// Whether the wait-for-graph deadlock detector is enabled.
    pub fn deadlock_detection(&self) -> bool {
        self.detect_deadlocks
    }

    /// The execution engine this run will use: the builder's explicit
    /// choice if one was made, otherwise the `HCS_ENGINE` environment
    /// variable (`events` or `threads`, ASCII case-insensitive; unset
    /// selects events). Read fresh on every call so a test harness can
    /// flip the variable between runs.
    ///
    /// # Panics
    /// Panics if `HCS_ENGINE` is set to anything else.
    pub fn engine_mode(&self) -> EngineMode {
        self.engine.unwrap_or_else(|| {
            EngineMode::from_env_value(std::env::var("HCS_ENGINE").ok().as_deref())
        })
    }

    /// The observability configuration of this cluster.
    pub fn observability(&self) -> ObsSpec {
        self.obs
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// The fault plan (empty for a benign cluster).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The oscillator parameters.
    pub fn clock_spec(&self) -> &ClockSpec {
        &self.clock
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs `f` on every rank and returns the per-rank results in rank
    /// order.
    ///
    /// `f` is called as `f(&mut ctx)`; it may freely block in
    /// [`RankCtx::recv`], which is serviced by the matching sends of the
    /// other ranks. How rank bodies are scheduled on the host is decided
    /// by [`Cluster::engine_mode`]; the simulated timeline is identical
    /// bit for bit either way.
    ///
    /// # Panics
    /// Panics if any rank closure panics (the payload is propagated).
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let (results, _log) = self.run_inner(&f);
        results
    }

    /// Like [`Cluster::run`], but also returns the merged observability
    /// [`TraceLog`] (empty unless [`ClusterBuilder::observability`] was
    /// enabled). Per-rank recorders are merged deterministically in rank
    /// order, so the log — like the results — is bit-reproducible.
    pub fn run_observed<R, F>(&self, f: F) -> (Vec<R>, TraceLog)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        self.run_inner(&f)
    }

    /// Fault-tolerant variant of [`Cluster::run`]: a rank whose receive
    /// times out (deadline receives via [`RankCtx::recv_deadline`], or
    /// plain receives under [`RankCtx::set_recv_timeout`]) yields
    /// [`RankOutcome::TimedOut`] instead of panicking the whole run.
    /// Genuine panics still propagate. The timeline — including every
    /// surviving rank's result — is exactly as deterministic as
    /// [`Cluster::run`].
    pub fn run_outcome<R, F>(&self, f: F) -> RunOutcome<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let (outcome, _log) = self.run_outcome_inner(&f);
        outcome
    }

    /// Like [`Cluster::run_outcome`], additionally returning the merged
    /// observability [`TraceLog`].
    pub fn run_outcome_observed<R, F>(&self, f: F) -> (RunOutcome<R>, TraceLog)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        self.run_outcome_inner(&f)
    }

    fn run_outcome_inner<R, F>(&self, f: &F) -> (RunOutcome<R>, TraceLog)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        silence_recv_timeout_panic_hook();
        // Catch the RecvTimeout unwind *inside* the rank body, so
        // run_inner sees a completed rank (no poison broadcast, no
        // rank-level panic bookkeeping): message loss stays a per-rank
        // outcome, not a run-level failure.
        let g = |ctx: &mut RankCtx| {
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
            match res {
                Ok(r) => RankOutcome::Completed(r),
                Err(payload) => match payload.downcast::<RecvTimeout>() {
                    Ok(t) => RankOutcome::TimedOut(*t),
                    Err(payload) => std::panic::resume_unwind(payload),
                },
            }
        };
        let (ranks, log) = self.run_inner(&g);
        (RunOutcome { ranks }, log)
    }

    fn run_inner<R, F>(&self, f: &F) -> (Vec<R>, TraceLog)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let size = self.topology.total_cores();
        let net = Arc::new(RunNet::new(
            size,
            self.detect_deadlocks,
            !self.faults.is_empty(),
        ));
        // Single-writer slots (no lock): rank r's body writes slot r
        // exactly once, and this frame reads them only after the
        // engine's completion barrier. The recorder vector is empty
        // when observability is off — no body ever indexes it then.
        let results: Vec<OutSlot<R>> = (0..size).map(|_| OutSlot::new()).collect();
        let recorders: Vec<OutSlot<RankRecorder>> = if self.obs.enabled {
            (0..size).map(|_| OutSlot::new()).collect()
        } else {
            Vec::new()
        };
        let panics: Mutex<Vec<Box<dyn std::any::Any + Send>>> = // lock-order: engine.panics level=32
            Mutex::new(Vec::new());

        // The per-rank body shared by both execution modes. It must
        // never unwind: panics from `f` are recorded and re-thrown on
        // the caller's thread below.
        let body = |rank: Rank| {
            let mut ctx = RankCtx::new(
                rank,
                Arc::clone(&self.topology),
                Arc::clone(&self.network),
                Arc::clone(&self.clock),
                self.noise,
                &self.faults,
                self.seed,
                self.obs,
                Arc::clone(&net),
            );
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut ctx)));
            // Deliver anything still sitting in the staging segment or
            // the reorder hold — a body may end (or unwind) right after
            // a send, and peers are entitled to receive every message
            // posted before the body returned. Both must land before
            // `rank_done` below, or the "done + empty = no match coming"
            // proof of deadline receives would be unsound.
            ctx.flush_staged();
            ctx.flush_reorder_holds();
            match result {
                Ok(out) => {
                    // SAFETY: this body is rank `rank`'s unique
                    // execution; nothing else writes these slots, and
                    // the caller reads them only after the completion
                    // barrier (scope join / `events::drive`).
                    unsafe { results[rank].put(out) };
                    if let Some(rec) = ctx.obs.take() {
                        // SAFETY: as above (single writer, read after
                        // the barrier); non-empty because `obs.take()`
                        // only yields a recorder when obs is enabled.
                        unsafe { recorders[rank].put(rec) };
                    }
                }
                Err(payload) => {
                    net.poison_from(rank);
                    lock_ignore_poison(&panics).push(payload);
                }
            }
            net.rank_done(rank);
        };

        match self.engine_mode() {
            EngineMode::Events => {
                // The scheduler drives `body(rank)` once per rank as a
                // virtual-time continuation — one shared closure for
                // the whole run, so seeding allocates nothing per rank.
                let shared: Box<dyn Fn(Rank) + Send + Sync + '_> = Box::new(&body);
                // SAFETY: `events::drive` is the completion barrier —
                // it returns only after every continuation has run to
                // completion, so the borrows of `body` (and through it
                // `f`, `net`, `results`, `panics`) never outlive this
                // frame. The transmute only widens the trait object's
                // lifetime parameter.
                let shared: events::RankBody = unsafe {
                    std::mem::transmute::<Box<dyn Fn(Rank) + Send + Sync + '_>, events::RankBody>(
                        shared,
                    )
                };
                let sched = Arc::new(EventSched::new(size, shared, events::backend_from_env()));
                if net.events.set(Arc::clone(&sched)).is_err() {
                    unreachable!("run_inner sets the events slot exactly once per RunNet");
                }
                events::drive(&sched);
            }
            EngineMode::Threads => std::thread::scope(|scope| {
                let body = &body;
                for rank in 0..size {
                    std::thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .stack_size(RANK_STACK_BYTES)
                        .spawn_scoped(scope, move || body(rank))
                        .expect("failed to spawn rank thread");
                }
            }),
        }

        let mut panics = std::mem::take(&mut *lock_ignore_poison(&panics));
        if !panics.is_empty() {
            // Prefer the root-cause panic over the "peer panicked"
            // consequence panics triggered by the poison broadcast, and
            // over timeout unwinds (a genuine bug on one rank routinely
            // times out its peers' deadline receives).
            let is_consequence = |p: &Box<dyn std::any::Any + Send>| {
                if p.is::<RecvTimeout>() {
                    return true;
                }
                let msg = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                msg.contains("panicked while this rank was receiving")
            };
            let idx = panics.iter().position(|p| !is_consequence(p)).unwrap_or(0);
            let chosen = panics.swap_remove(idx);
            if let Some(t) = chosen.downcast_ref::<RecvTimeout>() {
                panic!("{t} (timeouts are per-rank outcomes under Cluster::run_outcome)");
            }
            std::panic::resume_unwind(chosen);
        }

        let out: Vec<R> = results
            .into_iter()
            .enumerate()
            .map(|(rank, slot)| {
                slot.into_inner()
                    .unwrap_or_else(|| panic!("rank {rank} produced no result"))
            })
            .collect();

        // Merge in rank order (the iteration order of the slot vector),
        // so the log is deterministic regardless of host scheduling.
        let log = TraceLog::new(
            recorders
                .into_iter()
                .filter_map(OutSlot::into_inner)
                .collect(),
        );
        (out, log)
    }
}

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
    /// Receiver-local delivery ring: [`RunNet::recv_batch`] drains the
    /// whole mailbox here under one lock acquisition, and the matching
    /// loop consumes it lock-free in delivery order.
    ring: VecDeque<Envelope>,
    /// Sender-side staging segment: consecutive sends to the same
    /// destination collect here and are flushed to the destination
    /// mailbox in one mutation (on destination change, capacity, any
    /// blocking operation, or body end).
    stage: Vec<Envelope>,
    /// Destination of the staged segment (meaningless while `stage` is
    /// empty).
    stage_dst: Rank,
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
    obs: Recorder,
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
    fn new(
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
        let obs = if obs_spec.enabled {
            Recorder::on(rank as u32, obs_spec.capacity_per_rank)
        } else {
            Recorder::Off
        };
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
            pending: PendingBuf::new(size),
            ring: VecDeque::new(),
            stage: Vec::new(),
            stage_dst: 0,
            faults: FaultState::new(fault_plan, master_seed, rank),
            reorder_hold: Vec::new(),
            recv_timeout: None,
            last_arrival_to: DstClamp::new(size),
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
        if !self.obs_spec.spans {
            return;
        }
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
        if !self.obs_spec.spans {
            return;
        }
        let secs = self.now.seconds();
        if let Some(rec) = self.obs.get_mut() {
            rec.exit(secs, reads);
        }
    }

    /// Records an instant annotation (e.g. `"round_time.invalid"`).
    /// No-op when observability is off.
    pub fn obs_note(&mut self, name: &str) {
        if !self.obs_spec.spans {
            return;
        }
        let secs = self.now.seconds();
        if let Some(rec) = self.obs.get_mut() {
            rec.note(secs, name);
        }
    }

    /// Records a named counter sample. No-op when observability is off.
    pub fn obs_counter(&mut self, name: &str, value: f64) {
        if !self.obs_spec.counters {
            return;
        }
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
        if self.obs_spec.compute {
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
        // Stage instead of delivering directly: consecutive sends to
        // one destination reach its mailbox in a single lock
        // acquisition. A destination switch flushes first, so delivery
        // order across destinations also matches post order; arrival
        // times were fixed above, so *when* the host flush happens is
        // invisible to virtual time. A send may race with the receiver
        // having already returned from its closure; that's fine, the
        // message is simply dropped at the end of the run.
        if reordered {
            // Held back past the *next* post to this destination (or
            // any blocking point / body end) — true overtaking, driven
            // purely by sender program order.
            self.reorder_hold.push((dst, env));
        } else {
            if !self.stage.is_empty() && self.stage_dst != dst {
                self.flush_staged();
            }
            self.stage_dst = dst;
            self.stage.push(env);
            // This post is the "next message" any held envelope to the
            // same destination was waiting to be overtaken by.
            self.release_holds_for(dst);
            if self.stage.len() >= STAGE_MAX {
                self.flush_staged();
            }
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
                self.stage.push(dup);
                if self.stage.len() >= STAGE_MAX {
                    self.flush_staged();
                }
            }
        }
        if self.obs_spec.messages {
            if let Some(rec) = self.obs.get_mut() {
                rec.send(self.now.seconds(), dst as u32, tag, payload.len() as u32);
            }
        }
    }

    /// Moves every held (fault-reordered) envelope for `dst` into the
    /// staging segment *behind* the message just staged there.
    fn release_holds_for(&mut self, dst: Rank) {
        if self.reorder_hold.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.reorder_hold.len() {
            let (held_dst, _) = &self.reorder_hold[i];
            if *held_dst == dst {
                let (_, env) = self.reorder_hold.remove(i);
                self.stage.push(env);
                if self.stage.len() >= STAGE_MAX {
                    self.flush_staged();
                }
            } else {
                i += 1;
            }
        }
    }

    /// Delivers every held (fault-reordered) envelope directly to its
    /// destination mailbox, in hold order. Called at every blocking
    /// point and at body end, *after* [`RankCtx::flush_staged`] — a rank
    /// never parks or finishes holding undelivered messages, which keeps
    /// both the deadlock detector's and the deadline receives'
    /// "nothing in flight" reasoning valid.
    pub(crate) fn flush_reorder_holds(&mut self) {
        while !self.reorder_hold.is_empty() {
            let (dst, env) = self.reorder_hold.remove(0);
            self.net.send(dst, env);
        }
    }

    /// Delivers the staged send segment (if any) to its destination
    /// mailbox in one mutation. Called on destination switch, staging
    /// capacity, every potentially-blocking operation, and body end —
    /// so a rank never parks (or finishes) holding undelivered sends,
    /// which is what keeps the deadlock detector's "no message in
    /// flight" reasoning valid under batching.
    pub(crate) fn flush_staged(&mut self) {
        if !self.stage.is_empty() {
            self.net.send_batch(self.stage_dst, &mut self.stage);
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
        self.monitor_delivery(&env);
        if self.obs_spec.messages {
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

    /// Debug-only protocol-monitor hook on the payload-delivery path:
    /// checks the matched (src, tag, len) against the generated
    /// skeleton table when observability is on. Reads no clocks and
    /// allocates nothing, so a panic-free monitored run is
    /// timeline-identical to an unmonitored one.
    #[cfg(debug_assertions)]
    #[inline]
    fn monitor_delivery(&self, env: &Envelope) {
        if self.obs_on() {
            crate::protomon::check_delivery(self.rank, env.src, env.tag, env.payload.len());
        }
    }

    /// Release builds compile the protocol monitor out entirely.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn monitor_delivery(&self, _env: &Envelope) {}

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
        // A receive may block; everything this rank has staged or held
        // back must be in its peers' mailboxes first, or two ranks
        // could deadlock on messages neither has delivered.
        self.flush_staged();
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
            // already pulled out of the mailbox in one batch, and the
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
            let wait_gen = self.net.begin_wait(self.rank, src, tag, deadline.is_some());
            match self.net.recv_batch(
                self.rank,
                src,
                wait_gen,
                deadline.is_some(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Jitter, LevelLatency};
    use crate::timebase::secs;

    fn test_network(jitter: bool) -> NetworkModel {
        let j = if jitter {
            Jitter::smooth(secs(0.2e-6), 0.5)
        } else {
            Jitter::smooth(Span::ZERO, 0.5)
        };
        let lvl = |base: f64| LevelLatency {
            base_s: secs(base),
            per_byte_s: secs(1e-10),
            jitter: j.clone(),
        };
        NetworkModel {
            same_socket: lvl(0.3e-6),
            same_node: lvl(0.6e-6),
            inter_node: lvl(3.0e-6),
            send_overhead_s: secs(0.05e-6),
            recv_overhead_s: secs(0.05e-6),
            asymmetry_frac: 0.0,
            nic_gap_s: Span::ZERO,
        }
    }

    fn small_cluster(jitter: bool, seed: u64) -> Cluster {
        Cluster::builder()
            .topology(Topology::new(2, 1, 2))
            .network(test_network(jitter))
            .clock(ClockSpec::ideal())
            .seed(seed)
            .build()
    }

    #[test]
    fn ping_pong_advances_virtual_time_deterministically() {
        let c = small_cluster(false, 1);
        let times = c.run(|ctx| {
            match ctx.rank() {
                0 => {
                    ctx.send_t(2, 7, 1.25f64);
                    let x: f64 = ctx.recv_t(2, 8);
                    assert_eq!(x, 2.5);
                }
                2 => {
                    let x: f64 = ctx.recv_t(0, 7);
                    assert_eq!(x, 1.25);
                    ctx.send_t(0, 8, 2.5f64);
                }
                _ => {}
            }
            ctx.now().seconds()
        });
        // Rank 0: send (0.05us) -> wait reply.
        // one-way = send_ovh + base(3us) + 8 bytes*0.1ns + recv side ...
        // rank2 recv at ~ 0.05 + 3.0008e-6? Deterministic; just assert shape.
        assert!(
            times[0] > 6.0e-6 && times[0] < 7.5e-6,
            "rtt-ish {:.3e}",
            times[0]
        );
        assert!(
            times[2] > 3.0e-6 && times[2] < 4.5e-6,
            "one-way-ish {:.3e}",
            times[2]
        );
        assert_eq!(times[1], 0.0);
        assert_eq!(times[3], 0.0);
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let run = || {
            small_cluster(true, 42).run(|ctx| {
                let peer = ctx.rank() ^ 1;
                // Make both directions busy.
                for i in 0..50u32 {
                    if ctx.rank() < peer {
                        ctx.send_t(peer, i, i as f64);
                        let _: f64 = ctx.recv_t(peer, i);
                    } else {
                        let v: f64 = ctx.recv_t(peer, i);
                        ctx.send_t(peer, i, v + 1.0);
                    }
                }
                ctx.now()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn hcs_engine_accepts_exactly_two_spellings_case_insensitively() {
        assert_eq!(EngineMode::from_env_value(None), EngineMode::Events);
        assert_eq!(EngineMode::from_env_value(Some("")), EngineMode::Events);
        for v in ["events", "Events", "EVENTS"] {
            assert_eq!(EngineMode::from_env_value(Some(v)), EngineMode::Events);
        }
        for v in ["threads", "Threads", "THREADS"] {
            assert_eq!(EngineMode::from_env_value(Some(v)), EngineMode::Threads);
        }
    }

    #[test]
    #[should_panic(
        expected = "HCS_ENGINE=\"event\" is not an engine: expected `events` or `threads`"
    )]
    fn hcs_engine_typo_panics_instead_of_selecting_an_engine() {
        EngineMode::from_env_value(Some("event"));
    }

    #[test]
    #[should_panic(expected = "HCS_ENGINE=\"Events \"")]
    fn hcs_engine_trailing_space_panics() {
        EngineMode::from_env_value(Some("Events "));
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            small_cluster(true, seed).run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 0, &[0u8; 8]);
                    ctx.now().seconds()
                } else if ctx.rank() == 1 {
                    let _ = ctx.recv(0, 0);
                    ctx.now().seconds()
                } else {
                    0.0
                }
            })
        };
        assert_ne!(run(1)[1], run(2)[1]);
    }

    #[test]
    fn fifo_non_overtaking_per_channel() {
        // With heavy jitter, later sends could overtake earlier ones
        // without the clamp; assert receive order preserves send order.
        let net = NetworkModel {
            inter_node: LevelLatency {
                base_s: secs(1e-6),
                per_byte_s: Span::ZERO,
                jitter: Jitter {
                    median_s: secs(5e-6),
                    sigma: 1.5,
                    spike_prob: 0.1,
                    spike_mean_s: secs(1e-4),
                },
            },
            ..test_network(true)
        };
        let c = Cluster::builder()
            .topology(Topology::new(2, 1, 1))
            .network(net)
            .clock(ClockSpec::ideal())
            .seed(7)
            .build();
        c.run(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..200u64 {
                    ctx.send_t(1, 3, i);
                }
            } else {
                let mut last_arrival = SimTime::NEG_INFINITY;
                for i in 0..200u64 {
                    let got: u64 = ctx.recv_t(1 - 1, 3);
                    assert_eq!(got, i, "message overtaking detected");
                    assert!(ctx.now() >= last_arrival);
                    last_arrival = ctx.now();
                }
            }
        });
    }

    #[test]
    fn ssend_blocks_until_receiver_matches() {
        let c = small_cluster(false, 3);
        let times = c.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.ssend_t(2, 1, 9.0f64);
                ctx.now().seconds()
            } else if ctx.rank() == 2 {
                // Receiver is busy for 1 ms before posting the receive.
                ctx.compute(secs(1e-3));
                let v: f64 = ctx.recv_t(0, 1);
                assert_eq!(v, 9.0);
                ctx.now().seconds()
            } else {
                0.0
            }
        });
        // Sender completion must be after the receiver's 1 ms busy phase.
        assert!(times[0] > 1e-3, "ssend returned too early: {}", times[0]);
        assert!(times[0] < 1.1e-3);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let c = small_cluster(false, 4);
        c.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send_t(1, 10, 1.0f64);
                ctx.send_t(1, 11, 2.0f64);
                ctx.send_t(1, 12, 3.0f64);
            } else if ctx.rank() == 1 {
                // Receive in reverse tag order.
                assert_eq!(ctx.recv_t::<f64>(0, 12), 3.0);
                assert_eq!(ctx.recv_t::<f64>(0, 11), 2.0);
                assert_eq!(ctx.recv_t::<f64>(0, 10), 1.0);
            }
        });
    }

    #[test]
    fn counters_count() {
        let c = small_cluster(false, 5);
        let counts = c.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, &[0u8; 16]);
                ctx.send(1, 1, &[0u8; 4]);
            } else if ctx.rank() == 1 {
                let _ = ctx.recv(0, 0);
                let _ = ctx.recv(0, 1);
            }
            ctx.counters()
        });
        assert_eq!(counts[0].sent_msgs, 2);
        assert_eq!(counts[0].sent_bytes, 20);
        assert_eq!(counts[1].recv_msgs, 2);
    }

    #[test]
    fn jump_to_never_goes_backward() {
        let c = small_cluster(false, 6);
        c.run(|ctx| {
            ctx.compute(secs(5.0));
            ctx.jump_to(SimTime::from_secs(1.0));
            assert_eq!(ctx.now(), SimTime::from_secs(5.0));
            ctx.jump_to(SimTime::from_secs(6.0));
            assert_eq!(ctx.now(), SimTime::from_secs(6.0));
        });
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_panics() {
        let c = small_cluster(false, 8);
        c.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(0, 0, &[]);
            }
        });
    }

    #[test]
    fn intranode_is_faster_than_internode() {
        let c = Cluster::builder()
            .topology(Topology::new(2, 1, 2))
            .network(test_network(false))
            .clock(ClockSpec::ideal())
            .seed(9)
            .build();
        let times = c.run(|ctx| {
            match ctx.rank() {
                0 => {
                    ctx.send(1, 0, &[0; 8]); // same node
                    ctx.send(2, 0, &[0; 8]); // other node
                    0.0
                }
                1 | 2 => {
                    let _ = ctx.recv(0, 0);
                    ctx.now().seconds()
                }
                _ => 0.0,
            }
        });
        assert!(
            times[1] < times[2],
            "intranode {} vs internode {}",
            times[1],
            times[2]
        );
    }

    #[test]
    #[should_panic(expected = "deadlock detected")]
    fn mutual_recv_deadlock_panics_instead_of_hanging() {
        let c = small_cluster(false, 10);
        c.run(|ctx| {
            // Ranks 0 and 1 both receive first: a 2-cycle.
            if ctx.rank() == 0 {
                let _ = ctx.recv(1, 1);
            } else if ctx.rank() == 1 {
                let _ = ctx.recv(0, 2);
            }
        });
    }

    #[test]
    fn detection_does_not_perturb_timeline_or_determinism() {
        let workload = |ctx: &mut RankCtx| {
            let peer = ctx.rank() ^ 1;
            for i in 0..30u32 {
                if ctx.rank() < peer {
                    ctx.send_t(peer, i, i as f64);
                    let _: f64 = ctx.recv_t(peer, i);
                } else {
                    let v: f64 = ctx.recv_t(peer, i);
                    ctx.send_t(peer, i, v + 0.5);
                }
            }
            ctx.now()
        };
        let on = small_cluster(true, 21).run(workload);
        let off = small_cluster(true, 21)
            .to_builder()
            .deadlock_detection(false)
            .build()
            .run(workload);
        assert_eq!(on, off, "detector must be invisible to the simulation");
    }

    #[test]
    fn deadlock_detection_flag_roundtrips() {
        let c = small_cluster(false, 11);
        assert!(c.deadlock_detection(), "default is on");
        let off = c.to_builder().deadlock_detection(false).build();
        assert!(!off.deadlock_detection());
    }

    #[test]
    #[should_panic(expected = "missing .topology")]
    fn builder_panics_without_topology() {
        let _ = Cluster::builder()
            .network(test_network(false))
            .clock(ClockSpec::ideal())
            .build();
    }

    #[test]
    fn env_spec_sets_network_noise_and_faults_like_the_sugar() {
        let plan = FaultPlan::new().drop_messages(
            crate::fault::LinkSel::any(),
            0.5,
            crate::fault::Window::all(),
        );
        let via_env = Cluster::builder()
            .topology(Topology::new(2, 1, 2))
            .env(
                EnvSpec::new(test_network(true))
                    .noise(crate::noise::NoiseSpec::commodity_linux())
                    .faults(plan.clone()),
            )
            .clock(ClockSpec::ideal())
            .seed(5)
            .build();
        let via_sugar = Cluster::builder()
            .topology(Topology::new(2, 1, 2))
            .network(test_network(true))
            .noise(crate::noise::NoiseSpec::commodity_linux())
            .faults(plan.clone())
            .clock(ClockSpec::ideal())
            .seed(5)
            .build();
        assert_eq!(
            via_env.fault_plan().canonical_string(),
            via_sugar.fault_plan().canonical_string()
        );
        assert_eq!(
            via_env.fault_plan().canonical_string(),
            plan.canonical_string()
        );
        // to_builder round-trips the plan.
        let rebuilt = via_env.to_builder().build();
        assert_eq!(
            rebuilt.fault_plan().canonical_string(),
            plan.canonical_string()
        );
        // Default is the empty plan.
        assert!(small_cluster(false, 1).fault_plan().is_empty());
    }

    fn observed_workload(ctx: &mut RankCtx) -> SimTime {
        if ctx.rank() == 0 {
            ctx.obs_enter_seq("test/phase", 3);
            ctx.compute(secs(1e-6));
            ctx.send_t(1, 5, 1.5f64);
            ctx.obs_exit();
        } else if ctx.rank() == 1 {
            let _: f64 = ctx.recv_t(0, 5);
            ctx.obs_note("test/got");
            ctx.obs_counter("test/count", 1.0);
        }
        ctx.now()
    }

    #[test]
    fn run_observed_records_per_rank_events_in_rank_order() {
        let c = small_cluster(false, 31)
            .to_builder()
            .observability(hcs_obs::ObsSpec::full())
            .build();
        let (times, log) = c.run_observed(observed_workload);
        assert_eq!(times.len(), 4);
        assert_eq!(log.ranks().len(), 4);
        for (i, rec) in log.ranks().iter().enumerate() {
            assert_eq!(rec.rank() as usize, i, "rank order");
        }
        let r0 = &log.ranks()[0];
        // rank 0: Enter, Compute, Send, Exit.
        assert_eq!(r0.events().len(), 4);
        assert!(matches!(
            r0.events()[0],
            hcs_obs::Event::Enter { seq: 3, .. }
        ));
        assert!(matches!(
            r0.events()[2],
            hcs_obs::Event::Send {
                peer: 1,
                tag: 5,
                bytes: 8,
                ..
            }
        ));
        // rank 1: Recv, Note, Counter.
        let r1 = &log.ranks()[1];
        assert_eq!(r1.events().len(), 3);
        assert!(matches!(
            r1.events()[0],
            hcs_obs::Event::Recv {
                peer: 0,
                tag: 5,
                ..
            }
        ));
        // idle ranks recorded nothing but are present.
        assert!(log.ranks()[2].events().is_empty());
    }

    #[test]
    fn observability_disabled_records_nothing_and_does_not_perturb() {
        let base = small_cluster(true, 33);
        let (times_off, log_off) = base.run_observed(observed_workload);
        let on = base
            .to_builder()
            .observability(hcs_obs::ObsSpec::full())
            .build();
        let (times_on, log_on) = on.run_observed(observed_workload);
        assert!(log_off.is_empty(), "no recorders when disabled");
        assert!(!log_on.is_empty());
        assert_eq!(
            times_off, times_on,
            "recording must not perturb the timeline"
        );
    }

    #[test]
    fn obs_span_macro_skips_name_eval_when_off() {
        let c = small_cluster(false, 35);
        c.run(|ctx| {
            let mut evaluated = false;
            let out = crate::obs_span!(
                ctx,
                {
                    evaluated = true;
                    "never"
                },
                7
            );
            assert_eq!(out, 7);
            assert!(!evaluated, "name must not be evaluated when obs is off");
        });
    }

    #[test]
    fn sparse_fifo_clamp_matches_direct() {
        // Exercise both clamp representations on the same send pattern.
        let mut direct = DstClamp::new(4);
        let mut sparse = DstClamp::Sparse(Vec::new());
        let arrivals = [5.0, 3.0, 3.0, 7.0, 6.9, 1.0].map(SimTime::from_secs);
        for (i, &a) in arrivals.iter().enumerate() {
            let dst = i % 3;
            assert_eq!(
                direct.clamp_and_update(dst, a),
                sparse.clamp_and_update(dst, a),
                "arrival {i}"
            );
        }
    }
}
