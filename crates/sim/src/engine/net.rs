//! Per-run communication state: one [`Mailbox`] per rank behind
//! [`RunNet`], the park/wake and completion-notification protocol over
//! the run's scheduler, and the per-destination FIFO clamp.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use super::rendezvous::Rendezvous;
use crate::events::{self, EventSched};
use crate::lockutil::RunLock;
use crate::msg::{Envelope, Payload};
use crate::timebase::Span;
use crate::waitgraph::{WaitEdge, WaitGraph};
use crate::{Rank, SimTime, Tag};

/// Minimal spacing enforced between consecutive arrivals on the same
/// (src → dst) channel, to model MPI's non-overtaking guarantee.
pub(super) const FIFO_EPS: Span = Span::from_secs(1e-12);

/// Tag of the poison message broadcast by a panicking rank so that
/// peers blocked in receives fail fast instead of deadlocking.
pub(super) const POISON_TAG: Tag = u32::MAX;

/// One rank's incoming-message queue: a reusable ring buffer behind the
/// run's single-owner lock. Unlike a linked-list channel, pushing a
/// message allocates nothing once the buffer has reached its high-water
/// capacity.
///
/// Aligned to two cache lines so adjacent ranks' mailboxes in the
/// `RunNet::boxes` vector never false-share a line between one rank's
/// consumer loads and its neighbour's producer stores.
#[repr(align(128))]
struct Mailbox {
    q: RunLock<VecDeque<Envelope>>,
}

/// Per-run communication state shared by all rank contexts: one mailbox
/// per rank plus a live-rank count used to detect "everyone else
/// finished" instead of relying on channel disconnection.
pub(super) struct RunNet {
    boxes: Vec<Mailbox>,
    alive: AtomicUsize,
    /// Per-rank "this rank's closure returned (or aborted)" flags. A
    /// finished rank can never send again — its body delivered every
    /// held-back message *before* the flag was set — so "no match
    /// queued + sender done + no buffered match" is deterministic proof
    /// that a deadline receive can only resolve as a timeout.
    done: Vec<AtomicBool>,
    /// Whether `rank_done` must wake *every* unfinished rank (not just
    /// when the run collapses to one live rank): armed when the fault
    /// plan is non-empty or any rank registers a deadline receive, so
    /// parked deadline waiters observe sender completion. Benign runs
    /// keep the single wake-all.
    wake_done: AtomicBool,
    /// Whether any rank has poisoned the mailboxes ([`RunNet::poison_from`]).
    poison_sent: AtomicBool,
    /// Each rank's wait-for edge, registered by a receive before it
    /// parks (`RankCtx::pull_match_deadline`), and for a member parked
    /// in a collective rendezvous by the drain pass. It tells
    /// [`RunNet::send`] which delivery a parked rank waits for, and the
    /// drain pass ([`RunNet::drained`]) where the wait cycles are.
    pub(super) waits: WaitGraph,
    /// `0..size`, for [`RunNet::world_ranks`]; built on first use, so a
    /// run that never forms a world communicator does not pay for it.
    world: OnceLock<Arc<[Rank]>>,
    /// The run's scheduler: parks and wakes its ranks.
    pub(super) events: EventSched,
    /// The run's collective rendezvous slots (`RankCtx::collective`).
    pub(super) rendezvous: RunLock<Rendezvous>,
}

/// Outcome of one [`RunNet::recv_batch`] park/drain cycle.
pub(super) enum BatchWait {
    /// The mailbox had (or received) envelopes; they are in the ring.
    Got,
    /// Every other rank finished and nothing is queued.
    PeersGone,
    /// The awaited sender finished without a matching send (deadline
    /// receives only).
    SenderDone,
    /// A drain found this deadline wait on a wait cycle and fired it
    /// ([`RunNet::drained`]).
    DeadlineFired,
}

impl RunNet {
    /// The communication state of one run of `size` ranks, scheduled by
    /// `events`.
    ///
    /// # Safety
    /// Every rank body must execute under `events::drive` on `events`
    /// (one slice at a time): the mailboxes and rendezvous slots are
    /// single-owner [`RunLock`]s, and this is their constructor's
    /// contract.
    pub(super) unsafe fn new(size: usize, wake_on_done: bool, events: EventSched) -> Self {
        Self {
            boxes: (0..size)
                .map(|_| Mailbox {
                    // SAFETY: the caller's contract is `RunLock::new`'s;
                    // `recv_batch` drops its guard before it parks.
                    q: unsafe { RunLock::new("engine.mailbox", VecDeque::new()) },
                })
                .collect(),
            alive: AtomicUsize::new(size),
            done: (0..size).map(|_| AtomicBool::new(false)).collect(),
            wake_done: AtomicBool::new(wake_on_done),
            poison_sent: AtomicBool::new(false),
            waits: WaitGraph::new(size),
            world: OnceLock::new(),
            events,
            // SAFETY: as for the mailboxes; `RankCtx::rendezvous` drops
            // its guard before it parks.
            rendezvous: unsafe { RunLock::new("engine.rendezvous", Rendezvous::default()) },
        }
    }

    /// Every rank of the run in order, shared by all of them.
    pub(super) fn world_ranks(&self) -> Arc<[Rank]> {
        Arc::clone(self.world.get_or_init(|| (0..self.boxes.len()).collect()))
    }

    /// Releases every rank in `ranks` from the rendezvous it is parked
    /// in, now resolved: clears the wait edge a drain may have given it
    /// and wakes it.
    pub(super) fn release_all(&self, ranks: &[Rank]) {
        for &rank in ranks {
            self.waits.end_wait(rank);
            self.events.wake(rank);
        }
    }

    /// Whether any rank has poisoned the mailboxes: without that, no
    /// mailbox or delivery ring holds a poison.
    pub(super) fn poison_sent(&self) -> bool {
        self.poison_sent.load(Ordering::Acquire)
    }

    /// The rank whose poison sits in `me`'s mailbox, if any.
    pub(super) fn poisoned(&self, me: Rank) -> Option<Rank> {
        let q = self.boxes[me].q.acquire();
        q.iter()
            .find(|env| env.tag == POISON_TAG)
            .map(|env| env.src)
    }

    /// The run loop's drain pass (`events::drive`): no rank is ready,
    /// so every unfinished rank is one of the `parked` (ascending), and
    /// none holds an envelope that could release it, since
    /// [`RunNet::send`] wakes a parked rank for its awaited `(src, tag)`
    /// and for poison. Fires the deadline waits on every wait cycle and
    /// returns their ranks, ascending, for the loop to queue. Fails the
    /// run instead if a cycle has no deadline wait (the first such
    /// cycle, from its lowest rank) or if there is no cycle at all (a
    /// stall, naming every parked rank).
    pub(super) fn drained(&self, parked: &[Rank]) -> Result<Vec<Rank>, String> {
        // A rendezvous member's edge is only known now: which members
        // had entered when it parked depends on the pick order.
        for (member, on, tag) in self.rendezvous.acquire().gathering() {
            self.waits.begin_wait(member, on, tag, false);
        }
        let cycles = self.waits.cycles(parked);
        if let Some(cycle) = cycles.iter().find(|c| c.iter().all(|e| !e.deadline)) {
            return Err(format!("deadlock detected: {}", WaitGraph::describe(cycle)));
        }
        let mut fired: Vec<Rank> = cycles
            .iter()
            .flatten()
            .filter(|e| e.deadline)
            .map(|e| e.waiter)
            .collect();
        if fired.is_empty() {
            let waits: Vec<String> = parked
                .iter()
                .map(|&r| format!("rank {r} {}", self.describe_wait(r)))
                .collect();
            return Err(format!(
                "run stalled: no rank is ready, {} of {} finished and nothing can wake the {} \
                 parked: {}",
                self.boxes.len() - parked.len(),
                self.boxes.len(),
                parked.len(),
                waits.join("; ")
            ));
        }
        fired.sort_unstable();
        for &r in &fired {
            self.waits.fire(r);
        }
        Ok(fired)
    }

    /// What parked rank `rank` is waiting for, worded for the stall
    /// report.
    fn describe_wait(&self, rank: Rank) -> String {
        let finished = |r: Rank| self.done[r].load(Ordering::SeqCst);
        if let Some(wait) = self.rendezvous.acquire().describe(rank, finished) {
            return wait;
        }
        let WaitEdge { src, tag, .. } = self
            .waits
            .edge(rank)
            .expect("a parked rank has a registered wait edge");
        let state = if finished(src) {
            "already finished"
        } else {
            "has not finished"
        };
        format!("waiting on (src {src}, tag {tag}), and rank {src} {state}")
    }

    /// Arms per-rank completion wakeups (idempotent). Called the first
    /// time any rank registers a deadline receive, before it checks
    /// `done[src]`; a finishing rank stores `done` before it loads this
    /// flag in [`RunNet::rank_done`], so the wakeup is never lost.
    pub(super) fn enable_done_wakeups(&self) {
        if !self.wake_done.load(Ordering::SeqCst) {
            self.wake_done.store(true, Ordering::SeqCst);
        }
    }

    /// Delivers `env` to `dst`'s mailbox. A parked `dst` is woken only
    /// by what can release it — the `(src, tag)` its wait edge names, a
    /// matched wake, or poison — so any other envelope waits in the
    /// mailbox until `dst` drains it for its own reasons (module docs of
    /// `events`).
    #[inline]
    pub(super) fn send(&self, dst: Rank, env: Envelope) {
        let awaited = self
            .waits
            .edge(dst)
            .is_some_and(|e| (e.src, e.tag) == (env.src, env.tag));
        let poison = env.tag == POISON_TAG;
        self.boxes[dst].q.acquire().push_back(env);
        if awaited {
            self.events.wake_matched(dst);
        } else if poison {
            self.events.wake(dst);
        }
    }

    /// Blocking receive of *everything* queued: swaps the whole
    /// mailbox with the receiver-local `ring`, which must be empty,
    /// under one lock acquisition and returns [`BatchWait::Got`]. Returns
    /// [`BatchWait::PeersGone`] when every other rank has finished and
    /// nothing is queued, so no message can ever arrive. A `deadline`
    /// receive has two more resolutions: a drain fired its wait
    /// ([`BatchWait::DeadlineFired`]), or the awaited sender finished
    /// ([`BatchWait::SenderDone`]). An empty mailbox parks the rank's
    /// continuation with the wait edge the caller published still
    /// registered; every resume re-checks all of the above.
    ///
    /// The batching is host-side only: whether messages are found one
    /// per lock or many per lock changes nothing about virtual time
    /// (arrivals were fixed at send time).
    pub(super) fn recv_batch(
        &self,
        me: Rank,
        src: Rank,
        deadline: bool,
        now: SimTime,
        ring: &mut VecDeque<Envelope>,
    ) -> BatchWait {
        loop {
            // Fired first: a drain fires a wait only when nothing queued
            // could release it, and a fired peer that resumes before this
            // rank may send the awaited message or finish. Consulting the
            // mailbox or `done[src]` first would let the pick order choose
            // the resolution.
            if deadline && self.waits.take_fired(me) {
                return BatchWait::DeadlineFired;
            }
            let mut q = self.boxes[me].q.acquire();
            if !q.is_empty() {
                debug_assert!(ring.is_empty(), "the ring is drained before a batch wait");
                std::mem::swap(&mut *q, ring);
                // The caller re-registers if its ring runs dry without a
                // match.
                self.waits.end_wait(me);
                return BatchWait::Got;
            }
            drop(q);
            if self.alive.load(Ordering::Acquire) <= 1 {
                return BatchWait::PeersGone;
            }
            // The sender's body delivered every message before setting
            // `done`: seeing the flag with an empty queue proves no
            // match is coming.
            if deadline && self.done[src].load(Ordering::SeqCst) {
                self.waits.end_wait(me);
                return BatchWait::SenderDone;
            }
            // Park the continuation, keyed on this rank's current
            // virtual time, and yield — to the run loop, or straight to
            // `src` if it is the handoff. No wake can arrive between the
            // checks above and the park: one rank runs at a time, so no
            // sender executes before this rank is recorded as parked
            // (see the `events` module docs).
            self.events.park(events::time_key(now.seconds()), Some(src));
        }
    }

    /// Marks one rank as finished. When only one rank remains — or when
    /// completion wakeups are armed (fault injection / deadline
    /// receives) — every unfinished rank is woken so a blocked receiver
    /// can observe that its peer is gone.
    pub(super) fn rank_done(&self, rank: Rank) {
        self.done[rank].store(true, Ordering::SeqCst);
        let last_pair = self.alive.fetch_sub(1, Ordering::AcqRel) == 2;
        if last_pair || self.wake_done.load(Ordering::SeqCst) {
            for dst in 0..self.boxes.len() {
                // A done rank's body has returned — it can never be
                // blocked in a receive again, so its wake would be pure
                // overhead. (`done` is only ever set *after* a rank's
                // last receive, so a skipped rank provably has no waiter
                // to lose.)
                if dst == rank || self.done[dst].load(Ordering::SeqCst) {
                    continue;
                }
                self.events.wake(dst);
            }
        }
    }

    /// Unblocks peers waiting for messages from a panicking rank (or
    /// anyone): poisons every mailbox so their receives fail fast
    /// instead of deadlocking the run.
    pub(super) fn poison_from(&self, src: Rank) {
        self.poison_sent.store(true, Ordering::Release);
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

/// Per-destination FIFO clamp (last scheduled arrival per dst), sized by
/// the partners a rank actually messages — O(log p) for the algorithms
/// under study — never by `p`: a rank-sorted vector with a last-hit
/// slot, so the repeated-partner send of a ping-pong is one compare and
/// a new or returning partner one binary search. Empty until the first
/// send, which keeps "this rank never sends" allocation-free.
pub(super) struct DstClamp {
    /// `(dst, last arrival)`, sorted by `dst`. Roots that walk their
    /// clients in rank order (JK, the accuracy check) append.
    chans: Vec<(Rank, SimTime)>,
    /// Index in `chans` of the previous call's destination.
    hit: usize,
}

impl DstClamp {
    pub(super) fn new() -> Self {
        DstClamp {
            chans: Vec::new(),
            hit: 0,
        }
    }

    /// Applies the non-overtaking clamp for `dst` and records the
    /// resulting arrival as the channel's new high-water mark.
    #[inline]
    pub(super) fn clamp_and_update(&mut self, dst: Rank, arrival: SimTime) -> SimTime {
        let slot = match self.chans.get(self.hit) {
            Some(&(rank, _)) if rank == dst => self.hit,
            _ => self
                .chans
                .binary_search_by_key(&dst, |&(rank, _)| rank)
                .unwrap_or_else(|at| {
                    self.chans.insert(at, (dst, SimTime::NEG_INFINITY));
                    at
                }),
        };
        self.hit = slot;
        let last = &mut self.chans[slot].1;
        let a = if arrival <= *last {
            *last + FIFO_EPS
        } else {
            arrival
        };
        *last = a;
        a
    }

    /// Bytes of heap this clamp holds.
    #[cfg(test)]
    pub(super) fn heap_bytes(&self) -> usize {
        self.chans.capacity() * std::mem::size_of::<(Rank, SimTime)>()
    }
}
