//! A run's shared state — each rank's inbox, wait-for edge and
//! completion flag, the collective rendezvous slots and the scheduler's
//! ready state — as one value behind [`RunNet`]'s one single-owner
//! lock (a run executes one rank slice at a time); the park/wake
//! protocol over it, where a rank parks by handing its guard to
//! `events::park`; and the per-destination FIFO clamp.

#![forbid(unsafe_code)]

use std::sync::{Arc, OnceLock};

use super::outcome::TimeoutReason;
use super::rendezvous::{Arrival, Group, Member, Rendezvous};
use super::timing::Law;
use crate::events::{self, Drained, EventSched, RunStats};
use crate::lockutil::RunLock;
use crate::msg::{Envelope, PendingBuf};
use crate::timebase::Span;
use crate::waitgraph::{WaitEdge, WaitGraph};
use crate::{Rank, SimTime, Tag};

/// Minimal spacing enforced between consecutive arrivals on the same
/// (src → dst) channel, to model MPI's non-overtaking guarantee.
pub(super) const FIFO_EPS: Span = Span::from_secs(1e-12);

/// Everything a run's ranks and its run loop share.
pub(super) struct RunState {
    /// Each rank's delivered, not yet received messages.
    inbox: Vec<PendingBuf>,
    /// Each rank's wait-for edge, registered by a receive before it
    /// parks ([`RunNet::match_or_park`]), and for a member parked in a
    /// collective rendezvous by the drain pass. It tells
    /// [`RunNet::send`] which delivery a parked rank waits for, and the
    /// drain pass ([`RunState::drained`]) where the wait cycles are.
    waits: WaitGraph,
    /// Per-rank "this rank's closure returned (or aborted)" flags. A
    /// finished rank can never send again — its body delivered every
    /// held-back message *before* the flag was set — so "sender done +
    /// no buffered match" is deterministic proof that a deadline
    /// receive can only resolve as a timeout.
    done: Vec<bool>,
    /// The first rank whose body panicked, if any: a receive with no
    /// match buffered, or a member waiting in a rendezvous, then fails
    /// fast instead of deadlocking the run.
    poisoned_by: Option<Rank>,
    /// The collective rendezvous slots (`RankCtx::collective`).
    rendezvous: Rendezvous,
    /// The scheduler's ready state: parks and wakes the ranks.
    sched: EventSched,
}

impl AsMut<EventSched> for RunState {
    fn as_mut(&mut self) -> &mut EventSched {
        &mut self.sched
    }
}

impl RunState {
    /// The state of one run of `size` ranks, scheduled by `sched`.
    pub(super) fn new(size: usize, sched: EventSched) -> Self {
        RunState {
            inbox: (0..size).map(|_| PendingBuf::default()).collect(),
            waits: WaitGraph::new(size),
            done: vec![false; size],
            poisoned_by: None,
            rendezvous: Rendezvous::default(),
            sched,
        }
    }

    /// The run loop's drain pass (`events::drive`): no rank is ready,
    /// so every unfinished rank is one of the `parked` (ascending), and
    /// none has a match buffered, since [`RunNet::send`] wakes a parked
    /// rank for its awaited `(src, tag)` and a panic wakes them all.
    ///
    /// First returns, ascending, the deadline waits whose sender has
    /// finished, for the loop to queue: each resolves as
    /// `SenderFinished` when it resumes, and may then release others,
    /// so no cycle is fired that such a resolution would break. With
    /// none, fires the deadline waits on every wait cycle and returns
    /// their ranks, ascending. Fails the run instead if a cycle has no
    /// deadline wait (the first such cycle, from its lowest rank) or if
    /// there is no cycle at all (a stall, naming every parked rank).
    fn drained(&mut self, parked: &[Rank]) -> Drained {
        let sender_finished = |&r: &Rank| {
            let edge = self.waits.edge(r);
            edge.is_some_and(|e| e.deadline && self.done[e.src])
        };
        let resolved: Vec<Rank> = parked.iter().copied().filter(sender_finished).collect();
        if !resolved.is_empty() {
            return Ok(resolved);
        }
        // A rendezvous member's edge is only known now: which members
        // had entered when it parked depends on the pick order.
        for (member, on, tag) in self.rendezvous.gathering() {
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
            let size = self.done.len();
            let waits: Vec<String> = parked
                .iter()
                .map(|&r| format!("rank {r} {}", self.describe_wait(r)))
                .collect();
            return Err(format!(
                "run stalled: no rank is ready, {} of {} finished and nothing can wake the {} \
                 parked: {}",
                size - parked.len(),
                size,
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
        let finished = |r: Rank| self.done[r];
        if let Some(wait) = self.rendezvous.describe(rank, finished) {
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
}

/// A run's shared state behind its one lock, and what every rank
/// context reaches it through.
pub(super) struct RunNet {
    size: usize,
    state: RunLock<RunState>,
    /// `0..size`, for [`RunNet::world_ranks`]; built on first use, so a
    /// run that never forms a world communicator does not pay for it.
    world: OnceLock<Arc<[Rank]>>,
}

impl RunNet {
    /// The view of one run of `size` ranks over its `state`.
    pub(super) fn new(size: usize, state: RunLock<RunState>) -> Self {
        Self {
            size,
            state,
            world: OnceLock::new(),
        }
    }

    /// Runs every rank as `body(rank)` to completion under the run
    /// loop ([`events::drive`]), and returns its counters.
    pub(super) fn drive(&self, body: &(dyn Fn(usize) + Sync)) -> RunStats {
        events::drive(&self.state, body, RunState::drained)
    }

    /// Every rank of the run in order, shared by all of them.
    pub(super) fn world_ranks(&self) -> Arc<[Rank]> {
        Arc::clone(self.world.get_or_init(|| (0..self.size).collect()))
    }

    /// Delivers `env` to `dst`'s inbox. A parked `dst` is woken only by
    /// the `(src, tag)` its wait edge names, so any other envelope waits
    /// in the inbox until `dst` receives it for its own reasons (module
    /// docs of `events`).
    #[inline]
    pub(super) fn send(&self, dst: Rank, env: Envelope) {
        let mut guard = self.state.acquire();
        let st = &mut *guard;
        let awaited = st
            .waits
            .edge(dst)
            .is_some_and(|e| (e.src, e.tag) == (env.src, env.tag));
        st.inbox[dst].push(env);
        if awaited {
            st.sched.wake_matched(dst);
        }
    }

    /// A receive by `me` of `tag` from `src`: takes the oldest buffered
    /// match, or registers the wait edge and parks the rank's
    /// continuation until the match is delivered, re-checking on every
    /// resume. A buffered tombstone resolves as lost and is consumed; a
    /// live match that arrives after `deadline` resolves as passed and
    /// stays buffered for a later receive. A `deadline` receive with no
    /// match buffered also resolves when `src` has finished (found at
    /// once, or by a drain, which queues it) or when a drain fired its
    /// wait. Each resolution but a match is returned as the instant and
    /// reason of the timeout.
    ///
    /// # Panics
    /// If a peer's body panicked and no match is buffered.
    pub(super) fn match_or_park(
        &self,
        me: Rank,
        src: Rank,
        tag: Tag,
        deadline: Option<SimTime>,
        now: SimTime,
    ) -> Result<Envelope, (SimTime, TimeoutReason)> {
        loop {
            let mut guard = self.state.acquire();
            let st = &mut *guard;
            if let Some(dl) = deadline {
                // Fired first: a drain fires a wait only when nothing
                // buffered could release it, and a fired peer that
                // resumes before this rank may send the awaited message
                // or finish. Consulting the inbox or `done[src]` first
                // would let the pick order choose the resolution.
                if st.waits.take_fired(me) {
                    return Err((dl, TimeoutReason::WaitCycle));
                }
            }
            st.waits.end_wait(me);
            let inbox = &mut st.inbox[me];
            if let Some(at) = inbox.find(src, tag) {
                let env = inbox.get(at);
                if env.dropped {
                    let lost_at = deadline.unwrap_or(env.arrival);
                    inbox.remove(at);
                    return Err((lost_at, TimeoutReason::MessageLost));
                }
                // A live match past the deadline is late, not lost: it
                // stays buffered for a later receive.
                if let Some(dl) = deadline.filter(|&dl| env.arrival > dl) {
                    return Err((dl, TimeoutReason::DeadlinePassed));
                }
                return Ok(inbox.remove(at));
            }
            if let Some(peer) = st.poisoned_by {
                drop(guard);
                peer_panicked(me, peer, src, tag);
            }
            // The sender's body delivered every message before setting
            // `done`: seeing the flag with no match buffered proves no
            // match is coming.
            if let Some(dl) = deadline.filter(|_| st.done[src]) {
                return Err((dl, TimeoutReason::SenderFinished));
            }
            st.waits.begin_wait(me, src, tag, deadline.is_some());
            // Park the continuation, keyed on this rank's current
            // virtual time, and yield — to the run loop, or straight to
            // `src` if it is the handoff. No wake can arrive between the
            // checks above and the park: one rank runs at a time, so no
            // sender executes before this rank is recorded as parked
            // (see the `events` module docs).
            events::park(guard, events::time_key(now.seconds()), Some(src));
        }
    }

    /// Member `me` of `group` enters the rendezvous of the collective
    /// on `tag` with its `member` state (`timed`: it has a
    /// receive-timeout policy), and parks until the last member has
    /// evaluated the collective — or is that member, and ends its
    /// peers' waits and wakes them under the guard it evaluated them
    /// under. Returns the state handed back, and whether the schedule
    /// must still be walked on messages.
    ///
    /// # Panics
    /// If a peer's body panicked while this member waits.
    pub(super) fn rendezvous(
        &self,
        law: &Law,
        group: &Group,
        me: usize,
        tag: Tag,
        timed: bool,
        member: Member,
    ) -> (Member, bool) {
        let key = events::time_key(member.timing.now.seconds());
        let mut guard = self.state.acquire();
        let st = &mut *guard;
        let id = match st.rendezvous.arrive(law, group, me, tag, timed, member) {
            Arrival::Resolved { back, on_messages } => {
                for &rank in st.rendezvous.woken() {
                    // Clear the wait edge a drain may have given it.
                    st.waits.end_wait(rank);
                    st.sched.wake(rank);
                }
                return (back, on_messages);
            }
            Arrival::Wait { id } => id,
        };
        loop {
            // A peer's panic means the run is failing (the collective
            // can never complete, or its evaluation panicked), as on
            // messages.
            if let Some(peer) = guard.poisoned_by {
                drop(guard);
                peer_panicked_in_collective(group.ranks()[me], peer, tag);
            }
            events::park(guard, key, None);
            guard = self.state.acquire();
            // Otherwise woken by a peer's panic.
            if let Some(claim) = guard.rendezvous.claim(id, me) {
                return claim;
            }
        }
    }

    /// Marks one rank as finished. A deadline wait on it is resolved
    /// by the drain pass ([`RunState::drained`]), not by a wake here.
    pub(super) fn rank_done(&self, rank: Rank) {
        self.state.acquire().done[rank] = true;
    }

    /// Records that `src`'s body panicked and wakes every other rank, so
    /// that peers blocked in receives or rendezvous fail fast instead of
    /// deadlocking the run.
    pub(super) fn poison_from(&self, src: Rank) {
        let mut st = self.state.acquire();
        st.poisoned_by.get_or_insert(src);
        for dst in (0..self.size).filter(|&dst| dst != src) {
            st.sched.wake(dst);
        }
    }

    /// Bytes of heap held by `rank`'s inbox.
    #[cfg(test)]
    pub(super) fn inbox_heap_bytes(&self, rank: Rank) -> usize {
        self.state.acquire().inbox[rank].heap_bytes()
    }
}

/// The failure of a receive by `me` from `src` on `tag` that found no
/// match after `peer`'s body panicked; out of line, off the receive path.
#[cold]
#[inline(never)]
fn peer_panicked(me: Rank, peer: Rank, src: Rank, tag: Tag) -> ! {
    panic!(
        "rank {me}: peer rank {peer} panicked while this rank was receiving (src {src}, tag {tag})"
    )
}

/// The failure of rank `me`, waiting in the collective on `tag`, after
/// `peer`'s body panicked; out of line, off the rendezvous path.
#[cold]
#[inline(never)]
fn peer_panicked_in_collective(me: Rank, peer: Rank, tag: Tag) -> ! {
    panic!(
        "rank {me}: peer rank {peer} panicked while this rank was waiting in the collective on \
         tag {tag:#x}"
    )
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
