//! Wait-for-graph deadlock detection for blocking receives.
//!
//! Every blocking receive is *directed*: the receiver names the sender
//! and tag it waits for. That makes the instantaneous wait-for relation
//! a partial function `rank → (awaited src, tag)` — each rank waits on
//! at most one peer — so a deadlock is exactly a cycle in a functional
//! graph, and cycle detection is O(chain length) with no allocation
//! (Floyd's tortoise/hare).
//!
//! ## Protocol
//!
//! - [`WaitGraph::begin_wait`] / [`WaitGraph::end_wait`] bracket the
//!   *parked* portions of one logical receive (`RankCtx::pull_match`):
//!   the engine clears the edge at the moment it takes any envelope,
//!   and re-registers it if the envelope did not match. So a registered
//!   edge never belongs to a rank with a just-taken envelope in hand.
//! - Each time a rank is about to park, and the rank it awaits is
//!   parked too, it runs [`WaitGraph::find_candidate`] (a cycle through
//!   a rank that still runs closes when that rank parks and probes). A
//!   candidate cycle is **not** proof: a member may be queued to run,
//!   woken by the very message its edge names, which still sits in its
//!   mailbox.
//! - The engine therefore confirms via [`WaitGraph::confirm`], probing
//!   every member's mailbox: no queued envelope may match its edge or
//!   be poison (a parked rank's mailbox may hold envelopes it does not
//!   wait for, since only the awaited delivery wakes it).
//!
//! One walk is exact. The run executes one rank slice at a time and the
//! probe runs inside the prober's slice, so no edge is registered,
//! cleared or satisfied while it walks: the confirmed edges coexist, at
//! one instant, with no satisfying message anywhere — a genuine
//! deadlock.
//!
//! The slots are packed `(src, tag)` words: registration and the common
//! no-cycle probe are a handful of loads and stores, keeping the
//! blocking-receive path allocation-free (see `tests/alloc_free.rs`).
//! They are Acquire/Release atomics because the thread backend runs
//! bodies on threads of their own, one at a time.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Rank, Tag};

/// Sentinel: rank is not blocked in a receive.
const IDLE: u64 = u64::MAX;

/// High bit of a slot: the wait carries a virtual-time deadline
/// (`recv_deadline` / a receive-timeout policy). A confirmed cycle with
/// deadline members is *fired* (each member resolves as a timeout at its
/// own deadline) instead of panicking; detection itself stays exact.
const DEADLINE_BIT: u64 = 1 << 63; // xtask-allow: clockdomain (packed-slot bit flag, not a timestamp)

#[inline]
fn pack(src: Rank, tag: Tag, deadline: bool) -> u64 {
    debug_assert!(src < (1 << 30), "rank field is 30 bits + deadline flag");
    ((src as u64) << 32) | tag as u64 | if deadline { DEADLINE_BIT } else { 0 }
}

#[inline]
fn unpack(v: u64) -> (Rank, Tag, bool) {
    (
        ((v & !DEADLINE_BIT) >> 32) as Rank,
        v as u32,
        v & DEADLINE_BIT != 0,
    )
}

/// One wait-for edge: `waiter` is blocked until `src` sends `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked rank.
    pub waiter: Rank,
    /// The rank it awaits a message from.
    pub src: Rank,
    /// The awaited tag.
    pub tag: Tag,
    /// Whether the wait carries a deadline (can resolve as a timeout).
    pub deadline: bool,
}

/// The per-run wait-for graph: one slot per rank.
#[derive(Debug)]
pub struct WaitGraph {
    slots: Vec<AtomicU64>,
    /// Per-rank registration generation, bumped on every `begin_wait`
    /// (by its rank alone), so a fire names exactly one wait.
    gens: Vec<AtomicU64>,
    /// Per-rank fired flag, stamped with the *generation* of the wait a
    /// confirmed deadline cycle resolved. Generation-stamping makes the
    /// firing idempotent and immune to stale wake-ups: a later wait of
    /// the same rank (different generation) never observes it.
    fired: Vec<AtomicU64>,
}

impl WaitGraph {
    /// A graph for `size` ranks, all idle.
    pub fn new(size: usize) -> Self {
        Self {
            slots: (0..size).map(|_| AtomicU64::new(IDLE)).collect(),
            gens: (0..size).map(|_| AtomicU64::new(0)).collect(),
            fired: (0..size).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Registers that `me` starts blocking until `src` sends `tag`.
    /// `deadline` marks waits that can resolve as timeouts. Returns the
    /// registration generation of this wait (used to match a later
    /// [`WaitGraph::deadline_fired`] check to exactly this wait).
    #[inline]
    pub fn begin_wait(&self, me: Rank, src: Rank, tag: Tag, deadline: bool) -> u64 {
        debug_assert_ne!(src, me, "self-waits are not modeled");
        // Single writer: only rank `me` ever stores `gens[me]`, so a
        // load and a Release store are the whole bump, with no atomic
        // read-modify-write on the receive path.
        let gen = self.gens[me].load(Ordering::Acquire) + 1;
        self.gens[me].store(gen, Ordering::Release);
        self.slots[me].store(pack(src, tag, deadline), Ordering::Release);
        gen
    }

    /// Marks every deadline-carrying member of a confirmed cycle as
    /// fired (stamping the member's current wait generation) and returns
    /// how many members were fired. With zero deadline members the cycle
    /// is a genuine programming-error deadlock and the caller panics.
    pub fn fire_deadline_members(&self, cycle: &[WaitEdge]) -> usize {
        let mut n = 0;
        for e in cycle.iter().filter(|e| e.deadline) {
            // The cycle is confirmed, hence frozen: the member's
            // generation cannot advance until we fire it.
            let gen = self.gens[e.waiter].load(Ordering::Acquire);
            self.fired[e.waiter].store(gen, Ordering::Release);
            n += 1;
        }
        n
    }

    /// Whether the wait registered with generation `gen` was fired by a
    /// confirmed deadline cycle.
    #[inline]
    pub fn deadline_fired(&self, me: Rank, gen: u64) -> bool {
        gen != 0 && self.fired[me].load(Ordering::Acquire) == gen
    }

    /// Clears `me`'s wait edge (its receive matched).
    #[inline]
    pub fn end_wait(&self, me: Rank) {
        self.slots[me].store(IDLE, Ordering::Release);
    }

    /// What `r` is currently blocked on, if anything.
    #[inline]
    pub fn waiting_on(&self, r: Rank) -> Option<(Rank, Tag)> {
        self.waiting_full(r).map(|(src, tag, _)| (src, tag))
    }

    /// Like [`WaitGraph::waiting_on`], with the deadline flag.
    #[inline]
    fn waiting_full(&self, r: Rank) -> Option<(Rank, Tag, bool)> {
        match self.slots[r].load(Ordering::Acquire) {
            IDLE => None,
            v => Some(unpack(v)),
        }
    }

    /// Floyd cycle search over the wait-for chain starting at `me`.
    /// Returns a rank that lies *on* a candidate cycle (`me` itself may
    /// only lead into it), or `None` if the chain terminates. Performs
    /// no allocation; bounded by the rank count.
    pub fn find_candidate(&self, me: Rank) -> Option<Rank> {
        let next = |r: Rank| self.waiting_on(r).map(|(s, _)| s);
        let mut slow = me;
        let mut fast = me;
        for _ in 0..=self.slots.len() {
            fast = next(fast)?;
            fast = next(fast)?;
            slow = next(slow)?;
            if slow == fast {
                return Some(slow);
            }
        }
        None
    }

    /// Walks the candidate cycle through `anchor`, verifying each edge
    /// with `edge_holds` (the engine's probe: no match or poison queued
    /// for it). If every edge holds and the chain closes back on
    /// `anchor` within the rank count, the confirmed cycle is returned
    /// in wait order; any refuted or missing edge aborts with `None`.
    /// One walk suffices because nothing runs while it does (module
    /// docs).
    ///
    /// The walk is allocation-free; only a confirmed cycle is
    /// collected, and the returned `Vec` precedes an engine panic or the
    /// firing of deadline members.
    pub fn confirm(
        &self,
        anchor: Rank,
        mut edge_holds: impl FnMut(WaitEdge) -> bool,
    ) -> Option<Vec<WaitEdge>> {
        let edge = |r: Rank| {
            let (src, tag, deadline) = self.waiting_full(r)?;
            Some(WaitEdge {
                waiter: r,
                src,
                tag,
                deadline,
            })
        };
        let mut len = 0;
        let mut r = anchor;
        loop {
            let e = edge(r).filter(|&e| edge_holds(e))?;
            len += 1;
            r = e.src;
            if r == anchor {
                break;
            }
            if len == self.slots.len() {
                return None;
            }
        }
        let mut cycle = Vec::with_capacity(len);
        let mut r = anchor;
        for _ in 0..len {
            let e = edge(r)?;
            cycle.push(e);
            r = e.src;
        }
        Some(cycle)
    }

    /// Renders a confirmed cycle as a diagnosis, e.g.
    /// `rank 0 waiting on (src 1, tag 11) -> rank 1 waiting on (src 2,
    /// tag 12) -> rank 2 waiting on (src 0, tag 13) -> rank 0`.
    pub fn describe(cycle: &[WaitEdge]) -> String {
        let mut s = String::new();
        for e in cycle {
            s.push_str(&format!(
                "rank {} waiting on (src {}, tag {}) -> ",
                e.waiter, e.src, e.tag
            ));
        }
        if let Some(first) = cycle.first() {
            s.push_str(&format!("rank {}", first.waiter));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_graph_has_no_candidate() {
        let g = WaitGraph::new(4);
        assert_eq!(g.find_candidate(0), None);
        g.begin_wait(0, 1, 7, false);
        assert_eq!(g.find_candidate(0), None, "chain ends at idle rank 1");
        g.end_wait(0);
        assert_eq!(g.waiting_on(0), None);
    }

    #[test]
    fn three_cycle_is_found_and_confirmed() {
        let g = WaitGraph::new(3);
        g.begin_wait(0, 1, 11, false);
        g.begin_wait(1, 2, 12, false);
        g.begin_wait(2, 0, 13, false);
        let anchor = g.find_candidate(0).expect("cycle exists");
        let cycle = g.confirm(anchor, |_| true).expect("all edges hold");
        assert_eq!(cycle.len(), 3);
        let desc = WaitGraph::describe(&cycle);
        for needle in [
            "rank 0 waiting on (src 1, tag 11)",
            "rank 1 waiting on (src 2, tag 12)",
            "rank 2 waiting on (src 0, tag 13)",
        ] {
            assert!(desc.contains(needle), "{desc}");
        }
    }

    #[test]
    fn refuted_edge_aborts_confirmation() {
        let g = WaitGraph::new(2);
        g.begin_wait(0, 1, 5, false);
        g.begin_wait(1, 0, 6, false);
        let anchor = g.find_candidate(0).expect("2-cycle candidate");
        assert_eq!(g.confirm(anchor, |e| e.waiter != 1), None);
    }

    #[test]
    fn tail_into_cycle_is_detected_from_outside() {
        // 0 -> 1 -> 2 -> 1: rank 0 is not on the cycle but blocked
        // behind it.
        let g = WaitGraph::new(3);
        g.begin_wait(0, 1, 1, false);
        g.begin_wait(1, 2, 2, false);
        g.begin_wait(2, 1, 3, false);
        let anchor = g.find_candidate(0).expect("cycle reachable from 0");
        let cycle = g.confirm(anchor, |_| true).expect("cycle confirmed");
        assert_eq!(cycle.len(), 2);
        let ranks: Vec<Rank> = cycle.iter().map(|e| e.waiter).collect();
        assert!(ranks.contains(&1) && ranks.contains(&2) && !ranks.contains(&0));
    }

    #[test]
    fn pack_roundtrips_extremes() {
        let g = WaitGraph::new(2);
        g.begin_wait(0, 1, u32::MAX - 1, false);
        assert_eq!(g.waiting_on(0), Some((1, u32::MAX - 1)));
        // The deadline flag rides in the high bit without corrupting
        // the (src, tag) payload.
        g.begin_wait(0, 1, u32::MAX - 1, true);
        assert_eq!(g.waiting_on(0), Some((1, u32::MAX - 1)));
    }

    #[test]
    fn deadline_cycle_fires_only_deadline_members() {
        let g = WaitGraph::new(3);
        let g0 = g.begin_wait(0, 1, 1, true);
        let g1 = g.begin_wait(1, 2, 2, false);
        let g2 = g.begin_wait(2, 0, 3, true);
        let anchor = g.find_candidate(0).expect("cycle");
        let cycle = g.confirm(anchor, |_| true).expect("confirmed");
        assert_eq!(g.fire_deadline_members(&cycle), 2);
        assert!(g.deadline_fired(0, g0));
        assert!(!g.deadline_fired(1, g1), "plain wait is never fired");
        assert!(g.deadline_fired(2, g2));
    }

    #[test]
    fn fired_flag_is_generation_scoped() {
        let g = WaitGraph::new(2);
        let first = g.begin_wait(0, 1, 7, true);
        let cycle = [WaitEdge {
            waiter: 0,
            src: 1,
            tag: 7,
            deadline: true,
        }];
        assert_eq!(g.fire_deadline_members(&cycle), 1);
        assert!(g.deadline_fired(0, first));
        // A later wait of the same rank must not observe the stale fire.
        g.end_wait(0);
        let second = g.begin_wait(0, 1, 7, true);
        assert!(!g.deadline_fired(0, second));
        assert!(!g.deadline_fired(0, 0), "generation 0 never fires");
    }
}
