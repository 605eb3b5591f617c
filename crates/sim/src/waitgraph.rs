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
//!   the engine clears the edge — under the waiter's mailbox lock — at
//!   the moment it takes any envelope, and re-registers it if the
//!   envelope did not match. Probes take that same lock, so a probe
//!   that sees a registered edge is never looking at a rank that has a
//!   just-taken envelope in hand.
//! - Each time a rank is about to park — by suspending its
//!   continuation, or on its mailbox condvar under the reference
//!   engine — it runs [`WaitGraph::find_candidate`] (the events engine
//!   skips it while the awaited rank is not parked: the cycle, if any,
//!   closes when that rank parks and probes). A candidate cycle is
//!   **not** proof: edges are registered before messages in flight are
//!   drained, so two ranks mid-ping-pong transiently form a 2-cycle.
//! - The engine therefore confirms via [`WaitGraph::confirm`], probing
//!   every member under its mailbox lock: the edge must still be
//!   registered *and* no queued envelope may match it or be poison (a
//!   parked events-engine rank's mailbox may hold envelopes it does not
//!   wait for, since only the awaited delivery wakes it).
//!
//! ## Why one probe pass is not enough (the ABA edge)
//!
//! Edges are compared by value `(src, tag)`, and a ping-pong loop
//! re-registers *byte-identical* edges every iteration: the reference
//! consumes ping `i`, sends the reply, and only then begins waiting for
//! ping `i+1` — so the send that satisfies its peer's wait happens
//! *before* its next wait begins. Non-simultaneous probes can therefore
//! stitch edges from different iterations into a "cycle" that never
//! coexisted. To rule this out, every `begin_wait` bumps a per-rank
//! monotone generation counter, and confirmation runs the verification
//! walk **twice**: each walk checks every edge (registered + no match
//! queued, under the lock) and sums the generations it saw. Equal sums of
//! monotone counters mean each generation was unchanged, i.e. each edge
//! was continuously registered over an interval spanning both of its
//! probes — and all those intervals contain the instant between the two
//! walks. A matching message present at that instant would either still
//! be in the queue at the second probe (refuted by the match check)
//! or have been consumed (refuted by the generation or `IDLE` check). So
//! a double-confirmed cycle is a set of simultaneously blocked ranks
//! with no satisfying message anywhere: a genuine deadlock.
//!
//! The slots are packed `(src, tag)` atomics: registration and the
//! common no-cycle probe are a handful of atomic ops, keeping the
//! blocking-receive path allocation-free (see `tests/alloc_free.rs`).
//!
//! ## Place in the lock hierarchy
//!
//! The graph itself owns no mutex: all slot and generation traffic is
//! Acquire/Release atomics (never `Relaxed` — every load is paired
//! with a release store it must observe, so the `concurrency` lint's
//! `// atomics:` justifications are not needed here). Confirmation
//! probes run under the *probed rank's* mailbox lock
//! (`engine.mailbox`, level 10), one lock at a time while the caller
//! holds none — see DESIGN.md §12.

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
    /// (by its rank alone).
    /// Lets [`WaitGraph::confirm`] distinguish an edge that stayed
    /// registered from a byte-identical edge re-registered by a later
    /// receive iteration (the ABA case of ping-pong loops).
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
        // read-modify-write on the receive path. `confirm` reads it with
        // Acquire from other ranks' threads under the reference engine.
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
            // The cycle is double-confirmed, hence frozen: the member's
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
    /// no allocation; bounded by the rank count even if slots mutate
    /// concurrently.
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

    /// Walks the candidate cycle through `anchor`, re-reading each edge
    /// and verifying it with `edge_holds` (the engine probes: edge still
    /// registered *and* no match queued for it, under its lock). The
    /// walk runs **twice**; generations must match between the walks
    /// (see the module docs for why a single pass is unsound for
    /// value-identical re-registered edges). If the verified edges close
    /// back on `anchor` within the rank count both times, the confirmed
    /// cycle is returned in wait order; any refuted or vanished edge, or
    /// a generation change between the walks, aborts with `None`.
    ///
    /// A spurious abort is harmless: in a genuine deadlock nothing
    /// mutates, so the walk verifies deterministically when the last
    /// cycle member re-runs detection before parking.
    ///
    /// Only called on a candidate, and the collect pass runs only after
    /// both walks verified, so the returned `Vec` is the first
    /// allocation on this path and precedes an engine panic or the
    /// firing of deadline members.
    pub fn confirm(
        &self,
        anchor: Rank,
        mut edge_holds: impl FnMut(WaitEdge) -> bool,
    ) -> Option<Vec<WaitEdge>> {
        // Two allocation-free verification walks. Generations are
        // monotone, so equal sums mean every edge's generation was
        // unchanged — each edge was continuously registered across an
        // interval containing the instant between the walks, i.e. the
        // whole cycle coexisted.
        let first = self.verify_walk(anchor, &mut edge_holds)?;
        let second = self.verify_walk(anchor, &mut edge_holds)?;
        if first != second {
            return None;
        }
        // Collect pass. A genuine deadlock cannot make progress, but
        // under the reference engine another rank may have confirmed
        // this same cycle, fired its deadline members and let them move
        // on since the second walk. So the pass must read the very edges
        // the walks verified: the same length and generations. Each
        // edge is read before its generation, which `begin_wait` stores
        // first, so a re-registered edge is never paired with the old
        // generation.
        let (len, gen_sum) = second;
        let mut cycle = Vec::with_capacity(len);
        let mut sum = 0u64;
        let mut w = anchor;
        for _ in 0..len {
            let (src, tag, deadline) = self.waiting_full(w)?;
            sum = sum.wrapping_add(self.gens[w].load(Ordering::Acquire));
            cycle.push(WaitEdge {
                waiter: w,
                src,
                tag,
                deadline,
            });
            w = src;
        }
        (w == anchor && sum == gen_sum).then_some(cycle)
    }

    /// One allocation-free verification walk from `anchor`: every edge
    /// must satisfy `edge_holds` and the chain must close back on
    /// `anchor` within the rank count. Returns the cycle length and the
    /// sum of the per-edge generations observed.
    fn verify_walk(
        &self,
        anchor: Rank,
        edge_holds: &mut impl FnMut(WaitEdge) -> bool,
    ) -> Option<(usize, u64)> {
        let mut r = anchor;
        let mut gen_sum = 0u64;
        for step in 0..self.slots.len() {
            let gen = self.gens[r].load(Ordering::Acquire);
            let (src, tag, deadline) = self.waiting_full(r)?;
            if !edge_holds(WaitEdge {
                waiter: r,
                src,
                tag,
                deadline,
            }) {
                return None;
            }
            gen_sum = gen_sum.wrapping_add(gen);
            r = src;
            if r == anchor {
                return Some((step + 1, gen_sum));
            }
        }
        None
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
    fn identical_reregistered_edge_is_not_confirmed() {
        // ABA: between the two verification walks rank 1 completes its
        // receive and re-registers a byte-identical edge (as ping-pong
        // loops do every iteration). The cycle never coexisted, so
        // confirmation must abort even though every single probe sees a
        // registered edge with the expected value.
        let g = WaitGraph::new(2);
        g.begin_wait(0, 1, 5, false);
        g.begin_wait(1, 0, 5, false);
        let anchor = g.find_candidate(0).expect("2-cycle candidate");
        let mut probes = 0;
        let refuted = g.confirm(anchor, |e| {
            probes += 1;
            if probes == 2 {
                // First walk just probed both edges; simulate rank 1's
                // receive completing and re-blocking on the same pair.
                g.end_wait(e.waiter);
                g.begin_wait(e.waiter, e.src, e.tag, false);
            }
            true
        });
        assert_eq!(refuted, None, "re-registered edge must refute the cycle");
        // A stable cycle still confirms.
        assert!(g.confirm(anchor, |_| true).is_some());
    }

    #[test]
    fn cycle_that_moved_on_after_confirmation_is_not_collected() {
        // Rank 0's deadline wait on 1 and rank 1's wait on 0 are
        // confirmed. Before the collect pass, another detector fires
        // rank 0, which times out and waits on 1 again without a
        // deadline. The plain cycle now in the graph was never
        // verified, so it must not be reported as a deadlock.
        let g = WaitGraph::new(2);
        g.begin_wait(0, 1, 5, true);
        g.begin_wait(1, 0, 6, false);
        let anchor = g.find_candidate(0).expect("2-cycle candidate");
        let mut probes = 0;
        let collected = g.confirm(anchor, |_| {
            probes += 1;
            if probes == 4 {
                // The last probe of the second walk.
                g.end_wait(0);
                g.begin_wait(0, 1, 7, false);
            }
            true
        });
        assert_eq!(collected, None, "the moved-on cycle was collected");
        // The cycle as it stands now still confirms.
        let cycle = g.confirm(anchor, |_| true).expect("a stable cycle");
        assert!(cycle.iter().all(|e| !e.deadline));
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
