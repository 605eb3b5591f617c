//! The run's wait-for graph. A blocking receive names the sender and
//! tag it waits for, and a member parked in a collective rendezvous
//! waits on the lowest member that has not entered, so the relation is
//! a partial function `rank → (src, tag)` and a deadlock is a cycle of
//! it, searched for only when the run drains ([`WaitGraph::cycles`]).
//! A slot is a plain value next to its rank's inbox, under the run's
//! single-owner lock (`engine::net`): a wait is one store, with no
//! allocation (`tests/alloc_free.rs`).

#![forbid(unsafe_code)]

use crate::{Rank, Tag};

/// One wait-for edge: `waiter` is blocked until `src` sends `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WaitEdge {
    pub(crate) waiter: Rank,
    pub(crate) src: Rank,
    pub(crate) tag: Tag,
    pub(crate) deadline: bool,
}

/// What one rank's slot holds.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Not blocked in a receive.
    Idle,
    /// Blocked until `src` sends `tag`; a cycle through a `deadline`
    /// wait fires it, not a panic.
    Waiting { src: Rank, tag: Tag, deadline: bool },
    /// A drain fired the deadline wait: a timeout to resolve.
    Fired,
}

/// The per-run wait-for graph: one slot per rank.
pub(crate) struct WaitGraph {
    slots: Vec<Slot>,
}

impl WaitGraph {
    /// A graph for `size` ranks, all idle.
    pub(crate) fn new(size: usize) -> Self {
        Self {
            slots: vec![Slot::Idle; size],
        }
    }

    /// Registers that `me` starts blocking until `src` sends `tag`.
    #[inline]
    pub(crate) fn begin_wait(&mut self, me: Rank, src: Rank, tag: Tag, deadline: bool) {
        debug_assert!(src != me, "a wait on a peer");
        self.slots[me] = Slot::Waiting { src, tag, deadline };
    }

    /// Clears `me`'s wait edge.
    #[inline]
    pub(crate) fn end_wait(&mut self, me: Rank) {
        self.slots[me] = Slot::Idle;
    }

    /// What `waiter` is currently blocked on, if anything.
    #[inline]
    pub(crate) fn edge(&self, waiter: Rank) -> Option<WaitEdge> {
        match self.slots[waiter] {
            Slot::Waiting { src, tag, deadline } => Some(WaitEdge {
                waiter,
                src,
                tag,
                deadline,
            }),
            Slot::Idle | Slot::Fired => None,
        }
    }

    /// Fires `r`'s parked deadline wait.
    pub(crate) fn fire(&mut self, r: Rank) {
        debug_assert!(self.edge(r).is_some_and(|e| e.deadline), "a deadline wait");
        self.slots[r] = Slot::Fired;
    }

    /// Whether a drain fired `me`'s wait, which this clears.
    #[inline]
    pub(crate) fn take_fired(&mut self, me: Rank) -> bool {
        let fired = matches!(self.slots[me], Slot::Fired);
        if fired {
            self.end_wait(me);
        }
        fired
    }

    /// Every cycle among the edges of the `parked` ranks (ascending),
    /// each from its lowest rank, in ascending order of that rank, in
    /// one walk per rank: a walk that stops on itself found a cycle.
    pub(crate) fn cycles(&self, parked: &[Rank]) -> Vec<Vec<WaitEdge>> {
        const UNSEEN: usize = usize::MAX - 1;
        let mut walk = vec![usize::MAX; self.slots.len()];
        parked.iter().for_each(|&r| walk[r] = UNSEEN);
        let edge = |r: Rank| self.edge(r).expect("a parked rank has a wait edge");
        let mut cycles = Vec::new();
        for &start in parked {
            let mut r = start;
            while walk[r] == UNSEEN {
                walk[r] = start;
                r = edge(r).src;
            }
            if walk[r] == start {
                let mut cycle = vec![edge(r)];
                while cycle[cycle.len() - 1].src != r {
                    cycle.push(edge(cycle[cycle.len() - 1].src));
                }
                let lowest = (0..cycle.len()).min_by_key(|&i| cycle[i].waiter);
                cycle.rotate_left(lowest.expect("a cycle has members"));
                cycles.push(cycle);
            }
        }
        cycles.sort_unstable_by_key(|c| c[0].waiter);
        cycles
    }

    /// Renders a cycle as a diagnosis, e.g. `rank 0 waiting on (src 1,
    /// tag 11) -> rank 1 waiting on (src 0, tag 12) -> rank 0`.
    pub(crate) fn describe(cycle: &[WaitEdge]) -> String {
        let mut s = String::new();
        for e in cycle {
            let (waiter, src, tag) = (e.waiter, e.src, e.tag);
            s += &format!("rank {waiter} waiting on (src {src}, tag {tag}) -> ");
        }
        s + &format!("rank {}", cycle[0].waiter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_are_found_once_from_their_lowest_rank_and_fired_once() {
        // 0 -> 3 -> 1 -> 3 and 2 -> 4 -> 2; 5 -> 6, which is not parked.
        let mut g = WaitGraph::new(7);
        for (me, src) in [(0, 3), (3, 1), (1, 3), (2, 4), (4, 2), (5, 6)] {
            g.begin_wait(me, src, 10 + me as Tag, me == 4);
        }
        let cycles = g.cycles(&[0, 1, 2, 3, 4, 5]);
        let members = |c: &Vec<WaitEdge>| c.iter().map(|e| (e.waiter, e.deadline)).collect();
        let members: Vec<Vec<_>> = cycles.iter().map(members).collect();
        assert_eq!(members, [[(1, false), (3, false)], [(2, false), (4, true)]]);
        let want =
            "rank 1 waiting on (src 3, tag 11) -> rank 3 waiting on (src 1, tag 13) -> rank 1";
        assert_eq!(WaitGraph::describe(&cycles[0]), want);
        assert!(g.cycles(&[0, 5]).is_empty(), "an unparked rank ends a walk");
        g.fire(4);
        assert!(!g.take_fired(2) && g.take_fired(4) && !g.take_fired(4));
        assert_eq!((g.edge(2).map(|e| e.src), g.edge(4)), (Some(4), None));
    }
}
