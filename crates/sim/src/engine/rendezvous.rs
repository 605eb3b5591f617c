//! Collectives in one rendezvous.
//!
//! A collective's members each bring a [`Schedule`]: their message ops
//! in program order. Its virtual-time outcome is a pure function of
//! each member's state at entry — every send's arrival is fixed by the
//! sender's stream and FIFO clamp, every receive does
//! `now = max(now, arrival) + recv_overhead` — so the members need not
//! take turns message by message. With an empty fault plan each member
//! moves its [`Timing`] and its schedule into a per-run slot and parks
//! once, whichever [`crate::EngineMode`] runs it; the last member to
//! enter walks every member's ops in dependency order (`Evaluator`)
//! with the same timing law the message path applies, hands each member
//! its state back and wakes them. Parking costs no virtual time, so a
//! slot that learns a member has a receive-timeout policy releases
//! every member to the message path instead, exactly.
//!
//! When the run drains, each parked member waits on the lowest member
//! that has not entered ([`Rendezvous::gathering`]), so a wait cycle
//! through a collective is found as one on messages is: diagnosed, or
//! fired when it holds deadline receives. These edges point only at
//! members that have not entered, so they close no cycle among the
//! parked members alone.
//!
//! The slot is named by the wire tag plus the group's lowest global
//! rank: the sibling communicators of one split share a context id, and
//! with it their tags. Slots, the evaluator's buffers and the list of
//! members to wake keep their capacity from one collective to the next,
//! and the free list has room for every slot once the slot is made, so
//! a rendezvous allocates nothing from a run's second collective on.
//! The slots are a field of the run's one state value (`engine::net`).

#![forbid(unsafe_code)]

use std::sync::Arc;

use super::schedule::{Op, Schedule};
use super::timing::{Delivery, Law, Leg, Timing};
use crate::msg::Payload;
use crate::{Rank, SimTime, Tag};

/// The members of a collective in member order, and the lowest of their
/// global ranks.
#[derive(Debug, Clone)]
pub struct Group {
    ranks: Arc<[Rank]>,
    lowest: Rank,
}

impl Group {
    /// The group of `ranks`, in member order.
    ///
    /// # Panics
    /// Panics if `ranks` is empty.
    pub fn new(ranks: Arc<[Rank]>) -> Self {
        let lowest = *ranks.iter().min().expect("a group has members");
        Group { ranks, lowest }
    }

    /// The group `0..p` of a whole run, whose lowest rank is known.
    pub(super) fn world(ranks: Arc<[Rank]>) -> Self {
        Group { ranks, lowest: 0 }
    }

    /// The members' global ranks, in member order.
    pub fn ranks(&self) -> &Arc<[Rank]> {
        &self.ranks
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether the group has no members (never true of a built group).
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }
}

/// What a member moves into a slot: the state the timing law changes,
/// and its schedule.
pub(super) struct Member {
    pub(super) timing: Timing,
    pub(super) sched: Schedule,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// No collective: the slot waits for reuse.
    Free,
    /// Members are still entering (or the evaluation panicked; the
    /// failing rank's wake-up of every rank then releases the parked
    /// members).
    Gathering,
    /// Every member's state is back in the slot, evaluated.
    Evaluated,
    /// A member has a receive-timeout policy: every member walks its
    /// schedule on messages.
    Messages,
}

struct Slot {
    group: Group,
    tag: Tag,
    entered: usize,
    state: SlotState,
    /// Each member's state while it sits here, by member index.
    members: Vec<Option<Member>>,
    /// How many of `members` are `Some`.
    held: usize,
    /// While gathering, the lowest member index that has not entered:
    /// every member below it sits here.
    missing: usize,
}

impl Slot {
    /// Whether every member entered and took its state back.
    fn drained(&self) -> bool {
        self.entered == self.group.len() && self.held == 0
    }

    /// Puts the ranks of the members whose state sits here (they are
    /// parked), except `me`, into `wake`.
    fn parked_except(&self, me: usize, wake: &mut Vec<Rank>) {
        wake.clear();
        let parked = (0..self.members.len()).filter(|&i| i != me && self.members[i].is_some());
        wake.extend(parked.map(|i| self.group.ranks[i]));
    }
}

/// What entering a rendezvous asks of the member.
pub(super) enum Arrival {
    /// Wake the members in [`Rendezvous::woken`], then carry on with
    /// the state `back`: evaluated, or still to walk on messages
    /// (`on_messages`, for the woken members too).
    Resolved { back: Member, on_messages: bool },
    /// Park until slot `id` resolves.
    Wait { id: usize },
}

/// The run's rendezvous slots, and the evaluator's buffers, kept from
/// one collective to the next.
#[derive(Default)]
pub(super) struct Rendezvous {
    /// Slots still gathering members, as (wire tag, lowest member) and
    /// slot id, sorted.
    open: Vec<((Tag, Rank), usize)>,
    /// The slots by id: every one some member still has business with,
    /// and free ones. The key alone cannot name a slot: the last member
    /// may enter the next collective on the same tag before the others
    /// took their state back.
    slots: Vec<Slot>,
    /// Ids of the free slots.
    free: Vec<usize>,
    /// The members the last resolving arrival asks to wake.
    wake: Vec<Rank>,
    evaluator: Evaluator,
}

impl Rendezvous {
    /// Member `me` of `group` enters the collective on `tag` with its
    /// state; `timed` says it has a receive-timeout policy. The last
    /// member to enter evaluates the collective under `law`.
    pub(super) fn arrive(
        &mut self,
        law: &Law,
        group: &Group,
        me: usize,
        tag: Tag,
        timed: bool,
        member: Member,
    ) -> Arrival {
        let key = (tag, group.lowest);
        let id = match self.open.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(at) => self.open[at].1,
            Err(at) => {
                let id = self.open_slot(group, tag);
                self.open.insert(at, (key, id));
                id
            }
        };
        let slot = &mut self.slots[id];
        slot.entered += 1;
        let last = slot.entered == slot.group.len();
        if last {
            let at = self
                .open
                .binary_search_by_key(&key, |&(k, _)| k)
                .expect("a gathering slot is open");
            self.open.remove(at);
        }
        if timed || slot.state == SlotState::Messages {
            slot.state = SlotState::Messages;
            slot.parked_except(me, &mut self.wake);
            self.free_if_drained(id);
            return Arrival::Resolved {
                back: member,
                on_messages: true,
            };
        }
        slot.members[me] = Some(member);
        if !last {
            slot.held += 1;
            while slot.members[slot.missing].is_some() {
                slot.missing += 1;
            }
            return Arrival::Wait { id };
        }
        self.evaluator.run(law, &slot.group, tag, &mut slot.members);
        slot.state = SlotState::Evaluated;
        let back = slot.members[me].take().expect("the last member's state");
        slot.parked_except(me, &mut self.wake);
        Arrival::Resolved {
            back,
            on_messages: false,
        }
    }

    /// The members the last [`Arrival::Resolved`] asks to wake.
    pub(super) fn woken(&self) -> &[Rank] {
        &self.wake
    }

    /// A gathering slot for the collective on `tag` among `group`: a
    /// free one, reset, or a new one.
    fn open_slot(&mut self, group: &Group, tag: Tag) -> usize {
        let id = self.free.pop().unwrap_or(self.slots.len());
        // A free slot's members were all taken back: only the capacity
        // is kept.
        let mut members = self
            .slots
            .get_mut(id)
            .map_or_else(Vec::new, |s| std::mem::take(&mut s.members));
        members.clear();
        members.resize_with(group.len(), || None);
        let slot = Slot {
            group: group.clone(),
            tag,
            entered: 0,
            state: SlotState::Gathering,
            members,
            held: 0,
            missing: 0,
        };
        if id == self.slots.len() {
            self.slots.push(slot);
            // Room for every id, so the claim that frees a slot never
            // allocates.
            self.free.reserve(self.slots.len() - self.free.len());
        } else {
            self.slots[id] = slot;
        }
        id
    }

    /// Member `me` of slot `id`, woken, takes its state back if the slot
    /// is resolved: evaluated, or to walk on messages (`true`).
    pub(super) fn claim(&mut self, id: usize, me: usize) -> Option<(Member, bool)> {
        let slot = &mut self.slots[id];
        let on_messages = match slot.state {
            SlotState::Gathering => return None,
            SlotState::Evaluated => false,
            SlotState::Messages => true,
            SlotState::Free => unreachable!("a parked member's slot is in use"),
        };
        let member = slot.members[me]
            .take()
            .expect("a parked member's state sits in its slot");
        slot.held -= 1;
        self.free_if_drained(id);
        Some((member, on_messages))
    }

    fn free_if_drained(&mut self, id: usize) {
        let slot = &mut self.slots[id];
        if slot.drained() {
            slot.state = SlotState::Free;
            self.free.push(id);
        }
    }

    /// Every member parked in a gathering slot, as `(its rank, the
    /// rank of the lowest member that has not entered, the slot's tag)`:
    /// the wait-for edges of the members at a drain. Which members had
    /// entered when one parked depends on the pick order; which have not
    /// by the drain does not.
    pub(super) fn gathering(&self) -> impl Iterator<Item = (Rank, Rank, Tag)> + '_ {
        let gathering = self
            .slots
            .iter()
            .filter(|s| s.state == SlotState::Gathering);
        gathering.flat_map(|slot| {
            let on = slot.group.ranks[slot.missing];
            (0..slot.members.len())
                .filter(|&i| slot.members[i].is_some())
                .map(move |i| (slot.group.ranks[i], on, slot.tag))
        })
    }

    /// What `rank` waits for, if it is parked in a gathering slot,
    /// worded for the event scheduler's stall report; `finished(r)`
    /// says whether rank `r`'s body returned.
    pub(super) fn describe(&self, rank: Rank, finished: impl Fn(Rank) -> bool) -> Option<String> {
        self.slots.iter().find_map(|slot| {
            let me = slot.group.ranks.iter().position(|&r| r == rank)?;
            if slot.state != SlotState::Gathering || slot.members[me].is_none() {
                return None;
            }
            let missing = slot.group.ranks[slot.missing];
            let state = if finished(missing) {
                "already finished"
            } else {
                "has not finished"
            };
            Some(format!(
                "waiting in the collective on tag {:#x} among {} ranks (lowest {}): {} entered, and \
                 rank {missing}, which has not, {state}",
                slot.tag,
                slot.group.len(),
                slot.group.lowest,
                slot.entered,
            ))
        })
    }
}

/// A message of one collective, delivered to a member's inbox and not
/// yet received.
struct Msg {
    from: u32,
    arrival: SimTime,
    payload: Payload,
}

/// The evaluator's [`Delivery`]: it only needs the arrival, and hands
/// the message on itself.
struct Arrives<'a>(&'a mut SimTime);

impl Delivery for Arrives<'_> {
    fn deliver(self, _t: &mut Timing, arrival: SimTime) {
        *self.0 = arrival;
    }
}

/// No pending receive.
const NOT_WAITING: u32 = u32::MAX;

/// The collective evaluator and its per-member buffers (emptied by
/// every evaluation that completes, their capacity kept).
#[derive(Default)]
struct Evaluator {
    /// Each member's delivered, unreceived messages, in delivery order.
    inbox: Vec<Vec<Msg>>,
    /// Each member's next op.
    pc: Vec<usize>,
    /// The member each member's pending receive waits on, or
    /// [`NOT_WAITING`].
    waiting: Vec<u32>,
    /// Runnable members, taken last-in first-out: a member a send
    /// unblocks runs next, which keeps inboxes short.
    ready: Vec<usize>,
}

impl Evaluator {
    /// Walks every member's schedule of the collective on `tag` among
    /// `group` to its end, in dependency order, applying the timing law
    /// to each member's own state. Each member's ops happen in its
    /// program order, and a receive takes the earliest unreceived
    /// message from its source (the channel is FIFO), so the result is
    /// the message path's, whatever order the members are taken in.
    ///
    /// Members whose first op is a receive start first, and block; the
    /// others start in member order. A send to a member that waits on
    /// the sender is received at once, so a tree's or a rooted linear
    /// collective's messages never wait in an inbox, and a pairwise
    /// exchange leaves one of its two messages there.
    ///
    /// # Panics
    /// Panics if the schedules wait on each other with messages missing
    /// (they do not describe one collective), or if a fold panics.
    fn run(&mut self, law: &Law, group: &Group, tag: Tag, members: &mut [Option<Member>]) {
        let ranks = &group.ranks;
        let n = members.len();
        if self.inbox.len() < n {
            self.inbox.resize_with(n, Vec::new);
        }
        self.pc.clear();
        self.pc.resize(n, 0);
        self.waiting.clear();
        self.waiting.resize(n, NOT_WAITING);
        let starts_with_recv = |m: &Option<Member>| {
            matches!(
                m.as_ref().map(|m| m.sched.ops().first()),
                Some(Some(Op::Recv(..)))
            )
        };
        self.ready.clear();
        let senders = (0..n).rev().filter(|&m| !starts_with_recv(&members[m]));
        self.ready.extend(senders);
        let receivers = (0..n).filter(|&m| starts_with_recv(&members[m]));
        self.ready.extend(receivers);
        let mut finished = 0;
        while let Some(m) = self.ready.pop() {
            let mut pc = self.pc[m];
            loop {
                let me = members[m].as_mut().expect("every member entered");
                let Some(&op) = me.sched.ops().get(pc) else {
                    finished += 1;
                    break;
                };
                match op {
                    Op::Send(to, src) => {
                        let to = to as usize;
                        let payload = me.sched.payload(src);
                        let bytes = payload.len();
                        let (from, dst) = (ranks[m], ranks[to]);
                        let mut arrival = SimTime::ZERO;
                        let via = Arrives(&mut arrival);
                        me.timing.send(law, from, dst, tag, bytes, Leg::Data, via);
                        if self.waiting[to] == m as u32 {
                            // `to` waits for exactly this message: it
                            // receives it now and runs on from its next op.
                            let rx = members[to].as_mut().expect("every member entered");
                            let Op::Recv(_, sink) = rx.sched.ops()[self.pc[to]] else {
                                unreachable!("a waiting member is at a receive")
                            };
                            rx.timing.recv(law, from, tag, arrival, bytes, Leg::Data);
                            rx.sched.absorb(sink, payload);
                            self.pc[to] += 1;
                            self.waiting[to] = NOT_WAITING;
                            self.ready.push(to);
                        } else {
                            let from = m as u32;
                            self.inbox[to].push(Msg {
                                from,
                                arrival,
                                payload,
                            });
                        }
                    }
                    Op::Recv(from, sink) => {
                        let inbox = &mut self.inbox[m];
                        let Some(at) = inbox.iter().position(|msg| msg.from == from) else {
                            self.waiting[m] = from;
                            break;
                        };
                        let msg = inbox.remove(at);
                        let bytes = msg.payload.len();
                        let src = ranks[from as usize];
                        me.timing.recv(law, src, tag, msg.arrival, bytes, Leg::Data);
                        me.sched.absorb(sink, msg.payload);
                    }
                }
                pc += 1;
            }
            self.pc[m] = pc;
        }
        if finished < n {
            let stuck: Vec<String> = (0..n)
                .filter(|&m| self.waiting[m] != NOT_WAITING)
                .map(|m| {
                    let from = self.waiting[m] as usize;
                    format!("rank {} on rank {}", ranks[m], ranks[from])
                })
                .collect();
            panic!(
                "collective on tag {tag:#x}: the members' schedules wait on each other with no \
                 message in flight ({})",
                stuck.join(", ")
            );
        }
    }
}
