//! Collectives in one rendezvous.
//!
//! A collective's members each run a [`StepProgram`]: their message
//! steps in program order. Its virtual-time outcome is a pure function
//! of each member's state at entry — every send's arrival is fixed by
//! the sender's stream and FIFO clamp, every receive does
//! `now = max(now, arrival) + recv_overhead` — so the members need not
//! take turns message by message. With an empty fault plan each member
//! moves its [`Timing`] and its program into a per-run slot and parks
//! once, whichever [`crate::EngineMode`] runs it; the last member to enter
//! evaluates every member's steps in dependency order (`Evaluator`)
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
//! with it their tags.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use super::timing::{Delivery, Law, Leg, Timing};
use crate::msg::Payload;
use crate::{Rank, SimTime, Tag};

/// One step of a member's [`StepProgram`].
#[derive(Debug)]
pub enum Step<'a> {
    /// Send `data` to the member at this index of the group.
    Send(usize, &'a [u8]),
    /// Receive the next message from the member at this index.
    Recv(usize),
    /// The program is finished.
    Done,
}

/// One member's part of a collective, as the message steps it takes in
/// program order. The same program runs on the message path
/// (`RankCtx::send` / `RankCtx::recv` step by step) or inside a
/// rendezvous, with identical results; see [`crate::RankCtx::collective`].
///
/// Which steps a program takes may depend on the data it received (the
/// evaluator follows whatever it asks for), but a program must not
/// touch anything but its own state: in a rendezvous it runs on another
/// member's stack.
pub trait StepProgram: Any + Send {
    /// The next step. `got` is the payload the previous step received
    /// when that was a [`Step::Recv`], and `None` otherwise.
    fn next(&mut self, got: Option<Payload>) -> Step<'_>;
}

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
/// and its program.
pub(super) struct Member {
    pub(super) timing: Timing,
    pub(super) program: Box<dyn StepProgram>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Members are still entering (or the evaluation panicked; the
    /// poison of the failing rank then releases the parked members).
    Gathering,
    /// Every member's state is back in the slot, evaluated.
    Evaluated,
    /// A member has a receive-timeout policy: every member runs its
    /// program on messages.
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

    /// The ranks of the members whose state sits here (they are
    /// parked), except `me`.
    fn parked_except(&self, me: usize) -> Vec<Rank> {
        (0..self.members.len())
            .filter(|&i| i != me && self.members[i].is_some())
            .map(|i| self.group.ranks[i])
            .collect()
    }
}

/// What entering a rendezvous asks of the member.
pub(super) enum Arrival {
    /// Wake the members in `wake`, then carry on with the state `back`:
    /// evaluated, or still to run on messages (`on_messages`, for the
    /// woken members too).
    Resolved {
        wake: Vec<Rank>,
        back: Member,
        on_messages: bool,
    },
    /// Park until slot `id` resolves.
    Wait { id: usize },
}

/// The run's rendezvous slots, and the evaluator's buffers, kept from
/// one collective to the next.
#[derive(Default)]
pub(super) struct Rendezvous {
    /// Slots still gathering members, by (wire tag, lowest member).
    open: BTreeMap<(Tag, Rank), usize>,
    /// Every slot some member still has business with, by id. The key
    /// alone cannot name a slot: the last member may enter the next
    /// collective on the same tag before the others took their state
    /// back.
    slots: BTreeMap<usize, Slot>,
    /// The id of the next slot.
    next_id: usize,
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
        let id = *self.open.entry(key).or_insert_with(|| {
            let id = self.next_id;
            self.next_id += 1;
            let slot = Slot {
                group: group.clone(),
                tag,
                entered: 0,
                state: SlotState::Gathering,
                members: (0..group.len()).map(|_| None).collect(),
                held: 0,
                missing: 0,
            };
            self.slots.insert(id, slot);
            id
        });
        let slot = self.slots.get_mut(&id).expect("an open slot exists");
        slot.entered += 1;
        let last = slot.entered == slot.group.len();
        if last {
            self.open.remove(&key);
        }
        if timed || slot.state == SlotState::Messages {
            slot.state = SlotState::Messages;
            let wake = slot.parked_except(me);
            self.remove_if_drained(id);
            return Arrival::Resolved {
                wake,
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
        Arrival::Resolved {
            wake: slot.parked_except(me),
            back,
            on_messages: false,
        }
    }

    /// Member `me` of slot `id`, woken, takes its state back if the slot
    /// is resolved: evaluated, or to run on messages (`true`).
    pub(super) fn claim(&mut self, id: usize, me: usize) -> Option<(Member, bool)> {
        let slot = self
            .slots
            .get_mut(&id)
            .expect("a parked member's slot exists");
        let on_messages = match slot.state {
            SlotState::Gathering => return None,
            SlotState::Evaluated => false,
            SlotState::Messages => true,
        };
        let member = slot.members[me]
            .take()
            .expect("a parked member's state sits in its slot");
        slot.held -= 1;
        self.remove_if_drained(id);
        Some((member, on_messages))
    }

    fn remove_if_drained(&mut self, id: usize) {
        if self.slots[&id].drained() {
            self.slots.remove(&id);
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
            .values()
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
        self.slots.values().find_map(|slot| {
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
    from: usize,
    arrival: SimTime,
    payload: Payload,
}

/// The evaluator's [`Delivery`]: the destination member's inbox.
struct Inbox<'a> {
    queue: &'a mut VecDeque<Msg>,
    from: usize,
    data: &'a [u8],
}

impl Delivery for Inbox<'_> {
    fn deliver(self, _t: &mut Timing, arrival: SimTime) {
        self.queue.push_back(Msg {
            from: self.from,
            arrival,
            payload: Payload::from_slice(self.data),
        });
    }
}

/// The collective evaluator and its per-member buffers (emptied by
/// every evaluation that completes, their capacity kept).
#[derive(Default)]
struct Evaluator {
    /// Each member's delivered, unreceived messages, in delivery order.
    inbox: Vec<VecDeque<Msg>>,
    /// The source each member's pending receive waits on.
    waiting: Vec<Option<usize>>,
    /// Runnable members, taken last-in first-out: a member a send
    /// unblocks runs next, which keeps inboxes short.
    ready: Vec<usize>,
    queued: Vec<bool>,
}

impl Evaluator {
    /// Runs every member's program of the collective on `tag` among
    /// `group` to completion, in dependency order, applying the timing
    /// law to each member's own state. Each member's steps happen in its
    /// program order, and a receive takes the earliest unreceived
    /// message from its source (the channel is FIFO), so the result is
    /// the message path's, whatever order the members are taken in.
    ///
    /// # Panics
    /// Panics if the programs wait on each other with messages missing
    /// (they do not describe one collective), or if a program panics.
    fn run(&mut self, law: &Law, group: &Group, tag: Tag, members: &mut [Option<Member>]) {
        let ranks = &group.ranks;
        let n = members.len();
        if self.inbox.len() < n {
            self.inbox.resize_with(n, VecDeque::new);
        }
        self.waiting.clear();
        self.waiting.resize(n, None);
        self.queued.clear();
        self.queued.resize(n, true);
        self.ready.clear();
        self.ready.extend((0..n).rev());
        let mut finished = 0;
        while let Some(m) = self.ready.pop() {
            self.queued[m] = false;
            let Member { timing, program } = members[m].as_mut().expect("every member entered");
            let mut got = None;
            loop {
                if let Some(from) = self.waiting[m] {
                    let inbox = &mut self.inbox[m];
                    let Some(at) = inbox.iter().position(|msg| msg.from == from) else {
                        break;
                    };
                    let msg = inbox.remove(at).expect("a found message");
                    self.waiting[m] = None;
                    let bytes = msg.payload.len();
                    timing.recv(law, ranks[from], tag, msg.arrival, bytes, Leg::Data);
                    got = Some(msg.payload);
                }
                match program.next(got.take()) {
                    Step::Send(to, data) => {
                        let via = Inbox {
                            queue: &mut self.inbox[to],
                            from: m,
                            data,
                        };
                        timing.send(law, ranks[m], ranks[to], tag, data.len(), Leg::Data, via);
                        if self.waiting[to] == Some(m) && !self.queued[to] {
                            self.queued[to] = true;
                            self.ready.push(to);
                        }
                    }
                    Step::Recv(from) => self.waiting[m] = Some(from),
                    Step::Done => {
                        finished += 1;
                        break;
                    }
                }
            }
        }
        if finished < n {
            let stuck: Vec<String> = (0..n)
                .filter_map(|m| {
                    self.waiting[m].map(|from| format!("rank {} on rank {}", ranks[m], ranks[from]))
                })
                .collect();
            panic!(
                "collective on tag {tag:#x}: the members' programs wait on each other with no \
                 message in flight ({})",
                stuck.join(", ")
            );
        }
    }
}
