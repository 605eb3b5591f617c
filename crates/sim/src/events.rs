//! The run loop: a ready queue of rank continuations, executed one
//! slice at a time on the thread that called `Cluster::run*`.
//!
//! Every run is driven here. A rank is a schedulable continuation
//! (`cont.rs`), not an OS thread of its own making. A blocked receive
//! suspends the continuation with its `(virtual-time key, rank)`, and
//! the sender's `RunNet` wake hook makes that rank ready again. The
//! loop picks the next ready rank (see *Pick order*), resumes it until
//! it parks or finishes, and repeats — one rank slice at a time, so a
//! run occupies one host core, and host parallelism lives only in
//! `hcs_bench::sweep::SweepExecutor`, which runs independent clusters
//! side by side. The loop starts every rank through one
//! [`cont::Starter`] and gets one [`cont::Slice`] back per slice. On
//! the fiber backend a *fresh* rank runs on the starter's hot stack and
//! only becomes a [`Continuation`] (core box, dedicated stack) if it
//! actually parks — so a rank that never blocks costs two stack
//! switches and zero allocations.
//!
//! # Pick order
//!
//! The determinism argument (DESIGN.md §2) never relied on the order
//! ranks run in: arrival times are fixed at send time from the sender's
//! seeded RNG streams, and a receiver only proceeds once the specific
//! `(src, tag)` message it waits for is in hand. Any order that
//! respects those waits gives the same timelines, CSV rows and traces,
//! so the order is a host-side [`Order`], never a correctness input.
//! There are two, and both are pure functions of `(seed, plan)`:
//!
//! - **Heap order with the matched-wake handoff** (`EngineMode::Events`,
//!   the default).
//!   - *Heap.* A park carries the rank's virtual-time key, a wake puts
//!     `(key, rank)` on the ready heap, and the loop pops the minimum.
//!     Non-blocked ranks drain before long conversations continue,
//!     which keeps memory low.
//!   - *Handoff, by a direct switch.* A parked rank's wait edge in the
//!     run's wait-for graph names the `(src, tag)` it waits for, and a
//!     delivery of exactly that message says so
//!     ([`EventSched::wake_matched`]). Such a wake goes to the *handoff
//!     slot* instead of the heap. When rank R then parks on the rank S
//!     in the slot — R answered S and now waits for S's reply — S runs
//!     next and the heap is bypassed: the two sides of a ping-pong run
//!     back to back on hot stacks and inboxes instead of taking turns
//!     with every other live conversation. On the fiber backend R's
//!     park ([`park`]) records itself (key, one slice, one handoff) and
//!     switches straight to S's stack, which inherits the loop's return
//!     context (`cont::park`'s `to`): a ping-pong leg is
//!     one stack switch, and [`drive`] gets the thread back only when a
//!     slice ends some other way — then it settles whichever rank the
//!     chain ended on, parked or finished. Every parked fiber is a
//!     switch target, including a fresh rank's body still on the hot
//!     stack. The thread backend has no stacks to switch to, so its
//!     loop takes the same handoff itself, and both count and order the
//!     same slices. In every other case (R parked on someone else, R
//!     finished, a later matched wake displaced S from the slot) S
//!     moves to the heap under the key it parked with, exactly as a
//!     plain wake would have queued it. A panicking rank's wake of
//!     every rank never matches, and a deadline wait that a drain
//!     resolves is queued by the loop.
//! - **The reference order** (`EngineMode::Threads`, on the thread
//!   backend): the next rank is drawn uniformly from every woken or
//!   unstarted rank, from the run's `sched_scramble` stream, and no
//!   wake is ever a handoff. It is the differential oracle for the
//!   heap order: a run that agrees byte for byte under both did not
//!   depend on the order its ranks took turns in. A failure replays
//!   from the seed, like any run.
//!
//! # Wakes are never lost, by construction
//!
//! A rank checks its inbox, records its wait and parks, and nothing
//! else executes in between: on the fiber backend all of it happens on
//! the loop's thread, and the thread backend's strict handoff keeps the
//! loop blocked in `resume` while the body runs. So every `wake` finds
//! its target either parked (and queues it, in the ready queue or in
//! the handoff slot, which the next park or the loop empties before the
//! slice ends) or bound to re-check its inbox before it parks (a
//! no-op). A woken receiver re-checks its inbox on every resume.
//!
//! **Only the awaited delivery wakes.** The wait edge is registered
//! before a rank parks and stays until it resumes, so `RunNet::send`
//! wakes a parked rank for that `(src, tag)` only: any other envelope
//! waits in the inbox, unseen, until the rank receives it for its own
//! reasons. A panicking rank and a collective's release are not
//! deliveries, and still wake; a rank that finishes wakes no one.
//!
//! The same fact — one slice at a time, each ordered after the last by
//! the loop itself or by the thread backend's channel handshake — is
//! why a run's whole shared state (its inboxes, rendezvous slots and
//! this scheduler's ready state, [`EventSched`]) is one value behind one
//! [`RunLock`], a checked flag: the message path takes no mutex and no
//! atomic, and a send pushes and requeues under one guard. This module
//! holds the policy as plain data; [`drive`] and [`park`] reach it
//! through the run value's `AsMut<EventSched>`, and the engine's wake
//! hooks through the guard they already hold. A rank parks only
//! through [`park`], which consumes the guard, so no guard is alive
//! while another rank runs.
//!
//! # Deadlocks and stalls are found when the loop drains
//!
//! Only an executing rank can wake a parked one, so an empty ready
//! queue with unfinished ranks is the one state in which a deadlock is
//! proven, and the same in either order: receives are directed, so
//! every order drains to the same parked ranks with the same wait
//! edges, none of them holding an envelope that could release it. The
//! loop then runs one O(p) pass over those edges (`RunState::drained`
//! in `engine::net`). It first queues the deadline waits whose sender
//! has finished, in ascending rank order; each resolves as
//! `SenderFinished` when it resumes. With none, it fires the deadline waits on every wait cycle, in
//! ascending rank order, and queues them, or fails the run with a panic
//! naming a cycle without one (`deadlock detected`) or, with no cycle,
//! every parked rank (`run stalled`). A run that completes never
//! drains.

#[cfg(test)]
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cont::{self, Backend, Continuation, FiberRef, Slice, Starter};
use crate::lockutil::{RunGuard, RunLock};
use crate::rngx::Pcg64;

/// Orders `SimTime` seconds as a totally ordered unsigned key
/// (sign-magnitude floats → monotone integers), so the ready heap can
/// sort `(time, rank)` without a float `Ord` wrapper. Handles the
/// negative times a skewed local clock can produce.
// A heap sort key, deliberately not a time: never added, subtracted or
// compared against any clock domain, so the bare u64 return is correct.
#[rustfmt::skip]
pub(crate) fn time_key(seconds: f64) -> u64 { // xtask-allow: clockdomain — sort key, not a time
    let bits = seconds.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Host-side counters of one [`drive`] (the first two of ROADMAP item
/// 4's per-run statistics). Pure functions of `(seed, plan)`, so tests
/// pin the pick order with exact counts instead of timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RunStats {
    /// Rank slices executed: one per start or resume of a rank.
    pub(crate) slices: u64,
    /// Slices whose rank was taken from the handoff slot, bypassing the
    /// ready heap (see the module docs), whether by a direct switch or
    /// through the loop.
    pub(crate) handoffs: u64,
}

/// How [`drive`] picks the next ready rank (module docs).
pub(crate) enum Order {
    /// Heap order with the matched-wake handoff.
    Heap,
    /// A uniform draw from this stream over the woken and unstarted
    /// ranks, with no handoff: the reference order.
    Scrambled(Pcg64),
}

/// The ranks ready to run, in one of the two [`Order`]s.
enum Ready {
    Heap {
        /// Next initially-seeded rank not yet started. Every rank starts
        /// ready at virtual time zero, so this cursor *is* the
        /// `(key₀, rank)` run of the merged ready sequence — seeding n
        /// heap entries (and paying n log n pops) would buy nothing.
        seed_cursor: usize,
        /// Min-heap on `(virtual-time key, rank)` of *re-woken* ranks
        /// only; the rank tiebreak makes pop order fully deterministic
        /// for equal keys.
        heap: BinaryHeap<Reverse<(u64, usize)>>,
    },
    Scrambled {
        /// Every woken or unstarted rank, in no order. It starts with
        /// all of them, and a rank is here at most once, so its capacity
        /// is never outgrown: a pick does not allocate.
        ranks: Vec<usize>,
        rng: Pcg64,
    },
}

impl Ready {
    fn new(n: usize, order: Order) -> Self {
        match order {
            Order::Heap => Ready::Heap {
                seed_cursor: 0,
                heap: BinaryHeap::new(),
            },
            Order::Scrambled(rng) => Ready::Scrambled {
                ranks: (0..n).collect(),
                rng,
            },
        }
    }

    /// Queues `rank`, woken under `key`.
    fn push(&mut self, key: u64, rank: usize) {
        match self {
            Ready::Heap { heap, .. } => heap.push(Reverse((key, rank))),
            Ready::Scrambled { ranks, .. } => ranks.push(rank),
        }
    }

    /// Takes the next rank to run out of the queue, out of `n`. In heap
    /// order that is the true minimum of the re-woken heap merged with
    /// the `(key₀, seed_cursor)` virgin run: a woken key *can* sort
    /// before key₀ (skewed clocks produce negative virtual times), so
    /// this is a real two-way merge, not an exhaust-the-cursor-first
    /// shortcut.
    fn next(&mut self, n: usize) -> Option<usize> {
        match self {
            Ready::Heap { seed_cursor, heap } => {
                let seeded = *seed_cursor < n;
                match heap.peek() {
                    Some(&Reverse(top)) if !seeded || top < (time_key(0.0), *seed_cursor) => {
                        heap.pop();
                        Some(top.1)
                    }
                    _ if seeded => {
                        let rank = *seed_cursor;
                        *seed_cursor += 1;
                        Some(rank)
                    }
                    _ => None,
                }
            }
            Ready::Scrambled { ranks, rng } => {
                if ranks.is_empty() {
                    return None;
                }
                // The high half of a 64 × len product: uniform to within
                // len / 2^64.
                let at = ((u128::from(rng.next_u64()) * ranks.len() as u128) >> 64) as usize;
                Some(ranks.swap_remove(at))
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// How many times a [`drive`] on this thread got the thread back
    /// from a rank: once per slice it started, however many direct
    /// switches that slice's chain made.
    static LOOP_RETURNS: Cell<u64> = const { Cell::new(0) };
}

/// The per-run event scheduler's ready state: what the wake hooks, the
/// parking rank and [`drive`] share. Plain data, in the run's one state
/// value behind the run's one [`RunLock`] (module docs).
pub(crate) struct EventSched {
    n: usize,
    /// Continuation backend of the run's ranks.
    backend: Backend,
    /// The virtual-time key each rank is parked with; `None` while the
    /// rank is queued, executing or finished, where `wake` is a no-op.
    parked: Vec<Option<u64>>,
    /// Each rank's switch target, recorded when it parks on the fiber
    /// backend (always `None` on the thread backend, which has none).
    fibers: Vec<Option<FiberRef>>,
    /// The handoff slot: the `(key, rank)` most recently woken by a
    /// delivery of exactly the message it was parked on (heap order
    /// only). Filled only by the executing slice and emptied by the
    /// direct switch or by the loop when that slice ends, so it is
    /// always empty between slices.
    handoff: Option<(u64, usize)>,
    /// The rank executing now: the one the loop started or resumed, or
    /// the one the last direct switch moved to.
    current: usize,
    /// Whom the rank that last returned to the loop by parking waits
    /// for; set by [`park`], taken by the loop.
    parked_on: Option<usize>,
    /// The ranks ready to run.
    ready: Ready,
    /// This run's counters, kept by the loop and the direct switch.
    stats: RunStats,
}

impl EventSched {
    /// Seeds `n` ranks, all ready at virtual time zero, on `backend`,
    /// to be picked in `order`.
    pub(crate) fn new(n: usize, backend: Backend, order: Order) -> Self {
        EventSched {
            n,
            backend,
            parked: vec![None; n],
            fibers: vec![None; n],
            handoff: None,
            current: 0,
            parked_on: None,
            ready: Ready::new(n, order),
            stats: RunStats::default(),
        }
    }

    /// Wake hook for a state change a parked rank waits on (the awaited
    /// delivery, a peer's panic, a collective's release). Always safe
    /// to over-call: waking a rank that is not parked is a no-op, and a
    /// woken receiver simply re-checks its inbox.
    pub(crate) fn wake(&mut self, rank: usize) {
        self.requeue(rank, false);
    }

    /// [`EventSched::wake`] for the delivery of exactly the message
    /// `rank` is parked on (its wait edge): the rank goes to
    /// the handoff slot instead of the heap. An earlier occupant of the
    /// slot moves to the heap, as a plain wake would have queued it.
    pub(crate) fn wake_matched(&mut self, rank: usize) {
        self.requeue(rank, true);
    }

    fn requeue(&mut self, rank: usize, matched: bool) {
        let Some(key) = self.parked[rank].take() else {
            return;
        };
        let queued = if matched && matches!(self.ready, Ready::Heap { .. }) {
            self.handoff.replace((key, rank))
        } else {
            Some((key, rank))
        };
        if let Some((key, rank)) = queued {
            self.ready.push(key, rank);
        }
    }
}

/// Parks the executing rank under the virtual-time `key`, waiting for
/// a message from `awaited` (or, in a collective rendezvous, for no one
/// rank), until it is woken and resumed. `guard` is the caller's guard
/// of the run's state: the park is recorded under it, and it is gone
/// before the rank leaves its slice. If `awaited` sits in the handoff
/// slot, this park *is* the handoff (module docs): on the fiber backend
/// it is recorded here and the rank switches straight to `awaited`'s
/// stack; otherwise the loop takes it.
pub(crate) fn park<S: AsMut<EventSched>>(
    mut guard: RunGuard<'_, S>,
    key: u64,
    awaited: Option<usize>,
) {
    let st = guard.as_mut();
    let me = st.current;
    let fiber = cont::current_fiber();
    st.fibers[me] = fiber;
    let target = match st.handoff {
        Some((_, next)) if Some(next) == awaited && fiber.is_some() => {
            st.fibers[next].map(|target| (next, target))
        }
        _ => None,
    };
    let to = match target {
        None => {
            st.parked_on = awaited;
            None
        }
        Some((next, target)) => {
            st.handoff = None;
            st.parked[me] = Some(key);
            st.current = next;
            st.stats.slices += 1;
            st.stats.handoffs += 1;
            Some(target)
        }
    };
    // SAFETY: `to` was recorded by the handed-off rank's own park on
    // this thread, and that rank has not run since — a rank leaves the
    // handoff slot only by being run — so it is a parked fiber whose
    // continuation the loop still owns.
    unsafe { cont::park(guard, key, to) };
}

/// What the drain pass of [`drive`] decides: the parked ranks to queue
/// again, or the run's failure message.
pub(crate) type Drained = Result<Vec<usize>, String>;

/// Runs the scheduler of the run state behind `run` to completion on
/// the calling thread, starting each rank as `body(rank)`: take the
/// handed-off rank or else the next in pick order, run it until the
/// thread comes back — the rank, or the last rank of a chain of direct
/// switches, parked or finished — and record that outcome: one guard of
/// the run state per return, never alive while a rank executes. Then
/// re-throws the first panic that escaped a rank body, if any (engine
/// bodies catch rank panics themselves, so that is a bug trap, not a
/// normal path); the queue is still drained first, so ranks that can
/// finish do.
///
/// When no rank is ready and some are unfinished, `drained` gets the
/// run state and the parked ranks, ascending, and returns the ones for
/// the loop to queue again, each under the key it parked with, or the
/// run's failure message (module docs).
///
/// # Panics
/// Panics with `drained`'s message. The parked continuations are then
/// dropped without ever being resumed again: a fiber's stack is freed
/// without unwinding and a thread-backed rank's OS thread stays blocked
/// until process exit, so whatever the parked bodies own leaks. A
/// deadlocked or stalled program is a bug to fix, not a state to
/// recover memory from.
pub(crate) fn drive<S: AsMut<EventSched>>(
    run: &RunLock<S>,
    body: &(dyn Fn(usize) + Sync),
    drained: fn(&mut S, &[usize]) -> Drained,
) -> RunStats {
    let mut state = run.acquire();
    let st = state.as_mut();
    let (n, mut starter) = (st.n, Starter::new(st.backend));
    // The continuation of each rank that has parked at least once and
    // is not executing. Ranks that never park never materialize one:
    // on the fiber backend their body runs on the starter's hot stack.
    let mut conts: Vec<Option<Continuation>> = (0..n).map(|_| None).collect();
    let mut finished = 0;
    let mut first_panic = None;
    // The rank the last slice handed off to, if any.
    let mut handed: Option<usize> = None;
    while finished < n {
        let st = state.as_mut();
        let Some(rank) = handed.take().or_else(|| st.ready.next(n)) else {
            if first_panic.is_some() {
                break;
            }
            let parked: Vec<usize> = (0..n).filter(|&r| st.parked[r].is_some()).collect();
            let queued = drained(&mut state, &parked).unwrap_or_else(|msg| panic!("{msg}"));
            let st = state.as_mut();
            for rank in queued {
                let key = st.parked[rank].take().expect("a queued rank is parked");
                st.ready.push(key, rank);
            }
            continue;
        };
        st.current = rank;
        st.stats.slices += 1;
        drop(state);
        let mut slice = match conts[rank].take() {
            Some(cont) => cont.resume(),
            // SAFETY: the body borrows `body` for this call, and every
            // continuation lives in `conts`, which this call drops
            // before it returns or unwinds: a finished one is reaped, a
            // parked one (a stalled run) dropped or detached without
            // ever running again.
            None => unsafe { starter.start(|| body(rank)) },
        };
        #[cfg(test)]
        LOOP_RETURNS.with(|n| n.set(n.get() + 1));
        state = run.acquire();
        let st = state.as_mut();
        // A chain of direct switches ends on the rank current now; the
        // rank the loop ran parked on its way, and that park is on
        // record. (Settling the last one may return its stack to the
        // pool.)
        let last = st.current;
        if last != rank {
            let Slice::Parked { cont, .. } = slice else {
                unreachable!("a rank that switched away is parked");
            };
            conts[rank] = Some(cont);
            slice = conts[last]
                .take()
                .expect("a switch target is a parked continuation")
                .returned();
        }
        match slice {
            Slice::Finished { panic } => {
                finished += 1;
                st.fibers[last] = None;
                first_panic = first_panic.or(panic);
            }
            Slice::Parked { cont, key } => {
                conts[last] = Some(cont);
                st.parked[last] = Some(key);
            }
        }
        // Matched-wake handoff through the loop (module docs): the
        // slice delivered to `next` the message it was parked on and
        // now waits for `next` in turn. Anything else in the slot is an
        // ordinary wake.
        let parked_on = st.parked_on.take();
        if let Some((key, next)) = st.handoff.take() {
            if parked_on == Some(next) {
                handed = Some(next);
                st.stats.handoffs += 1;
            } else {
                st.ready.push(key, next);
            }
        }
    }
    let stats = state.as_mut().stats;
    drop(state);
    if let Some(p) = first_panic {
        std::panic::resume_unwind(p);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cont::tests::{recycled_stacks, test_backends};
    use crate::lockutil::lock_ignore_poison;
    use crate::EngineMode;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    /// One rank's test body.
    type Job = Box<dyn FnOnce() + Send + 'static>;

    /// The run state of the scheduler tests: the ready state alone,
    /// behind a lock of its own.
    type Sched = Arc<RunLock<EventSched>>;

    impl AsMut<EventSched> for EventSched {
        fn as_mut(&mut self) -> &mut EventSched {
            self
        }
    }

    /// Parks the calling test rank under `key`, awaiting no one rank.
    fn park_on(sched: &Sched, key: f64) {
        park(sched.acquire(), time_key(key), None);
    }

    /// The scheduler a test installed in `slot` before its run.
    fn sched_of(slot: &Mutex<Option<Sched>>) -> Sched {
        lock_ignore_poison(slot)
            .clone()
            .expect("installed before the run")
    }

    /// A heap-order scheduler for one rank per job, and the body that
    /// runs each rank's own job exactly once.
    fn sched_from_jobs(jobs: Vec<Job>) -> (Sched, impl Fn(usize) + Sync) {
        sched_on(jobs, Backend::from_env())
    }

    fn sched_on(jobs: Vec<Job>, backend: Backend) -> (Sched, impl Fn(usize) + Sync) {
        let n = jobs.len();
        let cells: Vec<Mutex<Option<Job>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let body = move |rank: usize| {
            let job = lock_ignore_poison(&cells[rank])
                .take()
                .expect("each rank runs exactly once");
            job();
        };
        let sched = EventSched::new(n, backend, Order::Heap);
        // SAFETY: only `drive` executes the jobs, one slice at a time,
        // and no job holds a guard across a park.
        (Arc::new(unsafe { RunLock::new("test.sched", sched) }), body)
    }

    /// Drives a scheduler whose ranks park outside any receive (they
    /// name no awaited rank, so no handoffs).
    fn drive_bare(sched: &RunLock<EventSched>, body: &(dyn Fn(usize) + Sync)) {
        drive(sched, body, |_, _| Err("stalled".to_string()));
    }

    fn run_jobs(jobs: Vec<Job>) {
        let (sched, body) = sched_from_jobs(jobs);
        drive_bare(&sched, &body);
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let hits = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = (0..100)
            .map(|_| {
                let hits = Arc::clone(&hits);
                let job: Job = Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
                job
            })
            .collect();
        run_jobs(jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn empty_job_list_returns_immediately() {
        run_jobs(Vec::new());
    }

    #[test]
    fn wake_restores_a_parked_continuation() {
        // Job 0 parks once; job 1 wakes it through the scheduler. The
        // executor must deliver the wake even though job 1 runs (and
        // wakes) while job 0 may still be publishing its park.
        let sched0: Arc<Mutex<Option<Sched>>> = Arc::new(Mutex::new(None));
        let hits = Arc::new(AtomicUsize::new(0));
        let (s0, s1) = (Arc::clone(&sched0), Arc::clone(&sched0));
        let h0 = Arc::clone(&hits);
        let h1 = Arc::clone(&hits);
        let jobs: Vec<Job> = vec![
            Box::new(move || {
                park_on(&sched_of(&s0), 1.0);
                h0.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(move || {
                sched_of(&s1).acquire().wake(0);
                h1.fetch_add(1, Ordering::SeqCst);
            }),
        ];
        let (sched, body) = sched_from_jobs(jobs);
        *lock_ignore_poison(&sched0) = Some(Arc::clone(&sched));
        drive_bare(&sched, &body);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn ready_queue_pops_in_virtual_time_then_rank_order() {
        // Ranks 0..4 seed at key 0 and run in rank order;
        // each parks at a key that *reverses* the rank order. Rank 4
        // then wakes everyone — the drain must follow the keys.
        let order = Arc::new(Mutex::new(Vec::new()));
        let slot: Arc<Mutex<Option<Sched>>> = Arc::new(Mutex::new(None));
        let n = 4usize;
        let mut jobs: Vec<Job> = (0..n)
            .map(|r| {
                let (order, slot) = (Arc::clone(&order), Arc::clone(&slot));
                let job: Job = Box::new(move || {
                    lock_ignore_poison(&order).push(("start", r));
                    park_on(&sched_of(&slot), (n - r) as f64);
                    lock_ignore_poison(&order).push(("end", r));
                });
                job
            })
            .collect();
        let waker = Arc::clone(&slot);
        jobs.push(Box::new(move || {
            let sched = sched_of(&waker);
            for rank in 0..n {
                sched.acquire().wake(rank);
            }
        }));
        let (sched, body) = sched_from_jobs(jobs);
        *lock_ignore_poison(&slot) = Some(Arc::clone(&sched));
        drive_bare(&sched, &body);
        let got = lock_ignore_poison(&order).clone();
        let starts: Vec<usize> = got
            .iter()
            .filter(|(w, _)| *w == "start")
            .map(|&(_, r)| r)
            .collect();
        assert_eq!(starts, vec![0, 1, 2, 3], "seeded order is rank order");
        let ends: Vec<usize> = got
            .iter()
            .filter(|(w, _)| *w == "end")
            .map(|&(_, r)| r)
            .collect();
        assert_eq!(ends, vec![3, 2, 1, 0], "wakeups drain in key order");
    }

    #[test]
    fn host_execution_order_is_a_pure_function_of_the_program() {
        // Ranks 0..n log every slice they execute around two parks; a
        // last rank wakes them all, parks behind them (largest key) and
        // wakes them all again. The logged host order must not depend
        // on the run or on the continuation backend.
        fn logged_order(backend: Backend) -> Vec<(usize, usize)> {
            let log = Arc::new(Mutex::new(Vec::new()));
            let slot: Arc<Mutex<Option<Sched>>> = Arc::new(Mutex::new(None));
            let n = 6usize;
            let mut jobs: Vec<Job> = (0..n)
                .map(|r| {
                    let (log, slot) = (Arc::clone(&log), Arc::clone(&slot));
                    let job: Job = Box::new(move || {
                        for slice in 0..3 {
                            lock_ignore_poison(&log).push((r, slice));
                            if slice < 2 {
                                // Keys interleave the ranks differently
                                // in each round; woken, a rank wakes the
                                // driver (a no-op after the first).
                                let key = ((r * 5 + slice * 3) % n) as f64;
                                park_on(&sched_of(&slot), key);
                                sched_of(&slot).acquire().wake(n);
                            }
                        }
                    });
                    job
                })
                .collect();
            let (dlog, dslot) = (Arc::clone(&log), Arc::clone(&slot));
            jobs.push(Box::new(move || {
                let sched = sched_of(&dslot);
                for round in 0..2 {
                    lock_ignore_poison(&dlog).push((n, round));
                    (0..n).for_each(|rank| sched.acquire().wake(rank));
                    if round == 0 {
                        park_on(&sched, 100.0);
                    }
                }
            }));
            let (sched, body) = sched_on(jobs, backend);
            *lock_ignore_poison(&slot) = Some(Arc::clone(&sched));
            drive_bare(&sched, &body);
            // Break the slot → scheduler → body → slot cycle.
            *lock_ignore_poison(&slot) = None;
            let order = lock_ignore_poison(&log).clone();
            order
        }
        let backends = test_backends();
        let first = logged_order(backends[0]);
        assert_eq!(first.len(), 6 * 3 + 2);
        assert_eq!(first, logged_order(backends[0]), "second run");
        for &backend in &backends[1..] {
            assert_eq!(first, logged_order(backend), "{backend:?} backend");
        }
    }

    /// An events-pinned cluster of `nodes` × 8 ranks for the
    /// handoff-policy tests, which run whole programs through `RunNet`
    /// and `RankCtx` because the rule lives in their cooperation with
    /// the scheduler.
    fn events_cluster(nodes: usize) -> crate::Cluster {
        crate::machines::testbed(nodes, 8)
            .cluster(11)
            .to_builder()
            .engine(EngineMode::Events)
            .build()
    }

    /// Ranks 0 and 1 ping-pong `TRIPS` times while ranks 2..32 sit
    /// ready in the seed cursor (each is one slice: it never blocks).
    /// Returns the host order of the pair's slices and the counters.
    fn ping_pong_beside_ready_ranks(
        cluster: &crate::Cluster,
        backend: Backend,
    ) -> (Vec<u32>, RunStats) {
        const TRIPS: u32 = 1000;
        let order = Mutex::new(Vec::new());
        let body = |ctx: &mut crate::RankCtx| {
            let me = ctx.rank();
            if me > 1 {
                ctx.compute(crate::secs(1e-6));
                return;
            }
            for trip in 0..TRIPS {
                lock_ignore_poison(&order).push(trip << 1 | me as u32);
                if me == 0 {
                    ctx.send_t::<u32>(1, 5, trip);
                    assert_eq!(ctx.recv_t::<u32>(1, 6), trip);
                } else {
                    let got = ctx.recv_t::<u32>(0, 5);
                    ctx.send_t::<u32>(0, 6, got);
                }
            }
        };
        let (_, _, stats) = cluster.run_counted(backend, &body);
        let order = std::mem::take(&mut *lock_ignore_poison(&order));
        (order, stats)
    }

    #[test]
    fn ping_pong_runs_as_handoffs_in_a_reproducible_host_order() {
        let cluster = events_cluster(4);
        let backends = test_backends();
        let (order, stats) = ping_pong_beside_ready_ranks(&cluster, backends[0]);
        assert_eq!(order.len(), 2000);
        // Under the heap rule alone the 30 virgin ranks (key₀) would
        // run before the pair's first wake; with the handoff the pair
        // talks to the end first, so nearly every slice of it bypasses
        // the heap.
        let pair_slices = stats.slices - 30;
        assert!(pair_slices >= 2000, "{stats:?}");
        assert!(stats.handoffs * 100 >= pair_slices * 99, "{stats:?}");
        let again = ping_pong_beside_ready_ranks(&cluster, backends[0]);
        assert_eq!((&order, stats), (&again.0, again.1), "second run");
        for &backend in &backends[1..] {
            let other = ping_pong_beside_ready_ranks(&cluster, backend);
            assert_eq!((&order, stats), (&other.0, other.1), "{backend:?} backend");
        }
    }

    /// How the last rank of [`chain_run`]'s chain ends.
    #[derive(Clone, Copy, PartialEq)]
    enum ChainEnd {
        Finish,
        Panic,
    }

    /// What [`chain_run`] observed: the run's results or root-cause
    /// panic message, the per-rank log, the counters, and how often the
    /// loop got the thread back and fiber stacks went back to the pool
    /// during the run.
    type ChainRun = (Result<Vec<u32>, String>, Vec<String>, RunStats, u64, u64);

    /// Ranks 0 and 1 ping-pong `TRIPS` times beside six bystanders.
    /// Rank 0 parks first, so rank 1 — fresh, on the starter's hot stack —
    /// starts a chain of direct switches on its second receive, and
    /// the chain switches back to it before the loop ever promotes it.
    /// After the last reply rank 1 waits for one more message, so the
    /// chain's last rank is rank 0: it sends that message and rank 2's,
    /// then finishes, or it panics instead. Ranks 1 and 2 log what
    /// their last receive got.
    fn chain_run(backend: Backend, end: ChainEnd) -> ChainRun {
        const TRIPS: u32 = 500;
        let log = Mutex::new(Vec::new());
        let body = |ctx: &mut crate::RankCtx| {
            let me = ctx.rank();
            let last_recv = |ctx: &mut crate::RankCtx, tag| {
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ctx.recv_t::<u32>(0, tag)
                }));
                let entry = match got {
                    Ok(v) => format!("rank {me} got {v}"),
                    Err(p) => format!("rank {me}: {}", p.downcast_ref::<String>().unwrap()),
                };
                lock_ignore_poison(&log).push(entry);
            };
            match me {
                0 => {
                    for trip in 0..TRIPS {
                        ctx.send_t::<u32>(1, 5, trip);
                        assert_eq!(ctx.recv_t::<u32>(1, 6), trip);
                    }
                    if end == ChainEnd::Panic {
                        panic!("chain end bug");
                    }
                    ctx.send_t::<u32>(1, 7, 77);
                    ctx.send_t::<u32>(2, 9, 99);
                }
                1 => {
                    for _ in 0..TRIPS {
                        let got = ctx.recv_t::<u32>(0, 5);
                        ctx.send_t::<u32>(0, 6, got);
                    }
                    last_recv(ctx, 7);
                }
                2 => last_recv(ctx, 9),
                _ => {}
            }
            me as u32 * 10
        };
        let (returns, recycled) = (counter_now(&LOOP_RETURNS), recycled_stacks());
        let (run, stats) = events_cluster(1).run_settled((backend, Order::Heap), &body);
        let run = run.map(|(out, _)| out).map_err(|p| {
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .expect("the root cause panics with a literal")
        });
        let log = std::mem::take(&mut *lock_ignore_poison(&log));
        let returns = counter_now(&LOOP_RETURNS) - returns;
        (run, log, stats, returns, recycled_stacks() - recycled)
    }

    fn counter_now(counter: &'static std::thread::LocalKey<Cell<u64>>) -> u64 {
        counter.with(Cell::get)
    }

    /// Runs [`chain_run`] on each available backend, checks they agree
    /// on everything but the loop returns and the stacks, and returns
    /// the first backend (fibers, where available) with its run.
    fn chain_run_on_each_backend(end: ChainEnd) -> (Backend, ChainRun) {
        let mut runs: Vec<(Backend, ChainRun)> = test_backends()
            .into_iter()
            .map(|backend| (backend, chain_run(backend, end)))
            .collect();
        let first = &runs[0].1;
        for (backend, run) in &runs {
            assert_eq!(
                (&run.0, &run.1, run.2),
                (&first.0, &first.1, first.2),
                "{backend:?} backend"
            );
            if *backend == Backend::Thread {
                // The thread backend takes every slice through the loop
                // and runs on no fiber stack.
                assert_eq!((run.3, run.4), (run.2.slices, 0), "{:?}", run.2);
            }
        }
        runs.swap_remove(0)
    }

    #[test]
    fn a_chain_that_ends_in_a_finish_delivers_its_result_and_reaps_its_stack() {
        let (backend, (run, log, stats, _, recycled)) = chain_run_on_each_backend(ChainEnd::Finish);
        assert_eq!(run, Ok((0..8).map(|r| r * 10).collect()));
        assert_eq!(log, ["rank 2 got 99", "rank 1 got 77"]);
        // Every leg after rank 1's first reply is a handoff.
        assert_eq!(stats.handoffs, 999, "{stats:?}");
        if backend == Backend::Fiber {
            // Ranks 0 and 1 parked, so both ran on stacks of their own,
            // and both went back to the pool as their ranks finished:
            // rank 0's when its chain ended, rank 1's after its resume.
            // The hot stack the bystanders ran on went back as the run
            // loop's starter dropped.
            assert_eq!(recycled, 3);
        }
    }

    #[test]
    fn a_chain_that_ends_in_a_panic_rethrows_the_root_cause_and_poisons_peers() {
        let (backend, (run, log, stats, _, recycled)) = chain_run_on_each_backend(ChainEnd::Panic);
        assert_eq!(run, Err("chain end bug".to_string()));
        let poisoned = |r: usize| {
            format!(
                "rank {r}: rank {r}: peer rank 0 panicked while this rank was receiving (src 0, \
                 tag {})",
                if r == 1 { 7 } else { 9 }
            )
        };
        assert_eq!(log, [poisoned(2), poisoned(1)]);
        // Every leg after rank 1's first reply is a handoff.
        assert_eq!(stats.handoffs, 999, "{stats:?}");
        if backend == Backend::Fiber {
            assert_eq!(recycled, 3);
        }
    }

    #[test]
    fn a_chain_starts_on_the_hot_fiber_and_switches_to_every_parked_fiber() {
        let (backend, (_, _, stats, returns, _)) = chain_run_on_each_backend(ChainEnd::Finish);
        if backend == Backend::Fiber {
            // Every handoff was a direct switch, including the ones to
            // rank 1 while it was still parked on the hot stack: the
            // loop got the thread back once per other slice only.
            // Once for rank 0's first park, once for the chain, once
            // for each bystander and once for rank 1's last resume.
            assert_eq!(returns, stats.slices - stats.handoffs, "{stats:?}");
            assert_eq!(returns, 9, "{stats:?}");
        }
    }

    #[test]
    fn a_run_where_no_rank_parks_recycles_the_hot_stack() {
        // Every rank runs to completion on the loop's hot stack, which
        // goes back to the pool, canary checked, when the run ends.
        for backend in test_backends() {
            let before = recycled_stacks();
            let (out, _, stats) =
                events_cluster(1).run_counted(backend, &|ctx: &mut crate::RankCtx| ctx.rank());
            assert_eq!(out, Vec::from_iter(0..8));
            assert_eq!(stats.slices, 8, "no rank parked: {stats:?}");
            let want = if backend == Backend::Fiber { 1 } else { 0 };
            assert_eq!(recycled_stacks() - before, want, "{backend:?} backend");
        }
    }

    #[test]
    fn a_matching_delivery_alone_does_not_hand_off() {
        // Rank 1 delivers exactly what rank 0 is parked on, then parks
        // on rank 2: no handoff, rank 0 comes back through the heap.
        // Rank 2 delivers exactly what rank 1 is parked on, then
        // finishes: no handoff either. Ranks 3..32 are bystanders.
        let order = Mutex::new(Vec::new());
        let body = |ctx: &mut crate::RankCtx| {
            let me = ctx.rank();
            match me {
                0 => ctx.recv_t::<u32>(1, 1),
                1 => {
                    ctx.send_t::<u32>(0, 1, 10);
                    ctx.recv_t::<u32>(2, 2)
                }
                2 => {
                    ctx.send_t::<u32>(1, 2, 20);
                    0
                }
                _ => return,
            };
            lock_ignore_poison(&order).push(me);
        };
        let (_, _, stats) = events_cluster(4).run_counted(Backend::from_env(), &body);
        // 32 first slices plus one resume each for ranks 0 and 1.
        assert_eq!(
            stats,
            RunStats {
                slices: 34,
                handoffs: 0
            }
        );
        // Heap order as ever: rank 0 parked at key₀ with a lower rank
        // than the seed cursor, so it resumes before rank 2 starts.
        assert_eq!(*lock_ignore_poison(&order), vec![0, 2, 1]);
    }

    #[test]
    fn a_delivery_the_parked_rank_does_not_wait_for_leaves_it_parked() {
        // Rank 1 parks on (0, tag 2). Rank 0, resumed by rank 2, sends
        // it tag 1 first and parks on rank 3, which has not started:
        // only the awaited delivery wakes a parked rank, so rank 1 stays
        // parked until tag 2 arrives and resumes exactly once. Ranks
        // 4..8 are bystanders.
        let body = |ctx: &mut crate::RankCtx| match ctx.rank() {
            0 => {
                ctx.recv_t::<u32>(2, 3);
                ctx.send_t::<u32>(1, 1, 10);
                ctx.recv_t::<u32>(3, 5);
                ctx.send_t::<u32>(1, 2, 20);
            }
            1 => assert_eq!(ctx.recv_t::<u32>(0, 2) + ctx.recv_t::<u32>(0, 1), 30),
            2 => ctx.send_t::<u32>(0, 3, 0),
            3 => ctx.send_t::<u32>(0, 5, 0),
            _ => {}
        };
        let (_, _, stats) = events_cluster(1).run_counted(Backend::from_env(), &body);
        // 8 first slices, two resumes of rank 0 and one of rank 1.
        assert_eq!(
            stats,
            RunStats {
                slices: 11,
                handoffs: 0
            }
        );
    }

    #[test]
    fn recursive_doubling_keeps_its_slice_count() {
        // All 64 ranks exchange with `me ^ 2^k` round after round, so a
        // rank's partner changes every round and every rank is runnable
        // at once. Running woken partners ahead of the heap order (pure
        // LIFO) makes them park again on every round; the mutual-wait
        // rule must leave this workload's slice count alone.
        //
        // The heap-only count: a rank sends and then receives without
        // parking in between, so of the two receives of each exchange
        // exactly one parks — the one whose rank ran first; its partner
        // then sends (the awaited delivery, which wakes it) and finds
        // the reply already queued. Only the awaited delivery wakes a
        // parked rank, so every park costs exactly one resume: 64 first
        // slices plus one per exchange, 64 · 50 · 6 / 2 of them.
        const HEAP_ONLY_SLICES: u64 = 64 + 64 * 50 * 6 / 2;
        let cluster = events_cluster(8);
        let body = |ctx: &mut crate::RankCtx| {
            let me = ctx.rank();
            let mut acc = me as u64;
            for iter in 0..50u32 {
                ctx.compute(crate::secs(1e-6 * ((me % 5) as f64 + 1.0)));
                for k in 0..6 {
                    let partner = me ^ (1 << k);
                    ctx.send_t::<u64>(partner, iter, acc);
                    acc = acc.wrapping_add(ctx.recv_t::<u64>(partner, iter));
                }
            }
            acc
        };
        let (sums, _, stats) = cluster.run_counted(Backend::from_env(), &body);
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "allreduce agrees");
        let drift = stats.slices.abs_diff(HEAP_ONLY_SLICES);
        assert!(
            drift * 50 <= HEAP_ONLY_SLICES,
            "{stats:?} vs {HEAP_ONLY_SLICES} heap-only slices"
        );
    }

    /// A recursive-doubling exchange among 16 ranks on `mode` under the
    /// master seed `seed`; each rank logs itself before every exchange.
    /// Returns that host order, each rank's sum and final virtual time,
    /// and the counters.
    fn doubling_run(
        mode: EngineMode,
        seed: u64,
    ) -> (Vec<usize>, Vec<(u64, crate::SimTime)>, RunStats) {
        let cluster = crate::machines::testbed(2, 8)
            .cluster(seed)
            .to_builder()
            .engine(mode)
            .build();
        let log = Mutex::new(Vec::new());
        let body = |ctx: &mut crate::RankCtx| {
            let me = ctx.rank();
            let mut acc = me as u64;
            for k in 0..4 {
                lock_ignore_poison(&log).push(me);
                let partner = me ^ (1 << k);
                ctx.send_t::<u64>(partner, k, acc);
                acc += ctx.recv_t::<u64>(partner, k);
            }
            (acc, ctx.now())
        };
        let (out, _, stats) = cluster.run_counted(Backend::Thread, &body);
        let log = std::mem::take(&mut *lock_ignore_poison(&log));
        (log, out, stats)
    }

    #[test]
    fn the_reference_order_makes_no_handoffs_and_replays_from_the_seed() {
        let (log, out, stats) = doubling_run(EngineMode::Threads, 3);
        assert_eq!(log.len(), 64);
        assert_eq!(stats.handoffs, 0, "{stats:?}");
        let again = doubling_run(EngineMode::Threads, 3);
        assert_eq!((&log, &out, stats), (&again.0, &again.1, again.2), "rerun");
    }

    #[test]
    fn the_reference_order_follows_the_seed_and_the_outputs_do_not() {
        let (log_a, out_a, _) = doubling_run(EngineMode::Threads, 3);
        let (log_b, out_b, _) = doubling_run(EngineMode::Threads, 4);
        assert_ne!(log_a, log_b, "another seed, another order");
        let sums = |out: &[(u64, crate::SimTime)]| out.iter().map(|o| o.0).collect::<Vec<_>>();
        assert_eq!(sums(&out_a), vec![120; 16]);
        assert_eq!(sums(&out_a), sums(&out_b));
        // Either order gives the heap order's virtual times.
        for (seed, out) in [(3, &out_a), (4, &out_b)] {
            assert_eq!(
                out,
                &doubling_run(EngineMode::Events, seed).1,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn a_cycle_behind_a_ping_pong_fails_the_run_once_in_every_order() {
        // Ranks 0 and 1 ping-pong 1,000 trips while rank 2 is parked on
        // rank 0 all along, then close a genuine 3-cycle with it. The
        // run drains once, at its end, and fails with that cycle from
        // its lowest rank: the same message on every backend and in
        // every pick order.
        fn diagnosis(backend: Backend, order: Order) -> String {
            let body = |ctx: &mut crate::RankCtx| {
                let me = ctx.rank();
                if me > 2 {
                    return;
                }
                if me < 2 {
                    for trip in 0..1000u32 {
                        if me == 0 {
                            ctx.send_t::<u32>(1, 5, trip);
                            assert_eq!(ctx.recv_t::<u32>(1, 6), trip);
                        } else {
                            let got = ctx.recv_t::<u32>(0, 5);
                            ctx.send_t::<u32>(0, 6, got);
                        }
                    }
                }
                ctx.recv_t::<u32>((me + 1) % 3, 11 + me as u32);
            };
            let run = std::panic::AssertUnwindSafe(|| {
                events_cluster(1).run_settled((backend, order), &body)
            });
            let payload = std::panic::catch_unwind(run).expect_err("a receive cycle fails the run");
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("the diagnosis is a formatted message")
        }
        let want = "deadlock detected: rank 0 waiting on (src 1, tag 11) -> rank 1 waiting on \
                    (src 2, tag 12) -> rank 2 waiting on (src 0, tag 13) -> rank 0";
        for backend in test_backends() {
            assert_eq!(diagnosis(backend, Order::Heap), want, "{backend:?} backend");
        }
        for stream in 0..4 {
            let order =
                Order::Scrambled(Pcg64::stream(stream, crate::rngx::label::sched_scramble()));
            assert_eq!(
                diagnosis(Backend::Thread, order),
                want,
                "scramble stream {stream}"
            );
        }
    }

    #[test]
    fn body_panic_is_rethrown_by_drive() {
        let jobs: Vec<Job> = vec![Box::new(|| panic!("executor bug trap"))];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_jobs(jobs)))
            .expect_err("must rethrow");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("executor bug trap"), "{msg}");
    }

    #[test]
    fn time_key_is_monotone() {
        let xs = [-2.0, -1.0, -0.5, 0.0, 1e-12, 0.5, 1.0, 2.0, 1e9];
        for w in xs.windows(2) {
            assert!(time_key(w[0]) < time_key(w[1]), "{} vs {}", w[0], w[1]);
        }
    }
}
