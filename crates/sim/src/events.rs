//! The event-driven engine core: a virtual-time run queue of rank
//! continuations, executed by a run loop on the thread that called
//! `Cluster::run*`.
//!
//! In [`crate::EngineMode::Events`] a rank is a schedulable
//! continuation (`cont.rs`), not an OS thread. A blocked receive
//! suspends the continuation with its `(virtual-time key, rank)`, and
//! the sender's `RunNet` wake hook makes that pair ready again. The
//! loop picks the next ready rank (see *Determinism*), resumes it until
//! it parks or finishes, and repeats — one rank slice at a time, so a
//! run occupies one host core, and host parallelism lives only in
//! `hcs_bench::sweep::SweepExecutor`, which runs independent clusters
//! side by side. A *fresh* rank is cheaper still: its body runs inline
//! on the loop's hot fiber and only pays for a full [`Continuation`]
//! (core box, dedicated stack) if it actually parks — so a rank that
//! never blocks costs two stack switches and zero allocations.
//!
//! # Determinism
//!
//! The determinism argument (DESIGN.md §2) never relied on OS
//! scheduling: arrival times are fixed at send time from the sender's
//! seeded RNG streams, and a receiver only proceeds once the specific
//! `(src, tag)` message it waits for is in hand, so timelines, CSV rows
//! and traces are byte-identical to the thread-per-rank reference
//! engine (`tests/engine_equivalence.rs` enforces this differentially).
//! The reference engine lets the OS run ranks in *any* order that
//! respects those waits; one loop executing one slice at a time picks
//! one of these legal interleavings, so the order it picks is a
//! host-side *policy*, never a correctness input. The policy has two
//! rules, and both are pure functions of `(seed, plan)`:
//!
//! - **Heap order.** A park carries the rank's virtual-time key, a wake
//!   puts `(key, rank)` on the ready heap, and the loop pops the
//!   minimum. Non-blocked ranks drain before long conversations
//!   continue, which keeps memory low.
//! - **Matched-wake handoff.** A parked rank's wait edge in the run's
//!   wait-for graph names the `(src, tag)` it waits for, and a delivery
//!   that puts exactly that message into its mailbox says so
//!   ([`EventSched::wake_matched`]). Such a wake goes to the *handoff
//!   slot* instead of the heap. When the slice of rank R ends
//!   with R parked on the rank S in the slot — R answered S and now
//!   waits for S's reply — the loop resumes S next and the heap is
//!   bypassed: the two sides of a ping-pong run back to back on hot
//!   stacks and mailboxes instead of taking turns with every other live
//!   conversation. In every other case (R parked on someone else, R
//!   finished, a later matched wake displaced S from the slot) S moves
//!   to the heap under the key it parked with, exactly as a plain wake
//!   would have queued it. Completion, poison and deadline-fire wakes
//!   never match.
//!
//! # Wakes are never lost, by construction
//!
//! A rank checks its mailbox, records its wait and parks, and nothing
//! else executes in between: on the fiber backend all of it happens on
//! the loop's thread, and the thread backend's strict handoff keeps the
//! loop blocked in `resume` while the body runs. So every `wake` finds
//! its target either parked (and queues it, on the heap or in the
//! handoff slot, which the loop empties at the end of the same slice)
//! or bound to re-check its mailbox before it parks (a no-op). A woken
//! receiver re-checks its mailbox on every resume, so a wake that turns
//! out not to help costs one slice and nothing else.
//!
//! The same fact — one slice at a time, each ordered after the last by
//! the loop itself or by the thread backend's mutex/condvar handoff — is
//! why the run's mailboxes and this scheduler's ready state sit behind
//! the single-owner arm of `lockutil::RunLock`, a checked flag, and the
//! message path of an events run takes no mutex.
//!
//! # Stalls are diagnosed
//!
//! Only an executing rank can wake a parked one, so an empty ready
//! queue with unfinished ranks can never make progress again. The loop
//! fails such a run with a panic naming every parked rank
//! ([`EventSched::stall_report`]) instead of waiting.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

#[cfg(target_arch = "x86_64")]
use crate::cont::InlineRun;
use crate::cont::{self, Backend, Continuation, InlineFiber, Resume};
use crate::lockutil::RunLock;
use crate::waitgraph::WaitGraph;
use crate::EngineMode;

/// The shared per-rank body: the scheduler calls it once per rank. One
/// closure for the whole run (the engine's body is identical across
/// ranks up to the rank index), so seeding a run allocates nothing per
/// rank.
pub(crate) type RankBody = Box<dyn Fn(usize) + Send + Sync + 'static>;

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
/// pin the scheduling policy with exact counts instead of timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RunStats {
    /// Rank slices executed: one per start or resume of a rank.
    pub(crate) slices: u64,
    /// Slices whose rank was taken from the handoff slot, bypassing the
    /// ready heap (see the module docs).
    pub(crate) handoffs: u64,
}

/// What the `RunNet` wake hooks share with the run loop.
struct ReadyState {
    /// The virtual-time key each rank is parked with; `None` while the
    /// rank is queued, executing or finished, where `wake` is a no-op.
    parked: Vec<Option<u64>>,
    /// The handoff slot: the `(key, rank)` most recently woken by a
    /// delivery of exactly the message it was parked on. Filled only by
    /// the executing slice and emptied by the loop when that slice
    /// ends, so it is always empty between slices.
    handoff: Option<(u64, usize)>,
    /// Next initially-seeded rank not yet started. Every rank starts
    /// ready at virtual time zero, so this cursor *is* the
    /// `(key₀, rank)` run of the merged ready sequence — seeding n
    /// heap entries (and paying n log n pops) would buy nothing.
    seed_cursor: usize,
    /// Min-heap on `(virtual-time key, rank)` of *re-woken* ranks only;
    /// the rank tiebreak makes pop order fully deterministic for equal
    /// keys.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
}

impl ReadyState {
    /// Pops the earliest ready rank: the true minimum of the re-woken
    /// heap merged with the `(key₀, seed_cursor)` virgin run. A woken
    /// key *can* sort before key₀ (skewed clocks produce negative
    /// virtual times), so this is a real two-way merge, not an
    /// exhaust-the-cursor-first shortcut.
    fn next_ready(&mut self) -> Option<usize> {
        let seeded = self.seed_cursor < self.parked.len();
        match self.ready.peek() {
            Some(&Reverse(top)) if !seeded || top < (time_key(0.0), self.seed_cursor) => {
                self.ready.pop();
                Some(top.1)
            }
            _ if seeded => {
                let rank = self.seed_cursor;
                self.seed_cursor += 1;
                Some(rank)
            }
            _ => None,
        }
    }
}

/// Result of one rank's execution slice.
enum Outcome {
    /// The body returned (inline dispatch carries any panic payload
    /// directly — there may never have been a `Continuation` to ask).
    Finished { panic: Option<Box<dyn Any + Send>> },
    /// The body parked with `key`; `cont` resumes it later.
    Parked { cont: Continuation, key: u64 },
}

/// The per-run event scheduler: the run loop plus the `wake` hook. The
/// ready state has one owner at a time — the loop between slices, the
/// executing rank's `wake` calls during one — so its lock is the
/// single-owner arm of [`RunLock`]: a checked flag, not a mutex.
pub(crate) struct EventSched {
    // lock-order: events.sched level=15
    runq: RunLock<ReadyState>,
    n: usize,
    /// The shared rank body (see [`RankBody`]).
    body: RankBody,
    /// Continuation backend for ranks that park.
    backend: Backend,
}

impl EventSched {
    /// Seeds `n` ranks, all ready at virtual time zero (started in rank
    /// order via the seed cursor); each runs `body(rank)` once.
    pub(crate) fn new(n: usize, body: RankBody, backend: Backend) -> Self {
        // Without the fiber backend every continuation is thread-backed.
        #[cfg(not(target_arch = "x86_64"))]
        let backend = Backend::Thread;
        let ready = ReadyState {
            parked: vec![None; n],
            handoff: None,
            seed_cursor: 0,
            ready: BinaryHeap::new(),
        };
        EventSched {
            // SAFETY: `runq` is used by `drive`, which holds no guard
            // while a rank executes, and by `requeue`, which only the
            // rank `drive` is executing reaches (through `RunNet::wake`
            // or directly). Slices run one at a time — on the loop's
            // thread under the fiber backend, behind the `events.cont`
            // mutex/condvar handoff under the thread backend — so all
            // uses are ordered by happens-before, and no guard lives
            // across a `suspend_current` (module docs).
            runq: unsafe { RunLock::new(EngineMode::Events, "events.sched", 15, ready) },
            n,
            body,
            backend,
        }
    }

    /// Parks the calling rank until it is woken: suspends its
    /// continuation with the virtual-time `key`. The caller must hold no
    /// lock guard (see `cont::suspend_current`).
    pub(crate) fn park(&self, key: u64) {
        cont::suspend_current(key);
    }

    /// Wake hook called by `RunNet` after any state change a parked
    /// receiver might be waiting on (message delivery, rank completion,
    /// deadline-cycle firing). Always safe to over-call: waking a rank
    /// that is not parked is a no-op, and a woken receiver simply
    /// re-checks its mailbox.
    pub(crate) fn wake(&self, rank: usize) {
        self.requeue(rank, false);
    }

    /// [`EventSched::wake`] for the delivery of exactly the message
    /// `rank` is parked on (its wait edge): the rank goes to
    /// the handoff slot instead of the heap. An earlier occupant of the
    /// slot moves to the heap, as a plain wake would have queued it.
    pub(crate) fn wake_matched(&self, rank: usize) {
        self.requeue(rank, true);
    }

    fn requeue(&self, rank: usize, matched: bool) {
        let mut st = self.runq.acquire();
        let Some(key) = st.parked[rank].take() else {
            return;
        };
        let queued = if matched {
            st.handoff.replace((key, rank))
        } else {
            Some((key, rank))
        };
        if let Some(entry) = queued {
            st.ready.push(Reverse(entry));
        }
    }

    /// Runs one *fresh* rank: inline on the loop's hot fiber when the
    /// run uses the fiber backend, through a thread continuation
    /// otherwise.
    fn start_rank(&self, rank: usize, hot: &mut InlineFiber) -> Outcome {
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::Fiber {
            return match hot.run(|| (self.body)(rank)) {
                InlineRun::Finished { panic } => Outcome::Finished { panic },
                InlineRun::Parked { cont, key } => Outcome::Parked { cont, key },
            };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = hot;
        let body: &RankBody = &self.body;
        let entry: Box<dyn FnOnce() + Send + '_> = Box::new(move || body(rank));
        // SAFETY: the entry borrows `self.body`, which lives until the
        // `EventSched` drops — strictly after `drive` returned, and
        // `drive` returns only once this rank's continuation finished
        // (or will never run again: a parked continuation abandoned by
        // the panic wind-down stays suspended forever, so the borrow is
        // never touched after the scheduler drops). The transmute only
        // widens the trait object's lifetime parameter.
        let entry: crate::cont::Entry = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, crate::cont::Entry>(entry)
        };
        resume(Continuation::new(entry, Backend::Thread))
    }

    /// The failure message of a stalled run (see module docs);
    /// `describe_wait(rank)` words what a parked rank waits for, which
    /// only the engine knows. Reachable by a receive from a rank that
    /// finished without sending while other ranks are alive (no cycle to
    /// detect, and not `PeersGone` either).
    fn stall_report(
        &self,
        st: &ReadyState,
        finished: usize,
        describe_wait: &dyn Fn(usize) -> String,
    ) -> String {
        let parked: Vec<String> = (0..self.n)
            .filter(|&r| st.parked[r].is_some())
            .map(|r| format!("rank {r} {}", describe_wait(r)))
            .collect();
        format!(
            "run stalled: no rank is ready, {finished} of {} finished and nothing can wake the \
             {} parked: {}",
            self.n,
            parked.len(),
            parked.join("; ")
        )
    }
}

/// Resumes `cont` until its body parks or finishes.
fn resume(mut cont: Continuation) -> Outcome {
    match cont.resume() {
        Resume::Finished => Outcome::Finished {
            panic: cont.take_panic(),
        },
        Resume::Parked(key) => Outcome::Parked { cont, key },
    }
}

/// Runs the scheduler to completion on the calling thread: take the
/// handed-off rank or else pop the `(key, rank)` minimum, run it until
/// it parks or finishes, record the outcome — one guard of the ready
/// state per rank slice, never alive while a rank executes (the lock is
/// the run's single-owner flag, so that is a check, not a cost). Then
/// re-throws the first panic that escaped a rank body, if any (engine
/// bodies catch rank panics themselves, so that is a bug trap, not a
/// normal path); the queue is still drained first, so ranks that can
/// finish do. `waits` is the run's wait-for graph: a parked rank's edge
/// names whom it waits for, which the handoff rule reads;
/// `describe_wait` words the same edge for the stall report.
///
/// # Panics
/// Panics with [`EventSched::stall_report`] if the run stalls. The
/// parked continuations are then dropped without ever being resumed
/// again: a fiber's stack is freed without unwinding and a thread-backed
/// rank's OS thread stays blocked until process exit, so whatever the
/// parked bodies own leaks. A stalled program is a bug to fix, not a
/// state to recover memory from.
pub(crate) fn drive(
    sched: &Arc<EventSched>,
    waits: &WaitGraph,
    describe_wait: &dyn Fn(usize) -> String,
) -> RunStats {
    let mut hot = InlineFiber::new();
    // The continuation of each rank that has parked at least once and
    // is not executing. Ranks that never park never materialize one:
    // their body runs inline on the hot fiber.
    let mut conts: Vec<Option<Continuation>> = (0..sched.n).map(|_| None).collect();
    let mut finished = 0;
    let mut first_panic = None;
    let mut stats = RunStats::default();
    // The rank the last slice handed off to, if any.
    let mut handed: Option<usize> = None;
    let mut st = sched.runq.acquire();
    while finished < sched.n {
        let Some(rank) = handed.take().or_else(|| st.next_ready()) else {
            if first_panic.is_some() {
                break;
            }
            panic!("{}", sched.stall_report(&st, finished, describe_wait));
        };
        drop(st);
        stats.slices += 1;
        let outcome = match conts[rank].take() {
            Some(cont) => resume(cont),
            None => sched.start_rank(rank, &mut hot),
        };
        st = sched.runq.acquire();
        // Whom this slice left its rank parked on.
        let mut parked_on = None;
        match outcome {
            Outcome::Finished { panic } => {
                finished += 1;
                first_panic = first_panic.or(panic);
            }
            Outcome::Parked { cont, key } => {
                conts[rank] = Some(cont);
                st.parked[rank] = Some(key);
                parked_on = waits.waiting_on(rank).map(|(src, _)| src);
            }
        }
        // Matched-wake handoff (module docs): the slice delivered to
        // `next` the message it was parked on and now waits for `next`
        // in turn. Anything else in the slot is an ordinary wake.
        if let Some((key, next)) = st.handoff.take() {
            if parked_on == Some(next) {
                handed = Some(next);
                stats.handoffs += 1;
            } else {
                st.ready.push(Reverse((key, next)));
            }
        }
    }
    drop(st);
    if let Some(p) = first_panic {
        std::panic::resume_unwind(p);
    }
    stats
}

/// Which continuation backend this run uses: fibers unless the
/// portable/TSan-safe thread handshake was requested (or required by
/// the target; see `cont.rs`).
pub(crate) fn backend_from_env() -> Backend {
    match std::env::var("HCS_EVENT_THREAD_CONT") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Backend::Thread,
        _ => Backend::Fiber,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockutil::OrderedMutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One rank's test body.
    type Job = Box<dyn FnOnce() + Send + 'static>;

    /// Adapts a per-rank job list to the shared-body interface: each
    /// rank takes and runs its own job exactly once.
    fn sched_from_jobs(jobs: Vec<Job>) -> Arc<EventSched> {
        sched_on(jobs, backend_from_env())
    }

    fn sched_on(jobs: Vec<Job>, backend: Backend) -> Arc<EventSched> {
        let n = jobs.len();
        let cells: Vec<OrderedMutex<Option<Job>>> = jobs
            .into_iter()
            .map(|j| OrderedMutex::new("events.test-jobs", 92, Some(j)))
            .collect();
        let body = move |rank: usize| {
            let job = cells[rank]
                .acquire()
                .take()
                .expect("each rank runs exactly once");
            job();
        };
        Arc::new(EventSched::new(n, Box::new(body), backend))
    }

    /// Drives a scheduler whose ranks park outside any receive (no
    /// wait edges, so no handoffs).
    fn drive_bare(sched: &Arc<EventSched>) {
        drive(sched, &WaitGraph::new(sched.n), &|_| String::new());
    }

    fn run_jobs(jobs: Vec<Job>) {
        drive_bare(&sched_from_jobs(jobs));
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
        let sched0: Arc<OrderedMutex<Option<Arc<EventSched>>>> =
            Arc::new(OrderedMutex::new("events.sched-test-slot", 90, None));
        let hits = Arc::new(AtomicUsize::new(0));
        let s0 = Arc::clone(&sched0);
        let h0 = Arc::clone(&hits);
        let h1 = Arc::clone(&hits);
        let jobs: Vec<Job> = vec![
            Box::new(move || {
                crate::cont::suspend_current(time_key(1.0));
                h0.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(move || {
                let sched = s0.acquire().clone().expect("installed before drive");
                sched.wake(0);
                h1.fetch_add(1, Ordering::SeqCst);
            }),
        ];
        let sched = sched_from_jobs(jobs);
        *sched0.acquire() = Some(Arc::clone(&sched));
        drive_bare(&sched);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn ready_queue_pops_in_virtual_time_then_rank_order() {
        // Ranks 0..4 seed at key 0 and run in rank order;
        // each parks at a key that *reverses* the rank order. Rank 4
        // then wakes everyone — the drain must follow the keys.
        let order = Arc::new(OrderedMutex::new("events.test-order", 91, Vec::new()));
        let slot: Arc<OrderedMutex<Option<Arc<EventSched>>>> =
            Arc::new(OrderedMutex::new("events.test-slot", 90, None));
        let n = 4usize;
        let mut jobs: Vec<Job> = (0..n)
            .map(|r| {
                let order = Arc::clone(&order);
                let job: Job = Box::new(move || {
                    order.acquire().push(("start", r));
                    crate::cont::suspend_current(time_key((n - r) as f64));
                    order.acquire().push(("end", r));
                });
                job
            })
            .collect();
        let waker = Arc::clone(&slot);
        jobs.push(Box::new(move || {
            let sched = waker.acquire().clone().expect("installed before the run");
            for rank in 0..n {
                sched.wake(rank);
            }
        }));
        let sched = sched_from_jobs(jobs);
        *slot.acquire() = Some(Arc::clone(&sched));
        drive_bare(&sched);
        let got = order.acquire().clone();
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
            let log = Arc::new(OrderedMutex::new("events.test-order", 91, Vec::new()));
            let slot: Arc<OrderedMutex<Option<Arc<EventSched>>>> =
                Arc::new(OrderedMutex::new("events.test-slot", 90, None));
            let n = 6usize;
            let sched_of = |slot: &OrderedMutex<Option<Arc<EventSched>>>| {
                slot.acquire().clone().expect("installed before the run")
            };
            let mut jobs: Vec<Job> = (0..n)
                .map(|r| {
                    let (log, slot) = (Arc::clone(&log), Arc::clone(&slot));
                    let job: Job = Box::new(move || {
                        for slice in 0..3 {
                            log.acquire().push((r, slice));
                            if slice < 2 {
                                // Keys interleave the ranks differently
                                // in each round; woken, a rank wakes the
                                // driver (a no-op after the first).
                                let key = ((r * 5 + slice * 3) % n) as f64;
                                crate::cont::suspend_current(time_key(key));
                                sched_of(&slot).wake(n);
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
                    dlog.acquire().push((n, round));
                    (0..n).for_each(|rank| sched.wake(rank));
                    if round == 0 {
                        crate::cont::suspend_current(time_key(100.0));
                    }
                }
            }));
            let sched = sched_on(jobs, backend);
            *slot.acquire() = Some(Arc::clone(&sched));
            drive_bare(&sched);
            // Break the slot → scheduler → body → slot cycle.
            *slot.acquire() = None;
            let order = log.acquire().clone();
            order
        }
        let first = logged_order(Backend::Fiber);
        assert_eq!(first.len(), 6 * 3 + 2);
        assert_eq!(first, logged_order(Backend::Fiber), "second run");
        assert_eq!(first, logged_order(Backend::Thread), "thread backend");
    }

    /// An events-pinned cluster of `nodes` × 8 ranks for the
    /// handoff-policy tests, which run whole programs through `RunNet`
    /// and `RankCtx` because the rule lives in their cooperation with
    /// the scheduler.
    fn events_cluster(nodes: usize) -> crate::Cluster {
        crate::machines::testbed(nodes, 8)
            .cluster(11)
            .to_builder()
            .engine(crate::EngineMode::Events)
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
        let order = OrderedMutex::new("events.test-order", 91, Vec::new());
        let body = |ctx: &mut crate::RankCtx| {
            let me = ctx.rank();
            if me > 1 {
                ctx.compute(crate::secs(1e-6));
                return;
            }
            for trip in 0..TRIPS {
                order.acquire().push(trip << 1 | me as u32);
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
        let order = std::mem::take(&mut *order.acquire());
        (order, stats)
    }

    #[test]
    fn ping_pong_runs_as_handoffs_in_a_reproducible_host_order() {
        let cluster = events_cluster(4);
        let (order, stats) = ping_pong_beside_ready_ranks(&cluster, Backend::Fiber);
        assert_eq!(order.len(), 2000);
        // Under the heap rule alone the 30 virgin ranks (key₀) would
        // run before the pair's first wake; with the handoff the pair
        // talks to the end first, so nearly every slice of it bypasses
        // the heap.
        let pair_slices = stats.slices - 30;
        assert!(pair_slices >= 2000, "{stats:?}");
        assert!(stats.handoffs * 100 >= pair_slices * 99, "{stats:?}");
        let again = ping_pong_beside_ready_ranks(&cluster, Backend::Fiber);
        assert_eq!((&order, stats), (&again.0, again.1), "second run");
        let threads = ping_pong_beside_ready_ranks(&cluster, Backend::Thread);
        assert_eq!((&order, stats), (&threads.0, threads.1), "thread backend");
    }

    #[test]
    fn a_matching_delivery_alone_does_not_hand_off() {
        // Rank 1 delivers exactly what rank 0 is parked on, then parks
        // on rank 2: no handoff, rank 0 comes back through the heap.
        // Rank 2 delivers exactly what rank 1 is parked on, then
        // finishes: no handoff either. Ranks 3..32 are bystanders.
        let order = OrderedMutex::new("events.test-order", 91, Vec::new());
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
            order.acquire().push(me);
        };
        let (_, _, stats) = events_cluster(4).run_counted(backend_from_env(), &body);
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
        assert_eq!(*order.acquire(), vec![0, 2, 1]);
    }

    #[test]
    fn recursive_doubling_keeps_its_slice_count() {
        // All 64 ranks exchange with `me ^ 2^k` round after round, so a
        // rank's partner changes every round and every rank is runnable
        // at once. Running woken partners ahead of the heap order (pure
        // LIFO) makes them park again on every round; the mutual-wait
        // rule must leave this workload's slice count alone.
        const HEAP_ONLY_SLICES: u64 = 11_735;
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
        let (sums, _, stats) = cluster.run_counted(backend_from_env(), &body);
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "allreduce agrees");
        let drift = stats.slices.abs_diff(HEAP_ONLY_SLICES);
        assert!(
            drift * 50 <= HEAP_ONLY_SLICES,
            "{stats:?} vs {HEAP_ONLY_SLICES} heap-only slices"
        );
    }

    #[test]
    fn an_events_run_owns_its_locks_and_a_threads_run_shares_them() {
        for (mode, owned) in [(EngineMode::Events, 16), (EngineMode::Threads, 0)] {
            let cluster = crate::machines::testbed(2, 8)
                .cluster(11)
                .to_builder()
                .engine(mode)
                .build();
            let counts = cluster.run(|ctx| ctx.owned_mailboxes());
            assert_eq!(counts, vec![owned; 16], "{mode:?}");
        }
        assert!(sched_on(Vec::new(), Backend::Thread).runq.is_owned());
    }

    #[test]
    fn detector_heavy_program_runs_identically_on_both_backends() {
        // Ranks 0 and 1 ping-pong 1,000 trips: every park runs the
        // detector's probe, which finds the transient 2-cycle and
        // refutes it at the non-empty mailbox. Then ranks 0..3 close a
        // genuine 3-cycle (rank 2 has been parked on rank 0 all along).
        // The rank that parks last diagnoses it; here each rank catches
        // a diagnosis and releases its waiter, so the run ends and its
        // counters can be compared.
        fn run(backend: Backend) -> (Vec<Option<String>>, RunStats) {
            let body = |ctx: &mut crate::RankCtx| {
                let me = ctx.rank();
                if me > 2 {
                    return None;
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
                let (src, waiter) = ((me + 1) % 3, (me + 2) % 3);
                let recv = std::panic::AssertUnwindSafe(|| ctx.recv_t::<u32>(src, 11 + me as u32));
                let diagnosis = std::panic::catch_unwind(recv).err().map(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .expect("the diagnosis is a formatted message")
                });
                ctx.send_t::<u32>(waiter, 11 + waiter as u32, 0);
                diagnosis
            };
            let (out, _, stats) = events_cluster(1).run_counted(backend, &body);
            (out, stats)
        }
        let (out, stats) = run(Backend::Fiber);
        let diagnoses: Vec<&String> = out.iter().flatten().collect();
        assert_eq!(diagnoses.len(), 1, "one rank closes the cycle: {out:?}");
        let msg = diagnoses[0];
        assert!(msg.contains("deadlock detected"), "{msg}");
        for needle in [
            "rank 0 waiting on (src 1, tag 11)",
            "rank 1 waiting on (src 2, tag 12)",
            "rank 2 waiting on (src 0, tag 13)",
        ] {
            assert!(msg.contains(needle), "missing {needle:?} in: {msg}");
        }
        assert!(stats.handoffs >= 1990, "{stats:?}");
        assert_eq!((out, stats), run(Backend::Thread), "thread backend");
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
