//! The event-driven engine core: a virtual-time run queue of rank
//! continuations executed by a small worker pool.
//!
//! In [`crate::EngineMode::Events`] a rank is a schedulable
//! continuation (`cont.rs`), not an OS thread. The scheduler here keeps
//! one slot per rank and a ready queue ordered by `(virtual-time key,
//! rank)`; a blocked receive suspends the continuation (the slot moves
//! to `Parked`), and the sender's `RunNet` wake hook moves it back to
//! `Ready`. Workers pop the earliest-keyed ready rank, resume it until
//! it parks or finishes, and publish the transition under the scheduler
//! lock. A *fresh* rank is cheaper still: its body runs inline on the
//! claiming worker's hot fiber and only pays for a full [`Continuation`]
//! (core box, dedicated stack) if it actually parks — so a rank that
//! never blocks costs two stack switches and zero allocations.
//!
//! # Why this preserves determinism
//!
//! The determinism argument (DESIGN.md §2) never relied on OS
//! scheduling: arrival times are fixed at send time from the
//! sender's seeded RNG streams, and a receiver only proceeds once the
//! specific `(src, tag)` message it waits for is in hand. This executor
//! changes *when on the host* a rank body runs, which is exactly the
//! freedom the argument already grants — so timelines, CSV rows and
//! traces are byte-identical to the thread-per-rank reference engine
//! at any worker count (`tests/engine_equivalence.rs` enforces this
//! differentially). The
//! virtual-time ordering of the ready queue is a host-side *policy*
//! (it keeps memory low by letting non-blocked ranks drain before
//! long-running conversations continue), not a correctness input.
//!
//! # The wake protocol (no lost wakeups)
//!
//! A rank's slot is `Running` from the instant a worker claims it until
//! the worker has published the post-resume state. `wake` on a `Parked`
//! slot requeues it; `wake` on a `Running` slot sets `wake_pending`,
//! which the worker converts into an immediate requeue when the resume
//! comes back parked. A sender therefore never loses a wakeup
//! regardless of where the receiver is between "checked its mailbox"
//! and "slot published as Parked" — the receiver re-checks its mailbox
//! on every resume, and each check happens-after the send that woke it
//! (both sides pass through the scheduler lock).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, OnceLock};

#[cfg(target_arch = "x86_64")]
use crate::cont::InlineRun;
use crate::cont::{Backend, Continuation, InlineFiber, Resume};
use crate::lockutil::OrderedMutex;

/// The shared per-rank body: the scheduler calls it once per rank, on
/// whatever worker claims that rank. One closure for the whole run (the
/// engine's body is identical across ranks up to the rank index), so
/// seeding a run allocates nothing per rank.
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

/// Per-rank scheduler state (see module docs for the transitions).
#[derive(Clone, Copy)]
enum Slot {
    /// In the ready queue.
    Ready,
    /// Claimed by a worker; `wake_pending` records a wake that arrived
    /// mid-resume.
    Running { wake_pending: bool },
    /// Suspended; `key` is the virtual-time key it parked with.
    Parked { key: u64 },
    /// Body returned; never scheduled again.
    Finished,
}

struct SchedState {
    slots: Vec<Slot>,
    /// The *parked* continuation of each rank, present exactly when the
    /// rank has parked at least once and is not currently claimed by a
    /// worker. Ranks that never park never materialize one: their body
    /// runs inline on the claiming worker's hot fiber (see
    /// [`crate::cont::InlineFiber`]).
    conts: Vec<Option<Continuation>>,
    /// Next initially-seeded rank not yet claimed. Every rank starts
    /// ready at virtual time zero, so this cursor *is* the
    /// `(key₀, rank)` run of the merged ready sequence — seeding n
    /// heap entries (and paying n log n pops) would buy nothing.
    seed_cursor: usize,
    /// Min-heap on `(virtual-time key, rank)` of *re-woken* ranks only;
    /// the rank tiebreak makes pop order fully deterministic for equal
    /// keys.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Workers blocked in `wait`; `wake` skips the condvar notify when
    /// nobody is listening.
    idle: usize,
    finished: usize,
    /// First panic that escaped a rank body (engine bodies catch rank
    /// panics themselves, so this is a bug trap, not a normal path).
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl SchedState {
    /// Pops the earliest ready rank: the true minimum of the re-woken
    /// heap merged with the `(key₀, seed_cursor)` virgin run. A woken
    /// key *can* sort before key₀ (skewed clocks produce negative
    /// virtual times), so this is a real two-way merge, not an
    /// exhaust-the-cursor-first shortcut.
    fn next_ready(&mut self, n: usize) -> Option<usize> {
        let seeded = self.seed_cursor < n;
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

    /// Whether no rank is ready (counting the unclaimed virgin run).
    fn queue_empty(&self, n: usize) -> bool {
        self.ready.is_empty() && self.seed_cursor >= n
    }
}

/// Upper bound on how many ready ranks one worker claims per scheduler
/// lock acquisition (the share is also divided by the worker count so
/// siblings are never starved).
const CLAIM_BATCH: usize = 16;

/// Result of one claimed rank's execution slice, carried from the run
/// phase to the batched publish.
enum Outcome {
    /// The body returned (inline dispatch carries any panic payload
    /// directly — there may never have been a `Continuation` to ask).
    Finished {
        panic: Option<Box<dyn std::any::Any + Send>>,
    },
    /// The body parked with `key`; `cont` resumes it later.
    Parked { cont: Continuation, key: u64 },
}

/// The per-run event scheduler shared by the workers and the `RunNet`
/// wake hooks.
pub(crate) struct EventSched {
    // lock-order: events.sched level=15
    runq: OrderedMutex<SchedState>,
    cv: Condvar, // lock-order: events.sched
    n: usize,
    /// Target worker count of this run (batch-share divisor).
    workers: usize,
    /// The shared rank body (see [`RankBody`]).
    body: RankBody,
    /// Continuation backend for ranks that park.
    backend: Backend,
}

impl EventSched {
    /// Seeds `n` ranks, all ready at virtual time zero (claimed in rank
    /// order via the seed cursor); each runs `body(rank)` once.
    pub(crate) fn new(n: usize, body: RankBody, backend: Backend) -> Self {
        // Without the fiber backend every continuation is thread-backed.
        #[cfg(not(target_arch = "x86_64"))]
        let backend = Backend::Thread;
        EventSched {
            runq: OrderedMutex::new(
                "events.sched",
                15,
                SchedState {
                    slots: vec![Slot::Ready; n],
                    conts: (0..n).map(|_| None).collect(),
                    seed_cursor: 0,
                    ready: BinaryHeap::new(),
                    idle: 0,
                    finished: 0,
                    panic: None,
                },
            ),
            cv: Condvar::new(),
            n,
            workers: worker_count(),
            body,
            backend,
        }
    }

    /// Wake hook called by `RunNet` after any state change a parked
    /// receiver might be waiting on (message delivery, rank completion,
    /// deadline-cycle firing). Always safe to over-call: waking a ready
    /// or finished rank is a no-op, and a woken receiver simply
    /// re-checks its mailbox.
    pub(crate) fn wake(&self, rank: usize) {
        let mut st = self.runq.acquire();
        match st.slots[rank] {
            Slot::Parked { key } => {
                st.slots[rank] = Slot::Ready;
                st.ready.push(Reverse((key, rank)));
                let listening = st.idle > 0;
                drop(st);
                if listening {
                    self.cv.notify_one();
                }
            }
            Slot::Running { .. } => {
                st.slots[rank] = Slot::Running { wake_pending: true };
            }
            Slot::Ready | Slot::Finished => {}
        }
    }

    /// Runs one *fresh* rank: inline on the worker's hot fiber when the
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
        let mut cont = Continuation::new(entry, Backend::Thread);
        match cont.resume() {
            Resume::Finished => Outcome::Finished {
                panic: cont.take_panic(),
            },
            Resume::Parked(key) => Outcome::Parked { cont, key },
        }
    }

    fn worker_loop(&self) {
        let mut hot = InlineFiber::new();
        // Claimed ranks (with their parked continuation, if any) and
        // their post-run outcomes, both batched: publishing the previous
        // batch and claiming the next share the same scheduler lock
        // acquisition — one lock round per batch, not one per rank per
        // direction.
        let mut batch: Vec<(usize, Option<Continuation>)> = Vec::with_capacity(CLAIM_BATCH);
        let mut outcomes: Vec<(usize, Outcome)> = Vec::with_capacity(CLAIM_BATCH);
        loop {
            let mut st = self.runq.acquire();
            let mut requeued = 0usize;
            let mut winding_down = false;
            for (rank, outcome) in outcomes.drain(..) {
                match outcome {
                    Outcome::Finished { panic } => {
                        st.slots[rank] = Slot::Finished;
                        st.finished += 1;
                        if let Some(p) = panic {
                            // Keep the first payload; the executor winds
                            // down (workers bail once the queue drains)
                            // and `drive` re-throws it on the caller.
                            st.panic.get_or_insert(p);
                        }
                        if st.finished == self.n || st.panic.is_some() {
                            winding_down = true;
                        }
                    }
                    Outcome::Parked { cont, key } => {
                        // A wake that arrived mid-resume left
                        // `wake_pending` set; convert it into an
                        // immediate requeue.
                        let woken = matches!(st.slots[rank], Slot::Running { wake_pending: true });
                        st.conts[rank] = Some(cont);
                        if woken {
                            st.slots[rank] = Slot::Ready;
                            st.ready.push(Reverse((key, rank)));
                            requeued += 1;
                        } else {
                            st.slots[rank] = Slot::Parked { key };
                        }
                    }
                }
            }
            loop {
                if st.finished == self.n || (st.panic.is_some() && st.queue_empty(self.n)) {
                    drop(st);
                    // Release any sibling parked on an empty queue.
                    self.cv.notify_all();
                    return;
                }
                // Claim an equal share of what is currently ready so
                // sibling workers are never starved by the batching.
                let avail = st.ready.len() + (self.n - st.seed_cursor);
                let share = avail.div_ceil(self.workers).clamp(1, CLAIM_BATCH);
                while batch.len() < share {
                    match st.next_ready(self.n) {
                        Some(rank) => {
                            st.slots[rank] = Slot::Running {
                                wake_pending: false,
                            };
                            // `None` exactly for ranks claimed off the
                            // virgin seed cursor; woken ranks always
                            // re-published a continuation when parking.
                            let cont = st.conts[rank].take();
                            batch.push((rank, cont));
                        }
                        None => break,
                    }
                }
                if !batch.is_empty() {
                    break;
                }
                // NOTE: if every rank is parked and none can be woken
                // (a receive cycle with deadlock detection disabled),
                // this waits forever — exactly like the reference
                // engine's parked mailbox condvars. Parity is deliberate.
                st.idle += 1;
                st = st.wait(&self.cv);
                st.idle -= 1;
            }
            let idle = st.idle;
            let pending = !st.queue_empty(self.n);
            drop(st);
            if winding_down {
                self.cv.notify_all();
            } else if requeued > 0 && idle > 0 && pending {
                for _ in 0..requeued.min(idle) {
                    self.cv.notify_one();
                }
            }

            for (rank, cont) in batch.drain(..) {
                let outcome = match cont {
                    Some(mut c) => match c.resume() {
                        Resume::Finished => Outcome::Finished {
                            panic: c.take_panic(),
                        },
                        Resume::Parked(key) => Outcome::Parked { cont: c, key },
                    },
                    None => self.start_rank(rank, &mut hot),
                };
                outcomes.push((rank, outcome));
            }
        }
    }
}

/// Runs the scheduler to completion on the calling thread plus
/// `worker_count() - 1` helpers, then re-throws the first escaped body
/// panic, if any.
pub(crate) fn drive(sched: &Arc<EventSched>) {
    let extra = worker_count().saturating_sub(1);
    if extra == 0 {
        sched.worker_loop();
    } else {
        std::thread::scope(|scope| {
            for i in 0..extra {
                let sched = Arc::clone(sched);
                std::thread::Builder::new()
                    .name(format!("hcs-events-{i}"))
                    .spawn_scoped(scope, move || sched.worker_loop())
                    .expect("failed to spawn event worker");
            }
            sched.worker_loop();
        });
    }
    let payload = sched.runq.acquire().panic.take();
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
}

/// How many workers drive the continuation queue. `HCS_EVENT_WORKERS`
/// overrides; otherwise the host's parallelism, capped low — workers
/// share one scheduler lock, and most simulated workloads serialize on
/// message order anyway, so a handful of workers captures the available
/// overlap. Worker count is pure host policy: it cannot affect virtual
/// time (see module docs), only wall-clock speed.
///
/// Resolved once per process: `available_parallelism` re-reads cgroup
/// quota files on every call, which is far too expensive to pay per
/// run (so `HCS_EVENT_WORKERS` is also only consulted on first use).
fn worker_count() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(v) = std::env::var("HCS_EVENT_WORKERS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.clamp(1, 64);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    })
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One rank's test body.
    type Job = Box<dyn FnOnce() + Send + 'static>;

    /// Adapts a per-rank job list to the shared-body interface: each
    /// rank takes and runs its own job exactly once.
    fn sched_from_jobs(jobs: Vec<Job>) -> Arc<EventSched> {
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
        Arc::new(EventSched::new(n, Box::new(body), backend_from_env()))
    }

    fn run_jobs(jobs: Vec<Job>) {
        drive(&sched_from_jobs(jobs));
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
        drive(&sched);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn ready_queue_pops_in_virtual_time_then_rank_order() {
        // Single worker (worker_loop on this thread) so pop order is
        // observable. Ranks 0..4 seed at key 0 and run in rank order;
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
        sched.worker_loop();
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
