//! Schedulable rank continuations for the event-driven engine.
//!
//! A [`Continuation`] is one rank body that can be *suspended* at a
//! blocking receive and *resumed* later. The event scheduler
//! (`events.rs`) drives all continuations of a run from one loop on the
//! thread that called `Cluster::run*`, which is what lets a p = 131072
//! run execute on one OS thread instead of needing one thread per rank.
//! The run loop never moves a continuation off the thread that started
//! it; the type is still `Send` — its state travels with it, as
//! `tests::resume_can_migrate_between_threads` checks on both backends.
//!
//! Two interchangeable backends implement the suspend/resume contract:
//!
//! - **Fiber** (x86_64 only): a stackful coroutine. Suspension is a
//!   user-space stack switch (~tens of nanoseconds): the callee-saved
//!   registers are pushed on the current stack, the stack pointer is
//!   swapped, and the counterpart's registers are popped. Stacks are
//!   heap blocks recycled through a global free list, so the peak
//!   number of live stacks tracks the number of *simultaneously
//!   suspended* ranks, not the rank count.
//! - **Thread**: one lazily-spawned OS thread per continuation with a
//!   state-machine handshake (running / suspended / finished) over a
//!   condvar. Functionally identical but orders of magnitude slower to
//!   create; it exists as the portable fallback for non-x86_64 targets
//!   and as the ThreadSanitizer-compatible mode (TSan cannot follow a
//!   user-space stack switch without fiber annotations), selected via
//!   `HCS_EVENT_THREAD_CONT=1`.
//!
//! The contract both backends guarantee:
//!
//! - `resume` runs the body until it finishes or calls
//!   [`suspend_current`], and reports which of the two happened.
//! - On the fiber backend a running body may also hand the thread
//!   straight to another parked fiber ([`switch_to`]), which inherits
//!   the context to return to. A `resume` then returns when the *last*
//!   fiber of that chain finishes or suspends; the body it started is
//!   parked unless it is that last fiber, and
//!   [`Continuation::returned`] reports the last one.
//! - At most one of (executor, body) executes at any instant — a strict
//!   handoff. The body may therefore use `&mut` state freely across
//!   suspension points.
//! - **No lock guard may be held across a suspension point.** The
//!   guard would stay held while *other ranks run on the same thread*:
//!   the next rank to take that lock blocks the only thread that could
//!   ever release it. The xtask concurrency lint treats
//!   `suspend_current` as a park point and enforces this statically
//!   (DESIGN.md §15).
//! - A panic that escapes the body is caught on the continuation's own
//!   stack, carried back, and re-thrown by the executor on a real
//!   thread (unwinding across the stack-switch boundary would be
//!   undefined behavior).

use std::any::Any;
use std::cell::Cell;
use std::sync::{Arc, Condvar};

use crate::lockutil::OrderedMutex;

/// Stack size of every rank body's host stack: fiber stacks,
/// thread-backed continuations and the reference engine's rank threads.
/// The clock-sync code is iterative, so a small stack keeps 128Ki-rank
/// runs affordable.
pub(crate) const RANK_STACK_BYTES: usize = 256 * 1024;

/// The closure a continuation runs.
pub(crate) type Entry = Box<dyn FnOnce() + Send + 'static>;

/// Which suspend/resume mechanism to use (decided once per run by the
/// event executor; see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// Stackful coroutine (x86_64 only; non-x86_64 builds coerce it to
    /// `Thread` in [`Continuation::new`]).
    Fiber,
    /// Dedicated OS thread per continuation with a condvar handshake.
    Thread,
}

/// What a [`Continuation::resume`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// The body returned (or panicked; see
    /// [`Continuation::take_panic`]). The continuation must not be
    /// resumed again.
    Finished,
    /// The body called [`suspend_current`] with this key (the rank's
    /// virtual-time order key; opaque to this module).
    Parked(u64),
}

/// Suspends the continuation currently executing on this thread,
/// returning control to the executor's `resume` call with
/// [`Resume::Parked`]`(key)`. Returns when the executor resumes the
/// continuation again.
///
/// # Panics
/// Panics if the calling code is not running inside a continuation.
pub(crate) fn suspend_current(key: u64) {
    match current() {
        #[cfg(target_arch = "x86_64")]
        Current::Fiber(core) => {
            // SAFETY: `core` was set by the fiber's `resume` on this
            // thread and stays valid for the whole resume window (the
            // executor owns the box). Only the body side touches it
            // between resume and switch-back.
            unsafe {
                (*core).park_key = key;
                let ret = (*core).ret_sp;
                fiber::switch_stack(&mut (*core).coro_sp, ret);
            }
        }
        Current::Thread(shared) => {
            // SAFETY: the pointer was derived from the Arc held by both
            // the `ThreadCont` and this coroutine thread's closure, so
            // it outlives every suspension.
            let shared = unsafe { &*shared };
            shared.suspend(key);
        }
    }
}

/// A parked fiber that a running one may switch straight to
/// ([`switch_to`]): the address of its switch core, which stays put
/// from the fiber's first activation until it finishes (promoting an
/// inline-dispatched body moves the box, not the core).
#[derive(Clone, Copy)]
pub(crate) struct FiberRef {
    core: CoreRef,
}

#[cfg(target_arch = "x86_64")]
type CoreRef = *mut fiber::ContCore;
/// No fibers without x86_64, so no [`FiberRef`] is ever made.
#[cfg(not(target_arch = "x86_64"))]
type CoreRef = std::convert::Infallible;

// SAFETY: a `FiberRef` is only dereferenced by `switch_to`, on the one
// thread that runs the fiber chain, under the strict handoff; sending
// the address alone transfers nothing.
unsafe impl Send for FiberRef {}

/// The fiber executing on this thread, or `None` when the caller runs
/// on a thread-backed continuation (which no one can switch to).
///
/// # Panics
/// Panics if the calling code is not running inside a continuation.
pub(crate) fn current_fiber() -> Option<FiberRef> {
    match current() {
        #[cfg(target_arch = "x86_64")]
        Current::Fiber(core) => Some(FiberRef { core }),
        Current::Thread(_) => None,
    }
}

/// Suspends the fiber executing on this thread with `key`, as
/// [`suspend_current`] does, but activates `next` instead of returning
/// to the executor: `next` inherits this fiber's return context, so
/// the executor's `resume` (or inline dispatch) returns only when a
/// fiber of the chain finishes or calls [`suspend_current`]. Returns
/// when this fiber is activated again, by the executor or by a switch.
///
/// # Safety
/// `next` must come from [`current_fiber`] of a body that is parked
/// now (suspended, not finished), on this thread, and whose
/// continuation is still alive; the caller must hold no lock guard.
///
/// # Panics
/// Panics if the caller is not a fiber.
// SAFETY: the liveness and parked state of `next` are the caller's
// contract (above); the body only touches the two switch cores.
pub(crate) unsafe fn switch_to(key: u64, next: FiberRef) {
    let next = next.core;
    #[cfg(target_arch = "x86_64")]
    {
        let Current::Fiber(core) = current() else {
            panic!("switch_to called outside a fiber");
        };
        // SAFETY: `core` is the running fiber's core (set by whoever
        // activated it on this thread) and `next` a parked fiber's
        // core, alive per the caller's contract; neither side runs
        // while this one does (strict handoff), so these are the only
        // accesses. The switch saves this fiber where its next
        // activation — by `resume` or by another switch — expects it.
        unsafe {
            (*core).park_key = key;
            (*next).ret_sp = (*core).ret_sp;
            CURRENT.with(|c| c.set(Some(Current::Fiber(next))));
            fiber::switch_stack(&mut (*core).coro_sp, (*next).coro_sp);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = key;
        match next {}
    }
}

fn current() -> Current {
    CURRENT
        .with(Cell::get)
        .expect("a park outside a continuation (events-mode receive on a plain thread?)")
}

/// The continuation currently executing on this OS thread, if any. Set
/// by `resume` for the fiber backend (and moved along by `switch_to`)
/// and by the coroutine thread itself for the thread backend.
#[derive(Clone, Copy)]
enum Current {
    #[cfg(target_arch = "x86_64")]
    Fiber(*mut fiber::ContCore),
    Thread(*const ThreadShared),
}

thread_local! {
    static CURRENT: Cell<Option<Current>> = const { Cell::new(None) };
}

/// One suspendable rank body. Creation is cheap — the backend resources
/// (stack or thread) are only committed on the first `resume`.
pub(crate) struct Continuation {
    state: ContState,
    backend: Backend,
    panic: Option<Box<dyn Any + Send>>,
}

enum ContState {
    /// Not yet started; holds the entry closure.
    New(Option<Entry>),
    #[cfg(target_arch = "x86_64")]
    Fiber(fiber::FiberCont),
    Thread(ThreadCont),
    /// Finished and reaped; resuming again is a logic error.
    Done,
}

impl Continuation {
    /// Wraps `entry` without committing a stack or thread yet.
    pub(crate) fn new(entry: Entry, backend: Backend) -> Self {
        #[cfg(not(target_arch = "x86_64"))]
        let backend = Backend::Thread;
        Continuation {
            state: ContState::New(Some(entry)),
            backend,
            panic: None,
        }
    }

    /// Runs the body until it finishes or suspends. Must not be called
    /// again after it returned [`Resume::Finished`].
    pub(crate) fn resume(&mut self) -> Resume {
        if let ContState::New(entry) = &mut self.state {
            let entry = entry.take().expect("New state always holds the entry");
            self.state = match self.backend {
                #[cfg(target_arch = "x86_64")]
                Backend::Fiber => ContState::Fiber(fiber::FiberCont::start(entry)),
                #[cfg(not(target_arch = "x86_64"))]
                Backend::Fiber => unreachable!("constructor coerces Fiber to Thread"),
                Backend::Thread => ContState::Thread(ThreadCont::start(entry)),
            };
        }
        let r = match &mut self.state {
            #[cfg(target_arch = "x86_64")]
            ContState::Fiber(f) => f.resume(),
            ContState::Thread(t) => t.resume(),
            ContState::New(_) => unreachable!("started above"),
            ContState::Done => panic!("resumed a finished continuation"),
        };
        self.settle(r)
    }

    /// What a fiber that a chain of [`switch_to`] calls moved to did
    /// when it handed the thread back to the executor: finished (the
    /// stack is reaped, as by [`Continuation::resume`]) or parked.
    pub(crate) fn returned(&mut self) -> Resume {
        let r = match &mut self.state {
            #[cfg(target_arch = "x86_64")]
            ContState::Fiber(f) => f.returned(),
            _ => unreachable!("only a started fiber is a switch target"),
        };
        self.settle(r)
    }

    fn settle(&mut self, r: Resume) -> Resume {
        if matches!(r, Resume::Finished) {
            // Replacing the state drops the backend and reaps it (the
            // fiber's stack returns to the free list; the thread is
            // joined), which is what keeps peak resource usage bounded
            // by the number of *live* continuations, not the rank count.
            let state = std::mem::replace(&mut self.state, ContState::Done);
            self.panic = match state {
                #[cfg(target_arch = "x86_64")]
                ContState::Fiber(mut f) => f.take_panic(),
                ContState::Thread(mut t) => t.take_panic(),
                ContState::New(_) | ContState::Done => None,
            };
        }
        r
    }

    /// Takes the panic payload the body unwound with, if any. Only
    /// meaningful after [`Resume::Finished`].
    pub(crate) fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
        self.panic.take()
    }
}

/// What one [`InlineFiber::run`] dispatch observed.
#[cfg(target_arch = "x86_64")]
pub(crate) enum InlineRun {
    /// The body ran to completion; any panic it unwound with is carried
    /// here (there is no `Continuation` to ask).
    Finished { panic: Option<Box<dyn Any + Send>> },
    /// The body suspended with `key`; its stack was promoted into this
    /// continuation, which resumes through the normal fiber path.
    Parked { cont: Continuation, key: u64 },
}

/// The run loop's inline dispatcher for *fresh* fiber-backend bodies:
/// runs the body immediately on a reusable hot stack and only commits a
/// full [`Continuation`] (core box, dedicated stack) if the body
/// actually parks. The executor's fast path for ranks that never block
/// — the overwhelming majority at scale — thereby skips every per-rank
/// allocation the boxed-entry path pays.
#[cfg(target_arch = "x86_64")]
pub(crate) struct InlineFiber(fiber::HotFiber);

#[cfg(target_arch = "x86_64")]
impl InlineFiber {
    pub(crate) fn new() -> Self {
        InlineFiber(fiber::HotFiber::new())
    }

    /// Runs `f` until it finishes or suspends.
    pub(crate) fn run(&mut self, f: impl FnOnce() + Send) -> InlineRun {
        let run = self.0.run(f); // xtask-allow: clockdomain (fiber handle, not a time)
        match run {
            fiber::HotRun::Finished { panic } => InlineRun::Finished { panic },
            fiber::HotRun::Parked { cont, key } => InlineRun::Parked {
                cont: Continuation {
                    state: ContState::Fiber(cont),
                    backend: Backend::Fiber,
                    panic: None,
                },
                key,
            },
        }
    }
}

/// Stub for targets without the fiber backend: never constructed into a
/// running dispatcher — the executor coerces every run to the thread
/// backend there, so `run` is never called.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) struct InlineFiber;

#[cfg(not(target_arch = "x86_64"))]
impl InlineFiber {
    pub(crate) fn new() -> Self {
        InlineFiber
    }
}

// ---------------------------------------------------------------------
// Thread backend
// ---------------------------------------------------------------------

/// Handshake phase of a thread-backed continuation. Exactly one side is
/// ever out of `wait` at a time.
enum ThreadPhase {
    /// The body may run; the executor waits.
    Running,
    /// The body called `suspend_current(key)` and waits.
    Suspended(u64),
    /// The body returned; the coroutine thread is exiting.
    Finished(Option<Box<dyn Any + Send>>),
}

/// State shared between the executor side and the coroutine thread.
struct ThreadShared {
    // lock-order: events.cont level=5
    phase: OrderedMutex<ThreadPhase>,
    cv: Condvar, // lock-order: events.cont
}

impl ThreadShared {
    /// Body side: publish `Suspended` and wait to be set `Running`.
    fn suspend(&self, key: u64) {
        let mut ph = self.phase.acquire();
        *ph = ThreadPhase::Suspended(key);
        self.cv.notify_all();
        while matches!(*ph, ThreadPhase::Suspended(_)) {
            ph = ph.wait(&self.cv);
        }
    }
}

/// A continuation backed by a dedicated OS thread (see module docs).
struct ThreadCont {
    shared: Arc<ThreadShared>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Whether the previous `resume` returned `Parked` — i.e. the body
    /// sits in a suspension this side has already *reported*, so the
    /// next `resume` must wake it. A `Suspended` phase observed with
    /// this flag clear is a fresh park that raced ahead of the first
    /// `resume`; it must be reported, not consumed.
    parked: bool,
}

impl ThreadCont {
    /// Spawns the coroutine thread already in the `Running` phase.
    fn start(entry: Entry) -> Self {
        let shared = Arc::new(ThreadShared {
            phase: OrderedMutex::new("events.cont", 5, ThreadPhase::Running),
            cv: Condvar::new(),
        });
        let their = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("hcs-cont".into())
            .stack_size(RANK_STACK_BYTES)
            .spawn(move || {
                CURRENT.with(|c| c.set(Some(Current::Thread(Arc::as_ptr(&their)))));
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry));
                CURRENT.with(|c| c.set(None));
                let mut ph = their.phase.acquire();
                *ph = ThreadPhase::Finished(result.err());
                their.cv.notify_all();
            })
            .expect("failed to spawn continuation thread");
        ThreadCont {
            shared,
            handle: Some(handle),
            parked: false,
        }
    }

    /// Executor side: wake the body if (and only if) its current
    /// suspension was already reported, then wait for the next
    /// suspension or completion.
    fn resume(&mut self) -> Resume {
        let mut ph = self.shared.phase.acquire();
        if self.parked {
            *ph = ThreadPhase::Running;
            self.shared.cv.notify_all();
        }
        while matches!(*ph, ThreadPhase::Running) {
            ph = ph.wait(&self.shared.cv);
        }
        match *ph {
            ThreadPhase::Suspended(key) => {
                self.parked = true;
                Resume::Parked(key)
            }
            ThreadPhase::Finished(_) => Resume::Finished,
            ThreadPhase::Running => unreachable!("loop exits only on a phase change"),
        }
    }

    fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
        match &mut *self.shared.phase.acquire() {
            ThreadPhase::Finished(p) => p.take(),
            _ => None,
        }
    }
}

impl Drop for ThreadCont {
    fn drop(&mut self) {
        // Reached in the `Finished` phase on every completed run; the
        // join is then immediate. Dropping a *suspended* continuation
        // (the run loop unwinding from a stalled run, `events::drive`)
        // would block forever here, so detach instead: the rank thread
        // stays blocked in its handoff wait, is never resumed, and
        // process exit reaps it (one leaked thread and stack per
        // parked rank of a stalled run).
        let finished = matches!(*self.shared.phase.acquire(), ThreadPhase::Finished(_));
        if let Some(h) = self.handle.take() {
            if finished {
                let _ = h.join();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fiber backend (x86_64)
// ---------------------------------------------------------------------

#[cfg(all(test, target_arch = "x86_64"))]
pub(crate) use fiber::recycled_stacks;

#[cfg(target_arch = "x86_64")]
mod fiber {
    use std::any::Any;
    use std::arch::naked_asm;

    use super::{Current, Entry, Resume, CURRENT, RANK_STACK_BYTES};
    use crate::lockutil::OrderedMutex;

    /// Shared switch state of one fiber. Boxed so its address is stable
    /// while both sides hold raw pointers to it.
    pub(super) struct ContCore {
        /// Saved stack pointer of the suspended fiber.
        pub(super) coro_sp: *mut u8,
        /// Saved stack pointer of the executor thread driving `resume`.
        pub(super) ret_sp: *mut u8,
        /// Set by `cont_entry` once the body returned.
        finished: bool,
        /// Key passed to the pending `suspend_current`.
        pub(super) park_key: u64,
        /// Panic payload caught on the fiber stack, if the body unwound.
        panic: Option<Box<dyn Any + Send>>,
    }

    /// Saves the callee-saved registers and stack pointer of the
    /// current context into `*save`, then activates the stack `to`
    /// (a value previously written by this function, or an initial
    /// frame built by `FiberCont::start`).
    ///
    /// Only the System V callee-saved GP registers travel across the
    /// switch (rbx, rbp, r12–r15); everything else is caller-saved at
    /// this call boundary, so the compiler preserves what it needs.
    // SAFETY: callers must pass a `to` stack that was either saved by
    // this function or laid out by `FiberCont::start`; the asm body
    // touches only the stack and callee-saved registers, exactly the
    // contract a naked `extern "C"` boundary exposes.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch_stack(_save: *mut *mut u8, _to: *mut u8) {
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First activation target of a fresh fiber: the initial frame pops
    /// the core pointer into `rbx`, an opaque argument into `r12` and
    /// the entry function into `r13`, then `ret`s here. Forwards core
    /// and argument to the entry per the C ABI with a 16-byte-aligned
    /// stack. The indirection through `r13` lets one trampoline serve
    /// both the boxed-entry path (`cont_entry`) and the monomorphized
    /// inline-dispatch entries (`hot_entry::<F>`).
    // SAFETY: only ever entered via an initial frame built by
    // `FiberCont::start` or `HotFiber::run` (rbx = core, r12 = arg,
    // r13 = a never-returning `extern "C" fn(core, arg)`), so the `ud2`
    // after the call is unreachable by construction.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        naked_asm!(
            "mov rdi, rbx",
            "mov rsi, r12",
            "and rsp, -16",
            "call r13",
            "ud2",
        )
    }

    /// Runs the body on the fiber stack. Never returns: the final
    /// switch hands control back to the executor for good (`finished`
    /// is set first, so the executor will not resume this fiber again).
    // SAFETY: called exactly once per fiber, from `trampoline`, with the
    // pointers planted by `FiberCont::start`.
    unsafe extern "C" fn cont_entry(core: *mut ContCore, entry: *mut Entry) -> ! {
        // SAFETY: `entry` is the Box::into_raw pointer planted in the
        // initial frame by `FiberCont::start`, reaching here exactly
        // once. Catching the unwind is required: unwinding through
        // `trampoline`'s asm frame would be undefined behavior.
        let result = unsafe {
            let f = Box::from_raw(entry);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(*f))
        };
        // SAFETY: `core` stays valid for the fiber's whole life (owned
        // by the FiberCont box) and the executor side does not touch it
        // while the fiber runs (strict handoff).
        unsafe {
            (*core).panic = result.err();
            (*core).finished = true;
            let ret = (*core).ret_sp;
            switch_stack(&mut (*core).coro_sp, ret);
        }
        unreachable!("a finished fiber is never resumed");
    }

    /// One 16-byte-aligned heap block used as a fiber stack.
    struct RawStack {
        base: *mut u8,
    }

    // SAFETY: the block is exclusively owned by whoever holds the
    // RawStack (a running fiber or the free list); there is no aliasing
    // to transfer between threads.
    unsafe impl Send for RawStack {}

    /// Recognizable value planted at the stack base (the deep end) in
    /// debug builds; checked on recycle to catch overflows that crossed
    /// the whole block without faulting.
    #[cfg(debug_assertions)]
    const STACK_CANARY: u64 = 0x5AFE_57AC_DEAD_C0DE;

    fn stack_layout() -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(RANK_STACK_BYTES, 16).expect("static stack layout")
    }

    impl RawStack {
        fn alloc() -> RawStack {
            // SAFETY: the layout has non-zero size.
            let base = unsafe { std::alloc::alloc(stack_layout()) };
            if base.is_null() {
                std::alloc::handle_alloc_error(stack_layout());
            }
            let s = RawStack { base };
            #[cfg(debug_assertions)]
            // SAFETY: `base` points at RANK_STACK_BYTES (≫ 8) writable
            // bytes aligned to 16.
            unsafe {
                (s.base as *mut u64).write(STACK_CANARY)
            };
            s
        }

        #[cfg(debug_assertions)]
        fn check_canary(&self) {
            // SAFETY: reads back the u64 written by `alloc` at the
            // aligned base of the owned block.
            let v = unsafe { (self.base as *const u64).read() };
            assert!(
                v == STACK_CANARY,
                "fiber stack overflow: canary at stack base overwritten \
                 (raise RANK_STACK_BYTES or shrink rank-local state)"
            );
        }

        /// One-past-the-end of the block (stacks grow down), 16-aligned.
        fn top(&self) -> *mut u8 {
            // SAFETY: `base + RANK_STACK_BYTES` is the one-past-the-end
            // pointer of the allocation, which is a valid provenance.
            unsafe { self.base.add(RANK_STACK_BYTES) }
        }
    }

    impl Drop for RawStack {
        fn drop(&mut self) {
            // SAFETY: `base` came from `alloc` with this exact layout
            // and is dropped exactly once.
            unsafe { std::alloc::dealloc(self.base, stack_layout()) };
        }
    }

    /// Free list of recycled fiber stacks. Because finished fibers
    /// return their stack here before the next rank starts, the list
    /// (and total stack memory) stays proportional to the peak number
    /// of simultaneously-suspended ranks. Capped so a pathological run
    /// cannot pin unbounded memory.
    // lock-order: events.stacks level=6
    static STACK_POOL: OrderedMutex<Vec<RawStack>> =
        OrderedMutex::new("events.stacks", 6, Vec::new());

    /// Free-list cap: 256 stacks × 256 KiB = 64 MiB worst case.
    const STACK_POOL_MAX: usize = 256;

    fn stack_get() -> RawStack {
        let recycled = STACK_POOL.acquire().pop();
        match recycled {
            Some(s) => {
                #[cfg(debug_assertions)]
                s.check_canary();
                s
            }
            None => RawStack::alloc(),
        }
    }

    fn stack_put(s: RawStack) {
        #[cfg(debug_assertions)]
        s.check_canary();
        #[cfg(test)]
        RECYCLED.with(|n| n.set(n.get() + 1));
        let mut pool = STACK_POOL.acquire();
        if pool.len() < STACK_POOL_MAX {
            pool.push(s);
        }
    }

    #[cfg(test)]
    thread_local! {
        /// Stacks this thread returned to the pool.
        static RECYCLED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// How many fiber stacks the calling thread has returned to the
    /// pool so far: a finished fiber's stack goes back the moment the
    /// executor learns it finished.
    #[cfg(test)]
    pub(crate) fn recycled_stacks() -> u64 {
        RECYCLED.with(std::cell::Cell::get)
    }

    /// A started fiber: its switch core plus the stack it runs on.
    pub(super) struct FiberCont {
        core: Box<ContCore>,
        /// `Some` until the fiber finishes and the stack is recycled.
        stack: Option<RawStack>,
    }

    // SAFETY: the raw pointers inside ContCore are only dereferenced
    // under the strict executor/body handoff — exactly one side is
    // running at any instant — so moving the owner to another thread
    // is a plain ownership transfer.
    unsafe impl Send for FiberCont {}

    impl FiberCont {
        /// Builds the initial stack frame so that the first `resume`
        /// lands in `trampoline` with `rbx = core`, `r12 = entry`.
        pub(super) fn start(entry: Entry) -> FiberCont {
            let stack = stack_get();
            let mut core = Box::new(ContCore {
                coro_sp: std::ptr::null_mut(),
                ret_sp: std::ptr::null_mut(),
                finished: false,
                park_key: 0,
                panic: None,
            });
            // Double-box: `Entry` is a wide trait-object box, and the
            // initial frame has room for one machine word, so plant a
            // thin pointer to it.
            let entry: *mut Entry = Box::into_raw(Box::new(entry));
            let top = stack.top();
            debug_assert!(
                (top as usize).is_multiple_of(16),
                "stack top must be 16-aligned"
            );
            // Frame layout, low to high, matching `switch_stack`'s six
            // pops + ret: r15 r14 r13 r12 rbx rbp | retaddr | pad.
            // SAFETY: all eight slots lie inside the freshly acquired
            // stack block, below its aligned top.
            unsafe {
                let sp = top.sub(64) as *mut u64;
                sp.add(0).write(0); // r15
                sp.add(1).write(0); // r14
                sp.add(2).write(cont_entry as *const () as usize as u64); // r13 → entry fn
                sp.add(3).write(entry as u64); // r12 → boxed closure
                sp.add(4).write(&mut *core as *mut ContCore as u64); // rbx → core
                sp.add(5).write(0); // rbp
                sp.add(6).write(trampoline as *const () as usize as u64); // ret target
                sp.add(7).write(0); // pad / fake caller frame
                core.coro_sp = sp as *mut u8;
            }
            FiberCont {
                core,
                stack: Some(stack),
            }
        }

        pub(super) fn resume(&mut self) -> Resume {
            let core: *mut ContCore = &mut *self.core;
            CURRENT.with(|c| c.set(Some(Current::Fiber(core))));
            // SAFETY: `coro_sp` is either the initial frame built by
            // `start` or the save slot written by the fiber's last
            // suspension; the fiber is not finished (enforced by the
            // Continuation state machine), so activating it is the
            // strict handoff the core was designed for.
            unsafe {
                let to = (*core).coro_sp;
                switch_stack(&mut (*core).ret_sp, to);
            }
            CURRENT.with(|c| c.set(None));
            self.returned()
        }

        /// How this fiber last handed the thread back to the executor:
        /// finished (its stack returns to the pool) or parked.
        pub(super) fn returned(&mut self) -> Resume {
            if self.core.finished {
                if let Some(s) = self.stack.take() {
                    stack_put(s);
                }
                Resume::Finished
            } else {
                Resume::Parked(self.core.park_key)
            }
        }

        pub(super) fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
            self.core.panic.take()
        }
    }

    /// What one [`HotFiber::run`] dispatch observed.
    pub(super) enum HotRun {
        /// The body ran to completion on the hot stack; the stack and
        /// core stay armed for the next body — no allocator or free-list
        /// traffic at all.
        Finished { panic: Option<Box<dyn Any + Send>> },
        /// The body called `suspend_current(key)`: the hot stack (with
        /// the suspended body on it) and core are promoted into this
        /// continuation, and the runner re-arms lazily.
        Parked { cont: FiberCont, key: u64 },
    }

    /// The run loop's reusable (stack, core) pair for inline dispatch of
    /// *fresh* rank bodies. The common case — a body that never blocks —
    /// costs one frame build and two stack switches: no job box, no core
    /// box, no entry box, no stack free-list round trip. Only a body
    /// that actually parks pays the promotion into a full [`FiberCont`]
    /// (which is exactly the slow path that already pays lock and heap
    /// traffic to publish the park).
    pub(super) struct HotFiber {
        core: Option<Box<ContCore>>,
        stack: Option<RawStack>,
    }

    /// Runs `f` on the hot stack. Identical epilogue contract to
    /// `cont_entry`: never returns; the final switch publishes
    /// `finished` first, so the executor side can trust the flag.
    // SAFETY: called exactly once per dispatch, from `trampoline`, with
    // the pointers planted by `HotFiber::run`; `slot` holds the closure
    // until this takes it (strict handoff — the run loop is suspended in
    // `switch_stack` for the whole window, keeping its frame alive).
    unsafe extern "C" fn hot_entry<F: FnOnce()>(core: *mut ContCore, slot: *mut Option<F>) -> ! {
        // SAFETY: `slot` points into the suspended run loop's `run` frame
        // and is armed with `Some` right before the switch; taken here
        // exactly once, before the body can suspend.
        let f = unsafe { (*slot).take().expect("hot slot armed before the switch") };
        // Catching the unwind is required: unwinding through
        // `trampoline`'s asm frame would be undefined behavior.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        // SAFETY: `core` is owned by the HotFiber (or, after promotion,
        // by the FiberCont) and outlives the fiber; the executor side
        // does not touch it while the body runs (strict handoff).
        unsafe {
            (*core).panic = result.err();
            (*core).finished = true;
            let ret = (*core).ret_sp;
            switch_stack(&mut (*core).coro_sp, ret);
        }
        unreachable!("a finished fiber is never resumed");
    }

    impl HotFiber {
        /// An unarmed runner; the stack and core are committed on first
        /// use (a loop that only resumes parked continuations never
        /// allocates them).
        pub(super) fn new() -> HotFiber {
            HotFiber {
                core: None,
                stack: None,
            }
        }

        /// Runs `f` until it finishes or suspends (see [`HotRun`]).
        /// If `f` switches to another fiber (`switch_to`), this returns
        /// when the chain hands the thread back, and `f` is parked
        /// unless it was switched to again and finished.
        /// `F: Send` because a promoted continuation is `Send`.
        pub(super) fn run<F: FnOnce() + Send>(&mut self, f: F) -> HotRun {
            let core = self.core.get_or_insert_with(|| {
                Box::new(ContCore {
                    coro_sp: std::ptr::null_mut(),
                    ret_sp: std::ptr::null_mut(),
                    finished: false,
                    park_key: 0,
                    panic: None,
                })
            });
            let stack = self.stack.get_or_insert_with(stack_get);
            let mut slot = Some(f);
            let top = stack.top();
            let core_ptr: *mut ContCore = &mut **core;
            // Same eight-slot initial frame as `FiberCont::start`, with
            // the monomorphized `hot_entry::<F>` as the target and a
            // pointer to the stack-local closure slot as its argument
            // (no boxing: the loop's frame outlives the handoff).
            // SAFETY: all eight slots lie inside the armed stack block,
            // below its aligned top; the switch activates a frame this
            // function just built.
            unsafe {
                let sp = top.sub(64) as *mut u64;
                sp.add(0).write(0); // r15
                sp.add(1).write(0); // r14
                sp.add(2).write(hot_entry::<F> as *const () as usize as u64); // r13 → entry fn
                sp.add(3).write(&mut slot as *mut Option<F> as u64); // r12 → closure slot
                sp.add(4).write(core_ptr as u64); // rbx → core
                sp.add(5).write(0); // rbp
                sp.add(6).write(trampoline as *const () as usize as u64); // ret target
                sp.add(7).write(0); // pad / fake caller frame
                CURRENT.with(|c| c.set(Some(Current::Fiber(core_ptr))));
                switch_stack(&mut (*core_ptr).ret_sp, sp as *mut u8);
                CURRENT.with(|c| c.set(None));
            }
            if core.finished {
                // Re-arm in place: the body's frames above the reset
                // point are dead, so the next dispatch reuses stack and
                // core verbatim.
                core.finished = false;
                HotRun::Finished {
                    panic: core.panic.take(),
                }
            } else {
                let core = self.core.take().expect("armed above");
                let stack = self.stack.take().expect("armed above");
                let key = core.park_key;
                HotRun::Parked {
                    cont: FiberCont {
                        core,
                        stack: Some(stack),
                    },
                    key,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> Vec<Backend> {
        if cfg!(target_arch = "x86_64") {
            vec![Backend::Fiber, Backend::Thread]
        } else {
            vec![Backend::Thread]
        }
    }

    #[test]
    fn runs_to_completion_without_suspending() {
        for backend in backends() {
            let (tx, rx) = std::sync::mpsc::channel();
            let mut c = Continuation::new(Box::new(move || tx.send(41).unwrap()), backend);
            assert_eq!(c.resume(), Resume::Finished);
            assert_eq!(rx.recv().unwrap(), 41);
            assert!(c.take_panic().is_none());
        }
    }

    #[test]
    fn suspends_and_resumes_preserving_state() {
        for backend in backends() {
            let (tx, rx) = std::sync::mpsc::channel();
            let mut c = Continuation::new(
                Box::new(move || {
                    let mut acc = 1u64;
                    suspend_current(10);
                    acc += 2;
                    suspend_current(20);
                    acc += 3;
                    tx.send(acc).unwrap();
                }),
                backend,
            );
            assert_eq!(c.resume(), Resume::Parked(10));
            assert_eq!(c.resume(), Resume::Parked(20));
            assert_eq!(c.resume(), Resume::Finished);
            assert_eq!(rx.recv().unwrap(), 6);
        }
    }

    #[test]
    fn many_sequential_continuations_recycle_resources() {
        for backend in backends() {
            for i in 0..64u64 {
                let mut c = Continuation::new(
                    Box::new(move || {
                        suspend_current(i);
                    }),
                    backend,
                );
                assert_eq!(c.resume(), Resume::Parked(i), "backend={backend:?} i={i}");
                assert_eq!(c.resume(), Resume::Finished, "backend={backend:?} i={i}");
            }
        }
    }

    #[test]
    fn resume_can_migrate_between_threads() {
        for backend in backends() {
            let mut c = Continuation::new(
                Box::new(|| {
                    suspend_current(1);
                    suspend_current(2);
                }),
                backend,
            );
            assert_eq!(c.resume(), Resume::Parked(1));
            // Resume from a different OS thread: the continuation's
            // state must travel with it.
            let mut c = std::thread::spawn(move || {
                assert_eq!(c.resume(), Resume::Parked(2));
                c
            })
            .join()
            .unwrap();
            assert_eq!(c.resume(), Resume::Finished);
        }
    }

    #[test]
    fn body_panic_is_carried_not_propagated() {
        for backend in backends() {
            let mut c = Continuation::new(Box::new(|| panic!("boom-{:?}", 7)), backend);
            assert_eq!(c.resume(), Resume::Finished);
            let payload = c.take_panic().expect("panic payload must be carried");
            let msg = payload.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("boom"), "{msg}");
        }
    }

    #[test]
    fn deep_stack_use_inside_continuation_is_safe() {
        // Touch a good chunk of the 256 KiB stack to shake out frame
        // layout bugs; recursion keeps the optimizer from flattening it.
        fn burn(depth: usize) -> u64 {
            let mut local = [0u8; 512];
            local[depth % 512] = depth as u8;
            if depth == 0 {
                local[0] as u64
            } else {
                burn(depth - 1) + local[depth % 512] as u64
            }
        }
        for backend in backends() {
            let (tx, rx) = std::sync::mpsc::channel();
            let mut c = Continuation::new(
                Box::new(move || {
                    let sum = burn(200);
                    suspend_current(sum);
                    tx.send(burn(100)).unwrap();
                }),
                backend,
            );
            assert!(matches!(c.resume(), Resume::Parked(_)));
            assert_eq!(c.resume(), Resume::Finished);
            rx.recv().unwrap();
        }
    }
}
