//! Schedulable rank continuations for the event-driven engine.
//!
//! A rank body starts through a [`Starter`] and runs until it finishes
//! or *parks* at a blocking receive ([`park`]); either way the call
//! returns a [`Slice`]. A parked body comes back as a [`Continuation`]
//! inside [`Slice::Parked`], and each [`Continuation::resume`] runs it
//! to the next such slice. The event scheduler (`events.rs`) drives all
//! bodies of a run from one loop on the thread that called
//! `Cluster::run*`, which is what lets a p = 131072 run execute on one
//! OS thread instead of needing one thread per rank. The run loop never
//! moves a continuation off the thread that started it; the type is
//! still `Send` — its state travels with it, as
//! `tests::resume_can_migrate_between_threads` checks on both backends.
//!
//! Two interchangeable backends implement the suspend/resume contract:
//!
//! - **Fiber** (x86_64 only): a stackful coroutine. Suspension is a
//!   user-space stack switch (~tens of nanoseconds): the callee-saved
//!   registers are pushed on the current stack, the stack pointer is
//!   swapped, and the counterpart's registers are popped. Every fiber
//!   starts on the starter's *hot stack*; a body that parks takes that
//!   stack with it into its continuation, and the starter arms a fresh
//!   one from its thread's free list on its next start. So the peak
//!   number of live stacks tracks the number of *simultaneously
//!   suspended* ranks, not the rank count.
//! - **Thread**: one OS thread per started body with a handshake over
//!   two one-slot channels: the executor sends a resume, the body sends
//!   back how its slice ended. Functionally identical but orders of
//!   magnitude slower to create; it exists as the portable fallback for
//!   non-x86_64 targets and as the ThreadSanitizer-compatible mode (TSan
//!   cannot follow a user-space stack switch without fiber annotations),
//!   selected via `HCS_EVENT_THREAD_CONT=1`.
//!
//! The contract both backends guarantee:
//!
//! - A slice runs the body until it finishes or parks, and reports
//!   which of the two happened.
//! - On the fiber backend a parking body may also hand the thread
//!   straight to another parked fiber (the `to` of [`park`]), which
//!   inherits the context to return to. A slice then returns when the
//!   *last* fiber of that chain finishes or suspends; the body it ran is
//!   parked unless it is that last fiber, and
//!   [`Continuation::returned`] reports the last one.
//! - At most one of (executor, body) executes at any instant — a strict
//!   handoff. The body may therefore use `&mut` state freely across
//!   suspension points.
//! - **No guard of the run's lock is alive across a suspension.** It
//!   would stay alive while *other ranks run*, which is what
//!   `RunLock`'s contract forbids (DESIGN.md §12). [`park`], the one
//!   suspension this module offers the crate, takes the guard by value
//!   and drops it before the body leaves its slice, so rustc holds the
//!   rule on every path.
//! - A panic that escapes the body is caught on the continuation's own
//!   stack, carried back in [`Slice::Finished`], and re-thrown by the
//!   executor on a real thread (unwinding across the stack-switch
//!   boundary would be undefined behavior).

use std::any::Any;
use std::cell::{Cell, OnceCell};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use crate::lockutil::RunGuard;

/// Stack size of every rank body's host stack: fiber stacks and
/// thread-backed continuations.
/// The clock-sync code is iterative, so a small stack keeps 128Ki-rank
/// runs affordable.
pub(crate) const RANK_STACK_BYTES: usize = 256 * 1024;

/// The closure a thread-backed continuation runs.
type Entry = Box<dyn FnOnce() + Send + 'static>;

/// Which suspend/resume mechanism to use (decided once per run by the
/// event executor; see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// Stackful coroutine (x86_64 only; non-x86_64 builds coerce it to
    /// `Thread` in [`Starter::new`]).
    Fiber,
    /// Dedicated OS thread per continuation with a channel handshake.
    Thread,
}

impl Backend {
    /// The backend the `HCS_EVENT_THREAD_CONT` setting selects (see
    /// [`Backend::from_env_value`]).
    pub(crate) fn from_env() -> Backend {
        Backend::from_env_value(std::env::var("HCS_EVENT_THREAD_CONT").ok().as_deref())
    }

    /// Resolves an `HCS_EVENT_THREAD_CONT` value: unset, empty, `0` or
    /// `false` select fibers; `1` or `true` the thread handshake (the
    /// portable, TSan-safe backend). ASCII case-insensitive.
    ///
    /// # Panics
    /// Panics on any other value, so a typo never selects a backend
    /// silently.
    fn from_env_value(value: Option<&str>) -> Backend {
        match value {
            None | Some("") | Some("0") => Backend::Fiber,
            Some("1") => Backend::Thread,
            Some(v) if v.eq_ignore_ascii_case("false") => Backend::Fiber,
            Some(v) if v.eq_ignore_ascii_case("true") => Backend::Thread,
            Some(v) => panic!(
                "HCS_EVENT_THREAD_CONT={v:?} is not a backend switch: expected `0`, `false`, \
                 `1` or `true`"
            ),
        }
    }
}

/// What one slice of a rank body observed: a [`Starter::start`],
/// [`Continuation::resume`] or [`Continuation::returned`].
pub(crate) enum Slice {
    /// The body returned; any panic it unwound with is carried here.
    /// Its stack or thread is already reaped.
    Finished { panic: Option<Box<dyn Any + Send>> },
    /// The body parked with `key` (the rank's virtual-time order key;
    /// opaque to this module); `cont` resumes it.
    Parked { cont: Continuation, key: u64 },
}

impl Slice {
    fn parked(state: ContState, key: u64) -> Slice {
        Slice::Parked {
            cont: Continuation { state },
            key,
        }
    }
}

/// Parks the rank body executing on this thread with `key`: drops
/// `guard`, the guard of the run's lock the park was decided under,
/// then ends the body's slice with [`Slice::Parked`] or, given `to`,
/// suspends it in favor of that parked fiber ([`switch_to`]). Returns
/// when the body is activated again.
///
/// # Safety
/// `to`, if any, must come from [`current_fiber`] of a body that is
/// parked now (suspended, not finished), on this thread, and whose
/// continuation is still alive.
///
/// # Panics
/// Panics if the caller is not running inside a continuation, or is
/// not a fiber and `to` is given.
pub(crate) unsafe fn park<T>(guard: RunGuard<'_, T>, key: u64, to: Option<FiberRef>) {
    drop(guard);
    match to {
        None => suspend_current(key),
        // SAFETY: `next` is a parked, live fiber of this thread (the
        // contract above), and the guard is gone.
        Some(next) => unsafe { switch_to(key, next) },
    }
}

/// Suspends the continuation currently executing on this thread,
/// ending its slice with [`Slice::Parked`] and `key`. Returns when the
/// executor resumes the continuation again.
///
/// # Panics
/// Panics if the calling code is not running inside a continuation.
fn suspend_current(key: u64) {
    match current() {
        #[cfg(target_arch = "x86_64")]
        Current::Fiber(core) => {
            // SAFETY: `core` was set by whoever activated the fiber on
            // this thread and stays valid for the whole activation (the
            // starter or the continuation owns the box). Only the body
            // side touches it between activation and switch-back.
            unsafe {
                (*core).park_key = key;
                let ret = (*core).ret_sp;
                fiber::switch_stack(&mut (*core).coro_sp, ret);
            }
        }
        Current::Thread => BODY_ENDS.with(|ends| {
            let ends = ends
                .get()
                .expect("a coroutine thread holds its handshake ends");
            let resumed =
                ends.ended.send(ThreadSlice::Suspended(key)).is_ok() && ends.resume.recv().is_ok();
            if !resumed {
                // The executor dropped this parked continuation (the
                // stalled-run unwind of `events::drive`): the body
                // never runs again, and process exit reaps the thread.
                loop {
                    std::thread::park();
                }
            }
        }),
    }
}

/// A parked fiber that a running one may switch straight to
/// ([`switch_to`]): the address of its switch core, which stays put
/// from the fiber's first activation until it finishes (promoting a
/// body off the hot stack moves the box, not the core).
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
        Current::Thread => None,
    }
}

/// Suspends the fiber executing on this thread with `key`, as
/// [`suspend_current`] does, but activates `next` instead of returning
/// to the executor: `next` inherits this fiber's return context, so
/// the executor's slice returns only when a fiber of the chain
/// finishes or calls [`suspend_current`]. Returns when this fiber is
/// activated again, by the executor or by a switch.
///
/// # Safety
/// As for [`park`]'s `to`.
///
/// # Panics
/// Panics if the caller is not a fiber.
unsafe fn switch_to(key: u64, next: FiberRef) {
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
/// by whoever activates a fiber (and moved along by `switch_to`) and by
/// the coroutine thread itself for the thread backend.
#[derive(Clone, Copy)]
enum Current {
    #[cfg(target_arch = "x86_64")]
    Fiber(*mut fiber::ContCore),
    Thread,
}

thread_local! {
    static CURRENT: Cell<Option<Current>> = const { Cell::new(None) };
    /// A coroutine thread's ends of its handshake (thread backend).
    static BODY_ENDS: OnceCell<BodyEnds> = const { OnceCell::new() };
}

/// Starts fresh rank bodies on one backend. On the fiber backend it
/// owns the *hot stack*: a fresh body runs on it straight away, and
/// only a body that parks takes the stack (and its switch core) with
/// it into a [`Continuation`]. The common case — a body that never
/// blocks — thereby costs one frame build and two stack switches, with
/// no allocation at all. On the thread backend every body gets its own
/// coroutine thread.
pub(crate) struct Starter {
    backend: Backend,
    #[cfg(target_arch = "x86_64")]
    hot: fiber::HotFiber,
}

impl Starter {
    /// A starter for `backend`; without x86_64 every body is
    /// thread-backed. Commits no stack until the first fiber start.
    pub(crate) fn new(backend: Backend) -> Starter {
        #[cfg(not(target_arch = "x86_64"))]
        let backend = Backend::Thread;
        Starter {
            backend,
            #[cfg(target_arch = "x86_64")]
            hot: fiber::HotFiber::default(),
        }
    }

    /// Runs `f` until it finishes or suspends. If `f` switches to
    /// another fiber (`switch_to`), this returns when the chain hands
    /// the thread back, and `f` is parked unless it was switched to
    /// again and finished. `F: Send` because a continuation is `Send`.
    ///
    /// # Safety
    /// Everything `f` borrows must outlive the [`Continuation`] that a
    /// [`Slice::Parked`] result carries, until that continuation
    /// finishes or is dropped without being resumed again: the
    /// continuation is `'static` but holds `f`.
    pub(crate) unsafe fn start<'a, F: FnOnce() + Send + 'a>(&mut self, f: F) -> Slice {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `run` has this function's contract, passed on.
            Backend::Fiber => unsafe { self.hot.run(f) },
            _ => {
                let entry: Box<dyn FnOnce() + Send + 'a> = Box::new(f);
                // SAFETY: the caller keeps `f`'s borrows alive for as
                // long as its continuation may run (contract above).
                // The transmute only widens the trait object's
                // lifetime parameter.
                let entry: Entry = unsafe { std::mem::transmute(entry) };
                ThreadCont::start(entry)
            }
        }
    }
}

/// One suspended rank body: the fiber stack or coroutine thread it is
/// parked on.
pub(crate) struct Continuation {
    state: ContState,
}

enum ContState {
    #[cfg(target_arch = "x86_64")]
    Fiber(fiber::FiberCont),
    Thread(ThreadCont),
}

impl Continuation {
    /// Runs the body until it finishes (its stack or thread is reaped)
    /// or suspends again.
    pub(crate) fn resume(self) -> Slice {
        match self.state {
            #[cfg(target_arch = "x86_64")]
            ContState::Fiber(f) => f.resume(),
            ContState::Thread(t) => t.resume(),
        }
    }

    /// What a fiber that a chain of [`switch_to`] calls moved to did
    /// when it handed the thread back to the executor: finished (the
    /// stack is reaped, as by [`Continuation::resume`]) or parked.
    pub(crate) fn returned(self) -> Slice {
        match self.state {
            #[cfg(target_arch = "x86_64")]
            ContState::Fiber(f) => f.returned(),
            _ => unreachable!("only a fiber is a switch target"),
        }
    }
}

// ---------------------------------------------------------------------
// Thread backend
// ---------------------------------------------------------------------

/// How a thread-backed body's slice ended, sent to the executor.
enum ThreadSlice {
    /// The body parked with this key and waits for its resume.
    Suspended(u64),
    /// The body returned; the coroutine thread is exiting.
    Finished(Option<Box<dyn Any + Send>>),
}

/// The coroutine thread's ends of the handshake. Each channel holds one
/// message, and each side sends only after it has received the other's
/// last, so no send blocks and none allocates.
struct BodyEnds {
    resume: Receiver<()>,
    ended: SyncSender<ThreadSlice>,
}

/// A continuation backed by a dedicated OS thread (see module docs):
/// the executor's ends of the handshake. Dropping a parked one closes
/// `resume`, which leaves its body blocked for good (`suspend_current`)
/// and its thread detached.
struct ThreadCont {
    resume: SyncSender<()>,
    ended: Receiver<ThreadSlice>,
    thread: std::thread::JoinHandle<()>,
}

impl ThreadCont {
    /// Spawns the coroutine thread, which runs `entry` at once, and
    /// waits for its first slice to end.
    fn start(entry: Entry) -> Slice {
        let (resume, resume_rx) = sync_channel(1);
        let (ended_tx, ended) = sync_channel(1);
        let thread = std::thread::Builder::new()
            .name("hcs-cont".into())
            .stack_size(RANK_STACK_BYTES)
            .spawn(move || {
                let ends = BodyEnds {
                    resume: resume_rx,
                    ended: ended_tx,
                };
                BODY_ENDS.with(|cell| {
                    cell.get_or_init(|| ends);
                });
                CURRENT.set(Some(Current::Thread));
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry));
                CURRENT.set(None);
                BODY_ENDS.with(|cell| {
                    let ends = cell.get().expect("set above");
                    let _ = ends.ended.send(ThreadSlice::Finished(result.err()));
                });
            })
            .expect("failed to spawn continuation thread");
        ThreadCont {
            resume,
            ended,
            thread,
        }
        .wait()
    }

    /// Executor side: wakes the parked body, then waits for its slice
    /// to end.
    fn resume(self) -> Slice {
        self.resume
            .send(())
            .expect("a parked body waits for its resume");
        self.wait()
    }

    /// Waits for the running body to suspend or finish; a finished
    /// body's thread is joined.
    fn wait(self) -> Slice {
        match self
            .ended
            .recv()
            .expect("a body reports how each slice ends")
        {
            ThreadSlice::Suspended(key) => Slice::parked(ContState::Thread(self), key),
            ThreadSlice::Finished(panic) => {
                let _ = self.thread.join();
                Slice::Finished { panic }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fiber backend (x86_64)
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod fiber {
    use std::any::Any;
    use std::arch::naked_asm;
    use std::cell::RefCell;

    use super::{ContState, Current, Slice, CURRENT, RANK_STACK_BYTES};

    /// Shared switch state of one fiber. Boxed so its address is stable
    /// while both sides hold raw pointers to it.
    pub(super) struct ContCore {
        /// Saved stack pointer of the suspended fiber.
        pub(super) coro_sp: *mut u8,
        /// Saved stack pointer of the executor thread driving the slice.
        pub(super) ret_sp: *mut u8,
        /// Set by `hot_entry` once the body returned.
        finished: bool,
        /// Key passed to the pending `suspend_current`.
        pub(super) park_key: u64,
        /// Panic payload caught on the fiber stack, if the body unwound.
        panic: Option<Box<dyn Any + Send>>,
    }

    /// Saves the callee-saved registers and stack pointer of the
    /// current context into `*save`, then activates the stack `to`
    /// (a value previously written by this function, or an initial
    /// frame built by `HotFiber::run`).
    ///
    /// Only the System V callee-saved GP registers travel across the
    /// switch (rbx, rbp, r12–r15); everything else is caller-saved at
    /// this call boundary, so the compiler preserves what it needs.
    ///
    /// # Safety
    ///
    /// Callers must pass a `to` stack that was either saved by this
    /// function or laid out by `HotFiber::run`; the asm body touches
    /// only the stack and callee-saved registers, exactly the contract
    /// a naked `extern "C"` boundary exposes.
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
    /// stack. The entry, `hot_entry::<F>`, is monomorphized per body
    /// type, hence the indirection through `r13`.
    ///
    /// # Safety
    ///
    /// Only ever entered via an initial frame built by `HotFiber::run`
    /// (rbx = core, r12 = arg, r13 = a never-returning
    /// `extern "C" fn(core, arg)`), so the `ud2` after the call is
    /// unreachable by construction.
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

    /// One 16-byte-aligned heap block used as a fiber stack.
    struct RawStack {
        base: *mut u8,
    }

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
            self.base.wrapping_add(RANK_STACK_BYTES)
        }
    }

    impl Drop for RawStack {
        fn drop(&mut self) {
            // SAFETY: `base` came from `alloc` with this exact layout
            // and is dropped exactly once.
            unsafe { std::alloc::dealloc(self.base, stack_layout()) };
        }
    }

    thread_local! {
        /// This thread's free list of recycled fiber stacks. Because
        /// finished fibers return their stack here before the next rank
        /// starts, the list (and total stack memory) stays proportional
        /// to the peak number of simultaneously-suspended ranks of the
        /// runs on this thread. Capped so a pathological run cannot pin
        /// unbounded memory; a thread's stacks are freed as it exits.
        static STACK_POOL: RefCell<Vec<RawStack>> = const { RefCell::new(Vec::new()) };
    }

    /// Free-list cap per thread: 256 stacks × 256 KiB = 64 MiB worst
    /// case.
    const STACK_POOL_MAX: usize = 256;

    fn stack_get() -> RawStack {
        match STACK_POOL.with_borrow_mut(Vec::pop) {
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
        STACK_POOL.with_borrow_mut(|pool| {
            if pool.len() < STACK_POOL_MAX {
                pool.push(s);
            }
        });
    }

    #[cfg(test)]
    thread_local! {
        /// Stacks this thread returned to the pool.
        static RECYCLED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    #[cfg(test)]
    pub(super) fn recycled_stacks() -> u64 {
        RECYCLED.with(std::cell::Cell::get)
    }

    /// A parked fiber, promoted off the hot stack: its switch core plus
    /// the stack it runs on.
    pub(super) struct FiberCont {
        core: Box<ContCore>,
        stack: RawStack,
    }

    // SAFETY: the raw pointers inside ContCore are only dereferenced
    // under the strict executor/body handoff — exactly one side is
    // running at any instant — and the stack block is owned by this
    // continuation alone, so moving the owner to another thread is a
    // plain ownership transfer.
    unsafe impl Send for FiberCont {}

    impl FiberCont {
        pub(super) fn resume(mut self) -> Slice {
            let core: *mut ContCore = &mut *self.core;
            CURRENT.with(|c| c.set(Some(Current::Fiber(core))));
            // SAFETY: `coro_sp` is the save slot written by the fiber's
            // last suspension; the fiber is parked, not finished (a
            // finished one is consumed by `returned`), so activating it
            // is the strict handoff the core was designed for.
            unsafe {
                let to = (*core).coro_sp;
                switch_stack(&mut (*core).ret_sp, to);
            }
            CURRENT.with(|c| c.set(None));
            self.returned()
        }

        /// How this fiber last handed the thread back to the executor:
        /// finished (its stack returns to the pool) or parked.
        pub(super) fn returned(self) -> Slice {
            if self.core.finished {
                let FiberCont { mut core, stack } = self;
                stack_put(stack);
                Slice::Finished {
                    panic: core.panic.take(),
                }
            } else {
                let key = self.core.park_key;
                Slice::parked(ContState::Fiber(self), key)
            }
        }
    }

    /// The starter's reusable (stack, core) pair that every fresh body
    /// runs on, armed on first use. A body that finishes leaves both
    /// armed for the next; a body that parks takes both into a
    /// [`FiberCont`] (the slow path, which already pays heap traffic
    /// to publish the park), and the next start arms a new pair.
    #[derive(Default)]
    pub(super) struct HotFiber {
        core: Option<Box<ContCore>>,
        stack: Option<RawStack>,
    }

    /// Runs the body on the fiber it was started on. Never returns: the
    /// final switch publishes `finished` first, so whoever activated
    /// the fiber last can trust the flag and never resumes it again.
    ///
    /// # Safety
    ///
    /// Called exactly once per start, from `trampoline`, with the
    /// pointers planted by `HotFiber::run`; `slot` holds the closure
    /// until this takes it (strict handoff — the run loop is suspended
    /// in `switch_stack` for the whole window, keeping its frame alive).
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
        /// Runs `f` on the hot stack; see [`super::Starter::start`].
        ///
        /// # Safety
        /// As for [`super::Starter::start`]: `f`'s borrows must outlive
        /// the continuation a parked result carries.
        pub(super) unsafe fn run<F: FnOnce() + Send>(&mut self, f: F) -> Slice {
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
            debug_assert!(
                (top as usize).is_multiple_of(16),
                "stack top must be 16-aligned"
            );
            let core_ptr: *mut ContCore = &mut **core;
            // Frame layout, low to high, matching `switch_stack`'s six
            // pops + ret: r15 r14 r13 r12 rbx rbp | retaddr | pad. The
            // monomorphized `hot_entry::<F>` is the target and a pointer
            // to the stack-local closure slot its argument (no boxing:
            // the loop's frame outlives the handoff).
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
                // point are dead, so the next start reuses stack and
                // core verbatim.
                core.finished = false;
                return Slice::Finished {
                    panic: core.panic.take(),
                };
            }
            let cont = FiberCont {
                core: self.core.take().expect("armed above"),
                stack: self.stack.take().expect("armed above"),
            };
            cont.returned()
        }
    }

    impl Drop for HotFiber {
        /// Returns an armed hot stack to the pool, which checks its
        /// canary: a run in which no rank parks runs on this stack
        /// alone.
        fn drop(&mut self) {
            if let Some(stack) = self.stack.take() {
                stack_put(stack);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The backends a test can run here: both, or the thread backend
    /// alone where the target has no fibers or `HCS_EVENT_THREAD_CONT`
    /// forces threads (the sanitizer lanes, which cannot follow a stack
    /// switch). A test that compares the backends compares those
    /// available.
    pub(crate) fn test_backends() -> Vec<Backend> {
        match Starter::new(Backend::from_env()).backend {
            Backend::Fiber => vec![Backend::Fiber, Backend::Thread],
            Backend::Thread => vec![Backend::Thread],
        }
    }

    /// Starts a body that borrows nothing on a starter of its own.
    fn start(backend: Backend, f: impl FnOnce() + Send + 'static) -> Slice {
        // SAFETY: `f` is `'static`, so it has no borrows to outlive.
        unsafe { Starter::new(backend).start(f) }
    }

    /// The continuation of a slice that parked with `want`.
    #[track_caller]
    fn parked(slice: Slice, want: u64) -> Continuation {
        match slice {
            Slice::Parked { cont, key } => {
                assert_eq!(key, want);
                cont
            }
            Slice::Finished { .. } => panic!("finished, expected a park with key {want}"),
        }
    }

    /// The panic payload, if any, of a slice that finished.
    #[track_caller]
    fn finished(slice: Slice) -> Option<Box<dyn Any + Send>> {
        match slice {
            Slice::Finished { panic } => panic,
            Slice::Parked { key, .. } => panic!("parked with key {key}, expected to finish"),
        }
    }

    /// How many fiber stacks the calling thread has returned to the
    /// pool so far (none without the fiber backend): a finished fiber's
    /// stack goes back the moment the executor learns it finished, and
    /// the hot stack when its starter drops.
    pub(crate) fn recycled_stacks() -> u64 {
        #[cfg(target_arch = "x86_64")]
        return fiber::recycled_stacks();
        #[cfg(not(target_arch = "x86_64"))]
        0
    }

    #[test]
    fn runs_to_completion_without_suspending() {
        for backend in test_backends() {
            let (tx, rx) = std::sync::mpsc::channel();
            assert!(finished(start(backend, move || tx.send(41).unwrap())).is_none());
            assert_eq!(rx.recv().unwrap(), 41);
        }
    }

    #[test]
    fn suspends_and_resumes_preserving_state() {
        for backend in test_backends() {
            let steps = [2u64, 3];
            let (tx, rx) = std::sync::mpsc::channel();
            let body = {
                let steps = &steps;
                move || {
                    let mut acc = 1u64;
                    suspend_current(10);
                    acc += steps[0];
                    suspend_current(20);
                    acc += steps[1];
                    tx.send(acc).unwrap();
                }
            };
            // SAFETY: `steps` outlives the continuation, which finishes
            // below.
            let c = parked(unsafe { Starter::new(backend).start(body) }, 10);
            let c = parked(c.resume(), 20);
            assert!(finished(c.resume()).is_none());
            assert_eq!(rx.recv().unwrap(), 6);
        }
    }

    #[test]
    fn many_sequential_continuations_recycle_resources() {
        for backend in test_backends() {
            let before = recycled_stacks();
            let mut starter = Starter::new(backend);
            for i in 0..64u64 {
                // SAFETY: the body borrows nothing.
                let c = parked(unsafe { starter.start(move || suspend_current(i)) }, i);
                assert!(finished(c.resume()).is_none(), "backend={backend:?} i={i}");
            }
            // SAFETY: the body borrows nothing.
            assert!(finished(unsafe { starter.start(|| ()) }).is_none());
            drop(starter);
            // Each parked body took the hot stack along and returned it
            // as it finished; the last body finished on a fresh hot
            // stack, which went back as the starter dropped.
            let want = if backend == Backend::Fiber { 65 } else { 0 };
            assert_eq!(recycled_stacks() - before, want, "backend={backend:?}");
        }
    }

    #[test]
    fn resume_can_migrate_between_threads() {
        for backend in test_backends() {
            let c = start(backend, || {
                suspend_current(1);
                suspend_current(2);
            });
            let c = parked(c, 1);
            // Resume from a different OS thread: the continuation's
            // state must travel with it.
            let c = std::thread::spawn(move || parked(c.resume(), 2))
                .join()
                .unwrap();
            assert!(finished(c.resume()).is_none());
        }
    }

    #[test]
    fn dropping_a_parked_thread_continuation_leaves_its_body_blocked() {
        // The stalled-run detach: the executor drops a parked body
        // without resuming it. The drop returns at once, and the body
        // neither runs on beside the executor nor exits.
        let (tx, rx) = std::sync::mpsc::channel();
        let body = move || {
            suspend_current(1);
            tx.send(()).unwrap();
        };
        drop(parked(start(Backend::Thread, body), 1));
        let after = rx.recv_timeout(std::time::Duration::from_millis(100));
        assert_eq!(after, Err(std::sync::mpsc::RecvTimeoutError::Timeout));
    }

    #[test]
    fn body_panic_is_carried_not_propagated() {
        for backend in test_backends() {
            let payload = finished(start(backend, || panic!("boom-{:?}", 7)))
                .expect("panic payload must be carried");
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
        for backend in test_backends() {
            let (tx, rx) = std::sync::mpsc::channel();
            let c = start(backend, move || {
                let sum = burn(200);
                suspend_current(sum);
                tx.send(burn(100)).unwrap();
            });
            let Slice::Parked { cont, .. } = c else {
                panic!("the body parks once");
            };
            assert!(finished(cont.resume()).is_none());
            rx.recv().unwrap();
        }
    }

    #[test]
    fn hcs_event_thread_cont_accepts_a_switch_only() {
        for (value, want) in [
            (None, Backend::Fiber),
            (Some(""), Backend::Fiber),
            (Some("0"), Backend::Fiber),
            (Some("FALSE"), Backend::Fiber),
            (Some("1"), Backend::Thread),
            (Some("True"), Backend::Thread),
        ] {
            assert_eq!(Backend::from_env_value(value), want, "{value:?}");
        }
        for typo in ["yes", "2", " 1", "on"] {
            let msg = *std::panic::catch_unwind(|| Backend::from_env_value(Some(typo)))
                .expect_err("a typo must not select a backend")
                .downcast::<String>()
                .expect("panic payload");
            assert!(
                msg.contains("HCS_EVENT_THREAD_CONT") && msg.contains(&format!("{typo:?}")),
                "{msg}"
            );
            assert!(msg.contains("`1` or `true`"), "{msg}");
        }
    }
}
