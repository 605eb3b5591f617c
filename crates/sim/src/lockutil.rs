//! Poison-transparent mutex locking and the runtime half of the lock
//! hierarchy, shared by the engine and the sweep executor in
//! `hcs-bench`.
//!
//! A rank-body panic is always caught, diagnosed and re-thrown by the
//! engine's own panic plumbing, so a poisoned mutex carries no
//! information beyond what that machinery already reports. Every lock
//! site in the simulator therefore treats poisoning as "locked
//! normally" instead of double-panicking (which would replace the
//! root-cause panic with a useless `PoisonError`).
//!
//! # Lock hierarchy
//!
//! Every `Mutex`/`Condvar` in `crates/sim` carries a
//! `// lock-order: <name> level=<N>` annotation collected by
//! `cargo run -p xtask -- check` into a central hierarchy table
//! (DESIGN.md §12). A thread may only acquire locks in strictly
//! increasing level order. [`OrderedMutex`] enforces the same rule at
//! runtime in debug builds: each thread keeps a thread-local set of
//! held levels, and an out-of-order acquisition panics naming both
//! locks. Release builds compile the bookkeeping out entirely.
//!
//! The registry spans the whole engine: the event executor's ready
//! queue (`events.sched`, level 15), continuation handshake
//! (`events.cont`, 5) and fiber stack pool (`events.stacks`, 6) are
//! `OrderedMutex`es like the mailbox lock. Continuation
//! suspension points add a second rule the static walk enforces — no
//! guard may be held across `cont::suspend_current`, since a migrating
//! continuation would release it on the wrong OS thread (DESIGN.md
//! §15).
//!
//! # Run-scoped locks
//!
//! The per-run state of a cluster run — every mailbox queue
//! (`engine.mailbox`), the collective rendezvous slots
//! (`engine.rendezvous`) and the scheduler's ready state
//! (`events.sched`) — sits behind [`RunLock`], a checked borrow flag:
//! a run executes one rank slice at a time, so a mutex would only ever
//! be taken uncontended. The locks that still cross threads — the
//! thread backend's `events.cont` handshake, the `events.stacks` pool,
//! `engine.panics` and the sweep executor's slots — stay mutexes.

use std::cell::{Cell, UnsafeCell};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Locks `m`, treating a poisoned mutex as locked normally.
pub fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(debug_assertions)]
mod held {
    use std::cell::RefCell;

    thread_local! {
        /// Levels (and names) of ordered locks this thread currently
        /// holds, in acquisition order.
        static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    pub fn check_and_push(level: u32, name: &'static str) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(&(held_level, held_name)) = h.iter().find(|&&(l, _)| l >= level) {
                panic!(
                    "lock-order violation: acquiring `{name}` (level {level}) while holding \
                     `{held_name}` (level {held_level}); levels must be strictly increasing \
                     (see DESIGN.md \u{a7}12)"
                );
            }
            h.push((level, name));
        });
    }

    pub fn pop(level: u32, name: &'static str) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|&(l, n)| l == level && n == name) {
                h.remove(pos);
            }
        });
    }
}

/// A mutex with a place in the simulator's declared lock hierarchy.
///
/// `acquire` is the only way in (deliberately not named `lock`, so the
/// `concurrency/raw-lock` lint can ban bare `.lock()` call sites
/// outside this module). In debug builds it panics — naming both locks
/// — if the calling thread already holds a lock of an equal or higher
/// level; in release builds it is exactly a poison-transparent
/// `Mutex::lock`.
pub struct OrderedMutex<T> {
    name: &'static str,
    level: u32,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex registered at `level` under `name`.
    ///
    /// `name` and `level` must match the `// lock-order:` annotation on
    /// the field or binding that stores this mutex; the xtask
    /// concurrency pass cross-checks literal constructor arguments
    /// against the registry.
    pub const fn new(name: &'static str, level: u32, value: T) -> Self {
        OrderedMutex {
            name,
            level,
            inner: Mutex::new(value),
        }
    }

    /// Declared hierarchy name, e.g. `engine.mailbox`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Declared hierarchy level; acquisitions must strictly increase.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Acquires the lock, poison-transparently, checking the hierarchy
    /// in debug builds.
    pub fn acquire(&self) -> OrderedGuard<'_, T> {
        #[cfg(debug_assertions)]
        held::check_and_push(self.level, self.name);
        OrderedGuard {
            lock: self,
            inner: Some(lock_ignore_poison(&self.inner)),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .field("level", &self.level)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`OrderedMutex::acquire`]; releases the lock (and
/// the thread-local level entry) on drop.
pub struct OrderedGuard<'a, T> {
    lock: &'a OrderedMutex<T>,
    // `Option` only so `wait` can move the std guard out; every live
    // `OrderedGuard` holds `Some`.
    inner: Option<MutexGuard<'a, T>>,
}

impl<'a, T> OrderedGuard<'a, T> {
    /// Blocks on `cv`, releasing the mutex while parked, and returns
    /// the reacquired guard — the ordered analogue of `Condvar::wait`.
    ///
    /// The thread-local level entry is kept across the park: the lock
    /// is conceptually still held by this thread for hierarchy
    /// purposes, and the condvar reacquires it before `wait` returns.
    pub fn wait(self, cv: &Condvar) -> OrderedGuard<'a, T> {
        let mut this = std::mem::ManuallyDrop::new(self);
        let lock = this.lock;
        let inner = this
            .inner
            .take()
            .expect("live guard always holds its inner");
        let inner = match cv.wait(inner) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        OrderedGuard {
            lock,
            inner: Some(inner),
        }
    }
}

impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("live guard always holds its inner")
    }
}

impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("live guard always holds its inner")
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::pop(self.lock.level, self.lock.name);
        #[cfg(not(debug_assertions))]
        let _ = self.lock;
    }
}

/// A lock over state that belongs to one cluster run, with a place in
/// the hierarchy like any [`OrderedMutex`] (see the module docs).
///
/// A run executes one rank slice at a time, so exclusion is already
/// given and the lock only checks it: `acquire` sets a flag, the
/// guard's drop clears it (also on unwind), and an `acquire` that finds
/// the flag set panics naming the lock, in every build — the bug a
/// mutex would have turned into a self-deadlock.
pub(crate) struct RunLock<T> {
    name: &'static str,
    level: u32,
    busy: Cell<bool>,
    value: UnsafeCell<T>,
}

// SAFETY: `busy` and `value` are touched from more than one OS thread
// only under the thread-backed continuation backend, and
// `RunLock::new`'s contract makes every two accesses ordered by a
// happens-before edge with no guard alive across it — so there is never
// a concurrent access to `busy`, nor two live references into `value`,
// and `T: Send` lets the value be used from whichever thread holds the
// turn.
unsafe impl<T: Send> Sync for RunLock<T> {}

impl<T> RunLock<T> {
    /// Wraps `value`, registered at `level` under `name` (both must
    /// match the `// lock-order:` annotation, as for
    /// [`OrderedMutex::new`]).
    ///
    /// # Safety
    /// The caller must guarantee what the run loop provides (`events`
    /// module docs): any two uses of the lock — an `acquire`, any access
    /// through its guard, the guard's drop — are ordered by
    /// happens-before, and no guard is alive across a switch to another
    /// thread of execution. One rank slice runs at a time, on the loop's
    /// thread under the fiber backend and behind the `events.cont`
    /// mutex/condvar handoff under the thread backend, and no guard is
    /// held across `cont::suspend_current` (the xtask concurrency pass
    /// enforces it).
    // SAFETY: the single-owner condition is the caller's contract (above).
    pub(crate) unsafe fn new(name: &'static str, level: u32, value: T) -> Self {
        RunLock {
            name,
            level,
            busy: Cell::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// The failure of an `acquire` that found a guard alive; out of line
    /// so the acquire that succeeds stays a test and a store.
    #[cold]
    #[inline(never)]
    fn reentered(&self) -> ! {
        panic!(
            "run lock `{}` (level {}) acquired while a guard of it is alive: a run has one \
             owner per lock at a time (see DESIGN.md \u{a7}12)",
            self.name, self.level
        );
    }

    /// Acquires the lock; the hierarchy is checked in debug builds.
    ///
    /// # Panics
    /// If a guard of this lock is still alive.
    #[inline]
    pub(crate) fn acquire(&self) -> RunGuard<'_, T> {
        if self.busy.get() {
            self.reentered();
        }
        #[cfg(debug_assertions)]
        held::check_and_push(self.level, self.name);
        self.busy.set(true);
        RunGuard { lock: self }
    }
}

/// Guard returned by [`RunLock::acquire`]: holds the lock's `busy`
/// flag and clears it on drop.
pub(crate) struct RunGuard<'a, T> {
    lock: &'a RunLock<T>,
}

impl<T> Drop for RunGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::pop(self.lock.level, self.lock.name);
        self.lock.busy.set(false);
    }
}

impl<T> std::ops::Deref for RunGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard holds the `busy` flag, so it is the only
        // guard of the lock, and by `RunLock::new`'s contract no other
        // thread of execution touches the value while it lives; the
        // reference borrows the guard.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> std::ops::DerefMut for RunGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes this the only
        // reference derived from the only guard.
        unsafe { &mut *self.lock.value.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn increasing_levels_are_accepted() {
        let low = OrderedMutex::new("test.low", 1, 10u32);
        let high = OrderedMutex::new("test.high", 2, 20u32);
        let g1 = low.acquire();
        let g2 = high.acquire();
        assert_eq!(*g1 + *g2, 30);
    }

    #[test]
    fn reacquire_after_release_is_accepted() {
        let m = OrderedMutex::new("test.reacquire", 5, 0u32);
        *m.acquire() += 1;
        *m.acquire() += 1;
        assert_eq!(*m.acquire(), 2);
        assert_eq!(m.name(), "test.reacquire");
        assert_eq!(m.level(), 5);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn inverted_acquisition_panics_naming_both_locks() {
        let low = OrderedMutex::new("test.inv-low", 1, ());
        let high = OrderedMutex::new("test.inv-high", 2, ());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = high.acquire();
            let _inner = low.acquire(); // wrong way round: 2 then 1
        }))
        .expect_err("inverted acquisition must panic in debug builds");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a formatted message");
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("test.inv-low"), "{msg}");
        assert!(msg.contains("test.inv-high"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_level_reentry_panics_instead_of_deadlocking() {
        let m = OrderedMutex::new("test.reentry", 3, ());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.acquire();
            let _again = m.acquire(); // would deadlock; the check fires first
        }))
        .expect_err("re-entrant acquisition must panic in debug builds");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a formatted message");
        assert!(msg.contains("test.reentry"), "{msg}");
    }

    #[test]
    fn held_sets_are_per_thread() {
        // An inverted order *across* threads is fine: each thread only
        // ever holds one of the two locks.
        let low = Arc::new(OrderedMutex::new("test.thread-low", 1, 0u32));
        let high = Arc::new(OrderedMutex::new("test.thread-high", 2, 0u32));
        let (l2, h2) = (Arc::clone(&low), Arc::clone(&high));
        let t = std::thread::spawn(move || {
            *h2.acquire() += 1;
            *l2.acquire() += 1;
        });
        *low.acquire() += 1;
        *high.acquire() += 1;
        t.join().expect("worker thread must not panic");
        assert_eq!(*low.acquire(), 2);
        assert_eq!(*high.acquire(), 2);
    }

    #[test]
    fn wait_releases_and_reacquires() {
        let m = Arc::new(OrderedMutex::new("test.wait", 1, false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let t = std::thread::spawn(move || {
            let mut g = m2.acquire();
            while !*g {
                g = g.wait(&cv2);
            }
            *g = false;
        });
        // The waiter parks with the level entry kept; this thread can
        // still acquire because held sets are per-thread.
        *m.acquire() = true;
        cv.notify_one();
        t.join().expect("waiter must observe the flag");
        assert!(!*m.acquire());
    }

    #[test]
    fn poisoned_ordered_mutex_still_locks() {
        let m = Arc::new(OrderedMutex::new("test.poison", 1, 7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.acquire();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.acquire(), 7);
    }

    fn panic_text(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message")
    }

    fn run_lock<T>(name: &'static str, level: u32, value: T) -> RunLock<T> {
        // SAFETY: every test below uses its lock from one thread only.
        unsafe { RunLock::new(name, level, value) }
    }

    #[test]
    fn owned_reentry_panics_naming_the_lock_in_every_build() {
        let m = run_lock("test.owned-reentry", 3, 0u32);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.acquire();
            let _again = m.acquire();
        }))
        .expect_err("a second guard must panic, in release builds too");
        let msg = panic_text(err);
        assert!(msg.contains("test.owned-reentry"), "{msg}");
        assert!(msg.contains("while a guard of it is alive"), "{msg}");
    }

    #[test]
    fn owned_flag_is_cleared_when_an_unwind_drops_the_guard() {
        // A panicking rank's `poison_from` walks every mailbox,
        // including one whose guard the unwind has just dropped.
        let m = run_lock("test.owned-unwind", 3, 5u32);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = m.acquire();
            *g += 1;
            panic!("rank body panics with the guard alive");
        }))
        .expect_err("the closure panics");
        assert!(panic_text(err).contains("rank body panics"));
        assert_eq!(*m.acquire(), 6, "the flag was released and the write kept");
        // The failed re-entry leaves the flag with the guard that owns it.
        let g = m.acquire();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(m.acquire())))
            .expect_err("re-entry panics");
        drop(g);
        assert_eq!(*m.acquire(), 6);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn run_lock_keeps_the_hierarchy_check() {
        let low = run_lock("test.run-inv-low", 1, ());
        let high = run_lock("test.run-inv-high", 2, ());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = high.acquire();
            let _inner = low.acquire();
        }))
        .expect_err("inverted acquisition must panic in debug builds");
        let msg = panic_text(err);
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(
            msg.contains("test.run-inv-low") && msg.contains("test.run-inv-high"),
            "{msg}"
        );
        // Nothing leaked: the right order still works afterwards.
        let _a = low.acquire();
        let _b = high.acquire();
    }
}
