//! The run-scoped [`RunLock`], and poison-transparent mutex locking
//! for the sweep executor in `hcs-bench`.
//!
//! # One lock per run, no mutex (DESIGN.md §12)
//!
//! The per-run state of a cluster run — the ranks' inboxes, wait edges
//! and completion flags, the collective rendezvous slots and the
//! scheduler's ready state — is one value behind one [`RunLock`]
//! (`engine.run`), a checked borrow flag: a run executes one rank slice
//! at a time, so a mutex would only ever be taken uncontended. What
//! crosses threads in `hcs-sim` — the thread backend's handshake and a
//! run's outputs — goes through channels, and the fiber stack pool is
//! per thread, so the crate holds no mutex outside this file and its
//! tests; `cargo run -p xtask -- check` keeps it so.
//!
//! A rank-body panic is always caught, diagnosed and re-thrown by the
//! engine's own panic plumbing, so a poisoned mutex carries no
//! information beyond what that machinery already reports.
//! [`lock_ignore_poison`] therefore treats poisoning as "locked
//! normally" instead of double-panicking (which would replace the
//! root-cause panic with a useless `PoisonError`).

use std::cell::{Cell, UnsafeCell};
use std::sync::{Mutex, MutexGuard};

/// Locks `m`, treating a poisoned mutex as locked normally.
// The one raw `Mutex::lock` of the workspace (banned elsewhere by
// `crates/clippy.toml`): every other acquisition routes through here.
#[allow(clippy::disallowed_methods)]
pub fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A lock over state that belongs to one cluster run (see the module
/// docs); the engine builds one per run.
///
/// A run executes one rank slice at a time, so exclusion is already
/// given and the lock only checks it: `acquire` sets a flag, the
/// guard's drop clears it (also on unwind), and an `acquire` that finds
/// the flag set panics naming the lock, in every build — the bug a
/// mutex would have turned into a self-deadlock.
pub(crate) struct RunLock<T> {
    name: &'static str,
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
    /// Wraps `value`; `name` identifies the lock in the re-entry panic.
    ///
    /// # Safety
    /// The caller must guarantee what the run loop provides (`events`
    /// module docs): any two uses of the lock — an `acquire`, any access
    /// through its guard, the guard's drop — are ordered by
    /// happens-before, and no guard is alive across a switch to another
    /// thread of execution. One rank slice runs at a time, on the loop's
    /// thread under the fiber backend and behind the channel handshake
    /// of `cont.rs` under the thread backend, and a rank parks only
    /// through `cont::park`, which consumes its guard, so rustc keeps
    /// every guard dead across a suspension.
    pub(crate) unsafe fn new(name: &'static str, value: T) -> Self {
        RunLock {
            name,
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
            "run lock `{}` acquired while a guard of it is alive: a run has one owner per \
             lock at a time (see DESIGN.md \u{a7}12)",
            self.name
        );
    }

    /// Acquires the lock.
    ///
    /// # Panics
    /// If a guard of this lock is still alive.
    #[inline]
    pub(crate) fn acquire(&self) -> RunGuard<'_, T> {
        if self.busy.get() {
            self.reentered();
        }
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
    fn poisoned_mutex_still_locks() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock_ignore_poison(&m2);
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_ignore_poison(&m), 7);
    }

    fn panic_text(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message")
    }

    fn run_lock<T>(name: &'static str, value: T) -> RunLock<T> {
        // SAFETY: every test below uses its lock from one thread only.
        unsafe { RunLock::new(name, value) }
    }

    #[test]
    fn owned_reentry_panics_naming_the_lock_in_every_build() {
        let m = run_lock("test.owned-reentry", 0u32);
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
        // A rank that panics with a guard alive must leave the lock
        // usable for the peers that still run.
        let m = run_lock("test.owned-unwind", 5u32);
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
}
