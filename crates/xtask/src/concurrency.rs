//! Concurrency-discipline lints: no mutex in the simulator, and the
//! atomics justification.
//!
//! A run executes one rank slice at a time, and what its ranks share is
//! one value behind the run's one `RunLock`, a checked flag that never
//! blocks (DESIGN.md §12). A rank parks only through `cont::park`,
//! which takes the lock's guard by value, so rustc keeps every guard
//! dead across a suspension. These passes keep the rest:
//!
//! - **no mutex** (`concurrency/no-mutex`) — non-test code under
//!   `crates/sim/src`, outside `lockutil.rs`, names no `Mutex`,
//!   `RwLock`, `Condvar` or `lock_ignore_poison`. What crosses threads
//!   there goes through a channel, so no lock of the simulator can be
//!   held across a park or wait on another;
//! - **atomics** (`concurrency/relaxed-atomic`) — every
//!   `Ordering::Relaxed` in library code of the concurrency-sensitive
//!   crates needs an `// atomics:` comment explaining why relaxed
//!   ordering is sound, same-line or in the comment block above.
//!
//! Genuinely special sites carry a per-line `// xtask-allow:
//! concurrency`.

use crate::scanner::{annotation_above, has_word, FileScan};
use crate::Finding;

/// Per-line escape hatch: suppresses every concurrency finding on the
/// line it appears on.
pub const ALLOW_MARKER: &str = "xtask-allow: concurrency";

/// The file that defines the locking primitives itself, exempt from
/// every pass in this module.
pub const BLESSED_FILE: &str = "crates/sim/src/lockutil.rs";

/// Crates whose library code must justify every `Ordering::Relaxed`.
pub const ATOMICS_CRATES: &[&str] = &["sim", "core", "clock", "mpi", "obs", "benchlib"];

const ATOMICS_MARKER: &str = "atomics:";

/// The names `concurrency/no-mutex` refuses.
const BLOCKING_LOCKS: &[&str] = &["Mutex", "RwLock", "Condvar", "lock_ignore_poison"];

/// Files the no-mutex rule covers.
pub fn in_mutex_free_scope(path: &str) -> bool {
    path.starts_with("crates/sim/src/") && path != BLESSED_FILE
}

fn allowed(scan: &FileScan, ln: usize) -> bool {
    scan.raw[ln].contains(ALLOW_MARKER)
}

fn finding(path: &str, ln: usize, lint: &'static str, msg: String) -> Finding {
    Finding {
        path: path.to_string(),
        line: ln + 1,
        lint,
        msg,
    }
}

/// A blocking lock named in non-test code: one finding per line.
pub fn no_mutex(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    for (ln, line) in scan.code.iter().enumerate() {
        if scan.is_test[ln] || allowed(scan, ln) {
            continue;
        }
        if let Some(name) = BLOCKING_LOCKS.iter().find(|w| has_word(line, w)) {
            out.push(finding(
                path,
                ln,
                "concurrency/no-mutex",
                format!(
                    "`{name}` in hcs-sim: a run's shared state sits behind its one `RunLock`, \
                     and what crosses threads goes through a channel (DESIGN.md \u{a7}12)"
                ),
            ));
        }
    }
}

/// `Ordering::Relaxed` in library code needs an `// atomics:` comment
/// (same line or contiguous comment block above) saying why relaxed
/// ordering cannot reorder against the lock-protected state it
/// mirrors.
pub fn atomics(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    if path == BLESSED_FILE {
        return;
    }
    for (ln, line) in scan.code.iter().enumerate() {
        if scan.is_test[ln] || allowed(scan, ln) || !line.contains("Ordering::Relaxed") {
            continue;
        }
        if annotation_above(scan, ln, ATOMICS_MARKER).is_some() {
            continue;
        }
        out.push(finding(
            path,
            ln,
            "concurrency/relaxed-atomic",
            "`Ordering::Relaxed` without an `// atomics:` justification; explain why relaxed \
             ordering is sound here (or use Acquire/Release)"
                .to_string(),
        ));
    }
}
