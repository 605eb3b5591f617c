//! Each line that draws a finding says which lint in a trailing
//! comment; `tests/xtask_lints.rs` holds the same set.

use std::sync::Mutex;

/// Randomly seeded hashers.
pub fn hashers() {
    let _map = std::collections::HashMap::<u8, u8>::new(); // disallowed_types
    let _set = std::collections::HashSet::<u8>::new(); // disallowed_types
    let _state = std::hash::RandomState::new(); // disallowed_types
}

/// Wall clocks, named as types and read.
pub fn wall_clocks() {
    let _instant: Option<std::time::Instant> = None; // disallowed_types
    let _system: Option<std::time::SystemTime> = None; // disallowed_types
    let _now = std::time::Instant::now(); // disallowed_methods, disallowed_types
    let _then = std::time::SystemTime::now(); // disallowed_methods, disallowed_types
}

/// Host-shaped parallelism.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()) // disallowed_methods
}

/// A raw lock outside `lockutil::lock_ignore_poison`.
pub fn raw_lock(m: &Mutex<u8>) -> u8 {
    *m.lock().expect("poisoned") // disallowed_methods
}

/// An unsafe block with no `// SAFETY:` comment.
pub fn read() -> u8 {
    let p: *const u8 = &7;
    unsafe { *p } // undocumented_unsafe_blocks
}

/// A pointer wrapper shared across threads.
pub struct Shared(pub *const u8);

unsafe impl Sync for Shared {} // undocumented_unsafe_blocks

/// A documented unsafe block draws nothing.
pub fn read_local() -> u8 {
    // SAFETY: a reference to a live local is valid for reads.
    unsafe { private_read(&7) }
}

/// Reads `p`, with no `# Safety` section for the caller's contract.
// The next line draws missing_safety_doc.
unsafe fn private_read(p: *const u8) -> u8 {
    *p
}

/// An `unwrap` in library code.
pub fn first(v: &[u8]) -> u8 {
    *v.first().unwrap() // unwrap_used
}

/// A time that never entered a clock-domain newtype compiles cleanly
/// under rustc and clippy; only xtask's `clockdomain/bare-time` rejects
/// it (in the crates that pass covers).
pub fn busy_wait_until(deadline: f64) -> f64 {
    deadline
}

/// The host libm's transcendental functions, owned by `detmath`.
pub fn host_libm(x: f64) -> [f64; 4] {
    [
        x.sin(), // disallowed_methods
        x.cos(), // disallowed_methods
        x.exp(), // disallowed_methods
        x.ln(),  // disallowed_methods
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_bans_reach_tests_but_unwrap_is_allowed_there() {
        let _now = std::time::Instant::now(); // disallowed_methods, disallowed_types
        let first = [1].first().copied().unwrap();
        assert_eq!(first, 1);
    }
}
