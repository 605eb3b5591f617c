//! The `xtask check` static-analysis passes: seeded fixture violations
//! must each be caught (including clock-domain newtype erosion), and
//! the real workspace must pass clean (the same invariant CI enforces
//! via `cargo run -p xtask -- check`).

use xtask::{lint_sources, Level};

fn lint_ids(findings: &[xtask::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.lint).collect()
}

#[test]
fn wall_clock_read_in_sim_is_an_error() {
    let findings = lint_sources(&[(
        "crates/sim/src/engine/net.rs",
        "use std::time::Instant;\nfn now() -> Instant { Instant::now() }\n",
    )]);
    assert!(
        lint_ids(&findings).contains(&"determinism/wall-clock"),
        "{findings:?}"
    );
    assert!(findings.iter().all(|f| f.level == Level::Error));
    // The first finding points at the offending line.
    assert_eq!(findings[0].line, 1, "{findings:?}");
}

#[test]
fn default_hasher_in_deterministic_crate_is_an_error() {
    let findings = lint_sources(&[(
        "crates/core/src/offset.rs",
        "use std::collections::HashMap;\npub struct S { m: HashMap<u32, f64> }\n",
    )]);
    let ids = lint_ids(&findings);
    assert!(ids.contains(&"determinism/default-hasher"), "{findings:?}");
    // Same source outside the deterministic crates is fine (benchlib
    // may hash freely as long as no simulated output depends on it).
    let ok = lint_sources(&[(
        "crates/benchlib/src/stats.rs",
        "use std::collections::HashMap;\npub struct S { m: HashMap<u32, f64> }\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn fault_module_is_in_the_determinism_lint_set() {
    // The fault interpreter sits on the message delivery path; ambient
    // randomness or wall-clock reads there would break the replay
    // contract (same seed + plan => byte-identical faulted timeline),
    // so crates/sim/src/fault.rs must be covered by the determinism
    // lints like the rest of the sim crate.
    let findings = lint_sources(&[(
        "crates/sim/src/fault.rs",
        "pub fn draw() -> f64 { rand::thread_rng().gen() }\n",
    )]);
    assert!(
        lint_ids(&findings).contains(&"determinism/ambient-randomness"),
        "{findings:?}"
    );
    let findings = lint_sources(&[(
        "crates/sim/src/fault.rs",
        "use std::time::Instant;\nfn t() -> Instant { Instant::now() }\n",
    )]);
    assert!(
        lint_ids(&findings).contains(&"determinism/wall-clock"),
        "{findings:?}"
    );
}

#[test]
fn safety_less_unsafe_is_an_error_anywhere() {
    let findings = lint_sources(&[(
        "crates/benchlib/src/trace.rs",
        "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    )]);
    assert_eq!(lint_ids(&findings), vec!["unsafe/safety-comment"]);
    // A SAFETY comment in the contiguous block above satisfies it.
    let ok = lint_sources(&[(
        "crates/benchlib/src/trace.rs",
        "// SAFETY: caller guarantees `p` is valid for reads.\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn external_dependency_is_an_error() {
    let findings = lint_sources(&[(
        "crates/sim/Cargo.toml",
        "[package]\nname = \"hcs-sim\"\n\n[dependencies]\nrand = \"0.8\"\n",
    )]);
    assert!(lint_ids(&findings).contains(&"deps/freeze"), "{findings:?}");
}

#[test]
fn host_parallelism_outside_sweep_is_an_error() {
    // Concurrency budgets must flow through SweepExecutor; any other
    // src file consulting the host's core count is an error.
    let findings = lint_sources(&[(
        "crates/bench/src/hier.rs",
        "fn jobs() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }\n",
    )]);
    assert!(
        lint_ids(&findings).contains(&"determinism/host-parallelism"),
        "{findings:?}"
    );
    assert!(findings.iter().all(|f| f.level == Level::Error));
    // That includes the event scheduler: a run executes on one thread.
    let events = lint_sources(&[(
        "crates/sim/src/events.rs",
        "fn workers() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }\n",
    )]);
    assert!(
        lint_ids(&events).contains(&"determinism/host-parallelism"),
        "{events:?}"
    );
    // The sweep executor itself is the single blessed call site.
    let ok = lint_sources(&[(
        "crates/benchlib/src/sweep.rs",
        "fn auto() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn bare_unwrap_in_library_code_is_a_warning() {
    let findings = lint_sources(&[(
        "crates/clock/src/global.rs",
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    )]);
    assert_eq!(lint_ids(&findings), vec!["style/unwrap"]);
    assert!(findings.iter().all(|f| f.level == Level::Warning));
}

#[test]
fn bare_time_parameter_is_an_error() {
    // Deleting the newtype annotation from a time-named parameter in a
    // deterministic crate must fail the clockdomain pass.
    let findings = lint_sources(&[(
        "crates/clock/src/global.rs",
        "pub fn busy_wait_until(deadline: f64) -> GlobalTime { loop {} }\n",
    )]);
    assert!(
        lint_ids(&findings).contains(&"clockdomain/bare-time"),
        "{findings:?}"
    );
    // The typed signature passes.
    let ok = lint_sources(&[(
        "crates/clock/src/global.rs",
        "pub fn busy_wait_until(deadline: GlobalTime) -> GlobalTime { loop {} }\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn bare_time_field_and_return_are_errors() {
    // A seconds-suffixed f64 field and a time-named fn returning f64
    // each violate the newtype boundary.
    let findings = lint_sources(&[(
        "crates/core/src/check.rs",
        "pub struct Outcome {\n    pub duration_s: f64,\n}\nimpl Outcome {\n    pub fn start_time(&self) -> f64 {\n        0.0\n    }\n}\n",
    )]);
    let ids = lint_ids(&findings);
    assert_eq!(
        ids.iter()
            .filter(|l| **l == "clockdomain/bare-time")
            .count(),
        2,
        "{findings:?}"
    );
    assert_eq!(findings[0].line, 2, "{findings:?}");
    assert_eq!(findings[1].line, 5, "{findings:?}");
}

#[test]
fn raw_domain_extraction_is_an_error() {
    // Anonymous unwrapping of a newtype: `.0` access and `as f64` on a
    // domain-typed line (outside crates/clock/src/domain.rs and
    // crates/sim/src/timebase.rs, which define the types).
    let findings = lint_sources(&[(
        "crates/mpi/src/bcast.rs",
        "pub fn leak(x: GlobalTime) -> Vec<u8> {\n    let raw = x.0;\n    raw.to_le_bytes().to_vec()\n}\n",
    )]);
    assert!(
        lint_ids(&findings).contains(&"clockdomain/raw-extraction"),
        "{findings:?}"
    );
    let findings = lint_sources(&[(
        "crates/sim/src/engine/net.rs",
        "pub fn cast(x: Span) -> usize { x as f64 as usize }\n",
    )]);
    assert!(
        lint_ids(&findings).contains(&"clockdomain/raw-extraction"),
        "{findings:?}"
    );
    // The same extraction inside the defining module is fine.
    let ok = lint_sources(&[(
        "crates/clock/src/domain.rs",
        "impl GlobalTime {\n    pub const fn raw_seconds(self) -> f64 {\n        self.0\n    }\n}\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn xtask_allow_comment_silences_clockdomain() {
    let ok = lint_sources(&[(
        "crates/sim/src/net.rs",
        "pub struct Wire {\n    pub start: f64, // raw wire field; xtask-allow: clockdomain\n}\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
    // The marker only covers its own line.
    let findings = lint_sources(&[(
        "crates/sim/src/net.rs",
        "pub struct Wire {\n    pub start: f64, // xtask-allow: clockdomain\n    pub deadline: f64,\n}\n",
    )]);
    assert_eq!(lint_ids(&findings), vec!["clockdomain/bare-time"]);
    assert_eq!(findings[0].line, 3);
}

#[test]
fn inverted_lock_acquisition_is_an_error() {
    // Two registered locks acquired against their declared levels: the
    // lock-order walk flags the inverted pair at the second acquisition.
    let src = "\
struct Pair {
    first: Mutex<u32>,  // lock-order: fix.first level=10
    second: Mutex<u32>, // lock-order: fix.second level=20
}
impl Pair {
    fn good(&self) {
        let a = lock_ignore_poison(&self.first);
        let b = lock_ignore_poison(&self.second);
    }
    fn bad(&self) {
        let b = lock_ignore_poison(&self.second);
        let a = lock_ignore_poison(&self.first);
    }
}
";
    let findings = lint_sources(&[("crates/sim/src/events.rs", src)]);
    assert_eq!(lint_ids(&findings), vec!["concurrency/lock-order"]);
    assert_eq!(findings[0].line, 12, "{findings:?}");
    assert!(findings.iter().all(|f| f.level == Level::Error));
}

#[test]
fn unregistered_mutex_in_sim_is_an_error() {
    // Every Mutex/Condvar in crates/sim must carry a lock-order
    // registration; an anonymous one is flagged at its declaration.
    let findings = lint_sources(&[(
        "crates/sim/src/engine/net.rs",
        "struct S {\n    m: Mutex<u32>,\n}\n",
    )]);
    assert_eq!(lint_ids(&findings), vec!["concurrency/unregistered-lock"]);
    assert_eq!(findings[0].line, 2, "{findings:?}");
    // The same declaration outside the lock scope (benchlib) is fine.
    let ok = lint_sources(&[(
        "crates/benchlib/src/stats.rs",
        "struct S {\n    m: Mutex<u32>,\n}\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn guard_held_across_blocking_is_an_error() {
    // Holding a guard over a park point wedges every thread queued on
    // that lock; the consumed-guard Condvar wait is the sanctioned form.
    let src = "\
struct S {
    m: Mutex<u32>, // lock-order: fix.m level=10
    cv: Condvar,   // lock-order: fix.m
}
fn bad(s: &S) {
    let g = lock_ignore_poison(&s.m);
    std::thread::park();
}
fn good(s: &S) {
    let mut g = lock_ignore_poison(&s.m);
    g = g.wait(&s.cv);
    drop(g);
    std::thread::park();
}
";
    let findings = lint_sources(&[("crates/sim/src/engine/net.rs", src)]);
    assert_eq!(
        lint_ids(&findings),
        vec!["concurrency/guard-across-blocking"]
    );
    assert_eq!(findings[0].line, 7, "{findings:?}");
}

#[test]
fn run_lock_is_registered_and_never_held_across_a_suspension() {
    // The run-scoped lock is a registered lock like any mutex: its
    // constructor literal is checked against the registry, and its
    // guard may not live across a continuation suspension — that is
    // what makes the single-owner lock of a run sound.
    let flagged = "\
struct Mailbox {
    q: RunLock<u32>, // lock-order: fix.mailbox level=10
    stray: RunLock<u32>,
}
fn mk() -> RunLock<u32> {
    RunLock::new(\"fix.mailbox\", 11, 0)
}
fn bad(mb: &Mailbox) {
    let q = mb.q.acquire();
    crate::cont::suspend_current(*q as u64);
}
";
    let findings = lint_sources(&[("crates/sim/src/engine/net.rs", flagged)]);
    assert_eq!(
        lint_ids(&findings),
        vec![
            "concurrency/unregistered-lock",
            "concurrency/conflicting-level",
            "concurrency/guard-across-blocking"
        ],
        "{findings:?}"
    );
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![3, 6, 10], "{findings:?}");

    let clean = "\
struct Mailbox {
    q: RunLock<u32>, // lock-order: fix.mailbox level=10
    cv: Condvar,     // lock-order: fix.mailbox
}
fn mk() -> RunLock<u32> {
    RunLock::new(\"fix.mailbox\", 10, 0)
}
fn good(mb: &Mailbox) {
    let mut q = mb.q.acquire();
    q = q.wait(&mb.cv);
    drop(q);
    crate::cont::suspend_current(0);
}
";
    let ok = lint_sources(&[("crates/sim/src/engine/net.rs", clean)]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn relaxed_atomic_needs_an_atomics_justification() {
    let bare = "\
use std::sync::atomic::{AtomicUsize, Ordering};
pub fn bump(c: &AtomicUsize) -> usize {
    c.fetch_add(1, Ordering::Relaxed)
}
";
    let findings = lint_sources(&[("crates/sim/src/counters.rs", bare)]);
    assert_eq!(lint_ids(&findings), vec!["concurrency/relaxed-atomic"]);
    assert_eq!(findings[0].line, 3, "{findings:?}");
    // An `// atomics:` comment above the use satisfies the pass.
    let justified = "\
use std::sync::atomic::{AtomicUsize, Ordering};
pub fn bump(c: &AtomicUsize) -> usize {
    // atomics: monotonic counter; readers only need eventual visibility.
    c.fetch_add(1, Ordering::Relaxed)
}
";
    let ok = lint_sources(&[("crates/sim/src/counters.rs", justified)]);
    assert!(ok.is_empty(), "{ok:?}");
    // So does a per-line opt-out.
    let allowed = "\
use std::sync::atomic::{AtomicUsize, Ordering};
pub fn bump(c: &AtomicUsize) -> usize {
    c.fetch_add(1, Ordering::Relaxed) // xtask-allow: concurrency
}
";
    let ok = lint_sources(&[("crates/sim/src/counters.rs", allowed)]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn bare_lock_call_is_an_error_outside_lockutil() {
    let src = "pub fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().expect(\"poisoned\") }\n";
    let findings = lint_sources(&[("crates/benchlib/src/stats.rs", src)]);
    assert_eq!(lint_ids(&findings), vec!["concurrency/raw-lock"]);
    // lockutil itself is the blessed definition site for lock helpers.
    let ok = lint_sources(&[("crates/sim/src/lockutil.rs", src)]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn concurrency_findings_render_in_matcher_shape() {
    // Text shape: `path:line: level [lint] message`, what
    // .github/problem-matchers/xtask.json parses into PR annotations.
    let findings = lint_sources(&[(
        "crates/sim/src/engine/net.rs",
        "struct S {\n    m: Mutex<u32>,\n}\n",
    )]);
    assert_eq!(findings.len(), 1);
    let row = findings[0].to_string();
    assert!(
        row.starts_with("crates/sim/src/engine/net.rs:2: error [concurrency/unregistered-lock] "),
        "{row}"
    );
}

#[test]
fn determinism_findings_render_in_matcher_shape() {
    // Every pass's findings flow through the same CI problem matcher:
    // one `path:line: level [lint] message` row each.
    let findings = lint_sources(&[(
        "crates/sim/src/engine/net.rs",
        "fn f() {\n    let t = std::time::Instant::now();\n}\n",
    )]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let row = findings[0].to_string();
    assert!(
        row.starts_with("crates/sim/src/engine/net.rs:2: error [determinism/wall-clock] "),
        "{row}"
    );
}

#[test]
fn cfg_test_on_a_braceless_item_covers_only_that_item() {
    // `#[cfg(test)]` on a `use` ends at its `;`: the library fn below
    // is linted like any other.
    let findings = lint_sources(&[(
        "crates/sim/src/clocks.rs",
        "#[cfg(test)]\nuse std::sync::Arc;\npub fn lib_now() -> u64 {\n    let x: Option<u64> = Instant::now().elapsed().as_secs().checked_add(1);\n    x.unwrap()\n}\n",
    )]);
    assert_eq!(
        lint_ids(&findings),
        vec![
            "clockdomain/bare-time",
            "determinism/wall-clock",
            "style/unwrap"
        ],
        "{findings:?}"
    );
}

/// `n` numbered filler lines in the shape `{indent}a{i}{tail}`.
fn filler(n: usize, indent: &str, tail: &str) -> String {
    (0..n).map(|i| format!("{indent}a{i}{tail}\n")).collect()
}

#[test]
fn long_signature_returning_bare_time_is_an_error() {
    // 27 lines from `fn` to `{`, returning a bare `f64`.
    let src = format!(
        "pub fn start_time(\n{}) -> f64 {{\n    0.0\n}}\n",
        filler(25, "    ", ": usize,")
    );
    let findings = lint_sources(&[("crates/core/src/check.rs", &src)]);
    assert_eq!(lint_ids(&findings), vec!["clockdomain/bare-time"]);
    assert_eq!(findings[0].line, 1, "{findings:?}");
}

#[test]
fn real_workspace_passes_clean() {
    // The self-check CI runs: no errors and no warnings anywhere in the
    // tree. If this fails, `cargo run -p xtask -- check` prints the
    // same findings with file:line locations.
    let findings = xtask::check_workspace(&xtask::workspace_root());
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
