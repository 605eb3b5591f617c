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
fn duplicate_tag_pair_is_an_error() {
    let findings = lint_sources(&[
        ("crates/core/src/a.rs", "const TAG_PING: Tag = 0x0101;\n"),
        ("crates/mpi/src/b.rs", "pub const TAG_ECHO: u32 = 0x0101;\n"),
    ]);
    assert!(
        lint_ids(&findings).contains(&"tags/duplicate"),
        "{findings:?}"
    );
}

#[test]
fn tag_in_collective_range_is_an_error() {
    // 1 << 16 is COLL_BIT: static tags must stay below the dynamic
    // collective-tag range handed out by `Comm::next_coll_tag`.
    let findings = lint_sources(&[(
        "crates/core/src/a.rs",
        "const TAG_BAD: Tag = 1 << 16 | 7;\n",
    )]);
    assert!(
        lint_ids(&findings).contains(&"tags/collective-range"),
        "{findings:?}"
    );
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
    // what makes the single-owner arm of an events run sound.
    let flagged = "\
struct Mailbox {
    q: RunLock<u32>, // lock-order: fix.mailbox level=10
    stray: RunLock<u32>,
}
fn mk(mode: EngineMode) -> RunLock<u32> {
    RunLock::new(mode, \"fix.mailbox\", 11, 0)
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
fn mk(mode: EngineMode) -> RunLock<u32> {
    RunLock::new(mode, \"fix.mailbox\", 10, 0)
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
fn orphan_tag_is_an_error() {
    // Defined but never moved on the wire: dead protocol vocabulary.
    let findings = lint_sources(&[(
        "crates/core/src/proto.rs",
        "const TAG_ORPHAN: Tag = 0x0711;\n",
    )]);
    assert_eq!(lint_ids(&findings), vec!["skeleton/orphan-tag"]);
    assert!(findings.iter().all(|f| f.level == Level::Error));
    // A tag that is both sent and received is fine.
    let ok = lint_sources(&[(
        "crates/core/src/proto.rs",
        "const TAG_ORPHAN: Tag = 0x0711;\nfn f(comm: &Comm, ctx: &mut RankCtx) {\n    comm.send_t(ctx, 1, TAG_ORPHAN, 0.5f64);\n    let _v: f64 = comm.recv_t(ctx, 1, TAG_ORPHAN);\n}\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
    // The allow marker on the declaration opts it out (intentionally
    // reserved vocabulary).
    let ok = lint_sources(&[(
        "crates/core/src/proto.rs",
        "const TAG_ORPHAN: Tag = 0x0711; // xtask-allow: skeleton\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn wire_type_mismatch_is_an_error() {
    // Send and recv sites on the same tag disagreeing on the payload
    // type: both ends of the exchange are flagged.
    let findings = lint_sources(&[(
        "crates/core/src/proto.rs",
        "const TAG_VAL: Tag = 0x0712;\nfn f(comm: &Comm, ctx: &mut RankCtx) {\n    comm.send_t(ctx, 1, TAG_VAL, 0.5f64);\n    let _v: u32 = comm.recv_t(ctx, 1, TAG_VAL);\n}\n",
    )]);
    assert_eq!(
        lint_ids(&findings),
        vec!["skeleton/type-mismatch", "skeleton/type-mismatch"]
    );
    assert_eq!(findings[0].line, 3, "{findings:?}");
    assert_eq!(findings[1].line, 4, "{findings:?}");
    assert!(findings.iter().all(|f| f.level == Level::Error));
    // Matching types pass.
    let ok = lint_sources(&[(
        "crates/core/src/proto.rs",
        "const TAG_VAL: Tag = 0x0712;\nfn f(comm: &Comm, ctx: &mut RankCtx) {\n    comm.send_t(ctx, 1, TAG_VAL, 0.5f64);\n    let _v: f64 = comm.recv_t(ctx, 1, TAG_VAL);\n}\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
    // The allow marker removes the annotated site from the comparison.
    let ok = lint_sources(&[(
        "crates/core/src/proto.rs",
        "const TAG_VAL: Tag = 0x0712;\nfn f(comm: &Comm, ctx: &mut RankCtx) {\n    comm.send_t(ctx, 1, TAG_VAL, 0.5f64);\n    let _v: u32 = comm.recv_t(ctx, 1, TAG_VAL); // xtask-allow: skeleton\n}\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn role_asymmetry_is_an_error() {
    // Inside a role-discriminated `if` chain, the second branch sends
    // TAG_SYNC back but no sibling branch ever receives it.
    let findings = lint_sources(&[(
        "crates/core/src/proto.rs",
        "const TAG_SYNC: Tag = 0x0713;\nfn f(comm: &Comm, ctx: &mut RankCtx, me: usize) {\n    if me == 0 {\n        comm.send_t(ctx, 1, TAG_SYNC, 1.0f64);\n    } else {\n        let _a: f64 = comm.recv_t(ctx, 0, TAG_SYNC);\n        comm.send_t(ctx, 0, TAG_SYNC, 2.0f64);\n    }\n}\n",
    )]);
    assert_eq!(lint_ids(&findings), vec!["skeleton/role-asymmetry"]);
    assert_eq!(findings[0].line, 7, "{findings:?}");
    assert!(findings.iter().all(|f| f.level == Level::Error));
    // The symmetric exchange passes.
    let ok = lint_sources(&[(
        "crates/core/src/proto.rs",
        "const TAG_SYNC: Tag = 0x0713;\nfn f(comm: &Comm, ctx: &mut RankCtx, me: usize) {\n    if me == 0 {\n        comm.send_t(ctx, 1, TAG_SYNC, 1.0f64);\n        let _b: f64 = comm.recv_t(ctx, 1, TAG_SYNC);\n    } else {\n        let _a: f64 = comm.recv_t(ctx, 0, TAG_SYNC);\n        comm.send_t(ctx, 0, TAG_SYNC, 2.0f64);\n    }\n}\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
    // `// skeleton: paired-with <fn>` marks a cross-function protocol:
    // the counterpart recv lives in `drain`, outside the chain.
    let ok = lint_sources(&[(
        "crates/core/src/proto.rs",
        "const TAG_SYNC: Tag = 0x0713;\nfn f(comm: &Comm, ctx: &mut RankCtx, me: usize) {\n    if me == 0 {\n        comm.send_t(ctx, 1, TAG_SYNC, 1.0f64);\n    } else {\n        let _a: f64 = comm.recv_t(ctx, 0, TAG_SYNC);\n        comm.send_t(ctx, 0, TAG_SYNC, 2.0f64); // skeleton: paired-with drain\n    }\n}\nfn drain(comm: &Comm, ctx: &mut RankCtx) {\n    let _c: f64 = comm.recv_t(ctx, 1, TAG_SYNC);\n}\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn untyped_wire_tag_is_an_error() {
    // A raw send on a bare numeric tag expression bypasses both the
    // tag registry and the type skeleton.
    let findings = lint_sources(&[(
        "crates/core/src/proto.rs",
        "fn f(ctx: &mut RankCtx) {\n    ctx.send(1, 0x0777, &buf);\n}\n",
    )]);
    assert_eq!(lint_ids(&findings), vec!["skeleton/untyped-wire"]);
    assert!(findings.iter().all(|f| f.level == Level::Error));
    // A `Tag`-typed parameter is a legitimate forwarded tag.
    let ok = lint_sources(&[(
        "crates/core/src/proto.rs",
        "fn f(ctx: &mut RankCtx, tag: Tag) {\n    ctx.send(1, tag, &buf);\n}\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
    // And the per-line opt-out works like everywhere else.
    let ok = lint_sources(&[(
        "crates/core/src/proto.rs",
        "fn f(ctx: &mut RankCtx) {\n    ctx.send(1, 0x0777, &buf); // xtask-allow: skeleton\n}\n",
    )]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn skeleton_findings_render_in_matcher_shape() {
    // Skeleton findings flow through the same CI problem matcher as
    // every other pass.
    let findings = lint_sources(&[(
        "crates/core/src/proto.rs",
        "fn f(ctx: &mut RankCtx) {\n    ctx.send(1, 0x0777, &buf);\n}\n",
    )]);
    assert_eq!(findings.len(), 1);
    let row = findings[0].to_string();
    assert!(
        row.starts_with("crates/core/src/proto.rs:2: error [skeleton/untyped-wire] "),
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
fn long_signature_still_blesses_its_tag_parameter() {
    // 15 lines from `fn` to `{`: the forwarded `tag` is a `Tag`-typed
    // parameter however far down the signature it sits.
    let src = format!(
        "fn forward(\n    ctx: &mut RankCtx,\n{}    tag: Tag,\n) {{\n    ctx.send(1, tag, &buf);\n}}\n",
        filler(11, "    ", ": usize,")
    );
    let ok = lint_sources(&[("crates/core/src/proto.rs", &src)]);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn role_branch_with_a_long_condition_is_still_checked() {
    // The same asymmetric exchange as `role_asymmetry_is_an_error`,
    // with its role condition spread over six lines.
    let findings = lint_sources(&[(
        "crates/core/src/proto.rs",
        "const TAG_SYNC: Tag = 0x0713;\nfn f(comm: &Comm, ctx: &mut RankCtx, me: usize) {\n    if me\n        == 0\n        && ready\n        && ready\n        && ready\n        && ready\n    {\n        comm.send_t(ctx, 1, TAG_SYNC, 1.0f64);\n    } else {\n        let _a: f64 = comm.recv_t(ctx, 0, TAG_SYNC);\n        comm.send_t(ctx, 0, TAG_SYNC, 2.0f64);\n    }\n}\n",
    )]);
    assert_eq!(lint_ids(&findings), vec!["skeleton/role-asymmetry"]);
    assert_eq!(findings[0].line, 13, "{findings:?}");
}

#[test]
fn call_with_long_argument_list_is_still_a_wire_site() {
    // A `send_t` whose arguments span 12 lines is a send of `u32` on a
    // tag received as `f64`: a mismatch, and the tag is not orphaned.
    let src = format!(
        "const TAG_VAL: Tag = 0x0712;\nfn f(comm: &Comm, ctx: &mut RankCtx) {{\n    comm.send_t(\n        ctx,\n        1,\n        TAG_VAL,\n{}        7u32,\n    );\n    let _v: f64 = comm.recv_t(ctx, 1, TAG_VAL);\n}}\n",
        filler(6, "        // note ", "")
    );
    let findings = lint_sources(&[("crates/core/src/proto.rs", &src)]);
    assert_eq!(
        lint_ids(&findings),
        vec!["skeleton/type-mismatch", "skeleton/type-mismatch"],
        "{findings:?}"
    );
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![3, 15], "{findings:?}");
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
fn raw_bytes_on_a_typed_tag_is_a_type_mismatch() {
    // A raw 16-byte send on a tag whose receiver decodes an `f64`: the
    // typed end fixes the size, the raw end never checks it.
    let findings = lint_sources(&[(
        "crates/core/src/offset.rs",
        "const TAG_PING: Tag = 0x0101;\nfn f(ctx: &mut RankCtx) {\n    if ctx.rank() == 0 {\n        ctx.send(1, TAG_PING, &[0u8; 16]);\n    } else {\n        let _v: f64 = ctx.recv_t(0, TAG_PING);\n    }\n}\n",
    )]);
    assert_eq!(lint_ids(&findings), vec!["skeleton/type-mismatch"]);
    assert_eq!(findings[0].line, 4, "{findings:?}");
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
