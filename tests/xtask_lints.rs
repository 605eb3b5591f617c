//! The repo's static contracts. The `xtask check` passes must catch
//! each seeded fixture violation (clock-domain erosion, the dependency
//! freeze, the lock hierarchy), and the real workspace must pass clean
//! (the same invariant CI enforces via `cargo run -p xtask -- check`).
//! The determinism, unsafe, unwrap and raw-lock bans are clippy's:
//! the tests at the end run clippy over `crates/lintfixture`, one seeded
//! violation per ban, and pin what it reports.

use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

use xtask::lint_sources;

fn lint_ids(findings: &[xtask::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.lint).collect()
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
fn cfg_test_on_a_braceless_item_covers_only_that_item() {
    // `#[cfg(test)]` on a `use` ends at its `;`: the library fn below
    // is linted like any other.
    let findings = lint_sources(&[(
        "crates/sim/src/clocks.rs",
        "#[cfg(test)]\nuse std::sync::Arc;\npub fn lib_now() -> u64 {\n    0\n}\n",
    )]);
    assert_eq!(lint_ids(&findings), vec!["clockdomain/bare-time"]);
    assert_eq!(findings[0].line, 3, "{findings:?}");
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
    // The self-check CI runs: no findings anywhere in the tree. If this
    // fails, `cargo run -p xtask -- check` prints the
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

// The clippy-held bans. `crates/lintfixture` reads the real
// `crates/clippy.toml` and inherits the real `[workspace.lints.clippy]`
// table; its violations compile only under its `violations` feature.
// The JSON levels are clippy's own: CI's `-D warnings` turns every
// warning into an error, and the table denies undocumented unsafe.

const FIXTURE: &str = "crates/lintfixture/src/violations.rs";

/// Every finding clippy must report on the fixture, as `(line, lint)`.
const EXPECTED: &[(usize, &str)] = &[
    (8, "disallowed_types"),            // HashMap
    (9, "disallowed_types"),            // HashSet
    (10, "disallowed_types"),           // RandomState
    (15, "disallowed_types"),           // Instant
    (16, "disallowed_types"),           // SystemTime
    (17, "disallowed_methods"),         // Instant::now
    (17, "disallowed_types"),           // the `Instant` of that path
    (18, "disallowed_methods"),         // SystemTime::now
    (18, "disallowed_types"),           // the `SystemTime` of that path
    (23, "disallowed_methods"),         // available_parallelism
    (28, "disallowed_methods"),         // Mutex::lock
    (34, "undocumented_unsafe_blocks"), // unsafe block
    (40, "undocumented_unsafe_blocks"), // unsafe impl
    (50, "missing_safety_doc"),         // private unsafe fn
    (56, "unwrap_used"),                // unwrap in library code
    (70, "disallowed_methods"),         // Instant::now in a #[test]
    (70, "disallowed_types"),           // (its unwrap at 71 is allowed)
];

/// One clippy finding on the fixture.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ClippyFinding {
    file: String,
    line: usize,
    /// Lint name without the `clippy::` prefix.
    lint: String,
    /// `warning` or `error`.
    level: String,
}

/// Runs clippy once over the fixture, every target, in its own target
/// directory, and returns its findings sorted.
fn clippy_fixture() -> &'static [ClippyFinding] {
    static RUN: OnceLock<Vec<ClippyFinding>> = OnceLock::new();
    RUN.get_or_init(|| {
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-fixture");
        let out = Command::new(env!("CARGO"))
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .args(["clippy", "--quiet", "-p", "lint-fixture"])
            .args(["--features", "violations", "--all-targets", "--keep-going"])
            .arg("--message-format=json")
            .arg("--target-dir")
            .arg(&target)
            .output()
            .expect("cargo clippy runs");
        let stdout = String::from_utf8(out.stdout).expect("cargo writes UTF-8 JSON");
        let mut findings: Vec<ClippyFinding> = stdout
            .lines()
            .filter(|msg| scalars(msg, "reason").first() == Some(&"compiler-message"))
            .filter_map(|msg| {
                Some(ClippyFinding {
                    file: scalars(msg, "file_name").first()?.to_string(),
                    line: scalars(msg, "line_start").first()?.parse().ok()?,
                    // The children's codes are `null`.
                    lint: scalars(msg, "code")
                        .into_iter()
                        .find(|&c| c != "null")?
                        .trim_start_matches("clippy::")
                        .to_string(),
                    // The children's levels are `note` and `help`.
                    level: scalars(msg, "level")
                        .into_iter()
                        .find(|&l| l == "warning" || l == "error")?
                        .to_string(),
                })
            })
            .collect();
        assert!(
            !findings.is_empty(),
            "clippy reported nothing; is the clippy component installed?\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        findings.sort();
        findings.dedup();
        findings
    })
}

/// The scalar value of every `"key":` in one line of cargo's JSON, in
/// order, strings without their quotes; object and array values are
/// skipped. A quote inside a JSON string is escaped, so the pattern
/// only ever matches the structure. A message lists its children (notes
/// and help, with no spans for these lints) before its own fields.
fn scalars<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    json.split(&format!("\"{key}\":"))
        .skip(1)
        .filter_map(|rest| match rest.strip_prefix('"') {
            Some(string) => string.split('"').next(),
            None if rest.starts_with(['{', '[']) => None,
            None => rest.split([',', '}', ']']).next(),
        })
        .collect()
}

/// The level clippy reports `lint` at on fixture line `line`.
fn level_at(line: usize, lint: &str) -> Option<&'static str> {
    clippy_fixture()
        .iter()
        .find(|f| f.file == FIXTURE && f.line == line && f.lint == lint)
        .map(|f| f.level.as_str())
}

#[test]
fn clippy_fixture_fires_exactly_the_seeded_lints() {
    // Exactly the seeded set, and nothing anywhere else: not the
    // documented unsafe block, not the unwrap inside the #[test], and
    // not `busy_wait_until(deadline: f64)`, which only xtask's
    // `clockdomain/bare-time` catches (`bare_time_parameter_is_an_error`).
    let got: Vec<(&str, usize, &str)> = clippy_fixture()
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.lint.as_str()))
        .collect();
    let want: Vec<(&str, usize, &str)> = EXPECTED
        .iter()
        .map(|&(line, lint)| (FIXTURE, line, lint))
        .collect();
    assert_eq!(got, want, "{:#?}", clippy_fixture());
}

#[test]
fn default_hasher_in_deterministic_crate_is_an_error() {
    // Every crate under `crates/` reads the bans, the fixture included.
    for line in [8, 9, 10] {
        assert_eq!(level_at(line, "disallowed_types"), Some("warning"));
    }
}

#[test]
fn wall_clock_read_is_an_error() {
    for line in [15, 16, 17, 18] {
        assert_eq!(level_at(line, "disallowed_types"), Some("warning"));
    }
    for line in [17, 18] {
        assert_eq!(level_at(line, "disallowed_methods"), Some("warning"));
    }
    // Test code is not exempt: a test that times the host says why in
    // a file-level `#![allow]` (`crates/bench/tests/sweep_determinism.rs`).
    assert_eq!(level_at(70, "disallowed_methods"), Some("warning"));
}

#[test]
fn host_parallelism_outside_sweep_is_an_error() {
    // `hcs_bench::sweep::host_cores` carries the one `#[allow]`.
    assert_eq!(level_at(23, "disallowed_methods"), Some("warning"));
}

#[test]
fn bare_lock_call_is_an_error_outside_lockutil() {
    // `hcs_sim::lockutil::lock_ignore_poison` carries the one `#[allow]`.
    assert_eq!(level_at(28, "disallowed_methods"), Some("warning"));
}

#[test]
fn safety_less_unsafe_is_an_error_anywhere() {
    // Denied by the workspace table, so an error even without
    // `-D warnings`; the root package carries the same line.
    assert_eq!(level_at(34, "undocumented_unsafe_blocks"), Some("error"));
    assert_eq!(level_at(40, "undocumented_unsafe_blocks"), Some("error"));
    // An `unsafe fn` states its contract in a `# Safety` doc section,
    // private ones too.
    assert_eq!(level_at(50, "missing_safety_doc"), Some("warning"));
}

#[test]
fn bare_unwrap_in_library_code_is_a_warning() {
    assert_eq!(level_at(56, "unwrap_used"), Some("warning"));
    assert_eq!(level_at(71, "unwrap_used"), None);
}

#[test]
fn every_member_inherits_the_lint_table() {
    // `[workspace.lints]` reaches only the members that opt in; one that
    // did not would escape the unsafe and unwrap rules unnoticed.
    let crates = xtask::workspace_root().join("crates");
    for entry in std::fs::read_dir(crates).expect("crates/ is readable") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            assert!(
                text.contains("\n[lints]\nworkspace = true\n"),
                "{} does not inherit [workspace.lints]",
                manifest.display()
            );
        }
    }
}
