//! Per-file lints over scanned sources.
//!
//! Which lints apply to a file is decided from its workspace-relative
//! path (see [`FileClass`]); the passes themselves only look at the
//! comment/string-stripped code lines, so forbidden names in docs or
//! error messages never fire.

use crate::clockdomain::clockdomain;
use crate::concurrency;
use crate::scanner::{has_word, FileScan};
use crate::{Finding, Level};

/// Crates whose *library* code must stay deterministic: no wall-clock
/// reads, no randomized hashers, no ambient randomness. The simulated
/// timeline and every derived artifact must be a pure function of the
/// master seed.
pub const DETERMINISM_CRATES: &[&str] = &["sim", "core", "clock", "mpi", "obs"];

/// Crates whose library code is linted for bare `unwrap()` (warning
/// level): failures there should carry rank/tag context via `expect` or
/// be plumbed as `Result`s.
pub const UNWRAP_CRATES: &[&str] = &["sim", "core", "clock", "mpi", "obs"];

/// What kind of file a path denotes, workspace-relative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Workspace crate directory name (`sim` for `crates/sim/...`),
    /// `None` for the root package and top-level `tests/`.
    pub crate_name: Option<String>,
    /// Inside a `src/` directory (library/binary code, not tests or
    /// benches).
    pub in_src: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path (with `/` separators).
    pub fn of(path: &str) -> Self {
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_string);
        FileClass {
            crate_name,
            in_src: path.contains("/src/") || path.starts_with("src/"),
        }
    }

    fn in_crate_src(&self, set: &[&str]) -> bool {
        self.in_src && self.crate_name.as_deref().is_some_and(|c| set.contains(&c))
    }
}

/// Runs every per-file lint applicable to `path` over `scan`.
pub fn lint_file(path: &str, scan: &FileScan) -> Vec<Finding> {
    let class = FileClass::of(path);
    let mut out = Vec::new();
    if class.in_crate_src(DETERMINISM_CRATES) {
        determinism(path, scan, &mut out);
        clockdomain(path, scan, &mut out);
    }
    if class.in_src {
        host_parallelism(path, scan, &mut out);
        concurrency::raw_lock(path, scan, &mut out);
    }
    if class.in_crate_src(concurrency::ATOMICS_CRATES) {
        concurrency::atomics(path, scan, &mut out);
    }
    unsafe_hygiene(path, scan, &mut out);
    if class.in_crate_src(UNWRAP_CRATES) {
        unwrap_warning(path, scan, &mut out);
    }
    out
}

/// Forbidden-name table for the determinism lints: (lint id, word,
/// explanation).
const DETERMINISM_WORDS: &[(&str, &str, &str)] = &[
    (
        "determinism/wall-clock",
        "Instant",
        "wall-clock reads make simulated timelines host-dependent; use virtual time (RankCtx::now)",
    ),
    (
        "determinism/wall-clock",
        "SystemTime",
        "wall-clock reads make simulated timelines host-dependent; use virtual time (RankCtx::now)",
    ),
    (
        "determinism/default-hasher",
        "HashMap",
        "the default hasher is randomly seeded, so iteration order varies per process; use BTreeMap or a sorted Vec",
    ),
    (
        "determinism/default-hasher",
        "HashSet",
        "the default hasher is randomly seeded, so iteration order varies per process; use BTreeSet or a sorted Vec",
    ),
    (
        "determinism/default-hasher",
        "RandomState",
        "randomly seeded hasher state breaks bit-identical replay",
    ),
    (
        "determinism/ambient-randomness",
        "thread_rng",
        "ambient RNGs are not derived from the master seed; use rngx::stream_rng",
    ),
    (
        "determinism/ambient-randomness",
        "from_entropy",
        "entropy-seeded RNGs are not replayable; use rngx::stream_rng",
    ),
    (
        "determinism/ambient-randomness",
        "getrandom",
        "OS randomness is not replayable; use rngx::stream_rng",
    ),
    (
        "determinism/ambient-randomness",
        "OsRng",
        "OS randomness is not replayable; use rngx::stream_rng",
    ),
];

fn determinism(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    for (ln, line) in scan.code.iter().enumerate() {
        if scan.is_test[ln] {
            continue;
        }
        for &(lint, word, why) in DETERMINISM_WORDS {
            if has_word(line, word) {
                out.push(Finding {
                    path: path.to_string(),
                    line: ln + 1,
                    lint,
                    level: Level::Error,
                    msg: format!("`{word}` in deterministic crate: {why}"),
                });
            }
        }
    }
}

/// The one file allowed to consult the host's core count: the sweep
/// executor, which owns run-count policy (overridable via `--jobs` /
/// `HCS_JOBS`). A run itself executes on one thread, so nothing below
/// the sweep has a host-shaped decision to make; everything else must
/// take an explicit `jobs` parameter so concurrency decisions stay
/// centralized and auditable.
const HOST_PARALLELISM_ALLOWED: &[&str] = &["crates/benchlib/src/sweep.rs"];

/// `available_parallelism` outside the blessed call sites makes run
/// counts and thread budgets host-shaped in ways the owning layer
/// cannot see or cap, and scatters the policy those sites exist to own.
fn host_parallelism(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    if HOST_PARALLELISM_ALLOWED.contains(&path) {
        return;
    }
    for (ln, line) in scan.code.iter().enumerate() {
        if scan.is_test[ln] {
            continue;
        }
        if has_word(line, "available_parallelism") {
            out.push(Finding {
                path: path.to_string(),
                line: ln + 1,
                lint: "determinism/host-parallelism",
                level: Level::Error,
                msg: format!(
                    "`available_parallelism` outside {}: host-shaped concurrency decisions \
                     belong to SweepExecutor (pass a jobs count instead)",
                    HOST_PARALLELISM_ALLOWED.join(", ")
                ),
            });
        }
    }
}

/// Every `unsafe` token must be justified by a `// SAFETY:` comment on
/// the same line or in the contiguous comment/attribute block above it.
fn unsafe_hygiene(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    for (ln, line) in scan.code.iter().enumerate() {
        if !has_word(line, "unsafe") {
            continue;
        }
        if has_safety_comment(scan, ln) {
            continue;
        }
        out.push(Finding {
            path: path.to_string(),
            line: ln + 1,
            lint: "unsafe/safety-comment",
            level: Level::Error,
            msg: "`unsafe` without a `// SAFETY:` comment explaining why the invariants hold"
                .to_string(),
        });
    }
}

fn has_safety_comment(scan: &FileScan, ln: usize) -> bool {
    crate::scanner::annotation_above(scan, ln, "SAFETY:").is_some()
}

fn unwrap_warning(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    for (ln, line) in scan.code.iter().enumerate() {
        if scan.is_test[ln] || !line.contains(".unwrap()") {
            continue;
        }
        out.push(Finding {
            path: path.to_string(),
            line: ln + 1,
            lint: "style/unwrap",
            level: Level::Warning,
            msg: "bare `unwrap()` in library code: use `expect(..)` with rank/tag context or return a Result".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn lints_of(path: &str, src: &str) -> Vec<(String, usize)> {
        lint_file(path, &scan(src))
            .into_iter()
            .map(|f| (f.lint.to_string(), f.line))
            .collect()
    }

    #[test]
    fn instant_fires_only_in_deterministic_crates() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let hits = lints_of("crates/sim/src/x.rs", src);
        assert!(hits.iter().any(|(l, _)| l == "determinism/wall-clock"));
        // benchlib measures real host time on purpose.
        assert!(lints_of("crates/benchlib/src/profile.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_comment_or_test_is_fine() {
        let src = "// a HashMap would be wrong here\nfn f() {}\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
        assert!(lints_of("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_is_required_and_sufficient() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert!(lints_of("crates/sim/src/x.rs", bad)
            .iter()
            .any(|(l, _)| l == "unsafe/safety-comment"));
        let good = "// SAFETY: caller upholds the contract.\n#[allow(unused)]\nunsafe fn g() {}\n";
        assert!(lints_of("crates/sim/src/x.rs", good).is_empty());
    }

    #[test]
    fn available_parallelism_is_blessed_only_in_allowed_files() {
        let src = "fn f() { let n = std::thread::available_parallelism(); let _ = n; }\n";
        let hits = lints_of("crates/bench/src/hcs/hier.rs", src);
        assert!(hits
            .iter()
            .any(|(l, _)| l == "determinism/host-parallelism"));
        // The sweep executor is the only blessed call site.
        assert!(lints_of("crates/benchlib/src/sweep.rs", src).is_empty());
        // Every sim module is banned, the event scheduler included.
        for path in ["crates/sim/src/events.rs", "crates/sim/src/cont.rs"] {
            assert!(lints_of(path, src)
                .iter()
                .any(|(l, _)| l == "determinism/host-parallelism"));
        }
        // Mentions in comments and tests never fire.
        let quiet = "// available_parallelism would be wrong here\n#[cfg(test)]\nmod tests { fn t() { let _ = std::thread::available_parallelism(); } }\n";
        assert!(lints_of("crates/benchlib/src/profile.rs", quiet).is_empty());
    }

    #[test]
    fn message_path_modules_classify_into_the_right_lint_sets() {
        // The batched message path lives in these modules; a rename or
        // crate move that silently dropped them out of the determinism
        // set would let wall clocks / ambient RNG creep into the hot
        // path unnoticed.
        for path in [
            "crates/sim/src/engine/net.rs",
            "crates/sim/src/engine/ctx.rs",
            "crates/sim/src/msg.rs",
            "crates/sim/src/net.rs",
            "crates/sim/src/fault.rs",
        ] {
            assert!(
                FileClass::of(path).in_crate_src(DETERMINISM_CRATES),
                "{path} must be determinism-linted"
            );
        }
        // The sweep executor is host-facing by design: the only file
        // blessed for available_parallelism, outside the determinism
        // set. The event scheduler is not blessed and — living in the
        // sim crate — is under every determinism lint.
        let sweep = FileClass::of("crates/benchlib/src/sweep.rs");
        assert!(sweep.in_src);
        assert!(!sweep.in_crate_src(DETERMINISM_CRATES));
        assert_eq!(HOST_PARALLELISM_ALLOWED, ["crates/benchlib/src/sweep.rs"]);
        let events = FileClass::of("crates/sim/src/events.rs");
        assert!(events.in_crate_src(DETERMINISM_CRATES));
    }

    #[test]
    fn unwrap_is_warning_level_and_skips_tests() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t(x: Option<u8>) { x.unwrap(); } }\n";
        let findings = lint_file("crates/mpi/src/x.rs", &scan(src));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "style/unwrap");
        assert_eq!(findings[0].level, Level::Warning);
        assert_eq!(findings[0].line, 1);
    }
}
