#![warn(missing_docs)]

//! # xtask — in-tree static analysis for the hcs workspace
//!
//! `cargo run -p xtask -- check` parses every workspace `.rs` source
//! (no rustc, no external parser — a small scanner that builds one
//! token tree per file, see [`scanner`]) and enforces the repo
//! invariants the paper reproduction depends on:
//!
//! - **clock domains** — `crates/{sim,core,clock,mpi}` library code may
//!   not pass times or durations as bare `f64`/`u64` (vocabulary-named
//!   parameters, fields, and returns must use the `LocalTime` /
//!   `GlobalTime` / `SimTime` / `Span` newtypes) nor unwrap a domain
//!   value anonymously (`.0`, `f64::from(..)`, `as f64`); see
//!   [`clockdomain`];
//! - **determinism** — `crates/{sim,core,clock,mpi}` library code may
//!   not read wall clocks (`Instant`, `SystemTime`), use randomly
//!   seeded hashers (`HashMap`, `HashSet`, `RandomState`) or ambient
//!   randomness: simulated runs must be bit-identical given a seed;
//! - **unsafe hygiene** — every `unsafe` carries a `// SAFETY:` comment;
//! - **dependency freeze** — every `Cargo.toml` dependency is another
//!   workspace member (the workspace builds offline, std-only);
//! - **concurrency discipline** — every `Mutex`/`Condvar` in
//!   `crates/sim` is registered in the lock hierarchy
//!   (`// lock-order: <name> level=<N>`); a guard-scope walk flags
//!   acquisitions whose levels do not strictly increase, unknown
//!   locks, and guards held across park points; every
//!   `Ordering::Relaxed` carries an `// atomics:` justification; bare
//!   `.lock()` is banned outside `lockutil`; see [`concurrency`];
//! - **style** (warning level) — no bare `unwrap()` in library code of
//!   `crates/{sim,core,clock,mpi}`.
//!
//! The wire contract (distinct user tags below the collective range,
//! one payload type per tag) is not a pass: rustc checks it through
//! `hcs_mpi::tags`.
//!
//! The passes are exposed as a library so `tests/xtask_lints.rs` can
//! run them over fixture snippets and over the real workspace; both go
//! through the same per-file dispatch.

pub mod clockdomain;
pub mod concurrency;
pub mod deps;
pub mod lints;
pub mod scanner;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Severity of a finding: errors fail `xtask check`, warnings only do
/// so under `--deny-warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Hard invariant violation.
    Error,
    /// Style/robustness advisory.
    Warning,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Error => write!(f, "error"),
            Level::Warning => write!(f, "warning"),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable lint identifier (e.g. `determinism/default-hasher`).
    pub lint: &'static str,
    /// Severity.
    pub level: Level,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.path, self.line, self.level, self.lint, self.msg
        )
    }
}

/// One run of every pass: the per-file findings so far plus the files
/// the cross-file lock-hierarchy pass reads.
#[derive(Default)]
struct Passes {
    findings: Vec<Finding>,
    lock_files: Vec<(String, scanner::FileScan)>,
}

impl Passes {
    /// Runs the per-file passes over one source and keeps what the
    /// lock-hierarchy pass needs from it.
    fn file(&mut self, rel: &str, source: &str) {
        let scan = scanner::scan(source);
        self.findings.extend(lints::lint_file(rel, &scan));
        if concurrency::in_lock_scope(rel) {
            self.lock_files.push((rel.to_string(), scan));
        }
    }

    /// Runs the lock-hierarchy pass plus the dependency freeze over
    /// `manifests` and returns every finding, sorted.
    fn finish(mut self, manifests: &[(String, String)]) -> Vec<Finding> {
        self.findings
            .extend(concurrency::check_locks(&self.lock_files));
        self.findings.extend(deps::check_deps(manifests));
        sort_findings(&mut self.findings);
        self.findings
    }
}

/// Runs every lint over in-memory `(path, source)` pairs: the per-file
/// passes plus the cross-file ones. Manifest paths (`Cargo.toml`) go
/// through the dependency-freeze pass. This is the entry point used by
/// fixture tests.
pub fn lint_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    let mut passes = Passes::default();
    let mut manifests = Vec::new();
    for &(path, source) in files {
        if path.ends_with("Cargo.toml") {
            manifests.push((path.to_string(), source.to_string()));
        } else {
            passes.file(path, source);
        }
    }
    passes.finish(&manifests)
}

/// Runs the full check over the workspace rooted at `root`: the
/// per-file passes over every `.rs` source in path order, then the
/// cross-file ones. An unreadable source is an `io/unreadable` error: it
/// would otherwise silently exempt itself from every pass.
pub fn check_workspace(root: &Path) -> Vec<Finding> {
    let mut manifests = Vec::new();
    for path in manifest_paths(root) {
        if let Ok(text) = fs::read_to_string(&path) {
            manifests.push((rel_path(root, &path), text));
        }
    }
    let mut rs_files = Vec::new();
    collect_rs_files(root, &mut rs_files);
    rs_files.sort();
    let mut passes = Passes::default();
    for path in &rs_files {
        let rel = rel_path(root, path);
        match fs::read_to_string(path) {
            Ok(source) => passes.file(&rel, &source),
            Err(e) => passes.findings.push(Finding {
                path: rel,
                line: 1,
                lint: "io/unreadable",
                level: Level::Error,
                msg: format!("cannot read source: {e}"),
            }),
        }
    }
    passes.finish(&manifests)
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Directories never scanned: build artifacts, VCS metadata, generated
/// experiment outputs.
const SKIP_DIRS: &[&str] = &["target", ".git", "results"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Root manifest plus every `crates/*/Cargo.toml`.
fn manifest_paths(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("Cargo.toml")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let m = entry.path().join("Cargo.toml");
            if m.is_file() {
                out.push(m);
            }
        }
    }
    out.sort();
    out
}

/// The workspace root, derived from this crate's manifest directory
/// (`crates/xtask` → two levels up).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}
