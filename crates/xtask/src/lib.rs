#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # xtask — in-tree static analysis for the hcs workspace
//!
//! `cargo run -p xtask -- check` enforces the repo invariants that
//! rustc and clippy cannot hold. It reads the manifests and every `.rs`
//! file under `crates/*/src` with a small scanner that builds one token
//! tree per file (see [`scanner`]), and runs:
//!
//! - **clock domains** — `crates/{sim,core,clock,mpi,obs}` library code
//!   may not pass times or durations as bare `f64`/`u64`
//!   (vocabulary-named parameters, fields and returns must use the
//!   `LocalTime` / `GlobalTime` / `SimTime` / `Span` newtypes); see
//!   [`clockdomain`];
//! - **dependency freeze** — every `Cargo.toml` dependency is another
//!   workspace member (the workspace builds offline, std-only); see
//!   [`deps`];
//! - **concurrency discipline** — every `Mutex`/`Condvar` in
//!   `crates/sim` is registered in the lock hierarchy
//!   (`// lock-order: <name> level=<N>`); a guard-scope walk flags
//!   acquisitions whose levels do not strictly increase, unknown
//!   locks, and guards held across park points; every
//!   `Ordering::Relaxed` carries an `// atomics:` justification; see
//!   [`concurrency`].
//!
//! The determinism, unsafe, unwrap and raw-lock bans are clippy's:
//! `crates/clippy.toml` and the `[workspace.lints.clippy]` table of the
//! root manifest (DESIGN.md §7). The wire contract is rustc's, through
//! `hcs_mpi::tags`.
//!
//! The passes are exposed as a library so `tests/xtask_lints.rs` can
//! run them over fixture snippets and over the real workspace; both go
//! through the same per-file dispatch.

pub mod clockdomain;
pub mod concurrency;
pub mod deps;
pub mod scanner;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding. Every finding is an error: it fails `xtask check`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable lint identifier (e.g. `concurrency/lock-order`).
    pub lint: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    /// `path:line: error [lint] message`, the row shape
    /// `.github/problem-matchers/xtask.json` parses.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error [{}] {}",
            self.path, self.line, self.lint, self.msg
        )
    }
}

/// Is `path` under `crates/<c>/src/` for some `c` in `crates`?
fn in_crate_src(path: &str, crates: &[&str]) -> bool {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split_once("/src/"))
        .is_some_and(|(c, _)| crates.contains(&c))
}

/// One run of every pass: the per-file findings so far plus the files
/// the cross-file lock-hierarchy pass reads.
#[derive(Default)]
struct Passes {
    findings: Vec<Finding>,
    lock_files: Vec<(String, scanner::FileScan)>,
}

impl Passes {
    /// Runs the per-file passes that apply to `rel` over one source and
    /// keeps what the lock-hierarchy pass needs from it.
    fn file(&mut self, rel: &str, source: &str) {
        let scan = scanner::scan(source);
        if in_crate_src(rel, clockdomain::CRATES) {
            clockdomain::clockdomain(rel, &scan, &mut self.findings);
        }
        if in_crate_src(rel, concurrency::ATOMICS_CRATES) {
            concurrency::atomics(rel, &scan, &mut self.findings);
        }
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
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
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
/// per-file passes over every `.rs` source under `crates/*/src` in path
/// order, then the cross-file ones over those and the root and crate
/// manifests. An unreadable source is an `io/unreadable` error: it would
/// otherwise silently exempt itself from every pass.
pub fn check_workspace(root: &Path) -> Vec<Finding> {
    let crates = crate_dirs(root);
    let mut manifests = Vec::new();
    for path in std::iter::once(root.to_path_buf())
        .chain(crates.iter().cloned())
        .map(|dir| dir.join("Cargo.toml"))
    {
        if let Ok(text) = fs::read_to_string(&path) {
            manifests.push((rel_path(root, &path), text));
        }
    }
    let mut rs_files = Vec::new();
    for dir in &crates {
        collect_rs_files(&dir.join("src"), &mut rs_files);
    }
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
                msg: format!("cannot read source: {e}"),
            }),
        }
    }
    passes.finish(&manifests)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Every `crates/*` directory holding a `Cargo.toml`, sorted.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    out.sort();
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
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
