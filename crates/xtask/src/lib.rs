#![warn(missing_docs)]

//! # xtask — in-tree static analysis for the hcs workspace
//!
//! `cargo run -p xtask -- check` parses every workspace `.rs` source
//! (no rustc, no external parser — a small comment/string-stripping
//! scanner) and enforces the repo invariants the paper reproduction
//! depends on:
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
//! - **tag registry** — all `const TAG_*` values across
//!   `crates/{core,mpi,benchlib}` are mutually distinct and below the
//!   dynamic collective-tag range reserved by `Comm::next_coll_tag`;
//! - **dependency freeze** — every `Cargo.toml` dependency is another
//!   workspace member (the workspace builds offline, std-only);
//! - **concurrency discipline** — every `Mutex`/`Condvar` in
//!   `crates/sim` is registered in the lock hierarchy
//!   (`// lock-order: <name> level=<N>`); a guard-scope walk flags
//!   acquisitions whose levels do not strictly increase, unknown
//!   locks, and guards held across park points; every
//!   `Ordering::Relaxed` carries an `// atomics:` justification; bare
//!   `.lock()` is banned outside `lockutil`; see [`concurrency`];
//! - **communication skeletons** — every wire call site across
//!   `crates/{core,mpi,benchlib}` is extracted into a per-tag protocol
//!   skeleton; orphan tags, send/recv payload-type disagreements,
//!   role-branch send/recv asymmetries and raw sends on unregistered
//!   tag expressions are hard failures, and the same extraction emits
//!   the runtime `ProtocolMonitor` table (`skeleton --emit`); see
//!   [`skeleton`];
//! - **style** (warning level) — no bare `unwrap()` in library code of
//!   `crates/{sim,core,clock,mpi}`.
//!
//! The passes are exposed as a library so `tests/xtask_lints.rs` can
//! run them over fixture snippets and over the real workspace. Pass
//! families can be filtered with `--only`/`--skip` (see [`PassFilter`])
//! for fast local iteration; CI always runs everything.

pub mod clockdomain;
pub mod concurrency;
pub mod deps;
pub mod lints;
pub mod scanner;
pub mod skeleton;
pub mod tags;

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

/// Every pass family selectable via `--only` / `--skip`. A family is
/// the leading segment of a lint id (`skeleton/orphan-tag` →
/// `skeleton`), except `io/unreadable`, which always runs.
pub const PASS_FAMILIES: &[&str] = &[
    "clockdomain",
    "concurrency",
    "deps",
    "determinism",
    "skeleton",
    "style",
    "tags",
    "unsafe",
];

/// Which pass families run. Built from the CLI's `--only`/`--skip`
/// flags; [`PassFilter::all`] (the CI configuration) runs everything.
#[derive(Debug, Clone, Default)]
pub struct PassFilter {
    only: Option<Vec<String>>,
    skip: Vec<String>,
}

impl PassFilter {
    /// Runs every pass.
    pub fn all() -> Self {
        PassFilter::default()
    }

    /// Builds a filter, rejecting unknown family names so a typo does
    /// not silently skip the pass it meant to select.
    pub fn new(only: Option<Vec<String>>, skip: Vec<String>) -> Result<Self, String> {
        for name in only.iter().flatten().chain(skip.iter()) {
            if !PASS_FAMILIES.contains(&name.as_str()) {
                return Err(format!(
                    "unknown pass family `{name}` (known: {})",
                    PASS_FAMILIES.join(", ")
                ));
            }
        }
        Ok(PassFilter { only, skip })
    }

    /// Does the family run under this filter?
    pub fn runs(&self, family: &str) -> bool {
        if self.skip.iter().any(|s| s == family) {
            return false;
        }
        match &self.only {
            Some(only) => only.iter().any(|o| o == family),
            None => true,
        }
    }
}

/// Runs every lint over in-memory `(path, source)` pairs: the per-file
/// passes plus the cross-file tag registry (using the `COLL_BIT` found
/// in the sources, or the engine default `1 << 16`). Manifest paths
/// (`Cargo.toml`) go through the dependency-freeze pass. This is the
/// entry point used by fixture tests.
pub fn lint_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    lint_sources_filtered(files, &PassFilter::all())
}

/// [`lint_sources`] restricted to the pass families `filter` selects.
pub fn lint_sources_filtered(files: &[(&str, &str)], filter: &PassFilter) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut tag_defs = Vec::new();
    let mut coll_bit = None;
    let mut manifests = Vec::new();
    let mut lock_files = Vec::new();
    let mut skeletons = Vec::new();
    for &(path, source) in files {
        if path.ends_with("Cargo.toml") {
            manifests.push((path.to_string(), source.to_string()));
            continue;
        }
        let scan = scanner::scan(source);
        findings.extend(lints::lint_file_filtered(path, &scan, filter));
        if in_tag_registry(path) {
            if filter.runs("tags") {
                tag_defs.extend(tags::extract_tags(path, &scan));
            }
            if filter.runs("skeleton") && skeleton::in_skeleton_scope(path) {
                skeletons.push(skeleton::collect(path, &scan));
            }
        }
        if coll_bit.is_none() {
            coll_bit = tags::extract_coll_bit(&scan);
        }
        if filter.runs("concurrency") && concurrency::in_lock_scope(path) {
            lock_files.push((path.to_string(), scan));
        }
    }
    if filter.runs("tags") {
        findings.extend(tags::check_tags(&tag_defs, coll_bit.unwrap_or(1 << 16)));
    }
    if filter.runs("skeleton") {
        findings.extend(skeleton::check(&skeletons));
    }
    findings.extend(concurrency::check_locks(&lock_files));
    if filter.runs("deps") {
        findings.extend(deps::check_deps(&manifests));
    }
    sort_findings(&mut findings);
    findings
}

/// Runs the full check over the workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> Vec<Finding> {
    check_workspace_filtered(root, &PassFilter::all())
}

/// [`check_workspace`] restricted to the pass families `filter`
/// selects. `io/unreadable` always runs: an unscannable source would
/// silently exempt itself from every pass.
pub fn check_workspace_filtered(root: &Path, filter: &PassFilter) -> Vec<Finding> {
    let mut rs_files = Vec::new();
    collect_rs_files(root, &mut rs_files);
    rs_files.sort();

    let mut findings = Vec::new();
    let mut tag_defs = Vec::new();
    let mut coll_bit = None;
    let mut lock_files = Vec::new();
    let mut skeletons = Vec::new();
    for path in &rs_files {
        let rel = rel_path(root, path);
        let source = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                findings.push(Finding {
                    path: rel,
                    line: 1,
                    lint: "io/unreadable",
                    level: Level::Error,
                    msg: format!("cannot read source: {e}"),
                });
                continue;
            }
        };
        let scan = scanner::scan(&source);
        findings.extend(lints::lint_file_filtered(&rel, &scan, filter));
        if in_tag_registry(&rel) {
            if filter.runs("tags") {
                tag_defs.extend(tags::extract_tags(&rel, &scan));
            }
            if filter.runs("skeleton") && skeleton::in_skeleton_scope(&rel) {
                skeletons.push(skeleton::collect(&rel, &scan));
            }
        }
        if rel == "crates/mpi/src/lib.rs" {
            coll_bit = tags::extract_coll_bit(&scan);
        }
        if filter.runs("concurrency") && concurrency::in_lock_scope(&rel) {
            lock_files.push((rel, scan));
        }
    }
    if filter.runs("tags") {
        findings.extend(tags::check_tags(&tag_defs, coll_bit.unwrap_or(1 << 16)));
    }
    if filter.runs("skeleton") {
        findings.extend(skeleton::check(&skeletons));
    }
    findings.extend(concurrency::check_locks(&lock_files));

    if filter.runs("deps") {
        let mut manifests = Vec::new();
        for path in manifest_paths(root) {
            if let Ok(text) = fs::read_to_string(&path) {
                manifests.push((rel_path(root, &path), text));
            }
        }
        findings.extend(deps::check_deps(&manifests));
    }
    sort_findings(&mut findings);
    findings
}

/// Renders the generated skeleton table for the workspace at `root` —
/// the payload of `cargo run -p xtask -- skeleton [--emit]`. Reads
/// `COLL_BIT` from `crates/mpi/src/lib.rs` like [`check_workspace`].
pub fn skeleton_table(root: &Path) -> String {
    let mut rs_files = Vec::new();
    collect_rs_files(root, &mut rs_files);
    rs_files.sort();
    let mut coll_bit = None;
    let mut skeletons = Vec::new();
    for path in &rs_files {
        let rel = rel_path(root, path);
        let Ok(source) = fs::read_to_string(path) else {
            continue;
        };
        let scan = scanner::scan(&source);
        if skeleton::in_skeleton_scope(&rel) {
            skeletons.push(skeleton::collect(&rel, &scan));
        }
        if rel == "crates/mpi/src/lib.rs" {
            coll_bit = tags::extract_coll_bit(&scan);
        }
    }
    skeleton::render_table(&skeletons, coll_bit.unwrap_or(1 << 16))
}

/// Renders findings as a JSON document for `--format json` (std-only,
/// so escaping is done by hand; paths and messages are ASCII in
/// practice). Every lint family — including `concurrency/*` — flows
/// through this one serializer, so new passes appear in machine
/// output without registration.
pub fn render_json(findings: &[Finding], errors: usize, warnings: usize) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"level\": \"{}\", \"lint\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.path),
            f.line,
            f.level,
            json_escape(f.lint),
            json_escape(&f.msg)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"errors\": {errors},\n  \"warnings\": {warnings}\n}}"
    ));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Is this file part of the static tag registry?
fn in_tag_registry(rel: &str) -> bool {
    tags::TAG_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
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
