//! `cargo run -p xtask -- check`
//!
//! Runs every pass and exits 0 when the workspace satisfies every repo
//! invariant, 1 when any finding exists, 2 on usage errors.
//!
//! The output is one `path:line: error [lint] message` row per finding
//! — the shape `.github/problem-matchers/xtask.json` parses so CI
//! annotates PR diffs.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use xtask::{check_workspace, workspace_root};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["check"] {
        eprintln!("usage: cargo run -p xtask -- check");
        return ExitCode::from(2);
    }
    let root = workspace_root();
    let findings = check_workspace(&root);
    for f in &findings {
        println!("{f}");
    }
    println!(
        "xtask check: {} error(s) across workspace at {}",
        findings.len(),
        root.display()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
