//! `cargo run -p xtask -- check [--deny-warnings]`
//!
//! Runs every pass and exits 0 when the workspace satisfies every repo
//! invariant, 1 when any error-level finding exists (or any warning
//! under `--deny-warnings`), 2 on usage errors.
//!
//! The output is one `path:line: level [lint] message` row per finding
//! — the shape `.github/problem-matchers/xtask.json` parses so CI
//! annotates PR diffs.

use std::process::ExitCode;

use xtask::{check_workspace, workspace_root, Level};

const USAGE: &str = "usage: cargo run -p xtask -- check [--deny-warnings]";

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "check" => check = true,
            "--deny-warnings" => deny_warnings = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if !check {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let root = workspace_root();
    let findings = check_workspace(&root);
    let errors = findings.iter().filter(|f| f.level == Level::Error).count();
    let warnings = findings.len() - errors;
    for f in &findings {
        println!("{f}");
    }
    println!(
        "xtask check: {errors} error(s), {warnings} warning(s) across workspace at {}",
        root.display()
    );
    if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
