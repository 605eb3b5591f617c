//! `cargo run -p xtask -- check [--deny-warnings]`
//! `cargo run -p xtask -- skeleton [--emit]`
//!
//! `check` runs every pass and exits 0 when the workspace satisfies
//! every repo invariant, 1 when any error-level finding exists (or any
//! warning under `--deny-warnings`), 2 on usage errors.
//!
//! The output is one `path:line: level [lint] message` row per finding
//! — the shape `.github/problem-matchers/xtask.json` parses so CI
//! annotates PR diffs.
//!
//! `skeleton` prints the generated communication-skeleton table;
//! `skeleton --emit` writes it to `crates/sim/src/skeleton_gen.rs`
//! (the runtime `ProtocolMonitor`'s source of truth). CI runs the
//! emitter and fails if the committed table is stale.

use std::process::ExitCode;

use xtask::{check_workspace, skeleton_table, workspace_root, Level};

const USAGE: &str = "usage: cargo run -p xtask -- check [--deny-warnings]\n       \
cargo run -p xtask -- skeleton [--emit]";

/// Path of the generated skeleton table, workspace-relative.
const SKELETON_GEN: &str = "crates/sim/src/skeleton_gen.rs";

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut command = None;
    let mut emit = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "check" => command = Some("check"),
            "skeleton" => command = Some("skeleton"),
            "--deny-warnings" => deny_warnings = true,
            "--emit" => emit = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = workspace_root();
    match command {
        Some("check") => {
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
        Some("skeleton") => {
            let table = skeleton_table(&root);
            if !emit {
                print!("{table}");
                return ExitCode::SUCCESS;
            }
            let dest = root.join(SKELETON_GEN);
            let current = std::fs::read_to_string(&dest).ok();
            if current.as_deref() == Some(table.as_str()) {
                println!("skeleton table up to date: {SKELETON_GEN}");
                return ExitCode::SUCCESS;
            }
            if let Err(e) = std::fs::write(&dest, &table) {
                eprintln!("cannot write {SKELETON_GEN}: {e}");
                return ExitCode::FAILURE;
            }
            println!("skeleton table updated: {SKELETON_GEN}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
