//! # lint-fixture — one violation per clippy ban of the workspace
//!
//! The determinism, unsafe, unwrap and raw-lock bans are held by
//! `crates/clippy.toml` and the root manifest's
//! `[workspace.lints.clippy]` table. This crate sits under `crates/`
//! and inherits the table, so it reads both exactly as every other
//! member does. Its violations compile only under the off-by-default
//! `violations` feature, which keeps `cargo clippy --workspace` clean;
//! `tests/xtask_lints.rs` runs clippy with the feature on and pins the
//! exact set of `(line, lint)` findings.

#[cfg(feature = "violations")]
pub mod violations;
