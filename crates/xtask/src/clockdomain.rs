//! Clock-domain lint: keeps times from travelling as bare numbers.
//!
//! The paper's algorithms are maps between clock domains, so the
//! workspace encodes the domains in types (`crates/clock/src/domain.rs`,
//! `crates/sim/src/timebase.rs`). Their fields are private, so rustc
//! already refuses anonymous unwrapping (`.0`, `as f64`) outside the
//! defining modules. What nothing stock sees is a time that never
//! entered a newtype: **`clockdomain/bare-time`** rejects, in the
//! library code of [`CRATES`], `f64`/`u64` parameters, struct fields,
//! or function returns whose names use time vocabulary (`time`, `now`,
//! `deadline`, `timestamp`, `start`, `duration`, a `_s` seconds suffix,
//! a `t_` prefix, or plain `t`). Such values must carry their frame:
//! `LocalTime`, `GlobalTime`, `SimTime`, or `Span`.
//!
//! The two files that define the newtypes are exempt, and any single
//! line can opt out with a trailing `// xtask-allow: clockdomain`
//! comment stating why.

use crate::scanner::{has_word, is_ident_byte, FileScan};
use crate::Finding;

/// Crates whose library code the pass covers.
pub const CRATES: &[&str] = &["sim", "core", "clock", "mpi", "obs"];

/// Files allowed to look inside the newtypes: the definitions themselves.
pub const BLESSED_FILES: &[&str] = &["crates/clock/src/domain.rs", "crates/sim/src/timebase.rs"];

/// Per-line escape hatch, written in a comment on the offending line.
pub const ALLOW_MARKER: &str = "xtask-allow: clockdomain";

/// Identifier names that denote a point in time or a duration.
const TIME_WORDS: &[&str] = &[
    "t",
    "time",
    "now",
    "deadline",
    "timestamp",
    "start",
    "duration",
];

/// Does `name` (an identifier) use time vocabulary? Checks the whole
/// name, each `_`-separated segment, the `_s` seconds suffix, and the
/// `t_` prefix, case-insensitively.
pub fn is_time_vocab(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    if TIME_WORDS.contains(&n.as_str()) || n.ends_with("_s") || n.starts_with("t_") {
        return true;
    }
    n.split('_').any(|seg| TIME_WORDS.contains(&seg))
}

/// Runs the clock-domain pass over one scanned file.
pub fn clockdomain(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    if BLESSED_FILES.contains(&path) {
        return;
    }
    bare_time_bindings(path, scan, out);
    bare_time_returns(path, scan, out);
}

fn allowed(scan: &FileScan, ln: usize) -> bool {
    scan.raw[ln].contains(ALLOW_MARKER)
}

/// Bindings: `name: f64` / `name: u64` parameters and struct fields
/// with time-vocabulary names. `let` statements are locals, not API
/// surface.
fn bare_time_bindings(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    for (ln, line) in scan.code.iter().enumerate() {
        if scan.is_test[ln] || allowed(scan, ln) || has_word(line, "let") {
            continue;
        }
        for ty in ["f64", "u64"] {
            for name in bare_typed_names(line, ty) {
                if is_time_vocab(name) {
                    out.push(Finding {
                        path: path.to_string(),
                        line: ln + 1,
                        lint: "clockdomain/bare-time",
                        msg: format!(
                            "`{name}: {ty}` names a time but carries no frame; use LocalTime, GlobalTime, SimTime, or Span (or `// {ALLOW_MARKER}` with a reason)"
                        ),
                    });
                }
            }
        }
    }
}

/// Yields the identifiers bound as `ident : TY` (word-bounded) in `line`.
fn bare_typed_names<'l>(line: &'l str, ty: &str) -> Vec<&'l str> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = line[start..].find(ty) {
        let p = start + pos;
        start = p + ty.len();
        // Word-bounded occurrence of the type name.
        if p > 0 && is_ident_byte(bytes[p - 1]) {
            continue;
        }
        if start < bytes.len() && is_ident_byte(bytes[start]) {
            continue;
        }
        // Walk left over whitespace, require a `:`, then take the ident.
        let mut i = p;
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i == 0 || bytes[i - 1] != b':' {
            continue;
        }
        i -= 1;
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        let end = i;
        while i > 0 && is_ident_byte(bytes[i - 1]) {
            i -= 1;
        }
        if i < end {
            out.push(&line[i..end]);
        }
    }
    out
}

/// Returns: functions with time-vocabulary names returning a bare
/// `f64`/`u64`. The signature runs from `fn` to the body brace (or `;`
/// for trait methods), however many lines it spans.
fn bare_time_returns(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    for i in 0..scan.toks.len() {
        let ln = scan.toks[i].line;
        if scan.is_test[ln] || !scan.is(i, "fn") || !scan.is_ident(i + 1) {
            continue;
        }
        let end = scan.head_end(i + 2);
        if (ln..=scan.line(end)).any(|l| allowed(scan, l)) {
            continue;
        }
        let sig = scan.span(i, end);
        let Some((name, ret)) = fn_name_and_return(&sig) else {
            continue;
        };
        if is_time_vocab(name) && (ret == "f64" || ret == "u64") {
            out.push(Finding {
                path: path.to_string(),
                line: ln + 1,
                lint: "clockdomain/bare-time",
                msg: format!(
                    "`fn {name}` names a time but returns bare `{ret}`; return LocalTime, GlobalTime, SimTime, or Span (or `// {ALLOW_MARKER}` with a reason)"
                ),
            });
        }
    }
}

/// Extracts `(name, return_type)` from a joined signature, if it has an
/// explicit return type.
fn fn_name_and_return(sig: &str) -> Option<(&str, &str)> {
    let after = sig.split_once("fn ")?.1;
    let name_end = after
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(after.len());
    let name = &after[..name_end];
    if name.is_empty() {
        return None;
    }
    let ret = sig.split_once("->")?.1;
    let ret = ret.split_once("where").map_or(ret, |(head, _)| head).trim();
    Some((name, ret))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_vocab_matching() {
        for yes in [
            "t",
            "now",
            "deadline",
            "start",
            "duration",
            "window_s",
            "t_local",
            "start_time",
            "T_END",
        ] {
            assert!(is_time_vocab(yes), "{yes} should match");
        }
        for no in [
            "slope",
            "rank",
            "bytes",
            "bandwidth_bps",
            "seconds",
            "raw",
            "pos",
            "latency",
        ] {
            assert!(!is_time_vocab(no), "{no} should not match");
        }
    }

    #[test]
    fn typed_name_extraction() {
        assert_eq!(
            bare_typed_names("pub fn f(deadline: f64, n: usize)", "f64"),
            vec!["deadline"]
        );
        assert_eq!(
            bare_typed_names("    pub start: f64,", "f64"),
            vec!["start"]
        );
        assert!(bare_typed_names("fn f(x: Vec<f64>)", "f64").is_empty());
        assert!(bare_typed_names("fn f() -> f64", "f64").is_empty());
    }

    #[test]
    fn signature_parsing() {
        assert_eq!(
            fn_name_and_return("pub fn now(&self) -> f64 "),
            Some(("now", "f64"))
        );
        assert_eq!(
            fn_name_and_return("fn duration<T>(x: T) -> u64 where T: Copy "),
            Some(("duration", "u64"))
        );
        assert_eq!(fn_name_and_return("pub fn go(&mut self) "), None);
    }
}
