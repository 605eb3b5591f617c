//! Clock-domain lint: keeps the `LocalTime` / `GlobalTime` / `Span`
//! newtype boundary from eroding.
//!
//! The paper's algorithms are maps between clock domains, so the
//! workspace encodes the domains in types (`crates/clock/src/domain.rs`,
//! `crates/sim/src/timebase.rs`). This pass rejects, in the library code
//! of the deterministic crates:
//!
//! - **`clockdomain/bare-time`** — `f64`/`u64` parameters, struct
//!   fields, or function returns whose names use time vocabulary
//!   (`time`, `now`, `deadline`, `timestamp`, `start`, `duration`, a
//!   `_s` seconds suffix, a `t_` prefix, or plain `t`). Such values must
//!   carry their frame: `LocalTime`, `GlobalTime`, `SimTime`, or `Span`.
//! - **`clockdomain/raw-extraction`** — anonymous unwrapping of a
//!   domain value: tuple-style `.0` access, `f64::from(..)`, and
//!   `as f64` on lines handling domain types. Crossing the boundary must
//!   go through the named constructors/accessors (`raw_seconds`,
//!   `from_raw_seconds`, `seconds`, `secs`) so every escape is
//!   greppable.
//!
//! The two files that define the newtypes are exempt, and any single
//! line can opt out with a trailing `// xtask-allow: clockdomain`
//! comment stating why.

use crate::scanner::{has_word, is_ident_byte, FileScan};
use crate::{Finding, Level};

/// Files allowed to look inside the newtypes: the definitions themselves.
pub const BLESSED_FILES: &[&str] = &["crates/clock/src/domain.rs", "crates/sim/src/timebase.rs"];

/// The clock-domain newtype names (whole-word matched).
pub const DOMAIN_TYPES: &[&str] = &["Span", "SimTime", "LocalTime", "GlobalTime"];

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
    raw_extraction(path, scan, out);
}

fn allowed(scan: &FileScan, ln: usize) -> bool {
    scan.raw[ln].contains(ALLOW_MARKER)
}

/// Rule (a), bindings: `name: f64` / `name: u64` parameters and struct
/// fields with time-vocabulary names. `let` statements are locals, not
/// API surface, and are left to the extraction rule.
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
                        level: Level::Error,
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

/// Rule (a), returns: functions with time-vocabulary names returning a
/// bare `f64`/`u64`. The signature runs from `fn` to the body brace
/// (or `;` for trait methods), however many lines it spans.
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
                level: Level::Error,
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

/// Rule (b): anonymous extraction of a domain value's raw seconds.
fn raw_extraction(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    for (ln, line) in scan.code.iter().enumerate() {
        if scan.is_test[ln] || allowed(scan, ln) {
            continue;
        }
        let mut flag = |what: &str| {
            out.push(Finding {
                path: path.to_string(),
                line: ln + 1,
                lint: "clockdomain/raw-extraction",
                level: Level::Error,
                msg: format!(
                    "{what} bypasses the clock-domain newtypes; use raw_seconds()/seconds()/from_raw_seconds()/secs() so the frame crossing is named (or `// {ALLOW_MARKER}` with a reason)"
                ),
            });
        };
        if tuple_field_access(line) {
            flag("`.0` access");
        }
        if line.contains("f64::from(") {
            flag("`f64::from(..)`");
        }
        if DOMAIN_TYPES.iter().any(|t| has_word(line, t)) && line.contains(" as f64") {
            flag("`as f64` on a domain-typed line");
        }
    }
}

/// `.0` in expression position: preceded by an identifier byte or a
/// closing bracket (so float literals like `1.0` stay legal), and not
/// the head of a longer number.
fn tuple_field_access(line: &str) -> bool {
    let bytes = line.as_bytes();
    for p in 0..bytes.len().saturating_sub(1) {
        if bytes[p] != b'.' || bytes[p + 1] != b'0' {
            continue;
        }
        let before =
            p > 0 && (is_ident_byte(bytes[p - 1]) || bytes[p - 1] == b')' || bytes[p - 1] == b']');
        let digit_before = p > 0 && bytes[p - 1].is_ascii_digit();
        let after_ok = p + 2 >= bytes.len() || !bytes[p + 2].is_ascii_alphanumeric();
        if before && !digit_before && after_ok {
            return true;
        }
    }
    false
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

    #[test]
    fn tuple_access_vs_float_literal() {
        assert!(tuple_field_access("let raw = span.0;"));
        assert!(tuple_field_access("(a - b).0"));
        assert!(!tuple_field_access("let x = 1.0;"));
        assert!(!tuple_field_access("let x = 21.0 + 0.5;"));
        assert!(!tuple_field_access("f(0.0, 1.0)"));
    }
}
