//! Concurrency-discipline lints: a guard-scope walk and the atomics
//! justification.
//!
//! The simulator has two kinds of lock (DESIGN.md §12): `RunLock`, the
//! checked borrow flag over one run's state, and the plain `Mutex`es
//! over what still crosses threads, each taken through
//! `lockutil::lock_ignore_poison`. These passes keep the rules that
//! make both sound:
//!
//! - **leaf mutexes** (`concurrency/lock-order`) — a brace-scoped walk
//!   over guard bindings (`lock_ignore_poison(..)` / `.acquire()`)
//!   flags a `lock_ignore_poison(..)` acquisition while another mutex
//!   guard is live. With no mutex nested in another, no two can wait
//!   on each other;
//! - **blocking** (`concurrency/guard-across-blocking`) — no guard may
//!   be held across a park point (`.wait(`, `park`, `match_or_park`); the
//!   one sanctioned shape is the consumed-guard condvar wait
//!   (`g = cv.wait(g)`) with no other guard held. A `RunLock` guard
//!   is a guard like any other here: the single-owner lock of a run is
//!   only sound because nothing holds it across `cont::suspend_current`
//!   or `cont::switch_to`;
//! - **atomics** (`concurrency/relaxed-atomic`) — every
//!   `Ordering::Relaxed` in library code of the concurrency-sensitive
//!   crates needs an `// atomics:` comment explaining why relaxed
//!   ordering is sound, same-line or in the comment block above.
//!
//! The walk sees every mutex acquisition because `crates/clippy.toml`
//! bans `Mutex::lock` outside `lockutil::lock_ignore_poison`. It reads
//! acquisitions, bindings and brace scopes off the scanner's token tree
//! but is still linear (no CFG): a guard is considered held from its
//! acquisition until its binding is `drop(..)`ed or its brace scope
//! closes, and `else`-branch drops are treated as if they happened on
//! the straight-line path. That is precise enough for the idioms
//! `crates/sim` actually uses; genuinely special sites carry a per-line
//! `// xtask-allow: concurrency`.

use crate::scanner::{annotation_above, has_word, FileScan};
use crate::Finding;

/// Per-line escape hatch: suppresses every concurrency finding on the
/// line it appears on (state tracking still sees the line).
pub const ALLOW_MARKER: &str = "xtask-allow: concurrency";

/// Files that define the locking primitives themselves and are
/// therefore exempt from every pass in this module.
pub const BLESSED_FILES: &[&str] = &["crates/sim/src/lockutil.rs"];

/// Crates whose library code must justify every `Ordering::Relaxed`.
pub const ATOMICS_CRATES: &[&str] = &["sim", "core", "clock", "mpi", "obs", "benchlib"];

const ATOMICS_MARKER: &str = "atomics:";

/// Files whose guard scopes the walk covers.
pub fn in_lock_scope(path: &str) -> bool {
    path.starts_with("crates/sim/src/") && !blessed(path)
}

fn blessed(path: &str) -> bool {
    BLESSED_FILES.contains(&path)
}

fn allowed(scan: &FileScan, ln: usize) -> bool {
    scan.raw[ln].contains(ALLOW_MARKER)
}

fn finding(path: &str, ln: usize, lint: &'static str, msg: String) -> Finding {
    Finding {
        path: path.to_string(),
        line: ln + 1,
        lint,
        msg,
    }
}

/// One lock acquisition in the token tree; the walk tracks its guard.
struct Acq {
    /// 0-based line of the acquiring call.
    ln: usize,
    /// Lock expression: the argument of `lock_ignore_poison(..)` or the
    /// receiver of `.acquire()`.
    expr: String,
    /// Taken by `lock_ignore_poison(..)`: a mutex, not a `RunLock`.
    mutex: bool,
    /// Guard binding, when the statement's right-hand side *is* the
    /// acquisition (`let g = lock_ignore_poison(..);`,
    /// `st = shard.state.acquire();`, optionally `: Type`-ascribed). An
    /// acquisition nested in a larger expression
    /// (`std::mem::take(&mut *lock_ignore_poison(..))`,
    /// `lock_ignore_poison(..).take()`) is a statement temporary.
    var: Option<String>,
    /// Last line of the innermost brace scope around the acquisition.
    until: usize,
}

/// The guard-scope walk: tracks acquisitions (`lock_ignore_poison(..)`
/// and `.acquire()`), their binding scopes and explicit `drop(..)`s,
/// and reports nested mutex acquisitions and guards held across park
/// points.
pub fn guards(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    let acqs = acquisitions_in(scan);
    let drops = drop_targets(scan);
    let (mut a, mut d) = (0, 0);
    let mut held: Vec<&Acq> = Vec::new();
    for (ln, line) in scan.code.iter().enumerate() {
        let active = !scan.is_test[ln];
        let quiet = !active || allowed(scan, ln);

        if !quiet && !held.is_empty() {
            check_blocking(path, ln, line, &held, out);
        }
        while d < drops.len() && drops[d].0 == ln {
            let var = &drops[d].1;
            d += 1;
            if !active {
                continue;
            }
            if let Some(pos) = held.iter().rposition(|h| h.var.as_ref() == Some(var)) {
                held.remove(pos);
            }
        }
        while a < acqs.len() && acqs[a].ln == ln {
            let acq = &acqs[a];
            a += 1;
            if !active {
                continue;
            }
            if !quiet && acq.mutex {
                for h in held.iter().filter(|h| h.mutex) {
                    out.push(finding(
                        path,
                        ln,
                        "concurrency/lock-order",
                        format!(
                            "acquiring `{}` while holding the mutex guard of `{}`; mutexes are \
                             leaves: release the first before taking the second",
                            acq.expr, h.expr
                        ),
                    ));
                }
            }
            held.push(acq);
        }
        // Temporaries die with their line, bindings with their scope.
        held.retain(|h| h.var.is_some() && h.until > ln);
    }
}

/// Park points: a line that can block the thread while the walk still
/// sees guards held. The consumed-guard condvar wait
/// (`g = cv.wait(g)`) is the one sanctioned shape — the innermost
/// guard is handed to the condvar, and nothing else may be held.
/// `suspend_current` (and `switch_to`, which suspends the running
/// fiber in favor of another) is stricter still: a continuation
/// suspension may resume on a *different OS thread* (cont.rs), so a
/// guard held across it would be released on the wrong thread — no
/// consumed-guard exemption exists for it.
fn check_blocking(path: &str, ln: usize, line: &str, held: &[&Acq], out: &mut Vec<Finding>) {
    let wait = line.contains(".wait(");
    let park = has_word(line, "park");
    let recv = has_word(line, "match_or_park");
    let susp = has_word(line, "suspend_current") || has_word(line, "switch_to");
    if !wait && !park && !recv && !susp {
        return;
    }
    if wait && !park && !recv && !susp {
        let innermost = held.last().expect("caller checked non-empty");
        let consumed = innermost.var.as_deref().is_some_and(|v| has_word(line, v));
        if consumed && held.len() == 1 {
            return;
        }
    }
    let names: Vec<&str> = held.iter().map(|h| h.expr.as_str()).collect();
    out.push(finding(
        path,
        ln,
        "concurrency/guard-across-blocking",
        format!(
            "blocking call with lock guard(s) held ({}); drop the guard first or use the \
             consumed-guard condvar wait `g = cv.wait(g)`",
            names.join(", ")
        ),
    ));
}

/// Every lock acquisition in the file, in source order.
fn acquisitions_in(scan: &FileScan) -> Vec<Acq> {
    let mut out = Vec::new();
    for i in 0..scan.toks.len() {
        let mutex = scan.is(i, "lock_ignore_poison") && scan.is(i + 1, "(");
        let (first, expr, last) = if mutex {
            let arg = scan.items(i + 1).into_iter().next().unwrap_or(i + 2..i + 2);
            (i, scan.span(arg.start, arg.end), scan.pair(i + 1))
        } else if scan.is(i, "acquire") && scan.is(i + 1, "(") && i > 0 && scan.is(i - 1, ".") {
            // The receiver: a path of fields and index groups.
            let dot = i - 1;
            let mut first = dot;
            while first > 0 {
                let p = first - 1;
                if scan.is(p, "]") {
                    first = scan.pair(p).min(p);
                } else if scan.is_ident(p) || scan.is(p, ".") {
                    first = p;
                } else {
                    break;
                }
            }
            if first == dot {
                continue;
            }
            (first, scan.span(first, dot), scan.pair(i + 1))
        } else {
            continue;
        };
        out.push(Acq {
            ln: scan.toks[i].line,
            expr: expr.trim().to_string(),
            mutex,
            var: guard_binding(scan, first, last),
            until: scan
                .enclosing(i, "{")
                .map_or(usize::MAX, |o| scan.line(scan.pair(o))),
        });
    }
    out
}

/// The binding of `[let] [mut] name [: Type] = <acquisition>;` where
/// the acquisition spans tokens `first..=last`.
fn guard_binding(scan: &FileScan, first: usize, last: usize) -> Option<String> {
    if first == 0 || !scan.is(first - 1, "=") || !scan.is(last + 1, ";") {
        return None;
    }
    let mut k = scan.stmt_start(first);
    k += usize::from(scan.is(k, "let"));
    k += usize::from(scan.is(k, "mut"));
    // Bare ident or `ident: Type` only; patterns are not guard bindings.
    (scan.is_ident(k) && (k + 1 == first - 1 || scan.is(k + 1, ":")))
        .then(|| scan.text(k).to_string())
}

/// Explicitly dropped identifiers: `(line, v)` for every `drop(v)`.
fn drop_targets(scan: &FileScan) -> Vec<(usize, String)> {
    (0..scan.toks.len())
        .filter(|&i| {
            scan.is(i, "drop") && scan.is(i + 1, "(") && scan.is_ident(i + 2) && scan.is(i + 3, ")")
        })
        .map(|i| (scan.toks[i].line, scan.text(i + 2).to_string()))
        .collect()
}

/// `Ordering::Relaxed` in library code needs an `// atomics:` comment
/// (same line or contiguous comment block above) saying why relaxed
/// ordering cannot reorder against the lock-protected state it
/// mirrors.
pub fn atomics(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    if blessed(path) {
        return;
    }
    for (ln, line) in scan.code.iter().enumerate() {
        if scan.is_test[ln] || allowed(scan, ln) || !line.contains("Ordering::Relaxed") {
            continue;
        }
        if annotation_above(scan, ln, ATOMICS_MARKER).is_some() {
            continue;
        }
        out.push(finding(
            path,
            ln,
            "concurrency/relaxed-atomic",
            "`Ordering::Relaxed` without an `// atomics:` justification; explain why relaxed \
             ordering is sound here (or use Acquire/Release)"
                .to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn lock_findings(src: &str) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        guards("crates/sim/src/events.rs", &scan(src), &mut out);
        out.into_iter()
            .map(|f| (f.lint.to_string(), f.line))
            .collect()
    }

    /// Lock-acquisition expressions in a code fragment.
    fn acquisitions(code: &str) -> Vec<String> {
        acquisitions_in(&scan(code))
            .into_iter()
            .map(|a| a.expr)
            .collect()
    }

    #[test]
    fn acquisition_extraction() {
        assert_eq!(
            acquisitions("let q = lock_ignore_poison(&self.boxes[e.waiter].q);"),
            vec!["&self.boxes[e.waiter].q"]
        );
        assert_eq!(
            acquisitions("*lock_ignore_poison(&results[rank]) = Some(out);"),
            vec!["&results[rank]"]
        );
        assert_eq!(
            acquisitions("let mut st = shard.state.acquire();"),
            vec!["shard.state"]
        );
    }

    #[test]
    fn nested_mutexes_are_flagged_and_run_locks_are_not_mutexes() {
        let src = "\
impl Pair {
    fn nested(&self) {
        let a = lock_ignore_poison(&self.first);
        let b = lock_ignore_poison(&self.second);
    }
    fn sequential(&self) {
        *lock_ignore_poison(&self.first) += 1;
        let b = lock_ignore_poison(&self.second);
        drop(b);
        let a = lock_ignore_poison(&self.first);
    }
    fn mixed(&self) {
        let q = self.q.acquire();
        let a = lock_ignore_poison(&self.first);
        let r = self.r.acquire();
    }
}
";
        assert_eq!(
            lock_findings(src),
            vec![("concurrency/lock-order".to_string(), 4)]
        );
    }

    #[test]
    fn guard_across_blocking_and_consumed_wait() {
        let src = "\
fn bad(s: &S) {
    let g = lock_ignore_poison(&s.m);
    std::thread::park();
}
fn good(s: &S) {
    let mut g = lock_ignore_poison(&s.m);
    g = s.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
    drop(g);
    std::thread::park();
}
";
        assert_eq!(
            lock_findings(src),
            vec![("concurrency/guard-across-blocking".to_string(), 3)]
        );
    }

    #[test]
    fn suspend_current_is_a_park_point_with_no_consumed_guard_exemption() {
        // A continuation suspension can resume on a different OS
        // thread, so *no* guard — not even the innermost consumed-guard
        // shape condvar waits get — may be held across it.
        let src = "\
fn bad(s: &S) {
    let g = lock_ignore_poison(&s.m);
    crate::cont::suspend_current(g_key(&g));
}
fn good(s: &S) {
    let g = lock_ignore_poison(&s.m);
    drop(g);
    crate::cont::suspend_current(0);
}
fn bad_switch(s: &S, next: FiberRef) {
    let g = s.q.acquire();
    unsafe { crate::cont::switch_to(g_key(&g), next) };
}
";
        assert_eq!(
            lock_findings(src),
            vec![
                ("concurrency/guard-across-blocking".to_string(), 3),
                ("concurrency/guard-across-blocking".to_string(), 12),
            ]
        );
    }

    #[test]
    fn allow_marker_silences_the_walk() {
        let src = "\
fn nested(p: &Pair) {
    let b = lock_ignore_poison(&p.second);
    let a = lock_ignore_poison(&p.first); // xtask-allow: concurrency
}
";
        assert!(lock_findings(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(s: &S) { let g = lock_ignore_poison(&s.m); std::thread::park(); }
}
";
        assert!(lock_findings(src).is_empty());
    }
}
