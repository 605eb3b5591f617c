//! Concurrency-discipline lints: lock registry, lock-order walk,
//! atomics justification and the raw-lock ban.
//!
//! The simulator's hang-freedom argument (DESIGN.md §12) rests on a
//! declared lock hierarchy: every `Mutex`/`Condvar` in `crates/sim`
//! carries a `// lock-order: <name> level=<N>` annotation, and a
//! thread may only acquire locks in strictly increasing level order.
//! These passes keep the declarations and the code honest:
//!
//! - **registry** (`concurrency/unregistered-lock`,
//!   `concurrency/bad-annotation`, `concurrency/conflicting-level`) —
//!   every lock declaration in `crates/sim/src/` must be annotated,
//!   annotations must parse, and one hierarchy name must map to one
//!   level everywhere (constructor literals
//!   `OrderedMutex::new("name", N, ..)` and the run-scoped
//!   `RunLock::new("name", N, ..)` are cross-checked too);
//! - **lock order** (`concurrency/lock-order`,
//!   `concurrency/unknown-lock`) — a brace-scoped walk over guard
//!   bindings (`lock_ignore_poison(..)` / `.acquire()`) flags nested
//!   acquisitions whose levels do not strictly increase, and
//!   acquisitions of locks the registry cannot resolve;
//! - **blocking** (`concurrency/guard-across-blocking`) — no guard may
//!   be held across a park point (`.wait(`, `park`, `recv_batch`); the
//!   one sanctioned shape is the consumed-guard condvar wait
//!   (`g = g.wait(&cv)`) with no other guard held. A `RunLock` guard
//!   is a guard like any other here: the single-owner lock of a run is
//!   only sound because nothing holds it across `cont::suspend_current`
//!   or `cont::switch_to`;
//! - **atomics** (`concurrency/relaxed-atomic`) — every
//!   `Ordering::Relaxed` in library code of the concurrency-sensitive
//!   crates needs an `// atomics:` comment explaining why relaxed
//!   ordering is sound, same-line or in the comment block above
//!   (modeled on the `SAFETY:` lint);
//! - **raw locks** (`concurrency/raw-lock`) — bare `.lock()` is banned
//!   in library code; all lock sites go through
//!   `lockutil::lock_ignore_poison` or `OrderedMutex::acquire`, which
//!   is what makes the guard walk (and the runtime validator) see
//!   every acquisition.
//!
//! The walk reads acquisitions, bindings and brace scopes off the
//! scanner's token tree but is still linear (no CFG): a guard is
//! considered held from its acquisition until its binding is
//! `drop(..)`ed or its brace scope closes, and `else`-branch drops are
//! treated as if they happened on the straight-line path. That is
//! precise enough for the idioms `crates/sim` actually uses; genuinely
//! special sites carry a per-line `// xtask-allow: concurrency`.

use std::collections::BTreeMap;

use crate::scanner::{annotation_above, has_word, is_ident_byte, scan, FileScan, Kind};
use crate::{Finding, Level};

/// Per-line escape hatch: suppresses every concurrency finding on the
/// line it appears on (state tracking still sees the line).
pub const ALLOW_MARKER: &str = "xtask-allow: concurrency";

/// Files that define the locking primitives themselves and are
/// therefore exempt from every pass in this module.
pub const BLESSED_FILES: &[&str] = &["crates/sim/src/lockutil.rs"];

/// Crates whose library code must justify every `Ordering::Relaxed`.
pub const ATOMICS_CRATES: &[&str] = &["sim", "core", "clock", "mpi", "obs", "benchlib"];

const LOCK_ORDER_MARKER: &str = "lock-order:";
const ATOMICS_MARKER: &str = "atomics:";

/// Files whose `Mutex`/`Condvar` declarations feed the lock registry
/// and whose guard scopes the lock-order walk covers.
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
        level: Level::Error,
        msg,
    }
}

/// One registered lock declaration.
#[derive(Debug, Clone)]
struct LockDef {
    path: String,
    /// 0-based declaration line.
    ln: usize,
    /// Field/binding identifier the declaration introduces (used to
    /// resolve acquisition expressions); `None` when the line shape is
    /// not a simple `ident: Type` / `let ident: Type`.
    ident: Option<String>,
    name: String,
    /// `Some` for mutexes (required); condvars may omit the level and
    /// inherit their named mutex's.
    level: Option<u32>,
}

/// Cross-file entry point: collects the lock registry over every
/// in-scope file, checks it for consistency, then runs the lock-order
/// walk per file against the full table.
pub fn check_locks(files: &[(String, FileScan)]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut defs = Vec::new();
    for (path, scan) in files {
        collect_defs(path, scan, &mut defs, &mut out);
    }

    // Hierarchy name → level (first definition wins; conflicts are
    // reported at the later site).
    let mut by_name: BTreeMap<&str, u32> = BTreeMap::new();
    for def in defs.iter().filter(|d| d.level.is_some()) {
        let level = def.level.expect("filtered on Some");
        match by_name.get(def.name.as_str()) {
            Some(&prev) if prev != level => out.push(finding(
                &def.path,
                def.ln,
                "concurrency/conflicting-level",
                format!(
                    "lock `{}` re-registered at level {level} (previously level {prev}); one \
                     hierarchy name must map to one level",
                    def.name
                ),
            )),
            Some(_) => {}
            None => {
                by_name.insert(&def.name, level);
            }
        }
    }
    // A condvar annotation must reference a registered mutex name.
    for def in defs.iter().filter(|d| d.level.is_none()) {
        if !by_name.contains_key(def.name.as_str()) {
            out.push(finding(
                &def.path,
                def.ln,
                "concurrency/unknown-lock",
                format!(
                    "`{}` is not a registered lock name; condvar annotations must name the \
                     mutex they pair with",
                    def.name
                ),
            ));
        }
    }
    // Acquisition-site identifier → (name, level). Two locks may share
    // an identifier only if they share a level, otherwise the walk
    // cannot resolve the site.
    let mut by_ident: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
    for def in &defs {
        let (Some(ident), Some(level)) = (&def.ident, def.level) else {
            continue;
        };
        match by_ident.get(ident.as_str()) {
            Some(&(_, prev)) if prev != level => out.push(finding(
                &def.path,
                def.ln,
                "concurrency/conflicting-level",
                format!(
                    "identifier `{ident}` is declared for locks at levels {prev} and {level}; \
                     rename one field so acquisition sites stay resolvable"
                ),
            )),
            Some(_) => {}
            None => {
                by_ident.insert(ident, (&def.name, level));
            }
        }
    }

    for (path, scan) in files {
        check_ctor_literals(path, scan, &by_name, &mut out);
        lock_order_walk(path, scan, &by_ident, &by_name, &mut out);
    }
    out
}

/// Registry collection: every non-test line in scope declaring a
/// `Mutex`/`OrderedMutex`/`RunLock`/`Condvar` in type position needs a
/// parsable `// lock-order:` annotation.
fn collect_defs(path: &str, scan: &FileScan, defs: &mut Vec<LockDef>, out: &mut Vec<Finding>) {
    for (ln, line) in scan.code.iter().enumerate() {
        if scan.is_test[ln] || line.trim_start().starts_with("use ") {
            continue;
        }
        // Only field / binding declarations register locks; `Mutex<..>`
        // in a fn signature or impl header is a mention, not a home.
        if has_word(line, "fn") || line.trim_start().starts_with("impl") {
            continue;
        }
        let is_mutex = ["Mutex", "OrderedMutex", "RunLock"]
            .iter()
            .any(|ty| word_followed_by(line, ty, b'<'));
        let is_condvar = condvar_decl(line);
        if !is_mutex && !is_condvar {
            continue;
        }
        if allowed(scan, ln) {
            continue;
        }
        let Some(text) = annotation_above(scan, ln, LOCK_ORDER_MARKER) else {
            out.push(finding(
                path,
                ln,
                "concurrency/unregistered-lock",
                format!(
                    "{} declaration without a `// lock-order: <name> level=<N>` annotation; \
                     every lock in crates/sim must be registered in the hierarchy (DESIGN.md \u{a7}12)",
                    if is_mutex { "Mutex" } else { "Condvar" }
                ),
            ));
            continue;
        };
        let Some((name, level)) = parse_annotation(text) else {
            out.push(finding(
                path,
                ln,
                "concurrency/bad-annotation",
                format!("unparsable lock-order annotation `{text}`: expected `<name> [level=<N>]`"),
            ));
            continue;
        };
        if is_mutex && level.is_none() {
            out.push(finding(
                path,
                ln,
                "concurrency/bad-annotation",
                format!("mutex registration `{name}` needs an explicit `level=<N>`"),
            ));
            continue;
        }
        defs.push(LockDef {
            path: path.to_string(),
            ln,
            ident: decl_ident(line),
            name,
            // Condvars never introduce a level of their own: they pair
            // with (and inherit from) the mutex their name references.
            level: if is_mutex { level } else { None },
        });
    }
}

/// `// lock-order: <name> [level=<N>]` → `(name, level)`.
fn parse_annotation(text: &str) -> Option<(String, Option<u32>)> {
    let mut words = text.split_whitespace();
    let name = words.next()?;
    if !name
        .bytes()
        .all(|b| is_ident_byte(b) || b == b'.' || b == b'-')
    {
        return None;
    }
    let mut level = None;
    for word in words {
        match word.strip_prefix("level=") {
            Some(n) => level = Some(n.parse().ok()?),
            // Trailing prose after the tokens is not an annotation.
            None => return None,
        }
    }
    Some((name.to_string(), level))
}

/// Does `line` contain `word` (whole-word) immediately followed by
/// `next`?
fn word_followed_by(line: &str, word: &str, next: u8) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let p = start + pos;
        let after = p + word.len();
        let before_ok = p == 0 || !is_ident_byte(bytes[p - 1]);
        if before_ok && after < bytes.len() && bytes[after] == next {
            return true;
        }
        start = after;
    }
    false
}

/// A `Condvar` in type position: the word present and not immediately
/// followed by `::` (which would be a constructor call, not a
/// declaration).
fn condvar_decl(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find("Condvar") {
        let p = start + pos;
        let after = p + "Condvar".len();
        let before_ok = p == 0 || !is_ident_byte(bytes[p - 1]);
        let constructor = line[after..].starts_with("::");
        if before_ok && !constructor && (after >= bytes.len() || !is_ident_byte(bytes[after])) {
            return true;
        }
        start = after;
    }
    false
}

/// Identifier a declaration line introduces: `q: Mutex<..>`,
/// `pub(crate) gate: Mutex<..>`, `let results: Vec<Mutex<..>> = ..`.
fn decl_ident(code_line: &str) -> Option<String> {
    let s = scan(code_line);
    let mut k = 0;
    loop {
        match s.text(k) {
            "let" | "mut" | "static" | "ref" => k += 1,
            "pub" if s.is(k + 1, "(") => k = s.pair(k + 1) + 1,
            "pub" => k += 1,
            _ => break,
        }
    }
    (s.is_ident(k) && s.is(k + 1, ":")).then(|| s.text(k).to_string())
}

/// Constructor literals must agree with the registry:
/// `OrderedMutex::new("name", N, ..)` and
/// `RunLock::new("name", N, ..)` are the runtime half of the same
/// declaration, and silent drift between the two would make the
/// runtime validator enforce a different hierarchy than the lint.
fn check_ctor_literals(
    path: &str,
    scan: &FileScan,
    by_name: &BTreeMap<&str, u32>,
    out: &mut Vec<Finding>,
) {
    for i in 0..scan.toks.len() {
        let Some(&ty) = ["OrderedMutex", "RunLock"]
            .iter()
            .find(|&&ty| scan.is(i, ty))
        else {
            continue;
        };
        let ln = scan.toks[i].line;
        if !(scan.is(i + 1, "::") && scan.is(i + 2, "new") && scan.is(i + 3, "("))
            || scan.is_test[ln]
            || allowed(scan, ln)
        {
            continue;
        }
        // The argument at `at` when it is a single literal token.
        let args = scan.items(i + 3);
        let lit = |at: usize| {
            let r = args.get(at).filter(|r| r.len() == 1)?;
            (scan.toks[r.start].kind == Kind::Lit).then(|| scan.text(r.start))
        };
        let name = lit(0).and_then(|t| t.strip_prefix('"')?.strip_suffix('"'));
        let level = lit(1).and_then(|t| {
            let digits = t.find(|c: char| !c.is_ascii_digit()).unwrap_or(t.len());
            t[..digits].parse::<u32>().ok()
        });
        let (Some(name), Some(level)) = (name, level) else {
            continue; // non-literal arguments; the annotation still governs
        };
        let ctor = format!("{ty}::new(");
        match by_name.get(name) {
            None => out.push(finding(
                path,
                ln,
                "concurrency/unknown-lock",
                format!("`{ctor}\"{name}\", ..)` names a lock the registry does not contain"),
            )),
            Some(&reg) if reg != level => out.push(finding(
                path,
                ln,
                "concurrency/conflicting-level",
                format!(
                    "`{ctor}\"{name}\", {level}, ..)` disagrees with the registered level {reg} \
                     for `{name}`"
                ),
            )),
            Some(_) => {}
        }
    }
}

/// One tracked guard in the lock-order walk.
struct Held {
    /// Last line of the brace scope the guard lives in.
    until: usize,
    /// Binding name, `None` for a statement temporary.
    var: Option<String>,
    name: String,
    level: u32,
}

/// One lock acquisition in the token tree.
struct Acq {
    /// 0-based line of the acquiring call.
    ln: usize,
    /// Lock expression: the argument of `lock_ignore_poison(..)` or the
    /// receiver of `.acquire()`.
    expr: String,
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
/// and reports level inversions, unresolvable locks, and guards held
/// across park points.
fn lock_order_walk(
    path: &str,
    scan: &FileScan,
    by_ident: &BTreeMap<&str, (&str, u32)>,
    by_name: &BTreeMap<&str, u32>,
    out: &mut Vec<Finding>,
) {
    let acqs = acquisitions_in(scan);
    let drops = drop_targets(scan);
    let (mut a, mut d) = (0, 0);
    let mut held: Vec<Held> = Vec::new();
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
            let resolved = lock_expr_ident(&acq.expr)
                .and_then(|ident| by_ident.get(ident.as_str()).copied())
                .or_else(|| {
                    // Same-line `// lock-order: <name>` resolves sites
                    // whose receiver is a local alias of a registered
                    // lock (e.g. a moved-out slot).
                    let text = scan.raw[ln].split(LOCK_ORDER_MARKER).nth(1)?;
                    let name = text.split_whitespace().next()?;
                    let (name, &level) = by_name.get_key_value(name)?;
                    Some((*name, level))
                });
            let Some((name, level)) = resolved else {
                if !quiet {
                    out.push(finding(
                        path,
                        ln,
                        "concurrency/unknown-lock",
                        format!(
                            "cannot resolve lock acquisition `{}` against the registry; \
                             register the declaration or add a same-line `// lock-order: <name>`",
                            acq.expr
                        ),
                    ));
                }
                continue;
            };
            if !quiet {
                for h in held.iter().filter(|h| h.level >= level) {
                    out.push(finding(
                        path,
                        ln,
                        "concurrency/lock-order",
                        format!(
                            "acquiring `{name}` (level {level}) while holding `{}` \
                             (level {}); declared levels must strictly increase",
                            h.name, h.level
                        ),
                    ));
                }
            }
            held.push(Held {
                until: acq.until,
                var: acq.var.clone(),
                name: name.to_string(),
                level,
            });
        }
        // Temporaries die with their line, bindings with their scope.
        held.retain(|h| h.var.is_some() && h.until > ln);
    }
}

/// Park points: a line that can block the thread while the walk still
/// sees guards held. The consumed-guard condvar wait
/// (`g = g.wait(&cv)`) is the one sanctioned shape — the innermost
/// guard is handed to the condvar, and nothing else may be held.
/// `suspend_current` (and `switch_to`, which suspends the running
/// fiber in favor of another) is stricter still: a continuation
/// suspension may resume on a *different OS thread* (cont.rs), so a
/// guard held across it would be released on the wrong thread — no
/// consumed-guard exemption exists for it.
fn check_blocking(path: &str, ln: usize, line: &str, held: &[Held], out: &mut Vec<Finding>) {
    let wait = line.contains(".wait(");
    let park = has_word(line, "park");
    let recv = has_word(line, "recv_batch");
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
    let names: Vec<&str> = held.iter().map(|h| h.name.as_str()).collect();
    out.push(finding(
        path,
        ln,
        "concurrency/guard-across-blocking",
        format!(
            "blocking call with lock guard(s) held ({}); drop the guard first or use the \
             consumed-guard condvar wait `g = g.wait(&cv)`",
            names.join(", ")
        ),
    ));
}

/// Every lock acquisition in the file, in source order.
fn acquisitions_in(scan: &FileScan) -> Vec<Acq> {
    let mut out = Vec::new();
    for i in 0..scan.toks.len() {
        let (first, expr, last) = if scan.is(i, "lock_ignore_poison") && scan.is(i + 1, "(") {
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

/// Lock-acquisition expressions in a code fragment.
#[cfg(test)]
fn acquisitions(code: &str) -> Vec<String> {
    acquisitions_in(&scan(code))
        .into_iter()
        .map(|a| a.expr)
        .collect()
}

/// Lock identifier of an acquisition expression: the last top-level
/// path segment, index and call groups stripped
/// (`&self.boxes[e.waiter].q` → `q`, `&results[rank]` → `results`).
fn lock_expr_ident(expr: &str) -> Option<String> {
    let s = scan(expr);
    let n = s.toks.len();
    let mut k = 0;
    while matches!(s.text(k), "&" | "&&" | "*" | "mut") {
        k += 1;
    }
    let mut seg = k;
    while k < n {
        match s.text(k) {
            "(" | "[" => k = s.pair(k),
            "." => seg = k + 1,
            _ => {}
        }
        k += 1;
    }
    let mut tail = seg + 1;
    while s.is(tail, "[") || s.is(tail, "(") {
        tail = s.pair(tail) + 1;
    }
    (s.is_ident(seg) && tail == n).then(|| s.text(seg).to_string())
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

/// Bare `.lock()` in library code bypasses both poison transparency
/// and the hierarchy bookkeeping; everything goes through `lockutil`.
pub fn raw_lock(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    if blessed(path) {
        return;
    }
    for (ln, line) in scan.code.iter().enumerate() {
        if scan.is_test[ln] || allowed(scan, ln) || !line.contains(".lock(") {
            continue;
        }
        out.push(finding(
            path,
            ln,
            "concurrency/raw-lock",
            "bare `.lock()` call: use `lockutil::lock_ignore_poison` or `OrderedMutex::acquire` \
             so poison handling and the lock hierarchy stay enforced"
                .to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn lock_findings(files: &[(&str, &str)]) -> Vec<(String, usize)> {
        let scans: Vec<(String, FileScan)> = files
            .iter()
            .map(|&(p, s)| (p.to_string(), scan(s)))
            .collect();
        check_locks(&scans)
            .into_iter()
            .map(|f| (f.lint.to_string(), f.line))
            .collect()
    }

    #[test]
    fn annotation_parsing() {
        assert_eq!(
            parse_annotation("engine.mailbox level=10"),
            Some(("engine.mailbox".to_string(), Some(10)))
        );
        assert_eq!(
            parse_annotation("events.sched"),
            Some(("events.sched".to_string(), None))
        );
        assert_eq!(parse_annotation("name level=ten"), None);
        assert_eq!(parse_annotation("two words here"), None);
    }

    #[test]
    fn decl_ident_shapes() {
        assert_eq!(decl_ident("    q: Mutex<VecDeque<u8>>,"), Some("q".into()));
        assert_eq!(
            decl_ident("    pub(crate) gate: Mutex<()>,"),
            Some("gate".into())
        );
        assert_eq!(
            decl_ident("let results: Vec<Mutex<Option<R>>> ="),
            Some("results".into())
        );
        assert_eq!(decl_ident("struct S { m: Mutex<u32> }"), None);
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
        assert_eq!(
            lock_expr_ident("&self.boxes[e.waiter].q").as_deref(),
            Some("q")
        );
        assert_eq!(
            lock_expr_ident("&results[rank]").as_deref(),
            Some("results")
        );
    }

    #[test]
    fn inverted_order_is_flagged_and_correct_order_is_clean() {
        let src = "\
struct Pair {
    first: Mutex<u32>,  // lock-order: fix.first level=10
    second: Mutex<u32>, // lock-order: fix.second level=20
}
impl Pair {
    fn good(&self) {
        let a = lock_ignore_poison(&self.first);
        let b = lock_ignore_poison(&self.second);
    }
    fn bad(&self) {
        let b = lock_ignore_poison(&self.second);
        let a = lock_ignore_poison(&self.first);
    }
}
";
        let hits = lock_findings(&[("crates/sim/src/events.rs", src)]);
        assert_eq!(hits, vec![("concurrency/lock-order".to_string(), 12)]);
    }

    #[test]
    fn unregistered_and_unknown_locks_are_flagged() {
        let src = "\
struct S {
    m: Mutex<u32>,
}
fn f(s: &S) {
    let g = lock_ignore_poison(&s.mystery);
}
";
        let hits = lock_findings(&[("crates/sim/src/engine/net.rs", src)]);
        assert!(hits.contains(&("concurrency/unregistered-lock".to_string(), 2)));
        assert!(hits.contains(&("concurrency/unknown-lock".to_string(), 5)));
    }

    #[test]
    fn guard_across_blocking_and_consumed_wait() {
        let src = "\
struct S {
    m: Mutex<u32>, // lock-order: fix.m level=10
    cv: Condvar,   // lock-order: fix.m
}
fn bad(s: &S) {
    let g = lock_ignore_poison(&s.m);
    std::thread::park();
}
fn good(s: &S) {
    let mut g = lock_ignore_poison(&s.m);
    g = g.wait(&s.cv);
    drop(g);
    std::thread::park();
}
";
        let hits = lock_findings(&[("crates/sim/src/engine/net.rs", src)]);
        assert_eq!(
            hits,
            vec![("concurrency/guard-across-blocking".to_string(), 7)]
        );
    }

    #[test]
    fn suspend_current_is_a_park_point_with_no_consumed_guard_exemption() {
        // A continuation suspension can resume on a different OS
        // thread, so *no* guard — not even the innermost consumed-guard
        // shape condvar waits get — may be held across it.
        let src = "\
struct S {
    m: Mutex<u32>, // lock-order: fix.m level=10
}
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
    let g = lock_ignore_poison(&s.m);
    unsafe { crate::cont::switch_to(g_key(&g), next) };
}
";
        let hits = lock_findings(&[("crates/sim/src/engine/net.rs", src)]);
        assert_eq!(
            hits,
            vec![
                ("concurrency/guard-across-blocking".to_string(), 6),
                ("concurrency/guard-across-blocking".to_string(), 15),
            ]
        );
    }

    #[test]
    fn ctor_literals_must_match_registry() {
        let src = "\
struct S {
    m: OrderedMutex<u32>, // lock-order: fix.m level=10
}
fn mk() -> OrderedMutex<u32> {
    OrderedMutex::new(\"fix.m\", 11, 0)
}
";
        let hits = lock_findings(&[("crates/sim/src/events.rs", src)]);
        assert_eq!(hits, vec![("concurrency/conflicting-level".to_string(), 5)]);
    }

    #[test]
    fn conflicting_levels_across_files_are_flagged() {
        let a = "struct A { m: Mutex<u8>, } // lock-order: shared.lock level=10\n";
        let b = "struct B { m: Mutex<u8>, } // lock-order: shared.lock level=20\n";
        let hits = lock_findings(&[
            ("crates/sim/src/engine/net.rs", a),
            ("crates/sim/src/events.rs", b),
        ]);
        assert!(hits
            .iter()
            .any(|(l, _)| l == "concurrency/conflicting-level"));
    }

    #[test]
    fn allow_marker_silences_the_walk() {
        let src = "\
struct Pair {
    first: Mutex<u32>,  // lock-order: fix.first level=10
    second: Mutex<u32>, // lock-order: fix.second level=20
}
fn bad(p: &Pair) {
    let b = lock_ignore_poison(&p.second);
    let a = lock_ignore_poison(&p.first); // xtask-allow: concurrency
}
";
        assert!(lock_findings(&[("crates/sim/src/events.rs", src)]).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    struct S { m: Mutex<u32> }
    fn t(s: &S) { let g = lock_ignore_poison(&s.m); std::thread::park(); }
}
";
        assert!(lock_findings(&[("crates/sim/src/events.rs", src)]).is_empty());
    }
}
