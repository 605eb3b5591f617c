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
//!   `RunLock::new(mode, "name", N, ..)` are cross-checked too);
//! - **lock order** (`concurrency/lock-order`,
//!   `concurrency/unknown-lock`) — a brace-scoped walk over guard
//!   bindings (`lock_ignore_poison(..)` / `.acquire()`) flags nested
//!   acquisitions whose levels do not strictly increase, and
//!   acquisitions of locks the registry cannot resolve;
//! - **blocking** (`concurrency/guard-across-blocking`) — no guard may
//!   be held across a park point (`.wait(`, `park`, `recv_batch`); the
//!   one sanctioned shape is the consumed-guard condvar wait
//!   (`g = g.wait(&cv)`) with no other guard held. A `RunLock` guard
//!   is a guard like any other here, whichever arm the run's engine
//!   picked: the single-owner arm of an events run is only sound
//!   because nothing holds it across `cont::suspend_current`;
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
//! The walk is a linear, per-line approximation (no CFG): a guard is
//! considered held from its acquisition until its binding is
//! `drop(..)`ed or its brace scope closes, and `else`-branch drops are
//! treated as if they happened on the straight-line path. That is
//! precise enough for the idioms `crates/sim` actually uses; genuinely
//! special sites carry a per-line `// xtask-allow: concurrency`.

use std::collections::BTreeMap;

use crate::scanner::{annotation_above, brace_delta, has_word, is_ident_byte, FileScan};
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
    let mut t = code_line.trim_start();
    loop {
        let before = t;
        for kw in ["let", "mut", "static", "ref"] {
            if let Some(rest) = t.strip_prefix(kw) {
                if rest.starts_with(|c: char| c.is_whitespace()) {
                    t = rest.trim_start();
                }
            }
        }
        if let Some(rest) = t.strip_prefix("pub") {
            if let Some(paren) = rest.strip_prefix('(') {
                let close = paren.find(')')?;
                t = paren[close + 1..].trim_start();
            } else if rest.starts_with(char::is_whitespace) {
                t = rest.trim_start();
            }
        }
        if t == before {
            break;
        }
    }
    let end = t
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(t.len());
    if end == 0 {
        return None;
    }
    let (ident, rest) = t.split_at(end);
    rest.trim_start()
        .starts_with(':')
        .then(|| ident.to_string())
}

/// Constructor literals must agree with the registry:
/// `OrderedMutex::new("name", N, ..)` and
/// `RunLock::new(mode, "name", N, ..)` are the runtime half of the same
/// declaration, and silent drift between the two would make the
/// runtime validator enforce a different hierarchy than the lint.
fn check_ctor_literals(
    path: &str,
    scan: &FileScan,
    by_name: &BTreeMap<&str, u32>,
    out: &mut Vec<Finding>,
) {
    // Constructor prefix and how many arguments precede the name.
    const CTORS: [(&str, usize); 2] = [("OrderedMutex::new(", 0), ("RunLock::new(", 1)];
    for (ln, line) in scan.code.iter().enumerate() {
        if scan.is_test[ln] || allowed(scan, ln) {
            continue;
        }
        let Some(&(ctor, skip)) = CTORS.iter().find(|(ctor, _)| line.contains(ctor)) else {
            continue;
        };
        // The scanner blanks string contents, so read the arguments
        // from the raw text (joining a few lines: rustfmt may break
        // the argument list).
        let window = scan.raw[ln..scan.raw.len().min(ln + 4)].join(" ");
        let Some(args) = window.find(ctor).map(|p| &window[p + ctor.len()..]) else {
            continue;
        };
        let Some((name, level)) = args
            .splitn(skip + 1, ',')
            .nth(skip)
            .and_then(parse_ctor_args)
        else {
            continue; // non-literal arguments; the annotation still governs
        };
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

/// `"name", N` → `(name, N)`; `None` when either argument is not a
/// literal.
fn parse_ctor_args(args: &str) -> Option<(&str, u32)> {
    let rest = args.trim_start().strip_prefix('"')?;
    let quote = rest.find('"')?;
    let (name, rest) = rest.split_at(quote);
    let rest = rest[1..].trim_start().strip_prefix(',')?.trim_start();
    let digits_end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    let level = rest[..digits_end].parse().ok()?;
    Some((name, level))
}

/// One tracked guard in the lock-order walk.
struct Held {
    /// Brace depth its scope lives at; closing below this pops it.
    depth: i32,
    /// Binding name, `None` for a same-line temporary.
    var: Option<String>,
    name: String,
    level: u32,
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
    let mut depth = 0i32;
    let mut held: Vec<Held> = Vec::new();
    for (ln, line) in scan.code.iter().enumerate() {
        let active = !scan.is_test[ln];
        let quiet = !active || allowed(scan, ln);

        if !quiet && !held.is_empty() {
            check_blocking(path, ln, line, &held, out);
        }
        if active {
            for var in drop_targets(line) {
                if let Some(pos) = held
                    .iter()
                    .rposition(|h| h.var.as_deref() == Some(var.as_str()))
                {
                    held.remove(pos);
                }
            }
        }

        let new_depth = depth + brace_delta(line);
        if active {
            let binding = binding_var(line);
            for (idx, expr) in acquisitions(line).into_iter().enumerate() {
                let resolved = lock_expr_ident(&expr)
                    .and_then(|ident| by_ident.get(ident.as_str()).copied())
                    .or_else(|| {
                        // Same-line `// lock-order: <name>` resolves
                        // sites whose receiver is a local alias of a
                        // registered lock (e.g. a moved-out slot).
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
                                "cannot resolve lock acquisition `{expr}` against the registry; \
                                 register the declaration or add a same-line `// lock-order: <name>`"
                            ),
                        ));
                    }
                    continue;
                };
                if !quiet {
                    for h in &held {
                        if h.level >= level {
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
                }
                // Only the first acquisition on a line takes the `let`
                // binding; later ones are temporaries confined to the
                // line (popped below).
                held.push(Held {
                    depth: new_depth,
                    var: if idx == 0 { binding.clone() } else { None },
                    name: name.to_string(),
                    level,
                });
            }
        }
        held.retain(|h| h.var.is_some());
        depth = new_depth;
        held.retain(|h| h.depth <= depth);
    }
}

/// Park points: a line that can block the thread while the walk still
/// sees guards held. The consumed-guard condvar wait
/// (`g = g.wait(&cv)`) is the one sanctioned shape — the innermost
/// guard is handed to the condvar, and nothing else may be held.
/// `suspend_current` is stricter still: a continuation suspension may
/// resume on a *different OS thread* (cont.rs), so a guard held across
/// it would be released on the wrong thread — no consumed-guard
/// exemption exists for it.
fn check_blocking(path: &str, ln: usize, line: &str, held: &[Held], out: &mut Vec<Finding>) {
    let wait = line.contains(".wait(");
    let park = has_word(line, "park");
    let recv = has_word(line, "recv_batch");
    let susp = has_word(line, "suspend_current");
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

/// Lock-acquisition expressions on a line: the argument of every
/// `lock_ignore_poison(..)` call plus the receiver of every
/// `.acquire()` call.
fn acquisitions(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    const FREE: &str = "lock_ignore_poison(";
    let mut start = 0;
    while let Some(pos) = line[start..].find(FREE) {
        let p = start + pos;
        let arg_start = p + FREE.len();
        if p > 0 && is_ident_byte(bytes[p - 1]) {
            start = arg_start;
            continue;
        }
        let mut depth = 1i32;
        let mut j = arg_start;
        while j < bytes.len() && depth > 0 {
            match bytes[j] {
                b'(' => depth += 1,
                b')' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        out.push(line[arg_start..j.saturating_sub(1)].trim().to_string());
        start = j;
    }
    const METHOD: &str = ".acquire(";
    let mut start = 0;
    while let Some(pos) = line[start..].find(METHOD) {
        let dot = start + pos;
        let mut b = dot;
        while b > 0 {
            let c = bytes[b - 1];
            if is_ident_byte(c) || c == b'.' || c == b'[' || c == b']' {
                b -= 1;
            } else {
                break;
            }
        }
        if b < dot {
            out.push(line[b..dot].trim().to_string());
        }
        start = dot + METHOD.len();
    }
    out
}

/// Lock identifier of an acquisition expression: the last
/// bracket-stripped path segment (`&self.boxes[e.waiter].q` → `q`,
/// `&results[rank]` → `results`).
fn lock_expr_ident(expr: &str) -> Option<String> {
    let mut e = expr.trim().trim_start_matches(['&', '*']).trim_start();
    e = e.strip_prefix("mut ").unwrap_or(e).trim();
    let mut bracket = 0i32;
    let mut last_dot = None;
    for (i, c) in e.char_indices() {
        match c {
            '[' | '(' => bracket += 1,
            ']' | ')' => bracket -= 1,
            '.' if bracket == 0 => last_dot = Some(i),
            _ => {}
        }
    }
    let seg = match last_dot {
        Some(i) => &e[i + 1..],
        None => e,
    };
    let seg = seg.split(['[', '(']).next().unwrap_or(seg).trim();
    (!seg.is_empty() && seg.bytes().all(is_ident_byte)).then(|| seg.to_string())
}

/// The guard binding a line introduces, if its right-hand side *is*
/// the acquisition (`let g = lock_ignore_poison(..);`,
/// `st = shard.state.acquire();`, optionally with a `: Type`
/// ascription). An acquisition nested inside a larger expression
/// (`std::mem::take(&mut *lock_ignore_poison(..))`,
/// `lock_ignore_poison(..).take()`) produces a statement-temporary
/// guard, not a binding.
fn binding_var(code_line: &str) -> Option<String> {
    let t = code_line.trim();
    // First `=` that is an assignment, not part of `==`/`+=`/`<=`/...
    let bytes = t.as_bytes();
    let eq = t.find('=').filter(|&i| {
        (i + 1 >= bytes.len() || bytes[i + 1] != b'=')
            && (i == 0 || !b"=<>!+-*/%&|^".contains(&bytes[i - 1]))
    })?;
    let (lhs, rhs) = t.split_at(eq);
    let rhs = rhs[1..].trim();
    let direct = (rhs.starts_with("lock_ignore_poison(") && rhs.ends_with(";"))
        || rhs.ends_with(".acquire();");
    if !direct {
        return None;
    }
    let mut lhs = lhs.trim();
    lhs = lhs.strip_prefix("let ").unwrap_or(lhs).trim_start();
    lhs = lhs.strip_prefix("mut ").unwrap_or(lhs).trim_start();
    let end = lhs
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(lhs.len());
    if end == 0 {
        return None;
    }
    let (ident, rest) = lhs.split_at(end);
    let rest = rest.trim_start();
    // Bare ident or `ident: Type` only; patterns are not guard bindings.
    (rest.is_empty() || rest.starts_with(':')).then(|| ident.to_string())
}

/// Explicitly dropped identifiers: `drop(v)` occurrences.
fn drop_targets(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find("drop(") {
        let p = start + pos;
        let arg_start = p + "drop(".len();
        if p > 0 && is_ident_byte(bytes[p - 1]) {
            start = arg_start;
            continue;
        }
        let arg: String = line[arg_start..]
            .chars()
            .take_while(|&c| c.is_alphanumeric() || c == '_')
            .collect();
        if !arg.is_empty() && line[arg_start + arg.len()..].starts_with(')') {
            out.push(arg);
        }
        start = arg_start;
    }
    out
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
";
        let hits = lock_findings(&[("crates/sim/src/engine/net.rs", src)]);
        assert_eq!(
            hits,
            vec![("concurrency/guard-across-blocking".to_string(), 6)]
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
