//! Communication-skeleton pass.
//!
//! Extracts every point-to-point wire call site across
//! `crates/{core,mpi,benchlib}` — method, payload type (turbofish or
//! typed binding), tag expression, peer expression, enclosing function
//! and enclosing role branch — and checks the assembled protocol:
//!
//! - `skeleton/orphan-tag` — a `TAG_*` constant defined but never sent
//!   or never received anywhere in the registry crates;
//! - `skeleton/type-mismatch` — send and recv sites on the same tag
//!   disagree on the wire payload type (checked per enclosing function
//!   when both directions appear there, and globally per tag); a raw
//!   byte-slice site on a tag whose other end is typed disagrees too,
//!   because the typed end fixes a size the raw end never checks;
//! - `skeleton/role-asymmetry` — inside a role-discriminated `if`
//!   chain (`if rank == ref { .. } else { .. }`), a constant tag is
//!   sent in one branch with no matching recv in any sibling branch;
//! - `skeleton/untyped-wire` — a raw byte-slice send/recv whose tag
//!   expression is neither a `TAG_*` constant, a `Tag`-typed function
//!   parameter, nor on the collective (`COLL_BIT` / `next_coll_tag` /
//!   `user_tag`) path.
//!
//! Two per-line escapes exist: `// xtask-allow: skeleton` suppresses
//! any skeleton finding for that line, and `// skeleton: paired-with
//! <fn>` marks a site whose counterpart lives in another function
//! (cross-function protocols), which exempts it from the
//! role-asymmetry check only.
//!
//! Functions, `if` chains and call arguments come from the scanner's
//! token tree; what the pass still approximates (no control flow, the
//! role-word heuristic, payload-kind inference) is documented in
//! DESIGN.md §13.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::scanner::{has_word, FileScan};
use crate::{tags, Finding, Level};

/// Crates whose `src/` trees participate in the skeleton.
pub const SKELETON_CRATES: &[&str] = &["core", "mpi", "benchlib"];

/// Is this workspace-relative path inside the skeleton scope?
pub fn in_skeleton_scope(rel: &str) -> bool {
    SKELETON_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// Per-line escape suppressing every skeleton finding on that line.
pub const ALLOW_MARKER: &str = "xtask-allow: skeleton";

/// Per-line alias for cross-function protocols: exempts the site from
/// the role-asymmetry check, naming the function holding its pair.
pub const PAIRED_MARKER: &str = "skeleton: paired-with";

/// Wire payload type of a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PayloadKind {
    /// Time-typed API (`send_time` / `recv_time`, `GlobalTime`).
    Time,
    /// `f64` scalar.
    F64,
    /// `u32` scalar.
    U32,
    /// `u64` scalar.
    U64,
    /// `[f64; 2]` pair.
    F64Pair,
    /// Raw byte slice (length unknown statically).
    Bytes,
    /// Typed call whose concrete type could not be inferred.
    Unknown,
}

impl PayloadKind {
    /// Short label used in messages.
    pub fn label(self) -> &'static str {
        match self {
            PayloadKind::Time => "time",
            PayloadKind::F64 => "f64",
            PayloadKind::U32 => "u32",
            PayloadKind::U64 => "u64",
            PayloadKind::F64Pair => "[f64;2]",
            PayloadKind::Bytes => "bytes",
            PayloadKind::Unknown => "unknown",
        }
    }

    /// Wildcard kinds never constrain the other end of a tag.
    fn is_wildcard(self) -> bool {
        matches!(self, PayloadKind::Bytes | PayloadKind::Unknown)
    }
}

/// Direction of a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `send` / `ssend` family.
    Send,
    /// `recv` family.
    Recv,
}

/// One extracted wire call site.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based line of the method name.
    pub line: usize,
    /// Direction.
    pub dir: Dir,
    /// Method name as written (`send_t`, `recv_time`, ...).
    pub method: &'static str,
    /// Raw byte-slice call (`send`/`ssend`/`recv`/`sendrecv` halves).
    pub raw: bool,
    /// `TAG_*` constant name when the tag expression is one.
    pub tag_name: Option<String>,
    /// Tag expression verbatim.
    pub tag_expr: String,
    /// Inferred payload kind.
    pub kind: PayloadKind,
    /// Peer (src/dst) expression verbatim.
    pub peer: String,
    /// Index into [`FileSkeleton::funcs`] of the enclosing function.
    pub func: Option<usize>,
    /// Line carries `// xtask-allow: skeleton`.
    pub allowed: bool,
    /// Function named by `// skeleton: paired-with <fn>`, if present.
    pub paired: Option<String>,
}

/// One function definition encountered while walking a file.
#[derive(Debug, Clone)]
pub struct FuncInfo {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Names of parameters declared with type `Tag`.
    pub tag_params: Vec<String>,
    /// Body mentions `next_coll_tag` (collective path).
    pub uses_next_coll_tag: bool,
}

/// One `const TAG_*` declaration.
#[derive(Debug, Clone)]
pub struct TagDecl {
    /// Constant name.
    pub name: String,
    /// Evaluated value.
    pub value: u64,
    /// 1-based line of the declaration.
    pub line: usize,
    /// Declaration line carries the allow marker.
    pub allowed: bool,
}

/// Extracted skeleton of one source file.
#[derive(Debug, Clone)]
pub struct FileSkeleton {
    /// Workspace-relative path.
    pub path: String,
    /// Wire call sites in source order.
    pub sites: Vec<Site>,
    /// Function definitions in source order.
    pub funcs: Vec<FuncInfo>,
    /// `TAG_*` declarations in source order.
    pub tag_decls: Vec<TagDecl>,
    /// `skeleton/role-asymmetry` findings, produced during the walk.
    pub role_findings: Vec<Finding>,
}

/// Walks one scanned file's token tree into its [`FileSkeleton`].
/// Role-asymmetry is checked here (it needs branch structure); the
/// cross-file checks run in [`check`].
pub fn collect(path: &str, scan: &FileScan) -> FileSkeleton {
    let mut sk = FileSkeleton {
        path: path.to_string(),
        sites: Vec::new(),
        funcs: Vec::new(),
        tag_decls: Vec::new(),
        role_findings: Vec::new(),
    };
    let n = scan.toks.len();
    let live = |i: usize| !scan.is_test[scan.toks[i].line];

    // Function definitions with a body; `bodies` parallels `sk.funcs`.
    let mut bodies: Vec<Range<usize>> = Vec::new();
    for i in 0..n {
        if !live(i) || !scan.is(i, "fn") || !scan.is_ident(i + 1) {
            continue;
        }
        let body = scan.head_end(i + 2);
        if !scan.is(body, "{") {
            continue;
        }
        let mut params = i + 2;
        if scan.is(params, "<") {
            params = scan.angle_close(params) + 1;
        }
        sk.funcs.push(FuncInfo {
            name: scan.text(i + 1).to_string(),
            line: scan.toks[i].line + 1,
            tag_params: if scan.is(params, "(") {
                tag_params(scan, params)
            } else {
                Vec::new()
            },
            uses_next_coll_tag: false,
        });
        bodies.push(body..scan.pair(body));
    }
    // The innermost function whose body holds token `i`: nested bodies
    // come later in source order.
    let func_of = |i: usize| bodies.iter().rposition(|b| b.contains(&i));

    for ln in (0..scan.code.len()).filter(|&ln| !scan.is_test[ln]) {
        if let Some((name, value)) = tags::parse_tag_const(&scan.code[ln], "TAG_") {
            sk.tag_decls.push(TagDecl {
                name,
                value,
                line: ln + 1,
                allowed: scan.raw[ln].contains(ALLOW_MARKER),
            });
        }
    }

    // Wire call sites and collective-path usage.
    let mut site_toks = Vec::new();
    for i in (0..n).filter(|&i| live(i)) {
        if scan.is(i, "next_coll_tag") {
            if let Some(f) = func_of(i) {
                sk.funcs[f].uses_next_coll_tag = true;
            }
        }
        if !scan.is(i, ".") {
            continue;
        }
        for raw_site in extract_sites(scan, i) {
            let ln = scan.toks[i + 1].line;
            let paired = scan.raw[ln].find(PAIRED_MARKER).map(|p| {
                scan.raw[ln][p + PAIRED_MARKER.len()..]
                    .split_whitespace()
                    .next()
                    .unwrap_or("")
                    .to_string()
            });
            sk.sites.push(Site {
                line: ln + 1,
                dir: raw_site.dir,
                method: raw_site.method,
                raw: raw_site.raw,
                tag_name: tag_name_of(&raw_site.tag_expr),
                tag_expr: raw_site.tag_expr,
                kind: raw_site.kind,
                peer: raw_site.peer,
                func: func_of(i),
                allowed: scan.raw[ln].contains(ALLOW_MARKER),
                paired,
            });
            site_toks.push(i);
        }
    }

    // Role-discriminated `if` chains of two or more branches, as their
    // end token and (branch, site index) pairs: each site attaches to
    // the branch holding it in every chain around it (the claiming rule
    // decides which chain actually checks it).
    let mut chains: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
    for i in (0..n).filter(|&i| live(i)) {
        if !scan.is(i, "if") || (i > 0 && scan.is(i - 1, "else")) {
            continue;
        }
        let mut role = false;
        let mut branches: Vec<Range<usize>> = Vec::new();
        let mut k = i;
        loop {
            let open = scan.head_end(k + 1);
            if !scan.is(open, "{") {
                break; // a match guard, not a branch
            }
            role |= is_role_cond(&scan.span(k + 1, open));
            let close = scan.pair(open);
            branches.push(open..close);
            if !scan.is(close + 1, "else") {
                break;
            }
            k = close + 2;
            if !scan.is(k, "if") {
                if scan.is(k, "{") {
                    branches.push(k..scan.pair(k));
                }
                break;
            }
        }
        if !role || branches.len() < 2 {
            continue;
        }
        let sites = site_toks
            .iter()
            .enumerate()
            .filter_map(|(idx, &t)| Some((branches.iter().position(|b| b.contains(&t))?, idx)))
            .collect();
        chains.push((branches[branches.len() - 1].end, sites));
    }
    // Innermost first: a nested chain closes before its enclosing one.
    chains.sort_by_key(|&(end, _)| end);
    let mut claimed = vec![false; sk.sites.len()];
    for (_, chain) in &chains {
        finalize_chain(chain, path, &sk.sites, &mut claimed, &mut sk.role_findings);
    }
    sk
}

/// The claiming rule: a site is checked only by its innermost
/// multi-branch *role* chain. Chains are finalized innermost-first, so
/// the first one around a site validates its still-unclaimed
/// constant-tag sites and claims them; enclosing chains then skip them.
fn finalize_chain(
    chain: &[(usize, usize)],
    path: &str,
    sites: &[Site],
    claimed: &mut [bool],
    out: &mut Vec<Finding>,
) {
    for &(branch, idx) in chain {
        if claimed[idx] {
            continue;
        }
        let s = &sites[idx];
        let Some(tag) = s.tag_name.as_deref() else {
            continue;
        };
        if s.allowed || s.paired.is_some() {
            continue;
        }
        let mirrored = chain.iter().any(|&(b2, i2)| {
            b2 != branch && sites[i2].dir != s.dir && sites[i2].tag_name.as_deref() == Some(tag)
        });
        if !mirrored {
            let (this, other) = match s.dir {
                Dir::Send => ("sent", "received"),
                Dir::Recv => ("received", "sent"),
            };
            out.push(Finding {
                path: path.to_string(),
                line: s.line,
                lint: "skeleton/role-asymmetry",
                level: Level::Error,
                msg: format!(
                    "{tag} is {this} in this role branch but never {other} in a sibling \
                     branch of the same `if` chain; if the matching site lives in another \
                     function, annotate with `// {PAIRED_MARKER} <fn>` (or `// {ALLOW_MARKER}`)"
                ),
            });
        }
    }
    for &(_, idx) in chain {
        if sites[idx].tag_name.is_some() {
            claimed[idx] = true;
        }
    }
}

/// Words that mark a comparison operand as a rank/role identity.
const ROLE_WORDS: &[&str] = &[
    "rank", "r", "me", "my_pos", "vr", "root", "p_ref", "client", "parent", "leader", "peer",
];

/// Does this `if` condition look like it discriminates on a rank role?
/// Requires both a comparison shape and a role-named operand, so
/// `if p > 1` (a size guard) and `if ctx.obs_on()` stay out.
fn is_role_cond(cond: &str) -> bool {
    let cmp = cond.contains("==")
        || cond.contains("!=")
        || cond.contains("<=")
        || cond.contains(">=")
        || {
            let bare = cond
                .replace("<<", "")
                .replace(">>", "")
                .replace("->", "")
                .replace("=>", "");
            bare.contains('<') || bare.contains('>')
        }
        || cond.contains(" % ")
        || has_word(cond, "is_multiple_of")
        || cond.contains(".contains(");
    cmp && ROLE_WORDS.iter().any(|w| has_word(cond, w))
}

/// Names of the `Tag`-typed parameters (`[mut] name: Tag`) in the
/// parameter list opened at `open`.
fn tag_params(scan: &FileScan, open: usize) -> Vec<String> {
    scan.items(open)
        .into_iter()
        .filter_map(|r| {
            let name = r.start + usize::from(scan.is(r.start, "mut"));
            (r.end == name + 3
                && scan.is_ident(name)
                && scan.is(name + 1, ":")
                && scan.is(name + 2, "Tag"))
            .then(|| scan.text(name).to_string())
        })
        .collect()
}

/// `Some(TAG_X)` when the whole tag expression is a path ending in a
/// `TAG_`-prefixed segment.
fn tag_name_of(expr: &str) -> Option<String> {
    let e = expr.trim();
    if e.is_empty()
        || !e
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == ':')
    {
        return None;
    }
    let last = e.rsplit("::").next().expect("rsplit yields at least one");
    if last.starts_with("TAG_") {
        Some(last.to_string())
    } else {
        None
    }
}

struct RawSite {
    dir: Dir,
    method: &'static str,
    raw: bool,
    kind: PayloadKind,
    tag_expr: String,
    peer: String,
}

/// Wire methods. (`sendrecv` is special-cased into a send half and a
/// recv half.)
const METHODS: &[(&str, Dir, bool, bool)] = &[
    // (name, dir, raw, time) — dir unused for sendrecv.
    ("sendrecv", Dir::Send, true, false),
    ("ssend_time", Dir::Send, false, true),
    ("send_time", Dir::Send, false, true),
    ("recv_time", Dir::Recv, false, true),
    ("ssend_t", Dir::Send, false, false),
    ("send_t", Dir::Send, false, false),
    ("recv_t", Dir::Recv, false, false),
    ("ssend", Dir::Send, true, false),
    ("send", Dir::Send, true, false),
    ("recv", Dir::Recv, true, false),
];

/// Extracts the wire call sites of the method call whose `.` is token
/// `dot`: `recv.method[::<T>](args)`.
fn extract_sites(scan: &FileScan, dot: usize) -> Vec<RawSite> {
    let Some(&(name, dir, raw, time)) = METHODS.iter().find(|m| scan.is(dot + 1, m.0)) else {
        return Vec::new();
    };
    let receiver = if dot > 0 && scan.is_ident(dot - 1) {
        scan.text(dot - 1)
    } else {
        ""
    };
    let mut open = dot + 2;
    let mut turbo: Option<String> = None;
    if scan.is(open, "::") && scan.is(open + 1, "<") {
        let gt = scan.angle_close(open + 1);
        turbo = Some(scan.span(open + 2, gt));
        open = gt + 1;
    }
    if !scan.is(open, "(") {
        return Vec::new();
    }
    let args: Vec<String> = scan
        .items(open)
        .into_iter()
        .map(|r| scan.span(r.start, r.end).trim().to_string())
        .collect();
    // Form classification kills non-wire receivers (mpsc channels
    // etc.): either the receiver is `ctx` (engine form) or the first
    // argument is (comm form threads the ctx through).
    let comm_form = args.first().is_some_and(|a| a == "ctx");
    if !comm_form && receiver != "ctx" {
        return Vec::new();
    }
    if name == "sendrecv" {
        if !comm_form || args.len() != 6 {
            return Vec::new();
        }
        return [(Dir::Send, 1), (Dir::Recv, 4)]
            .into_iter()
            .map(|(dir, peer)| RawSite {
                dir,
                method: "sendrecv",
                raw: true,
                kind: PayloadKind::Bytes,
                tag_expr: args[peer + 1].clone(),
                peer: args[peer].clone(),
            })
            .collect();
    }
    let base = usize::from(comm_form);
    let want = match dir {
        Dir::Send => base + 3,
        Dir::Recv => base + 2,
    };
    if args.len() != want {
        return Vec::new();
    }
    let kind = if raw {
        PayloadKind::Bytes
    } else if time {
        PayloadKind::Time
    } else if let Some(t) = &turbo {
        parse_ty(t)
    } else if dir == Dir::Recv {
        binding_ty(scan, dot)
            .map(|t| parse_ty(&t))
            .unwrap_or(PayloadKind::Unknown)
    } else {
        payload_kind_guess(&args[base + 2])
    };
    vec![RawSite {
        dir,
        method: name,
        raw,
        kind,
        tag_expr: args[base + 1].clone(),
        peer: args[base].clone(),
    }]
}

/// The `<ty>` of a `let <pat>: <ty> = ..` statement holding token `at`.
fn binding_ty(scan: &FileScan, at: usize) -> Option<String> {
    let start = scan.stmt_start(at);
    if !scan.is(start, "let") {
        return None;
    }
    let colon = (start..at).find(|&k| scan.is(k, ":"))?;
    let eq = (start..at).find(|&k| scan.is(k, "="))?;
    (colon < eq).then(|| scan.span(colon + 1, eq).trim().to_string())
}

fn parse_ty(t: &str) -> PayloadKind {
    let t = t.trim();
    match t {
        "f64" => PayloadKind::F64,
        "u32" => PayloadKind::U32,
        "u64" => PayloadKind::U64,
        _ if t.starts_with("[f64") => PayloadKind::F64Pair,
        _ if t == "GlobalTime"
            || t == "LocalTime"
            || t.ends_with("::GlobalTime")
            || t.ends_with("::LocalTime") =>
        {
            PayloadKind::Time
        }
        _ => PayloadKind::Unknown,
    }
}

/// Best-effort payload kind of a `send_t` argument without turbofish:
/// literal suffixes, bare float literals, and `.seconds()` unwraps.
fn payload_kind_guess(arg: &str) -> PayloadKind {
    let a = arg.trim();
    if a.ends_with(".seconds()") {
        return PayloadKind::F64;
    }
    for (suffix, kind) in [
        ("f64", PayloadKind::F64),
        ("u32", PayloadKind::U32),
        ("u64", PayloadKind::U64),
    ] {
        if let Some(stem) = a.strip_suffix(suffix) {
            if stem
                .bytes()
                .last()
                .is_some_and(|b| b.is_ascii_digit() || b == b'_' || b == b'.')
            {
                return kind;
            }
        }
    }
    if !a.is_empty()
        && a.contains('.')
        && a.chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == '_' || c == '-')
    {
        return PayloadKind::F64;
    }
    PayloadKind::Unknown
}

/// Cross-file checks over collected skeletons: orphan tags, type
/// mismatches, untyped wire calls, plus the role findings produced
/// during collection.
pub fn check(files: &[FileSkeleton]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        out.extend(f.role_findings.iter().cloned());
    }
    untyped_wire(files, &mut out);
    type_mismatch(files, &mut out);
    orphan_tags(files, &mut out);
    out
}

fn untyped_wire(files: &[FileSkeleton], out: &mut Vec<Finding>) {
    for f in files {
        for s in &f.sites {
            if !s.raw || s.allowed || s.tag_name.is_some() {
                continue;
            }
            let e = s.tag_expr.trim();
            let fn_blessed = s.func.is_some_and(|i| {
                let fi = &f.funcs[i];
                fi.uses_next_coll_tag || fi.tag_params.iter().any(|p| p == e)
            });
            if fn_blessed
                || has_word(e, "user_tag")
                || has_word(e, "next_coll_tag")
                || has_word(e, "COLL_BIT")
                || e.contains("TAG_")
            {
                continue;
            }
            out.push(Finding {
                path: f.path.clone(),
                line: s.line,
                lint: "skeleton/untyped-wire",
                level: Level::Error,
                msg: format!(
                    "raw wire {} on tag expression `{e}` that is neither a `TAG_*` constant, \
                     a `Tag`-typed parameter, nor on the collective \
                     (`COLL_BIT`/`next_coll_tag`/`user_tag`) path; register the tag or \
                     annotate with `// {ALLOW_MARKER}`",
                    s.method
                ),
            });
        }
    }
}

/// `(file index, site index)` reference into a [`FileSkeleton`] slice.
type SiteRef = (usize, usize);

fn type_mismatch(files: &[FileSkeleton], out: &mut Vec<Finding>) {
    // Scope A: per (file, enclosing function, tag) — catches a mistyped
    // half of an otherwise-symmetric exchange even when other functions
    // legitimately move a different type on the same tag. Scope B: the
    // whole workspace per tag. Findings dedupe on (path, line).
    let mut scopes: BTreeMap<(usize, usize, &str), Vec<SiteRef>> = BTreeMap::new();
    let mut global: BTreeMap<&str, Vec<SiteRef>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for (si, s) in f.sites.iter().enumerate() {
            let Some(tag) = s.tag_name.as_deref() else {
                continue;
            };
            if s.allowed {
                continue;
            }
            global.entry(tag).or_default().push((fi, si));
            if let Some(func) = s.func {
                scopes.entry((fi, func, tag)).or_default().push((fi, si));
            }
        }
    }
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    for ((_, _, tag), members) in &scopes {
        check_type_scope(files, tag, members, &mut seen, out);
    }
    for (tag, members) in &global {
        check_type_scope(files, tag, members, &mut seen, out);
    }
}

fn check_type_scope(
    files: &[FileSkeleton],
    tag: &str,
    members: &[SiteRef],
    seen: &mut BTreeSet<(String, usize)>,
    out: &mut Vec<Finding>,
) {
    let site = |&(fi, si): &SiteRef| &files[fi].sites[si];
    let concrete = |d: Dir| -> BTreeSet<PayloadKind> {
        members
            .iter()
            .map(site)
            .filter(|s| s.dir == d && !s.kind.is_wildcard())
            .map(|s| s.kind)
            .collect()
    };
    let send_kinds = concrete(Dir::Send);
    let recv_kinds = concrete(Dir::Recv);
    for m in members {
        let s = site(m);
        // An uninferred site has no type to disagree with. A raw one
        // does: the typed other end fixes a size it never checks.
        if s.kind == PayloadKind::Unknown {
            continue;
        }
        let (opposite, opp_name) = match s.dir {
            Dir::Send => (&recv_kinds, "recv"),
            Dir::Recv => (&send_kinds, "send"),
        };
        // A direction with no concrete site leaves nothing to compare.
        if opposite.is_empty() || opposite.contains(&s.kind) {
            continue;
        }
        let path = files[m.0].path.clone();
        if !seen.insert((path.clone(), s.line)) {
            continue;
        }
        let opp_desc = opposite
            .iter()
            .map(|k| k.label())
            .collect::<Vec<_>>()
            .join("|");
        let opp_sites: Vec<String> = members
            .iter()
            .filter(|m2| {
                let s2 = site(m2);
                s2.dir != s.dir && !s2.kind.is_wildcard()
            })
            .take(3)
            .map(|&(fi2, si2)| format!("{}:{}", files[fi2].path, files[fi2].sites[si2].line))
            .collect();
        let verb = match s.dir {
            Dir::Send => "sends",
            Dir::Recv => "receives",
        };
        out.push(Finding {
            path,
            line: s.line,
            lint: "skeleton/type-mismatch",
            level: Level::Error,
            msg: format!(
                "{} {verb} {tag} as `{}` but the matching {opp_name} site(s) use `{opp_desc}` \
                 ({}): both ends of a tag must agree on the wire payload type",
                s.method,
                s.kind.label(),
                opp_sites.join(", ")
            ),
        });
    }
}

fn orphan_tags(files: &[FileSkeleton], out: &mut Vec<Finding>) {
    let mut sent: BTreeSet<&str> = BTreeSet::new();
    let mut recvd: BTreeSet<&str> = BTreeSet::new();
    for f in files {
        for s in &f.sites {
            if let Some(tag) = s.tag_name.as_deref() {
                match s.dir {
                    Dir::Send => sent.insert(tag),
                    Dir::Recv => recvd.insert(tag),
                };
            }
        }
    }
    for f in files {
        for d in &f.tag_decls {
            if d.allowed {
                continue;
            }
            let is_sent = sent.contains(d.name.as_str());
            let is_recvd = recvd.contains(d.name.as_str());
            let what = match (is_sent, is_recvd) {
                (true, true) => continue,
                (false, false) => "never sent or received",
                (true, false) => "never received",
                (false, true) => "never sent",
            };
            out.push(Finding {
                path: f.path.clone(),
                line: d.line,
                lint: "skeleton/orphan-tag",
                level: Level::Error,
                msg: format!(
                    "{} is defined but {what}: dead protocol vocabulary — delete it or \
                     annotate the definition with `// {ALLOW_MARKER}`",
                    d.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn collect_src(src: &str) -> FileSkeleton {
        collect("crates/core/src/fx.rs", &scan(src))
    }

    #[test]
    fn sites_and_kinds_are_extracted() {
        let src = "\
const TAG_A: Tag = 0x0410;
fn f(comm: &Comm, ctx: &mut RankCtx, g: GlobalTime) {
    comm.send_t(ctx, 1, TAG_A, 0.5f64);
    let _x: f64 = comm.recv_t(ctx, 1, TAG_A);
    let _y = comm.recv_t::<u32>(ctx, 1, TAG_A);
    comm.send_time(ctx, 1, TAG_A, g);
    ctx.send(3, TAG_A, &[0u8; 4]);
    tx.send(5);
}
";
        let sk = collect_src(src);
        let kinds: Vec<(Dir, PayloadKind)> = sk.sites.iter().map(|s| (s.dir, s.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (Dir::Send, PayloadKind::F64),
                (Dir::Recv, PayloadKind::F64),
                (Dir::Recv, PayloadKind::U32),
                (Dir::Send, PayloadKind::Time),
                (Dir::Send, PayloadKind::Bytes),
            ]
        );
        assert!(sk
            .sites
            .iter()
            .all(|s| s.tag_name.as_deref() == Some("TAG_A")));
        assert_eq!(sk.tag_decls.len(), 1);
        assert_eq!(sk.funcs.len(), 1);
        assert_eq!(sk.sites[4].peer, "3");
    }

    #[test]
    fn sendrecv_produces_both_halves() {
        let src = "\
fn f(comm: &Comm, ctx: &mut RankCtx, tag: Tag) {
    comm.sendrecv(ctx, right, tag, &buf, left, tag);
}
";
        let sk = collect_src(src);
        assert_eq!(sk.sites.len(), 2);
        assert_eq!(sk.sites[0].dir, Dir::Send);
        assert_eq!(sk.sites[1].dir, Dir::Recv);
        assert_eq!(sk.sites[1].peer, "left");
        assert_eq!(sk.funcs[0].tag_params, vec!["tag".to_string()]);
        // Tag-typed parameter blesses the raw sites.
        assert!(check(&[sk]).is_empty());
    }

    #[test]
    fn role_asymmetry_fires_and_escapes_work() {
        let bad = "\
const TAG_B: Tag = 0x0411;
fn f(comm: &Comm, ctx: &mut RankCtx, me: usize) {
    if me == 0 {
        comm.send_t(ctx, 1, TAG_B, 1.0f64);
    } else {
        comm.send_t(ctx, 0, TAG_B, 2.0f64);
    }
}
fn drain(comm: &Comm, ctx: &mut RankCtx) {
    let _a: f64 = comm.recv_t(ctx, 0, TAG_B);
    let _b: f64 = comm.recv_t(ctx, 1, TAG_B);
}
";
        let sk = collect_src(bad);
        assert_eq!(
            sk.role_findings
                .iter()
                .filter(|f| f.lint == "skeleton/role-asymmetry")
                .count(),
            2
        );
        let paired = bad.replace(
            "comm.send_t(ctx, 1, TAG_B, 1.0f64);",
            "comm.send_t(ctx, 1, TAG_B, 1.0f64); // skeleton: paired-with drain",
        );
        let sk = collect_src(&paired);
        assert_eq!(sk.role_findings.len(), 1); // only the un-annotated branch
        let good = "\
const TAG_B: Tag = 0x0411;
fn f(comm: &Comm, ctx: &mut RankCtx, me: usize) {
    if me == 0 {
        comm.send_t(ctx, 1, TAG_B, 1.0f64);
    } else {
        let _a: f64 = comm.recv_t(ctx, 0, TAG_B);
    }
}
";
        assert!(collect_src(good).role_findings.is_empty());
    }

    #[test]
    fn claiming_rule_scopes_nested_chains() {
        // Mirrors hca2: the outer role chain pairs a send with a recv
        // that sits inside a nested single-branch `if`, while an inner
        // role chain owns its own send/recv pair. Neither may leak a
        // false asymmetry into the other.
        let src = "\
const TAG_C: Tag = 0x0412;
fn f(ctx: &mut RankCtx, r: usize) {
    if r >= max_power {
        ctx.send(1, TAG_C, &buf);
    } else {
        if r + max_power < nprocs {
            let _ = ctx.recv(2, TAG_C);
        }
        for i in 0..n {
            if r % running_power == next_power {
                ctx.send(3, TAG_C, &buf);
            } else if r.is_multiple_of(running_power) {
                if client < max_power {
                    let _ = ctx.recv(4, TAG_C);
                }
            }
        }
    }
}
";
        assert!(collect_src(src).role_findings.is_empty());
    }

    #[test]
    fn per_function_type_scope_catches_masked_mismatch() {
        // Globally TAG_D carries both f64 and time, so only the
        // per-function scope can see that `f` itself is inconsistent.
        let src = "\
const TAG_D: Tag = 0x0413;
fn f(comm: &Comm, ctx: &mut RankCtx, me: usize, g: GlobalTime) {
    if me == 0 {
        let _x: f64 = comm.recv_t(ctx, 1, TAG_D);
        comm.send_time(ctx, 1, TAG_D, g);
    } else {
        comm.send_time(ctx, 0, TAG_D, g);
        let _t = comm.recv_time(ctx, 0, TAG_D);
    }
}
fn other(comm: &Comm, ctx: &mut RankCtx) {
    comm.send_t(ctx, 1, TAG_D, 0.5f64);
}
";
        let findings = check(&[collect_src(src)]);
        let mism: Vec<_> = findings
            .iter()
            .filter(|f| f.lint == "skeleton/type-mismatch")
            .collect();
        assert_eq!(mism.len(), 1, "{findings:?}");
        assert_eq!(mism[0].line, 4);
    }

    #[test]
    fn orphan_and_untyped_wire() {
        let src = "\
const TAG_E: Tag = 0x0414;
const TAG_F: Tag = 0x0415; // xtask-allow: skeleton
fn f(comm: &Comm, ctx: &mut RankCtx) {
    comm.send_t(ctx, 1, TAG_E, 1.0f64);
    comm.send(ctx, 1, 0x0777, &buf);
}
";
        let findings = check(&[collect_src(src)]);
        assert!(findings
            .iter()
            .any(|f| f.lint == "skeleton/orphan-tag" && f.line == 1));
        assert!(!findings
            .iter()
            .any(|f| f.lint == "skeleton/orphan-tag" && f.line == 2));
        assert!(findings
            .iter()
            .any(|f| f.lint == "skeleton/untyped-wire" && f.line == 5));
    }

    #[test]
    fn collective_and_user_tag_paths_are_blessed() {
        let src = "\
fn f(ctx: &mut RankCtx) {
    ctx.send(self.ranks[dst], self.user_tag(tag), payload);
    let tag = self.next_coll_tag();
    ctx.send(dst, tag, payload);
}
";
        let sk = collect_src(src);
        assert!(check(&[sk]).is_empty());
    }
}
