//! Level 3: the concurrency auditor — a cross-crate lock acquisition
//! graph with cycle, rank, and held-across-blocking-call checks.
//!
//! The serving stack is the concurrency-densest part of the repo: six
//! modules in `crates/service/src` hold mutex/condvar state, and the
//! sweep fan-out only adds cross-lock interactions. Level 2's
//! `lock-in-queue` rule polices one anchored critical section; this
//! module generalizes it:
//!
//! 1. **Lock-site discovery.** Every `.lock()` / `.try_lock()` (and
//!    `.read()` / `.write()` on receivers declared as `RwLock`) in the
//!    workspace becomes a node keyed `crate/receiver` — e.g. the
//!    admission queue's shard mutex is `service/queue`. Receiver-field
//!    naming is a repo convention the queue module already documents
//!    ("no helper indirection"), which is what makes name-keyed nodes
//!    sound here.
//! 2. **Guard-lifetime tracking.** Within each `fn` body, guards are
//!    tracked brace-scoped: a `let`-bound guard lives until its block
//!    closes, an explicit `drop(guard)`, or a consuming
//!    `Condvar::wait(guard)`; an unbound (temporary) guard lives to the
//!    end of its statement.
//! 3. **The acquisition graph.** An edge `A → B` means "a guard of A
//!    was live when B was acquired" — directly, or one level deep
//!    through a direct intra-crate call (`helper()` / `self.helper()` /
//!    `Type::helper(…)` where the callee's body acquires locks). One
//!    level is deliberate: the repo convention is that helpers either
//!    release before returning or *return* the guard (detected via a
//!    `…Guard` return type, e.g. the fit cache's `fn lock`); a full
//!    call graph would mostly add unresolvable dynamic-dispatch noise
//!    (see DESIGN.md §16).
//! 4. **Checks.**
//!    * `lock-cycle` — a cycle in the graph is a potential deadlock.
//!    * `lock-rank` — edges between locks with declared ranks (the
//!      service crate's `RankedMutex<T, { rank::NAME }>` wrappers) must
//!      go strictly low → high.
//!    * `lock-blocking` — no guard live across `thread::sleep`,
//!      `JoinHandle::join()`, channel `recv`/`recv_timeout`, listener
//!      `accept`, `TcpStream::connect`, stream/file `.read(`/`.write(`,
//!      or a `Condvar` wait consuming a *different* guard.
//!    * `unranked-lock` — every lock primitive in `crates/service/src`
//!      must be a ranked wrapper: raw `Mutex`/`RwLock`/`Condvar`
//!      identifiers are findings (the `ranked` module itself excepted —
//!      it is the trusted primitive layer, audited by its own runtime
//!      asserts and `tests/ranked.rs`).
//!
//! Findings route through the same `scripts/audit.allow` mechanism as
//! Level 2; the graph itself is dumped machine-readably by
//! `audit-source --json` (committed as `AUDIT_lockgraph.json`).
//!
//! Like every static analyzer this one is approximate — the lexer-level
//! facts (comments, strings, brace depth) are exact, while receiver
//! identity is name-based and temporaries are statement-scoped. The
//! approximations are chosen to be conservative for this codebase's
//! conventions and are pinned by the fixture tests at the bottom.

use crate::lex::{self, Kind, Tok};
use crate::source::Finding;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// A lock node in the acquisition graph.
#[derive(Debug, Clone, Default)]
pub struct LockNode {
    /// Declared rank, when the lock is a `RankedMutex` with a
    /// `rank::NAME` const-generic argument.
    pub rank: Option<u16>,
    /// The rank constant's name, for human-readable dumps.
    pub rank_name: Option<String>,
    /// Acquisition sites: (path, line), sorted.
    pub sites: Vec<(String, usize)>,
}

/// One acquisition-order edge: a guard of `from` was live when `to` was
/// acquired at `path:line` (through `via` when indirect).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub path: String,
    pub line: usize,
    /// The intra-crate callee for one-level call-through edges.
    pub via: Option<String>,
}

/// The cross-crate lock acquisition graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Node id (`crate/name`) → node.
    pub nodes: BTreeMap<String, LockNode>,
    /// Sorted, deduplicated edges.
    pub edges: Vec<LockEdge>,
}

/// The full Level 3 result.
#[derive(Debug, Default)]
pub struct LockAnalysis {
    pub graph: LockGraph,
    /// Raw findings (the caller routes them through the allowlist),
    /// sorted by (path, line, rule).
    pub findings: Vec<Finding>,
}

/// Receiver names treated as blocking IO endpoints for `.read(` /
/// `.write(`, never as `RwLock` handles.
const IO_RECEIVERS: [&str; 9] = [
    "stream", "listener", "socket", "sock", "tcp", "file", "stdin", "stdout", "stderr",
];

/// Method receivers that are locked-but-not-locks (`io::stdout().lock()`).
const STDIO_RECEIVERS: [&str; 3] = ["stdout", "stderr", "stdin"];

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "loop", "return", "fn", "move", "in", "as", "let", "else",
];

fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("unknown").to_string()
    } else {
        "root".to_string()
    }
}

/// The trusted ranked-wrapper module: its internals hold the raw
/// primitives by design and are excluded from discovery and the
/// unranked-lock ident scan.
fn is_ranked_module(path: &str) -> bool {
    path.ends_with("service/src/ranked.rs")
}

fn in_service(path: &str) -> bool {
    path.starts_with("crates/service/src") || path.starts_with("crates/sweep/src")
}

/// Truncate a token stream at the first `#[cfg(test)]` attribute (test
/// modules end a file's audited region, same convention as Level 2).
fn truncate_at_cfg_test(toks: Vec<Tok>) -> Vec<Tok> {
    let pat: [(Kind, &str); 7] = [
        (Kind::Punct, "#"),
        (Kind::Punct, "["),
        (Kind::Ident, "cfg"),
        (Kind::Punct, "("),
        (Kind::Ident, "test"),
        (Kind::Punct, ")"),
        (Kind::Punct, "]"),
    ];
    for i in 0..toks.len().saturating_sub(pat.len()) {
        if pat
            .iter()
            .enumerate()
            .all(|(k, p)| toks[i + k].is(p.0, p.1))
        {
            return toks[..i].to_vec();
        }
    }
    toks
}

/// One parsed file.
struct FileCtx {
    path: String,
    krate: String,
    toks: Vec<Tok>,
    lines: Vec<String>,
}

/// One discovered function.
struct FnInfo {
    name: String,
    file: usize,
    /// Token range of the body, *inside* the outer braces.
    body: (usize, usize),
    /// The signature mentions a `…Guard` type: callers binding the
    /// result hold the callee's lock.
    returns_guard: bool,
    /// Locks acquired directly in the body (node ids, deduped).
    direct: Vec<String>,
}

/// Everything pass 0 learns about declarations.
#[derive(Default)]
struct Decls {
    /// (crate, name) → rank value, from `RankedMutex<…, { rank::N }>`
    /// field/binding declarations joined with the `ranked.rs` consts.
    ranks: BTreeMap<(String, String), (u16, String)>,
    /// Per-crate receiver names declared as `RwLock` (std or vendored):
    /// only these make `.read(`/`.write(` lock acquisitions.
    rwlock_names: BTreeMap<String, BTreeSet<String>>,
}

/// What one call-shaped token pattern means.
enum Event {
    /// Acquire the given lock node.
    Acquire { node: String, line: usize },
    /// `self.helper()`-style call that Level 3 resolves one level deep.
    Call { name: String, line: usize },
    /// A Condvar wait consuming the guard bound to `arg`.
    Wait { arg: Option<String>, line: usize },
    /// A blocking call (description for the finding message).
    Blocking { what: &'static str, line: usize },
}

/// A live guard during the pass-2 walk.
struct Guard {
    binding: Option<String>,
    locks: Vec<String>,
    depth: i64,
    temp: bool,
}

/// Analyze preloaded sources (pure; fixtures call this directly).
pub fn analyze_sources(sources: &[(String, String)]) -> LockAnalysis {
    let files: Vec<FileCtx> = sources
        .iter()
        .map(|(path, content)| FileCtx {
            path: path.clone(),
            krate: crate_of(path),
            toks: truncate_at_cfg_test(lex::lex(content)),
            lines: content.lines().map(|l| l.to_string()).collect(),
        })
        .collect();

    let decls = scan_decls(&files);
    let mut fns = scan_fns(&files);

    // Pass 1: per-function direct acquisitions (used for call-through).
    for f in fns.iter_mut() {
        let (file, body) = (f.file, f.body);
        let mut direct = BTreeSet::new();
        let ctx = &files[file];
        if is_ranked_module(&ctx.path) {
            continue;
        }
        let mut i = body.0;
        while i < body.1 {
            if let Some((ev, next)) = classify_at(ctx, &decls, i, body.1) {
                if let Event::Acquire { node, .. } = ev {
                    direct.insert(node);
                }
                i = next;
            } else {
                i += 1;
            }
        }
        f.direct = direct.into_iter().collect();
    }

    // Resolution maps: fn name → indices, same-file preferred.
    let mut by_file: BTreeMap<(usize, String), Vec<usize>> = BTreeMap::new();
    let mut by_crate: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_file.entry((f.file, f.name.clone())).or_default().push(i);
        by_crate
            .entry((files[f.file].krate.clone(), f.name.clone()))
            .or_default()
            .push(i);
    }
    let resolve = |file: usize, name: &str| -> Vec<usize> {
        if let Some(v) = by_file.get(&(file, name.to_string())) {
            v.clone()
        } else {
            by_crate
                .get(&(files[file].krate.clone(), name.to_string()))
                .cloned()
                .unwrap_or_default()
        }
    };

    // Pass 2: guard tracking, edges, blocking findings.
    let mut analysis = LockAnalysis::default();
    let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
    for f in &fns {
        let ctx = &files[f.file];
        if is_ranked_module(&ctx.path) {
            continue;
        }
        walk_fn(ctx, &decls, f, &fns, &resolve, &mut analysis, &mut edges);
    }
    analysis.graph.edges = edges.into_iter().collect();

    // Node table: every acquisition site plus every ranked declaration.
    for ((krate, name), (rank, rank_name)) in &decls.ranks {
        let node = analysis
            .graph
            .nodes
            .entry(format!("{krate}/{name}"))
            .or_default();
        node.rank = Some(*rank);
        node.rank_name = Some(rank_name.clone());
    }
    for n in analysis.graph.nodes.values_mut() {
        n.sites.sort();
        n.sites.dedup();
    }

    unranked_lock_scan(&files, &decls, &mut analysis);
    rank_check(&mut analysis);
    cycle_check(&mut analysis);

    analysis
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    analysis
}

/// Analyze the workspace rooted at `root` (same file set as Level 2).
pub fn analyze_workspace(root: &Path) -> std::io::Result<LockAnalysis> {
    Ok(analyze_sources(&crate::source::workspace_sources(root)?))
}

// ---------------------------------------------------------------------
// Pass 0: declarations.
// ---------------------------------------------------------------------

fn scan_decls(files: &[FileCtx]) -> Decls {
    let mut decls = Decls::default();
    // Rank constants live in the service crate's ranked module:
    // `pub const NAME: u16 = N;`.
    let mut consts: BTreeMap<String, u16> = BTreeMap::new();
    for ctx in files.iter().filter(|c| is_ranked_module(&c.path)) {
        let t = &ctx.toks;
        for i in 0..t.len().saturating_sub(6) {
            if t[i].ident("const")
                && t[i + 1].kind == Kind::Ident
                && t[i + 2].punct(":")
                && t[i + 3].ident("u16")
                && t[i + 4].punct("=")
                && t[i + 5].kind == Kind::Num
            {
                if let Ok(v) = t[i + 5].text.parse::<u16>() {
                    consts.insert(t[i + 1].text.clone(), v);
                }
            }
        }
    }

    for ctx in files {
        let t = &ctx.toks;
        for i in 0..t.len() {
            if t[i].kind != Kind::Ident {
                continue;
            }
            let ty = t[i].text.as_str();
            let is_ranked = ty == "RankedMutex" || ty == "RankedCondvar";
            let is_rwlock = ty == "RwLock";
            if !is_ranked && !is_rwlock {
                continue;
            }
            let Some(name) = decl_name_before(t, i) else {
                continue;
            };
            if is_rwlock {
                decls
                    .rwlock_names
                    .entry(ctx.krate.clone())
                    .or_default()
                    .insert(name);
            } else if let Some(rank_name) = generic_rank_ref(t, i) {
                if let Some(&v) = consts.get(&rank_name) {
                    decls
                        .ranks
                        .insert((ctx.krate.clone(), name), (v, rank_name));
                }
            }
        }
    }
    decls
}

/// Walk back from a type identifier to the `name :` it annotates,
/// skipping wrapper paths (`Arc<`, `std::sync::`, `&`, lifetimes).
fn decl_name_before(t: &[Tok], ty_idx: usize) -> Option<String> {
    let mut j = ty_idx;
    for _ in 0..8 {
        if j == 0 {
            return None;
        }
        j -= 1;
        let tok = &t[j];
        let skip = tok.kind == Kind::Lifetime
            || (tok.kind == Kind::Punct && matches!(tok.text.as_str(), "<" | "&" | "::"))
            || (tok.kind == Kind::Ident
                && matches!(
                    tok.text.as_str(),
                    "Arc" | "Box" | "std" | "sync" | "crate" | "ranked" | "super"
                ));
        if skip {
            continue;
        }
        if tok.punct(":") && j > 0 && t[j - 1].kind == Kind::Ident {
            return Some(t[j - 1].text.clone());
        }
        return None;
    }
    None
}

/// Inside the generic arguments after `RankedMutex` / `RankedCondvar`,
/// find the trailing `rank::NAME` const argument.
fn generic_rank_ref(t: &[Tok], ty_idx: usize) -> Option<String> {
    if ty_idx + 1 >= t.len() || !t[ty_idx + 1].punct("<") {
        return None;
    }
    let mut angle = 1i32;
    let mut i = ty_idx + 2;
    let mut found = None;
    while i < t.len() && angle > 0 && i < ty_idx + 256 {
        match (&t[i].kind, t[i].text.as_str()) {
            (Kind::Punct, "<") => angle += 1,
            (Kind::Punct, ">") => angle -= 1,
            (Kind::Punct, ";") => break,
            (Kind::Ident, "rank")
                if i + 2 < t.len() && t[i + 1].punct("::") && t[i + 2].kind == Kind::Ident =>
            {
                found = Some(t[i + 2].text.clone());
            }
            _ => {}
        }
        i += 1;
    }
    found
}

// ---------------------------------------------------------------------
// Function discovery.
// ---------------------------------------------------------------------

fn scan_fns(files: &[FileCtx]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    for (fi, ctx) in files.iter().enumerate() {
        let t = &ctx.toks;
        let mut i = 0;
        while i + 1 < t.len() {
            if !(t[i].ident("fn") && t[i + 1].kind == Kind::Ident) {
                i += 1;
                continue;
            }
            let name = t[i + 1].text.clone();
            // Find the body `{`: skip generic params / return types,
            // where `<>` depth guards against const-generic braces in
            // the signature (`-> RankedGuard<'_, T, { rank::X }>`).
            let mut angle = 0i32;
            let mut j = i + 2;
            let mut body_open = None;
            while j < t.len() {
                match (&t[j].kind, t[j].text.as_str()) {
                    (Kind::Punct, "<") => angle += 1,
                    (Kind::Punct, ">") => angle = (angle - 1).max(0),
                    (Kind::Punct, ";") if angle == 0 => break, // trait decl
                    (Kind::Punct, "{") if angle == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = body_open else {
                i = j.max(i + 2);
                continue;
            };
            // Match the closing brace.
            let mut depth = 1i64;
            let mut k = open + 1;
            while k < t.len() && depth > 0 {
                if t[k].punct("{") {
                    depth += 1;
                } else if t[k].punct("}") {
                    depth -= 1;
                }
                k += 1;
            }
            let returns_guard = t[i + 2..open]
                .iter()
                .any(|tok| tok.kind == Kind::Ident && tok.text.ends_with("Guard"));
            fns.push(FnInfo {
                name,
                file: fi,
                body: (open + 1, k.saturating_sub(1)),
                returns_guard,
                direct: Vec::new(),
            });
            // Continue scanning *inside* the body too: nested fns are
            // rare but legal. Outer guard state never leaks into them in
            // practice (no guard is ever live at a nested-fn definition
            // in this repo).
            i = open + 1;
        }
    }
    fns
}

// ---------------------------------------------------------------------
// Event classification.
// ---------------------------------------------------------------------

/// The last identifier of the receiver chain ending just before token
/// `dot` (`conn.stream` → `stream`, `shards[i].queue` → `queue`).
fn receiver_before(t: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = &t[dot - 1];
    if prev.kind == Kind::Ident {
        return Some(prev.text.clone());
    }
    if prev.punct(")") || prev.punct("]") {
        // Walk back over the bracketed group to the ident before it.
        let (close, open) = if prev.punct(")") {
            (")", "(")
        } else {
            ("]", "[")
        };
        let mut depth = 1i64;
        let mut j = dot - 1;
        while j > 0 && depth > 0 {
            j -= 1;
            if t[j].punct(close) {
                depth += 1;
            } else if t[j].punct(open) {
                depth -= 1;
            }
        }
        if j > 0 && t[j - 1].kind == Kind::Ident {
            return Some(t[j - 1].text.clone());
        }
    }
    None
}

/// True when the receiver is a lone `self` (helper call), not a field
/// chain ending in `self` (impossible) — i.e. `self.m(…)`.
fn bare_self(t: &[Tok], dot: usize) -> bool {
    dot >= 1 && t[dot - 1].ident("self") && (dot < 2 || !t[dot - 2].punct("."))
}

/// Classify the token pattern starting at `i` (within `end`). Returns
/// the event and the index to resume scanning at.
fn classify_at(ctx: &FileCtx, decls: &Decls, i: usize, end: usize) -> Option<(Event, usize)> {
    let t = &ctx.toks;
    // `thread::sleep(` — blocking.
    if t[i].ident("sleep")
        && i >= 2
        && t[i - 1].punct("::")
        && t[i - 2].ident("thread")
        && i + 1 < end
        && t[i + 1].punct("(")
    {
        return Some((
            Event::Blocking {
                what: "thread::sleep",
                line: t[i].line,
            },
            i + 2,
        ));
    }
    // `TcpStream::connect(` — blocking.
    if t[i].ident("connect")
        && i >= 2
        && t[i - 1].punct("::")
        && t[i - 2].ident("TcpStream")
        && i + 1 < end
        && t[i + 1].punct("(")
    {
        return Some((
            Event::Blocking {
                what: "TcpStream::connect",
                line: t[i].line,
            },
            i + 2,
        ));
    }
    // Method-call shapes: `. m (`.
    if !t[i].punct(".") || i + 2 >= end || t[i + 1].kind != Kind::Ident || !t[i + 2].punct("(") {
        return None;
    }
    let m = t[i + 1].text.as_str();
    let line = t[i + 1].line;
    let next = i + 3;
    match m {
        "lock" | "try_lock" => {
            if bare_self(t, i) {
                return Some((
                    Event::Call {
                        name: m.to_string(),
                        line,
                    },
                    next,
                ));
            }
            let recv = receiver_before(t, i).unwrap_or_else(|| "anon".to_string());
            if STDIO_RECEIVERS.contains(&recv.as_str()) {
                return None;
            }
            Some((
                Event::Acquire {
                    node: format!("{}/{}", ctx.krate, recv),
                    line,
                },
                next,
            ))
        }
        "read" | "write" => {
            let recv = receiver_before(t, i)?;
            let is_rwlock = decls
                .rwlock_names
                .get(&ctx.krate)
                .is_some_and(|s| s.contains(&recv));
            if is_rwlock {
                Some((
                    Event::Acquire {
                        node: format!("{}/{}", ctx.krate, recv),
                        line,
                    },
                    next,
                ))
            } else if IO_RECEIVERS.contains(&recv.as_str()) {
                Some((
                    Event::Blocking {
                        what: "stream/file IO",
                        line,
                    },
                    next,
                ))
            } else {
                None
            }
        }
        "wait" | "wait_timeout" | "wait_while" | "wait_timeout_while" => {
            let arg = (t[i + 3].kind == Kind::Ident).then(|| t[i + 3].text.clone());
            Some((Event::Wait { arg, line }, next))
        }
        "join" => {
            // `JoinHandle::join()` takes no arguments; `path.join(x)` and
            // `slice.join(sep)` always pass one.
            if i + 3 < end && t[i + 3].punct(")") {
                Some((
                    Event::Blocking {
                        what: "JoinHandle::join",
                        line,
                    },
                    next,
                ))
            } else {
                None
            }
        }
        "recv" | "recv_timeout" => Some((
            Event::Blocking {
                what: "channel recv",
                line,
            },
            next,
        )),
        "accept" => Some((
            Event::Blocking {
                what: "listener accept",
                line,
            },
            next,
        )),
        _ => {
            if bare_self(t, i) {
                Some((
                    Event::Call {
                        name: m.to_string(),
                        line,
                    },
                    next,
                ))
            } else {
                None
            }
        }
    }
}

/// Direct non-method call shapes for call-through resolution:
/// `helper(` or `Type::helper(` (receiver-typed method calls other than
/// `self.` are skipped — the receiver's type is unknown statically).
fn plain_call_at(t: &[Tok], i: usize, end: usize) -> Option<(String, usize)> {
    if t[i].kind != Kind::Ident || i + 1 >= end || !t[i + 1].punct("(") {
        return None;
    }
    let name = t[i].text.as_str();
    if CALL_KEYWORDS.contains(&name) {
        return None;
    }
    if i >= 1 {
        if t[i - 1].punct(".") {
            return None; // method call: handled by classify_at
        }
        if t[i - 1].punct("::") {
            // `Type::helper(` or `Self::helper(` — resolve; `std::…`
            // paths fail resolution harmlessly.
            return Some((name.to_string(), t[i].line));
        }
    }
    Some((name.to_string(), t[i].line))
}

// ---------------------------------------------------------------------
// Pass 2: guard tracking.
// ---------------------------------------------------------------------

/// The binding target of the statement containing token `at`:
/// `let [mut] x =`, `let (x, …) =`, `if let Ok(x) =`, or `x = …`.
fn stmt_binding(t: &[Tok], stmt_start: usize, at: usize) -> Option<String> {
    let mut j = stmt_start;
    // Skip `if` / `while` heads so `if let` / `while let` bind.
    while j < at && (t[j].ident("if") || t[j].ident("while")) {
        j += 1;
    }
    if j < at && t[j].ident("let") {
        j += 1;
        if j < at && t[j].ident("mut") {
            j += 1;
        }
        if j < at && t[j].kind == Kind::Ident {
            let name = t[j].text.clone();
            if j + 1 < at && (t[j + 1].punct(":") || t[j + 1].punct("=")) {
                if name == "_" {
                    return None;
                }
                return Some(name);
            }
            // Destructure through `Ok(` / `Some(` / `(`.
        }
        // First plain ident inside the pattern, skipping `mut`/`_`.
        let mut k = j;
        while k < at && !t[k].punct("=") {
            if t[k].kind == Kind::Ident
                && !t[k].ident("mut")
                && t[k].text != "_"
                && !t[k]
                    .text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase())
            {
                return Some(t[k].text.clone());
            }
            k += 1;
        }
        return None;
    }
    if j + 1 < at && t[j].kind == Kind::Ident && t[j + 1].punct("=") {
        return Some(t[j].text.clone());
    }
    None
}

/// Index just past the `)` matching the `(` at `open`.
fn match_paren(t: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 1i64;
    let mut j = open + 1;
    while j < end && depth > 0 {
        if t[j].punct("(") {
            depth += 1;
        } else if t[j].punct(")") {
            depth -= 1;
        }
        j += 1;
    }
    j
}

/// Chain adapters through which the lock guard itself flows to the
/// binding (`.lock().unwrap_or_else(|e| e.into_inner())`). Anything
/// else — `.clone()`, `.len()`, a field access — derives a *value*, and
/// the guard dies as a temporary at the end of the statement.
const GUARD_PRESERVING: [&str; 4] = ["unwrap", "expect", "unwrap_or_else", "map_err"];

/// Whether the method chain continuing after the call whose `(` is at
/// `open` still yields the guard (so a `let` binding holds the lock).
fn chain_yields_guard(t: &[Tok], open: usize, end: usize) -> bool {
    let mut j = match_paren(t, open, end);
    loop {
        if j + 2 < end && t[j].punct(".") && t[j + 1].kind == Kind::Ident && t[j + 2].punct("(") {
            if GUARD_PRESERVING.contains(&t[j + 1].text.as_str()) {
                j = match_paren(t, j + 2, end);
                continue;
            }
            return false;
        }
        if j + 1 < end && t[j].punct(".") {
            return false; // field access / tuple index — a copied value
        }
        return true;
    }
}

#[allow(clippy::too_many_arguments)]
fn walk_fn(
    ctx: &FileCtx,
    decls: &Decls,
    f: &FnInfo,
    fns: &[FnInfo],
    resolve: &dyn Fn(usize, &str) -> Vec<usize>,
    analysis: &mut LockAnalysis,
    edges: &mut BTreeSet<LockEdge>,
) {
    let t = &ctx.toks;
    let mut depth: i64 = 1;
    let mut guards: Vec<Guard> = Vec::new();
    let mut stmt_start = f.body.0;
    let text_at = |line: usize| -> String {
        ctx.lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let blocking_finding = |analysis: &mut LockAnalysis, lock: &str, what: &str, line: usize| {
        analysis.findings.push(Finding {
            rule: "lock-blocking",
            path: ctx.path.clone(),
            line,
            text: text_at(line),
            message: format!("guard of `{lock}` held across a blocking call ({what})"),
        });
    };

    let mut i = f.body.0;
    while i < f.body.1 {
        let tok = &t[i];
        if tok.punct("{") {
            depth += 1;
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if tok.punct("}") {
            depth -= 1;
            guards.retain(|g| !g.temp && g.depth <= depth);
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if tok.punct(";") {
            guards.retain(|g| !g.temp);
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        // Explicit `drop(guard)`.
        if tok.ident("drop")
            && i + 3 < f.body.1
            && t[i + 1].punct("(")
            && t[i + 2].kind == Kind::Ident
            && t[i + 3].punct(")")
        {
            let name = &t[i + 2].text;
            guards.retain(|g| g.binding.as_deref() != Some(name.as_str()));
            i += 4;
            continue;
        }

        if let Some((ev, next)) = classify_at(ctx, decls, i, f.body.1) {
            match ev {
                Event::Acquire { node, line } => {
                    for g in &guards {
                        for from in &g.locks {
                            edges.insert(LockEdge {
                                from: from.clone(),
                                to: node.clone(),
                                path: ctx.path.clone(),
                                line,
                                via: None,
                            });
                        }
                    }
                    analysis
                        .graph
                        .nodes
                        .entry(node.clone())
                        .or_default()
                        .sites
                        .push((ctx.path.clone(), line));
                    // A `let` only holds the guard when the chain after
                    // `.lock()` yields it — `….lock().….clone()` binds a
                    // copied value and the guard dies at the `;`.
                    let binding = stmt_binding(t, stmt_start, i)
                        .filter(|_| chain_yields_guard(t, i + 2, f.body.1));
                    let temp = binding.is_none();
                    guards.push(Guard {
                        binding,
                        locks: vec![node],
                        depth,
                        temp,
                    });
                }
                Event::Call { name, line } => {
                    let callees = resolve(f.file, &name);
                    let mut callee_locks: BTreeSet<String> = BTreeSet::new();
                    let mut callee_returns_guard = false;
                    for c in &callees {
                        callee_locks.extend(fns[*c].direct.iter().cloned());
                        callee_returns_guard |= fns[*c].returns_guard;
                    }
                    if !callee_locks.is_empty() {
                        for g in &guards {
                            for from in &g.locks {
                                for to in &callee_locks {
                                    edges.insert(LockEdge {
                                        from: from.clone(),
                                        to: to.clone(),
                                        path: ctx.path.clone(),
                                        line,
                                        via: Some(name.clone()),
                                    });
                                }
                            }
                        }
                        if callee_returns_guard {
                            let binding = stmt_binding(t, stmt_start, i)
                                .filter(|_| chain_yields_guard(t, i + 2, f.body.1));
                            let temp = binding.is_none();
                            guards.push(Guard {
                                binding,
                                locks: callee_locks.into_iter().collect(),
                                depth,
                                temp,
                            });
                        }
                    }
                }
                Event::Wait { arg, line } => {
                    // Guards other than the one consumed by the wait are
                    // held across the block — the "wait on a different
                    // mutex" deadlock shape.
                    let consumed = arg.as_deref();
                    let mut consumed_locks: Vec<String> = Vec::new();
                    for g in &guards {
                        if g.binding.as_deref() == consumed && consumed.is_some() {
                            consumed_locks = g.locks.clone();
                        } else {
                            for l in &g.locks {
                                blocking_finding(analysis, l, "Condvar wait on another lock", line);
                            }
                        }
                    }
                    if let Some(name) = consumed {
                        guards.retain(|g| g.binding.as_deref() != Some(name));
                        // `st = cv.wait(st)`-style rebinding keeps the
                        // guard live.
                        if let Some(rebound) = stmt_binding(t, stmt_start, i)
                            .filter(|_| chain_yields_guard(t, i + 2, f.body.1))
                        {
                            if !consumed_locks.is_empty() {
                                guards.push(Guard {
                                    binding: Some(rebound),
                                    locks: consumed_locks,
                                    depth,
                                    temp: false,
                                });
                            }
                        }
                    }
                }
                Event::Blocking { what, line } => {
                    for g in &guards {
                        for l in &g.locks {
                            blocking_finding(analysis, l, what, line);
                        }
                    }
                }
            }
            i = next;
            continue;
        }

        // Plain / qualified call-through (`helper(…)`, `Type::helper(…)`).
        if !guards.is_empty() {
            if let Some((name, line)) = plain_call_at(t, i, f.body.1) {
                let callees = resolve(f.file, &name);
                let mut callee_locks: BTreeSet<String> = BTreeSet::new();
                for c in &callees {
                    callee_locks.extend(fns[*c].direct.iter().cloned());
                }
                for g in &guards {
                    for from in &g.locks {
                        for to in &callee_locks {
                            edges.insert(LockEdge {
                                from: from.clone(),
                                to: to.clone(),
                                path: ctx.path.clone(),
                                line,
                                via: Some(name.clone()),
                            });
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------

/// Raw `Mutex` / `RwLock` / `Condvar` identifiers in the service crate
/// (outside the ranked module) are findings: every service lock must be
/// a ranked wrapper so both the runtime asserts and the rank lattice
/// cover it.
fn unranked_lock_scan(files: &[FileCtx], _decls: &Decls, analysis: &mut LockAnalysis) {
    for ctx in files {
        if !in_service(&ctx.path) || is_ranked_module(&ctx.path) {
            continue;
        }
        for tok in &ctx.toks {
            if tok.kind == Kind::Ident
                && matches!(tok.text.as_str(), "Mutex" | "RwLock" | "Condvar")
            {
                analysis.findings.push(Finding {
                    rule: "unranked-lock",
                    path: ctx.path.clone(),
                    line: tok.line,
                    text: ctx
                        .lines
                        .get(tok.line.saturating_sub(1))
                        .map(|l| l.trim().to_string())
                        .unwrap_or_default(),
                    message: format!(
                        "raw `{}` in the service crate: use the ranked wrappers \
                         (`ranked::RankedMutex` / `ranked::RankedCondvar`, DESIGN.md §16)",
                        tok.text
                    ),
                });
            }
        }
    }
}

/// Every edge between ranked locks must go strictly low → high.
fn rank_check(analysis: &mut LockAnalysis) {
    let mut findings = Vec::new();
    for e in &analysis.graph.edges {
        let (Some(from), Some(to)) = (
            analysis.graph.nodes.get(&e.from).and_then(|n| n.rank),
            analysis.graph.nodes.get(&e.to).and_then(|n| n.rank),
        ) else {
            continue;
        };
        if from >= to {
            findings.push(Finding {
                rule: "lock-rank",
                path: e.path.clone(),
                line: e.line,
                text: String::new(),
                message: format!(
                    "rank inversion: `{}` (rank {from}) held while acquiring `{}` (rank {to}){}",
                    e.from,
                    e.to,
                    e.via
                        .as_ref()
                        .map(|v| format!(" via `{v}()`"))
                        .unwrap_or_default()
                ),
            });
        }
    }
    analysis.findings.extend(findings);
}

/// DFS cycle detection over the acquisition graph: any cycle is a
/// potential deadlock (each back edge reported once, at its site).
fn cycle_check(analysis: &mut LockAnalysis) {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in &analysis.graph.edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<&str, Color> = BTreeMap::new();
    for node in analysis.graph.nodes.keys() {
        color.insert(node.as_str(), Color::White);
    }
    for e in &analysis.graph.edges {
        color.entry(e.from.as_str()).or_insert(Color::White);
        color.entry(e.to.as_str()).or_insert(Color::White);
    }
    let mut findings = Vec::new();
    let roots: Vec<&str> = color.keys().copied().collect();
    for root in roots {
        if color[root] != Color::White {
            continue;
        }
        // Iterative DFS with an explicit path stack.
        let mut stack: Vec<(&str, usize)> = vec![(root, 0)];
        let mut path: Vec<&str> = vec![root];
        color.insert(root, Color::Gray);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let out = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *next < out.len() {
                let e = out[*next];
                *next += 1;
                let to = e.to.as_str();
                match color.get(to).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        let start = path.iter().position(|&n| n == to).unwrap_or(0);
                        let mut cycle: Vec<&str> = path[start..].to_vec();
                        cycle.push(to);
                        findings.push(Finding {
                            rule: "lock-cycle",
                            path: e.path.clone(),
                            line: e.line,
                            text: String::new(),
                            message: format!(
                                "potential deadlock: lock acquisition cycle {}",
                                cycle.join(" -> ")
                            ),
                        });
                    }
                    Color::White => {
                        color.insert(to, Color::Gray);
                        stack.push((to, 0));
                        path.push(to);
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
                path.pop();
            }
        }
    }
    analysis.findings.extend(findings);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, code: &str) -> (String, String) {
        (path.to_string(), code.to_string())
    }

    fn rules(a: &LockAnalysis) -> Vec<&str> {
        a.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn two_lock_cycle_is_detected() {
        let a = analyze_sources(&[src(
            "crates/hslb/src/x.rs",
            "\
fn forward(s: &S) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
    use_both(a, b);
}
fn backward(s: &S) {
    let b = s.beta.lock();
    let a = s.alpha.lock();
    use_both(a, b);
}
",
        )]);
        assert_eq!(a.graph.edges.len(), 2, "{:?}", a.graph.edges);
        assert!(
            rules(&a).contains(&"lock-cycle"),
            "expected a cycle finding: {:?}",
            a.findings
        );
        assert!(a
            .findings
            .iter()
            .any(|f| f.rule == "lock-cycle" && f.message.contains("hslb/alpha")));
    }

    #[test]
    fn ordered_nesting_produces_edges_but_no_cycle() {
        let a = analyze_sources(&[src(
            "crates/hslb/src/x.rs",
            "\
fn forward(s: &S) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
    use_both(a, b);
}
",
        )]);
        assert_eq!(a.graph.edges.len(), 1);
        assert_eq!(a.graph.edges[0].from, "hslb/alpha");
        assert_eq!(a.graph.edges[0].to, "hslb/beta");
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn guard_across_sleep_is_flagged() {
        let a = analyze_sources(&[src(
            "crates/hslb/src/x.rs",
            "\
fn f(s: &S) {
    let g = s.state.lock();
    std::thread::sleep(d);
    drop(g);
}
",
        )]);
        assert_eq!(rules(&a), vec!["lock-blocking"], "{:?}", a.findings);
        assert!(a.findings[0].message.contains("thread::sleep"));
        assert_eq!(a.findings[0].line, 3);
    }

    #[test]
    fn scoped_guard_does_not_reach_the_sleep() {
        let a = analyze_sources(&[src(
            "crates/hslb/src/x.rs",
            "\
fn f(s: &S) {
    {
        let g = s.state.lock();
        g.touch();
    }
    std::thread::sleep(d);
}
",
        )]);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn dropped_guard_does_not_reach_the_join() {
        let a = analyze_sources(&[src(
            "crates/hslb/src/x.rs",
            "\
fn f(s: &S) {
    let g = s.workers.lock();
    drop(g);
    h.join();
}
",
        )]);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        // …while a held guard is flagged, and `path.join(\"x\")` is not a
        // thread join.
        let a = analyze_sources(&[src(
            "crates/hslb/src/x.rs",
            "\
fn f(s: &S) {
    let g = s.workers.lock();
    let p = dir.join(\"x\");
    h.join();
    drop(g);
    use_it(p);
}
",
        )]);
        assert_eq!(rules(&a), vec!["lock-blocking"], "{:?}", a.findings);
        assert_eq!(a.findings[0].line, 4);
    }

    #[test]
    fn condvar_wait_on_own_guard_is_clean_rebind_included() {
        let a = analyze_sources(&[src(
            "crates/service/src/q.rs",
            "\
fn pop(shard: &Shard) {
    let mut st = shard.queue.lock();
    loop {
        st = shard.available.wait(st);
    }
}
",
        )]);
        assert!(
            a.findings.iter().all(|f| f.rule != "lock-blocking"),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn condvar_wait_with_foreign_guard_is_flagged() {
        let a = analyze_sources(&[src(
            "crates/hslb/src/x.rs",
            "\
fn f(s: &S) {
    let other = s.cache.lock();
    let mut st = s.queue.lock();
    st = s.available.wait(st);
    drop(other);
}
",
        )]);
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "lock-blocking" && f.message.contains("hslb/cache")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn call_through_edge_one_level() {
        let a = analyze_sources(&[src(
            "crates/hslb/src/x.rs",
            "\
fn outer(s: &S) {
    let g = s.alpha.lock();
    helper(s);
    drop(g);
}
fn helper(s: &S) {
    let h = s.beta.lock();
    h.touch();
}
",
        )]);
        assert_eq!(a.graph.edges.len(), 1, "{:?}", a.graph.edges);
        let e = &a.graph.edges[0];
        assert_eq!(
            (e.from.as_str(), e.to.as_str()),
            ("hslb/alpha", "hslb/beta")
        );
        assert_eq!(e.via.as_deref(), Some("helper"));
    }

    #[test]
    fn guard_returning_helper_binds_the_callee_lock() {
        // The fit-cache idiom: `fn lock(&self) -> MutexGuard<…>`.
        let a = analyze_sources(&[src(
            "crates/hslb/src/x.rs",
            "\
fn lock(s: &S) -> MutexGuard<'_, State> {
    s.inner.lock()
}
fn f(s: &S) {
    let st = self.lock();
    let other = s.beta.lock();
    use_both(st, other);
}
",
        )]);
        assert!(
            a.graph
                .edges
                .iter()
                .any(|e| e.from == "hslb/inner" && e.to == "hslb/beta"),
            "{:?}",
            a.graph.edges
        );
    }

    #[test]
    fn rwlock_read_write_only_on_declared_receivers() {
        let a = analyze_sources(&[src(
            "crates/minlp/src/x.rs",
            "\
struct Shared {
    pool: RwLock<CutPool>,
}
fn f(shared: &Shared, out: &mut String) {
    let p = shared.pool.read();
    item.write(out);
    use_it(p);
}
",
        )]);
        assert!(
            a.graph.nodes.contains_key("minlp/pool"),
            "{:?}",
            a.graph.nodes
        );
        assert!(
            !a.graph.nodes.contains_key("minlp/item"),
            "`.write(` on a non-RwLock receiver must not be a lock: {:?}",
            a.graph.nodes
        );
    }

    #[test]
    fn stream_io_under_a_guard_is_flagged() {
        let a = analyze_sources(&[src(
            "crates/service/src/x.rs",
            "\
fn f(s: &S, conn: &mut Conn) {
    let g = s.resolved.lock();
    conn.stream.write(front);
    drop(g);
}
",
        )]);
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "lock-blocking" && f.message.contains("stream/file IO")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn ranked_decls_and_rank_inversion() {
        let ranked = src(
            "crates/service/src/ranked.rs",
            "\
pub mod rank {
    pub const QUEUE_SHARD: u16 = 100;
    pub const FRONT_DESK: u16 = 200;
}
",
        );
        let ok = src(
            "crates/service/src/good.rs",
            "\
struct A {
    queue: RankedMutex<State, { rank::QUEUE_SHARD }>,
    state: RankedMutex<Front, { rank::FRONT_DESK }>,
}
fn f(a: &A) {
    let q = a.queue.lock();
    let s = a.state.lock();
    use_both(q, s);
}
",
        );
        let a = analyze_sources(&[ranked.clone(), ok]);
        assert_eq!(
            a.graph.nodes.get("service/queue").and_then(|n| n.rank),
            Some(100)
        );
        assert!(
            a.findings.iter().all(|f| f.rule != "lock-rank"),
            "{:?}",
            a.findings
        );

        let bad = src(
            "crates/service/src/bad.rs",
            "\
struct A {
    queue: RankedMutex<State, { rank::QUEUE_SHARD }>,
    state: RankedMutex<Front, { rank::FRONT_DESK }>,
}
fn f(a: &A) {
    let s = a.state.lock();
    let q = a.queue.lock();
    use_both(q, s);
}
",
        );
        let a = analyze_sources(&[ranked, bad]);
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "lock-rank" && f.message.contains("rank inversion")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn raw_lock_idents_in_service_are_unranked_findings() {
        let a = analyze_sources(&[src(
            "crates/service/src/x.rs",
            "use std::sync::{Condvar, Mutex};\nstruct S { m: Mutex<u32> }\n",
        )]);
        let unranked: Vec<_> = a
            .findings
            .iter()
            .filter(|f| f.rule == "unranked-lock")
            .collect();
        assert_eq!(unranked.len(), 3, "{:?}", a.findings);
        // The ranked module itself and non-service crates are exempt.
        let a = analyze_sources(&[
            src("crates/service/src/ranked.rs", "use std::sync::Mutex;\n"),
            src("crates/telemetry/src/lib.rs", "use std::sync::Mutex;\n"),
        ]);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn test_modules_are_not_scanned() {
        let a = analyze_sources(&[src(
            "crates/service/src/x.rs",
            "\
fn ok() {}
#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    fn f(s: &S) {
        let g = s.a.lock();
        std::thread::sleep(d);
        drop(g);
    }
}
",
        )]);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert!(a.graph.nodes.is_empty());
    }

    #[test]
    fn clone_chain_binds_a_value_not_the_guard() {
        // The clone-read shape: `let x = m.lock()….clone();`
        // binds a copy — no guard survives into the next statement, so
        // sequential clone-reads of two locks create no edge.
        let a = analyze_sources(&[src(
            "crates/service/src/x.rs",
            "\
fn health(s: &S) {
    let recovery = s.recovery.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let history = s.history.lock().unwrap_or_else(|e| e.into_inner()).clone();
    use_both(recovery, history);
}
",
        )]);
        assert!(a.graph.edges.is_empty(), "{:?}", a.graph.edges);
        // …while the unwrap_or_else chain alone does yield the guard.
        let a = analyze_sources(&[src(
            "crates/service/src/x.rs",
            "\
fn f(s: &S) {
    let g = s.recovery.lock().unwrap_or_else(|e| e.into_inner());
    let h = s.history.lock().unwrap_or_else(|e| e.into_inner());
    use_both(g, h);
}
",
        )]);
        assert_eq!(a.graph.edges.len(), 1, "{:?}", a.graph.edges);
    }

    #[test]
    fn self_loop_reacquisition_is_a_cycle() {
        let a = analyze_sources(&[src(
            "crates/hslb/src/x.rs",
            "\
fn f(s: &S) {
    let g = s.state.lock();
    let h = s.state.lock();
    use_both(g, h);
}
",
        )]);
        assert!(
            rules(&a).contains(&"lock-cycle"),
            "re-acquiring a non-reentrant mutex is a self-deadlock: {:?}",
            a.findings
        );
    }
}
