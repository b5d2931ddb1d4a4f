//! Level 2: a token-level source scanner for project rules clippy cannot
//! express.
//!
//! The scanner walks the workspace's own `src/` trees (vendored compat
//! crates are skipped — they mimic third-party APIs) and enforces eight
//! rules, each born from a real incident class in this repository:
//!
//! * **`nondeterminism`** — no `SystemTime` / `thread::sleep` (nor the
//!   serving layer's `ranked::sleep`) in solver or fit code paths.
//!   Wall-clock reads make solves unreproducible; sleeps belong only to
//!   fault-injection modules (paths containing `fault`).
//! * **`float-eq`** — no float `==` / `!=` outside the approved
//!   tolerance helpers (`crates/numerics/src/float.rs`). Exact float
//!   comparison is how the NaN basin-seeding bug of PR 3 slipped in.
//! * **`lock-in-queue`** — no lock acquisition while an
//!   admission-queue shard guard (a binding of `queue.lock()`) is live. A worker popping under the shard lock
//!   while a submitter holds the front-desk lock and pushes is the
//!   deadlock shape this serving layer must never grow; the queue module
//!   therefore spells out `queue.lock()` at every site (no helper) so
//!   the scanner can anchor on it.
//! * **`telemetry-read`** — no telemetry *reads* (`.counter(…)`,
//!   `.snapshot(…)`, `.events(…)`, `.elapsed_ms(…)`) in solver/fit code
//!   paths. Instrumentation must be passive: results may be *written*
//!   from anywhere, but a solver decision based on a telemetry value
//!   would let observation change the answer.
//! * **`unwrap-in-unwind`** — no `.unwrap()` / `.expect(…)` inside a
//!   `catch_unwind` closure. The supervision layer treats a caught panic
//!   as an *injected or exceptional* fault; an unwrap inside the guarded
//!   region turns every recoverable `Err`/`None` into a panic the
//!   supervisor then dutifully retries, hiding the real error and
//!   burning the requeue budget on a deterministic failure.
//! * **`hash-order`** — no `HashMap`/`HashSet`/`.as_ptr(` in the LP
//!   crate (`crates/lp/src`). Warm-start tableaux are handed between
//!   B&B nodes; keying or iterating them through anything hash-seed- or address-order-
//!   dependent would make the pivot sequence (and therefore the solved
//!   vertex bits) vary run to run, breaking the warm/cold bit-identity
//!   bar (DESIGN.md §14). Deterministic containers only: `Vec` indexed
//!   by variable/row position, or `BTreeMap`/`BTreeSet`.
//! * **`unranked-lock`** — no raw `Mutex` / `RwLock` / `Condvar` in the
//!   serving layer (`crates/service/src`, `crates/sweep/src`): every lock
//!   there is a `ranked::RankedMutex` (or `RankedCondvar`), so the
//!   runtime one-guard rule covers it (DESIGN.md §16).
//! * **`raw-blocking`** — no raw blocking call in the serving layer:
//!   `thread::sleep`, `TcpStream::connect`, a thread `.join()`, channel
//!   `.recv`/`.recv_timeout`, `.accept`, `.read_line`, `.flush`, and
//!   `.read`/`.write` on a socket- or file-named receiver go through the
//!   `ranked` wrappers, which assert that no guard is held.
//!
//! The wrapper module itself (`crates/service/src/ranked.rs`) is the one
//! file of the serving layer those two rules skip: it holds the raw
//! primitives by design.
//!
//! The `nondeterminism` and `telemetry-read` rules also cover the
//! service crate (`crates/service/src`): responses must be bit-identical
//! to one-shot pipeline runs, so the only randomness allowed there is
//! the load generator's explicitly seeded LCG, and no scheduling or
//! response decision may read telemetry.
//!
//! Mechanics: every file is lexed by [`crate::lex`] (comments vanish,
//! string/char literals become single opaque tokens), rules match token
//! patterns grouped by source line, and brace depth is counted on real
//! `{`/`}` punct tokens only. The line-scanner era's failure modes —
//! rule substrings inside block comments or raw strings creating false
//! findings, and braces inside comments/strings unbalancing a
//! critical-section region so a real nested lock goes unreported — are
//! pinned as regression fixtures at the bottom of this file. Scanning
//! still stops at the first `#[cfg(test)]` (test modules sit at the end
//! of a file by repo convention). Documented exceptions live in an
//! allowlist file (`scripts/audit.allow`) whose entries must each carry
//! a justification; entries that stop matching anything are flagged by
//! `audit-source --check-allow` so the list cannot rot.

use crate::lex::{self, Kind, Tok};
use std::fmt;
use std::path::{Path, PathBuf};

/// The rule catalog (ids are stable; the allowlist references them).
pub const RULES: [(&str, &str); 8] = [
    (
        "nondeterminism",
        "no SystemTime/thread::sleep/ranked::sleep outside fault-injection modules",
    ),
    (
        "float-eq",
        "no float ==/!= outside the approved tolerance helpers",
    ),
    (
        "lock-in-queue",
        "no lock acquisition inside an admission-queue shard critical section",
    ),
    (
        "telemetry-read",
        "no telemetry reads feeding solver/fit/service control flow",
    ),
    (
        "unwrap-in-unwind",
        "no unwrap/expect inside a catch_unwind closure",
    ),
    (
        "hash-order",
        "no hash/address-order-dependent keying or iteration in the LP crate",
    ),
    (
        "unranked-lock",
        "every lock in the serving layer must be a ranked wrapper",
    ),
    (
        "raw-blocking",
        "every blocking call in the serving layer must go through a ranked wrapper",
    ),
];

/// Crate `src/` prefixes counted as solver/fit code paths for the
/// `telemetry-read` and `nondeterminism` rules. The telemetry crate
/// itself and the bench/report layer legitimately read snapshots.
const SOLVER_PATHS: [&str; 6] = [
    "crates/numerics/src",
    "crates/lp/src",
    "crates/model/src",
    "crates/nlsq/src",
    "crates/minlp/src",
    "crates/hslb/src",
];

/// The serving layer, held to the same two rules: its determinism
/// contract (every response bit-identical to a one-shot run) outlaws
/// wall-clock/sleep primitives and telemetry-driven decisions just as
/// strictly as the solver paths. Reviewed exceptions (the load
/// generator's client-side retry backoff) live in the allowlist. The
/// sweep planner/predictor crate rides the same contract: a portfolio's
/// non-pruned entries must be bit-identical to one-shot runs, so its
/// planning and pruning decisions may not consult clocks either.
const SERVICE_PATHS: [&str; 2] = ["crates/service/src", "crates/sweep/src"];

/// Receiver names whose `.read(` / `.write(` is socket or file IO.
const IO_RECEIVERS: [&str; 9] = [
    "stream", "listener", "socket", "sock", "tcp", "file", "stdin", "stdout", "stderr",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub text: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: `{}`",
            self.path, self.line, self.rule, self.message, self.text
        )
    }
}

/// A reviewed exception: suppresses findings of `rule` in files ending
/// with `path_suffix` on lines containing `substring`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub path_suffix: String,
    pub substring: String,
    pub justification: String,
}

/// The parsed allowlist.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the `rule | path-suffix | line-substring | justification`
    /// format. Blank lines and `#` comments are skipped; an entry without
    /// all four fields (justification included) is an error — exceptions
    /// must say why they exist.
    pub fn parse(content: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (i, raw) in content.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('|').map(str::trim).collect();
            if fields.len() != 4 || fields.iter().any(|f| f.is_empty()) {
                return Err(format!(
                    "allowlist line {}: expected `rule | path | substring | justification`, \
                     got `{line}`",
                    i + 1
                ));
            }
            if !RULES.iter().any(|&(id, _)| id == fields[0]) {
                return Err(format!(
                    "allowlist line {}: unknown rule `{}`",
                    i + 1,
                    fields[0]
                ));
            }
            entries.push(AllowEntry {
                rule: fields[0].to_string(),
                path_suffix: fields[1].to_string(),
                substring: fields[2].to_string(),
                justification: fields[3].to_string(),
            });
        }
        Ok(Allowlist { entries })
    }

    /// Index of the first entry suppressing `f`, if any. The index feeds
    /// the stale-entry check: an entry that never matches is rot.
    pub fn match_idx(&self, f: &Finding) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.rule == f.rule && f.path.ends_with(&e.path_suffix) && f.text.contains(&e.substring)
        })
    }

    /// True when some entry suppresses `f`.
    pub fn allows(&self, f: &Finding) -> bool {
        self.match_idx(f).is_some()
    }
}

/// Scan result: surviving findings plus accounting.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Findings not covered by the allowlist, sorted by (path, line,
    /// rule).
    pub findings: Vec<Finding>,
    pub allowlisted: usize,
    pub files_scanned: usize,
    /// Per-allowlist-entry suppression counts (same order as
    /// `Allowlist::entries`); `--check-allow` fails on zeros.
    pub allow_used: Vec<usize>,
}

impl ScanOutcome {
    /// Route one finding through the allowlist, updating the counters.
    fn absorb(&mut self, allow: &Allowlist, f: Finding) {
        match allow.match_idx(&f) {
            Some(i) => {
                self.allowlisted += 1;
                self.allow_used[i] += 1;
            }
            None => self.findings.push(f),
        }
    }

    /// Entries that suppressed nothing this scan: stale, prune them.
    pub fn stale_entries<'a>(&self, allow: &'a Allowlist) -> Vec<(usize, &'a AllowEntry)> {
        allow
            .entries
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.allow_used.get(i).copied().unwrap_or(0) == 0)
            .collect()
    }

    fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }
}

fn in_solver_path(path: &str) -> bool {
    SOLVER_PATHS.iter().any(|p| path.starts_with(p))
}

fn in_service_path(path: &str) -> bool {
    SERVICE_PATHS.iter().any(|p| path.starts_with(p))
}

/// Contiguous token-pattern match: each pattern is `(kind, text)`.
fn has_seq(toks: &[Tok], pat: &[(Kind, &str)]) -> bool {
    find_seq(toks, pat).is_some()
}

fn find_seq(toks: &[Tok], pat: &[(Kind, &str)]) -> Option<usize> {
    if pat.is_empty() || toks.len() < pat.len() {
        return None;
    }
    (0..=toks.len() - pat.len()).find(|&i| {
        pat.iter()
            .enumerate()
            .all(|(k, p)| toks[i + k].is(p.0, p.1))
    })
}

/// `.name(` for any of `names` — a method call, never an ident in a
/// comment or string (those no longer exist post-lex).
fn has_method_call(toks: &[Tok], names: &[&str]) -> bool {
    toks.windows(3).any(|w| {
        w[0].punct(".")
            && w[1].kind == Kind::Ident
            && names.contains(&w[1].text.as_str())
            && w[2].punct("(")
    })
}

/// The first raw blocking call on a line (see `raw-blocking` in the
/// module docs).
fn raw_blocking_call(toks: &[Tok]) -> Option<&'static str> {
    let next_is = |i: usize, p: &str| toks.get(i).is_some_and(|t| t.punct(p));
    for (i, w) in toks.windows(3).enumerate() {
        if w[1].punct("::") && next_is(i + 3, "(") {
            if w[0].ident("thread") && w[2].ident("sleep") {
                return Some("thread::sleep");
            }
            if w[0].ident("TcpStream") && w[2].ident("connect") {
                return Some("TcpStream::connect");
            }
        }
        if !(w[0].punct(".") && w[1].kind == Kind::Ident && w[2].punct("(")) {
            continue;
        }
        let io_receiver = i > 0
            && toks[i - 1].kind == Kind::Ident
            && IO_RECEIVERS.contains(&toks[i - 1].text.as_str());
        match w[1].text.as_str() {
            // A thread join takes no argument; `path.join(x)` and
            // `slice.join(sep)` always pass one.
            "join" if next_is(i + 3, ")") => return Some("join"),
            "recv" => return Some("recv"),
            "recv_timeout" => return Some("recv_timeout"),
            "accept" => return Some("accept"),
            "read_line" => return Some("read_line"),
            "flush" => return Some("flush"),
            "read" if io_receiver => return Some("read"),
            "write" if io_receiver => return Some("write"),
            _ => {}
        }
    }
    None
}

/// True when any token in the window is float-ish: a float literal, or
/// an identifier mentioning `f64`/`f32`/`NAN`/`INFINITY` (covers casts,
/// paths like `f64::EPSILON`, and `NEG_INFINITY`).
fn window_has_float(toks: &[Tok]) -> bool {
    toks.iter().any(|t| {
        t.is_float()
            || (t.kind == Kind::Ident
                && ["f64", "f32", "NAN", "INFINITY"]
                    .iter()
                    .any(|p| t.text.contains(p)))
    })
}

/// Delimiters bounding a comparison's operand window.
fn is_operand_delim(t: &Tok) -> bool {
    t.kind == Kind::Punct
        && matches!(
            t.text.as_str(),
            "," | ";" | "(" | ")" | "{" | "}" | "[" | "]" | "&" | "|" | "&&" | "||"
        )
}

/// The `#[cfg(test)]` attribute, which by repo convention starts the
/// test module that ends a file's audited region.
fn has_cfg_test(toks: &[Tok]) -> bool {
    has_seq(
        toks,
        &[
            (Kind::Punct, "#"),
            (Kind::Punct, "["),
            (Kind::Ident, "cfg"),
            (Kind::Punct, "("),
            (Kind::Ident, "test"),
            (Kind::Punct, ")"),
            (Kind::Punct, "]"),
        ],
    )
}

/// Group a token stream by 1-based source line (index 0 = line 1).
/// Multi-line tokens (block strings) count on their starting line.
fn tokens_by_line(toks: &[Tok], nlines: usize) -> Vec<Vec<Tok>> {
    let mut lines = vec![Vec::new(); nlines];
    for t in toks {
        if t.line >= 1 && t.line <= nlines {
            lines[t.line - 1].push(t.clone());
        }
    }
    lines
}

/// Pure per-file scan (separated from IO for tests). `path` is the
/// workspace-relative path used for path-scoped rules.
pub fn scan_file_content(path: &str, content: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let solver = in_solver_path(path);
    let service = in_service_path(path);
    let lock_wrappers = path.ends_with("service/src/ranked.rs");
    let fault_module = path.contains("fault");
    let tolerance_helper = path.ends_with("numerics/src/float.rs");

    let raw_lines: Vec<&str> = content.lines().collect();
    let line_toks = tokens_by_line(&lex::lex(content), raw_lines.len());

    // lock-in-queue region state: Some(depth of the enclosing block)
    // while the guard is live.
    let mut queue_region: Option<i64> = None;
    // unwrap-in-unwind region state: Some(depth at the `catch_unwind`
    // line); live while brace depth stays above it (the closure body).
    let mut unwind_region: Option<i64> = None;
    let mut depth: i64 = 0;

    let queue_lock = [
        (Kind::Ident, "queue"),
        (Kind::Punct, "."),
        (Kind::Ident, "lock"),
        (Kind::Punct, "("),
        (Kind::Punct, ")"),
    ];

    for (idx, toks) in line_toks.iter().enumerate() {
        let line_no = idx + 1;
        if has_cfg_test(toks) {
            break; // test modules end the audited region of a file
        }
        if toks.is_empty() {
            continue;
        }
        let text = raw_lines[idx].trim();
        let mut push = |rule: &'static str, message: String| {
            out.push(Finding {
                rule,
                path: path.to_string(),
                line: line_no,
                text: text.to_string(),
                message,
            });
        };

        // --- nondeterminism ---
        if (solver || service) && !fault_module {
            if toks.iter().any(|t| t.ident("SystemTime")) {
                push(
                    "nondeterminism",
                    "wall-clock read in a solver/fit code path".to_string(),
                );
            }
            if ["thread", "ranked"].iter().any(|m| {
                has_seq(
                    toks,
                    &[
                        (Kind::Ident, m),
                        (Kind::Punct, "::"),
                        (Kind::Ident, "sleep"),
                    ],
                )
            }) {
                push(
                    "nondeterminism",
                    "sleep outside a fault-injection module".to_string(),
                );
            }
        }

        // --- float-eq --- (token operands: string literals can no
        // longer smuggle a float into the window)
        if !tolerance_helper {
            for (i, t) in toks.iter().enumerate() {
                if !(t.punct("==") || t.punct("!=")) {
                    continue;
                }
                let left_start = toks[..i]
                    .iter()
                    .rposition(is_operand_delim)
                    .map_or(0, |d| d + 1);
                let right_end = toks[i + 1..]
                    .iter()
                    .position(is_operand_delim)
                    .map_or(toks.len(), |d| i + 1 + d);
                if window_has_float(&toks[left_start..i])
                    || window_has_float(&toks[i + 1..right_end])
                {
                    push(
                        "float-eq",
                        "float equality outside the tolerance helpers".to_string(),
                    );
                    break; // one finding per line is enough
                }
            }
        }

        // --- lock-in-queue ---
        let depth_before = depth;
        depth += toks.iter().filter(|t| t.punct("{")).count() as i64
            - toks.iter().filter(|t| t.punct("}")).count() as i64;
        let acquires_lock = has_method_call(toks, &["lock", "read", "write", "try_lock"]);
        if let Some(region_depth) = queue_region {
            if depth_before < region_depth || depth < region_depth {
                queue_region = None;
            } else if acquires_lock {
                push(
                    "lock-in-queue",
                    "lock acquisition while the admission-queue shard guard is held".to_string(),
                );
            }
        }
        if queue_region.is_none() && has_seq(toks, &queue_lock) {
            queue_region = Some(depth_before);
        }

        // --- unwrap-in-unwind --- (closure-scoped: the region closes
        // when brace depth returns to the anchor line's depth)
        let unwraps = has_method_call(toks, &["unwrap", "expect"]);
        if let Some(region_depth) = unwind_region {
            if depth_before <= region_depth {
                unwind_region = None;
            } else if unwraps {
                push(
                    "unwrap-in-unwind",
                    "unwrap/expect inside a catch_unwind closure".to_string(),
                );
            }
        }
        if toks.iter().any(|t| t.ident("catch_unwind")) {
            if unwraps {
                push(
                    "unwrap-in-unwind",
                    "unwrap/expect on the catch_unwind line itself".to_string(),
                );
            }
            unwind_region = Some(depth_before);
        }

        // --- hash-order --- (LP crate only: warm-start state must never
        // be keyed or iterated in hash-seed or address order)
        if path.starts_with("crates/lp/src") {
            let hit = if toks.iter().any(|t| t.ident("HashMap")) {
                Some("HashMap")
            } else if toks.iter().any(|t| t.ident("HashSet")) {
                Some("HashSet")
            } else if has_method_call(toks, &["as_ptr"]) {
                Some(".as_ptr(")
            } else {
                None
            };
            if let Some(pat) = hit {
                push(
                    "hash-order",
                    format!(
                        "`{pat}` in the LP crate: basis/tableau state must use \
                         deterministic containers (Vec or BTreeMap/BTreeSet)"
                    ),
                );
            }
        }

        // --- unranked-lock / raw-blocking --- (the serving layer's locks
        // and blocking calls go through `ranked`, whose runtime rule
        // covers them)
        if service && !lock_wrappers {
            if let Some(t) = toks.iter().find(|t| {
                t.kind == Kind::Ident && matches!(t.text.as_str(), "Mutex" | "RwLock" | "Condvar")
            }) {
                push(
                    "unranked-lock",
                    format!(
                        "raw `{}` in the serving layer: use `ranked::RankedMutex` / \
                         `ranked::RankedCondvar` (DESIGN.md §16)",
                        t.text
                    ),
                );
            }
            if let Some(call) = raw_blocking_call(toks) {
                push(
                    "raw-blocking",
                    format!(
                        "raw blocking call `{call}` in the serving layer: use its `ranked` \
                         wrapper (DESIGN.md §16)"
                    ),
                );
            }
        }

        // --- telemetry-read ---
        if solver || service {
            for name in ["snapshot", "events", "elapsed_ms", "counter"] {
                if has_method_call(toks, &[name]) {
                    push(
                        "telemetry-read",
                        format!("telemetry read `.{name}(…)` in a solver/fit/service code path"),
                    );
                    break;
                }
            }
        }
    }
    out
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The `src/` trees the workspace owns: `src/` at the root plus every
/// `crates/<name>/src`, excluding the vendored `crates/compat` stand-ins.
pub fn workspace_src_roots(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        names.sort();
        for c in names {
            if c.is_dir() && c.file_name().is_some_and(|n| n != "compat") {
                roots.push(c.join("src"));
            }
        }
    }
    Ok(roots)
}

/// Load every workspace source file as `(workspace-relative path,
/// content)`, sorted by path.
fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for src in workspace_src_roots(root)? {
        collect_rs_files(&src, &mut files)?;
    }
    let mut out = Vec::with_capacity(files.len());
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, std::fs::read_to_string(&file)?));
    }
    Ok(out)
}

/// Scan the workspace rooted at `root` under the allowlist.
pub fn scan_workspace(root: &Path, allow: &Allowlist) -> std::io::Result<ScanOutcome> {
    Ok(scan_sources(&workspace_sources(root)?, allow))
}

/// Pure Level 2 scan over preloaded sources.
pub fn scan_sources(sources: &[(String, String)], allow: &Allowlist) -> ScanOutcome {
    let mut outcome = ScanOutcome {
        allow_used: vec![0; allow.entries.len()],
        ..ScanOutcome::default()
    };
    for (rel, content) in sources {
        outcome.files_scanned += 1;
        for f in scan_file_content(rel, content) {
            outcome.absorb(allow, f);
        }
    }
    outcome.sort();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nondeterminism_only_flags_solver_paths() {
        let code = "let t = std::time::SystemTime::now();\n";
        assert_eq!(scan_file_content("crates/minlp/src/bb.rs", code).len(), 1);
        assert!(scan_file_content("crates/bench/src/lib.rs", code).is_empty());
        assert!(scan_file_content("crates/cesm/src/fault.rs", code).is_empty());
    }

    #[test]
    fn sleep_is_flagged_outside_fault_modules() {
        let code = "std::thread::sleep(d);\n";
        let f = scan_file_content("crates/nlsq/src/multistart.rs", code);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "nondeterminism");
    }

    #[test]
    fn float_eq_catches_literal_comparison() {
        let f = scan_file_content("crates/hslb/src/fit.rs", "if x == 0.0 {\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "float-eq");
        // != too
        let f = scan_file_content("crates/hslb/src/fit.rs", "if x != 1.5 {\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn float_eq_ignores_integer_and_ordering_comparisons() {
        for line in [
            "if n == 0 {\n",
            "if a <= 0.5 {\n",
            "if a >= 0.5 {\n",
            "match x { _ => 0.0 }\n",
            "assert!(i == j);\n",
        ] {
            assert!(
                scan_file_content("crates/hslb/src/fit.rs", line).is_empty(),
                "false positive on {line:?}"
            );
        }
    }

    #[test]
    fn float_eq_sees_casts_and_constants() {
        for line in [
            "if a == x as f64 {\n",
            "if a == f64::INFINITY {\n",
            "if a != f64::NEG_INFINITY {\n",
            "if a == f32::NAN {\n",
            "if x == 1e-9 {\n",
        ] {
            let f = scan_file_content("crates/hslb/src/fit.rs", line);
            assert_eq!(f.len(), 1, "expected a finding on {line:?}");
            assert_eq!(f[0].rule, "float-eq");
        }
    }

    #[test]
    fn float_eq_exempts_the_tolerance_helper_module() {
        let code = "if a == b { /* bitwise check */ }\nlet x = 1.0 == y;\n";
        assert!(scan_file_content("crates/numerics/src/float.rs", code).is_empty());
    }

    #[test]
    fn lock_in_queue_flags_nested_acquisition_in_the_service_crate() {
        let code = "\
fn push(&self) {
    let mut state = queue.lock().unwrap_or_else(|e| e.into_inner());
    let desk = front.lock();
    state.push(1);
}
";
        let f = scan_file_content("crates/service/src/queue.rs", code);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-in-queue");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn lock_in_queue_region_ends_with_the_scope() {
        let code = "\
fn push(&self) {
    {
        let mut state = queue.lock().unwrap_or_else(|e| e.into_inner());
        state.push(1);
    }
    shard.available.notify_one();
    let desk = front.lock();
}
";
        assert!(scan_file_content("crates/service/src/queue.rs", code).is_empty());
    }

    #[test]
    fn service_crate_is_held_to_nondeterminism_and_telemetry_rules() {
        let sleep = "std::thread::sleep(backoff);\n";
        let f = scan_file_content("crates/service/src/bin/loadgen.rs", sleep);
        let rules: Vec<&str> = f.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["nondeterminism", "raw-blocking"], "{f:?}");
        // The wrapped sleep is still a sleep.
        let wrapped = "ranked::sleep(backoff);\n";
        let f = scan_file_content("crates/service/src/bin/loadgen.rs", wrapped);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "nondeterminism");

        let read = "let n = telemetry.snapshot();\n";
        let f = scan_file_content("crates/service/src/service.rs", read);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "telemetry-read");

        // Telemetry writes stay legal in the service crate.
        let w = "telemetry.counter_add(\"service.submitted\", 1);\n";
        assert!(scan_file_content("crates/service/src/service.rs", w).is_empty());
    }

    #[test]
    fn telemetry_reads_flagged_in_solver_paths_only() {
        let code = "let n = telemetry.counter(\"x\");\n";
        let f = scan_file_content("crates/minlp/src/bb.rs", code);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "telemetry-read");
        // The bench/report layer may read snapshots.
        assert!(scan_file_content("crates/bench/src/bin/table3.rs", code).is_empty());
        // Writes are fine anywhere.
        let w = "telemetry.counter_add(\"x\", 1);\n";
        assert!(scan_file_content("crates/minlp/src/bb.rs", w).is_empty());
    }

    #[test]
    fn unwrap_in_unwind_flags_the_closure_body() {
        let code = "\
fn attempt() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let sim = shared.sims.lock().unwrap();
        compute(&sim)
    }));
    result.unwrap_or_else(|_| fallback());
}
";
        let f = scan_file_content("crates/service/src/service.rs", code);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unwrap-in-unwind");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn unwrap_in_unwind_region_ends_with_the_closure() {
        let code = "\
fn attempt() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        compute(&shared)
    }));
    let after = result.unwrap();
}
";
        // `.unwrap()` after the closure closes is the panic-on-purpose
        // idiom this rule does not police (clippy's unwrap_used does).
        assert!(scan_file_content("crates/service/src/service.rs", code).is_empty());
        // A single-line catch_unwind carrying its own unwrap is flagged.
        let one = "let r = catch_unwind(|| x.lock().unwrap());\n";
        let f = scan_file_content("crates/service/src/service.rs", one);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unwrap-in-unwind");
    }

    #[test]
    fn hash_order_flags_hash_containers_in_the_lp_crate() {
        for line in [
            "use std::collections::HashMap;\n",
            "let seen: HashSet<usize> = HashSet::new();\n",
            "let key = row.as_ptr() as usize;\n",
        ] {
            let f = scan_file_content("crates/lp/src/basis.rs", line);
            assert_eq!(f.len(), 1, "expected a finding on {line:?}");
            assert_eq!(f[0].rule, "hash-order");
        }
    }

    #[test]
    fn hash_order_allows_deterministic_containers_and_other_crates() {
        // BTreeMap iteration order is key order — deterministic.
        let btree = "let fps: BTreeMap<u64, usize> = BTreeMap::new();\n";
        assert!(scan_file_content("crates/lp/src/basis.rs", btree).is_empty());
        // The rule is scoped to the LP crate: the bench/report layer may
        // use hash containers (it never feeds solver pivot decisions).
        let map = "use std::collections::HashMap;\n";
        assert!(scan_file_content("crates/bench/src/lib.rs", map).is_empty());
    }

    #[test]
    fn scanning_stops_at_cfg_test() {
        let code = "\
fn f() {}
#[cfg(test)]
mod tests {
    fn g() { let t = std::time::SystemTime::now(); }
}
";
        assert!(scan_file_content("crates/minlp/src/bb.rs", code).is_empty());
    }

    #[test]
    fn allowlist_requires_justification() {
        assert!(Allowlist::parse("float-eq | a.rs | x == 0.0 |").is_err());
        assert!(Allowlist::parse("bogus-rule | a.rs | x | why").is_err());
        let ok = Allowlist::parse(
            "# comment\nfloat-eq | parallel.rs | bound == other | heap identity\n",
        )
        .unwrap();
        assert_eq!(ok.entries.len(), 1);
        assert_eq!(ok.entries[0].justification, "heap identity");
    }

    #[test]
    fn allowlist_suppresses_matching_findings() {
        let allow = Allowlist::parse("float-eq | fit.rs | x == 0.0 | sentinel compare\n").unwrap();
        let f = &scan_file_content("crates/hslb/src/fit.rs", "if x == 0.0 {\n")[0];
        assert!(allow.allows(f));
        let g = &scan_file_content("crates/hslb/src/fit.rs", "if y == 2.0 {\n")[0];
        assert!(!allow.allows(g));
    }

    #[test]
    fn allowlist_accepts_lock_rule_ids() {
        let ok = Allowlist::parse(
            "raw-blocking | loadclient.rs | stream.read | client IO, no shared guard\n",
        )
        .unwrap();
        assert_eq!(ok.entries.len(), 1);
    }

    #[test]
    fn raw_lock_idents_in_service_are_unranked_findings() {
        let code = "use std::sync::{Condvar, Mutex};\nstruct S { m: Mutex<u32> }\n";
        let f = scan_file_content("crates/service/src/x.rs", code);
        assert_eq!(f.len(), 2, "one finding per line: {f:?}");
        assert!(f.iter().all(|f| f.rule == "unranked-lock"), "{f:?}");
        assert!(f[0].message.contains("raw `Condvar`"), "{f:?}");
        let rw = "static S: std::sync::RwLock<u8> = std::sync::RwLock::new(0);\n";
        assert_eq!(scan_file_content("crates/sweep/src/plan.rs", rw).len(), 1);
        // The wrapper module, the wrappers' own names and other crates
        // are exempt.
        assert!(scan_file_content("crates/service/src/ranked.rs", code).is_empty());
        let ranked = "struct S { m: RankedMutex<u32>, cv: RankedCondvar }\n";
        assert!(scan_file_content("crates/service/src/x.rs", ranked).is_empty());
        assert!(scan_file_content("crates/telemetry/src/lib.rs", code).is_empty());
    }

    #[test]
    fn raw_blocking_calls_in_service_are_findings() {
        for (line, call) in [
            ("std::thread::sleep(d);\n", "thread::sleep"),
            ("let s = TcpStream::connect(addr)?;\n", "TcpStream::connect"),
            ("let _ = h.join();\n", "join"),
            ("let r = rx.recv();\n", "recv"),
            ("let r = rx.recv_timeout(d);\n", "recv_timeout"),
            ("match self.listener.accept() {\n", "accept"),
            ("let n = reader.read_line(&mut s)?;\n", "read_line"),
            ("writer.flush()?;\n", "flush"),
            ("match conn.stream.read(&mut buf) {\n", "read"),
            ("match stream.write(front) {\n", "write"),
        ] {
            let f = scan_file_content("crates/service/src/reactor.rs", line);
            let blocking: Vec<_> = f.iter().filter(|f| f.rule == "raw-blocking").collect();
            assert_eq!(blocking.len(), 1, "expected a finding on {line:?}: {f:?}");
            assert!(blocking[0].message.contains(&format!("`{call}`")), "{f:?}");
        }
        // Not blocking calls: a path or slice join, `.write(` on a
        // non-IO receiver, and the wrappers themselves.
        for line in [
            "let p = dir.join(\"x\");\n",
            "let s = parts.join(\",\");\n",
            "item.write(out);\n",
            "let n = ranked::read(&mut conn.stream, &mut buf)?;\n",
            "let _ = ranked::join(h);\n",
        ] {
            let f = scan_file_content("crates/service/src/reactor.rs", line);
            assert!(f.is_empty(), "false positive on {line:?}: {f:?}");
        }
        // The wrapper module is exempt, and the rule stays in the
        // serving layer.
        let raw = "let _ = h.join();\n";
        assert!(scan_file_content("crates/service/src/ranked.rs", raw).is_empty());
        assert!(scan_file_content("crates/bench/src/lib.rs", raw).is_empty());
    }

    #[test]
    fn test_modules_are_not_scanned() {
        let code = "\
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
";
        assert!(scan_file_content("crates/service/src/x.rs", code).is_empty());
    }

    #[test]
    fn stale_entries_are_reported() {
        let allow = Allowlist::parse(
            "float-eq | fit.rs | x == 0.0 | sentinel\nfloat-eq | gone.rs | y == 1.0 | rotted\n",
        )
        .unwrap();
        let sources = vec![(
            "crates/hslb/src/fit.rs".to_string(),
            "fn f() { if x == 0.0 {} }\n".to_string(),
        )];
        let outcome = scan_sources(&sources, &allow);
        assert!(outcome.findings.is_empty());
        assert_eq!(outcome.allowlisted, 1);
        let stale = outcome.stale_entries(&allow);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].1.path_suffix, "gone.rs");
    }

    #[test]
    fn findings_render_deterministically() {
        let f = &scan_file_content("crates/hslb/src/fit.rs", "if x == 0.0 {\n")[0];
        assert_eq!(
            f.to_string(),
            "crates/hslb/src/fit.rs:1: [float-eq] float equality outside the tolerance \
             helpers: `if x == 0.0 {`"
        );
    }

    // ------------------------------------------------------------------
    // Pinned regressions: the line-scanner era's false positives and
    // masked findings, fixed by the token lexer. These fixtures are the
    // contract that the ported rules can never regress to line matching.
    // ------------------------------------------------------------------

    #[test]
    fn pinned_block_comment_cannot_create_findings() {
        // The old line scanner only skipped lines *starting* with `//`;
        // every one of these block-comment bodies used to produce a
        // finding.
        let code = "\
fn f() {
    /* thread::sleep(d) was here before the retry rework */
    /* if x == 0.0 { legacy sentinel } */
    let y = 1; /* SystemTime::now() read removed in PR 2 */
}
";
        assert!(
            scan_file_content("crates/minlp/src/bb.rs", code).is_empty(),
            "block-comment bodies must not produce findings"
        );
    }

    #[test]
    fn pinned_trailing_line_comment_cannot_create_findings() {
        // A trailing `//` comment after real code was scanned as code.
        let code =
            "let y = compute(); // thread::sleep-free since PR 3, x == 0.0 checked upstream\n";
        assert!(
            scan_file_content("crates/nlsq/src/multistart.rs", code).is_empty(),
            "trailing comments must not produce findings"
        );
    }

    #[test]
    fn pinned_string_literals_cannot_create_findings() {
        // Rule substrings inside normal and raw strings: the old scanner
        // flagged all three lines.
        let code = "\
fn f() {
    let msg = \"retry after thread::sleep backoff\";
    let probe = r#\"queue.lock() held too long\"#;
    let cmp = \"x == 0.0\";
    log(msg, probe, cmp);
}
";
        assert!(
            scan_file_content("crates/nlsq/src/multistart.rs", code).is_empty(),
            "string bodies must not produce findings"
        );
    }

    #[test]
    fn pinned_raw_string_cannot_open_a_lock_region() {
        // `queue.lock()` inside a raw string used to open the critical-
        // section region, flagging the innocent lock that follows.
        let code = "\
fn f() {
    let doc = r#\"queue.lock()\"#;
    let other = cache.lock();
    use_both(doc, other);
}
";
        assert!(
            scan_file_content("crates/nlsq/src/multistart.rs", code).is_empty(),
            "a raw-string anchor must not open a region"
        );
    }

    #[test]
    fn pinned_comment_brace_cannot_mask_a_nested_lock() {
        // The masked-finding twin: a `}` inside a comment used to
        // unbalance the depth tracker, closing the queue region early so
        // the real nested acquisition on the next line went unreported.
        let code = "\
fn f() {
    let mut d = queue.lock();
    /* } */
    let peek = other.lock();
    d.push(1);
}
";
        let f = scan_file_content("crates/nlsq/src/multistart.rs", code);
        assert_eq!(f.len(), 1, "the nested lock must be reported: {f:?}");
        assert_eq!(f[0].rule, "lock-in-queue");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn pinned_string_brace_cannot_mask_a_nested_lock() {
        let code = "\
fn push(&self) {
    let mut state = queue.lock().unwrap_or_else(|e| e.into_inner());
    state.tag(\"}\");
    let desk = front.lock();
}
";
        let f = scan_file_content("crates/service/src/queue.rs", code);
        assert_eq!(f.len(), 1, "the nested lock must be reported: {f:?}");
        assert_eq!(f[0].rule, "lock-in-queue");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn pinned_string_float_cannot_trip_float_eq() {
        // A float literal inside a string operand used to satisfy the
        // window check: `name == "v1.5"` is a string comparison.
        let code = "if name == \"v1.5\" { mark(); }\n";
        assert!(
            scan_file_content("crates/hslb/src/fit.rs", code).is_empty(),
            "string contents must not classify an operand as float"
        );
    }
}
