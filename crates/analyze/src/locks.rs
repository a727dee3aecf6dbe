//! Lock-discipline lint.
//!
//! PR 5 documented the two-level locking protocol of the sharded index in
//! prose; this pass turns it into a machine-checked rule. Within each
//! function body it tracks guards produced by `.read()` / `.write()` /
//! `.lock()` (empty argument lists only, so `io::Read::read(&mut buf)`
//! never matches) and flags:
//!
//! 1. acquiring the **ownership map** (`owners`) while a **shard** guard is
//!    held — the documented order is map *before* shard;
//! 2. holding **two shard write guards** at once;
//! 3. calling `stage_candidates` (or the `.stage(` helper) while *any*
//!    lock guard is held.
//!
//! The frontier refactor added candidate **cursors** (`.knn_cursor(` /
//! `.range_cursor(`), which are tracked like guards and bring two more
//! rules:
//!
//! 4. acquiring a **shard write lock** while a cursor is live — a cursor
//!    must own all its staged data before writers run, otherwise the
//!    stream could observe a half-mutated shard;
//! 5. pulling a cursor (`.views(`, `.select_up_to(`, `.collect_up_to(` or
//!    the sharded `merge_frontier(`) while **two or more shard guards** are
//!    held — the coordinator's merge is lock-free by design, and holding a
//!    guard pair across a pull reintroduces the pairwise-deadlock shape
//!    rule 2 exists to prevent.
//!
//! A cursor binding dies at its block's end, at `drop(name)`, or when it
//! is consumed by `name.collect_up_to(`.
//!
//! The disk store's read path (PR 13) keeps its buffer-pool latch off the
//! device, which is one more rule:
//!
//! 6. calling a backend's `.read_at(` while a **pool latch** guard
//!    (`pool.lock()`) is live — a page miss fetches and CRC-checks with the
//!    latch released, or every reader queues behind every other reader's
//!    I/O again.
//!
//! The tracker is lexical, not a borrow checker: `let`-bound guards live to
//! the end of their block (or an explicit `drop(name)`), scrutinee
//! temporaries of `match`/`if let`/`while let`/`for` live to the end of the
//! construct, and other temporaries die at the statement's `;`. That is
//! exactly Rust's temporary-lifetime rule for the shapes this codebase
//! uses, and the fixtures pin the behaviour.

use crate::scan::SourceFile;

/// A lock-ordering violation.
#[derive(Debug, Clone)]
pub struct LockViolation {
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line number of the offending acquisition or call.
    pub line: usize,
    /// Enclosing function.
    pub function: String,
    /// Human-readable rule violation.
    pub message: String,
}

/// Classification of a lock by the receiver it is taken on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// The sharded index's global id→shard ownership map.
    Map,
    /// A per-shard index lock.
    Shard,
    /// The single-index server lock.
    Index,
    /// The disk store's buffer-pool latch.
    Pool,
    /// Anything else (stats counters, buffer-pool latches, ...).
    Other,
    /// Not a lock at all: a live candidate cursor (`.knn_cursor(` /
    /// `.range_cursor(`), tracked with guard lifetimes.
    Cursor,
}

#[derive(Debug, Clone)]
struct Guard {
    class: Class,
    write: bool,
    name: Option<String>,
    /// Brace depth whose closing `}` kills this guard.
    depth: usize,
    line: usize,
}

/// Runs the lint over every function in the file (test lines excluded).
pub fn lock_violations(src: &SourceFile) -> Vec<LockViolation> {
    let joined = src.joined_code();
    let mut out = Vec::new();
    for f in &src.functions {
        let (Some(start), Some(end)) = (f.body_start, f.body_end) else {
            continue;
        };
        if src.test_lines.get(f.start_line).copied().unwrap_or(false) {
            continue;
        }
        // Skip bodies of functions nested inside this one; they get their
        // own pass and a guard here is not live there.
        let nested: Vec<(usize, usize)> = src
            .functions
            .iter()
            .filter(|g| {
                g.body_start
                    .is_some_and(|gs| gs > start && g.body_end.is_some_and(|ge| ge <= end))
            })
            .filter_map(|g| g.body_start.zip(g.body_end))
            .collect();
        walk_body(&joined, start, end, &f.name, &nested, &src.path, &mut out);
    }
    out
}

fn walk_body(
    joined: &str,
    start: usize,
    end: usize,
    fn_name: &str,
    nested: &[(usize, usize)],
    path: &str,
    out: &mut Vec<LockViolation>,
) {
    let chars: Vec<char> = joined.chars().collect();
    // 0-based line of the body's opening brace.
    let mut line = chars
        .get(..start)
        .map_or(0, |s| s.iter().filter(|&&c| c == '\n').count());

    let mut guards: Vec<Guard> = Vec::new();
    let mut pending: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut stmt = String::new();
    let mut i = start;
    while i < end && i < chars.len() {
        // Jump over nested function bodies.
        if let Some(&(ns, ne)) = nested.iter().find(|&&(ns, _)| ns == i) {
            let skipped = chars
                .get(ns..ne)
                .map_or(0, |s| s.iter().filter(|&&c| c == '\n').count());
            line += skipped;
            i = ne;
            stmt.clear();
            continue;
        }
        let c = chars.get(i).copied().unwrap_or('\0');
        match c {
            '\n' => {
                line += 1;
                stmt.push(' ');
            }
            '{' => {
                let scrutinee = has_keyword(&stmt, "match")
                    || has_keyword(&stmt, "if")
                    || has_keyword(&stmt, "while")
                    || has_keyword(&stmt, "for");
                depth += 1;
                if scrutinee {
                    for mut g in pending.drain(..) {
                        g.depth = depth;
                        guards.push(g);
                    }
                } else {
                    pending.clear();
                }
                stmt.clear();
            }
            '}' => {
                pending.clear();
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                stmt.clear();
            }
            ';' => {
                let trimmed = stmt.trim_start();
                if let Some(name) = let_binding_name(trimmed) {
                    for mut g in pending.drain(..) {
                        g.name = Some(name.clone());
                        g.depth = depth;
                        guards.push(g);
                    }
                } else {
                    pending.clear();
                }
                // drop(name) releases a named guard early; consuming a
                // cursor with name.collect_up_to(..) ends its life too.
                if let Some(dropped) = dropped_name(trimmed) {
                    guards.retain(|g| g.name.as_deref() != Some(dropped.as_str()));
                }
                if let Some(consumed) = consumed_cursor_name(trimmed) {
                    guards.retain(|g| {
                        g.class != Class::Cursor || g.name.as_deref() != Some(consumed.as_str())
                    });
                }
                stmt.clear();
            }
            _ => {
                stmt.push(c);
                check_events(&stmt, line, fn_name, path, &guards, &mut pending, out);
            }
        }
        i += 1;
    }
}

/// `kw` as a whole word inside `stmt` (so `best_match` is not `match`).
fn has_keyword(stmt: &str, kw: &str) -> bool {
    for (pos, m) in stmt.match_indices(kw) {
        let before_ok = pos == 0
            || stmt
                .get(..pos)
                .and_then(|s| s.chars().next_back())
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after_ok = stmt
            .get(pos + m.len()..)
            .and_then(|s| s.chars().next())
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// The calls that read a cursor's ranked views (rule 5).
const CURSOR_PULLS: [&str; 4] = [
    ".views(",
    ".select_up_to(",
    ".collect_up_to(",
    "merge_frontier(",
];

/// Examines the growing statement buffer for guard acquisitions and
/// `stage_candidates` calls.
fn check_events(
    stmt: &str,
    line: usize,
    fn_name: &str,
    path: &str,
    guards: &[Guard],
    pending: &mut Vec<Guard>,
    out: &mut Vec<LockViolation>,
) {
    let acquisition = [(".read()", false), (".write()", true), (".lock()", true)]
        .iter()
        .find(|(pat, _)| stmt.ends_with(pat));
    if let Some(&(pat, write)) = acquisition {
        let recv = stmt.get(..stmt.len() - pat.len()).unwrap_or_default();
        let class = classify(recv);
        for g in guards.iter().chain(pending.iter()) {
            if class == Class::Shard && write && g.class == Class::Cursor {
                out.push(LockViolation {
                    path: path.to_owned(),
                    line: line + 1,
                    function: fn_name.to_owned(),
                    message: format!(
                        "shard write lock acquired while candidate cursor (line {}) is \
                         live; a cursor must own its staged data before writers run",
                        g.line + 1
                    ),
                });
            }
            if class == Class::Map && g.class == Class::Shard {
                out.push(LockViolation {
                    path: path.to_owned(),
                    line: line + 1,
                    function: fn_name.to_owned(),
                    message: format!(
                        "ownership map lock acquired while shard lock (line {}) is held; \
                         documented order is map before shard",
                        g.line + 1
                    ),
                });
            }
            if class == Class::Shard && write && g.class == Class::Shard && g.write {
                out.push(LockViolation {
                    path: path.to_owned(),
                    line: line + 1,
                    function: fn_name.to_owned(),
                    message: format!(
                        "second shard write lock acquired while shard write lock \
                         (line {}) is held",
                        g.line + 1
                    ),
                });
            }
        }
        pending.push(Guard {
            class,
            write,
            name: None,
            depth: 0,
            line,
        });
        return;
    }
    // Opening a cursor starts a tracked lifetime (leading dot excludes the
    // `fn knn_cursor(` definitions themselves).
    if stmt.ends_with(".knn_cursor(") || stmt.ends_with(".range_cursor(") {
        pending.push(Guard {
            class: Class::Cursor,
            write: false,
            name: None,
            depth: 0,
            line,
        });
        return;
    }
    // The coordinator's merge must be lock-free: pulling a cursor with a
    // pair of shard guards held reintroduces the deadlock shape that the
    // double-write rule exists to prevent.
    if CURSOR_PULLS.iter().any(|pull| stmt.ends_with(pull)) {
        let shard_guards: Vec<&Guard> = guards
            .iter()
            .chain(pending.iter())
            .filter(|g| g.class == Class::Shard)
            .collect();
        if let (2.., Some(first)) = (shard_guards.len(), shard_guards.first()) {
            out.push(LockViolation {
                path: path.to_owned(),
                line: line + 1,
                function: fn_name.to_owned(),
                message: format!(
                    "cursor pulled while {} shard guards are held (first at line {}); \
                     the coordinator merge must be lock-free",
                    shard_guards.len(),
                    first.line + 1
                ),
            });
        }
        return;
    }
    // A page miss does its I/O with the pool latch released (the leading
    // dot excludes the `fn read_at(` definitions themselves).
    if stmt.ends_with(".read_at(") {
        let latch = guards
            .iter()
            .chain(pending.iter())
            .find(|g| g.class == Class::Pool);
        if let Some(g) = latch {
            out.push(LockViolation {
                path: path.to_owned(),
                line: line + 1,
                function: fn_name.to_owned(),
                message: format!(
                    "backend read_at called while the pool latch (line {}) is held; \
                     fetch the page with the latch released, then install it",
                    g.line + 1
                ),
            });
        }
        return;
    }
    if (stmt.ends_with("stage_candidates(") && !stmt.trim_start().starts_with("fn "))
        || stmt.ends_with(".stage(")
    {
        let lock_guard = guards
            .iter()
            .chain(pending.iter())
            .find(|g| g.class != Class::Cursor);
        if let Some(g) = lock_guard {
            out.push(LockViolation {
                path: path.to_owned(),
                line: line + 1,
                function: fn_name.to_owned(),
                message: format!(
                    "stage_candidates called while a lock guard (line {}) is held",
                    g.line + 1
                ),
            });
        }
    }
}

/// Receiver classification: walk the receiver chain backwards and look at
/// the identifiers it contains.
fn classify(before: &str) -> Class {
    let chars: Vec<char> = before.chars().collect();
    let mut idents: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut balance = 0i32;
    for &c in chars.iter().rev() {
        match c {
            ')' | ']' => {
                balance += 1;
                flushed(&mut cur, &mut idents);
            }
            '(' | '[' => {
                if balance == 0 {
                    break;
                }
                balance -= 1;
            }
            _ if balance > 0 => {}
            c if c.is_alphanumeric() || c == '_' => cur.push(c),
            '.' | ':' => flushed(&mut cur, &mut idents),
            _ => {
                flushed(&mut cur, &mut idents);
                break;
            }
        }
    }
    flushed(&mut cur, &mut idents);
    let has = |n: &str| idents.iter().any(|id| id == n);
    if has("owners") {
        Class::Map
    } else if has("shards") || has("shard") {
        Class::Shard
    } else if has("index") {
        Class::Index
    } else if has("pool") {
        Class::Pool
    } else {
        Class::Other
    }
}

fn flushed(cur: &mut String, idents: &mut Vec<String>) {
    if !cur.is_empty() {
        idents.push(cur.chars().rev().collect());
        cur.clear();
    }
}

/// `let [mut] name ...` → `name`.
fn let_binding_name(stmt: &str) -> Option<String> {
    let rest = stmt.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// `name.collect_up_to(` → `name` (the consuming drain that ends a
/// cursor's lexical life mid-block).
fn consumed_cursor_name(stmt: &str) -> Option<String> {
    let (before, _) = stmt.split_once(".collect_up_to(")?;
    let name: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// `drop(name)` → `name`.
fn dropped_name(stmt: &str) -> Option<String> {
    let (_, rest) = stmt.split_once("drop(")?;
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}
