//! Flow-aware semantic rules (`deepcheck`): L009–L011.
//!
//! Where `rules.rs` checks one scanned line at a time, these rules reason
//! over the workspace call graph built by [`crate::callgraph`]:
//!
//! - **L009 panic reachability** — no `unwrap()`, message-less
//!   `expect()`, `panic!`-family macro, or indexing with a literal in any
//!   function reachable from a registered pipeline entry point.
//! - **L010 hot-kernel allocation** — functions registered as `kernel`
//!   (and their transitive callees) must not allocate in steady state:
//!   no `Vec::new`/`push`/`collect`/`clone`/`format!`/`to_string`/
//!   `Box::new` and friends.
//! - **L011 parallel-closure hygiene** — closures handed to
//!   `parallel_map*` must not take locks, open journal spans (each worker
//!   thread's `pool_worker` slice already covers its items), or mutate
//!   captured state through interior mutability; the same holds
//!   transitively for everything the closure calls outside the sanctioned
//!   `breval_par`/`breval_obs` internals.
//!
//! All three respect the standard waiver pragma
//! (`// breval-lint: allow(L0xx) -- reason`), resolved through
//! [`crate::tokens::scan`] exactly like the token-level rules.

use std::collections::BTreeMap;

use crate::callgraph::{extract_calls, CallGraph};
use crate::resolve::Workspace;
use crate::rules::Violation;
use crate::tokens::{self, Scanned, Tok, TokKind};

/// Registry roles parsed from `deepcheck.txt`.
#[derive(Debug, Default)]
pub struct Registry {
    /// `(path-suffix, 1-based registry line)` pipeline entry points.
    pub entries: Vec<(String, usize)>,
    /// Hot kernels that must stay allocation-free.
    pub kernels: Vec<(String, usize)>,
    /// `(text, 1-based registry line)` of lines that are not one known role
    /// and one suffix. Each is a finding: a typo must not disable a check
    /// without notice.
    pub malformed: Vec<(String, usize)>,
}

/// Repo-relative path of the built-in registry, used in registry findings.
pub const REGISTRY_PATH: &str = "crates/xtask/deepcheck.txt";

impl Registry {
    /// Parses the `role suffix` line format; `#` starts a comment.
    #[must_use]
    pub fn parse(text: &str) -> Registry {
        let mut reg = Registry::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts[..] {
                ["entry", suffix] => reg.entries.push((suffix.to_owned(), idx + 1)),
                ["kernel", suffix] => reg.kernels.push((suffix.to_owned(), idx + 1)),
                _ => reg.malformed.push((line.to_owned(), idx + 1)),
            }
        }
        reg
    }

    /// The registry shipped with the linter (`deepcheck.txt`).
    #[must_use]
    pub fn builtin() -> Registry {
        Registry::parse(include_str!("../deepcheck.txt"))
    }
}

/// Runs all flow rules over a loaded workspace and returns unwaived
/// violations sorted by file and line.
#[must_use]
pub fn deepcheck(ws: &Workspace, reg: &Registry) -> Vec<Violation> {
    let graph = CallGraph::build(ws);
    let mut out: Vec<Violation> = reg
        .malformed
        .iter()
        .map(|(text, line)| Violation {
            file: REGISTRY_PATH.to_owned(),
            line: *line,
            rule: "L000",
            message: format!(
                "malformed registry line `{text}`: expected `entry <suffix>` or `kernel <suffix>`"
            ),
        })
        .collect();

    let entries = resolve_registry(ws, &reg.entries, "L009", "entry", &mut out);
    let kernels = resolve_registry(ws, &reg.kernels, "L010", "kernel", &mut out);
    let from_entry = graph.reachable(&entries);
    let in_kernel = graph.reachable(&kernels);

    for id in 0..ws.fns.len() {
        let f = &ws.fns[id];
        if f.is_test || f.body.is_none() {
            continue;
        }
        if from_entry[id] {
            l009_scan(ws, id, &mut out);
        }
        if in_kernel[id] {
            l010_scan(ws, id, &mut out);
        }
        l011_scan(ws, &graph, id, &mut out);
    }

    let mut out = apply_waivers(ws, out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.dedup();
    out
}

/// Convenience wrapper: load the workspace at `root` and deepcheck it
/// with the built-in registry.
pub fn deepcheck_root(root: &std::path::Path) -> std::io::Result<Vec<Violation>> {
    let ws = Workspace::load(root)?;
    Ok(deepcheck(&ws, &Registry::builtin()))
}

fn resolve_registry(
    ws: &Workspace,
    entries: &[(String, usize)],
    rule: &'static str,
    role: &str,
    out: &mut Vec<Violation>,
) -> Vec<usize> {
    let mut ids = Vec::new();
    for (suffix, line) in entries {
        let matched = ws.match_suffix(suffix);
        if matched.is_empty() {
            out.push(Violation {
                file: REGISTRY_PATH.to_owned(),
                line: *line,
                rule,
                message: format!("stale registry: {role} `{suffix}` matches no workspace function"),
            });
        }
        ids.extend(matched);
    }
    ids.sort_unstable();
    ids.dedup();
    ids
}

// ---------------------------------------------------------------------
// L009 — panic reachability from pipeline entry points
// ---------------------------------------------------------------------

/// Extent `[e0, e1)` of the iterated expression of the `for` at `i`.
fn for_loop_expr(src: &str, toks: &[Tok], i: usize, end: usize) -> Option<(usize, usize)> {
    let mut depth = 0i64;
    let mut j = i + 1;
    let mut e0 = None;
    while j < end {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text(src) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" => {
                    if depth == 0 {
                        if let Some(s) = e0 {
                            return Some((s, j));
                        }
                    }
                    depth += 1;
                }
                "}" => depth -= 1,
                _ => {}
            }
        }
        if depth == 0 && t.is_ident(src, "in") && e0.is_none() {
            e0 = Some(j + 1);
        }
        j += 1;
    }
    None
}

/// Maps identifiers bound by a `windows(k)` iteration (a `for` pattern or a
/// closure parameter downstream of the call) to the window size `k`.
/// Indexing such a binding with a literal `< k` cannot panic.
fn windows_bindings(src: &str, toks: &[Tok], b0: usize, b1: usize) -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    let window_size = |i: usize| -> Option<u64> {
        if toks[i].is_ident(src, "windows")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(src, "("))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(src, ")"))
        {
            toks.get(i + 2)
                .filter(|t| t.kind == TokKind::Number)
                .and_then(|t| t.text(src).parse().ok())
        } else {
            None
        }
    };
    for i in b0..b1.min(toks.len()) {
        let Some(k) = window_size(i) else { continue };
        // Closure form: `.windows(k).map(|w| ...)` — bind the params of the
        // first closure within a short lookahead (adapters like `.enumerate()`
        // or `.rev()` may sit in between).
        let lim = (i + 34).min(b1);
        let mut j = i + 4;
        while j < lim && !toks[j].is_punct(src, "|") {
            j += 1;
        }
        if j < lim {
            let mut p = j + 1;
            while p < b1 && !toks[p].is_punct(src, "|") {
                if toks[p].kind == TokKind::Ident && !toks[p].is_ident(src, "mut") {
                    map.insert(toks[p].text(src).to_owned(), k);
                }
                p += 1;
            }
        }
    }
    // For-loop form: `for w in xs.windows(k)` — bind every identifier in the
    // loop pattern (covers `(i, w)` from `.enumerate()`; the index binding is
    // harmless since only literal-indexed receivers are looked up).
    for i in b0..b1.min(toks.len()) {
        if !toks[i].is_ident(src, "for") {
            continue;
        }
        let Some((e0, e1)) = for_loop_expr(src, toks, i, b1) else {
            continue;
        };
        let Some(k) = (e0..e1).find_map(&window_size) else {
            continue;
        };
        // Pattern tokens sit between the `for` keyword and the `in` (at
        // `e0 - 1`, which `for_loop_expr` guarantees is past `i`).
        for tok in &toks[i + 1..e0 - 1] {
            if tok.kind == TokKind::Ident && !tok.is_ident(src, "mut") {
                map.insert(tok.text(src).to_owned(), k);
            }
        }
    }
    map
}

fn l009_scan(ws: &Workspace, id: usize, out: &mut Vec<Violation>) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file_idx];
    let (src, toks) = (&file.src, &file.toks);
    let (b0, b1) = f.body.expect("caller checked body");
    let windows = windows_bindings(src, toks, b0, b1);
    let path = ws.path_of(id);
    let rel = file.rel.to_string_lossy().replace('\\', "/");
    let mut push = |line: u32, what: String| {
        out.push(Violation {
            file: rel.clone(),
            line: line as usize,
            rule: "L009",
            message: format!("{what} in `{path}`, reachable from a pipeline entry point"),
        });
    };

    let mut i = b0;
    while i < b1 {
        let t = &toks[i];
        if t.is_punct(src, ".") {
            if let Some(m) = toks.get(i + 1) {
                let open = toks.get(i + 2).is_some_and(|o| o.is_punct(src, "("));
                if open && m.is_ident(src, "unwrap") {
                    push(t.line, "`unwrap()`".to_owned());
                } else if open && m.is_ident(src, "expect") {
                    let has_msg = toks.get(i + 3).is_some_and(|a| a.kind == TokKind::Str);
                    if !has_msg {
                        push(t.line, "message-less `expect()`".to_owned());
                    }
                }
            }
        }
        if t.kind == TokKind::Ident
            && matches!(
                t.text(src),
                "panic" | "todo" | "unimplemented" | "unreachable"
            )
            && toks.get(i + 1).is_some_and(|n| n.is_punct(src, "!"))
        {
            push(t.line, format!("`{}!`", t.text(src)));
        }
        // `expr[<literal>]` indexing: `[` preceded by an expression tail
        // (identifier, `)` or `]`), with a lone number literal inside.
        if t.is_punct(src, "[")
            && i > b0
            && (toks[i - 1].kind == TokKind::Ident
                || toks[i - 1].is_punct(src, ")")
                || toks[i - 1].is_punct(src, "]"))
        {
            let lit = toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Number)
                && toks.get(i + 2).is_some_and(|n| n.is_punct(src, "]"));
            let keyword_recv = toks[i - 1].kind == TokKind::Ident
                && matches!(
                    toks[i - 1].text(src),
                    "in" | "return" | "else" | "match" | "break"
                );
            // `w[j]` where `w` is bound by a `windows(k)` iteration and
            // `j < k` cannot panic — the window length is guaranteed.
            let windows_safe = toks[i - 1].kind == TokKind::Ident
                && windows
                    .get(toks[i - 1].text(src))
                    .zip(
                        toks.get(i + 1)
                            .and_then(|n| n.text(src).parse::<u64>().ok()),
                    )
                    .is_some_and(|(k, j)| j < *k);
            if lit && !keyword_recv && !windows_safe {
                push(t.line, "indexing with a literal".to_owned());
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// L010 — allocation in hot kernels
// ---------------------------------------------------------------------

const ALLOC_METHODS: [&str; 11] = [
    "push",
    "collect",
    "clone",
    "to_string",
    "to_owned",
    "to_vec",
    "extend",
    "insert",
    "resize",
    "reserve",
    "append",
];
const ALLOC_CTORS: [&str; 3] = ["Vec", "String", "Box"];
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

fn l010_scan(ws: &Workspace, id: usize, out: &mut Vec<Violation>) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file_idx];
    let (src, toks) = (&file.src, &file.toks);
    let (b0, b1) = f.body.expect("caller checked body");
    let path = ws.path_of(id);
    let rel = file.rel.to_string_lossy().replace('\\', "/");
    let mut push = |line: u32, what: &str| {
        out.push(Violation {
            file: rel.clone(),
            line: line as usize,
            rule: "L010",
            message: format!(
                "allocation `{what}` in `{path}`, which is inside a registered hot kernel"
            ),
        });
    };

    let mut i = b0;
    while i < b1 {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            let w = t.text(src);
            if ALLOC_CTORS.contains(&w)
                && toks.get(i + 1).is_some_and(|n| n.is_punct(src, "::"))
                && toks.get(i + 2).is_some_and(|n| {
                    n.is_ident(src, "new")
                        || n.is_ident(src, "with_capacity")
                        || n.is_ident(src, "from")
                })
                && toks.get(i + 3).is_some_and(|n| n.is_punct(src, "("))
            {
                push(t.line, &format!("{w}::{}", toks[i + 2].text(src)));
            }
            if ALLOC_MACROS.contains(&w) && toks.get(i + 1).is_some_and(|n| n.is_punct(src, "!")) {
                push(t.line, &format!("{w}!"));
            }
        }
        if t.is_punct(src, ".")
            && toks
                .get(i + 1)
                .is_some_and(|m| m.kind == TokKind::Ident && ALLOC_METHODS.contains(&m.text(src)))
        {
            let j = i + 2;
            let called = toks.get(j).is_some_and(|n| n.is_punct(src, "("))
                || (toks.get(j).is_some_and(|n| n.is_punct(src, "::"))
                    && toks.get(j + 1).is_some_and(|n| n.is_punct(src, "<")));
            if called {
                push(t.line, &format!(".{}()", toks[i + 1].text(src)));
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// L011 — parallel-closure hygiene
// ---------------------------------------------------------------------

const PAR_FNS: [&str; 2] = ["parallel_map", "parallel_map_init"];

fn l011_scan(ws: &Workspace, graph: &CallGraph, id: usize, out: &mut Vec<Violation>) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file_idx];
    if is_sanctioned_crate(&file.krate) {
        return;
    }
    let (src, toks) = (&file.src, &file.toks);
    let (b0, b1) = f.body.expect("caller checked body");
    let path = ws.path_of(id);
    let rel = file.rel.to_string_lossy().replace('\\', "/");

    let mut i = b0;
    while i < b1 {
        let t = &toks[i];
        let is_par_call = t.kind == TokKind::Ident
            && PAR_FNS.contains(&t.text(src))
            && toks.get(i + 1).is_some_and(|n| n.is_punct(src, "("));
        if !is_par_call {
            i += 1;
            continue;
        }
        let call_line = t.line;
        // Argument list extent.
        let args_end = balanced_end(src, toks, i + 1, b1);
        for (c0, c1) in closures_in(src, toks, i + 2, args_end) {
            check_closure(
                ws, graph, id, src, toks, c0, c1, call_line, &path, &rel, out,
            );
        }
        i = args_end;
    }
}

fn is_sanctioned_crate(krate: &str) -> bool {
    krate == "breval_par" || krate == "breval_obs"
}

/// One past the matching close delimiter for the open delimiter at `i`.
fn balanced_end(src: &str, toks: &[Tok], mut i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    while i < end {
        if toks[i].kind == TokKind::Punct {
            match toks[i].text(src) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    i
}

/// Token ranges of closure bodies (including the param list) inside an
/// argument list `[start, end)`.
fn closures_in(src: &str, toks: &[Tok], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = start;
    let mut depth = 0i64;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text(src) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
        }
        // Closure opener: `|` at argument depth, directly after `(`, `,`
        // or `move`.
        let opener = t.is_punct(src, "|")
            && depth == 0
            && i > 0
            && (toks[i - 1].is_punct(src, "(")
                || toks[i - 1].is_punct(src, ",")
                || toks[i - 1].is_ident(src, "move"));
        if opener {
            // Find the closing `|` of the parameter list.
            let mut j = i + 1;
            let mut pdepth = 0i64;
            while j < end {
                let p = &toks[j];
                if p.kind == TokKind::Punct {
                    match p.text(src) {
                        "(" | "[" | "{" | "<" => pdepth += 1,
                        ")" | "]" | "}" | ">" => pdepth -= 1,
                        "|" if pdepth <= 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            let body_start = j + 1;
            let body_end = if toks.get(body_start).is_some_and(|b| b.is_punct(src, "{")) {
                balanced_end(src, toks, body_start, end)
            } else {
                // Expression body: runs to a `,` at depth 0 or the end of
                // the argument list.
                let mut k = body_start;
                let mut d = 0i64;
                while k < end {
                    let p = &toks[k];
                    if p.kind == TokKind::Punct {
                        match p.text(src) {
                            "(" | "[" | "{" => d += 1,
                            ")" | "]" | "}" => d -= 1,
                            "," if d <= 0 => break,
                            _ => {}
                        }
                    }
                    k += 1;
                }
                k
            };
            out.push((i, body_end));
            i = body_end;
            continue;
        }
        i += 1;
    }
    out
}

#[allow(
    clippy::too_many_arguments,
    reason = "internal plumbing for one call site"
)]
fn check_closure(
    ws: &Workspace,
    graph: &CallGraph,
    caller: usize,
    src: &str,
    toks: &[Tok],
    c0: usize,
    c1: usize,
    call_line: u32,
    path: &str,
    rel: &str,
    out: &mut Vec<Violation>,
) {
    let mut push = |line: u32, what: String| {
        out.push(Violation {
            file: rel.to_owned(),
            line: line as usize,
            rule: "L011",
            message: format!("parallel closure in `{path}` {what}"),
        });
    };
    // Direct offenses inside the closure tokens.
    for (line, what) in hygiene_offenses(src, toks, c0, c1) {
        push(line, what);
    }
    // Transitive: everything the closure calls, outside breval_par/obs.
    let seeds: Vec<usize> = extract_calls(src, toks, c0, c1)
        .iter()
        .flat_map(|c| ws.resolve_from(caller, c))
        .collect();
    if seeds.is_empty() {
        return;
    }
    let reach = graph.reachable(&seeds);
    for (target, hit) in reach.iter().enumerate() {
        if !hit {
            continue;
        }
        let tf = &ws.fns[target];
        let tfile = &ws.files[tf.file_idx];
        if tf.is_test || is_sanctioned_crate(&tfile.krate) {
            continue;
        }
        let Some((tb0, tb1)) = tf.body else { continue };
        for (_, what) in hygiene_offenses(&tfile.src, &tfile.toks, tb0, tb1) {
            push(
                call_line,
                format!("{what} transitively via `{}`", ws.path_of(target)),
            );
        }
    }
}

/// `(line, description)` of every hygiene offense in a token range.
fn hygiene_offenses(src: &str, toks: &[Tok], start: usize, end: usize) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.is_punct(src, ".") {
            if let Some(m) = toks.get(i + 1) {
                let called = toks.get(i + 2).is_some_and(|o| o.is_punct(src, "("));
                if called && m.kind == TokKind::Ident {
                    match m.text(src) {
                        "lock" | "read" if is_lock_recv(src, toks, i) => {
                            out.push((t.line, format!("takes a lock (`.{}()`)", m.text(src))));
                        }
                        "lock" => {
                            out.push((t.line, "takes a lock (`.lock()`)".to_owned()));
                        }
                        "borrow_mut" => {
                            out.push((
                                t.line,
                                "mutates captured state through `RefCell::borrow_mut`".to_owned(),
                            ));
                        }
                        "fetch_add" | "fetch_sub" | "fetch_or" | "fetch_and" | "store" => {
                            out.push((
                                t.line,
                                format!(
                                    "mutates captured state through an atomic (`.{}()`)",
                                    m.text(src)
                                ),
                            ));
                        }
                        _ => {}
                    }
                }
            }
        }
        if t.is_ident(src, "journal_span") && toks.get(i + 1).is_some_and(|n| n.is_punct(src, "("))
        {
            out.push((
                t.line,
                "opens a journal span (the worker's `pool_worker` slice already covers each item)"
                    .to_owned(),
            ));
        }
        i += 1;
    }
    out
}

/// Heuristic: `.read()` only counts as a lock when the receiver chain
/// mentions a lock type; `.lock()` always counts.
fn is_lock_recv(src: &str, toks: &[Tok], dot: usize) -> bool {
    let lo = dot.saturating_sub(4);
    toks[lo..dot]
        .iter()
        .any(|t| t.is_ident(src, "RwLock") || t.is_ident(src, "Mutex"))
}

// ---------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------

/// Drops violations suppressed by `breval-lint: allow(...)` pragmas in
/// their file. Registry-file findings are never waivable.
fn apply_waivers(ws: &Workspace, violations: Vec<Violation>) -> Vec<Violation> {
    let mut scanned: BTreeMap<String, Scanned> = BTreeMap::new();
    for file in &ws.files {
        let rel = file.rel.to_string_lossy().replace('\\', "/");
        scanned
            .entry(rel)
            .or_insert_with(|| tokens::scan(&file.src));
    }
    violations
        .into_iter()
        .filter(|v| {
            let Some(sf) = scanned.get(&v.file) else {
                return true;
            };
            !u32::try_from(v.line).is_ok_and(|line| sf.waived(line, v.rule))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(srcs: &[(&str, &str)], reg_text: &str) -> Vec<Violation> {
        let ws = Workspace::from_sources("testcrate", srcs);
        deepcheck(&ws, &Registry::parse(reg_text))
    }

    #[test]
    fn registry_parses_roles_and_comments() {
        let reg = Registry::parse(
            "# header\nentry a::b # trailing\nkernel c::d\nsink e::f\n\nbogus g::h\nentry\n",
        );
        assert_eq!(reg.entries, vec![("a::b".to_owned(), 2)]);
        assert_eq!(reg.kernels, vec![("c::d".to_owned(), 3)]);
        let malformed = vec![
            ("sink e::f".to_owned(), 4),
            ("bogus g::h".to_owned(), 6),
            ("entry".to_owned(), 7),
        ];
        assert_eq!(reg.malformed, malformed);
    }

    #[test]
    fn builtin_registry_is_well_formed() {
        let reg = Registry::builtin();
        assert!(!reg.entries.is_empty());
        assert!(!reg.kernels.is_empty());
        assert!(reg.malformed.is_empty(), "{:?}", reg.malformed);
    }

    #[test]
    fn stale_registry_entries_are_violations() {
        let v = check(
            &[("src/lib.rs", "pub fn real() {}\n")],
            "entry testcrate::missing\n",
        );
        assert!(v
            .iter()
            .any(|x| x.rule == "L009" && x.message.contains("stale registry")));
    }

    #[test]
    fn unknown_roles_and_missing_suffixes_are_violations() {
        // A misspelt role and a role without a suffix would otherwise
        // silently drop their checks.
        let v = check(
            &[("src/lib.rs", "pub fn real() {}\n")],
            "entry testcrate::real\nkernal testcrate::real\nkernel\n",
        );
        let registry: Vec<(usize, &str)> = v
            .iter()
            .filter(|x| x.file == REGISTRY_PATH)
            .map(|x| (x.line, x.rule))
            .collect();
        assert_eq!(registry, vec![(2, "L000"), (3, "L000")], "{v:?}");
        assert!(v[0].message.contains("kernal testcrate::real"), "{v:?}");
    }

    #[test]
    fn l009_fires_on_panics_reachable_from_entry() {
        let src = "pub fn run() { step(); }\n\
                   fn step() { let v = vec![1]; let _ = v[0]; helper().unwrap(); }\n\
                   fn helper() -> Option<u32> { None }\n\
                   pub fn cold() { panic!(\"never\"); }\n";
        let v = check(&[("src/lib.rs", src)], "entry testcrate::run\n");
        assert!(
            v.iter()
                .any(|x| x.rule == "L009" && x.message.contains("unwrap")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| x.rule == "L009" && x.message.contains("literal")),
            "{v:?}"
        );
        // `cold` is not reachable from the entry, so its panic is fine.
        assert!(v.iter().all(|x| !x.message.contains("panic!")), "{v:?}");
    }

    #[test]
    fn l009_allows_in_bounds_windows_indexing() {
        // `w[0]`/`w[1]` on a `windows(2)` binding cannot panic — both the
        // for-loop and the closure form are recognized. `w[2]` is out of
        // bounds for the same window and must still fire.
        let src = "pub fn run(xs: &[u32]) -> u32 {\n\
                       let mut acc = 0;\n\
                       for w in xs.windows(2) { acc += w[0] + w[1]; }\n\
                       acc + xs.windows(3).map(|c| c[2]).sum::<u32>()\n\
                   }\n\
                   pub fn bad(xs: &[u32]) -> u32 {\n\
                       xs.windows(2).map(|w| w[2]).sum()\n\
                   }\n";
        let v = check(
            &[("src/lib.rs", src)],
            "entry testcrate::run\nentry testcrate::bad\n",
        );
        let lits: Vec<_> = v.iter().filter(|x| x.message.contains("literal")).collect();
        assert_eq!(lits.len(), 1, "{v:?}");
        assert_eq!(lits[0].line, 7, "{v:?}");
    }

    #[test]
    fn l009_allows_expect_with_message() {
        let src = "pub fn run() { helper().expect(\"invariant: helper always succeeds\"); }\n\
                   fn helper() -> Option<u32> { Some(1) }\n";
        let v = check(&[("src/lib.rs", src)], "entry testcrate::run\n");
        assert!(v.iter().all(|x| x.rule != "L009"), "{v:?}");
    }

    #[test]
    fn l010_fires_on_alloc_in_kernel_and_callee() {
        let src = "pub fn kernel(buf: &mut Vec<u32>) { buf.push(1); helper(); }\n\
                   fn helper() { let _s = format!(\"x\"); }\n\
                   pub fn outside() { let _v: Vec<u32> = Vec::new(); }\n";
        let v = check(&[("src/lib.rs", src)], "kernel testcrate::kernel\n");
        assert!(
            v.iter()
                .any(|x| x.rule == "L010" && x.message.contains("push")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| x.rule == "L010" && x.message.contains("format!")),
            "{v:?}"
        );
        assert!(v.iter().all(|x| !x.message.contains("outside")), "{v:?}");
    }

    #[test]
    fn l011_fires_on_lock_and_journal_span_in_closure() {
        let src = "use std::sync::Mutex;\n\
                   pub fn journal_span(_n: &str) {}\n\
                   pub fn fanout(m: &Mutex<u32>) {\n\
                       parallel_map(4, |i| { let _g = m.lock(); journal_span(\"x\"); i });\n\
                   }\n\
                   pub fn parallel_map<F: Fn(usize) -> usize>(n: usize, f: F) -> Vec<usize> {\n\
                       (0..n).map(f).collect()\n\
                   }\n";
        let v = check(&[("src/lib.rs", src)], "");
        assert!(
            v.iter()
                .any(|x| x.rule == "L011" && x.message.contains("lock")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| x.rule == "L011" && x.message.contains("journal span")),
            "{v:?}"
        );
    }

    #[test]
    fn l011_transitive_through_called_helper() {
        let src = "use std::sync::Mutex;\n\
                   static M: Mutex<u32> = Mutex::new(0);\n\
                   fn locky() { let _g = M.lock(); }\n\
                   pub fn fanout() { parallel_map(4, |i| { locky(); i }); }\n\
                   pub fn parallel_map<F: Fn(usize) -> usize>(n: usize, f: F) -> Vec<usize> {\n\
                       (0..n).map(f).collect()\n\
                   }\n";
        let v = check(&[("src/lib.rs", src)], "");
        assert!(
            v.iter()
                .any(|x| x.rule == "L011" && x.message.contains("transitively via")),
            "{v:?}"
        );
    }

    #[test]
    fn l011_quiet_on_clean_closure() {
        let src = "pub fn fanout() { parallel_map(4, |i| i * 2); }\n\
                   pub fn parallel_map<F: Fn(usize) -> usize>(n: usize, f: F) -> Vec<usize> {\n\
                       (0..n).map(f).collect()\n\
                   }\n";
        let v = check(&[("src/lib.rs", src)], "");
        assert!(v.iter().all(|x| x.rule != "L011"), "{v:?}");
    }

    #[test]
    fn waiver_pragma_suppresses_flow_findings() {
        let src = "pub fn run() {\n\
                   // breval-lint: allow(L009) -- index is bounds-checked two lines up\n\
                       let v = vec![1]; let _ = v[0];\n\
                   }\n";
        let v = check(&[("src/lib.rs", src)], "entry testcrate::run\n");
        assert!(v.iter().all(|x| x.rule != "L009"), "{v:?}");
    }
}
