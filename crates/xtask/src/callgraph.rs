//! Per-crate and cross-crate call graph with reachability queries.
//!
//! Edges come from scanning each function's body token range for call
//! shapes — `f(..)`, `a::b::f(..)`, `Type::assoc(..)`, `.method(..)` (with
//! or without turbofish) — and resolving them through
//! [`crate::resolve::Workspace::resolve`]. Because resolution
//! over-approximates ambiguity, reachability is a superset of the true
//! dynamic call relation: rules built on it can flag conservatively but
//! never miss a path the resolver understands.
//!
//! Two query directions serve the flow rules: [`CallGraph::reachable`]
//! (forward, from pipeline entry points — L009/L010) and
//! [`CallGraph::coreachable`] (reverse, "can this function reach a
//! serialization sink?" — L008).

use crate::resolve::{CallRef, Workspace};
use crate::tokens::{Tok, TokKind};

/// Keywords that look like `ident (`-call heads but are control flow.
const NON_CALL_KEYWORDS: [&str; 22] = [
    "if", "else", "while", "for", "in", "match", "return", "loop", "fn", "let", "as", "move",
    "unsafe", "await", "dyn", "impl", "ref", "mut", "pub", "where", "break", "continue",
];

/// The workspace call graph over [`Workspace::fns`] indices.
pub struct CallGraph {
    /// Forward adjacency: `edges[f]` lists callees of `f` (sorted, deduped).
    pub edges: Vec<Vec<usize>>,
    /// Reverse adjacency: `redges[f]` lists callers of `f`.
    pub redges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph by extracting and resolving every call reference in
    /// every function body.
    #[must_use]
    pub fn build(ws: &Workspace) -> CallGraph {
        let n = ws.fns.len();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, f) in ws.fns.iter().enumerate() {
            let Some((b0, b1)) = f.body else { continue };
            let file = &ws.files[f.file_idx];
            let calls = extract_calls(&file.src, &file.toks, b0, b1);
            let mut targets: Vec<usize> =
                calls.iter().flat_map(|c| ws.resolve_from(id, c)).collect();
            targets.sort_unstable();
            targets.dedup();
            edges[id] = targets;
        }
        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (from, outs) in edges.iter().enumerate() {
            for &to in outs {
                redges[to].push(from);
            }
        }
        CallGraph { edges, redges }
    }

    /// Forward reachability: every function reachable from `seeds`
    /// (inclusive) following call edges.
    #[must_use]
    pub fn reachable(&self, seeds: &[usize]) -> Vec<bool> {
        bfs(&self.edges, seeds)
    }

    /// Reverse reachability: every function that can *reach* one of
    /// `seeds` (inclusive) — i.e. BFS over the reversed edges.
    #[must_use]
    pub fn coreachable(&self, seeds: &[usize]) -> Vec<bool> {
        bfs(&self.redges, seeds)
    }
}

fn bfs(adj: &[Vec<usize>], seeds: &[usize]) -> Vec<bool> {
    let mut seen = vec![false; adj.len()];
    let mut queue: Vec<usize> = Vec::new();
    for &s in seeds {
        if s < seen.len() && !seen[s] {
            seen[s] = true;
            queue.push(s);
        }
    }
    let mut head = 0usize;
    while head < queue.len() {
        let cur = queue[head];
        head += 1;
        for &next in &adj[cur] {
            if !seen[next] {
                seen[next] = true;
                queue.push(next);
            }
        }
    }
    seen
}

/// Skips a turbofish / generic-argument run starting at the `<` at `i`;
/// returns the index one past the matching `>`. Sub-delimiters are matched
/// balanced.
fn skip_angle(src: &str, toks: &[Tok], mut i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text(src) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        return i + 1;
                    }
                }
                "(" | "[" | "{" => {
                    i = skip_delim(src, toks, i, end);
                    continue;
                }
                _ => {}
            }
        }
        i += 1;
    }
    i
}

fn skip_delim(src: &str, toks: &[Tok], mut i: usize, end: usize) -> usize {
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

/// Extracts every call reference in the token range `[start, end)`.
/// Returned in source order; duplicates are kept (callers dedup after
/// resolution).
#[must_use]
pub fn extract_calls(src: &str, toks: &[Tok], start: usize, end: usize) -> Vec<CallRef> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        // `.method(` and `.method::<T>(`.
        if t.is_punct(src, ".") && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            let name = toks[i + 1].text(src);
            let mut j = i + 2;
            if j + 1 < end && toks[j].is_punct(src, "::") && toks[j + 1].is_punct(src, "<") {
                j = skip_angle(src, toks, j + 1, end);
            }
            if j < end && toks[j].is_punct(src, "(") {
                let recv_is_self = i
                    .checked_sub(1)
                    .and_then(|p| toks.get(p))
                    .is_some_and(|p| p.is_ident(src, "self"));
                if recv_is_self {
                    out.push(CallRef::SelfMethod(name.to_owned()));
                } else {
                    out.push(CallRef::Method(name.to_owned()));
                }
            }
            i += 2;
            continue;
        }
        // Path heads: an identifier not preceded by `.` or `::`.
        if t.kind == TokKind::Ident {
            let prev_connects = i
                .checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_some_and(|p| p.is_punct(src, ".") || p.is_punct(src, "::"));
            let head = t.text(src);
            if !prev_connects && !NON_CALL_KEYWORDS.contains(&head) {
                let mut segs = vec![head.to_owned()];
                let mut j = i + 1;
                while j + 1 < end
                    && toks[j].is_punct(src, "::")
                    && toks[j + 1].kind == TokKind::Ident
                {
                    segs.push(toks[j + 1].text(src).to_owned());
                    j += 2;
                }
                // Optional turbofish before the argument list.
                if j + 1 < end && toks[j].is_punct(src, "::") && toks[j + 1].is_punct(src, "<") {
                    j = skip_angle(src, toks, j + 1, end);
                }
                if j < end && toks[j].is_punct(src, "(") {
                    out.push(CallRef::Path(segs));
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::Workspace;

    fn graph_for(src: &str) -> (Workspace, CallGraph) {
        let ws = Workspace::from_sources("testcrate", &[("src/lib.rs", src)]);
        let g = CallGraph::build(&ws);
        (ws, g)
    }

    fn id_of(ws: &Workspace, suffix: &str) -> usize {
        let ids = ws.match_suffix(suffix);
        assert_eq!(ids.len(), 1, "{suffix} must be unique: {ids:?}");
        ids[0]
    }

    #[test]
    fn direct_call_reachability() {
        let (ws, g) = graph_for("fn a() { b(); }\nfn b() {}\nfn c() {}\n");
        let reach = g.reachable(&[id_of(&ws, "a")]);
        assert!(reach[id_of(&ws, "b")]);
        assert!(!reach[id_of(&ws, "c")]);
    }

    #[test]
    fn indirect_call_chain() {
        let (ws, g) = graph_for(
            "fn entry() { middle(); }\nfn middle() { deep(); }\nfn deep() { leaf(); }\nfn leaf() {}\nfn island() {}\n",
        );
        let reach = g.reachable(&[id_of(&ws, "entry")]);
        for f in ["middle", "deep", "leaf"] {
            assert!(reach[id_of(&ws, f)], "{f} must be reachable");
        }
        assert!(!reach[id_of(&ws, "island")]);
    }

    #[test]
    fn method_and_assoc_calls_resolve_through_impls() {
        let src = "pub struct W;\nimpl W {\n  pub fn new() -> W { W }\n  pub fn go(&self) { helper(); }\n}\nfn helper() {}\nfn caller() { let w = W::new(); w.go(); }\n";
        let (ws, g) = graph_for(src);
        let reach = g.reachable(&[id_of(&ws, "caller")]);
        assert!(reach[id_of(&ws, "W::new")], "assoc fn edge");
        assert!(reach[id_of(&ws, "W::go")], "method edge");
        assert!(reach[id_of(&ws, "helper")], "transitive through method");
    }

    #[test]
    fn trait_method_calls_over_approximate_to_all_impls() {
        let src = "trait T { fn act(&self); }\nstruct A; struct B;\n\
                   impl T for A { fn act(&self) { a_only(); } }\n\
                   impl T for B { fn act(&self) { b_only(); } }\n\
                   fn a_only() {}\nfn b_only() {}\n\
                   fn driver(x: &dyn T) { x.act(); }\n";
        let (ws, g) = graph_for(src);
        let reach = g.reachable(&[id_of(&ws, "driver")]);
        assert!(reach[id_of(&ws, "a_only")], "impl A reachable");
        assert!(reach[id_of(&ws, "b_only")], "impl B reachable");
    }

    #[test]
    fn ambiguous_names_resolve_to_every_candidate() {
        let src = "mod m1 { pub fn shared() { super::one(); } }\n\
                   mod m2 { pub fn shared() { super::two(); } }\n\
                   fn one() {}\nfn two() {}\n\
                   fn caller() { shared(); }\n";
        let (ws, g) = graph_for(src);
        let reach = g.reachable(&[id_of(&ws, "caller")]);
        // Unqualified ambiguous call: both candidates (and their callees)
        // are conservatively reachable.
        assert!(reach[id_of(&ws, "one")]);
        assert!(reach[id_of(&ws, "two")]);
    }

    #[test]
    fn qualified_module_calls_stay_precise() {
        let src = "mod m1 { pub fn shared() { super::one(); } }\n\
                   mod m2 { pub fn shared() { super::two(); } }\n\
                   fn one() {}\nfn two() {}\n\
                   fn caller() { m1::shared(); }\n";
        let (ws, g) = graph_for(src);
        let reach = g.reachable(&[id_of(&ws, "caller")]);
        assert!(reach[id_of(&ws, "one")], "m1::shared resolves into m1");
        assert!(!reach[id_of(&ws, "two")], "m2 stays unreachable");
    }

    #[test]
    fn coreachability_finds_sink_feeders() {
        let (ws, g) = graph_for(
            "fn writer() {}\nfn builds() { writer(); }\nfn feeds() { builds(); }\nfn unrelated() {}\n",
        );
        let can_reach = g.coreachable(&[id_of(&ws, "writer")]);
        assert!(can_reach[id_of(&ws, "feeds")]);
        assert!(can_reach[id_of(&ws, "builds")]);
        assert!(!can_reach[id_of(&ws, "unrelated")]);
    }

    #[test]
    fn std_type_calls_produce_no_edges() {
        let (ws, g) = graph_for("fn f() { let v: Vec<u8> = Vec::new(); let _ = v.len(); }\n");
        assert!(
            g.edges[id_of(&ws, "f")].is_empty(),
            "Vec::new must not edge"
        );
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let src = "fn generic<T>() {}\nfn caller() { generic::<u32>(); helper::<Vec<u8>>(); }\nfn helper<T>() {}\n";
        let (ws, g) = graph_for(src);
        let reach = g.reachable(&[id_of(&ws, "caller")]);
        assert!(reach[id_of(&ws, "generic")]);
        assert!(reach[id_of(&ws, "helper")]);
    }
}
