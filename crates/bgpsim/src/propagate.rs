//! Per-origin Gao–Rexford route propagation.
//!
//! Three phases, each a deterministic bucket-queue Dijkstra over unit(ish)
//! weights (prepending adds 2):
//!
//! 1. **up**: the origin's route climbs customer→provider and sibling edges
//!    (customer-class routes). Partial-transit edges mark the route *scoped*
//!    at the provider: it is used and exported downward but never upward or
//!    laterally.
//! 2. **across**: every unscoped customer-class holder exports to its peers
//!    (one peer hop, peer-class routes).
//! 3. **down**: every route holder exports to customers (and siblings),
//!    provider-class routes flooding the customer cones.
//!
//! A [`Scope`] narrows phase 3 to the nodes whose routes the caller reads
//! (the vantage points, say) and their provider/sibling ancestors, the only
//! nodes from which a provider route can reach them. Phases 1 and 2 stay
//! whole-graph: a customer or peer route can come from anywhere below.
//!
//! Route selection: class (customer < peer < provider), then path length,
//! then lowest next-hop ASN — the standard simulation tie-break.

use crate::simgraph::SimGraph;
use asgraph::Asn;
use serde::{Deserialize, Serialize};

/// How a route was learned, in preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RouteClass {
    /// Originated by the AS itself, or learned from a customer/sibling chain.
    Customer,
    /// Learned from a settlement-free peer.
    Peer,
    /// Learned from a transit provider.
    Provider,
}

const CLASS_NONE: u8 = u8::MAX;
const NO_PARENT: u32 = u32::MAX;

/// Routing outcome of one origin's announcement: per-node best route as a
/// parent-pointer forest.
///
/// After a propagation by [`Propagator::new`] every node's route is exact.
/// After one by [`Propagator::with_scope`] the routes are exact only at the
/// scope's nodes. Outside the scope, customer- and peer-class routes are
/// still exact (phases 1 and 2 run whole-graph), but no node holds a
/// provider-class route, so [`OriginRoutes::reached`] undercounts.
#[derive(Debug, Clone)]
pub struct OriginRoutes {
    origin: u32,
    class: Vec<u8>,
    len: Vec<u16>,
    parent: Vec<u32>,
    scoped: Vec<bool>,
    prepended: Vec<bool>,
}

impl OriginRoutes {
    /// An empty result buffer for [`Propagator::propagate_into`]; holds no
    /// routes until a propagation fills it. Reusing one buffer across origins
    /// keeps per-origin propagation allocation-free in steady state.
    #[must_use]
    pub fn reusable() -> Self {
        OriginRoutes {
            origin: 0,
            class: Vec::new(),
            len: Vec::new(),
            parent: Vec::new(),
            scoped: Vec::new(),
            prepended: Vec::new(),
        }
    }

    /// Re-initialises for a fresh origin, keeping the allocations.
    fn reset(&mut self, origin: u32, n: usize) {
        self.origin = origin;
        self.class.clear();
        self.class.resize(n, CLASS_NONE);
        self.len.clear();
        self.len.resize(n, u16::MAX);
        self.parent.clear();
        self.parent.resize(n, NO_PARENT);
        self.scoped.clear();
        self.scoped.resize(n, false);
        self.prepended.clear();
        self.prepended.resize(n, false);
    }

    /// The origin node id.
    #[must_use]
    pub fn origin(&self) -> u32 {
        self.origin
    }

    /// `true` if `node` has a route to the origin.
    #[must_use]
    pub fn has_route(&self, node: u32) -> bool {
        self.class[node as usize] != CLASS_NONE
    }

    /// The class of `node`'s best route.
    #[must_use]
    pub fn class(&self, node: u32) -> Option<RouteClass> {
        match self.class[node as usize] {
            0 => Some(RouteClass::Customer),
            1 => Some(RouteClass::Peer),
            2 => Some(RouteClass::Provider),
            _ => None,
        }
    }

    /// `true` if `node`'s best route is scoped by a partial-transit tag.
    #[must_use]
    pub fn scoped(&self, node: u32) -> bool {
        self.scoped[node as usize]
    }

    /// AS-path length of `node`'s best route (prepending included).
    #[must_use]
    pub fn path_len(&self, node: u32) -> Option<u16> {
        self.has_route(node).then(|| self.len[node as usize])
    }

    /// Reconstructs `node`'s AS path, node first and origin last, with
    /// prepending expanded. Returns `None` if `node` has no route.
    #[must_use]
    pub fn path(&self, node: u32, g: &SimGraph) -> Option<Vec<Asn>> {
        let mut hops = Vec::with_capacity(usize::from(self.path_len(node)?) + 1);
        self.path_into(node, g, &mut hops).then_some(hops)
    }

    /// [`OriginRoutes::path`] into a reused buffer, which it clears first.
    /// Returns `false`, leaving `hops` empty, if `node` has no route.
    pub fn path_into(&self, node: u32, g: &SimGraph, hops: &mut Vec<Asn>) -> bool {
        hops.clear();
        if !self.has_route(node) {
            return false;
        }
        let mut cur = node;
        loop {
            hops.push(g.asn(cur));
            let parent = self.parent[cur as usize];
            if parent == NO_PARENT || cur == self.origin {
                break;
            }
            if self.prepended[cur as usize] {
                // The exporter (parent) prepended itself twice.
                hops.push(g.asn(parent));
                hops.push(g.asn(parent));
            }
            cur = parent;
        }
        true
    }

    /// Count of nodes holding a route.
    #[must_use]
    pub fn reached(&self) -> usize {
        self.class.iter().filter(|c| **c != CLASS_NONE).count()
    }
}

/// Candidate route during relaxation.
#[derive(Clone, Copy)]
struct Candidate {
    node: u32,
    len: u16,
    parent: u32,
    scoped: bool,
}

/// Deterministic bucket queue keyed by path length.
struct BucketQueue {
    buckets: Vec<Vec<Candidate>>,
    cursor: usize,
}

impl BucketQueue {
    fn new() -> Self {
        BucketQueue {
            buckets: Vec::new(),
            cursor: 0,
        }
    }

    fn push(&mut self, c: Candidate) {
        let len = usize::from(c.len);
        if self.buckets.len() <= len {
            self.buckets.resize_with(len + 1, Vec::new);
        }
        self.buckets[len].push(c);
    }

    fn pop(&mut self) -> Option<Candidate> {
        while self.cursor < self.buckets.len() {
            if let Some(c) = self.buckets[self.cursor].pop() {
                return Some(c);
            }
            self.cursor += 1;
        }
        None
    }

    /// Empties the queue while keeping every bucket's capacity.
    fn reset(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.cursor = 0;
    }
}

/// Reusable per-worker propagation scratch: the bucket queue, the
/// settled-node stamps and the list of phase 1's route holders survive
/// across origins, so steady-state propagation performs no per-origin
/// allocation. The settled set uses the epoch trick (cf. `ConeScratch` in
/// `asgraph`): bumping the epoch invalidates the whole array in O(1)
/// instead of an O(n) clear per Dijkstra pass.
pub struct PropScratch {
    q: BucketQueue,
    done: Vec<u32>,
    epoch: u32,
    /// The nodes phase 1 settled with an unscoped route, which phase 2
    /// exports to their peers; it reads them sorted, not all n nodes.
    climbed: Vec<u32>,
}

impl PropScratch {
    /// A fresh scratch; grows lazily to the graph size on first use.
    #[must_use]
    pub fn new() -> Self {
        PropScratch {
            q: BucketQueue::new(),
            done: Vec::new(),
            epoch: 0,
            climbed: Vec::new(),
        }
    }

    /// Starts a new Dijkstra pass: empty queue, nothing settled.
    fn begin_pass(&mut self, n: usize) {
        if self.done.len() < n {
            self.done.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.done.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.q.reset();
    }

    fn is_done(&self, node: usize) -> bool {
        self.done[node] == self.epoch
    }

    fn mark_done(&mut self, node: usize) {
        self.done[node] = self.epoch;
    }
}

impl Default for PropScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The nodes whose routes a propagation must get right, closed under
/// "provider of" and "sibling of", with each one's customer and sibling
/// edges that stay inside the set.
///
/// Phase 3 moves provider-class routes down customer and sibling edges, so
/// a node's provider route comes from a provider or a sibling, which the
/// closure keeps in the scope. A node outside the scope therefore never
/// hands a scope node a route, and phase 3 may skip it. (Not to be
/// confused with a partial-transit *scoped route*, [`OriginRoutes::scoped`].)
#[derive(Debug, Clone)]
pub struct Scope<'g> {
    g: &'g SimGraph,
    /// The scope's nodes, ascending.
    nodes: Vec<u32>,
    /// `down[start[v]..start[v + 1]]` are `v`'s customers inside the scope,
    /// then its siblings, in CSR order; the row is empty outside the scope.
    start: Vec<u32>,
    down: Vec<u32>,
}

impl<'g> Scope<'g> {
    /// The scope of `targets`: the targets, their providers and siblings,
    /// theirs, and so on. Panics if a target is not a node of `g`.
    #[must_use]
    pub fn new(g: &'g SimGraph, targets: impl IntoIterator<Item = u32>) -> Self {
        let csr = g.csr();
        let mut member = vec![false; g.len()];
        let mut stack: Vec<u32> = targets.into_iter().collect();
        while let Some(node) = stack.pop() {
            if !std::mem::replace(&mut member[node as usize], true) {
                stack.extend(csr.providers(node).iter().chain(csr.siblings(node)));
            }
        }
        let mut nodes = Vec::new();
        let mut start = Vec::with_capacity(g.len() + 1);
        let mut down = Vec::new();
        start.push(0);
        for v in 0..g.len() as u32 {
            if member[v as usize] {
                nodes.push(v);
                let customers = csr.customers(v).iter().copied();
                down.extend(customers.filter(|&c| member[c as usize]));
                down.extend_from_slice(csr.siblings(v));
            }
            start.push(down.len() as u32);
        }
        Scope {
            g,
            nodes,
            start,
            down,
        }
    }

    /// The scope's nodes, ascending.
    #[must_use]
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Number of nodes in the scope.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the scope has no nodes (no targets were given).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `node`'s customers inside the scope, then its siblings.
    fn down(&self, node: u32) -> &[u32] {
        let i = node as usize;
        &self.down[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// The propagation engine; borrow once, run per origin.
#[derive(Debug, Clone, Copy)]
pub struct Propagator<'g> {
    g: &'g SimGraph,
    /// `None`: every node is in scope, and phase 3 reads the CSR rows.
    scope: Option<&'g Scope<'g>>,
}

impl<'g> Propagator<'g> {
    /// Creates an engine over `g` that computes every node's route.
    #[must_use]
    pub fn new(g: &'g SimGraph) -> Self {
        Propagator { g, scope: None }
    }

    /// Creates an engine over the scope's graph that computes the routes
    /// of the scope's nodes only: after a propagation, [`OriginRoutes`] is
    /// exact at the scope's nodes, ties included, and nowhere else (see
    /// there). Phases 1 and 2 still run over the whole graph; phase 3
    /// pushes and relaxes only inside the scope.
    #[must_use]
    pub fn with_scope(scope: &'g Scope<'g>) -> Self {
        Propagator {
            g: scope.g,
            scope: Some(scope),
        }
    }

    /// The nodes phase 3 starts from, ascending: every node, or the scope's.
    fn seeds(&self) -> impl Iterator<Item = u32> + 'g {
        let (all, listed) = match self.scope {
            None => (0..self.g.len() as u32, &[][..]),
            Some(scope) => (0..0, scope.nodes()),
        };
        all.chain(listed.iter().copied())
    }

    /// The edges phase 3 relaxes from `node`, as two slices in CSR order:
    /// its customers and its siblings, or its in-scope row.
    fn down_edges(&self, node: u32) -> (&'g [u32], &'g [u32]) {
        match self.scope {
            None => (self.g.csr().customers(node), self.g.csr().siblings(node)),
            Some(scope) => (scope.down(node), &[]),
        }
    }

    /// Runs full propagation of `origin`'s announcement into fresh buffers.
    #[must_use]
    pub fn propagate(&self, origin: u32) -> OriginRoutes {
        let mut r = OriginRoutes::reusable();
        self.propagate_into(origin, None, &mut r, &mut PropScratch::new());
        r
    }

    /// Propagates `origin`'s announcement, filling `r` in place and using
    /// `s` for the queue and settled set. When `allowed_provider` is `Some`
    /// (per-prefix traffic engineering), the origin announces to that
    /// provider, to its siblings and to its customers, but not to its other
    /// providers or to its peers. The ASes that hear it re-export as usual.
    ///
    /// A worker that reuses one `(OriginRoutes, PropScratch)` pair across a
    /// whole origin stream allocates nothing per origin once the buffers have
    /// grown to the graph size; the routes do not depend on the buffers'
    /// history.
    pub fn propagate_into(
        &self,
        origin: u32,
        allowed_provider: Option<u32>,
        r: &mut OriginRoutes,
        s: &mut PropScratch,
    ) {
        let n = self.g.len();
        r.reset(origin, n);
        let g = self.g;
        let csr = g.csr();

        // `better`: does candidate (len, parent) beat node's stored route of
        // the same class? Equal lengths are broken by the node's own
        // deterministic next-hop preference (per-router diversity).
        let better = |r: &OriginRoutes, node: u32, len: u16, parent: u32| -> bool {
            let i = node as usize;
            len < r.len[i]
                || (len == r.len[i]
                    && r.parent[i] != NO_PARENT
                    && g.tie_pref(node, parent, origin) < g.tie_pref(node, r.parent[i], origin))
        };

        // ---- Phase 1: customer routes climb up ------------------------------
        r.class[origin as usize] = 0;
        r.len[origin as usize] = 0;
        r.parent[origin as usize] = NO_PARENT;
        s.begin_pass(n);
        s.climbed.clear();
        s.q.push(Candidate {
            node: origin,
            len: 0,
            parent: NO_PARENT,
            scoped: false,
        });
        while let Some(c) = s.q.pop() {
            let i = c.node as usize;
            if s.is_done(i) || r.len[i] != c.len || r.parent[i] != c.parent {
                continue; // stale entry
            }
            s.mark_done(i);
            if r.scoped[i] {
                continue; // scoped routes never propagate upward
            }
            s.climbed.push(c.node);
            let prepend = g.prepends(c.node);
            let weight: u16 = if prepend { 3 } else { 1 };
            for &provider in csr.providers(c.node) {
                if c.node == origin {
                    if let Some(allowed) = allowed_provider {
                        if provider != allowed {
                            continue;
                        }
                    }
                }
                let cand_len = c.len.saturating_add(weight);
                if r.class[provider as usize] == 0 && !better(r, provider, cand_len, c.node) {
                    continue;
                }
                if r.class[provider as usize] == 0 && s.is_done(provider as usize) {
                    continue;
                }
                let partial = g.is_partial(c.node, provider);
                r.class[provider as usize] = 0;
                r.len[provider as usize] = cand_len;
                r.parent[provider as usize] = c.node;
                r.scoped[provider as usize] = partial;
                r.prepended[provider as usize] = prepend;
                s.q.push(Candidate {
                    node: provider,
                    len: cand_len,
                    parent: c.node,
                    scoped: partial,
                });
            }
            // Siblings exchange everything; sibling-learned stays customer
            // class and unscoped links keep climbing.
            for &sib in csr.siblings(c.node) {
                let cand_len = c.len.saturating_add(1);
                if r.class[sib as usize] == 0
                    && (s.is_done(sib as usize) || !better(r, sib, cand_len, c.node))
                {
                    continue;
                }
                r.class[sib as usize] = 0;
                r.len[sib as usize] = cand_len;
                r.parent[sib as usize] = c.node;
                r.scoped[sib as usize] = c.scoped;
                r.prepended[sib as usize] = false;
                s.q.push(Candidate {
                    node: sib,
                    len: cand_len,
                    parent: c.node,
                    scoped: c.scoped,
                });
            }
        }

        // ---- Phase 2: one peer hop -------------------------------------------
        // Holders of unscoped customer-class routes, which phase 1 settled,
        // export to peers in ascending node order. A TE-pinned origin does
        // not announce to its peers.
        s.climbed.sort_unstable();
        for &u in &s.climbed {
            if u == origin && allowed_provider.is_some() {
                continue;
            }
            let prepend = g.prepends(u);
            let weight: u16 = if prepend { 3 } else { 1 };
            let cand_len = r.len[u as usize].saturating_add(weight);
            for &v in csr.peers(u) {
                let vi = v as usize;
                match r.class[vi] {
                    0 => {} // customer route is strictly better
                    1 => {
                        if better(r, v, cand_len, u) {
                            r.len[vi] = cand_len;
                            r.parent[vi] = u;
                            r.prepended[vi] = prepend;
                        }
                    }
                    _ => {
                        r.class[vi] = 1;
                        r.len[vi] = cand_len;
                        r.parent[vi] = u;
                        r.scoped[vi] = false;
                        r.prepended[vi] = prepend;
                    }
                }
            }
        }

        // ---- Phase 3: flood down customer cones -------------------------------
        // Only the scope's nodes are pushed and relaxed. A scope node's
        // candidates come from its providers and siblings, which are in the
        // scope, and the scope's entries keep their relative order in every
        // bucket, so even an exact `tie_pref` tie resolves as in a full run.
        s.begin_pass(n);
        for i in self.seeds() {
            if r.class[i as usize] != CLASS_NONE {
                s.q.push(Candidate {
                    node: i,
                    len: r.len[i as usize],
                    parent: r.parent[i as usize],
                    scoped: r.scoped[i as usize],
                });
            }
        }
        while let Some(c) = s.q.pop() {
            let i = c.node as usize;
            if s.is_done(i) || r.len[i] != c.len || r.parent[i] != c.parent {
                continue;
            }
            s.mark_done(i);
            let cand_len = c.len.saturating_add(1);
            let (customers, siblings) = self.down_edges(c.node);
            for &next in customers.iter().chain(siblings) {
                let ni = next as usize;
                // Adopt only if no better-class route exists.
                let adopt = match r.class[ni] {
                    CLASS_NONE => true,
                    2 => !s.is_done(ni) && better(r, next, cand_len, c.node),
                    _ => false,
                };
                if adopt {
                    r.class[ni] = 2;
                    r.len[ni] = cand_len;
                    r.parent[ni] = c.node;
                    r.scoped[ni] = false;
                    r.prepended[ni] = false;
                    s.q.push(Candidate {
                        node: next,
                        len: cand_len,
                        parent: c.node,
                        scoped: false,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::{Link, Rel};
    use topogen::{generate, Topology, TopologyConfig};

    fn small_world() -> (Topology, SimGraph) {
        let topo = generate(&TopologyConfig::small(11));
        let g = SimGraph::build(&topo);
        (topo, g)
    }

    #[test]
    fn origin_reaches_everyone_in_connected_topology() {
        let (topo, g) = small_world();
        let engine = Propagator::new(&g);
        // Any stub origin should reach (be reachable from) every AS: global
        // reachability via the Tier-1 clique.
        let stub = topo
            .ases
            .values()
            .find(|i| i.tier == topogen::TierClass::Stub && i.special.is_none())
            .expect("generated topology contains plain stubs")
            .asn;
        let routes = engine.propagate(g.node(stub).expect("stub is in the sim graph"));
        let reached = routes.reached();
        assert!(
            reached as f64 > 0.99 * g.len() as f64,
            "only {reached}/{} reached",
            g.len()
        );
    }

    #[test]
    fn reused_scratch_matches_fresh_allocation() {
        let (_, g) = small_world();
        let engine = Propagator::new(&g);
        let mut routes = OriginRoutes::reusable();
        let mut scratch = PropScratch::new();
        // Reuse one buffer pair across many origins (including TE masks) and
        // compare against the allocating path every time.
        for origin in (0..g.len() as u32).step_by(41) {
            let mask = g.csr().providers(origin).first().copied();
            for m in [None, mask] {
                engine.propagate_into(origin, m, &mut routes, &mut scratch);
                let mut fresh = OriginRoutes::reusable();
                engine.propagate_into(origin, m, &mut fresh, &mut PropScratch::new());
                assert_eq!(routes.reached(), fresh.reached(), "origin {origin}");
                for node in 0..g.len() as u32 {
                    assert_eq!(routes.class(node), fresh.class(node));
                    assert_eq!(routes.path_len(node), fresh.path_len(node));
                    assert_eq!(routes.path(node, &g), fresh.path(node, &g));
                }
            }
        }
    }

    #[test]
    fn te_pinned_origin_announces_to_its_siblings_not_its_peers() {
        let (_, g) = small_world();
        let engine = Propagator::new(&g);
        let csr = g.csr();
        let mut routes = OriginRoutes::reusable();
        let mut scratch = PropScratch::new();
        let heard_from_origin = |r: &OriginRoutes, class: RouteClass, node: u32| {
            r.class(node) == Some(class) && r.parent[node as usize] == r.origin()
        };
        let a_peer_heard = |r: &OriginRoutes| {
            (0..g.len() as u32).any(|node| heard_from_origin(r, RouteClass::Peer, node))
        };
        let every_sibling_heard = |r: &OriginRoutes| {
            let siblings = csr.siblings(r.origin());
            siblings
                .iter()
                .all(|&sib| heard_from_origin(r, RouteClass::Customer, sib))
        };
        let mut peers_hear_unpinned = 0;
        for origin in 0..g.len() as u32 {
            if csr.providers(origin).is_empty() || csr.peers(origin).is_empty() {
                continue;
            }
            engine.propagate_into(origin, None, &mut routes, &mut scratch);
            peers_hear_unpinned += usize::from(a_peer_heard(&routes));
            for &allowed in csr.providers(origin) {
                engine.propagate_into(origin, Some(allowed), &mut routes, &mut scratch);
                let pinned = format!("origin {origin} pinned to provider {allowed}");
                assert!(!a_peer_heard(&routes), "{pinned} announced to a peer");
                assert!(every_sibling_heard(&routes), "{pinned} skipped a sibling");
            }
        }
        assert!(peers_hear_unpinned > 0, "no unpinned origin reached a peer");
    }

    #[test]
    fn paths_are_valley_free() {
        let (topo, g) = small_world();
        let engine = Propagator::new(&g);
        let rel_of = |link| topo.gt_rel(link).map(|gt| gt.base);
        let origins: Vec<u32> = (0..g.len() as u32).step_by(37).collect();
        for origin in origins {
            let routes = engine.propagate(origin);
            for node in (0..g.len() as u32).step_by(53) {
                let Some(path) = routes.path(node, &g) else {
                    continue;
                };
                asgraph::check_valley_free(rel_of, &path)
                    .unwrap_or_else(|v| panic!("{v} in path {path:?}"));
            }
        }
    }

    #[test]
    fn scoped_routes_never_cross_the_provider_laterally() {
        let (topo, g) = small_world();
        let engine = Propagator::new(&g);
        // Find a partial-transit customer of cogent.
        let cogent = g.node(topo.cogent).expect("cogent is in the sim graph");
        let partial_customer = g
            .csr()
            .customers(cogent)
            .iter()
            .copied()
            .find(|&c| g.is_partial(c, cogent))
            .expect("cogent has partial customers");
        let routes = engine.propagate(partial_customer);
        // Cogent itself has the route, scoped.
        assert!(routes.has_route(cogent));
        // No other Tier-1's best path may go through cogent: the scoped route
        // is never exported to peers.
        for t1 in &topo.tier1 {
            if *t1 == topo.cogent {
                continue;
            }
            let node = g.node(*t1).expect("tier-1 is in the sim graph");
            if let Some(path) = routes.path(node, &g) {
                let via_cogent = path
                    .windows(2)
                    .any(|w| w[0] == topo.cogent && w[1] != topo.cogent);
                // The path may *start* elsewhere; cogent must not appear as a
                // transit hop between the T1 and the origin.
                assert!(
                    !path.contains(&topo.cogent) || !via_cogent,
                    "scoped route leaked through cogent: {path:?}"
                );
                assert!(
                    !path[..path.len() - 1].contains(&topo.cogent),
                    "scoped route leaked through cogent: {path:?}"
                );
            }
        }
    }

    #[test]
    fn paths_terminate_at_origin_and_are_loop_free() {
        let (_, g) = small_world();
        let engine = Propagator::new(&g);
        let origin = 0u32;
        let routes = engine.propagate(origin);
        for node in 0..g.len() as u32 {
            if let Some(path) = routes.path(node, &g) {
                assert_eq!(
                    *path.last().expect("routed paths are non-empty"),
                    g.asn(origin)
                );
                assert_eq!(path[0], g.asn(node));
                let mut compressed = path.clone();
                compressed.dedup();
                let mut sorted = compressed.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), compressed.len(), "loop in {path:?}");
            }
        }
    }

    #[test]
    fn preference_customer_over_peer_over_provider() {
        // Hand-built diamond: origin O is customer of A and peer of B; B is
        // customer of A. A must pick the customer route (via B? no: direct).
        use asgraph::GtRel;
        use std::collections::BTreeMap;
        let mk = |n: u32| Asn(n);
        let mut links = BTreeMap::new();
        let l = |a: u32, b: u32| Link::new(mk(a), mk(b)).expect("distinct endpoints");
        // A(1) provider of O(10) and B(2); O peers with B.
        links.insert(l(1, 10), GtRel::simple(Rel::P2c { provider: mk(1) }));
        links.insert(l(1, 2), GtRel::simple(Rel::P2c { provider: mk(1) }));
        links.insert(l(2, 10), GtRel::simple(Rel::P2p));
        let mut ases = BTreeMap::new();
        for n in [1u32, 2, 10] {
            ases.insert(
                mk(n),
                topogen::AsInfo {
                    asn: mk(n),
                    region: asregistry::RirRegion::Arin,
                    allocated_region: asregistry::RirRegion::Arin,
                    country: "US".into(),
                    org: asregistry::org::OrgId(format!("@{n}")),
                    tier: topogen::TierClass::Transit,
                    special: None,
                    prefixes: vec![],
                    prefix_te: vec![],
                    manrs: false,
                    hijacker: false,
                    publishes_communities: true,
                    prepends: false,
                },
            );
        }
        let topo = Topology {
            ases,
            links,
            tier1: [mk(1)].into_iter().collect(),
            hypergiants: Default::default(),
            cogent: mk(1),
            collector_peers: vec![],
            ixps: vec![],
        };
        let g = SimGraph::build(&topo);
        let engine = Propagator::new(&g);
        let routes = engine.propagate(g.node(mk(10)).expect("origin is in the sim graph"));
        // B hears O via peer (len 1) and would hear via provider A (len 2):
        // peer wins by class.
        let b = g.node(mk(2)).expect("AS2 is in the sim graph");
        assert_eq!(routes.class(b), Some(RouteClass::Peer));
        assert_eq!(
            routes.path(b, &g).expect("b has a route"),
            vec![mk(2), mk(10)]
        );
        // A hears O directly from its customer: class customer, len 1.
        let a = g.node(mk(1)).expect("AS1 is in the sim graph");
        assert_eq!(routes.class(a), Some(RouteClass::Customer));
        assert_eq!(
            routes.path(a, &g).expect("a has a route"),
            vec![mk(1), mk(10)]
        );
    }

    #[test]
    fn prepending_lengthens_observed_paths() {
        let (topo, g) = small_world();
        let engine = Propagator::new(&g);
        // Find a prepending AS with a provider.
        let prepender = (0..g.len() as u32)
            .find(|&i| g.prepends(i) && !g.csr().providers(i).is_empty())
            .expect("some AS prepends");
        let routes = engine.propagate(prepender);
        let provider = g.csr().providers(prepender)[0];
        if let Some(path) = routes.path(provider, &g) {
            if path.len() > 2 {
                let dup = path.windows(2).filter(|w| w[0] == w[1]).count();
                assert!(dup >= 2, "expected prepending in {path:?}");
            }
        }
        let _ = topo;
    }
}
