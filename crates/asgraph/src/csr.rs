//! Role-segmented compressed-sparse-row adjacency.
//!
//! [`CsrGraph`] is the one dense adjacency layout of the workspace: ASNs are
//! interned to `u32` ids ([`AsIndexer`]) and each relationship role
//! (providers / customers / peers / siblings) becomes one CSR array — an
//! `offsets` prefix-sum plus a flat `targets` buffer — so a node's neighbor
//! list is a contiguous `&[u32]` slice. The analysis kernels (customer-cone
//! BFS, class partition) and the BGP propagator walk these slices instead of
//! chasing `BTreeMap`/`BTreeSet` nodes, and the per-worker [`ConeScratch`]
//! makes the cone BFS allocation-free after warm-up: visited state is an
//! epoch-stamped `Vec<u32>` that is *never cleared* between cones — bumping
//! the epoch invalidates all stamps in O(1).
//!
//! Neighbor slices are sorted by id (= by ASN, since ids are assigned in
//! ASN order), so CSR iteration reproduces the BTree iteration order
//! bit-for-bit.

use crate::asn::Asn;
use crate::index::AsIndexer;
use crate::link::Link;
use crate::paths::RecentPairs;
use crate::rel::Rel;
use serde::{Deserialize, Serialize};

/// The role of a neighbor relative to a given AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NeighborRole {
    /// The neighbor provides transit to the given AS.
    Provider,
    /// The neighbor buys transit from the given AS.
    Customer,
    /// Settlement-free peer.
    Peer,
    /// Same-organisation sibling.
    Sibling,
}

impl NeighborRole {
    /// Every role, in the order of [`CsrGraph`]'s segments.
    pub const ALL: [NeighborRole; 4] = [
        NeighborRole::Provider,
        NeighborRole::Customer,
        NeighborRole::Peer,
        NeighborRole::Sibling,
    ];

    /// The role the other endpoint of a link labelled `rel` plays relative
    /// to its endpoint `asn`.
    #[must_use]
    pub fn seen_from(asn: Asn, rel: Rel) -> NeighborRole {
        match rel {
            Rel::P2c { provider } if provider == asn => NeighborRole::Customer,
            Rel::P2c { .. } => NeighborRole::Provider,
            Rel::P2p => NeighborRole::Peer,
            Rel::S2s => NeighborRole::Sibling,
        }
    }
}

/// One role's adjacency in compressed-sparse-row form. Fields are
/// crate-visible so the binary codec (`crate::io`) can rebuild a role
/// from validated arrays without an intermediate copy.
#[derive(Debug, Clone, Default)]
pub(crate) struct Csr {
    /// `offsets[i]..offsets[i + 1]` indexes `targets` for node `i`;
    /// length `node_count + 1`.
    pub(crate) offsets: Vec<u32>,
    /// Concatenated neighbor ids, strictly ascending within each node's
    /// segment.
    pub(crate) targets: Vec<u32>,
}

impl Csr {
    fn neighbors(&self, id: u32) -> &[u32] {
        let lo = self.offsets[id as usize] as usize;
        let hi = self.offsets[id as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// `true` if every node's segment is strictly ascending. Requires
    /// offsets that are a monotone prefix sum over `targets`.
    pub(crate) fn segments_ascending(&self) -> bool {
        self.offsets.windows(2).all(|w| {
            self.targets[w[0] as usize..w[1] as usize]
                .windows(2)
                .all(|pair| pair[0] < pair[1])
        })
    }
}

/// A relationship-labelled AS graph in dense CSR form, immutable once
/// built; all ids refer to [`CsrGraph::indexer`].
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    pub(crate) indexer: AsIndexer,
    /// One CSR per [`NeighborRole`], at `role as usize`: providers,
    /// customers, peers, siblings (also the codec's order).
    pub(crate) roles: [Csr; 4],
}

impl CsrGraph {
    /// Builds the CSR of a relationship labelling over the ASes its links
    /// touch: `&BTreeMap<Link, Rel>` or `&AsGraph`, iterated in ascending
    /// link order.
    #[must_use]
    pub fn build<'a, I>(rels: I) -> Self
    where
        I: IntoIterator<Item = (&'a Link, &'a Rel)>,
        I::IntoIter: Clone,
    {
        let rels = rels.into_iter();
        let indexer =
            AsIndexer::from_unsorted(rels.clone().flat_map(|(l, _)| [l.a(), l.b()]).collect());
        let csr = CsrGraph::from_links(indexer, rels.map(|(l, r)| (*l, *r)));
        breval_obs::counter("csr_nodes_indexed", csr.node_count() as u64);
        csr
    }

    /// Counting-sorts `(link, rel)` pairs into the four role segments of the
    /// nodes of `indexer`, in O(1) allocations; links with an endpoint
    /// outside `indexer` are skipped. `links` must come in strictly
    /// ascending [`Link`] order, as any `BTreeMap<Link, _>` iterates: each
    /// node's neighbors then arrive in ascending id order, so every segment
    /// comes out sorted (debug builds assert it).
    #[must_use]
    pub fn from_links<I>(indexer: AsIndexer, links: I) -> Self
    where
        I: IntoIterator<Item = (Link, Rel)>,
        I::IntoIter: Clone,
    {
        let links = links.into_iter();
        let n = indexer.len();
        let mut roles: [Csr; 4] = std::array::from_fn(|_| Csr {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        });
        // Pass 1 counts each node's segment length into `offsets[node + 1]`.
        // An exclusive scan turns that slot into the node's write cursor at
        // its segment start; pass 2 advances it to the segment end, which
        // leaves the prefix sum.
        for_each_edge(&indexer, links.clone(), |role, node, _| {
            roles[role as usize].offsets[node as usize + 1] += 1;
        });
        for csr in &mut roles {
            let mut start = 0;
            for slot in csr.offsets.iter_mut().skip(1) {
                start += std::mem::replace(slot, start);
            }
            csr.targets = vec![0; start as usize];
        }
        for_each_edge(&indexer, links, |role, node, target| {
            let csr = &mut roles[role as usize];
            let cursor = &mut csr.offsets[node as usize + 1];
            csr.targets[*cursor as usize] = target;
            *cursor += 1;
        });
        debug_assert!(
            roles.iter().all(Csr::segments_ascending),
            "CsrGraph::from_links requires links in strictly ascending order"
        );
        CsrGraph { indexer, roles }
    }

    /// The ASN ↔ id bijection this graph was built with.
    #[must_use]
    pub fn indexer(&self) -> &AsIndexer {
        &self.indexer
    }

    /// Number of nodes (= `indexer().len()`).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.indexer.len()
    }

    /// Transit providers of node `id`, sorted by id.
    #[must_use]
    pub fn providers(&self, id: u32) -> &[u32] {
        self.roles[NeighborRole::Provider as usize].neighbors(id)
    }

    /// Transit customers of node `id`, sorted by id.
    #[must_use]
    pub fn customers(&self, id: u32) -> &[u32] {
        self.roles[NeighborRole::Customer as usize].neighbors(id)
    }

    /// Settlement-free peers of node `id`, sorted by id.
    #[must_use]
    pub fn peers(&self, id: u32) -> &[u32] {
        self.roles[NeighborRole::Peer as usize].neighbors(id)
    }

    /// Same-organisation siblings of node `id`, sorted by id.
    #[must_use]
    pub fn siblings(&self, id: u32) -> &[u32] {
        self.roles[NeighborRole::Sibling as usize].neighbors(id)
    }

    /// The role `neighbor` plays relative to node `id`, or `None` if no
    /// link joins them: one binary search per role segment of `id`;
    /// allocation-free.
    ///
    /// # Panics
    /// If `id` is out of range for the indexer.
    #[must_use]
    pub fn role_of(&self, id: u32, neighbor: u32) -> Option<NeighborRole> {
        NeighborRole::ALL.into_iter().find(|&role| {
            self.roles[role as usize]
                .neighbors(id)
                .binary_search(&neighbor)
                .is_ok()
        })
    }

    /// Size of the customer cone of `id` (self included), computed by an
    /// allocation-free BFS over the customer CSR: `scratch` is reused across
    /// calls, so after the first cone on a graph of this size no allocation
    /// happens at all.
    #[must_use]
    pub fn customer_cone_size(&self, id: u32, scratch: &mut ConeScratch) -> usize {
        self.cone_bfs(id, scratch);
        scratch.queue.len()
    }

    /// The customer-cone member ids of `id` (self included), in BFS order.
    /// The returned slice borrows `scratch` and is valid until its next use.
    #[must_use]
    pub fn customer_cone_ids<'s>(&self, id: u32, scratch: &'s mut ConeScratch) -> &'s [u32] {
        self.cone_bfs(id, scratch);
        &scratch.queue
    }

    /// BFS from `id` over customer edges; on return `scratch.queue` holds
    /// the visited set.
    fn cone_bfs(&self, id: u32, scratch: &mut ConeScratch) {
        scratch.begin(self.node_count());
        scratch.mark(id);
        // breval-lint: allow(L010) -- push into scratch queue whose capacity was reserved by begin()
        scratch.queue.push(id);
        let mut head = 0;
        while head < scratch.queue.len() {
            let current = scratch.queue[head];
            head += 1;
            for &customer in self.customers(current) {
                if scratch.mark(customer) {
                    // breval-lint: allow(L010) -- push into scratch queue whose capacity was reserved by begin()
                    scratch.queue.push(customer);
                }
            }
        }
    }
}

/// Finds the roles of hop pairs in one [`CsrGraph`], answering pairs seen
/// recently from a memo instead of up to four binary searches. Paths
/// repeat their hop pairs heavily, so most pairs are answered with one
/// load.
pub struct NeighborRoles<'a> {
    graph: &'a CsrGraph,
    /// The answer per pair: a role as its index in [`NeighborRole::ALL`],
    /// or [`NO_ROLE`].
    recent: RecentPairs,
}

/// The memo's answer for a pair that no link joins.
const NO_ROLE: u32 = NeighborRole::ALL.len() as u32;

impl<'a> NeighborRoles<'a> {
    /// A lookup into the roles of `graph`.
    #[must_use]
    pub fn new(graph: &'a CsrGraph) -> Self {
        NeighborRoles {
            graph,
            recent: RecentPairs::new(),
        }
    }

    /// [`CsrGraph::role_of`]`(id, neighbor)`; allocation-free.
    ///
    /// # Panics
    /// If `id` is out of range for the graph's indexer.
    pub fn role_of(&mut self, id: u32, neighbor: u32) -> Option<NeighborRole> {
        let graph = self.graph;
        let code = self.recent.get_or(id, neighbor, || {
            graph
                .role_of(id, neighbor)
                .map_or(NO_ROLE, |role| role as u32)
        });
        NeighborRole::ALL.get(code as usize).copied()
    }
}

/// Calls `edge(role, node, neighbor)` for both directions of every link
/// whose endpoints are both in `indexer`, in link order; `neighbor` plays
/// `role` relative to `node`.
fn for_each_edge(
    indexer: &AsIndexer,
    links: impl Iterator<Item = (Link, Rel)>,
    mut edge: impl FnMut(NeighborRole, u32, u32),
) {
    for (link, rel) in links {
        let (Some(a), Some(b)) = (indexer.id(link.a()), indexer.id(link.b())) else {
            continue;
        };
        edge(NeighborRole::seen_from(link.a(), rel), a, b);
        edge(NeighborRole::seen_from(link.b(), rel), b, a);
    }
}

/// Reusable per-worker BFS state: an epoch-stamped visited array plus the
/// BFS queue. Designed for `breval_par::parallel_map_init` — one scratch per
/// worker, thousands of cones each, zero allocation after the first.
#[derive(Debug, Default)]
pub struct ConeScratch {
    /// `visited[i] == epoch` means node `i` was visited in the current BFS.
    visited: Vec<u32>,
    /// Current BFS generation; bumping it invalidates all stamps in O(1).
    epoch: u32,
    /// BFS frontier and, once drained, the visited set of the current cone.
    queue: Vec<u32>,
}

impl ConeScratch {
    /// A fresh scratch (allocates lazily on first use).
    #[must_use]
    pub fn new() -> Self {
        ConeScratch::default()
    }

    /// Prepares for a BFS over `n` nodes: sizes the visited array and the
    /// queue for `n` nodes if the graph size changed, and advances the epoch
    /// (wrapping safely — on overflow the array is zeroed so stale stamps
    /// can never collide).
    fn begin(&mut self, n: usize) {
        if self.visited.len() != n {
            // breval-lint: allow(L010) -- sanctioned scratch growth point: begin() amortizes allocation across cones
            (self.visited, self.queue) = (vec![0; n], Vec::with_capacity(n));
            self.epoch = 0;
        }
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
    }

    /// Marks `id` visited; `true` if it was not already visited this epoch.
    fn mark(&mut self, id: u32) -> bool {
        let slot = &mut self.visited[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn l(a: u32, b: u32) -> Link {
        Link::new(Asn(a), Asn(b)).expect("distinct endpoints")
    }

    fn p2c(provider: u32) -> Rel {
        Rel::P2c {
            provider: Asn(provider),
        }
    }

    fn sample() -> BTreeMap<Link, Rel> {
        BTreeMap::from([
            (l(1, 2), p2c(1)),
            (l(2, 3), p2c(2)),
            (l(2, 4), p2c(2)),
            (l(2, 5), Rel::P2p),
            (l(2, 6), Rel::S2s),
        ])
    }

    #[test]
    fn csr_mirrors_graph_roles() {
        let g = sample();
        let csr = CsrGraph::build(&g);
        let id = |a: u32| csr.indexer().id(Asn(a)).unwrap();
        let asns =
            |ids: &[u32]| -> Vec<Asn> { ids.iter().map(|&i| csr.indexer().asn(i)).collect() };
        assert_eq!(csr.node_count(), 6);
        assert_eq!(asns(csr.customers(id(2))), vec![Asn(3), Asn(4)]);
        assert_eq!(asns(csr.providers(id(2))), vec![Asn(1)]);
        assert_eq!(asns(csr.peers(id(2))), vec![Asn(5)]);
        assert_eq!(asns(csr.siblings(id(2))), vec![Asn(6)]);
        assert!(csr.customers(id(3)).is_empty());
        for (link, rel) in &g {
            let (a, b) = (id(link.a().0), id(link.b().0));
            assert_eq!(
                csr.role_of(a, b),
                Some(NeighborRole::seen_from(link.a(), *rel))
            );
            assert_eq!(
                csr.role_of(b, a),
                Some(NeighborRole::seen_from(link.b(), *rel))
            );
        }
        assert_eq!(csr.role_of(id(3), id(4)), None);
        let mut roles = NeighborRoles::new(&csr);
        for _ in 0..2 {
            for (a, b) in [(2, 1), (2, 3), (2, 5), (2, 6), (1, 2), (3, 4), (4, 3)] {
                assert_eq!(roles.role_of(id(a), id(b)), csr.role_of(id(a), id(b)));
            }
        }
    }

    #[test]
    fn from_links_skips_links_outside_the_indexer() {
        let indexer = AsIndexer::from_sorted(vec![Asn(1), Asn(2), Asn(3)]);
        let links = [(l(1, 2), p2c(1)), (l(1, 3), Rel::P2p), (l(2, 9), p2c(9))];
        let csr = CsrGraph::from_links(indexer, links);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.providers(1), &[0]);
        assert_eq!(csr.customers(0), &[1]);
        assert_eq!(csr.peers(0), &[2]);
        assert_eq!(csr.peers(2), &[0]);
        let edges: usize = csr.roles.iter().map(|role| role.targets.len()).sum();
        assert_eq!(edges, 4);
    }

    #[test]
    fn cone_bfs_matches_reference() {
        let g = sample();
        let csr = CsrGraph::build(&g);
        let mut scratch = ConeScratch::new();
        let id1 = csr.indexer().id(Asn(1)).unwrap();
        // Cone of 1 = {1, 2, 3, 4}: peers/siblings do not extend it.
        assert_eq!(csr.customer_cone_size(id1, &mut scratch), 4);
        let mut cone: Vec<Asn> = csr
            .customer_cone_ids(id1, &mut scratch)
            .iter()
            .map(|&i| csr.indexer().asn(i))
            .collect();
        cone.sort();
        assert_eq!(cone, vec![Asn(1), Asn(2), Asn(3), Asn(4)]);
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_cones() {
        let g = sample();
        let csr = CsrGraph::build(&g);
        let mut scratch = ConeScratch::new();
        let sizes: Vec<usize> = (0..csr.node_count() as u32)
            .map(|i| csr.customer_cone_size(i, &mut scratch))
            .collect();
        // 1 → 4 nodes, 2 → 3, everything else is a stub cone of itself.
        assert_eq!(sizes, vec![4, 3, 1, 1, 1, 1]);
        // Re-running with the same scratch gives identical answers.
        let again: Vec<usize> = (0..csr.node_count() as u32)
            .map(|i| csr.customer_cone_size(i, &mut scratch))
            .collect();
        assert_eq!(sizes, again);
    }

    #[test]
    fn scratch_adapts_to_graph_size_changes() {
        let g1 = sample();
        let csr1 = CsrGraph::build(&g1);
        let csr2 = CsrGraph::build(&BTreeMap::from([(l(1, 2), p2c(1))]));
        let mut scratch = ConeScratch::new();
        assert_eq!(csr1.customer_cone_size(0, &mut scratch), 4);
        assert_eq!(csr2.customer_cone_size(0, &mut scratch), 2);
        assert_eq!(csr1.customer_cone_size(0, &mut scratch), 4);
    }
}
