//! The topology as the propagator sees it: a [`CsrGraph`] of the base
//! relationships plus the two facts Gao–Rexford routing needs beyond them.

use asgraph::{Asn, CsrGraph};
use topogen::Topology;

/// Dense view of a [`Topology`] for per-origin propagation.
///
/// Node ids are the [`CsrGraph`]'s, i.e. positions in sorted-ASN order over
/// every AS of the topology, so per-origin state fits in flat arrays.
#[derive(Debug, Clone)]
pub struct SimGraph {
    csr: CsrGraph,
    /// Partial-transit links as `(customer, provider)` ids, ascending.
    partial: Vec<(u32, u32)>,
    prepends: Vec<bool>,
}

impl SimGraph {
    /// Builds the view over the topology's ground-truth graph (its *base*
    /// relationships) in O(1) allocations.
    #[must_use]
    pub fn build(topology: &Topology) -> Self {
        let csr = topology.ground_truth_graph();
        let id = |asn: Asn| csr.indexer().id(asn);
        let mut partial: Vec<(u32, u32)> = topology
            .links
            .iter()
            .filter(|(_, gt)| gt.partial_transit)
            .filter_map(|(link, gt)| {
                let provider = gt.base.provider()?;
                Some((id(link.other(provider)?)?, id(provider)?))
            })
            .collect();
        partial.sort_unstable();
        let prepends = topology.ases.values().map(|info| info.prepends).collect();
        SimGraph {
            csr,
            partial,
            prepends,
        }
    }

    /// The adjacency: per-role neighbor slices, sorted by id.
    #[must_use]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.csr.node_count()
    }

    /// `true` if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ASN of node `i`.
    #[must_use]
    pub fn asn(&self, i: u32) -> Asn {
        self.csr.indexer().asn(i)
    }

    /// The node id of `asn`.
    #[must_use]
    pub fn node(&self, asn: Asn) -> Option<u32> {
        self.csr.indexer().id(asn)
    }

    /// Whether the P2C link from `customer` up to `provider` is partial
    /// transit: the provider uses the customer's routes but exports them
    /// only downward.
    #[must_use]
    pub fn is_partial(&self, customer: u32, provider: u32) -> bool {
        self.partial.binary_search(&(customer, provider)).is_ok()
    }

    /// Whether node `i` prepends on upward/lateral exports.
    #[must_use]
    pub fn prepends(&self, i: u32) -> bool {
        self.prepends[i as usize]
    }

    /// Deterministic per-(AS, next-hop, destination) tie-break preference
    /// among equal-length routes: lower value wins. Models the per-router,
    /// per-prefix diversity of the real BGP decision process (hot-potato IGP
    /// distances, router-id, route age). A destination-independent tie-break
    /// would make an AS pick the *same* neighbor for every destination,
    /// systematically hiding the other links from collectors — which the
    /// real Internet does not do.
    #[must_use]
    pub fn tie_pref(&self, node: u32, next_hop: u32, origin: u32) -> u64 {
        let a = u64::from(self.asn(node).0);
        let b = u64::from(self.asn(next_hop).0);
        let c = u64::from(self.asn(origin).0);
        let mut z = a
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::{NeighborRole, Rel};
    use std::collections::BTreeMap;
    use topogen::TopologyConfig;

    #[test]
    fn build_round_trips_adjacency() {
        let topo = topogen::generate(&TopologyConfig::small(5));
        let g = SimGraph::build(&topo);
        assert_eq!(g.len(), topo.as_count());
        // Every role of every AS, read off the link map: links iterate in
        // ascending order, so each list comes out in ASN order.
        let mut expected: BTreeMap<Asn, [Vec<Asn>; 4]> = BTreeMap::new();
        for (link, gt) in &topo.links {
            let (a, b) = link.endpoints();
            let (role_of_b, role_of_a) = match gt.base {
                Rel::P2c { provider } if provider == a => {
                    (NeighborRole::Customer, NeighborRole::Provider)
                }
                Rel::P2c { .. } => (NeighborRole::Provider, NeighborRole::Customer),
                Rel::P2p => (NeighborRole::Peer, NeighborRole::Peer),
                Rel::S2s => (NeighborRole::Sibling, NeighborRole::Sibling),
            };
            expected.entry(a).or_default()[role_of_b as usize].push(b);
            expected.entry(b).or_default()[role_of_a as usize].push(a);
        }
        let csr = g.csr();
        let asns = |ids: &[u32]| -> Vec<Asn> { ids.iter().map(|&n| g.asn(n)).collect() };
        for &asn in topo.ases.keys() {
            let i = g.node(asn).unwrap();
            assert_eq!(g.asn(i), asn);
            let roles = expected.remove(&asn).unwrap_or_default();
            let [providers, customers, peers, siblings] = roles;
            assert_eq!(asns(csr.providers(i)), providers);
            assert_eq!(asns(csr.customers(i)), customers);
            assert_eq!(asns(csr.peers(i)), peers);
            assert_eq!(asns(csr.siblings(i)), siblings);
        }
        assert!(expected.is_empty(), "links to ASes outside the topology");
    }

    #[test]
    fn partial_flags_survive() {
        let topo = topogen::generate(&TopologyConfig::small(5));
        let g = SimGraph::build(&topo);
        let mut expected: Vec<(Asn, Asn)> = topo
            .links
            .iter()
            .filter(|(_, gt)| gt.partial_transit)
            .map(|(link, gt)| {
                let provider = gt.base.provider().expect("partial transit is P2C");
                (link.other(provider).unwrap(), provider)
            })
            .collect();
        expected.sort();
        let mut flagged = Vec::new();
        for customer in 0..g.len() as u32 {
            for &provider in g.csr().providers(customer) {
                assert!(!g.is_partial(provider, customer), "flag is directed");
                if g.is_partial(customer, provider) {
                    flagged.push((g.asn(customer), g.asn(provider)));
                }
            }
        }
        flagged.sort();
        assert_eq!(flagged, expected);
        assert!(!flagged.is_empty());
    }
}
