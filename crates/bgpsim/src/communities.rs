//! BGP community semantics for the simulation.
//!
//! Every transit-capable AS tags routes on ingress with an *informational*
//! community encoding the relationship to the neighbor it learned the route
//! from — exactly the encodings Luckie et al. scrape to build "best-effort"
//! validation data. Which scheme an AS uses varies (as in reality); whether
//! the scheme is *publicly documented* is the `publishes_communities` flag on
//! the AS, and that flag — not the tagging — is what drives validation
//! coverage.
//!
//! *Action* communities model the §6.1 mechanism: a partial-transit customer
//! tags its announcements with the provider's `…:990` community ("do not
//! export to peers"); the provider honours and then strips it, so the tag is
//! visible in the provider's own RIB (looking glass) but never at collectors.
//!
//! ASes with 4-byte ASNs cannot put their ASN into a classic RFC 1997
//! community, so they tag with RFC 8092 large communities instead.

use asgraph::{Asn, NeighborRole};
use bgpwire::{Community, LargeCommunity};
use serde::{Deserialize, Serialize};
use topogen::{TierClass, Topology};

/// Ingress relationship classes encoded by informational communities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IngressRel {
    /// Learned from a customer.
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider.
    Provider,
}

impl IngressRel {
    /// The ingress class an AS records for a route learned from a neighbor
    /// that plays `role` relative to it.
    ///
    /// Sibling-learned routes are tagged *as customer routes*: operator
    /// community schemes rarely have a dedicated sibling value, so the
    /// org's internal ASes get the customer tag — which is precisely how
    /// sibling links end up inside community-derived validation data with a
    /// P2C label (the 210 entries the paper's §4.2 removes via AS2Org).
    #[must_use]
    pub fn from_role(role: NeighborRole) -> Self {
        match role {
            NeighborRole::Customer | NeighborRole::Sibling => IngressRel::Customer,
            NeighborRole::Provider => IngressRel::Provider,
            NeighborRole::Peer => IngressRel::Peer,
        }
    }
}

/// A community dictionary: how one AS encodes ingress relationships.
///
/// Three schemes circulate (selected by ASN, stable per AS). Scheme 2's peer
/// value collides with the informal `:666` blackhole convention — a real
/// ambiguity the paper discusses for 3356:666.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommunityScheme {
    /// Value part meaning "learned from customer".
    pub customer: u16,
    /// Value part meaning "learned from peer".
    pub peer: u16,
    /// Value part meaning "learned from provider".
    pub provider: u16,
}

/// The `…:990` action value: "do not export this route to peers/providers".
pub const ACTION_NO_EXPORT_TO_PEERS: u16 = 990;

/// The scheme used by `asn` (deterministic).
#[must_use]
pub fn scheme_of(asn: Asn) -> CommunityScheme {
    match asn.0 % 3 {
        0 => CommunityScheme {
            customer: 100,
            peer: 200,
            provider: 300,
        },
        1 => CommunityScheme {
            customer: 1000,
            peer: 2000,
            provider: 3000,
        },
        _ => CommunityScheme {
            customer: 3,
            peer: 666, // collides with the blackhole convention
            provider: 9,
        },
    }
}

impl CommunityScheme {
    /// The value part for an ingress class.
    #[must_use]
    pub fn value(&self, rel: IngressRel) -> u16 {
        match rel {
            IngressRel::Customer => self.customer,
            IngressRel::Peer => self.peer,
            IngressRel::Provider => self.provider,
        }
    }

    /// Decodes a value part back to an ingress class.
    #[must_use]
    pub fn decode(&self, value: u16) -> Option<IngressRel> {
        if value == self.customer {
            Some(IngressRel::Customer)
        } else if value == self.peer {
            Some(IngressRel::Peer)
        } else if value == self.provider {
            Some(IngressRel::Provider)
        } else {
            None
        }
    }
}

/// A community observed on a route, classic or large.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnyCommunity {
    /// RFC 1997 classic community.
    Classic(Community),
    /// RFC 8092 large community.
    Large(LargeCommunity),
}

impl AnyCommunity {
    /// The informational tag `tagger` attaches for an ingress class.
    #[must_use]
    pub fn informational(tagger: Asn, rel: IngressRel) -> Self {
        let value = scheme_of(tagger).value(rel);
        if tagger.is_four_byte() {
            AnyCommunity::Large(LargeCommunity::new(tagger.0, 0, u32::from(value)))
        } else {
            AnyCommunity::Classic(Community::new(tagger.0 as u16, value))
        }
    }

    /// The action tag addressed to `provider` (set by its customer).
    #[must_use]
    pub fn action_no_export_to_peers(provider: Asn) -> Self {
        if provider.is_four_byte() {
            AnyCommunity::Large(LargeCommunity::new(
                provider.0,
                0,
                u32::from(ACTION_NO_EXPORT_TO_PEERS),
            ))
        } else {
            AnyCommunity::Classic(Community::new(provider.0 as u16, ACTION_NO_EXPORT_TO_PEERS))
        }
    }

    /// The AS-part of the community (16-bit taggers are ambiguous: any 4-byte
    /// ASN sharing the low 16 bits maps to the same classic community).
    #[must_use]
    pub fn asn_part(&self) -> u32 {
        match self {
            AnyCommunity::Classic(c) => u32::from(c.asn),
            AnyCommunity::Large(lc) => lc.global,
        }
    }

    /// The value part.
    #[must_use]
    pub fn value_part(&self) -> u32 {
        match self {
            AnyCommunity::Classic(c) => u32::from(c.value),
            AnyCommunity::Large(lc) => lc.local2,
        }
    }
}

/// Whether `asn` tags informational ingress communities at all. Transit
/// operators and Tier-1s do; stubs and most hypergiants do not (they have no
/// ingress routes to speak of).
#[must_use]
pub fn tags_communities(topology: &Topology, asn: Asn) -> bool {
    matches!(
        topology.info(asn).map(|i| i.tier),
        Some(TierClass::Tier1 | TierClass::Transit)
    )
}

/// The ingress class `x` records for a route learned from `neighbor`,
/// according to ground truth ([`IngressRel::from_role`]).
#[must_use]
pub fn ingress_rel(topology: &Topology, x: Asn, neighbor: Asn) -> Option<IngressRel> {
    let link = asgraph::Link::new(x, neighbor)?;
    let rel = topology.gt_rel(link)?.base;
    Some(IngressRel::from_role(NeighborRole::seen_from(x, rel)))
}

/// Computes the communities visible on `path` (receiver-first, origin-last)
/// **at a route collector**: every tagging hop's informational ingress tag,
/// action communities stripped. Prepending needs no compression first: a
/// repeated hop pairs only with itself, and that is no link.
pub fn collector_communities<'a>(
    topology: &'a Topology,
    path: &'a [Asn],
) -> impl Iterator<Item = AnyCommunity> + 'a {
    path.windows(2).filter_map(move |w| {
        let &[x, neighbor] = w else {
            return None;
        };
        // x learned the route from neighbor.
        if !tags_communities(topology, x) {
            return None;
        }
        let rel = ingress_rel(topology, x, neighbor)?;
        Some(AnyCommunity::informational(x, rel))
    })
}

/// Computes the communities visible on `path` **in the RIB of the receiving
/// AS itself** (`path[0]`): like the collector view, plus any action
/// community its customer tagged on the directly received announcement (not
/// yet stripped).
#[must_use]
pub fn rib_communities(topology: &Topology, path: &[Asn]) -> Vec<AnyCommunity> {
    let mut out: Vec<AnyCommunity> = collector_communities(topology, path).collect();
    if let Some((&receiver, rest)) = path.split_first() {
        // The sender is the first hop past the receiver's own prepending.
        let sender = rest.iter().find(|&&hop| hop != receiver);
        let link = sender.and_then(|&sender| asgraph::Link::new(receiver, sender));
        if let Some(gt) = link.and_then(|link| topology.gt_rel(link)) {
            if gt.partial_transit && gt.base.provider() == Some(receiver) {
                out.push(AnyCommunity::action_no_export_to_peers(receiver));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen::TopologyConfig;

    #[test]
    fn schemes_are_stable_and_decodable() {
        for asn in [Asn(174), Asn(3356), Asn(200_001), Asn(7018)] {
            let s = scheme_of(asn);
            for rel in [IngressRel::Customer, IngressRel::Peer, IngressRel::Provider] {
                assert_eq!(s.decode(s.value(rel)), Some(rel));
            }
            assert_eq!(s.decode(65_432), None);
        }
    }

    #[test]
    fn four_byte_taggers_use_large_communities() {
        let c = AnyCommunity::informational(Asn(200_000), IngressRel::Peer);
        assert!(matches!(c, AnyCommunity::Large(_)));
        assert_eq!(c.asn_part(), 200_000);
        let c = AnyCommunity::informational(Asn(3356), IngressRel::Peer);
        assert!(matches!(c, AnyCommunity::Classic(_)));
        assert_eq!(c.asn_part(), 3356);
    }

    #[test]
    fn collector_view_tags_every_transit_hop() {
        let topo = topogen::generate(&TopologyConfig::small(13));
        // Find a P2C chain t1 -> transit -> stub via the ground truth graph.
        let g = topo.ground_truth_graph();
        let t1 = g.indexer().id(*topo.tier1.first().unwrap()).unwrap();
        let transit = *g
            .customers(t1)
            .iter()
            .find(|&&c| !g.customers(c).is_empty())
            .expect("t1 has transit customer");
        let stub = g.customers(transit)[0];
        let [t1, transit, stub] = [t1, transit, stub].map(|id| g.indexer().asn(id));
        let path = vec![t1, transit, stub];
        let comms: Vec<AnyCommunity> = collector_communities(&topo, &path).collect();
        // Both t1 and transit tag "learned from customer".
        assert_eq!(comms.len(), 2);
        assert_eq!(comms[0].asn_part(), t1.0);
        assert_eq!(comms[0].value_part(), u32::from(scheme_of(t1).customer));
        assert_eq!(comms[1].asn_part(), transit.0);
    }

    #[test]
    fn action_community_only_in_provider_rib() {
        let topo = topogen::generate(&TopologyConfig::small(13));
        let cogent = topo.cogent;
        // Find a partial-transit customer.
        let (link, _) = topo
            .links
            .iter()
            .find(|(l, r)| {
                r.partial_transit && r.base.provider() == Some(cogent) && l.contains(cogent)
            })
            .expect("cogent partial customer exists");
        let customer = link.other(cogent).unwrap();
        let path = vec![cogent, customer];
        let collector: Vec<AnyCommunity> = collector_communities(&topo, &path).collect();
        let rib = rib_communities(&topo, &path);
        let action = AnyCommunity::action_no_export_to_peers(cogent);
        assert!(!collector.contains(&action), "action tag must be stripped");
        assert!(rib.contains(&action), "action tag visible in cogent's RIB");
    }

    #[test]
    fn prepended_paths_tag_once_per_as() {
        let topo = topogen::generate(&TopologyConfig::small(13));
        let g = topo.ground_truth_graph();
        let t1 = *topo.tier1.first().unwrap();
        let transit = g.indexer().asn(g.customers(g.indexer().id(t1).unwrap())[0]);
        let path = vec![t1, transit, transit, transit];
        assert_eq!(collector_communities(&topo, &path).count(), 1);
    }
}
