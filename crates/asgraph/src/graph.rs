//! Relationship-labelled AS graph.

use crate::asn::Asn;
use crate::error::GraphError;
use crate::link::Link;
use crate::rel::{Rel, RelClass};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

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

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Adjacency {
    providers: BTreeSet<Asn>,
    customers: BTreeSet<Asn>,
    peers: BTreeSet<Asn>,
    siblings: BTreeSet<Asn>,
}

/// A relationship-labelled, undirected AS-level graph.
///
/// Deterministic iteration order (BTree-based) so that seeded experiments are
/// reproducible bit-for-bit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AsGraph {
    links: BTreeMap<Link, Rel>,
    adj: BTreeMap<Asn, Adjacency>,
}

impl AsGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a graph from `(link, rel)` pairs, failing on conflicts.
    pub fn from_rels<I>(rels: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (Link, Rel)>,
    {
        let mut g = Self::new();
        for (link, rel) in rels {
            g.add_rel(link, rel)?;
        }
        Ok(g)
    }

    /// Inserts a link with its relationship.
    ///
    /// Re-inserting the same `(link, rel)` pair is a no-op; inserting the same
    /// link with a *different* relationship is a
    /// [`GraphError::ConflictingRelationship`].
    pub fn add_rel(&mut self, link: Link, rel: Rel) -> Result<(), GraphError> {
        if !rel.is_valid_for(link) {
            return Err(GraphError::ProviderNotOnLink {
                link,
                provider: rel.provider().unwrap_or(Asn(0)),
            });
        }
        if let Some(existing) = self.links.get(&link) {
            if *existing == rel {
                return Ok(());
            }
            return Err(GraphError::ConflictingRelationship { link });
        }
        self.links.insert(link, rel);
        let (a, b) = link.endpoints();
        match rel {
            Rel::P2c { provider } => {
                let customer = link.other(provider).expect("validated above");
                self.adj
                    .entry(provider)
                    .or_default()
                    .customers
                    .insert(customer);
                self.adj
                    .entry(customer)
                    .or_default()
                    .providers
                    .insert(provider);
            }
            Rel::P2p => {
                self.adj.entry(a).or_default().peers.insert(b);
                self.adj.entry(b).or_default().peers.insert(a);
            }
            Rel::S2s => {
                self.adj.entry(a).or_default().siblings.insert(b);
                self.adj.entry(b).or_default().siblings.insert(a);
            }
        }
        Ok(())
    }

    /// Number of links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of ASes with at least one link.
    #[must_use]
    pub fn as_count(&self) -> usize {
        self.adj.len()
    }

    /// `true` if the graph has no links.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The relationship of `link`, if present.
    #[must_use]
    pub fn rel(&self, link: Link) -> Option<Rel> {
        self.links.get(&link).copied()
    }

    /// `true` if the link exists.
    #[must_use]
    pub fn contains_link(&self, link: Link) -> bool {
        self.links.contains_key(&link)
    }

    /// Iterates over all `(link, rel)` pairs in ascending link order.
    pub fn links(&self) -> impl Iterator<Item = (Link, Rel)> + Clone + '_ {
        self.links.iter().map(|(l, r)| (*l, *r))
    }

    /// Iterates over all ASes in deterministic order.
    pub fn ases(&self) -> impl Iterator<Item = Asn> + '_ {
        self.adj.keys().copied()
    }

    /// Transit providers of `asn`.
    #[must_use]
    pub fn providers(&self, asn: Asn) -> Vec<Asn> {
        self.adj
            .get(&asn)
            .map(|a| a.providers.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Transit customers of `asn`.
    #[must_use]
    pub fn customers(&self, asn: Asn) -> Vec<Asn> {
        self.adj
            .get(&asn)
            .map(|a| a.customers.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Settlement-free peers of `asn`.
    #[must_use]
    pub fn peers(&self, asn: Asn) -> Vec<Asn> {
        self.adj
            .get(&asn)
            .map(|a| a.peers.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Same-organisation siblings of `asn`.
    #[must_use]
    pub fn siblings(&self, asn: Asn) -> Vec<Asn> {
        self.adj
            .get(&asn)
            .map(|a| a.siblings.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Total node degree (providers + customers + peers + siblings).
    #[must_use]
    pub fn degree(&self, asn: Asn) -> usize {
        self.adj.get(&asn).map_or(0, |a| {
            a.providers.len() + a.customers.len() + a.peers.len() + a.siblings.len()
        })
    }

    /// The role `neighbor` plays relative to `asn`, if they are adjacent.
    #[must_use]
    pub fn role_of(&self, asn: Asn, neighbor: Asn) -> Option<NeighborRole> {
        let link = Link::new(asn, neighbor)?;
        match self.links.get(&link)? {
            Rel::P2c { provider } if *provider == neighbor => Some(NeighborRole::Provider),
            Rel::P2c { .. } => Some(NeighborRole::Customer),
            Rel::P2p => Some(NeighborRole::Peer),
            Rel::S2s => Some(NeighborRole::Sibling),
        }
    }

    /// `true` if `asn` has no customers (a stub in the paper's §5 sense).
    #[must_use]
    pub fn is_stub(&self, asn: Asn) -> bool {
        self.adj.get(&asn).is_none_or(|a| a.customers.is_empty())
    }

    /// Counts links by relationship class.
    #[must_use]
    pub fn count_by_class(&self) -> BTreeMap<RelClass, usize> {
        let mut out = BTreeMap::new();
        for rel in self.links.values() {
            *out.entry(rel.class()).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(a: u32, b: u32) -> Link {
        Link::new(Asn(a), Asn(b)).expect("distinct endpoints")
    }

    fn p2c(provider: u32) -> Rel {
        Rel::P2c {
            provider: Asn(provider),
        }
    }

    #[test]
    fn roles_and_views() {
        let mut g = AsGraph::new();
        g.add_rel(l(1, 2), p2c(1)).expect("fresh link accepts rel"); // 1 provides to 2
        g.add_rel(l(2, 3), p2c(2)).expect("fresh link accepts rel"); // 2 provides to 3
        g.add_rel(l(2, 4), Rel::P2p)
            .expect("fresh link accepts rel");
        g.add_rel(l(2, 5), Rel::S2s)
            .expect("fresh link accepts rel");

        assert_eq!(g.providers(Asn(2)), vec![Asn(1)]);
        assert_eq!(g.customers(Asn(2)), vec![Asn(3)]);
        assert_eq!(g.peers(Asn(2)), vec![Asn(4)]);
        assert_eq!(g.siblings(Asn(2)), vec![Asn(5)]);
        assert_eq!(g.degree(Asn(2)), 4);
        assert_eq!(g.role_of(Asn(2), Asn(1)), Some(NeighborRole::Provider));
        assert_eq!(g.role_of(Asn(1), Asn(2)), Some(NeighborRole::Customer));
        assert_eq!(g.role_of(Asn(2), Asn(4)), Some(NeighborRole::Peer));
        assert_eq!(g.role_of(Asn(2), Asn(5)), Some(NeighborRole::Sibling));
        assert_eq!(g.role_of(Asn(2), Asn(99)), None);
    }

    #[test]
    fn duplicate_same_rel_is_noop() {
        let mut g = AsGraph::new();
        g.add_rel(l(1, 2), Rel::P2p)
            .expect("fresh link accepts rel");
        g.add_rel(l(1, 2), Rel::P2p)
            .expect("fresh link accepts rel");
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn conflicting_rel_is_error() {
        let mut g = AsGraph::new();
        g.add_rel(l(1, 2), Rel::P2p)
            .expect("fresh link accepts rel");
        let err = g.add_rel(l(1, 2), p2c(1)).unwrap_err();
        assert!(matches!(err, GraphError::ConflictingRelationship { .. }));
    }

    #[test]
    fn provider_must_be_endpoint() {
        let mut g = AsGraph::new();
        let err = g.add_rel(l(1, 2), p2c(3)).unwrap_err();
        assert!(matches!(err, GraphError::ProviderNotOnLink { .. }));
    }

    #[test]
    fn stub_detection() {
        let mut g = AsGraph::new();
        g.add_rel(l(1, 2), p2c(1)).expect("fresh link accepts rel");
        assert!(!g.is_stub(Asn(1)));
        assert!(g.is_stub(Asn(2)));
        assert!(g.is_stub(Asn(42))); // unknown AS defaults to stub
    }

    #[test]
    fn count_by_class() {
        let mut g = AsGraph::new();
        g.add_rel(l(1, 2), p2c(1)).expect("fresh link accepts rel");
        g.add_rel(l(1, 3), p2c(1)).expect("fresh link accepts rel");
        g.add_rel(l(2, 3), Rel::P2p)
            .expect("fresh link accepts rel");
        let counts = g.count_by_class();
        assert_eq!(counts.get(&RelClass::P2c), Some(&2));
        assert_eq!(counts.get(&RelClass::P2p), Some(&1));
        assert_eq!(counts.get(&RelClass::S2s), None);
    }
}
