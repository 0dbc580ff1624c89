//! Relationship-labelled AS graph.

use crate::asn::Asn;
use crate::error::GraphError;
use crate::link::Link;
use crate::rel::Rel;
use std::collections::{btree_map, BTreeMap};

/// A validated relationship labelling: one [`Rel`] per [`Link`], each P2C
/// provider an endpoint of its link.
///
/// It only collects and checks labels; iterating a `&AsGraph` yields its
/// `(link, rel)` pairs in ascending link order, which is what
/// [`crate::CsrGraph::build`] reads to answer neighbour queries by role.
#[derive(Debug, Clone, Default)]
pub struct AsGraph {
    links: BTreeMap<Link, Rel>,
}

impl AsGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
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
        Ok(())
    }
}

impl<'a> IntoIterator for &'a AsGraph {
    type Item = (&'a Link, &'a Rel);
    type IntoIter = btree_map::Iter<'a, Link, Rel>;

    fn into_iter(self) -> Self::IntoIter {
        self.links.iter()
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
    fn links_iterate_in_ascending_order() {
        let mut g = AsGraph::new();
        g.add_rel(l(2, 3), p2c(2)).expect("fresh link accepts rel");
        g.add_rel(l(1, 2), Rel::S2s)
            .expect("fresh link accepts rel");
        let links: Vec<(Link, Rel)> = g.into_iter().map(|(l, r)| (*l, *r)).collect();
        assert_eq!(links, vec![(l(1, 2), Rel::S2s), (l(2, 3), p2c(2))]);
    }

    #[test]
    fn duplicate_same_rel_is_noop() {
        let mut g = AsGraph::new();
        g.add_rel(l(1, 2), Rel::P2p)
            .expect("fresh link accepts rel");
        g.add_rel(l(1, 2), Rel::P2p)
            .expect("fresh link accepts rel");
        assert_eq!(g.into_iter().count(), 1);
    }

    #[test]
    fn conflicting_rel_is_error() {
        let mut g = AsGraph::new();
        g.add_rel(l(1, 2), Rel::P2p)
            .expect("fresh link accepts rel");
        let err = g.add_rel(l(1, 2), p2c(1)).unwrap_err();
        assert!(matches!(err, GraphError::ConflictingRelationship { .. }));
        assert_eq!(g.into_iter().next(), Some((&l(1, 2), &Rel::P2p)));
    }

    #[test]
    fn provider_must_be_endpoint() {
        let mut g = AsGraph::new();
        let err = g.add_rel(l(1, 2), p2c(3)).unwrap_err();
        assert!(matches!(err, GraphError::ProviderNotOnLink { .. }));
        assert_eq!(g.into_iter().count(), 0);
    }
}
