//! Looking-glass queries: the §6.1 case study inspects a Tier-1's *own* RIB,
//! where customer-set action communities are still visible.

use crate::communities::{rib_communities, AnyCommunity};
use crate::propagate::{Propagator, RouteClass, Scope};
use crate::simgraph::SimGraph;
use asgraph::Asn;
use serde::{Deserialize, Serialize};
use topogen::Topology;

/// A route as seen in an AS's own RIB.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LgRoute {
    /// The queried AS.
    pub at: Asn,
    /// The origin whose announcement is inspected.
    pub origin: Asn,
    /// Best path, queried AS first, origin last.
    pub path: Vec<Asn>,
    /// How the route was learned.
    pub class: RouteClass,
    /// Communities on the route *including* not-yet-stripped action tags.
    pub communities: Vec<AnyCommunity>,
}

/// An on-demand looking glass over a topology: queries re-run a single-origin
/// propagation narrowed to the queried AS's [`Scope`], so no global RIB state
/// is stored.
pub struct LookingGlass<'t> {
    topology: &'t Topology,
    graph: SimGraph,
}

impl<'t> LookingGlass<'t> {
    /// Builds the looking glass (indexes the topology once).
    #[must_use]
    pub fn new(topology: &'t Topology) -> Self {
        LookingGlass {
            graph: SimGraph::build(topology),
            topology,
        }
    }

    /// Reuses an already-built [`SimGraph`].
    #[must_use]
    pub fn with_graph(topology: &'t Topology, graph: SimGraph) -> Self {
        LookingGlass { topology, graph }
    }

    /// Queries `at`'s best route towards `origin`'s prefix. `None` if either
    /// AS is unknown or no route exists.
    #[must_use]
    pub fn query(&self, at: Asn, origin: Asn) -> Option<LgRoute> {
        let at_node = self.graph.node(at)?;
        let origin_node = self.graph.node(origin)?;
        let scope = Scope::new(&self.graph, [at_node]);
        let routes = Propagator::with_scope(&scope).propagate(origin_node);
        let path = routes.path(at_node, &self.graph)?;
        let class = routes.class(at_node)?;
        let communities = rib_communities(self.topology, &path);
        Some(LgRoute {
            at,
            origin,
            path,
            class,
            communities,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen::TopologyConfig;

    #[test]
    fn cogent_lg_shows_action_community_for_partial_customers() {
        let topo = topogen::generate(&TopologyConfig::small(21));
        let lg = LookingGlass::new(&topo);
        let cogent = topo.cogent;
        let (link, _) = topo
            .links
            .iter()
            .find(|(l, r)| {
                r.partial_transit && r.base.provider() == Some(cogent) && l.contains(cogent)
            })
            .expect("partial customer exists");
        let customer = link.other(cogent).unwrap();
        let route = lg.query(cogent, customer).expect("route present");
        assert_eq!(route.class, RouteClass::Customer);
        let action = AnyCommunity::action_no_export_to_peers(cogent);
        assert!(
            route.communities.contains(&action),
            "looking glass must reveal the 990 action tag"
        );
    }

    #[test]
    fn unknown_asns_yield_none() {
        let topo = topogen::generate(&TopologyConfig::small(21));
        let lg = LookingGlass::new(&topo);
        assert!(lg.query(Asn(999_999_999), topo.cogent).is_none());
        assert!(lg.query(topo.cogent, Asn(999_999_999)).is_none());
    }
}
