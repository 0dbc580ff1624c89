//! Removing a vantage point removes only its own routes. Simulating a
//! world without one collector peer must print the full RIB's observations
//! and paths with that peer's rows filtered out, in the same order, so the
//! reduced RIB's observed links are a subset of the full RIB's. Each VP's
//! routes come from propagation alone: the narrower scope of the remaining
//! VPs (see `scope_equivalence.rs`) must not change them.

use asgraph::{Asn, Link};
use bgpsim::{RibSnapshot, RouteObservation, SimGraph};
use std::collections::BTreeSet;
use topogen::{generate, TopologyConfig};

/// Every row of a RIB: the observation and its path as exported, VP first
/// and prepending included.
fn rows(rib: &RibSnapshot) -> Vec<(RouteObservation, Vec<Asn>)> {
    let paths = rib.paths.iter_raw().map(|(_, hops)| hops.iter().collect());
    rib.observations.iter().copied().zip(paths).collect()
}

fn links(rib: &RibSnapshot) -> BTreeSet<Link> {
    rib.paths
        .iter()
        .flat_map(|(_, hops)| hops.windows(2).filter_map(|w| Link::new(w[0], w[1])))
        .collect()
}

#[test]
fn removing_a_vantage_point_removes_only_its_rows() {
    for seed in [3, 7, 11, 2018] {
        let topo = generate(&TopologyConfig::small(seed));
        let graph = SimGraph::build(&topo);
        let full = bgpsim::simulate_with_graph(&topo, &graph);
        let (full_rows, full_links) = (rows(&full), links(&full));
        assert_eq!(full_rows.len(), full.observations.len());
        let peers = topo.collector_peers.len();
        for at in [0, peers / 2, peers - 1] {
            let vp = topo.collector_peers[at].asn;
            let mut without = topo.clone();
            without.collector_peers.remove(at);
            let reduced = bgpsim::simulate_with_graph(&without, &graph);
            let want: Vec<_> = full_rows
                .iter()
                .filter(|(o, _)| o.vp != vp)
                .cloned()
                .collect();
            let got = rows(&reduced);
            let first_diff = got.iter().zip(&want).position(|(g, w)| g != w);
            assert!(
                got.len() == want.len() && first_diff.is_none(),
                "seed {seed} without AS{}: {} rows, {} expected, first difference at {:?}",
                vp.0,
                got.len(),
                want.len(),
                first_diff
            );
            assert!(
                links(&reduced).is_subset(&full_links),
                "seed {seed} without AS{}",
                vp.0
            );
            assert!(
                want.len() < full_rows.len(),
                "seed {seed}: AS{} exports nothing",
                vp.0
            );
        }
    }
}
