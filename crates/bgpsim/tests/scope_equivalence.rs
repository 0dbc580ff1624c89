//! Scoped propagation equals full propagation where it promises to.
//!
//! A [`Scope`] narrows phase 3 to its targets and their provider/sibling
//! ancestors. At every scope node the route must be the one the every-node
//! propagator computes: the same class, length, partial-transit scoping and
//! AS path, ties included. The properties draw target sets (none, one AS,
//! the collector peers, a random subset, every AS) and origins, each with
//! and without a traffic-engineering mask. The simulation, which reads only
//! the collector peers' routes through their scope, must print the RIB a
//! plain export loop over the full propagator prints.

use asgraph::PathSet;
use bgpsim::{
    OriginRoutes, PropScratch, Propagator, RibSnapshot, RouteClass, RouteObservation, Scope,
    SimGraph,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use topogen::{generate, Topology, TopologyConfig};

/// Seeds of the `small` worlds the properties draw from.
const SEEDS: [u64; 3] = [3, 11, 16];

/// The generated worlds, built once per test binary.
fn worlds() -> &'static [(Topology, SimGraph)] {
    static WORLDS: OnceLock<Vec<(Topology, SimGraph)>> = OnceLock::new();
    WORLDS.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&seed| {
                let topo = generate(&TopologyConfig::small(seed));
                let graph = SimGraph::build(&topo);
                (topo, graph)
            })
            .collect()
    })
}

/// Which nodes the scope is built for.
#[derive(Debug, Clone)]
enum Targets {
    None,
    One(u64),
    CollectorPeers,
    Subset(Vec<u64>),
    Every,
}

fn arb_targets() -> impl Strategy<Value = Targets> {
    prop_oneof![
        Just(Targets::None),
        any::<u64>().prop_map(Targets::One),
        Just(Targets::CollectorPeers),
        prop::collection::vec(any::<u64>(), 1..24).prop_map(Targets::Subset),
        Just(Targets::Every),
    ]
}

fn target_nodes(targets: &Targets, topo: &Topology, g: &SimGraph) -> Vec<u32> {
    let n = g.len() as u64;
    match targets {
        Targets::None => Vec::new(),
        Targets::One(pick) => vec![(pick % n) as u32],
        Targets::CollectorPeers => topo
            .collector_peers
            .iter()
            .filter_map(|cp| g.node(cp.asn))
            .collect(),
        Targets::Subset(picks) => picks.iter().map(|pick| (pick % n) as u32).collect(),
        Targets::Every => (0..g.len() as u32).collect(),
    }
}

/// The RIB that `simulate` must produce, from the every-node propagator:
/// each origin's prefixes grouped by TE mask, one propagation per group,
/// and every collector peer's route exported as the peer's feed allows.
fn full_rib(topo: &Topology, g: &SimGraph) -> RibSnapshot {
    let engine = Propagator::new(g);
    let (mut routes, mut scratch) = (OriginRoutes::reusable(), PropScratch::new());
    let (mut observations, mut paths) = (Vec::new(), PathSet::new());
    for origin in 0..g.len() as u32 {
        let asn = g.asn(origin);
        let info = topo.info(asn).expect("every node is an AS of the topology");
        let providers = g.csr().providers(origin);
        let mut by_mask: Vec<(Option<u32>, Vec<bgpwire::Ipv4Prefix>)> = Vec::new();
        for (i, prefix) in info.prefixes.iter().enumerate() {
            let mask = info
                .prefix_te
                .get(i)
                .copied()
                .flatten()
                .filter(|_| !providers.is_empty())
                .map(|k| providers[usize::from(k) % providers.len()]);
            match by_mask.iter_mut().find(|(m, _)| *m == mask) {
                Some((_, list)) => list.push(*prefix),
                None => by_mask.push((mask, vec![*prefix])),
            }
        }
        for (mask, prefixes) in by_mask {
            engine.propagate_into(origin, mask, &mut routes, &mut scratch);
            for cp in &topo.collector_peers {
                let Some(vp) = g.node(cp.asn) else { continue };
                let Some(class) = routes.class(vp) else {
                    continue;
                };
                if !cp.full_feed && class != RouteClass::Customer {
                    continue;
                }
                let path = routes.path(vp, g).expect("a routed VP has a path");
                for prefix in &prefixes {
                    observations.push(RouteObservation {
                        vp: cp.asn,
                        origin: asn,
                        prefix: *prefix,
                        class,
                    });
                    paths.push_hops(cp.asn, path.iter().copied());
                }
            }
        }
    }
    RibSnapshot {
        observations,
        paths: Arc::new(paths),
        collector_peers: topo.collector_peers.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scoped_routes_equal_full_routes_at_every_scope_node(
        world in 0..SEEDS.len(),
        targets in arb_targets(),
        origins in prop::collection::vec((any::<u64>(), any::<u64>()), 1..4),
    ) {
        let (topo, g) = &worlds()[world];
        let scope = Scope::new(g, target_nodes(&targets, topo, g));
        let full = Propagator::new(g);
        let scoped = Propagator::with_scope(&scope);
        let (mut want, mut got) = (OriginRoutes::reusable(), OriginRoutes::reusable());
        let mut scratch = PropScratch::new();
        for (pick, mask_pick) in origins {
            let origin = (pick % g.len() as u64) as u32;
            let providers = g.csr().providers(origin);
            let mask = (!providers.is_empty())
                .then(|| providers[(mask_pick % providers.len() as u64) as usize]);
            for allowed in [None, mask] {
                full.propagate_into(origin, allowed, &mut want, &mut scratch);
                scoped.propagate_into(origin, allowed, &mut got, &mut scratch);
                for &node in scope.nodes() {
                    let at = || format!("node {node}, origin {origin}, mask {allowed:?}");
                    prop_assert_eq!(got.class(node), want.class(node), "{}", at());
                    prop_assert_eq!(got.path_len(node), want.path_len(node), "{}", at());
                    prop_assert_eq!(got.scoped(node), want.scoped(node), "{}", at());
                    prop_assert_eq!(got.path(node, g), want.path(node, g), "{}", at());
                }
            }
        }
    }
}

#[test]
fn scope_is_closed_under_providers_and_siblings() {
    for (topo, g) in worlds() {
        let scope = Scope::new(g, target_nodes(&Targets::CollectorPeers, topo, g));
        assert!(!scope.is_empty() && scope.len() < g.len());
        assert!(scope.nodes().windows(2).all(|w| w[0] < w[1]));
        let inside = |node: &u32| scope.nodes().binary_search(node).is_ok();
        for &node in scope.nodes() {
            let csr = g.csr();
            assert!(csr.providers(node).iter().all(inside), "node {node}");
            assert!(csr.siblings(node).iter().all(inside), "node {node}");
        }
    }
    let (_, g) = &worlds()[0];
    assert!(Scope::new(g, []).is_empty());
    assert_eq!(Scope::new(g, 0..g.len() as u32).len(), g.len());
}

#[test]
fn simulation_prints_the_full_propagators_rib() {
    for seed in [7, 16] {
        let topo = generate(&TopologyConfig::small(seed));
        let g = SimGraph::build(&topo);
        let got = bgpsim::simulate_with_graph(&topo, &g);
        let want = full_rib(&topo, &g);
        assert_eq!(
            got.observations.len(),
            want.observations.len(),
            "seed {seed}"
        );
        assert_eq!(got.digest(), want.digest(), "seed {seed}");
    }
}
