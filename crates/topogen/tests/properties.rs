//! Property tests: generator invariants hold across the configuration space,
//! not just at the defaults.

use asgraph::{CsrGraph, RelClass};
use proptest::prelude::*;
use topogen::{generate, ChurnConfig, Topology, TopologyConfig};

/// `true` if every P2C provider of `topo` is an endpoint of its link.
fn providers_on_links(topo: &Topology) -> bool {
    topo.links
        .iter()
        .all(|(link, gt)| gt.base.is_valid_for(*link))
}

/// `true` if no AS of `graph` is its own transitive provider: a DFS over
/// the customer rows.
fn provider_cycle_free(graph: &CsrGraph) -> bool {
    // 0 = unseen, 1 = on the DFS path, 2 = finished.
    fn visit(g: &CsrGraph, id: u32, state: &mut [u8]) -> bool {
        match state[id as usize] {
            1 => return false,
            2 => return true,
            _ => {}
        }
        state[id as usize] = 1;
        if !g.customers(id).iter().all(|&c| visit(g, c, state)) {
            return false;
        }
        state[id as usize] = 2;
        true
    }
    let mut state = vec![0; graph.node_count()];
    (0..graph.node_count() as u32).all(|id| visit(graph, id, &mut state))
}

fn arb_config() -> impl Strategy<Value = TopologyConfig> {
    (
        any::<u64>(),
        4usize..10,    // tier1
        60usize..160,  // transit
        200usize..500, // stub
        0usize..6,     // hypergiants
        0usize..8,     // special stubs
        0.0f64..0.5,   // cogent partial share
        0.0f64..0.1,   // hybrid share
        0.0f64..0.08,  // sibling share
    )
        .prop_map(
            |(seed, t1, tr, st, hg, sp, partial, hybrid, siblings)| TopologyConfig {
                seed,
                n_tier1: t1,
                n_transit: tr,
                n_stub: st,
                n_hypergiant: hg,
                n_special_stub: sp,
                cogent_partial_transit_share: partial,
                hybrid_link_share: hybrid,
                sibling_as_share: siblings,
                n_vantage_points: 30,
                ixps_per_region: [1, 1, 1, 1, 2],
                ..TopologyConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Core invariants across the knob space: population counts, acyclic
    /// hierarchy, upward connectivity, valid relationships, registry
    /// round-trip.
    #[test]
    fn generator_invariants(cfg in arb_config()) {
        let topo = generate(&cfg);
        prop_assert_eq!(topo.as_count(), cfg.total_ases());
        prop_assert_eq!(topo.tier1.len(), cfg.n_tier1);
        prop_assert_eq!(topo.hypergiants.len(), cfg.n_hypergiant);

        // Relationship labels are structurally valid.
        prop_assert!(providers_on_links(&topo), "a provider is not on its link");

        // Acyclic provider hierarchy.
        let graph = topo.ground_truth_graph();
        prop_assert!(provider_cycle_free(&graph), "provider cycle");

        // Everyone except Tier-1s has an upstream (provider or peer). Node
        // ids follow `ases`.
        for (id, (asn, info)) in (0u32..).zip(&topo.ases) {
            if info.tier == topogen::TierClass::Tier1 {
                continue;
            }
            prop_assert!(
                !graph.providers(id).is_empty() || !graph.peers(id).is_empty(),
                "{asn} stranded"
            );
        }

        // Registry artefacts reconstruct regions through the text formats.
        let map = asregistry::RegionMap::build(
            topo.iana_table(),
            &topo.delegation_files("20180405"),
        );
        for info in topo.ases.values().take(200) {
            prop_assert_eq!(map.region(info.asn), Some(info.region));
        }

        // Sibling links only between same-org ASes.
        let org = topo.as2org();
        for (link, rel) in &topo.links {
            if rel.base.class() == RelClass::S2s {
                prop_assert!(org.is_sibling_link(*link), "stray S2S link {}", link);
            }
        }

        // Partial-transit share only applies to P2C links.
        for rel in topo.links.values() {
            if rel.partial_transit {
                prop_assert_eq!(rel.base.class(), RelClass::P2c);
            }
        }
    }

    /// Churn preserves the same invariants it promises: acyclic hierarchy
    /// and a conflict-free link set.
    #[test]
    fn churn_preserves_invariants(seed in any::<u64>(), churn_seed in any::<u64>()) {
        let topo = generate(&TopologyConfig {
            seed,
            n_tier1: 5,
            n_transit: 80,
            n_stub: 250,
            n_hypergiant: 3,
            n_special_stub: 4,
            n_vantage_points: 20,
            ixps_per_region: [1, 1, 1, 1, 1],
            ..TopologyConfig::default()
        });
        let (evolved, _) = topogen::evolve(
            &topo,
            &ChurnConfig {
                seed: churn_seed,
                provider_switch_prob: 0.05,
                depeering_prob: 0.05,
                new_peering_rate: 0.05,
                partial_flip_prob: 0.1,
            },
        );
        prop_assert!(providers_on_links(&evolved), "a provider is not on its link after churn");
        prop_assert!(provider_cycle_free(&evolved.ground_truth_graph()), "cycle after churn");
    }
}
