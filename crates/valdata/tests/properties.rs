//! Property tests for the validation-data substrate.

use asgraph::Asn;
use proptest::prelude::*;
use valdata::rpsl::{AutNum, PolicyLine};
use valdata::ValDataConfig;

fn arb_rel(owner: u32, neighbor: u32) -> impl Strategy<Value = asgraph::Rel> {
    prop_oneof![
        Just(asgraph::Rel::P2p),
        Just(asgraph::Rel::S2s),
        Just(asgraph::Rel::P2c {
            provider: Asn(owner)
        }),
        Just(asgraph::Rel::P2c {
            provider: Asn(neighbor)
        }),
    ]
}

proptest! {
    /// RPSL objects round-trip through their text form for arbitrary policy
    /// sets.
    #[test]
    fn autnum_roundtrip(
        owner in 1u32..100_000,
        neighbors in prop::collection::btree_set(100_001u32..200_000, 0..12),
        rel_seed in any::<u64>(),
    ) {
        let neighbors: Vec<u32> = neighbors.into_iter().collect();
        let mut policies = Vec::new();
        for (i, n) in neighbors.iter().enumerate() {
            // Deterministic pseudo-choice of relationship per neighbor.
            let pick = (rel_seed.wrapping_mul(i as u64 + 1)) % 4;
            let rel = match pick {
                0 => asgraph::Rel::P2p,
                1 => asgraph::Rel::S2s,
                2 => asgraph::Rel::P2c { provider: Asn(owner) },
                _ => asgraph::Rel::P2c { provider: Asn(*n) },
            };
            policies.push(PolicyLine { neighbor: Asn(*n), rel });
        }
        let obj = AutNum {
            asn: Asn(owner),
            mntner: "MNT-TEST".into(),
            changed: "20160101".into(),
            policies,
        };
        let parsed = AutNum::parse(&obj.to_rpsl()).unwrap();
        prop_assert_eq!(parsed, obj);
    }

    /// The RPSL parser never panics on arbitrary text.
    #[test]
    fn autnum_parse_never_panics(text in "\\PC*") {
        let _ = AutNum::parse(&text);
    }

    /// Rel strategies sanity (exercise the helper; avoids dead code).
    #[test]
    fn rel_strategy_is_valid(owner in 1u32..100, neighbor in 101u32..200, rel in (1u32..2).prop_flat_map(|_| arb_rel(1, 101))) {
        let link = asgraph::Link::new(Asn(owner), Asn(neighbor));
        prop_assert!(link.is_some());
        // Every generated rel with matching endpoints is valid for its link.
        if let Some(l) = asgraph::Link::new(Asn(1), Asn(101)) {
            prop_assert!(rel.is_valid_for(l));
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Compilation is insensitive to observation order: shuffling the
    /// snapshot's observations yields the same label set.
    #[test]
    fn compile_is_order_insensitive(seed in 0u64..20, swap_seed in any::<u64>()) {
        let topo = topogen::generate(&topogen::TopologyConfig::small(seed));
        let snap = bgpsim::simulate(&topo);
        let cfg = ValDataConfig::default();
        let a = valdata::compile_communities(&topo, &snap, &cfg);

        // Each observation moves together with its path.
        let mut rows: Vec<(bgpsim::RouteObservation, Vec<Asn>)> = snap
            .observations
            .iter()
            .zip(snap.paths.iter_raw())
            .map(|(obs, (_, path))| (*obs, path.iter().collect()))
            .collect();
        // Deterministic Fisher–Yates with a splitmix-style stream.
        let mut s = swap_seed | 1;
        for i in (1..rows.len()).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            let j = (s as usize) % (i + 1);
            rows.swap(i, j);
        }
        let (mut observations, mut paths) = (Vec::new(), asgraph::PathSet::new());
        for (obs, path) in rows {
            observations.push(obs);
            paths.push_hops(obs.vp, path);
        }
        let shuffled = bgpsim::RibSnapshot {
            observations,
            paths: std::sync::Arc::new(paths),
            collector_peers: snap.collector_peers.clone(),
        };
        let b = valdata::compile_communities(&topo, &shuffled, &cfg);
        // Record order *within* a link legitimately follows observation
        // order (the §4.2 "first label" policies depend on it); the
        // label *sets* must be order-insensitive.
        prop_assert_eq!(a.entries.len(), b.entries.len());
        for (link, records_a) in &a.entries {
            let mut sa: Vec<String> = records_a.iter().map(|r| format!("{r:?}")).collect();
            let mut sb: Vec<String> = b
                .entries
                .get(link)
                .map(|rs| rs.iter().map(|r| format!("{r:?}")).collect())
                .unwrap_or_default();
            sa.sort();
            sb.sort();
            prop_assert_eq!(sa, sb, "label set differs on {}", link);
        }
    }
}
