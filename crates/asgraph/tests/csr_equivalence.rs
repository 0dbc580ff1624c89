//! Property-based equivalence of the dense core against the BTree substrate:
//! `CsrGraph` must mirror `AsGraph` exactly (per-role neighbors, cone sets,
//! cone sizes) and the bitset PPDC cones must match the hash-based baseline
//! on arbitrary seeded inputs.

use asgraph::{cone, AsGraph, AsPath, Asn, ConeScratch, CsrGraph, Link, PathSet, Rel};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_asn() -> impl Strategy<Value = Asn> {
    (1u32..200).prop_map(Asn)
}

/// An arbitrary relationship-labelled graph: each pair gets a role; invalid
/// or conflicting insertions are skipped (first orientation wins), exactly
/// how the inference pipelines build graphs.
fn arb_graph() -> impl Strategy<Value = AsGraph> {
    prop::collection::vec((arb_asn(), arb_asn(), 0u8..4), 0..60).prop_map(|triples| {
        let mut g = AsGraph::new();
        for (a, b, role) in triples {
            let Some(link) = Link::new(a, b) else {
                continue;
            };
            let rel = match role {
                0 => Rel::P2c { provider: a },
                1 => Rel::P2c { provider: b },
                2 => Rel::P2p,
                _ => Rel::S2s,
            };
            let _ = g.add_rel(link, rel);
        }
        g
    })
}

fn arb_pathset() -> impl Strategy<Value = PathSet> {
    // Paths long enough that some PPDC cones cross the sparse/dense cutoff
    // (8 at this scale), so both row representations are exercised.
    prop::collection::vec(prop::collection::vec(arb_asn(), 0..16), 0..25).prop_map(|paths| {
        let mut ps = PathSet::new();
        for hops in paths {
            let path = AsPath::new(hops);
            if let Some(vp) = path.head() {
                ps.push(vp, path);
            }
        }
        ps
    })
}

proptest! {
    /// Every role's CSR neighbor slice matches the BTree adjacency view,
    /// in the same (ascending ASN) order.
    #[test]
    fn csr_neighbors_match_graph(g in arb_graph()) {
        let csr = CsrGraph::build(&g);
        prop_assert_eq!(csr.node_count(), g.as_count());
        for asn in g.ases() {
            let id = csr.indexer().id(asn).expect("graph AS is interned");
            let to_asns = |ids: &[u32]| -> Vec<Asn> {
                ids.iter().map(|&i| csr.indexer().asn(i)).collect()
            };
            prop_assert_eq!(to_asns(csr.providers(id)), g.providers(asn));
            prop_assert_eq!(to_asns(csr.customers(id)), g.customers(asn));
            prop_assert_eq!(to_asns(csr.peers(id)), g.peers(asn));
            prop_assert_eq!(to_asns(csr.siblings(id)), g.siblings(asn));
        }
    }

    /// The allocation-free CSR BFS visits exactly the reference cone set,
    /// for every AS, even when one scratch is reused across all of them.
    #[test]
    fn csr_cone_sets_match_reference(g in arb_graph()) {
        let csr = CsrGraph::build(&g);
        let mut scratch = ConeScratch::new();
        for asn in g.ases() {
            let reference = cone::customer_cone(&g, asn);
            let id = csr.indexer().id(asn).expect("graph AS is interned");
            let dense: BTreeSet<Asn> = csr
                .customer_cone_ids(id, &mut scratch)
                .iter()
                .map(|&i| csr.indexer().asn(i))
                .collect();
            prop_assert_eq!(&dense, &reference);
            prop_assert_eq!(csr.customer_cone_size(id, &mut scratch), reference.len());
        }
    }

    /// The dense whole-graph cone sizes equal the BTree baseline's, with the
    /// same key set.
    #[test]
    fn dense_cone_sizes_match_baseline(g in arb_graph()) {
        let dense = cone::customer_cone_sizes_csr(&CsrGraph::build(&g));
        let reference = cone::baseline::customer_cone_sizes_btree(&g);
        prop_assert_eq!(dense.len(), reference.len());
        for (asn, size) in dense.iter() {
            prop_assert_eq!(reference.get(&asn).copied(), Some(size));
        }
    }

    /// Hybrid PPDC cones (sparse id lists below the density cutoff, bitset
    /// rows above it) equal the hash-based baseline: same key set, same
    /// members, same sizes, same membership answers, and ASN-ascending
    /// iteration — whichever representation each row landed on.
    #[test]
    fn ppdc_bitsets_match_baseline(ps in arb_pathset(), g in arb_graph()) {
        let rels: std::collections::BTreeMap<Link, Rel> = g.links().collect();
        let dense = cone::ppdc_cones(&ps, &rels);
        let reference = cone::baseline::ppdc_cones_hash(&ps, &rels);
        prop_assert_eq!(dense.indexer().len(), reference.len());
        let sizes = dense.sizes();
        let all: Vec<Asn> = dense.indexer().iter().collect();
        for (asn, members) in &reference {
            let expect: BTreeSet<Asn> = members.iter().copied().collect();
            // `contains` agrees with the reference for every observed AS,
            // member or not (binary search vs bit probe per row form).
            for &candidate in &all {
                prop_assert_eq!(
                    dense.contains(*asn, candidate),
                    Some(expect.contains(&candidate))
                );
            }
            prop_assert_eq!(dense.contains(*asn, Asn(u32::MAX)), Some(false));
            prop_assert_eq!(dense.members(*asn), Some(expect));
            prop_assert_eq!(sizes.get(*asn), Some(members.len()));
        }
        // Size iteration stays in strictly ascending ASN order.
        let order: Vec<Asn> = sizes.iter().map(|(a, _)| a).collect();
        prop_assert!(order.windows(2).all(|w| w[0] < w[1]));
    }
}
