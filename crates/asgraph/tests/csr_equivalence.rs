//! Equivalence of the dense core against the BTree substrate: `CsrGraph`
//! must mirror `AsGraph` exactly (per-role neighbors, cone sets, cone
//! sizes) and the hybrid PPDC cones must match a hash-based oracle, on fixed
//! and on arbitrary seeded inputs. The oracles are the BTree/hash kernels
//! the dense core replaced; they live here so release builds never compile
//! them.

use asgraph::{cone, AsGraph, AsPath, Asn, ConeScratch, CsrGraph, Link, PathSet, Rel};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Reference customer-cone sizes: one fresh `BTreeSet` BFS per AS.
fn customer_cone_sizes_btree(graph: &AsGraph) -> HashMap<Asn, usize> {
    graph
        .ases()
        .map(|asn| (asn, cone::customer_cone(graph, asn).len()))
        .collect()
}

/// Reference PPDC cones: per-AS `HashSet` cones in a `HashMap`.
fn ppdc_cones_hash(paths: &PathSet, rels: &BTreeMap<Link, Rel>) -> HashMap<Asn, HashSet<Asn>> {
    let mut cones: HashMap<Asn, HashSet<Asn>> = HashMap::new();
    for (_, c) in paths.iter() {
        for i in 1..c.len() {
            let upstream = c[i - 1];
            let x = c[i];
            let Some(link) = Link::new(upstream, x) else {
                continue;
            };
            let from_provider_or_peer = match rels.get(&link) {
                Some(Rel::P2p) => true,
                Some(Rel::P2c { provider }) => *provider == upstream,
                _ => false,
            };
            if from_provider_or_peer {
                let cone = cones.entry(x).or_default();
                for &d in &c[i + 1..] {
                    cone.insert(d);
                }
            }
        }
    }
    // Every observed AS is in its own cone.
    let stats = paths.stats();
    for asn in stats.ases() {
        cones.entry(asn).or_default().insert(asn);
    }
    cones
}

/// Asserts that the dense PPDC cones of `paths` equal the oracle's.
fn assert_ppdc_matches_oracle(paths: &PathSet, rels: &BTreeMap<Link, Rel>) {
    let dense = cone::ppdc_cones(paths, rels);
    let reference = ppdc_cones_hash(paths, rels);
    assert_eq!(dense.indexer().len(), reference.len());
    for (&asn, members) in &reference {
        let expect: BTreeSet<Asn> = members.iter().copied().collect();
        assert_eq!(dense.members(asn), Some(expect), "cone of {asn:?}");
    }
}

fn l(a: u32, b: u32) -> Link {
    Link::new(Asn(a), Asn(b)).expect("distinct endpoints")
}

fn p2c(provider: u32) -> Rel {
    Rel::P2c {
        provider: Asn(provider),
    }
}

fn path(hops: &[u32]) -> AsPath {
    AsPath::new(hops.iter().map(|&a| Asn(a)).collect())
}

#[test]
fn dense_cone_sizes_match_btree_baseline() {
    let mut g = AsGraph::new();
    for (link, rel) in [
        (l(1, 2), p2c(1)),
        (l(2, 3), p2c(2)),
        (l(2, 4), p2c(2)),
        (l(4, 5), p2c(4)),
        (l(1, 6), Rel::P2p),
    ] {
        g.add_rel(link, rel).expect("fresh link accepts rel");
    }
    let dense = cone::customer_cone_sizes_csr(&CsrGraph::build(&g));
    let reference = customer_cone_sizes_btree(&g);
    assert_eq!(dense.len(), reference.len());
    for (asn, size) in dense.iter() {
        assert_eq!(reference.get(&asn), Some(&size));
    }
}

#[test]
fn ppdc_bitsets_match_hash_baseline() {
    let rels = BTreeMap::from([
        (l(1, 2), p2c(1)),
        (l(2, 3), p2c(2)),
        (l(3, 4), p2c(3)),
        (l(5, 2), Rel::P2p),
    ]);
    let mut ps = PathSet::new();
    ps.push(Asn(1), path(&[1, 2, 3, 4]));
    ps.push(Asn(5), path(&[5, 2, 3]));
    assert_ppdc_matches_oracle(&ps, &rels);
}

/// A 12-AS provider chain puts the big cones on dense rows and the short
/// tail cones on sparse ones (the cutoff floor of 8 applies): both forms
/// agree with the oracle, member for member.
#[test]
fn hybrid_rows_match_hash_baseline() {
    let chain: Vec<u32> = (1..=12).collect();
    let rels: BTreeMap<Link, Rel> = chain
        .windows(2)
        .map(|w| (l(w[0], w[1]), p2c(w[0])))
        .collect();
    let mut ps = PathSet::new();
    ps.push(Asn(1), path(&chain));
    let stats = cone::ppdc_cones(&ps, &rels).storage_stats();
    assert!(stats.sparse_rows > 0 && stats.dense_rows > 0, "{stats:?}");
    assert_ppdc_matches_oracle(&ps, &rels);
}

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
            if let Some(&vp) = hops.first() {
                ps.push_hops(vp, hops);
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
        let reference = customer_cone_sizes_btree(&g);
        prop_assert_eq!(dense.len(), reference.len());
        for (asn, size) in dense.iter() {
            prop_assert_eq!(reference.get(&asn).copied(), Some(size));
        }
    }

    /// Hybrid PPDC cones (sparse id lists below the density cutoff, bitset
    /// rows above it) equal the hash-based baseline: same key set, same
    /// members, same sizes, same membership answers, and ASN-ascending
    /// iteration — whichever representation each row landed on. One walk
    /// over three independent labellings gets every table right, and a walk
    /// over none returns no tables.
    #[test]
    fn ppdc_bitsets_match_baseline(
        ps in arb_pathset(),
        graphs in (arb_graph(), arb_graph(), arb_graph()),
    ) {
        let labellings: Vec<BTreeMap<Link, Rel>> = [graphs.0, graphs.1, graphs.2]
            .iter()
            .map(|g| g.links().collect())
            .collect();
        let refs: Vec<&BTreeMap<Link, Rel>> = labellings.iter().collect();
        let tables = cone::ppdc_cones_each(&ps, &refs);
        prop_assert_eq!(tables.len(), labellings.len());
        prop_assert!(cone::ppdc_cones_each(&ps, &[]).is_empty());
        for (rels, dense) in labellings.iter().zip(&tables) {
            let reference = ppdc_cones_hash(&ps, rels);
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
}
