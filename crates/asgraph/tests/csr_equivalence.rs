//! Equivalence of the dense core against BTree and hash oracles: `CsrGraph`
//! must mirror a per-role view read off the link map exactly (per-role
//! neighbors, cone sets, cone sizes), and the hybrid PPDC cones and the
//! dense path statistics must match hash-based oracles, on fixed and on
//! arbitrary seeded inputs. The oracles are the BTree/hash kernels the
//! dense core replaced; they live here so release builds never compile
//! them.

use asgraph::{
    cone, AsGraph, AsPath, Asn, ConeScratch, CsrGraph, Link, NeighborRole, PathSet, Rel,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code it was replaced by"
)]
use std::collections::{HashMap, HashSet};

/// Reference adjacency: every AS with a link, and its neighbours per
/// [`NeighborRole`] (at `role as usize`), read off the link map. Links
/// iterate in ascending order, so every list comes out ascending.
type RoleView = BTreeMap<Asn, [Vec<Asn>; 4]>;

fn role_view(graph: &AsGraph) -> RoleView {
    let mut view = RoleView::new();
    for (link, rel) in graph {
        let (a, b) = link.endpoints();
        let (role_of_b, role_of_a) = match *rel {
            Rel::P2c { provider } if provider == a => {
                (NeighborRole::Customer, NeighborRole::Provider)
            }
            Rel::P2c { .. } => (NeighborRole::Provider, NeighborRole::Customer),
            Rel::P2p => (NeighborRole::Peer, NeighborRole::Peer),
            Rel::S2s => (NeighborRole::Sibling, NeighborRole::Sibling),
        };
        view.entry(a).or_default()[role_of_b as usize].push(b);
        view.entry(b).or_default()[role_of_a as usize].push(a);
    }
    view
}

/// Reference customer cone of `asn` (self included): a `BTreeSet` BFS over
/// the view's customer lists.
fn customer_cone(view: &RoleView, asn: Asn) -> BTreeSet<Asn> {
    let mut cone = BTreeSet::from([asn]);
    let mut queue = VecDeque::from([asn]);
    while let Some(current) = queue.pop_front() {
        for &customer in &view[&current][NeighborRole::Customer as usize] {
            if cone.insert(customer) {
                queue.push_back(customer);
            }
        }
    }
    cone
}

/// Reference path statistics: the `HashMap<_, HashSet<_>>` folds
/// `PathSet::stats` made before it kept dense ids.
#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code it was replaced by"
)]
struct StatsOracle {
    /// Distinct path neighbours per AS on some link.
    neighbors: HashMap<Asn, HashSet<Asn>>,
    /// Distinct path neighbours per AS in a transit (interior) position.
    transit: HashMap<Asn, HashSet<Asn>>,
    /// Distinct VPs per link.
    link_vps: HashMap<Link, HashSet<Asn>>,
}

#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code it was replaced by"
)]
fn path_stats_hash(paths: &PathSet) -> StatsOracle {
    let mut neighbors: HashMap<Asn, HashSet<Asn>> = HashMap::new();
    let mut transit: HashMap<Asn, HashSet<Asn>> = HashMap::new();
    let mut link_vps: HashMap<Link, HashSet<Asn>> = HashMap::new();
    for (vp, c) in paths.iter() {
        for w in c.windows(2) {
            if let Some(link) = Link::new(w[0], w[1]) {
                neighbors.entry(w[0]).or_default().insert(w[1]);
                neighbors.entry(w[1]).or_default().insert(w[0]);
                link_vps.entry(link).or_default().insert(vp);
            }
        }
        for w in c.windows(3) {
            let t = transit.entry(w[1]).or_default();
            t.insert(w[0]);
            t.insert(w[2]);
        }
    }
    StatsOracle {
        neighbors,
        transit,
        link_vps,
    }
}

/// Reference customer-cone sizes: one fresh `BTreeSet` BFS per AS.
#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code it was replaced by"
)]
fn customer_cone_sizes_btree(graph: &AsGraph) -> HashMap<Asn, usize> {
    let view = role_view(graph);
    view.keys()
        .map(|&asn| (asn, customer_cone(&view, asn).len()))
        .collect()
}

/// Reference PPDC cones: per-AS `HashSet` cones in a `HashMap`.
#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code it was replaced by"
)]
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
    for asn in path_stats_hash(paths).neighbors.into_keys() {
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

/// A hop: mostly a small ASN, sometimes a reserved one (private use,
/// `AS_TRANS`, AS 0), which the path store keeps like any other.
fn arb_hop() -> impl Strategy<Value = Asn> {
    prop_oneof![
        arb_asn(),
        arb_asn(),
        arb_asn(),
        prop::sample::select(vec![Asn(0), Asn(23_456), Asn(64_512), Asn(65_535)]),
    ]
}

fn arb_pathset() -> impl Strategy<Value = PathSet> {
    // Paths long enough that some PPDC cones cross the sparse/dense cutoff
    // (8 at this scale), so both row representations are exercised. A hop
    // may repeat at once (prepending) or later (a loop), and a path may
    // have no hop or one; its VP is drawn apart from its hops.
    let hop = (
        arb_hop(),
        prop_oneof![Just(1usize), Just(1), Just(1), 2usize..4],
    );
    let path = (arb_asn(), prop::collection::vec(hop, 0..16));
    prop::collection::vec(path, 0..25).prop_map(|paths| {
        let mut ps = PathSet::new();
        for (vp, hops) in paths {
            let hops = hops
                .into_iter()
                .flat_map(|(asn, copies)| std::iter::repeat_n(asn, copies));
            ps.push_hops(vp, hops);
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
        let view = role_view(&g);
        prop_assert_eq!(csr.node_count(), view.len());
        for (&asn, roles) in &view {
            let id = csr.indexer().id(asn).expect("graph AS is interned");
            let to_asns = |ids: &[u32]| -> Vec<Asn> {
                ids.iter().map(|&i| csr.indexer().asn(i)).collect()
            };
            prop_assert_eq!(&to_asns(csr.providers(id)), &roles[NeighborRole::Provider as usize]);
            prop_assert_eq!(&to_asns(csr.customers(id)), &roles[NeighborRole::Customer as usize]);
            prop_assert_eq!(&to_asns(csr.peers(id)), &roles[NeighborRole::Peer as usize]);
            prop_assert_eq!(&to_asns(csr.siblings(id)), &roles[NeighborRole::Sibling as usize]);
        }
    }

    /// The allocation-free CSR BFS visits exactly the reference cone set,
    /// for every AS, even when one scratch is reused across all of them.
    #[test]
    fn csr_cone_sets_match_reference(g in arb_graph()) {
        let csr = CsrGraph::build(&g);
        let view = role_view(&g);
        let mut scratch = ConeScratch::new();
        for &asn in view.keys() {
            let reference = customer_cone(&view, asn);
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
            .map(|g| g.into_iter().map(|(l, r)| (*l, *r)).collect())
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

    /// The dense path statistics answer every getter as the hash oracle
    /// does: both degrees and the neighbour row of every AS (and 0 for one
    /// never seen), the VP count of every link by `Link` and by id, the
    /// link set, the AS set, the transit-degree ranking and the VP list;
    /// link ids follow `Link` order.
    #[test]
    fn path_stats_match_hash_baseline(ps in arb_pathset()) {
        let stats = ps.stats();
        let oracle = path_stats_hash(&ps);
        #[expect(clippy::disallowed_types, reason = "a hash-based oracle checks the ordered code it was replaced by")]
        let degree = |sets: &HashMap<Asn, HashSet<Asn>>, asn: Asn| sets.get(&asn).map_or(0, HashSet::len);
        let mut ases: Vec<Asn> = oracle.neighbors.keys().copied().collect();
        ases.sort();
        prop_assert_eq!(stats.ases(), ases.clone());
        for asn in ases.iter().copied().chain([Asn(1_000), Asn(u32::MAX)]) {
            prop_assert_eq!(stats.node_degree(asn), degree(&oracle.neighbors, asn), "{:?}", asn);
            prop_assert_eq!(stats.transit_degree(asn), degree(&oracle.transit, asn), "{:?}", asn);
        }
        for (id, asn) in (0u32..).zip(ases.iter().copied()) {
            let row: Vec<Asn> =
                stats.neighbors_by_id(id).iter().map(|&n| stats.indexer().asn(n)).collect();
            let mut expected: Vec<Asn> = oracle.neighbors[&asn].iter().copied().collect();
            expected.sort();
            prop_assert_eq!(row, expected, "{:?}", asn);
        }
        let links: BTreeSet<Link> = oracle.link_vps.keys().copied().collect();
        prop_assert_eq!(stats.links(), &links);
        prop_assert_eq!(stats.link_ends().len(), links.len());
        for (id, (link, &[a, b])) in links.iter().zip(stats.link_ends()).enumerate() {
            let ends = (stats.indexer().asn(a), stats.indexer().asn(b));
            prop_assert_eq!(ends, link.endpoints());
            prop_assert_eq!(stats.link_id(a, b), Some(id as u32));
            prop_assert_eq!(stats.link_id(b, a), Some(id as u32));
            prop_assert_eq!(stats.link_id_of(*link), Some(id as u32));
            prop_assert_eq!(stats.vp_count(*link), oracle.link_vps[link].len(), "{}", link);
            prop_assert_eq!(stats.vp_count_by_id(id as u32), oracle.link_vps[link].len(), "{}", link);
        }
        let unseen = Link::new(Asn(1_000), Asn(1_001)).expect("distinct");
        prop_assert_eq!(stats.vp_count(unseen), 0);
        prop_assert_eq!(stats.link_id_of(unseen), None);
        if let [a, b, ..] = ases[..] {
            // Two observed ASes that no path joins have no link id.
            let joined = oracle.neighbors[&a].contains(&b);
            let link = Link::new(a, b).expect("distinct");
            prop_assert_eq!(stats.link_id_of(link).is_some(), joined);
        }
        let mut ranking: Vec<Asn> = oracle.transit.keys().copied().collect();
        ranking.sort_by_key(|a| (std::cmp::Reverse(degree(&oracle.transit, *a)), a.0));
        prop_assert_eq!(stats.transit_degree_ranking(), ranking);
        let vps: BTreeSet<Asn> = ps.iter().map(|(vp, _)| vp).collect();
        let vps: Vec<Asn> = vps.into_iter().collect();
        prop_assert_eq!(stats.vantage_points().iter().collect::<Vec<_>>(), vps.clone());
        prop_assert_eq!(ps.vantage_points(), vps);
        prop_assert!(stats.describes(&ps));
    }
}
