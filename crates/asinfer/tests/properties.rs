//! Property tests for the inference algorithms: well-formed outputs on
//! arbitrary path sets, stability invariants, and the provider-cycle repair
//! and the link features against the hash-based passes they replaced.

use asgraph::{AsPath, Asn, Link, PathSet, PathStats, Rel};
use asinfer::features::{compute_features, LinkFeatures, N_BUCKETS};
use asinfer::{
    break_provider_cycles, AsRank, Classifier, CycleBreakReport, GaoClassifier, PreparedPaths,
    ProbLink, TopoScope, Unari,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};
#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code it was replaced by"
)]
use std::collections::{HashMap, HashSet};

/// Reference features: `compute_features` as it ran before it moved to the
/// statistics' dense ids, with neighbour sets, clique distances and
/// triplet support in hash containers keyed by ASN or `Link`.
#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code it was replaced by"
)]
fn compute_features_hash(
    paths: &PathSet,
    stats: &PathStats,
    clique: &BTreeSet<Asn>,
) -> HashMap<Link, LinkFeatures> {
    let log_bucket = |v: usize| {
        let (mut b, mut x) = (0u8, v);
        while x > 0 && b < (N_BUCKETS as u8 - 1) {
            x >>= 1;
            b += 1;
        }
        b
    };
    let mut neighbors: HashMap<Asn, HashSet<Asn>> = HashMap::new();
    for link in stats.links() {
        let (a, b) = link.endpoints();
        neighbors.entry(a).or_default().insert(b);
        neighbors.entry(b).or_default().insert(a);
    }

    let mut dist: HashMap<Asn, u8> = HashMap::new();
    let mut queue: VecDeque<Asn> = VecDeque::new();
    for &c in clique {
        dist.insert(c, 0);
        queue.push_back(c);
    }
    while let Some(u) = queue.pop_front() {
        let d = dist[&u];
        if d as usize >= N_BUCKETS - 1 {
            continue;
        }
        if let Some(ns) = neighbors.get(&u) {
            for &v in ns {
                dist.entry(v).or_insert_with(|| {
                    queue.push_back(v);
                    d + 1
                });
            }
        }
    }

    let mut support: HashMap<Link, usize> = HashMap::new();
    for (_, hops) in paths.iter() {
        for w in hops.windows(3) {
            if clique.contains(&w[0]) {
                if let Some(link) = Link::new(w[1], w[2]) {
                    *support.entry(link).or_insert(0) += 1;
                }
            }
        }
    }

    let mut out = HashMap::with_capacity(stats.links().len());
    for link in stats.links() {
        let (a, b) = link.endpoints();
        let (da, db) = (
            stats.transit_degree(a).max(1),
            stats.transit_degree(b).max(1),
        );
        let ratio = da.max(db) / da.min(db);
        let common = neighbors
            .get(&a)
            .map(|na| {
                neighbors
                    .get(&b)
                    .map(|nb| na.intersection(nb).count())
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        let d = dist
            .get(&a)
            .copied()
            .unwrap_or(N_BUCKETS as u8 - 1)
            .min(dist.get(&b).copied().unwrap_or(N_BUCKETS as u8 - 1));
        out.insert(
            *link,
            LinkFeatures {
                vp_bucket: log_bucket(stats.vp_count(*link)),
                degree_ratio_bucket: log_bucket(ratio),
                dist_to_clique: d.min(N_BUCKETS as u8 - 1),
                triplet_support: log_bucket(support.get(link).copied().unwrap_or(0)),
                common_neighbors: log_bucket(common),
            },
        );
    }
    out
}

/// Reference cycle repair: `break_provider_cycles` as it ran before its
/// search moved to dense ids, with a Kahn pass and a cycle walk in fresh
/// `HashMap`s for every cycle it breaks.
fn break_provider_cycles_hash(
    edges: &mut BTreeSet<(Asn, Asn)>,
    transit_degree: impl Fn(Asn) -> usize,
) -> CycleBreakReport {
    let mut report = CycleBreakReport::default();
    let mut flipped_once: BTreeSet<Link> = BTreeSet::new();
    loop {
        let residue = p2c_residue_hash(edges);
        if residue.is_empty() {
            break;
        }
        let cycle = find_cycle_hash(edges, &residue);
        let Some(&(provider, customer)) = cycle.iter().min_by_key(|&&(p, c)| {
            (
                transit_degree(p).abs_diff(transit_degree(c)),
                usize::from(transit_degree(p) >= transit_degree(c)),
                p.0,
                c.0,
            )
        }) else {
            break;
        };
        let rank_inverted = transit_degree(customer) > transit_degree(provider);
        let link = Link::new(provider, customer);
        edges.remove(&(provider, customer));
        if rank_inverted
            && link.map(|l| flipped_once.insert(l)).unwrap_or(false)
            && !edges.contains(&(customer, provider))
        {
            edges.insert((customer, provider));
            report.flipped += 1;
        } else {
            report.dropped += 1;
        }
    }
    report
}

/// Kahn's algorithm over the provider→customer edges: the ASes left on
/// cycles (empty for a DAG).
#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code it was replaced by"
)]
fn p2c_residue_hash(edges: &BTreeSet<(Asn, Asn)>) -> BTreeSet<Asn> {
    let mut indegree: HashMap<Asn, usize> = HashMap::new();
    let mut customers: HashMap<Asn, Vec<Asn>> = HashMap::new();
    for &(p, c) in edges {
        customers.entry(p).or_default().push(c);
        *indegree.entry(c).or_insert(0) += 1;
        indegree.entry(p).or_insert(0);
    }
    let mut queue: Vec<Asn> = indegree
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(a, _)| *a)
        .collect();
    while let Some(p) = queue.pop() {
        for c in customers.get(&p).into_iter().flatten() {
            let d = indegree.get_mut(c).expect("every customer has an indegree");
            *d -= 1;
            if *d == 0 {
                queue.push(*c);
            }
        }
        indegree.remove(&p);
    }
    indegree.keys().copied().collect()
}

/// One provider cycle in the residue: from the smallest residue AS, step to
/// the smallest in-residue provider until a node repeats.
#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code it was replaced by"
)]
fn find_cycle_hash(edges: &BTreeSet<(Asn, Asn)>, residue: &BTreeSet<Asn>) -> Vec<(Asn, Asn)> {
    let mut providers_of: HashMap<Asn, Asn> = HashMap::new();
    for &(p, c) in edges {
        if residue.contains(&p) && residue.contains(&c) {
            providers_of.entry(c).or_insert(p);
        }
    }
    let Some(&start) = residue.iter().next() else {
        return Vec::new();
    };
    let mut walk: Vec<Asn> = vec![start];
    let mut seen_at: HashMap<Asn, usize> = HashMap::from([(start, 0)]);
    loop {
        let cur = *walk.last().expect("the walk starts non-empty");
        let Some(&prov) = providers_of.get(&cur) else {
            return Vec::new();
        };
        if let Some(&k) = seen_at.get(&prov) {
            let mut cycle: Vec<(Asn, Asn)> = walk[k..].windows(2).map(|w| (w[1], w[0])).collect();
            cycle.push((prov, cur));
            return cycle;
        }
        seen_at.insert(prov, walk.len());
        walk.push(prov);
    }
}

/// A random provider→customer digraph over up to 12 ASes, dense enough for
/// tangles of cycles (two-node cycles and self-loops included), with
/// transit degrees drawn from four values so that ties are common.
fn arb_digraph() -> impl Strategy<Value = (BTreeSet<(Asn, Asn)>, Vec<usize>)> {
    (1u32..13).prop_flat_map(|n| {
        let asn = move |i: u32| Asn(7 * i + 3);
        let edge = (0..n, 0..n).prop_map(move |(p, c)| (asn(p), asn(c)));
        (
            prop::collection::btree_set(edge, 0..(n * n) as usize),
            prop::collection::vec(0usize..4, n as usize),
        )
    })
}

fn arb_pathset() -> impl Strategy<Value = PathSet> {
    prop::collection::vec(prop::collection::vec(1u32..120, 2..8), 1..40).prop_map(|paths| {
        let mut ps = PathSet::new();
        for hops in paths {
            let hops: Vec<Asn> = hops.into_iter().map(Asn).collect();
            let vp = hops[0];
            ps.push(vp, AsPath::new(hops));
        }
        ps
    })
}

fn classifiers() -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(GaoClassifier::new()),
        Box::new(AsRank::new()),
        Box::new(ProbLink::new()),
        Box::new(TopoScope::new()),
        Box::new(Unari::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every classifier labels exactly the sanitized observed links, every
    /// P2C orientation is valid, and no classifier panics on arbitrary input.
    #[test]
    fn outputs_are_well_formed(ps in arb_pathset()) {
        let observed = ps.sanitized().stats().links().clone();
        for c in classifiers() {
            let inf = c.infer(&ps);
            prop_assert_eq!(
                inf.rels.len(),
                observed.len(),
                "{} must label every observed link exactly once",
                c.name()
            );
            for (link, rel) in &inf.rels {
                prop_assert!(observed.contains(link), "{}: invented {link}", c.name());
                prop_assert!(rel.is_valid_for(*link), "{}: invalid orientation on {link}", c.name());
            }
        }
    }

    /// Determinism: same input twice, identical output, for every algorithm.
    #[test]
    fn all_classifiers_deterministic(ps in arb_pathset()) {
        for c in classifiers() {
            prop_assert_eq!(c.infer(&ps), c.infer(&ps), "{} not deterministic", c.name());
        }
    }

    /// The inferred clique is always fully meshed in the observed links.
    #[test]
    fn inferred_clique_is_a_clique(ps in arb_pathset()) {
        let inf = AsRank::new().infer(&ps);
        let observed = ps.sanitized().stats().links().clone();
        let members: Vec<Asn> = inf.clique.iter().copied().collect();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let link = Link::new(members[i], members[j]).unwrap();
                prop_assert!(
                    observed.contains(&link),
                    "clique pair {link} not adjacent in observed links"
                );
                prop_assert_eq!(inf.rel(link), Some(Rel::P2p));
            }
        }
    }

    /// UNARI's hard labels agree with its belief argmax, and the beliefs are
    /// proper distributions.
    #[test]
    fn unari_beliefs_consistent(ps in arb_pathset()) {
        let unari = Unari::new();
        let inf = unari.infer(&ps);
        let clean = ps.sanitized();
        let stats = clean.stats();
        let beliefs = unari.beliefs(PreparedPaths::new(&clean, &stats));
        prop_assert_eq!(inf.rels.len(), beliefs.len());
        for (link, belief) in &beliefs {
            prop_assert!((belief.p_p2c + belief.p_p2p - 1.0).abs() < 1e-9);
            prop_assert_eq!(inf.rel(*link), Some(belief.hard_label()));
        }
    }
}

/// A path set over few ASes, so shared neighbours and triplets through
/// the clique are common, plus one chain hanging off AS `start` that runs
/// past the clique-distance cap; the clique is random over the same ASes.
fn arb_features_input() -> impl Strategy<Value = (PathSet, BTreeSet<Asn>)> {
    let paths = prop::collection::vec(prop::collection::vec(1u32..40, 1..9), 0..60);
    let chain = (1u32..40, 0u32..25);
    let clique = prop::collection::btree_set((1u32..45).prop_map(Asn), 0..6);
    (paths, chain, clique).prop_map(|(paths, (start, len), clique)| {
        let mut ps = PathSet::new();
        for hops in paths {
            let hops: Vec<Asn> = hops.into_iter().map(Asn).collect();
            ps.push(hops[0], AsPath::new(hops));
        }
        let chain = std::iter::once(start).chain(100..100 + len).map(Asn);
        ps.push(Asn(start), AsPath::new(chain.collect()));
        (ps, clique)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense features equal the hash oracle's on every link, in all
    /// five buckets, and come back one per link id.
    #[test]
    fn features_match_hash_baseline((ps, clique) in arb_features_input()) {
        let stats = ps.stats();
        let dense = compute_features(&ps, &stats, &clique);
        let oracle = compute_features_hash(&ps, &stats, &clique);
        prop_assert_eq!(dense.len(), stats.links().len());
        for (link, features) in stats.links().iter().zip(&dense) {
            prop_assert_eq!(features.dims(), oracle[link].dims(), "{}", link);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The dense cycle repair returns the same edges and the same report as
    /// the hash oracle, and leaves no cycle behind.
    #[test]
    fn cycle_repair_matches_hash_baseline((edges, degrees) in arb_digraph()) {
        let td = |a: Asn| degrees[((a.0 - 3) / 7) as usize];
        let (mut dense, mut reference) = (edges.clone(), edges);
        let report = break_provider_cycles(&mut dense, td);
        prop_assert_eq!(report, break_provider_cycles_hash(&mut reference, td));
        prop_assert_eq!(&dense, &reference);
        prop_assert!(break_provider_cycles(&mut dense, td).untouched());
    }
}
