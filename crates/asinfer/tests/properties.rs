//! Property tests for the inference algorithms: well-formed outputs on
//! arbitrary path sets, stability invariants, and the provider-cycle repair
//! against the hash-based pass it replaced.

use asgraph::{AsPath, Asn, Link, PathSet, Rel};
use asinfer::{
    break_provider_cycles, AsRank, Classifier, CycleBreakReport, GaoClassifier, PreparedPaths,
    ProbLink, TopoScope, Unari,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

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
