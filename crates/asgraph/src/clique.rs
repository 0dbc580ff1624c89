//! Tier-1 clique inference (the first stage of the ASRank pipeline).
//!
//! Following Luckie et al. 2013: rank ASes by transit degree, find the largest
//! clique among the top candidates with Bron–Kerbosch, then greedily extend it
//! in rank order with ASes fully meshed with the current members.

use crate::asn::Asn;
use crate::link::Link;
use crate::paths::PathStats;
use std::collections::{BTreeMap, BTreeSet};

/// Parameters for clique inference.
#[derive(Debug, Clone, Copy)]
pub struct CliqueParams {
    /// Size of the seed candidate set (top-N by transit degree).
    pub seed_candidates: usize,
    /// How far down the transit-degree ranking the greedy extension scans.
    pub extension_scan: usize,
}

impl Default for CliqueParams {
    fn default() -> Self {
        CliqueParams {
            seed_candidates: 15,
            extension_scan: 60,
        }
    }
}

/// Infers the provider-free clique at the top of the hierarchy from observed
/// path statistics.
///
/// Returns the members sorted by ASN. Empty input yields an empty clique.
#[must_use]
pub fn infer_clique(stats: &PathStats, params: CliqueParams) -> BTreeSet<Asn> {
    let ranking = stats.transit_degree_ranking();
    let Some(&top) = ranking.first() else {
        return BTreeSet::new();
    };

    // Adjacency restricted to the scan window.
    let window: Vec<Asn> = ranking
        .iter()
        .copied()
        .take(params.extension_scan.max(params.seed_candidates))
        .collect();
    let mut adj: BTreeMap<Asn, BTreeSet<Asn>> =
        window.iter().map(|a| (*a, BTreeSet::new())).collect();
    for link in stats.links() {
        let (a, b) = link.endpoints();
        if adj.contains_key(&a) && adj.contains_key(&b) {
            adj.entry(a).or_default().insert(b);
            adj.entry(b).or_default().insert(a);
        }
    }

    // Largest clique among the seed candidates (Bron–Kerbosch with pivoting),
    // constrained to contain the top-ranked AS — Luckie et al. seed the
    // clique with the largest-transit-degree AS.
    let seeds: Vec<Asn> = window
        .iter()
        .copied()
        .take(params.seed_candidates)
        .collect();
    // The window is a prefix of the ranking, so its positions are ranks.
    let rank: BTreeMap<Asn, usize> = window.iter().enumerate().map(|(i, a)| (*a, i)).collect();
    let top_neighbors = adj.get(&top).cloned().unwrap_or_default();
    let mut best: Vec<Asn> = vec![top];
    let mut r = vec![top];
    let p: BTreeSet<Asn> = seeds
        .iter()
        .copied()
        .filter(|s| top_neighbors.contains(s))
        .collect();
    let x = BTreeSet::new();
    bron_kerbosch(&adj, &rank, &mut r, p, x, &mut best);

    let mut clique: BTreeSet<Asn> = best.into_iter().collect();

    // Greedy extension in rank order.
    for asn in &window {
        if clique.contains(asn) {
            continue;
        }
        let neighbors = match adj.get(asn) {
            Some(n) => n,
            None => continue,
        };
        if clique.iter().all(|m| neighbors.contains(m)) {
            clique.insert(*asn);
        }
    }
    clique
}

fn bron_kerbosch(
    adj: &BTreeMap<Asn, BTreeSet<Asn>>,
    rank: &BTreeMap<Asn, usize>,
    r: &mut Vec<Asn>,
    mut p: BTreeSet<Asn>,
    mut x: BTreeSet<Asn>,
    best: &mut Vec<Asn>,
) {
    let rank_of = |a: &Asn| rank.get(a).copied().unwrap_or(usize::MAX);
    let rank_sum = |v: &[Asn]| -> usize { v.iter().map(|a| rank_of(a).min(1 << 20)).sum() };
    if p.is_empty() && x.is_empty() {
        // Bigger clique wins; ties go to the better-ranked (lower rank sum)
        // member set — deterministic regardless of set-iteration order.
        if r.len() > best.len() || (r.len() == best.len() && rank_sum(r) < rank_sum(best)) {
            *best = r.clone();
        }
        return;
    }
    // Pivot: the candidate with the most neighbors in P (ties by rank).
    let pivot = p
        .iter()
        .chain(x.iter())
        .max_by_key(|v| {
            let nbrs = adj
                .get(v)
                .map(|n| n.iter().filter(|u| p.contains(u)).count())
                .unwrap_or(0);
            (nbrs, std::cmp::Reverse(rank_of(v)))
        })
        .copied();
    let mut candidates: Vec<Asn> = match pivot {
        Some(pv) => {
            let pv_nbrs = adj.get(&pv).cloned().unwrap_or_default();
            p.iter().filter(|v| !pv_nbrs.contains(v)).copied().collect()
        }
        None => p.iter().copied().collect(),
    };
    candidates.sort_by_key(|a| (rank_of(a), a.0));
    for v in candidates {
        let nbrs = adj.get(&v).cloned().unwrap_or_default();
        r.push(v);
        let p2: BTreeSet<Asn> = p.intersection(&nbrs).copied().collect();
        let x2: BTreeSet<Asn> = x.intersection(&nbrs).copied().collect();
        bron_kerbosch(adj, rank, r, p2, x2, best);
        r.pop();
        p.remove(&v);
        x.insert(v);
    }
}

/// Convenience: `true` if `link` connects two clique members.
#[must_use]
pub fn is_clique_link(clique: &BTreeSet<Asn>, link: Link) -> bool {
    clique.contains(&link.a()) && clique.contains(&link.b())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{AsPath, PathSet};

    /// Builds paths whose interior transit structure makes ASes 1,2,3 the
    /// fully-meshed top tier, with 4 a high-degree AS *not* meshed with 3.
    fn sample_stats() -> PathStats {
        let mut ps = PathSet::new();
        let mk = |hops: &[u32]| AsPath::new(hops.iter().map(|&h| Asn(h)).collect());
        // Clique mesh traffic: 1-2, 1-3, 2-3, each in transit positions.
        ps.push(Asn(10), mk(&[10, 1, 2, 20]));
        ps.push(Asn(10), mk(&[10, 1, 3, 30]));
        ps.push(Asn(11), mk(&[11, 2, 3, 31]));
        ps.push(Asn(11), mk(&[11, 2, 1, 21]));
        ps.push(Asn(12), mk(&[12, 3, 1, 22]));
        ps.push(Asn(12), mk(&[12, 3, 2, 23]));
        // AS4: well connected to 1 and 2 but not 3.
        ps.push(Asn(13), mk(&[13, 4, 1, 24]));
        ps.push(Asn(13), mk(&[13, 4, 2, 25]));
        // Give 1,2,3 extra transit degree so they rank above 4.
        ps.push(Asn(14), mk(&[14, 1, 40]));
        ps.push(Asn(14), mk(&[14, 2, 41]));
        ps.push(Asn(14), mk(&[14, 3, 42]));
        ps.stats()
    }

    #[test]
    fn finds_top_mesh() {
        let clique = infer_clique(&sample_stats(), CliqueParams::default());
        assert!(clique.contains(&Asn(1)));
        assert!(clique.contains(&Asn(2)));
        assert!(clique.contains(&Asn(3)));
        assert!(!clique.contains(&Asn(4)), "AS4 lacks a link to AS3");
    }

    #[test]
    fn empty_input_yields_empty_clique() {
        let ps = PathSet::new();
        let clique = infer_clique(&ps.stats(), CliqueParams::default());
        assert!(clique.is_empty());
    }

    #[test]
    fn clique_link_test() {
        let clique: BTreeSet<Asn> = [Asn(1), Asn(2)].into_iter().collect();
        assert!(is_clique_link(&clique, Link::new(Asn(1), Asn(2)).unwrap()));
        assert!(!is_clique_link(&clique, Link::new(Asn(1), Asn(3)).unwrap()));
    }
}
