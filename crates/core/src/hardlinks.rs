//! §3.3 — "hard links" (Jin et al., NSDI 2019).
//!
//! ProbLink's authors identified five characteristics that make a link hard
//! to infer, and showed that the validation data skews toward *easy* links.
//! This module reimplements the criteria over observed data and lets the
//! experiment harness measure both effects on the simulation: per-criterion
//! error rates, and validation coverage of hard vs easy links.

use asgraph::{Asn, HopIds, Link, LinkIds, PathSet, PathStats};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Which §3.3 criteria mark a link as hard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardLinkFlags {
    /// (i) an endpoint's node degree is below the threshold.
    pub low_degree: bool,
    /// (ii) observed by a middling number of vantage points (the band where
    /// neither "everyone sees it" nor "only the owner sees it" applies).
    pub mid_visibility: bool,
    /// (iii) neither incident to a vantage point nor to a clique AS.
    pub remote: bool,
    /// (iv) a stub link with no path containing two consecutive clique ASes.
    pub stub_without_clique_pair: bool,
    /// (v) top-down classification conflict: valley-free voting supports both
    /// orientations.
    pub conflicting_votes: bool,
}

impl HardLinkFlags {
    /// `true` if any criterion fires.
    #[must_use]
    pub fn is_hard(&self) -> bool {
        self.low_degree
            || self.mid_visibility
            || self.remote
            || self.stub_without_clique_pair
            || self.conflicting_votes
    }

    /// Number of criteria firing.
    #[must_use]
    pub fn count(&self) -> usize {
        [
            self.low_degree,
            self.mid_visibility,
            self.remote,
            self.stub_without_clique_pair,
            self.conflicting_votes,
        ]
        .into_iter()
        .filter(|b| *b)
        .count()
    }
}

/// Thresholds for the criteria. Jin et al. used node degree < 100 and a
/// 50–100 VP band against the ~500-VP RouteViews/RIS constellation; defaults
/// here scale those to the simulation's collector size.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HardLinkConfig {
    /// Criterion (i) node-degree threshold.
    pub degree_threshold: usize,
    /// Criterion (ii) visibility band (inclusive), as fractions of the VP
    /// count.
    pub visibility_band: (f64, f64),
}

impl Default for HardLinkConfig {
    fn default() -> Self {
        HardLinkConfig {
            // Jin et al. used 100 against the ~61k-AS Internet; the default
            // scenario is ~1/6 that size with proportionally smaller degrees.
            degree_threshold: 30,
            visibility_band: (0.2, 0.45),
        }
    }
}

/// Classifies every observed link against the five criteria.
///
/// The walk reads `paths` through the dense ids of `stats`: clique
/// membership lives in one flag per AS id, and clique-pair sightings and
/// down votes in arrays indexed by link id.
///
/// # Panics
/// If `stats` cannot be the statistics of `paths` (see
/// [`PathStats::describes`]).
#[must_use]
pub fn classify_hard_links(
    paths: &PathSet,
    stats: &PathStats,
    clique: &BTreeSet<Asn>,
    cfg: &HardLinkConfig,
) -> BTreeMap<Link, HardLinkFlags> {
    assert!(
        stats.describes(paths),
        "classify_hard_links: `stats` must be the statistics of `paths`"
    );
    let indexer = stats.indexer();
    let vps = stats.vantage_points();
    let n_vps = vps.len().max(1);
    let band_lo = (cfg.visibility_band.0 * n_vps as f64).round() as usize;
    let band_hi = (cfg.visibility_band.1 * n_vps as f64).round() as usize;
    let mut in_clique = vec![false; indexer.len()];
    for id in clique.iter().filter_map(|&c| indexer.id(c)) {
        in_clique[id as usize] = true;
    }

    // (iv) For stub links: does any path containing the link also contain two
    // consecutive clique members? (v) Valley-free orientation votes: whether
    // some path descends the link from each of its ends.
    let n_links = stats.link_ends().len();
    let mut has_clique_pair = vec![false; n_links];
    let mut down_votes = vec![[false; 2]; n_links];
    let mut hop_ids = HopIds::new(indexer);
    let mut link_ids = LinkIds::new(stats);
    for (_, hops) in paths.iter().filter(|(_, hops)| hops.len() >= 2) {
        let ids = hop_ids.translate(hops);
        let clique_pair = ids
            .windows(2)
            .any(|w| in_clique[w[0] as usize] && in_clique[w[1] as usize]);
        let mut descending = false;
        for (i, w) in ids.windows(2).enumerate() {
            if clique_pair {
                has_clique_pair[link_ids.hop_link(w[0], w[1]) as usize] = true;
            }
            descending |= in_clique[w[0] as usize];
            if descending {
                if let Some(&v) = ids.get(i + 2) {
                    let u = w[1];
                    down_votes[link_ids.hop_link(u, v) as usize][usize::from(u > v)] = true;
                }
            }
        }
    }

    let is_vp = |id: u32| vps.contains(indexer.asn(id));
    let links = stats.links().iter().zip(stats.link_ends());
    (0u32..)
        .zip(links)
        .map(|(id, (&link, &[a, b]))| {
            let degree = stats.node_degree_by_id(a).min(stats.node_degree_by_id(b));
            let vis = stats.vp_count_by_id(id);
            let stub = stats.transit_degree_by_id(a) == 0 || stats.transit_degree_by_id(b) == 0;
            let [down_from_a, down_from_b] = down_votes[id as usize];
            let flags = HardLinkFlags {
                low_degree: degree < cfg.degree_threshold,
                mid_visibility: vis >= band_lo && vis <= band_hi,
                remote: !is_vp(a) && !is_vp(b) && !in_clique[a as usize] && !in_clique[b as usize],
                stub_without_clique_pair: stub && !has_clique_pair[id as usize],
                conflicting_votes: down_from_a && down_from_b,
            };
            (link, flags)
        })
        .collect()
}

/// Summary of hardness vs validation coverage and classification error —
/// the §3.3 skew measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HardLinkReport {
    /// Observed links considered.
    pub total_links: usize,
    /// Links with ≥1 criterion firing.
    pub hard_links: usize,
    /// Validation coverage of hard links.
    pub hard_coverage: f64,
    /// Validation coverage of easy links.
    pub easy_coverage: f64,
    /// Classifier error rate on validated hard links.
    pub hard_error_rate: f64,
    /// Classifier error rate on validated easy links.
    pub easy_error_rate: f64,
    /// Per-criterion firing counts: (label, observed links, validated links).
    pub per_criterion: Vec<(String, usize, usize)>,
}

/// Builds the report from hard-link flags, the validated link set and scored
/// links.
#[must_use]
pub fn hard_link_report(
    flags: &BTreeMap<Link, HardLinkFlags>,
    validated: &BTreeSet<Link>,
    scored: &[crate::metrics::ScoredLink],
) -> HardLinkReport {
    let total_links = flags.len();
    let hard: BTreeSet<Link> = flags
        .iter()
        .filter(|(_, f)| f.is_hard())
        .map(|(l, _)| *l)
        .collect();
    let hard_links = hard.len();
    let easy_links = total_links - hard_links;
    let hard_validated = hard.iter().filter(|l| validated.contains(l)).count();
    let easy_validated = validated.len() - hard_validated;

    let mut hard_err = (0usize, 0usize);
    let mut easy_err = (0usize, 0usize);
    for s in scored {
        let wrong = s.validation.class() != s.inferred.class();
        let bucket = if hard.contains(&s.link) {
            &mut hard_err
        } else {
            &mut easy_err
        };
        bucket.0 += 1;
        if wrong {
            bucket.1 += 1;
        }
    }

    type FlagCriterion = (&'static str, fn(&HardLinkFlags) -> bool);
    let criteria: [FlagCriterion; 5] = [
        ("low_degree", |f| f.low_degree),
        ("mid_visibility", |f| f.mid_visibility),
        ("remote", |f| f.remote),
        ("stub_without_clique_pair", |f| f.stub_without_clique_pair),
        ("conflicting_votes", |f| f.conflicting_votes),
    ];
    let per_criterion = criteria
        .into_iter()
        .map(|(name, pred)| {
            let fired: Vec<Link> = flags
                .iter()
                .filter(|(_, f)| pred(f))
                .map(|(l, _)| *l)
                .collect();
            let val = fired.iter().filter(|l| validated.contains(l)).count();
            (name.to_owned(), fired.len(), val)
        })
        .collect();

    HardLinkReport {
        total_links,
        hard_links,
        hard_coverage: hard_validated as f64 / hard_links.max(1) as f64,
        easy_coverage: easy_validated as f64 / easy_links.max(1) as f64,
        hard_error_rate: hard_err.1 as f64 / hard_err.0.max(1) as f64,
        easy_error_rate: easy_err.1 as f64 / easy_err.0.max(1) as f64,
        per_criterion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::AsPath;

    fn path(hops: &[u32]) -> AsPath {
        AsPath::new(hops.iter().map(|&h| Asn(h)).collect())
    }

    #[test]
    fn criteria_fire_as_expected() {
        let mut ps = PathSet::new();
        // Clique {1,2}; VP 10 below 1.
        ps.push(Asn(10), path(&[10, 1, 2, 20]));
        ps.push(Asn(10), path(&[10, 1, 30]));
        ps.push(Asn(11), path(&[11, 2, 1, 21]));
        // Remote link 40-41, observed via 10's paths only.
        ps.push(Asn(10), path(&[10, 1, 40, 41]));
        let stats = ps.stats();
        let clique: BTreeSet<Asn> = [Asn(1), Asn(2)].into_iter().collect();
        let cfg = HardLinkConfig {
            degree_threshold: 2,
            visibility_band: (0.9, 1.0),
        };
        let flags = classify_hard_links(&ps, &stats, &clique, &cfg);

        let l_40_41 = Link::new(Asn(40), Asn(41)).unwrap();
        assert!(flags[&l_40_41].remote, "40-41 touches no VP/clique");
        // 20 saw a clique pair (1,2) on its path; 30 did not.
        let l_2_20 = Link::new(Asn(2), Asn(20)).unwrap();
        assert!(!flags[&l_2_20].stub_without_clique_pair);
        let l_1_30 = Link::new(Asn(1), Asn(30)).unwrap();
        assert!(flags[&l_1_30].stub_without_clique_pair);
        // Links incident to VP 10 are not remote.
        let l_10_1 = Link::new(Asn(10), Asn(1)).unwrap();
        assert!(!flags[&l_10_1].remote);
    }

    #[test]
    fn flag_counting() {
        let f = HardLinkFlags {
            low_degree: true,
            conflicting_votes: true,
            ..Default::default()
        };
        assert!(f.is_hard());
        assert_eq!(f.count(), 2);
        assert!(!HardLinkFlags::default().is_hard());
    }

    #[test]
    fn report_partitions_links() {
        let l1 = Link::new(Asn(1), Asn(2)).unwrap();
        let l2 = Link::new(Asn(3), Asn(4)).unwrap();
        let mut flags = BTreeMap::new();
        flags.insert(
            l1,
            HardLinkFlags {
                low_degree: true,
                ..Default::default()
            },
        );
        flags.insert(l2, HardLinkFlags::default());
        let validated: BTreeSet<Link> = [l2].into_iter().collect();
        let report = hard_link_report(&flags, &validated, &[]);
        assert_eq!(report.total_links, 2);
        assert_eq!(report.hard_links, 1);
        assert_eq!(report.hard_coverage, 0.0);
        assert_eq!(report.easy_coverage, 1.0);
        assert_eq!(report.per_criterion.len(), 5);
    }
}
