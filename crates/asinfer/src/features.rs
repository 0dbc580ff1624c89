//! Link features shared by the probabilistic classifiers (ProbLink's feature
//! set, bucketised).

use asgraph::{Asn, HopIds, Link, LinkIds, PathSet, PathStats, Rel, RelClass};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Bucketised per-link features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LinkFeatures {
    /// log₂ bucket of the number of vantage points observing the link.
    pub vp_bucket: u8,
    /// log₂ bucket of the transit-degree ratio (max/min of the endpoints).
    pub degree_ratio_bucket: u8,
    /// Hop distance from the link to the nearest clique AS (capped).
    pub dist_to_clique: u8,
    /// log₂ bucket of export-to-non-customer triplet evidence.
    pub triplet_support: u8,
    /// log₂ bucket of the number of common neighbors of the endpoints.
    pub common_neighbors: u8,
}

/// Number of distinct buckets per dimension (all features are < this).
pub const N_BUCKETS: usize = 16;

fn log_bucket(v: usize) -> u8 {
    let mut b = 0u8;
    let mut x = v;
    while x > 0 && b < (N_BUCKETS as u8 - 1) {
        x >>= 1;
        b += 1;
    }
    b
}

/// Computes features for every observed link, indexed by link id (a
/// link's rank in [`PathStats::links`]).
///
/// Every step reads the dense ids of `stats`: neighbours come from its
/// adjacency rows, and clique distances and triplet support live in arrays
/// indexed by AS id and link id.
///
/// # Panics
/// If `stats` cannot be the statistics of `paths` (see
/// [`PathStats::describes`]).
#[must_use]
pub fn compute_features(
    paths: &PathSet,
    stats: &PathStats,
    clique: &BTreeSet<Asn>,
) -> Vec<LinkFeatures> {
    assert!(
        stats.describes(paths),
        "compute_features: `stats` must be the statistics of `paths`"
    );
    let indexer = stats.indexer();
    let cap = N_BUCKETS as u8 - 1;

    // BFS hop distance from the clique over the observed graph; ASes more
    // than `cap` hops away stay unseen (`u8::MAX`).
    let mut in_clique = vec![false; indexer.len()];
    let mut dist = vec![u8::MAX; indexer.len()];
    let mut queue: VecDeque<u32> = VecDeque::new();
    for id in clique.iter().filter_map(|&c| indexer.id(c)) {
        in_clique[id as usize] = true;
        dist[id as usize] = 0;
        queue.push_back(id);
    }
    while let Some(u) = queue.pop_front() {
        let d = dist[u as usize];
        if d >= cap {
            continue;
        }
        for &v in stats.neighbors_by_id(u) {
            if dist[v as usize] == u8::MAX {
                dist[v as usize] = d + 1;
                queue.push_back(v);
            }
        }
    }

    // Triplet support: (w, u, v) with w in the clique supports (u, v).
    let mut support = vec![0usize; stats.link_ends().len()];
    let mut hop_ids = HopIds::new(indexer);
    let mut link_ids = LinkIds::new(stats);
    for (_, hops) in paths.iter().filter(|(_, hops)| hops.len() >= 3) {
        for w in hop_ids.translate(hops).windows(3) {
            if in_clique[w[0] as usize] {
                support[link_ids.hop_link(w[1], w[2]) as usize] += 1;
            }
        }
    }

    let td = |id: u32| stats.transit_degree_by_id(id).max(1);
    (0u32..)
        .zip(stats.link_ends())
        .map(|(link, &[a, b])| {
            let (da, db) = (td(a), td(b));
            let common = common_count(stats.neighbors_by_id(a), stats.neighbors_by_id(b));
            LinkFeatures {
                vp_bucket: log_bucket(stats.vp_count_by_id(link)),
                degree_ratio_bucket: log_bucket(da.max(db) / da.min(db)),
                dist_to_clique: dist[a as usize].min(dist[b as usize]).min(cap),
                triplet_support: log_bucket(support[link as usize]),
                common_neighbors: log_bucket(common),
            }
        })
        .collect()
}

/// The number of ids two ascending rows share: each id of the shorter row
/// is binary-searched in the longer one, so a stub's link to a hub costs a
/// few probes rather than a walk over the hub's row.
fn common_count(a: &[u32], b: &[u32]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short
        .iter()
        .filter(|id| long.binary_search(id).is_ok())
        .count()
}

/// The features of each link of `labels`, in the labelling's order: `None`
/// for a link the statistics never observed.
pub(crate) fn labelled_features<'f>(
    labels: &BTreeMap<Link, Rel>,
    stats: &PathStats,
    features: &'f [LinkFeatures],
) -> Vec<Option<&'f LinkFeatures>> {
    labels
        .keys()
        .map(|&link| stats.link_id_of(link).map(|id| &features[id as usize]))
        .collect()
}

impl LinkFeatures {
    /// The feature vector as bucket indices (for histogram estimation).
    #[must_use]
    pub fn dims(&self) -> [u8; 5] {
        [
            self.vp_bucket,
            self.degree_ratio_bucket,
            self.dist_to_clique,
            self.triplet_support,
            self.common_neighbors,
        ]
    }
}

/// The naive-Bayes class index of P2C links.
pub(crate) const CLASS_P2C: usize = 0;
/// The naive-Bayes class index of P2P links.
pub(crate) const CLASS_P2P: usize = 1;

/// Per-class feature histograms (Laplace-smoothed), fitted on a labelling:
/// the model ProbLink iterates with and UNARI evaluates once.
pub(crate) struct NaiveBayes {
    /// counts[class][dim][bucket]
    counts: [[[f64; N_BUCKETS]; 5]; 2],
    totals: [f64; 2],
}

impl NaiveBayes {
    /// Fits the histograms on the P2C and P2P labels that have features;
    /// sibling labels are skipped.
    pub(crate) fn fit<'f>(
        labelled: impl IntoIterator<Item = (&'f Rel, &'f Option<&'f LinkFeatures>)>,
    ) -> Self {
        let mut nb = NaiveBayes {
            counts: [[[1.0; N_BUCKETS]; 5]; 2], // Laplace smoothing
            totals: [N_BUCKETS as f64; 2],
        };
        for (rel, f) in labelled {
            let Some(f) = f else {
                continue;
            };
            let class = match rel.class() {
                RelClass::P2c => CLASS_P2C,
                RelClass::P2p => CLASS_P2P,
                RelClass::S2s => continue,
            };
            for (dim, bucket) in f.dims().into_iter().enumerate() {
                nb.counts[class][dim][usize::from(bucket)] += 1.0;
            }
            nb.totals[class] += 1.0;
        }
        nb
    }

    /// Log-posterior of each class for a feature vector, indexed by
    /// [`CLASS_P2C`] and [`CLASS_P2P`].
    pub(crate) fn log_posteriors(&self, f: &LinkFeatures) -> [f64; 2] {
        let [p2c, p2p] = self.totals;
        let grand_total = p2c + p2p;
        let mut out = [0.0; 2];
        for class in [CLASS_P2C, CLASS_P2P] {
            let mut lp = (self.totals[class] / grand_total).ln();
            for (dim, bucket) in f.dims().into_iter().enumerate() {
                lp += (self.counts[class][dim][usize::from(bucket)] / self.totals[class]).ln();
            }
            out[class] = lp;
        }
        out
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
    fn log_buckets_are_monotone_and_capped() {
        assert_eq!(log_bucket(0), 0);
        assert_eq!(log_bucket(1), 1);
        assert_eq!(log_bucket(2), 2);
        assert_eq!(log_bucket(3), 2);
        assert_eq!(log_bucket(4), 3);
        assert!(log_bucket(usize::MAX) < N_BUCKETS as u8);
        let mut prev = 0;
        for v in 0..10_000 {
            let b = log_bucket(v);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn features_computed_for_all_links() {
        let mut ps = PathSet::new();
        ps.push(Asn(10), path(&[10, 1, 2, 3]));
        ps.push(Asn(11), path(&[11, 2, 1, 4]));
        let stats = ps.stats();
        let clique: BTreeSet<Asn> = [Asn(1), Asn(2)].into_iter().collect();
        let feats = compute_features(&ps, &stats, &clique);
        assert_eq!(feats.len(), stats.links().len());
        let of = |a: u32, b: u32| {
            let link = Link::new(Asn(a), Asn(b)).unwrap();
            feats[stats.link_id_of(link).unwrap() as usize]
        };
        // Link 2-3 follows clique member 1 in path 10,1,2,3 → support > 0.
        assert!(of(2, 3).triplet_support > 0);
        // Distance to clique: links incident to clique have distance 0.
        assert_eq!(of(1, 2).dist_to_clique, 0);
    }

    #[test]
    fn common_count_matches_set_intersection() {
        assert_eq!(common_count(&[], &[1, 2]), 0);
        assert_eq!(common_count(&[1, 3, 5, 7], &[3, 4, 7]), 2);
        assert_eq!(common_count(&[4], &[1, 2, 3, 4, 5, 6]), 1);
    }

    #[test]
    fn dims_roundtrip() {
        let f = LinkFeatures {
            vp_bucket: 1,
            degree_ratio_bucket: 2,
            dist_to_clique: 3,
            triplet_support: 4,
            common_neighbors: 5,
        };
        assert_eq!(f.dims(), [1, 2, 3, 4, 5]);
    }
}
