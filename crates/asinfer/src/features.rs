//! Link features shared by the probabilistic classifiers (ProbLink's feature
//! set, bucketised).

use asgraph::{Asn, Link, PathSet, PathStats, Rel, RelClass};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

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

/// Computes features for every observed link.
#[must_use]
pub fn compute_features(
    paths: &PathSet,
    stats: &PathStats,
    clique: &BTreeSet<Asn>,
) -> HashMap<Link, LinkFeatures> {
    // Neighbor sets for common-neighbor counts.
    let mut neighbors: HashMap<Asn, HashSet<Asn>> = HashMap::new();
    for link in stats.links() {
        let (a, b) = link.endpoints();
        neighbors.entry(a).or_default().insert(b);
        neighbors.entry(b).or_default().insert(a);
    }

    // BFS hop distance from the clique over the observed graph.
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

    // Triplet support: (w, u, v) with w in the clique supports (u, v).
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
    /// Fits the histograms on the P2C and P2P links of `labels` that have
    /// features; sibling labels are skipped.
    pub(crate) fn fit(
        labels: &BTreeMap<Link, Rel>,
        features: &HashMap<Link, LinkFeatures>,
    ) -> Self {
        let mut nb = NaiveBayes {
            counts: [[[1.0; N_BUCKETS]; 5]; 2], // Laplace smoothing
            totals: [N_BUCKETS as f64; 2],
        };
        for (link, rel) in labels {
            let Some(f) = features.get(link) else {
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
        // Link 2-3 follows clique member 1 in path 10,1,2,3 → support > 0.
        let f23 = feats[&Link::new(Asn(2), Asn(3)).unwrap()];
        assert!(f23.triplet_support > 0);
        // Distance to clique: links incident to clique have distance 0.
        let f12 = feats[&Link::new(Asn(1), Asn(2)).unwrap()];
        assert_eq!(f12.dist_to_clique, 0);
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
