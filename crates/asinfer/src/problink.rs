//! ProbLink (Jin et al., NSDI 2019) reimplementation.
//!
//! A meta-classifier: start from an initial labelling (ASRank), then
//! iteratively re-estimate each link's class with a naive-Bayes model over
//! link features whose conditional distributions are fitted on the *current*
//! labelling, until convergence.
//!
//! This captures ProbLink's defining behaviour — and its failure mode the
//! paper highlights: the global feature distributions are dominated by the
//! common classes, so links whose features look like the majority get pulled
//! toward it, improving overall accuracy while degrading rare classes
//! (§6: "following a strategy of simply improving the overall classification
//! error can lead to substantial correctness degradation for classes that
//! contain fewer links").

use crate::common::{Classifier, Inference, PreparedPaths};
use crate::features::{compute_features, labelled_features, NaiveBayes, CLASS_P2C, CLASS_P2P};
use asgraph::{Rel, RelClass};

/// Tunables for ProbLink.
#[derive(Debug, Clone, Copy)]
pub struct ProbLinkParams {
    /// Maximum refinement iterations.
    pub max_iters: usize,
    /// Convergence threshold: stop when fewer than this fraction of links
    /// change class in one iteration.
    pub convergence: f64,
}

impl Default for ProbLinkParams {
    fn default() -> Self {
        ProbLinkParams {
            max_iters: 10,
            convergence: 0.001,
        }
    }
}

/// The ProbLink classifier.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbLink {
    /// Algorithm tunables.
    pub params: ProbLinkParams,
}

impl ProbLink {
    /// Creates an instance with default parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Classifier for ProbLink {
    fn name(&self) -> &'static str {
        "problink"
    }

    /// Naive-Bayes refinement of the initial (ASRank) labelling.
    fn infer_prepared(&self, prep: PreparedPaths<'_>) -> Inference {
        let (clean, stats, initial) = (prep.paths, prep.stats, prep.asrank_seed());
        let features = compute_features(clean, stats, &initial.clique);

        let mut labels = initial.rels.clone();
        // Refinement relabels links but never adds or drops one, so each
        // label's features are looked up once.
        let linked = labelled_features(&labels, stats, &features);
        let n_links = labels.len().max(1);
        for _ in 0..self.params.max_iters {
            let nb = NaiveBayes::fit(labels.values().zip(&linked));
            let mut changes = 0usize;
            let mut next = labels.clone();
            for ((link, rel), f) in labels.iter().zip(&linked) {
                // Clique links stay peers; sibling labels are untouched.
                if rel.class() == RelClass::S2s
                    || (initial.clique.contains(&link.a()) && initial.clique.contains(&link.b()))
                {
                    continue;
                }
                let Some(f) = f else {
                    continue;
                };
                let lp = nb.log_posteriors(f);
                let p2c = lp[CLASS_P2C] >= lp[CLASS_P2P];
                if p2c == (rel.class() == RelClass::P2c) {
                    continue;
                }
                let new_rel = if p2c {
                    // Orientation: the larger transit degree provides.
                    let (a, b) = link.endpoints();
                    let provider = if stats.transit_degree(a) >= stats.transit_degree(b) {
                        a
                    } else {
                        b
                    };
                    Rel::P2c { provider }
                } else {
                    Rel::P2p
                };
                next.insert(*link, new_rel);
                changes += 1;
            }
            labels = next;
            if (changes as f64) / (n_links as f64) < self.params.convergence {
                break;
            }
        }

        Inference {
            classifier: self.name().to_owned(),
            rels: labels,
            clique: initial.clique.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asrank::AsRank;
    use asgraph::{AsPath, Asn, Link, PathSet};

    fn path(hops: &[u32]) -> AsPath {
        AsPath::new(hops.iter().map(|&h| Asn(h)).collect())
    }

    /// A clear hierarchy: ProbLink should agree with ASRank on the easy case.
    #[test]
    fn agrees_with_asrank_on_clean_hierarchy() {
        let mut ps = PathSet::new();
        ps.push(Asn(10), path(&[10, 2, 1, 4, 5]));
        ps.push(Asn(11), path(&[11, 3, 1, 4, 5]));
        ps.push(Asn(10), path(&[10, 2, 3, 40]));
        ps.push(Asn(11), path(&[11, 3, 2, 41]));
        ps.push(Asn(12), path(&[12, 1, 2, 42]));
        ps.push(Asn(12), path(&[12, 1, 3, 43]));
        ps.push(Asn(13), path(&[13, 1, 44]));
        ps.push(Asn(13), path(&[13, 2, 45]));
        ps.push(Asn(13), path(&[13, 3, 46]));
        let asrank = AsRank::new().infer(&ps);
        let problink = ProbLink::new().infer(&ps);
        let l14 = Link::new(Asn(1), Asn(4)).unwrap();
        assert_eq!(problink.rel(l14), asrank.rel(l14));
        assert_eq!(problink.len(), asrank.len());
    }

    #[test]
    fn clique_links_stay_p2p() {
        let mut ps = PathSet::new();
        ps.push(Asn(10), path(&[10, 2, 1, 4]));
        ps.push(Asn(11), path(&[11, 1, 2, 5]));
        ps.push(Asn(12), path(&[12, 1, 6]));
        ps.push(Asn(12), path(&[12, 2, 7]));
        let inf = ProbLink::new().infer(&ps);
        if inf.clique.contains(&Asn(1)) && inf.clique.contains(&Asn(2)) {
            assert_eq!(inf.rel(Link::new(Asn(1), Asn(2)).unwrap()), Some(Rel::P2p));
        }
    }

    #[test]
    fn empty_input() {
        let inf = ProbLink::new().infer(&PathSet::new());
        assert!(inf.is_empty());
    }

    /// Determinism: same input twice, same output.
    #[test]
    fn deterministic() {
        let mut ps = PathSet::new();
        for i in 0..20u32 {
            ps.push(Asn(100 + i), path(&[100 + i, 1, 2, 200 + i]));
            ps.push(Asn(100 + i), path(&[100 + i, 2, 1, 300 + i]));
        }
        let a = ProbLink::new().infer(&ps);
        let b = ProbLink::new().infer(&ps);
        assert_eq!(a, b);
    }
}
