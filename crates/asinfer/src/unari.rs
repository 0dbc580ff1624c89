//! An UNARI-style uncertainty-aware classifier (after Feng et al.,
//! CoNEXT 2019).
//!
//! The paper's footnote 1 notes UNARI could not be analysed because no public
//! artifacts exist. This module provides the missing piece for the
//! simulation: instead of a hard label, every link gets a *belief* — a
//! probability distribution over relationship types — from the same
//! naive-Bayes feature model ProbLink iterates with, evaluated once against
//! the ASRank labelling. The hard-label [`Classifier`] view takes the argmax,
//! and the belief surface enables calibration analysis (does 90 % certainty
//! mean 90 % accuracy?).

use crate::common::{Classifier, Inference, PreparedPaths};
use crate::features::{compute_features, NaiveBayes, CLASS_P2C, CLASS_P2P};
use asgraph::{Link, Rel, RelClass};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// A probability distribution over the relationship of one link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBelief {
    /// Probability the link is P2C (either orientation).
    pub p_p2c: f64,
    /// Probability the link is P2P.
    pub p_p2p: f64,
    /// The more likely provider if the link is P2C.
    pub provider: asgraph::Asn,
}

impl LinkBelief {
    /// The classifier's certainty: the larger of the two probabilities.
    #[must_use]
    pub fn certainty(&self) -> f64 {
        self.p_p2c.max(self.p_p2p)
    }

    /// The argmax hard label.
    #[must_use]
    pub fn hard_label(&self) -> Rel {
        if self.p_p2c >= self.p_p2p {
            Rel::P2c {
                provider: self.provider,
            }
        } else {
            Rel::P2p
        }
    }
}

/// The uncertainty-aware classifier.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unari;

impl Unari {
    /// Creates an instance.
    #[must_use]
    pub fn new() -> Self {
        Unari
    }

    /// Per-link beliefs over a preparation: the naive-Bayes model fitted on
    /// its ASRank labelling (the attached seed, or a fresh run), evaluated
    /// once per labelled link.
    #[must_use]
    pub fn beliefs(&self, prep: PreparedPaths<'_>) -> BTreeMap<Link, LinkBelief> {
        let initial = prep.asrank_seed();
        let features = compute_features(prep.paths, prep.stats, &initial.clique);
        let nb = NaiveBayes::fit(&initial.rels, &features);
        initial
            .rels
            .iter()
            .map(|(link, rel)| {
                let provider = match rel {
                    Rel::P2c { provider } => *provider,
                    _ => {
                        // Orientation prior: higher transit degree provides.
                        let (a, b) = link.endpoints();
                        if prep.stats.transit_degree(a) >= prep.stats.transit_degree(b) {
                            a
                        } else {
                            b
                        }
                    }
                };
                let belief = match features.get(link) {
                    Some(f) => {
                        let lp = nb.log_posteriors(f);
                        let (lc, lp) = (lp[CLASS_P2C], lp[CLASS_P2P]);
                        // Softmax over the two log-posteriors.
                        let m = lc.max(lp);
                        let (ec, ep) = ((lc - m).exp(), (lp - m).exp());
                        LinkBelief {
                            p_p2c: ec / (ec + ep),
                            p_p2p: ep / (ec + ep),
                            provider,
                        }
                    }
                    None => LinkBelief {
                        p_p2c: 0.5,
                        p_p2p: 0.5,
                        provider,
                    },
                };
                (*link, belief)
            })
            .collect()
    }
}

impl Classifier for Unari {
    fn name(&self) -> &'static str {
        "unari"
    }

    fn infer_prepared(&self, prep: PreparedPaths<'_>) -> Inference {
        let initial = prep.asrank_seed();
        let beliefs = self.beliefs(prep.with_asrank(&initial));
        let rels: BTreeMap<Link, Rel> = beliefs.iter().map(|(l, b)| (*l, b.hard_label())).collect();
        Inference {
            classifier: self.name().to_owned(),
            rels,
            clique: initial.clique.clone(),
        }
    }
}

/// One bin of a calibration curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationBin {
    /// Certainty range `[lo, hi)`.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Links in the bin (with a ground-truth/validation label available).
    pub links: usize,
    /// Mean certainty of the bin.
    pub mean_certainty: f64,
    /// Empirical class-level accuracy of the hard label in the bin.
    pub accuracy: f64,
}

/// Computes a calibration curve: certainty buckets vs empirical accuracy
/// against reference labels.
#[must_use]
pub fn calibration_curve(
    beliefs: &BTreeMap<Link, LinkBelief>,
    reference: &HashMap<Link, Rel>,
    bins: usize,
) -> Vec<CalibrationBin> {
    let bins = bins.max(1);
    let mut acc: Vec<(usize, f64, usize)> = vec![(0, 0.0, 0); bins]; // (n, certainty sum, correct)
    for (link, belief) in beliefs {
        let Some(truth) = reference.get(link) else {
            continue;
        };
        if truth.class() == RelClass::S2s {
            continue;
        }
        // Certainty ranges over [0.5, 1.0] for a binary belief.
        let c = belief.certainty();
        let idx = (((c - 0.5) / 0.5) * bins as f64).min(bins as f64 - 1.0) as usize;
        acc[idx].0 += 1;
        acc[idx].1 += c;
        if belief.hard_label().class() == truth.class() {
            acc[idx].2 += 1;
        }
    }
    acc.into_iter()
        .enumerate()
        .map(|(i, (n, csum, correct))| CalibrationBin {
            lo: 0.5 + 0.5 * i as f64 / bins as f64,
            hi: 0.5 + 0.5 * (i + 1) as f64 / bins as f64,
            links: n,
            mean_certainty: if n == 0 { 0.0 } else { csum / n as f64 },
            accuracy: if n == 0 {
                0.0
            } else {
                correct as f64 / n as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::{AsPath, Asn, PathSet};

    fn sample_paths() -> PathSet {
        let mut ps = PathSet::new();
        let mk = |hops: &[u32]| AsPath::new(hops.iter().map(|&h| Asn(h)).collect());
        for vp in [10u32, 11, 12] {
            ps.push(Asn(vp), mk(&[vp, 2, 1, 4, 5]));
            ps.push(Asn(vp), mk(&[vp, 2, 3, 40 + vp]));
        }
        ps.push(Asn(13), mk(&[13, 1, 2, 60]));
        ps.push(Asn(13), mk(&[13, 3, 1, 61]));
        ps.push(Asn(13), mk(&[13, 3, 2, 62]));
        ps
    }

    #[test]
    fn beliefs_are_probabilities() {
        let ps = sample_paths().sanitized();
        let stats = ps.stats();
        let beliefs = Unari::new().beliefs(PreparedPaths::new(&ps, &stats));
        assert!(!beliefs.is_empty());
        for (link, b) in &beliefs {
            assert!(
                (b.p_p2c + b.p_p2p - 1.0).abs() < 1e-9,
                "{link} not normalised"
            );
            assert!(
                b.certainty() >= 0.5 - 1e-9,
                "{link} certainty {}",
                b.certainty()
            );
            assert!(link.contains(b.provider));
        }
    }

    #[test]
    fn hard_labels_cover_all_observed_links() {
        let ps = sample_paths();
        let inf = Unari::new().infer(&ps);
        let stats = ps.sanitized().stats();
        assert_eq!(inf.len(), stats.links().len());
    }

    #[test]
    fn calibration_bins_are_consistent() {
        let ps = sample_paths().sanitized();
        let stats = ps.stats();
        let beliefs = Unari::new().beliefs(PreparedPaths::new(&ps, &stats));
        // Use the hard labels themselves as reference: accuracy must be 1.0
        // in every populated bin.
        let reference: HashMap<Link, Rel> =
            beliefs.iter().map(|(l, b)| (*l, b.hard_label())).collect();
        let bins = calibration_curve(&beliefs, &reference, 5);
        assert_eq!(bins.len(), 5);
        let total: usize = bins.iter().map(|b| b.links).sum();
        assert_eq!(total, beliefs.len());
        for b in bins.iter().filter(|b| b.links > 0) {
            assert!((b.accuracy - 1.0).abs() < 1e-9);
            assert!(b.mean_certainty >= b.lo - 1e-9 && b.mean_certainty <= b.hi + 1e-9);
        }
    }

    #[test]
    fn deterministic() {
        let ps = sample_paths();
        assert_eq!(Unari::new().infer(&ps), Unari::new().infer(&ps));
    }
}
