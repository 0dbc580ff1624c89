//! Gao's degree-based heuristic (IEEE/ACM ToN 2001) — the original
//! valley-free algorithm, kept as a historical baseline.
//!
//! Phase 1: in every path, the highest-degree AS is taken as the apex; pairs
//! before it ascend (right AS provides to left), pairs after it descend.
//! Phase 2: links with votes in both directions and balanced counts become
//! siblings. Phase 3: links with no transit votes and a bounded degree ratio
//! become peers. Each path is translated to the dense ids of the path
//! statistics once, and the votes are counted per link id.

use crate::common::{break_provider_cycles_in_rels, side, Classifier, Inference, PreparedPaths};
use asgraph::{HopIds, Link, LinkIds, Rel};
use std::collections::BTreeMap;

/// Tunables for Gao's algorithm.
#[derive(Debug, Clone, Copy)]
pub struct GaoParams {
    /// Vote-balance bound `L`: both directions ≤ L ⇒ sibling.
    pub sibling_bound: usize,
    /// Degree-ratio bound `R` for peering candidates.
    pub peer_degree_ratio: f64,
}

impl Default for GaoParams {
    fn default() -> Self {
        GaoParams {
            sibling_bound: 1,
            peer_degree_ratio: 60.0,
        }
    }
}

/// The Gao classifier.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaoClassifier {
    /// Algorithm tunables.
    pub params: GaoParams,
}

impl GaoClassifier {
    /// Creates an instance with default parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Classifier for GaoClassifier {
    fn name(&self) -> &'static str {
        "gao"
    }

    /// The heuristic over already-sanitized paths with precomputed stats.
    fn infer_prepared(&self, prep: PreparedPaths<'_>) -> Inference {
        let (clean, stats) = (prep.paths, prep.dense_stats());
        // votes[link][side]: transit votes that the link's `side` end
        // provides the other.
        let mut votes: Vec<[usize; 2]> = vec![[0; 2]; stats.link_ends().len()];
        let mut hop_ids = HopIds::new(stats.indexer());
        let mut link_ids = LinkIds::new(stats);
        for (_, hops) in clean.iter() {
            if hops.len() < 2 {
                continue;
            }
            let ids = hop_ids.translate(hops);
            // Apex: highest node degree (first occurrence on ties).
            let mut apex = 0;
            let mut apex_degree = 0;
            for (i, &id) in ids.iter().enumerate() {
                let degree = stats.node_degree_by_id(id);
                if i == 0 || degree > apex_degree {
                    (apex, apex_degree) = (i, degree);
                }
            }
            for (i, w) in ids.windows(2).enumerate() {
                let (left, right) = (w[0], w[1]);
                let link = link_ids.hop_link(left, right);
                // Before the apex the route travelled downhill from the apex
                // to the VP: `left` learned it from `right`, so `right`
                // provides to `left`. After the apex the path descends
                // towards the origin: `left` provides to `right`.
                let (provider, customer) = if i < apex {
                    (right, left)
                } else {
                    (left, right)
                };
                votes[link as usize][side(provider, customer)] += 1;
            }
        }

        let links = stats.links().iter().zip(stats.link_ends()).zip(&votes);
        let mut rels: BTreeMap<Link, Rel> = links
            .map(|((&link, &[lo, hi]), &[ab, ba])| {
                // ab: a (the lower ASN) provides b; ba: b provides a.
                let (a, b) = link.endpoints();
                let rel = if ab == 0 && ba == 0 {
                    Rel::P2p
                } else if ab > 0
                    && ba > 0
                    && ab <= self.params.sibling_bound
                    && ba <= self.params.sibling_bound
                {
                    Rel::S2s
                } else if ab >= ba {
                    Rel::P2c { provider: a }
                } else {
                    Rel::P2c { provider: b }
                };
                // Phase 3 refinement: transit-voted links with balanced degree
                // and tiny vote margins could be peers; Gao only downgrades
                // not-transit links, which we already defaulted to P2P above.
                let rel = match rel {
                    Rel::P2c { .. } if ab > 0 && ba > 0 && ab == ba => {
                        let da = stats.node_degree_by_id(lo) as f64;
                        let db = stats.node_degree_by_id(hi) as f64;
                        let ratio = if db == 0.0 { f64::MAX } else { da / db };
                        if ratio < self.params.peer_degree_ratio
                            && ratio > 1.0 / self.params.peer_degree_ratio
                        {
                            Rel::P2p
                        } else {
                            rel
                        }
                    }
                    other => other,
                };
                (link, rel)
            })
            .collect();

        // Per-path apex votes can disagree into a provider cycle; repair by
        // rank order so downstream acyclicity checks hold for Gao too.
        break_provider_cycles_in_rels(&mut rels, |a| stats.transit_degree(a));

        Inference {
            classifier: self.name().to_owned(),
            rels,
            clique: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::{AsPath, Asn, PathSet};

    fn path(hops: &[u32]) -> AsPath {
        AsPath::new(hops.iter().map(|&h| Asn(h)).collect())
    }

    /// Star around high-degree AS 1: everyone below it.
    #[test]
    fn star_infers_hub_as_provider() {
        let mut ps = PathSet::new();
        for leaf in [2u32, 3, 4, 5] {
            for other in [2u32, 3, 4, 5] {
                if leaf != other {
                    ps.push(Asn(leaf), path(&[leaf, 1, other]));
                }
            }
        }
        let inf = GaoClassifier::new().infer(&ps);
        for leaf in [2u32, 3, 4, 5] {
            assert_eq!(
                inf.rel(Link::new(Asn(1), Asn(leaf)).unwrap()),
                Some(Rel::P2c { provider: Asn(1) }),
                "leaf {leaf}"
            );
        }
    }

    #[test]
    fn chain_infers_descent_after_apex() {
        let mut ps = PathSet::new();
        // Give 1 the highest degree.
        ps.push(Asn(9), path(&[9, 1, 8]));
        ps.push(Asn(7), path(&[7, 1, 6]));
        ps.push(Asn(2), path(&[2, 1, 3, 4]));
        let inf = GaoClassifier::new().infer(&ps);
        assert_eq!(
            inf.rel(Link::new(Asn(3), Asn(4)).unwrap()),
            Some(Rel::P2c { provider: Asn(3) })
        );
        assert_eq!(
            inf.rel(Link::new(Asn(1), Asn(3)).unwrap()),
            Some(Rel::P2c { provider: Asn(1) })
        );
        // VP side ascends: 1 provides to 2.
        assert_eq!(
            inf.rel(Link::new(Asn(1), Asn(2)).unwrap()),
            Some(Rel::P2c { provider: Asn(1) })
        );
    }

    #[test]
    fn empty_is_empty() {
        let inf = GaoClassifier::new().infer(&PathSet::new());
        assert!(inf.is_empty());
    }
}
