//! Gao's degree-based heuristic (IEEE/ACM ToN 2001) — the original
//! valley-free algorithm, kept as a historical baseline.
//!
//! Phase 1: in every path, the highest-degree AS is taken as the apex; pairs
//! before it ascend (right AS provides to left), pairs after it descend.
//! Phase 2: links with votes in both directions and balanced counts become
//! siblings. Phase 3: links with no transit votes and a bounded degree ratio
//! become peers.

use crate::common::{break_provider_cycles_in_rels, Classifier, Inference, PreparedPaths};
use asgraph::{Asn, Link, Rel};
use std::collections::{BTreeMap, HashMap};

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
        let (clean, stats) = (prep.paths, prep.stats);
        // transit[(provider, customer)] vote counts.
        let mut votes: HashMap<(Asn, Asn), usize> = HashMap::new();
        for (_, hops) in clean.iter() {
            if hops.len() < 2 {
                continue;
            }
            // Apex: highest node degree (first occurrence on ties).
            let apex = hops
                .iter()
                .enumerate()
                .max_by(|(i, a), (j, b)| {
                    stats
                        .node_degree(**a)
                        .cmp(&stats.node_degree(**b))
                        .then(j.cmp(i)) // prefer the earlier position on ties
                })
                .map(|(i, _)| i)
                .unwrap_or(0);
            for i in 0..hops.len() - 1 {
                let (left, right) = (hops[i], hops[i + 1]);
                if i < apex {
                    // Ascending toward the apex (collector side): the AS
                    // closer to the apex provides to the one closer to the
                    // collector... the collector-side AS *received* the
                    // route, i.e. `left` learned from `right`; before the
                    // apex the route travelled downhill from the apex to the
                    // VP, so `right` provides to `left`.
                    *votes.entry((right, left)).or_insert(0) += 1;
                } else {
                    // After the apex the path descends towards the origin:
                    // `left` provides to `right`.
                    *votes.entry((left, right)).or_insert(0) += 1;
                }
            }
        }

        let mut rels: BTreeMap<Link, Rel> = BTreeMap::new();
        for link in stats.links() {
            let (a, b) = link.endpoints();
            let ab = votes.get(&(a, b)).copied().unwrap_or(0); // a provides b
            let ba = votes.get(&(b, a)).copied().unwrap_or(0);
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
                    let da = stats.node_degree(a) as f64;
                    let db = stats.node_degree(b) as f64;
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
            rels.insert(*link, rel);
        }

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
    use asgraph::{AsPath, PathSet};

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
