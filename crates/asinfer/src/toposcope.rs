//! TopoScope (Jin et al., IMC 2020) reimplementation.
//!
//! TopoScope's core idea is to counter vantage-point bias by splitting the
//! VPs into groups, running a base inference per group, and reconciling the
//! per-group results (their Bayesian-network ensemble). We reproduce that
//! architecture with ASRank as the base inferrer and majority-vote
//! reconciliation backed by the full-view inference; the original's
//! hidden-link *discovery* stage (predicting invisible links) is out of scope
//! for the paper's evaluation, which scores only observed links.

use crate::asrank::AsRank;
use crate::common::{break_provider_cycles_in_rels, Classifier, Inference, PreparedPaths};
use asgraph::{Asn, Link, PathSet, Rel};
use std::collections::BTreeMap;

/// Transit-degree boost applied to clique members during cycle repair, so
/// an orientation flip can never rank a clique member below a non-member.
const CLIQUE_TD_BOOST: usize = 1 << 32;

/// Tunables for TopoScope.
#[derive(Debug, Clone, Copy)]
pub struct TopoScopeParams {
    /// Number of vantage-point groups in the ensemble.
    pub n_groups: usize,
    /// Minimum number of groups that must observe a link for the ensemble
    /// vote to stand on its own; below this the full-view result wins.
    pub min_groups: usize,
}

impl Default for TopoScopeParams {
    fn default() -> Self {
        TopoScopeParams {
            n_groups: 8,
            min_groups: 2,
        }
    }
}

/// The TopoScope classifier.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopoScope {
    /// Algorithm tunables.
    pub params: TopoScopeParams,
}

impl TopoScope {
    /// Creates an instance with default parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Classifier for TopoScope {
    fn name(&self) -> &'static str {
        "toposcope"
    }

    /// Ensemble inference over already-sanitized paths: VP grouping,
    /// per-group base inference (in parallel — group path sets are
    /// independent), majority-vote reconciliation against the shared
    /// full-view inference, and provider-cycle repair.
    fn infer_prepared(&self, prep: PreparedPaths<'_>) -> Inference {
        let (clean, stats, full) = (prep.paths, prep.dense_stats(), prep.asrank_seed());
        let base = AsRank::new();
        let vps = stats.vantage_points();
        let n_groups = self.params.n_groups.clamp(1, vps.len().max(1));

        // Deterministic round-robin VP grouping over the sorted VP list: a
        // path joins the group of its VP's position, mod `n_groups`.
        let mut grouped: Vec<PathSet> = vec![PathSet::new(); n_groups];
        for (vp, hops) in clean.iter() {
            if let Some(i) = vps.id(vp) {
                grouped[i as usize % n_groups].push_hops(vp, hops.iter().copied());
            }
        }

        // Per-group inference. Groups are already sanitized (subsets of
        // `clean`), so each worker only derives the group's own statistics.
        // Sub-span around the per-group ensemble fan-out so the trace
        // separates it from the sequential vote reconciliation below.
        let group_results: Vec<Inference> = {
            let _groups = breval_obs::span!("toposcope_groups");
            breval_par::parallel_map(grouped.len(), |g| {
                let group = &grouped[g];
                let group_stats = group.stats();
                base.infer_prepared(PreparedPaths::new(group, &group_stats))
            })
        };

        // Reconciliation: per-link votes across observing groups.
        let mut rels: BTreeMap<Link, Rel> = BTreeMap::new();
        for (link, full_rel) in &full.rels {
            let mut p2p_votes = 0usize;
            let mut p2c_votes: BTreeMap<Asn, usize> = BTreeMap::new(); // by provider
            let mut observing = 0usize;
            for g in &group_results {
                match g.rel(*link) {
                    Some(Rel::P2p) => {
                        observing += 1;
                        p2p_votes += 1;
                    }
                    Some(Rel::P2c { provider }) => {
                        observing += 1;
                        *p2c_votes.entry(provider).or_insert(0) += 1;
                    }
                    Some(Rel::S2s) => observing += 1,
                    None => {}
                }
            }
            let total_p2c: usize = p2c_votes.values().sum();
            let decided = if observing < self.params.min_groups {
                *full_rel
            } else if p2p_votes > total_p2c {
                Rel::P2p
            } else if total_p2c > p2p_votes {
                // Majority orientation; ties broken by the full-view result.
                let best = p2c_votes
                    .iter()
                    .max_by_key(|(asn, n)| (**n, std::cmp::Reverse(asn.0)))
                    .map(|(asn, _)| *asn);
                match best {
                    Some(provider) => Rel::P2c { provider },
                    None => *full_rel,
                }
            } else {
                *full_rel
            };
            // Clique links remain peers regardless of group noise.
            let decided = if full.clique.contains(&link.a()) && full.clique.contains(&link.b()) {
                Rel::P2p
            } else {
                decided
            };
            rels.insert(*link, decided);
        }

        // Majority votes decide each link independently, so the combined
        // decisions can form a provider cycle even though every per-group
        // inference is acyclic. Repair by rank order (clique boosted so a
        // flip never ranks a clique member below a non-member).
        break_provider_cycles_in_rels(&mut rels, |a| {
            let boost = if full.clique.contains(&a) {
                CLIQUE_TD_BOOST
            } else {
                0
            };
            stats.transit_degree(a) + boost
        });

        Inference {
            classifier: self.name().to_owned(),
            rels,
            clique: full.clique.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::AsPath;

    fn path(hops: &[u32]) -> AsPath {
        AsPath::new(hops.iter().map(|&h| Asn(h)).collect())
    }

    fn sample_paths() -> PathSet {
        let mut ps = PathSet::new();
        // Several VPs so grouping is non-trivial.
        for vp in [10u32, 11, 12, 13, 14, 15] {
            ps.push(Asn(vp), path(&[vp, 2, 1, 4, 5]));
            ps.push(Asn(vp), path(&[vp, 2, 3, 40 + vp]));
        }
        ps.push(Asn(16), path(&[16, 1, 2, 60]));
        ps.push(Asn(17), path(&[17, 3, 1, 61]));
        ps.push(Asn(17), path(&[17, 3, 2, 62]));
        ps
    }

    #[test]
    fn covers_all_observed_links() {
        let ps = sample_paths();
        let stats = ps.sanitized().stats();
        let inf = TopoScope::new().infer(&ps);
        assert_eq!(inf.len(), stats.links().len());
    }

    #[test]
    fn agrees_with_asrank_on_strong_evidence() {
        let ps = sample_paths();
        let asrank = AsRank::new().infer(&ps);
        let topo = TopoScope::new().infer(&ps);
        let l = Link::new(Asn(1), Asn(4)).unwrap();
        assert_eq!(topo.rel(l), asrank.rel(l));
    }

    #[test]
    fn deterministic() {
        let ps = sample_paths();
        let a = TopoScope::new().infer(&ps);
        let b = TopoScope::new().infer(&ps);
        assert_eq!(a, b);
    }

    #[test]
    fn single_vp_degenerates_to_full_view() {
        let mut ps = PathSet::new();
        ps.push(Asn(10), path(&[10, 1, 2, 3]));
        let asrank = AsRank::new().infer(&ps);
        let topo = TopoScope::new().infer(&ps);
        assert_eq!(topo.rels, asrank.rels);
    }

    #[test]
    fn empty_input() {
        assert!(TopoScope::new().infer(&PathSet::new()).is_empty());
    }
}
