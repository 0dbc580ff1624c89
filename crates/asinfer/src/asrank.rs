//! ASRank (Luckie et al., IMC 2013) reimplementation.
//!
//! Pipeline stages, following §5 of the original paper:
//!
//! 1. **Sanitisation** — drop paths with loops or reserved ASNs.
//! 2. **Clique inference** — Bron–Kerbosch over the top transit-degree ASes
//!    (`asgraph::clique`).
//! 3. **Triplet-cascade P2C inference** — for every observed path, once an AS
//!    is known to have exported the route to a non-customer (the seed: a
//!    clique member appears immediately collector-side of it), every following
//!    link descends: P2C votes accumulate along the tail. Repeated passes let
//!    previously-inferred P2C links seed new cascades (the "top-down
//!    iteration" of the original).
//! 4. **Conflict resolution** — opposing votes resolved by vote ratio, then
//!    by transit-degree rank.
//! 5. **Stub heuristics** — an unresolved link between a clique member and a
//!    transit-degree-0 stub is inferred P2C (the original's stub rules; this
//!    is precisely why true S-T1 *peerings* of anycast/research stubs get
//!    misclassified, §6).
//! 6. **Default** — every remaining link is P2P.
//!
//! Every stage runs over the dense ids of the path statistics: each path is
//! translated to AS ids once per pass, votes and known P2C orientations
//! live in arrays indexed by link id, and clique membership in one flag per
//! AS id.

use crate::common::{break_provider_cycles, side, Classifier, Inference, PreparedPaths};
use asgraph::clique::{infer_clique, CliqueParams};
use asgraph::{Asn, HopIds, Link, LinkIds, PathStats, Rel};
use std::collections::{BTreeMap, BTreeSet};

/// Transit-degree boost applied to clique members during cycle repair, so
/// an orientation flip can never rank a clique member below a non-member.
const CLIQUE_TD_BOOST: usize = 1 << 32;

/// Tunables for the ASRank pipeline.
#[derive(Debug, Clone, Copy)]
pub struct AsRankParams {
    /// Clique-stage parameters.
    pub clique: CliqueParams,
    /// Cascade passes (the original iterates to fixpoint; 3 suffices in
    /// practice).
    pub cascade_passes: usize,
    /// Vote-ratio needed to resolve a directional conflict outright.
    pub conflict_ratio: f64,
}

impl Default for AsRankParams {
    fn default() -> Self {
        AsRankParams {
            clique: CliqueParams::default(),
            cascade_passes: 3,
            conflict_ratio: 2.0,
        }
    }
}

/// The ASRank classifier.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsRank {
    /// Pipeline tunables.
    pub params: AsRankParams,
}

impl AsRank {
    /// Creates an ASRank instance with default parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Classifier for AsRank {
    fn name(&self) -> &'static str {
        "asrank"
    }

    /// The pipeline over already-sanitized paths with precomputed stats.
    fn infer_prepared(&self, prep: PreparedPaths<'_>) -> Inference {
        let (clean, stats) = (prep.paths, prep.dense_stats());
        let clique = infer_clique(stats, self.params.clique);
        let indexer = stats.indexer();
        let mut in_clique = vec![false; indexer.len()];
        for id in clique.iter().filter_map(|&a| indexer.id(a)) {
            in_clique[id as usize] = true;
        }
        let td = |id: u32| stats.transit_degree_by_id(id);

        // ---- Stage 3: triplet cascade votes ---------------------------------
        // votes[link][side] = evidence count that the link's `side` end
        // provides the other.
        let mut votes: Vec<[usize; 2]> = vec![[0; 2]; stats.link_ends().len()];
        // Relationships established so far ("w is not u's customer" evidence):
        // clique links + accumulated P2C, as `(provider, customer)` pairs and
        // as the providing side of each link.
        let mut known_p2c: BTreeSet<(Asn, Asn)> = BTreeSet::new();
        let mut known: Vec<Option<usize>> = vec![None; votes.len()];
        let mut hop_ids = HopIds::new(indexer);
        let mut link_ids = LinkIds::new(stats);
        let mut hop_links: Vec<u32> = Vec::new();

        for pass in 0..self.params.cascade_passes.max(1) {
            for (_, hops) in clean.iter() {
                if hops.len() < 3 {
                    continue;
                }
                let ids = hop_ids.translate(hops);
                hop_links.clear();
                hop_links.extend(ids.windows(2).map(|w| link_ids.hop_link(w[0], w[1])));
                // descending becomes true once some hop exported the route to
                // a non-customer.
                let mut descending = false;
                for i in 1..ids.len() {
                    let w = ids[i - 1]; // received the route from u
                    let u = ids[i];
                    // A descent that would place a clique member below a
                    // non-member is bogus (clique members are provider-free
                    // by construction): the earlier seed must have been an
                    // error-propagation artefact (e.g. through a sibling
                    // link). Reset and allow fresh seeding.
                    if descending && in_clique[u as usize] && !in_clique[w as usize] {
                        descending = false;
                    }
                    if !descending {
                        // Seed check: did u export to a non-customer w? A
                        // clique member is provider-free and so can never be
                        // u's customer; a known provider of u obviously is
                        // not.
                        descending = in_clique[w as usize]
                            || known[hop_links[i - 1] as usize] == Some(side(w, u));
                    }
                    if descending {
                        // u's route was already known customer-learned at w's
                        // level; u received it from its customer v — unless v
                        // is a clique member, which can never be a customer.
                        // A strong rank inversion (the would-be customer
                        // vastly out-ranking the provider) signals an
                        // error-propagation artefact — Luckie et al. infer
                        // c2p "top-down using ranking"; reset the descent.
                        if let Some(&v) = ids.get(i + 1) {
                            let rank_inverted = td(v) > td(u).saturating_mul(2).saturating_add(5);
                            if in_clique[v as usize] || rank_inverted {
                                descending = false;
                            } else {
                                votes[hop_links[i] as usize][side(u, v)] += 1;
                            }
                        }
                    }
                }
            }
            // Derive the provisional P2C set for the next pass.
            let before = known_p2c.len();
            known_p2c = resolve_votes(&votes, stats, &in_clique, self.params.conflict_ratio);
            // Vote resolution decides each link independently, so the
            // per-link decisions can assemble into a provider cycle — an
            // impossibility under the original's rank-ordered top-down
            // iteration. Repair after every pass: votes persist across
            // passes, so a cycle fixed only once would reseed itself.
            break_provider_cycles(&mut known_p2c, |a| {
                let boost = if clique.contains(&a) {
                    CLIQUE_TD_BOOST
                } else {
                    0
                };
                stats.transit_degree(a) + boost
            });
            known.fill(None);
            for &(p, c) in &known_p2c {
                let (p, c) = (hop_ids.hop_id(p), hop_ids.hop_id(c));
                known[link_ids.hop_link(p, c) as usize] = Some(side(p, c));
            }
            if known_p2c.len() == before && pass > 0 {
                break;
            }
        }

        // ---- Stages 4–6: assemble final relationships ------------------------
        let links = stats.links().iter().zip(stats.link_ends()).zip(&known);
        let rels: BTreeMap<Link, Rel> = links
            .map(|((&link, &[lo, hi]), &provider)| {
                let (a, b) = link.endpoints();
                let stub_rule = |c: u32, s: u32| in_clique[c as usize] && td(s) == 0;
                let rel = match provider {
                    Some(0) => Rel::P2c { provider: a },
                    Some(_) => Rel::P2c { provider: b },
                    // Clique links are peers by construction.
                    None if in_clique[lo as usize] && in_clique[hi as usize] => Rel::P2p,
                    // Stub heuristic: clique member + transit-degree-0 stub → P2C.
                    None if stub_rule(lo, hi) => Rel::P2c { provider: a },
                    None if stub_rule(hi, lo) => Rel::P2c { provider: b },
                    // Default: peering.
                    None => Rel::P2p,
                };
                (link, rel)
            })
            .collect();

        Inference {
            classifier: self.name().to_owned(),
            rels,
            clique,
        }
    }
}

/// Resolves directional votes into a consistent (provider, customer) set,
/// deciding the links in link-id order. Clique members are provider-free:
/// any vote naming one as a customer is flipped (one side clique) or
/// discarded (both sides clique).
///
/// Each link is decided from its two vote counts alone: a tie in votes and
/// in transit degree makes the lower ASN the provider.
fn resolve_votes(
    votes: &[[usize; 2]],
    stats: &PathStats,
    in_clique: &[bool],
    ratio: f64,
) -> BTreeSet<(Asn, Asn)> {
    let clique = |id: u32| in_clique[id as usize];
    let mut out = Vec::new();
    for (&[lo, hi], &[up, down]) in stats.link_ends().iter().zip(votes) {
        if (up == 0 && down == 0) || (clique(lo) && clique(hi)) {
            continue; // no votes, or a clique link: a peering
        }
        let (fwd, rev, p, c) = if up >= down {
            (up, down, lo, hi)
        } else {
            (down, up, hi, lo)
        };
        let (p, c) = if clique(c) { (c, p) } else { (p, c) };
        let decided = if rev == 0 || fwd as f64 >= ratio * rev as f64 || clique(p) {
            (p, c)
        } else if stats.transit_degree_by_id(p) >= stats.transit_degree_by_id(c) {
            // Ambiguous: higher transit degree becomes the provider.
            (p, c)
        } else {
            (c, p)
        };
        let asn = |id: u32| stats.indexer().asn(id);
        out.push((asn(decided.0), asn(decided.1)));
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::{AsPath, PathSet};

    fn path(hops: &[u32]) -> AsPath {
        AsPath::new(hops.iter().map(|&h| Asn(h)).collect())
    }

    /// Hand-built scenario: clique {1,2,3}; 4 is a customer chain below 1;
    /// 5 below 4; 6 peers with 4 (only visible below 4).
    fn sample_paths() -> PathSet {
        let mut ps = PathSet::new();
        // Clique mesh visibility (gives the clique stage its mesh) and
        // cascades: vp 10 sits below 2.
        ps.push(Asn(10), path(&[10, 2, 1, 4, 5]));
        ps.push(Asn(10), path(&[10, 2, 3, 40]));
        ps.push(Asn(11), path(&[11, 3, 1, 4, 5]));
        ps.push(Asn(11), path(&[11, 3, 2, 41]));
        ps.push(Asn(12), path(&[12, 1, 2, 42]));
        ps.push(Asn(12), path(&[12, 1, 3, 43]));
        // Peering 4–6: 4 exports 6's routes only down to 5.
        ps.push(Asn(5), path(&[5, 4, 6]));
        // More transit evidence for 1,2,3 so they top the ranking.
        ps.push(Asn(13), path(&[13, 1, 44]));
        ps.push(Asn(13), path(&[13, 2, 45]));
        ps.push(Asn(13), path(&[13, 3, 46]));
        ps
    }

    #[test]
    fn infers_clique_and_cascaded_customers() {
        let inf = AsRank::new().infer(&sample_paths());
        assert!(inf.clique.contains(&Asn(1)));
        assert!(inf.clique.contains(&Asn(2)));
        assert!(inf.clique.contains(&Asn(3)));
        // 2|1|4 triplet: clique pair seeds descent → 4 is 1's customer.
        assert_eq!(
            inf.rel(Link::new(Asn(1), Asn(4)).unwrap()),
            Some(Rel::P2c { provider: Asn(1) })
        );
        // Cascade: 4 exported 5's route to its provider 1 → 5 is 4's customer.
        assert_eq!(
            inf.rel(Link::new(Asn(4), Asn(5)).unwrap()),
            Some(Rel::P2c { provider: Asn(4) })
        );
        // Clique links are peers.
        assert_eq!(inf.rel(Link::new(Asn(1), Asn(2)).unwrap()), Some(Rel::P2p));
    }

    #[test]
    fn lateral_only_links_default_to_p2p() {
        let inf = AsRank::new().infer(&sample_paths());
        // 4–6 never appears below a seed: stays P2P.
        assert_eq!(inf.rel(Link::new(Asn(4), Asn(6)).unwrap()), Some(Rel::P2p));
    }

    #[test]
    fn stub_to_clique_heuristic_forces_p2c() {
        let mut ps = sample_paths();
        // Stub 99 visible only laterally next to clique member 1 (e.g. a
        // true peering of an anycast stub): 1 exports it to its customer 4,
        // and to clique peer... no: peer routes don't go to peers. Only down.
        ps.push(Asn(5), path(&[5, 4, 1, 99]));
        let inf = AsRank::new().infer(&ps);
        // 99 has transit degree 0 and the link is unresolved by cascades
        // (1 never exported 99's route to another clique member) — the stub
        // rule kicks in and wrongly infers P2C. This is the S-T1 failure.
        assert_eq!(
            inf.rel(Link::new(Asn(1), Asn(99)).unwrap()),
            Some(Rel::P2c { provider: Asn(1) })
        );
    }

    #[test]
    fn sanitises_bad_paths() {
        let mut ps = sample_paths();
        ps.push(Asn(10), path(&[10, 2, 10, 2])); // loop
        ps.push(Asn(10), path(&[10, 23456, 7])); // AS_TRANS
        let inf = AsRank::new().infer(&ps);
        assert!(inf.rel(Link::new(Asn(23456), Asn(7)).unwrap()).is_none());
    }

    #[test]
    fn vote_ties_resolve_to_the_lower_asn() {
        // Links 1–3, 3–7 and 7–9 get ids 0, 1 and 2, and ASes 3 and 7 both
        // have transit degree 2. Only link 3–7 is undecided by its votes
        // (two each way), so only the lower-ASN rule can orient it.
        let mut ps = PathSet::new();
        ps.push(Asn(9), path(&[9, 7, 3]));
        ps.push(Asn(1), path(&[1, 3, 7]));
        let stats = ps.stats();
        assert_eq!(stats.link_ends(), &[[0, 1], [1, 2], [2, 3]]);
        assert_eq!(stats.transit_degree(Asn(3)), stats.transit_degree(Asn(7)));
        let no_clique = [false; 4];
        let resolved = resolve_votes(&[[5, 0], [2, 2], [0, 4]], &stats, &no_clique, 2.0);
        let expected = [(1, 3), (3, 7), (9, 7)].map(|(p, c)| (Asn(p), Asn(c)));
        assert_eq!(resolved, BTreeSet::from(expected));
        // One more vote either way decides the link by its votes instead.
        let resolved = resolve_votes(&[[0; 2], [2, 3], [0; 2]], &stats, &no_clique, 2.0);
        assert_eq!(resolved, BTreeSet::from([(Asn(7), Asn(3))]));
        let resolved = resolve_votes(&[[0; 2], [3, 2], [0; 2]], &stats, &no_clique, 2.0);
        assert_eq!(resolved, BTreeSet::from([(Asn(3), Asn(7))]));
    }

    #[test]
    fn empty_input_yields_empty_inference() {
        let inf = AsRank::new().infer(&PathSet::new());
        assert!(inf.is_empty());
        assert!(inf.clique.is_empty());
    }
}
