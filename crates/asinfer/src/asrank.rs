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

use crate::common::{break_provider_cycles, Classifier, Inference, PreparedPaths};
use asgraph::clique::{infer_clique, CliqueParams};
use asgraph::{Asn, Link, Rel};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
        let (clean, stats) = (prep.paths, prep.stats);
        let clique = infer_clique(stats, self.params.clique);

        // ---- Stage 3: triplet cascade votes ---------------------------------
        // votes[(provider, customer)] = evidence count.
        let mut votes: HashMap<(Asn, Asn), usize> = HashMap::new();
        // Relationships established so far ("w is not u's customer" evidence):
        // clique links + accumulated P2C (provider side).
        let mut known_p2c: BTreeSet<(Asn, Asn)> = BTreeSet::new(); // (provider, customer)

        for pass in 0..self.params.cascade_passes.max(1) {
            let mut new_votes: HashMap<(Asn, Asn), usize> = HashMap::new();
            for (_, hops) in clean.iter() {
                if hops.len() < 3 {
                    continue;
                }
                // descending becomes true once some hop exported the route to
                // a non-customer.
                let mut descending = false;
                for i in 1..hops.len() {
                    let w = hops[i - 1]; // received the route from u
                    let u = hops[i];
                    // A descent that would place a clique member below a
                    // non-member is bogus (clique members are provider-free
                    // by construction): the earlier seed must have been an
                    // error-propagation artefact (e.g. through a sibling
                    // link). Reset and allow fresh seeding.
                    if descending && clique.contains(&u) && !clique.contains(&w) {
                        descending = false;
                    }
                    if !descending {
                        // Seed check: did u export to a non-customer w? A
                        // clique member is provider-free and so can never be
                        // u's customer; a known provider of u obviously is
                        // not.
                        descending = clique.contains(&w) || known_p2c.contains(&(w, u));
                    }
                    if descending {
                        // u's route was already known customer-learned at w's
                        // level; u received it from its customer v — unless v
                        // is a clique member, which can never be a customer.
                        // A strong rank inversion (the would-be customer
                        // vastly out-ranking the provider) signals an
                        // error-propagation artefact — Luckie et al. infer
                        // c2p "top-down using ranking"; reset the descent.
                        if let Some(&v) = hops.get(i + 1) {
                            let rank_inverted = stats.transit_degree(v)
                                > stats.transit_degree(u).saturating_mul(2).saturating_add(5);
                            if clique.contains(&v) || rank_inverted {
                                descending = false;
                            } else {
                                *new_votes.entry((u, v)).or_insert(0) += 1;
                            }
                        }
                    }
                }
            }
            // Fold votes and derive provisional P2C set for the next pass.
            let before = known_p2c.len();
            for (k, v) in new_votes {
                *votes.entry(k).or_insert(0) += v;
            }
            known_p2c = resolve_votes(&votes, stats, &clique, self.params.conflict_ratio);
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
            if known_p2c.len() == before && pass > 0 {
                break;
            }
        }

        // ---- Stages 4–6: assemble final relationships ------------------------
        let mut rels: BTreeMap<Link, Rel> = BTreeMap::new();
        for (provider, customer) in &known_p2c {
            if let Some(link) = Link::new(*provider, *customer) {
                rels.insert(
                    link,
                    Rel::P2c {
                        provider: *provider,
                    },
                );
            }
        }
        for link in stats.links() {
            if rels.contains_key(link) {
                continue;
            }
            let (a, b) = link.endpoints();
            // Clique links are peers by construction.
            if clique.contains(&a) && clique.contains(&b) {
                rels.insert(*link, Rel::P2p);
                continue;
            }
            // Stub heuristic: clique member + transit-degree-0 stub → P2C.
            let stub_rule = |c: Asn, s: Asn| -> Option<Rel> {
                (clique.contains(&c) && stats.transit_degree(s) == 0)
                    .then_some(Rel::P2c { provider: c })
            };
            if let Some(rel) = stub_rule(a, b).or_else(|| stub_rule(b, a)) {
                rels.insert(*link, rel);
                continue;
            }
            // Default: peering.
            rels.insert(*link, Rel::P2p);
        }

        Inference {
            classifier: self.name().to_owned(),
            rels,
            clique,
        }
    }
}

/// Resolves directional votes into a consistent (provider, customer) set.
/// Clique members are provider-free: any vote naming one as a customer is
/// flipped (one side clique) or discarded (both sides clique).
///
/// Each link is decided from its two vote counts alone, never from which of
/// its two keys the `HashMap` yields first: a tie in votes and in transit
/// degree makes the lower ASN the provider.
fn resolve_votes(
    votes: &HashMap<(Asn, Asn), usize>,
    stats: &asgraph::PathStats,
    clique: &BTreeSet<Asn>,
    ratio: f64,
) -> BTreeSet<(Asn, Asn)> {
    let mut out = BTreeSet::new();
    let mut seen: BTreeSet<Link> = BTreeSet::new();
    for (&(p, c), &n) in votes {
        let Some(link) = Link::new(p, c) else {
            continue;
        };
        if seen.contains(&link) {
            continue;
        }
        seen.insert(link);
        if clique.contains(&p) && clique.contains(&c) {
            continue; // clique links are peerings
        }
        let fwd = n;
        let rev = votes.get(&(c, p)).copied().unwrap_or(0);
        let (fwd, rev, p, c) = if fwd > rev || (fwd == rev && p < c) {
            (fwd, rev, p, c)
        } else {
            (rev, fwd, c, p)
        };
        let (p, c) = if clique.contains(&c) { (c, p) } else { (p, c) };
        if rev == 0 || fwd as f64 >= ratio * rev as f64 || clique.contains(&p) {
            out.insert((p, c));
        } else {
            // Ambiguous: higher transit degree becomes the provider.
            if stats.transit_degree(p) >= stats.transit_degree(c) {
                out.insert((p, c));
            } else {
                out.insert((c, p));
            }
        }
    }
    out
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
    fn vote_ties_resolve_independently_of_hash_order() {
        // Two votes each way and no transit degree on either side: only
        // the lower-ASN rule can decide. Every fresh map draws new hash
        // keys, so the two entries come back in varying order.
        let stats = PathSet::new().stats();
        let clique = BTreeSet::new();
        for _ in 0..32 {
            let votes: HashMap<(Asn, Asn), usize> =
                HashMap::from([((Asn(7), Asn(3)), 2), ((Asn(3), Asn(7)), 2)]);
            let resolved = resolve_votes(&votes, &stats, &clique, 2.0);
            assert_eq!(resolved, BTreeSet::from([(Asn(3), Asn(7))]));
        }
    }

    #[test]
    fn empty_input_yields_empty_inference() {
        let inf = AsRank::new().infer(&PathSet::new());
        assert!(inf.is_empty());
        assert!(inf.clique.is_empty());
    }
}
