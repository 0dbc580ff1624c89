//! Appendix C — the twelve per-link metrics the paper proposes for finding
//! further groups of "hard links".
//!
//! All metrics are computed from *observable* data (the collector snapshot
//! plus the PeeringDB-style IXP list and the MANRS/serial-hijacker behaviour
//! lists), exactly as a future bias analysis would compute them:
//!
//!  1. visibility — distinct vantage points observing the link (the per-
//!     snapshot building block of "visibility over time"),
//!  2. prefixes redistributed via the link,
//!  3. addresses covered by those prefixes,
//!  4. prefixes *originated* through the link (link adjacent to the origin),
//!  5. addresses covered by those,
//!  6. ASes observed collector-side ("left") of the link,
//!  7. ASes observed origin-side ("right") of the link,
//!  8. relative transit-degree difference of the endpoints,
//!  9. relative PPDC-size difference of the endpoints,
//! 10. common IXPs of the endpoints,
//! 11. common private facilities — **not modelled**; the simulation has no
//!     facility substrate, so this is reported as 0 for every link and noted
//!     in DESIGN.md,
//! 12. behaviour of the endpoints (MANRS members vs serial hijackers).

use asgraph::{Asn, ConeSizes, Link, PathStats};
use bgpsim::RibSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use topogen::Topology;

/// The Appendix C feature vector for one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkMetrics {
    /// (1) Distinct vantage points observing the link.
    pub visibility: usize,
    /// (2) Distinct prefixes whose routes cross the link.
    pub prefixes_redistributed: usize,
    /// (3) Addresses covered by those prefixes.
    pub addresses_redistributed: u64,
    /// (4) Distinct prefixes originated directly across the link.
    pub prefixes_originated: usize,
    /// (5) Addresses covered by those prefixes.
    pub addresses_originated: u64,
    /// (6) Distinct ASes observed collector-side of the link.
    pub left_ases: usize,
    /// (7) Distinct ASes observed origin-side of the link.
    pub right_ases: usize,
    /// (8) |td(a) − td(b)| / max(td(a), td(b), 1).
    pub transit_degree_diff: f64,
    /// (9) |ppdc(a) − ppdc(b)| / max(ppdc(a), ppdc(b), 1).
    pub ppdc_diff: f64,
    /// (10) IXPs where both endpoints are members.
    pub common_ixps: usize,
    /// (11) Common private facilities — not modelled, always 0.
    pub common_facilities: usize,
    /// (12) Endpoints that are MANRS participants (0–2).
    pub manrs_endpoints: u8,
    /// (12) Endpoints flagged as serial hijackers (0–2).
    pub hijacker_endpoints: u8,
}

/// Computes the Appendix C metrics for every observed link.
///
/// `ppdc` supplies the per-AS PPDC cone sizes used for feature 9
/// ([`asgraph::cone::PpdcCones::sizes`] over the inferred relationships —
/// the paper would use the inferred relationships). Passed in precomputed
/// so callers share one derivation with the rest of the pipeline.
#[must_use]
pub fn compute_link_metrics(
    topology: &Topology,
    snapshot: &RibSnapshot,
    stats: &PathStats,
    ppdc: &ConeSizes,
) -> BTreeMap<Link, LinkMetrics> {
    #[derive(Default)]
    struct Acc {
        vps: Distinct<Asn>,
        prefixes: Distinct<bgpwire::Ipv4Prefix>,
        originated: Distinct<bgpwire::Ipv4Prefix>,
        left: Distinct<Asn>,
        right: Distinct<Asn>,
    }
    // Link-keyed BTreeMap so the returned metric table (and everything
    // rendered from it) iterates in Link order.
    let mut acc: BTreeMap<Link, Acc> = BTreeMap::new();

    for (obs, (_, hops)) in snapshot.observations.iter().zip(snapshot.paths.iter()) {
        for (i, w) in hops.windows(2).enumerate() {
            let Some(link) = Link::new(w[0], w[1]) else {
                continue;
            };
            let entry = acc.entry(link).or_default();
            entry.vps.insert(obs.vp);
            entry.prefixes.insert(obs.prefix);
            if i + 2 == hops.len() {
                entry.originated.insert(obs.prefix);
            }
            entry.left.extend(&hops[..=i]);
            entry.right.extend(&hops[i + 1..]);
        }
    }

    let rel_diff = |a: usize, b: usize| -> f64 {
        let (a, b) = (a as f64, b as f64);
        (a - b).abs() / a.max(b).max(1.0)
    };

    acc.into_iter()
        .map(|(link, a)| {
            let (x, y) = link.endpoints();
            let common_ixps = topology
                .ixps
                .iter()
                .filter(|ixp| ixp.members.contains(&x) && ixp.members.contains(&y))
                .count();
            let flag = |f: fn(&topogen::AsInfo) -> bool| -> u8 {
                [x, y]
                    .into_iter()
                    .filter(|asn| topology.info(*asn).map(f).unwrap_or(false))
                    .count() as u8
            };
            let (prefixes, originated) = (a.prefixes.finish(), a.originated.finish());
            let metrics = LinkMetrics {
                visibility: a.vps.finish().len(),
                prefixes_redistributed: prefixes.len(),
                addresses_redistributed: prefixes.iter().map(|p| p.address_count()).sum(),
                prefixes_originated: originated.len(),
                addresses_originated: originated.iter().map(|p| p.address_count()).sum(),
                left_ases: a.left.finish().len().saturating_sub(1),
                right_ases: a.right.finish().len().saturating_sub(1),
                transit_degree_diff: rel_diff(stats.transit_degree(x), stats.transit_degree(y)),
                ppdc_diff: rel_diff(ppdc.get(x).unwrap_or(1), ppdc.get(y).unwrap_or(1)),
                common_ixps,
                common_facilities: 0,
                manrs_endpoints: flag(|i| i.manrs),
                hijacker_endpoints: flag(|i| i.hijacker),
            };
            (link, metrics)
        })
        .collect()
}

/// A set collected by pushing into a vector that is sorted and deduplicated
/// whenever it has doubled since it last was, so most inserts are one push
/// and the vector stays within twice the set.
struct Distinct<T> {
    items: Vec<T>,
    compact_at: usize,
}

impl<T> Default for Distinct<T> {
    fn default() -> Self {
        Distinct {
            items: Vec::new(),
            compact_at: DISTINCT_BATCH,
        }
    }
}

/// Pushes a [`Distinct`] takes before its first deduplication.
const DISTINCT_BATCH: usize = 16;

impl<T: Ord + Copy> Distinct<T> {
    fn insert(&mut self, value: T) {
        self.items.push(value);
        if self.items.len() >= self.compact_at {
            self.items.sort_unstable();
            self.items.dedup();
            self.compact_at = 2 * self.items.len() + DISTINCT_BATCH;
        }
    }

    fn extend(&mut self, values: &[T]) {
        for &value in values {
            self.insert(value);
        }
    }

    /// The distinct values, ascending.
    fn finish(mut self) -> Vec<T> {
        self.items.sort_unstable();
        self.items.dedup();
        self.items
    }
}

/// One row of the feature-vs-error analysis: links bucketed by a feature's
/// value, with the misclassification rate per bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureErrorRow {
    /// Feature name.
    pub feature: &'static str,
    /// Bucket label (e.g. `"q1 (low)"`).
    pub bucket: String,
    /// Scored links in the bucket.
    pub links: usize,
    /// Fraction misclassified (class-level).
    pub error_rate: f64,
}

/// Buckets scored links into quartiles of a feature and reports the error
/// rate per quartile — the analysis the paper's Appendix C proposes.
#[must_use]
pub fn error_by_feature_quartile(
    scored: &[crate::metrics::ScoredLink],
    metrics: &BTreeMap<Link, LinkMetrics>,
    feature: &'static str,
    value: impl Fn(&LinkMetrics) -> f64,
) -> Vec<FeatureErrorRow> {
    let mut pairs: Vec<(f64, bool)> = scored
        .iter()
        .filter_map(|s| {
            metrics
                .get(&s.link)
                .map(|m| (value(m), s.validation.class() != s.inferred.class()))
        })
        .collect();
    if pairs.is_empty() {
        return Vec::new();
    }
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let n = pairs.len();
    let labels = ["q1 (low)", "q2", "q3", "q4 (high)"];
    (0..4)
        .map(|q| {
            let lo = q * n / 4;
            let hi = ((q + 1) * n / 4).max(lo + 1).min(n);
            let slice = &pairs[lo..hi.max(lo)];
            let errors = slice.iter().filter(|(_, wrong)| *wrong).count();
            FeatureErrorRow {
                feature,
                bucket: labels[q].to_owned(),
                links: slice.len(),
                error_rate: errors as f64 / slice.len().max(1) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ScoredLink;
    use asgraph::{cone, Rel, RelClass};

    fn world() -> (Topology, RibSnapshot) {
        let topo = topogen::generate(&topogen::TopologyConfig::small(77));
        let snap = bgpsim::simulate(&topo);
        (topo, snap)
    }

    #[test]
    fn metrics_cover_all_observed_links() {
        let (topo, snap) = world();
        let paths = snap.to_pathset(false).sanitized();
        let stats = paths.stats();
        let rels: BTreeMap<Link, Rel> = topo.links.iter().map(|(l, r)| (*l, r.base)).collect();
        let ppdc = cone::ppdc_cones(&paths, &rels).sizes();
        let metrics = compute_link_metrics(&topo, &snap, &stats, &ppdc);
        // Every observed link gets a metric row.
        for link in stats.links().iter().take(500) {
            assert!(metrics.contains_key(link), "{link} missing");
        }
        // Invariants.
        for (link, m) in metrics.iter().take(2000) {
            assert!(m.visibility >= 1, "{link}: zero visibility");
            assert!(m.prefixes_redistributed >= m.prefixes_originated);
            assert!(m.addresses_redistributed >= m.addresses_originated);
            assert!(
                m.transit_degree_diff >= 0.0 && m.transit_degree_diff <= 1.0,
                "{link}: td diff {}",
                m.transit_degree_diff
            );
            assert!(m.ppdc_diff >= 0.0 && m.ppdc_diff <= 1.0);
            assert!(m.manrs_endpoints <= 2 && m.hijacker_endpoints <= 2);
            assert_eq!(m.common_facilities, 0);
        }
    }

    #[test]
    fn ixp_comembership_is_detected() {
        let (topo, snap) = world();
        let paths = snap.to_pathset(false).sanitized();
        let stats = paths.stats();
        let rels: BTreeMap<Link, Rel> = topo.links.iter().map(|(l, r)| (*l, r.base)).collect();
        let ppdc = cone::ppdc_cones(&paths, &rels).sizes();
        let metrics = compute_link_metrics(&topo, &snap, &stats, &ppdc);
        assert!(!topo.ixps.is_empty(), "generator must emit IXPs");
        // Some observed link connects two co-members of an IXP.
        let some_comember = metrics.values().any(|m| m.common_ixps > 0);
        assert!(some_comember, "no link with common IXPs found");
    }

    #[test]
    fn quartile_analysis_brackets_all_links() {
        let (topo, snap) = world();
        let paths = snap.to_pathset(false).sanitized();
        let stats = paths.stats();
        let rels: BTreeMap<Link, Rel> = topo.links.iter().map(|(l, r)| (*l, r.base)).collect();
        let ppdc = cone::ppdc_cones(&paths, &rels).sizes();
        let metrics = compute_link_metrics(&topo, &snap, &stats, &ppdc);
        // Score ground truth against itself with a few synthetic errors.
        let scored: Vec<ScoredLink> = stats
            .links()
            .iter()
            .enumerate()
            .filter_map(|(i, link)| {
                let gt = topo.gt_rel(*link)?.base;
                if gt.class() == RelClass::S2s {
                    return None;
                }
                let inferred = if i % 10 == 0 {
                    match gt.class() {
                        RelClass::P2p => Rel::P2c { provider: link.a() },
                        _ => Rel::P2p,
                    }
                } else {
                    gt
                };
                Some(ScoredLink {
                    link: *link,
                    validation: gt,
                    inferred,
                })
            })
            .collect();
        let rows =
            error_by_feature_quartile(&scored, &metrics, "visibility", |m| m.visibility as f64);
        assert_eq!(rows.len(), 4);
        let total: usize = rows.iter().map(|r| r.links).sum();
        assert_eq!(total, scored.len());
        for r in &rows {
            assert!(r.error_rate >= 0.0 && r.error_rate <= 1.0);
        }
    }
}
