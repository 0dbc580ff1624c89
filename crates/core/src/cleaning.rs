//! §4.2 — label quality & treatment.
//!
//! The raw validation set contains entries that must be removed or handled
//! carefully before any evaluation:
//!
//! * **spurious labels** — relationships formed with `AS_TRANS` (23456) or
//!   IANA-reserved ASNs (the paper found 15 and 112 of these, respectively);
//! * **ambiguous labels** — links with multiple distinct labels (hybrid
//!   relationships); the paper shows the treatment choice silently differed
//!   between prior works, so all three observed policies are implemented;
//! * **sibling labels** — links between ASes of the same organisation
//!   (AS2Org), which should be excluded unless explicitly handled.

use asgraph::{Link, Rel, RelClass};
use asregistry::As2Org;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use valdata::ValidationSet;

/// How to treat links carrying multiple distinct labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AmbiguousPolicy {
    /// Drop them (the paper's recommendation: "should be ignored for
    /// validation unless the algorithm explicitly handles them").
    Ignore,
    /// Treat as P2P if the *first* label is P2P, else P2C — reproduces the
    /// TopoScope paper's counts (§4.2).
    P2pIfFirstP2p,
    /// Always treat as P2C — reproduces ProbLink's counts (§4.2).
    AlwaysP2c,
}

/// Cleaning configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CleaningConfig {
    /// Multi-label policy.
    pub ambiguous: AmbiguousPolicy,
    /// Remove links between same-organisation ASes.
    pub drop_siblings: bool,
}

impl Default for CleaningConfig {
    fn default() -> Self {
        CleaningConfig {
            ambiguous: AmbiguousPolicy::Ignore,
            drop_siblings: true,
        }
    }
}

/// What was removed, and why — the §4.2 census.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CleaningReport {
    /// Links in the raw set.
    pub raw_links: usize,
    /// Links dropped for involving `AS_TRANS`.
    pub as_trans_dropped: usize,
    /// Links dropped for involving other reserved ASNs.
    pub reserved_dropped: usize,
    /// Links with multiple distinct labels encountered.
    pub ambiguous_found: usize,
    /// Ambiguous links dropped (policy [`AmbiguousPolicy::Ignore`]).
    pub ambiguous_dropped: usize,
    /// Sibling links dropped via AS2Org.
    pub sibling_dropped: usize,
    /// Links that carried at least one S2S-labelled record.
    pub s2s_label_dropped: usize,
    /// Links dropped because *all* their labels were S2S.
    pub s2s_only_dropped: usize,
    /// Links remaining after cleaning.
    pub clean_links: usize,
}

/// The cleaned validation data: exactly one label per link.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CleanValidation {
    /// Per-link label.
    pub labels: BTreeMap<Link, Rel>,
    /// The census.
    pub report: CleaningReport,
}

impl CleanValidation {
    /// Number of validated links.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if no labels survived.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label for `link`.
    #[must_use]
    pub fn label(&self, link: Link) -> Option<Rel> {
        self.labels.get(&link).copied()
    }

    /// Label counts per class.
    #[must_use]
    pub fn class_counts(&self) -> BTreeMap<RelClass, usize> {
        let mut out = BTreeMap::new();
        for rel in self.labels.values() {
            *out.entry(rel.class()).or_insert(0) += 1;
        }
        out
    }
}

/// Runs the §4.2 cleaning pipeline.
#[must_use]
pub fn clean(set: &ValidationSet, org: &As2Org, cfg: &CleaningConfig) -> CleanValidation {
    let _span = breval_obs::span!("clean_validation");
    let mut report = CleaningReport {
        raw_links: set.len(),
        ..Default::default()
    };
    let mut labels = BTreeMap::new();

    for (link, records) in &set.entries {
        // Spurious endpoints.
        if link.a().is_as_trans() || link.b().is_as_trans() {
            report.as_trans_dropped += 1;
            continue;
        }
        if link.involves_reserved() {
            report.reserved_dropped += 1;
            continue;
        }
        // Siblings (AS2Org).
        if cfg.drop_siblings && org.is_sibling_link(*link) {
            report.sibling_dropped += 1;
            continue;
        }
        // Distinct labels on this link, in insertion order.
        let mut distinct: Vec<Rel> = Vec::new();
        for r in records {
            if !distinct.contains(&r.rel) {
                distinct.push(r.rel);
            }
        }
        // Drop S2S records (handled by the sibling mechanism, not labels).
        let s2s_count = distinct
            .iter()
            .filter(|r| r.class() == RelClass::S2s)
            .count();
        if s2s_count > 0 {
            report.s2s_label_dropped += 1;
        }
        distinct.retain(|r| r.class() != RelClass::S2s);
        let chosen = match distinct[..] {
            [] => {
                report.s2s_only_dropped += 1;
                None
            }
            [only] => Some(only),
            [first, ..] => {
                report.ambiguous_found += 1;
                match cfg.ambiguous {
                    AmbiguousPolicy::Ignore => {
                        report.ambiguous_dropped += 1;
                        None
                    }
                    AmbiguousPolicy::P2pIfFirstP2p => Some(if first.class() == RelClass::P2p {
                        Rel::P2p
                    } else {
                        first_p2c(&distinct).unwrap_or(first)
                    }),
                    AmbiguousPolicy::AlwaysP2c => Some(first_p2c(&distinct).unwrap_or(first)),
                }
            }
        };
        if let Some(rel) = chosen {
            labels.insert(*link, rel);
        }
    }
    report.clean_links = labels.len();
    breval_obs::counter("validation_labels_cleaned", labels.len() as u64);
    breval_obs::counter(
        "validation_labels_dropped",
        (report.raw_links - labels.len()) as u64,
    );
    CleanValidation { labels, report }
}

fn first_p2c(rels: &[Rel]) -> Option<Rel> {
    rels.iter().find(|r| r.class() == RelClass::P2c).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::Asn;
    use asregistry::org::OrgId;
    use valdata::LabelSource;

    fn link(a: u32, b: u32) -> Link {
        Link::new(Asn(a), Asn(b)).unwrap()
    }

    fn p2c(p: u32) -> Rel {
        Rel::P2c { provider: Asn(p) }
    }

    fn sample_set() -> ValidationSet {
        let mut v = ValidationSet::new();
        v.add(link(1, 2), Rel::P2p, LabelSource::Communities);
        v.add(link(23456, 9), p2c(9), LabelSource::Communities); // AS_TRANS
        v.add(link(64512, 9), p2c(9), LabelSource::Communities); // reserved
        v.add(link(3, 4), Rel::P2p, LabelSource::Communities); // ambiguous:
        v.add(link(3, 4), p2c(3), LabelSource::Communities); //   P2P first
        v.add(link(5, 6), p2c(5), LabelSource::Communities); // ambiguous:
        v.add(link(5, 6), Rel::P2p, LabelSource::Communities); //   P2C first
        v.add(link(7, 8), Rel::S2s, LabelSource::Rpsl); // sibling label only
        v.add(link(10, 11), p2c(10), LabelSource::Communities); // sibling link
        v
    }

    fn org_with_siblings() -> As2Org {
        let mut org = As2Org::new();
        org.assign(Asn(10), OrgId("@fam".into()));
        org.assign(Asn(11), OrgId("@fam".into()));
        org
    }

    #[test]
    fn drops_spurious_and_siblings() {
        let clean = clean(
            &sample_set(),
            &org_with_siblings(),
            &CleaningConfig::default(),
        );
        let r = &clean.report;
        assert_eq!(r.raw_links, 7);
        assert_eq!(r.as_trans_dropped, 1);
        assert_eq!(r.reserved_dropped, 1);
        assert_eq!(r.sibling_dropped, 1);
        assert_eq!(r.ambiguous_found, 2);
        assert_eq!(r.ambiguous_dropped, 2);
        assert_eq!(r.s2s_label_dropped, 1);
        // Surviving: link(1,2) only (7,8 lost its only label).
        assert_eq!(clean.len(), 1);
        assert_eq!(clean.label(link(1, 2)), Some(Rel::P2p));
        assert_eq!(r.clean_links, 1);
    }

    #[test]
    fn ambiguous_policy_p2p_if_first() {
        let cfg = CleaningConfig {
            ambiguous: AmbiguousPolicy::P2pIfFirstP2p,
            drop_siblings: true,
        };
        let clean = clean(&sample_set(), &org_with_siblings(), &cfg);
        assert_eq!(clean.label(link(3, 4)), Some(Rel::P2p));
        assert_eq!(clean.label(link(5, 6)), Some(p2c(5)));
    }

    #[test]
    fn ambiguous_policy_always_p2c() {
        let cfg = CleaningConfig {
            ambiguous: AmbiguousPolicy::AlwaysP2c,
            drop_siblings: true,
        };
        let clean = clean(&sample_set(), &org_with_siblings(), &cfg);
        assert_eq!(clean.label(link(3, 4)), Some(p2c(3)));
        assert_eq!(clean.label(link(5, 6)), Some(p2c(5)));
    }

    #[test]
    fn keeping_siblings_is_possible() {
        let cfg = CleaningConfig {
            ambiguous: AmbiguousPolicy::Ignore,
            drop_siblings: false,
        };
        let clean = clean(&sample_set(), &org_with_siblings(), &cfg);
        assert_eq!(clean.label(link(10, 11)), Some(p2c(10)));
        assert_eq!(clean.report.sibling_dropped, 0);
    }

    #[test]
    fn empty_set_is_fine() {
        let clean = clean(
            &ValidationSet::new(),
            &As2Org::new(),
            &CleaningConfig::default(),
        );
        assert!(clean.is_empty());
        assert_eq!(clean.report.raw_links, 0);
    }
}
