//! §6.1 — the Cogent case study.
//!
//! Take the links that drag down `PPV_P` in the `T1-TR` class (validated P2C
//! but inferred P2P — the "target links"), find the Tier-1 involved in most
//! of them, verify that no `clique|T1|X` triplet exists in the public paths
//! (the evidence ASRank would need for a P2C inference), and then query the
//! Tier-1's looking glass: routes tagged with the `…:990` action community
//! are partial-transit contracts; the remainder is inaccurate validation
//! data.

use crate::cleaning::CleanValidation;
use crate::metrics::ScoredLink;
use asgraph::{Asn, Link, PathSet, RelClass};
use asinfer::Inference;
use bgpsim::communities::AnyCommunity;
use bgpsim::LookingGlass;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why a target link was wrongly inferred as P2P.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetReason {
    /// The customer tags the provider's no-export-to-peers community:
    /// a partial-transit contract.
    PartialTransit,
    /// No scoped-export evidence — the validation label itself is wrong.
    InaccurateValidation,
    /// The looking glass had no route to check (link invisible).
    NoRoute,
}

/// Forensics for one target link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetFinding {
    /// The link (Tier-1 and its alleged customer).
    pub link: Link,
    /// The non-Tier-1 endpoint.
    pub neighbor: Asn,
    /// Number of `clique|T1|neighbor` triplets found in public paths
    /// (expected 0 — otherwise ASRank would have inferred P2C).
    pub clique_triplets: usize,
    /// The verdict.
    pub reason: TargetReason,
}

/// The §6.1 case-study report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseStudyReport {
    /// Target links per Tier-1 (who causes the PPV_P drop).
    pub per_tier1: BTreeMap<Asn, usize>,
    /// The Tier-1 under study (most target links).
    pub focus: Asn,
    /// Total target links in the class.
    pub total_targets: usize,
    /// Per-link findings for the focus Tier-1.
    pub findings: Vec<TargetFinding>,
    /// How many findings were partial transit.
    pub partial_transit: usize,
    /// How many findings were inaccurate validation.
    pub inaccurate_validation: usize,
}

/// Runs the case study.
///
/// * `scored_t1_tr` — the scored links of the `T1-TR` class,
/// * `inference` — the classifier whose errors are studied (ASRank in §6.1),
/// * `paths` — public route-collector paths (for the triplet search),
/// * `lg` — the looking glass over the simulated world.
#[must_use]
pub fn run_case_study(
    scored_t1_tr: &[ScoredLink],
    inference: &Inference,
    validation: &CleanValidation,
    paths: &PathSet,
    lg: &LookingGlass<'_>,
    tier1: &std::collections::BTreeSet<Asn>,
) -> CaseStudyReport {
    // Target links: inferred P2P, validated P2C.
    let targets: Vec<Link> = scored_t1_tr
        .iter()
        .filter(|s| s.inferred.class() == RelClass::P2p && s.validation.class() == RelClass::P2c)
        .map(|s| s.link)
        .collect();

    let mut per_tier1: BTreeMap<Asn, usize> = BTreeMap::new();
    for link in &targets {
        for end in [link.a(), link.b()] {
            if tier1.contains(&end) {
                *per_tier1.entry(end).or_insert(0) += 1;
            }
        }
    }
    let focus = per_tier1
        .iter()
        .max_by_key(|(asn, n)| (**n, std::cmp::Reverse(asn.0)))
        .map(|(asn, _)| *asn)
        .unwrap_or(Asn(0));

    // Pre-index triplets (w, focus, v) with w in the inferred clique.
    let mut clique_triplets: BTreeMap<Asn, usize> = BTreeMap::new();
    for (_, hops) in paths.iter() {
        for t in hops.windows(3) {
            if t[1] == focus && inference.clique.contains(&t[0]) {
                *clique_triplets.entry(t[2]).or_insert(0) += 1;
            }
        }
    }

    let mut findings = Vec::new();
    for link in &targets {
        if !link.contains(focus) {
            continue;
        }
        let Some(neighbor) = link.other(focus) else {
            continue;
        };
        let triplets = clique_triplets.get(&neighbor).copied().unwrap_or(0);
        let action = AnyCommunity::action_no_export_to_peers(focus);
        let reason = match lg.query(focus, neighbor) {
            Some(route) if route.communities.contains(&action) => TargetReason::PartialTransit,
            Some(_) => TargetReason::InaccurateValidation,
            None => TargetReason::NoRoute,
        };
        findings.push(TargetFinding {
            link: *link,
            neighbor,
            clique_triplets: triplets,
            reason,
        });
    }
    let partial = findings
        .iter()
        .filter(|f| f.reason == TargetReason::PartialTransit)
        .count();
    let inaccurate = findings
        .iter()
        .filter(|f| f.reason == TargetReason::InaccurateValidation)
        .count();

    let _ = validation; // kept in the signature for future label drill-downs
    CaseStudyReport {
        per_tier1,
        focus,
        total_targets: targets.len(),
        findings,
        partial_transit: partial,
        inaccurate_validation: inaccurate,
    }
}
