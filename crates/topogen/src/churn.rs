//! Topology evolution over time.
//!
//! §7 of the paper argues the routing ecosystem's "intrinsic, continuous
//! change" could be exploited to over-sample validation data — if one knows
//! how long relationships stay unchanged. This module provides the change
//! process: a seeded month-over-month evolution of a generated topology
//! (provider switches, de-peering, new peering, partial-transit contract
//! flips), preserving the invariants the propagation engine relies on
//! (acyclic provider hierarchy, upward connectivity).

use crate::model::{TierClass, Topology};
use asgraph::{Asn, GtRel, Link, Rel};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Per-step churn probabilities (a "step" ≈ one month).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Seed for the churn process (varied per step by the caller or via
    /// [`evolve_steps`]).
    pub seed: u64,
    /// Probability that a multihomed customer replaces one provider.
    pub provider_switch_prob: f64,
    /// Probability that a peering link dissolves.
    pub depeering_prob: f64,
    /// Number of new peering links per step, as a fraction of existing ones.
    pub new_peering_rate: f64,
    /// Probability that a partial-transit contract upgrades to full transit
    /// (or a full Tier-1 transit contract downgrades to partial).
    pub partial_flip_prob: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 1,
            provider_switch_prob: 0.015,
            depeering_prob: 0.01,
            new_peering_rate: 0.012,
            partial_flip_prob: 0.03,
        }
    }
}

/// What changed in one step.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Provider links replaced (old removed, new added).
    pub provider_switches: usize,
    /// Peerings dissolved.
    pub depeerings: usize,
    /// Peerings created.
    pub new_peerings: usize,
    /// Partial-transit flags flipped.
    pub partial_flips: usize,
}

impl ChurnReport {
    /// Total changed links.
    #[must_use]
    pub fn total(&self) -> usize {
        // A provider switch changes two links (one removed, one added).
        2 * self.provider_switches + self.depeerings + self.new_peerings + self.partial_flips
    }
}

/// Evolves `topology` by one step. Deterministic under `cfg.seed`.
#[must_use]
pub fn evolve(topology: &Topology, cfg: &ChurnConfig) -> (Topology, ChurnReport) {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut next = topology.clone();
    let mut report = ChurnReport::default();

    let graph = topology.ground_truth_graph();
    let transits: Vec<Asn> = topology.ases_of_tier(TierClass::Transit);

    // Live provider→customer adjacency, updated as switches land, so that a
    // later switch cannot close a cycle opened by an earlier one in the same
    // step.
    let mut customer_adj: std::collections::BTreeMap<Asn, Vec<Asn>> = Default::default();
    for (link, rel) in &topology.links {
        if let Rel::P2c { provider } = rel.base {
            if let Some(customer) = link.other(provider) {
                customer_adj.entry(provider).or_default().push(customer);
            }
        }
    }
    let reaches = |adj: &std::collections::BTreeMap<Asn, Vec<Asn>>, from: Asn, to: Asn| -> bool {
        let mut seen: std::collections::BTreeSet<Asn> = Default::default();
        let mut stack = vec![from];
        while let Some(cur) = stack.pop() {
            if cur == to {
                return true;
            }
            if !seen.insert(cur) {
                continue;
            }
            if let Some(customers) = adj.get(&cur) {
                stack.extend(customers.iter().copied());
            }
        }
        false
    };

    // ---- provider switches ---------------------------------------------------
    // Node ids follow ASN order, so the `n`-th AS of the topology is node `n`.
    let customers: Vec<(u32, Asn)> = (0u32..)
        .zip(topology.ases.values())
        .filter(|(_, i)| matches!(i.tier, TierClass::Transit | TierClass::Stub))
        .map(|(id, i)| (id, i.asn))
        .collect();
    for &(id, customer) in &customers {
        if !rng.random_bool(cfg.provider_switch_prob) {
            continue;
        }
        let providers = graph.providers(id);
        if providers.len() < 2 {
            continue; // single-homed customers keep their lifeline
        }
        let old = graph
            .indexer()
            .asn(providers[rng.random_range(0..providers.len())]);
        // New provider: a transit in any region, not already a neighbor, and
        // not reachable through the customer's *current* cone (checked
        // against the live adjacency, keeping the hierarchy acyclic even
        // across multiple switches in one step).
        let mut candidates: Vec<Asn> = transits
            .iter()
            .copied()
            .filter(|t| {
                *t != customer
                    && Link::new(*t, customer)
                        .map(|l| !next.links.contains_key(&l))
                        .unwrap_or(false)
            })
            .collect();
        if candidates.is_empty() {
            continue;
        }
        candidates.shuffle(&mut rng);
        let Some(&new) = candidates
            .iter()
            .find(|t| !reaches(&customer_adj, customer, **t))
        else {
            continue;
        };
        let Some(old_link) = Link::new(old, customer) else {
            continue;
        };
        let Some(new_link) = Link::new(new, customer) else {
            continue;
        };
        next.links.remove(&old_link);
        next.links
            .insert(new_link, GtRel::simple(Rel::P2c { provider: new }));
        if let Some(list) = customer_adj.get_mut(&old) {
            list.retain(|c| *c != customer);
        }
        customer_adj.entry(new).or_default().push(customer);
        report.provider_switches += 1;
    }

    // ---- de-peering -------------------------------------------------------------
    let peerings: Vec<Link> = topology
        .links
        .iter()
        .filter(|(_, r)| r.base == Rel::P2p)
        .map(|(l, _)| *l)
        .collect();
    for link in &peerings {
        // Never dissolve the Tier-1 mesh (those contracts are sticky).
        if topology.tier1.contains(&link.a()) && topology.tier1.contains(&link.b()) {
            continue;
        }
        if rng.random_bool(cfg.depeering_prob) {
            next.links.remove(link);
            report.depeerings += 1;
        }
    }

    // ---- new peering ---------------------------------------------------------------
    let targets = ((peerings.len() as f64) * cfg.new_peering_rate).round() as usize;
    let mut guard = 0;
    while report.new_peerings < targets && guard < targets * 20 {
        guard += 1;
        let a = transits[rng.random_range(0..transits.len())];
        let b = transits[rng.random_range(0..transits.len())];
        let Some(link) = Link::new(a, b) else {
            continue;
        };
        if next.links.contains_key(&link) {
            continue;
        }
        next.links.insert(link, GtRel::simple(Rel::P2p));
        report.new_peerings += 1;
    }

    // ---- partial-transit contract flips -----------------------------------------------
    let t1_p2c: Vec<(Link, GtRel)> = topology
        .links
        .iter()
        .filter(|(l, r)| {
            r.base
                .provider()
                .map(|p| topology.tier1.contains(&p) && l.contains(p))
                .unwrap_or(false)
        })
        .map(|(l, r)| (*l, r.clone()))
        .collect();
    for (link, gt) in t1_p2c {
        if !rng.random_bool(cfg.partial_flip_prob) {
            continue;
        }
        let mut flipped = gt.clone();
        flipped.partial_transit = !gt.partial_transit;
        next.links.insert(link, flipped);
        report.partial_flips += 1;
    }

    (next, report)
}

/// Evolves a topology through `steps` snapshots (seed varied per step).
/// Returns the sequence `[t0, t1, …, t_steps]` and per-step reports.
#[must_use]
pub fn evolve_steps(
    topology: &Topology,
    cfg: &ChurnConfig,
    steps: usize,
) -> (Vec<Topology>, Vec<ChurnReport>) {
    let mut snapshots = vec![topology.clone()];
    let mut reports = Vec::with_capacity(steps);
    for step in 0..steps {
        let step_cfg = ChurnConfig {
            seed: cfg.seed.wrapping_add(step as u64 + 1),
            ..*cfg
        };
        let (next, report) = evolve(snapshots.last().expect("non-empty"), &step_cfg);
        snapshots.push(next);
        reports.push(report);
    }
    (snapshots, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopologyConfig;

    fn base() -> Topology {
        crate::generate(&TopologyConfig::small(5))
    }

    #[test]
    fn evolve_changes_something_and_is_deterministic() {
        let t0 = base();
        let cfg = ChurnConfig::default();
        let (t1a, ra) = evolve(&t0, &cfg);
        let (t1b, rb) = evolve(&t0, &cfg);
        assert_eq!(ra, rb);
        assert_eq!(
            t1a.links.keys().collect::<Vec<_>>(),
            t1b.links.keys().collect::<Vec<_>>()
        );
        assert!(ra.total() > 0, "default churn must change links");
    }

    #[test]
    fn hierarchy_stays_acyclic_after_churn() {
        let t0 = base();
        let (snapshots, _) = evolve_steps(&t0, &ChurnConfig::default(), 5);
        for (i, t) in snapshots.iter().enumerate() {
            assert!(
                t.links.iter().all(|(link, gt)| gt.base.is_valid_for(*link)),
                "snapshot {i}: a provider is not on its link after churn"
            );
            assert!(
                crate::provider_cycle_free(&t.ground_truth_graph()),
                "cycle after churn step {i}"
            );
        }
    }

    #[test]
    fn tier1_mesh_survives() {
        let t0 = base();
        let aggressive = ChurnConfig {
            depeering_prob: 0.5,
            ..ChurnConfig::default()
        };
        let (t1, _) = evolve(&t0, &aggressive);
        let t1s: Vec<Asn> = t0.tier1.iter().copied().collect();
        for i in 0..t1s.len() {
            for j in (i + 1)..t1s.len() {
                let link = Link::new(t1s[i], t1s[j]).unwrap();
                assert!(t1.links.contains_key(&link), "T1 mesh link {link} dropped");
            }
        }
    }

    #[test]
    fn partial_flips_change_contracts() {
        let t0 = base();
        let cfg = ChurnConfig {
            partial_flip_prob: 0.5,
            ..ChurnConfig::default()
        };
        let (t1, report) = evolve(&t0, &cfg);
        assert!(report.partial_flips > 0);
        let changed = t0
            .links
            .iter()
            .filter(|(l, r)| {
                t1.links
                    .get(l)
                    .map(|r2| r2.partial_transit != r.partial_transit)
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(changed, report.partial_flips);
    }

    #[test]
    fn multi_step_accumulates_change() {
        let t0 = base();
        let (snapshots, reports) = evolve_steps(&t0, &ChurnConfig::default(), 3);
        assert_eq!(snapshots.len(), 4);
        assert_eq!(reports.len(), 3);
        // Later snapshots differ from the base more than earlier ones.
        let diff = |t: &Topology| t.links.keys().filter(|l| !t0.links.contains_key(l)).count();
        assert!(diff(&snapshots[3]) >= diff(&snapshots[1]));
    }
}
