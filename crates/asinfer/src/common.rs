//! Shared classifier interface, output type, prepared-input plumbing, and
//! the provider-cycle repair pass every P2C-producing classifier runs.

use crate::asrank::AsRank;
use asgraph::{AsIndexer, Asn, Link, PathSet, PathStats, Rel, RelClass};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// The output of a relationship-inference run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Inference {
    /// Which classifier produced this (for reporting).
    pub classifier: String,
    /// Per-link inferred relationship.
    pub rels: BTreeMap<Link, Rel>,
    /// The inferred provider-free clique (empty for algorithms without a
    /// clique stage).
    pub clique: BTreeSet<Asn>,
}

impl Inference {
    /// The inferred relationship of `link`.
    #[must_use]
    pub fn rel(&self, link: Link) -> Option<Rel> {
        self.rels.get(&link).copied()
    }

    /// Number of classified links.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// `true` if nothing was classified.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Counts per relationship class.
    #[must_use]
    pub fn class_counts(&self) -> BTreeMap<RelClass, usize> {
        let mut out = BTreeMap::new();
        for rel in self.rels.values() {
            *out.entry(rel.class()).or_insert(0) += 1;
        }
        out
    }

    /// Fraction of links inferred P2C.
    #[must_use]
    pub fn p2c_share(&self) -> f64 {
        if self.rels.is_empty() {
            return 0.0;
        }
        let p2c = self
            .rels
            .values()
            .filter(|r| r.class() == RelClass::P2c)
            .count();
        p2c as f64 / self.rels.len() as f64
    }
}

/// Pre-digested classifier input: sanitized paths with their one-pass
/// statistics, plus (optionally) a full-view ASRank inference that
/// bootstrap classifiers (ProbLink, TopoScope, UNARI) reuse instead of each
/// recomputing it. Sharing one preparation across the classifier ensemble
/// removes the pipeline's dominant redundant work without changing any
/// classifier's output, as long as `asrank` is ASRank's inference over
/// `paths`.
#[derive(Clone, Copy)]
pub struct PreparedPaths<'a> {
    /// Sanitized observed paths (no loops, no reserved ASNs).
    pub paths: &'a PathSet,
    /// Statistics of `paths` (degrees, links, VP visibility).
    pub stats: &'a PathStats,
    /// A full-view ASRank inference over `paths`, when already available.
    pub asrank: Option<&'a Inference>,
}

impl<'a> PreparedPaths<'a> {
    /// Wraps already-sanitized paths and their stats, with no ASRank seed.
    #[must_use]
    pub fn new(paths: &'a PathSet, stats: &'a PathStats) -> Self {
        PreparedPaths {
            paths,
            stats,
            asrank: None,
        }
    }

    /// Attaches a shared full-view ASRank inference.
    #[must_use]
    pub fn with_asrank(self, asrank: &'a Inference) -> Self {
        PreparedPaths {
            asrank: Some(asrank),
            ..self
        }
    }

    /// The statistics, for classifiers that read `paths` through their
    /// dense ids.
    ///
    /// # Panics
    /// If `stats` cannot be the statistics of `paths` (see
    /// [`PathStats::describes`]): their ids would not cover the hops.
    #[must_use]
    pub(crate) fn dense_stats(self) -> &'a PathStats {
        assert!(
            self.stats.describes(self.paths),
            "PreparedPaths: `stats` must be the statistics of `paths` (`paths.stats()`)"
        );
        self.stats
    }

    /// The shared ASRank inference, or a fresh one over these paths when
    /// none is attached.
    #[must_use]
    pub fn asrank_seed(self) -> Cow<'a, Inference> {
        match self.asrank {
            Some(seed) => Cow::Borrowed(seed),
            None => Cow::Owned(AsRank::new().infer_prepared(self)),
        }
    }
}

/// A relationship classifier: observed paths in, labelled links out.
pub trait Classifier {
    /// Human-readable name (used in report tables).
    fn name(&self) -> &'static str;

    /// Runs the inference over sanitized paths with their statistics (and
    /// possibly a shared ASRank seed).
    fn infer_prepared(&self, prep: PreparedPaths<'_>) -> Inference;

    /// Runs the inference over raw paths: sanitizes them, derives their
    /// statistics and calls [`Classifier::infer_prepared`], so the two entry
    /// points agree by construction.
    fn infer(&self, paths: &PathSet) -> Inference {
        let clean = paths.sanitized();
        let stats = clean.stats();
        self.infer_prepared(PreparedPaths::new(&clean, &stats))
    }

    /// [`Classifier::infer_prepared`] inside an observability span
    /// `infer_<name>`, recording the number of relationship labels assigned
    /// (globally and per name). Classifiers that bootstrap from another
    /// classifier call it unobserved, so only the outermost run is timed
    /// and counted.
    fn infer_prepared_observed(&self, prep: PreparedPaths<'_>) -> Inference {
        if !breval_obs::enabled() {
            return self.infer_prepared(prep);
        }
        let name = self.name();
        // breval-lint: allow(L003) -- per-classifier span name; each infer_<name> is enumerated in the obs label registry
        let _guard = breval_obs::span(&format!("infer_{name}"));
        let inference = self.infer_prepared(prep);
        breval_obs::counter("rels_assigned", inference.rels.len() as u64);
        // breval-lint: allow(L003) -- per-classifier counter; covered by the rels_assigned.* registry wildcard
        breval_obs::counter(
            &format!("rels_assigned.{name}"),
            inference.rels.len() as u64,
        );
        inference
    }
}

/// Which end of the link between the AS ids `provider` and `customer`
/// provides: 0 when it is the lower id (the lower ASN), 1 otherwise. ASRank
/// and Gao count votes per link in `[0, 1]` pairs indexed by it.
pub(crate) fn side(provider: u32, customer: u32) -> usize {
    usize::from(provider > customer)
}

/// Outcome of one [`break_provider_cycles`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakReport {
    /// Edges whose orientation was flipped to rank order.
    pub flipped: usize,
    /// Edges removed outright (caller defaults the link to P2P).
    pub dropped: usize,
}

impl CycleBreakReport {
    /// `true` when the input was already acyclic.
    #[must_use]
    pub fn untouched(&self) -> bool {
        self.flipped == 0 && self.dropped == 0
    }
}

/// Breaks every provider cycle in a directed `(provider, customer)` edge
/// set, in place.
///
/// Provider cycles are impossible under the rank-ordered top-down
/// inference of Luckie et al. — an AS cannot transitively provide to
/// itself — yet vote-based conflict resolution (ASRank) and ensemble
/// reconciliation (TopoScope) can assemble per-link decisions into one.
/// This pass restores the invariant the way the original's top-down
/// iteration implies: while a cycle exists, take the cycle edge with the
/// **smallest transit-degree gap** (the weakest directional assertion) and
/// break it **using rank order** — if the rank order (higher
/// `transit_degree` provides) disagrees with the edge's orientation, the
/// edge is flipped; otherwise the edge is contradictory evidence inside a
/// cycle and is dropped (the caller's default turns the link into P2P).
/// Each edge is flipped at most once, so the pass terminates; acyclic
/// inputs are returned untouched. Deterministic: cycles are located by
/// smallest-ASN walk and ties between candidate edges break on the edge
/// tuple.
///
/// The search runs over dense ids: the edges' ASes are interned once, and
/// each cycle is found by a Kahn pass and a walk over flat arrays that are
/// reused from one break to the next.
pub fn break_provider_cycles<F>(
    edges: &mut BTreeSet<(Asn, Asn)>,
    transit_degree: F,
) -> CycleBreakReport
where
    F: Fn(Asn) -> usize,
{
    let mut report = CycleBreakReport::default();
    let ases = AsIndexer::from_unsorted(edges.iter().flat_map(|&(p, c)| [p, c]).collect());
    let id = |asn: Asn| ases.id(asn).expect("every edge endpoint is interned");
    let mut dag = ProviderDag::new(
        ases.len(),
        edges.iter().map(|&(p, c)| (id(p), id(c))).collect(),
    );
    let mut flipped_once: BTreeSet<Link> = BTreeSet::new();
    while let Some(cycle) = dag.find_cycle() {
        // The weakest assertion on the cycle: smallest transit-degree gap.
        // Equal gaps prefer the rank-inverted orientation (so a two-node
        // cycle keeps the rank-ordered edge), then break ties by tuple.
        let Some((provider, customer)) = cycle
            .iter()
            .map(|&(p, c)| (ases.asn(p), ases.asn(c)))
            .min_by_key(|&(p, c)| {
                (
                    transit_degree(p).abs_diff(transit_degree(c)),
                    usize::from(transit_degree(p) >= transit_degree(c)),
                    p.0,
                    c.0,
                )
            })
        else {
            break; // unreachable: a cycle has at least one edge
        };
        let rank_inverted = transit_degree(customer) > transit_degree(provider);
        let link = Link::new(provider, customer);
        edges.remove(&(provider, customer));
        dag.remove_edge((id(provider), id(customer)));
        if rank_inverted
            && link.map(|l| flipped_once.insert(l)).unwrap_or(false)
            && !edges.contains(&(customer, provider))
        {
            edges.insert((customer, provider));
            dag.insert_edge((id(customer), id(provider)));
            report.flipped += 1;
        } else {
            report.dropped += 1;
        }
    }
    breval_obs::counter("p2c_cycle_edges_flipped", report.flipped as u64);
    breval_obs::counter("p2c_cycle_edges_dropped", report.dropped as u64);
    report
}

/// Marks an id with no entry in [`ProviderDag`]'s per-node arrays.
const NONE: u32 = u32::MAX;

/// A provider→customer edge set over dense ids, with the scratch arrays of
/// its cycle search. The edges stay sorted, so a provider's customers are
/// one contiguous run and the first in-residue provider met per customer
/// is its smallest.
struct ProviderDag {
    /// `(provider, customer)` id pairs, ascending.
    edges: Vec<(u32, u32)>,
    /// Per provider id, where its run of edges starts (`n + 1` entries).
    starts: Vec<u32>,
    indegree: Vec<u32>,
    /// The Kahn queue, then the walk of [`ProviderDag::find_cycle`].
    stack: Vec<u32>,
    /// Per id: `true` while the node is left on a cycle or behind one.
    residue: Vec<bool>,
    /// Per customer id: its smallest in-residue provider, or [`NONE`].
    provider_of: Vec<u32>,
    /// Per id: its position on the current walk, or [`NONE`].
    seen_at: Vec<u32>,
}

impl ProviderDag {
    fn new(n: usize, edges: Vec<(u32, u32)>) -> Self {
        ProviderDag {
            edges,
            starts: vec![0; n + 1],
            indegree: vec![0; n],
            stack: Vec::new(),
            residue: vec![false; n],
            provider_of: vec![NONE; n],
            seen_at: vec![NONE; n],
        }
    }

    fn remove_edge(&mut self, edge: (u32, u32)) {
        if let Ok(at) = self.edges.binary_search(&edge) {
            self.edges.remove(at);
        }
    }

    fn insert_edge(&mut self, edge: (u32, u32)) {
        if let Err(at) = self.edges.binary_search(&edge) {
            self.edges.insert(at, edge);
        }
    }

    /// Kahn's algorithm over the edges: marks the nodes left on cycles (or
    /// downstream of one) in `residue` and returns whether there are any.
    fn kahn_residue(&mut self) -> bool {
        self.starts.fill(0);
        self.indegree.fill(0);
        for &(p, c) in &self.edges {
            self.starts[p as usize + 1] += 1;
            self.indegree[c as usize] += 1;
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        self.stack.clear();
        self.stack
            .extend((0..self.indegree.len() as u32).filter(|&a| self.indegree[a as usize] == 0));
        while let Some(p) = self.stack.pop() {
            let run = self.starts[p as usize] as usize..self.starts[p as usize + 1] as usize;
            for &(_, c) in &self.edges[run] {
                self.indegree[c as usize] -= 1;
                if self.indegree[c as usize] == 0 {
                    self.stack.push(c);
                }
            }
        }
        for (left, &d) in self.residue.iter_mut().zip(&self.indegree) {
            *left = d > 0;
        }
        self.residue.contains(&true)
    }

    /// One provider cycle inside the Kahn residue, as `(provider,
    /// customer)` id pairs, or `None` for a DAG: from the smallest residue
    /// id, repeatedly step to the smallest in-residue provider until a node
    /// repeats. Every residue node has such a provider by construction.
    ///
    /// Any start would give the same repair: each cycle the walk can return
    /// is a cycle of the smallest-provider steps, those cycles share no
    /// node, and breaking one leaves the others' edges and steps as they
    /// were, so the order in which they are broken does not matter.
    fn find_cycle(&mut self) -> Option<Vec<(u32, u32)>> {
        if !self.kahn_residue() {
            return None;
        }
        self.provider_of.fill(NONE);
        for &(p, c) in &self.edges {
            let in_residue = self.residue[p as usize] && self.residue[c as usize];
            if in_residue && self.provider_of[c as usize] == NONE {
                self.provider_of[c as usize] = p;
            }
        }
        let start = self.residue.iter().position(|&left| left)? as u32;
        self.stack.clear();
        self.stack.push(start);
        self.seen_at[start as usize] = 0;
        let mut cur = start;
        let cycle = loop {
            let prov = self.provider_of[cur as usize];
            if prov == NONE {
                break Vec::new(); // unreachable for a true residue
            }
            let k = self.seen_at[prov as usize];
            if k != NONE {
                // walk[k..] plus prov closes the cycle: prov provides
                // walk[k], and walk[i + 1] provides walk[i] along the suffix.
                let walk = &self.stack[k as usize..];
                let mut cycle: Vec<(u32, u32)> = walk.windows(2).map(|w| (w[1], w[0])).collect();
                cycle.push((prov, cur));
                break cycle;
            }
            self.seen_at[prov as usize] = self.stack.len() as u32;
            self.stack.push(prov);
            cur = prov;
        };
        for &a in &self.stack {
            self.seen_at[a as usize] = NONE;
        }
        Some(cycle)
    }
}

/// Applies [`break_provider_cycles`] to a full relationship map: P2C
/// entries are extracted, repaired, and written back — flipped edges swap
/// their provider, dropped edges become P2P. Non-P2C entries and the key
/// set are untouched.
pub fn break_provider_cycles_in_rels<F>(
    rels: &mut BTreeMap<Link, Rel>,
    transit_degree: F,
) -> CycleBreakReport
where
    F: Fn(Asn) -> usize,
{
    let mut p2c: BTreeSet<(Asn, Asn)> = BTreeSet::new();
    for (link, rel) in rels.iter() {
        if let Rel::P2c { provider } = rel {
            let (a, b) = link.endpoints();
            let customer = if *provider == a { b } else { a };
            p2c.insert((*provider, customer));
        }
    }
    let report = break_provider_cycles(&mut p2c, transit_degree);
    if report.untouched() {
        return report;
    }
    for (link, rel) in rels.iter_mut() {
        if let Rel::P2c { provider } = *rel {
            let (a, b) = link.endpoints();
            let customer = if provider == a { b } else { a };
            if p2c.contains(&(provider, customer)) {
                continue;
            }
            *rel = if p2c.contains(&(customer, provider)) {
                Rel::P2c { provider: customer }
            } else {
                Rel::P2p
            };
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(u32, u32)]) -> BTreeSet<(Asn, Asn)> {
        pairs.iter().map(|&(p, c)| (Asn(p), Asn(c))).collect()
    }

    #[test]
    fn cycle_break_leaves_acyclic_input_untouched() {
        // A small provider hierarchy: 1 → {2, 3}, 2 → 3, 3 → 4. A DAG.
        let mut p2c = edges(&[(1, 2), (1, 3), (2, 3), (3, 4)]);
        let before = p2c.clone();
        let report = break_provider_cycles(&mut p2c, |a| (100 - a.0) as usize);
        assert!(report.untouched(), "acyclic input must not be modified");
        assert_eq!(p2c, before);
    }

    #[test]
    fn cycle_break_flips_rank_inverted_weakest_edge() {
        // Cycle 1 → 2 → 3 → 1 with transit degrees 12/50/11. Gaps:
        // (1,2)=38, (2,3)=39, (3,1)=1, so (3,1) is the weakest assertion;
        // rank order (td(1)=12 > td(3)=11) says 1 should provide 3, so the
        // edge flips rather than drops.
        let mut p2c = edges(&[(1, 2), (2, 3), (3, 1)]);
        let td = |a: Asn| match a.0 {
            1 => 12usize,
            2 => 50,
            _ => 11,
        };
        let report = break_provider_cycles(&mut p2c, td);
        assert_eq!(
            report,
            CycleBreakReport {
                flipped: 1,
                dropped: 0
            }
        );
        assert_eq!(p2c, edges(&[(1, 2), (1, 3), (2, 3)]));
    }

    #[test]
    fn cycle_break_drops_weakest_edge_already_in_rank_order() {
        // Cycle 1 → 2 → 3 → 1 with transit degrees 50/10/5. Gaps:
        // (1,2)=40, (2,3)=5, (3,1)=45, so (2,3) is weakest; it already
        // agrees with rank order (td(2)=10 > td(3)=5), so flipping would
        // only worsen rank inversion — the edge drops instead.
        let mut p2c = edges(&[(1, 2), (2, 3), (3, 1)]);
        let td = |a: Asn| match a.0 {
            1 => 50usize,
            2 => 10,
            _ => 5,
        };
        let report = break_provider_cycles(&mut p2c, td);
        assert_eq!(
            report,
            CycleBreakReport {
                flipped: 0,
                dropped: 1
            }
        );
        assert_eq!(p2c, edges(&[(1, 2), (3, 1)]));
    }

    #[test]
    fn cycle_break_two_node_cycle_keeps_rank_order_orientation() {
        // Both orientations asserted between 1 and 2; td(1) > td(2) so
        // whatever survives must orient 1 → 2.
        let mut p2c = edges(&[(1, 2), (2, 1)]);
        let td = |a: Asn| if a.0 == 1 { 20usize } else { 3 };
        let report = break_provider_cycles(&mut p2c, td);
        assert!(!report.untouched());
        assert_eq!(p2c, edges(&[(1, 2)]));
    }

    #[test]
    fn cycle_break_terminates_on_dense_tangle() {
        // Complete bidirectional digraph over 5 ASes: heavily cyclic.
        let mut p2c = BTreeSet::new();
        for p in 1..=5u32 {
            for c in 1..=5u32 {
                if p != c {
                    p2c.insert((Asn(p), Asn(c)));
                }
            }
        }
        let td = |a: Asn| (6 - a.0) as usize;
        break_provider_cycles(&mut p2c, td);
        let mut check = p2c.clone();
        assert!(break_provider_cycles(&mut check, td).untouched());
    }

    #[test]
    fn cycle_break_in_rels_preserves_key_set() {
        let l12 = Link::new(Asn(1), Asn(2)).expect("distinct");
        let l23 = Link::new(Asn(2), Asn(3)).expect("distinct");
        let l13 = Link::new(Asn(1), Asn(3)).expect("distinct");
        let l45 = Link::new(Asn(4), Asn(5)).expect("distinct");
        let mut rels: BTreeMap<Link, Rel> = BTreeMap::new();
        // Cycle 1 → 2 → 3 → 1 plus an unrelated P2P link.
        rels.insert(l12, Rel::P2c { provider: Asn(1) });
        rels.insert(l23, Rel::P2c { provider: Asn(2) });
        rels.insert(l13, Rel::P2c { provider: Asn(3) });
        rels.insert(l45, Rel::P2p);
        let keys: Vec<Link> = rels.keys().copied().collect();
        let report = break_provider_cycles_in_rels(&mut rels, |a| (10 - a.0) as usize);
        assert!(!report.untouched());
        assert_eq!(rels.keys().copied().collect::<Vec<_>>(), keys);
        assert_eq!(rels[&l45], Rel::P2p, "untouched entries survive");
        // Result must be acyclic.
        let mut p2c: BTreeSet<(Asn, Asn)> = BTreeSet::new();
        for (link, rel) in rels.iter() {
            if let Rel::P2c { provider } = rel {
                let (a, b) = link.endpoints();
                let customer = if *provider == a { b } else { a };
                p2c.insert((*provider, customer));
            }
        }
        assert!(break_provider_cycles(&mut p2c, |a| (10 - a.0) as usize).untouched());
    }

    #[test]
    fn infer_sanitizes_then_runs_infer_prepared() {
        struct Echo;
        impl Classifier for Echo {
            fn name(&self) -> &'static str {
                "echo"
            }
            fn infer_prepared(&self, prep: PreparedPaths<'_>) -> Inference {
                let mut inf = Inference {
                    classifier: "echo".into(),
                    ..Default::default()
                };
                for link in prep.stats.links() {
                    inf.rels.insert(*link, Rel::P2p);
                }
                inf
            }
        }
        let mut paths = PathSet::new();
        paths.push_hops(Asn(1), [Asn(1), Asn(2), Asn(3)]);
        // A private-use hop: sanitizing drops this path and its links.
        paths.push_hops(Asn(1), [Asn(1), Asn(64_512), Asn(4)]);
        let clean = paths.sanitized();
        let stats = clean.stats();
        let via_prep = Echo.infer_prepared(PreparedPaths::new(&clean, &stats));
        let via_infer = Echo.infer(&paths);
        assert_eq!(via_infer, via_prep);
        assert_eq!(via_infer.rels.len(), 2);
        assert!(via_infer.rels.keys().all(|l| !l.involves_reserved()));
    }

    #[test]
    #[should_panic(expected = "`stats` must be the statistics of `paths`")]
    fn dense_classifiers_reject_statistics_of_other_paths() {
        let mut paths = PathSet::new();
        paths.push_hops(Asn(1), [Asn(1), Asn(2), Asn(3)]);
        let other = PathSet::new().stats();
        let _ = crate::GaoClassifier::new().infer_prepared(PreparedPaths::new(&paths, &other));
    }

    #[test]
    fn class_counts_and_share() {
        let l1 = Link::new(Asn(1), Asn(2)).unwrap();
        let l2 = Link::new(Asn(2), Asn(3)).unwrap();
        let l3 = Link::new(Asn(3), Asn(4)).unwrap();
        let mut inf = Inference {
            classifier: "test".into(),
            ..Default::default()
        };
        inf.rels.insert(l1, Rel::P2c { provider: Asn(1) });
        inf.rels.insert(l2, Rel::P2c { provider: Asn(2) });
        inf.rels.insert(l3, Rel::P2p);
        assert_eq!(inf.len(), 3);
        assert_eq!(inf.class_counts()[&RelClass::P2c], 2);
        assert!((inf.p2c_share() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(inf.rel(l3), Some(Rel::P2p));
        assert_eq!(inf.rel(Link::new(Asn(9), Asn(10)).unwrap()), None);
    }
}
