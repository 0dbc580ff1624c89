//! §5 — link classes.
//!
//! **Regional** classes come from the two-step ASN→region mapping (IANA
//! bootstrap + delegation-file refinement, provided by `asregistry`): links
//! within one region are `<R>°` (e.g. `L°`), links across regions are
//! `<R1>-<R2>` with the lexicographically smaller abbreviation first.
//!
//! **Topological** classes start from Stub/Transit (customer cone over the
//! *inferred* graph, as the paper uses CAIDA's cone data) and are refined by
//! the Tier-1 and hypergiant lists. Class labels follow the paper's
//! convention (`S-TR`, `TR°`, `T1-TR`, `H-S`, …).

use asgraph::{AsIndexer, Asn, ConeSizes, Link};
use asregistry::{RegionMap, RirRegion};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A regional link class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RegionClass {
    /// Both ASes in the same region.
    Intra(RirRegion),
    /// ASes in two different regions (stored in abbreviation order).
    Inter(RirRegion, RirRegion),
}

impl RegionClass {
    /// Builds the class for two regions, normalising the order.
    #[must_use]
    pub fn of(a: RirRegion, b: RirRegion) -> Self {
        if a == b {
            RegionClass::Intra(a)
        } else if a.abbrev() < b.abbrev() {
            RegionClass::Inter(a, b)
        } else {
            RegionClass::Inter(b, a)
        }
    }

    /// The paper's label: `R°`, `AR-L`, ….
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            RegionClass::Intra(r) => format!("{}°", r.abbrev()),
            RegionClass::Inter(a, b) => format!("{}-{}", a.abbrev(), b.abbrev()),
        }
    }
}

/// A node's topological class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TopoClass {
    /// Hypergiant (from the Böttger et al.-style list).
    H,
    /// Stub (empty inferred customer cone).
    S,
    /// Tier-1 (from the Wikipedia-style list).
    T1,
    /// Transit (non-empty inferred customer cone).
    TR,
}

impl TopoClass {
    /// Short label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TopoClass::H => "H",
            TopoClass::S => "S",
            TopoClass::T1 => "T1",
            TopoClass::TR => "TR",
        }
    }
}

/// The Stub/Transit/T1/hypergiant partition materialised once as a flat
/// per-id class array, so per-link classification is two binary searches
/// plus two array reads — no set probes, no hash lookups.
#[derive(Debug, Clone, Default)]
pub struct TopoIndex {
    indexer: AsIndexer,
    classes: Vec<TopoClass>,
}

impl TopoIndex {
    /// Builds the partition over every AS mentioned by the cone sizes or the
    /// refinement lists, with the paper's precedence T1 > H > TR > S.
    #[must_use]
    pub fn build(
        cone_sizes: &ConeSizes,
        tier1: &BTreeSet<Asn>,
        hypergiants: &BTreeSet<Asn>,
    ) -> Self {
        let mut asns: Vec<Asn> = cone_sizes.indexer().iter().collect();
        asns.extend(tier1.iter().copied());
        asns.extend(hypergiants.iter().copied());
        let indexer = AsIndexer::from_unsorted(asns);
        let classes = indexer
            .iter()
            .map(|asn| {
                if tier1.contains(&asn) {
                    TopoClass::T1
                } else if hypergiants.contains(&asn) {
                    TopoClass::H
                } else if cone_sizes.get(asn).unwrap_or(1) > 1 {
                    TopoClass::TR
                } else {
                    TopoClass::S
                }
            })
            .collect();
        TopoIndex { indexer, classes }
    }

    /// The class of `asn`, or `None` for ASes outside the partition
    /// (callers default those to [`TopoClass::S`]).
    #[must_use]
    pub fn class(&self, asn: Asn) -> Option<TopoClass> {
        self.indexer.id(asn).map(|id| self.classes[id as usize])
    }

    /// The indexer the class array is aligned to.
    #[must_use]
    pub fn indexer(&self) -> &AsIndexer {
        &self.indexer
    }
}

/// Assigns regional and topological classes to links.
#[derive(Debug, Clone)]
pub struct LinkClassifier {
    region_map: RegionMap,
    topo: TopoIndex,
    cone_sizes: Arc<ConeSizes>,
}

impl LinkClassifier {
    /// Builds a classifier around already-computed customer-cone sizes,
    /// shared with the caller instead of re-derived per classifier.
    ///
    /// * `region_map` — the §5 ASN→region mapping,
    /// * `cone_sizes` — customer-cone sizes over the graph of *inferred*
    ///   relationships (mirrors using CAIDA's cone dataset),
    /// * `tier1` / `hypergiants` — the external refinement lists.
    #[must_use]
    pub fn with_cone_sizes(
        region_map: RegionMap,
        cone_sizes: Arc<ConeSizes>,
        tier1: BTreeSet<Asn>,
        hypergiants: BTreeSet<Asn>,
    ) -> Self {
        let topo = TopoIndex::build(&cone_sizes, &tier1, &hypergiants);
        LinkClassifier {
            region_map,
            topo,
            cone_sizes,
        }
    }

    /// Shared handle to the customer-cone sizes backing the Stub/Transit
    /// split.
    #[must_use]
    pub fn cone_sizes_arc(&self) -> Arc<ConeSizes> {
        Arc::clone(&self.cone_sizes)
    }

    /// The dense topological partition the classifier works over.
    #[must_use]
    pub fn topo_index(&self) -> &TopoIndex {
        &self.topo
    }

    /// The service region of an AS.
    #[must_use]
    pub fn region(&self, asn: Asn) -> Option<RirRegion> {
        self.region_map.region(asn)
    }

    /// The regional class of a link; `None` when either endpoint is reserved
    /// or unmapped (such links are discarded in §5).
    #[must_use]
    pub fn region_class(&self, link: Link) -> Option<RegionClass> {
        let a = self.region(link.a())?;
        let b = self.region(link.b())?;
        Some(RegionClass::of(a, b))
    }

    /// The topological class of an AS (ASes outside the partition are stubs).
    #[must_use]
    pub fn node_class(&self, asn: Asn) -> TopoClass {
        self.topo.class(asn).unwrap_or(TopoClass::S)
    }

    /// A dense code for the (unordered) topological class pair of a link:
    /// `min * 4 + max` with classes ordered H, S, T1, TR. Codes are what the
    /// keyed coverage kernel aggregates on; [`LinkClassifier::topo_pair_label`]
    /// maps them back to the paper's labels at the serialization boundary.
    #[must_use]
    pub fn topo_pair_id(&self, link: Link) -> u8 {
        let (a, b) = (self.node_class(link.a()), self.node_class(link.b()));
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        (x as u8) * 4 + (y as u8)
    }

    /// The label behind a [`LinkClassifier::topo_pair_id`] code (`S-TR`,
    /// `TR°`, `H-T1`, …), in the paper's H, S, T1, TR pair order.
    ///
    /// # Panics
    /// If `code` is not a valid pair code.
    #[must_use]
    pub fn topo_pair_label(code: u8) -> &'static str {
        match code {
            0 => "H°",
            1 => "H-S",
            2 => "H-T1",
            3 => "H-TR",
            5 => "S°",
            6 => "S-T1",
            7 => "S-TR",
            10 => "T1°",
            11 => "T1-TR",
            15 => "TR°",
            // breval-lint: allow(L009) -- codes come from topo_pair_id, whose min * 4 + max over four classes yields only the ten codes above
            _ => unreachable!("invalid topo pair code {code}"),
        }
    }

    /// The topological class label of a link (`S-TR`, `TR°`, `H-T1`, …).
    /// Pairs are ordered H, S, T1, TR (the paper's convention).
    #[must_use]
    pub fn topo_class(&self, link: Link) -> String {
        Self::topo_pair_label(self.topo_pair_id(link)).to_string()
    }

    /// `true` if both endpoints classify as transit (the `TR°` links the
    /// heatmaps drill into).
    #[must_use]
    pub fn is_tr_tr(&self, link: Link) -> bool {
        self.node_class(link.a()) == TopoClass::TR && self.node_class(link.b()) == TopoClass::TR
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::{cone, CsrGraph, Rel};
    use asregistry::iana::BlockAuthority;
    use asregistry::IanaAsnTable;
    use std::collections::BTreeMap;

    fn region_map() -> RegionMap {
        let mut iana = IanaAsnTable::new();
        iana.push_block(1, 1000, BlockAuthority::Rir(RirRegion::Arin))
            .expect("non-overlapping block");
        iana.push_block(1001, 2000, BlockAuthority::Rir(RirRegion::Lacnic))
            .expect("non-overlapping block");
        iana.push_block(2001, 3000, BlockAuthority::Rir(RirRegion::RipeNcc))
            .expect("non-overlapping block");
        RegionMap::from_iana(iana)
    }

    fn classifier() -> LinkClassifier {
        let l = |a: u32, b: u32| Link::new(Asn(a), Asn(b)).expect("distinct endpoints");
        // 1 (T1) provides to 10 (TR) provides to 100 (S); 500 is H.
        let rels = BTreeMap::from([
            (l(1, 10), Rel::P2c { provider: Asn(1) }),
            (l(10, 100), Rel::P2c { provider: Asn(10) }),
            (l(10, 500), Rel::P2p),
        ]);
        LinkClassifier::with_cone_sizes(
            region_map(),
            Arc::new(cone::customer_cone_sizes_csr(&CsrGraph::build(&rels))),
            [Asn(1)].into_iter().collect(),
            [Asn(500)].into_iter().collect(),
        )
    }

    #[test]
    fn region_labels_match_paper_convention() {
        assert_eq!(
            RegionClass::of(RirRegion::RipeNcc, RirRegion::RipeNcc).label(),
            "R°"
        );
        assert_eq!(
            RegionClass::of(RirRegion::RipeNcc, RirRegion::Arin).label(),
            "AR-R"
        );
        assert_eq!(
            RegionClass::of(RirRegion::Lacnic, RirRegion::Arin).label(),
            "AR-L"
        );
        assert_eq!(
            RegionClass::of(RirRegion::Apnic, RirRegion::Afrinic).label(),
            "AF-AP"
        );
        // Symmetric.
        assert_eq!(
            RegionClass::of(RirRegion::Arin, RirRegion::Lacnic),
            RegionClass::of(RirRegion::Lacnic, RirRegion::Arin)
        );
    }

    #[test]
    fn link_region_classes() {
        let c = classifier();
        assert_eq!(
            c.region_class(Link::new(Asn(5), Asn(900)).expect("distinct endpoints"))
                .expect("both endpoints have regions")
                .label(),
            "AR°"
        );
        assert_eq!(
            c.region_class(Link::new(Asn(5), Asn(1500)).expect("distinct endpoints"))
                .expect("both endpoints have regions")
                .label(),
            "AR-L"
        );
        // Unmapped / reserved endpoints yield None.
        assert!(c
            .region_class(Link::new(Asn(5), Asn(9999)).expect("distinct endpoints"))
            .is_none());
        assert!(c
            .region_class(Link::new(Asn(5), Asn(64512)).expect("distinct endpoints"))
            .is_none());
    }

    #[test]
    fn node_classes_follow_lists_and_cones() {
        let c = classifier();
        assert_eq!(c.node_class(Asn(1)), TopoClass::T1);
        assert_eq!(c.node_class(Asn(10)), TopoClass::TR);
        assert_eq!(c.node_class(Asn(100)), TopoClass::S);
        assert_eq!(c.node_class(Asn(500)), TopoClass::H);
        // Unknown AS defaults to stub.
        assert_eq!(c.node_class(Asn(777)), TopoClass::S);
    }

    #[test]
    fn topo_labels_match_paper_convention() {
        let c = classifier();
        assert_eq!(
            c.topo_class(Link::new(Asn(10), Asn(100)).expect("distinct endpoints")),
            "S-TR"
        );
        assert_eq!(
            c.topo_class(Link::new(Asn(1), Asn(10)).expect("distinct endpoints")),
            "T1-TR"
        );
        assert_eq!(
            c.topo_class(Link::new(Asn(1), Asn(100)).expect("distinct endpoints")),
            "S-T1"
        );
        assert_eq!(
            c.topo_class(Link::new(Asn(500), Asn(10)).expect("distinct endpoints")),
            "H-TR"
        );
        assert_eq!(
            c.topo_class(Link::new(Asn(500), Asn(100)).expect("distinct endpoints")),
            "H-S"
        );
        assert_eq!(
            c.topo_class(Link::new(Asn(500), Asn(1)).expect("distinct endpoints")),
            "H-T1"
        );
        assert_eq!(
            c.topo_class(Link::new(Asn(100), Asn(101)).expect("distinct endpoints")),
            "S°"
        );
        assert!(!c.is_tr_tr(Link::new(Asn(10), Asn(11)).expect("distinct endpoints")));
    }
}
