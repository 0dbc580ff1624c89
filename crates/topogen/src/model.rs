//! The generated topology model.

use asgraph::{AsGraph, Asn, GtRel, Link};
use asregistry::{
    delegation::{DelegationFile, DelegationRecord, DelegationStatus},
    org::{As2Org, OrgId},
    RirRegion,
};
use bgpwire::Ipv4Prefix;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Coarse position in the routing hierarchy (ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TierClass {
    /// Provider-free clique member.
    Tier1,
    /// Sells transit but is not in the clique.
    Transit,
    /// No customers.
    Stub,
    /// Large content network (no customers, huge peering surface).
    Hypergiant,
}

/// Special business models for stubs that peer with Tier-1s — the §6 `S-T1`
/// P2P class ("research ASes, anycast-based DNS providers, content delivery
/// networks, and cloud providers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpecialRole {
    /// Anycast DNS operator.
    AnycastDns,
    /// Research / academic network.
    Research,
    /// Cloud provider.
    Cloud,
    /// Content delivery network.
    Cdn,
}

/// Per-AS ground-truth metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Current service region (after transfers).
    pub region: RirRegion,
    /// Region of the original IANA block allocation (differs from `region`
    /// iff the ASN was transferred between RIRs).
    pub allocated_region: RirRegion,
    /// ISO-3166 country code.
    pub country: String,
    /// Owning organisation.
    pub org: OrgId,
    /// Hierarchy class.
    pub tier: TierClass,
    /// Special business model, if any.
    pub special: Option<SpecialRole>,
    /// Prefixes originated by this AS.
    pub prefixes: Vec<Ipv4Prefix>,
    /// Per-prefix traffic engineering: `Some(k)` pins `prefixes[i]` to the
    /// AS's `k mod n_providers`-th provider (announced only there); `None`
    /// announces everywhere. Parallel to `prefixes`.
    pub prefix_te: Vec<Option<u8>>,
    /// `true` if the AS documents its BGP communities publicly (IRR/website) —
    /// the precondition for appearing in community-based validation data.
    pub publishes_communities: bool,
    /// `true` if the AS habitually prepends its path on provider exports.
    pub prepends: bool,
    /// `true` if the AS participates in MANRS (routing-hygiene signal, the
    /// paper's Appendix C feature 12).
    pub manrs: bool,
    /// `true` if the AS exhibits serial-hijacker behaviour (Testart et al.
    /// 2019; the other half of Appendix C feature 12).
    pub hijacker: bool,
}

/// An IXP-style peering mesh (the PeeringDB substitute for Appendix C
/// feature 10: common IXPs of a link's endpoints).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ixp {
    /// Service region the IXP operates in.
    pub region: RirRegion,
    /// Member ASes.
    pub members: BTreeSet<Asn>,
}

/// A route-collector peering session (vantage point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectorPeer {
    /// The vantage-point AS.
    pub asn: Asn,
    /// `true`: exports its full best-route table; `false`: customer routes
    /// only (partial feed).
    pub full_feed: bool,
    /// `true` if the collector session is 16-bit-only (produces `AS_TRANS`
    /// substitutions for 4-byte ASNs on the wire).
    pub two_byte_only: bool,
}

/// The complete generated world: ground-truth graph + metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// Per-AS metadata.
    pub ases: BTreeMap<Asn, AsInfo>,
    /// Ground-truth links with (possibly complex) relationships.
    pub links: BTreeMap<Link, GtRel>,
    /// The Tier-1 clique.
    pub tier1: BTreeSet<Asn>,
    /// The hypergiant set.
    pub hypergiants: BTreeSet<Asn>,
    /// The Cogent-like Tier-1 running a partial-transit program.
    pub cogent: Asn,
    /// Route-collector vantage points.
    pub collector_peers: Vec<CollectorPeer>,
    /// The IXP meshes generated per region (PeeringDB substitute).
    pub ixps: Vec<Ixp>,
}

impl Topology {
    /// Per-AS info lookup.
    #[must_use]
    pub fn info(&self, asn: Asn) -> Option<&AsInfo> {
        self.ases.get(&asn)
    }

    /// The service region of `asn` (ground truth).
    #[must_use]
    pub fn region_of(&self, asn: Asn) -> Option<RirRegion> {
        self.ases.get(&asn).map(|i| i.region)
    }

    /// Number of ASes.
    #[must_use]
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// Number of ground-truth links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The ground-truth relationship of `link`.
    #[must_use]
    pub fn gt_rel(&self, link: Link) -> Option<&GtRel> {
        self.links.get(&link)
    }

    /// Builds the plain [`AsGraph`] over the *base* relationships (hybrid
    /// minority labels and partial-transit flags dropped).
    pub fn ground_truth_graph(&self) -> Result<AsGraph, asgraph::GraphError> {
        AsGraph::from_rels(self.links.iter().map(|(l, r)| (*l, r.base)))
    }

    /// All links whose ground truth is complex (partial transit or hybrid).
    #[must_use]
    pub fn complex_links(&self) -> Vec<Link> {
        self.links
            .iter()
            .filter(|(_, r)| r.is_complex())
            .map(|(l, _)| *l)
            .collect()
    }

    /// Emits the synthetic IANA initial-assignment table covering this
    /// topology's ASN pools.
    #[must_use]
    pub fn iana_table(&self) -> asregistry::IanaAsnTable {
        crate::alloc::iana_table()
    }

    /// Emits one extended delegation file per RIR, reflecting each AS's
    /// *current* (post-transfer) service region — parsing these through
    /// `asregistry` reproduces the paper's two-step region mapping.
    #[must_use]
    pub fn delegation_files(&self, date: &str) -> Vec<DelegationFile> {
        let mut files: BTreeMap<RirRegion, DelegationFile> = RirRegion::ALL
            .into_iter()
            .map(|r| (r, DelegationFile::new(r, date)))
            .collect();
        for info in self.ases.values() {
            let file = files.get_mut(&info.region).expect("all regions present");
            file.records.push(DelegationRecord {
                cc: info.country.clone(),
                start: info.asn,
                count: 1,
                date: date.to_owned(),
                status: DelegationStatus::Allocated,
                opaque_id: info.org.0.clone(),
            });
        }
        files.into_values().collect()
    }

    /// Emits the AS2Org dataset.
    #[must_use]
    pub fn as2org(&self) -> As2Org {
        let mut m = As2Org::new();
        let mut seen: BTreeSet<&OrgId> = BTreeSet::new();
        for info in self.ases.values() {
            if seen.insert(&info.org) {
                m.add_org(
                    info.org.clone(),
                    format!("org-{}", info.org.0.trim_start_matches('@')),
                    info.country.clone(),
                );
            }
            m.assign(info.asn, info.org.clone());
        }
        m
    }

    /// ASes of a given tier, sorted.
    #[must_use]
    pub fn ases_of_tier(&self, tier: TierClass) -> Vec<Asn> {
        self.ases
            .values()
            .filter(|i| i.tier == tier)
            .map(|i| i.asn)
            .collect()
    }

    /// ASNs that were transferred between regions (allocated ≠ current).
    #[must_use]
    pub fn transferred_asns(&self) -> Vec<Asn> {
        self.ases
            .values()
            .filter(|i| i.region != i.allocated_region)
            .map(|i| i.asn)
            .collect()
    }

    /// FNV-1a 64 digest over the full topology (every AS record, link,
    /// vantage point, and IXP, via the deterministic `Debug` rendering,
    /// streamed — no intermediate string). Used by the generator's
    /// byte-identity regression tests and the benchmark to pin the
    /// streaming builder to the historical output at existing seeds and
    /// sizes.
    #[must_use]
    pub fn digest(&self) -> u64 {
        crate::model::debug_digest(self)
    }
}

/// Streams `value`'s `Debug` rendering through an FNV-1a 64 hasher — a
/// byte-identity fingerprint with no intermediate buffer. Downstream crates
/// (bgpsim, bench) reuse it to pin their own outputs in regression tests.
#[must_use]
pub fn debug_digest<T: std::fmt::Debug>(value: &T) -> u64 {
    struct FnvWriter(u64);
    impl std::fmt::Write for FnvWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Ok(())
        }
    }
    let mut w = FnvWriter(0xCBF2_9CE4_8422_2325);
    use std::fmt::Write as _;
    write!(w, "{value:?}").expect("FnvWriter never fails");
    w.0
}
