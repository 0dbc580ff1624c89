//! The community-based validation compiler (the Luckie et al. §5.3 method,
//! re-run by every recent evaluation — the paper's central object of study).
//!
//! For every collector-visible route, decode each community whose AS part
//! belongs to a *publishing* AS using that AS's documented scheme, locate the
//! tagging AS on the path, and label the link towards the neighbor it learned
//! the route from.
//!
//! The decoder reads the RIB's path store in place and works on the ids of
//! the topology's ground-truth graph: one table of per-AS bits says which
//! hops tag a decodable community, and the tagger's rows of the graph give
//! the ingress class the tag encodes. Only hop pairs whose first hop tags
//! decodably go further, to a label over the path's ASNs.

use crate::config::ValDataConfig;
use crate::set::{LabelSource, ValidationSet};
use asgraph::{Asn, CsrGraph, HopIds, Link, NeighborRoles, Rel};
use bgpsim::communities::{scheme_of, tags_communities, IngressRel};
use bgpsim::{RibSnapshot, RouteObservation};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use topogen::Topology;

/// Deterministic per-item coin flip (order-independent).
fn det_hash(seed: u64, a: u64, b: u64) -> u64 {
    // SplitMix64 over the packed inputs.
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Base observations per parallel work item in [`compile_communities`]. The
/// effective chunk is `breval_par::input_scaled_chunk(len, OBS_CHUNK)` — a
/// function of the observation count only (never the thread count), so the
/// chunk boundaries — and with them the merged label order — are identical
/// at any thread count while the chunk count stays bounded at scale.
const OBS_CHUNK: usize = 256;

/// Decode bit: the AS tags informational communities and publishes its
/// dictionary, so its tags decode.
const TAGS_DECODABLY: u8 = 1;
/// Decode bit: the AS's published dictionary is stale — its 'peer' value
/// decodes as customer (the operator updated the scheme, not the
/// documentation).
const STALE_DICTIONARY: u8 = 1 << 1;
/// Decode bit: the AS is an endpoint of a hybrid link, so its labels may
/// carry the minority PoP's relationship.
const ON_HYBRID_LINK: u8 = 1 << 2;

/// Shared read-only inputs of the per-observation decoding loop.
struct Decoder<'a> {
    topology: &'a Topology,
    cfg: &'a ValDataConfig,
    /// The decode bits of each AS, by its id in the ground-truth graph.
    bits: Vec<u8>,
    /// The vantage points whose collector sessions are 16-bit only, sorted.
    two_byte_vps: Vec<Asn>,
}

impl<'a> Decoder<'a> {
    fn new(
        topology: &'a Topology,
        graph: &CsrGraph,
        snapshot: &RibSnapshot,
        cfg: &'a ValDataConfig,
    ) -> Self {
        let indexer = graph.indexer();
        let mut bits = vec![0u8; graph.node_count()];
        let mut set = |asn: Asn, bit: u8| {
            if let Some(id) = indexer.id(asn) {
                bits[id as usize] |= bit;
            }
        };
        for info in topology.ases.values() {
            if !info.publishes_communities {
                continue;
            }
            if tags_communities(topology, info.asn) {
                set(info.asn, TAGS_DECODABLY);
            }
            if det_hash(cfg.seed ^ 0x5741, u64::from(info.asn.0), 0) % 10_000
                < (cfg.stale_dict_prob * 10_000.0) as u64
            {
                set(info.asn, STALE_DICTIONARY);
            }
        }
        for (link, _) in topology
            .links
            .iter()
            .filter(|(_, gt)| gt.hybrid_alt.is_some())
        {
            set(link.a(), ON_HYBRID_LINK);
            set(link.b(), ON_HYBRID_LINK);
        }
        let mut two_byte_vps: Vec<Asn> = snapshot
            .collector_peers
            .iter()
            .filter(|cp| cp.two_byte_only)
            .map(|cp| cp.asn)
            .collect();
        two_byte_vps.sort_unstable();
        Decoder {
            topology,
            cfg,
            bits,
            two_byte_vps,
        }
    }

    /// Decodes one observation's communities into `(link, rel)` labels, in
    /// path order, passing each to `emit`. `hops` is the observation's
    /// prepend-compressed path; prepending needs no restoring, since a
    /// repeated hop pairs only with itself, and that is no link.
    fn decode_observation(
        &self,
        ids: &mut GraphIds<'_>,
        obs: &RouteObservation,
        hops: &[Asn],
        mut emit: impl FnMut(Link, Rel),
    ) {
        let mut legacy = None;
        for pair in hops.windows(2) {
            let &[tagger, next] = pair else {
                continue;
            };
            // `tagger` learned the route from `next` and tags it with its
            // ingress class; the community's AS part is `tagger` itself
            // (classic communities carry only 2-byte ASNs, which fit).
            let Some(x) = ids.hops.get(tagger) else {
                continue; // outside the topology: tags nothing
            };
            let bits = self.bits[x as usize];
            if bits & TAGS_DECODABLY == 0 {
                continue;
            }
            let Some(role) = ids.hops.get(next).and_then(|n| ids.roles.role_of(x, n)) else {
                continue;
            };
            // The published dictionary is the tagger's scheme, so the tag
            // decodes to the class it encodes.
            let mut ingress = IngressRel::from_role(role);
            // The 3356:666 ambiguity (§3.2): value 666 doubles as the
            // informal blackhole convention. A conservative pipeline skips
            // it even when the dictionary defines it.
            if self.cfg.skip_666_as_blackhole && scheme_of(tagger).value(ingress) == 666 {
                continue;
            }
            if bits & STALE_DICTIONARY != 0 && ingress == IngressRel::Peer {
                ingress = IngressRel::Customer;
            }
            // The decoding pipeline sees the path as extracted from MRT
            // data: modern view normally, legacy view (AS_TRANS
            // substituted) for 16-bit collector sessions when the legacy
            // pipeline is active. The legacy view maps each hop where it is
            // read: a tagger is never AS_TRANS, so the hop after it in the
            // mapped, re-compressed path is the mapped hop after it in
            // `hops`.
            let legacy = *legacy.get_or_insert_with(|| {
                self.cfg.legacy_pipeline && self.two_byte_vps.binary_search(&obs.vp).is_ok()
            });
            let view = |a: Asn| if legacy { a.to_two_byte() } else { a };
            // Locate the tagger on the (pipeline-visible) path and find the
            // neighbor it learned the route from.
            let Some(pos) = hops.iter().position(|&h| view(h) == tagger) else {
                continue; // tagger hidden behind AS_TRANS in the legacy view
            };
            let Some(neighbor) = hops.get(pos + 1).map(|&h| view(h)) else {
                continue;
            };
            let Some(link) = Link::new(tagger, neighbor) else {
                continue;
            };
            let mut rel = match ingress {
                IngressRel::Customer => Rel::P2c { provider: tagger },
                IngressRel::Peer => Rel::P2p,
                IngressRel::Provider => Rel::P2c { provider: neighbor },
            };
            // Hybrid links: a share of observations reflects the minority
            // PoP's relationship, producing genuinely ambiguous multi-label
            // entries. Deterministic per (link, vp, origin) — which PoP a
            // route crosses varies per prefix.
            if bits & ON_HYBRID_LINK != 0 {
                if let Some(alt) = self.topology.gt_rel(link).and_then(|gt| gt.hybrid_alt) {
                    let flip = det_hash(
                        self.cfg.seed ^ 0x4879,
                        u64::from(link.a().0) << 32 | u64::from(link.b().0),
                        u64::from(obs.vp.0) << 32 | u64::from(obs.origin.0),
                    ) % 10_000
                        < (self.cfg.hybrid_minority_share * 10_000.0) as u64;
                    if flip {
                        rel = alt;
                    }
                }
            }
            emit(link, rel);
        }
    }
}

/// One worker's lookups into the ground-truth graph, reused across its
/// chunks: hops to ids, and the role of a hop pair's second hop in the
/// first hop's rows.
struct GraphIds<'g> {
    hops: HopIds<'g>,
    roles: NeighborRoles<'g>,
}

/// log2 of the slots of a [`LabelFilter`].
const FILTER_BITS: u32 = 12;

/// The labels one chunk has emitted, direct-mapped by a hash of the label:
/// a label its slot holds is a repeat. An evicted label is emitted again,
/// which costs one more [`ValidationSet::add`] and changes nothing, so the
/// filter never drops a label's first occurrence in its chunk.
struct LabelFilter {
    slots: Vec<Option<(Link, Rel)>>,
}

impl LabelFilter {
    fn new() -> Self {
        LabelFilter {
            slots: vec![None; 1 << FILTER_BITS],
        }
    }

    fn clear(&mut self) {
        self.slots.fill(None);
    }

    /// `false` if `(link, rel)` is remembered, else remembers it.
    fn insert(&mut self, link: Link, rel: Rel) -> bool {
        let code = match rel {
            Rel::P2c { provider } if provider == link.a() => 1,
            Rel::P2c { .. } => 2,
            Rel::P2p => 3,
            Rel::S2s => 4,
        };
        let key = (u64::from(link.a().0) << 32 | u64::from(link.b().0)).wrapping_add(code);
        let slot = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FILTER_BITS);
        let label = Some((link, rel));
        let held = &mut self.slots[slot as usize];
        let first = *held != label;
        *held = label;
        first
    }
}

/// Compiles community-based validation labels from a RIB snapshot.
///
/// The per-observation decoding is sharded across the worker pool in
/// fixed-size chunks. Each chunk emits each label once, at its first
/// occurrence in the chunk; merging the chunk label lists in chunk order
/// makes the resulting set byte-identical to a sequential pass at any
/// thread count (the set's per-link record order follows insertion order).
#[must_use]
pub fn compile_communities(
    topology: &Topology,
    snapshot: &RibSnapshot,
    cfg: &ValDataConfig,
) -> ValidationSet {
    compile_on_graph(topology, &topology.ground_truth_graph(), snapshot, cfg)
}

/// [`compile_communities`] over `graph`, the topology's
/// [`Topology::ground_truth_graph`].
pub(crate) fn compile_on_graph(
    topology: &Topology,
    graph: &CsrGraph,
    snapshot: &RibSnapshot,
    cfg: &ValDataConfig,
) -> ValidationSet {
    let mut set = ValidationSet::new();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    let decoder = Decoder::new(topology, graph, snapshot, cfg);
    let (observations, paths) = (&snapshot.observations, &snapshot.paths);
    let obs_chunk = breval_par::input_scaled_chunk(observations.len(), OBS_CHUNK);
    let chunks = observations.len().div_ceil(obs_chunk);
    {
        // Sub-span around the parallel chunk decode: the trace separates
        // it from the sequential leak/label bookkeeping in this function.
        let _decode = breval_obs::span!("compile_observations");
        let chunk_labels = breval_par::parallel_map_init(
            chunks,
            || {
                let ids = GraphIds {
                    hops: HopIds::new(graph.indexer()),
                    roles: NeighborRoles::new(graph),
                };
                (ids, LabelFilter::new())
            },
            |(ids, seen), c| {
                // A filter carried over from another chunk could drop a
                // first occurrence, depending on which chunks this worker
                // ran before.
                seen.clear();
                let lo = c * obs_chunk;
                let hi = (lo + obs_chunk).min(observations.len());
                let mut out = Vec::new();
                for i in lo..hi {
                    if let (Some(obs), Some((_, hops))) = (observations.get(i), paths.get(i)) {
                        decoder.decode_observation(ids, obs, hops, |link, rel| {
                            if seen.insert(link, rel) {
                                out.push((link, rel));
                            }
                        });
                    }
                }
                out
            },
        );
        for labels in chunk_labels {
            for (link, rel) in labels {
                set.add(link, rel, LabelSource::Communities);
            }
        }
    }

    // Private-ASN route leaks: labels whose neighbor is a reserved ASN.
    // Stays sequential: the injection consumes the RNG stream in order.
    let publishers: Vec<Asn> = topology
        .ases
        .values()
        .filter(|i| i.publishes_communities)
        .map(|i| i.asn)
        .collect();
    let mut injected = 0usize;
    while injected < cfg.reserved_leak_count && !publishers.is_empty() {
        let tagger = publishers[rng.random_range(0..publishers.len())];
        let private = Asn(64_512 + rng.random_range(0..1_000u32));
        if let Some(link) = Link::new(tagger, private) {
            set.add(
                link,
                Rel::P2c { provider: tagger },
                LabelSource::Communities,
            );
            injected += 1;
        }
    }

    set
}

/// Summary census of a compiled set against a topology — used by tests and
/// the §4.2 cleaning experiment.
#[must_use]
pub fn label_census(topology: &Topology, set: &ValidationSet) -> BTreeMap<&'static str, usize> {
    let mut out: BTreeMap<&'static str, usize> = BTreeMap::new();
    out.insert("total_links", set.len());
    out.insert(
        "as_trans_links",
        set.entries
            .keys()
            .filter(|l| l.a().is_as_trans() || l.b().is_as_trans())
            .count(),
    );
    out.insert(
        "reserved_links",
        set.entries
            .keys()
            .filter(|l| l.involves_reserved() && !(l.a().is_as_trans() || l.b().is_as_trans()))
            .count(),
    );
    out.insert("multi_label_links", set.multi_label_links().len());
    let org = topology.as2org();
    out.insert(
        "sibling_links",
        set.entries
            .keys()
            .filter(|l| org.is_sibling_link(**l))
            .count(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen::TopologyConfig;

    fn world() -> (Topology, RibSnapshot) {
        let topo = topogen::generate(&TopologyConfig::small(31));
        let snap = bgpsim::simulate(&topo);
        (topo, snap)
    }

    #[test]
    fn labels_are_mostly_correct() {
        let (topo, snap) = world();
        let cfg = ValDataConfig {
            reserved_leak_count: 0,
            legacy_pipeline: false,
            stale_dict_prob: 0.0,
            hybrid_minority_share: 0.0,
            ..ValDataConfig::default()
        };
        let set = compile_communities(&topo, &snap, &cfg);
        assert!(set.len() > 100, "too few labels: {}", set.len());
        let mut correct = 0usize;
        let mut total = 0usize;
        for (link, records) in &set.entries {
            let Some(gt) = topo.gt_rel(*link) else {
                continue;
            };
            for r in records {
                total += 1;
                if gt.observable_labels().contains(&r.rel) {
                    correct += 1;
                }
            }
        }
        assert!(
            correct as f64 > 0.99 * total as f64,
            "only {correct}/{total} labels correct"
        );
    }

    #[test]
    fn coverage_requires_publication() {
        let (topo, snap) = world();
        let set = compile_communities(&topo, &snap, &ValDataConfig::default());
        // Every genuine (non-injected) label involves a publishing AS.
        for link in set.entries.keys() {
            if link.involves_reserved() {
                continue; // injected leak labels
            }
            let a_pub = topo.info(link.a()).map(|i| i.publishes_communities);
            let b_pub = topo.info(link.b()).map(|i| i.publishes_communities);
            assert!(
                a_pub == Some(true) || b_pub == Some(true),
                "label on {link} without publisher"
            );
        }
    }

    #[test]
    fn legacy_pipeline_produces_as_trans_labels() {
        // Plenty of 16-bit collector sessions so the artefact is guaranteed
        // even at the small test scale.
        let topo = topogen::generate(&TopologyConfig {
            vp_two_byte_share: 0.4,
            ..TopologyConfig::small(31)
        });
        let snap = bgpsim::simulate(&topo);
        let with = compile_communities(&topo, &snap, &ValDataConfig::default());
        let without = compile_communities(
            &topo,
            &snap,
            &ValDataConfig {
                legacy_pipeline: false,
                ..ValDataConfig::default()
            },
        );
        let census_with = label_census(&topo, &with);
        let census_without = label_census(&topo, &without);
        assert!(
            census_with["as_trans_links"] > 0,
            "legacy pipeline must leak AS_TRANS labels"
        );
        assert_eq!(census_without["as_trans_links"], 0);
    }

    #[test]
    fn reserved_leaks_injected() {
        let (topo, snap) = world();
        let set = compile_communities(&topo, &snap, &ValDataConfig::default());
        let census = label_census(&topo, &set);
        assert!(census["reserved_links"] >= 100);
    }

    #[test]
    fn hybrid_links_get_multiple_labels() {
        // Crank the hybrid share so enough hybrid links land on publishing
        // taggers even in the small topology.
        let topo = topogen::generate(&TopologyConfig {
            hybrid_link_share: 0.30,
            ..TopologyConfig::small(31)
        });
        let snap = bgpsim::simulate(&topo);
        let set = compile_communities(&topo, &snap, &ValDataConfig::default());
        let multi = set.multi_label_links();
        assert!(!multi.is_empty(), "expected ambiguous multi-label entries");
        // Some multi-label links must be genuine hybrids; the others are
        // AS_TRANS aliasing artefacts (two different 4-byte neighbors
        // collapsing onto AS23456) — both real phenomena.
        let hybrid_multi = multi
            .iter()
            .filter(|l| {
                topo.gt_rel(**l)
                    .map(|r| r.hybrid_alt.is_some())
                    .unwrap_or(false)
            })
            .count();
        assert!(
            hybrid_multi >= 1,
            "no hybrid link produced a multi-label entry ({multi:?})"
        );
    }

    #[test]
    fn blackhole_convention_skips_666_taggers() {
        let (topo, snap) = world();
        let base = compile_communities(&topo, &snap, &ValDataConfig::default());
        let conservative = compile_communities(
            &topo,
            &snap,
            &ValDataConfig {
                skip_666_as_blackhole: true,
                ..ValDataConfig::default()
            },
        );
        // Scheme-2 publishers tag peering with :666; the conservative
        // pipeline must lose some of their P2P labels.
        let count_p2p = |set: &ValidationSet| {
            set.entries
                .values()
                .flatten()
                .filter(|r| r.rel == asgraph::Rel::P2p)
                .count()
        };
        assert!(
            count_p2p(&conservative) < count_p2p(&base),
            "skipping :666 must cost peering labels ({} vs {})",
            count_p2p(&conservative),
            count_p2p(&base)
        );
        // And it never invents anything new.
        for link in conservative.entries.keys() {
            assert!(base.entries.contains_key(link));
        }
    }

    #[test]
    fn deterministic() {
        let (topo, snap) = world();
        let a = compile_communities(&topo, &snap, &ValDataConfig::default());
        let b = compile_communities(&topo, &snap, &ValDataConfig::default());
        assert_eq!(a, b);
    }
}
