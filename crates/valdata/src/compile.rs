//! The community-based validation compiler (the Luckie et al. §5.3 method,
//! re-run by every recent evaluation — the paper's central object of study).
//!
//! For every collector-visible route, decode each community whose AS part
//! belongs to a *publishing* AS using that AS's documented scheme, locate the
//! tagging AS on the path, and label the link towards the neighbor it learned
//! the route from.

use crate::config::ValDataConfig;
use crate::set::{LabelSource, ValidationSet};
use asgraph::{Asn, Link, Rel};
use bgpsim::communities::{collector_communities, scheme_of, AnyCommunity, IngressRel};
use bgpsim::RibSnapshot;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
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

/// Shared read-only inputs of the per-observation decoding loop.
struct DecodeContext<'a> {
    topology: &'a Topology,
    cfg: &'a ValDataConfig,
    publishers: BTreeSet<Asn>,
    stale_dicts: BTreeSet<Asn>,
    two_byte_vps: BTreeSet<Asn>,
}

/// Decodes one observation's communities into `(link, rel)` labels, in the
/// order the sequential loop would have produced them. `hops` is the
/// observation's prepend-compressed path.
fn decode_observation(
    ctx: &DecodeContext<'_>,
    obs: &bgpsim::RouteObservation,
    hops: &[Asn],
    out: &mut Vec<(Link, Rel)>,
) {
    // The decoding pipeline sees the path as extracted from MRT data:
    // modern view normally, legacy view (AS_TRANS substituted) for
    // 16-bit collector sessions when the legacy pipeline is active. The
    // legacy view maps each hop where it is read: a tagger is never
    // AS_TRANS, so the hop after it in the mapped, re-compressed path is
    // the mapped hop after it in `hops`.
    let legacy = ctx.cfg.legacy_pipeline && ctx.two_byte_vps.contains(&obs.vp);
    let view = |a: Asn| if legacy { a.to_two_byte() } else { a };

    // Communities travel on the wire unaffected by the AS_PATH encoding.
    for community in collector_communities(ctx.topology, hops) {
        let tagger = Asn(community.asn_part());
        if !ctx.publishers.contains(&tagger) {
            // 16-bit alias check: a classic community's AS part could
            // belong to a *publishing* 16-bit AS even though the tagger
            // was someone else — we only decode documented values, so
            // nothing happens here unless the value also matches, which
            // the per-AS schemes make rare.
            continue;
        }
        let scheme = scheme_of(tagger);
        let value = match community {
            AnyCommunity::Classic(c) => u32::from(c.value),
            AnyCommunity::Large(lc) => lc.local2,
        };
        let Ok(value16) = u16::try_from(value) else {
            continue;
        };
        // The 3356:666 ambiguity (§3.2): value 666 doubles as the
        // informal blackhole convention. A conservative pipeline skips
        // it even when the dictionary defines it.
        if ctx.cfg.skip_666_as_blackhole && value16 == 666 {
            continue;
        }
        let Some(mut ingress) = scheme.decode(value16) else {
            continue;
        };
        // Stale documentation: peer value documented as customer.
        if ctx.stale_dicts.contains(&tagger) && ingress == IngressRel::Peer {
            ingress = IngressRel::Customer;
        }
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
        if let Some(gt) = ctx.topology.gt_rel(link) {
            if let Some(alt) = gt.hybrid_alt {
                let flip = det_hash(
                    ctx.cfg.seed ^ 0x4879,
                    u64::from(link.a().0) << 32 | u64::from(link.b().0),
                    u64::from(obs.vp.0) << 32 | u64::from(obs.origin.0),
                ) % 10_000
                    < (ctx.cfg.hybrid_minority_share * 10_000.0) as u64;
                if flip {
                    rel = alt;
                }
            }
        }
        out.push((link, rel));
    }
}

/// Compiles community-based validation labels from a RIB snapshot.
///
/// The per-observation decoding is sharded across the worker pool in
/// fixed-size chunks; merging the chunk label lists in chunk order makes
/// the resulting set byte-identical to a sequential pass at any thread
/// count (the set's per-link record order follows insertion order).
#[must_use]
pub fn compile_communities(
    topology: &Topology,
    snapshot: &RibSnapshot,
    cfg: &ValDataConfig,
) -> ValidationSet {
    let mut set = ValidationSet::new();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    // Publishers and their (possibly stale) dictionaries.
    let publishers: BTreeSet<Asn> = topology
        .ases
        .values()
        .filter(|i| i.publishes_communities)
        .map(|i| i.asn)
        .collect();
    // Stale dictionaries: the published 'peer' meaning actually decodes as
    // customer (operator updated the scheme but not the documentation).
    let stale_dicts: BTreeSet<Asn> = publishers
        .iter()
        .copied()
        .filter(|p| {
            det_hash(cfg.seed ^ 0x5741, u64::from(p.0), 0) % 10_000
                < (cfg.stale_dict_prob * 10_000.0) as u64
        })
        .collect();

    let two_byte_vps: BTreeSet<Asn> = snapshot
        .collector_peers
        .iter()
        .filter(|cp| cp.two_byte_only)
        .map(|cp| cp.asn)
        .collect();

    let ctx = DecodeContext {
        topology,
        cfg,
        publishers,
        stale_dicts,
        two_byte_vps,
    };
    let (observations, paths) = (&snapshot.observations, &snapshot.paths);
    let obs_chunk = breval_par::input_scaled_chunk(observations.len(), OBS_CHUNK);
    let chunks = observations.len().div_ceil(obs_chunk);
    {
        // Sub-span around the parallel chunk decode: the trace separates
        // it from the sequential leak/label bookkeeping in this function.
        let _decode = breval_obs::span!("compile_observations");
        let chunk_labels = breval_par::parallel_map(chunks, |c| {
            let lo = c * obs_chunk;
            let hi = (lo + obs_chunk).min(observations.len());
            let mut out = Vec::new();
            for i in lo..hi {
                if let (Some(obs), Some((_, hops))) = (observations.get(i), paths.get(i)) {
                    decode_observation(&ctx, obs, hops, &mut out);
                }
            }
            out
        });
        for labels in chunk_labels {
            for (link, rel) in labels {
                set.add(link, rel, LabelSource::Communities);
            }
        }
    }

    // Private-ASN route leaks: labels whose neighbor is a reserved ASN.
    // Stays sequential: the injection consumes the RNG stream in order.
    let publisher_vec: Vec<Asn> = ctx.publishers.iter().copied().collect();
    let mut injected = 0usize;
    while injected < cfg.reserved_leak_count && !publisher_vec.is_empty() {
        let tagger = publisher_vec[rng.random_range(0..publisher_vec.len())];
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
