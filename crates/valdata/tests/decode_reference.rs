//! The community decoder against a reference: the decode the compiler ran
//! before it worked on node ids, kept here as an independent oracle. The
//! reference reads each route's communities the way a collector shows them
//! (every tagging hop's ingress tag, looked up in the topology's AS and
//! link maps), probes three `BTreeSet`s per community, and adds its labels
//! one at a time, in observation order. Whole `ValidationSet`s must match,
//! the record order within each link included.

use asgraph::{Asn, Link, Rel};
use bgpsim::communities::{scheme_of, AnyCommunity, IngressRel};
use bgpsim::{RibSnapshot, RouteObservation};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;
use topogen::{TierClass, Topology, TopologyConfig};
use valdata::{LabelSource, ValDataConfig, ValidationSet};

fn det_hash(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Transit operators and Tier-1s tag informational communities.
fn tags(topology: &Topology, asn: Asn) -> bool {
    matches!(
        topology.info(asn).map(|i| i.tier),
        Some(TierClass::Tier1 | TierClass::Transit)
    )
}

/// The ingress class `x` tags on a route learned from `neighbor`, read off
/// the ground-truth link map; sibling-learned routes get the customer tag.
fn ingress(topology: &Topology, x: Asn, neighbor: Asn) -> Option<IngressRel> {
    match topology.gt_rel(Link::new(x, neighbor)?)?.base {
        Rel::P2c { provider } if provider == x => Some(IngressRel::Customer),
        Rel::P2c { .. } => Some(IngressRel::Provider),
        Rel::P2p => Some(IngressRel::Peer),
        Rel::S2s => Some(IngressRel::Customer),
    }
}

/// The communities a collector sees on `path`.
fn collector_communities(topology: &Topology, path: &[Asn]) -> Vec<AnyCommunity> {
    path.windows(2)
        .filter_map(|w| {
            let (x, neighbor) = (w[0], w[1]);
            if !tags(topology, x) {
                return None;
            }
            Some(AnyCommunity::informational(
                x,
                ingress(topology, x, neighbor)?,
            ))
        })
        .collect()
}

struct Context<'a> {
    topology: &'a Topology,
    cfg: &'a ValDataConfig,
    publishers: BTreeSet<Asn>,
    stale_dicts: BTreeSet<Asn>,
    two_byte_vps: BTreeSet<Asn>,
}

fn decode_observation(
    ctx: &Context<'_>,
    obs: &RouteObservation,
    hops: &[Asn],
    out: &mut Vec<(Link, Rel)>,
) {
    let legacy = ctx.cfg.legacy_pipeline && ctx.two_byte_vps.contains(&obs.vp);
    let view = |a: Asn| if legacy { a.to_two_byte() } else { a };
    for community in collector_communities(ctx.topology, hops) {
        let tagger = Asn(community.asn_part());
        if !ctx.publishers.contains(&tagger) {
            continue;
        }
        let scheme = scheme_of(tagger);
        let Ok(value) = u16::try_from(community.value_part()) else {
            continue;
        };
        if ctx.cfg.skip_666_as_blackhole && value == 666 {
            continue;
        }
        let Some(mut ingress) = scheme.decode(value) else {
            continue;
        };
        if ctx.stale_dicts.contains(&tagger) && ingress == IngressRel::Peer {
            ingress = IngressRel::Customer;
        }
        let Some(pos) = hops.iter().position(|&h| view(h) == tagger) else {
            continue;
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
        if let Some(alt) = ctx.topology.gt_rel(link).and_then(|gt| gt.hybrid_alt) {
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
        out.push((link, rel));
    }
}

/// The reference compile: sequential decode, then the leak injection.
fn reference(topology: &Topology, snapshot: &RibSnapshot, cfg: &ValDataConfig) -> ValidationSet {
    let publishers: BTreeSet<Asn> = topology
        .ases
        .values()
        .filter(|i| i.publishes_communities)
        .map(|i| i.asn)
        .collect();
    let stale_dicts = publishers
        .iter()
        .copied()
        .filter(|p| {
            det_hash(cfg.seed ^ 0x5741, u64::from(p.0), 0) % 10_000
                < (cfg.stale_dict_prob * 10_000.0) as u64
        })
        .collect();
    let two_byte_vps = snapshot
        .collector_peers
        .iter()
        .filter(|cp| cp.two_byte_only)
        .map(|cp| cp.asn)
        .collect();
    let ctx = Context {
        topology,
        cfg,
        publishers,
        stale_dicts,
        two_byte_vps,
    };
    let mut set = ValidationSet::new();
    let mut labels = Vec::new();
    for (obs, (_, hops)) in snapshot.observations.iter().zip(snapshot.paths.iter()) {
        labels.clear();
        decode_observation(&ctx, obs, hops, &mut labels);
        for &(link, rel) in &labels {
            set.add(link, rel, LabelSource::Communities);
        }
    }
    let publishers: Vec<Asn> = ctx.publishers.iter().copied().collect();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
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

/// The validation configurations the decoder must agree under.
fn configs() -> Vec<ValDataConfig> {
    let base = ValDataConfig::default();
    vec![
        base.clone(),
        ValDataConfig {
            legacy_pipeline: false,
            ..base.clone()
        },
        ValDataConfig {
            skip_666_as_blackhole: true,
            ..base.clone()
        },
        ValDataConfig {
            stale_dict_prob: 0.3,
            ..base.clone()
        },
        ValDataConfig {
            hybrid_minority_share: 0.7,
            ..base
        },
    ]
}

/// Asserts that the decoder and the reference compile the same set, the
/// record order within each link included, under every configuration.
fn assert_agree(topology: &Topology, snapshot: &RibSnapshot) {
    for cfg in configs() {
        let want = reference(topology, snapshot, &cfg);
        let got = valdata::compile_communities(topology, snapshot, &cfg);
        assert!(
            want.len() > 100,
            "too few labels to compare: {}",
            want.len()
        );
        assert!(
            got == want,
            "the decoder disagrees with the reference under {cfg:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Small topologies, plain and with the knobs that feed the label
    /// artefacts turned up: many 16-bit collector sessions (`AS_TRANS`
    /// labels in the legacy view) and many hybrid links (flipped labels).
    #[test]
    fn decoder_matches_the_reference(seed in 0u64..1_000, variant in 0usize..3) {
        let small = TopologyConfig::small(seed);
        let config = match variant {
            0 => small,
            1 => TopologyConfig { vp_two_byte_share: 0.4, ..small },
            _ => TopologyConfig { hybrid_link_share: 0.3, ..small },
        };
        let topology = topogen::generate(&config);
        assert_agree(&topology, &bgpsim::simulate(&topology));
    }
}

/// Sibling-learned routes carry the customer tag, which is how sibling
/// links enter the labels as P2C (§4.2). At `small(11)` publishing taggers
/// learn thousands of routes from siblings, so a decoder that files them
/// under another class disagrees with the reference.
#[test]
fn sibling_learned_routes_carry_the_customer_tag() {
    let topology = topogen::generate(&TopologyConfig::small(11));
    let rib = bgpsim::simulate(&topology);
    let want = reference(&topology, &rib, &ValDataConfig::default());
    let sibling_p2c = want.entries.iter().filter(|(link, records)| {
        let sibling = topology
            .gt_rel(**link)
            .is_some_and(|gt| gt.base == Rel::S2s);
        sibling && records.iter().any(|r| matches!(r.rel, Rel::P2c { .. }))
    });
    assert!(
        sibling_p2c.count() > 0,
        "no sibling link is labelled from a sibling-learned route"
    );
    assert_agree(&topology, &rib);
}

/// A RIB whose paths carry hops outside the topology: as the VP, as a
/// would-be tagger, right behind a tagger, and as `AS_TRANS`. Such hops tag
/// nothing and must not stop the decode.
#[test]
fn hops_outside_the_topology_tag_nothing() {
    let topology = topogen::generate(&TopologyConfig {
        vp_two_byte_share: 0.4,
        ..TopologyConfig::small(7)
    });
    let rib = bgpsim::simulate(&topology);
    let outside = [Asn(4_199_999_999), Asn(23_456), Asn(64_600)];
    assert!(outside.iter().all(|asn| topology.info(*asn).is_none()));
    let mut paths = asgraph::PathSet::clone(&rib.paths);
    let mut observations = rib.observations.clone();
    for (k, (obs, (_, hops))) in rib.observations.iter().zip(rib.paths.iter()).enumerate() {
        if k % 7 != 0 || hops.len() < 3 {
            continue;
        }
        let stranger = outside[k % outside.len()];
        let mut bent = hops.to_vec();
        // Behind the first hop, in place of an interior hop, and past the
        // origin, in turn.
        match k % 3 {
            0 => bent.insert(1, stranger),
            1 => bent[1] = stranger,
            _ => bent.push(stranger),
        }
        let vp = if k % 5 == 0 { stranger } else { obs.vp };
        observations.push(RouteObservation { vp, ..*obs });
        paths.push_hops(vp, bent);
    }
    let bent = RibSnapshot {
        observations,
        paths: Arc::new(paths),
        collector_peers: rib.collector_peers.clone(),
    };
    assert_agree(&topology, &bent);
}

/// The paper's scale, seed 2018: every route of the default RIB. About 5 s
/// in a release build; run it with
/// `cargo test --release -p valdata --test decode_reference -- --ignored`.
#[test]
#[ignore = "default scale: run in release"]
fn decoder_matches_the_reference_at_default_scale() {
    let topology = topogen::generate(&TopologyConfig::default());
    let rib = bgpsim::simulate(&topology);
    let cfg = ValDataConfig::default();
    let want = reference(&topology, &rib, &cfg);
    let got = valdata::compile_communities(&topology, &rib, &cfg);
    assert!(
        want.len() > 1_000,
        "too few labels to compare: {}",
        want.len()
    );
    assert!(got == want, "the decoder disagrees with the reference");
}
