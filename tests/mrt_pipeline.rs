//! The byte-level round trip: simulate → MRT TABLE_DUMP_V2 → parse → infer.
//! A modern consumer gets the same inference as the in-memory pipeline; a
//! legacy consumer (ignoring AS4_PATH) sees AS_TRANS paths — the §4.2
//! spurious-label source.

use breval::asgraph::asn::AS_TRANS;
use breval::asinfer::{AsRank, Classifier};
use breval::bgpsim::snapshot::pathset_from_mrt;
use breval::topogen::{self, TopologyConfig};

#[test]
fn mrt_roundtrip_preserves_inference() {
    let topo = topogen::generate(&TopologyConfig::small(3));
    let snap = breval::bgpsim::simulate(&topo);

    let direct = AsRank::new().infer(&snap.to_pathset(false));

    let bytes = snap.to_mrt(&topo);
    let from_mrt = pathset_from_mrt(&bytes, true).expect("valid dump");
    let via_mrt = AsRank::new().infer(&from_mrt);

    assert_eq!(
        direct.rels, via_mrt.rels,
        "inference must be identical whether paths come from memory or MRT bytes"
    );
    assert_eq!(direct.clique, via_mrt.clique);
}

#[test]
fn legacy_mrt_consumer_sees_as_trans() {
    // Plenty of 16-bit collector sessions so the artefact is seed-robust.
    let topo = topogen::generate(&TopologyConfig {
        vp_two_byte_share: 0.4,
        ..TopologyConfig::small(3)
    });
    let snap = breval::bgpsim::simulate(&topo);
    let bytes = snap.to_mrt(&topo);

    let modern = pathset_from_mrt(&bytes, true).unwrap();
    let legacy = pathset_from_mrt(&bytes, false).unwrap();

    assert!(
        modern.iter().all(|(_, hops)| !hops.contains(&AS_TRANS)),
        "modern reconstruction must never contain AS_TRANS"
    );
    let n_legacy = legacy
        .iter()
        .filter(|(_, hops)| hops.contains(&AS_TRANS))
        .count();
    assert!(
        n_legacy > 0,
        "legacy decoding must produce AS_TRANS paths (16-bit VPs exist)"
    );
}

#[test]
fn corrupted_mrt_fails_gracefully() {
    let topo = topogen::generate(&TopologyConfig::small(3));
    let snap = breval::bgpsim::simulate(&topo);
    let bytes = snap.to_mrt(&topo);

    // Truncations at many offsets: error, never panic.
    for cut in [1usize, 7, 12, 100, bytes.len() / 2, bytes.len() - 1] {
        let _ = pathset_from_mrt(&bytes[..cut.min(bytes.len())], true);
    }
    // Flip bytes throughout the header region.
    for i in (0..bytes.len().min(4096)).step_by(97) {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0xFF;
        let _ = pathset_from_mrt(&corrupted, true);
    }
}
