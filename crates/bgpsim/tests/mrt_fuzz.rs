//! Panic-free MRT import: `pathset_from_mrt` over mutated valid dumps.
//!
//! Random bytes rarely get past the MRT header, so these properties start
//! from well-formed `TABLE_DUMP_V2` dumps shaped like the simulator's
//! export (a peer table, then RIB records whose two-byte sessions carry an
//! `AS_TRANS`-substituted `AS_PATH` plus the true `AS4_PATH`) and then flip
//! bytes, cut them short, or concatenate two of them. The import must
//! return, with paths or an error, and never panic.

use asgraph::{asn::AS_TRANS, Asn};
use bgpsim::snapshot::pathset_from_mrt;
use bgpwire::mrt::write_dump;
use bgpwire::{
    AsPathSegment, Ipv4Prefix, PathAttribute, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast,
};
use proptest::prelude::*;

fn arb_asn() -> impl Strategy<Value = Asn> {
    prop_oneof![
        (1u32..65_000).prop_map(Asn),
        (131_072u32..400_000).prop_map(Asn)
    ]
}

/// The attributes of one RIB entry over `path`, as the simulator exports
/// them on a session that is (or is not) two-byte only.
fn attributes(path: Vec<Asn>, two_byte: bool) -> Vec<PathAttribute> {
    let mut attrs = vec![PathAttribute::Origin(0)];
    if two_byte && path.iter().any(|a| a.is_four_byte()) {
        let legacy = path
            .iter()
            .map(|a| if a.is_four_byte() { AS_TRANS } else { *a })
            .collect();
        attrs.push(PathAttribute::AsPath(vec![AsPathSegment::sequence(legacy)]));
        attrs.push(PathAttribute::As4Path(vec![AsPathSegment::sequence(path)]));
    } else {
        attrs.push(PathAttribute::AsPath(vec![AsPathSegment::sequence(path)]));
    }
    attrs.push(PathAttribute::NextHop(0x0A00_0001));
    attrs
}

/// A valid dump: 1–4 peers, then up to 8 single-entry RIB records whose
/// paths start at their peer's AS (prepending included).
fn arb_dump() -> impl Strategy<Value = Vec<u8>> {
    let peers = prop::collection::vec((arb_asn(), any::<bool>()), 1..5);
    let routes = prop::collection::vec(
        (
            any::<u16>(),
            prop::collection::vec((arb_asn(), 1usize..3), 0..6),
        ),
        0..9,
    );
    (peers, routes).prop_map(|(peers, routes)| {
        let table = PeerIndexTable {
            collector_id: 0x0A0A_0A0A,
            view_name: "fuzz".into(),
            peers: peers
                .iter()
                .enumerate()
                .map(|(i, &(asn, two_byte_only))| PeerEntry {
                    bgp_id: i as u32 + 1,
                    addr: 0x0A00_0000 + i as u32,
                    asn,
                    two_byte_only,
                })
                .collect(),
        };
        let ribs: Vec<RibIpv4Unicast> = routes
            .into_iter()
            .enumerate()
            .map(|(seq, (peer, runs))| {
                let peer_index = peer % peers.len() as u16;
                let (vp, two_byte) = peers[usize::from(peer_index)];
                let path: Vec<Asn> = std::iter::once(vp)
                    .chain(
                        runs.into_iter()
                            .flat_map(|(a, n)| std::iter::repeat_n(a, n)),
                    )
                    .collect();
                RibIpv4Unicast {
                    sequence: seq as u32,
                    prefix: Ipv4Prefix::new(0x0A00_0000 + ((seq as u32) << 8), 24)
                        .expect("valid prefix length"),
                    entries: vec![RibEntry {
                        peer_index,
                        originated: 1_522_540_800,
                        attributes: attributes(path, two_byte),
                    }],
                }
            })
            .collect();
        write_dump(&table, &ribs, 1_522_540_800)
    })
}

/// Runs both import views; returns whether the modern one succeeded.
fn import(bytes: &[u8]) -> bool {
    let legacy = pathset_from_mrt(bytes, false);
    let modern = pathset_from_mrt(bytes, true);
    assert_eq!(legacy.is_ok(), modern.is_ok());
    modern.is_ok()
}

proptest! {
    /// The unmutated dumps import without error.
    #[test]
    fn valid_dumps_import(dump in arb_dump()) {
        prop_assert!(import(&dump));
    }

    /// Flipped bytes anywhere in a dump never panic the import.
    #[test]
    fn byte_flips_never_panic(
        dump in arb_dump(),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..8)
    ) {
        let mut bytes = dump;
        for (at, mask) in flips {
            let i = at % bytes.len();
            bytes[i] ^= mask;
        }
        import(&bytes);
    }

    /// A dump cut anywhere short never panics the import.
    #[test]
    fn truncations_never_panic(dump in arb_dump(), cut in any::<usize>()) {
        import(&dump[..cut % dump.len()]);
    }

    /// Two dumps back to back carry two peer tables, which is an error — the
    /// second table must never re-index the entries read under the first.
    #[test]
    fn concatenated_dumps_are_rejected(first in arb_dump(), second in arb_dump()) {
        let mut bytes = first;
        bytes.extend_from_slice(&second);
        prop_assert!(!import(&bytes));
    }
}
