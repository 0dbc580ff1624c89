//! Property tests: wire formats round-trip, and decoders never panic on
//! arbitrary bytes (fuzz-style).

use asgraph::Asn;
use bgpwire::{
    attrs::{AsPathSegment, PathAttribute},
    mrt::{self, MrtRecord, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast},
    update::{AsnEncoding, UpdateMessage},
    Community, Ipv4Prefix, LargeCommunity,
};
use proptest::prelude::*;

#[expect(
    clippy::unwrap_used,
    reason = "a strategy helper outside #[test]: every drawn length is at most 32"
)]
fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len).unwrap())
}

fn arb_asn() -> impl Strategy<Value = Asn> {
    prop_oneof![
        (1u32..65_000).prop_map(Asn),
        (131_072u32..4_000_000).prop_map(Asn),
    ]
}

fn arb_community() -> impl Strategy<Value = Community> {
    (any::<u16>(), any::<u16>()).prop_map(|(a, v)| Community::new(a, v))
}

fn arb_attr() -> impl Strategy<Value = PathAttribute> {
    prop_oneof![
        (0u8..3).prop_map(PathAttribute::Origin),
        prop::collection::vec(arb_asn(), 1..8)
            .prop_map(|asns| PathAttribute::AsPath(vec![AsPathSegment::sequence(asns)])),
        any::<u32>().prop_map(PathAttribute::NextHop),
        any::<u32>().prop_map(PathAttribute::Med),
        prop::collection::vec(arb_community(), 0..70).prop_map(PathAttribute::Communities),
        prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..10).prop_map(|v| {
            PathAttribute::LargeCommunities(
                v.into_iter()
                    .map(|(g, l1, l2)| LargeCommunity::new(g, l1, l2))
                    .collect(),
            )
        }),
    ]
}

proptest! {
    /// Prefix NLRI encoding round-trips.
    #[test]
    fn prefix_roundtrip(p in arb_prefix()) {
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let mut slice = &buf[..];
        prop_assert_eq!(Ipv4Prefix::decode(&mut slice).unwrap(), p);
        prop_assert!(slice.is_empty());
    }

    /// UPDATE messages round-trip under 4-byte encoding.
    #[test]
    fn update_roundtrip_four_byte(
        nlri in prop::collection::vec(arb_prefix(), 0..6),
        withdrawn in prop::collection::vec(arb_prefix(), 0..6),
        attrs in prop::collection::vec(arb_attr(), 0..6),
    ) {
        let msg = UpdateMessage { withdrawn, attributes: attrs, nlri };
        let bytes = msg.encode(AsnEncoding::FourByte);
        let mut slice = &bytes[..];
        let decoded = UpdateMessage::decode(&mut slice, AsnEncoding::FourByte).unwrap();
        prop_assert!(slice.is_empty());
        prop_assert_eq!(decoded, msg);
    }

    /// Two-byte encoding: a correct consumer always recovers the true path.
    #[test]
    fn as4_reconstruction_recovers_path(
        path in prop::collection::vec(arb_asn(), 1..10),
        nlri in prop::collection::vec(arb_prefix(), 1..3),
    ) {
        let msg = UpdateMessage::announcement(nlri, path.clone(), vec![]);
        let bytes = msg.encode(AsnEncoding::TwoByte);
        let mut slice = &bytes[..];
        let decoded = UpdateMessage::decode(&mut slice, AsnEncoding::TwoByte).unwrap();
        prop_assert_eq!(decoded.as_path().unwrap(), path.clone());
        // The legacy view substitutes AS_TRANS for every 4-byte ASN.
        let legacy = decoded.as_path_legacy().unwrap();
        for (orig, leg) in path.iter().zip(&legacy) {
            if orig.is_four_byte() {
                prop_assert!(leg.is_as_trans());
            } else {
                prop_assert_eq!(orig, leg);
            }
        }
    }

    /// The UPDATE decoder never panics on arbitrary bytes.
    #[test]
    fn update_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut slice = &bytes[..];
        let _ = UpdateMessage::decode(&mut slice, AsnEncoding::FourByte);
        let mut slice = &bytes[..];
        let _ = UpdateMessage::decode(&mut slice, AsnEncoding::TwoByte);
    }

    /// The MRT decoder never panics on arbitrary bytes.
    #[test]
    fn mrt_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut slice = &bytes[..];
        let _ = MrtRecord::decode(&mut slice);
        let _ = mrt::read_dump(&bytes);
    }

    /// A corrupted byte in a valid UPDATE either still decodes or errors —
    /// never panics (fault injection).
    #[test]
    fn update_corruption_is_graceful(
        path in prop::collection::vec(arb_asn(), 1..6),
        pos in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let msg = UpdateMessage::announcement(
            vec![Ipv4Prefix::new(0xC000_0200, 24).unwrap()],
            path,
            vec![Community::new(174, 990)],
        );
        let mut bytes = msg.encode(AsnEncoding::FourByte);
        let idx = pos.index(bytes.len());
        bytes[idx] ^= xor;
        let mut slice = &bytes[..];
        let _ = UpdateMessage::decode(&mut slice, AsnEncoding::FourByte);
    }

    /// Full MRT dumps round-trip.
    #[test]
    fn dump_roundtrip(
        peer_asns in prop::collection::vec((arb_asn(), any::<bool>()), 1..5),
        prefixes in prop::collection::vec(arb_prefix(), 1..5),
    ) {
        let table = PeerIndexTable {
            collector_id: 7,
            view_name: "view".into(),
            peers: peer_asns
                .iter()
                .enumerate()
                .map(|(i, (asn, two))| PeerEntry {
                    bgp_id: i as u32,
                    addr: i as u32,
                    // A 16-bit session cannot carry a 4-byte peer ASN.
                    asn: if *two && asn.is_four_byte() { Asn(65_000) } else { *asn },
                    two_byte_only: *two,
                })
                .collect(),
        };
        let ribs: Vec<RibIpv4Unicast> = prefixes
            .iter()
            .enumerate()
            .map(|(i, p)| RibIpv4Unicast {
                sequence: i as u32,
                prefix: *p,
                entries: vec![RibEntry {
                    peer_index: (i % table.peers.len()) as u16,
                    originated: 0,
                    attributes: vec![PathAttribute::Origin(0)],
                }],
            })
            .collect();
        let bytes = mrt::write_dump(&table, &ribs, 1_522_540_800);
        let (t2, r2) = mrt::read_dump(&bytes).unwrap();
        prop_assert_eq!(t2, table);
        prop_assert_eq!(r2, ribs);
    }
}
