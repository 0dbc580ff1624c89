//! MRT export format (RFC 6396), `TABLE_DUMP_V2` subset — the format in which
//! route collectors (RouteViews, RIPE RIS) publish the RIB snapshots that the
//! paper's inference pipelines consume.

use crate::attrs::{AsnEncoding, PathAttribute};
use crate::error::WireError;
use crate::prefix::Ipv4Prefix;
use asgraph::Asn;
use bytes::{Buf, BufMut, BytesMut};
use serde::{Deserialize, Serialize};

/// MRT type for TABLE_DUMP_V2.
pub const TYPE_TABLE_DUMP_V2: u16 = 13;
/// Subtype: peer index table.
pub const SUBTYPE_PEER_INDEX_TABLE: u16 = 1;
/// Subtype: IPv4 unicast RIB.
pub const SUBTYPE_RIB_IPV4_UNICAST: u16 = 2;

/// One collector peer (vantage point) in the peer index table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerEntry {
    /// Peer BGP identifier.
    pub bgp_id: u32,
    /// Peer IPv4 address.
    pub addr: u32,
    /// Peer ASN.
    pub asn: Asn,
    /// `true` if the peering session is 16-bit-only (no 4-octet-AS capability).
    pub two_byte_only: bool,
}

/// The `PEER_INDEX_TABLE` record.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerIndexTable {
    /// Collector BGP identifier.
    pub collector_id: u32,
    /// Optional view name.
    pub view_name: String,
    /// Peers, indexable by RIB entries.
    pub peers: Vec<PeerEntry>,
}

/// One per-peer entry of a RIB record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RibEntry {
    /// Index into the peer table.
    pub peer_index: u16,
    /// When the route was originated (unix time).
    pub originated: u32,
    /// BGP path attributes (4-byte ASN encoding, per RFC 6396 §4.3.4).
    pub attributes: Vec<PathAttribute>,
}

/// A `RIB_IPV4_UNICAST` record: all peers' routes for one prefix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RibIpv4Unicast {
    /// Record sequence number.
    pub sequence: u32,
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// Per-peer entries.
    pub entries: Vec<RibEntry>,
}

/// A decoded MRT record (supported subset).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MrtRecord {
    /// A peer index table.
    PeerIndexTable(PeerIndexTable),
    /// An IPv4 unicast RIB record.
    RibIpv4Unicast(RibIpv4Unicast),
}

impl PeerIndexTable {
    fn encode_body(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u32(self.collector_id);
        buf.put_u16(self.view_name.len() as u16);
        buf.put_slice(self.view_name.as_bytes());
        buf.put_u16(self.peers.len() as u16);
        for p in &self.peers {
            // Bit 0: address family (0 = IPv4). Bit 1: AS size (1 = 32 bit).
            let peer_type = if p.two_byte_only { 0x00 } else { 0x02 };
            buf.put_u8(peer_type);
            buf.put_u32(p.bgp_id);
            buf.put_u32(p.addr);
            if p.two_byte_only {
                buf.put_u16(p.asn.0 as u16);
            } else {
                buf.put_u32(p.asn.0);
            }
        }
        buf.to_vec()
    }

    fn decode_body(mut body: &[u8]) -> Result<Self, WireError> {
        if body.remaining() < 8 {
            return Err(WireError::Truncated {
                context: "peer index table header",
                expected: 8 - body.remaining(),
            });
        }
        let collector_id = body.get_u32();
        let name_len = usize::from(body.get_u16());
        if body.remaining() < name_len {
            return Err(WireError::Truncated {
                context: "view name",
                expected: name_len - body.remaining(),
            });
        }
        let mut name = vec![0u8; name_len];
        body.copy_to_slice(&mut name);
        let view_name = String::from_utf8(name).map_err(|_| WireError::BadLength {
            context: "view name utf8",
            declared: name_len,
        })?;
        if body.remaining() < 2 {
            return Err(WireError::Truncated {
                context: "peer count",
                expected: 2,
            });
        }
        let count = usize::from(body.get_u16());
        let mut peers = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            if body.remaining() < 1 {
                return Err(WireError::Truncated {
                    context: "peer type",
                    expected: 1,
                });
            }
            let peer_type = body.get_u8();
            if peer_type & 0x01 != 0 {
                return Err(WireError::UnsupportedMrt {
                    mrt_type: TYPE_TABLE_DUMP_V2,
                    subtype: SUBTYPE_PEER_INDEX_TABLE,
                });
            }
            let two_byte_only = peer_type & 0x02 == 0;
            let need = 8 + if two_byte_only { 2 } else { 4 };
            if body.remaining() < need {
                return Err(WireError::Truncated {
                    context: "peer entry",
                    expected: need - body.remaining(),
                });
            }
            let bgp_id = body.get_u32();
            let addr = body.get_u32();
            let asn = if two_byte_only {
                Asn(u32::from(body.get_u16()))
            } else {
                Asn(body.get_u32())
            };
            peers.push(PeerEntry {
                bgp_id,
                addr,
                asn,
                two_byte_only,
            });
        }
        Ok(PeerIndexTable {
            collector_id,
            view_name,
            peers,
        })
    }
}

impl RibIpv4Unicast {
    fn encode_body(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u32(self.sequence);
        self.prefix.encode(&mut buf);
        buf.put_u16(self.entries.len() as u16);
        for e in &self.entries {
            buf.put_u16(e.peer_index);
            buf.put_u32(e.originated);
            let mut attr_buf = BytesMut::new();
            for a in &e.attributes {
                a.encode(AsnEncoding::FourByte, &mut attr_buf);
            }
            buf.put_u16(attr_buf.len() as u16);
            buf.put_slice(&attr_buf);
        }
        buf.to_vec()
    }

    fn decode_body(mut body: &[u8]) -> Result<Self, WireError> {
        if body.remaining() < 4 {
            return Err(WireError::Truncated {
                context: "RIB sequence",
                expected: 4 - body.remaining(),
            });
        }
        let sequence = body.get_u32();
        let prefix = Ipv4Prefix::decode(&mut body)?;
        if body.remaining() < 2 {
            return Err(WireError::Truncated {
                context: "RIB entry count",
                expected: 2,
            });
        }
        let count = usize::from(body.get_u16());
        let mut entries = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            if body.remaining() < 8 {
                return Err(WireError::Truncated {
                    context: "RIB entry header",
                    expected: 8 - body.remaining(),
                });
            }
            let peer_index = body.get_u16();
            let originated = body.get_u32();
            let attr_len = usize::from(body.get_u16());
            if body.remaining() < attr_len {
                return Err(WireError::Truncated {
                    context: "RIB entry attributes",
                    expected: attr_len - body.remaining(),
                });
            }
            let mut attr_bytes = &body[..attr_len];
            body.advance(attr_len);
            let mut attributes = Vec::new();
            while attr_bytes.has_remaining() {
                attributes.push(PathAttribute::decode(
                    &mut attr_bytes,
                    AsnEncoding::FourByte,
                )?);
            }
            entries.push(RibEntry {
                peer_index,
                originated,
                attributes,
            });
        }
        Ok(RibIpv4Unicast {
            sequence,
            prefix,
            entries,
        })
    }
}

impl MrtRecord {
    /// Encodes the record with its MRT common header.
    #[must_use]
    pub fn encode(&self, timestamp: u32) -> Vec<u8> {
        let (subtype, body) = match self {
            MrtRecord::PeerIndexTable(t) => (SUBTYPE_PEER_INDEX_TABLE, t.encode_body()),
            MrtRecord::RibIpv4Unicast(r) => (SUBTYPE_RIB_IPV4_UNICAST, r.encode_body()),
        };
        let mut buf = BytesMut::with_capacity(12 + body.len());
        buf.put_u32(timestamp);
        buf.put_u16(TYPE_TABLE_DUMP_V2);
        buf.put_u16(subtype);
        buf.put_u32(body.len() as u32);
        buf.put_slice(&body);
        buf.to_vec()
    }

    /// Decodes one record from the front of `buf`, returning its timestamp.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<(u32, Self), WireError> {
        if buf.remaining() < 12 {
            return Err(WireError::Truncated {
                context: "MRT header",
                expected: 12 - buf.remaining(),
            });
        }
        let timestamp = buf.get_u32();
        let mrt_type = buf.get_u16();
        let subtype = buf.get_u16();
        let length = buf.get_u32() as usize;
        if buf.remaining() < length {
            return Err(WireError::Truncated {
                context: "MRT body",
                expected: length - buf.remaining(),
            });
        }
        let mut body = vec![0u8; length];
        buf.copy_to_slice(&mut body);
        if mrt_type != TYPE_TABLE_DUMP_V2 {
            return Err(WireError::UnsupportedMrt { mrt_type, subtype });
        }
        let record = match subtype {
            SUBTYPE_PEER_INDEX_TABLE => {
                MrtRecord::PeerIndexTable(PeerIndexTable::decode_body(&body)?)
            }
            SUBTYPE_RIB_IPV4_UNICAST => {
                MrtRecord::RibIpv4Unicast(RibIpv4Unicast::decode_body(&body)?)
            }
            _ => return Err(WireError::UnsupportedMrt { mrt_type, subtype }),
        };
        Ok((timestamp, record))
    }
}

/// Writes a complete RIB dump: peer index table followed by the RIB records.
#[must_use]
pub fn write_dump(table: &PeerIndexTable, ribs: &[RibIpv4Unicast], timestamp: u32) -> Vec<u8> {
    let mut out = MrtRecord::PeerIndexTable(table.clone()).encode(timestamp);
    for rib in ribs {
        out.extend_from_slice(&MrtRecord::RibIpv4Unicast(rib.clone()).encode(timestamp));
    }
    out
}

/// Reads a complete RIB dump produced by [`write_dump`]. The one peer index
/// table must precede any RIB record (as in real collector dumps), and every
/// RIB entry must reference a valid peer index. A second peer index table is
/// rejected: the entries read before it index the first one.
pub fn read_dump(bytes: &[u8]) -> Result<(PeerIndexTable, Vec<RibIpv4Unicast>), WireError> {
    let mut slice = bytes;
    let mut table: Option<PeerIndexTable> = None;
    let mut ribs = Vec::new();
    let misplaced = |subtype| WireError::UnsupportedMrt {
        mrt_type: TYPE_TABLE_DUMP_V2,
        subtype,
    };
    while slice.has_remaining() {
        let (_, record) = MrtRecord::decode(&mut slice)?;
        match record {
            MrtRecord::PeerIndexTable(_) if table.is_some() => {
                return Err(misplaced(SUBTYPE_PEER_INDEX_TABLE))
            }
            MrtRecord::PeerIndexTable(t) => table = Some(t),
            MrtRecord::RibIpv4Unicast(r) => {
                let t = table.as_ref().ok_or(misplaced(SUBTYPE_RIB_IPV4_UNICAST))?;
                for e in &r.entries {
                    if usize::from(e.peer_index) >= t.peers.len() {
                        return Err(WireError::UnknownPeerIndex {
                            index: e.peer_index,
                        });
                    }
                }
                ribs.push(r);
            }
        }
    }
    let table = table.ok_or(WireError::Truncated {
        context: "peer index table",
        expected: 12,
    })?;
    Ok((table, ribs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPathSegment;

    fn sample_table() -> PeerIndexTable {
        PeerIndexTable {
            collector_id: 0xC0A8_0001,
            view_name: "rrc00".into(),
            peers: vec![
                PeerEntry {
                    bgp_id: 1,
                    addr: 0x0A00_0001,
                    asn: Asn(3356),
                    two_byte_only: false,
                },
                PeerEntry {
                    bgp_id: 2,
                    addr: 0x0A00_0002,
                    asn: Asn(65_010),
                    two_byte_only: true,
                },
            ],
        }
    }

    fn sample_rib(seq: u32) -> RibIpv4Unicast {
        RibIpv4Unicast {
            sequence: seq,
            prefix: "203.0.113.0/24".parse().unwrap(),
            entries: vec![RibEntry {
                peer_index: 0,
                originated: 1_522_540_800,
                attributes: vec![
                    PathAttribute::Origin(0),
                    PathAttribute::AsPath(vec![AsPathSegment::sequence(vec![
                        Asn(3356),
                        Asn(200_000),
                    ])]),
                    PathAttribute::NextHop(0x0A00_0001),
                ],
            }],
        }
    }

    #[test]
    fn record_roundtrip() {
        for record in [
            MrtRecord::PeerIndexTable(sample_table()),
            MrtRecord::RibIpv4Unicast(sample_rib(7)),
        ] {
            let bytes = record.encode(1_522_540_800);
            let mut slice = &bytes[..];
            let (ts, decoded) = MrtRecord::decode(&mut slice).unwrap();
            assert!(slice.is_empty());
            assert_eq!(ts, 1_522_540_800);
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn dump_roundtrip() {
        let table = sample_table();
        let ribs = vec![sample_rib(0), sample_rib(1)];
        let bytes = write_dump(&table, &ribs, 42);
        let (t2, r2) = read_dump(&bytes).unwrap();
        assert_eq!(t2, table);
        assert_eq!(r2, ribs);
    }

    #[test]
    fn rib_before_table_rejected() {
        let bytes = MrtRecord::RibIpv4Unicast(sample_rib(0)).encode(42);
        assert!(read_dump(&bytes).is_err());
    }

    #[test]
    fn unknown_peer_index_rejected() {
        let table = sample_table();
        let mut rib = sample_rib(0);
        rib.entries[0].peer_index = 99;
        let bytes = write_dump(&table, &[rib], 42);
        assert!(matches!(
            read_dump(&bytes),
            Err(WireError::UnknownPeerIndex { index: 99 })
        ));
    }

    #[test]
    fn second_peer_table_rejected() {
        // An entry valid against a three-peer table, then a one-peer table:
        // the dump must not come back with the entry and the smaller table.
        let mut three = sample_table();
        three.peers.push(PeerEntry {
            bgp_id: 3,
            addr: 0x0A00_0003,
            asn: Asn(174),
            two_byte_only: false,
        });
        let mut rib = sample_rib(0);
        rib.entries[0].peer_index = 2;
        let mut one = sample_table();
        one.peers.truncate(1);
        let mut bytes = write_dump(&three, &[rib], 42);
        bytes.extend(write_dump(&one, &[], 42));
        assert!(matches!(
            read_dump(&bytes),
            Err(WireError::UnsupportedMrt {
                subtype: SUBTYPE_PEER_INDEX_TABLE,
                ..
            })
        ));
    }

    #[test]
    fn unsupported_type_rejected() {
        let mut bytes = MrtRecord::PeerIndexTable(sample_table()).encode(42);
        bytes[4] = 0;
        bytes[5] = 16; // type 16 = BGP4MP
        let mut slice = &bytes[..];
        assert!(matches!(
            MrtRecord::decode(&mut slice),
            Err(WireError::UnsupportedMrt { mrt_type: 16, .. })
        ));
    }

    #[test]
    fn truncated_inputs_error() {
        let bytes = write_dump(&sample_table(), &[sample_rib(0)], 42);
        for cut in [1, 11, 13, bytes.len() - 1] {
            assert!(read_dump(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn two_byte_peer_roundtrips() {
        let table = sample_table();
        let bytes = MrtRecord::PeerIndexTable(table.clone()).encode(0);
        let mut slice = &bytes[..];
        let (_, decoded) = MrtRecord::decode(&mut slice).unwrap();
        let MrtRecord::PeerIndexTable(t) = decoded else {
            panic!("wrong variant")
        };
        assert!(t.peers[1].two_byte_only);
        assert_eq!(t.peers[1].asn, Asn(65_010));
    }
}
