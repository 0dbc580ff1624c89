//! BGP path attributes (RFC 4271 §4.3) — the subset used by route collectors
//! and relationship-inference pipelines.

use crate::community::{Community, LargeCommunity};
use crate::error::WireError;
use asgraph::Asn;
use bytes::{Buf, BufMut, BytesMut};
use serde::{Deserialize, Serialize};

/// Attribute type codes.
pub mod type_code {
    /// ORIGIN.
    pub const ORIGIN: u8 = 1;
    /// AS_PATH.
    pub const AS_PATH: u8 = 2;
    /// NEXT_HOP.
    pub const NEXT_HOP: u8 = 3;
    /// MULTI_EXIT_DISC.
    pub const MED: u8 = 4;
    /// LOCAL_PREF.
    pub const LOCAL_PREF: u8 = 5;
    /// COMMUNITIES (RFC 1997).
    pub const COMMUNITIES: u8 = 8;
    /// AS4_PATH (RFC 6793).
    pub const AS4_PATH: u8 = 17;
    /// LARGE_COMMUNITIES (RFC 8092).
    pub const LARGE_COMMUNITIES: u8 = 32;
}

mod flag {
    pub const OPTIONAL: u8 = 0x80;
    pub const TRANSITIVE: u8 = 0x40;
    pub const EXTENDED: u8 = 0x10;
}

/// How ASNs are encoded inside `AS_PATH` (RFC 6793 capability negotiation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AsnEncoding {
    /// Legacy 16-bit peer: 4-byte ASNs are replaced with `AS_TRANS` in
    /// `AS_PATH` and the true path travels in `AS4_PATH`.
    TwoByte,
    /// 4-byte-capable peer (the modern default).
    FourByte,
}

/// AS_PATH segment kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Unordered set (route aggregation artefact).
    AsSet,
    /// Ordered sequence — the common case.
    AsSequence,
}

impl SegmentKind {
    fn as_u8(self) -> u8 {
        match self {
            SegmentKind::AsSet => 1,
            SegmentKind::AsSequence => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            1 => Ok(SegmentKind::AsSet),
            2 => Ok(SegmentKind::AsSequence),
            kind => Err(WireError::BadSegmentKind { kind }),
        }
    }
}

/// One AS_PATH segment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsPathSegment {
    /// Segment kind.
    pub kind: SegmentKind,
    /// Member ASNs (≤ 255 per segment on the wire).
    pub asns: Vec<Asn>,
}

impl AsPathSegment {
    /// A sequence segment.
    #[must_use]
    pub fn sequence(asns: Vec<Asn>) -> Self {
        AsPathSegment {
            kind: SegmentKind::AsSequence,
            asns,
        }
    }
}

/// A decoded path attribute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathAttribute {
    /// ORIGIN: 0 = IGP, 1 = EGP, 2 = INCOMPLETE.
    Origin(u8),
    /// AS_PATH segments, ASN width per the session encoding.
    AsPath(Vec<AsPathSegment>),
    /// NEXT_HOP IPv4 address.
    NextHop(u32),
    /// MULTI_EXIT_DISC.
    Med(u32),
    /// LOCAL_PREF.
    LocalPref(u32),
    /// RFC 1997 communities.
    Communities(Vec<Community>),
    /// RFC 6793 AS4_PATH (always 4-byte ASNs).
    As4Path(Vec<AsPathSegment>),
    /// RFC 8092 large communities.
    LargeCommunities(Vec<LargeCommunity>),
    /// Anything else, preserved opaquely for transparent re-encoding.
    Unknown {
        /// Original flag octet.
        flags: u8,
        /// Attribute type code.
        type_code: u8,
        /// Raw value bytes.
        value: Vec<u8>,
    },
}

fn encode_segments<B: BufMut>(segments: &[AsPathSegment], enc: AsnEncoding, buf: &mut B) {
    for seg in segments {
        buf.put_u8(seg.kind.as_u8());
        buf.put_u8(seg.asns.len() as u8);
        for asn in &seg.asns {
            match enc {
                AsnEncoding::TwoByte => {
                    let wire = if asn.is_four_byte() {
                        asgraph::asn::AS_TRANS.0 as u16
                    } else {
                        asn.0 as u16
                    };
                    buf.put_u16(wire);
                }
                AsnEncoding::FourByte => buf.put_u32(asn.0),
            }
        }
    }
}

fn decode_segments(mut value: &[u8], enc: AsnEncoding) -> Result<Vec<AsPathSegment>, WireError> {
    let mut segments = Vec::new();
    while value.has_remaining() {
        if value.remaining() < 2 {
            return Err(WireError::Truncated {
                context: "AS_PATH segment header",
                expected: 2 - value.remaining(),
            });
        }
        let kind = SegmentKind::from_u8(value.get_u8())?;
        let count = usize::from(value.get_u8());
        let width = match enc {
            AsnEncoding::TwoByte => 2,
            AsnEncoding::FourByte => 4,
        };
        if value.remaining() < count * width {
            return Err(WireError::Truncated {
                context: "AS_PATH segment members",
                expected: count * width - value.remaining(),
            });
        }
        let mut asns = Vec::with_capacity(count);
        for _ in 0..count {
            let asn = match enc {
                AsnEncoding::TwoByte => u32::from(value.get_u16()),
                AsnEncoding::FourByte => value.get_u32(),
            };
            asns.push(Asn(asn));
        }
        segments.push(AsPathSegment { kind, asns });
    }
    Ok(segments)
}

impl PathAttribute {
    /// The attribute's type code.
    #[must_use]
    pub fn type_code(&self) -> u8 {
        match self {
            PathAttribute::Origin(_) => type_code::ORIGIN,
            PathAttribute::AsPath(_) => type_code::AS_PATH,
            PathAttribute::NextHop(_) => type_code::NEXT_HOP,
            PathAttribute::Med(_) => type_code::MED,
            PathAttribute::LocalPref(_) => type_code::LOCAL_PREF,
            PathAttribute::Communities(_) => type_code::COMMUNITIES,
            PathAttribute::As4Path(_) => type_code::AS4_PATH,
            PathAttribute::LargeCommunities(_) => type_code::LARGE_COMMUNITIES,
            PathAttribute::Unknown { type_code, .. } => *type_code,
        }
    }

    fn canonical_flags(&self) -> u8 {
        match self {
            PathAttribute::Origin(_)
            | PathAttribute::AsPath(_)
            | PathAttribute::NextHop(_)
            | PathAttribute::LocalPref(_) => flag::TRANSITIVE,
            PathAttribute::Med(_) => flag::OPTIONAL,
            PathAttribute::Communities(_)
            | PathAttribute::As4Path(_)
            | PathAttribute::LargeCommunities(_) => flag::OPTIONAL | flag::TRANSITIVE,
            PathAttribute::Unknown { flags, .. } => *flags & !flag::EXTENDED,
        }
    }

    fn encode_value(&self, enc: AsnEncoding) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match self {
            PathAttribute::Origin(v) => buf.put_u8(*v),
            PathAttribute::AsPath(segments) => encode_segments(segments, enc, &mut buf),
            PathAttribute::NextHop(v) | PathAttribute::Med(v) | PathAttribute::LocalPref(v) => {
                buf.put_u32(*v)
            }
            PathAttribute::Communities(cs) => {
                for c in cs {
                    c.encode(&mut buf);
                }
            }
            PathAttribute::As4Path(segments) => {
                encode_segments(segments, AsnEncoding::FourByte, &mut buf)
            }
            PathAttribute::LargeCommunities(lcs) => {
                for lc in lcs {
                    lc.encode(&mut buf);
                }
            }
            PathAttribute::Unknown { value, .. } => buf.put_slice(value),
        }
        buf.to_vec()
    }

    /// Encodes the full attribute (flags, type, length, value).
    pub fn encode<B: BufMut>(&self, enc: AsnEncoding, buf: &mut B) {
        let value = self.encode_value(enc);
        let mut flags = self.canonical_flags();
        if value.len() > 255 {
            flags |= flag::EXTENDED;
        }
        buf.put_u8(flags);
        buf.put_u8(self.type_code());
        if flags & flag::EXTENDED != 0 {
            buf.put_u16(value.len() as u16);
        } else {
            buf.put_u8(value.len() as u8);
        }
        buf.put_slice(&value);
    }

    /// Decodes one attribute from the front of `buf`.
    pub fn decode<B: Buf>(buf: &mut B, enc: AsnEncoding) -> Result<Self, WireError> {
        if buf.remaining() < 3 {
            return Err(WireError::Truncated {
                context: "attribute header",
                expected: 3 - buf.remaining(),
            });
        }
        let flags = buf.get_u8();
        let tc = buf.get_u8();
        let len = if flags & flag::EXTENDED != 0 {
            if buf.remaining() < 2 {
                return Err(WireError::Truncated {
                    context: "attribute extended length",
                    expected: 2 - buf.remaining(),
                });
            }
            usize::from(buf.get_u16())
        } else {
            if buf.remaining() < 1 {
                return Err(WireError::Truncated {
                    context: "attribute length",
                    expected: 1,
                });
            }
            usize::from(buf.get_u8())
        };
        if buf.remaining() < len {
            return Err(WireError::Truncated {
                context: "attribute value",
                expected: len - buf.remaining(),
            });
        }
        let mut value = vec![0u8; len];
        buf.copy_to_slice(&mut value);
        let attr = match tc {
            type_code::ORIGIN => {
                let [origin] = value[..] else {
                    return Err(WireError::BadAttribute {
                        type_code: tc,
                        reason: "ORIGIN must be 1 byte",
                    });
                };
                PathAttribute::Origin(origin)
            }
            type_code::AS_PATH => PathAttribute::AsPath(decode_segments(&value, enc)?),
            type_code::AS4_PATH => {
                PathAttribute::As4Path(decode_segments(&value, AsnEncoding::FourByte)?)
            }
            type_code::NEXT_HOP | type_code::MED | type_code::LOCAL_PREF => {
                let Ok(bytes) = <[u8; 4]>::try_from(value.as_slice()) else {
                    return Err(WireError::BadAttribute {
                        type_code: tc,
                        reason: "expected 4-byte value",
                    });
                };
                let v = u32::from_be_bytes(bytes);
                match tc {
                    type_code::NEXT_HOP => PathAttribute::NextHop(v),
                    type_code::MED => PathAttribute::Med(v),
                    _ => PathAttribute::LocalPref(v),
                }
            }
            type_code::COMMUNITIES => {
                if value.len() % 4 != 0 {
                    return Err(WireError::BadAttribute {
                        type_code: tc,
                        reason: "COMMUNITIES length not a multiple of 4",
                    });
                }
                let mut cs = Vec::with_capacity(value.len() / 4);
                let mut slice = &value[..];
                while slice.has_remaining() {
                    cs.push(Community::decode(&mut slice)?);
                }
                PathAttribute::Communities(cs)
            }
            type_code::LARGE_COMMUNITIES => {
                if value.len() % 12 != 0 {
                    return Err(WireError::BadAttribute {
                        type_code: tc,
                        reason: "LARGE_COMMUNITIES length not a multiple of 12",
                    });
                }
                let mut lcs = Vec::with_capacity(value.len() / 12);
                let mut slice = &value[..];
                while slice.has_remaining() {
                    lcs.push(LargeCommunity::decode(&mut slice)?);
                }
                PathAttribute::LargeCommunities(lcs)
            }
            _ => PathAttribute::Unknown {
                flags,
                type_code: tc,
                value,
            },
        };
        Ok(attr)
    }
}

/// Flattens AS_PATH segments into a hop list (AS_SET members are appended in
/// order — adequate for inference pipelines, which discard set paths anyway).
#[must_use]
pub fn flatten_segments(segments: &[AsPathSegment]) -> Vec<Asn> {
    segments
        .iter()
        .flat_map(|s| s.asns.iter().copied())
        .collect()
}

/// Reconstructs the true 4-byte path from an `AS_PATH` containing `AS_TRANS`
/// and the accompanying `AS4_PATH` (RFC 6793 §4.2.3).
///
/// The `AS4_PATH` replaces the *trailing* portion of the flattened `AS_PATH`;
/// leading entries (added by non-capable speakers) are preserved. If the
/// `AS4_PATH` is longer than the `AS_PATH`, the `AS_PATH` wins (per RFC).
#[must_use]
pub fn reconstruct_as4(as_path: &[Asn], as4_path: &[Asn]) -> Vec<Asn> {
    if as4_path.is_empty() || as4_path.len() > as_path.len() {
        return as_path.to_vec();
    }
    let keep = as_path.len() - as4_path.len();
    let mut out = Vec::with_capacity(as_path.len());
    out.extend_from_slice(&as_path[..keep]);
    out.extend_from_slice(as4_path);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(attr: &PathAttribute, enc: AsnEncoding) -> PathAttribute {
        let mut buf = BytesMut::new();
        attr.encode(enc, &mut buf);
        let mut slice = &buf[..];
        let decoded = PathAttribute::decode(&mut slice, enc).unwrap();
        assert!(slice.is_empty(), "trailing bytes after decode");
        decoded
    }

    #[test]
    fn origin_roundtrip() {
        let a = PathAttribute::Origin(0);
        assert_eq!(roundtrip(&a, AsnEncoding::FourByte), a);
    }

    #[test]
    fn aspath_roundtrip_four_byte() {
        let a = PathAttribute::AsPath(vec![AsPathSegment::sequence(vec![
            Asn(3356),
            Asn(200_000),
            Asn(64_499),
        ])]);
        assert_eq!(roundtrip(&a, AsnEncoding::FourByte), a);
    }

    #[test]
    fn aspath_two_byte_substitutes_as_trans() {
        let a = PathAttribute::AsPath(vec![AsPathSegment::sequence(vec![
            Asn(3356),
            Asn(200_000), // 4-byte only
        ])]);
        let decoded = roundtrip(&a, AsnEncoding::TwoByte);
        let PathAttribute::AsPath(segments) = decoded else {
            panic!("wrong variant");
        };
        assert_eq!(
            flatten_segments(&segments),
            vec![Asn(3356), asgraph::asn::AS_TRANS]
        );
    }

    #[test]
    fn communities_roundtrip() {
        let a = PathAttribute::Communities(vec![Community::new(174, 990), Community::NO_EXPORT]);
        assert_eq!(roundtrip(&a, AsnEncoding::FourByte), a);
    }

    #[test]
    fn large_communities_roundtrip() {
        let a = PathAttribute::LargeCommunities(vec![LargeCommunity::new(200_000, 1, 2)]);
        assert_eq!(roundtrip(&a, AsnEncoding::FourByte), a);
    }

    #[test]
    fn extended_length_for_big_attrs() {
        // 100 communities = 400 bytes > 255 → extended length.
        let cs: Vec<Community> = (0..100).map(|i| Community::new(i, i)).collect();
        let a = PathAttribute::Communities(cs);
        assert_eq!(roundtrip(&a, AsnEncoding::FourByte), a);
    }

    #[test]
    fn unknown_attr_preserved() {
        let a = PathAttribute::Unknown {
            flags: 0xC0,
            type_code: 99,
            value: vec![1, 2, 3],
        };
        assert_eq!(roundtrip(&a, AsnEncoding::FourByte), a);
    }

    #[test]
    fn bad_inputs_error_not_panic() {
        let mut empty: &[u8] = &[];
        assert!(PathAttribute::decode(&mut empty, AsnEncoding::FourByte).is_err());
        // ORIGIN with wrong length.
        let mut bad: &[u8] = &[0x40, 1, 2, 0, 0];
        assert!(PathAttribute::decode(&mut bad, AsnEncoding::FourByte).is_err());
        // AS_PATH with bad segment kind.
        let mut bad: &[u8] = &[0x40, 2, 2, 9, 0];
        assert!(matches!(
            PathAttribute::decode(&mut bad, AsnEncoding::FourByte),
            Err(WireError::BadSegmentKind { kind: 9 })
        ));
        // COMMUNITIES with non-multiple-of-4 length.
        let mut bad: &[u8] = &[0xC0, 8, 3, 0, 0, 0];
        assert!(PathAttribute::decode(&mut bad, AsnEncoding::FourByte).is_err());
        // Declared length beyond buffer.
        let mut bad: &[u8] = &[0x40, 1, 200, 0];
        assert!(matches!(
            PathAttribute::decode(&mut bad, AsnEncoding::FourByte),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn as4_reconstruction() {
        // Path through a 16-bit speaker: [65001, AS_TRANS, AS_TRANS],
        // AS4_PATH carries the true tail [200001, 200002].
        let as_path = vec![Asn(65_001), Asn(23_456), Asn(23_456)];
        let as4 = vec![Asn(200_001), Asn(200_002)];
        assert_eq!(
            reconstruct_as4(&as_path, &as4),
            vec![Asn(65_001), Asn(200_001), Asn(200_002)]
        );
        // AS4_PATH longer than AS_PATH → keep AS_PATH.
        assert_eq!(reconstruct_as4(&[Asn(1)], &[Asn(2), Asn(3)]), vec![Asn(1)]);
        assert_eq!(reconstruct_as4(&[Asn(1)], &[]), vec![Asn(1)]);
    }
}
