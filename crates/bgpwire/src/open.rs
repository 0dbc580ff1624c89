//! BGP OPEN, KEEPALIVE and NOTIFICATION messages (RFC 4271 §4.2/4.4/4.5)
//! with capability advertisement (RFC 5492) — in particular the 4-octet-AS
//! capability (RFC 6793) whose absence is what turns a collector session into
//! an `AS_TRANS` producer.

use crate::error::WireError;
use asgraph::{asn::AS_TRANS, Asn};
use bytes::{Buf, BufMut, BytesMut};
use serde::{Deserialize, Serialize};

const MARKER: [u8; 16] = [0xFF; 16];
const MSG_TYPE_OPEN: u8 = 1;
const MSG_TYPE_NOTIFICATION: u8 = 3;
const MSG_TYPE_KEEPALIVE: u8 = 4;
const PARAM_CAPABILITIES: u8 = 2;

/// A BGP capability (RFC 5492 registry subset).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Capability {
    /// Multiprotocol extensions for IPv4 unicast (code 1).
    MultiprotocolIpv4Unicast,
    /// Route refresh (code 2).
    RouteRefresh,
    /// 4-octet AS numbers (code 65, RFC 6793) carrying the speaker's real ASN.
    FourByteAsn(Asn),
    /// Anything else, preserved opaquely.
    Unknown {
        /// Capability code.
        code: u8,
        /// Raw value bytes.
        value: Vec<u8>,
    },
}

impl Capability {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            Capability::MultiprotocolIpv4Unicast => {
                buf.put_u8(1);
                buf.put_u8(4);
                buf.put_u16(1); // AFI IPv4
                buf.put_u8(0); // reserved
                buf.put_u8(1); // SAFI unicast
            }
            Capability::RouteRefresh => {
                buf.put_u8(2);
                buf.put_u8(0);
            }
            Capability::FourByteAsn(asn) => {
                buf.put_u8(65);
                buf.put_u8(4);
                buf.put_u32(asn.0);
            }
            Capability::Unknown { code, value } => {
                buf.put_u8(*code);
                buf.put_u8(value.len() as u8);
                buf.put_slice(value);
            }
        }
    }

    fn decode(code: u8, value: &[u8]) -> Result<Self, WireError> {
        match code {
            1 if value.len() == 4 => Ok(Capability::MultiprotocolIpv4Unicast),
            2 if value.is_empty() => Ok(Capability::RouteRefresh),
            65 => {
                let Ok(bytes) = <[u8; 4]>::try_from(value) else {
                    return Err(WireError::BadAttribute {
                        type_code: 65,
                        reason: "4-octet AS capability must be 4 bytes",
                    });
                };
                Ok(Capability::FourByteAsn(Asn(u32::from_be_bytes(bytes))))
            }
            _ => Ok(Capability::Unknown {
                code,
                value: value.to_vec(),
            }),
        }
    }
}

/// A BGP OPEN message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenMessage {
    /// The speaker's ASN; encoded as `AS_TRANS` in the 16-bit field when it
    /// does not fit, with the true value in the 4-octet-AS capability.
    pub asn: Asn,
    /// Proposed hold time (seconds).
    pub hold_time: u16,
    /// BGP identifier.
    pub bgp_id: u32,
    /// Advertised capabilities.
    pub capabilities: Vec<Capability>,
}

impl OpenMessage {
    /// A modern OPEN: multiprotocol + route-refresh + 4-octet AS.
    #[must_use]
    pub fn modern(asn: Asn, bgp_id: u32) -> Self {
        OpenMessage {
            asn,
            hold_time: 180,
            bgp_id,
            capabilities: vec![
                Capability::MultiprotocolIpv4Unicast,
                Capability::RouteRefresh,
                Capability::FourByteAsn(asn),
            ],
        }
    }

    /// A legacy 16-bit-only OPEN (no 4-octet-AS capability). The speaker's
    /// own ASN must fit in 16 bits.
    #[must_use]
    pub fn legacy(asn: Asn, bgp_id: u32) -> Self {
        OpenMessage {
            asn,
            hold_time: 180,
            bgp_id,
            capabilities: vec![Capability::MultiprotocolIpv4Unicast],
        }
    }

    /// The speaker's 4-octet-AS capability value, if advertised.
    #[must_use]
    pub fn four_byte_asn(&self) -> Option<Asn> {
        self.capabilities.iter().find_map(|c| match c {
            Capability::FourByteAsn(a) => Some(*a),
            _ => None,
        })
    }

    /// Encodes the message (header included).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut caps = BytesMut::new();
        for c in &self.capabilities {
            c.encode(&mut caps);
        }
        let mut body = BytesMut::new();
        body.put_u8(4); // version
        let my_as16: u16 = if self.asn.is_four_byte() {
            AS_TRANS.0 as u16
        } else {
            self.asn.0 as u16
        };
        body.put_u16(my_as16);
        body.put_u16(self.hold_time);
        body.put_u32(self.bgp_id);
        if caps.is_empty() {
            body.put_u8(0);
        } else {
            body.put_u8((caps.len() + 2) as u8); // optional params length
            body.put_u8(PARAM_CAPABILITIES);
            body.put_u8(caps.len() as u8);
            body.put_slice(&caps);
        }
        let mut out = BytesMut::with_capacity(19 + body.len());
        out.put_slice(&MARKER);
        out.put_u16((19 + body.len()) as u16);
        out.put_u8(MSG_TYPE_OPEN);
        out.put_slice(&body);
        out.to_vec()
    }

    /// Decodes one OPEN from the front of `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let body = read_message(buf, MSG_TYPE_OPEN)?;
        let mut body = &body[..];
        if body.remaining() < 10 {
            return Err(WireError::Truncated {
                context: "OPEN body",
                expected: 10 - body.remaining(),
            });
        }
        let version = body.get_u8();
        if version != 4 {
            return Err(WireError::BadLength {
                context: "BGP version",
                declared: usize::from(version),
            });
        }
        let as16 = body.get_u16();
        let hold_time = body.get_u16();
        let bgp_id = body.get_u32();
        let opt_len = usize::from(body.get_u8());
        if body.remaining() < opt_len {
            return Err(WireError::Truncated {
                context: "OPEN optional parameters",
                expected: opt_len - body.remaining(),
            });
        }
        let mut params = &body[..opt_len];
        let mut capabilities = Vec::new();
        while params.has_remaining() {
            if params.remaining() < 2 {
                return Err(WireError::Truncated {
                    context: "optional parameter header",
                    expected: 2 - params.remaining(),
                });
            }
            let ptype = params.get_u8();
            let plen = usize::from(params.get_u8());
            if params.remaining() < plen {
                return Err(WireError::Truncated {
                    context: "optional parameter value",
                    expected: plen - params.remaining(),
                });
            }
            let mut pval = &params[..plen];
            params.advance(plen);
            if ptype != PARAM_CAPABILITIES {
                continue;
            }
            while pval.has_remaining() {
                if pval.remaining() < 2 {
                    return Err(WireError::Truncated {
                        context: "capability header",
                        expected: 2 - pval.remaining(),
                    });
                }
                let code = pval.get_u8();
                let clen = usize::from(pval.get_u8());
                if pval.remaining() < clen {
                    return Err(WireError::Truncated {
                        context: "capability value",
                        expected: clen - pval.remaining(),
                    });
                }
                let value = &pval[..clen];
                capabilities.push(Capability::decode(code, value)?);
                pval.advance(clen);
            }
        }
        // Reconstruct the true ASN: the capability wins over the 16-bit field.
        let asn = capabilities
            .iter()
            .find_map(|c| match c {
                Capability::FourByteAsn(a) => Some(*a),
                _ => None,
            })
            .unwrap_or(Asn(u32::from(as16)));
        Ok(OpenMessage {
            asn,
            hold_time,
            bgp_id,
            capabilities,
        })
    }
}

/// Negotiated session properties derived from the two OPENs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionParams {
    /// ASN encoding for UPDATE messages: 4-byte iff both sides advertise the
    /// RFC 6793 capability.
    pub asn_encoding: crate::attrs::AsnEncoding,
    /// Agreed hold time (minimum of the two proposals).
    pub hold_time: u16,
}

/// Negotiates session parameters from both OPENs.
#[must_use]
pub fn negotiate(local: &OpenMessage, remote: &OpenMessage) -> SessionParams {
    let four_byte = local.four_byte_asn().is_some() && remote.four_byte_asn().is_some();
    SessionParams {
        asn_encoding: if four_byte {
            crate::attrs::AsnEncoding::FourByte
        } else {
            crate::attrs::AsnEncoding::TwoByte
        },
        hold_time: local.hold_time.min(remote.hold_time),
    }
}

/// A BGP NOTIFICATION message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotificationMessage {
    /// Error code.
    pub code: u8,
    /// Error subcode.
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Vec<u8>,
}

impl NotificationMessage {
    /// Encodes the message (header included).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = BytesMut::with_capacity(21 + self.data.len());
        out.put_slice(&MARKER);
        out.put_u16((21 + self.data.len()) as u16);
        out.put_u8(MSG_TYPE_NOTIFICATION);
        out.put_u8(self.code);
        out.put_u8(self.subcode);
        out.put_slice(&self.data);
        out.to_vec()
    }

    /// Decodes one NOTIFICATION from the front of `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let body = read_message(buf, MSG_TYPE_NOTIFICATION)?;
        let [code, subcode, ref data @ ..] = body[..] else {
            return Err(WireError::Truncated {
                context: "NOTIFICATION body",
                expected: 2 - body.len(),
            });
        };
        Ok(NotificationMessage {
            code,
            subcode,
            data: data.to_vec(),
        })
    }
}

/// Encodes a KEEPALIVE message.
#[must_use]
pub fn keepalive() -> Vec<u8> {
    let mut out = BytesMut::with_capacity(19);
    out.put_slice(&MARKER);
    out.put_u16(19);
    out.put_u8(MSG_TYPE_KEEPALIVE);
    out.to_vec()
}

/// Reads one message of the expected type and returns its body.
fn read_message<B: Buf>(buf: &mut B, expected_type: u8) -> Result<Vec<u8>, WireError> {
    if buf.remaining() < 19 {
        return Err(WireError::Truncated {
            context: "BGP header",
            expected: 19 - buf.remaining(),
        });
    }
    let mut marker = [0u8; 16];
    buf.copy_to_slice(&mut marker);
    if marker != MARKER {
        return Err(WireError::BadMarker);
    }
    let length = usize::from(buf.get_u16());
    let msg_type = buf.get_u8();
    if msg_type != expected_type {
        return Err(WireError::UnexpectedMessageType { found: msg_type });
    }
    if !(19..=crate::update::MAX_MESSAGE_SIZE).contains(&length) {
        return Err(WireError::BadLength {
            context: "BGP message length",
            declared: length,
        });
    }
    let body_len = length - 19;
    if buf.remaining() < body_len {
        return Err(WireError::Truncated {
            context: "BGP message body",
            expected: body_len - buf.remaining(),
        });
    }
    let mut body = vec![0u8; body_len];
    buf.copy_to_slice(&mut body);
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsnEncoding;

    #[test]
    fn open_roundtrip_modern() {
        let open = OpenMessage::modern(Asn(200_100), 0x0A00_0001);
        let bytes = open.encode();
        let mut slice = &bytes[..];
        let decoded = OpenMessage::decode(&mut slice).unwrap();
        assert!(slice.is_empty());
        assert_eq!(decoded, open);
        assert_eq!(decoded.asn, Asn(200_100));
        assert_eq!(decoded.four_byte_asn(), Some(Asn(200_100)));
    }

    #[test]
    fn open_roundtrip_legacy() {
        let open = OpenMessage::legacy(Asn(65_010), 7);
        let bytes = open.encode();
        let mut slice = &bytes[..];
        let decoded = OpenMessage::decode(&mut slice).unwrap();
        assert_eq!(decoded.asn, Asn(65_010));
        assert_eq!(decoded.four_byte_asn(), None);
    }

    #[test]
    fn four_byte_asn_in_16bit_field_becomes_as_trans() {
        let open = OpenMessage::modern(Asn(200_100), 1);
        let bytes = open.encode();
        // The My-AS field sits at offset 20..22.
        let as16 = u16::from_be_bytes([bytes[20], bytes[21]]);
        assert_eq!(u32::from(as16), AS_TRANS.0);
    }

    #[test]
    fn negotiation_requires_both_sides() {
        let modern_a = OpenMessage::modern(Asn(1), 1);
        let modern_b = OpenMessage::modern(Asn(2), 2);
        let legacy = OpenMessage::legacy(Asn(65_000), 3);
        assert_eq!(
            negotiate(&modern_a, &modern_b).asn_encoding,
            AsnEncoding::FourByte
        );
        assert_eq!(
            negotiate(&modern_a, &legacy).asn_encoding,
            AsnEncoding::TwoByte
        );
        assert_eq!(
            negotiate(&legacy, &modern_a).asn_encoding,
            AsnEncoding::TwoByte
        );
        let p = negotiate(
            &OpenMessage {
                hold_time: 90,
                ..OpenMessage::modern(Asn(1), 1)
            },
            &modern_b,
        );
        assert_eq!(p.hold_time, 90);
    }

    #[test]
    fn notification_and_keepalive_roundtrip() {
        let n = NotificationMessage {
            code: 6,
            subcode: 2, // administrative shutdown
            data: b"maintenance".to_vec(),
        };
        let bytes = n.encode();
        let mut slice = &bytes[..];
        assert_eq!(NotificationMessage::decode(&mut slice).unwrap(), n);

        let ka = keepalive();
        assert_eq!(ka.len(), 19);
        assert_eq!(ka[18], MSG_TYPE_KEEPALIVE);
    }

    #[test]
    fn unknown_capability_preserved() {
        let open = OpenMessage {
            asn: Asn(64_999),
            hold_time: 180,
            bgp_id: 9,
            capabilities: vec![Capability::Unknown {
                code: 73,
                value: vec![1, 2, 3],
            }],
        };
        let bytes = open.encode();
        let mut slice = &bytes[..];
        let decoded = OpenMessage::decode(&mut slice).unwrap();
        assert_eq!(decoded, open);
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut empty: &[u8] = &[];
        assert!(OpenMessage::decode(&mut empty).is_err());
        let open = OpenMessage::modern(Asn(1), 1);
        let mut bytes = open.encode();
        bytes[19] = 3; // version 3
        let mut slice = &bytes[..];
        assert!(OpenMessage::decode(&mut slice).is_err());
        for cut in [5, 18, 21, 25] {
            let bytes = open.encode();
            let mut slice = &bytes[..cut.min(bytes.len())];
            assert!(OpenMessage::decode(&mut slice).is_err());
        }
    }
}
