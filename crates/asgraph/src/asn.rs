//! Autonomous-system numbers and the IANA special-purpose ranges.
//!
//! The reserved ranges matter to the paper's §4.2 label cleaning: validation
//! entries involving `AS_TRANS` (23456) or documentation/private ASNs are
//! spurious and must be dropped before evaluation.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An autonomous-system number (32-bit, per RFC 6793).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Asn(pub u32);

/// The `AS_TRANS` placeholder (RFC 6793): substituted for 32-bit ASNs in
/// messages to 16-bit-only BGP speakers. It never identifies a real network.
pub const AS_TRANS: Asn = Asn(23456);

/// Why an ASN is unsuitable as a business-relationship endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReservedReason {
    /// ASN 0, reserved by RFC 7607.
    Zero,
    /// `AS_TRANS` (23456), RFC 6793.
    AsTrans,
    /// Documentation range 64496–64511 (RFC 5398) or 65536–65551.
    Documentation,
    /// Private-use range 64512–65534 or 4200000000–4294967294 (RFC 6996).
    PrivateUse,
    /// 65535 and 4294967295, reserved by RFC 7300.
    LastInRange,
    /// 65552–131071, IANA reserved.
    IanaReserved,
}

impl Asn {
    /// `true` if the ASN requires 4-byte encoding on the wire (RFC 6793).
    #[must_use]
    pub fn is_four_byte(self) -> bool {
        self.0 > u32::from(u16::MAX)
    }

    /// `true` for the `AS_TRANS` placeholder.
    #[must_use]
    pub fn is_as_trans(self) -> bool {
        self == AS_TRANS
    }

    /// The ASN as a 16-bit-only speaker sees it: `AS_TRANS` in place of a
    /// 4-byte ASN (RFC 6793), the ASN itself otherwise.
    #[must_use]
    pub fn to_two_byte(self) -> Asn {
        if self.is_four_byte() {
            AS_TRANS
        } else {
            self
        }
    }

    /// Classifies the ASN against the IANA special-purpose registry.
    ///
    /// Returns `None` for globally-assignable ASNs, `Some(reason)` otherwise.
    #[must_use]
    pub fn reserved_reason(self) -> Option<ReservedReason> {
        match self.0 {
            0 => Some(ReservedReason::Zero),
            23456 => Some(ReservedReason::AsTrans),
            64496..=64511 | 65536..=65551 => Some(ReservedReason::Documentation),
            64512..=65534 | 4_200_000_000..=4_294_967_294 => Some(ReservedReason::PrivateUse),
            65535 | 4_294_967_295 => Some(ReservedReason::LastInRange),
            65552..=131_071 => Some(ReservedReason::IanaReserved),
            _ => None,
        }
    }

    /// `true` if the ASN should never appear as a business-relationship endpoint.
    #[must_use]
    pub fn is_reserved(self) -> bool {
        self.reserved_reason().is_some()
    }

    /// `true` if the ASN is publicly routable (assignable and not `AS_TRANS`).
    #[must_use]
    pub fn is_public(self) -> bool {
        !self.is_reserved()
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl From<Asn> for u32 {
    fn from(v: Asn) -> Self {
        v.0
    }
}

/// Error parsing an ASN from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsnError(String);

impl fmt::Display for ParseAsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ASN: {:?}", self.0)
    }
}

impl std::error::Error for ParseAsnError {}

impl FromStr for Asn {
    type Err = ParseAsnError;

    /// Parses `"65000"` or the `"AS65000"` form (case-insensitive prefix).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .or_else(|| s.strip_prefix("As"))
            .unwrap_or(s);
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| ParseAsnError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let a = Asn(3356);
        assert_eq!(a.to_string(), "AS3356");
        assert_eq!("AS3356".parse::<Asn>().unwrap(), a);
        assert_eq!("3356".parse::<Asn>().unwrap(), a);
        assert_eq!("as3356".parse::<Asn>().unwrap(), a);
        assert!("ASxyz".parse::<Asn>().is_err());
        assert!("".parse::<Asn>().is_err());
    }

    #[test]
    fn as_trans_is_reserved() {
        assert!(AS_TRANS.is_as_trans());
        assert_eq!(AS_TRANS.reserved_reason(), Some(ReservedReason::AsTrans));
        assert!(!AS_TRANS.is_public());
    }

    #[test]
    fn reserved_ranges_match_iana() {
        assert_eq!(Asn(0).reserved_reason(), Some(ReservedReason::Zero));
        assert_eq!(
            Asn(64496).reserved_reason(),
            Some(ReservedReason::Documentation)
        );
        assert_eq!(
            Asn(64511).reserved_reason(),
            Some(ReservedReason::Documentation)
        );
        assert_eq!(
            Asn(64512).reserved_reason(),
            Some(ReservedReason::PrivateUse)
        );
        assert_eq!(
            Asn(65534).reserved_reason(),
            Some(ReservedReason::PrivateUse)
        );
        assert_eq!(
            Asn(65535).reserved_reason(),
            Some(ReservedReason::LastInRange)
        );
        assert_eq!(
            Asn(65536).reserved_reason(),
            Some(ReservedReason::Documentation)
        );
        assert_eq!(
            Asn(65552).reserved_reason(),
            Some(ReservedReason::IanaReserved)
        );
        assert_eq!(
            Asn(4_200_000_000).reserved_reason(),
            Some(ReservedReason::PrivateUse)
        );
        assert_eq!(
            Asn(u32::MAX).reserved_reason(),
            Some(ReservedReason::LastInRange)
        );
    }

    #[test]
    fn ordinary_asns_are_public() {
        for asn in [1, 174, 3356, 23455, 23457, 131_072, 200_000] {
            assert!(Asn(asn).is_public(), "AS{asn} should be public");
        }
    }

    #[test]
    fn four_byte_detection() {
        assert!(!Asn(65535).is_four_byte());
        assert!(Asn(65536).is_four_byte());
    }
}
