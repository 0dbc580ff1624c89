//! # bgpwire — BGP and MRT wire formats
//!
//! Byte-level encoding/decoding for the data formats the paper's measurement
//! pipeline consumes:
//!
//! * **BGP UPDATE** messages (RFC 4271) with the path attributes relevant to
//!   relationship inference and community-based validation: `ORIGIN`,
//!   `AS_PATH`, `NEXT_HOP`, `COMMUNITIES` (RFC 1997), `LARGE_COMMUNITIES`
//!   (RFC 8092), and `AS4_PATH` (RFC 6793).
//! * **2-byte vs 4-byte ASN capability** (RFC 6793): encoding for a 16-bit-only
//!   peer substitutes `AS_TRANS` (23456) into `AS_PATH` and carries the true
//!   path in `AS4_PATH`. Tooling that ignores `AS4_PATH` produces AS paths —
//!   and, downstream, validation labels — involving AS23456. This is exactly
//!   the spurious-label class the paper removes in §4.2.
//! * **BGP OPEN / KEEPALIVE / NOTIFICATION** with capability advertisement
//!   (RFC 5492): the 4-octet-AS capability negotiation is where a session's
//!   [`AsnEncoding`] comes from.
//! * **MRT** `TABLE_DUMP_V2` RIB exports (RFC 6396): `PEER_INDEX_TABLE` plus
//!   `RIB_IPV4_UNICAST` records, as published by RouteViews / RIPE RIS.
//!
//! All decoders are panic-free on arbitrary input (property-tested) and return
//! structured [`WireError`]s.

#![warn(missing_docs)]

pub mod attrs;
pub mod community;
pub mod error;
pub mod mrt;
pub mod open;
pub mod prefix;
pub mod update;

pub use attrs::{AsPathSegment, PathAttribute, SegmentKind};
pub use community::{Community, LargeCommunity};
pub use error::WireError;
pub use mrt::{MrtRecord, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast};
pub use open::{negotiate, Capability, NotificationMessage, OpenMessage, SessionParams};
pub use prefix::Ipv4Prefix;
pub use update::{AsnEncoding, UpdateMessage};
