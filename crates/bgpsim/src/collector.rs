//! Collector session establishment: the OPEN handshake that negotiates each
//! vantage point's ASN encoding.
//!
//! The topology's `two_byte_only` flag models a VP running legacy software.
//! The `AS_TRANS` pipeline downstream (the MRT export, the legacy path view,
//! the legacy validation decoder) reads that flag directly from
//! [`CollectorPeer::two_byte_only`]. This module realises the same flag as
//! an actual RFC 4271/5492 OPEN exchange (real bytes, real capability
//! negotiation), and its tests check that the negotiated encoding agrees
//! with the flag for every peer, as it would at a production collector.

use bgpwire::{negotiate, AsnEncoding, OpenMessage, SessionParams, WireError};
use serde::{Deserialize, Serialize};
use topogen::{CollectorPeer, Topology};

/// The collector's own ASN (RouteViews peers from AS6447; we use a synthetic
/// private collector AS).
pub const COLLECTOR_ASN: asgraph::Asn = asgraph::Asn(6447);

/// One established collector session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EstablishedSession {
    /// The vantage-point peer.
    pub peer: CollectorPeer,
    /// Negotiated parameters.
    pub params: SessionParams,
}

/// Performs the OPEN handshake with every collector peer, through actual
/// encoded/decoded OPEN messages.
///
/// Returns an error only if a peer's OPEN fails to round-trip (which would
/// indicate a wire-format bug — exercised in tests).
pub fn establish_sessions(topology: &Topology) -> Result<Vec<EstablishedSession>, WireError> {
    let collector_open = OpenMessage::modern(COLLECTOR_ASN, 0x0A0A_0A0A);
    let mut out = Vec::with_capacity(topology.collector_peers.len());
    for peer in &topology.collector_peers {
        // The peer speaks on the wire; the collector decodes what arrives.
        let peer_open = if peer.two_byte_only {
            OpenMessage::legacy(peer.asn, peer.asn.0)
        } else {
            OpenMessage::modern(peer.asn, peer.asn.0)
        };
        let bytes = peer_open.encode();
        let mut slice = &bytes[..];
        let received = OpenMessage::decode(&mut slice)?;
        let params = negotiate(&collector_open, &received);
        out.push(EstablishedSession {
            peer: *peer,
            params,
        });
    }
    Ok(out)
}

/// Convenience: the sessions that negotiated down to 2-byte encoding — the
/// `AS_TRANS` producers.
#[must_use]
pub fn two_byte_sessions(sessions: &[EstablishedSession]) -> Vec<CollectorPeer> {
    sessions
        .iter()
        .filter(|s| s.params.asn_encoding == AsnEncoding::TwoByte)
        .map(|s| s.peer)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen::TopologyConfig;

    #[test]
    fn negotiation_matches_peer_software() {
        let topo = topogen::generate(&TopologyConfig::small(9));
        let sessions = establish_sessions(&topo).expect("handshakes round-trip");
        assert_eq!(sessions.len(), topo.collector_peers.len());
        for s in &sessions {
            let expected = if s.peer.two_byte_only {
                AsnEncoding::TwoByte
            } else {
                AsnEncoding::FourByte
            };
            assert_eq!(
                s.params.asn_encoding, expected,
                "session with {} negotiated wrong encoding",
                s.peer.asn
            );
        }
        // The legacy sessions are exactly the flagged ones.
        let legacy = two_byte_sessions(&sessions);
        let flagged: Vec<_> = topo
            .collector_peers
            .iter()
            .filter(|p| p.two_byte_only)
            .copied()
            .collect();
        assert_eq!(legacy, flagged);
        assert!(!legacy.is_empty(), "small config should have legacy VPs");
    }

    #[test]
    fn hold_time_is_minimum() {
        let topo = topogen::generate(&TopologyConfig::small(9));
        let sessions = establish_sessions(&topo).unwrap();
        for s in sessions {
            assert_eq!(s.params.hold_time, 180);
        }
    }
}
