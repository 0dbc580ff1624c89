//! Valley-free path validation (Gao 2001).
//!
//! A path is valley-free when, read from the origin outward, it climbs
//! customer→provider links, crosses at most one peering link, and then only
//! descends provider→customer links. Sibling links are transparent (an org's
//! ASes act as one).

use crate::asn::Asn;
use crate::link::Link;
use crate::rel::Rel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a path violates the valley-free property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValleyViolation {
    /// An uphill (customer→provider) step after the path already went
    /// lateral or downhill — the classic valley.
    UphillAfterTurn {
        /// Index (into the hop list) of the offending step's receiver.
        at: usize,
    },
    /// A second lateral (peer) step after the path already turned.
    SecondLateral {
        /// Index of the offending step's receiver.
        at: usize,
    },
    /// Two adjacent hops have no link in the graph.
    UnknownLink {
        /// Index of the step's receiver.
        at: usize,
    },
}

impl fmt::Display for ValleyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValleyViolation::UphillAfterTurn { at } => {
                write!(f, "uphill step after the path turned (hop {at})")
            }
            ValleyViolation::SecondLateral { at } => {
                write!(f, "second peering step (hop {at})")
            }
            ValleyViolation::UnknownLink { at } => write!(f, "unknown link at hop {at}"),
        }
    }
}

/// Checks a path (receiver-first, origin-last, prepending tolerated) against
/// the relationships `rel_of` looks up, `None` for a link it does not know.
///
/// Steps are classified from the exporter's perspective walking origin→
/// receiver: customer→provider steps are uphill, peer steps lateral,
/// provider→customer steps downhill, sibling steps neutral.
pub fn check_valley_free(
    rel_of: impl Fn(Link) -> Option<Rel>,
    hops: &[Asn],
) -> Result<(), ValleyViolation> {
    // Walk from the origin (end) towards the receiver (front). A prepended
    // hop pairs with itself, which is no link, and is skipped.
    let mut turned = false; // saw a lateral or downhill step already
    for (i, w) in hops.windows(2).enumerate().rev() {
        // w[1] exported the route to w[0].
        let Some(link) = Link::new(w[0], w[1]) else {
            continue;
        };
        let rel = rel_of(link).ok_or(ValleyViolation::UnknownLink { at: i })?;
        match rel {
            // Receiver w[0] is the provider: w[1] exported up.
            Rel::P2c { provider } if provider == w[0] => {
                if turned {
                    return Err(ValleyViolation::UphillAfterTurn { at: i });
                }
            }
            // Receiver is the customer: downhill.
            Rel::P2c { .. } => {
                turned = true;
            }
            Rel::P2p => {
                if turned {
                    return Err(ValleyViolation::SecondLateral { at: i });
                }
                turned = true;
            }
            Rel::S2s => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Hierarchy: 1 and 2 are peers at the top; 1→3→5, 2→4.
    fn graph() -> impl Fn(Link) -> Option<Rel> {
        let l = |a: u32, b: u32| Link::new(Asn(a), Asn(b)).unwrap();
        let p2c = |p: u32| Rel::P2c { provider: Asn(p) };
        let rels = BTreeMap::from([
            (l(1, 2), Rel::P2p),
            (l(1, 3), p2c(1)),
            (l(3, 5), p2c(3)),
            (l(2, 4), p2c(2)),
            (l(3, 4), Rel::P2p),
            (l(5, 6), Rel::S2s),
        ]);
        move |link| rels.get(&link).copied()
    }

    fn hops(h: &[u32]) -> Vec<Asn> {
        h.iter().map(|&x| Asn(x)).collect()
    }

    #[test]
    fn classic_up_peer_down_is_valley_free() {
        let g = graph();
        // Origin 5 → up 3 → up 1 → peer 2 → down 4.
        assert!(check_valley_free(&g, &hops(&[4, 2, 1, 3, 5])).is_ok());
        // Pure downhill observation.
        assert!(check_valley_free(&g, &hops(&[1, 3, 5])).is_ok());
        // Prepending tolerated.
        assert!(check_valley_free(&g, &hops(&[1, 3, 5, 5, 5])).is_ok());
        // Sibling step is neutral.
        assert!(check_valley_free(&g, &hops(&[1, 3, 5, 6])).is_ok());
    }

    #[test]
    fn valley_is_detected() {
        let g = graph();
        // 4 exported a 2-side route to its peer 3: route went down (2→4) then
        // lateral (4→3): second turn → violation at the 3–4 step.
        assert!(matches!(
            check_valley_free(&g, &hops(&[3, 4, 2])),
            Err(ValleyViolation::SecondLateral { .. })
        ));
        // Up after down: origin 4, down to... 2→4 is down from 2; then 2
        // received from its peer 1 — fine; but 3 exporting a 4-side route up
        // to 1 after the lateral 3–4 step is a valley.
        assert!(matches!(
            check_valley_free(&g, &hops(&[1, 3, 4])),
            Err(ValleyViolation::UphillAfterTurn { .. })
        ));
    }

    #[test]
    fn unknown_link_is_reported() {
        let g = graph();
        assert!(matches!(
            check_valley_free(&g, &hops(&[1, 99])),
            Err(ValleyViolation::UnknownLink { .. })
        ));
    }
}
