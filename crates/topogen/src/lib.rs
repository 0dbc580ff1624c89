//! # topogen — synthetic Internet topology generator
//!
//! Generates a seeded, Internet-like AS-level topology with **ground-truth**
//! business relationships. This substitutes for the real (unobservable)
//! Internet: the paper's bias mechanisms are structural, so the generator
//! exposes an explicit knob for each of them:
//!
//! * a Tier-1 clique with a *partial-transit* program on a Cogent-like member
//!   (the §6.1 mechanism),
//! * a regional transit hierarchy + stubs with preferential attachment,
//! * hypergiants with dense settlement-free peering,
//! * per-region IXP peering meshes (LACNIC's dense local peering is what makes
//!   `L°` ~14 % of links while staying invisible to validation),
//! * special stubs (anycast DNS, research, cloud, CDN) that *peer* with
//!   Tier-1s — the `S-T1` P2P class all classifiers fail on,
//! * per-PoP hybrid links and same-organisation sibling links (§4.2),
//! * per-(region, tier) BGP-community *publication* probabilities — the causal
//!   source of validation-coverage bias, and
//! * 16-/32-bit ASN allocation per region, feeding the `AS_TRANS` artefacts.
//!
//! The output [`Topology`] also emits registry artefacts (IANA table, RIR
//! delegation files, AS2Org) in their real text formats via `asregistry`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod churn;
pub mod config;
pub mod generate;
pub mod model;
mod picker;

pub use churn::{evolve, evolve_steps, ChurnConfig, ChurnReport};
pub use config::TopologyConfig;
pub use generate::generate;
pub use model::{debug_digest, AsInfo, CollectorPeer, Ixp, SpecialRole, TierClass, Topology};

#[cfg(test)]
/// `true` if no AS of `graph` is its own transitive provider: a DFS over
/// the customer rows.
pub(crate) fn provider_cycle_free(graph: &asgraph::CsrGraph) -> bool {
    // 0 = unseen, 1 = on the DFS path, 2 = finished.
    fn visit(g: &asgraph::CsrGraph, id: u32, state: &mut [u8]) -> bool {
        match state[id as usize] {
            1 => return false,
            2 => return true,
            _ => {}
        }
        state[id as usize] = 1;
        if !g.customers(id).iter().all(|&c| visit(g, c, state)) {
            return false;
        }
        state[id as usize] = 2;
        true
    }
    let mut state = vec![0; graph.node_count()];
    (0..graph.node_count() as u32).all(|id| visit(graph, id, &mut state))
}
