//! # valdata — validation-data compilation substrate
//!
//! Rebuilds the three validation sources of Luckie et al. 2013 (§3.2 of the
//! paper) against the simulated world:
//!
//! 1. **BGP communities** ([`compile::compile_communities`]) — the
//!    "best-effort" source every recent evaluation relies on: decode the
//!    informational communities on collector-visible routes using the
//!    *published* dictionaries only. Coverage bias emerges causally: an AS
//!    that does not document its communities (most LACNIC ASes, most stubs)
//!    contributes no labels. The decoder reads the RIB's path store in
//!    place, on the node ids of the topology's ground-truth graph, and
//!    decodes a hop pair only when its first hop tags a decodable
//!    community.
//! 2. **RPSL / WHOIS** ([`rpsl`]) — `aut-num` routing-policy objects in real
//!    RPSL syntax, with configurable staleness (records lag the topology).
//! 3. **Direct reports** ([`report`]) — a small unbiased ground-truth sample
//!    (operator survey / web form).
//!
//! The §4.2 label-quality problems all arise mechanically:
//!
//! * `AS_TRANS` labels from a legacy decoding pipeline that ignores
//!   `AS4_PATH` on 16-bit collector sessions,
//! * reserved-ASN labels from private-ASN route leaks,
//! * multi-label (ambiguous) entries from per-PoP hybrid relationships,
//! * sibling-link labels (dropped later via AS2Org, not here),
//! * occasional stale/wrong dictionary interpretations.

#![warn(missing_docs)]

pub mod compile;
pub mod config;
pub mod report;
pub mod rpsl;
pub mod set;

pub use compile::compile_communities;
pub use config::ValDataConfig;
pub use report::direct_reports;
pub use set::{LabelRecord, LabelSource, ValidationSet};

/// Compiles the full validation set from all three sources, over a
/// ground-truth graph built here. See [`compile_all_on_graph`].
#[must_use]
pub fn compile_all(
    topology: &topogen::Topology,
    snapshot: &bgpsim::RibSnapshot,
    cfg: &ValDataConfig,
) -> ValidationSet {
    compile_all_on_graph(topology, &topology.ground_truth_graph(), snapshot, cfg)
}

/// Compiles the full validation set from all three sources over `graph`,
/// the topology's [`topogen::Topology::ground_truth_graph`] (for example
/// the one [`bgpsim::SimGraph`] holds), which the community decoder and the
/// RPSL objects both read.
#[must_use]
pub fn compile_all_on_graph(
    topology: &topogen::Topology,
    graph: &asgraph::CsrGraph,
    snapshot: &bgpsim::RibSnapshot,
    cfg: &ValDataConfig,
) -> ValidationSet {
    let _span = breval_obs::span!("compile_validation");
    let mut set = compile::compile_on_graph(topology, graph, snapshot, cfg);
    let rpsl_objects = rpsl::generate_autnums(topology, graph, cfg);
    set.merge(rpsl::labels_from_autnums(&rpsl_objects, cfg));
    set.merge(direct_reports(topology, cfg));
    breval_obs::counter("validation_labels_compiled", set.len() as u64);
    set
}
