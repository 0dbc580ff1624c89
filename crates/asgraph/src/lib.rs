//! # asgraph — AS-level graph substrate
//!
//! Core data model shared by the whole `breval` workspace:
//!
//! * [`Asn`] — autonomous-system numbers, including the IANA-reserved ranges and
//!   the `AS_TRANS` placeholder relevant to validation-label cleaning (§4.2 of the
//!   paper).
//! * [`Link`] — an undirected, normalised AS adjacency.
//! * [`Rel`] / [`GtRel`] — simple and ground-truth (complex) business relationships.
//! * [`AsGraph`] — a validated relationship labelling (one [`Rel`] per
//!   [`Link`]), which [`CsrGraph::build`] turns into neighbour rows by role.
//! * [`PathSet`] — observed BGP AS paths, each once and prepend-compressed in one
//!   flat array, with the derived statistics ([`PathStats`]: node degree, transit
//!   degree, vantage-point visibility, keyed by dense AS and link ids) that the
//!   inference algorithms in `asinfer` consume.
//! * [`clique`] — Tier-1 clique inference over transit-degree rankings, as used by
//!   the ASRank pipeline.
//! * [`AsIndexer`] / [`CsrGraph`] — the dense core and the one adjacency
//!   layout: sorted-ASN ↔ `u32` id interning plus role-segmented CSR rows
//!   ([`NeighborRole`]), so the hot analysis kernels (cone BFS, PPDC
//!   bitsets, class partition, path statistics) and every neighbour query
//!   run over flat arrays and only convert back to [`Asn`] at serialization
//!   boundaries.
//!   [`HopIds`] and [`LinkIds`] read path hops and hop pairs as those ids.
//!
//! The crate is dependency-light (only `serde`) and purely computational.

#![warn(missing_docs)]

pub mod asn;
pub mod clique;
pub mod cone;
pub mod csr;
pub mod error;
pub mod graph;
pub mod index;
pub mod io;
pub mod link;
pub mod paths;
pub mod rel;
pub mod valley;

pub use asn::Asn;
pub use cone::{ConeSizes, PpdcCones, PpdcStorageStats};
pub use csr::{ConeScratch, CsrGraph, NeighborRole};
pub use error::GraphError;
pub use graph::AsGraph;
pub use index::{AsIndexer, HopIds};
pub use link::Link;
pub use paths::{has_loop, AsPath, LinkIds, PathSet, PathStats, RawHops};
pub use rel::{GtRel, Rel, RelClass};
pub use valley::{check_valley_free, ValleyViolation};
