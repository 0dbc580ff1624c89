//! # bgpsim — BGP route propagation substrate
//!
//! Simulates interdomain routing over a [`topogen::Topology`] under the
//! Gao–Rexford model:
//!
//! * route preference: customer-learned > peer-learned > provider-learned,
//!   then shortest AS path, then lowest next-hop ASN;
//! * selective export: routes learned from customers (or originated) are
//!   exported everywhere; routes learned from peers/providers are exported to
//!   customers only;
//! * **community-scoped export**: a partial-transit customer tags its routes
//!   with its provider's `…:990` action community, which stops the provider
//!   from exporting them to its peers and providers (the §6.1 Cogent
//!   mechanism) — the tag itself is stripped before further redistribution,
//!   so it is visible in the provider's own RIB (looking glass) but not at
//!   route collectors;
//! * sibling (S2S) links exchange all routes in both directions;
//! * path prepending on upward/lateral exports for ASes with the habit
//!   (region-dependent, after Marcos et al. 2020).
//!
//! The output is a [`RibSnapshot`]: the routes observed at each collector-peer
//! vantage point, with their AS paths held in the same [`asgraph::PathSet`]
//! store the inference algorithms consume (path *i* belongs to observation
//! *i*). It exports to real MRT `TABLE_DUMP_V2` bytes via `bgpwire`. A
//! [`LookingGlass`] answers per-AS RIB queries for the case study.
//!
//! Both read only a few ASes' routes, so neither floods provider routes over
//! the whole graph: a [`Scope`] closes the ASes read (the vantage points, or
//! the queried AS) under "provider of" and "sibling of", and a
//! [`Propagator::with_scope`] computes exact routes there and only there.
//! [`Propagator::new`] computes every AS's route.

#![warn(missing_docs)]

pub mod collector;
pub mod communities;
pub mod lg;
pub mod propagate;
pub mod simgraph;
pub mod snapshot;

pub use collector::{establish_sessions, EstablishedSession};
pub use lg::{LgRoute, LookingGlass};
pub use propagate::{OriginRoutes, PropScratch, Propagator, RouteClass, Scope};
pub use simgraph::SimGraph;
pub use snapshot::{simulate, simulate_with_graph, RibSnapshot, RouteObservation};
