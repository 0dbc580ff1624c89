//! # breval — how biased is our validation (data) for AS relationships?
//!
//! Umbrella crate for the `breval` workspace, a full Rust reproduction of
//! Prehn & Feldmann's IMC 2021 study over a simulated Internet. Re-exports
//! every substrate so examples and downstream users need a single dependency:
//!
//! * [`asgraph`] — AS-level graph model (ASNs, links, relationships, cones,
//!   cliques, AS paths).
//! * [`asregistry`] — IANA/RIR registry formats and the ASN→region mapping.
//! * [`bgpwire`] — BGP UPDATE and MRT `TABLE_DUMP_V2` wire formats.
//! * [`topogen`] — seeded Internet-like topology generation with ground
//!   truth.
//! * [`bgpsim`] — Gao–Rexford route propagation, communities, looking glass.
//! * [`asinfer`] — ASRank / ProbLink / TopoScope / Gao classifiers.
//! * [`valdata`] — community/RPSL/direct-report validation compilation.
//! * [`analysis`] (= `breval-core`) — the paper's bias & correctness
//!   analyses, scenario pipeline and report rendering.
//! * [`obs`] (= `breval-obs`) — span timers, metrics, and run manifests
//!   (enabled via the `BREVAL_OBS` environment variable).
//! * [`par`] (= `breval-par`) — work-stealing parallel execution layer
//!   (thread cap via `BREVAL_THREADS` / `par::set_max_threads`).
//!
//! ## Quickstart
//!
//! ```
//! use breval::analysis::{Scenario, ScenarioConfig};
//!
//! let scenario = Scenario::run(ScenarioConfig::small(7));
//! let fig2 = scenario.fig2();
//! assert!(fig2.iter().any(|row| row.class == "S-TR"));
//! ```

#![warn(missing_docs)]

pub use asgraph;
pub use asinfer;
pub use asregistry;
pub use bgpsim;
pub use bgpwire;
pub use breval_core as analysis;
pub use breval_obs as obs;
pub use breval_par as par;
pub use topogen;
pub use valdata;
