//! # asinfer — AS-relationship inference algorithms
//!
//! Reimplementations of the classifiers the paper evaluates. None of them is
//! available as reusable open source (ProbLink and TopoScope are Python
//! research artifacts; ASRank's production pipeline is CAIDA-internal), so the
//! paper's comparison requires rebuilding them. Each follows the published
//! algorithm's *structure*; corner-case heuristics are simplified where the
//! original relies on external data we do not model (IXP colocation lists,
//! BGP communities as classifier input, …). The simplifications are listed in
//! `DESIGN.md`.
//!
//! * [`gao::GaoClassifier`] — Gao 2001: degree-apex heuristic, valley-free
//!   maximisation.
//! * [`asrank::AsRank`] — Luckie et al. 2013: clique + triplet-cascade P2C
//!   inference + stub heuristics, remainder P2P.
//! * [`problink::ProbLink`] — Jin et al. 2019: iterative naive-Bayes
//!   refinement over link features, seeded by ASRank.
//! * [`toposcope::TopoScope`] — Jin et al. 2020: vantage-point ensemble with
//!   reconciliation.
//! * [`unari::Unari`] — an UNARI-style uncertainty-aware classifier (Feng et
//!   al. 2019); the paper could not analyse UNARI for lack of public
//!   artifacts, so this provides the missing belief surface.
//!
//! The common economic rule everything builds on: in an observed path
//! `… w u v …` (collector side first), `u` exported the `v`-side route to
//! `w`. If `w` is known not to be `u`'s customer (e.g. both are clique
//! members, or `w` is already inferred as `u`'s peer/provider), then by
//! Gao–Rexford export rules `u` must have learned the route from a customer —
//! so `v` is `u`'s customer, and the inference cascades along the rest of the
//! path. A provider that never re-exports a customer's routes upward (partial
//! transit, §6.1) starves this rule of evidence, and the link defaults to P2P.

#![warn(missing_docs)]

pub mod asrank;
pub mod common;
pub mod features;
pub mod gao;
pub mod problink;
pub mod serial;
pub mod toposcope;
pub mod unari;

pub use asrank::AsRank;
pub use common::{
    break_provider_cycles, break_provider_cycles_in_rels, Classifier, CycleBreakReport, Inference,
    PreparedPaths,
};
pub use gao::GaoClassifier;
pub use problink::ProbLink;
pub use toposcope::TopoScope;
pub use unari::Unari;
