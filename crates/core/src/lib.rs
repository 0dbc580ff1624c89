//! # breval-core — how biased is our validation (data)?
//!
//! The paper's analysis pipeline over the simulated world:
//!
//! * [`cleaning`] — §4.2 label-quality census and cleaning (spurious
//!   `AS_TRANS`/reserved entries, ambiguous multi-label treatment, sibling
//!   removal via AS2Org).
//! * [`classes`] — §5 link classes: regional (via the IANA + delegation-file
//!   region map) and topological (Stub/Transit refined by Tier-1 and
//!   hypergiant lists over inferred customer cones).
//! * [`coverage`] — Figs. 1–2: per-class link share vs validation coverage.
//! * [`heatmap`] — Figs. 3, 7–9: 2D binned link distributions (transit
//!   degree, PPDC customer cone, node degree).
//! * [`metrics`] — confusion matrices, PPV/TPR/F1/balanced accuracy, MCC and
//!   Fowlkes–Mallows; per-class evaluation tables (Tables 1–3).
//! * [`sampling`] — Appendix A: sub-sampling robustness (Figs. 4–6).
//! * [`linkfeatures`] — Appendix C: the twelve proposed per-link metrics.
//! * [`hardlinks`] — §3.3: Jin et al.'s hard-link criteria and the
//!   validation-skew measurement.
//! * [`timeline`] — §7: validation staleness vs the re-sampling gain under
//!   topology churn.
//! * [`casestudy`] — §6.1: the Cogent partial-transit forensics.
//! * [`sanitize`] — domain-invariant checks (graph well-formedness, P2C
//!   acyclicity, path hygiene, valley-free sanity, validation ⊆ inferred,
//!   class-partition completeness) asserted at stage boundaries in debug
//!   builds and standalone via `cargo run -p xtask -- sanitize`.
//! * [`snapshot`] — per-classifier immutable analysis snapshots (CSR graph,
//!   cones, PPDC bitsets, scored-link join) shared behind `Arc`s, plus the
//!   validated flat binary format that reloads them in milliseconds.
//! * [`pipeline`] — one-call scenario driver wiring all substrate crates.
//! * [`report`] — text/CSV renderers for every table and figure.

#![warn(missing_docs)]

pub mod casestudy;
pub mod classes;
pub mod cleaning;
pub mod coverage;
pub mod hardlinks;
pub mod heatmap;
pub mod linkfeatures;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod sampling;
pub mod sanitize;
pub mod snapshot;
pub mod timeline;

pub use classes::{LinkClassifier, RegionClass, TopoClass, TopoIndex};
pub use cleaning::{AmbiguousPolicy, CleanValidation, CleaningConfig, CleaningReport};
pub use coverage::{coverage_by_class, coverage_by_class_keyed, ClassCoverage};
pub use heatmap::{Heatmap, HeatmapConfig};
pub use metrics::{ClassEval, ConfusionMatrix, EvalTable};
pub use pipeline::{Scenario, ScenarioConfig};
pub use snapshot::{ScenarioSnapshot, SnapshotError, SnapshotKey};
