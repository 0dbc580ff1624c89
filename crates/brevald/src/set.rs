//! One query-ready generation: every classifier's fully-materialised
//! snapshot plus the region×topology slice index, resolved into direct
//! `Arc`s so the hot query path never touches a `OnceLock` accessor.
//!
//! A [`SnapshotSet`] is immutable after construction — building one (from
//! a finished [`Scenario`] or by warm-loading the PR 8 binary format) is
//! the *only* place parts are resolved, and a snapshot missing any part is
//! an explicit [`SnapshotError::Incomplete`] instead of a silently empty
//! answer table.

use crate::slices::{SliceIndex, SliceTable};
use asgraph::{ConeSizes, CsrGraph, PpdcCones};
use breval_core::metrics::ScoredLink;
use breval_core::pipeline::{Scenario, ScenarioConfig};
use breval_core::snapshot::{ScenarioSnapshot, SnapshotError, SnapshotKey};
use std::path::Path;
use std::sync::Arc;

/// Upper bound on classifiers a set can hold (fixed-size answer arrays on
/// the allocation-free query path are dimensioned by this).
pub const MAX_CLASSIFIERS: usize = 8;

/// One classifier's snapshot with every part resolved.
#[derive(Debug, Clone)]
pub struct ClassifierView {
    /// The classifier name (`"asrank"`, …).
    pub name: String,
    /// CSR mirror of the inferred relationship graph.
    pub csr: Arc<CsrGraph>,
    /// Customer-cone sizes over the inferred graph.
    pub cones: Arc<ConeSizes>,
    /// PPDC bitset cones.
    pub ppdc: Arc<PpdcCones>,
    /// PPDC cone sizes (popcounts).
    pub ppdc_sizes: Arc<ConeSizes>,
    /// Validation ⋈ inference join, ascending by link.
    pub scored: Arc<Vec<ScoredLink>>,
}

impl ClassifierView {
    /// Resolves every part of `snap`, or reports which part is missing.
    /// Warm-loaded snapshots always pass (the codec materialises all
    /// parts); lazily-built ones must have been forced first.
    ///
    /// The accessors are written in `Type::method(..)` form: short names
    /// like `scored` collide with `Scenario`'s lock-taking accessors under
    /// xtask's name-based call resolution, and this function sits on the
    /// warm-load path that the L010/L011 flow rules walk.
    pub fn resolve(snap: &ScenarioSnapshot) -> Result<Self, SnapshotError> {
        let missing = |part| SnapshotError::Incomplete {
            name: ScenarioSnapshot::name(snap).to_owned(),
            part,
        };
        Ok(ClassifierView {
            name: ScenarioSnapshot::name(snap).to_owned(),
            csr: ScenarioSnapshot::csr(snap).ok_or_else(|| missing("csr"))?,
            cones: ScenarioSnapshot::cone_sizes(snap).ok_or_else(|| missing("cone_sizes"))?,
            ppdc: ScenarioSnapshot::ppdc_cones(snap).ok_or_else(|| missing("ppdc_cones"))?,
            ppdc_sizes: ScenarioSnapshot::ppdc_sizes(snap).ok_or_else(|| missing("ppdc_sizes"))?,
            scored: ScenarioSnapshot::scored(snap).ok_or_else(|| missing("scored"))?,
        })
    }
}

/// The classifier names a scenario config materialises, in serving order.
#[must_use]
pub fn classifier_names(config: &ScenarioConfig) -> Vec<&'static str> {
    let mut names = vec!["asrank", "problink", "toposcope"];
    if config.include_gao {
        names.push("gao");
    }
    names
}

/// An immutable query-ready generation (see the module docs).
#[derive(Debug, Clone)]
pub struct SnapshotSet {
    generation: u64,
    classifiers: Vec<ClassifierView>,
    slice_index: Arc<SliceIndex>,
}

impl SnapshotSet {
    /// A set with no classifiers and an empty slice table: every query
    /// answers `ok` with no data.
    #[must_use]
    pub fn empty() -> Self {
        SnapshotSet {
            generation: 0,
            classifiers: Vec::new(),
            slice_index: Arc::new(SliceIndex::build(&SliceTable::empty())),
        }
    }

    /// Assembles a set from resolved parts.
    #[must_use]
    pub fn new(classifiers: Vec<ClassifierView>, slices: &SliceTable) -> Self {
        let mut classifiers = classifiers;
        classifiers.truncate(MAX_CLASSIFIERS);
        SnapshotSet {
            generation: 0,
            classifiers,
            slice_index: Arc::new(SliceIndex::build(slices)),
        }
    }

    /// The same set renumbered to `generation` (used by the store on
    /// publish; generations are assigned by the store, not by builder).
    #[must_use]
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The generation number the store assigned this set.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The classifier views, in serving order.
    #[must_use]
    pub fn classifiers(&self) -> &[ClassifierView] {
        &self.classifiers
    }

    /// The slice index of this generation.
    #[must_use]
    pub fn slice_index(&self) -> &SliceIndex {
        &self.slice_index
    }

    /// Builds a set from a finished scenario: forces every snapshot part
    /// for every classifier and derives the slice table from the
    /// scenario's own link/validation state.
    pub fn from_scenario(scenario: &Scenario) -> Result<Self, SnapshotError> {
        let mut views = Vec::new();
        for name in classifier_names(&scenario.config) {
            // Force the lazy parts, then resolve the snapshot whole.
            let _ = scenario.cone_sizes_arc(name); // also forces the CSR
            let _ = scenario.ppdc_sizes_arc(name); // also forces the cones
            let _ = scenario.scored_arc(name);
            views.push(ClassifierView::resolve(&scenario.snapshot_arc(name))?);
        }
        let slices = SliceTable::from_scenario(scenario);
        Ok(SnapshotSet::new(views, &slices))
    }

    /// Warm-loads a set from the PR 8 binary snapshots plus the slice
    /// table persisted under `dir` for `config`. Every part arrives
    /// materialised; key mismatches and missing files surface as errors.
    pub fn load(dir: &Path, config: &ScenarioConfig) -> Result<Self, SnapshotError> {
        let mut views = Vec::new();
        for name in classifier_names(config) {
            let snap = ScenarioSnapshot::load(dir, &SnapshotKey::of(config, name))?;
            views.push(ClassifierView::resolve(&snap)?);
        }
        let slices = SliceTable::load(dir, &SliceTable::key(config))?;
        Ok(SnapshotSet::new(views, &slices))
    }

    /// Persists everything a warm start needs: each classifier's snapshot
    /// (forcing lazy parts) and the slice table. Returns the number of
    /// files written.
    pub fn save_all(scenario: &Scenario, dir: &Path) -> Result<usize, SnapshotError> {
        let mut written = 0;
        for name in classifier_names(&scenario.config) {
            scenario.save_snapshot(dir, name)?;
            written += 1;
        }
        let slices = SliceTable::from_scenario(scenario);
        slices.save(dir, &SliceTable::key(&scenario.config))?;
        Ok(written + 1)
    }
}
