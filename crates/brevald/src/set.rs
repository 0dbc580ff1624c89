//! One query-ready generation: every classifier's [`ScenarioSnapshot`]
//! plus the region×topology slice index.
//!
//! A [`SnapshotSet`] is immutable after construction. It holds the same
//! `Arc`s a finished [`Scenario`] holds, or the snapshots warm-loaded from
//! the binary format; either way every part is there, so the query path
//! reads plain fields.

use crate::slices::{SliceIndex, SliceTable};
use breval_core::pipeline::{Scenario, ScenarioConfig};
use breval_core::snapshot::{ScenarioSnapshot, SnapshotError, SnapshotKey};
use std::convert::Infallible;
use std::path::Path;
use std::sync::Arc;

/// Upper bound on classifiers a set can hold (fixed-size answer arrays on
/// the allocation-free query path are dimensioned by this).
pub const MAX_CLASSIFIERS: usize = 8;

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
    classifiers: Vec<Arc<ScenarioSnapshot>>,
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

    /// Assembles a set from classifier snapshots, in serving order.
    #[must_use]
    pub fn new(classifiers: Vec<Arc<ScenarioSnapshot>>, slices: &SliceTable) -> Self {
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

    /// The classifier snapshots, in serving order.
    #[must_use]
    pub fn classifiers(&self) -> &[Arc<ScenarioSnapshot>] {
        &self.classifiers
    }

    /// The slice index of this generation.
    #[must_use]
    pub fn slice_index(&self) -> &SliceIndex {
        &self.slice_index
    }

    /// Builds a set from a finished scenario: its snapshots, shared, and
    /// the slice table derived from its own link/validation state. Never
    /// fails.
    pub fn from_scenario(scenario: &Scenario) -> Result<Self, Infallible> {
        let snapshots = classifier_names(&scenario.config)
            .into_iter()
            .filter_map(|name| scenario.snapshots.get(name).map(Arc::clone))
            .collect();
        let slices = SliceTable::from_scenario(scenario);
        Ok(SnapshotSet::new(snapshots, &slices))
    }

    /// Warm-loads a set from the binary snapshots plus the slice table
    /// persisted under `dir` for `config`. Key mismatches and missing files
    /// surface as errors.
    pub fn load(dir: &Path, config: &ScenarioConfig) -> Result<Self, SnapshotError> {
        let snapshots = classifier_names(config)
            .into_iter()
            .map(|name| ScenarioSnapshot::load(dir, &SnapshotKey::of(config, name)).map(Arc::new))
            .collect::<Result<_, _>>()?;
        let slices = SliceTable::load(dir, &SliceTable::key(config))?;
        Ok(SnapshotSet::new(snapshots, &slices))
    }

    /// Persists everything a warm start needs: each classifier's snapshot
    /// and the slice table. Returns the number of files written.
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
