//! End-to-end scenario driver: generate → propagate → infer → compile
//! validation → clean → classify. Everything the figures and tables need,
//! in one deterministic object.

use crate::classes::LinkClassifier;
use crate::cleaning::{clean, CleanValidation, CleaningConfig};
use crate::coverage::{coverage_by_class_keyed, ClassCoverage};
use crate::heatmap::{Heatmap, HeatmapConfig};
use crate::metrics::{EvalTable, ScoredLink};
use crate::sanitize;
use crate::snapshot::{self, ScenarioSnapshot, SnapshotError, SnapshotKey};
use asgraph::{cone, ConeSizes, Link, PathSet, PathStats, PpdcCones};
use asinfer::{AsRank, Classifier, GaoClassifier, Inference, PreparedPaths, ProbLink, TopoScope};
use bgpsim::RibSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};
use topogen::{Topology, TopologyConfig};
use valdata::{ValDataConfig, ValidationSet};

/// Which per-AS metric a heatmap bins by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeatmapMetric {
    /// Fig. 3: transit degree.
    TransitDegree,
    /// Fig. 7: provider/peer observed customer cone size.
    Ppdc,
    /// Fig. 8: PPDC, excluding links incident to vantage-point ASes.
    PpdcNoVp,
    /// Fig. 9: node degree.
    NodeDegree,
}

/// Scenario configuration (one paper "snapshot").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Topology generation.
    pub topology: TopologyConfig,
    /// Validation-data compilation.
    pub valdata: ValDataConfig,
    /// §4.2 cleaning.
    pub cleaning: CleaningConfig,
    /// Minimum scored links for a class to appear in evaluation tables
    /// (the paper uses 500).
    pub min_class_links: usize,
    /// Also run the (slow, historical) Gao baseline.
    pub include_gao: bool,
    /// Use all three validation sources instead of the communities-only
    /// "best-effort" set the paper studies (kept for source-bias ablations).
    pub use_all_sources: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            topology: TopologyConfig::default(),
            valdata: ValDataConfig::default(),
            cleaning: CleaningConfig::default(),
            min_class_links: 500,
            include_gao: true,
            use_all_sources: false,
        }
    }
}

impl ScenarioConfig {
    /// A small scenario for tests (seeded).
    #[must_use]
    pub fn small(seed: u64) -> Self {
        ScenarioConfig {
            topology: TopologyConfig::small(seed),
            min_class_links: 30,
            ..ScenarioConfig::default()
        }
    }
}

/// A fully-materialised scenario.
pub struct Scenario {
    /// The configuration that produced it.
    pub config: ScenarioConfig,
    /// The generated world.
    pub topology: Topology,
    /// The collector snapshot.
    pub snapshot: RibSnapshot,
    /// Observed paths (modern `AS4_PATH`-reconstructed view).
    pub paths: PathSet,
    /// Path-derived statistics.
    pub stats: PathStats,
    /// All observed links — the paper's "inferred links".
    pub inferred_links: BTreeSet<Link>,
    /// Per-classifier inference results.
    pub inferences: BTreeMap<String, Inference>,
    /// Raw validation labels.
    pub validation_raw: ValidationSet,
    /// Cleaned validation labels (§4.2).
    pub validation: CleanValidation,
    /// Link classifier (§5).
    pub classifier: LinkClassifier,
    /// One immutable [`ScenarioSnapshot`] per classifier, built lazily and
    /// shared (`Arc`) by every analysis path — the single cache that
    /// replaced the old per-kind cone/PPDC/scored maps.
    snapshot_cache: Mutex<BTreeMap<String, Arc<ScenarioSnapshot>>>,
    /// Set once the one PPDC walk has filled every inference's snapshot.
    ppdc_walked: OnceLock<()>,
}

impl Scenario {
    /// Runs the whole pipeline.
    #[must_use]
    pub fn run(config: ScenarioConfig) -> Self {
        let _span = breval_obs::span!("scenario_run");
        let topology = topogen::generate(&config.topology);
        if cfg!(debug_assertions) {
            match topology.ground_truth_graph() {
                Ok(g) => sanitize::debug_assert_clean("generate", &sanitize::check_graph(&g)),
                // breval-lint: allow(L009) -- debug-only abort: an invalid generated topology is unrecoverable
                Err(e) => panic!("generated topology is not a valid graph: {e:?}"),
            }
        }
        let snapshot = bgpsim::simulate(&topology);
        let paths = snapshot.paths.sanitized();
        if cfg!(debug_assertions) {
            sanitize::debug_assert_clean("sanitized_paths", &sanitize::check_pathset(&paths));
        }
        let stats = {
            let _span = breval_obs::span!("path_stats");
            let stats = paths.stats();
            breval_obs::counter("links_inferred", stats.links().len() as u64);
            stats
        };
        let inferred_links: BTreeSet<Link> = stats.links().clone();

        // Inference ensemble. `paths` is already sanitized and `stats`
        // already derived, so every classifier runs over the shared
        // preparation; the full-view ASRank result additionally seeds the
        // bootstrap classifiers (ProbLink, TopoScope). ASRank runs first on
        // this thread — it is the shared seed — then the remaining
        // classifiers fan out over the work-stealing pool (one thread each;
        // `breval_par` degrades to inline execution at a thread cap of 1,
        // keeping results and span nesting identical either way: workers
        // adopt this thread's span context, so per-classifier timings land
        // under `scenario_run/infer_all/...` in the run manifest).
        let mut inferences: BTreeMap<String, Inference> = BTreeMap::new();
        let asrank = {
            let _span = breval_obs::span!("infer_all");
            let prep = PreparedPaths::new(&paths, &stats);
            let asrank = AsRank::new().infer_prepared_observed(prep);
            let prep = prep.with_asrank(&asrank);
            let mut names = vec!["problink", "toposcope"];
            if config.include_gao {
                names.push("gao");
            }
            let results = breval_par::parallel_map(names.len(), |i| match names[i] {
                "problink" => ProbLink::new().infer_prepared_observed(prep),
                "toposcope" => TopoScope::new().infer_prepared_observed(prep),
                _ => GaoClassifier::new().infer_prepared_observed(prep),
            });
            for (name, inference) in names.into_iter().zip(results) {
                inferences.insert(name.into(), inference);
            }
            asrank
        };

        let validation_raw = valdata::compile_all(&topology, &snapshot, &config.valdata);
        let org = topology.as2org();
        let selected = if config.use_all_sources {
            validation_raw.clone()
        } else {
            validation_raw.only_source(valdata::LabelSource::Communities)
        };
        let validation = clean(&selected, &org, &config.cleaning);

        // The §5 classifier derives cones from ASRank's inference (the CAIDA
        // cone dataset analogue) and takes the Tier-1 / hypergiant lists.
        // Its cones ARE the ASRank snapshot's cones: build that snapshot
        // here, once, and share it — the classifier, the ensemble, coverage,
        // and the heatmaps all read the same `Arc`s.
        let (classifier, asrank_snapshot) = {
            let _span = breval_obs::span!("link_classifier");
            breval_obs::counter("classifier_cone_links", asrank.rels.len() as u64);
            let snap = snapshot::build_snapshot("asrank", &asrank.rels);
            let cones = snap.cone_sizes().unwrap_or_default();
            let classifier = LinkClassifier::with_cone_sizes(
                region_map(&topology),
                cones,
                topology.tier1.clone(),
                topology.hypergiants.clone(),
            );
            (classifier, snap)
        };
        inferences.insert("asrank".into(), asrank);

        if cfg!(debug_assertions) {
            sanitize::debug_assert_clean(
                "clean_validation",
                &sanitize::check_validation_subset(&validation, &inferred_links),
            );
            sanitize::debug_assert_clean(
                "link_classifier",
                &sanitize::check_class_partition(
                    &classifier,
                    &inferred_links,
                    &topology.tier1,
                    &topology.hypergiants,
                ),
            );
        }

        // Seed the cache with the ASRank snapshot built alongside the
        // classifier, so `snapshot_arc("asrank")` never re-derives it.
        let snapshot_cache = Mutex::new(BTreeMap::from([(
            "asrank".to_owned(),
            Arc::new(asrank_snapshot),
        )]));

        Scenario {
            config,
            topology,
            snapshot,
            paths,
            stats,
            inferred_links,
            inferences,
            validation_raw,
            validation,
            classifier,
            snapshot_cache,
            ppdc_walked: OnceLock::new(),
        }
    }

    /// The named classifier's [`ScenarioSnapshot`], built at most once and
    /// shared (the ASRank entry is pre-seeded from [`Scenario::run`]).
    /// Unknown names yield an empty snapshot, mirroring the empty tables
    /// the old per-kind caches handed out.
    #[must_use]
    pub fn snapshot_arc(&self, classifier_name: &str) -> Arc<ScenarioSnapshot> {
        let mut cache = self
            .snapshot_cache
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if let Some(hit) = cache.get(classifier_name) {
            return Arc::clone(hit);
        }
        let built = Arc::new(if self.inferences.contains_key(classifier_name) {
            ScenarioSnapshot::new_lazy(classifier_name)
        } else {
            ScenarioSnapshot::empty(classifier_name)
        });
        cache.insert(classifier_name.to_owned(), Arc::clone(&built));
        built
    }

    /// The CSR mirror of the named inference's relationships, materialised
    /// into the snapshot on first use and shared.
    #[must_use]
    pub fn csr_arc(&self, classifier_name: &str) -> Arc<asgraph::CsrGraph> {
        let snap = self.snapshot_arc(classifier_name);
        Arc::clone(snap.csr.get_or_init(|| {
            Arc::new(match self.inferences.get(classifier_name) {
                Some(inference) => snapshot::csr_of(&inference.rels),
                None => asgraph::CsrGraph::default(),
            })
        }))
    }

    /// Customer-cone sizes over the named inference's relationship graph,
    /// materialised into the snapshot on first use and shared (the ASRank
    /// entry is pre-built in [`Scenario::run`]). Unknown names yield an
    /// empty size table.
    #[must_use]
    pub fn cone_sizes_arc(&self, classifier_name: &str) -> Arc<ConeSizes> {
        let snap = self.snapshot_arc(classifier_name);
        Arc::clone(snap.cone_sizes.get_or_init(|| {
            if self.inferences.contains_key(classifier_name) {
                Arc::new(cone::customer_cone_sizes_csr(
                    &self.csr_arc(classifier_name),
                ))
            } else {
                Arc::new(ConeSizes::empty())
            }
        }))
    }

    /// PPDC bitset cones (paths × the named inference's relationships),
    /// shared through the snapshot. The first call for any known classifier
    /// fills every inference's snapshot from one walk over the paths
    /// ([`cone::ppdc_cones_each`]); the walk runs at most once per scenario,
    /// however many threads ask at once. Unknown names yield empty cones.
    #[must_use]
    pub fn ppdc_cones_arc(&self, classifier_name: &str) -> Arc<PpdcCones> {
        let snap = self.snapshot_arc(classifier_name);
        if self.inferences.contains_key(classifier_name) {
            self.ppdc_walked.get_or_init(|| {
                let labellings: Vec<_> = self.inferences.values().map(|i| &i.rels).collect();
                let tables = cone::ppdc_cones_each(&self.paths, &labellings);
                for (name, cones) in self.inferences.keys().zip(tables) {
                    let _ = self.snapshot_arc(name).ppdc.set(Arc::new(cones));
                }
            });
        }
        snap.ppdc_cones()
            .expect("the walk fills every inference's cones; empty snapshots hold empty ones")
    }

    /// PPDC cone sizes, derived once from the snapshot's bitset cones
    /// (popcount per row) and shared. Unknown names yield an empty table.
    #[must_use]
    pub fn ppdc_sizes_arc(&self, classifier_name: &str) -> Arc<ConeSizes> {
        let snap = self.snapshot_arc(classifier_name);
        Arc::clone(snap.ppdc_sizes.get_or_init(|| {
            let sizes = self.ppdc_cones_arc(classifier_name).sizes();
            if self.inferences.contains_key(classifier_name) {
                breval_obs::counter("ppdc_sizes_computed", sizes.len() as u64);
            }
            Arc::new(sizes)
        }))
    }

    /// The named inference (`"asrank"`, `"problink"`, `"toposcope"`, `"gao"`).
    #[must_use]
    pub fn inference(&self, name: &str) -> Option<&Inference> {
        self.inferences.get(name)
    }

    /// Joins one classifier's inferences with the cleaned validation labels.
    ///
    /// The join is computed at most once per classifier and cached; this
    /// returns a shared handle to the cached vector. Prefer this over
    /// [`Scenario::scored`] when the result is only read.
    #[must_use]
    pub fn scored_arc(&self, classifier_name: &str) -> Arc<Vec<ScoredLink>> {
        let snap = self.snapshot_arc(classifier_name);
        Arc::clone(snap.scored.get_or_init(|| {
            breval_obs::counter("scored_join_computed", 1);
            Arc::new(self.compute_scored(classifier_name))
        }))
    }

    /// Forces every lazy snapshot part for `classifier_name` and writes the
    /// snapshot to `dir`, keyed by (config hash, seed, classifier). Returns
    /// the path written.
    pub fn save_snapshot(
        &self,
        dir: &std::path::Path,
        classifier_name: &str,
    ) -> Result<std::path::PathBuf, SnapshotError> {
        let _ = self.cone_sizes_arc(classifier_name); // also forces the CSR
        let _ = self.ppdc_cones_arc(classifier_name);
        let _ = self.ppdc_sizes_arc(classifier_name);
        let _ = self.scored_arc(classifier_name);
        let snap = self.snapshot_arc(classifier_name);
        snap.save(dir, &self.snapshot_key(classifier_name))
    }

    /// The on-disk identity of this scenario's snapshot for one classifier.
    #[must_use]
    pub fn snapshot_key(&self, classifier_name: &str) -> SnapshotKey {
        SnapshotKey::of(&self.config, classifier_name)
    }

    /// Loads the persisted snapshot for (`config`, `classifier_name`) from
    /// `dir` without running the pipeline — the millisecond warm-start path.
    pub fn load_snapshot(
        dir: &std::path::Path,
        config: &ScenarioConfig,
        classifier_name: &str,
    ) -> Result<ScenarioSnapshot, SnapshotError> {
        ScenarioSnapshot::load(dir, &SnapshotKey::of(config, classifier_name))
    }

    fn compute_scored(&self, classifier_name: &str) -> Vec<ScoredLink> {
        let Some(inference) = self.inferences.get(classifier_name) else {
            return Vec::new();
        };
        self.validation
            .labels
            .iter()
            .filter_map(|(link, val)| {
                inference.rel(*link).map(|inf| ScoredLink {
                    link: *link,
                    validation: *val,
                    inferred: inf,
                })
            })
            .collect()
    }

    /// Joins one classifier's inferences with the cleaned validation labels,
    /// returning an owned copy (see [`Scenario::scored_arc`] for the
    /// borrowing variant backing it).
    #[must_use]
    pub fn scored(&self, classifier_name: &str) -> Vec<ScoredLink> {
        self.scored_arc(classifier_name).to_vec()
    }

    /// Scored links restricted to one class label (regional or topological).
    #[must_use]
    pub fn scored_in_class(&self, classifier_name: &str, class: &str) -> Vec<ScoredLink> {
        self.scored_arc(classifier_name)
            .iter()
            .filter(|s| {
                self.classifier
                    .region_class(s.link)
                    .map(|c| c.label() == class)
                    .unwrap_or(false)
                    || self.classifier.topo_class(s.link) == class
            })
            .copied()
            .collect()
    }

    /// Builds the Tables 1–3 analogue for one classifier: regional and
    /// topological class rows merged into one table.
    #[must_use]
    pub fn eval_table(&self, classifier_name: &str) -> EvalTable {
        let scored = self.scored_arc(classifier_name);
        let regional = EvalTable::build(
            classifier_name,
            &scored,
            |l| self.classifier.region_class(l).map(|c| c.label()),
            self.config.min_class_links,
        );
        let topo = EvalTable::build(
            classifier_name,
            &scored,
            |l| Some(self.classifier.topo_class(l)),
            self.config.min_class_links,
        );
        let mut rows = regional.rows;
        rows.extend(topo.rows);
        EvalTable {
            classifier: classifier_name.to_owned(),
            total: regional.total,
            rows,
        }
    }

    /// Fig. 1: regional link share vs validation coverage. Aggregates on the
    /// `Copy` [`crate::classes::RegionClass`] key; labels are materialised
    /// once per class at the end.
    #[must_use]
    pub fn fig1(&self) -> Vec<ClassCoverage> {
        let validated: BTreeSet<Link> = self.validation.labels.keys().copied().collect();
        coverage_by_class_keyed(
            &self.inferred_links,
            &validated,
            |l| self.classifier.region_class(l),
            |c| c.label(),
        )
    }

    /// Fig. 2: topological link share vs validation coverage. Aggregates on
    /// the dense `u8` pair code (region-gated like the paper: links with
    /// reserved/unmapped endpoints are discarded).
    #[must_use]
    pub fn fig2(&self) -> Vec<ClassCoverage> {
        let validated: BTreeSet<Link> = self.validation.labels.keys().copied().collect();
        coverage_by_class_keyed(
            &self.inferred_links,
            &validated,
            |l| {
                self.classifier
                    .region_class(l)
                    .map(|_| self.classifier.topo_pair_id(l))
            },
            |code| LinkClassifier::topo_pair_label(*code).to_string(),
        )
    }

    /// Figs. 3 / 7 / 8 / 9: (inferred, validated) heatmaps over `TR°` links,
    /// with PPDC metrics read from the ASRank snapshot (the paper's default
    /// view). See [`Scenario::heatmaps_for`] to plot another classifier.
    #[must_use]
    pub fn heatmaps(&self, metric: HeatmapMetric) -> (Heatmap, Heatmap) {
        self.heatmaps_for("asrank", metric)
    }

    /// [`Scenario::heatmaps`] for a named classifier: PPDC-binned metrics
    /// use *that* classifier's cones instead of being hard-wired to ASRank.
    #[must_use]
    pub fn heatmaps_for(&self, classifier_name: &str, metric: HeatmapMetric) -> (Heatmap, Heatmap) {
        let tr_links: Vec<Link> = self
            .inferred_links
            .iter()
            .filter(|l| self.classifier.is_tr_tr(**l))
            .copied()
            .collect();
        let validated: Vec<Link> = tr_links
            .iter()
            .filter(|l| self.validation.labels.contains_key(l))
            .copied()
            .collect();

        let vp_set: BTreeSet<asgraph::Asn> = self.paths.vantage_points().into_iter().collect();
        let (tr_links, validated) = if metric == HeatmapMetric::PpdcNoVp {
            (
                tr_links
                    .iter()
                    .filter(|l| !vp_set.contains(&l.a()) && !vp_set.contains(&l.b()))
                    .copied()
                    .collect::<Vec<_>>(),
                validated
                    .iter()
                    .filter(|l| !vp_set.contains(&l.a()) && !vp_set.contains(&l.b()))
                    .copied()
                    .collect::<Vec<_>>(),
            )
        } else {
            (tr_links, validated)
        };

        let config = match metric {
            HeatmapMetric::TransitDegree => HeatmapConfig::transit_degree(),
            HeatmapMetric::Ppdc | HeatmapMetric::PpdcNoVp => HeatmapConfig::ppdc(),
            HeatmapMetric::NodeDegree => HeatmapConfig::node_degree(),
        };
        let ppdc: Arc<ConeSizes> = match metric {
            HeatmapMetric::Ppdc | HeatmapMetric::PpdcNoVp => self.ppdc_sizes_arc(classifier_name),
            _ => Arc::new(ConeSizes::empty()),
        };
        let metric_fn = |asn: asgraph::Asn| -> usize {
            match metric {
                HeatmapMetric::TransitDegree => self.stats.transit_degree(asn),
                HeatmapMetric::NodeDegree => self.stats.node_degree(asn),
                HeatmapMetric::Ppdc | HeatmapMetric::PpdcNoVp => ppdc.get(asn).unwrap_or(1),
            }
        };
        (
            Heatmap::build(tr_links.iter(), metric_fn, config),
            Heatmap::build(validated.iter(), metric_fn, config),
        )
    }
}

/// Builds the §5 region map from the topology's registry artefacts, going
/// through the real text formats (IANA table + delegation files).
fn region_map(topology: &Topology) -> asregistry::RegionMap {
    let iana = topology.iana_table();
    let files = topology.delegation_files("20180405");
    asregistry::RegionMap::build(iana, &files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::run(ScenarioConfig::small(99))
    }

    #[test]
    fn pipeline_produces_everything() {
        let s = scenario();
        assert!(s.inferred_links.len() > 1000);
        assert!(s.validation.len() > 100);
        assert!(s.inferences.contains_key("asrank"));
        assert!(s.inferences.contains_key("problink"));
        assert!(s.inferences.contains_key("toposcope"));
        let scored = s.scored("asrank");
        assert!(scored.len() > 100);
        // Every scored link is both validated and inferred.
        for sl in scored.iter().take(50) {
            assert!(s.validation.labels.contains_key(&sl.link));
        }
    }

    #[test]
    fn fig1_shares_sum_to_one() {
        let s = scenario();
        let rows = s.fig1();
        assert!(!rows.is_empty());
        let sum: f64 = rows.iter().map(|r| r.share).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        for r in &rows {
            assert!(r.coverage >= 0.0 && r.coverage <= 1.0);
        }
    }

    #[test]
    fn fig2_covers_topo_classes() {
        let s = scenario();
        let rows = s.fig2();
        let labels: Vec<&str> = rows.iter().map(|r| r.class.as_str()).collect();
        assert!(labels.contains(&"S-TR"), "classes: {labels:?}");
        assert!(labels.contains(&"TR°"), "classes: {labels:?}");
        assert!(labels.contains(&"S-T1"), "classes: {labels:?}");
    }

    #[test]
    fn eval_table_has_total_row() {
        let s = scenario();
        let table = s.eval_table("asrank");
        assert!(table.total.lc_p + table.total.lc_c > 100);
        assert!(!table.rows.is_empty());
    }

    #[test]
    fn heatmaps_are_normalised() {
        let s = scenario();
        for metric in [
            HeatmapMetric::TransitDegree,
            HeatmapMetric::Ppdc,
            HeatmapMetric::PpdcNoVp,
            HeatmapMetric::NodeDegree,
        ] {
            let (inf, val) = s.heatmaps(metric);
            if inf.links > 0 {
                let sum: f64 = inf.cells.iter().flatten().sum();
                assert!((sum - 1.0).abs() < 1e-9);
            }
            assert!(val.links <= inf.links);
        }
    }
}
