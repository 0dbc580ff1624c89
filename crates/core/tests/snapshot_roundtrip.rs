//! Scenario-snapshot persistence, end to end: saving every classifier's
//! snapshot and reloading it must reproduce the analysis byte-for-byte,
//! at any thread count — and corrupt files must fail loudly but gracefully.

use breval_core::metrics::ScoredLink;
use breval_core::pipeline::{HeatmapMetric, Scenario, ScenarioConfig};
use breval_core::snapshot::{ScenarioSnapshot, SnapshotError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

const CLASSIFIERS: [&str; 4] = ["asrank", "problink", "toposcope", "gao"];

fn config() -> ScenarioConfig {
    ScenarioConfig::small(99)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("breval_snap_rt_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Saves all four classifiers' snapshots and returns their file bytes.
fn save_all(scenario: &Scenario, dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    CLASSIFIERS
        .iter()
        .map(|name| {
            let path = scenario
                .save_snapshot(dir, name)
                .unwrap_or_else(|e| panic!("saving {name}: {e}"));
            (
                (*name).to_owned(),
                std::fs::read(path).expect("written snapshot is readable"),
            )
        })
        .collect()
}

/// One shared scenario for the tests that only read it.
fn shared_scenario() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| Scenario::run(config()))
}

#[test]
fn snapshots_round_trip_byte_identical_across_classifiers_and_threads() {
    // Same scenario, thread caps 1 and 4: the persisted snapshots must be
    // byte-identical — the pool guarantees deterministic results and the
    // codec adds nothing run-dependent.
    // `with_thread_cap` scopes + serialises the process-global cap against
    // any concurrently running test in this binary.
    let dir1 = temp_dir("t1");
    let bytes1 = breval_par::with_thread_cap(Some(1), || {
        let s1 = Scenario::run(config());
        save_all(&s1, &dir1)
    });

    let dir4 = temp_dir("t4");
    let (s4, bytes4) = breval_par::with_thread_cap(Some(4), || {
        let s4 = Scenario::run(config());
        let bytes = save_all(&s4, &dir4);
        (s4, bytes)
    });

    for name in CLASSIFIERS {
        assert_eq!(
            bytes1[name], bytes4[name],
            "snapshot for {name} differs between 1 and 4 threads"
        );

        // Warm load reproduces every analysis output of the cold build.
        let loaded = Scenario::load_snapshot(&dir4, &s4.config, name)
            .unwrap_or_else(|e| panic!("loading {name}: {e}"));
        let cold = &s4.snapshots[name];
        assert_eq!(
            loaded.summary_csv(),
            cold.summary_csv(),
            "summary of {name}"
        );
        assert_eq!(loaded.cones, cold.cones, "cone sizes of {name}");
        assert_eq!(
            loaded.ppdc.sizes(),
            cold.ppdc.sizes(),
            "PPDC sizes of {name}"
        );
        assert_eq!(loaded.scored, cold.scored, "scored join of {name}");
        // And re-encoding the loaded snapshot recreates the file bytes.
        assert_eq!(
            loaded.to_bytes(&s4.snapshot_key(name)),
            bytes4[name],
            "re-encode of {name}"
        );
    }

    // A wrong-version file is refused gracefully.
    let mut bad = bytes4["asrank"].clone();
    bad[8] = 0xfe;
    assert!(matches!(
        ScenarioSnapshot::from_bytes(&bad),
        Err(SnapshotError::Codec(_))
    ));
}

#[test]
fn ppdc_heatmaps_follow_the_requested_classifier() {
    // Regression for `Scenario::heatmaps` hard-wiring the ASRank PPDC sizes
    // into every classifier's plot: the per-classifier path must actually
    // use the named classifier's cones.
    let s = shared_scenario();
    let asrank = s.snapshots["asrank"].ppdc.sizes();
    let problink = s.snapshots["problink"].ppdc.sizes();
    assert_ne!(
        asrank, problink,
        "seed 99 must give ASRank and ProbLink different PPDC cones; pick another seed"
    );
    let (inf_a, val_a) = s.heatmaps_for("asrank", HeatmapMetric::Ppdc);
    let (inf_p, val_p) = s.heatmaps_for("problink", HeatmapMetric::Ppdc);
    assert!(
        inf_a.cells != inf_p.cells || val_a.cells != val_p.cells,
        "PPDC heatmaps for ASRank and ProbLink are identical — classifier not threaded through"
    );
    // The default entry point keeps the paper's ASRank view.
    let (inf_default, _) = s.heatmaps(HeatmapMetric::Ppdc);
    assert_eq!(inf_default.cells, inf_a.cells);
}

#[test]
fn every_snapshot_equals_a_standalone_build() {
    // `Scenario::run` builds each classifier's parts together (ASRank's
    // with the link classifier, every PPDC table from one walk); each must
    // equal what the part's own builder makes from that classifier alone.
    let s = shared_scenario();
    assert!(s.snapshots.keys().eq(s.inferences.keys()));
    let encode = |write: &dyn Fn(&mut asgraph::io::ByteWriter)| {
        let mut w = asgraph::io::ByteWriter::new();
        write(&mut w);
        w.into_bytes()
    };
    for (name, inference) in &s.inferences {
        let snap = &s.snapshots[name];
        assert_eq!(snap.name, *name);
        let csr = asgraph::CsrGraph::build(&inference.rels);
        assert_eq!(
            encode(&|w| asgraph::io::write_csr_graph(w, &snap.csr)),
            encode(&|w| asgraph::io::write_csr_graph(w, &csr)),
            "CSR of {name}"
        );
        assert_eq!(
            *snap.cones,
            asgraph::cone::customer_cone_sizes_csr(&csr),
            "cone sizes of {name}"
        );
        let ppdc = asgraph::cone::ppdc_cones(&s.paths, &inference.rels);
        assert_eq!(
            encode(&|w| asgraph::io::write_ppdc_cones(w, &snap.ppdc)),
            encode(&|w| asgraph::io::write_ppdc_cones(w, &ppdc)),
            "PPDC cones of {name}"
        );
        let scored: Vec<ScoredLink> = s
            .validation
            .labels
            .iter()
            .filter_map(|(&link, &validation)| {
                let inferred = *inference.rels.get(&link)?;
                Some(ScoredLink {
                    link,
                    validation,
                    inferred,
                })
            })
            .collect();
        assert_eq!(*snap.scored, scored, "scored join of {name}");
    }
}
