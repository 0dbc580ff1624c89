//! Integration test for the observability layer: a small scenario run must
//! produce a manifest covering every pipeline stage, with wall-clock time
//! recorded and artifact counts that match the `Scenario`'s own fields.
//!
//! Observability state is process-global, so this file keeps everything in
//! a single test function.

use breval::analysis::{Scenario, ScenarioConfig};
use breval::obs;

#[test]
fn small_scenario_manifest_covers_all_stages() {
    obs::set_enabled(true);
    obs::reset();
    let scenario = Scenario::run(ScenarioConfig::small(99));

    // Exercise the cached join: repeated eval_table/scored_in_class calls
    // must compute the underlying join once per classifier.
    let table_a = scenario.eval_table("asrank");
    let table_b = scenario.eval_table("asrank");
    assert_eq!(
        serde_json::to_string(&table_a).unwrap(),
        serde_json::to_string(&table_b).unwrap()
    );
    let _ = scenario.scored_in_class("asrank", "TR°");
    let _ = scenario.scored_in_class("asrank", "S-TR");
    let _ = scenario.eval_table("problink");
    assert_eq!(
        obs::counter_value("scored_join_computed"),
        2,
        "join must run once per classifier (asrank, problink)"
    );

    // One PPDC walk fills every classifier's cones, however many ask.
    let _ = scenario.ppdc_sizes_arc("toposcope");
    let _ = scenario.ppdc_sizes_arc("asrank");

    let manifest = obs::RunManifest::capture("integration", 99);
    obs::set_enabled(false);

    let expected_stages = [
        "scenario_run",
        "scenario_run/generate",
        "scenario_run/simulate",
        "scenario_run/sanitize",
        "scenario_run/path_stats",
        "scenario_run/infer_all",
        "scenario_run/infer_all/infer_asrank",
        "scenario_run/infer_all/infer_problink",
        "scenario_run/infer_all/infer_toposcope",
        "scenario_run/infer_all/infer_gao",
        "scenario_run/compile_validation",
        "scenario_run/clean_validation",
        "scenario_run/link_classifier",
    ];
    for name in expected_stages {
        let stage = manifest
            .stages
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("stage {name} missing from manifest"));
        assert!(stage.calls >= 1, "stage {name} has no calls");
        assert!(stage.wall_ms > 0.0, "stage {name} has zero duration");
    }
    assert!(manifest.stages.len() >= 8);

    // Artifact counts line up with the scenario's own fields.
    assert_eq!(
        manifest.counters["links_inferred"],
        scenario.inferred_links.len() as u64
    );
    assert_eq!(
        manifest.counters["validation_labels_compiled"],
        scenario.validation_raw.len() as u64
    );
    assert_eq!(
        manifest.counters["validation_labels_cleaned"],
        scenario.validation.len() as u64
    );
    assert_eq!(
        manifest.counters["rels_assigned.asrank"],
        scenario.inference("asrank").unwrap().rels.len() as u64
    );
    assert_eq!(
        manifest.counters["rels_assigned.problink"],
        scenario.inference("problink").unwrap().rels.len() as u64
    );
    assert_eq!(
        manifest.counters["rels_assigned.toposcope"],
        scenario.inference("toposcope").unwrap().rels.len() as u64
    );
    assert_eq!(
        manifest.counters["rels_assigned.gao"],
        scenario.inference("gao").unwrap().rels.len() as u64
    );
    assert_eq!(
        manifest.counters["route_observations"],
        scenario.snapshot.observations.len() as u64
    );

    let ppdc = manifest
        .stages
        .iter()
        .find(|s| s.name == "ppdc")
        .expect("the PPDC walk is a stage");
    assert_eq!(ppdc.calls, 1, "the PPDC walk must run once per scenario");
    assert_eq!(
        manifest.counters["ppdc_labellings"],
        scenario.inferences.len() as u64,
        "the one walk covers every inference"
    );

    // The per-stage attribution agrees with the global totals.
    let asrank_stage = manifest
        .stages
        .iter()
        .find(|s| s.name == "scenario_run/infer_all/infer_asrank")
        .unwrap();
    assert_eq!(
        asrank_stage.counters["rels_assigned.asrank"],
        manifest.counters["rels_assigned.asrank"]
    );

    // Schema-2 identity fields: version stamp, the capturing machine's
    // parallelism, and the (caller-supplied) thread cap.
    assert_eq!(manifest.schema, obs::MANIFEST_SCHEMA);
    assert_eq!(manifest.schema, 2);
    assert!(
        manifest.hardware_threads >= 1,
        "available_parallelism must resolve on the test machine"
    );
    assert_eq!(manifest.thread_cap, 0, "cap is 0 until with_thread_cap");
    let capped = obs::RunManifest::capture("integration", 99).with_thread_cap(4);
    assert_eq!(capped.thread_cap, 4);

    // The parallel stages tallied item latencies into the pool histogram,
    // with conservative (bucket upper bound) quantiles in order.
    let items = manifest
        .histograms
        .get("parallel_map_item_ns")
        .expect("parallel_map item histogram recorded");
    assert!(items.count > 0, "no parallel_map items tallied");
    assert!(items.p50 <= items.p90 && items.p90 <= items.p99);
    assert!(items.sum > 0);

    // Pool-health counters flowed out of the parallel stages.
    assert_eq!(
        manifest.counters["pool_items_total"], items.count,
        "every parallel_map item is tallied exactly once"
    );

    // The manifest serializes to JSON and renders a table.
    let json = manifest.to_json();
    assert!(json.contains("scenario_run/infer_all/infer_asrank"));
    assert!(json.contains("\"schema\": 2") || json.contains("\"schema\":2"));
    let table = manifest.render_table();
    assert!(table.contains("scenario_run/clean_validation"));

    // Every label the run produced must be in the checked-in registry
    // (crates/obs/labels.txt) — the same contract `xtask lint` (L003) and
    // `xtask sanitize` enforce. A failure here means instrumentation was
    // added without registering its label.
    let registry = obs::LabelRegistry::builtin();
    assert!(!registry.is_empty(), "label registry must parse non-empty");
    for stage in &manifest.stages {
        assert!(
            registry.is_registered_path(&stage.name),
            "stage path {:?} contains an unregistered segment",
            stage.name
        );
        for label in stage.counters.keys() {
            assert!(
                registry.is_registered(label),
                "counter {label:?} (stage {:?}) is not in the obs label registry",
                stage.name
            );
        }
    }
    for label in manifest
        .counters
        .keys()
        .chain(manifest.gauges.keys())
        .chain(manifest.histograms.keys())
    {
        assert!(
            registry.is_registered(label),
            "metric label {label:?} is not in the obs label registry"
        );
    }
}
